"""Arbitrary-precision overlap evaluation for extreme parameters.

At reflectivities below roughly 1e-7 the Bhattacharyya exponent
-log Q_{1/2} drops to the 1e-16 scale, where double precision cannot
separate Q from 1.  These helpers evaluate the overlap formula in mpmath on
the hypothesis-pair moments of `target.pair_moments`, fed mpf inputs, so
the limit-order study can evaluate exact exponent ratios instead of
expansions.  The symplectic eigendecomposition and the overlap formula are
written here independently of `divergence`; at moderate parameters the
results agree with the float64 path (tested), which is what certifies this
route.

Each state V = L L^T is taken through its Cholesky factor: K = L^-1 Omega
L^-T is antisymmetric, so the symmetric K K^T has eigenvalues 1/nu_k^2,
each twice.  A cyclic Jacobi step gives them in ascending order, the two
copies of each next to each other, with orthonormal eigenvectors W; each
mode then costs one sqrt, log and log1p per state and one exp per s.  The
state's term of Sigma_s is L W diag(Lambda_p(nu_j) / nu_j) W^T L^T, a
function of K K^T, so any eigenbasis of a pair serves.  Both terms are
written in rho0's frame L0 W0, where Sigma_s = L0 W0 A W0^T L0^T with
A = diag(c0) + sum_k c1_k P_k: P_k = M_k M_k^T, with M_k the columns
2k, 2k + 1 of M = W0^T L0^-1 L1 W1, projects on rho1's mode k and does
not depend on s.  One Cholesky factor of A gives its determinant and the
mean term.  The s-independent part of a point is kept in a small cache, so
evaluating one point at several s pays for it once.  Matrices are lists
of rows of mpf.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

from .target import pair_moments

# Working precision, in decimal digits, of every evaluation in this module.
DPS = 60
# A doubled symplectic eigenvalue 2 nu within this distance of 1 is a pure
# mode, set to 1 exactly.  The eigensolver leaves a pure mode a few units
# of the last digit off 1/2, and (2 nu - 1)**p would carry that rounding
# into log Q at O(1e-61**p), or make it complex.
_PURE_BAND = mp.mpf(10) ** (10 - DPS)


def _cholesky(a):
    """Lower-triangular L with a = L L^T, as square rows; reads only a[i][j]
    with j <= i."""
    low = []
    for i, row in enumerate(a):
        out = []
        for j in range(i):
            out.append((row[j] - mp.fdot(out, low[j][:j])) / low[j][j])
        out.append(mp.sqrt(row[i] - mp.fdot(out, out)))
        low.append(out + [0] * (len(a) - i - 1))
    return low


def _forward(low, b):
    """x with L x = b, for lower-triangular L."""
    x = []
    for i, row in enumerate(low):
        x.append((b[i] - mp.fdot(row[:i], x)) / row[i])
    return x


def _columns(rows):
    return [list(col) for col in zip(*rows)]


def _jacobi(a):
    """Eigenvalues of the symmetric a in ascending order, and its orthonormal
    eigenvectors as a list of columns in that order.  Cyclic Jacobi: sweeps
    rotate a_pq to 0 until every a_pq^2 <= eps^2 |a_pp a_qq|."""
    dim = len(a)
    a = [list(row) for row in a]
    vecs = [[int(i == j) for i in range(dim)] for j in range(dim)]
    tol, rotated = mp.eps**2, True
    while rotated:
        rotated = False
        for p in range(dim):
            for q in range(p + 1, dim):
                apq = a[p][q]
                if apq * apq <= tol * abs(a[p][p] * a[q][q]):
                    continue
                rotated = True
                tau = (a[q][q] - a[p][p]) / (2 * apq)
                t = (1 if tau >= 0 else -1) / (abs(tau) + mp.sqrt(1 + tau * tau))
                c = 1 / mp.sqrt(1 + t * t)
                sn = t * c
                a[p][p], a[q][q], a[p][q], a[q][p] = a[p][p] - t * apq, a[q][q] + t * apq, 0, 0
                for r in (r for r in range(dim) if r not in (p, q)):
                    a[r][p], a[r][q] = c * a[r][p] - sn * a[r][q], sn * a[r][p] + c * a[r][q]
                    a[p][r], a[q][r] = a[r][p], a[r][q]
                vecs[p], vecs[q] = ([c * x - sn * y for x, y in zip(vecs[p], vecs[q])],
                                    [sn * x + c * y for x, y in zip(vecs[p], vecs[q])])
    order = sorted(range(dim), key=lambda k: a[k][k])
    return [a[k][k] for k in order], [vecs[k] for k in order]


def _state(cov):
    """Cholesky factor L, eigenvectors W of K K^T (as columns, the two of
    each mode next to each other), the sum of log(2 nu + 1) over them, and
    per mode the pair (1/nu, log((2 nu - 1) / (2 nu + 1))), with None for
    the log of a pure mode."""
    low = _cholesky(cov)
    dim = len(cov)
    inv = _columns([_forward(low, [1 if i == j else 0 for i in range(dim)]) for j in range(dim)])
    # Rows of L^-1 Omega, with Omega = diag([[0, 1], [-1, 0]]) per mode.
    inv_omega = [[-r[k + 1] if k % 2 == 0 else r[k - 1] for k in range(dim)] for r in inv]
    # K = L^-1 Omega L^-T from its upper triangle, K K^T from its lower one.
    anti = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            anti[i][j] = mp.fdot(inv_omega[i], inv[j])
            anti[j][i] = -anti[i][j]
    gram = [[mp.fdot(anti[i], anti[j]) for j in range(i + 1)] for i in range(dim)]
    gram = [[gram[max(i, j)][min(i, j)] for j in range(dim)] for i in range(dim)]
    # K is antisymmetric: each 1/nu^2 is an eigenvalue twice, and in
    # ascending order its two copies are neighbours.
    evals, vecs = _jacobi(gram)
    log_hi, modes = [], []
    for e in evals[::2]:
        inv_nu = mp.sqrt(e)
        pure = abs(2 / inv_nu - 1) < _PURE_BAND
        x = 1 if pure else 2 / inv_nu
        log_hi.append(mp.log(x + 1))
        modes.append((mp.mpf(2), None) if pure else (inv_nu, mp.log1p(-2 / (x + 1))))
    return low, vecs, 2 * mp.fsum(log_hi), modes


def _geometry(mean0, cov0, mean1, cov1):
    """The s-independent part of log Q_s, in rho0's frame L0 W0: log det L0,
    both states' sums of log(2 nu + 1) and modes (see _state), rho1's pair
    projectors as proj[i][j][k] = (P_k)_ij for j <= i, and
    z = sqrt(2) W0^T L0^-1 (m1 - m0)."""
    low0, w0, log_hi0, modes0 = _state(cov0)
    low1, w1, log_hi1, modes1 = _state(cov1)
    rel = [_forward(low0, col) for col in _columns(low1)]  # columns of L0^-1 L1
    rel_w1 = [[mp.fdot(row, w) for w in w1] for row in _columns(rel)]  # rows of L0^-1 L1 W1
    m = [[mp.fdot(w, col) for col in _columns(rel_w1)] for w in w0]  # M, as rows
    pairs = [[row[2 * k : 2 * k + 2] for k in range(len(modes1))] for row in m]
    proj = [[[mp.fdot(u, v) for u, v in zip(pairs[i], pairs[j])] for j in range(i + 1)]
            for i in range(len(m))]
    y = _forward(low0, [b - a for a, b in zip(mean0, mean1)])
    z = [mp.sqrt(2) * mp.fdot(w, y) for w in w0]
    log_det0 = mp.log(mp.fprod(row[i] for i, row in enumerate(low0)))
    return log_det0, log_hi0, modes0, log_hi1, modes1, proj, z


def _weights(p, modes):
    """Per mode Lambda_p(nu) / nu, and the product over modes of 1 - r,
    where with hi, lo = (2 nu + 1)**p, (2 nu - 1)**p and r = lo / hi,
    Lambda_p = (1 + r) / (1 - r) and hi - lo = hi (1 - r)."""
    weights, spread = [], mp.mpf(1)
    for inv_nu, log_ratio in modes:
        t = 1 if log_ratio is None else -mp.expm1(p * log_ratio)
        weights.append((2 - t) / t * inv_nu)
        spread *= t
    return weights, spread


def _log_q_at(geometry, s):
    log_det0, log_hi0, modes0, log_hi1, modes1, proj, z = geometry
    n = len(z) // 2
    c0, spread0 = _weights(s, modes0)
    c1, spread1 = _weights(1 - s, modes1)
    # A = diag(c0) + sum_k c1_k P_k, c0 repeated over each pair's eigenvectors
    a = [[mp.fdot(c1, pij) + (c0[i // 2] if i == j else 0) for j, pij in enumerate(row)]
         for i, row in enumerate(proj)]
    low = _cholesky(a)
    u = _forward(low, z)
    # Sum over modes of log G_p(nu), G_p = 2**p / (hi - lo): the 2**p make
    # n log 2, and log_hi counts each mode once per eigenvector of its pair.
    log_g = n * mp.ln2 - (s * log_hi0 + (1 - s) * log_hi1) / 2 - mp.log(spread0 * spread1)
    # log det Sigma_s / 2 = log det L0 + log det of A's Cholesky factor
    log_det_low = mp.log(mp.fprod(row[i] for i, row in enumerate(low)))
    return n * mp.ln2 + log_g - log_det0 - log_det_low - mp.fdot(u, u) / 2


@lru_cache(maxsize=8)
def _pair_geometry(kind: str, n_s, n_b, kappa, model: str):
    # Only mp numbers are kept: a sweep over s reuses the two Jacobi steps
    # and the pair projectors of its point, which dominate each call.
    with mp.workdps(DPS):
        return _geometry(*pair_moments(kind, mp.mpf(n_s), mp.mpf(n_b), mp.mpf(kappa), model))


def log_q_s(kind: str, n_s, n_b, kappa, s, model: str = "agnostic") -> mp.mpf:
    """High-precision log Q_s for a transmitter/target configuration, 0 < s < 1."""
    with mp.workdps(DPS):
        s = mp.mpf(s)
        if not 0 < s < 1:
            raise ValueError(f"s must lie in (0, 1), got {s}")
        return _log_q_at(_pair_geometry(kind, n_s, n_b, kappa, model), s)


def log_q_half(kind: str, n_s, n_b, kappa, model: str = "agnostic") -> mp.mpf:
    """High-precision log Q_{1/2} for a transmitter/target configuration."""
    return log_q_s(kind, n_s, n_b, kappa, 0.5, model=model)


def q_half_deficit(kind: str, n_s, n_b, kappa, model: str = "agnostic") -> float:
    """High-precision 1 - Q_{1/2}, taken to float only at the end."""
    with mp.workdps(DPS):
        return float(-mp.expm1(log_q_half(kind, n_s, n_b, kappa, model)))


def exponent_ratio(n_s, n_b, kappa, model: str = "agnostic") -> float:
    """Ratio of Bhattacharyya exponents, entangled over coherent transmitter,
    at matched signal intensity."""
    with mp.workdps(DPS):
        num = -log_q_half("tmss", n_s, n_b, kappa, model)
        den = -log_q_half("coherent", n_s, n_b, kappa, model)
        return float(num / den)
