"""Arbitrary-precision overlap evaluation for extreme parameters.

At reflectivities below roughly 1e-7 the Bhattacharyya exponent
-log Q_{1/2} drops to the 1e-16 scale, where double precision cannot
separate Q from 1.  These helpers evaluate the overlap formula in mpmath on
the hypothesis-pair moments of `target.pair_moments`, fed mpf inputs, so
the limit-order study can evaluate exact exponent ratios instead of
expansions.  The Williamson step and the overlap formula are written here
independently of `divergence`; at moderate parameters the results agree
with the float64 path (tested), which is what certifies this route.  The
s-independent Williamson step of a point is kept in a small cache, so
evaluating one point at several s pays for it once.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

from .target import pair_moments

# Working precision, in decimal digits, of every evaluation in this module.
DPS = 60


def _mp_symplectic_form(n: int) -> mp.matrix:
    delta = mp.zeros(2 * n)
    for k in range(n):
        delta[2 * k, 2 * k + 1] = mp.mpf(1)
        delta[2 * k + 1, 2 * k] = mp.mpf(-1)
    return delta


def _sym_root(v: mp.matrix, power):
    """v**power for symmetric positive definite v, via eigendecomposition."""
    evals, q = mp.eigsy(v)
    d = mp.zeros(v.rows)
    for i in range(v.rows):
        d[i, i] = evals[i] ** power
    return q * d * q.T


def _williamson_pl(v: mp.matrix):
    """Symplectic eigenvalues nu_k and T with v = T diag(nu x I2) T^T."""
    n = v.rows // 2
    root = _sym_root(v, mp.mpf(1) / 2)
    root_inv = _sym_root(v, mp.mpf(-1) / 2)
    anti = root_inv * _mp_symplectic_form(n) * root_inv
    # -i anti is Hermitian with eigenvalues +-1/nu_k.  Its eigenvectors are
    # orthonormal even where nu_k coincide, so the real and imaginary parts
    # of those with positive eigenvalue form orthogonal canonical pairs.
    evals, evecs = mp.eighe(anti * mp.mpc(0, -1))

    cols = []
    nus = []
    for i, lam in enumerate(evals):
        if lam <= 0:
            continue
        w = evecs[:, i]
        u = mp.matrix([mp.re(w[j]) for j in range(2 * n)])
        x = mp.matrix([mp.im(w[j]) for j in range(2 * n)])
        cols.append((u / mp.norm(u), x / mp.norm(x)))
        nus.append(1 / lam)

    o = mp.zeros(2 * n)
    for k, (u, x) in enumerate(cols):
        for j in range(2 * n):
            o[j, 2 * k] = u[j]
            o[j, 2 * k + 1] = x[j]
    d_inv_half = mp.zeros(2 * n)
    for k, nu in enumerate(nus):
        d_inv_half[2 * k, 2 * k] = 1 / mp.sqrt(nu)
        d_inv_half[2 * k + 1, 2 * k + 1] = 1 / mp.sqrt(nu)
    return nus, root * o * d_inv_half


def _g(p, x):
    return mp.mpf(2) ** p / ((x + 1) ** p - (x - 1) ** p)


def _lam(p, x):
    hi = (x + 1) ** p
    lo = (x - 1) ** p
    return (hi + lo) / (hi - lo)


def _geometry(mean0, cov0, mean1, cov1):
    """The s-independent part of log Q_s: mean difference and both Williamson
    decompositions."""
    m0, v0, m1, v1 = (mp.matrix(x) for x in (mean0, cov0, mean1, cov1))
    return m1 - m0, _williamson_pl(v0), _williamson_pl(v1)


def _log_q_at(geometry, s):
    diff, (nus0, t0), (nus1, t1) = geometry
    n = t0.rows // 2
    lam0 = mp.zeros(2 * n)
    lam1 = mp.zeros(2 * n)
    log_g = mp.mpf(0)
    for k in range(n):
        x0, x1 = 2 * nus0[k], 2 * nus1[k]
        lam0[2 * k, 2 * k] = lam0[2 * k + 1, 2 * k + 1] = _lam(s, x0)
        lam1[2 * k, 2 * k] = lam1[2 * k + 1, 2 * k + 1] = _lam(1 - s, x1)
        log_g += mp.log(_g(s, x0)) + mp.log(_g(1 - s, x1))
    sig = t0 * lam0 * t0.T + t1 * lam1 * t1.T
    delta = mp.sqrt(2) * diff
    quad = (delta.T * mp.lu_solve(sig, delta))[0]
    return n * mp.log(2) + log_g - mp.log(mp.det(sig)) / 2 - quad / 2


@lru_cache(maxsize=8)
def _pair_geometry(kind: str, n_s, n_b, kappa, model: str):
    # Only mp numbers are kept: a sweep over s reuses the two mpmath
    # Williamson decompositions of its point, which dominate each call.
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
