"""Overlap functionals Q_s, Chernoff-exponent minimization, and fidelity.

Q_s(rho0, rho1) = tr rho0^s rho1^{1-s} is evaluated from Williamson data of
the two covariance matrices.  The closed form below follows the doubled
quadrature convention of the standard Gaussian-discrimination formula, so
symplectic eigenvalues enter as x = 2 nu and mean vectors pick up a factor
sqrt(2) relative to the package's vacuum = I/2 convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import GaussianState, symplectic_inverse, williamson
from .target import HypothesisPair

# Minimizer defaults; chosen because log Q_s becomes exponentially flat in s
# at small reflectivity, where a linear-scale objective would lose the minimum.
# S_TOL is the width of the final bracket on s*, MAX_ITER the budget of search
# steps, and a pair whose log Q_s spans less than FLAT_SPAN over [0.05, 0.95]
# is reported at s = 1/2 as flat.  The search brackets (_S_EDGE, 1 - _S_EDGE).
S_TOL = 1e-7
MAX_ITER = 200
FLAT_SPAN = 1e-13
_S_EDGE = 1e-6


def _check_s(s: float) -> float:
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return s


def _doubled(x) -> np.ndarray:
    """Clamp doubled symplectic eigenvalues to the physical domain x >= 1.

    Pure-state eigenvalues land at x = 1 up to rounding; the clamp realizes
    the 0^p = 0 convention instead of pow of a negative residual.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0 - 1e-9):
        raise ValueError(f"unphysical doubled symplectic eigenvalue {x.min()} < 1")
    return np.maximum(x, 1.0)


def g_factor(p: float, x):
    """G_p(x) = 2^p / ((x+1)^p - (x-1)^p) for x >= 1, 0 < p < 1.

    Like the other factor helpers, p may be an array matching x.
    """
    x = _doubled(x)
    return 2.0**p / ((x + 1.0) ** p - (x - 1.0) ** p)


def lambda_factor(p: float, x):
    """Lambda_p(x) = ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p) for x >= 1."""
    x = _doubled(x)
    hi = (x + 1.0) ** p
    lo = (x - 1.0) ** p
    return (hi + lo) / (hi - lo)


def _powers(p: float, x):
    """(x+1)^p, (x-1)^p, ln(x+1) and ln(x-1), the last set to 0 at x = 1.

    At a pure mode (x = 1) every term carrying ln(x-1) also carries
    (x-1)^p = 0, so the substitute logarithm makes those terms exactly 0.
    """
    x = _doubled(x)
    ln_hi = np.log(x + 1.0)
    ln_lo = np.log(np.where(x > 1.0, x - 1.0, 1.0))
    return (x + 1.0) ** p, (x - 1.0) ** p, ln_hi, ln_lo


def log_g_slope(p: float, x):
    """d/dp log G_p(x) = log 2 - (h ln(x+1) - l ln(x-1)) / (h - l).

    Here h = (x+1)^p and l = (x-1)^p, as in g_factor.
    """
    hi, lo, ln_hi, ln_lo = _powers(p, x)
    return np.log(2.0) - (hi * ln_hi - lo * ln_lo) / (hi - lo)


def lambda_slope(p: float, x):
    """d/dp Lambda_p(x) = -2 h l (ln(x+1) - ln(x-1)) / (h - l)^2.

    Here h = (x+1)^p and l = (x-1)^p, as in lambda_factor.
    """
    hi, lo, ln_hi, ln_lo = _powers(p, x)
    return -2.0 * hi * lo * (ln_hi - ln_lo) / (hi - lo) ** 2


class _PairGeometry:
    """Williamson data of a state pair, reused across evaluations in s."""

    def __init__(self, rho0: GaussianState, rho1: GaussianState):
        if rho0.n_modes != rho1.n_modes:
            raise ValueError(
                f"mode mismatch: {rho0.n_modes} vs {rho1.n_modes}"
            )
        self.n = rho0.n_modes
        w0 = williamson(rho0.cov)
        w1 = williamson(rho1.cov)
        self.x0 = _doubled(2.0 * w0.nu)
        self.x1 = _doubled(2.0 * w1.nu)
        # The overlap formula wants the symplectics mapping the diagonal form
        # back to the covariance: cov = T diag(nu x I2) T^T.
        self.t0 = symplectic_inverse(w0.S)
        self.t1 = symplectic_inverse(w1.S)
        self.delta = np.sqrt(2.0) * (rho1.mean - rho0.mean)
        # Both states side by side: eigenvalues (x0, x1) taken at orders
        # (s, 1-s), whose s-derivatives carry the signs (+1, -1).
        self._x = np.concatenate((self.x0, self.x1))
        self._sign = np.repeat((1.0, -1.0), self.n)
        self._rhs = np.column_stack((self.delta, self.t0, self.t1))

    def _orders(self, s: float) -> np.ndarray:
        return np.repeat((s, 1.0 - s), self.n)

    def sigma(self, s: float) -> np.ndarray:
        lam0 = np.repeat(lambda_factor(s, self.x0), 2)
        lam1 = np.repeat(lambda_factor(1.0 - s, self.x1), 2)
        return (self.t0 * lam0) @ self.t0.T + (self.t1 * lam1) @ self.t1.T

    def _cholesky(self, s: float) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.sigma(s))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"overlap matrix not positive definite at s={s}") from exc

    def _log_q(self, s: float, chol: np.ndarray, z: np.ndarray) -> float:
        """log Q_s from the Cholesky factor L of Sigma(s) and z = L^-1 delta."""
        log_g = np.sum(np.log(g_factor(self._orders(s), self._x)))
        half_logdet = np.sum(np.log(np.diag(chol)))
        return float(self.n * np.log(2.0) + log_g - half_logdet - 0.5 * (z @ z))

    def log_q(self, s: float) -> float:
        chol = self._cholesky(s)
        return self._log_q(s, chol, np.linalg.solve(chol, self.delta))

    def log_q_and_slope(self, s: float) -> tuple[float, float]:
        """log Q_s and d/ds log Q_s from one Sigma(s) and one Cholesky factor.

        With y = Sigma^-1 delta and
        dSigma = T0 [⊕ dLambda_s(x0) I2] T0^T - T1 [⊕ dLambda_{1-s}(x1) I2] T1^T:

            d/ds log Q_s = sum_k d_p log G_p(x0_k)|_{p=s}
                         - sum_k d_p log G_p(x1_k)|_{p=1-s}
                         - tr(Sigma^-1 dSigma) / 2 + y^T dSigma y / 2

        Both terms run through A = L^-1 [T0 T1]: for a diagonal D in those
        frames, tr(Sigma^-1 T D T^T) is sum_jk A_jk^2 D_k, and T^T y is
        A^T z with z = L^-1 delta.
        """
        chol = self._cholesky(s)
        sol = np.linalg.solve(chol, self._rhs)
        z, a = sol[:, 0], sol[:, 1:]
        p = self._orders(s)
        d_sigma = np.repeat(self._sign * lambda_slope(p, self._x), 2)
        w = z @ a
        slope = self._sign @ log_g_slope(p, self._x)
        slope -= 0.5 * (np.sum(a * a, axis=0) - w * w) @ d_sigma
        return self._log_q(s, chol, z), float(slope)

    def q(self, s: float) -> float:
        return min(float(np.exp(self.log_q(s))), 1.0)


def q_s_general(rho0: GaussianState, rho1: GaussianState, s: float) -> float:
    """tr rho0^s rho1^{1-s} for Gaussian states of equal mode count.

    With Williamson data (nu0, T0), (nu1, T1) where cov_i = T_i D_i T_i^T:

        Sigma(s) = T0 [⊕ Lambda_s(2 nu0) I2] T0^T
                 + T1 [⊕ Lambda_{1-s}(2 nu1) I2] T1^T
        delta = sqrt(2) (mean1 - mean0)
        Q_s = 2^n prod_k G_s(2 nu0_k) G_{1-s}(2 nu1_k) / sqrt(det Sigma(s))
              * exp(-delta^T Sigma(s)^{-1} delta / 2)
    """
    return _PairGeometry(rho0, rho1).q(_check_s(s))


def q_s_coherent_closed(s: float, kappa: float, n_b: float, n_s: float) -> float:
    """Closed-form Q_s for the coherent-transmitter pair (agnostic model).

    With A = (N_B+1)^s, B = N_B^s, C = ((1-k)N_B + 1)^{1-s},
    D = (1-k)^{1-s} N_B^{1-s}:

        Q_s = exp(-kappa N_S (A - B)(C - D) / (A C - B D)) / (A C - B D)

    where the denominator equals
    (1+N_B)(1 - kappa N_B/(1+N_B))^{1-s} - N_B (1-kappa)^{1-s}.
    At kappa = 0 the pair is degenerate and Q_s = 1.
    """
    s = _check_s(s)
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    if n_b < 0 or n_s < 0:
        raise ValueError("n_b and n_s must be non-negative")
    a = (n_b + 1.0) ** s
    b = n_b**s
    c = ((1.0 - kappa) * n_b + 1.0) ** (1.0 - s)
    d = (1.0 - kappa) ** (1.0 - s) * n_b ** (1.0 - s)
    denom = a * c - b * d
    return float(np.exp(-kappa * n_s * (a - b) * (c - d) / denom) / denom)


def q_s_alt(rho0: GaussianState, rho1: GaussianState, s: float) -> float:
    """Q_s for zero-mean single-mode pairs via the F0/F1 spectral weights.

    F0(s, nu0, nu1) = ((2nu0+1)^s + (2nu0-1)^s)((2nu1+1)^{1-s} - (2nu1-1)^{1-s}) / 4
    F1(s, nu0, nu1) = F0(1-s, nu1, nu0)
    Q_s = exp(-tr log[F0 T0 T0^T + F1 T1 T1^T] / 2)

    normalized so that Q_s(rho, rho) = 1 (anchor calibrated against
    q_s_general and the Fock-basis oracle).
    """
    s = _check_s(s)
    if rho0.n_modes != 1 or rho1.n_modes != 1:
        raise ValueError("q_s_alt applies to single-mode states only")
    if np.abs(rho0.mean).max() > 1e-12 or np.abs(rho1.mean).max() > 1e-12:
        raise ValueError("q_s_alt applies to zero-mean states only")
    geom = _PairGeometry(rho0, rho1)
    x0, x1 = geom.x0[0], geom.x1[0]

    def f0(p, xa, xb):
        return ((xa + 1.0) ** p + (xa - 1.0) ** p) * (
            (xb + 1.0) ** (1.0 - p) - (xb - 1.0) ** (1.0 - p)
        ) / 4.0

    w0 = f0(s, x0, x1)
    w1 = f0(1.0 - s, x1, x0)
    m = w0 * (geom.t0 @ geom.t0.T) + w1 * (geom.t1 @ geom.t1.T)
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise ValueError("q_s_alt: weight matrix not positive definite")
    return min(float(np.exp(-0.5 * logdet)), 1.0)


@dataclass(frozen=True)
class ChernoffResult:
    """Minimized overlap: s*, Q_{s*}, exponent xi = -log Q_{s*}, and Q_{1/2}.

    n_evals counts the log Q_s evaluations the minimization spent.
    """

    s_star: float
    q_star: float
    xi: float
    q_half: float
    converged: bool
    s_tol: float
    flags: tuple = ()
    n_evals: int = 0


def _slope_root(evaluate, lo: float, d_lo: float, hi: float, d_hi: float,
                s_tol: float, max_iter: int):
    """Lowest log Q_s seen by a safeguarded secant search on the slope.

    Requires slopes d_lo < 0 < d_hi at the bracket ends lo < hi.  Each step
    is regula falsi on the end weights w_lo, w_hi.  When the same end is
    kept twice in a row its weight is scaled by 1 - d_new / d_old, or
    halved if that is not positive (Anderson-Bjorck's refinement of the
    Illinois rule), so a strongly curved slope does not pin the step to one
    end.  Once the bracket has failed to halve in three steps, the next
    point is the midpoint.  A trial point is kept s_tol/2 inside the bracket,
    so the bracket closes as soon as the root estimate is that close.
    Returns (s, log Q_s, converged); converged means the bracket is
    narrower than s_tol.
    """
    best_s, best_v = 0.5 * (lo + hi), np.inf
    w_lo, w_hi = d_lo, d_hi
    kept = None
    ref_width, stalled = hi - lo, 0
    for _ in range(max_iter):
        if hi - lo <= s_tol:
            return best_s, best_v, True
        if stalled >= 3:
            s = 0.5 * (lo + hi)
        else:
            s = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        s = min(max(s, lo + 0.5 * s_tol), hi - 0.5 * s_tol)
        v, d = evaluate(s)
        if v < best_v:
            best_s, best_v = s, v
        if d == 0.0:
            return best_s, best_v, True
        # The end replaced now was the previous trial point whenever the
        # other end is kept twice, so its weight is still its raw slope.
        if d > 0.0:
            if kept == "lo":
                m = 1.0 - d / w_hi
                w_lo *= m if m > 0.0 else 0.5
            hi, w_hi, kept = s, d, "lo"
        else:
            if kept == "hi":
                m = 1.0 - d / w_lo
                w_hi *= m if m > 0.0 else 0.5
            lo, w_lo, kept = s, d, "hi"
        if hi - lo <= 0.5 * ref_width:
            ref_width, stalled = hi - lo, 0
        else:
            stalled += 1
    return best_s, best_v, hi - lo <= s_tol


def chernoff(pair: HypothesisPair, s_tol: float = S_TOL, max_iter: int = MAX_ITER) -> ChernoffResult:
    """Minimize Q_s over s in (0, 1) by a root search on d/ds log Q_s.

    log Q_s is convex in s (Audenaert et al., PRL 98, 160501 (2007)), so the
    slope at s = 1/2 picks the half of (0, 1) holding the minimum, and the
    slope at that half's bracket end (_S_EDGE or 1 - _S_EDGE) decides
    whether the minimum is interior.  If the slope does not change sign
    there, s* is that end, flagged "edge"; otherwise `_slope_root` brackets
    the zero of the slope to within s_tol.  Degenerate pairs short-circuit
    to xi = 0 with a "degenerate" flag.  If log Q_s varies by less than
    FLAT_SPAN over [0.05, 0.95] the minimizer would chase noise, so s* = 1/2
    is reported with a "flat" flag.  Failure to converge within max_iter
    search steps is flagged "maxiter", never silent.
    """
    if pair.degenerate:
        return ChernoffResult(0.5, 1.0, 0.0, 1.0, True, s_tol, ("degenerate",))
    geom = _PairGeometry(pair.rho0, pair.rho1)
    n_evals = 0

    def evaluate(s):
        nonlocal n_evals
        n_evals += 1
        return geom.log_q_and_slope(s)

    log_q_half, d_half = evaluate(0.5)
    q_half = min(float(np.exp(log_q_half)), 1.0)
    s_star, log_q_star, converged, edge = 0.5, log_q_half, True, None
    if d_half != 0.0:
        end = _S_EDGE if d_half > 0.0 else 1.0 - _S_EDGE
        log_q_end, d_end = evaluate(end)
        if d_end * d_half >= 0.0:
            # No sign change between the end and 1/2: by convexity log Q_s
            # falls all the way to the end.
            s_star, log_q_star, edge = end, log_q_end, end
        else:
            (lo, d_lo), (hi, d_hi) = sorted(((end, d_end), (0.5, d_half)))
            s_star, log_q_star, converged = _slope_root(
                evaluate, lo, d_lo, hi, d_hi, s_tol, max_iter
            )
        if log_q_half < log_q_star:
            # Noise-level non-minimum; fall back to the Bhattacharyya point.
            s_star, log_q_star = 0.5, log_q_half
    flags = ("edge",) if s_star == edge else ()
    if not converged:
        flags += ("maxiter",)

    # By convexity the span over [0.05, 0.95] is at least 0.9 (log Q_{1/2} -
    # log Q_{s*}), so only a pair this close to flat needs its two ends.
    if log_q_half - log_q_star < 2.0 * FLAT_SPAN:
        ends = (geom.log_q(0.05), geom.log_q(0.95))
        n_evals += 2
        inside = 0.05 <= s_star <= 0.95
        low = log_q_star if inside else min(*ends, log_q_half)
        if max(ends) - low < FLAT_SPAN:
            return ChernoffResult(
                0.5, q_half, -log_q_half, q_half, True, s_tol, ("flat",), n_evals
            )

    q_star = min(float(np.exp(log_q_star)), 1.0)
    return ChernoffResult(
        s_star=s_star,
        q_star=q_star,
        xi=max(-log_q_star, 0.0),
        q_half=q_half,
        converged=converged,
        s_tol=s_tol,
        flags=flags,
        n_evals=n_evals,
    )


def bhattacharyya_error_bound(pair: HypothesisPair, n_copies: int) -> float:
    """Upper bound (1/2) Q_{1/2}^N on the N-copy symmetric error probability."""
    if n_copies < 0 or int(n_copies) != n_copies:
        raise ValueError(f"n_copies must be a non-negative integer, got {n_copies}")
    if pair.degenerate:
        return 0.5
    geom = _PairGeometry(pair.rho0, pair.rho1)
    return float(0.5 * np.exp(n_copies * min(geom.log_q(0.5), 0.0)))


def fidelity(rho0: GaussianState, rho1: GaussianState) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho0) rho1 sqrt(rho0)) for one mode.

    Uses the closed single-mode form with D = det(cov0 + cov1) and
    L = 4 (det cov0 - 1/4)(det cov1 - 1/4):

        F = exp(-d^T (cov0+cov1)^{-1} d / 4) / sqrt(sqrt(D + L) - sqrt(L))

    evaluated through D / (sqrt(D+L) + sqrt(L)) to avoid cancellation.
    """
    if rho0.n_modes != rho1.n_modes:
        raise ValueError(f"mode mismatch: {rho0.n_modes} vs {rho1.n_modes}")
    if rho0.n_modes != 1:
        raise ValueError("fidelity supports single-mode states only")
    total = rho0.cov + rho1.cov
    d = rho1.mean - rho0.mean
    big_d = float(np.linalg.det(total))
    big_l = 4.0 * max(np.linalg.det(rho0.cov) - 0.25, 0.0) * max(
        np.linalg.det(rho1.cov) - 0.25, 0.0
    )
    denom_sq = big_d / (np.sqrt(big_d + big_l) + np.sqrt(big_l))
    quad = float(d @ np.linalg.solve(total, d))
    return min(float(np.exp(-0.25 * quad) / np.sqrt(denom_sq)), 1.0)
