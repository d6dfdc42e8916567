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

from .symplectic import GaussianState, _check_physical, symplectic_inverse, williamson
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


class _Factors:
    """The factors G_p(x), Lambda_p(x) and their p-slopes, for 0 < p < 1.

    x holds doubled symplectic eigenvalues.  The caller checks physicality;
    x is only clamped to x >= 1, so a pure mode that rounding put just
    below 1 realises the 0^p = 0 convention instead of pow of a negative
    residual.  Every factor is written through
    L = ln((x+1)/(x-1)) = log1p(2/(x-1)), which does not cancel as p -> 0
    or x -> inf.  At a pure mode (x = 1) L is inf: e^{-pL} = 0 and
    tanh(pL/2) = 1 give G_p = Lambda_p = 1 exactly, and both slopes are
    set to exactly 0.  p may be a scalar or an array matching x.
    """

    def __init__(self, x):
        self.x = np.maximum(np.asarray(x, dtype=float), 1.0)
        self.pure = self.x == 1.0
        with np.errstate(divide="ignore"):
            self.log_ratio = np.log1p(2.0 / (self.x - 1.0))
        # L with a finite stand-in at pure modes, whose terms are masked.
        self._finite_ratio = np.where(self.pure, 1.0, self.log_ratio)

    def take(self, idx) -> "_Factors":
        sub = object.__new__(_Factors)
        sub.x, sub.pure = self.x[idx], self.pure[idx]
        sub.log_ratio, sub._finite_ratio = self.log_ratio[idx], self._finite_ratio[idx]
        return sub

    def g(self, p):
        """G_p(x) = 2^p / ((x+1)^p - (x-1)^p), as 2^p / ((x+1)^p (1 - e^{-pL}))."""
        return 2.0**p / ((self.x + 1.0) ** p * -np.expm1(-p * self.log_ratio))

    def lam(self, p):
        """Lambda_p(x) = ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p) = coth(pL/2)."""
        return 1.0 / np.tanh(0.5 * p * self.log_ratio)

    def log_g_slope(self, p):
        """d/dp log G_p(x) = log 2 - ln(x+1) - L / expm1(pL).

        log 2 - ln(x+1) is evaluated as -log1p((x-1)/2), which does not
        cancel as x -> 1.
        """
        ratio = self._finite_ratio
        tail = np.where(self.pure, 0.0, ratio / np.expm1(p * ratio))
        return -np.log1p(0.5 * (self.x - 1.0)) - tail

    def lam_slope(self, p):
        """d/dp Lambda_p(x) = -L / (2 sinh^2(pL/2))."""
        ratio = self._finite_ratio
        return np.where(self.pure, 0.0, -0.5 * ratio / np.sinh(0.5 * p * ratio) ** 2)


class _PairGeometry:
    """Williamson data of a stack of state pairs, reused across evaluations in s.

    Pairs are stacked along the first axis: means (N, 2n) and covariances
    (N, 2n, 2n).  log_q_and_slope takes one s per pair.  Every
    step is elementwise across the stack or a LAPACK/BLAS call per pair, and
    no stacked array meets a shared 2-D operand in a product (that would
    become one BLAS call over all rows), so a pair's numbers do not depend
    on the other pairs in its stack.
    """

    def __init__(self, mean0, cov0, mean1, cov1):
        if np.shape(cov0) != np.shape(cov1):
            raise ValueError(
                f"mode mismatch: {np.shape(cov0)[-1] // 2} vs {np.shape(cov1)[-1] // 2}"
            )
        # One Williamson step for the states of both hypotheses.
        size = len(cov0)
        w = williamson(np.concatenate((cov0, cov1)))
        # The pairs do not pass through GaussianState, so physicality is
        # checked here, on the symplectic eigenvalues just computed.
        _check_physical(w.nu)
        self.n = w.nu.shape[-1]
        # Both states side by side: eigenvalues (x0, x1) taken at orders
        # (s, 1-s), whose s-derivatives carry the signs (+1, -1).
        self.factors = _Factors(2.0 * np.concatenate((w.nu[:size], w.nu[size:]), axis=-1))
        self._sign = np.repeat((1.0, -1.0), self.n)
        # The overlap formula wants the symplectics mapping the diagonal form
        # back to the covariance: cov = T diag(nu x I2) T^T; t is [T0 T1].
        t = symplectic_inverse(w.S)
        self.t = np.concatenate((t[:size], t[size:]), axis=-1)
        delta = np.sqrt(2.0) * (np.asarray(mean1, dtype=float) - np.asarray(mean0, dtype=float))
        self._rhs = np.concatenate((delta[..., None], self.t), axis=-1)

    def take(self, idx) -> "_PairGeometry":
        """The sub-stack of the pairs at the given indices."""
        sub = object.__new__(_PairGeometry)
        sub.n, sub._sign = self.n, self._sign
        sub.factors, sub.t, sub._rhs = self.factors.take(idx), self.t[idx], self._rhs[idx]
        return sub

    def _orders(self, s: np.ndarray) -> np.ndarray:
        return np.where(self._sign > 0.0, s[:, None], 1.0 - s[:, None])

    def _cholesky(self, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Cholesky factors of Sigma(s) at the orders p = _orders(s)."""
        lam = self.factors.lam(p).repeat(2, axis=-1)
        sig = (self.t * lam[:, None, :]) @ np.swapaxes(self.t, -1, -2)
        try:
            return np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            # Name the first pair whose matrix fails.
            for s_k, sig_k in zip(s, sig):
                try:
                    np.linalg.cholesky(sig_k)
                except np.linalg.LinAlgError as exc:
                    raise ValueError(
                        f"overlap matrix not positive definite at s={s_k}"
                    ) from exc
            raise

    def log_q_and_slope(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log Q_s and d/ds log Q_s from one Sigma(s) and one Cholesky factor per pair.

        The package's one evaluation of log Q_s (see q_s_general); callers
        that want the value alone drop the slope.  With the Cholesky factor L
        of Sigma(s) and z = L^-1 delta,

            log Q_s = n log 2 + sum log G - sum_j log L_jj - z^T z / 2.

        With y = Sigma^-1 delta and
        dSigma = T0 [⊕ dLambda_s(x0) I2] T0^T - T1 [⊕ dLambda_{1-s}(x1) I2] T1^T:

            d/ds log Q_s = sum_k d_p log G_p(x0_k)|_{p=s}
                         - sum_k d_p log G_p(x1_k)|_{p=1-s}
                         - tr(Sigma^-1 dSigma) / 2 + y^T dSigma y / 2

        Both terms run through A = L^-1 [T0 T1]: for a diagonal D in those
        frames, tr(Sigma^-1 T D T^T) is sum_jk A_jk^2 D_k, and T^T y is
        A^T z.
        """
        p = self._orders(s)
        chol = self._cholesky(s, p)
        sol = np.linalg.solve(chol, self._rhs)
        z, a = sol[..., 0], sol[..., 1:]
        d_sigma = (self._sign * self.factors.lam_slope(p)).repeat(2, axis=-1)
        w = (z[..., None] * a).sum(axis=-2)
        slope = (self._sign * self.factors.log_g_slope(p)).sum(axis=-1)
        slope -= 0.5 * (((a * a).sum(axis=-2) - w * w) * d_sigma).sum(axis=-1)
        log_g = np.log(self.factors.g(p)).sum(axis=-1)
        half_logdet = np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
        log_q = self.n * np.log(2.0) + log_g - half_logdet - 0.5 * (z * z).sum(axis=-1)
        return log_q, slope


def _geometry(rho0: GaussianState, rho1: GaussianState) -> _PairGeometry:
    """The geometry of one pair of states, as a stack of one."""
    return _PairGeometry(rho0.mean[None], rho0.cov[None], rho1.mean[None], rho1.cov[None])


def q_s_general(rho0: GaussianState, rho1: GaussianState, s: float) -> float:
    """tr rho0^s rho1^{1-s} for Gaussian states of equal mode count.

    With Williamson data (nu0, T0), (nu1, T1) where cov_i = T_i D_i T_i^T:

        Sigma(s) = T0 [⊕ Lambda_s(2 nu0) I2] T0^T
                 + T1 [⊕ Lambda_{1-s}(2 nu1) I2] T1^T
        delta = sqrt(2) (mean1 - mean0)
        Q_s = 2^n prod_k G_s(2 nu0_k) G_{1-s}(2 nu1_k) / sqrt(det Sigma(s))
              * exp(-delta^T Sigma(s)^{-1} delta / 2)
    """
    log_q = _geometry(rho0, rho1).log_q_and_slope(np.array([_check_s(s)]))[0][0]
    return float(min(np.exp(log_q), 1.0))


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
    flags: tuple = ()
    n_evals: int = 0


def _slope_root(evaluate, lo, d_lo, hi, d_hi, s_tol: float):
    """Lowest log Q_s seen by a safeguarded secant search on the slope.

    Runs for a stack of pairs at once: lo, d_lo, hi, d_hi are arrays with
    one entry per pair, and evaluate(s, idx) returns log Q_s and its slope
    at s for the pairs idx.  Every pair steps on its own and drops out once
    its bracket is closed.

    Requires slopes d_lo < 0 < d_hi at the bracket ends lo < hi.  Each step
    is regula falsi on the end weights w_lo, w_hi.  When the same end is
    kept twice in a row its weight is scaled by 1 - d_new / d_old, or
    halved if that is not positive (Anderson-Bjorck's refinement of the
    Illinois rule), so a strongly curved slope does not pin the step to one
    end.  Once the bracket has failed to halve in three steps, the next
    point is the midpoint.  A trial point is kept s_tol/2 inside the bracket,
    so the bracket closes as soon as the root estimate is that close.
    Returns arrays (s, log Q_s, converged); converged means the bracket is
    narrower than s_tol, or the slope was exactly 0.
    """
    lo, hi, w_lo, w_hi = (np.array(v, dtype=float) for v in (lo, hi, d_lo, d_hi))
    out_s, out_v = 0.5 * (lo + hi), np.full(lo.shape, np.inf)
    converged = hi - lo <= s_tol
    # The pairs still searching, compacted; `at` holds their stack indices.
    at = np.flatnonzero(~converged)
    lo, hi, w_lo, w_hi, best_s, best_v = (a[at] for a in (lo, hi, w_lo, w_hi, out_s, out_v))
    # The sign of the last slope: +1 kept lo (replaced hi), -1 kept hi, 0 before any step.
    kept = np.zeros(at.size)
    ref_width, stalled = hi - lo, np.zeros(at.size, dtype=int)
    for _ in range(MAX_ITER):
        if at.size == 0:
            break
        s = np.where(stalled >= 3, 0.5 * (lo + hi), (lo * w_hi - hi * w_lo) / (w_hi - w_lo))
        s = np.minimum(np.maximum(s, lo + 0.5 * s_tol), hi - 0.5 * s_tol)
        v, d = evaluate(s, at)
        better = v < best_v
        best_s, best_v = np.where(better, s, best_s), np.where(better, v, best_v)
        side = np.sign(d)
        up = side > 0.0
        # The weight of an end kept twice in a row is scaled; the end replaced
        # now was the previous trial point, so its weight is still its raw slope.
        scale = 1.0 - d / np.where(up, w_hi, w_lo)
        scale = np.where(kept == side, np.where(scale > 0.0, scale, 0.5), 1.0)
        w_lo, w_hi = np.where(up, w_lo * scale, d), np.where(up, d, w_hi * scale)
        lo, hi = np.where(up, lo, s), np.where(up, s, hi)
        kept = side
        width = hi - lo
        halved = width <= 0.5 * ref_width
        ref_width, stalled = np.where(halved, width, ref_width), np.where(halved, 0, stalled + 1)
        done = (side == 0.0) | (width <= s_tol)
        if done.any():
            out_s[at[done]], out_v[at[done]] = best_s[done], best_v[done]
            converged[at[done]] = True
            left = ~done
            at, lo, hi, w_lo, w_hi, kept, ref_width, stalled, best_s, best_v = (
                a[left] for a in (at, lo, hi, w_lo, w_hi, kept, ref_width, stalled, best_s, best_v)
            )
    out_s[at], out_v[at] = best_s, best_v
    return out_s, out_v, converged


def chernoff(pair: HypothesisPair, s_tol: float = S_TOL) -> ChernoffResult:
    """Minimize Q_s over s in (0, 1) by a root search on d/ds log Q_s.

    log Q_s is convex in s (Audenaert et al., PRL 98, 160501 (2007)), so the
    slope at s = 1/2 picks the half of (0, 1) holding the minimum, and the
    slope at that half's bracket end (_S_EDGE or 1 - _S_EDGE) decides
    whether the minimum is interior.  If the slope does not change sign
    there, s* is that end, flagged "edge"; otherwise `_slope_root` brackets
    the zero of the slope to within s_tol.  Degenerate pairs short-circuit
    to xi = 0 with a "degenerate" flag.  If log Q_s varies by less than
    FLAT_SPAN over [0.05, 0.95] the minimizer would chase noise, so s* = 1/2
    is reported with a "flat" flag.  Failure to converge within MAX_ITER
    search steps is flagged "maxiter", never silent.  xi is max(-log Q, 0):
    rounding can push log Q_s of a near-identical pair just above 0.

    This is `chernoff_many` on a stack of one pair.
    """
    rho0, rho1 = pair.rho0, pair.rho1
    return chernoff_many(
        rho0.mean[None], rho0.cov[None], rho1.mean[None], rho1.cov[None],
        [pair.degenerate], s_tol,
    )[0]


def chernoff_many(mean0, cov0, mean1, cov1, degenerate,
                  s_tol: float = S_TOL) -> list[ChernoffResult]:
    """`chernoff` for every pair of a stack, one numpy pass per search step.

    Pairs are stacked along the first axis: means (N, 2n), covariances
    (N, 2n, 2n), as `target.pair_stack` gives them, and `degenerate` holds
    one flag per pair.  Every pair takes the steps `chernoff` describes on
    its own, so its result does not depend on the rest of the stack.

    Returns:
        One ChernoffResult per pair, in stack order.

    Raises:
        ValueError: s_tol outside (0, 1/2 - _S_EDGE), the first bracket's
            width; an unphysical covariance, a failed Williamson step, or an
            overlap matrix that is not positive definite.
    """
    if not 0.0 < s_tol < 0.5 - _S_EDGE:
        raise ValueError(f"s_tol must lie in (0, {0.5 - _S_EDGE}), got {s_tol}")
    degenerate = np.asarray(degenerate, dtype=bool).reshape(-1)
    results = [ChernoffResult(0.5, 1.0, 0.0, 1.0, True, ("degenerate",))] * degenerate.size
    live = np.flatnonzero(~degenerate)
    if live.size == 0:
        return results
    geom = _PairGeometry(mean0[live], cov0[live], mean1[live], cov1[live])
    m = live.size
    n_evals = np.zeros(m, dtype=int)

    def evaluate(s, idx):
        n_evals[idx] += 1
        return (geom if idx.size == m else geom.take(idx)).log_q_and_slope(s)

    log_q_half, d_half = evaluate(np.full(m, 0.5), np.arange(m))
    q_half = np.minimum(np.exp(log_q_half), 1.0)
    s_star, log_q_star = np.full(m, 0.5), log_q_half.copy()
    converged = np.ones(m, dtype=bool)
    edge = np.full(m, np.nan)  # the bracket end s* fell to; NaN where none
    moving = np.flatnonzero(d_half != 0.0)
    if moving.size:
        end = np.where(d_half[moving] > 0.0, _S_EDGE, 1.0 - _S_EDGE)
        log_q_end, d_end = evaluate(end, moving)
        # No sign change between the end and 1/2: by convexity log Q_s falls
        # all the way to the end.
        at_end = d_end * d_half[moving] >= 0.0
        i = moving[at_end]
        s_star[i] = edge[i] = end[at_end]
        log_q_star[i] = log_q_end[at_end]
        inner = ~at_end
        i = moving[inner]
        if i.size:
            end, d_end, d_mid = end[inner], d_end[inner], d_half[i]
            low_end = end < 0.5
            s_star[i], log_q_star[i], converged[i] = _slope_root(
                lambda s, idx: evaluate(s, i[idx]),
                np.where(low_end, end, 0.5), np.where(low_end, d_end, d_mid),
                np.where(low_end, 0.5, end), np.where(low_end, d_mid, d_end),
                s_tol,
            )
        # Noise-level non-minimum; fall back to the Bhattacharyya point.
        i = moving[log_q_half[moving] < log_q_star[moving]]
        s_star[i], log_q_star[i] = 0.5, log_q_half[i]

    # By convexity the span over [0.05, 0.95] is at least 0.9 (log Q_{1/2} -
    # log Q_{s*}), so only a pair this close to flat needs its two ends.
    flat = np.zeros(m, dtype=bool)
    near = np.flatnonzero(log_q_half - log_q_star < 2.0 * FLAT_SPAN)
    if near.size:
        sub = geom.take(np.concatenate((near, near)))
        ends = sub.log_q_and_slope(np.repeat((0.05, 0.95), near.size))[0].reshape(2, -1)
        n_evals[near] += 2
        inside = (0.05 <= s_star[near]) & (s_star[near] <= 0.95)
        low = np.where(inside, log_q_star[near], np.minimum(ends.min(axis=0), log_q_half[near]))
        flat[near] = ends.max(axis=0) - low < FLAT_SPAN

    flags = [
        ("flat",) if is_flat else ("edge",) * at_edge + ("maxiter",) * (not conv)
        for is_flat, at_edge, conv in zip(flat.tolist(), (s_star == edge).tolist(), converged.tolist())
    ]
    # A flat pair reports the Bhattacharyya point; no pair reports xi < 0.
    columns = (
        live.tolist(),
        np.where(flat, 0.5, s_star).tolist(),
        np.where(flat, q_half, np.minimum(np.exp(log_q_star), 1.0)).tolist(),
        np.maximum(-np.where(flat, log_q_half, log_q_star), 0.0).tolist(),
        q_half.tolist(),
        (converged | flat).tolist(),
        flags,
        n_evals.tolist(),
    )
    for j, s, q, xi, q_mid, conv, fl, count in zip(*columns):
        results[j] = ChernoffResult(s, q, xi, q_mid, conv, fl, count)
    return results


def bhattacharyya_error_bound(pair: HypothesisPair, n_copies: int) -> float:
    """Upper bound (1/2) Q_{1/2}^N on the N-copy symmetric error probability."""
    if n_copies < 0 or int(n_copies) != n_copies:
        raise ValueError(f"n_copies must be a non-negative integer, got {n_copies}")
    if pair.degenerate:
        return 0.5
    log_q_half = _geometry(pair.rho0, pair.rho1).log_q_and_slope(np.array([0.5]))[0][0]
    return float(0.5 * np.exp(n_copies * min(log_q_half, 0.0)))


def fidelity_many(mean0, cov0, mean1, cov1) -> np.ndarray:
    """Uhlmann fidelity tr sqrt(sqrt(rho0) rho1 sqrt(rho0)) of every single-mode pair of a stack.

    Pairs are stacked as for `chernoff_many`: means (N, 2), covariances
    (N, 2, 2).  Uses the closed single-mode form with D = det(cov0 + cov1)
    and L = 4 (det cov0 - 1/4)(det cov1 - 1/4):

        F = exp(-d^T (cov0+cov1)^{-1} d / 4) / sqrt(sqrt(D + L) - sqrt(L))

    evaluated through D / (sqrt(D+L) + sqrt(L)) to avoid cancellation.
    Every step is elementwise or a LAPACK call per pair, so a pair's value
    does not depend on the rest of the stack.
    """
    if np.shape(cov0)[-1] != 2 or np.shape(cov1)[-1] != 2:
        raise ValueError("fidelity supports single-mode states only")
    total = cov0 + cov1
    d = mean1 - mean0
    big_d = np.linalg.det(total)
    big_l = 4.0 * np.maximum(np.linalg.det(cov0) - 0.25, 0.0) * np.maximum(
        np.linalg.det(cov1) - 0.25, 0.0
    )
    denom_sq = big_d / (np.sqrt(big_d + big_l) + np.sqrt(big_l))
    quad = (d * np.linalg.solve(total, d[..., None])[..., 0]).sum(axis=-1)
    return np.minimum(np.exp(-0.25 * quad) / np.sqrt(denom_sq), 1.0)


def fidelity(rho0: GaussianState, rho1: GaussianState) -> float:
    """Uhlmann fidelity of two single-mode states: `fidelity_many` on a stack of one."""
    return float(fidelity_many(rho0.mean[None], rho0.cov[None], rho1.mean[None], rho1.cov[None])[0])
