"""Overlap functionals Q_s, Chernoff-exponent minimization, and fidelity.

Q_s(rho0, rho1) = tr rho0^s rho1^{1-s} is evaluated from Williamson data of
the two covariance matrices.  The closed form below follows the doubled
quadrature convention of the standard Gaussian-discrimination formula, so
symplectic eigenvalues enter as x = 2 nu and mean vectors pick up a factor
sqrt(2) relative to the package's vacuum = I/2 convention.

Production evaluates it in one way, `_StandardGeometry`: the Williamson
data of the standard form every `target.pair_parameters` pair is in, in
closed form, with no matrix routine.  The dense route through a numerical
Williamson decomposition, which takes any pair of states, is the tests'
reference and lives in `reference`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .symplectic import GaussianState, _check_physical, _validated_cov
from .target import HypothesisPair, _degenerate, _dense

# Minimizer defaults; chosen because log Q_s becomes exponentially flat in s
# at small reflectivity, where a linear-scale objective would lose the minimum.
# S_TOL is the width of the final bracket on s*, MAX_ITER the budget of search
# steps, and a pair whose log Q_s spans less than FLAT_SPAN over [0.05, 0.95]
# is reported at s = 1/2 as flat.  The search brackets (_S_EDGE, 1 - _S_EDGE).
S_TOL = 1e-7
MAX_ITER = 200
FLAT_SPAN = 1e-13
_S_EDGE = 1e-6
# The flags of a Chernoff result, in order of precedence, and none.
_FLAGS = np.fromiter([("degenerate",), ("flat",), ("edge",), ("maxiter",), ()], dtype=object)


def _finite(mean0, cov0, mean1, cov1, where: str):
    """(mean1 - mean0, both states' covariances or variances joined) of a stack of pairs,
    checked finite; the difference is finite exactly when both means are."""
    if np.shape(mean0) != np.shape(mean1):
        raise ValueError(f"mode mismatch: {np.shape(mean0)[-1] // 2} vs {np.shape(mean1)[-1] // 2}")
    joined = np.concatenate((cov0, cov1))
    if not np.isfinite(joined).all():
        raise ValueError(f"{where}: covariance must be finite")
    diff = np.asarray(mean1, dtype=float) - np.asarray(mean0, dtype=float)
    if not np.isfinite(diff).all():
        raise ValueError(f"{where}: means must be finite")
    return diff, joined


def _standard_parameters(mean0, cov0, mean1, cov1):
    """The one reader of the dense boundary: standard-form parameters (mean0, variances0,
    mean1, variances1) of means (N, 2n) and covariances (N, 2n, 2n), never broadcast.
    Rejects non-finite, then non-symmetric moments, and accepts a pair only if
    `target._dense` writes its moments back exactly from the parameters read off them."""
    if np.shape(cov0) != np.shape(cov1):
        raise ValueError(f"mode mismatch: {np.shape(cov0)[-1] // 2} vs {np.shape(cov1)[-1] // 2}")
    if not np.shape(mean0) == np.shape(mean1) == np.shape(cov0)[:-1]:
        raise ValueError(
            f"overlap: means of shapes {np.shape(mean0)} and {np.shape(mean1)} "
            f"do not match covariances of shape {np.shape(cov0)}"
        )
    # Finite means come before the form.
    cov = _validated_cov(_finite(mean0, cov0, mean1, cov1, "overlap")[1], "overlap")
    size, n = len(cov0), cov.shape[-1] // 2
    read = {1: ((0, 1), (0, 1)), 2: ((0, 0, 2), (0, 2, 2))}.get(n)  # (a, b) or (a, c, m)
    standard = np.zeros(len(cov), dtype=bool)
    if read is not None:
        variances = cov[:, read[0], read[1]]
        # The two states of a two-mode pair are written with rho0's mean.
        means = np.concatenate((mean0, mean1 if n == 1 else mean0))
        mean, dense = _dense(means, variances)
        standard = ((mean == np.concatenate((mean0, mean1))).all(axis=-1)
                    & (dense == cov).all(axis=(-2, -1)))
    if not standard.all():
        raise ValueError(
            f"overlap: pair {int(np.argmin(standard)) % size} is not in standard form "
            "(diag(a, b) for one mode; [[a I, c Z], [c Z, m I]] and equal means for two)"
        )
    return mean0, variances[:size], mean1, variances[size:]


def _check_s(s: float) -> float:
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return s


def _factors(x, p):
    """(log G_p(x), Lambda_p(x)) for 0 < p < 1, each as (value, d/dp, d²/dp²) on a last axis.

    x holds doubled symplectic eigenvalues.  The caller checks physicality;
    x is only clamped to x >= 1, so a pure mode that rounding put just
    below 1 realises the 0^p = 0 convention instead of pow of a negative
    residual.  With L = ln((x+1)/(x-1)) = log1p(2/(x-1)), which does not
    cancel as p -> 0 or x -> inf, every factor is read off one
    r = 1/expm1(pL):

        G_p = 2^p / ((x+1)^p - (x-1)^p)     log G_p = log((1+r) / ((x+1)/2)^p)
        Lambda_p = coth(pL/2) = 1 + 2r      Lambda'_p = -2 L r (1+r)
        (log G_p)' = -log1p((x-1)/2) - L r  (log G_p)'' = -(L/2) Lambda'_p
        Lambda''_p = -L Lambda_p Lambda'_p

    The ratio form of log G keeps (x+1)/2 inside the log: split as
    log1p(r) - p log((x+1)/2), its two terms cancel at large x.  At a pure
    mode (x = 1) L is inf and r = 0, which gives G_p = Lambda_p = 1 and
    every derivative 0, exactly.  x and p are scalars or arrays that
    broadcast together.
    """
    x = np.maximum(np.asarray(x, dtype=float), 1.0)
    gap = x - 1.0
    with np.errstate(divide="ignore"):
        log_ratio = np.log1p(2.0 / gap)
    # L with a finite stand-in at pure modes, where it only multiplies r = 0.
    ratio = np.where(gap == 0.0, 1.0, log_ratio)
    r = 1.0 / np.expm1(p * log_ratio)
    one_r, ratio_r = 1.0 + r, ratio * r
    log_g, lam = np.empty(r.shape + (3,)), np.empty(r.shape + (3,))
    lam_slope = np.multiply(-2.0 * ratio_r, one_r, out=lam[..., 1])
    np.log(one_r / (0.5 * (x + 1.0))**p, out=log_g[..., 0])
    np.subtract(-np.log1p(0.5 * gap), ratio_r, out=log_g[..., 1])
    np.add(1.0, 2.0 * r, out=lam[..., 0])
    ratio_slope = ratio * lam_slope
    np.multiply(-0.5, ratio_slope, out=log_g[..., 2])
    np.multiply(-lam[..., 0], ratio_slope, out=lam[..., 2])
    return log_g, lam


def _orders(sign: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Factor orders per mode: s for the modes of rho0 (sign +1), 1 - s for rho1's."""
    return np.where(sign > 0.0, s[:, None], 1.0 - s[:, None])


# The slots (x0a, x0m, x1a, x1m) of `_StandardGeometry`: the transmitted and
# memory modes of rho0, at order s, then of rho1, at order 1 - s, so d/ds
# is d/dp times this sign.
_SLOT_SIGN = np.array((1.0, 1.0, -1.0, -1.0))


# A pair's (6, 4) coefficients in `_StandardGeometry` hold B in rows 0-3
# and the sector variances (sigma_q, sigma_p) = coef[4:] @ l in rows 4-5.
# One mode: B = _ONE_MODE_COEF + h _ONE_MODE_H, and the sector rows are the
# pair's own.
_ONE_MODE_COEF = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                           [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
_ONE_MODE_H = np.array([[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0],
                        [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
# Two modes: B_jk = (0, 1, sh^2, ch^2)[j xor k] / 2 with ch^2 = 1 + sh^2, so
# coef = _TWO_MODE_COEF + (sh^2 / 2) _TWO_MODE_SQUEEZE.  The means agree, so
# the mean term is 0 on any positive sector variances; both rows read L0a.
_TWO_MODE_COEF = np.array([[0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5],
                           [0.5, 0, 0.5, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
_TWO_MODE_SQUEEZE = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0],
                              [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)


class _StandardGeometry(NamedTuple):
    """The geometry of a stack of pairs in standard form, in closed form.

    Every pair is in the standard form of `transmitters._standard_form`,
    diag(a, b) or [[a I2, c Z], [c Z, m I2]], and a two-mode pair's means
    agree.  The Williamson data and Sigma(s) of `q_s_general` then have
    closed forms (Serafini, Quantum Continuous Variables, 2017; Pirandola &
    Lloyd, PRA 78, 012331 (2008)), and both mode counts share one.  Every
    pair has four slots, the doubled symplectic eigenvalues x = 2 nu of the
    transmitted and memory modes of each state, and l = (L0a, L0m, L1a, L1m)
    holds Lambda(x) of each slot, at order s for rho0 and 1 - s for rho1.
    With a per-pair symmetric B and weight w, the pair's mode count,

        det Sigma(s) = (l^T B l)^w,   log Q_s = w log 2 + sum log G - (w/2) log(l^T B l) - quad/2

    over the four slots, where quad = delta^T Sigma^-1 delta.

    - one mode: nu = sqrt(ab) and T = diag(t, 1/t) with t^2 = a / nu, so
      Sigma(s) is diagonal, with sector variances
      sigma_q = L0a t0^2 + L1a t1^2 and sigma_p = L0a / t0^2 + L1a / t1^2,
      and det Sigma = sigma_q sigma_p = L0a^2 + L1a^2 + 2 h L0a L1a with
      h = (a0 b1 + a1 b0) / (2 nu0 nu1).  The memory slots hold pure modes,
      x = 1, where `_factors` gives log G = 0, Lambda = 1 and a 0 for every
      derivative, exactly, and B reads neither.  quad = sum delta^2 / sigma
      over the two sectors.
    - two modes: with S = sqrt((a - m)^2 + 4 (am - c^2)) = nu_a + nu_m,
      nu_a, nu_m = (S +- (a - m)) / 2, and T is the two-mode squeezer
      [[ch, sh], [sh, ch]] on (q_a, q_m) and [[ch, -sh], [-sh, ch]] on
      (p_a, p_m), with ch sh = c / S and sh^2 = 2 c^2 / (S (a + m + S)).
      Both sectors of Sigma(s) have the determinant

          L0a L0m + L1a L1m + L0a (sh^2 L1a + ch^2 L1m) + L0m (ch^2 L1a + sh^2 L1m)
              = l^T B l,   B_jk = (0, 1, sh^2, ch^2)[j xor k] / 2

      with (ch, sh) those of the relative squeezer T0^-1 T1: a sum of
      positive terms.  The means agree, so quad = 0; it is read off the
      same sector variances with delta = 0.

    The geometry is its four per-pair arrays: the slots x (N, 4), coef
    (N, 6, 4), the weight w as modes (N,) and delta^2 / 2 per sector as
    half_delta2 (N, 2), built from the pairs' parameters (`from_parameters`),
    which the dense boundary reads off moments first (`_standard_parameters`).
    Stacks of either mode count join with `concatenate`; `take` picks a
    sub-stack.  Every step is elementwise across the stack or a product of
    one pair's small matrices, so a pair's numbers do not depend on the rest.
    """

    x: np.ndarray
    coef: np.ndarray
    modes: np.ndarray
    half_delta2: np.ndarray

    @classmethod
    def from_parameters(cls, mean0, variances0, mean1, variances1) -> "_StandardGeometry":
        """The one builder, from stacked `target.pair_parameters`: means (N, 2n), variances (N, 2)
        or (N, 3).  Moments that overflowed from finite inputs get the boundary's errors."""
        diff, variances = _finite(mean0, variances0, mean1, variances1, "overlap")
        size, n = len(diff), diff.shape[-1] // 2
        if n == 1:
            positive = (variances > 0.0).all(axis=-1)
        else:
            a, c, m = variances.T
            det = a * m - c * c
            positive = (a > 0.0) & (m > 0.0) & (det > 0.0)
        if not positive.all():
            raise ValueError("unphysical covariance: not positive definite")
        if n == 1:
            nu = np.sqrt(variances[:, 0] * variances[:, 1])
            _check_physical(nu)
            # t^2 = a / nu and 1/t^2 = b / nu, as (pair, sector, state).
            weights = (variances / nu[:, None]).reshape(2, size, 2).transpose(1, 2, 0)
            # h = (a0 b1 + a1 b0) / (2 nu0 nu1) = (t0^2 / t1^2 + t1^2 / t0^2) / 2
            h = 0.5 * (weights[:, 0, 0] * weights[:, 1, 1] + weights[:, 0, 1] * weights[:, 1, 0])
            coef = _ONE_MODE_COEF + h[:, None, None] * _ONE_MODE_H
            coef[:, 4:, ::2] = weights
            x = np.ones((size, 4))
            x[:, ::2] = 2.0 * nu.reshape(2, size).T
            delta = np.sqrt(2.0) * diff
            half_delta2 = 0.5 * delta * delta
        else:
            # a = ch^2 nu_a + sh^2 nu_m and m = sh^2 nu_a + ch^2 nu_m, so each
            # nu is its diagonal entry less sh^2 S: exact where c = 0.
            total = np.sqrt((a - m) ** 2 + 4.0 * det)
            shift = 2.0 * c * c / (a + m + total)
            nu = np.stack((a - shift, m - shift), axis=-1)
            # The rounding of the entries moves nu by up to about
            # eps (a + m) cosh 2r, with cosh 2r = (a + m) / S.  A pure mode
            # (nu = 1/2) that rounding put above 1/2 would give
            # Lambda_p(2 nu) - 1 ~ 2 (nu - 1/2)^p, an O(1) error at small p,
            # so nu within that distance of 1/2 is set to 1/2.
            noise = 2.0 * np.finfo(float).eps * (a + m) ** 2 / total
            nu[np.abs(nu - 0.5) <= noise[:, None]] = 0.5
            _check_physical(nu)
            ch = np.sqrt(1.0 + shift / total)
            sh = c / (total * ch)
            # sinh of the relative squeeze r1 - r0; only its square enters B.
            sh2 = (sh[size:] * ch[:size] - ch[size:] * sh[:size]) ** 2
            coef = _TWO_MODE_COEF + (0.5 * sh2)[:, None, None] * _TWO_MODE_SQUEEZE
            x = 2.0 * np.concatenate((nu[:size], nu[size:]), axis=-1)
            half_delta2 = np.zeros((size, 2))
        return cls(x, coef, np.full(size, float(n)), half_delta2)

    @classmethod
    def concatenate(cls, parts) -> "_StandardGeometry":
        """One stack of the pairs of every geometry in `parts`, in order, of either mode count."""
        return cls(*map(np.concatenate, zip(*parts)))

    def take(self, rows) -> "_StandardGeometry":
        """The sub-stack of the pairs at the sorted indices `rows`: itself when that is every pair."""
        return self if len(rows) == len(self.modes) else self._make(f[rows] for f in self)

    def derivatives(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log Q_s of `q_s_general`, its slope d/ds and its curvature d²/ds², at one s per pair.

        With dSigma = T0 [⊕ dLambda_s(x0) I2] T0^T - T1 [⊕ dLambda_{1-s}(x1) I2] T1^T
        and y = Sigma^-1 delta:

            d/ds log Q_s = sum_k d_p log G_p(x0_k)|_{p=s}
                         - sum_k d_p log G_p(x1_k)|_{p=1-s}
                         - tr(Sigma^-1 dSigma) / 2 + y^T dSigma y / 2

        The sign of d/ds per slot is carried by `_SLOT_SIGN`.  In the closed
        form, tr(Sigma^-1 dSigma) / 2 = (w/2) (log l^T B l)' = w l'^T B l / l^T B l,
        and the curvature reuses every factor of the slope:

        - each slot adds d²/dp² log G_p, and each Lambda enters l with its
          own second derivative (`_factors`; the sign of the order 1 - s
          squares away);
        - the determinant adds -(w/2) (log l^T B l)'' =
          w ((l''^T B l + l'^T B l') / l^T B l - 2 (l'^T B l / l^T B l)^2);
        - the mean term of each sector, with y = delta / sigma, adds
          -(delta^2 / sigma)'' / 2 = y^2 (sigma'' - 2 sigma'^2 / sigma) / 2.
        """
        log_g, lam = _factors(self.x, _orders(_SLOT_SIGN, s))
        # d/ds = sign d/dp on the first derivatives; the second squares it away.
        log_g[..., 1] *= _SLOT_SIGN
        lam[..., 1] *= _SLOT_SIGN
        # (log Q, slope, curvature) of the slots' G factors.
        terms = log_g.sum(axis=-2)
        # B l in rows 0-3, (sigma, sigma', sigma'') per sector in rows 4-5.
        products = self.coef @ lam
        # forms[i, j] = l_i^T B l_j over the derivative orders i, j of l.
        forms = np.swapaxes(lam, -1, -2) @ products[:, :4]
        det = forms[:, 0, 0]
        ratio = forms[:, 1, 0] / det
        # tr(Sigma^-1 dSigma) / 2, and each sector's delta^2 / (2 sigma) and sigma' / sigma.
        trace = self.modes * ratio
        sigma = products[:, 4:]
        inverse = 1.0 / sigma[..., 0]
        quad = self.half_delta2 * inverse
        rate = sigma[..., 1] * inverse
        log_q = (terms[:, 0] + self.modes * np.log(2.0) - 0.5 * self.modes * np.log(det)
                 - quad.sum(axis=-1))
        slope = terms[:, 1] - trace + (quad * rate).sum(axis=-1)
        return log_q, slope, (
            terms[:, 2] + trace * (2.0 * ratio)
            - self.modes * ((forms[:, 2, 0] + forms[:, 1, 1]) / det)
            + (quad * (sigma[..., 2] * inverse - 2.0 * rate * rate)).sum(axis=-1)
        )


@lru_cache(maxsize=4)
def _geometry(rho0: GaussianState, rho1: GaussianState) -> _StandardGeometry:
    """The standard geometry of one pair of states, as a stack of one.

    Cached on the two states, which are frozen, read-only and hashed by
    identity: a pair evaluated at several s is validated and built once.
    """
    stack = _standard_parameters(rho0.mean[None], rho0.cov[None], rho1.mean[None], rho1.cov[None])
    return _StandardGeometry.from_parameters(*stack)


def q_s_general(rho0: GaussianState, rho1: GaussianState, s: float) -> float:
    """tr rho0^s rho1^{1-s} for Gaussian states of equal mode count.

    With Williamson data (nu0, T0), (nu1, T1) where cov_i = T_i D_i T_i^T:

        Sigma(s) = T0 [⊕ Lambda_s(2 nu0) I2] T0^T
                 + T1 [⊕ Lambda_{1-s}(2 nu1) I2] T1^T
        delta = sqrt(2) (mean1 - mean0)
        Q_s = 2^n prod_k G_s(2 nu0_k) G_{1-s}(2 nu1_k) / sqrt(det Sigma(s))
              * exp(-delta^T Sigma(s)^{-1} delta / 2)

    This is `_StandardGeometry` on a stack of one, so the pair must be in
    the standard form `make_pair` builds; any other pair raises ValueError.
    """
    log_q = _geometry(rho0, rho1).derivatives(np.array([_check_s(s)]))[0][0]
    return float(min(np.exp(log_q), 1.0))


@dataclass(frozen=True)
class ChernoffResult:
    """Minimized overlap: s*, exponent xi = -log Q_{s*}, Q_{1/2}, flags and n_evals.

    n_evals counts the log Q_s evaluations the minimization spent.  Q_{s*}
    and convergence are read off the stored fields.
    """

    s_star: float
    xi: float
    q_half: float
    flags: tuple = ()
    n_evals: int = 0

    @property
    def q_star(self) -> float:
        """Q_{s*} = exp(-xi)."""
        return float(np.exp(-self.xi))

    @property
    def converged(self) -> bool:
        """False only when the search ran out of its MAX_ITER budget."""
        return "maxiter" not in self.flags


def _slope_root(evaluate, searching, lo, hi, s, d, c, s_tol: float):
    """Lowest log Q_s seen by a safeguarded Newton search on the slope.

    Runs on a whole stack of pairs at once: lo, hi, s, d, c are arrays with
    one entry per pair.  The pairs of the boolean mask `searching` search,
    each on its own, and a pair leaves once the mask drops it.  Each pass
    calls `evaluate(s, searching)` of `_chernoff_search`, which returns
    log Q_s, its slope and its curvature for the pairs of the mask and nan
    for every other, so a pair that has left is never moved again.

    Requires, for the searching pairs, a bracket lo < hi whose slope is
    negative at lo and positive at hi, and the slope d and curvature c at
    s, one of its ends.  Each step is a Newton step s - d / c from the
    latest point s (rtsafe in Numerical Recipes).  It is taken when c > 0
    and it lands inside the bracket, and it is then kept s_tol/2 inside: a
    root estimate within s_tol/2 of an end is stepped just past, so the
    bracket closes as soon as the estimate is that close.  Otherwise the
    step bisects the bracket.  The trial point replaces the end whose slope
    has its sign and becomes the latest point.  log Q_s is convex, so c > 0
    except where rounding hides the curvature; there the search falls back
    on bisection.  A pair leaves on a closed bracket or an exactly zero
    slope, both converged, or on a slope that is nan, not converged; a pair
    still searching after MAX_ITER passes is not converged either.  Returns
    arrays (s, log Q_s, converged) over the stack; outside the first mask
    they are (lo + hi) / 2, inf and True.
    """
    best_s, best_v, converged = 0.5 * (lo + hi), np.full(lo.shape, np.inf), ~searching
    for _ in range(MAX_ITER):
        if not searching.any():
            break
        # A curvature that is not positive gives a nan step, which no bracket holds.
        newton = s - d / np.where(c > 0.0, c, np.nan)
        inside = (lo < newton) & (newton < hi)
        s = np.where(inside, np.clip(newton, lo + 0.5 * s_tol, hi - 0.5 * s_tol), 0.5 * (lo + hi))
        v, d, c = evaluate(s, searching)
        # Every comparison with the nan of a pair outside the mask is False.
        better = v < best_v
        best_s, best_v = np.where(better, s, best_s), np.where(better, v, best_v)
        below, above = d < 0.0, d > 0.0
        lo, hi = np.where(below, s, lo), np.where(above, s, hi)
        signed = below | above
        closed = signed & (hi - lo <= s_tol) | (d == 0.0)
        converged |= closed
        searching = searching & signed & ~closed
    return best_s, best_v, converged


def chernoff(pair: HypothesisPair, s_tol: float = S_TOL) -> ChernoffResult:
    """Minimize Q_s over s in (0, 1) by a root search on d/ds log Q_s.

    log Q_s is convex in s (Audenaert et al., PRL 98, 160501 (2007)), so the
    slope at s = 1/2 picks the half of (0, 1) holding the minimum, and the
    slope at that half's bracket end (_S_EDGE or 1 - _S_EDGE) decides
    whether the minimum is interior.  If the slope does not change sign
    there, s* is that end, flagged "edge"; otherwise `_slope_root` brackets
    the zero of the slope to within s_tol, by Newton steps on the
    closed-form curvature of log Q_s from s = 1/2, safeguarded by
    bisection.  A degenerate pair is validated, then masked out of the
    search: it gets xi = 0 and a "degenerate" flag.  If log Q_s varies by
    less than FLAT_SPAN over [0.05, 0.95] the minimizer would chase noise,
    so s* = 1/2 is reported with a "flat" flag.  Failure to converge within
    MAX_ITER search steps is flagged "maxiter", never silent.  xi is
    max(-log Q, 0): rounding can push log Q_s of a near-identical pair just
    above 0.

    This is `chernoff_many` on the pair's parameters, a stack of one.
    """
    stack = pair.mean0[None], pair.variances0[None], pair.mean1[None], pair.variances1[None]
    return _chernoff_parameters(*stack, s_tol)[0]


def chernoff_many(mean0, cov0, mean1, cov1, s_tol: float = S_TOL) -> list[ChernoffResult]:
    """`chernoff` for every pair of a stack, one numpy pass per search step.

    Pairs are stacked along the first axis: means (N, 2n), covariances
    (N, 2n, 2n), in the standard form `target.pair_stack` gives them (see
    `_StandardGeometry`).  Every pair is validated; the degenerate ones
    (`target._degenerate`) are not searched.  The search is
    `_chernoff_search` on the stack's geometry: every pair takes the steps
    `chernoff` describes on its own, so its result does not depend on the
    rest of the stack.

    Returns:
        One ChernoffResult per pair, in stack order.

    Raises:
        ValueError: means not of shape (N, 2n); a non-finite or
            non-symmetric covariance or mean; a pair not in the standard
            form of `_StandardGeometry`; an unphysical covariance; or
            s_tol outside (0, 1/2 - _S_EDGE), the first bracket's width.
    """
    return _chernoff_parameters(*_standard_parameters(mean0, cov0, mean1, cov1), s_tol)


def _chernoff_parameters(mean0, variances0, mean1, variances1, s_tol: float):
    """The ChernoffResults of stacked standard-form parameters, after checking s_tol."""
    if not 0.0 < s_tol < 0.5 - _S_EDGE:
        raise ValueError(f"s_tol must lie in (0, {0.5 - _S_EDGE}), got {s_tol}")
    geom = _StandardGeometry.from_parameters(mean0, variances0, mean1, variances1)
    columns = _chernoff_search(geom, _degenerate(mean0, variances0, mean1, variances1), s_tol)
    return [ChernoffResult(*row) for row in zip(*(column.tolist() for column in columns))]


def _chernoff_search(geom: _StandardGeometry, degenerate: np.ndarray, s_tol: float = S_TOL):
    """The search of `chernoff_many` on a built geometry, of one or of both mode counts.

    `degenerate` is the `target._degenerate` mask of geom's pairs, and
    s_tol is checked by the caller.  Every pass goes through `evaluate`,
    the one place that takes a sub-stack (`_StandardGeometry.take`) and
    counts n_evals: it evaluates only the pairs of its mask, adds one to
    their n_evals, and leaves nan in every other entry.  The passes, and
    so what n_evals counts, are:

    - s = 1/2, on the pairs that are not degenerate;
    - the bracket end, on those whose slope at 1/2 is not 0;
    - one per step of `_slope_root`, on the pairs still searching;
    - s = 0.05 and 0.95, on the near-flat pairs only.

    Returns the fields of ChernoffResult as columns, in its field order:
    one array per field, with an entry per pair; flags is an object array
    of tuples.
    """
    n_evals = np.zeros(degenerate.shape, dtype=int)

    def evaluate(s, mask):
        np.add(n_evals, mask, out=n_evals)
        rows = np.flatnonzero(mask)
        part = geom.take(rows)
        if part is geom:
            return part.derivatives(s)
        out = np.full((3,) + mask.shape, np.nan)
        out[:, rows] = part.derivatives(s[rows])
        return out

    live = ~degenerate
    s_half = np.full(live.shape, 0.5)
    log_q_half, d_half, c_half = evaluate(s_half, live)
    q_half = np.minimum(np.exp(log_q_half), 1.0)
    moving = live & (d_half != 0.0)
    end = np.where(d_half > 0.0, _S_EDGE, 1.0 - _S_EDGE)
    log_q_end, d_end, _ = evaluate(end, moving)
    # No sign change between the end and 1/2: by convexity log Q_s falls
    # all the way to the end.
    at_end = moving & (d_end * d_half >= 0.0)
    s_star, log_q_star, converged = _slope_root(
        evaluate, moving & ~at_end, np.minimum(end, s_half), np.maximum(end, s_half),
        s_half, d_half, c_half, s_tol,
    )
    s_star, log_q_star = np.where(at_end, end, s_star), np.where(at_end, log_q_end, log_q_star)
    # A pair that did not move, and a noise-level non-minimum, fall back to
    # the Bhattacharyya point.
    half = log_q_half < log_q_star
    s_star, log_q_star = np.where(half, 0.5, s_star), np.where(half, log_q_half, log_q_star)

    # By convexity the span over [0.05, 0.95] is at least 0.9 (log Q_{1/2} -
    # log Q_{s*}), so only a pair this close to flat needs its two ends.
    flat = live & (log_q_half - log_q_star < 2.0 * FLAT_SPAN)
    if flat.any():
        ends = np.stack([evaluate(np.full(live.shape, s), flat)[0]
                         for s in (0.05, 0.95)])
        inside = (0.05 <= s_star) & (s_star <= 0.95)
        low = np.where(inside, log_q_star, np.minimum(ends.min(axis=0), log_q_half))
        flat &= ends.max(axis=0) - low < FLAT_SPAN

    # A flat pair reports the Bhattacharyya point, a degenerate one s = 1/2
    # and xi = 0; no pair reports xi < 0.  An edge pair skipped _slope_root
    # and is converged, so each pair has one flag at most.
    flagged = [degenerate, flat, at_end & (s_star == end), ~converged, np.ones_like(flat)]
    return (
        np.where(degenerate | flat, 0.5, s_star),
        np.where(degenerate, 0.0, np.maximum(-np.where(flat, log_q_half, log_q_star), 0.0)),
        np.where(degenerate, 1.0, q_half),
        _FLAGS[np.argmax(flagged, axis=0)],
        n_evals,
    )


def bhattacharyya_error_bound(pair: HypothesisPair, n_copies: int) -> float:
    """Upper bound (1/2) Q_{1/2}^N on the N-copy symmetric error probability.

    Read off the pair's parameters (`_StandardGeometry.from_parameters`).
    N may be an integer of any size: a count past the float range bounds
    the error by 0 whenever Q_{1/2} < 1.
    """
    # `% 1` is exact for integers of any size, and nan for inf.
    if not (n_copies >= 0 and n_copies % 1 == 0):
        raise ValueError(f"n_copies must be a non-negative integer, got {n_copies}")
    geom = _StandardGeometry.from_parameters(
        pair.mean0[None], pair.variances0[None], pair.mean1[None], pair.variances1[None])
    if pair.degenerate:
        return 0.5
    log_q_half = geom.derivatives(np.array([0.5]))[0][0]
    if log_q_half >= 0.0:
        return 0.5
    copies = float(n_copies) if n_copies <= sys.float_info.max else np.inf
    return float(0.5 * np.exp(copies * log_q_half))


def fidelity_many(mean0, variances0, mean1, variances1) -> np.ndarray:
    """Uhlmann fidelity tr sqrt(sqrt(rho0) rho1 sqrt(rho0)) of every single-mode pair of a stack.

    Pairs are stacked parameters as for `_StandardGeometry.from_parameters`,
    each state diag(a, b).  The closed form, with D = det(cov0 + cov1) =
    (a0 + a1)(b0 + b1), L = 4 (a0 b0 - 1/4)(a1 b1 - 1/4) and the mean term
    d^T (cov0 + cov1)^{-1} d = dq^2 / (a0 + a1) + dp^2 / (b0 + b1):

        F = exp(-d^T (cov0+cov1)^{-1} d / 4) / sqrt(sqrt(D + L) - sqrt(L))

    evaluated through D / (sqrt(D+L) + sqrt(L)) to avoid cancellation, is
    elementwise, so a pair's value does not depend on the rest of the stack.
    """
    if np.shape(mean0)[-1] != 2 or np.shape(mean1)[-1] != 2:
        raise ValueError("fidelity supports single-mode states only")
    d, variances = _finite(mean0, variances0, mean1, variances1, "fidelity")
    (a0, a1), (b0, b1) = variances.T.reshape(2, 2, -1)
    total_a, total_b = a0 + a1, b0 + b1
    big_d = total_a * total_b
    big_l = 4.0 * np.maximum(a0 * b0 - 0.25, 0.0) * np.maximum(a1 * b1 - 0.25, 0.0)
    denom_sq = big_d / (np.sqrt(big_d + big_l) + np.sqrt(big_l))
    quad = d[:, 0] ** 2 / total_a + d[:, 1] ** 2 / total_b
    return np.minimum(np.exp(-0.25 * quad) / np.sqrt(denom_sq), 1.0)


def fidelity(rho0: GaussianState, rho1: GaussianState) -> float:
    """Uhlmann fidelity of two single-mode states diag(a, b): `fidelity_many` on the
    parameters `_standard_parameters` reads off them (any other pair raises ValueError)."""
    stack = _standard_parameters(rho0.mean[None], rho0.cov[None], rho1.mean[None], rho1.cov[None])
    return float(fidelity_many(*stack)[0])
