"""Second routes: the independent constructions production is tested against.

Production builds the hypothesis pair in closed form (`target.pair_moments`)
and evaluates Q_s through one overlap formula (`divergence.q_s_general`).
This module holds the other ways to reach the same numbers, apart from the
truncated-Fock oracle (`fock_oracle`) and the mpmath route (`highprec`):

- a Gaussian-unitary toolkit: symplectic unitaries (beamsplitter, squeezer,
  phase rotation), tensor products, partial traces and random symplectics;
- the beamsplitter dilation of the target channel (`dilated_present`,
  `target_present`), which the closed-form moments are tested against;
- two closed forms of Q_s that share nothing with the Williamson route of
  `divergence`: the coherent-transmitter form (`q_s_coherent_closed`) and
  the single-mode zero-mean determinant form (`q_s_alt`).

No production module imports this one, and it imports nothing from
`divergence`, so a fault in the overlap formula cannot hide in its check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import GaussianState, symplectic_form
from .target import TargetConfig
from .transmitters import _check_nonnegative, thermal_state

SYMPLECTIC_TOL = 1e-10

# Transmitted mode is always the first mode of the probe; memory modes follow.
TRANSMITTED_MODE = 0


def _check_s(s: float) -> float:
    """The order check of `divergence`, repeated so this module imports nothing from it."""
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return s


# --------------------------------------------------------------------------
# Gaussian unitaries and composite states


def is_symplectic(s: np.ndarray) -> bool:
    """Check ||S Delta S^T - Delta||_F < SYMPLECTIC_TOL for a square S of even size."""
    delta = symplectic_form(s.shape[0] // 2)
    return bool(np.linalg.norm(s @ delta @ s.T - delta) < SYMPLECTIC_TOL)


@dataclass(frozen=True, eq=False)
class GaussianUnitary:
    """Gaussian unitary without displacement: mean -> S mean, cov -> S cov S^T."""

    S: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError(f"S must be square with even size, got {s.shape}")
        if not is_symplectic(s):
            raise ValueError("S does not satisfy S Delta S^T = Delta within tolerance")
        s.setflags(write=False)
        object.__setattr__(self, "S", s)

    @property
    def n_modes(self) -> int:
        return self.S.shape[0] // 2


def apply_unitary(state: GaussianState, u: GaussianUnitary) -> GaussianState:
    """Transform a state by a Gaussian unitary."""
    if state.n_modes != u.n_modes:
        raise ValueError(
            f"mode mismatch: state has {state.n_modes}, unitary acts on {u.n_modes}"
        )
    return GaussianState(mean=u.S @ state.mean, cov=u.S @ state.cov @ u.S.T)


def beamsplitter(kappa: float, mode_a: int, mode_b: int, n_modes: int) -> GaussianUnitary:
    """Beamsplitter of transmissivity kappa between two modes.

    Acts as a' = sqrt(kappa) a - sqrt(1-kappa) b and
    b' = sqrt(1-kappa) a + sqrt(kappa) b on the chosen pair, identity
    elsewhere.  The relative sign is a fixed convention; it is unobservable
    in every quantity computed from covariances and means.

    Args:
        kappa: transmission probability, 0 < kappa < 1.
        mode_a: transmitted mode index (0-based).
        mode_b: environment mode index (0-based).
        n_modes: total number of modes.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    if mode_a == mode_b or not (0 <= mode_a < n_modes and 0 <= mode_b < n_modes):
        raise ValueError(f"invalid mode pair ({mode_a}, {mode_b}) for {n_modes} modes")
    c = np.sqrt(kappa)
    s = np.sqrt(1.0 - kappa)
    eye2 = np.eye(2)
    mat = np.eye(2 * n_modes)
    a, b = 2 * mode_a, 2 * mode_b
    mat[a:a + 2, a:a + 2] = c * eye2
    mat[a:a + 2, b:b + 2] = -s * eye2
    mat[b:b + 2, a:a + 2] = s * eye2
    mat[b:b + 2, b:b + 2] = c * eye2
    return GaussianUnitary(S=mat)


def squeezer(r: float, mode: int = 0, n_modes: int = 1) -> GaussianUnitary:
    """Single-mode squeezer: q -> e^{-r} q, p -> e^{r} p on the given mode."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"invalid mode {mode} for {n_modes} modes")
    mat = np.eye(2 * n_modes)
    i = 2 * mode
    mat[i, i] = np.exp(-r)
    mat[i + 1, i + 1] = np.exp(r)
    return GaussianUnitary(S=mat)


def phase_rotation(theta: float, mode: int = 0, n_modes: int = 1) -> GaussianUnitary:
    """Phase-space rotation by theta on the given mode."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"invalid mode {mode} for {n_modes} modes")
    mat = np.eye(2 * n_modes)
    i = 2 * mode
    c, s = np.cos(theta), np.sin(theta)
    mat[i:i + 2, i:i + 2] = np.array([[c, s], [-s, c]])
    return GaussianUnitary(S=mat)


def tensor(*states: GaussianState) -> GaussianState:
    """Tensor product of Gaussian states (block-diagonal covariance)."""
    if not states:
        raise ValueError("tensor requires at least one state")
    mean = np.concatenate([st.mean for st in states])
    cov = np.zeros((mean.shape[0], mean.shape[0]))
    start = 0
    for st in states:
        stop = start + st.cov.shape[0]
        cov[start:stop, start:stop] = st.cov
        start = stop
    return GaussianState(mean=mean, cov=cov)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state on a subset of modes.

    Args:
        state: input Gaussian state.
        keep: iterable of 0-based mode indices to retain; the output mode
            order follows the sorted indices.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must contain at least one mode index")
    if keep[0] < 0 or keep[-1] >= state.n_modes:
        raise ValueError(f"mode indices {keep} out of range for {state.n_modes} modes")
    idx = np.array([2 * k + off for k in keep for off in (0, 1)])
    return GaussianState(mean=state.mean[idx], cov=state.cov[np.ix_(idx, idx)])


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix via exp(Delta H) with H random symmetric."""
    from scipy.linalg import expm

    h = rng.standard_normal((2 * n_modes, 2 * n_modes))
    h = scale * (h + h.T) / 2.0
    return expm(symplectic_form(n_modes) @ h)


def random_physical_cov(
    n_modes: int,
    rng: np.random.Generator,
    nu_max: float = 5.0,
) -> np.ndarray:
    """Random physical covariance T diag(nu x I2) T^T with nu in [1/2, nu_max]."""
    t = random_symplectic(n_modes, rng)
    nu = rng.uniform(0.5, nu_max, size=n_modes)
    return t @ np.diag(np.repeat(nu, 2)) @ t.T


# --------------------------------------------------------------------------
# The target channel through its beamsplitter dilation


def dilated_present(probe: GaussianState, cfg: TargetConfig) -> GaussianState:
    """Joint probe+environment state after reflection, before tracing.

    Appends the thermal environment as the last mode and applies the
    beamsplitter between the transmitted mode and the environment.  For the
    two-mode entangled probe this exposes the full 6x6 covariance.
    """
    env = thermal_state(cfg.effective_n_b)
    joint = tensor(probe, env)
    u = beamsplitter(cfg.kappa, TRANSMITTED_MODE, probe.n_modes, probe.n_modes + 1)
    return apply_unitary(joint, u)


def target_present(probe: GaussianState, cfg: TargetConfig) -> GaussianState:
    """State received under the 'target present' hypothesis.

    Built by the dilation route: tensor a thermal mode, beamsplit with the
    transmitted mode, trace out the environment.
    """
    out = dilated_present(probe, cfg)
    return partial_trace(out, keep=range(probe.n_modes))


# --------------------------------------------------------------------------
# Closed forms of Q_s


def q_s_coherent_closed(s: float, kappa: float, n_b: float, n_s: float) -> float:
    """Closed-form Q_s for the coherent-transmitter pair (agnostic model).

    Pirandola & Lloyd, PRA 78, 012331 (2008).  With A = (N_B+1)^s,
    B = N_B^s, C = ((1-k)N_B + 1)^{1-s}, D = (1-k)^{1-s} N_B^{1-s}:

        Q_s = exp(-kappa N_S (A - B)(C - D) / (A C - B D)) / (A C - B D)

    where the denominator equals
    (1+N_B)(1 - kappa N_B/(1+N_B))^{1-s} - N_B (1-kappa)^{1-s}.
    At kappa = 0 the pair is degenerate and Q_s = 1.

    It is a valid reference on criterion 2's box (N_B <= 50,
    kappa >= 0.01).  At small kappa and large N_B, A C - B D cancels:
    relative errors of -log Q_{1/2} against `highprec` at N_S = 1e-4,
    N_B = 1e4 were

        kappa   closed form   q_s_general
        1e-2    1.4e-8        6.9e-11
        1e-4    2.8e-4        8.1e-7
        1e-6    15x           4.6e-3
    """
    s = _check_s(s)
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    _check_nonnegative("n_b", n_b)
    _check_nonnegative("n_signal", n_s)
    a = (n_b + 1.0) ** s
    b = n_b**s
    c = ((1.0 - kappa) * n_b + 1.0) ** (1.0 - s)
    d = (1.0 - kappa) ** (1.0 - s) * n_b ** (1.0 - s)
    denom = a * c - b * d
    return float(np.exp(-kappa * n_s * (a - b) * (c - d) / denom) / denom)


def q_s_alt(rho0: GaussianState, rho1: GaussianState, s: float) -> float:
    """Q_s for zero-mean single-mode pairs from determinants alone.

    A single-mode covariance is cov = nu T T^T with nu = sqrt(det cov) and
    T symplectic, so the weighted sum of the overlap formula needs no
    Williamson step.  With x = 2 nu (clamped to x >= 1 only for rounding
    at pure states):

        F0 = ((x0+1)^s + (x0-1)^s)((x1+1)^{1-s} - (x1-1)^{1-s}) / 4
        F1 = F0 with (s, x0, x1) -> (1-s, x1, x0)
        Q_s = det(F0 cov0 / nu0 + F1 cov1 / nu1)^{-1/2}

    This is an identity, exact for every pair it accepts.
    """
    s = _check_s(s)
    if rho0.n_modes != 1 or rho1.n_modes != 1:
        raise ValueError("q_s_alt applies to single-mode states only")
    if np.abs(rho0.mean).max() > 1e-12 or np.abs(rho1.mean).max() > 1e-12:
        raise ValueError("q_s_alt applies to zero-mean states only")
    nu0, nu1 = np.sqrt(np.linalg.det(rho0.cov)), np.sqrt(np.linalg.det(rho1.cov))
    x0, x1 = max(2.0 * nu0, 1.0), max(2.0 * nu1, 1.0)

    def weight(p, xa, xb):
        return ((xa + 1.0) ** p + (xa - 1.0) ** p) * (
            (xb + 1.0) ** (1.0 - p) - (xb - 1.0) ** (1.0 - p)
        ) / 4.0

    m = weight(s, x0, x1) * rho0.cov / nu0 + weight(1.0 - s, x1, x0) * rho1.cov / nu1
    det = np.linalg.det(m)
    if det <= 0.0:
        raise ValueError("q_s_alt: weight matrix not positive definite")
    return float(det**-0.5)
