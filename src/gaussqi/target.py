"""Target models and hypothesis-pair construction.

Two conventions for the thermal background are supported.  In the
"agnostic" model the environment occupation N_B is a property of the scene
alone: the target is a beamsplitter of reflectivity kappa mixing the
transmitted mode with a bare thermal mode.  The "legacy" model substitutes
N_B -> N_B / (1 - kappa) so that the reflected noise is kappa-independent,
which makes a vacuum transmitter unable to see the target at all.

`pair_moments` writes the hypothesis-pair moments once, in closed form and
plain arithmetic; `make_pair` (float64) and `highprec` (mpmath) both build
on it.  `reference.target_present` constructs the same channel
independently, through the beamsplitter dilation, as the route the closed
form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import GaussianState
from .transmitters import TransmitterSpec, _check_nonnegative, _check_probe, probe_moments

MODELS = ("agnostic", "legacy")


def _check_target(kappa, n_b, model: str) -> None:
    """The one definition of a valid target, elementwise on arrays of kappa and n_b.

    kappa = 0 is no target: there is no target-present state to compare."""
    kappa = np.atleast_1d(kappa)
    outside = ~((kappa > 0) & (kappa < 1))
    if outside.any():
        raise ValueError(f"kappa must lie in (0, 1), got {float(kappa[outside][0])}")
    _check_nonnegative("n_b", n_b)
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def _effective_n_b(n_b, kappa, model: str):
    """Background occupation of the reflection channel: n_b / (1 - kappa) in
    the legacy model, n_b otherwise; plain arithmetic, so mpf stays mpf."""
    return n_b / (1 - kappa) if model == "legacy" else n_b


@dataclass(frozen=True)
class TargetConfig:
    """Reflectivity kappa, background occupation n_b, and model convention."""

    kappa: float
    n_b: float
    model: str = "agnostic"

    def __post_init__(self):
        _check_target(self.kappa, self.n_b, self.model)

    @property
    def effective_n_b(self) -> float:
        """Background occupation fed into the beamsplitter dilation."""
        return _effective_n_b(self.n_b, self.kappa, self.model)


def _degenerate(mean0, cov0, mean1, cov1) -> np.ndarray:
    """The one definition of a degenerate pair, as a mask over a stack's leading axes.

    Its two states agree moment by moment to 1e-13 times the largest
    covariance entry (at least 1)."""
    axes = (-2, -1)
    scale = np.maximum(np.maximum(np.abs(cov0).max(axis=axes), np.abs(cov1).max(axis=axes)), 1.0)
    return (np.abs(mean1 - mean0).max(axis=-1) <= 1e-13 * scale) & (
        np.abs(cov1 - cov0).max(axis=axes) <= 1e-13 * scale
    )


@dataclass(frozen=True, eq=False)
class HypothesisPair:
    """The two hypotheses: rho0 = target absent, rho1 = target present."""

    rho0: GaussianState
    rho1: GaussianState
    config: TargetConfig
    transmitter: TransmitterSpec

    @property
    def degenerate(self) -> bool:
        """Whether the two states coincide (`_degenerate`), read off the moments."""
        rho0, rho1 = self.rho0, self.rho1
        same_modes = rho0.n_modes == rho1.n_modes
        return same_modes and bool(_degenerate(rho0.mean, rho0.cov, rho1.mean, rho1.cov))


def pair_moments(kind: str, n_s, n_b, kappa, model: str = "agnostic"):
    """Moments (mean0, cov0, mean1, cov1) of the hypothesis pair, as nested lists.

    rho1 is the probe after the thermal loss channel on its transmitted mode
    (Serafini, Quantum Continuous Variables, 2017): that mode's mean scales
    by sqrt(kappa), its covariance block maps to
    kappa cov + (1 - kappa)(N_eff + 1/2) I, its cross blocks with the memory
    scale by sqrt(kappa), and the memory block is unchanged.  N_eff is n_b,
    or n_b / (1 - kappa) in the legacy model.  rho0 replaces the transmitted
    mode by the bare background (n_b + 1/2) I and keeps the memory's reduced
    state; it is the same in both models.

    Only + - * / and ** appear, so every entry that depends on the inputs
    is a float for float inputs, an array for numpy array inputs (element
    for element the same float), and an mpf (at the working precision) for
    mpmath.mpf inputs; structural zeros are exact floats.

    Raises:
        ValueError: a probe or target outside its domain (_check_probe,
            _check_target).
    """
    _check_probe(kind, n_s)
    _check_target(kappa, n_b, model)
    mean, cov = probe_moments(kind, n_s)
    noise = (1 - kappa) * (_effective_n_b(n_b, kappa, model) + 0.5)
    amp = kappa ** 0.5

    # Indices 0 and 1 are the transmitted mode's quadratures.
    def present(i, j):
        if i < 2 and j < 2:
            return kappa * cov[i][j] + (noise if i == j else 0.0)
        return amp * cov[i][j] if i < 2 or j < 2 else cov[i][j]

    def absent(i, j):
        if i < 2 or j < 2:
            return n_b + 0.5 if i == j else 0.0
        return cov[i][j]

    idx = range(len(mean))
    mean0 = [0.0, 0.0] + mean[2:]
    mean1 = [amp * mean[0], amp * mean[1]] + mean[2:]
    cov0 = [[absent(i, j) for j in idx] for i in idx]
    cov1 = [[present(i, j) for j in idx] for i in idx]
    return mean0, cov0, mean1, cov1


def pair_stack(kind: str, n_s, n_b, kappa, model: str = "agnostic"):
    """Float64 moments of many pairs of one transmitter kind and model.

    n_s, n_b and kappa broadcast to a common shape P.  Returns
    (mean0, cov0, mean1, cov1) with means of shape P + (2n,) and
    covariances P + (2n, 2n); `_degenerate` reads which pairs coincide.

    Raises:
        ValueError: as pair_moments.
    """
    n_s, n_b, kappa = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (n_s, n_b, kappa)))
    mean0, cov0, mean1, cov1 = pair_moments(kind, n_s, n_b, kappa, model)
    dim = len(mean0)

    def stack(entries, tail):
        out = np.empty(n_s.shape + (len(entries),))
        for k, v in enumerate(entries):
            out[..., k] = v
        return out.reshape(n_s.shape + tail)

    mean0, mean1 = stack(mean0, (dim,)), stack(mean1, (dim,))
    cov0 = stack([v for row in cov0 for v in row], (dim, dim))
    cov1 = stack([v for row in cov1 for v in row], (dim, dim))
    return mean0, cov0, mean1, cov1


def make_pair(spec: TransmitterSpec, cfg: TargetConfig) -> HypothesisPair:
    """Build the hypothesis pair for a transmitter/target configuration.

    A legacy-model vacuum transmitter yields rho0 == rho1; the pair is
    returned, degenerate, rather than rejected, so downstream code can
    exhibit the ill-posedness instead of crashing.
    """
    mean0, cov0, mean1, cov1 = pair_stack(spec.kind, spec.n_signal, cfg.n_b, cfg.kappa, cfg.model)
    return HypothesisPair(
        rho0=GaussianState(mean=mean0, cov=cov0),
        rho1=GaussianState(mean=mean1, cov=cov1),
        config=cfg,
        transmitter=spec,
    )
