"""Target models and hypothesis-pair construction.

Two conventions for the thermal background are supported.  In the
"agnostic" model the environment occupation N_B is a property of the scene
alone: the target is a beamsplitter of reflectivity kappa mixing the
transmitted mode with a bare thermal mode.  The "legacy" model substitutes
N_B -> N_B / (1 - kappa) so that the reflected noise is kappa-independent,
which makes a vacuum transmitter unable to see the target at all.

`pair_parameters` writes the hypothesis pair once, as the standard-form parameters
of its two states, in closed form and plain arithmetic: `make_pair` and a sweep keep
them in float64, `pair_moments` (for `highprec`) and `pair_stack` write matrices.
`reference.target_present` builds the same channel independently, through the
beamsplitter dilation, as the route the closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symplectic import GaussianState
from .transmitters import TransmitterSpec, _check_nonnegative, _check_probe
from .transmitters import _standard_form, probe_parameters

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


def _degenerate(mean0, variances0, mean1, variances1) -> np.ndarray:
    """The one definition of a degenerate pair, as a mask over a stack of standard-form parameters.

    Its two states agree moment by moment to 1e-13 times the largest
    covariance entry (at least 1): the variances are the covariance's
    nonzero entries, up to sign and repetition."""
    scale = np.maximum(np.maximum(np.abs(variances0).max(-1), np.abs(variances1).max(-1)), 1.0)
    return (np.abs(mean1 - mean0).max(axis=-1) <= 1e-13 * scale) & (
        np.abs(variances1 - variances0).max(axis=-1) <= 1e-13 * scale
    )


@dataclass(frozen=True, eq=False)
class HypothesisPair:
    """The two hypotheses, rho0 = target absent and rho1 = target present, as the float64
    standard-form parameters of their states (`pair_parameters`).  rho0 and rho1 are
    written from them (`transmitters._standard_form`) when first read, validated and
    cached, so each read returns the same state."""

    mean0: np.ndarray
    variances0: np.ndarray
    mean1: np.ndarray
    variances1: np.ndarray
    config: TargetConfig
    transmitter: TransmitterSpec

    rho0 = cached_property(lambda self: GaussianState(*_standard_form(self.mean0, self.variances0)))
    rho1 = cached_property(lambda self: GaussianState(*_standard_form(self.mean1, self.variances1)))

    @property
    def degenerate(self) -> bool:
        """Whether the two states coincide (`_degenerate`), read off the parameters."""
        return len(self.mean0) == len(self.mean1) and bool(
            _degenerate(self.mean0, self.variances0, self.mean1, self.variances1))


def pair_parameters(kind: str, n_s, n_b, kappa, model: str = "agnostic"):
    """Standard-form parameters (mean0, variances0, mean1, variances1) of the hypothesis pair.

    As `transmitters._standard_form` takes them.  rho1 is the probe after
    the thermal loss channel on its transmitted mode (Serafini, Quantum
    Continuous Variables, 2017): that mode's mean scales by sqrt(kappa),
    each of its variances v maps to kappa v + (1 - kappa)(N_eff + 1/2),
    the cross term c scales by sqrt(kappa), and the memory variance m is
    unchanged.  N_eff is n_b, or n_b / (1 - kappa) in the legacy model.
    rho0 replaces the transmitted mode by the bare background n_b + 1/2
    and keeps the memory's reduced state; it is the same in both models.
    Plain arithmetic, as in `transmitters.probe_parameters`: float, array
    or mpf inputs give parameters of their type, and zeros are exact floats.
    Raises ValueError on a probe or target outside its domain (_check_probe,
    _check_target).
    """
    _check_probe(kind, n_s)
    _check_target(kappa, n_b, model)
    mean, variances = probe_parameters(kind, n_s)
    noise = (1 - kappa) * (_effective_n_b(n_b, kappa, model) + 0.5)
    amp = kappa ** 0.5
    mean0, mean1 = [0.0, 0.0] + mean[2:], [amp * mean[0], amp * mean[1]] + mean[2:]
    if len(variances) == 2:
        return mean0, (n_b + 0.5,) * 2, mean1, tuple(kappa * v + noise for v in variances)
    a, c, m = variances
    return mean0, (n_b + 0.5, 0.0, m), mean1, (kappa * a + noise, amp * c, m)


def pair_moments(kind: str, n_s, n_b, kappa, model: str = "agnostic"):
    """Moments (mean0, cov0, mean1, cov1) of the hypothesis pair, as nested lists:
    `pair_parameters` written out by `transmitters._standard_form`."""
    mean0, variances0, mean1, variances1 = pair_parameters(kind, n_s, n_b, kappa, model)
    return (*_standard_form(mean0, variances0), *_standard_form(mean1, variances1))


def _stack(shape, entries) -> np.ndarray:
    """Entries, each a float or an array of `shape`, stacked on a last axis in float64."""
    out = np.empty(shape + (len(entries),))
    for k, v in enumerate(entries):
        out[..., k] = v
    return out


def _dense(mean, variances):
    """Float64 means and covariances that `_standard_form` writes from stacked float64
    parameters: means P + (2n,), variances P + (2,) or P + (3,)."""
    shape = np.shape(mean)[:-1]
    mean, cov = _standard_form(np.moveaxis(mean, -1, 0), tuple(np.moveaxis(variances, -1, 0)))
    return _stack(shape, mean), _stack(shape, sum(cov, [])).reshape(shape + (len(mean),) * 2)


def _parameter_stack(kind: str, n_s, n_b, kappa, model: str = "agnostic"):
    """`pair_parameters` in float64, stacked over the shape P that n_s, n_b and kappa broadcast
    to: means P + (2n,), variances P + (2,) or P + (3,).  Raises ValueError as pair_parameters."""
    n_s, n_b, kappa = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (n_s, n_b, kappa)))
    return [_stack(n_s.shape, p) for p in pair_parameters(kind, n_s, n_b, kappa, model)]


def pair_stack(kind: str, n_s, n_b, kappa, model: str = "agnostic"):
    """Float64 moments (mean0, cov0, mean1, cov1) of many pairs of one transmitter kind and
    model: `_parameter_stack` written out by `_dense`, covariances P + (2n, 2n)."""
    mean0, variances0, mean1, variances1 = _parameter_stack(kind, n_s, n_b, kappa, model)
    return (*_dense(mean0, variances0), *_dense(mean1, variances1))


def make_pair(spec: TransmitterSpec, cfg: TargetConfig) -> HypothesisPair:
    """Build the hypothesis pair for a transmitter/target configuration.

    The pair holds the parameters of `_parameter_stack`, and writes no state
    until one is read.  A legacy-model vacuum transmitter yields rho0 == rho1;
    the pair is returned, degenerate, rather than rejected, so downstream code
    can exhibit the ill-posedness instead of crashing.
    """
    parameters = _parameter_stack(spec.kind, spec.n_signal, cfg.n_b, cfg.kappa, cfg.model)
    return HypothesisPair(*parameters, cfg, spec)
