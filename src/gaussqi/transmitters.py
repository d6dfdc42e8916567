"""Probe-state constructors for the four transmitter configurations.

Each transmitter is parametrized by the mean photon number N_S in the
transmitted mode.  The two-mode entangled probe keeps a memory mode behind;
its per-mode photon expectation also equals N_S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import GaussianState

KINDS = ("vacuum", "coherent", "smsv", "tmss")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown transmitter kind {kind!r}; expected one of {KINDS}")


def _check_nonnegative(name: str, value) -> None:
    """Reject a negative, infinite or nan value; on an array, name its first such entry.

    Comparisons, not np.isfinite, so mpmath.mpf values take the same test."""
    value = np.atleast_1d(value)
    bad = ~((value >= 0) & (value < np.inf))
    if bad.any():
        raise ValueError(f"{name} must be a finite non-negative number, got {float(value[bad][0])}")


def _check_probe(kind: str, n_s) -> None:
    """The one definition of a valid probe, elementwise on an array of n_s."""
    _check_kind(kind)
    _check_nonnegative("n_signal", n_s)
    if kind == "vacuum" and (np.atleast_1d(n_s) != 0).any():
        raise ValueError("vacuum transmitter requires n_signal = 0")


@dataclass(frozen=True)
class TransmitterSpec:
    """Transmitter kind plus per-mode signal intensity N_S.

    kind is one of "vacuum", "coherent", "smsv" (single-mode squeezed
    vacuum, N_S = sinh^2 r), "tmss" (two-mode squeezed vacuum with a
    retained memory mode).
    """

    kind: str
    n_signal: float = 0.0

    def __post_init__(self):
        _check_probe(self.kind, self.n_signal)

    @property
    def n_modes(self) -> int:
        """Mode count of the probe: 1, except 2 for the entangled transmitter."""
        return 2 if self.kind == "tmss" else 1


def vacuum() -> TransmitterSpec:
    return TransmitterSpec("vacuum", 0.0)


def coherent(n_signal: float) -> TransmitterSpec:
    return TransmitterSpec("coherent", n_signal)


def smsv(n_signal: float) -> TransmitterSpec:
    return TransmitterSpec("smsv", n_signal)


def tmss(n_signal: float) -> TransmitterSpec:
    return TransmitterSpec("tmss", n_signal)


def thermal_state(n_b: float) -> GaussianState:
    """Single-mode thermal state with mean photon number n_b: cov (n_b + 1/2) I."""
    _check_nonnegative("n_b", n_b)
    return GaussianState(*_standard_form([0.0, 0.0], (n_b + 0.5,) * 2))


def _standard_form(mean, variances):
    """The one writer of the standard form: a state's mean and covariance, as nested lists.

    `variances` is (a, b) for diag(a, b), or (a, c, m) for [[a I2, c Z], [c Z, m I2]],
    Z = diag(1, -1).  Entries are given values or exact 0.0, and -c is 0.0 - c, so that
    c = 0 writes +0.0; floats, arrays and mpmath.mpf values are written alike."""
    if len(variances) == 2:
        a, b = variances
        return list(mean), [[a, 0.0], [0.0, b]]
    a, c, m = variances
    neg = 0.0 - c
    return list(mean), [[a, 0.0, c, 0.0], [0.0, a, 0.0, neg], [c, 0.0, m, 0.0], [0.0, neg, 0.0, m]]


def probe_parameters(kind: str, n_s):
    """Standard-form parameters (mean, variances) of the probe (see `_standard_form`).

    coherent, and vacuum at N_S = 0: mean (sqrt(2 N_S), 0) (zero phase), cov I/2.
    smsv: mean 0, cov diag(e^{-2r}, e^{2r})/2 with sinh^2 r = N_S, so
        e^{2r} = (sqrt(N_S) + sqrt(N_S + 1))^2; the q quadrature carries
        the reduced noise.
    tmss: mean 0, a = m = N_S + 1/2 and c = sqrt(N_S (N_S + 1)).

    Only + - * / and ** appear, so a parameter that depends on n_s is a
    float, an array or an mpf (at the working precision) as n_s is; the
    zeros and 1/2 are exact floats.  Callers check the kind (`_check_probe`).
    """
    if kind in ("vacuum", "coherent"):
        return [(2 * n_s) ** 0.5, 0.0], (0.5, 0.5)
    if kind == "smsv":
        e2r = (n_s ** 0.5 + (n_s + 1) ** 0.5) ** 2
        return [0.0, 0.0], (0.5 / e2r, 0.5 * e2r)
    a = n_s + 0.5
    return [0.0] * 4, (a, (n_s * (n_s + 1)) ** 0.5, a)


def probe_state(spec: TransmitterSpec) -> GaussianState:
    """Gaussian moments of the probe before it reaches the target."""
    return GaussianState(*_standard_form(*probe_parameters(spec.kind, spec.n_signal)))
