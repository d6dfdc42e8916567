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


def _check_nonnegative(name: str, value) -> None:
    """Reject a value that is negative or not finite; on an array, name its first such entry."""
    value = np.atleast_1d(value)
    bad = ~(np.isfinite(value) & (value >= 0))
    if bad.any():
        raise ValueError(f"{name} must be a finite non-negative number, got {value[bad][0]}")


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown transmitter kind {self.kind!r}; expected one of {KINDS}")
        _check_nonnegative("n_signal", self.n_signal)
        if self.kind == "vacuum" and self.n_signal != 0.0:
            raise ValueError("vacuum transmitter requires n_signal = 0")

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
    return GaussianState(mean=np.zeros(2), cov=(n_b + 0.5) * np.eye(2))


def probe_moments(kind: str, n_s):
    """Mean vector and covariance matrix of the probe, as nested lists.

    vacuum: mean 0, cov I/2.
    coherent: mean (sqrt(2 N_S), 0) (zero phase), cov I/2.
    smsv: mean 0, cov diag(e^{-2r}, e^{2r})/2 with sinh^2 r = N_S, so
        e^{2r} = (sqrt(N_S) + sqrt(N_S + 1))^2; the q quadrature carries
        the reduced noise.
    tmss: mean 0, diagonal blocks (N_S + 1/2) I2 and off-diagonal blocks
        sqrt(N_S (N_S + 1)) diag(1, -1), transmitted mode first.

    Only + - * / and ** appear, so every entry that depends on n_s is a
    float for a float n_s and an mpf (at the working precision) for an
    mpmath.mpf n_s; structural zeros and 1/2 are exact floats.
    """
    if kind == "vacuum":
        return [0.0, 0.0], [[0.5, 0.0], [0.0, 0.5]]
    if kind == "coherent":
        return [(2 * n_s) ** 0.5, 0.0], [[0.5, 0.0], [0.0, 0.5]]
    if kind == "smsv":
        e2r = (n_s ** 0.5 + (n_s + 1) ** 0.5) ** 2
        return [0.0, 0.0], [[0.5 / e2r, 0.0], [0.0, 0.5 * e2r]]
    if kind == "tmss":
        a = n_s + 0.5
        c = (n_s * (n_s + 1)) ** 0.5
        cov = [
            [a, 0.0, c, 0.0],
            [0.0, a, 0.0, -c],
            [c, 0.0, a, 0.0],
            [0.0, -c, 0.0, a],
        ]
        return [0.0] * 4, cov
    raise ValueError(f"unknown transmitter kind {kind!r}; expected one of {KINDS}")


def probe_state(spec: TransmitterSpec) -> GaussianState:
    """Gaussian moments of the probe before it reaches the target."""
    return GaussianState(*probe_moments(spec.kind, spec.n_signal))
