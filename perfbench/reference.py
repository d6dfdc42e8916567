"""Reference kernels: fixed pieces of work that track the host's speed.

The benchmark runs on shared hosts whose speed drifts by a third or more
within minutes as other tenants come and go, and that drift is much the
same for the program and for similar code running next to it.  So the
workload process runs its workload's kernel between items, and every
timed span is reported in reference seconds:

    wall seconds x nominal_s / (kernel seconds measured around the span)

that is, the time the span would take on a host where the kernel takes
nominal_s.  A kernel never calls the program, so a change to the program
moves the reported times in full.

A kernel is built from parts, each a kind of work the program does:

- `interp`: interpreter-bound Python and small LAPACK calls, like the
  Gaussian layers and mpmath;
- `scipy`: scipy's Python-heavy small-matrix routines and a bounded
  scalar minimisation, like the Gaussian layers and `chernoff`;
- `eigh`: one mid-size complex Hermitian `eigh`, like the Fock oracle.

Contention slows the parts by different amounts, so each workload's
kernel holds the parts its own time goes to: `advantage-map` `interp`
and `scipy`, `fock-gate` `interp` and `eigh`.  Each part takes 8 to 15
ms on one core of a 2-vCPU Intel Xeon host with one BLAS thread.

numpy and scipy are imported on first use, so importing this module costs
nothing before the program's own set-up has been timed.
"""

from __future__ import annotations

import statistics
import time

# Each part's typical time on the host the bounds were set on.  They fix
# the unit of reference seconds and must not change once a baseline exists.
NOMINAL_S = {"interp": 0.008, "scipy": 0.010, "eigh": 0.015}

KERNEL_PARTS = {
    "advantage-map": ("interp", "scipy"),
    "fock-gate": ("interp", "eigh"),
}

_SMALL_N = 4
_LARGE_N = 192
_SMALL_CALLS = 300
_SCIPY_CALLS = 30
_LOOP = 20000

_inputs = None


def _inputs_once():
    """Libraries and fixed matrices of the kernel, made on first use."""
    global _inputs
    if _inputs is None:
        import numpy as np
        import scipy.linalg
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(20231017)
        small = rng.standard_normal((_SMALL_N, _SMALL_N))
        large = rng.standard_normal((_LARGE_N, _LARGE_N)) + 1j * rng.standard_normal(
            (_LARGE_N, _LARGE_N)
        )
        _inputs = {
            "np": np, "linalg": scipy.linalg, "minimize_scalar": minimize_scalar,
            "small": small + small.T,
            "spd": small @ small.T + _SMALL_N * np.eye(_SMALL_N),
            "large": large + large.conj().T,
        }
    return _inputs


def _interp(x) -> None:
    eigh, small = x["np"].linalg.eigh, x["small"]
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    for _ in range(_SMALL_CALLS):
        eigh(small)
        small @ small


def _scipy(x) -> None:
    linalg, small, spd = x["linalg"], x["small"], x["spd"]
    for _ in range(_SCIPY_CALLS):
        linalg.sqrtm(spd)
        linalg.expm(small)
        linalg.eigh(spd)
        x["np"].linalg.slogdet(spd)
        x["minimize_scalar"](lambda t: (t - 0.3) ** 2, bounds=(0.0, 1.0), method="bounded")


def _eigh(x) -> None:
    x["np"].linalg.eigh(x["large"])


_PARTS = {"interp": _interp, "scipy": _scipy, "eigh": _eigh}


class Kernel:
    """The reference kernel of one workload."""

    def __init__(self, workload: str):
        self.parts = [_PARTS[name] for name in KERNEL_PARTS[workload]]
        self.nominal_s = sum(NOMINAL_S[name] for name in KERNEL_PARTS[workload])
        self._warm = False

    def seconds(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        inputs = _inputs_once()
        if not self._warm:  # first calls initialise LAPACK; keep them out
            self._warm = True
            self.seconds()
        start = time.perf_counter()
        for part in self.parts:
            part(inputs)
        return time.perf_counter() - start

    def median_seconds(self, repeats: int = 3) -> float:
        return statistics.median(self.seconds() for _ in range(repeats))

    def scale(self, wall: float, kernel_s: float) -> float:
        """A span measured where the kernel took kernel_s, in reference units."""
        return wall * self.nominal_s / kernel_s
