"""Gaussian quantum illumination: error exponents for target detection in a
target-agnostic thermal background.

The package namespace holds the production API: probes, targets, pairs and
their exponents.  The second routes production is tested against are
imported on their own: `gaussqi.reference` (beamsplitter dilation, Gaussian
unitaries, closed forms of Q_s) and `gaussqi.fock_oracle`.
"""

from .divergence import (
    ChernoffResult,
    bhattacharyya_error_bound,
    chernoff,
    fidelity,
    q_s_general,
)
from .symplectic import GaussianState
from .target import HypothesisPair, TargetConfig, make_pair
from .transmitters import (
    TransmitterSpec,
    coherent,
    probe_state,
    smsv,
    thermal_state,
    tmss,
    vacuum,
)

__version__ = "0.1.0"
