"""Property-based invariants of the Chernoff minimiser.

Points are drawn from the moderate box kappa in [1e-3, 0.1], N_S in
[1e-3, 10], N_B in [1e-3, 100] (log-uniform), for every transmitter and
both target models.  The float64 floor of log Q_s grows with the background:
the G and Lambda factors difference (x+1)^p and (x-1)^p at x ~ 2 N_B + 1,
so absolute tolerances below carry a 1e-15 (1 + N_B) term.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussqi.divergence import _S_EDGE, _PairGeometry, chernoff, q_s_general
from gaussqi.target import MODELS, HypothesisPair, TargetConfig, make_pair
from gaussqi.transmitters import KINDS, TransmitterSpec

BOX = dict(
    kind=st.sampled_from(KINDS),
    model=st.sampled_from(MODELS),
    log_kappa=st.floats(-3.0, -1.0),
    log_n_s=st.floats(-3.0, 1.0),
    log_n_b=st.floats(-3.0, 2.0),
)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _pair(kind, model, log_kappa, log_n_s, log_n_b):
    n_s = 0.0 if kind == "vacuum" else 10.0**log_n_s
    cfg = TargetConfig(kappa=10.0**log_kappa, n_b=10.0**log_n_b, model=model)
    pair = make_pair(TransmitterSpec(kind, n_s), cfg)
    assume(not pair.degenerate)
    return pair


def _floor(pair) -> float:
    return 1e-15 * (1.0 + pair.config.n_b)


@SETTINGS
@given(s=st.floats(0.05, 0.95), **BOX)
def test_slope_matches_central_difference(s, kind, model, log_kappa, log_n_s, log_n_b):
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    geom = _PairGeometry(pair.rho0, pair.rho1)
    value, slope = geom.log_q_and_slope(s)
    assert value == pytest.approx(geom.log_q(s), rel=1e-12, abs=1e-15)
    h = 1e-5
    central = (geom.log_q(s + h) - geom.log_q(s - h)) / (2.0 * h)
    # The difference quotient itself carries the noise floor / h.
    assert slope == pytest.approx(central, rel=1e-6, abs=1e-9 + _floor(pair) / h)


@SETTINGS
@given(**BOX)
def test_minimum_is_global_and_below_bhattacharyya(kind, model, log_kappa, log_n_s, log_n_b):
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    res = chernoff(pair)
    grid = [q_s_general(pair.rho0, pair.rho1, s) for s in np.linspace(0.01, 0.99, 41)]
    assert res.q_star <= min(grid) + 1e-12
    assert res.xi >= -np.log(res.q_half) - 1e-15
    assert res.converged


@SETTINGS
@given(**BOX)
def test_swapped_hypotheses_mirror_s_star(kind, model, log_kappa, log_n_s, log_n_b):
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    res = chernoff(pair)
    swapped = chernoff(HypothesisPair(pair.rho1, pair.rho0, pair.config, pair.transmitter))
    floor = _floor(pair)
    assert swapped.xi == pytest.approx(res.xi, rel=1e-9, abs=floor)
    assume(not {"edge", "flat"} & set(res.flags + swapped.flags))
    # Near a minimum log Q_s ~ -xi (1 + O((s - s*)^2)), so noise of size
    # `floor` moves s* by about sqrt(floor / xi).
    assert abs(res.s_star + swapped.s_star - 1.0) <= 1e-4 + np.sqrt(floor / res.xi)


@SETTINGS
@given(**BOX)
def test_s_star_interior_unless_flagged(kind, model, log_kappa, log_n_s, log_n_b):
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    res = chernoff(pair)
    if "edge" in res.flags:
        assert res.s_star in (_S_EDGE, 1.0 - _S_EDGE)
    elif "flat" in res.flags:
        assert res.s_star == 0.5
    else:
        assert _S_EDGE < res.s_star < 1.0 - _S_EDGE
