"""Property-based invariants of the overlap formula and the Chernoff minimiser.

Points are drawn from the moderate box kappa in [1e-3, 0.1], N_S in
[1e-3, 10], N_B in [1e-3, 100] (log-uniform), for every transmitter and
both target models.  The float64 floor of log Q_s grows with the background:
the G and Lambda factors difference (x+1)^p and (x-1)^p at x ~ 2 N_B + 1,
so absolute tolerances below carry a 1e-15 (1 + N_B) term.  The
cross-route test at the end draws from its own box, CROSS_ROUTE_BOX.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussqi import highprec
from gaussqi.divergence import _S_EDGE, _geometry, _PairGeometry, chernoff, chernoff_many, q_s_general
from gaussqi.reference import q_s_alt, random_symplectic
from gaussqi.sweeps import SweepPlan, run_sweep
from gaussqi.target import MODELS, HypothesisPair, TargetConfig, make_pair, pair_stack
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
    geom = _geometry(pair.rho0, pair.rho1)
    slope = geom.log_q_and_slope(np.array([s]))[1][0]

    def log_q(t):
        return geom.log_q_and_slope(np.array([t]))[0][0]

    h = 1e-5
    central = (log_q(s + h) - log_q(s - h)) / (2.0 * h)
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


# A stack of box points of one transmitter kind and model, as log10 values.
STACK = dict(
    kind=st.sampled_from(KINDS),
    model=st.sampled_from(MODELS),
    logs=st.lists(st.tuples(st.floats(-3.0, -1.0), st.floats(-3.0, 1.0), st.floats(-3.0, 2.0)),
                  min_size=1, max_size=8),
)
STACK_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


def _stack(kind, model, logs):
    kappa, n_s, n_b = (10.0 ** np.array(v) for v in zip(*logs))
    if kind == "vacuum":
        n_s = np.zeros_like(n_s)
    return kappa, n_s, n_b, pair_stack(kind, n_s, n_b, kappa, model)


@STACK_SETTINGS
@given(**STACK)
def test_chernoff_many_equals_each_pair_alone(kind, model, logs):
    kappa, n_s, n_b, stack = _stack(kind, model, logs)
    results = chernoff_many(*stack)
    for k, res in enumerate(results):
        pair = make_pair(TransmitterSpec(kind, n_s[k]), TargetConfig(kappa[k], n_b[k], model))
        assert res == chernoff(pair)


def test_run_sweep_rows_equal_single_point_chernoff():
    plan = SweepPlan(
        transmitters=KINDS,
        quantities=("chernoff", "q_half", "s_star", "ratio_vs_coherent", "ratio_vs_vacuum"),
        n_s_grid=(1e-2, 0.7),
        n_b_grid=(1e-3, 3.0, 80.0),
        kappa_grid=(1e-3, 0.05),
        model="legacy",
    )

    def alone(kind, n_s, n_b, kappa):
        return chernoff(make_pair(TransmitterSpec(kind, n_s), TargetConfig(kappa, n_b, "legacy")))

    rows = run_sweep(plan)
    assert len(rows) == (3 * 2 + 1) * 3 * 2 * 5
    for row in rows:
        res = alone(row.transmitter, row.n_s, row.n_b, row.kappa)
        assert row.s_star == res.s_star
        assert row.flags[: len(res.flags)] == res.flags
        if row.quantity == "ratio_vs_coherent":
            ref = alone("coherent", row.n_s, row.n_b, row.kappa)
            expected = res.xi / ref.xi if res.xi and ref.xi else None
        elif row.quantity == "ratio_vs_vacuum":
            ref = alone("vacuum", 0.0, row.n_b, row.kappa)
            expected = None if "degenerate" in ref.flags else float(np.exp(ref.xi - res.xi))
        else:
            expected = {"chernoff": res.xi, "q_half": res.q_half, "s_star": res.s_star}[row.quantity]
        if expected is None:
            assert np.isnan(row.value) and row.flags[-1] == "degenerate"
        else:
            assert row.value == expected


@STACK_SETTINGS
@given(s=st.floats(0.02, 0.98), seed=st.integers(0, 2**32 - 1), **STACK)
def test_stacked_overlap_invariants(s, seed, kind, model, logs):
    _, _, n_b, (mean0, cov0, mean1, cov1, _) = _stack(kind, model, logs)
    # log Q_s sums 4n + 1 terms, each carrying the floor of the module
    # docstring, so the absolute tolerance is ten times that floor.
    floor = 1e-14 * (1.0 + n_b)
    s = np.full(n_b.size, s)

    def log_q(m0, c0, m1, c1, at=s):
        return _PairGeometry(m0, c0, m1, c1).log_q_and_slope(at)[0]

    value = log_q(mean0, cov0, mean1, cov1)
    # 0 < Q_s <= 1
    assert np.all(np.isfinite(value)) and np.all(value <= floor)
    # Q_s(rho, rho) = 1
    assert np.all(np.abs(log_q(mean0, cov0, mean0, cov0)) <= floor)
    assert np.all(np.abs(log_q(mean1, cov1, mean1, cov1)) <= floor)
    # Q_s(a, b) = Q_{1-s}(b, a)
    swapped = log_q(mean1, cov1, mean0, cov0, at=1.0 - s)
    assert np.all(np.abs(swapped - value) <= 1e-9 * np.abs(value) + floor)
    # The same symplectic transformation of both states leaves Q_s alone.
    sym = random_symplectic(mean0.shape[-1] // 2, np.random.default_rng(seed), scale=0.3)
    moved = log_q(mean0 @ sym.T, sym @ cov0 @ sym.T, mean1 @ sym.T, sym @ cov1 @ sym.T)
    assert np.all(np.abs(moved - value) <= 1e-9 * np.abs(value) + floor)


CROSS_ROUTE_BOX = dict(
    kind=st.sampled_from(KINDS),
    model=st.sampled_from(MODELS),
    kappa=st.floats(1e-2, 0.5),
    n_s=st.floats(1e-2, 20.0),
    n_b=st.floats(1e-2, 20.0),
    s=st.floats(0.1, 0.9),
)


def _cross_route_misses() -> list:
    """Points of CROSS_ROUTE_BOX where a float64 route misses the mpmath -log Q_s.

    The routes are q_s_general everywhere and reference.q_s_alt on the
    single-mode zero-mean pairs; a miss is a relative deviation above 1e-10,
    returned as (deviation, route, kind, model, kappa, n_s, n_b, s).
    Hypothesis only draws the points, so every point is evaluated and the
    misses are reported together, without shrinking.
    """
    misses = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**CROSS_ROUTE_BOX)
    def evaluate(kind, model, kappa, n_s, n_b, s):
        n_s = 0.0 if kind == "vacuum" else n_s
        cfg = TargetConfig(kappa=kappa, n_b=n_b, model=model)
        pair = make_pair(TransmitterSpec(kind, n_s), cfg)
        assume(not pair.degenerate)
        exact = -float(highprec.log_q_s(kind, n_s, n_b, kappa, s, model))
        routes = (q_s_general, q_s_alt) if kind in ("vacuum", "smsv") else (q_s_general,)
        for route in routes:
            deviation = abs(-np.log(route(pair.rho0, pair.rho1, s)) - exact) / exact
            if deviation > 1e-10:
                misses.append((deviation, route.__name__, kind, model, kappa, n_s, n_b, s))

    evaluate()
    return misses


# float64 log Q_s carries an absolute error of a few eps, so where -log Q_s
# is small (low kappa, low N_S or N_B) its relative error passes 1e-10.
# Of this test's points, vacuum at kappa = N_B = 0.01, s = 0.1 misses by
# 4.4e-9 (q_s_general) and 3.1e-9 (q_s_alt); the worst point found on the
# box, legacy smsv at N_S = kappa = 0.01, N_B = 20, s = 0.1, misses by
# 4.5e-6.  That is ROADMAP direction 2's cancellation defect: once it is
# fixed this test passes, and strict=True makes that fail until the mark goes.
@pytest.mark.xfail(strict=True, reason="float64 -log Q_s cancels where it is small")
def test_float64_routes_match_highprec():
    misses = _cross_route_misses()
    assert not misses, f"{len(misses)} misses, worst {max(misses)}"
