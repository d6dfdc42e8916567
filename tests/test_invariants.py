"""Property-based invariants of the overlap formula and the Chernoff minimiser.

Points are drawn from the moderate box kappa in [1e-3, 0.1], N_S in
[1e-3, 10], N_B in [1e-3, 100] (log-uniform), for every transmitter and
both target models.  The float64 floor of log Q_s grows with the background:
the G and Lambda factors difference (x+1)^p and (x-1)^p at x ~ 2 N_B + 1,
so absolute tolerances below carry a 1e-15 (1 + N_B) term.  The
cross-route tests at the end draw from their own boxes: CROSS_ROUTE_BOX
for the float64 routes, criterion 1's box for the Fock oracle.
"""

import itertools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gaussqi.sweeps
from gaussqi import highprec
from gaussqi.divergence import (
    _S_EDGE,
    S_TOL,
    ChernoffResult,
    _chernoff_parameters,
    _standard_parameters,
    _StandardGeometry,
    chernoff,
    fidelity_many,
    q_s_general,
)
from gaussqi.fock_oracle import choose_cutoff, hypothesis_pair_fock, q_s_fock
from gaussqi.reference import _PairGeometry, q_s_alt, random_symplectic, target_present
from gaussqi.symplectic import symplectic_eigenvalues
from gaussqi.sweeps import SweepPlan, run_sweep
from gaussqi.target import (
    MODELS,
    HypothesisPair,
    TargetConfig,
    _degenerate,
    _parameter_stack,
    make_pair,
    pair_stack,
)
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


def _from_moments(*moments) -> _StandardGeometry:
    """The production geometry of a dense stack, through the dense boundary's reader."""
    return _StandardGeometry.from_parameters(*_standard_parameters(*moments))


def _standard(pair, size: int = 1) -> _StandardGeometry:
    """The production geometry of one pair, as a stack of `size` copies."""
    rho0, rho1 = pair.rho0, pair.rho1
    moments = (rho0.mean, rho0.cov, rho1.mean, rho1.cov)
    return _from_moments(*(np.repeat(x[None], size, axis=0) for x in moments))


@SETTINGS
@given(s=st.floats(0.05, 0.95), **BOX)
def test_slope_matches_central_difference(s, kind, model, log_kappa, log_n_s, log_n_b):
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    geom = _standard(pair)
    slope = geom.derivatives(np.array([s]))[1][0]

    def log_q(t):
        return geom.derivatives(np.array([t]))[0][0]

    h = 1e-5
    central = (log_q(s + h) - log_q(s - h)) / (2.0 * h)
    # The difference quotient itself carries the noise floor / h.
    assert slope == pytest.approx(central, rel=1e-6, abs=1e-9 + _floor(pair) / h)


@SETTINGS
@given(s=st.floats(0.05, 0.95), **BOX)
def test_curvature_matches_central_difference(s, kind, model, log_kappa, log_n_s, log_n_b):
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    geom = _standard(pair)
    curvature = geom.derivatives(np.array([s]))[2][0]

    def slope(t):
        return geom.derivatives(np.array([t]))[1][0]

    h = 1e-5
    central = (slope(s + h) - slope(s - h)) / (2.0 * h)
    assert curvature == pytest.approx(central, rel=1e-6, abs=1e-9 + _floor(pair) / h)


@SETTINGS
@given(s=st.floats(0.02, 0.98), **BOX)
def test_curvature_is_not_negative(s, kind, model, log_kappa, log_n_s, log_n_b):
    # The convexity of log Q_s, now read off the closed form.
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    assert _standard(pair).derivatives(np.array([s]))[2][0] >= -_floor(pair)


@SETTINGS
@given(**BOX)
def test_log_q_is_convex_in_s(kind, model, log_kappa, log_n_s, log_n_b):
    # log Q_s is convex in s (Audenaert et al., PRL 98, 160501 (2007)).
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    grid = np.linspace(0.02, 0.98, 49)
    values = _standard(pair, grid.size).derivatives(grid)[0]
    assert np.diff(values, 2).min() >= -_floor(pair)


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
    swapped = chernoff(HypothesisPair(pair.mean1, pair.variances1, pair.mean0, pair.variances0,
                                      pair.config, pair.transmitter))
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
def test_stacked_chernoff_equals_each_pair_alone(kind, model, logs):
    kappa, n_s, n_b, _ = _stack(kind, model, logs)
    results = _chernoff_parameters(*_parameter_stack(kind, n_s, n_b, kappa, model), S_TOL)
    for k, res in enumerate(results):
        pair = make_pair(TransmitterSpec(kind, n_s[k]), TargetConfig(kappa[k], n_b[k], model))
        assert res == chernoff(pair)


# The agnostic vacuum pair at N_B = 80, kappa = 0.05 stops its search on a
# slope of exactly 0 while the rest of its stack searches on.
@pytest.mark.parametrize("model", MODELS)
def test_run_sweep_rows_equal_single_point_chernoff(model):
    plan = SweepPlan(
        transmitters=KINDS,
        quantities=("chernoff", "q_half", "s_star", "ratio_vs_coherent", "ratio_vs_vacuum"),
        n_s_grid=(1e-2, 0.7),
        n_b_grid=(1e-3, 3.0, 80.0),
        kappa_grid=(1e-3, 0.05),
        model=model,
    )

    def alone(kind, n_s, n_b, kappa):
        return chernoff(make_pair(TransmitterSpec(kind, n_s), TargetConfig(kappa, n_b, model)))

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


@pytest.mark.parametrize("model", MODELS)
def test_one_search_over_a_mixed_plan_equals_each_stack_and_each_point(model, monkeypatch):
    """A plan's single search, over both mode counts, against each kind's stack and each point.

    The plan reads both ratios, so its search runs on the coherent and
    vacuum references with the other kinds: one stack per kind, in plan
    order, each over the mesh of the plan's grids.  The tmss pairs at
    N_B = 0, kappa = 3e-6 take 20 evaluations (at N_S = 2 the minimum sits
    in the boundary layer next to s = 1; at N_S = 0.01 the pair is flat),
    the others at most 7.  Every pass evaluates only the pairs it counts,
    so more than ten passes of the search run on those two alone.
    """
    plan = SweepPlan(transmitters=KINDS, quantities=("ratio_vs_coherent", "ratio_vs_vacuum"),
                     n_s_grid=(1e-2, 2.0), n_b_grid=(0.0, 3.0), kappa_grid=(3e-6, 0.05),
                     model=model)
    passes, searches = [], []
    derivatives = _StandardGeometry.derivatives
    monkeypatch.setattr(_StandardGeometry, "derivatives",
                        lambda self, s: passes.append(s.size) or derivatives(self, s))
    search = gaussqi.sweeps._chernoff_search
    monkeypatch.setattr(gaussqi.sweeps, "_chernoff_search",
                        lambda *args: searches.append(search(*args)) or searches[-1])
    run_sweep(plan)
    (columns,) = searches
    results = [ChernoffResult(*row) for row in zip(*(column.tolist() for column in columns))]
    keys = [(kind, *point) for kind in KINDS
            for point in itertools.product((0.0,) if kind == "vacuum" else plan.n_s_grid,
                                           plan.n_b_grid, plan.kappa_grid)]
    # 8 points per kind and 4 for vacuum, which is its own coherent reference.
    assert len(results) == len(keys) == 8 * 3 + 4
    assert sum(passes) == sum(res.n_evals for res in results)
    assert sum(size <= 2 for size in passes) > 10
    slow = {key: res.n_evals for key, res in zip(keys, results) if res.n_evals > 7}
    assert slow == {("tmss", 0.01, 0.0, 3e-6): 20, ("tmss", 2.0, 0.0, 3e-6): 20}
    monkeypatch.undo()
    for kind in KINDS:
        found = [(key, res) for key, res in zip(keys, results) if key[0] == kind]
        n_s, n_b, kappa = np.array([key[1:] for key, _ in found]).T
        alone = _chernoff_parameters(*_parameter_stack(kind, n_s, n_b, kappa, model), S_TOL)
        for (key, res), res_alone in zip(found, alone, strict=True):
            assert res == res_alone
            spec, cfg = TransmitterSpec(kind, key[1]), TargetConfig(key[3], key[2], model)
            assert chernoff(make_pair(spec, cfg)) == res


@STACK_SETTINGS
@given(s=st.floats(0.02, 0.98), seed=st.integers(0, 2**32 - 1), **STACK)
def test_stacked_overlap_invariants(s, seed, kind, model, logs):
    _, _, n_b, (mean0, cov0, mean1, cov1) = _stack(kind, model, logs)
    # log Q_s sums 4n + 1 terms, each carrying the floor of the module
    # docstring, so the absolute tolerance is ten times that floor.
    floor = 1e-14 * (1.0 + n_b)
    s = np.full(n_b.size, s)

    def log_q(m0, c0, m1, c1, at=s):
        return _from_moments(m0, c0, m1, c1).derivatives(at)[0]

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
    # Moved states leave the standard form, so this runs on the dense route.
    sym = random_symplectic(mean0.shape[-1] // 2, np.random.default_rng(seed), scale=0.3)
    moved = _PairGeometry(mean0 @ sym.T, sym @ cov0 @ sym.T, mean1 @ sym.T,
                          sym @ cov1 @ sym.T).log_q_and_slope(s)[0]
    assert np.all(np.abs(moved - value) <= 1e-9 * np.abs(value) + floor)


# The kinds and models whose pairs are not all degenerate: a legacy vacuum
# pair's states coincide.
LIVE = [(kind, model) for kind in KINDS for model in MODELS if (kind, model) != ("vacuum", "legacy")]


def _standard_draws(kind, model, seed, size=2000):
    """pair_stack moments of `size` draws from the box, the first 50 at N_B = 0.

    Returns n_b and the moments of the pairs that are not degenerate.
    """
    rng = np.random.default_rng(seed)
    kappa = 10.0 ** rng.uniform(-3.0, -1.0, size)
    n_s = np.zeros(size) if kind == "vacuum" else 10.0 ** rng.uniform(-3.0, 1.0, size)
    n_b = 10.0 ** rng.uniform(-3.0, 2.0, size)
    n_b[:50] = 0.0
    mean0, cov0, mean1, cov1 = pair_stack(kind, n_s, n_b, kappa, model)
    live = ~_degenerate(*_standard_parameters(mean0, cov0, mean1, cov1))
    return n_b[live], (mean0[live], cov0[live], mean1[live], cov1[live])


@pytest.mark.parametrize("kind, model", LIVE)
def test_standard_geometry_nu_matches_symplectic_eigenvalues(kind, model):
    n_b, moments = _standard_draws(kind, model, seed=90)
    geom = _from_moments(*moments)
    # Slots (x0a, x0m, x1a, x1m): a one-mode pair's memory slots are padding
    # at x = 1 exactly, and are left out.
    modes = moments[1].shape[-1] // 2
    slots = geom.x.reshape(n_b.size, 2, 2)
    if modes == 1:
        assert np.all(slots[..., 1] == 1.0)
    nu = np.sort(0.5 * slots[..., :modes], axis=-1)
    dense = np.stack([symplectic_eigenvalues(cov) for cov in moments[1::2]], axis=1)
    assert np.all(np.abs(nu - dense) <= 1e-13 * dense)
    if kind == "tmss":
        # At N_B = 0 the transmitted mode of both states is pure, and the
        # closed form puts it at x = 1 exactly, where rounding of the
        # entries would leave it on either side.
        assert np.all(geom.x[n_b == 0.0][:, (0, 2)] == 1.0)


@pytest.mark.parametrize("kind, model", LIVE)
def test_standard_geometry_matches_dense_route(kind, model):
    """The closed form against the dense reference route, pair and swapped pair.

    ROADMAP direction 9's pin: 2000 draws from the box per kind and model,
    the first 50 at N_B = 0, where rho0 has a pure mode, at s drawn from
    [0.05, 0.95].  log Q_s agrees to 1e-9 |log Q_s| + 1e-14 (1 + N_B).  The
    slope sums terms that grow like 1/s and 1/(1 - s) (L / expm1(pL) at
    small p), so its floor carries a factor 1 / (2 min(s, 1 - s)), 1 at
    s = 1/2.  A tmss pair at N_B = 0 has a pure mode in rho1 as well, which
    rounding puts just above or below 1/2 on the dense route; both routes
    set it to 1/2, so every draw is compared.
    """
    n_b, (mean0, cov0, mean1, cov1) = _standard_draws(kind, model, seed=91)
    s = np.random.default_rng(92).uniform(0.05, 0.95, n_b.size)
    floor = 1e-14 * (1.0 + n_b)
    for states, at in (((mean0, cov0, mean1, cov1), s), ((mean1, cov1, mean0, cov0), 1.0 - s)):
        value, slope, _ = _from_moments(*states).derivatives(at)
        dense_value, dense_slope = _PairGeometry(*states).log_q_and_slope(at)
        assert np.all(np.abs(value - dense_value) <= 1e-9 * np.abs(dense_value) + floor)
        slope_floor = floor / (2.0 * np.minimum(at, 1.0 - at))
        assert np.all(np.abs(slope - dense_slope) <= 1e-9 * np.abs(dense_slope) + slope_floor)


@SETTINGS
@given(**BOX)
def test_bhattacharyya_overlap_below_fidelity(kind, model, log_kappa, log_n_s, log_n_b):
    # Q_{1/2} = tr sqrt(rho0) sqrt(rho1) <= ||sqrt(rho0) sqrt(rho1)||_1 = F,
    # with equality for commuting states (the vacuum transmitter's pair).
    assume(kind != "tmss")
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    f = fidelity_many(pair.mean0[None], pair.variances0[None], pair.mean1[None],
                      pair.variances1[None])[0]
    assert q_s_general(pair.rho0, pair.rho1, 0.5) <= f + _floor(pair)


@SETTINGS
@given(
    s=st.floats(0.05, 0.95),
    channel_kappa=st.floats(0.05, 0.95),
    channel_log_n_b=st.floats(-3.0, 2.0),
    **BOX,
)
def test_common_channel_does_not_decrease_overlap(
    s, channel_kappa, channel_log_n_b, kind, model, log_kappa, log_n_s, log_n_b
):
    # Data processing: one thermal loss channel, built by the dilation
    # route, applied to both hypotheses cannot make them easier to tell apart.
    pair = _pair(kind, model, log_kappa, log_n_s, log_n_b)
    channel = TargetConfig(kappa=channel_kappa, n_b=10.0**channel_log_n_b)
    before = q_s_general(pair.rho0, pair.rho1, s)
    after = q_s_general(target_present(pair.rho0, channel), target_present(pair.rho1, channel), s)
    assert np.log(after) >= np.log(before) - _floor(pair) * (1.0 + channel.n_b)


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
# This test's points give 15 misses, 4 from q_s_general and 11 from
# q_s_alt; the worst, agnostic vacuum at kappa = N_B = 0.01, s = 0.1, miss
# by 5.57e-9 (q_s_general) and 3.09e-9 (q_s_alt), and log Q_s read off the
# geometry, not through Q_s, misses there by 5.59e-9.  The worst point
# found on the box, legacy smsv at N_S = kappa = 0.01, N_B = 20, s = 0.1,
# misses by 4.5e-6.  That is ROADMAP direction 2's cancellation defect: once it is
# fixed this test passes, and strict=True makes that fail until the mark goes.
@pytest.mark.xfail(strict=True, reason="float64 -log Q_s cancels where it is small")
def test_float64_routes_match_highprec():
    misses = _cross_route_misses()
    assert not misses, f"{len(misses)} misses, worst {max(misses)}"


def test_fock_oracle_matches_highprec():
    """The truncated number basis against the mpmath route, one point per kind and model.

    Points are drawn from criterion 1's box (N_S, N_B in [0.1, 0.5], kappa
    in [0.1, 0.3]) in both models and evaluated at the cutoff choose_cutoff
    verifies to 1e-8.  In the legacy model the dilation sees the larger
    occupancy N_B / (1 - kappa).
    """
    rng = np.random.default_rng(6)
    worst = 0.0
    for kind in KINDS:
        for model in MODELS:
            kappa = rng.uniform(0.1, 0.3)
            n_s = 0.0 if kind == "vacuum" else rng.uniform(0.1, 0.5)
            n_b = rng.uniform(0.1, 0.5)
            spec, cfg = TransmitterSpec(kind, n_s), TargetConfig(kappa=kappa, n_b=n_b, model=model)
            rho0, rho1 = hypothesis_pair_fock(spec, cfg, choose_cutoff(spec, cfg, tol=1e-8))
            for s in (0.3, 0.5, 0.7):
                exact = float(mp.exp(highprec.log_q_s(kind, n_s, n_b, kappa, s, model)))
                worst = max(worst, abs(q_s_fock(rho0, rho1, s) - exact))
    assert worst < 1e-7
