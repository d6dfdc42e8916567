import numpy as np
import pytest

from gaussqi import divergence
from gaussqi.divergence import (
    _S_EDGE,
    FLAT_SPAN,
    S_TOL,
    _chernoff_parameters,
    _factors,
    bhattacharyya_error_bound,
    chernoff,
    fidelity,
    q_s_general,
)
from gaussqi.reference import (
    _PairGeometry,
    apply_unitary,
    phase_rotation,
    q_s_alt,
    q_s_coherent_closed,
    squeezer,
)
from gaussqi.symplectic import GaussianState
from gaussqi.target import HypothesisPair, TargetConfig, _parameter_stack, make_pair
from gaussqi.transmitters import coherent, smsv, thermal_state, tmss, vacuum


def _factor_values(x, p):
    """log G_p(x), Lambda_p(x) and their first and second p-derivatives, as floats."""
    log_g, lam = _factors(x, p)
    return [float(v) for v in (*log_g, *lam)]


def test_g_lambda_anchors():
    for p in (0.2, 0.5, 0.8):
        log_g, _, _, lam, _, _ = _factor_values(1.0, p)
        assert log_g == 0.0 and lam == 1.0
        # Lambda_p(x) ~ x/p at large argument
        x = 1e7
        assert abs(_factor_values(x, p)[3] / (x / p) - 1.0) < 1e-5
        assert np.isfinite(_factor_values(3.0, p)[0])


def test_factor_helpers_match_mpmath():
    # Near p = 0 and at large x, (x+1)^p and (x-1)^p agree to many digits;
    # the factors must not inherit that cancellation.  log G within 1e-14
    # absolute is G within 1e-14 relative.
    import mpmath as mp

    def g_mp(p, x):
        return 2**p / ((x + 1) ** p - (x - 1) ** p)

    def lam_mp(p, x):
        return ((x + 1) ** p + (x - 1) ** p) / ((x + 1) ** p - (x - 1) ** p)

    def exact(p, x):
        pm, xm = mp.mpf(p), mp.mpf(x)
        log_g = lambda q: mp.log(g_mp(q, xm))  # noqa: E731
        lam = lambda q: lam_mp(q, xm)  # noqa: E731
        return [float(mp.diff(f, pm, k)) for f in (log_g, lam) for k in (0, 1, 2)]

    with mp.workdps(50):
        for p in (1e-6, 1e-3, 0.5, 1 - 1e-6):
            for x in (1 + 1e-9, 2.0, 120.0, 401.0):
                values, refs = _factor_values(x, p), exact(p, x)
                assert abs(values[0] - refs[0]) <= 1e-14, (p, x)
                for k in range(1, 6):
                    assert abs(values[k] - refs[k]) <= 1e-14 * abs(refs[k]), (k, p, x)
        # At large x, log G = log1p(r) - p log((x+1)/2) would cancel two
        # terms of about p log x; the ratio form keeps log G to a few eps.
        for p in (0.95, 1 - 1e-6):
            for x in (1e8, 1e12, 1e15):
                assert abs(_factor_values(x, p)[0] - exact(p, x)[0]) <= 1e-15, (p, x)
    # A pure mode: G = Lambda = 1 and every derivative 0, exactly; rounding
    # just below x = 1 is clamped onto it.
    for x in (1.0, 1 - 1e-12):
        for p in (1e-6, 0.5, 1 - 1e-6):
            assert _factor_values(x, p) == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]


def test_q_s_identical_states_is_one():
    th = thermal_state(1.0)
    for s in (0.1, 0.37, 0.9):
        assert q_s_general(th, th, s) == pytest.approx(1.0, abs=1e-14)


def test_q_s_coherent_zero_background_ground_truth():
    # pure-state overlap: tr rho0^s rho1^{1-s} = e^{-kappa N_S}, s-independent
    kappa, n_s = 0.2, 0.3
    pair = make_pair(coherent(n_s), TargetConfig(kappa=kappa, n_b=0.0))
    for s in (0.2, 0.5, 0.8):
        assert q_s_general(pair.rho0, pair.rho1, s) == pytest.approx(
            np.exp(-kappa * n_s), rel=1e-12
        )
        assert q_s_coherent_closed(s, kappa, 0.0, n_s) == pytest.approx(
            np.exp(-kappa * n_s), rel=1e-13
        )


def test_closed_form_matches_general_on_random_grid():
    rng = np.random.default_rng(17)
    for _ in range(100):
        s = rng.uniform(0.02, 0.98)
        kappa = rng.uniform(0.01, 0.95)
        n_b = rng.uniform(0.0, 40.0)
        n_s = rng.uniform(0.0, 10.0)
        pair = make_pair(coherent(n_s), TargetConfig(kappa=kappa, n_b=n_b))
        a = q_s_general(pair.rho0, pair.rho1, s)
        b = q_s_coherent_closed(s, kappa, n_b, n_s)
        assert abs(a - b) <= 1e-12 * b


def test_closed_form_degenerate_point():
    assert q_s_coherent_closed(0.4, 0.0, 7.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_alt_form_matches_general():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s = rng.uniform(0.02, 0.98)
        kappa = rng.uniform(0.01, 0.9)
        n_b = rng.uniform(0.0, 20.0)
        n_s = rng.uniform(0.0, 5.0)
        pair = make_pair(smsv(n_s), TargetConfig(kappa=kappa, n_b=n_b))
        a = q_s_general(pair.rho0, pair.rho1, s)
        b = q_s_alt(pair.rho0, pair.rho1, s)
        assert abs(a - b) <= 1e-10 * a


def test_alt_form_anchor_and_hard_point():
    th = thermal_state(1.0)
    assert q_s_alt(th, th, 0.3) == pytest.approx(1.0, abs=1e-13)
    pair = make_pair(smsv(0.5), TargetConfig(kappa=1e-3, n_b=200.0))
    a = q_s_general(pair.rho0, pair.rho1, 0.5)
    b = q_s_alt(pair.rho0, pair.rho1, 0.5)
    assert abs(a - b) <= 1e-10


def test_alt_form_rejects_means_and_multimode():
    pair = make_pair(coherent(1.0), TargetConfig(kappa=0.2, n_b=1.0))
    with pytest.raises(ValueError):
        q_s_alt(pair.rho0, pair.rho1, 0.5)
    pair = make_pair(tmss(1.0), TargetConfig(kappa=0.2, n_b=1.0))
    with pytest.raises(ValueError):
        q_s_alt(pair.rho0, pair.rho1, 0.5)


def test_q_s_symmetry_and_range():
    rng = np.random.default_rng(31)
    pair = make_pair(smsv(0.8), TargetConfig(kappa=0.2, n_b=3.0))
    for _ in range(20):
        s = rng.uniform(0.02, 0.98)
        a = q_s_general(pair.rho0, pair.rho1, s)
        b = q_s_general(pair.rho1, pair.rho0, 1.0 - s)
        assert abs(a - b) <= 1e-12
        assert 0.0 < a <= 1.0


def test_q_s_with_degenerate_spectrum():
    # N_S = N_B makes the absent-hypothesis symplectic spectrum doubly
    # degenerate; the Williamson matrix is then non-unique but the overlap
    # must not depend on the representative chosen.
    n = 0.3
    pair = make_pair(tmss(n), TargetConfig(kappa=0.2, n_b=n))
    from gaussqi.fock_oracle import hypothesis_pair_fock, q_s_fock

    rho0, rho1 = hypothesis_pair_fock(tmss(n), TargetConfig(kappa=0.2, n_b=n), 22)
    for s in (0.3, 0.5, 0.7):
        assert abs(
            q_s_general(pair.rho0, pair.rho1, s) - q_s_fock(rho0, rho1, s)
        ) < 1e-6


def test_williamson_degenerate_diagonal():
    from gaussqi.reference import symplectic_form, williamson

    w = williamson(0.8 * np.eye(4))
    assert np.allclose(w.nu, [0.8, 0.8])
    delta = symplectic_form(2)
    assert np.linalg.norm(w.S @ delta @ w.S.T - delta) < 1e-10


def _dense_q(rho0, rho1, s):
    """Q_s of one pair on the dense reference route, which takes any pair of states."""
    geom = _PairGeometry(rho0.mean[None], rho0.cov[None], rho1.mean[None], rho1.cov[None])
    return float(np.exp(geom.log_q_and_slope(np.array([s]))[0][0]))


def test_q_s_invariant_under_joint_unitary():
    # The transformed states leave the standard form, so the reference route
    # evaluates them, against the production kernel on the pair itself.  A
    # rotation alone commutes with the isotropic blocks of Sigma(s); the
    # squeezer after it makes Williamson's T non-symmetric, which pins the
    # orientation of T in the reference route.
    pair = make_pair(tmss(0.7), TargetConfig(kappa=0.3, n_b=1.2))
    rotation = phase_rotation(0.9, mode=0, n_modes=2)
    for unitaries in ((rotation,), (rotation, squeezer(0.4, mode=0, n_modes=2))):
        r0, r1 = pair.rho0, pair.rho1
        for u in unitaries:
            r0, r1 = apply_unitary(r0, u), apply_unitary(r1, u)
        for s in (0.3, 0.6):
            assert _dense_q(r0, r1, s) == pytest.approx(
                q_s_general(pair.rho0, pair.rho1, s), rel=1e-11
            )


def test_pair_geometry_is_cached_with_the_same_bits():
    # q_s_general at several s validates and builds a pair's geometry once
    first = make_pair(tmss(0.4), TargetConfig(kappa=0.2, n_b=0.5))
    second = make_pair(smsv(0.4), TargetConfig(kappa=0.2, n_b=0.5))
    divergence._geometry.cache_clear()
    for s in (0.3, 0.5, 0.7):
        fresh = divergence._geometry.__wrapped__(first.rho0, first.rho1)
        log_q = fresh.derivatives(np.array([s]))[0][0]
        assert q_s_general(first.rho0, first.rho1, s) == min(np.exp(log_q), 1.0)
    assert divergence._geometry.cache_info()[:2] == (2, 1)
    q_s_general(first.rho0, first.rho1, 0.5)
    assert divergence._geometry.cache_info()[:2] == (3, 1)
    q_s_general(second.rho0, second.rho1, 0.5)
    assert divergence._geometry.cache_info()[:2] == (3, 2)


@pytest.mark.parametrize("kind", ["coherent", "tmss"])
def test_q_s_general_rejects_a_pair_not_in_standard_form(kind):
    pair = make_pair(coherent(0.7) if kind == "coherent" else tmss(0.7),
                     TargetConfig(kappa=0.3, n_b=1.2))
    u = phase_rotation(0.9, mode=0, n_modes=pair.rho0.n_modes)
    rotated = apply_unitary(pair.rho0, u), apply_unitary(pair.rho1, u)
    with pytest.raises(ValueError, match="pair 0 is not in standard form"):
        q_s_general(*rotated, 0.5)


def test_q_s_convexity_and_global_minimum():
    for pair in (
        make_pair(coherent(1.0), TargetConfig(kappa=0.2, n_b=2.0)),
        make_pair(smsv(0.5), TargetConfig(kappa=0.3, n_b=1.0)),
        make_pair(tmss(0.5), TargetConfig(kappa=0.2, n_b=3.0)),
    ):
        grid = np.linspace(0.02, 0.98, 101)
        values = np.array([q_s_general(pair.rho0, pair.rho1, s) for s in grid])
        assert np.all(np.diff(values, 2) >= -1e-10)
        res = chernoff(pair)
        assert res.q_star <= values.min() + 1e-12
        assert res.q_star <= res.q_half + 1e-12
        assert res.xi == pytest.approx(-np.log(res.q_star), abs=1e-12)
        assert res.converged


def test_chernoff_degenerate_pair():
    pair = make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0, model="legacy"))
    res = chernoff(pair)
    assert res.xi == 0.0
    assert res.q_star == 1.0
    assert "degenerate" in res.flags


def test_chernoff_bright_background_optimal_s():
    pair = make_pair(coherent(1.0), TargetConfig(kappa=1e-2, n_b=100.0))
    res = chernoff(pair)
    predicted = 0.5 + 1e-2 * 100.0 / (4 * (2 * 100.0 + 1))
    assert abs(res.s_star - predicted) < 5e-4


def test_chernoff_dim_background_optimal_s():
    pair = make_pair(coherent(1.0), TargetConfig(kappa=1e-2, n_b=1e-3))
    res = chernoff(pair)
    predicted = 0.5 + 1e-2 / 24.0
    assert abs(res.s_star - predicted) < 5e-4


def test_chernoff_edge_minimum():
    # with N_B = 0 the absent-target return mode is vacuum, and log Q_s
    # keeps falling all the way to s = 1
    res = chernoff(make_pair(tmss(1.0), TargetConfig(kappa=0.1, n_b=0.0)))
    assert res.flags == ("edge",)
    assert res.s_star == 1.0 - _S_EDGE
    assert res.converged
    assert res.xi >= -np.log(res.q_half)


def test_chernoff_flat_pair():
    # pure-state pair: Q_s = e^{-kappa N_S} for every s
    res = chernoff(make_pair(coherent(1.0), TargetConfig(kappa=0.2, n_b=0.0)))
    assert res.flags == ("flat",)
    assert res.s_star == 0.5
    assert res.xi == pytest.approx(0.2, rel=1e-12)


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_chernoff_flat_pair_with_its_minimum_at_the_edge(model):
    # Weak squeezed light with no background: log Q_s falls towards the
    # edge, yet spans less than FLAT_SPAN over [0.05, 0.95], so the pair is
    # flat.  Its edge value sits more than FLAT_SPAN / 2 below log Q_{1/2},
    # which the pre-filter on log Q_{1/2} - log Q_{s*} must let through.
    at = np.array([0.05, 0.5, 0.95, _S_EDGE, 1.0 - _S_EDGE])
    copies = _parameter_stack("smsv", 1e-3, np.zeros(at.size), 1.05e-10, model)
    geometry = divergence._StandardGeometry.from_parameters(*copies)
    log_q = geometry.derivatives(at)[0]
    assert np.ptp(log_q[:3]) < FLAT_SPAN < 2.0 * (log_q[1] - log_q[3:].min())
    res = chernoff(make_pair(smsv(1e-3), TargetConfig(kappa=1.05e-10, n_b=0.0, model=model)))
    assert res.flags == ("flat",)
    assert res.s_star == 0.5


@pytest.mark.parametrize("spec", [coherent(1.0), tmss(1.0)], ids=["coherent", "tmss"])
def test_chernoff_evaluation_count(spec):
    res = chernoff(make_pair(spec, TargetConfig(kappa=1e-2, n_b=20.0)))
    assert not res.flags
    # s = 1/2, the edge, then two Newton steps: the first lands next to
    # s* ~ 0.5012, the second steps just past the root estimate and the
    # bracket closes.
    assert 3 <= res.n_evals <= 4


@pytest.mark.parametrize("kind, most", [("tmss", 5), ("coherent", 4)])
def test_stacked_chernoff_evaluations_on_a_map(kind, most):
    # A seeded 4 x 4 map shaped like `gaussqi sweep`'s advantage map:
    # log-uniform N_S in [1e-3, 10] and N_B in [1e-3, 100] at kappa = 1e-2.
    # Its slowest pair sets the number of passes over the stack.
    rng = np.random.default_rng(2)
    n_s = np.sort(10.0 ** rng.uniform(-3.0, 1.0, 4))
    n_b = np.sort(10.0 ** rng.uniform(-3.0, 2.0, 4))
    stack = _parameter_stack(kind, *np.meshgrid(n_s, n_b, indexing="ij"), 1e-2)
    results = _chernoff_parameters(*(p.reshape(16, p.shape[-1]) for p in stack), S_TOL)
    assert all(not r.flags for r in results)
    assert max(r.n_evals for r in results) == most


def test_chernoff_iteration_budget_is_flagged(monkeypatch):
    pair = make_pair(tmss(1.0), TargetConfig(kappa=1e-2, n_b=20.0))
    monkeypatch.setattr(divergence, "MAX_ITER", 1)
    res = chernoff(pair)
    assert res.flags == ("maxiter",)
    assert not res.converged
    assert res.n_evals == 3
    assert res.xi >= -np.log(res.q_half)


def test_chernoff_reports_the_lowest_value_it_evaluated(monkeypatch):
    # Every unflagged pair reports xi = max(-min log Q_s, 0) over the values
    # the search evaluated for it, the Bhattacharyya point included; a
    # margin of 1e-15 either way on the fallback to s = 1/2 breaks it on
    # 13-22% of these pairs.  Seeded draws over the whole box: kappa in
    # [1e-12, 0.999999], N_S in [1e-8, 1e4], N_B 0 or in [1e-8, 1e6].
    # `evaluate` takes a sub-stack, then evaluates it, so each `take` pairs
    # its rows with the next evaluation.
    geometry = divergence._StandardGeometry
    take, derivatives, pending = geometry.take, geometry.derivatives, []
    monkeypatch.setattr(geometry, "take", lambda self, rows: pending.append(rows)
                        or take(self, rows))

    def recorded(self, s):
        out, rows = derivatives(self, s), pending.pop()
        lowest[rows] = np.fmin(lowest[rows], out[0])
        return out

    monkeypatch.setattr(geometry, "derivatives", recorded)
    rng, size, unflagged = np.random.default_rng(5), 200, 0
    for kind in ("vacuum", "coherent", "smsv", "tmss"):
        for model in ("agnostic", "legacy"):
            kappa = 10.0 ** rng.uniform(-12.0, np.log10(0.999999), size)
            n_s = np.zeros(size) if kind == "vacuum" else 10.0 ** rng.uniform(-8.0, 4.0, size)
            n_b = np.where(rng.random(size) < 0.25, 0.0, 10.0 ** rng.uniform(-8.0, 6.0, size))
            lowest = np.full(size, np.inf)
            results = _chernoff_parameters(*_parameter_stack(kind, n_s, n_b, kappa, model), S_TOL)
            assert not pending
            for k, res in enumerate(results):
                if not res.flags:
                    unflagged += 1
                    assert res.xi == max(-lowest[k], 0.0), (kind, model, k)
    assert unflagged > 500


@pytest.mark.parametrize("s_tol", [0.9, 0.5 - _S_EDGE, 0.0, -1e-7, float("nan"), float("inf")])
def test_chernoff_rejects_bad_s_tol(s_tol):
    # a tolerance as wide as the first bracket used to return s* = 1/2 unflagged
    pair = make_pair(coherent(1.0), TargetConfig(kappa=1e-2, n_b=20.0))
    with pytest.raises(ValueError, match="s_tol must lie in"):
        chernoff(pair, s_tol=s_tol)


def test_degenerate_is_read_off_the_moments():
    # A legacy vacuum pair built by hand from its parameters, not by
    # make_pair, is degenerate and is not searched.
    made = make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0, model="legacy"))
    by_hand = HypothesisPair(made.mean0, made.variances0, made.mean1, made.variances1,
                             made.config, made.transmitter)
    assert by_hand.degenerate
    res = chernoff(by_hand)
    assert res.flags == ("degenerate",)
    assert (res.n_evals, res.s_star, res.xi, res.q_star, res.q_half) == (0, 0.5, 0.0, 1.0, 1.0)
    # No call marks a distinct coherent pair degenerate: the flag is no input.
    cfg = TargetConfig(kappa=0.1, n_b=1.0)
    pair = make_pair(coherent(1.0), cfg)
    assert not pair.degenerate
    with pytest.raises(TypeError):
        HypothesisPair(pair.mean0, pair.variances0, pair.mean1, pair.variances1, cfg,
                       pair.transmitter, degenerate=True)
    with pytest.raises(AttributeError):
        pair.degenerate = True
    with pytest.raises(TypeError):
        chernoff(pair, degenerate=True)
    res = chernoff(pair)
    assert res.flags == () and res.xi > 0.0 and res.n_evals > 0
    # States of different mode counts are not a degenerate pair.
    two_mode = make_pair(tmss(1.0), cfg)
    mixed = HypothesisPair(pair.mean0, pair.variances0, two_mode.mean1, two_mode.variances1,
                           cfg, pair.transmitter)
    assert not mixed.degenerate
    for read in (chernoff, lambda p: bhattacharyya_error_bound(p, 1)):
        with pytest.raises(ValueError, match="mode mismatch: 1 vs 2"):
            read(mixed)


def test_vacuum_detection_exponent_positive():
    res = chernoff(make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0)))
    assert res.xi > 0.0
    assert not res.flags


def test_bhattacharyya_bound():
    pair = make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0, model="legacy"))
    assert bhattacharyya_error_bound(pair, 100) == 0.5
    pair = make_pair(coherent(1.0), TargetConfig(kappa=0.2, n_b=1.0))
    assert bhattacharyya_error_bound(pair, 0) == 0.5
    res = chernoff(pair)
    n = 50
    assert bhattacharyya_error_bound(pair, n) == pytest.approx(0.5 * res.q_half**n, rel=1e-12)
    for bad in (-1, float("inf"), float("nan"), 2.5):
        with pytest.raises(ValueError, match="n_copies must be a non-negative integer"):
            bhattacharyya_error_bound(pair, bad)


def test_bhattacharyya_bound_of_more_copies_than_a_float_holds():
    # Such a count used to raise OverflowError on its way into a float.
    pair = make_pair(coherent(1.0), TargetConfig(kappa=0.2, n_b=1.0))
    assert bhattacharyya_error_bound(pair, 10**400) == 0.0
    assert bhattacharyya_error_bound(pair, 10**300) == 0.0
    legacy_vacuum = make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0, model="legacy"))
    assert legacy_vacuum.degenerate
    assert bhattacharyya_error_bound(legacy_vacuum, 10**400) == 0.5
    with pytest.raises(ValueError, match="n_copies must be a non-negative integer"):
        bhattacharyya_error_bound(pair, -(10**400))


def test_bhattacharyya_bound_of_an_overlap_that_rounds_above_one():
    # Legacy coherent at N_S = 5e-24 is not degenerate (its means differ by
    # 1e-12), but its float64 log Q_1/2 rounds to +1.1e-16.  Raised to 10**6
    # copies, that would bound the error by 0.5 + 5.6e-11.
    pair = make_pair(coherent(5e-24), TargetConfig(kappa=0.1, n_b=1e-8, model="legacy"))
    assert not pair.degenerate
    assert bhattacharyya_error_bound(pair, 10**6) == 0.5


def test_bhattacharyya_matches_bright_model_exponent():
    # exponent of (1/2) Q_{1/2}^N against the large-background two-term model
    n_b, n_s, kappa, n = 100.0, 1.0, 1e-2, 1000
    pair = make_pair(coherent(n_s), TargetConfig(kappa=kappa, n_b=n_b))
    bound = bhattacharyya_error_bound(pair, n)
    rate = -np.log(2 * bound) / n
    model = kappa**2 * (n_b - 1) / (8 * n_b) + kappa * n_s / (2 * ((2 - kappa) * n_b + 1))
    assert abs(rate - model) <= 0.02 * model


def test_fidelity_identical_and_thermal_closed_form():
    th = thermal_state(0.7)
    assert fidelity(th, th) == pytest.approx(1.0, abs=1e-14)
    n1, n2 = 0.2, 0.5
    expected = 1.0 / (np.sqrt((n1 + 1) * (n2 + 1)) - np.sqrt(n1 * n2))
    assert fidelity(thermal_state(n1), thermal_state(n2)) == pytest.approx(expected, rel=1e-13)


def test_fidelity_coherent_overlap():
    a = GaussianState(np.array([0.3, -0.4]), 0.5 * np.eye(2))
    b = GaussianState(np.array([1.0, 0.2]), 0.5 * np.eye(2))
    d = b.mean - a.mean
    assert fidelity(a, b) == pytest.approx(np.exp(-0.25 * d @ d), rel=1e-12)


def test_fidelity_of_pure_states_is_the_root_of_their_overlap(monkeypatch):
    # For pure states F^2 = tr rho0 rho1 = Q_s at any s.  Squeezed and
    # displaced in both quadratures, each sector's displacement meets its
    # own variance sum; the closed form takes no matrix routine.
    states = [(GaussianState([0.3, -0.4], 0.5 * np.diag([np.exp(-2 * r0), np.exp(2 * r0)])),
               GaussianState([1.1, 0.5], 0.5 * np.diag([np.exp(-2 * r1), np.exp(2 * r1)])))
              for r0, r1 in ((0.3, 0.3), (0.4, -0.2))]
    for name in ("det", "eigh", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, None)
    for rho0, rho1 in states:
        f = fidelity(rho0, rho1)
        assert f**2 == pytest.approx(q_s_general(rho0, rho1, 0.5), rel=1e-12)
        assert f**2 == pytest.approx(q_s_general(rho0, rho1, 0.2), rel=1e-12)


def test_fidelity_rejects_multimode():
    pair = make_pair(tmss(1.0), TargetConfig(kappa=0.2, n_b=1.0))
    with pytest.raises(ValueError):
        fidelity(pair.rho0, pair.rho1)


def test_fidelity_symmetry_and_invariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        pair = make_pair(
            smsv(rng.uniform(0.0, 3.0)),
            TargetConfig(kappa=rng.uniform(0.05, 0.9), n_b=rng.uniform(0.0, 10.0)),
        )
        f = fidelity(pair.rho0, pair.rho1)
        assert 0.0 < f <= 1.0
        assert f == pytest.approx(fidelity(pair.rho1, pair.rho0), rel=1e-12)
    # fidelity reads its states through the standard-form reader: a rotated
    # state is refused, as by q_s_general.
    u = phase_rotation(0.9)
    with pytest.raises(ValueError, match="pair 0 is not in standard form"):
        fidelity(apply_unitary(pair.rho0, u), apply_unitary(pair.rho1, u))


@pytest.mark.parametrize(
    "n_b, lo, hi",
    [
        pytest.param(1.0, 0.05, 1.0, id="nb1"),
        pytest.param(2.0, 0.05, 2.0, id="nb2"),
        pytest.param(5.0, 1.0, 4.0, id="nb5"),
        pytest.param(20.0, 8.0, 12.0, id="nb20"),
    ],
)
def test_fidelity_curve_peak_location(n_b, lo, hi):
    # reflected squeezed vacuum vs the bare background: the deficit 1 - F is
    # quadratic in kappa with minimizing intensity N_B^2/(2 N_B + 1); at
    # N_B = 1, 2 the form (2 N_B - 3)/4 is off by far more than the tolerance
    kappa = 1e-4
    cfg = TargetConfig(kappa=kappa, n_b=n_b)
    background = thermal_state(n_b)
    grid = np.linspace(lo, hi, 401)
    values = [
        fidelity(make_pair(smsv(float(x)), cfg).rho1, background) for x in grid
    ]
    i = int(np.argmax(values))
    assert 0 < i < len(grid) - 1  # an interior maximum, not a grid edge
    assert abs(grid[i] - n_b**2 / (2 * n_b + 1)) < 0.05


def test_bright_lambda_sum_expansion():
    # Lambda-sum simplification in the bright background, residual O(1/N_B)
    kappa = 1e-3
    n_bs = np.array([50.0, 100.0, 200.0])
    for s in (0.3, 0.5, 0.7):
        resid = []
        for n_b in n_bs:
            exact = (_factor_values(2 * n_b + 1, s)[3]
                     + _factor_values(2 * (1 - kappa) * n_b + 1, 1 - s)[3])
            model = (2 * n_b * (1 - kappa * s) + 1) / (s * (1 - s))
            resid.append(abs(exact - model))
        slope = np.polyfit(np.log(1.0 / n_bs), np.log(resid), 1)[0]
        assert slope > 0.9


def test_dim_lambda_sum_expansion():
    # approach to 2 + 2(N_B^s + N_B^{1-s}); stated O(N_B) residual at s = 1/2
    kappa = 1e-4
    n_bs = np.array([1e-2, 1e-3, 1e-4])
    resid = []
    for n_b in n_bs:
        exact = (_factor_values(2 * n_b + 1, 0.5)[3]
                 + _factor_values(2 * (1 - kappa) * n_b + 1, 0.5)[3])
        model = 2 + 4 * np.sqrt(n_b)
        resid.append(abs(exact - model))
    slope = np.polyfit(np.log(n_bs), np.log(resid), 1)[0]
    assert slope > 0.9


def test_s_validation():
    th = thermal_state(1.0)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            q_s_general(th, th, bad)
