import numpy as np
import pytest

from gaussqi import divergence
from gaussqi.divergence import (
    _S_EDGE,
    _Factors,
    bhattacharyya_error_bound,
    chernoff,
    fidelity,
    q_s_general,
)
from gaussqi.reference import apply_unitary, phase_rotation, q_s_alt, q_s_coherent_closed
from gaussqi.symplectic import GaussianState
from gaussqi.target import TargetConfig, make_pair
from gaussqi.transmitters import coherent, smsv, thermal_state, tmss, vacuum


def test_g_lambda_anchors():
    for p in (0.2, 0.5, 0.8):
        assert float(_Factors(1.0).g(p)) == 1.0
        assert float(_Factors(1.0).lam(p)) == 1.0
        # Lambda_p(x) ~ x/p at large argument
        x = 1e7
        assert abs(float(_Factors(x).lam(p)) / (x / p) - 1.0) < 1e-5
        assert float(_Factors(3.0).g(p)) > 0.0


def test_factor_helpers_match_mpmath():
    # Near p = 0 and at large x, (x+1)^p and (x-1)^p agree to many digits;
    # the helpers must not inherit that cancellation.
    import mpmath as mp

    def g_mp(p, x):
        return 2**p / ((x + 1) ** p - (x - 1) ** p)

    def lam_mp(p, x):
        return ((x + 1) ** p + (x - 1) ** p) / ((x + 1) ** p - (x - 1) ** p)

    with mp.workdps(50):
        for p in (1e-6, 1e-3, 0.5, 1 - 1e-6):
            for x in (1 + 1e-9, 2.0, 120.0, 401.0):
                pm, xm = mp.mpf(p), mp.mpf(x)
                exact = (
                    g_mp(pm, xm),
                    lam_mp(pm, xm),
                    mp.diff(lambda q: mp.log(g_mp(q, xm)), pm),
                    mp.diff(lambda q: lam_mp(q, xm), pm),
                )
                f = _Factors(x)
                for helper, ref in zip((f.g, f.lam, f.log_g_slope, f.lam_slope), exact):
                    value = float(helper(p))
                    assert abs(value - float(ref)) <= 1e-14 * abs(float(ref)), (helper, p, x)
    # A pure mode: G = Lambda = 1 and both slopes 0, exactly; rounding just
    # below x = 1 is clamped onto it.
    for x in (1.0, 1 - 1e-12):
        f = _Factors(x)
        for p in (1e-6, 0.5, 1 - 1e-6):
            assert float(f.g(p)) == float(f.lam(p)) == 1.0
            assert float(f.log_g_slope(p)) == float(f.lam_slope(p)) == 0.0


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
    from gaussqi.symplectic import symplectic_form, williamson

    w = williamson(0.8 * np.eye(4))
    assert np.allclose(w.nu, [0.8, 0.8])
    delta = symplectic_form(2)
    assert np.linalg.norm(w.S @ delta @ w.S.T - delta) < 1e-10


def test_q_s_invariant_under_joint_unitary():
    pair = make_pair(tmss(0.7), TargetConfig(kappa=0.3, n_b=1.2))
    u = phase_rotation(0.9, mode=0, n_modes=2)
    r0 = apply_unitary(pair.rho0, u)
    r1 = apply_unitary(pair.rho1, u)
    for s in (0.3, 0.6):
        assert q_s_general(r0, r1, s) == pytest.approx(
            q_s_general(pair.rho0, pair.rho1, s), rel=1e-11
        )


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


@pytest.mark.parametrize("spec", [coherent(1.0), tmss(1.0)], ids=["coherent", "tmss"])
def test_chernoff_evaluation_count(spec):
    res = chernoff(make_pair(spec, TargetConfig(kappa=1e-2, n_b=20.0)))
    assert not res.flags
    assert 2 <= res.n_evals <= 12


def test_chernoff_iteration_budget_is_flagged(monkeypatch):
    pair = make_pair(tmss(1.0), TargetConfig(kappa=1e-2, n_b=20.0))
    monkeypatch.setattr(divergence, "MAX_ITER", 1)
    res = chernoff(pair)
    assert res.flags == ("maxiter",)
    assert not res.converged
    assert res.n_evals == 3
    assert res.xi >= -np.log(res.q_half)


@pytest.mark.parametrize("s_tol", [0.9, 0.5 - _S_EDGE, 0.0, -1e-7, float("nan"), float("inf")])
def test_chernoff_rejects_bad_s_tol(s_tol):
    # a tolerance as wide as the first bracket used to return s* = 1/2 unflagged
    pair = make_pair(coherent(1.0), TargetConfig(kappa=1e-2, n_b=20.0))
    with pytest.raises(ValueError, match="s_tol must lie in"):
        chernoff(pair, s_tol=s_tol)


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
    with pytest.raises(ValueError):
        bhattacharyya_error_bound(pair, -1)


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
        u = phase_rotation(rng.uniform(0, 2 * np.pi))
        assert f == pytest.approx(
            fidelity(apply_unitary(pair.rho0, u), apply_unitary(pair.rho1, u)), rel=1e-11
        )


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
            exact = float(_Factors(2 * n_b + 1).lam(s) + _Factors(2 * (1 - kappa) * n_b + 1).lam(1 - s))
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
        exact = float(_Factors(2 * n_b + 1).lam(0.5) + _Factors(2 * (1 - kappa) * n_b + 1).lam(0.5))
        model = 2 + 4 * np.sqrt(n_b)
        resid.append(abs(exact - model))
    slope = np.polyfit(np.log(n_bs), np.log(resid), 1)[0]
    assert slope > 0.9


def test_s_validation():
    th = thermal_state(1.0)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            q_s_general(th, th, bad)
