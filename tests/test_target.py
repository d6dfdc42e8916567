import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussqi.symplectic import GaussianState, symplectic_eigenvalues
from gaussqi.target import (
    TargetConfig,
    dilated_present,
    make_pair,
    pair_moments,
    target_present,
)
from gaussqi.transmitters import (
    KINDS,
    TransmitterSpec,
    coherent,
    probe_state,
    smsv,
    thermal_state,
    tmss,
    vacuum,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TargetConfig(kappa=1.0, n_b=1.0)
    with pytest.raises(ValueError):
        TargetConfig(kappa=-0.1, n_b=1.0)
    with pytest.raises(ValueError):
        TargetConfig(kappa=0.1, n_b=-1.0)
    with pytest.raises(ValueError):
        TargetConfig(kappa=0.1, n_b=1.0, model="other")
    assert TargetConfig(kappa=0.5, n_b=1.0, model="legacy").effective_n_b == 2.0


def test_coherent_present_matches_closed_form():
    n_s, kappa, n_b = 1.3, 0.2, 0.8
    out = target_present(probe_state(coherent(n_s)), TargetConfig(kappa=kappa, n_b=n_b))
    assert np.allclose(out.mean, [np.sqrt(2 * kappa * n_s), 0.0])
    assert np.allclose(out.cov, 0.5 * (1 + 2 * n_b * (1 - kappa)) * np.eye(2))


def test_vacuum_probe_zero_background_stays_vacuum():
    out = target_present(probe_state(vacuum()), TargetConfig(kappa=0.4, n_b=0.0))
    assert np.allclose(out.cov, 0.5 * np.eye(2), atol=1e-14)
    assert np.allclose(out.mean, 0.0)


def test_smsv_present_covariance():
    n_s, kappa, n_b = 0.6, 0.15, 2.0
    r = np.arcsinh(np.sqrt(n_s))
    out = target_present(probe_state(smsv(n_s)), TargetConfig(kappa=kappa, n_b=n_b))
    expected = 0.5 * np.diag(
        [
            kappa * np.exp(-2 * r) + (1 - kappa) * (2 * n_b + 1),
            kappa * np.exp(2 * r) + (1 - kappa) * (2 * n_b + 1),
        ]
    )
    assert np.allclose(out.cov, expected, atol=1e-13)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(KINDS),
    n_s=st.floats(0.0, 5.0),
    n_b=st.floats(0.0, 20.0),
    kappa=st.floats(1e-6, 0.99),
    model=st.sampled_from(("agnostic", "legacy")),
)
def test_closed_form_equals_dilation_route(kind, n_s, n_b, kappa, model):
    # make_pair's closed-form channel against the beamsplitter dilation, for
    # every transmitter (two-mode tmss included) and both background models.
    spec = TransmitterSpec(kind, 0.0 if kind == "vacuum" else n_s)
    cfg = TargetConfig(kappa=kappa, n_b=n_b, model=model)
    closed = make_pair(spec, cfg).rho1
    dilated = target_present(probe_state(spec), cfg)
    assert closed.isclose(dilated, atol=1e-13)


def test_channel_preserves_physicality():
    rng = np.random.default_rng(21)
    for _ in range(50):
        kappa = rng.uniform(0.01, 0.99)
        n_b = rng.uniform(0.0, 20.0)
        spec = [coherent(rng.uniform(0, 5)), smsv(rng.uniform(0, 5)), tmss(rng.uniform(0, 5))][rng.integers(3)]
        out = target_present(probe_state(spec), TargetConfig(kappa=kappa, n_b=n_b))
        assert symplectic_eigenvalues(out.cov).min() >= 0.5 - 1e-10


def test_tmss_present_block_structure():
    n_s, kappa, n_b = 0.9, 0.25, 1.5
    out = target_present(probe_state(tmss(n_s)), TargetConfig(kappa=kappa, n_b=n_b))
    a = 0.5 * (kappa * (2 * n_s + 1) + (1 - kappa) * (2 * n_b + 1))
    c = np.sqrt(kappa * n_s * (n_s + 1))
    assert np.allclose(out.cov[:2, :2], a * np.eye(2), atol=1e-13)
    assert np.allclose(out.cov[2:, 2:], (n_s + 0.5) * np.eye(2), atol=1e-13)
    assert np.allclose(out.cov[:2, 2:], c * np.diag([1.0, -1.0]), atol=1e-13)


def test_dilated_three_mode_covariance():
    # Full T/Q/E covariance from the dilation against the block algebra of
    # the beamsplitter action (doubled convention checked entrywise).
    n_s, kappa, n_b = 0.9, 0.25, 1.5
    out = dilated_present(probe_state(tmss(n_s)), TargetConfig(kappa=kappa, n_b=n_b))
    doubled = 2.0 * out.cov
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    tt = (kappa * (2 * n_s + 1) + (1 - kappa) * (2 * n_b + 1)) * eye
    tq = 2 * np.sqrt(n_s * kappa * (n_s + 1)) * z
    te = 2 * np.sqrt(kappa * (1 - kappa)) * (n_s - n_b) * eye
    qq = (2 * n_s + 1) * eye
    qe = 2 * np.sqrt(n_s * (1 - kappa) * (n_s + 1)) * z
    ee = (kappa * (2 * n_b + 1) + (1 - kappa) * (2 * n_s + 1)) * eye
    expected = np.block([[tt, tq, te], [tq.T, qq, qe], [te.T, qe.T, ee]])
    assert np.allclose(doubled, expected, atol=1e-12)
    # the derived matrix is symmetric by construction
    assert np.allclose(doubled, doubled.T, atol=1e-13)


def test_target_absent():
    n_s, n_b = 0.01, 20.0
    cfg = TargetConfig(kappa=0.3, n_b=n_b)
    out = make_pair(coherent(1.0), cfg).rho0
    assert out.isclose(thermal_state(n_b))
    out = make_pair(tmss(n_s), cfg).rho0
    assert np.allclose(np.diag(out.cov), [20.5, 20.5, 0.51, 0.51])
    assert np.allclose(out.mean, 0.0)
    # no correlation survives between the background and the memory
    assert np.all(out.cov[:2, 2:] == 0.0)
    # model plays no role when the target is absent
    legacy = make_pair(tmss(n_s), TargetConfig(kappa=0.3, n_b=n_b, model="legacy")).rho0
    assert out.isclose(legacy)


def test_legacy_equals_agnostic_with_rescaled_background():
    n_s, kappa, n_b = 1.1, 0.3, 2.0
    probe = probe_state(smsv(n_s))
    legacy = target_present(probe, TargetConfig(kappa=kappa, n_b=n_b, model="legacy"))
    agnostic = target_present(probe, TargetConfig(kappa=kappa, n_b=n_b / (1 - kappa)))
    assert legacy.isclose(agnostic)


def test_make_pair_vacuum_agnostic():
    pair = make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0))
    assert pair.rho0.isclose(thermal_state(1.0))
    assert np.allclose(pair.rho1.cov, 1.4 * np.eye(2))
    assert not pair.degenerate


def test_make_pair_vacuum_legacy_degenerate():
    pair = make_pair(vacuum(), TargetConfig(kappa=0.1, n_b=1.0, model="legacy"))
    assert pair.degenerate
    assert pair.rho0.isclose(pair.rho1)


def test_make_pair_perfect_reflection_limit():
    spec = coherent(2.0)
    pair = make_pair(spec, TargetConfig(kappa=1.0 - 1e-12, n_b=5.0))
    probe = probe_state(spec)
    assert np.abs(pair.rho1.cov - probe.cov).max() < 1e-10
    assert np.abs(pair.rho1.mean - probe.mean).max() < 1e-10


def test_tmss_eigenvalue_expansion_slope():
    # gamma_1 approaches (1+2N_B) - 2N_B(1+N_B) kappa/(1+N_S+N_B) with o(kappa)
    # remainder: residual halves twice per kappa decade on a log-log fit.
    n_s, n_b = 2.0, 5.0
    kappas = np.logspace(-5, -2, 4)
    resid = []
    for kappa in kappas:
        pair = make_pair(tmss(n_s), TargetConfig(kappa=kappa, n_b=n_b))
        gamma1 = 2 * symplectic_eigenvalues(pair.rho1.cov).max()
        model = (1 + 2 * n_b) - 2 * n_b * (1 + n_b) * kappa / (1 + n_s + n_b)
        resid.append(abs(gamma1 - model))
    slope = np.polyfit(np.log(kappas), np.log(resid), 1)[0]
    assert slope >= 2.0 - 0.1


def test_target_present_rejects_kappa_edge():
    with pytest.raises(ValueError):
        target_present(probe_state(vacuum()), TargetConfig(kappa=0.0, n_b=1.0))


def test_make_pair_rejects_kappa_zero():
    # kappa = 0 has no target-present state, so no TargetConfig carries it
    # and no pair can be built from one
    with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1\), got 0.0"):
        TargetConfig(kappa=0.0, n_b=1.0)


def test_pair_moments_keep_the_number_type():
    # the same builder gives mpf moments for mpf inputs, equal to the
    # float64 moments to float precision
    args = ("tmss", 0.7, 2.5, 0.15, "legacy")
    with mp.workdps(40):
        hp = pair_moments(*(mp.mpf(a) if isinstance(a, float) else a for a in args))
        assert isinstance(hp[3][0][0], mp.mpf) and isinstance(hp[3][0][2], mp.mpf)
        assert isinstance(hp[1][2][2], mp.mpf)
        for f64, mpf in zip(pair_moments(*args), hp):
            assert np.allclose(np.array(mpf, dtype=float), f64, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        pair_moments("laser", 1.0, 1.0, 0.1)
