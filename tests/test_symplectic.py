import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussqi.reference import (
    GaussianUnitary,
    apply_unitary,
    beamsplitter,
    partial_trace,
    phase_rotation,
    random_physical_cov,
    random_symplectic,
    squeezer,
    symplectic_form,
    symplectic_inverse,
    tensor,
    williamson,
)
from gaussqi.symplectic import GaussianState, symplectic_eigenvalues
from gaussqi.target import TargetConfig, make_pair
from gaussqi.transmitters import probe_state, thermal_state, tmss


def test_symplectic_form_properties():
    for n in (1, 2, 3):
        delta = symplectic_form(n)
        assert np.array_equal(delta.T, -delta)
        assert np.allclose(delta @ delta, -np.eye(2 * n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_form_is_shared_and_read_only(n):
    import scipy.linalg as la

    delta = symplectic_form(n)
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(delta, la.block_diag(*([j2] * n)))
    assert symplectic_form(n) is delta
    with pytest.raises(ValueError):
        delta[0, 1] = 2.0


def test_symplectic_inverse():
    rng = np.random.default_rng(0)
    s = random_symplectic(2, rng)
    assert np.allclose(symplectic_inverse(s) @ s, np.eye(4), atol=1e-10)


def test_williamson_vacuum():
    w = williamson(0.5 * np.eye(2))
    assert np.allclose(w.nu, [0.5])
    assert np.allclose(w.S, np.eye(2))


def test_williamson_squeezed_thermal():
    n, r = 0.3, 0.4
    cov = np.diag([(n + 0.5) * np.exp(-2 * r), (n + 0.5) * np.exp(2 * r)])
    w = williamson(cov)
    assert np.allclose(w.nu, [0.8])
    assert np.allclose(w.S, np.diag([np.exp(r), np.exp(-r)]), atol=1e-12)


def test_williamson_tmss_pure():
    for n_s in (0.1, 1.0, 7.3):
        w = williamson(probe_state(tmss(n_s)).cov)
        assert np.allclose(w.nu, [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_williamson_round_trip(n_modes):
    rng = np.random.default_rng(42 + n_modes)
    delta = symplectic_form(n_modes)
    for _ in range(100):
        cov = random_physical_cov(n_modes, rng)
        w = williamson(cov)
        diag = np.diag(np.repeat(w.nu, 2))
        assert np.linalg.norm(w.S @ cov @ w.S.T - diag) / np.linalg.norm(cov) < 1e-10
        assert np.linalg.norm(w.S @ delta @ w.S.T - delta) < 1e-10
        assert np.all(np.diff(w.nu) >= 0)
        assert np.all(w.nu >= 0.5 - 1e-10)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n_modes=st.integers(1, 3), size=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_williamson_stack_matches_each_matrix(n_modes, size, seed):
    rng = np.random.default_rng(seed)
    covs = [random_physical_cov(n_modes, rng) for _ in range(size)]
    if n_modes == 2:
        # Degenerate spectra: every nu equal.
        n = rng.uniform(0.01, 5.0)
        absent = make_pair(tmss(n), TargetConfig(kappa=0.1, n_b=n)).rho0.cov
        covs += [0.8 * np.eye(4), absent]
    stack = np.array(covs)
    w = williamson(stack)
    # symplectic_eigenvalues is the first half of williamson, bit for bit.
    assert np.array_equal(symplectic_eigenvalues(stack), w.nu)
    assert w.nu.shape == (len(covs), n_modes)
    assert w.S.shape == stack.shape
    delta = symplectic_form(n_modes)
    for k, cov in enumerate(covs):
        alone = williamson(cov)
        assert np.array_equal(alone.nu, w.nu[k])
        assert np.array_equal(alone.S, w.S[k])
        diag = np.diag(np.repeat(w.nu[k], 2))
        assert np.linalg.norm(w.S[k] @ cov @ w.S[k].T - diag) / np.linalg.norm(cov) <= 1e-10
        assert np.linalg.norm(w.S[k] @ delta @ w.S[k].T - delta) <= 1e-10


def test_williamson_stack_checks_every_matrix():
    good = 0.5 * np.eye(2)
    with pytest.raises(ValueError, match="not symmetric"):
        williamson(np.array([good, [[1.0, 0.5], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="not positive definite"):
        williamson(np.array([good, np.diag([1.0, 1e-16])]))


def test_symplectic_eigenvalues_invariant_under_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cov = random_physical_cov(2, rng)
        t = random_symplectic(2, rng)
        nu1 = symplectic_eigenvalues(cov)
        nu2 = symplectic_eigenvalues(t @ cov @ t.T)
        assert np.allclose(nu1, nu2, rtol=1e-9)


def test_williamson_rejects_bad_input():
    with pytest.raises(ValueError):
        williamson(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        williamson(np.diag([1.0, -1.0]))  # not positive definite
    with pytest.raises(ValueError):
        williamson(np.diag([1.0, 1e-16]))  # near-singular


def test_gaussian_state_owns_read_only_moments():
    # divergence caches geometries on states, so a state must not change
    # when the caller's arrays do
    mean, cov = np.zeros(2), 0.5 * np.eye(2)
    state = GaussianState(mean, cov)
    mean[0], cov[0, 0] = 3.0, 2.0
    assert np.array_equal(state.mean, [0.0, 0.0]) and state.cov[0, 0] == 0.5
    assert not state.mean.flags.writeable and not state.cov.flags.writeable


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(2), cov=0.1 * np.eye(2))  # unphysical
    with pytest.raises(ValueError):
        GaussianState(mean=np.array([np.inf, 0.0]), cov=0.5 * np.eye(2))
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(4), cov=0.5 * np.eye(2))
    with pytest.raises(ValueError, match=r"covariance must be one matrix, got \(2, 2, 2\)"):
        GaussianState(mean=np.zeros(2), cov=0.5 * np.ones((2, 2, 2)))
    for shape in ((2, 4), (3, 3), (2,)):
        with pytest.raises(ValueError, match="covariance must be square with even size"):
            symplectic_eigenvalues(np.ones(shape))


def test_validation_tolerances_at_their_boundaries():
    # Just below the vacuum by 1e-8, 100 times PHYSICALITY_TOL: unphysical.
    with pytest.raises(ValueError, match="unphysical covariance"):
        GaussianState(np.zeros(2), (0.5 - 1e-8) * np.eye(2))
    # Asymmetric by 1e-10 relative, 100 times SYMMETRY_TOL: rejected.
    with pytest.raises(ValueError, match="not symmetric"):
        symplectic_eigenvalues(np.array([[1.0, 0.0], [1e-10, 1.0]]))
    # A pure squeezed vacuum with its smallest covariance eigenvalue at
    # 1e-12, 100 times MIN_COV_EIGENVALUE: accepted, with nu = 1/2.
    state = GaussianState(np.zeros(2), np.diag([1e-12, 0.25e12]))
    assert symplectic_eigenvalues(state.cov) == pytest.approx([0.5], rel=1e-10)


def test_gaussian_state_builds_no_williamson():
    # A state needs only nu to check physicality, never the symplectic S,
    # which only the reference route builds.
    import gaussqi.symplectic

    dense = {"williamson", "WilliamsonDecomposition", "symplectic_inverse", "symplectic_form"}
    assert not dense & set(vars(gaussqi.symplectic))
    state = GaussianState(mean=np.zeros(4), cov=probe_state(tmss(1.0)).cov)
    assert state.n_modes == 2
    with pytest.raises(ValueError, match="unphysical"):
        GaussianState(mean=np.zeros(2), cov=0.1 * np.eye(2))


def test_gaussian_unitary_rejects_non_symplectic():
    with pytest.raises(ValueError):
        GaussianUnitary(S=2.0 * np.eye(2))


def test_thermal_isotropy_under_rotation():
    th = thermal_state(0.7)
    out = apply_unitary(th, phase_rotation(1.234))
    assert out.isclose(th)


def test_two_mode_vacuum_invariant_under_beamsplitter():
    vac2 = tensor(
        GaussianState(np.zeros(2), 0.5 * np.eye(2)),
        GaussianState(np.zeros(2), 0.5 * np.eye(2)),
    )
    out = apply_unitary(vac2, beamsplitter(0.3, 0, 1, 2))
    assert out.isclose(vac2)


def test_beamsplitter_mean_transformation():
    # coherent x vacuum: output mode-a mean picks up sqrt(kappa)
    alpha = 0.8
    st = tensor(
        GaussianState(np.array([np.sqrt(2) * alpha, 0.0]), 0.5 * np.eye(2)),
        GaussianState(np.zeros(2), 0.5 * np.eye(2)),
    )
    out = apply_unitary(st, beamsplitter(0.25, 0, 1, 2))
    assert np.allclose(out.mean[:2], np.sqrt(0.25) * np.array([np.sqrt(2) * alpha, 0.0]))


def test_beamsplitter_full_transmission_limit():
    s = beamsplitter(1.0 - 1e-12, 0, 1, 2).S
    assert np.allclose(s, np.eye(4), atol=2e-6)


def test_beamsplitter_symplectic_and_unimodular():
    delta = symplectic_form(2)
    for kappa in (0.1, 0.5, 0.9):
        s = beamsplitter(kappa, 0, 1, 2).S
        assert abs(np.linalg.det(s) - 1.0) < 1e-12
        assert np.linalg.norm(s @ delta @ s.T - delta) < 1e-10
    with pytest.raises(ValueError):
        beamsplitter(1.2, 0, 1, 2)
    with pytest.raises(ValueError):
        beamsplitter(0.5, 0, 0, 2)


def test_random_unitary_compositions_symplectic():
    # acceptance-style property at reduced count; the acceptance suite runs 1000
    rng = np.random.default_rng(11)
    delta = symplectic_form(2)
    for _ in range(100):
        s = np.eye(4)
        for _ in range(4):
            which = rng.integers(3)
            if which == 0:
                s = beamsplitter(rng.uniform(0.05, 0.95), 0, 1, 2).S @ s
            elif which == 1:
                s = squeezer(rng.uniform(-1, 1), int(rng.integers(2)), 2).S @ s
            else:
                s = phase_rotation(rng.uniform(0, 2 * np.pi), int(rng.integers(2)), 2).S @ s
        assert np.linalg.norm(s @ delta @ s.T - delta) < 1e-10


def test_partial_trace_product_state():
    th = thermal_state(0.9)
    vac = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    joint = tensor(th, vac)
    assert partial_trace(joint, keep={0}).isclose(th)
    assert partial_trace(joint, keep=[0, 1]).isclose(joint)
    with pytest.raises(ValueError):
        partial_trace(joint, keep=[])


def test_partial_trace_tmss_memory_is_thermal():
    n_s = 0.8
    reduced = partial_trace(probe_state(tmss(n_s)), keep={1})
    assert np.allclose(reduced.cov, (n_s + 0.5) * np.eye(2))
    assert np.allclose(reduced.mean, 0.0)


def test_partial_trace_commutes_with_unitary_on_traced_modes():
    st = tensor(thermal_state(0.4), thermal_state(1.2))
    u = phase_rotation(0.77, mode=1, n_modes=2)  # acts only on the traced mode
    a = partial_trace(apply_unitary(st, u), keep={0})
    b = partial_trace(st, keep={0})
    assert a.isclose(b)


def test_a_finite_covariance_near_the_float_limit_is_kept():
    # Symmetrising as 0.5 (cov + cov^T) overflowed past 8.99e307, stored inf
    # with a RuntimeWarning, and a later check called the state non-finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = GaussianState([0.0, 0.0], np.diag([1e308, 1e308]))
    assert state.cov.tolist() == [[1e308, 0.0], [0.0, 1e308]]
