import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from gaussqi import fock_oracle
from gaussqi.divergence import fidelity, q_s_general
from gaussqi.fock_oracle import (
    NEGATIVITY_TOL,
    FockOperator,
    apply_target_fock,
    build_state,
    choose_cutoff,
    fidelity_fock,
    hypothesis_pair_fock,
    mean_photon_number,
    q_s_fock,
    thermal_fock,
)
from gaussqi.target import TargetConfig, make_pair
from gaussqi.transmitters import TransmitterSpec, coherent, smsv, thermal_state, tmss, vacuum


def _full(matrix, n_modes=1):
    """A FockOperator of one block holding the whole matrix."""
    n = len(matrix)
    return FockOperator([(np.arange(n)[None], np.asarray(matrix)[None])], n_modes, n)


def _diagonal_op(p, n_modes=1):
    """A FockOperator of 1x1 blocks on the diagonal p."""
    p = np.asarray(p, float)
    return FockOperator([(np.arange(p.size)[:, None], p[:, None, None])], n_modes, p.size)


def _geometric(n_mean, d):
    return n_mean ** np.arange(d) / (n_mean + 1.0) ** (np.arange(d) + 1)


def test_thermal_build():
    op = thermal_fock(0.5, 60)
    assert op.trace_deficit < 1e-12
    assert mean_photon_number(op, 0) == pytest.approx(0.5, abs=1e-10)


def test_coherent_build():
    op = build_state(coherent(0.3), 30)
    assert mean_photon_number(op, 0) == pytest.approx(0.3, abs=1e-12)
    assert op.trace_deficit < 1e-12


def test_smsv_build_even_support():
    op = build_state(smsv(0.4), 40)
    diag = np.real(np.diag(op.matrix))
    assert np.all(diag[1::2] < 1e-30)
    assert mean_photon_number(op, 0) == pytest.approx(0.4, abs=1e-9)


def test_tmss_build():
    op = build_state(tmss(0.2), 25)
    assert mean_photon_number(op, 0) == pytest.approx(0.2, abs=1e-10)
    assert mean_photon_number(op, 1) == pytest.approx(0.2, abs=1e-10)


def test_build_rejects_small_cutoff():
    with pytest.raises(ValueError):
        build_state(coherent(5.0), 4, budget=1e-10)
    for build in (lambda d: build_state(vacuum(), d), lambda d: thermal_fock(1.0, d)):
        with pytest.raises(ValueError, match="cutoff must be at least 2, got 1"):
            build(1)


def test_oracle_argument_errors():
    probe, background = build_state(coherent(0.5), 12), thermal_fock(1.0, 12)
    with pytest.raises(ValueError, match="invalid mode 1 for 1 modes"):
        mean_photon_number(probe, 1)
    with pytest.raises(ValueError, match="operators must share dimensions"):
        q_s_fock(background, thermal_fock(1.0, 13), 0.5)
    with pytest.raises(ValueError, match=r"s must lie in \(0, 1\), got 1.0"):
        q_s_fock(background, probe, 1.0)


def _dense_beamsplitter(theta, d):
    """The d^2 x d^2 unitary assembled from the cached blocks, P exp(-i theta mu) P^dag
    each, in complex arithmetic from P = diag(i^k) Q."""
    u = np.zeros((d * d, d * d))
    for q, mu, index in fock_oracle._beamsplitter_modes(d):
        p = 1j ** np.arange(q.shape[-1])[:, None] * q
        block = (p * np.exp(-1j * theta * mu)[:, None, :]) @ p.conj().transpose(0, 2, 1)
        u[index[:, :, None], index[:, None, :]] = block.real
    return u


def test_beamsplitter_unitary_exact_on_truncation():
    u = _dense_beamsplitter(np.arccos(np.sqrt(0.3)), 12)
    assert np.linalg.norm(u.T @ u - np.eye(144)) < 1e-9
    # the blocks partition the joint space
    index = np.concatenate([i.ravel() for _, _, i in fock_oracle._beamsplitter_modes(12)])
    assert np.array_equal(np.sort(index), np.arange(144))


def _counting_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(fock_oracle.np.linalg, "eigh", counting_eigh)
    return calls


@pytest.mark.parametrize("d", [5, 24])
def test_beamsplitter_matches_expm_with_cached_modes(d, monkeypatch):
    from scipy.linalg import expm

    lower = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    a = np.kron(lower, np.eye(d))
    b = np.kron(np.eye(d), lower)
    generator = a @ b.T - a.T @ b
    fock_oracle._beamsplitter_modes.cache_clear()
    calls = _counting_eigh(monkeypatch)
    for theta in (0.1, np.arccos(np.sqrt(0.3)), 1.4):
        u = _dense_beamsplitter(theta, d)
        assert np.abs(u - expm(-theta * generator)).max() < 1e-12
        # one eigh per block size 1..d on first use; the modes depend on
        # the cutoff only, so a new theta runs none
        assert len(calls) == d


@pytest.mark.parametrize("d", [5, 12])
def test_beamsplitter_kernel_matches_expm(d):
    # _beamsplitter's real blocks and sign table against scipy's expm, formed
    # on all inputs n, on the even ones (smsv), on n = 0 (vacuum) and on a
    # non-contiguous set
    from scipy.linalg import expm

    lower = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    a, b = np.kron(lower, np.eye(d)), np.kron(np.eye(d), lower)
    theta = np.arccos(np.sqrt(0.3))
    u = expm(-theta * (a @ b.T - a.T @ b)).reshape(d, d, d, d)  # (n + t, m - t, n, m)
    n, t, m = np.meshgrid(np.arange(d), np.arange(1 - d, d), np.arange(d), indexing="ij")
    inside = (n + t >= 0) & (n + t < d) & (m - t >= 0) & (m - t < d)
    dense = np.where(inside, u[np.clip(n + t, 0, d - 1), np.clip(m - t, 0, d - 1), n, m], 0.0)
    # every third n leaves blocks with fewer inputs than the widest: padded
    for inputs in (np.arange(d), np.arange(0, d, 2), np.array([0]), np.arange(1, d, 3)):
        shift = fock_oracle._beamsplitter(theta, fock_oracle._beamsplitter_plan(d, inputs))
        assert shift.shape == (inputs.size, 2 * d - 1, d)
        assert np.abs(shift - dense[inputs]).max() < 1e-12


def test_target_plan_is_keyed_on_the_support():
    # probes of different supports at one cutoff, a repeated one, then a
    # mixed many-eigenvector input: each one's rho1 is the dense dilation's,
    # and the same bits as when built with no plan cached
    d, cfg = 16, TargetConfig(kappa=0.3, n_b=0.5)
    probes = [build_state(coherent(0.5), d, budget=1.0), build_state(smsv(0.5), d, budget=1.0)]
    for probe in probes + probes[:1] + [thermal_fock(0.4, d)]:
        rho1 = apply_target_fock(probe, cfg)
        assert np.abs(rho1.matrix - _dense_dilation(probe, cfg)).max() < 1e-14
        fock_oracle._target_plan.cache_clear()
        assert np.array_equal(rho1.matrix, apply_target_fock(probe, cfg).matrix)


def test_pair_past_twice_the_ceiling_raises_before_any_eigh(monkeypatch):
    # choose_cutoff builds pairs up to 2 * MAX_CUTOFF; a direct call past
    # that is refused before the beamsplitter's modes are solved
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran past the ceiling")

    monkeypatch.setattr(fock_oracle.np.linalg, "eigh", no_eigh)
    d = 2 * fock_oracle.MAX_CUTOFF + 1
    with pytest.raises(ValueError, match=r"exceeds 2 \* MAX_CUTOFF"):
        hypothesis_pair_fock(coherent(0.5), TargetConfig(kappa=0.3, n_b=0.5), d)


def _dense_dilation(state, cfg):
    """rho1 from the dense beamsplitter: the sum over the state's eigenpairs
    (lam, psi) and m of p_m sum_e <e|U|m> lam psi psi^T <m|U^T|e>."""
    d = state.cutoff
    evals, evecs = state.spectrum
    u = _dense_beamsplitter(np.arccos(np.sqrt(cfg.kappa)), d).reshape(d, d, d, d)  # (a, e, n, m)
    nbar, m = cfg.effective_n_b, np.arange(d)
    p = nbar**m / (nbar + 1.0) ** (m + 1)
    out = 0.0
    for lam, vec in zip(evals, evecs.T):
        psi = (vec * np.sqrt(lam)).reshape(d, -1)  # (n, rest)
        for k in m:
            phi = np.einsum("aen,nr->are", u[:, :, :, k], psi).reshape(-1, d)  # rows (a, rest)
            out = out + p[k] * (phi @ phi.T)
    return out


@pytest.mark.parametrize("d", [5, 12, 24])
def test_block_built_rho1_matches_dense_dilation(d):
    for kind in ("vacuum", "coherent", "smsv", "tmss"):
        spec = TransmitterSpec(kind, 0.0 if kind == "vacuum" else 0.4)
        for model in ("agnostic", "legacy"):
            cfg = TargetConfig(kappa=0.2, n_b=0.3, model=model)
            probe = build_state(spec, d, budget=1.0)
            rho1 = apply_target_fock(probe, cfg)
            assert np.abs(rho1.matrix - _dense_dilation(probe, cfg)).max() <= 1e-15
    # the tmss rho1 is built as one block per photon-number difference
    sizes = sorted(idx.shape[1] for idx, _ in rho1.blocks for _ in idx)
    assert sizes == sorted(d - abs(delta) for delta in range(1 - d, d))


def test_vacuum_through_empty_channel():
    st = build_state(vacuum(), 10)
    out = apply_target_fock(st, TargetConfig(kappa=0.4, n_b=0.0))
    assert abs(out.matrix[0, 0] - 1.0) < 1e-12
    assert out.trace_deficit < 1e-12


def test_photon_bookkeeping_through_channel():
    st = build_state(coherent(0.3), 20)
    out = apply_target_fock(st, TargetConfig(kappa=0.2, n_b=0.4))
    assert mean_photon_number(out, 0) == pytest.approx(0.2 * 0.3 + 0.8 * 0.4, abs=1e-6)


def test_smsv_quadratures_through_channel():
    n_s, kappa, n_b, d = 0.3, 0.2, 0.4, 40
    st = build_state(smsv(n_s), d)
    out = apply_target_fock(st, TargetConfig(kappa=kappa, n_b=n_b))
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    q = (a + a.T) / np.sqrt(2)
    p = (a - a.T) / (1j * np.sqrt(2))
    r = np.arcsinh(np.sqrt(n_s))
    vq = np.trace(out.matrix @ (q @ q)).real
    vp = np.trace(out.matrix @ (p @ p)).real
    assert vq == pytest.approx((kappa * np.exp(-2 * r) + (1 - kappa) * (2 * n_b + 1)) / 2, abs=1e-6)
    assert vp == pytest.approx((kappa * np.exp(2 * r) + (1 - kappa) * (2 * n_b + 1)) / 2, abs=1e-6)


def test_legacy_channel_is_agnostic_channel_at_rescaled_background():
    kappa, n_b, n_s = 0.2, 0.4, 0.3
    st = build_state(smsv(n_s), 40)
    legacy = apply_target_fock(st, TargetConfig(kappa=kappa, n_b=n_b, model="legacy"))
    rescaled = apply_target_fock(st, TargetConfig(kappa=kappa, n_b=n_b / (1 - kappa)))
    assert np.array_equal(legacy.matrix, rescaled.matrix)
    # the reflected noise (1 - kappa) n_b / (1 - kappa) is n_b itself
    assert mean_photon_number(legacy, 0) == pytest.approx(kappa * n_s + n_b, abs=1e-6)


def test_q_s_fock_self_overlap_is_trace():
    op = thermal_fock(0.5, 40)
    assert q_s_fock(op, op, 0.4) == pytest.approx(1.0 - op.trace_deficit, abs=1e-10)
    # continuity spot-check towards s = 1
    sig = thermal_fock(0.8, 40)
    assert q_s_fock(op, sig, 0.999) == pytest.approx(1.0 - op.trace_deficit, abs=2e-3)


def test_q_s_fock_matches_gaussian_thermal():
    a = q_s_fock(thermal_fock(0.3, 100), thermal_fock(0.6, 100), 0.5)
    b = q_s_general(thermal_state(0.3), thermal_state(0.6), 0.5)
    assert abs(a - b) < 1e-8


def test_q_s_alt_oracle_anchor():
    from gaussqi.reference import q_s_alt

    a = q_s_fock(thermal_fock(1.0, 120), thermal_fock(2.0, 120), 0.5)
    b = q_s_general(thermal_state(1.0), thermal_state(2.0), 0.5)
    c = q_s_alt(thermal_state(1.0), thermal_state(2.0), 0.5)
    assert abs(a - b) < 1e-8
    assert abs(a - c) < 1e-8


def test_fidelity_fock_anchors():
    op = thermal_fock(0.4, 60)
    assert fidelity_fock(op, op) == pytest.approx(1.0, abs=1e-9)
    a = fidelity_fock(thermal_fock(0.2, 80), thermal_fock(0.5, 80))
    b = fidelity(thermal_state(0.2), thermal_state(0.5))
    assert abs(a - b) < 1e-8
    # orthogonal number states
    f = fidelity_fock(_diagonal_op(np.eye(10)[0]), _diagonal_op(np.eye(10)[1]))
    assert abs(f) < 1e-12


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
@pytest.mark.parametrize("d", [12, 24])
def test_tmss_rho0_is_background_times_thermal_memory(d, model):
    # rho0 = thermal(N_B) (x) the probe's memory, thermal(N_S); the bare
    # background in both models
    n_s, n_b = 0.3, 0.5
    rho0, _ = hypothesis_pair_fock(tmss(n_s), TargetConfig(kappa=0.2, n_b=n_b, model=model), d)
    assert rho0.n_modes == 2 and rho0.dim == d * d
    assert all(idx.shape[1] == 1 for idx, _ in rho0.blocks)
    dense = rho0.matrix
    assert np.array_equal(dense, np.diag(np.diag(dense)))
    expected = np.kron(_geometric(n_b, d), _geometric(n_s, d))
    assert np.abs(np.diag(dense) - expected).max() < 1e-12


def test_oracle_agreement_sample():
    # one point per transmitter kind; the dense grid runs in the acceptance suite
    cfg = TargetConfig(kappa=0.2, n_b=0.3)
    for kind, n_s, d in [("vacuum", 0.0, 20), ("coherent", 0.4, 24), ("smsv", 0.4, 36), ("tmss", 0.4, 22)]:
        spec = TransmitterSpec(kind, n_s)
        rho0, rho1 = hypothesis_pair_fock(spec, cfg, d)
        pair = make_pair(spec, cfg)
        for s in (0.3, 0.7):
            assert abs(q_s_fock(rho0, rho1, s) - q_s_general(pair.rho0, pair.rho1, s)) < 1e-6


def test_oracle_zero_background_pure_overlap():
    # at N_B = 0 both hypotheses are pure and the overlap is e^{-kappa N_S}
    kappa, n_s = 0.2, 0.3
    rho0, rho1 = hypothesis_pair_fock(coherent(n_s), TargetConfig(kappa=kappa, n_b=0.0), 24)
    for s in (0.3, 0.5, 0.7):
        assert abs(q_s_fock(rho0, rho1, s) - np.exp(-kappa * n_s)) < 1e-8


def test_legacy_pair_agreement():
    cfg = TargetConfig(kappa=0.25, n_b=0.4, model="legacy")
    rho0, rho1 = hypothesis_pair_fock(smsv(0.4), cfg, 40)
    pair = make_pair(smsv(0.4), cfg)
    assert abs(q_s_fock(rho0, rho1, 0.5) - q_s_general(pair.rho0, pair.rho1, 0.5)) < 1e-9


def test_choose_cutoff():
    d = choose_cutoff(vacuum(), TargetConfig(kappa=0.2, n_b=0.0), tol=1e-10)
    assert d == 2
    d = choose_cutoff(coherent(0.3), TargetConfig(kappa=0.2, n_b=0.3), tol=1e-8)
    assert 2 < d <= 128
    with pytest.raises(ValueError):
        choose_cutoff(tmss(0.5), TargetConfig(kappa=0.2, n_b=20.0), tol=1e-10)
    # criterion 1's anchor: its grid runs at exactly these cutoffs
    anchor = TargetConfig(kappa=0.3, n_b=0.5)
    for spec, expected in ((vacuum(), 18), (coherent(0.5), 23), (smsv(0.5), 37), (tmss(0.5), 23)):
        assert choose_cutoff(spec, anchor, tol=1e-8) == expected


def test_choose_cutoff_tries_the_documented_ceiling_last(monkeypatch):
    # No tested point verifies a cutoff near the ceiling, and building one
    # would take hundreds of MB; a pair builder that always fails walks the
    # whole growth sequence for free.  The ceiling is read from the docstring
    # it documents, so a changed MAX_CUTOFF fails here until both agree.
    tried = []

    def refuse(spec, cfg, d, budget):
        tried.append(d)
        raise ValueError("no pair at this cutoff")

    monkeypatch.setattr(fock_oracle, "hypothesis_pair_fock", refuse)
    with pytest.raises(ValueError, match=r"exceeds the ceiling \d+ per mode") as err:
        choose_cutoff(coherent(0.5), TargetConfig(kappa=0.3, n_b=0.5), tol=1e-8)
    ceiling = tried[-1]
    assert f"MAX_CUTOFF = {ceiling} per mode" in choose_cutoff.__doc__
    assert f"ceiling {ceiling} per mode" in str(err.value)
    assert tried == sorted(set(tried))  # the search grew at every step


def test_fock_operator_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        _full(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="cutoff"):
        _full(np.eye(3), 2)  # 3 is no cutoff**2
    # the tolerance is 1e-12 of the largest entry: an asymmetry of 0.8e-12
    # of it is symmetrised away, one of 3e-12 is refused
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(_full(100.0 * np.eye(2) + 40e-12 * skew).matrix, 100.0 * np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        _full(100.0 * np.eye(2) + 150e-12 * skew)
    # cutoff and trace deficit are read off the dimension and the blocks
    op = _full(np.eye(9) / 12, 2)
    assert op.cutoff == 3 and op.trace_deficit == pytest.approx(0.25, abs=1e-15)
    # 125 ** (1 / 3) evaluates to 4.999... in float64
    assert _diagonal_op(np.ones(125), 3).cutoff == 5
    # integer blocks are stored as float64; a complex block is refused, even
    # one with a zero imaginary part, and so is a complex block beside real ones
    assert _full(np.eye(2, dtype=int)).matrix.dtype == np.float64
    assert _full(np.eye(2)).matrix.dtype == np.float64
    for blocks in ([(np.arange(2)[None], np.eye(2, dtype=complex)[None])],
                   [(np.array([[0]]), np.ones((1, 1, 1))),
                    (np.array([[1, 2]]), (np.eye(2) + 1e-3j * np.array([[0, 1], [-1, 0]]))[None])]):
        with pytest.raises(ValueError, match="must be real"):
            FockOperator(blocks, 1, 3)


def test_validation_runs_block_by_block():
    # blocks of sizes 3, 2 and 1 on interleaved indices of a 6-dimensional
    # space, one stack per size; the faults below sit in the last stack
    q = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) ** 2)[0]
    small = np.array([[[0.2, 0.1], [0.1, 0.3]]])

    def blocks(big):
        return [
            (np.array([[5]]), np.array([[[0.05]]])),
            (np.array([[1, 3]]), small),
            (np.array([[0, 2, 4]]), big[None]),
        ]

    good = (q * [0.3, 0.2, 0.1]) @ q.T
    op = FockOperator(blocks(good), 1, 6)
    assert op.trace_deficit == pytest.approx(1.0 - 1.15, abs=1e-14)
    # a non-Hermitian entry inside the 3x3 block, given as the blocks or as
    # one full block
    bad = good.copy()
    bad[0, 2] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        FockOperator(blocks(bad), 1, 6)
    dense = op.matrix
    dense[0, 4] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        _full(dense)
    # an eigenvalue below -NEGATIVITY_TOL in the 3x3 block only
    negative = FockOperator(blocks((q * [0.3, 0.2, -1e-9]) @ q.T), 1, 6)
    with pytest.raises(ValueError, match="below"):
        negative.spectrum
    with pytest.raises(ValueError, match="below"):
        _full(negative.matrix).spectrum
    # within the tolerance it is an exact zero of the support
    evals, _ = FockOperator(blocks((q * [0.3, 0.2, -1e-11]) @ q.T), 1, 6).spectrum
    expected = np.sort(np.r_[0.05, np.linalg.eigvalsh(small[0]), 0.2, 0.3])
    np.testing.assert_allclose(np.sort(evals), expected, rtol=1e-13)


def test_tmss_pair_peaks_below_one_dense_matrix():
    import tracemalloc

    cfg = TargetConfig(kappa=0.2, n_b=0.3)
    tracemalloc.start()
    try:
        rho0, rho1 = hypothesis_pair_fock(tmss(0.4), cfg, 24)
        for s in (0.3, 0.5, 0.7):
            q_s_fock(rho0, rho1, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 576 x 576 float64 matrix is 2.65 MB
    assert peak < 576 * 576 * 8


def _array_bytes(tree, seen):
    """Bytes of the distinct buffers of the arrays in nested tuples and lists, all real."""
    if isinstance(tree, np.ndarray):
        base = tree if tree.base is None else tree.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        assert not np.iscomplexobj(base)
        return base.nbytes
    return sum(_array_bytes(item, seen) for item in tree) if isinstance(tree, (tuple, list)) else 0


def test_beamsplitter_plans_are_real_and_small():
    # 13.6 bytes per block entry: the real Q (8), the int32 slots (4) and the
    # parity tables (about 0.5), plus O(d^2) of mu, indices, sign tables and
    # the merge layout; complex P and P^dag took 40
    d = 74
    entries = sum(q.size for q, _, _ in fock_oracle._beamsplitter_modes(d))
    seen = set()
    # the plan of a probe on every input n, as apply_target_fock keys it
    support = ((d, np.arange(d, dtype=np.intp).tobytes()),)
    total = sum(_array_bytes(cached, seen)
                for cached in (fock_oracle._beamsplitter_modes(d),
                               fock_oracle._target_plan(d, d, support)))
    assert total < 16 * entries


def test_smsv_pair_peak_in_arrays_of_the_cutoff():
    import tracemalloc

    d, cfg = 64, TargetConfig(kappa=0.3, n_b=0.5)
    hypothesis_pair_fock(smsv(0.5), cfg, 8, budget=1.0)  # numpy's first-use allocations
    fock_oracle._beamsplitter_modes.cache_clear()
    fock_oracle._target_plan.cache_clear()
    tracemalloc.start()
    try:
        hypothesis_pair_fock(smsv(0.5), cfg, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 1.36 arrays of (2d - 1) d^2 float64, plans included: K on the
    # even inputs only, scaled in place, and its Gram matrices; with complex
    # plans, all of K and a copy of it the peak was 4.0
    assert peak < 1.7 * (2 * d - 1) * d * d * 8


def _components(op):
    """Connected-component label of each index of the operator's non-zero pattern."""
    return connected_components(op.matrix != 0, directed=False)[1]


def _block_sizes(op):
    return np.unique(np.bincount(_components(op)))


def test_spectrum_computed_once(monkeypatch):
    rho0, rho1 = hypothesis_pair_fock(tmss(0.3), TargetConfig(kappa=0.2, n_b=0.3), 12)
    calls = _counting_eigh(monkeypatch)
    q_s_fock(rho0, rho1, 0.3)
    terms = rho1.__dict__["_terms"]
    for s in (0.5, 0.7):
        q_s_fock(rho0, rho1, s)
    # rho1's flat terms are built once; rho0 is read through its diagonal
    assert rho1.__dict__["_terms"] is terms and "_terms" not in rho0.__dict__
    # rho0 is diagonal; rho1 has one block per photon-number difference
    assert _block_sizes(rho0).tolist() == [1]
    assert np.unique(_components(rho1)).size == 2 * 12 - 1
    assert all(shape[-1] < 144 for shape in calls)
    assert rho0.matrix.dtype == rho1.matrix.dtype == np.float64
    probe = build_state(tmss(0.3), 12)
    for arr in (*rho0.spectrum, *rho1.spectrum, *probe.spectrum, *terms):
        with pytest.raises(ValueError):
            arr[0] = 0
    # the pure probe is never diagonalised
    evals, evecs = probe.spectrum
    assert evals.shape == (1,) and evecs.shape == (144, 1)
    assert 0 < len(calls) <= _block_sizes(rho0).size + _block_sizes(rho1).size


def _assert_matches_dense(op):
    evals, evecs = op.spectrum
    dense_w, dense_v = np.linalg.eigh(op.matrix)
    top = dense_w.max()
    kept = dense_w > top * 1e-14
    np.testing.assert_allclose(np.sort(evals), dense_w[kept], rtol=0, atol=1e-13 * top)
    kept_part = (dense_v[:, kept] * dense_w[kept]) @ dense_v[:, kept].conj().T
    assert np.abs((evecs * evals) @ evecs.conj().T - kept_part).max() < 1e-13 * top
    assert np.abs(evecs.conj().T @ evecs - np.eye(evals.size)).max() < 1e-13


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_spectrum_matches_dense_on_permuted_blocks(sizes, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sum(sizes))
    blocks, start = [], 0
    for k in sizes:
        # rank-deficient PSD block on its own scale, on k permuted indices
        a = rng.normal(size=(k, rng.integers(1, k + 1)))
        block = 10.0 ** rng.uniform(-6, 0) * (a @ a.T)
        blocks.append((perm[start : start + k][None], block[None]))
        start += k
    op = FockOperator(blocks, 1, perm.size)
    assert np.bincount(_components(op)).max() <= max(sizes)
    _assert_matches_dense(op)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("vacuum", "coherent", "smsv", "tmss")),
    n_s=st.floats(0.05, 0.5),
    n_b=st.floats(0.0, 0.5),
    kappa=st.floats(0.05, 0.5),
)
def test_block_spectrum_matches_dense_on_hypothesis_pairs(kind, n_s, n_b, kappa):
    spec = TransmitterSpec(kind, 0.0 if kind == "vacuum" else n_s)
    # a loose budget keeps the truncation small; the operators stay PSD
    for op in hypothesis_pair_fock(spec, TargetConfig(kappa=kappa, n_b=n_b), 10, budget=1.0):
        _assert_matches_dense(op)


def test_block_spectrum_checks_are_global():
    # a dense 3x3 block with eigenvalues 1, 1/2, 1/4, then smaller blocks
    q = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) ** 2)[0]
    big = (q * [1.0, 0.5, 0.25]) @ q.T
    # a 1x1 block far below the global maximum is dropped, even though it
    # is the largest eigenvalue of its own block and of its block size
    tiny = np.zeros((4, 4))
    tiny[:3, :3] = big
    tiny[3, 3] = 1e-16
    evals, _ = _full(tiny).spectrum
    np.testing.assert_allclose(np.sort(evals), [0.25, 0.5, 1.0], rtol=1e-14)
    # a negative eigenvalue inside a smaller block is still caught
    bad = np.zeros((5, 5))
    bad[:3, :3] = big
    bad[3:, 3:] = [[0.0, 1e-9], [1e-9, 0.0]]
    assert -1e-9 < -NEGATIVITY_TOL
    with pytest.raises(ValueError, match="below"):
        _full(bad).spectrum


def _dense_power(op, t):
    """op^t from a dense eigh, eigenvalues below 1e-14 of the largest taken as 0."""
    w, v = np.linalg.eigh(op.matrix)
    w = np.where(w > w.max() * 1e-14, w, 0.0)
    return (v * w**t) @ v.conj().T


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
@pytest.mark.parametrize(
    "spec,cutoff", [(vacuum(), 20), (coherent(0.4), 20), (smsv(0.4), 30), (tmss(0.4), 16)]
)
def test_overlaps_match_dense_reference(spec, cutoff, model):
    # q_s_fock and fidelity_fock read rho0's diagonal and rho1's blocks; the
    # reference takes both operators dense, as they are.
    rho0, rho1 = hypothesis_pair_fock(
        spec, TargetConfig(kappa=0.2, n_b=0.3, model=model), cutoff
    )
    for s in (0.1, 0.5, 0.9):
        dense = np.trace(_dense_power(rho0, s) @ _dense_power(rho1, 1.0 - s)).real
        assert q_s_fock(rho0, rho1, s) == pytest.approx(dense, rel=1e-10)
    roots = _dense_power(rho0, 0.5) @ _dense_power(rho1, 0.5)
    dense = np.linalg.svd(roots, compute_uv=False).sum()
    assert fidelity_fock(rho0, rho1) == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("spec", [coherent(0.4), tmss(0.4)])
def test_overlaps_reject_a_first_operator_with_a_block(spec):
    rho0, rho1 = hypothesis_pair_fock(spec, TargetConfig(kappa=0.2, n_b=0.3), 12)
    with pytest.raises(ValueError, match="diagonal"):
        q_s_fock(rho1, rho0, 0.5)
    with pytest.raises(ValueError, match="diagonal"):
        fidelity_fock(rho1, rho0)
