"""Brute-force ground truth in a truncated number basis.

States are assembled from their exact amplitudes, the target is applied as
the exponential of the truncated beamsplitter generator, and overlaps
tr rho^s sigma^{1-s} come from Hermitian eigendecompositions.  Nothing here
touches the Gaussian covariance machinery; agreement between the two
routes is the package's core acceptance check.

Every amplitude, thermal weight and beamsplitter block built here is real,
so the operators are real symmetric float64 matrices and LAPACK runs its
real symmetric solver; a matrix given as complex is kept complex.  Each
operator diagonalises itself at most once: FockOperator.spectrum, its
clamped spectrum on the support, is cached, read-only, and shared by every
overlap, fidelity and channel that uses the operator.  The spectrum is
taken block by block over the connected components of the matrix's
non-zero pattern, an exact permutation similarity: rho0 is diagonal, and
the tmss rho1 splits into one block per photon-number difference.  A pure
probe from build_state carries its rank-1 spectrum from its amplitudes and
is never diagonalised.

The beamsplitter generator is theta times a theta-independent matrix in
each total-photon-number block; the eigenmodes of those blocks are cached
per cutoff, so a new theta costs one batched product per block size, and
the unitary is applied block by block, never assembled.  The
s-independent overlap V0^dag V1 of a pair is computed once, kept on the
first operator for as long as the second one lives, and shared by q_s_fock
and fidelity_fock.

Multi-mode operators use row-major mode ordering: the transmitted mode is
the slowest index, matching numpy.kron(A_mode0, A_mode1).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .target import TargetConfig
from .transmitters import TransmitterSpec, _check_nonnegative

HERMITICITY_TOL = 1e-12
NEGATIVITY_TOL = 1e-10
DEFAULT_TRACE_BUDGET = 1e-6

# Desk-scale ceilings: eigendecompositions cap the per-mode dimension,
# much lower for the three-mode dilation of the entangled probe.
MAX_CUTOFF_SINGLE = 128
MAX_CUTOFF_THREE_MODE = 24
_MAX_JOINT_DIM = 70000


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Hermitian operator on a truncated n-mode Fock space.

    The matrix is stored read-only, as float64 when the input is real and
    as complex128 when it is complex.  Its dimension must be cutoff**n_modes.
    `spectrum` is computed on first use and cached.
    """

    matrix: np.ndarray
    n_modes: int

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m = m.astype(complex if np.iscomplexobj(m) else float)
        root = round(m.shape[0] ** (1.0 / self.n_modes)) if m.ndim == 2 else 0
        if m.ndim != 2 or m.shape != (root**self.n_modes,) * 2:
            raise ValueError(
                f"matrix shape {m.shape} is not cutoff**n_modes square for n_modes = {self.n_modes}"
            )
        scale = max(1.0, np.abs(m).max())
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def cutoff(self) -> int:
        """Per-mode dimension: the n_modes-th root of the matrix dimension."""
        return round(self.matrix.shape[0] ** (1.0 / self.n_modes))

    @property
    def trace_deficit(self) -> float:
        """1 - tr: for a density operator, what the cutoff discarded."""
        return float(1.0 - np.trace(self.matrix).real)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (eigenvalues, eigenvectors) on the support, computed once.

        Truncation and rounding produce eigenvalues of size ~1e-16 around
        the exact zeros of pure states; fractional powers would amplify that
        noise (1e-16^0.3 ~ 1e-5), so anything below the eigensolver's
        resolution, relative to the largest eigenvalue of the whole
        operator, is an exact zero and is dropped with its eigenvector.

        Raises:
            ValueError: an eigenvalue lies below -NEGATIVITY_TOL.
        """
        blocks = _block_eigh(self.matrix)
        lowest = min(w.min() for _, w, _ in blocks)
        if lowest < -NEGATIVITY_TOL:
            raise ValueError(
                f"operator has eigenvalue {lowest:.3e} below -{NEGATIVITY_TOL}"
            )
        cut = max(max(w.max() for _, w, _ in blocks), 0.0) * 1e-14
        kept = [np.nonzero(w > cut) for _, w, _ in blocks]
        evals = np.concatenate([w[k] for (_, w, _), k in zip(blocks, kept)])
        evecs = np.zeros((self.matrix.shape[0], evals.size), dtype=self.matrix.dtype)
        col = 0
        for (idx, _, v), (b, j) in zip(blocks, kept):
            # column col + i holds eigenvector j[i] of block b[i] on its rows
            cols = col + np.arange(b.size)
            evecs[idx[b], cols[:, None]] = v[b, :, j]
            col += b.size
        return _read_only(evals, evecs)

    @cached_property
    def _overlaps(self) -> weakref.WeakKeyDictionary:
        # V0^dag V1 against each partner operator, dropped with the partner
        return weakref.WeakKeyDictionary()


def _components(nonzero: np.ndarray) -> np.ndarray:
    """Connected-component label of each index of a symmetric pattern.

    Min-label propagation along the non-zero entries with pointer jumping;
    each label is the smallest index of its component.
    """
    rows, cols = np.nonzero(nonzero)
    label = np.arange(nonzero.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _block_eigh(m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigendecomposition of Hermitian m over its connected blocks.

    Returns (idx, w, v) per distinct block size: idx[b] are the indices of
    block b, and w[b], v[b] its eigenpairs from one batched eigh per size.
    Only exact zeros separate blocks, so this is m's spectrum up to the
    rounding of each block's own solve.
    """
    label = _components(m != 0)
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(starts, append=label.size)
    blocks = []
    for size in np.unique(sizes):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        w, v = np.linalg.eigh(m[idx[:, :, None], idx[:, None, :]])
        blocks.append((idx, w, v))
    return blocks


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _geometric_weights(n_mean: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    if n_mean == 0.0:
        w = np.zeros(cutoff)
        w[0] = 1.0
        return w
    ratio = n_mean / (n_mean + 1.0)
    return ratio**n / (n_mean + 1.0)


def thermal_fock(n_b: float, cutoff: int) -> FockOperator:
    """Truncated thermal state: geometric diagonal in the number basis."""
    _check_nonnegative("n_b", n_b)
    if cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    return FockOperator(np.diag(_geometric_weights(n_b, cutoff)), 1)


def _coherent_amplitudes(alpha: float, cutoff: int) -> np.ndarray:
    c = np.empty(cutoff)
    c[0] = np.exp(-0.5 * alpha**2)
    for n in range(1, cutoff):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return c


def _smsv_amplitudes(r: float, cutoff: int) -> np.ndarray:
    # S(r) = exp[(r/2)(a^2 - a^dag^2)] acting on vacuum squeezes q; the
    # even-photon amplitudes follow the standard (-tanh r)^k recursion.
    c = np.zeros(cutoff)
    c[0] = 1.0 / np.sqrt(np.cosh(r))
    t = np.tanh(r)
    for k in range(1, (cutoff + 1) // 2):
        c[2 * k] = c[2 * k - 2] * (-t) * np.sqrt((2 * k - 1) / (2 * k))
    return c


def build_state(
    spec: TransmitterSpec,
    cutoff: int,
    budget: float = DEFAULT_TRACE_BUDGET,
) -> FockOperator:
    """Probe density operator from exact truncated amplitudes.

    Amplitudes are not renormalized; the lost tail is reported through
    trace_deficit and rejected when it exceeds the budget.  The state is
    pure, so its spectrum is recorded from the amplitude vector: the single
    eigenvalue vec @ vec with eigenvector vec / |vec|.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    if spec.kind == "vacuum":
        vec = np.zeros(cutoff)
        vec[0] = 1.0
    elif spec.kind == "coherent":
        vec = _coherent_amplitudes(np.sqrt(spec.n_signal), cutoff)
    elif spec.kind == "smsv":
        vec = _smsv_amplitudes(np.arcsinh(np.sqrt(spec.n_signal)), cutoff)
    else:  # tmss
        n_s = spec.n_signal
        diag = np.sqrt(_geometric_weights(n_s, cutoff))
        vec = np.zeros(cutoff * cutoff)
        vec[np.arange(cutoff) * (cutoff + 1)] = diag
    norm2 = vec @ vec
    deficit = float(1.0 - norm2)
    if deficit > budget:
        raise ValueError(
            f"cutoff {cutoff} too small: trace deficit {deficit:.3e} exceeds budget {budget:.3e}"
        )
    state = FockOperator(np.outer(vec, vec), spec.n_modes)
    # Fill the cached_property slot so the spectrum is never recomputed.
    state.__dict__["spectrum"] = _read_only(
        np.array([norm2]), vec[:, None] / np.sqrt(norm2)
    )
    return state


@lru_cache(maxsize=4)
def _beamsplitter_modes(d: int):
    """theta-independent eigenmodes of the truncated beamsplitter generator.

    The generator a b^dag - a^dag b on two modes of dimension d conserves
    total photon number; its block for total n is a real antisymmetric
    tridiagonal A, with D^-1 A D = i J for D = diag(i^k) and J real
    symmetric tridiagonal, so exp(-theta A) = P exp(-i theta mu) P^dag with
    J = Q diag(mu) Q^T and P = D Q.  Returns (P, mu, index) for each
    distinct block size, from one batched eigh per size; index[b] holds the
    joint-space indices n_a d + n_b of block b, in ascending order.
    """
    if d * d > _MAX_JOINT_DIM:
        raise ValueError(
            f"joint beamsplitter dimension {d * d} exceeds the desk-scale cap {_MAX_JOINT_DIM}"
        )
    n_tot = np.arange(2 * d - 1)
    lo = np.maximum(0, n_tot - (d - 1))
    sizes = np.minimum(d - 1, n_tot) - lo + 1
    modes = []
    for size in np.unique(sizes):
        n = n_tot[sizes == size][:, None]
        n_a = lo[sizes == size][:, None] + np.arange(size)
        # a b^dag lowers n_a by one: amplitude sqrt(n_a (n_b + 1)).
        amp = np.sqrt(n_a[:, 1:] * (n - n_a[:, 1:] + 1.0))
        k = np.arange(size - 1)
        j = np.zeros((n.size, size, size))
        j[:, k, k + 1] = amp
        j[:, k + 1, k] = amp
        mu, q = np.linalg.eigh(j)
        modes.append((1j ** np.arange(size)[:, None] * q, mu, n_a * d + (n - n_a)))
    return modes


def apply_target_fock(state: FockOperator, cfg: TargetConfig) -> FockOperator:
    """Reflect the transmitted mode off the target in the number basis.

    Tensors a thermal environment of occupation cfg.effective_n_b, truncated
    at state.cutoff, applies the beamsplitter unitary with
    theta = arccos(sqrt(kappa)), and traces the environment back out.  The
    unitary acts on each total-photon-number block of the transmitted mode
    and the environment as one batched product on the rows of that block.
    """
    d = state.cutoff
    d_rest = d ** (state.n_modes - 1)
    theta = float(np.arccos(np.sqrt(cfg.kappa)))
    blocks = [
        (((p * np.exp(-1j * theta * mu)[:, None, :]) @ p.conj().transpose(0, 2, 1)).real, index)
        for p, mu, index in _beamsplitter_modes(d)
    ]

    # Environment columns sqrt(p_m)|m> for the occupied thermal levels.
    env = _geometric_weights(cfg.effective_n_b, d)
    live = np.flatnonzero(env)
    inject = np.eye(d)[:, live] * np.sqrt(env[live])

    evals, evecs = state.spectrum
    out = np.zeros((d * d_rest, d * d_rest), dtype=state.matrix.dtype)
    for lam, col in zip(evals, evecs.T):
        # Columns (probe eigvec) x sqrt(p_m)|m>_env, one per live m, with
        # the transmitted mode interleaved with the environment.
        w = np.kron(col.reshape(d, d_rest), inject)
        for u, index in blocks:
            w[index] = u @ w[index]
        w = w.reshape(d, d, d_rest, live.size)
        mat = np.transpose(w, (0, 2, 1, 3)).reshape(d * d_rest, d * live.size)
        out += lam * (mat @ mat.conj().T)
    return FockOperator(out, state.n_modes)


def partial_trace_fock(state: FockOperator, keep) -> FockOperator:
    """Reduced operator on a subset of modes (sorted index order)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= state.n_modes:
        raise ValueError(f"invalid keep set {keep} for {state.n_modes} modes")
    n, d = state.n_modes, state.cutoff
    shape = (d,) * n
    tens = state.matrix.reshape(shape + shape)
    traced = [k for k in range(n) if k not in keep]
    for k in sorted(traced, reverse=True):
        tens = np.trace(tens, axis1=k, axis2=k + tens.ndim // 2)
    dim = d ** len(keep)
    return FockOperator(tens.reshape(dim, dim), len(keep))


def hypothesis_pair_fock(
    spec: TransmitterSpec,
    cfg: TargetConfig,
    cutoff: int,
    budget: float = DEFAULT_TRACE_BUDGET,
) -> tuple[FockOperator, FockOperator]:
    """Truncated (rho0, rho1) for a transmitter/target configuration.

    The legacy model substitutes n_b/(1-kappa) into the reflection channel
    (see apply_target_fock) while the absent hypothesis keeps the bare
    background.
    """
    probe = build_state(spec, cutoff, budget=budget)
    rho1 = apply_target_fock(probe, cfg)
    background = thermal_fock(cfg.n_b, cutoff)
    if spec.n_modes == 1:
        rho0 = background
    else:
        memory = partial_trace_fock(probe, keep=range(1, spec.n_modes))
        rho0 = FockOperator(np.kron(background.matrix, memory.matrix), spec.n_modes)
    return rho0, rho1


def _cross(rho: FockOperator, sigma: FockOperator) -> np.ndarray:
    """V0^dag V1 from the cached spectra, computed once per operator pair."""
    if rho.matrix.shape != sigma.matrix.shape:
        raise ValueError("operators must share dimensions")
    cross = rho._overlaps.get(sigma)
    if cross is None:
        cross = rho.spectrum[1].conj().T @ sigma.spectrum[1]
        cross.setflags(write=False)
        rho._overlaps[sigma] = cross
    return cross


def q_s_fock(rho: FockOperator, sigma: FockOperator, s: float) -> float:
    """tr rho^s sigma^{1-s} from the cached spectra of both operators."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    overlap = np.abs(_cross(rho, sigma)) ** 2
    return float(rho.spectrum[0] ** s @ overlap @ sigma.spectrum[0] ** (1.0 - s))


def fidelity_fock(rho: FockOperator, sigma: FockOperator) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) on the truncation.

    Evaluated as the trace norm of sqrt(rho) sqrt(sigma), the sum of the
    singular values of sqrt(w0) V0^dag V1 sqrt(w1) from the cached spectra.
    Singular values carry rounding noise of order 1e-16, where square roots
    of the eigenvalues of sqrt(rho) sigma sqrt(rho) would carry ~1e-11.
    """
    cross = np.sqrt(rho.spectrum[0])[:, None] * _cross(rho, sigma) * np.sqrt(sigma.spectrum[0])
    return float(np.linalg.svd(cross, compute_uv=False).sum())


def mean_photon_number(op: FockOperator, mode: int) -> float:
    """Expectation of the number operator on one mode."""
    if not 0 <= mode < op.n_modes:
        raise ValueError(f"invalid mode {mode} for {op.n_modes} modes")
    d, n = op.cutoff, op.n_modes
    diag = np.real(np.diag(op.matrix)).reshape((d,) * n)
    counts = np.arange(d)
    axes = tuple(k for k in range(n) if k != mode)
    return float((diag.sum(axis=axes) if axes else diag) @ counts)


def _heuristic_start(spec: TransmitterSpec, cfg: TargetConfig, tol: float) -> int:
    d = 2
    for occupancy in (cfg.effective_n_b, spec.n_signal):
        if occupancy > 0.0:
            ratio = occupancy / (occupancy + 1.0)
            d = max(d, int(np.ceil(np.log(tol) / np.log(ratio))) + 1)
    return d


def choose_cutoff(spec: TransmitterSpec, cfg: TargetConfig, tol: float = 1e-8) -> int:
    """Smallest verified per-mode cutoff for oracle evaluations.

    Starts from the geometric-tail bound (occupancy/(occupancy+1))^D < tol,
    then grows D until doubling it changes q_s_fock at s = 1/2 by less than
    tol and every trace deficit stays below tol.

    Raises:
        ValueError: the verified cutoff would exceed the desk-scale ceiling
            (128 per mode, 24 per mode for the three-mode dilation); shrink
            the occupancies instead.
    """
    ceiling = MAX_CUTOFF_THREE_MODE if spec.n_modes == 2 else MAX_CUTOFF_SINGLE
    d = _heuristic_start(spec, cfg, tol)
    while True:
        if d > ceiling:
            raise ValueError(
                f"required cutoff exceeds the ceiling {ceiling} per mode for "
                f"{spec.n_modes + 1}-mode dilations; reduce n_b/n_signal or loosen tol"
            )
        ok = False
        try:
            rho0, rho1 = hypothesis_pair_fock(spec, cfg, d, budget=tol)
            rho0_big, rho1_big = hypothesis_pair_fock(spec, cfg, 2 * d, budget=tol)
        except ValueError:
            pass
        else:
            deficits = (
                rho0.trace_deficit,
                rho1.trace_deficit,
                rho0_big.trace_deficit,
                rho1_big.trace_deficit,
            )
            drift = abs(q_s_fock(rho0, rho1, 0.5) - q_s_fock(rho0_big, rho1_big, 0.5))
            ok = max(deficits) < tol and drift < tol
        if ok:
            return d
        grown = max(d + 1, int(np.ceil(1.25 * d)))
        # Try the ceiling itself before declaring the parameters out of reach.
        d = min(grown, ceiling) if d < ceiling else grown
