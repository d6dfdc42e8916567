"""Brute-force ground truth in a truncated number basis.

States are assembled from their exact amplitudes, the target is a
beamsplitter with a thermal environment followed by a partial trace, and
overlaps tr rho^s sigma^{1-s} come from Hermitian eigendecompositions.
Nothing here touches the Gaussian covariance machinery; agreement between
the two routes is the package's core acceptance check.

Operators stay in block form from construction to overlap: real symmetric
blocks on disjoint sets of basis indices, zero elsewhere, on one mode or
two, and FockOperator has one constructor, which takes the blocks.  The
thermal rho0 is a diagonal, and so is the tmss rho0: the background's
weights times the memory's reduced-state diagonal, read off the probe.  A
pure probe is one block on the support of its amplitude vector, and the
tmss rho1 has one block per photon-number difference.  Validation, spectra
and overlaps run block by block; `matrix` is a dense view assembled on
demand.

Every amplitude, thermal weight and beamsplitter entry built here is real,
so blocks are float64 and LAPACK runs its real symmetric solver; a complex
block is rejected.  The beamsplitter U is formed in real arithmetic and
only on the inputs the probe occupies, from a plan made once per cutoff and
probe support that also lays out the merge of rho1's blocks; a pair peaks
at 1.4 to 4.0 arrays of (2d - 1) d^2 float64 (see MAX_CUTOFF).  Each
operator is diagonalised at most once.  Every rho0 built here is diagonal
in the number basis, so q_s_fock and fidelity_fock read rho0's diagonal p
and rho1's own eigenpairs: tr rho0^s rho1^{1-s} = sum_i p_i^s
<i|rho1^{1-s}|i>, a weighted sum over rho1's flat terms, cached on rho1.

Multi-mode operators use row-major mode ordering: the transmitted mode is
the slowest index, matching numpy.kron(A_mode0, A_mode1).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .target import TargetConfig
from .transmitters import TransmitterSpec, _check_nonnegative

HERMITICITY_TOL = 1e-12
NEGATIVITY_TOL = 1e-10
DEFAULT_TRACE_BUDGET = 1e-6

# Desk-scale ceiling on the per-mode dimension, one for every probe.  A pair
# at cutoff d peaks (tracemalloc, cached plans included) at about 1.4 (smsv),
# 2.7 (coherent) and 3.7-4.0 (tmss) float64 arrays of (2d - 1) d^2 entries.
MAX_CUTOFF = 128


class FockOperator:
    """Real symmetric operator on a truncated n-mode Fock space, in block form.

    `blocks` is a sequence of (idx, mats) stacks: mats[b] is the real block
    on the basis indices idx[b], the blocks are disjoint, and the operator is
    zero outside them.  The dimension must be cutoff**n_modes, a complex
    block is rejected, every block is checked for Hermiticity to
    HERMITICITY_TOL times max(1, the largest entry of any block) and
    symmetrised, and blocks are stored read-only as float64.  The spectrum is computed block by block
    on first use and cached.
    """

    def __init__(self, blocks, n_modes: int, dim: int):
        if round(dim ** (1.0 / n_modes)) ** n_modes != dim:
            raise ValueError(f"dimension {dim} is not cutoff**n_modes for n_modes = {n_modes}")
        if any(np.iscomplexobj(m) for _, m in blocks):
            raise ValueError("FockOperator blocks must be real")
        blocks = [(idx, np.asarray(m, float)) for idx, m in blocks]
        scale = max([1.0] + [np.abs(m).max() for _, m in blocks])
        stored = []
        for idx, m in blocks:
            adjoint = m.swapaxes(1, 2)
            if np.abs(m - adjoint).max() > HERMITICITY_TOL * scale:
                raise ValueError("matrix is not Hermitian within tolerance")
            stored.append(_read_only(np.asarray(idx), 0.5 * (m + adjoint)))
        self.blocks = tuple(stored)
        self.n_modes, self.dim = n_modes, dim

    @property
    def cutoff(self) -> int:
        """Per-mode dimension: the n_modes-th root of the dimension."""
        return round(self.dim ** (1.0 / self.n_modes))

    @property
    def trace_deficit(self) -> float:
        """1 - tr: for a density operator, what the cutoff discarded."""
        return float(1.0 - sum(np.trace(m, axis1=1, axis2=2).sum() for _, m in self.blocks))

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix, assembled from the blocks on each access."""
        out = np.zeros((self.dim, self.dim))
        for idx, m in self.blocks:
            out[idx[:, :, None], idx[:, None, :]] = m
        return out

    @cached_property
    def _eigen(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per stack (idx, w, v): each block's eigenpairs, computed once.

        Truncation and rounding produce eigenvalues of size ~1e-16 around
        the exact zeros of pure states; fractional powers would amplify that
        noise (1e-16^0.3 ~ 1e-5), so anything below the eigensolver's
        resolution, relative to the largest eigenvalue of the whole
        operator, is an exact zero: w holds 0.0 there.

        Raises:
            ValueError: an eigenvalue lies below -NEGATIVITY_TOL.
        """
        solved = [(idx, *np.linalg.eigh(m)) for idx, m in self.blocks]
        lowest = min(w.min() for _, w, _ in solved)
        if lowest < -NEGATIVITY_TOL:
            raise ValueError(
                f"operator has eigenvalue {lowest:.3e} below -{NEGATIVITY_TOL}"
            )
        cut = max(max(w.max() for _, w, _ in solved), 0.0) * 1e-14
        return tuple(_read_only(idx, np.where(w > cut, w, 0.0), v) for idx, w, v in solved)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (eigenvalues, eigenvectors) on the support, as dense columns."""
        kept = [np.nonzero(w) for _, w, _ in self._eigen]
        evals = np.concatenate([w[k] for (_, w, _), k in zip(self._eigen, kept)])
        evecs = np.zeros((self.dim, evals.size))
        col = 0
        for (idx, _, v), (b, j) in zip(self._eigen, kept):
            # column col + i holds eigenvector j[i] of block b[i] on its rows
            cols = col + np.arange(b.size)
            evecs[idx[b], cols[:, None]] = v[b, :, j]
            col += b.size
        return _read_only(evals, evecs)

    @cached_property
    def _terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (i, w, c2): one entry per eigenpair (w, v) and index i
        of its block, with w > 0 and c2 = |v[i]|^2 > 0, computed once.

        <i|op^t|i> is the sum of w^t c2 over the entries of index i.
        """
        parts = []
        for idx, w, v in self._eigen:
            c2 = np.abs(v) ** 2  # c2[b, r, l] = |v_l[idx[b, r]]|^2
            i, w_l = np.broadcast_arrays(idx[:, :, None], w[:, None, :])
            keep = (w_l > 0.0) & (c2 > 0.0)
            parts.append((i[keep], w_l[keep], c2[keep]))
        return _read_only(*(np.concatenate(part) for part in zip(*parts)))


def _labels(n: int, groups) -> np.ndarray:
    """Connected-component label of each of n indices.

    The entries of each row of every (h, k) array in `groups` share a
    component; negative entries are ignored.  Min-label propagation with
    pointer jumping; each label is the smallest index of its component.
    """
    index = np.concatenate([g[g >= 0] for g in groups])
    count = np.concatenate([(g >= 0).sum(axis=1) for g in groups])
    count = count[count > 0]
    first = np.cumsum(count) - count
    member = np.repeat(np.arange(count.size), count)
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, index, np.minimum.reduceat(label[index], first)[member])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _layout(label: np.ndarray):
    """The blocks of a component labelling, and where each index sits in them.

    Returns (groups, row, col).  groups[g] is the (nb, k) array of the
    ascending indices of every size-k block, one array per distinct size.
    Laid out as the groups' (nb, k, k) stacks raveled one after the other,
    entry (i, j) of a block sits at row[i] + col[j].
    """
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(starts, append=label.size)
    # blocks ordered by size, then by first index: where each one starts
    by_size = np.argsort(sizes, kind="stable")
    ordered = sizes[by_size]
    mstart = np.empty_like(sizes)
    mstart[by_size] = np.cumsum(ordered**2) - ordered**2
    block = np.repeat(np.arange(sizes.size), sizes)
    pos = np.arange(label.size) - starts[block]
    row, col = np.empty(label.size, dtype=int), np.empty(label.size, dtype=int)
    col[order] = pos
    row[order] = mstart[block] + sizes[block] * pos
    groups = [order[starts[sizes == k][:, None] + np.arange(k)]
              for k in np.flatnonzero(np.bincount(sizes))]
    return groups, row, col


def _stacks(flat: np.ndarray, groups) -> list[np.ndarray]:
    """Cut a flat array laid out by _layout into one (nb, k, k) stack per group."""
    out, start = [], 0
    for idx in groups:
        shape = idx.shape + idx.shape[1:]
        out.append(flat[start : start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    return out


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _geometric_weights(n_mean: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    if n_mean == 0.0:
        return (n == 0).astype(float)
    return (n_mean / (n_mean + 1.0)) ** n / (n_mean + 1.0)


def thermal_fock(n_b: float, cutoff: int) -> FockOperator:
    """Truncated thermal state: geometric diagonal in the number basis."""
    _check_nonnegative("n_b", n_b)
    if cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    diagonal = [(np.arange(cutoff)[:, None], _geometric_weights(n_b, cutoff)[:, None, None])]
    return FockOperator(diagonal, 1, cutoff)


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


def build_state(spec: TransmitterSpec, cutoff: int, budget: float = DEFAULT_TRACE_BUDGET) -> FockOperator:
    """Probe density operator from exact truncated amplitudes.

    Amplitudes are not renormalized; the lost tail is reported through
    trace_deficit and rejected when it exceeds the budget.  The state is
    pure: one block on the support of the amplitude vector, whose spectrum
    is recorded from the vector, the single eigenvalue vec @ vec with
    eigenvector vec / |vec|.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    if spec.kind == "vacuum":
        vec = _geometric_weights(0.0, cutoff)
    elif spec.kind == "coherent":
        vec = _coherent_amplitudes(np.sqrt(spec.n_signal), cutoff)
    elif spec.kind == "smsv":
        vec = _smsv_amplitudes(np.arcsinh(np.sqrt(spec.n_signal)), cutoff)
    else:  # tmss
        diag = np.sqrt(_geometric_weights(spec.n_signal, cutoff))
        vec = np.zeros(cutoff * cutoff)
        vec[np.arange(cutoff) * (cutoff + 1)] = diag
    norm2 = vec @ vec
    deficit = float(1.0 - norm2)
    if deficit > budget:
        raise ValueError(
            f"cutoff {cutoff} too small: trace deficit {deficit:.3e} exceeds budget {budget:.3e}"
        )
    support = np.flatnonzero(vec)[None]
    amp = vec[support]
    state = FockOperator(
        [(support, amp[:, :, None] * amp[:, None, :])], spec.n_modes, vec.size
    )
    # Fill the cached_property slot so the probe is never diagonalised.
    state.__dict__["_eigen"] = (
        _read_only(support, np.array([[norm2]]), amp[:, :, None] / np.sqrt(norm2)),
    )
    return state


@lru_cache(maxsize=4)
def _beamsplitter_modes(d: int):
    """theta-independent eigenmodes of the truncated beamsplitter generator.

    The generator a b^dag - a^dag b on two modes of dimension d conserves
    total photon number; its block for total n is a real antisymmetric
    tridiagonal A, with D^-1 A D = i J for D = diag(i^k) and J real
    symmetric tridiagonal, so exp(-theta A) = D Q exp(-i theta mu) Q^T D^-1
    with J = Q diag(mu) Q^T.  Returns (Q, mu, index) for each distinct
    block size, from one batched eigh per size; index[b] holds the
    joint-space indices n_a d + n_b of block b, in ascending order.
    """
    if d > 2 * MAX_CUTOFF:
        raise ValueError(f"cutoff {d} exceeds 2 * MAX_CUTOFF, the largest pair choose_cutoff builds")
    n_tot = np.arange(2 * d - 1)
    lo = np.maximum(0, n_tot - (d - 1))
    sizes = np.minimum(d - 1, n_tot) - lo + 1
    modes = []
    for size in np.flatnonzero(np.bincount(sizes)):
        n = n_tot[sizes == size][:, None]
        n_a = lo[sizes == size][:, None] + np.arange(size)
        # a b^dag lowers n_a by one: amplitude sqrt(n_a (n_b + 1)).
        amp = np.sqrt(n_a[:, 1:] * (n - n_a[:, 1:] + 1.0))
        k = np.arange(size - 1)
        j = np.zeros((n.size, size, size))
        j[:, k, k + 1] = j[:, k + 1, k] = amp
        mu, q = np.linalg.eigh(j)
        modes.append((q, mu, n_a * d + (n - n_a)))
    return modes


def _beamsplitter_plan(d: int, inputs: np.ndarray):
    """The theta-independent parts of _beamsplitter(theta, plan) on ascending inputs.

    Returns (stacks, mu, sign, shape).  Per block size, over the blocks that hold
    an input, stacks holds (Q, Q^T on the input columns, slots, odd): entry (i, j)
    maps |n, N - n> to |a, N - a>, n the input of column j, at int32 flat slot
    [pos(n), a - n + d - 1, N - n] of `shape` = (inputs + 1, 2d - 1, d), a row part
    plus a column part; odd marks S's entries.  Non-input columns pad a block to the
    widest and land on the spare last row; with every input present, Q^T is a view.
    """
    pos = np.full(d, inputs.size)
    pos[inputs] = np.arange(inputs.size)
    stacks, mus = [], []
    for q, mu, index in _beamsplitter_modes(d):
        n_a, n_b = np.divmod(index, d)
        hit = pos[n_a] < inputs.size
        keep = hit.any(axis=1)
        if not keep.all():
            q, mu, n_a, n_b, hit = q[keep], mu[keep], n_a[keep], n_b[keep], hit[keep]
        size = q.shape[-1]
        if hit.all():
            cols, n, q_t = np.arange(size)[None], n_a, q.transpose(0, 2, 1)
        else:  # each block's input columns first, ascending, then padding
            cols = np.argsort(~hit, axis=1, kind="stable")[:, : hit.sum(axis=1).max()]
            rows = np.arange(len(q))[:, None]
            n, q_t = n_a[rows, cols], q[rows, cols].transpose(0, 2, 1)
        row_part = (d * n_a + (n_a + n_b)[:, :1] + d * (d - 1)).astype(np.int32)
        col_part = (d * (2 * d - 1) * pos[n] - (d + 1) * n).astype(np.int32)
        odd = np.arange(size)[:, None] % 2 != (cols % 2)[:, None, :]
        stacks.append((q, q_t, row_part[:, :, None] + col_part[:, None, :], odd))
        mus.append(mu.ravel())
    # entry (j, k) of D (C - iS) D^-1 by t = j - k mod 4: C, S, -C, -S
    sign = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(1 - d, d) % 4, None]
    return stacks, np.concatenate(mus), sign, (inputs.size + 1, 2 * d - 1, d)


def _beamsplitter(theta: float, plan) -> np.ndarray:
    """K[i, t + d - 1, m] = <n + t, m - t| exp(-theta G) |n, m>, n = inputs[i] of the plan.

    Zero off the truncation.  With C = Q cos(theta mu) Q^T and S = Q sin(theta mu) Q^T,
    a block is D (C - iS) D^-1, real because C vanishes where j - k is odd and S where
    it is even: one batched real product per block size, on the input columns only,
    gives C and S, and odd picks each.  The sign of i^t depends only on K's row t.
    """
    stacks, mu, sign, shape = plan
    trig = np.stack([np.cos(theta * mu), np.sin(theta * mu)])
    k = np.zeros(math.prod(shape))
    start = 0
    for q, q_t, slots, odd in stacks:
        nb, _, size = q.shape
        cs = (q * trig[:, start : start + nb * size].reshape(2, nb, 1, size)) @ q_t
        k[slots] = np.where(odd, cs[1], cs[0])
        start += nb * size
    k = k.reshape(shape)[:-1]
    return np.multiply(k, sign, out=k)


@lru_cache(maxsize=4)
def _target_plan(d: int, dim: int, support: tuple):
    """What apply_target_fock does that depends only on the cutoff and the support.

    `support` holds, per stack of eigenpairs, the block width k and the bytes
    of the (eigenvectors, k) intp block indices of its kept eigenvectors.
    Returns (groups, size, stacks): the merged layout of all Gram rows, its
    flat size, and per stack the _beamsplitter plan of its inputs, K's rows
    per eigenvector (None: K itself), and each Gram row's flat start and
    offset, past the end for rows off the truncation.
    """
    d_rest = dim // d
    plans, rows = [], []
    for k, raw in support:
        n, rest = np.divmod(np.frombuffer(raw, np.intp).reshape(-1, k), d_rest)
        inputs = np.flatnonzero(np.bincount(n.ravel()))
        gather = None if np.array_equal(n, inputs[None]) else np.searchsorted(inputs, n)
        plans.append((_beamsplitter_plan(d, inputs), gather))
        a = n[:, None, :] + np.arange(2 * d - 1)[:, None] - (d - 1)
        rows.append(np.where((a >= 0) & (a < d), a * d_rest + rest[:, None, :], -1).reshape(-1, k))
    groups, row, col = _layout(_labels(dim, rows))
    size = sum(idx.size * idx.shape[1] for idx in groups)
    stacks = [(*plan, np.where(r >= 0, row[r], size), np.where(r >= 0, col[r], size))
              for plan, r in zip(plans, rows)]
    return groups, size, stacks


def apply_target_fock(state: FockOperator, cfg: TargetConfig) -> FockOperator:
    """Reflect the transmitted mode off the target in the number basis.

    Tensors a thermal environment of occupation cfg.effective_n_b, truncated
    at state.cutoff, applies the beamsplitter unitary with
    theta = arccos(sqrt(kappa)), and traces the environment back out:
    rho1 = sum over the probe's eigenpairs (lam, psi), the environment's
    input m and output e of p_m <e|U|m> lam |psi><psi| <m|U^dag|e>.  An
    input n of the transmitted mode leaves as a = n + t with t = m - e, so
    the terms of one eigenvector and one shift t form a Gram matrix F F^dag
    on the rows (n + t, rest) of the eigenvector's support, with
    F[(n, rest), m] = sqrt(lam p_m) <n + t, m - t|U|n, m> psi[n, rest].
    U is formed only on the support's inputs n (smsv: even n; vacuum: n = 0).
    Gram matrices on overlapping rows are summed into one block, on a layout
    planned once per cutoff and support (_target_plan).  The tmss probe lives
    on n = rest, so each of its 2d - 1 blocks is a single A A^T.
    """
    d = state.cutoff
    theta = float(np.arccos(np.sqrt(cfg.kappa)))
    root_p = np.sqrt(_geometric_weights(cfg.effective_n_b, d))
    eigen = [(idx, w, v, *np.nonzero(w)) for idx, w, v in state._eigen]
    support = tuple((idx.shape[1], idx[b].astype(np.intp).tobytes()) for idx, _, _, b, _ in eigen)
    groups, size, stacks = _target_plan(d, state.dim, support)
    flat = np.zeros(size)
    for (_, w, v, b, j), (plan, gather, start, offset) in zip(eigen, stacks):
        amp = np.sqrt(w[b, j])[:, None] * v[b, :, j]
        shift = _beamsplitter(theta, plan)
        # F[eigenvector, (n, rest), t, m]; one eigenvector on distinct n scales K in place
        f = shift[None] if gather is None else shift[gather]
        scale = (amp[:, :, None] * root_p)[:, :, None, :]
        np.multiply(f, scale, out=f)
        gram = f.swapaxes(1, 2) @ f.transpose(0, 2, 3, 1)
        del shift, f  # K and F are freed before the merge
        # entries on a row outside the truncation land past the end and are dropped
        target = (start[:, :, None] + offset[:, None, :]).ravel()
        flat += np.bincount(target, gram.ravel(), size)[:size]
    blocks = list(zip(groups, _stacks(flat, groups)))
    return FockOperator(blocks, state.n_modes, state.dim)


def hypothesis_pair_fock(spec: TransmitterSpec, cfg: TargetConfig, cutoff: int,
                         budget: float = DEFAULT_TRACE_BUDGET) -> tuple[FockOperator, FockOperator]:
    """Truncated (rho0, rho1) for a transmitter/target configuration.

    The legacy model substitutes n_b/(1-kappa) into the reflection channel
    (see apply_target_fock) while the absent hypothesis keeps the bare
    background.
    """
    probe = build_state(spec, cutoff, budget=budget)
    rho1 = apply_target_fock(probe, cfg)
    if spec.n_modes == 1:
        return thermal_fock(cfg.n_b, cutoff), rho1
    # The memory's reduced state is diagonal (the tmss amplitudes psi[n, m]
    # vanish off n = m): sum_n psi[n, m]^2, read off the probe's one block.
    ((idx, block),) = probe.blocks
    memory = np.bincount(idx[0] % cutoff, np.diagonal(block[0]), cutoff)
    diagonal = np.outer(_geometric_weights(cfg.n_b, cutoff), memory).reshape(-1, 1, 1)
    rho0 = FockOperator([(np.arange(cutoff**2)[:, None], diagonal)], 2, cutoff**2)
    return rho0, rho1


def _diagonal(rho: FockOperator, sigma: FockOperator) -> np.ndarray:
    """rho's eigenvalues as its number-basis diagonal p, zero outside its blocks.

    Raises:
        ValueError: the operators differ in dimension, or rho has a block
            larger than 1x1.
    """
    if rho.dim != sigma.dim:
        raise ValueError("operators must share dimensions")
    p = np.zeros(rho.dim)
    for idx, w, _ in rho._eigen:
        if idx.shape[1] > 1:
            raise ValueError("the first operator must be diagonal in the number basis; "
                             f"it has a {idx.shape[1]}x{idx.shape[1]} block")
        p[idx[:, 0]] = w[:, 0]
    return p


def q_s_fock(rho: FockOperator, sigma: FockOperator, s: float) -> float:
    """tr rho^s sigma^{1-s} for rho diagonal in the number basis.

    The sum of p_i^s w^{1-s} |v[i]|^2 over sigma's cached terms.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    p = _diagonal(rho, sigma)
    i, w, c2 = sigma._terms
    return float(np.dot(p[i] ** s * w ** (1.0 - s), c2))


def fidelity_fock(rho: FockOperator, sigma: FockOperator) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), rho diagonal in the number basis.

    Evaluated as the trace norm of sqrt(rho) sqrt(sigma), the sum of the
    singular values of sqrt(p) V sqrt(w) over sigma's blocks.  Singular
    values carry rounding noise of order 1e-16, where square roots of the
    eigenvalues of sqrt(rho) sigma sqrt(rho) would carry ~1e-11.
    """
    root_p = np.sqrt(_diagonal(rho, sigma))
    weighted = (root_p[idx][:, :, None] * v * np.sqrt(w)[:, None, :] for idx, w, v in sigma._eigen)
    return float(sum(np.linalg.svd(m, compute_uv=False).sum() for m in weighted))


def mean_photon_number(op: FockOperator, mode: int) -> float:
    """Expectation of the number operator on one mode."""
    if not 0 <= mode < op.n_modes:
        raise ValueError(f"invalid mode {mode} for {op.n_modes} modes")
    d, n = op.cutoff, op.n_modes
    diag = np.zeros(op.dim)
    for idx, m in op.blocks:
        diag[idx] = np.diagonal(m, axis1=1, axis2=2)
    diag = diag.reshape((d,) * n)
    counts = np.arange(d)
    axes = tuple(k for k in range(n) if k != mode)
    return float((diag.sum(axis=axes) if axes else diag) @ counts)


def choose_cutoff(spec: TransmitterSpec, cfg: TargetConfig, tol: float = 1e-8) -> int:
    """Smallest verified per-mode cutoff for oracle evaluations.

    Starts from the geometric-tail bound (occupancy/(occupancy+1))^D < tol,
    then grows D until doubling it changes q_s_fock at s = 1/2 by less than
    tol and every trace deficit stays below tol.

    Raises:
        ValueError: the verified cutoff would exceed the desk-scale ceiling
            MAX_CUTOFF = 128 per mode, the same for every probe; shrink the
            occupancies instead.
    """
    d = 2
    for occupancy in (cfg.effective_n_b, spec.n_signal):
        if occupancy > 0.0:
            d = max(d, int(np.ceil(np.log(tol) / np.log(occupancy / (occupancy + 1.0)))) + 1)
    while True:
        if d > MAX_CUTOFF:
            raise ValueError(f"required cutoff exceeds the ceiling {MAX_CUTOFF} per mode; "
                             "reduce n_b/n_signal or loosen tol")
        try:
            rho0, rho1 = hypothesis_pair_fock(spec, cfg, d, budget=tol)
            rho0_big, rho1_big = hypothesis_pair_fock(spec, cfg, 2 * d, budget=tol)
        except ValueError:
            ok = False
        else:
            deficit = max(op.trace_deficit for op in (rho0, rho1, rho0_big, rho1_big))
            drift = abs(q_s_fock(rho0, rho1, 0.5) - q_s_fock(rho0_big, rho1_big, 0.5))
            ok = deficit < tol and drift < tol
        if ok:
            return d
        grown = max(d + 1, int(np.ceil(1.25 * d)))
        # Try the ceiling itself before declaring the parameters out of reach.
        d = min(grown, MAX_CUTOFF) if d < MAX_CUTOFF else grown
