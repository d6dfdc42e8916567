"""Phase-space linear algebra for Gaussian states.

Conventions used throughout the package: canonical ordering
(q1, p1, ..., qn, pn), natural units hbar = 1, vacuum covariance I/2.
A covariance matrix is physical iff every symplectic eigenvalue is >= 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Module-wide numerical tolerances.
SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-10
PHYSICALITY_TOL = 1e-10
MIN_COV_EIGENVALUE = 1e-14


# One read-only symplectic form per mode count, shared by every caller.
_FORMS: dict[int, np.ndarray] = {}


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, block diagonal [[0, 1], [-1, 0]].

    Built once per mode count; the returned array is shared and read-only.
    """
    delta = _FORMS.get(n_modes)
    if delta is None:
        if n_modes < 1:
            raise ValueError(f"n_modes must be positive, got {n_modes}")
        delta = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        delta.setflags(write=False)
        _FORMS[n_modes] = delta
    return delta


# Delta as a signed permutation, one per dimension 2n.
_PERMUTATIONS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _form_permutation(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Column order and signs with m @ Delta == m[..., order] * signs, exactly."""
    perm = _PERMUTATIONS.get(dim)
    if perm is None:
        perm = (np.arange(dim) ^ 1, np.tile((-1.0, 1.0), dim // 2))
        for a in perm:
            a.setflags(write=False)
        _PERMUTATIONS[dim] = perm
    return perm


def symplectic_inverse(s: np.ndarray) -> np.ndarray:
    """Invert a symplectic matrix, or a stack of them, as S^-1 = -Delta S^T Delta.

    Delta is applied as its signed permutation, so the result is exact.
    """
    order, signs = _form_permutation(s.shape[-1])
    st = np.swapaxes(s, -1, -2)
    return (signs[:, None] * st[..., order, :])[..., order] * signs


def is_symplectic(s: np.ndarray) -> bool:
    """Check ||S Delta S^T - Delta||_F < SYMPLECTIC_TOL for a square S of even size."""
    delta = symplectic_form(s.shape[0] // 2)
    return bool(np.linalg.norm(s @ delta @ s.T - delta) < SYMPLECTIC_TOL)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, ascending: williamson(cov).nu."""
    return williamson(cov).nu


def _check_physical(nu) -> None:
    """Reject symplectic eigenvalues below 1/2 by more than PHYSICALITY_TOL."""
    nu_min = np.min(nu, initial=np.inf)
    if nu_min < 0.5 - PHYSICALITY_TOL:
        raise ValueError(f"unphysical covariance: min symplectic eigenvalue {nu_min:.12g} < 1/2")


def _validated_cov(cov: np.ndarray, where: str) -> np.ndarray:
    """Symmetrised covariance, or stack of covariances along the leading axes."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2:
        raise ValueError(f"{where}: covariance must be square with even size, got {cov.shape}")
    cov_t = np.swapaxes(cov, -1, -2)
    axes = (-2, -1)
    scale = np.abs(cov).max(axis=axes, initial=1.0)
    if (np.abs(cov - cov_t).max(axis=axes, initial=0.0) > SYMMETRY_TOL * scale).any():
        raise ValueError(f"{where}: covariance is not symmetric within {SYMMETRY_TOL} (relative)")
    return 0.5 * (cov + cov_t)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """First and second moments of an n-mode Gaussian state.

    Attributes:
        mean: real vector of length 2n, ordered (q1, p1, ..., qn, pn).
        cov: real symmetric 2n x 2n covariance matrix; vacuum is I/2.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = _validated_cov(self.cov, "GaussianState")
        if cov.ndim != 2:
            raise ValueError(f"GaussianState: covariance must be one matrix, got {cov.shape}")
        if mean.shape[0] != cov.shape[0]:
            raise ValueError(
                f"mean length {mean.shape[0]} does not match covariance size {cov.shape[0]}"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("GaussianState moments must be finite")
        _check_physical(symplectic_eigenvalues(cov))
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.shape[0] // 2

    def isclose(self, other: "GaussianState", atol: float = 1e-12) -> bool:
        """Moment-wise comparison with absolute tolerance scaled by magnitude."""
        scale = max(1.0, np.abs(self.cov).max(), np.abs(other.cov).max())
        return bool(
            self.n_modes == other.n_modes
            and np.abs(self.mean - other.mean).max() <= atol * scale
            and np.abs(self.cov - other.cov).max() <= atol * scale
        )


@dataclass(frozen=True, eq=False)
class GaussianUnitary:
    """Gaussian unitary acting as mean -> S mean + d, cov -> S cov S^T."""

    S: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        d = np.asarray(self.d, dtype=float).reshape(-1)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError(f"S must be square with even size, got {s.shape}")
        if d.shape[0] != s.shape[0]:
            raise ValueError("displacement length does not match S")
        if not np.all(np.isfinite(d)):
            raise ValueError("displacement must be finite")
        if not is_symplectic(s):
            raise ValueError("S does not satisfy S Delta S^T = Delta within tolerance")
        s.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "d", d)

    @property
    def n_modes(self) -> int:
        return self.S.shape[0] // 2


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """Result of williamson(): S cov S^T = diag(nu_1, nu_1, ..., nu_n, nu_n)."""

    nu: np.ndarray
    S: np.ndarray


def williamson(cov: np.ndarray) -> WilliamsonDecomposition:
    """Williamson decomposition of a positive-definite covariance matrix.

    Finds a symplectic S and symplectic eigenvalues nu (ascending) with
    S cov S^T = ⊕_k nu_k I_2.  The real antisymmetric matrix
    A = cov^{-1/2} Delta cov^{-1/2} has eigenvalues +-i/nu_k; the Hermitian
    matrix -iA has them as +-1/nu_k, with orthonormal eigenvectors even
    where the nu_k coincide.  sqrt(2) times the real and imaginary parts of
    the eigenvectors of its positive eigenvalues are orthonormal canonical
    pairs (u_k, x_k) with u_k^T A x_k = 1/nu_k, the orthogonal part of S.

    Args:
        cov: symmetric positive-definite 2n x 2n matrix, or a stack of them
            along the leading axes; every matrix is decomposed, and checked,
            on its own.

    Returns:
        WilliamsonDecomposition with nu sorted ascending, shaped like the
        input: nu (..., n) and S (..., 2n, 2n).

    Raises:
        ValueError: non-symmetric, non-positive-definite, or near-singular
            input (min eigenvalue below MIN_COV_EIGENVALUE), or failure of
            the internal invariant check.
    """
    sigma = _validated_cov(cov, "williamson")
    dim = sigma.shape[-1]
    n = dim // 2

    evals, evecs = np.linalg.eigh(sigma)
    if evals[..., 0].min(initial=np.inf) < MIN_COV_EIGENVALUE:
        raise ValueError(
            f"covariance not positive definite: min eigenvalue {evals.min():.3e} "
            f"< {MIN_COV_EIGENVALUE}"
        )
    root_inv = (evecs * evals[..., None, :] ** -0.5) @ np.swapaxes(evecs, -1, -2)
    order, signs = _form_permutation(dim)
    anti = (root_inv[..., order] * signs) @ root_inv
    anti = 0.5 * (anti - np.swapaxes(anti, -1, -2))

    rates, vecs = np.linalg.eigh(-1j * anti)
    # eigh sorts the rates ascending; the last n are the positive ones, and
    # taking them from the top puts nu = 1 / rate in ascending order.
    nu = 1.0 / rates[..., n:][..., ::-1]
    pos = vecs[..., n:][..., ::-1]
    # Each eigenvector is fixed up to a phase, which rotates its canonical
    # pair; the phase that makes its largest entry real and positive keeps
    # S = I for a diagonal input.
    big = np.take_along_axis(pos, np.abs(pos).argmax(axis=-2)[..., None, :], axis=-2)
    pos = pos * (big.conj() / np.abs(big))
    o = np.empty(sigma.shape)
    o[..., 0::2] = np.sqrt(2.0) * pos.real
    o[..., 1::2] = np.sqrt(2.0) * pos.imag

    d_half = np.repeat(np.sqrt(nu), 2, axis=-1)
    s = (d_half[..., :, None] * np.swapaxes(o, -1, -2)) @ root_inv

    # Internal guard: a silent failure here would poison every downstream
    # overlap, so verify the defining relations of every matrix before
    # returning (Frobenius norms compared squared).
    s_t = np.swapaxes(s, -1, -2)
    axes = (-2, -1)
    sympl = (s[..., order] * signs) @ s_t - symplectic_form(n)
    if ((sympl * sympl).sum(axis=axes) > 1e-16).any():
        raise ValueError("williamson: result failed the symplectic invariant")
    diag = s @ sigma @ s_t - d_half[..., :, None] ** 2 * np.eye(dim)
    if ((diag * diag).sum(axis=axes) > 1e-16 * (sigma * sigma).sum(axis=axes)).any():
        raise ValueError("williamson: result failed the diagonalization invariant")
    return WilliamsonDecomposition(nu=nu, S=s)


def apply_unitary(state: GaussianState, u: GaussianUnitary) -> GaussianState:
    """Transform a state by a Gaussian unitary."""
    if state.n_modes != u.n_modes:
        raise ValueError(
            f"mode mismatch: state has {state.n_modes}, unitary acts on {u.n_modes}"
        )
    return GaussianState(mean=u.S @ state.mean + u.d, cov=u.S @ state.cov @ u.S.T)


def beamsplitter(kappa: float, mode_a: int, mode_b: int, n_modes: int) -> GaussianUnitary:
    """Beamsplitter of transmissivity kappa between two modes.

    Acts as a' = sqrt(kappa) a - sqrt(1-kappa) b and
    b' = sqrt(1-kappa) a + sqrt(kappa) b on the chosen pair, identity
    elsewhere.  The relative sign is a fixed convention; it is unobservable
    in every quantity computed from covariances and means.

    Args:
        kappa: transmission probability, 0 < kappa < 1.
        mode_a: transmitted mode index (0-based).
        mode_b: environment mode index (0-based).
        n_modes: total number of modes.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    if mode_a == mode_b or not (0 <= mode_a < n_modes and 0 <= mode_b < n_modes):
        raise ValueError(f"invalid mode pair ({mode_a}, {mode_b}) for {n_modes} modes")
    c = np.sqrt(kappa)
    s = np.sqrt(1.0 - kappa)
    eye2 = np.eye(2)
    mat = np.eye(2 * n_modes)
    a, b = 2 * mode_a, 2 * mode_b
    mat[a:a + 2, a:a + 2] = c * eye2
    mat[a:a + 2, b:b + 2] = -s * eye2
    mat[b:b + 2, a:a + 2] = s * eye2
    mat[b:b + 2, b:b + 2] = c * eye2
    return GaussianUnitary(S=mat, d=np.zeros(2 * n_modes))


def squeezer(r: float, mode: int = 0, n_modes: int = 1) -> GaussianUnitary:
    """Single-mode squeezer: q -> e^{-r} q, p -> e^{r} p on the given mode."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"invalid mode {mode} for {n_modes} modes")
    mat = np.eye(2 * n_modes)
    i = 2 * mode
    mat[i, i] = np.exp(-r)
    mat[i + 1, i + 1] = np.exp(r)
    return GaussianUnitary(S=mat, d=np.zeros(2 * n_modes))


def phase_rotation(theta: float, mode: int = 0, n_modes: int = 1) -> GaussianUnitary:
    """Phase-space rotation by theta on the given mode."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"invalid mode {mode} for {n_modes} modes")
    mat = np.eye(2 * n_modes)
    i = 2 * mode
    c, s = np.cos(theta), np.sin(theta)
    mat[i:i + 2, i:i + 2] = np.array([[c, s], [-s, c]])
    return GaussianUnitary(S=mat, d=np.zeros(2 * n_modes))


def displacement(d: np.ndarray) -> GaussianUnitary:
    """Displacement by a phase-space vector d (length 2n)."""
    d = np.asarray(d, dtype=float).reshape(-1)
    return GaussianUnitary(S=np.eye(d.shape[0]), d=d)


def tensor(*states: GaussianState) -> GaussianState:
    """Tensor product of Gaussian states (block-diagonal covariance)."""
    if not states:
        raise ValueError("tensor requires at least one state")
    mean = np.concatenate([st.mean for st in states])
    cov = np.zeros((mean.shape[0], mean.shape[0]))
    start = 0
    for st in states:
        stop = start + st.cov.shape[0]
        cov[start:stop, start:stop] = st.cov
        start = stop
    return GaussianState(mean=mean, cov=cov)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state on a subset of modes.

    Args:
        state: input Gaussian state.
        keep: iterable of 0-based mode indices to retain; the output mode
            order follows the sorted indices.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must contain at least one mode index")
    if keep[0] < 0 or keep[-1] >= state.n_modes:
        raise ValueError(f"mode indices {keep} out of range for {state.n_modes} modes")
    idx = np.array([2 * k + off for k in keep for off in (0, 1)])
    return GaussianState(mean=state.mean[idx], cov=state.cov[np.ix_(idx, idx)])


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix via exp(Delta H) with H random symmetric."""
    from scipy.linalg import expm

    h = rng.standard_normal((2 * n_modes, 2 * n_modes))
    h = scale * (h + h.T) / 2.0
    return expm(symplectic_form(n_modes) @ h)


def random_physical_cov(
    n_modes: int,
    rng: np.random.Generator,
    nu_max: float = 5.0,
) -> np.ndarray:
    """Random physical covariance T diag(nu x I2) T^T with nu in [1/2, nu_max]."""
    t = random_symplectic(n_modes, rng)
    nu = rng.uniform(0.5, nu_max, size=n_modes)
    return t @ np.diag(np.repeat(nu, 2)) @ t.T
