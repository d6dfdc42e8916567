"""Phase-space linear algebra for Gaussian states.

Conventions used throughout the package: canonical ordering
(q1, p1, ..., qn, pn), natural units hbar = 1, vacuum covariance I/2.
A covariance matrix is physical iff every symplectic eigenvalue is >= 1/2.
Gaussian unitaries, tensor products and partial traces serve only the
reference routes and live in `reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Module-wide numerical tolerances.
SYMMETRY_TOL = 1e-12
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
class WilliamsonDecomposition:
    """Result of williamson(): S cov S^T = diag(nu_1, nu_1, ..., nu_n, nu_n)."""

    nu: np.ndarray
    S: np.ndarray


def _spectrum(cov: np.ndarray, where: str):
    """The first half of williamson: everything up to the symplectic eigenvalues.

    Returns the symmetrised covariance sigma, sigma^{-1/2}, nu (ascending)
    and the eigenvectors of -i sigma^{-1/2} Delta sigma^{-1/2} that belong
    to the positive eigenvalues 1/nu, in the order of nu.
    """
    sigma = _validated_cov(cov, where)
    n = sigma.shape[-1] // 2

    evals, evecs = np.linalg.eigh(sigma)
    if evals[..., 0].min(initial=np.inf) < MIN_COV_EIGENVALUE:
        raise ValueError(
            f"covariance not positive definite: min eigenvalue {evals.min():.3e} "
            f"< {MIN_COV_EIGENVALUE}"
        )
    root_inv = (evecs * evals[..., None, :] ** -0.5) @ np.swapaxes(evecs, -1, -2)
    order, signs = _form_permutation(2 * n)
    anti = (root_inv[..., order] * signs) @ root_inv
    anti = 0.5 * (anti - np.swapaxes(anti, -1, -2))

    rates, vecs = np.linalg.eigh(-1j * anti)
    # eigh sorts the rates ascending; the last n are the positive ones, and
    # taking them from the top puts nu = 1 / rate in ascending order.
    return sigma, root_inv, 1.0 / rates[..., n:][..., ::-1], vecs[..., n:][..., ::-1]


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, or a stack of them, ascending.

    The first half of `williamson`, bit for bit its nu, without building S.
    Raises ValueError on the inputs `williamson` rejects before S.
    """
    return _spectrum(cov, "symplectic_eigenvalues")[2]


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
    sigma, root_inv, nu, pos = _spectrum(cov, "williamson")
    dim = sigma.shape[-1]
    n = dim // 2
    order, signs = _form_permutation(dim)
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
