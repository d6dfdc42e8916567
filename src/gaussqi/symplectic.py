"""Phase-space linear algebra for Gaussian states.

Conventions used throughout the package: canonical ordering
(q1, p1, ..., qn, pn), natural units hbar = 1, vacuum covariance I/2.
A covariance matrix is physical iff every symplectic eigenvalue is >= 1/2.
Production needs the symplectic eigenvalues alone; the symplectic form as a
matrix, the symplectic S of a Williamson decomposition, Gaussian unitaries,
tensor products and partial traces serve only the reference routes and live
in `reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Module-wide numerical tolerances.
SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-10
MIN_COV_EIGENVALUE = 1e-14


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


def _check_physical(nu) -> None:
    """Reject symplectic eigenvalues below 1/2 by more than PHYSICALITY_TOL."""
    nu_min = np.min(nu, initial=np.inf)
    if nu_min < 0.5 - PHYSICALITY_TOL:
        raise ValueError(f"unphysical covariance: min symplectic eigenvalue {nu_min:.12g} < 1/2")


def _validated_cov(cov: np.ndarray, where: str) -> np.ndarray:
    """Symmetrised covariance, or stack of covariances along the leading axes, as
    0.5 cov + 0.5 cov^T: (cov + cov^T) would overflow past 8.99e307.

    Finiteness is checked before symmetry: a comparison with nan is false,
    so a nan would pass every later test."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2:
        raise ValueError(f"{where}: covariance must be square with even size, got {cov.shape}")
    if not np.isfinite(cov).all():
        raise ValueError(f"{where}: covariance must be finite")
    cov_t = np.swapaxes(cov, -1, -2)
    axes = (-2, -1)
    scale = np.abs(cov).max(axis=axes, initial=1.0)
    if (np.abs(cov - cov_t).max(axis=axes, initial=0.0) > SYMMETRY_TOL * scale).any():
        raise ValueError(f"{where}: covariance is not symmetric within {SYMMETRY_TOL} (relative)")
    return 0.5 * cov + 0.5 * cov_t


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
        mean = np.array(self.mean, dtype=float).reshape(-1)  # a copy: no caller aliases it
        shape = np.shape(self.cov)
        if len(shape) != 2:
            raise ValueError(f"GaussianState: covariance must be one matrix, got {shape}")
        if mean.shape[0] != shape[0]:
            raise ValueError(
                f"mean length {mean.shape[0]} does not match covariance size {shape[0]}"
            )
        if not np.isfinite(mean).all():
            raise ValueError("GaussianState: mean must be finite")
        cov, _, nu, _ = _spectrum(self.cov, "GaussianState")
        _check_physical(nu)
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


def _spectrum(cov: np.ndarray, where: str):
    """A Williamson decomposition up to the symplectic eigenvalues.

    Returns the symmetrised covariance sigma, sigma^{-1/2}, nu (ascending)
    and the eigenvectors of -i sigma^{-1/2} Delta sigma^{-1/2} that belong
    to the positive eigenvalues 1/nu, in the order of nu; the reference
    route `reference.williamson` builds S from them.
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

    Raises ValueError on a non-finite, non-symmetric or near-singular input.
    """
    return _spectrum(cov, "symplectic_eigenvalues")[2]
