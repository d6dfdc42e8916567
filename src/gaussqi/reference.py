"""Second routes: the independent constructions production is tested against.

Production builds the hypothesis pair in closed form (`target.pair_moments`)
and evaluates Q_s from the closed-form Williamson data of its standard form
(`divergence._StandardGeometry`).  This module holds the other ways to reach
the same numbers, apart from the truncated-Fock oracle (`fock_oracle`) and
the mpmath route (`highprec`):

- a Gaussian-unitary toolkit: the symplectic form, symplectic unitaries
  (beamsplitter, squeezer, phase rotation), tensor products, partial traces
  and random symplectics;
- the beamsplitter dilation of the target channel (`dilated_present`,
  `target_present`), which the closed-form moments are tested against;
- the dense overlap route for any pair of states: a numerical Williamson
  decomposition (`williamson`) and Sigma(s) as a matrix (`_PairGeometry`,
  log Q_s and its slope), which shares the factors G, Lambda of
  `divergence._factors` with production but none of its closed-form
  geometry;
- two closed forms of Q_s that share no overlap arithmetic with
  `divergence`: the coherent-transmitter form (`q_s_coherent_closed`) and
  the single-mode zero-mean determinant form (`q_s_alt`).  Of `divergence`
  they use only its check of s.

No production module imports this one, so nothing in it runs in production.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import _check_s, _factors, _finite, _orders
from .symplectic import (
    GaussianState,
    _check_physical,
    _form_permutation,
    _spectrum,
)
from .target import TargetConfig
from .transmitters import _check_nonnegative, thermal_state

SYMPLECTIC_TOL = 1e-10

# Transmitted mode is always the first mode of the probe; memory modes follow.
TRANSMITTED_MODE = 0


# --------------------------------------------------------------------------
# Gaussian unitaries and composite states

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


def is_symplectic(s: np.ndarray) -> bool:
    """Check ||S Delta S^T - Delta||_F < SYMPLECTIC_TOL for a square S of even size."""
    delta = symplectic_form(s.shape[0] // 2)
    return bool(np.linalg.norm(s @ delta @ s.T - delta) < SYMPLECTIC_TOL)


@dataclass(frozen=True, eq=False)
class GaussianUnitary:
    """Gaussian unitary without displacement: mean -> S mean, cov -> S cov S^T."""

    S: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.S, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError(f"S must be square with even size, got {s.shape}")
        if not is_symplectic(s):
            raise ValueError("S does not satisfy S Delta S^T = Delta within tolerance")
        s.setflags(write=False)
        object.__setattr__(self, "S", s)

    @property
    def n_modes(self) -> int:
        return self.S.shape[0] // 2


def apply_unitary(state: GaussianState, u: GaussianUnitary) -> GaussianState:
    """Transform a state by a Gaussian unitary."""
    if state.n_modes != u.n_modes:
        raise ValueError(
            f"mode mismatch: state has {state.n_modes}, unitary acts on {u.n_modes}"
        )
    return GaussianState(mean=u.S @ state.mean, cov=u.S @ state.cov @ u.S.T)


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
    return GaussianUnitary(S=mat)


def squeezer(r: float, mode: int = 0, n_modes: int = 1) -> GaussianUnitary:
    """Single-mode squeezer: q -> e^{-r} q, p -> e^{r} p on the given mode."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"invalid mode {mode} for {n_modes} modes")
    mat = np.eye(2 * n_modes)
    i = 2 * mode
    mat[i, i] = np.exp(-r)
    mat[i + 1, i + 1] = np.exp(r)
    return GaussianUnitary(S=mat)


def phase_rotation(theta: float, mode: int = 0, n_modes: int = 1) -> GaussianUnitary:
    """Phase-space rotation by theta on the given mode."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"invalid mode {mode} for {n_modes} modes")
    mat = np.eye(2 * n_modes)
    i = 2 * mode
    c, s = np.cos(theta), np.sin(theta)
    mat[i:i + 2, i:i + 2] = np.array([[c, s], [-s, c]])
    return GaussianUnitary(S=mat)


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


# --------------------------------------------------------------------------
# The target channel through its beamsplitter dilation


def dilated_present(probe: GaussianState, cfg: TargetConfig) -> GaussianState:
    """Joint probe+environment state after reflection, before tracing.

    Appends the thermal environment as the last mode and applies the
    beamsplitter between the transmitted mode and the environment.  For the
    two-mode entangled probe this exposes the full 6x6 covariance.
    """
    env = thermal_state(cfg.effective_n_b)
    joint = tensor(probe, env)
    u = beamsplitter(cfg.kappa, TRANSMITTED_MODE, probe.n_modes, probe.n_modes + 1)
    return apply_unitary(joint, u)


def target_present(probe: GaussianState, cfg: TargetConfig) -> GaussianState:
    """State received under the 'target present' hypothesis.

    Built by the dilation route: tensor a thermal mode, beamsplit with the
    transmitted mode, trace out the environment.
    """
    out = dilated_present(probe, cfg)
    return partial_trace(out, keep=range(probe.n_modes))


# --------------------------------------------------------------------------
# The dense overlap route


def symplectic_inverse(s: np.ndarray) -> np.ndarray:
    """Invert a symplectic matrix, or a stack of them, as S^-1 = -Delta S^T Delta.

    Delta is applied as its signed permutation, so the result is exact.
    """
    order, signs = _form_permutation(s.shape[-1])
    st = np.swapaxes(s, -1, -2)
    return (signs[:, None] * st[..., order, :])[..., order] * signs


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
    nu is `symplectic.symplectic_eigenvalues`, bit for bit.

    Args:
        cov: symmetric positive-definite 2n x 2n matrix, or a stack of them
            along the leading axes; every matrix is decomposed, and checked,
            on its own.

    Returns:
        WilliamsonDecomposition shaped like the input: nu (..., n) and
        S (..., 2n, 2n).

    Raises:
        ValueError: non-finite, non-symmetric, non-positive-definite, or
            near-singular input, or failure of the internal invariant check.
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

    # Internal guard: verify the defining relations of every matrix before
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


class _PairGeometry:
    """The overlap of any stack of state pairs through `williamson`, reused across s.

    Stacked as for `divergence._StandardGeometry`, which this route pins:
    means (N, 2n), covariances (N, 2n, 2n), with cov_i = T_i D_i T_i^T and
    Sigma(s) of `divergence.q_s_general` built as a matrix.  With its
    Cholesky factor L and z = L^-1 delta,

        log Q_s = n log 2 + sum log G - sum_j log L_jj - z^T z / 2,

    and the slope of `_StandardGeometry.derivatives` runs through
    A = L^-1 [T0 T1]: for a diagonal D in those frames, tr(Sigma^-1 T D T^T)
    is sum_jk A_jk^2 D_k, and T^T y is A^T z.  Every step is elementwise or
    a LAPACK call per pair, so a pair's numbers do not depend on its stack.

    A pure mode that rounding put above nu = 1/2 would turn
    Lambda_p(2 nu) - 1 ~ 2 (nu - 1/2)^p into an O(1) error at small p, so,
    as in the closed form, nu within 2 eps (tr cov)^2 / sum(nu) of 1/2 is
    set to 1/2.  That band is four times the closed form's, since the
    numerical decomposition rounds up to about twice as far.
    """

    def __init__(self, mean0, cov0, mean1, cov1):
        if np.shape(cov0) != np.shape(cov1):
            raise ValueError(
                f"mode mismatch: {np.shape(cov0)[-1] // 2} vs {np.shape(cov1)[-1] // 2}"
            )
        size = len(cov0)
        cov = np.concatenate((cov0, cov1))
        w = williamson(cov)
        _check_physical(w.nu)
        trace = np.trace(cov, axis1=-2, axis2=-1)
        noise = 2.0 * np.finfo(float).eps * trace**2 / w.nu.sum(axis=-1)
        nu = np.where(np.abs(w.nu - 0.5) <= noise[:, None], 0.5, w.nu)
        self.n = nu.shape[-1]
        # Both states side by side: eigenvalues (x0, x1) taken at orders
        # (s, 1-s), whose s-derivatives carry the signs (+1, -1).
        self.x = 2.0 * np.concatenate((nu[:size], nu[size:]), axis=-1)
        self._sign = np.repeat((1.0, -1.0), self.n)
        # The symplectics mapping the diagonal form back to the covariance,
        # side by side: t is [T0 T1].
        t = symplectic_inverse(w.S)
        self.t = np.concatenate((t[:size], t[size:]), axis=-1)
        delta = np.sqrt(2.0) * _finite(mean0, cov0, mean1, cov1, "overlap")[0]
        self._rhs = np.concatenate((delta[..., None], self.t), axis=-1)

    def log_q_and_slope(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log Q_s and d/ds log Q_s at one s per pair."""
        log_g, lam = _factors(self.x, _orders(self._sign, s))
        d_sigma = (self._sign * lam[..., 1]).repeat(2, axis=-1)
        lam = lam[..., 0].repeat(2, axis=-1)
        chol = np.linalg.cholesky((self.t * lam[:, None, :]) @ np.swapaxes(self.t, -1, -2))
        sol = np.linalg.solve(chol, self._rhs)
        z, a = sol[..., 0], sol[..., 1:]
        w = (z[..., None] * a).sum(axis=-2)
        slope = (self._sign * log_g[..., 1]).sum(axis=-1)
        slope -= 0.5 * (((a * a).sum(axis=-2) - w * w) * d_sigma).sum(axis=-1)
        half_logdet = np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
        log_q = self.n * np.log(2.0) + log_g[..., 0].sum(axis=-1) - half_logdet
        log_q -= 0.5 * (z * z).sum(axis=-1)
        return log_q, slope


# --------------------------------------------------------------------------
# Closed forms of Q_s


def q_s_coherent_closed(s: float, kappa: float, n_b: float, n_s: float) -> float:
    """Closed-form Q_s for the coherent-transmitter pair (agnostic model).

    Pirandola & Lloyd, PRA 78, 012331 (2008).  With A = (N_B+1)^s,
    B = N_B^s, C = ((1-k)N_B + 1)^{1-s}, D = (1-k)^{1-s} N_B^{1-s}:

        Q_s = exp(-kappa N_S (A - B)(C - D) / (A C - B D)) / (A C - B D)

    where the denominator equals
    (1+N_B)(1 - kappa N_B/(1+N_B))^{1-s} - N_B (1-kappa)^{1-s}.
    At kappa = 0 the pair is degenerate and Q_s = 1.

    It is a valid reference on criterion 2's box (N_B <= 50,
    kappa >= 0.01).  At small kappa and large N_B, A C - B D cancels:
    relative errors of -log Q_{1/2} against `highprec` at N_S = 1e-4,
    N_B = 1e4 were

        kappa   closed form   q_s_general   dense route
        1e-2    1.4e-8        3.4e-11       7.2e-11
        1e-4    2.8e-4        1.2e-6        7.9e-7
        1e-6    15x           1.1e-2        5.0e-3
    """
    s = _check_s(s)
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    _check_nonnegative("n_b", n_b)
    _check_nonnegative("n_signal", n_s)
    a = (n_b + 1.0) ** s
    b = n_b**s
    c = ((1.0 - kappa) * n_b + 1.0) ** (1.0 - s)
    d = (1.0 - kappa) ** (1.0 - s) * n_b ** (1.0 - s)
    denom = a * c - b * d
    return float(np.exp(-kappa * n_s * (a - b) * (c - d) / denom) / denom)


def q_s_alt(rho0: GaussianState, rho1: GaussianState, s: float) -> float:
    """Q_s for zero-mean single-mode pairs from determinants alone.

    A single-mode covariance is cov = nu T T^T with nu = sqrt(det cov) and
    T symplectic, so the weighted sum of the overlap formula needs no
    Williamson step.  With x = 2 nu (clamped to x >= 1 only for rounding
    at pure states):

        F0 = ((x0+1)^s + (x0-1)^s)((x1+1)^{1-s} - (x1-1)^{1-s}) / 4
        F1 = F0 with (s, x0, x1) -> (1-s, x1, x0)
        Q_s = det(F0 cov0 / nu0 + F1 cov1 / nu1)^{-1/2}

    This is an identity, exact for every pair it accepts.
    """
    s = _check_s(s)
    if rho0.n_modes != 1 or rho1.n_modes != 1:
        raise ValueError("q_s_alt applies to single-mode states only")
    if np.abs(rho0.mean).max() > 1e-12 or np.abs(rho1.mean).max() > 1e-12:
        raise ValueError("q_s_alt applies to zero-mean states only")
    nu0, nu1 = np.sqrt(np.linalg.det(rho0.cov)), np.sqrt(np.linalg.det(rho1.cov))
    x0, x1 = max(2.0 * nu0, 1.0), max(2.0 * nu1, 1.0)

    def weight(p, xa, xb):
        return ((xa + 1.0) ** p + (xa - 1.0) ** p) * (
            (xb + 1.0) ** (1.0 - p) - (xb - 1.0) ** (1.0 - p)
        ) / 4.0

    m = weight(s, x0, x1) * rho0.cov / nu0 + weight(1.0 - s, x1, x0) * rho1.cov / nu1
    det = np.linalg.det(m)
    if det <= 0.0:
        raise ValueError("q_s_alt: weight matrix not positive definite")
    return float(det**-0.5)
