"""Independent code paths the tests check the package against.

``householder_frame`` is the phase-fixed Householder QR that drew the Haar
frame before the package took it by Cholesky QR (``haar.haar_frame``);
``haar_unitary`` applies it to the package's ``n x n`` Gaussian draw.
``renyi_entropy_factored`` evaluates the Renyi-alpha entropy through the
root factorization

    (nu+1)^alpha - (nu-1)^alpha
        = 2 alpha nu^zeta prod_{m=1}^{floor((alpha-1)/2)} (nu^2 + cot^2(pi m / alpha)),

with zeta = 1 for even alpha and 0 for odd, a cross-check of the direct
form in ``gbs_page.entropy``. ``build_W`` forms the full n x n matrix
W = Pi X Pi X^dag Pi (X = U U^T, Pi the projector onto the first k modes)
whose power traces ``trW_moments`` computes from its k x k corner.
``build_M`` and ``reduced_covariance_equal`` build the 2k x 2k reduced
covariance cosh(2s) I + sinh(2s) M of equal squeezing, whose
``symplectic_eigenvalues`` the Monte Carlo's equal-squeezing route
(``equal_squeezing_spectrum`` of the eigenvalues of W) must reproduce.
``symplectic_eigenvalues_eigh`` takes the symplectic spectrum through a
symmetric eigendecomposition, the matrix square root S and the Hermitian
eigenvalues of i S Omega S, and ``symplectic_eigenvalues_svd`` through
the Cholesky factor and every other singular value of L^T Omega L: two
cross-checks of the Cholesky and symmetric-eigensolve route of
``gbs_page.symplectic``. ``frame_transmissions`` takes the
transmission eigenvalues T = 1 - lambda from the W block of a Haar frame,
the law ``haar.jacobi_transmissions`` draws from directly.
``full_covariance_general`` builds the whole 2n x 2n pure state, which
``reduce_modes`` restricts to a mode set; ``purity_symmetry_check`` uses
both to compare the entropies of the two sides of a cut.
``bidiagonal_entropies_mpmath`` evaluates the equal-squeezing entropies of
a squared bidiagonal in 40-digit arithmetic from its eigenvalues and the
closed per-mode forms, the reference for the log-determinant route of
``gbs_page.entropy.bidiagonal_entropies``.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

from gbs_page.entropy import _as_spectrum, _check_alpha, renyi_entropy
from gbs_page.haar import _ginibre, haar_frame
from gbs_page.states import _power_sums, _w_block_eigenvalues
from gbs_page.symplectic import SYMMETRY_TOL, _physical_spectrum, symplectic_eigenvalues


def householder_frame(z: np.ndarray) -> np.ndarray:
    """Q of the thin Householder QR of z, each column rotated by the phase of R's diagonal.

    The rotation makes R's diagonal positive, so this is the Q of the one
    such QR of z; for a complex Gaussian z it is a Haar frame (Mezzadri,
    Notices AMS 54 (2007) 592).
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(n: int, master_seed: int, sample_index: int = 0) -> np.ndarray:
    """Draw an ``n x n`` Haar unitary: the Householder frame of the package's square draw."""
    return householder_frame(_ginibre(n, n, master_seed, sample_index))


def frame_transmissions(n: int, k: int, master_seed: int, sample_index: int = 0) -> np.ndarray:
    """The m = min(k, n - k) largest T = 1 - lambda of a Haar frame, ascending.

    lambda are the eigenvalues of x x^dag, x = F^T F, for the n x k frame
    F; the k - m values of T dropped here are zero up to rounding.
    """
    t = np.sort(1.0 - _w_block_eigenvalues(haar_frame(n, k, master_seed, sample_index)))
    return t[k - min(k, n - k):]


def symplectic_form(m: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form [[0, I], [-I, 0]] in xxpp ordering."""
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    return omega


@dataclass(frozen=True)
class SqueezingConfig:
    """Per-mode squeezing strengths of the input product state."""

    s: tuple[float, ...]

    def __post_init__(self):
        if len(self.s) == 0:
            raise ValueError("squeezing config needs at least one mode")
        if not all(np.isfinite(self.s)):
            raise ValueError("squeezing strengths must be finite")

    @classmethod
    def equal(cls, n: int, s: float) -> "SqueezingConfig":
        """All n modes squeezed with the same strength s."""
        if n < 1:
            raise ValueError(f"mode count must be >= 1, got {n}")
        return cls(s=(float(s),) * n)

    @property
    def n(self) -> int:
        return len(self.s)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.s, dtype=float)


def full_covariance_general(U: np.ndarray, cfg: SqueezingConfig) -> np.ndarray:
    """Full 2n x 2n output covariance for arbitrary per-mode squeezing.

    sigma = O D O^T with D = diag(e^{2 s_i}) (+) diag(e^{-2 s_i}) and
    O = [[Re U, -Im U], [Im U, Re U]] the orthogonal symplectic image of U,
    formed as H H^T with H = O D^{1/2} so that it is exactly symmetric.
    The global state is pure: det sigma = 1 and every symplectic eigenvalue
    equals one. Its first-k reduction is
    ``reduced_covariance_general(U[:k].T, cfg.s)``.

    At equal squeezing the first-k reduction of this matrix is
    cosh(2s) I + sinh(2s) M evaluated at conj(U); both orientation
    conventions define the same Haar ensemble.
    """
    n = U.shape[0]
    if cfg.n != n:
        raise ValueError(f"squeezing config has {cfg.n} modes, unitary has {n}")
    s = cfg.as_array()
    half = np.block([[U.real, -U.imag], [U.imag, U.real]]) * np.exp(np.concatenate([s, -s]))
    return half @ half.T


def reduce_modes(sigma: np.ndarray, mode_set) -> np.ndarray:
    """Restrict a covariance matrix to the given modes, keeping xxpp order."""
    m = sigma.shape[0] // 2
    if sigma.shape != (2 * m, 2 * m):
        raise ValueError(f"covariance matrix must be 2m x 2m, got {sigma.shape}")
    modes = np.asarray(list(mode_set), dtype=int)
    if modes.size != np.unique(modes).size:
        raise ValueError("mode indices must be distinct")
    if modes.size and (modes.min() < 0 or modes.max() >= m):
        raise ValueError(f"mode index out of range [0, {m})")
    idx = np.concatenate([modes, modes + m]) if modes.size else np.empty(0, dtype=int)
    return sigma[np.ix_(idx, idx)]


def purity_symmetry_check(U: np.ndarray, squeezing, k: int, alphas=(1, 2, 3), tol: float = 1e-8) -> bool:
    """Check that the k-mode and (n-k)-mode reductions give equal entropies.

    Both reductions are taken from the same full pure-state covariance, so
    equality is a purity requirement, not a statistical statement. k may be
    0 or n; the empty reduction has entropy zero.
    """
    n = U.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"subsystem size k={k} out of range [0, {n}]")
    cfg = (
        SqueezingConfig.equal(n, float(squeezing))
        if np.ndim(squeezing) == 0
        else SqueezingConfig(s=tuple(float(x) for x in squeezing))
    )
    sigma = full_covariance_general(U, cfg)
    sides = []
    for modes in (range(k), range(k, n)):
        modes = list(modes)
        if not modes:
            sides.append({a: 0.0 for a in alphas})
            continue
        nu = symplectic_eigenvalues(reduce_modes(sigma, modes))
        sides.append({a: renyi_entropy(nu, a) for a in alphas})
    return all(abs(sides[0][a] - sides[1][a]) <= tol for a in alphas)


def _check_k(U: np.ndarray, k: int) -> None:
    n = U.shape[0]
    if U.ndim != 2 or U.shape[1] != n:
        raise ValueError(f"expected a square unitary, got shape {U.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"subsystem size k={k} out of range [1, {n}]")


def renyi_entropy_factored(nu, alpha: int) -> float:
    """Renyi-alpha entropy (alpha >= 2) through the cotangent root factorization."""
    alpha = _check_alpha(alpha, 2)
    arr = _as_spectrum(nu)
    if arr.size == 0:
        return 0.0
    zeta = 1 - (alpha % 2)
    a = (alpha - 1) // 2
    per_mode = np.full(arr.shape, np.log(alpha))
    if zeta:
        per_mode += np.log(arr)
    if a:
        m = np.arange(1, a + 1)
        cot2 = 1.0 / np.tan(np.pi * m / alpha) ** 2
        per_mode += np.sum(np.log(arr[:, None] ** 2 + cot2[None, :]), axis=1)
    return float(np.sum(per_mode / (alpha - 1) - np.log(2.0)))


def build_W(U: np.ndarray, k: int) -> np.ndarray:
    """Hermitian PSD matrix W = Pi X Pi X^dag Pi, X = U U^T, as n x n array.

    Rank is at most k; eigenvalues lie in [0, 1]; Tr W^i = Tr M^{2i} / 2.
    """
    _check_k(U, k)
    n = U.shape[0]
    x = (U @ U.T)[:k, :k]
    w = np.zeros((n, n), dtype=complex)
    w[:k, :k] = x @ x.conj().T
    return w


def build_M(U: np.ndarray, k: int) -> np.ndarray:
    """Anticommuting block matrix of the k-mode reduced covariance.

    M = [[Re A, Im A], [Im A, -Re A]] with A the top-left k x k block of
    conj(U) U^dag = conj(U U^T). It is symmetric, anticommutes with the
    symplectic form, has eigenvalues in [-1, 1], and its odd power traces
    vanish.
    """
    _check_k(U, k)
    a = np.conj(U @ U.T)[:k, :k]
    return np.block([[a.real, a.imag], [a.imag, -a.real]])


def reduced_covariance_equal(U: np.ndarray, s: float, k: int) -> np.ndarray:
    """Covariance matrix of the first k output modes at equal squeezing s.

    Returns cosh(2s) I_{2k} + sinh(2s) M(U, k); the full 2n x 2n state never
    needs to be formed on this path.
    """
    _check_k(U, k)
    if not np.isfinite(s):
        raise ValueError("squeezing strength must be finite")
    return np.cosh(2 * s) * np.eye(2 * k) + np.sinh(2 * s) * build_M(U, k)


def trW_moments(U: np.ndarray, k: int, max_power: int) -> np.ndarray:
    """Power traces Tr W^i for i = 1..max_power.

    Computed as power sums of the eigenvalues of the k x k Hermitian corner
    of W, so the cost is a single eigensolve regardless of max_power.
    """
    _check_k(U, k)
    if max_power < 1:
        raise ValueError(f"max_power must be >= 1, got {max_power}")
    return _power_sums(_w_block_eigenvalues(U[:k].T), max_power)


def symplectic_eigenvalues_eigh(sigma: np.ndarray) -> np.ndarray:
    """Positive symplectic spectrum, descending, through Hermitian eigensolves.

    Diagonalize sigma (symmetric positive definite), form its square root S,
    and take the eigenvalues of the Hermitian matrix i S Omega S, which is
    similar to i Omega sigma. Raises ValueError on the same inputs as
    ``gbs_page.symplectic.symplectic_eigenvalues`` is meant to.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError(f"covariance matrix must be 2m x 2m, got {sigma.shape}")
    m = sigma.shape[0] // 2
    if m == 0:
        return np.empty(0)
    scale = max(1.0, np.abs(sigma).max())
    asym = np.abs(sigma - sigma.T).max()
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"covariance matrix not symmetric: max asymmetry {asym:.3e}")
    w, v = np.linalg.eigh(sigma)
    if w.min() <= 0:
        raise ValueError(f"covariance matrix not positive definite: min eig {w.min():.3e}")
    sqrt_sigma = (v * np.sqrt(w)) @ v.T
    ev = np.linalg.eigvalsh(1j * sqrt_sigma @ symplectic_form(m) @ sqrt_sigma)
    return _physical_spectrum(ev[m:][::-1].copy())  # positive half, descending


def symplectic_eigenvalues_svd(sigma: np.ndarray) -> np.ndarray:
    """Positive symplectic spectrum, descending, through a values-only real SVD.

    Factor sigma = L L^T and take every other singular value of the real
    antisymmetric A = L^T Omega L (each nu_j appears twice). This was the
    package's route before it took the eigenvalues of A^T A instead; it
    raises ValueError on the same inputs.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise ValueError(f"covariance matrix must be 2m x 2m, got {sigma.shape}")
    m = sigma.shape[0] // 2
    if m == 0:
        return np.empty(0)
    if not np.all(np.isfinite(sigma)):
        raise ValueError("covariance matrix must be finite")
    scale = max(1.0, np.abs(sigma).max())
    asym = np.abs(sigma - sigma.T).max()
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"covariance matrix not symmetric: max asymmetry {asym:.3e}")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix not positive definite (no Cholesky factor)") from exc
    a = chol.T @ np.vstack([chol[m:], -chol[:m]])
    return _physical_spectrum(np.linalg.svd(a, compute_uv=False)[0::2])


def bidiagonal_entropies_mpmath(diag, sup, s: float, alphas, dps: int = 40) -> dict[int, float]:
    """Entropies at equal squeezing s of one squared bidiagonal, in ``dps`` digits.

    The float entries are taken exactly; T are the eigenvalues of the
    tridiagonal B^T B (``mpmath.eigsy``) and nu_j = sqrt(1 + sinh^2(2s) T_j).
    """
    with mpmath.workdps(dps):
        m = len(diag)
        gram = mpmath.matrix(m, m)
        for i in range(m):
            gram[i, i] = mpmath.mpf(diag[i]) + (mpmath.mpf(sup[i - 1]) if i else 0)
            if i:
                gram[i, i - 1] = gram[i - 1, i] = mpmath.sqrt(
                    mpmath.mpf(diag[i - 1]) * mpmath.mpf(sup[i - 1]))
        t = mpmath.eigsy(gram, eigvals_only=True) if m else []
        c = mpmath.sinh(2 * mpmath.mpf(s)) ** 2
        nus = [mpmath.sqrt(1 + c * max(tj, 0)) for tj in t]
        out = {}
        for alpha in alphas:
            total = mpmath.mpf(0)
            for nu in nus:
                if alpha == 1:
                    total += (nu + 1) / 2 * mpmath.log((nu + 1) / 2)
                    if nu > 1:
                        total -= (nu - 1) / 2 * mpmath.log((nu - 1) / 2)
                else:
                    total += mpmath.log(((nu + 1) ** alpha - (nu - 1) ** alpha)
                                        / 2 ** alpha) / (alpha - 1)
            out[alpha] = float(total)
        return out
