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
``w_block_eigenvalues`` is the nonzero spectrum of W from a frame.
``build_M`` and ``reduced_covariance_equal`` build the 2k x 2k reduced
covariance cosh(2s) I + sinh(2s) M of equal squeezing, whose
``symplectic_eigenvalues`` the eigenvalue route of equal squeezing
(``equal_squeezing_spectrum`` of the transmissions T = 1 - lambda) must
reproduce; that route is in turn the oracle of the Monte Carlo's
log-determinants.
``symplectic_eigenvalues_eigh`` takes the symplectic spectrum through a
symmetric eigendecomposition, the matrix square root S and the Hermitian
eigenvalues of i S Omega S, and ``symplectic_eigenvalues_svd`` through
the Cholesky factor and every other singular value of L^T Omega L: two
cross-checks of the Cholesky and symmetric-eigensolve route of
``gbs_page.symplectic``. ``jacobi_transmissions`` takes the transmission
eigenvalues T = 1 - lambda of the sampler's own Jacobi draw from a dense
eigensolve of its tridiagonal B11^T B11, the Monte Carlo's agreement
oracle; ``jacobi_trace_powers`` takes the ``power_sums`` of 1 - T, the
traces Tr W^i of the sampler's own draws; ``frame_transmissions`` takes the T from
the W block of a Haar frame, the law that draw follows.
``full_covariance_general`` builds the whole 2n x 2n pure state, which
``reduce_modes`` restricts to a mode set; ``purity_symmetry_check`` uses
both to compare the entropies of the two sides of a cut.
``bidiagonal_entropies_mpmath`` evaluates the equal-squeezing entropies of
a squared bidiagonal in 40-digit arithmetic from its eigenvalues and the
closed per-mode forms, the reference for the log-determinant route of
``gbs_page.entropy.bidiagonal_entropies``. ``cholesky_qr_frame_inv`` is
the Cholesky-QR frame through the LU inverse of each factor, and
``gram_full_product`` the Gram matrix A^T A from the full products
L^T (Omega L) and A^T A: the per-mode sample's routes before the blocked
triangular solve and the block-wise A^T A of ``gbs_page``.
``reduced_covariance_rows`` fills the ``2k x 2n`` factor H of the per-mode
covariance from the transposed frame and forms H H^T, the construction
before ``states.reduced_covariance_general`` filled H^T in the frame's
layout.
``page_average_two_pass`` is the analytic average as adaptive
Gauss-Legendre quadrature in theta, the route before ``pagecurve`` took it
in closed form: rules of 32, 64, ... nodes compared pairwise until two
differ by at most ``tol`` (``trunc_err``), with its own rule and node
constants. ``page_average_mpmath`` is the same integral of the closed
per-mode entropies in mpmath arithmetic throughout.
``s2_variance_identity_loop`` compares Var(S_2) with its expansion in the
trace covariances V_d on one run: S_2 from ``run_experiment``, the traces
of the same samples from ``jacobi_trace_powers``, and one ``np.cov`` and
Python sum per resample (``vd_from_trw_loop``). ``page_variance_dct`` is
the variance's leading term from the cosine coefficients of the entropy's
integrand, a second route to ``pagecurve.page_variance``.
``page_average_shift_logs`` is the closed-form average as ``pagecurve``
evaluated it before its evaluators read the rule's node constants: one
formula body per shift (``shift_logs``), summed over Python float pairs
(``float_terms``) or numpy arrays (``array_terms``) whose large-root
branch forms 1/y and ln y at every node, with the same checks and
refusal messages and no memo. ``realized_ratio`` is the (k/n, reduced
ratio) pair of a query, which that average and the quadrature read.
``page_variance_full`` is ``pagecurve.page_variance`` with every pair
(j, k) of the rule in one array and w^T L w taken once, before it summed
w^T L a block of rows at a time and skipped the values that underflow.
``master_rule`` is an order's shift rule as ``entropy`` built it before it
built one rule per node count: order 1 as one master table of every node
any c takes, with running node sums at every count (``running_sums``, the
TwoSum-corrected cumulative sums ``entropy`` took before it took
``math.fsum``), cut at c.
"""

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.fft

from gbs_page.entropy import (
    _FLOAT_SHIFTS,
    _MAX_SQUEEZING,
    _VN_STEP,
    _as_spectrum,
    _check_alpha,
    _check_squeezing,
    _mode_count,
    _order_rule,
    _side,
    _squeezing_limit,
    _von_neumann_count,
    renyi_entropy,
    renyi_mode_entropy,
)
from gbs_page.haar import _bidiagonal_squares, _ginibre, haar_frame
from gbs_page.montecarlo import ExperimentPlan, run_experiment
from gbs_page.pagecurve import (
    ASYMPTOTIC,
    DEFAULT_TOL,
    ROUNDING,
    PageCurveValue,
    _check_ratio,
    _check_tol,
)
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


def w_block_eigenvalues(frame: np.ndarray) -> np.ndarray:
    """Nonzero spectrum of W, ascending, from the n x k frame F = U_k^T.

    One Hermitian eigensolve of x x^dag with x = F^T F = U_k U_k^T.
    """
    x = frame.T @ frame
    return np.linalg.eigvalsh(x @ x.conj().T)


def jacobi_transmissions(
    n: int, k: int, master_seed: int, sample_index: int | Sequence[int] = 0
) -> np.ndarray:
    """Draw the m = min(k, n - k) transmission eigenvalues T of a Haar U, ascending.

    With U_k the first k rows of an ``n x n`` Haar unitary, x = U_k U_k^T is
    the k x k corner of the COE matrix U U^T, and the eigenvalues of
    x x^dag are 1 - T for the m values T plus 2k - n exact ones when
    k > n/2. The T are the transmission eigenvalues of a beta = 1
    scattering matrix: a real Jacobi ensemble with weight
    T^{(|n - 2k| - 1)/2} (Beenakker, RMP 69 (1997) 731), and the squared
    singular values of the bidiagonal B11 that ``haar._bidiagonal_squares``
    draws; this takes them from one stacked ``eigvalsh`` of the dense
    tridiagonals B11^T B11, with diagonal diag_i + sup_{i-1} and
    off-diagonal sqrt(diag_i sup_i) (its sign does not change the
    eigenvalues). The Monte Carlo needs no eigenvalues: it takes
    log-determinants and traces of powers of the same B11.

    ``sample_index`` is one index, giving shape ``(m,)``, or a sequence of
    indices, giving ``(len, m)``: each row is drawn from its own index's
    stream and solved by its own LAPACK call, so it equals the one-index
    draw bit for bit. The rows are empty when m = 0.
    """
    diag, sup = _bidiagonal_squares(n, k, master_seed, sample_index)
    rows, m = diag.shape
    d = np.arange(m)
    gram = np.zeros((rows, m, m))
    gram[:, d, d] = diag
    gram[:, d[1:], d[1:]] += sup
    gram[:, d[1:], d[:-1]] = np.sqrt(diag[:, :-1] * sup)  # lower triangle, the one eigvalsh reads
    t = np.linalg.eigvalsh(gram)
    return t if np.ndim(sample_index) else t[0]


def out_of_range_bidiagonal_squares(n: int, k: int, master_seed: int, sample_index):
    """A test double of ``haar._bidiagonal_squares`` whose every row leaves [0, 1].

    Each row's first squared diagonal entry is 1.5, so the first sample of
    every block fails numerically.
    """
    diag, sup = _bidiagonal_squares(n, k, master_seed, sample_index)
    diag[:, 0] = 1.5
    return diag, sup


def power_sums(lam: np.ndarray, max_power: int) -> np.ndarray:
    """sum_j lam_j^i for i = 1..max_power, over the last axis of lam."""
    return np.sum(lam[..., None, :] ** np.arange(1, max_power + 1)[:, None], axis=-1)


def jacobi_trace_powers(plan: ExperimentPlan, max_power: int) -> np.ndarray:
    """Tr W^i, i = 1..max_power, of each sample of the plan, one eigensolve per sample.

    W has the eigenvalues lambda = 1 - T of the sample's
    ``jacobi_transmissions`` and k - m ones.
    """
    rows = []
    for index in range(plan.n_samples):
        t = jacobi_transmissions(plan.n, plan.k, plan.master_seed, index)
        rows.append(power_sums(np.concatenate([1.0 - t, np.ones(plan.k - t.size)]), max_power))
    return np.array(rows)


def frame_transmissions(n: int, k: int, master_seed: int, sample_index: int = 0) -> np.ndarray:
    """The m = min(k, n - k) largest T = 1 - lambda of a Haar frame, ascending.

    lambda are the eigenvalues of x x^dag, x = F^T F, for the n x k frame
    F; the k - m values of T dropped here are zero up to rounding.
    """
    t = np.sort(1.0 - w_block_eigenvalues(haar_frame(n, k, master_seed, sample_index)))
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


def reduced_covariance_rows(frame: np.ndarray, s) -> np.ndarray:
    """Per-mode reduced covariance H H^T, with H (``2k x 2n``) filled from ``frame.T``."""
    n, k = frame.shape
    u = frame.T
    s = np.asarray(s, dtype=float)
    grow, shrink = np.exp(s), np.exp(-s)
    half = np.empty((2 * k, 2 * n))
    np.multiply(u.real, grow, out=half[:k, :n])
    np.multiply(u.imag, -shrink, out=half[:k, n:])
    np.multiply(u.imag, grow, out=half[k:, :n])
    np.multiply(u.real, shrink, out=half[k:, n:])
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


def equal_squeezing_spectrum(t: np.ndarray, k: int, s: float) -> np.ndarray:
    """Symplectic spectrum of k modes at equal squeezing s from transmissions t.

    ``t`` holds the m <= k transmission eigenvalues T_j (the eigenvalues
    of W are 1 - T_j and k - m ones). nu_j = sqrt(1 + sinh^2(2s) T_j) for
    those m, which needs no cancellation at strong squeezing, and exactly
    1.0 for the other k - m modes. Sorted descending and checked like
    ``symplectic_eigenvalues``; a non-finite s or T_j raises ValueError.
    """
    if not np.isfinite(s):
        raise ValueError("squeezing strength must be finite")
    t = np.sort(np.asarray(t, dtype=float))[::-1]
    if t.ndim != 1 or t.size > k:
        raise ValueError(f"need at most k={k} transmission eigenvalues, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("transmission eigenvalues must be finite")
    nu = np.ones(k)
    nu[: t.size] = np.sqrt(np.maximum(1.0 + np.sinh(2 * s) ** 2 * t, 0.0))
    return _physical_spectrum(nu)


def trW_moments(U: np.ndarray, k: int, max_power: int) -> np.ndarray:
    """Power traces Tr W^i for i = 1..max_power.

    Computed as power sums of the eigenvalues of the k x k Hermitian corner
    of W, so the cost is a single eigensolve regardless of max_power.
    """
    _check_k(U, k)
    if max_power < 1:
        raise ValueError(f"max_power must be >= 1, got {max_power}")
    return power_sums(w_block_eigenvalues(U[:k].T), max_power)


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


def cholesky_qr_frame_inv(z: np.ndarray) -> np.ndarray:
    """Cholesky-QR frame of z with the general LU inverse of each pass's factor.

    Q = Z inv(L)^dag with L the Cholesky factor of Z^dag Z, one pass for
    k <= n/2 and two above: the route of ``haar.haar_frame`` before it
    solved Q L^dag = Z by blocks.
    """
    n, k = z.shape
    q = z
    for _ in range(1 if 2 * k <= n else 2):
        chol = np.linalg.cholesky(q.conj().T @ q)
        q = q @ np.linalg.inv(chol).conj().T
    return q


def gram_full_product(sigma: np.ndarray) -> np.ndarray:
    """A^T A of A = L^T Omega L, with L = cholesky(sigma), from full 2m x 2m products.

    The route of ``symplectic._gram`` before it formed A^T A from the
    m x m blocks of L (without its input checks).
    """
    m = sigma.shape[0] // 2
    chol = np.linalg.cholesky(sigma)
    a = chol.T @ np.vstack([chol[m:], -chol[:m]])
    return a.T @ a


# Node count of the first quadrature estimate; each further one doubles it.
FIRST_NODES = 32

# Largest node count. At r near 1/2 and strong squeezing the integrand
# varies in a layer of width about 2/sinh(2s) at theta = pi, which
# Gauss-Legendre nodes do not reach: von Neumann at n = 2000, r = 1/2,
# s = 10 misses the default tolerance here by 0.0018 on a value of 1.9e4.
MAX_NODES = 1024

# A tolerance below this many float64 spacings of the value is refused as
# being at the value's resolution rather than as unsettled quadrature.
RESOLUTION_ULPS = 256


@functools.lru_cache(maxsize=None)
def _theta_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on (0, pi): (cos^2(theta/2), weights)."""
    x, w = np.polynomial.legendre.leggauss(m)
    return np.cos(0.25 * np.pi * (x + 1.0)) ** 2, 0.5 * np.pi * w


def page_average_two_pass(alpha, n, s: float, r: float,
                          tol: float = DEFAULT_TOL) -> PageCurveValue:
    """The analytic average by adaptive Gauss-Legendre quadrature in theta.

    With l = c (1 - cos theta)/2 the integral runs over theta in (0, pi)
    with the smooth integrand (f(0) - f(l)) c (1 + cos theta) / (4 pi (1 - l)),
    1 - l = (1 - 2 rq)^2 + c cos^2(theta/2) formed without cancellation.
    f(0), f(c) and the rules of 32, 64, ... nodes are evaluated one call at
    a time; the finer of two successive estimates is returned once they
    differ by at most ``tol``, and that difference is ``trunc_err``.
    Raises ValueError where the rules do not settle within ``MAX_NODES``.
    """
    alpha = _check_alpha(alpha)
    r = _check_ratio(r)
    tol = _check_tol(tol)
    if not np.isfinite(s):
        raise ValueError(f"squeezing strength must be finite, got {s!r}")
    realized, rq = realized_ratio(n, r)
    if s == 0 or rq == 0:
        return PageCurveValue(0.0, 0, 0.0, realized)
    with np.errstate(over="ignore"):
        sinh2 = np.sinh(2.0 * s) ** 2
    if not np.isfinite(sinh2):
        raise ValueError(f"squeezing strength {s!r} is beyond the float64 range of the "
                         f"average: sinh^2(2s) overflows above |s| = {_MAX_SQUEEZING:.2f}")
    c = 4.0 * rq * (1.0 - rq)
    gap = (1.0 - 2.0 * rq) ** 2  # 1 - c, the smallest 1 - l

    def f(one_minus_l):
        return renyi_mode_entropy(np.sqrt(1.0 + sinh2 * one_minus_l), alpha)

    f0 = f(1.0)
    scale = 1.0 if n is ASYMPTOTIC else float(n)
    edge = 0.0 if n is ASYMPTOTIC else 0.25 * (f0 - f(gap))

    def estimate(m):
        cos2, weights = _theta_rule(m)
        one_minus_l = gap + c * cos2
        density = c * cos2 / (2.0 * np.pi * one_minus_l)
        integral = weights @ ((f0 - f(one_minus_l)) * density)
        return scale * (rq * f0 - integral) - edge

    m = FIRST_NODES
    coarse = estimate(m)
    while m < MAX_NODES:
        m *= 2
        fine = estimate(m)
        err = abs(fine - coarse)
        if err <= tol:
            return PageCurveValue(float(fine), m, float(err), realized)
        coarse = fine
    if tol < RESOLUTION_ULPS * np.spacing(abs(fine)):
        reason = "it is near the float64 resolution of this value, request a larger one"
    else:
        reason = f"the quadrature did not settle within {MAX_NODES} nodes"
    raise ValueError(f"tolerance {tol:.3g} not met (last change {err:.3g} on a value of "
                     f"{abs(fine):.6g}): {reason}")


def _mode_entropy_mpmath(alpha: int, sinh2, t):
    """Order-alpha entropy of one mode with nu^2 = 1 + sinh2 t, in mpmath, from positive terms.

    With a = (nu - 1)/2, formed without cancellation, (nu + 1)/2 = 1 + a and
    ((nu+1)^alpha - (nu-1)^alpha) / 2^alpha = sum_{j<alpha} (1 + a)^(alpha-1-j) a^j,
    which less 1 is expm1((alpha - 1) log1p(a)) plus the terms j >= 1; order
    1 is ln(1 + a) + a ln(1 + 1/a). Nothing cancels at weak or at strong
    squeezing, so the working precision needs no further digits.
    """
    nu = mpmath.sqrt(1 + sinh2 * t)
    a = sinh2 * t / (2 * (nu + 1))
    if alpha > 1:
        rest = mpmath.expm1((alpha - 1) * mpmath.log1p(a)) + mpmath.fsum(
            (1 + a) ** (alpha - 1 - j) * a**j for j in range(1, alpha))
        return mpmath.log1p(rest) / (alpha - 1)
    if a == 0:
        return mpmath.mpf(0)
    return mpmath.log1p(a) + a * mpmath.log1p(1 / a)


def page_average_mpmath(alpha, n, s: float, r: float, dps: int = 50):
    """The analytic average as a ``dps``-digit integral against the spectral law.

    E S = n int f(l) rho(l) dl - [f(0) - f(c)]/4, per mode for
    n = ASYMPTOTIC, at the realized k/n as an exact fraction; f is the
    closed per-mode entropy at nu(l) as a sum of positive terms, so no
    further digits are needed at strong squeezing. The integral
    runs in w = ln phi, phi = pi - theta, so that 1 - l = g^2 + c sin^2(phi/2):
    the layer of width about 2/sinh(2s) in which nu -> 1 at r = 1/2 is an
    interval of length one in w, and tanh-sinh takes the w range in pieces
    of length about 6. Returns an mpmath number.
    """
    with mpmath.workdps(dps):
        if n is ASYMPTOTIC:
            rq = mpmath.mpf(min(r, 1.0 - r))
        else:
            k = round(r * n)
            rq = mpmath.mpf(min(k, n - k)) / n
        c = 4 * rq * (1 - rq)
        g2 = (1 - 2 * rq) ** 2
        sinh2 = mpmath.sinh(2 * mpmath.mpf(s)) ** 2

        def integrand(w):
            phi = mpmath.exp(w)
            q = mpmath.sin(phi / 2) ** 2
            t = g2 + c * q
            return _mode_entropy_mpmath(alpha, sinh2, t) * c * q * phi / (2 * mpmath.pi * t)

        # Below the layer the integrand falls like phi^3, so dps units of w
        # further down leave out less than 10^-dps.
        low = min(mpmath.log(2 / mpmath.sqrt(c * sinh2)), 0) - dps - 5
        high = mpmath.log(mpmath.pi)
        pieces = int((high - low) / 6) + 1
        per_mode = mpmath.quad(integrand, [low + (high - low) * i / pieces
                                           for i in range(pieces + 1)])
        if n is ASYMPTOTIC:
            return +per_mode
        edge = (_mode_entropy_mpmath(alpha, sinh2, 1) - _mode_entropy_mpmath(alpha, sinh2, g2)) / 4
        return n * per_mode - edge


def vd_from_trw_loop(trw: np.ndarray, d_max: int) -> np.ndarray:
    """Plug-in covariance combinations V_d, d = 2..d_max, from (N, d_max-1) traces."""
    cov = np.atleast_2d(np.cov(trw, rowvar=False, ddof=1))
    out = np.zeros(d_max - 1)
    for d in range(2, d_max + 1):
        out[d - 2] = sum(cov[ell - 1, d - ell - 1] / (ell * (d - ell)) for ell in range(1, d))
    return out


def s2_variance_identity_loop(n: int, r: float, s: float, d_max: int, n_samples: int,
                              seed: int, n_boot: int = 2000) -> dict:
    """Compare Var(S_2) against its trace-covariance expansion on one run.

    The exact per-sample identity S_2 = sum_i tanh^{2i}(2s)/(2i) (k - Tr W^i)
    implies Var(S_2) = (1/4) sum_{d>=2} tanh^{2d}(2s) V_d. Both sides are
    estimated from the same samples, each with its own percentile bootstrap
    CI (``n_boot`` resamples), and ``consistent`` reports whether the two
    intervals overlap. The d_max cut biases the model low by a relative
    O(tanh^{2(d_max+1)}(2s)).
    """
    plan = ExperimentPlan.from_ratio(n=n, r=r, squeezing=float(s), alphas=(2,),
                                     n_samples=n_samples, master_seed=seed)
    s2 = run_experiment(plan)[0][:, 0]
    trw = jacobi_trace_powers(plan, d_max - 1)
    weights = 0.25 * (np.tanh(2.0 * s) ** 2) ** np.arange(2, d_max + 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0xD1FF,))))
    stats = []
    for _ in range(n_boot):
        idx = rng.integers(0, plan.n_samples, plan.n_samples)
        stats.append((s2[idx].var(ddof=1), weights @ vd_from_trw_loop(trw[idx], d_max)))
    var_ci, model_ci = (tuple(float(x) for x in ci)
                        for ci in np.percentile(np.array(stats), (2.5, 97.5), axis=0).T)
    return {
        "variance": float(s2.var(ddof=1)),
        "model": float(weights @ vd_from_trw_loop(trw, d_max)),
        "variance_ci": var_ci,
        "model_ci": model_ci,
        "consistent": var_ci[0] <= model_ci[1] and model_ci[0] <= var_ci[1],
    }


def page_variance_dct(alpha, s: float, r: float, nodes: int = 4096) -> float:
    """The variance's leading term, (1/2) sum_k k a_k^2, from a cosine transform.

    a_k are the cosine coefficients of f(theta) = sum_j w_j ln(1 + x_j (1 - l))
    at l = c (1 - cos theta)/2, the entropy as a function of one eigenvalue of
    the limiting law, taken by a type-II DCT at ``nodes`` midpoints; (1/2)
    sum_k k a_k^2 is the beta = 1 Jacobi linear-statistics variance
    (Johansson, Duke Math. J. 91 (1998) 151).
    """
    rq = min(r, 1.0 - r)
    c = 4.0 * rq * (1.0 - rq)
    sinh = abs(np.sinh(2.0 * s))
    rule = _order_rule(alpha, sinh * sinh)
    factors, weights = rule.factors, rule.weights
    theta = np.pi * (np.arange(nodes) + 0.5) / nodes
    shifts = (sinh * factors) ** 2
    f = np.log1p(np.multiply.outer(1.0 - 0.5 * c * (1.0 - np.cos(theta)), shifts)) @ weights
    a = scipy.fft.dct(f, type=2) / nodes
    return 0.5 * float(np.arange(1, nodes) @ a[1:] ** 2)


def realized_ratio(n, r: float) -> tuple[float, float]:
    """Requested ratio -> (realized k/n, reduced min(k, n-k)/n), the latter from the integers."""
    if n is ASYMPTOTIC:
        return r, min(r, 1.0 - r)
    n = _mode_count(n)
    k = _side(r, n)
    return k / n, min(k, n - k) / n


def _rule_constants(smallest_root, rq, g, c):
    return smallest_root < 1.0, 1.0 - 0.5 * c, g, g * g, 2.0 * rq * rq, c


def _root_terms(y, g, lib):
    v = 1.0 / y
    h_1 = lib.hypot(1.0, v)
    h_g = lib.hypot(g, v)
    return h_1, h_g, v * v + h_1 * h_g


def shift_logs(y, constants, lib):
    """ln A, ln(1 + rq^2 x / B) and ln((1 + x) / (1 + g^2 x)) at the shift roots y = sqrt(x).

    ``y`` is a Python float with ``lib = math`` or an array with ``lib = numpy``.
    """
    small, p, g, g2, q, c = constants
    if small:
        x = y * y
        one_g2x = 1.0 + g2 * x
        s_plus = lib.sqrt((1.0 + x) * one_g2x) + 1.0  # S + 1
        return (lib.log1p(0.5 * x * (p + (one_g2x + g2) / s_plus)),
                lib.log1p(q * x / (s_plus + g * x)),
                lib.log1p(c * x / one_g2x))
    h_1, h_g, vs = _root_terms(y, g, lib)
    return (2.0 * lib.log(y) + lib.log(0.5 * (vs + p)),
            lib.log1p(q / (vs + g)),
            2.0 * lib.log1p(c / (h_g * (h_1 + h_g))))


def array_terms(factors, weights, sinh, rq, g, c):
    """The three weighted sums of ``shift_logs`` over the rule's arrays, in numpy."""
    y = sinh * factors
    logs = shift_logs(y, _rule_constants(y[0], rq, g, c), np)
    return tuple(weights.dot(term) for term in logs)


def float_terms(pairs, sinh, rq, g, c):
    """``array_terms`` shift by shift over the rule's (a_j, w_j) float pairs, in ``math``."""
    constants = _rule_constants(sinh * pairs[0][0], rq, g, c)
    log_a = log_ratio = edge = 0.0
    for a, w in pairs:
        term_a, term_ratio, term_edge = shift_logs(sinh * a, constants, math)
        log_a += w * term_a
        log_ratio += w * term_ratio
        edge += w * term_edge
    return log_a, log_ratio, edge


# Longest rule that ``page_average_shift_logs`` sums in Python floats.
FLOAT_SHIFTS = 24


def page_average_shift_logs(alpha, n, s: float, r: float,
                            tol: float = DEFAULT_TOL) -> PageCurveValue:
    """``pagecurve.page_average`` through ``float_terms`` and ``array_terms``, unmemoised."""
    alpha = _check_alpha(alpha)
    r = _check_ratio(r)
    tol = _check_tol(tol)
    s = _check_squeezing(s, _squeezing_limit(1, alpha == 1))
    realized, rq = realized_ratio(n, r)
    if s == 0 or rq == 0:
        return PageCurveValue(0.0, 0, 0.0, realized)
    sinh = abs(math.sinh(2.0 * s))
    rule = _order_rule(alpha, sinh * sinh)
    g = 1.0 - 2.0 * rq
    c = 4.0 * rq * (1.0 - rq)
    if len(rule.weights) <= FLOAT_SHIFTS:
        log_a, log_ratio, edge = float_terms(rule.pairs, sinh, rq, g, c)
    else:
        log_a, log_ratio, edge = array_terms(rule.factors, rule.weights, sinh, rq, g, c)
    per_mode = float(rq * log_a + g * log_ratio)
    nodes = len(rule.weights) if alpha == 1 else 0
    if n is ASYMPTOTIC:
        scale, edge = 1.0, 0.0
    else:
        scale = float(n)
    value = scale * per_mode - 0.25 * edge
    if math.isinf(value):
        raise ValueError(f"the average at n = {scale:.6g} is beyond float64: "
                         f"n times its per-mode value {per_mode:.6g} overflows")
    err = ROUNDING * (scale * per_mode + 0.25 * edge)
    if tol < err:
        raise ValueError(f"tolerance {tol:.3g} is below the float64 resolution of this value "
                         f"({value:.6g}, error bound {err:.3g}): request a larger one")
    return PageCurveValue(float(value), nodes, float(err), realized)


def page_variance_full(alpha, s: float, r: float) -> float:
    """The variance's leading term -2 w^T L w, L_jk = ln(1 - rho_j rho_k), with L formed whole."""
    alpha = _check_alpha(alpha)
    rq = min(r, 1.0 - r)
    if s == 0 or rq == 0:
        return 0.0
    sinh = abs(math.sinh(2.0 * s))
    rule = _order_rule(alpha, sinh * sinh)
    g = 1.0 - 2.0 * rq
    c = 4.0 * rq * (1.0 - rq)
    p = 1.0 - 0.5 * c
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, _, vs = _root_terms(sinh * rule.factors, g, np)
        rho = c / (2.0 * (vs + p))
        comp = (vs + g * g) / (vs + p)
        # L filled a row at a time, each entry the float of L formed in one
        # expression, so that an order of thousands holds L and no more.
        logs = np.empty((len(rho), len(rho)))
        for j, (rho_j, comp_j) in enumerate(zip(rho, comp)):
            prod = rho_j * rho
            logs[j] = np.where(prod <= 0.5, np.log1p(-prod), np.log(comp_j + rho_j * comp))
    return 0.0 - 2.0 * float(rule.weights @ logs @ rule.weights)


def running_sums(terms: np.ndarray) -> np.ndarray:
    """Running sums of ``terms``, each within about an ulp of the exact sum.

    ``np.cumsum`` adds in order, and its rounding errors drift; TwoSum
    (Knuth) gives each addition's error exactly, and the running sum of
    those errors corrects each sum.
    """
    sums = np.cumsum(terms)
    before, after = sums[:-1], sums[1:]
    back = after - before
    errors = (before - (after - back)) + (terms[1:] - back)
    sums[1:] += np.cumsum(errors)
    return sums


def master_rule(alpha, c: float):
    """(factors, weights, pairs, weight_sum, log_sum) of order alpha's rule at c.

    Order 1 is cut at ``_von_neumann_count(c)`` nodes from the master table
    of every node count down to c = 5e-324, whose node sums are the running
    sums at each count; the other orders are built whole.
    """
    if alpha == 1:
        t = _VN_STEP * np.arange(_von_neumann_count(np.finfo(float).smallest_subnormal))
        sech = 1.0 / np.cosh(t)
        weights = 0.5 * _VN_STEP * sech * sech
        weights[0] *= 0.5
        factors = np.cosh(t)
        count = _von_neumann_count(c)
    else:
        j = np.arange(1, alpha // 2 + 1)
        g = np.gcd(j, alpha)
        factors = np.sin(np.pi * (j // g) / (alpha // g))
        weights = np.where(2 * j == alpha, 0.5, 1.0) / (alpha - 1)
        count = len(factors)
    weight_sums = running_sums(weights)
    log_sums = running_sums(weights * np.log(factors))
    factors, weights = factors[:count], weights[:count]
    pairs = tuple(zip(factors.tolist(), weights.tolist())) if count <= _FLOAT_SHIFTS else None
    return factors, weights, pairs, float(weight_sums[count - 1]), float(log_sums[count - 1])

