"""The paper's series for the entropy averages, kept as a test oracle.

The package evaluates every average in closed form against the limiting
spectral law (``gbs_page.pagecurve``). This module evaluates the same
averages the way the paper writes them,

    E S = sum_{i>=1} c_i(s) (n G_i(r) - H_i(r)),

with the moment polynomials

    G_i(r) = r - r^{i+1} C_i 2F1(1-i, i, 2+i, r),
    H_i(r) = 4^{i-1} (r (1-r))^i,

(C_i the i-th Catalan number) and the coefficients

* Renyi-2:           c_i = tanh^{2i}(2s) / (2i),
* Renyi-alpha >= 3:  c_i = [zeta/(2(alpha-1))] tanh^{2i}(2s)/i
                     + [1/(alpha-1)] sum_{m=1}^{floor((alpha-1)/2)}
                         q_m^i / i,   q_m = sinh^2(2s)/(cosh^2(2s) + cot^2(pi m/alpha)),
* von Neumann:       c_i = 1/(2i)
                     - (1/3) sech^2(2s) tanh^{2i}(2s) 2F1(3/2, 1+i, 5/2, sech^2(2s)).

``G`` uses the incomplete-beta identity G_i(r) = r - 2 r I_r(i, i) +
I_r(i+1, i), which has none of the ~4^i cancellation of the Catalan form;
the tests check the two routes against each other in exact arithmetic.
"""

import numpy as np
from scipy.special import betainc

from gbs_page import renyi_mode_entropy

ASYMPTOTIC = None

#: Largest series index the oracle sums to.
I_CAP = 5000

#: Longest chunk of the von Neumann coefficient recurrence.
_CHUNK = 4096


def catalan(i: int) -> int:
    """i-th Catalan number C_i = binom(2i, i) / (i+1), exact."""
    if i < 0:
        raise ValueError(f"Catalan index must be >= 0, got {i}")
    c = 1
    for j in range(i):
        c = c * (2 * (2 * j + 1)) // (j + 2)
    return c


def hyp2f1_terminating(i: int, r: float) -> float:
    """Terminating Gauss series 2F1(1-i, i, 2+i, r), a degree i-1 polynomial."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    total = 0.0
    term = 1.0
    for m in range(i - 1):
        total += term
        term *= (1 - i + m) * (i + m) / ((2 + i + m) * (m + 1)) * r
    return total + term


def _check_index_and_ratio(i, r):
    i_arr = np.asarray(i, dtype=float)
    if i_arr.size and i_arr.min() < 1:
        raise ValueError("index must be >= 1")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"partition ratio must lie in [0, 1], got {r!r}")
    return i_arr


def G(i, r: float):
    """Moment polynomial G_i(r); vectorized over the index i."""
    i_arr = _check_index_and_ratio(i, r)
    out = r - 2.0 * r * betainc(i_arr, i_arr, r) + betainc(i_arr + 1.0, i_arr, r)
    return out if out.ndim else float(out)


def H(i, r: float):
    """Moment weight H_i(r) = 4^{i-1} (r(1-r))^i; vectorized over the index i."""
    i_arr = _check_index_and_ratio(i, r)
    v = r * (1.0 - r)
    out = np.zeros_like(i_arr) if v == 0.0 else 0.25 * np.exp(i_arr * np.log(4.0 * v))
    return out if out.ndim else float(out)


def expected_trW(i, n: int, r: float):
    """Haar average of Tr W^i: n r - n G_i(r) + H_i(r). Vectorized over i."""
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    return n * r - n * G(i, r) + H(i, r)


def vn_series_constant(s: float) -> float:
    """Closed form of the full von Neumann coefficient sum.

    (1/2) ln(sinh^2(2s)/4) + cosh(2s) artanh(sech(2s)), the one-mode entropy
    g(cosh 2s) of a two-mode squeezed pair; even in s.
    """
    return float(renyi_mode_entropy(np.cosh(2.0 * abs(s)), 1))


def vn_series_coefficients(count: int, s: float) -> np.ndarray:
    """First ``count`` von Neumann coefficients, by a stable recurrence.

    With x = sech^2(2s), t = tanh^2(2s) and the moment integrals
    I_i = int_0^1 (1 - x y^2)^{-i} dy, c_i = 1/(2i) - (1-x)^i (I_{i+1} - I_i).
    Itilde_i = (1-x)^i I_i obeys Itilde_{i+1} = t (1 + (2i-1) Itilde_i) / (2i),
    a contraction, so roundoff does not accumulate.

    The recurrence is first-order linear, Itilde_{i+1} = a_i Itilde_i + b_i,
    so it is solved a chunk at a time: with P_j the running product of the
    chunk's a_i up to a_j, Itilde_{j+1} = P_j (Itilde_start + sum_{l<=j} b_l / P_l),
    one cumulative product and one cumulative sum. A chunk holds at most
    600 / ln(1/t) steps (and at most ``_CHUNK``), so P, about t^chunk or
    more, stays far from float64 underflow and no quotient b_l / P_l
    overflows.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    s = abs(float(s))
    if s <= 0:
        raise ValueError("squeezing strength must be nonzero")
    t = np.tanh(2.0 * s) ** 2
    idx = np.arange(1, count + 1, dtype=float)
    a = t * (2.0 * idx - 1.0) / (2.0 * idx)
    b = t / (2.0 * idx)
    itil = np.empty(count + 1)
    itil[0] = t * np.cosh(2.0 * s) * np.log(1.0 / np.tanh(s))
    chunk = max(1, int(600.0 / max(-np.log(t), 600.0 / _CHUNK)))
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        prod = np.cumprod(a[lo:hi])
        itil[lo + 1:hi + 1] = prod * (itil[lo] + np.cumsum(b[lo:hi] / prod))
    return 1.0 / (2.0 * idx) + itil[:-1] - itil[1:] / t


def series_coefficients(alpha: int, s: float, count: int = I_CAP):
    """(c_1..c_count, sum of all c_i) of the order-alpha average series."""
    if alpha == 1:
        return vn_series_coefficients(count, s), vn_series_constant(s)
    zeta = 1 - (alpha % 2)
    a = (alpha - 1) // 2
    qs, ws = [], []
    if zeta:
        qs.append(np.tanh(2.0 * s) ** 2)
        ws.append(0.5 / (alpha - 1))
    if a:
        cot2 = 1.0 / np.tan(np.pi * np.arange(1, a + 1) / alpha) ** 2
        qs.extend(np.sinh(2.0 * s) ** 2 / (np.cosh(2.0 * s) ** 2 + cot2))
        ws.extend([1.0 / (alpha - 1)] * a)
    qs, ws = np.array(qs), np.array(ws)
    idx = np.arange(1, count + 1, dtype=float)
    cs = (qs[None, :] ** idx[:, None] / idx[:, None]) @ ws
    return cs, float(ws @ -np.log1p(-qs))


def series_average(alpha: int, n, s: float, r: float, tol: float):
    """The series summed to the first index I where its error bound meets tol.

    The terms up to I are summed explicitly and the coefficient tail
    T_I = sum_{i>I} c_i is attached with G frozen at its limit rq =
    min(r, 1-r) and H at 0. Because G_i increases to rq, H_i decreases to 0
    and c_i > 0, the residual is at most T_I (n (rq - G_{I+1}) + H_{I+1})
    (per mode: T_I (rq - G_{I+1})). Returns ``(value, bound)``, or None
    when the bound stays above ``tol`` up to ``I_CAP``.
    """
    if n is ASYMPTOTIC:
        rq = min(r, 1.0 - r)
    else:
        k = round(r * n)
        rq = min(k, n - k) / n
    if s == 0 or rq == 0:
        return 0.0, 0.0
    cs, total = series_coefficients(alpha, s)
    idx = np.arange(1, I_CAP + 2)
    g, h = G(idx, rq), H(idx, rq)
    if n is ASYMPTOTIC:
        scale, h = 1.0, np.zeros_like(h)
    else:
        scale = float(n)
    partial = np.cumsum(cs * (scale * g[:-1] - h[:-1]))
    tail = np.maximum(total - np.cumsum(cs), 0.0)
    bound = tail * (scale * np.maximum(rq - g[1:], 0.0) + h[1:])
    met = np.flatnonzero(bound <= tol)
    if met.size == 0:
        return None
    last = met[0]
    return float(partial[last] + tail[last] * scale * rq), float(bound[last])
