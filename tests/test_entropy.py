import math

import mpmath
import numpy as np
import pytest
from oracles import bidiagonal_entropies_mpmath, renyi_entropy_factored

from gbs_page import renyi_entropy, renyi_mode_entropy
from gbs_page.entropy import bidiagonal_entropies, spectrum_entropies
from gbs_page.haar import _bidiagonal_squares


def test_pure_state_is_zero():
    assert renyi_entropy([1.0, 1.0, 1.0], 1) == 0.0
    for a in (2, 3, 15):
        assert renyi_entropy([1.0, 1.0], a) == 0.0
        # the factored route cancels logs only to roundoff
        assert abs(renyi_entropy_factored([1.0, 1.0], a)) <= 1e-12
    assert renyi_entropy([], 1) == 0.0
    assert renyi_entropy([], 2) == 0.0


def test_empty_spectrum_has_empty_mode_entropies():
    for a in (1, 2, 15):
        out = renyi_mode_entropy([], a)
        assert isinstance(out, np.ndarray) and out.shape == (0,) and out.dtype == float
    assert renyi_mode_entropy([1.0], 2) == 0.0


def test_renyi2_is_sum_of_log_nu():
    rng = np.random.default_rng(0)
    nu = 1 + 5 * rng.random(7)
    assert renyi_entropy(nu, 2) == pytest.approx(np.sum(np.log(nu)), abs=1e-12)


def test_renyi3_single_mode_value():
    # ((nu+1)^3 - (nu-1)^3) / 2^3 at nu = 2 is 26/8
    assert renyi_entropy([2.0], 3) == pytest.approx(0.5 * math.log(26 / 8), abs=1e-13)
    assert renyi_entropy_factored([2.0], 3) == pytest.approx(
        renyi_entropy([2.0], 3), abs=1e-12
    )


def test_factored_form_examples():
    assert renyi_entropy_factored([3.0], 2) == pytest.approx(math.log(3.0), abs=1e-13)
    rng = np.random.default_rng(1)
    nu = 1 + 9 * rng.random(6)
    for a in (2, 3, 4, 5, 15):
        assert renyi_entropy_factored(nu, a) == pytest.approx(
            renyi_entropy(nu, a), abs=1e-10
        )


def test_monotone_in_alpha_including_von_neumann():
    rng = np.random.default_rng(2)
    for _ in range(20):
        nu = 1 + 4 * rng.random(5)
        values = [renyi_entropy(nu, 1)] + [
            renyi_entropy(nu, a) for a in (2, 3, 4, 5, 7, 15)
        ]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


def test_additive_over_concatenation():
    rng = np.random.default_rng(3)
    nu1, nu2 = 1 + rng.random(3), 1 + rng.random(4)
    both = np.concatenate([nu1, nu2])
    assert renyi_entropy(both, 1) == pytest.approx(
        renyi_entropy(nu1, 1) + renyi_entropy(nu2, 1), rel=1e-12
    )
    assert renyi_entropy(both, 3) == pytest.approx(
        renyi_entropy(nu1, 3) + renyi_entropy(nu2, 3), rel=1e-12
    )
    per_mode = renyi_mode_entropy(both, 3)
    assert per_mode.shape == both.shape
    assert [renyi_entropy([x], 3) for x in both] == pytest.approx(per_mode, rel=1e-15)


def test_mode_entropy_identity_on_grid():
    # g(nu) = (1/2) ln((nu^2-1)/4) + nu arcoth(nu) for nu > 1
    nu = np.linspace(1.001, 50.0, 400)
    lhs = renyi_mode_entropy(nu, 1)
    rhs = 0.5 * np.log((nu**2 - 1) / 4) + nu * np.arctanh(1.0 / nu)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_mode_entropy_tmsv_closed_form():
    s = 0.5
    expect = np.cosh(s) ** 2 * np.log(np.cosh(s) ** 2) - np.sinh(s) ** 2 * np.log(
        np.sinh(s) ** 2
    )
    assert renyi_mode_entropy(np.cosh(2 * s), 1) == pytest.approx(expect, abs=1e-13)


def test_mode_entropy_near_one_expansion():
    mpmath.mp.dps = 40
    for eps in (1e-7, 1e-9, 1e-12):
        e = mpmath.mpf(eps)
        exact = float(
            (1 + e / 2) * mpmath.log(1 + e / 2) - (e / 2) * mpmath.log(e / 2)
        )
        assert renyi_mode_entropy(1.0 + eps, 1) == pytest.approx(exact, rel=1e-8)
    assert renyi_mode_entropy(1.0, 1) == 0.0


def test_large_order_large_nu_no_overflow():
    # (nu+1)^alpha would overflow; the log-space route must not
    mpmath.mp.dps = 350  # the oracle must resolve 1 - ((nu-1)/(nu+1))^alpha
    for nu0, alpha in [(1e21, 15), (1e15, 7), (1e300, 3)]:
        val = renyi_entropy([nu0], alpha)
        assert np.isfinite(val)
        x = mpmath.mpf(nu0)
        exact = float(
            (alpha * mpmath.log((x + 1) / 2)
             + mpmath.log(1 - ((x - 1) / (x + 1)) ** alpha)) / (alpha - 1)
        )
        assert val == pytest.approx(exact, rel=1e-12)


def test_all_orders_at_once_match_the_per_mode_sums_exactly():
    # One check and one pass of logarithms for every order must give the
    # same bits as summing each order's per-mode entropies on its own.
    rng = np.random.default_rng(3)
    nu = np.concatenate([[1.0, 1.0 + 1e-9, 1.0 + 1e-7], 1 + rng.exponential(1.0, 40),
                         np.cosh(2 * rng.uniform(0, 5, 10))])
    orders = (1, 2, 3, 4, 7, 15)
    got = spectrum_entropies(nu, orders)
    assert list(got) == list(orders)
    for a in orders:
        per_mode = renyi_mode_entropy(nu, a)
        assert got[a] == float(np.sum(per_mode))
    assert spectrum_entropies([], orders) == dict.fromkeys(orders, 0.0)
    with pytest.raises(ValueError):
        spectrum_entropies([2.0], (1, 0))
    with pytest.raises(ValueError):
        spectrum_entropies([0.99], (1,))


def test_validation():
    # Order 1 is the von Neumann entropy, to the bit (the values of the
    # former von_neumann_entropy and vn_mode_entropy).
    assert renyi_entropy([2.0, 1.0 + 1e-8, 7.5], 1) == 3.273548292380391
    assert renyi_mode_entropy(2.0, 1) == 0.9547712524422192
    assert spectrum_entropies([2.0, 1.0 + 1e-8, 7.5], (1,)) == {1: 3.273548292380391}
    with pytest.raises(ValueError):
        renyi_entropy([2.0], 0)
    with pytest.raises(ValueError):
        renyi_entropy([2.0], True)
    with pytest.raises(ValueError):
        renyi_entropy([2.0], 2.5)
    with pytest.raises(ValueError):
        renyi_entropy([0.5], 2)
    with pytest.raises(ValueError):
        renyi_mode_entropy([0.5, 2.0], 2)
    with pytest.raises(ValueError):
        renyi_mode_entropy([2.0], 0)
    with pytest.raises(ValueError):
        renyi_entropy([0.99], 1)


@pytest.mark.parametrize("n,k", [(21, 13), (9, 6), (41, 24), (8, 3)])
def test_bidiagonal_entropies_match_mpmath(n, k):
    # Odd n with k > n/2, and one even n: every order, from weak to strong
    # squeezing, against 40-digit eigenvalues of the same float bidiagonals.
    alphas = (1, 2, 3, 4, 15)
    diag, sup = _bidiagonal_squares(n, k, 5, [0, 1, 2])
    for s in (1e-5, 1e-3, 0.05, 0.5, 3.0, 5.0):
        got = bidiagonal_entropies(diag, sup, s, alphas)
        for row in range(3):
            want = bidiagonal_entropies_mpmath(diag[row], sup[row], s, alphas)
            for alpha in alphas:
                assert got[alpha][row] == pytest.approx(want[alpha], rel=1e-13, abs=0)


def test_bidiagonal_entropies_of_no_transmission_or_squeezing_are_zero():
    diag, sup = _bidiagonal_squares(10, 10, 1, [0, 1])
    assert diag.shape == (2, 0)
    for s in (0.0, 0.5, 5.0):
        assert all(np.array_equal(v, [0.0, 0.0])
                   for v in bidiagonal_entropies(diag, sup, s, (1, 2, 3)).values())
    diag, sup = _bidiagonal_squares(10, 4, 1, [0, 1])
    assert all(np.array_equal(v, [0.0, 0.0])
               for v in bidiagonal_entropies(diag, sup, 0.0, (1, 2, 3)).values())
    with pytest.raises(ValueError, match="finite"):
        bidiagonal_entropies(diag, sup, np.inf, (2,))
