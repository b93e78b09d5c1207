import math

import mpmath
import numpy as np
import pytest
from oracles import renyi_entropy_factored

from gbs_page import (
    renyi_entropy,
    renyi_mode_entropy,
    vn_mode_entropy,
    von_neumann_entropy,
)
from gbs_page.entropy import spectrum_entropies


def test_pure_state_is_zero():
    assert von_neumann_entropy([1.0, 1.0, 1.0]) == 0.0
    for a in (2, 3, 15):
        assert renyi_entropy([1.0, 1.0], a) == 0.0
        # the factored route cancels logs only to roundoff
        assert abs(renyi_entropy_factored([1.0, 1.0], a)) <= 1e-12
    assert von_neumann_entropy([]) == 0.0
    assert renyi_entropy([], 2) == 0.0


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
        values = [von_neumann_entropy(nu)] + [
            renyi_entropy(nu, a) for a in (2, 3, 4, 5, 7, 15)
        ]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))


def test_additive_over_concatenation():
    rng = np.random.default_rng(3)
    nu1, nu2 = 1 + rng.random(3), 1 + rng.random(4)
    both = np.concatenate([nu1, nu2])
    assert von_neumann_entropy(both) == pytest.approx(
        von_neumann_entropy(nu1) + von_neumann_entropy(nu2), rel=1e-12
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
    lhs = vn_mode_entropy(nu)
    rhs = 0.5 * np.log((nu**2 - 1) / 4) + nu * np.arctanh(1.0 / nu)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_mode_entropy_tmsv_closed_form():
    s = 0.5
    expect = np.cosh(s) ** 2 * np.log(np.cosh(s) ** 2) - np.sinh(s) ** 2 * np.log(
        np.sinh(s) ** 2
    )
    assert vn_mode_entropy(np.cosh(2 * s)) == pytest.approx(expect, abs=1e-13)


def test_mode_entropy_near_one_expansion():
    mpmath.mp.dps = 40
    for eps in (1e-7, 1e-9, 1e-12):
        e = mpmath.mpf(eps)
        exact = float(
            (1 + e / 2) * mpmath.log(1 + e / 2) - (e / 2) * mpmath.log(e / 2)
        )
        assert vn_mode_entropy(1.0 + eps) == pytest.approx(exact, rel=1e-8)
    assert vn_mode_entropy(1.0) == 0.0


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
        per_mode = vn_mode_entropy(nu) if a == 1 else renyi_mode_entropy(nu, a)
        assert got[a] == float(np.sum(per_mode))
    assert spectrum_entropies([], orders) == dict.fromkeys(orders, 0.0)
    with pytest.raises(ValueError):
        spectrum_entropies([2.0], (1, 0))
    with pytest.raises(ValueError):
        spectrum_entropies([0.99], (1,))


def test_validation():
    with pytest.raises(ValueError):
        renyi_entropy([2.0], 1)
    with pytest.raises(ValueError):
        renyi_entropy([2.0], 2.5)
    with pytest.raises(ValueError):
        renyi_entropy([0.5], 2)
    with pytest.raises(ValueError):
        renyi_mode_entropy([0.5, 2.0], 2)
    with pytest.raises(ValueError):
        renyi_mode_entropy([2.0], 1)
    with pytest.raises(ValueError):
        von_neumann_entropy([0.99])
