import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from oracles import bidiagonal_entropies_mpmath, master_rule, renyi_entropy_factored, running_sums

from gbs_page import ExperimentPlan, renyi_entropy, renyi_mode_entropy, run_experiment
from gbs_page.entropy import (_FLOAT_SHIFTS, _order_rule, _rule, _shift_rule, _squeezing_limit,
                              _von_neumann_count, bidiagonal_entropies, spectrum_entropies)
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


def test_mode_entropy_at_one_is_an_exact_zero_without_warning():
    # nu = 1, and the float above it at orders >= 2 (nu + 1 rounds to 2),
    # take a log of zero on the way to an exact zero; no warning escapes.
    above = np.nextafter(1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1, 2, 3, 15):
            assert renyi_mode_entropy(1.0, alpha) == 0.0
            mixed = renyi_mode_entropy([3.0, 1.0, above], alpha)
            assert mixed[1] == 0.0 and mixed[0] == renyi_mode_entropy(3.0, alpha)
            alone = renyi_mode_entropy(above, alpha)
            assert mixed[2] == alone and (alone == 0.0 if alpha > 1 else alone > 0.0)
        assert np.array_equal(spectrum_entropies([1.0, 1.0, above], (1, 2, 15))[1:], [0.0, 0.0])


def test_von_neumann_matches_mpmath_up_to_1e300():
    # g(nu) = a+ ln a+ - a- ln a- in 400 digits, from one ulp above nu = 1
    # to 1e300; the two float terms of that form cancel from nu ~ 1e6 on.
    mpmath.mp.dps = 400
    nus = np.concatenate([1.0 + np.geomspace(2.3e-16, 1.0, 60), np.geomspace(2.0, 1e300, 120)])
    got = renyi_mode_entropy(nus, 1)
    for nu, value in zip(nus, got):
        x = mpmath.mpf(nu)
        exact = (x + 1) / 2 * mpmath.log((x + 1) / 2) - (x - 1) / 2 * mpmath.log((x - 1) / 2)
        assert abs(value - exact) <= 1e-15 * exact, nu


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
    assert got.shape == (len(orders),)
    for a, value in zip(orders, got):
        per_mode = renyi_mode_entropy(nu, a)
        assert value == float(np.sum(per_mode))
    assert np.array_equal(spectrum_entropies(nu, (3, 1, 3)), got[[2, 0, 2]])
    assert np.array_equal(spectrum_entropies([], orders), np.zeros(len(orders)))
    with pytest.raises(ValueError):
        spectrum_entropies([2.0], (1, 0))
    with pytest.raises(ValueError):
        spectrum_entropies([0.99], (1,))


def test_validation():
    # Order 1 is the von Neumann entropy, to the bit: the 50-digit values
    # 3.27354829238039161... and 0.95477125244221922... correctly rounded.
    assert renyi_entropy([2.0, 1.0 + 1e-8, 7.5], 1) == 3.273548292380392
    assert renyi_mode_entropy(2.0, 1) == 0.9547712524422193
    assert spectrum_entropies([2.0, 1.0 + 1e-8, 7.5], (1,)).tolist() == [3.273548292380392]
    with pytest.raises(ValueError):
        renyi_entropy([2.0], 0)
    with pytest.raises(ValueError):
        renyi_entropy([2.0], True)
    with pytest.raises(ValueError):
        renyi_entropy([2.0], 2.5)
    with pytest.raises(ValueError):
        renyi_entropy([0.5], 2)
    with pytest.raises(ValueError, match=r"^symplectic eigenvalues must be >= 1, got min 0\.5$"):
        renyi_mode_entropy([0.5, 2.0], 2)  # a numpy minimum, printed as a float
    with pytest.raises(ValueError):
        renyi_mode_entropy([2.0], 0)
    with pytest.raises(ValueError):
        renyi_entropy([0.99], 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_eigenvalues_are_named(bad):
    # g(nu) and the Renyi terms grow like ln(nu), but nan and inf are not a
    # spectrum: every reader refuses them, alone or among finite values.
    message = f"symplectic eigenvalues must be finite, got {bad!r}"
    for nu in (bad, [bad], [2.0, bad, 1.0]):
        for alpha in (1, 2, 15):
            with pytest.raises(ValueError, match=message):
                renyi_mode_entropy(nu, alpha)
            with pytest.raises(ValueError, match=message):
                renyi_entropy(nu, alpha)
        with pytest.raises(ValueError, match=message):
            spectrum_entropies(nu, (1, 2))


@pytest.mark.parametrize("n,k", [(21, 13), (9, 6), (41, 24), (8, 3)])
def test_bidiagonal_entropies_match_mpmath(n, k):
    # Odd n with k > n/2, and one even n: every order, from weak to strong
    # squeezing, against 40-digit eigenvalues of the same float bidiagonals.
    alphas = (1, 2, 3, 4, 15)
    diag, sup = _bidiagonal_squares(n, k, 5, [0, 1, 2])
    for s in (1e-5, 1e-3, 0.05, 0.5, 3.0, 5.0):
        got = bidiagonal_entropies(diag, sup, s, alphas)
        assert got.shape == (3, len(alphas))
        assert np.array_equal(bidiagonal_entropies(diag, sup, s, alphas[::-1]), got[:, ::-1])
        for row in range(3):
            want = bidiagonal_entropies_mpmath(diag[row], sup[row], s, alphas)
            for alpha, value in zip(alphas, got[row]):
                assert value == pytest.approx(want[alpha], rel=1e-13, abs=0)


def test_shift_rule_floats_are_those_built_per_call():
    # The cached rules give the floats of the rule built from scratch:
    # (sinh(2s) cosh t)^2 at the trapezoid nodes, and c sin^2(pi j/alpha)
    # with j/alpha in lowest terms, one (shifts, weights) pair per order in
    # the order given.
    orders = (15, 1, 3, 2)
    for s in (0.0, 1e-5, 0.05, 0.3, 0.5, 3.0, -2.0):
        sinh = float(np.sinh(2.0 * s))
        c = sinh * sinh
        start = np.arccosh(1.0 / np.sqrt(c)) if 0.0 < c < 1.0 else 0.0
        t = 0.25 * np.arange(int(np.ceil((start + 20.0) / 0.25)) + 1 if c > 0.0 else 1)
        sech = 1.0 / np.cosh(t)
        weights = 0.125 * sech * sech
        weights[0] *= 0.5
        rule = _shift_rule(s, orders)
        assert len(rule) == len(orders)
        for alpha, (shifts, got_weights) in zip(orders, rule):
            if alpha == 1:
                assert np.array_equal(shifts, (sinh * np.cosh(t)) ** 2)
                assert np.array_equal(got_weights, weights)
                continue
            j = np.arange(1, alpha // 2 + 1)
            g = np.gcd(j, alpha)
            assert np.array_equal(shifts, c * np.sin(np.pi * (j // g) / (alpha // g)) ** 2)
            assert np.array_equal(got_weights, np.where(2 * j == alpha, 0.5, 1.0) / (alpha - 1))


# c = 0 (one node), the 81 nodes from c = 1 up, the 128 at s = 1e-5 and the
# 1573 at the smallest subnormal c; orders with one shift, the longest rule
# kept in float pairs, the shortest that is not, and a long one.
MASTER_CELLS = [(1, 0.0, 1), (1, 1.0, 81), (1, math.sinh(2e-5) ** 2, 128), (1, 5e-324, 1573),
                (2, 1.0, 1), (3, 1.0, 1), (49, 1.0, 24), (50, 1.0, 25), (2000, 1.0, 1000)]


@pytest.mark.parametrize("alpha,c,count", MASTER_CELLS)
def test_rules_have_the_bits_of_the_master_table(alpha, c, count):
    # Each rule is built at its own node count, and every array and node sum
    # has the bits of the master table cut at c.
    rule = _order_rule(alpha, c)
    factors, weights, pairs, weight_sum, log_sum = master_rule(alpha, c)
    assert len(rule.weights) == count
    for got, want in ((rule.factors, factors), (rule.weights, weights)):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert (rule.pairs, rule.weight_sum, rule.log_sum) == (pairs, weight_sum, log_sum)


def test_rule_sums_are_exactly_rounded():
    # Every order-1 node count down to c = 5e-324, orders 2 to 1000 and some
    # long rules: each sum has the bits of the TwoSum-corrected running sum
    # that the rules once carried.
    rules = [(1, count) for count in range(1, _von_neumann_count(5e-324) + 1)]
    rules += [(alpha, alpha // 2) for alpha in (*range(2, 1001), 2001, 10**4, 10**5)]
    for alpha, count in rules:
        rule = _rule.__wrapped__(alpha, count)
        assert rule.weight_sum == running_sums(rule.weights)[-1], (alpha, count)
        assert rule.log_sum == running_sums(rule.weights * np.log(rule.factors))[-1], (alpha, count)


def test_an_order_one_rule_is_built_once_per_node_count():
    # Every c from 1 up takes 81 nodes, and reads one cached rule.
    assert _von_neumann_count(1.0) == _von_neumann_count(4.0) == 81
    assert _order_rule(1, 1.0) is _order_rule(1, 4.0)
    assert _order_rule(1, 0.01) is not _order_rule(1, 1.0)
    assert _order_rule(15, 0.01) is _order_rule(15, 1.0)


def test_only_a_rule_summed_in_floats_keeps_float_pairs():
    assert len(_order_rule(2 * _FLOAT_SHIFTS + 1, 1.0).pairs) == _FLOAT_SHIFTS
    for alpha in (2 * _FLOAT_SHIFTS + 2, 1, 2000):
        rule = _order_rule(alpha, 1.0)
        assert len(rule.weights) > _FLOAT_SHIFTS and rule.pairs is None


def test_a_long_rule_holds_its_arrays_alone():
    # Order 10^5 has 50,000 shifts: two arrays of 0.4 MB. Its reciprocals
    # would hold 0.4 MB more, and its float pairs 5.6 MB more.
    _rule.cache_clear()
    tracemalloc.start()
    try:
        rule = _order_rule(10**5, 1.0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rule.weights) == 50_000
    assert held <= 1.0e6, held


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 15), (1,), (1, 2)], ids=repr)
def test_shift_rule_refuses_exactly_the_strengths_whose_shifts_overflow(orders):
    # The limit is decided before any shift is formed; at the limit and three
    # floats on either side it refuses exactly where the largest shift,
    # (sinh(2s) cosh 20)^2 with order 1 and sinh^2(2s) without, overflows.
    limit = _squeezing_limit(2, 1 in orders)
    assert f"{limit:.2f}" == ("168.14" if 1 in orders else "177.79")
    below = above = limit
    strengths = [limit]
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        strengths += [float(below), float(above)]
    finite = []
    for s in strengths + [-x for x in strengths]:
        with np.errstate(over="ignore"):
            largest = (np.sinh(2.0 * s) * (np.cosh(20.0) if 1 in orders else 1.0)) ** 2
        finite.append(bool(np.isfinite(largest)))
        if finite[-1]:
            assert all(np.isfinite(shifts).all() for shifts, _ in _shift_rule(s, orders))
        else:
            with pytest.raises(ValueError, match=rf"above \|s\| = {limit:.2f}$"):
                _shift_rule(s, orders)
    assert finite == [abs(s) <= limit for s in strengths] * 2


@pytest.mark.parametrize("s", [1e-5, 0.05, 0.5, 3.0])
def test_an_order_does_not_depend_on_the_other_orders(s):
    # Each order comes from its own formula alone, bit for bit, in both
    # kernels and in the tables built on them.
    orders = (1, 2, 3, 4, 5, 6, 7, 15)
    diag, sup = _bidiagonal_squares(41, 17, 3, [0, 1, 2])
    assert np.array_equal(bidiagonal_entropies(diag, sup, s, orders),
                          np.hstack([bidiagonal_entropies(diag, sup, s, (a,)) for a in orders]))
    nu = np.sqrt(1.0 + np.sinh(2.0 * s) ** 2 * np.linspace(0.0, 1.0, 9))
    assert np.array_equal(spectrum_entropies(nu, orders),
                          [renyi_entropy(nu, a) for a in orders])
    for squeezing in (s, tuple(s * np.linspace(0.5, 1.5, 12))):
        plan = dict(n=12, k=5, squeezing=squeezing, n_samples=4, master_seed=3)
        full, _ = run_experiment(ExperimentPlan(alphas=orders, **plan))
        pair, _ = run_experiment(ExperimentPlan(alphas=(2, 15), **plan))
        assert np.array_equal(full[:, [1, 7]], pair)


def test_bidiagonal_entropies_of_no_transmission_or_squeezing_are_zero():
    diag, sup = _bidiagonal_squares(10, 10, 1, [0, 1])
    assert diag.shape == (2, 0)
    for s in (0.0, 0.5, 5.0):
        assert np.array_equal(bidiagonal_entropies(diag, sup, s, (1, 2, 3)), np.zeros((2, 3)))
    diag, sup = _bidiagonal_squares(10, 4, 1, [0, 1])
    assert np.array_equal(bidiagonal_entropies(diag, sup, 0.0, (1, 2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^squeezing strength must be finite, got inf$"):
        bidiagonal_entropies(diag, sup, np.inf, (2,))
    with pytest.raises(ValueError, match=r"^squeezing strength 200\.0 is beyond"):
        bidiagonal_entropies(diag, sup, np.float64(200.0), (2,))
