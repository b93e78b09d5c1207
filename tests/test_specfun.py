import math
from fractions import Fraction

import numpy as np
import pytest
from series_oracle import G, H, catalan, hyp2f1_terminating


def exact_G(i: int, r: float) -> Fraction:
    """Catalan / terminating-2F1 route in exact rational arithmetic."""
    rq = Fraction(r)
    hyp = Fraction(0)
    term = Fraction(1)
    for m in range(i):
        hyp += term
        term *= Fraction((1 - i + m) * (i + m), (2 + i + m) * (m + 1)) * rq
    return rq - rq ** (i + 1) * Fraction(math.comb(2 * i, i), i + 1) * hyp


def test_catalan_values():
    assert [catalan(i) for i in range(5)] == [1, 1, 2, 5, 14]
    assert catalan(30) == math.comb(60, 30) // 31
    big = catalan(80)
    assert isinstance(big, int)
    assert big == math.comb(160, 80) // 81
    with pytest.raises(ValueError):
        catalan(-1)


def test_hyp2f1_terminating_low_orders():
    for r in (0.0, 0.25, 0.7, 1.0):
        assert hyp2f1_terminating(1, r) == pytest.approx(1.0, abs=1e-15)
        assert hyp2f1_terminating(2, r) == pytest.approx(1 - r / 2, abs=1e-14)


def test_hyp2f1_terminating_exact_rational_oracle():
    i, r = 5, 0.3
    rq = Fraction(r)
    tot, term = Fraction(0), Fraction(1)
    for m in range(i):
        tot += term
        term *= Fraction((1 - i + m) * (i + m), (2 + i + m) * (m + 1)) * rq
    assert hyp2f1_terminating(i, r) == pytest.approx(float(tot), rel=1e-13)


def test_G_low_orders():
    r = np.linspace(0, 1, 11)
    for ri in r:
        assert G(1, ri) == pytest.approx(ri * (1 - ri), abs=1e-14)
    assert G(2, 0.5) == pytest.approx(0.3125, abs=1e-14)


def test_G_matches_exact_rational_route():
    for i in (1, 2, 3, 5, 8, 12, 16, 20):
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert G(i, r) == pytest.approx(float(exact_G(i, r)), abs=5e-14)


def test_G_matches_float_catalan_route_small_i():
    # The alternating-polynomial route loses ~4^i in cancellation, so it is
    # only compared where it is still meaningful.
    for i in range(1, 13):
        for r in (0.2, 0.5, 0.8):
            direct = r - r ** (i + 1) * catalan(i) * hyp2f1_terminating(i, r)
            assert G(i, r) == pytest.approx(direct, abs=1e-10)


def test_G_symmetry_about_half():
    idx = np.arange(1, 21)
    for r in (0.1, 0.3, 0.45):
        assert np.abs(G(idx, r) - G(idx, 1 - r)).max() <= 1e-12


def test_G_bounds():
    idx = np.arange(1, 201)
    for r in np.linspace(0, 1, 21):
        vals = np.atleast_1d(G(idx, r))
        assert vals.min() >= -1e-12
        assert vals.max() <= min(r, 1 - r) + 1e-12


def test_H_values():
    r = 0.3
    assert H(1, r) == pytest.approx(r * (1 - r), abs=1e-15)
    assert H(5, 0.0) == 0.0
    idx = np.arange(1, 201)
    assert np.abs(H(idx, 0.5) - 0.25).max() <= 1e-12
    assert H(3, 0.25) == pytest.approx(4**2 * (0.25 * 0.75) ** 3, rel=1e-12)


def test_G_H_validation():
    with pytest.raises(ValueError):
        G(0, 0.5)
    with pytest.raises(ValueError):
        G(1, 1.5)
    with pytest.raises(ValueError):
        H(1, -0.1)
