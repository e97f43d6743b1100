"""Exact rational layer: r_m, Laurent data, Li_{-m}(z,c).  Their identities
(reflection, recursion, Laurent expansion, exp-series division, q_m on the
unit circle) are checked by ``verify``'s exact suite (tests/test_verify.py).
"""

import inspect
import math
import sys
from fractions import Fraction

import pytest

from lerchkit import special_values
from lerchkit.errors import PoleError
from lerchkit.special_values import (BivariateRational, laurent_coeffs,
                                     negative_polylog, poly_eval_homogeneous,
                                     q_ratio, r_poly)

# ascending coefficients of r_m for m = 0..5
R_TABLE = {
    0: [1],
    1: [0, 1],
    2: [0, 1, 1],
    3: [0, 1, 4, 1],
    4: [0, 1, 11, 11, 1],
    5: [0, 1, 26, 66, 26, 1],
}


def test_r_poly_table():
    for m, want in R_TABLE.items():
        assert r_poly(m) == want


def test_r_poly_normalizations():
    for m in range(1, 9):
        r = r_poly(m)
        assert r[0] == 0              # r_m(0) = 0
        assert r[-1] == 1             # monic
        assert sum(r) == math.factorial(m)   # r_m(1) = m!
        assert r[1:] == r[:0:-1]      # palindrome across z^1..z^m


def test_r_poly_is_built_bottom_up(monkeypatch):
    # from an empty table and a recursion limit far below m: a recursive
    # build would raise RecursionError
    monkeypatch.setattr(special_values, "_R_CACHE", {0: (1,)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        r = r_poly(300)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(r) == math.factorial(300) and r[1:] == r[:0:-1]
    assert r_poly(5) == R_TABLE[5]
    assert sorted(special_values._R_CACHE) == list(range(301))


def test_q_ratio_exact_and_pole():
    # sum n 2^-n = 2 exactly
    assert q_ratio(1, Fraction(1, 2)) == 2
    # sum n^2 3^-n = 3/2
    assert q_ratio(2, Fraction(1, 3)) == Fraction(3, 2)
    with pytest.raises(PoleError):
        q_ratio(3, 1)


def test_q_ratio_matches_direct_sum():
    # q_m sums n^m w^n from n = 0 (only m = 0 sees the n = 0 term)
    w = 0.4 + 0.3j
    for m in range(4):
        direct = sum(n ** m * w ** n for n in range(0, 400))
        assert q_ratio(m, w) == pytest.approx(direct, abs=1e-12)


def test_laurent_coeffs_small():
    assert laurent_coeffs(0) == [0, 1]
    assert laurent_coeffs(1) == [0, -1, 1]
    assert laurent_coeffs(4) == [0, 1, -15, 50, -60, 24]
    # a_{m,m+1} = (-1)^m ... top coefficient has magnitude m!
    for m in range(7):
        assert abs(laurent_coeffs(m)[-1]) == math.factorial(m)


def test_laurent_reconstructs_r():
    # r_m(z) = sum_k a_{m,k} (1-z)^{m+1-k}
    for m in range(6):
        a = laurent_coeffs(m)
        z = Fraction(3, 7)
        acc = sum(a[k] * (1 - z) ** (m + 1 - k) for k in range(m + 2))
        poly = sum(co * z ** i for i, co in enumerate(r_poly(m)))
        assert acc == poly


def test_negative_polylog_exact_values():
    li1 = negative_polylog(1)
    # Li_{-1}(z,c) = z (c (1-z) + z) / (1-z)^2
    assert li1.eval(Fraction(1, 2), Fraction(1, 2)) == Fraction(3, 2)
    assert li1.eval(2, 0) == 4
    li0 = negative_polylog(0)
    assert li0.eval(Fraction(1, 3), 5) == Fraction(1, 2)  # z/(1-z)
    with pytest.raises(PoleError):
        li1.eval(1, Fraction(1, 2))


def test_negative_polylog_matches_series():
    z, c = Fraction(1, 4), Fraction(2, 3)
    for m in range(5):
        exact = negative_polylog(m).eval(z, c)
        approx = sum(Fraction(n + c) ** m * z ** (n + 1) for n in range(200))
        assert abs(float(exact - approx)) < 1e-55  # 4^-200 tail


def test_negative_polylog_eval_at_a_complex_point():
    # the float path of BivariateRational.eval
    z, c = 0.3 + 0.2j, 0.7
    approx = sum((n + c) ** 3 * z ** (n + 1) for n in range(400))
    assert abs(negative_polylog(3).eval(z, c) - approx) < 1e-14


def test_negative_polylog_degrees_and_pole_order():
    for m in range(6):
        biv = negative_polylog(m)
        assert biv.pole_order == m + 1
        assert biv.degree_c == m


# z < 0, 0 < z < 1, z > 1, integer z; c > 0, c < 0, integer c
EXACT_POINTS = [(Fraction(-7, 3), Fraction(5, 4)), (Fraction(2, 9), Fraction(-8, 5)),
                (Fraction(11, 4), Fraction(1, 6)), (-3, 2), (5, Fraction(-1, 2)),
                (Fraction(1, 2), -4), (2, 0), (-1, 7)]


def test_exact_eval_matches_fraction_horner():
    # the integer path equals Horner on Fractions over (1-z)^pole_order
    for m in range(13):
        for biv in (negative_polylog(m), negative_polylog(m).c_derivative()):
            for z, c in EXACT_POINTS:
                want = (Fraction(biv.numerator(Fraction(z), Fraction(c)))
                        / Fraction(1 - z) ** biv.pole_order)
                got = biv.eval(z, c)
                assert type(got) is Fraction and got == want, (m, z, c)


def test_exact_eval_builds_one_fraction_for_any_m(monkeypatch):
    built = [0]
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built[0] += 1
        return real_new(cls, *args, **kwargs)

    z, c = Fraction(-7, 3), Fraction(5, 4)
    counts = []
    for m in (2, 6, 12, 24):
        biv = negative_polylog(m)
        built[0] = 0
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        biv.eval(z, c)
        monkeypatch.undo()
        counts.append(built[0])
    assert counts == [1] * 4


def test_negative_polylog_is_built_once_per_m():
    assert negative_polylog(7) is negative_polylog(7)
    with pytest.raises(ValueError):
        negative_polylog(-1)


def test_poly_eval_homogeneous():
    # 3^2 p(2/3) for p = 1 + 2x - x^2, then as a form of degree 3
    assert poly_eval_homogeneous([1, 2, -1], 2, 3, 2) == 9 + 12 - 4
    assert poly_eval_homogeneous([1, 2, -1], 2, 3, 3) == 3 * (9 + 12 - 4)
    assert poly_eval_homogeneous([0], 5, 7, 0) == 0


def test_c_derivative_is_exact_partial():
    z, c, h = Fraction(2, 5), Fraction(1, 3), Fraction(1, 10 ** 8)
    for m in range(1, 4):
        biv = negative_polylog(m)
        der = biv.c_derivative().eval(z, c)
        fd = (biv.eval(z, c + h) - biv.eval(z, c - h)) / (2 * h)
        assert abs(float(der - fd)) < 1e-12

