"""Dispatcher, strategies, and the zeta-family wrappers.

The reference values were computed with an independent multiprecision
implementation and frozen here at 17 significant digits.
"""

import cmath
import functools
import importlib.util
import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest

from lerchkit import deformed_polylog, eval_core
from lerchkit.branch_numerics import (EPS, principal_log, quad_semiaxis,
                                      semi_principal_log)
from lerchkit.errors import (AccuracyError, BranchError, DomainError,
                             PoleError, StratumError)
from lerchkit.eval_core import (c_coeff, classify_stratum, extended_polylog,
                                hurwitz_zeta, lerch_zeta, periodic_zeta, phi,
                                phi_c_shift, phi_integral, phi_series)
from lerchkit.special_values import negative_polylog, q_ratio

# by module path: the package namespace binds `monodromy` to a function
monodromy = importlib.import_module("lerchkit.monodromy")

# (s, z, c) -> (value, expected route)
PHI_REFERENCE = [
    ((1.5, 0.3 + 0.2j, 0.7),
     1.8510800645525349 + 0.1249172313197187j, "series"),
    ((0.5 + 0.5j, -0.4, 1.2),
     0.71703252244925209 - 0.01402503111842013j, "series"),
    ((2.5, 0.85, 0.6), 3.9665930971620789 + 0j, "integral"),
    ((1.2, -1.3, 0.8), 0.92938370276280535 + 0j, "integral"),
    ((0.8, 1.5j, 1.1),
     0.53890731371679212 + 0.39438623425694858j, "integral"),
    ((-1.5, 0.55, 0.9), 8.2280290245324927 + 0j, "series"),
    ((0.5, -3.7 + 2.2j, 2.4),
     0.13721183877298285 + 0.059461791130823644j, "integral"),
    ((1.7, 0.3, -0.8 + 0.4j),
     -0.49396193317903886 + 0.038080102132662497j, "series"),
    ((-0.7, 1.8 + 1.1j, 0.65),
     -0.43696668415568207 - 0.44367951781037279j, "reflection"),
]


def test_phi_reference_values_and_routes():
    for (s, z, c), want, route in PHI_REFERENCE:
        res = phi(s, z, c)
        assert res.method == route
        assert res.value == pytest.approx(want, abs=5e-11)


def test_phi_closed_form_point():
    # Phi(2, 1/2, 1) = 2 Li_2(1/2) = pi^2/6 - log(2)^2
    want = math.pi ** 2 / 6 - math.log(2.0) ** 2
    assert phi(2, Fraction(1, 2), 1).value == pytest.approx(want, abs=1e-12)


def test_phi_exact_rational_route():
    res = phi(-1, Fraction(1, 2), Fraction(1, 2))
    assert res.exact == 3
    assert res.method == "rational"
    res = phi(-2, Fraction(1, 3), Fraction(1, 4))
    want = (negative_polylog(2).eval(Fraction(1, 3), Fraction(1, 4))
            / Fraction(1, 3))
    assert res.exact == want


def test_rational_route_books_its_rounding():
    # the estimate was 0.0 on a value 1.64e-16 from the exact one
    res = phi(-2, Fraction(1, 7), Fraction(5, 4))
    err = abs(Fraction(res.value.real) - res.exact)
    assert 0 < err <= res.error_estimate <= 2 * err
    res = phi(-1, Fraction(1, 2), Fraction(1, 2))
    assert (res.value, res.error_estimate) == (3, 0.0)


def test_exact_value_beyond_double_range_is_an_accuracy_error():
    # Phi(-120, 9/10, 1/2) ~ 120! / log(10/9)^121 ~ 1e317
    with pytest.raises(AccuracyError, match="overflows double precision"):
        phi(-120, Fraction(9, 10), Fraction(1, 2))
    assert phi(-110, Fraction(9, 10), Fraction(1, 2)).value.real > 1e286


def test_exact_overflow_is_refused_before_the_rational_is_built():
    # 0 < z < 1, c > 0: the largest term of sum (n+c)^m z^n already lies
    # beyond double range, so no rational of degree m is built
    half = Fraction(1, 2)
    start = time.perf_counter()
    with pytest.raises(AccuracyError, match="overflows double precision"):
        phi(-200, half, half)
    assert time.perf_counter() - start < 0.05
    with pytest.raises(AccuracyError, match="overflows double precision"):
        phi(-1200, half, half)


def test_exact_path_refuses_above_its_budget_on_m():
    # other signs of z or c: no cheap overflow test, so the budget on m
    # refuses before any table is built (these raised RecursionError)
    for z, c in ((Fraction(-1, 2), Fraction(1, 2)),
                 (Fraction(1, 2), Fraction(-1, 2))):
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="budget m <= %d"
                           % eval_core.EXACT_M_BUDGET):
            phi(-1200, z, c)
        assert time.perf_counter() - start < 0.01
    m = eval_core.EXACT_M_BUDGET + 1
    with pytest.raises(AccuracyError, match="budget"):
        phi(-m, Fraction(-1, 2), Fraction(1, 2))


def test_strategies_agree_pairwise():
    # s = 0.03 and -1.5 take the integral route's q-ladder (j = 1 and 3)
    c = 0.85
    for s in (1.4, 0.03, -1.5):
        for z in (0.6, -0.7, 0.45 + 0.5j):
            a = phi_series(s, z, c).value
            b = phi_integral(s, z, c).value
            d = phi_c_shift(s, z, c + 0, 2).value
            assert a == pytest.approx(b, abs=1e-10), (s, z)
            assert a == pytest.approx(d, abs=1e-10), (s, z)
        # the two routes take z = 0 as well, where Phi = c^-s
        assert phi_integral(s, 0, c).value == pytest.approx(
            phi_series(s, 0, c).value, abs=1e-10)


def test_singular_strata_raise():
    with pytest.raises(StratumError):
        phi(2, 1, 1)            # z = 1
    with pytest.raises(StratumError):
        phi(2, 0.5, -3)         # c non-positive integer
    with pytest.raises(StratumError):
        phi(2, 1 + 1e-9, 0.5)   # within the 1e-8 guard of z = 1
    with pytest.raises(StratumError):
        phi(2, 0, 0.5)          # z = 0 stratum
    with pytest.raises(BranchError):
        phi(0.5, 1.5, 0.5)      # on the cut [1, oo)


def test_c_next_to_a_pole_is_classified_singular():
    # one radius, 1e-8, for the classifier and for phi's refusal
    assert classify_stratum(2, 0.5, -1 + 1e-10).tag == "singular_c"
    assert str(classify_stratum(2, 0.5, -1 + 1e-10)) == "singular_c"
    with pytest.raises(StratumError) as exc:
        phi(2, 0.5, -1 + 1e-10)
    assert exc.value.stratum == "singular_c"
    with pytest.raises(StratumError):
        hurwitz_zeta(2, -1 + 1e-10)


class _RouteReached(Exception):
    pass


def _refused_stratum(fn, *args):
    """The stratum of the StratumError that fn(*args) raises, else None."""
    try:
        fn(*args)
    except StratumError as exc:
        return exc.stratum
    except (_RouteReached, AccuracyError, BranchError, DomainError):
        pass
    return None


def test_evaluators_refuse_exactly_what_the_classifier_calls_singular(
        monkeypatch):
    # around z = 1 and c in {0, -1, -5}, off the real axis, both inside
    # and outside the 1e-8 radius: each evaluator raises StratumError with
    # classify_stratum's tag where that tag is singular, and nowhere else.
    # A point past the guards stops at its first sum or integral.
    def reached(*args, **kwargs):
        raise _RouteReached

    monkeypatch.setattr(eval_core, "quad_semiaxis", reached)
    monkeypatch.setattr(eval_core, "sum_with_tail_bound", reached)
    radii = (1e-13, 1e-11, 5e-9, 2e-8, 1e-6)
    zs = [1 + r * cmath.exp(1j * t) for r in radii
          for t in (math.pi / 3, 0.75 * math.pi, -2 * math.pi / 3)]
    cs = [n + r * cmath.exp(1j * t) for n in (0, -1, -5) for r in radii
          for t in (math.pi / 3, -0.75 * math.pi)]
    points = ([(z, 0.5) for z in zs] + [(z, c) for z in (0.5, -3 + 1j)
                                        for c in cs] + list(zip(zs, cs)))
    singular = 0
    for s in (2.0, -1.5):
        for z, c in points:
            tag = classify_stratum(s, z, c).tag
            want = None if tag in ("regular", "removable_c") else tag
            singular += want is not None
            assert _refused_stratum(phi, s, z, c) == want, (s, z, c)
            assert _refused_stratum(phi_c_shift, s, z, c, 2) == want, (s, z, c)
            if abs(z) < 1:
                assert _refused_stratum(phi_series, s, z, c) == want, (s, z, c)
            # zeta_H(s, c) = Phi(s, 1, c): z is fixed, only c is tested
            tag = classify_stratum(s, 0.5, c).tag
            want = None if tag in ("regular", "removable_c") else tag
            assert _refused_stratum(hurwitz_zeta, s, c) == want, (s, c)
    assert 0 < singular < 2 * len(points)


def test_results_beyond_double_range_are_refused():
    # the c-shift head sum z^k (c+k)^{-s} passes double range: by c_shift
    # (first two) and by the reflection (third) these made nan+nanj with
    # estimate nan; Gamma(172) on the integral route and (0.3+0.1i)^-1000
    # in the head raised a bare OverflowError
    for s, z, c in ((2.5, 2 + 1j, -2000.7), (2.5, 3j, -800.7),
                    (-1.5, 2 + 1j, -99999.7)):
        with pytest.raises(AccuracyError, match="overflows double") as exc:
            phi(s, z, c)
        assert str(c) in str(exc.value)
    for s, z, c in ((172, 0.9, 1.5), (1000, 0.5, -2.7 + 0.1j)):
        with pytest.raises(AccuracyError, match="overflows double precision"):
            phi(s, z, c)
    assert math.isfinite(phi(171, 0.9, 1.5).value.real)


def test_public_routes_share_phis_finiteness_exit():
    # the first returned nan+nanj with estimate nan; the c-shift head of
    # hurwitz_zeta, the ladder numerator and 1/Gamma(300) of the integral
    # under periodic_zeta raised a bare OverflowError.  lerch_zeta's
    # z = e^{2 pi i a} passes double range at a = 0.5 - 200i
    calls = (("Phi(2.5, (2+1j), -2000.7)",
              lambda: phi_c_shift(2.5, 2 + 1j, -2000.7, 2002)),
             ("zeta_H(-200, -2000.7)", lambda: hurwitz_zeta(-200, -2000.7)),
             ("F(0.3, -200)", lambda: periodic_zeta(0.3, -200)),
             ("F(0.3, 300)", lambda: periodic_zeta(0.3, 300)),
             ("zeta(2, (0.5-200j), 0.5)",
              lambda: lerch_zeta(2, 0.5 - 200j, 0.5)))
    for name, call in calls:
        with pytest.raises(AccuracyError) as exc:
            call()
        assert str(exc.value) == name + " overflows double precision"
        assert exc.value.bound == math.inf


def test_certain_c_shift_overflow_refuses_before_the_head(monkeypatch):
    # N log|z| = log|z^N| passes log 2^1024, for N of either sign (the
    # reflection's N < 0 takes z^N = 1 / z^|N|, past range for |z| < 1):
    # z^N overflows, so no head term is built (each takes a Log(c + k));
    # these built up to 100,000 head terms (0.1 to 0.3 s each) to refuse.
    # Only the head's Logs count: phi takes one Log z at its entry
    logs = [0]
    real_log = eval_core.principal_log

    def counted_log(*args):
        logs[0] += sys._getframe(1).f_code.co_name == "_c_shift_head"
        return real_log(*args)

    monkeypatch.setattr(eval_core, "principal_log", counted_log)
    calls = (("Phi(-1.5, (2+1j), -99999.7)",
              lambda: phi(-1.5, 2 + 1j, -99999.7)),
             ("Phi(2.5, (2+1j), -2000.7)",
              lambda: phi_c_shift(2.5, 2 + 1j, -2000.7, 2002)),
             ("Phi((2.5+0j), 3j, (-800.7+0j))", lambda: phi(2.5, 3j, -800.7)),
             ("Phi(-1.5, 0.9j, 99999.7)", lambda: phi(-1.5, 0.9j, 99999.7)),
             ("Phi(-1.5, (0.8+0.1j), 30000.3)",
              lambda: phi(-1.5, 0.8 + 0.1j, 30000.3)))
    for name, call in calls:
        with pytest.raises(AccuracyError) as exc:
            call()
        assert str(exc.value) == name + " overflows double precision"
    # past that test a head longer than MAX_TERMS refuses, named, unbuilt:
    # the first ran without end, the others took 0.7 s each to return
    for call in (lambda: hurwitz_zeta(2, complex(-1e300, 0.5)),
                 lambda: hurwitz_zeta(2, -3e5 - 0.5),
                 lambda: phi(2.5, 0.5, -300000.7)):
        with pytest.raises(AccuracyError, match=r"N = -?[0-9.e+]+ terms "
                           r"passes the budget \|N\| <= MAX_TERMS = 200000"):
            call()
    assert logs[0] == 0
    # below the threshold the head is built and the values stay finite
    assert phi(-1.5, 1.3 + 0.2j, -2000.7).method == "reflection"
    assert phi(2.5, 1.02 + 0.3j, -3000.3).method == "c_shift"
    assert phi(-0.5, 0.999j, 3000.3).method == "reflection"  # N = -3000
    assert logs[0] > 0


def test_routes_refuse_points_outside_their_domain():
    with pytest.raises(DomainError):
        phi_integral(2, 2 + 1j, -0.5)       # needs Re c > 0
    with pytest.raises(DomainError):
        phi_c_shift(2, 0.5j, 0.3, -1)       # negative shift count
    with pytest.raises(DomainError):
        periodic_zeta(1.2, 2)               # needs 0 < Re a < 1
    with pytest.raises(DomainError):
        phi_series(2, 1.2, 0.5)             # needs |z| < 1


def test_shift_count_passes_the_package_index_test():
    # a complex or NaN shift count raised a bare TypeError
    assert phi_c_shift(1.5, 0.9j, 0.5, 1.0) == phi_c_shift(1.5, 0.9j, 0.5, 1)
    for n in (0.9j, 1.5, -1):
        with pytest.raises(DomainError, match="got n_shift = "):
            phi_c_shift(1.5, 0.9j, 0.5, n)
    with pytest.raises(DomainError, match="n_shift must be finite"):
        phi_c_shift(1.5, 0.9j, 0.5, math.nan)


def test_series_at_z_zero_is_the_first_term():
    assert phi_series(2, 0, 0.5).value == 4  # c^-s


def test_non_finite_input_is_refused_up_front(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("non-finite input reached a route")

    for module, names in (
            (eval_core, ("quad_semiaxis", "sum_with_tail_bound",
                         "complex_gamma", "_c_shift_head", "exp_2pi_i")),
            (monodromy, ("semi_principal_log", "reciprocal_gamma",
                         "_expm1_2pi_i", "_stratum")),
            (deformed_polylog, ("_phi", "_unit_phase", "_pascal_band"))):
        for name in names:
            monkeypatch.setattr(module, name, no_work)
    nan, inf = math.nan, math.inf
    calls = [(phi, point) for point in (
        (1.5, 0.5, nan), (1.5, 0.5, inf), (inf, 0.5, 0.5), (nan, 0.5, 0.5),
        (1.5, nan, 0.5), (1.5, 0.5, 1j * inf), (1.5, complex(0.5, nan), 0.5),
        (10**400, 0.5, 0.5), (1.5, 0.5, Fraction(10**400, 3)))]
    # these ran 200,000 series terms or 12 quadrature levels, returned 0
    # or nan+nanj, or raised a bare ValueError or OverflowError
    calls += [(phi_series, (nan, 0.5, 1)), (phi_integral, (1.5, nan, 1)),
              (phi_integral, (1.5, 0.5, inf)),
              (phi_c_shift, (2, 0.5, nan, 1)), (lerch_zeta, (2, nan, 1)),
              (lerch_zeta, (inf, 0.5, 1)), (periodic_zeta, (0.3, nan)),
              (hurwitz_zeta, (2, nan)), (hurwitz_zeta, (2, inf)),
              (extended_polylog, (2, 0.5, nan)), (c_coeff, (0, nan)),
              (monodromy.f_elementary, (0, nan, 0.5, 0.5)),
              (monodromy.monodromy_Z_conj, (0, 1, 2, 0.5, inf)),
              (monodromy.monodromy_Z_conj, (0, 1, 2, nan, 0.5)),
              (monodromy.monodromy_Y, (-1, 1, nan, 0.5, 0.5)),
              (deformed_polylog.li_star, (2, 1, nan)),
              (deformed_polylog.rho, ("Z0", 2, nan)),
              (deformed_polylog.rho_word, ("Z0 Z1", 2, inf))]
    # a tol that is NaN, infinite or negative (these drew 200,000 terms)
    calls += [(functools.partial(fn, tol=tol), p)
              for tol in (nan, inf, -1.0)
              for fn, p in ((phi, (2, 0.5, 1)), (phi_series, (2, 0.5, 1)),
                            (deformed_polylog.li_star, (2, 1, 0.5)))]
    for fn, point in calls:
        with pytest.raises(DomainError, match="must be finite") as exc:
            fn(*point)
        assert type(exc.value) is DomainError, (fn, point)
    with pytest.raises(StratumError) as exc:
        phi(1.5, inf, 0.5)
    assert exc.value.stratum == "singular_zinf"
    assert phi(-1, Fraction(1, 2), 1, tol=0).exact == 4  # tol = 0 still runs


def test_series_evaluates_each_term_once(monkeypatch):
    # the tail bound at n reuses term n instead of evaluating it again;
    # the terms take log(n + c) from cmath.log, which also forms Log z once
    z = 0.5 + 0.1j
    logs, log_z, drawn = [0], [0], [0]
    real_log, real_sum = cmath.log, eval_core.sum_with_tail_bound

    def counted_log(w):
        if w == z:
            log_z[0] += 1
        else:
            logs[0] += 1
        return real_log(w)

    def counted_sum(terms, *args, **kwargs):
        def counted():
            for t in terms:
                drawn[0] += 1
                yield t
        return real_sum(counted(), *args, **kwargs)

    monkeypatch.setattr(cmath, "log", counted_log)
    monkeypatch.setattr(eval_core, "sum_with_tail_bound", counted_sum)
    res = phi_series(2.0, z, 1.3)
    monkeypatch.undo()
    assert drawn[0] > 0 and logs[0] == drawn[0] and log_z[0] == 1
    assert res.value == pytest.approx(phi_integral(2.0, z, 1.3).value,
                                      abs=1e-11)


def _count_drawn_terms(monkeypatch):
    drawn = [0]
    real_sum = eval_core.sum_with_tail_bound

    def counted_sum(terms, *args, **kwargs):
        def counted():
            for t in terms:
                drawn[0] += 1
                yield t
        return real_sum(counted(), *args, **kwargs)

    monkeypatch.setattr(eval_core, "sum_with_tail_bound", counted_sum)
    return drawn


def test_series_tail_test_runs_at_the_current_n(monkeypatch):
    # the ratio majorant at n takes over once rho(n) < 1 (n = 30 here);
    # a fixed burn-in to n0 = |c| + 2|s| / 0.15 drew 136 terms
    drawn = _count_drawn_terms(monkeypatch)
    res = phi_series(10, 0.5, 1)
    assert 0 < drawn[0] <= 40
    want = 1.0004926412120136  # 2 Li_10(1/2), 40-digit mpmath
    assert abs(res.value - want) <= res.error_estimate + EPS * want


def test_series_with_big_s_stays_finite():
    # rho(n) is formed only once |s|/(n - |c|) < -log|z|, so e^q cannot
    # overflow; the whole sum of the first point lies below 5e-324
    res = phi(1e4, 0.5, 1.5)
    assert res.method == "series" and res.value == 0j
    # 1.5^-800 (1 + 2^-1 (5/3)^-800 + ...), and 1.01^-10000 (1 + ...),
    # whose later terms underflow until q = 10^4 / (n - 1.01) < log 2
    for s, c in ((800, 1.5), (1e4, 1.01)):
        res = phi(s, 0.5, c)
        want = c ** -s
        assert abs(res.value - want) <= res.error_estimate + EPS * want


def test_series_below_the_least_double_draws_no_term(monkeypatch):
    # sum |t_n| <= e^{theta |Im s|} (min |n + c|)^{-Re s} / (1 - |z|),
    # theta = |Arg c|, also for Re c < 0: here 1.5^-10000 / 0.5, so the
    # sum is 0 to within 5e-324 with no term drawn, where the ratio bound
    # waited for 14,430 underflowed terms (15,065 at Im s = 3000, for
    # which theta = pi left log M far above log 5e-324, and 16,134 at
    # Im s = 5000, c = -0.5 + 3i, while Re c < 0 took theta = pi)
    drawn = _count_drawn_terms(monkeypatch)
    for s, z, c in ((1e4, 0.5, 1.5), (1e4 + 30j, 0.5j, 1.5 - 0.2j),
                    (1e4, -0.5, -0.5 + 3j), (1e4 + 3000j, 0.5, 1.5),
                    (1e4 + 5000j, 0.5, -0.5 + 3j)):
        res = phi_series(s, z, c)
        assert (res.value, res.error_estimate) == (0j, 5e-324), (s, z, c)
    assert drawn[0] == 0
    # here log M is about -80 (1.5^-200 / 0.5), above log 5e-324: the
    # ratio bound still decides
    assert phi_series(200, 0.5, 1.5).value != 0
    assert drawn[0] > 0


def test_overflowing_series_term_is_an_accuracy_error():
    # the terms (n + 3)^700 0.6^n pass double range long before their
    # peak near n = 1370
    with pytest.raises(AccuracyError, match="overflows double precision"):
        phi(-700, 0.6, 3.0)


def _direct_sum(mpmath, s, z, c):
    """sum z^n (n+c)^-s in mpmath, stopped once the tail is below
    10^-dps."""
    s, z, c = mpmath.mpc(s), mpmath.mpc(z), mpmath.mpc(c)
    az, ac, total, n = abs(z), abs(c), mpmath.mpc(0), 0
    r = (1 + az) / 2
    while True:
        t = z ** n * (n + c) ** (-s)
        total += t
        n += 1
        # for k >= n > |c|: |t_{k+1} / t_k| <= |z| e^{|s| / (n - |c|)}
        if (n > ac + 2 and az * mpmath.exp(abs(s) / (n - ac)) <= r
                and abs(t) / (1 - r) < mpmath.mpf(10) ** (-mpmath.mp.dps)):
            return complex(total)


def test_series_majorant_is_certified():
    # |s| <= 30, |z| <= 0.75, Re c of both signs away from the integers:
    # the error never exceeds the estimate (tail bound plus rounding).
    # Loose tolerances let the tail bound dominate the estimate, and a
    # third of the points is real with z > 0, so the tail cannot cancel
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(13)
    for i in range(48):
        s = cmath.rect(rng.uniform(0.0, 30.0), rng.uniform(-math.pi, math.pi))
        z = cmath.rect(0.75 * rng.random() ** 0.5,
                       rng.uniform(-math.pi, math.pi))
        c = complex(rng.randint(-4, 5) + rng.uniform(0.05, 0.95),
                    rng.uniform(-2.0, 2.0))
        if i % 3 == 0:
            s, z, c = complex(s.real), complex(abs(z)), complex(c.real)
        res = phi_series(s, z, c, tol=(1e-12, 1e-8, 1e-4, 1e-2)[i % 4])
        # 40 digits below the largest term
        big = max(n * math.log(abs(z)) - (s * cmath.log(n + c)).real
                  for n in range(400))
        with mpmath.workdps(40 + max(0, int(big / math.log(10.0)))):
            want = _direct_sum(mpmath, s, z, c)
        err = abs(res.value - want)
        assert err <= res.error_estimate + EPS * abs(want), (s, z, c)


class _PrincipalLogCmath:
    """cmath with log replaced by principal_log: run under it, phi_series
    is the reference whose terms take the principal log."""

    def __getattr__(self, name):
        return getattr(cmath, name)

    @staticmethod
    def log(w):
        return principal_log(w)


def test_series_log_equals_principal_log_bit_for_bit(monkeypatch):
    # cases: real c <= 0 (public phi_series only), c with a -0.0
    # imaginary part, complex c; Log z itself is the same under both logs
    cases = [(2.0, 0.5 + 0.1j, -0.5), (-1.5 + 0.7j, -0.6 + 0.2j, -2.3),
             (0.5, 0.3, complex(-1.5, -0.0)), (3.0, -0.4, complex(0.7, -0.0)),
             (2.0, 0.5 + 0.1j, 0.4 - 0.8j), (-4.5, 0.7j, -2.5 + 1e-3j)]
    for s, z, c in cases:
        got = phi_series(s, z, c)
        with monkeypatch.context() as m:
            m.setattr(eval_core, "cmath", _PrincipalLogCmath())
            want = phi_series(s, z, c)
        assert (got.value, got.error_estimate) == (want.value,
                                                   want.error_estimate), c
    # the sign of a zero imaginary part of c does not reach the terms
    for s, z, c in cases[2:4]:
        assert phi_series(s, z, c) == phi_series(s, z, c.real)


def _count_integrand_calls(monkeypatch):
    calls = [0]
    real_quad = eval_core.quad_semiaxis

    def counted_quad(f, *args, **kwargs):
        def g(t):
            calls[0] += 1
            return f(t)
        return real_quad(g, *args, **kwargs)

    monkeypatch.setattr(eval_core, "quad_semiaxis", counted_quad)
    return calls


def test_integral_refusal_is_cheap(monkeypatch):
    # at Im s = 12, 1/Gamma(s) ~ 1e8 amplifies the integrand's rounding far
    # above 1e-13: the quadrature refuses at level 5 (956 calls), the
    # first level whose target is no longer inflated by a far-off level sum
    calls = _count_integrand_calls(monkeypatch)
    with pytest.raises(AccuracyError, match="rounding floor .* level 5,"):
        phi(0.5 + 12j, 0.9 + 0.3j, 0.4)
    assert calls[0] <= 1_000


# box points whose quadrature converges only at level 8 or later, with a
# target above the rounding floor, and their values before the floor rule
SLOW_QUADRATURE = [
    ((4.281909530319474, 30.914096852930076 + 1.5096229753132897j,
      1.1513550620533106 + 2.6989555854775986j),
     -0.00043897019336209446 + 0.0001252341648785031j, "integral"),
    ((-5.995922457542969, -0.8334184537456808 - 1.2266439069621173j,
      -0.023689146435049935 - 1.3354386997382695j),
     33.78310963685942 + 36.69461046059082j, "reflection"),
    ((-1.6549538344243828, 1.171034115465843 - 0.3851547767150901j,
      1.9668717647219829 - 1.2175012208274263j),
     2.2505554024139194 + 20.606043100386728j, "reflection"),
]


def test_slow_quadratures_above_the_floor_still_converge():
    for (s, z, c), want, route in SLOW_QUADRATURE:
        res = phi(s, z, c)
        assert res.method == route
        assert abs(res.value - want) <= 1e-14 * max(1.0, abs(want))


# |z| > 1 with the pole of 1/(1 - z e^-t) near the real axis: the plain
# kernel runs all 12 quadrature levels here (about 1e5 integrand calls)
# and refuses; with the pole at t0 = Log z taken out it converges.  45-digit
# references: mpmath quadrature of the subtracted integrand, checked at 65
# digits, against mpmath.lerchphi (real c) and, for the first point,
# against the unsubtracted integral split at Re t0.
POLE_NEAR_AXIS = [
    ((1.076068850956796, 35.03394371378086 - 2.1984387507431613j,
      -0.6691038158667579 + 0.7692172000369193j),
     complex("-26.6341642595483578115264095609546808567904966"
             "+68.9467122063993112873427155212147439477107952j")),
    ((3.4568939770232365 + 4.812972952845694j,
      18.431010516159773 + 0.00709450837008603j,
      5.630698765916181 - 2.5294879038276634j),
     complex("-0.00000352348461471640205383212120182333325134664833"
             "+0.0000376498300987045126039785791723342743028581296j")),
    ((2.5, 5 + 1e-6j, 0.7),
     complex("2.33935485774824443681686184954385620653959596"
             "+1.56403314983507877220511704277932687249516284j")),
    ((1.3, 1.5 + 1e-5j, 0.6),
     complex("2.39661076960637784635799761510860449630741755"
             "+2.09342282483208947876351537170493103811881281j")),
]


def test_pole_near_the_axis_converges_within_its_estimate(monkeypatch):
    calls = _count_integrand_calls(monkeypatch)
    for (s, z, c), want in POLE_NEAR_AXIS:
        calls[0] = 0
        res = phi(s, z, c)
        assert abs(res.value - want) <= res.error_estimate, (s, z, c)
        assert res.error_estimate <= 1e-12 * (1.0 + abs(want))
        assert calls[0] < 2_000, (s, z, c)


def test_pole_far_from_the_axis_is_not_subtracted():
    # g(t0) is 1e14 times g(Re t0): the subtraction would cost digits, so
    # the route integrates the plain kernel, and the value is that of the
    # plain quadrature bit for bit
    res = phi(5.784472829332346 - 8.489143972192258j,
              -1.108434255380906 + 0.14970024530836087j,
              5.03680460996577 + 1.3583245299860742j)
    assert res.method == "integral"
    assert res.value == 5.7375996551827635e-06 - 3.5807923003110603e-06j


def test_quadrature_error_counts_its_rounding():
    assert quad_semiaxis(lambda node: math.exp(-node[0])).error >= EPS


# far-field points whose Mellin integrand t^(s-1) e^(-ct) lies below the
# quadrature's cut at t = 1/e and peaks at t = (s - 1) / c, far from it;
# a walk out from t = 1/e alone returned 2.0e-31 for the first (estimate
# 5.9e-31), missed the second by 2000 times its estimate and the third by
# a relative 0.99
FAR_PEAK = [(57.62, -0.571 + 1.976j, 0.314), (40, 2 + 1j, 3),
            (4.477, -0.867 + 0.097j, 7080.03)]


def test_quadrature_walk_starts_at_a_far_peak():
    mpmath = pytest.importorskip("mpmath")
    for s, z, c in FAR_PEAK:
        res = phi(s, z, c)
        assert res.method == "integral"
        wants = []
        for dps in (30, 45):
            with mpmath.workdps(dps):
                wants.append(complex(mpmath.lerchphi(z, s, c)))
        # the reference holds where its two precisions agree
        assert abs(wants[0] - wants[1]) <= 1e-20 * abs(wants[1]), (s, z, c)
        assert abs(res.value - wants[1]) <= res.error_estimate, (s, z, c)


# Re s <= 0, |z| > 0.75 with Re c outside (0, 1): one signed c-shift into
# the strip, then the three-term formula.  Shifting up past the strip and
# back down again asked the inner quadratures for targets below their
# rounding floor, and both points were refused.  40-digit references: the
# c-shift taken exactly, then mpmath quadrature of the integral
# integrated by parts until Re(s + j) >= 2, split at Re Log z.
ONE_SIGNED_SHIFT = [
    ((-3.3578677907102374, -1.9510833909955383 - 1.2862789268899586j,
      -0.729250019728894 - 0.17689036898757093j),
     -0.685449979323336 + 0.28088055738948475j),
    ((-0.22506844219199085, -1.3951148848543318 + 5.202773412770687j,
      4.8893409245542685 + 1.5517308974105006j),
     0.0809067483036982 + 0.22896207804526203j),
]


def test_reflection_shifts_c_into_its_strip_in_one_step():
    for (s, z, c), want in ONE_SIGNED_SHIFT:
        res = phi(s, z, c)
        assert res.method == "reflection"
        err = abs(res.value - want)
        assert err <= 1e-14 * max(1.0, abs(want)), (s, z, c)
        assert err <= res.error_estimate + EPS * abs(res.value), (s, z, c)


def test_re_c_next_to_an_integer_takes_the_other_routes():
    # within NEAR of an integer Re c, the reflection's head meets c + k = 0
    # or its inner z = e^{-+2 pi i c'} lies next to z = 1, though the
    # point itself is regular; the integral takes these points
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for s, z, c in [(-1.5, 0.9j, 2 + 1e-10), (-1.5, 0.9j, 1 - 1e-11),
                        (-1.5, -2.0, 3 - 1e-9)]:
            assert classify_stratum(s, z, c).tag == "regular"
            res = phi(s, z, c)
            want = complex(mpmath.lerchphi(z, s, c))
            err = abs(res.value - want)
            assert err <= 1e-14 * max(1.0, abs(want)), (s, z, c)
            assert err <= res.error_estimate, (s, z, c)
    # off the real c axis the reflection returned this point; the route
    # that takes it now agrees within the estimate
    res = phi(-1.5, 0.9j, 2 + 1e-10 + 1.5j)
    assert abs(res.value - (-1.58655476797056 + 2.57159918197115j)) \
        <= res.error_estimate


def test_integer_re_c_below_re_s_zero_takes_the_other_routes():
    # the reflection's strip 0 < Re c < 1 is out of reach for integer
    # Re c; c_shift and the q-laddered integral take these points
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for s, z, c in [(-1.5, 0.9j, 1), (-2.5 + 1j, 0.8 - 0.5j, 1 + 0.7j),
                        (-1.5, 0.9j, -1 + 0.3j)]:
            res = phi(s, z, c)
            assert res.method in ("integral", "c_shift"), (s, z, c)
            want = complex(mpmath.lerchphi(z, s, c))
            err = abs(res.value - want)
            assert err <= 1e-13 * max(1.0, abs(want)), (s, z, c)
            assert err <= res.error_estimate, (s, z, c)
        res = extended_polylog(-1.5, 0.9j, 1)
        want = complex(mpmath.polylog(-1.5, 0.9j))
        err = abs(res.value - want)
        assert err <= 1e-13 * max(1.0, abs(want))
        assert err <= res.error_estimate


def _erdelyi_reference(mpmath, s, L, c):
    """Phi(s, z, c) in mpmath by Erdelyi's series about z = 1, for
    s off the positive integers, given L = Log z with |L| < 2 pi:
    z^-c [Gamma(1-s) (-L)^(s-1) + sum_k zeta(s-k, c) L^k / k!].  Its
    terms shrink like (|L| / 2 pi)^k; the sum stops at a term below
    eps |sum|."""
    mp = mpmath.mp
    s, L, c = mp.mpc(s), mp.mpc(L), mp.mpc(c)
    total = mp.gamma(1 - s) * (-L) ** (s - 1)
    for k in count():
        term = mp.zeta(s - k, c) * L ** k / mp.factorial(k)
        total += term
        if k > 3 and abs(term) < mp.eps * abs(total):
            return mp.exp(-c * L) * total


@pytest.mark.parametrize("s", [-1.5, -0.7 + 1j, -0.3 + 2j])
@pytest.mark.parametrize("c", [0.7, 2.3])
def test_reflection_below_the_cut_next_to_one_lies_within_its_estimate(s, c):
    # below the cut a = Log z / 2 pi i lies next to 1, and the inner call
    # at c = 1 - a took 1.0 - a, relative error EPS / |1 - a| that no
    # estimate booked: 28 of these 36 values lay outside their estimates,
    # phi(-1.5, 1 + 1e-6 e^{-0.3i}, 0.7) by 1.4e4 times
    mpmath = pytest.importorskip("mpmath")
    for eps in (1e-6, 1e-4, 1e-2):
        for theta in (-0.3, -1.0):
            z = 1.0 + eps * cmath.exp(1j * theta)
            res = phi(s, z, c)
            assert res.method == "reflection", (z, res.method)
            refs = []
            for dps in (30, 45):
                with mpmath.workdps(dps):
                    refs.append(_erdelyi_reference(
                        mpmath, s, mpmath.log(mpmath.mpc(z)), c))
            want = complex(refs[1])
            assert abs(refs[0] - refs[1]) <= 1e-20 * abs(want), z
            assert abs(res.value - want) <= res.error_estimate, z


@pytest.mark.parametrize("s", [-1.5, -0.3 + 2j])
def test_lerch_zeta_next_to_a_0_and_1_lies_within_its_estimate(s):
    # lerch_zeta rounded z = e^{2 pi i a}, then took its Log again, which
    # lost the digits of a next to a = 0 and 1: 8 of these 12 values lay
    # outside their estimates, (-0.3+2j, 1 - 1e-7, 0.7) by 2.3e4 times.
    # Log z is 2 pi i a, or 2 pi i (a - 1) above a = 1/2, at the exact a
    mpmath = pytest.importorskip("mpmath")
    for k in (3, 5, 7):
        for a in (10.0 ** -k, 1.0 - 10.0 ** -k):
            res = lerch_zeta(s, a, 0.7)
            assert res.method == "reflection", (a, res.method)
            refs = []
            for dps in (30, 45):
                with mpmath.workdps(dps):
                    x = mpmath.mpf(a) - (a > 0.5)
                    refs.append(_erdelyi_reference(
                        mpmath, s, 2j * mpmath.pi * x, 0.7))
            want = complex(refs[1])
            assert abs(refs[0] - refs[1]) <= 1e-20 * abs(want), a
            assert abs(res.value - want) <= res.error_estimate, a


# 0 < Re c < 1/16 with |z| > 0.75 and no reflection takes one c-shift
# up: the integral route refuses both points (a rounding floor above
# the target, then an integrand not negligible at the window edge).
# References: the second from a 40-digit direct sum, the first from the
# shift taken exactly and a 40-digit mpmath quadrature of the integral
# at c + 1, split at Re Log z.
SMALL_RE_C = [
    ((1.5, 2 + 1j, 1e-3 + 0.3j),
     -3.1865653152306454 - 2.6579224254274206j),
    ((-1.5, 0.9j, 1e-13 + 0.3j),
     -0.62263081083100186 - 0.36341371572504663j),
]


def test_small_positive_re_c_takes_one_c_shift():
    for (s, z, c), want in SMALL_RE_C:
        res = phi(s, z, c)
        assert res.method == "c_shift", (s, z, c)
        err = abs(res.value - want)
        assert err <= 1e-14 * max(1.0, abs(want)), (s, z, c)
        assert err <= res.error_estimate, (s, z, c)
    # 40-digit direct sum of the series, |z| < 1
    res = phi_c_shift(2.5, 0.9 + 0.3j, 0.01 + 0.3j, 1)
    want = -14.512931375112514 + 12.883125351270172j
    assert abs(res.value - want) <= 1e-15 * abs(want)


def _box_points(seed, n):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    gen = workloads.box_points(seed)
    return [next(gen)[:3] for _ in range(n)]


def test_counting_wrapper_changes_nothing(monkeypatch):
    # the benchmark's trace counts integrand calls by wrapping each
    # integrand as g(t) = f(t), so quad_semiaxis must hand it one
    # argument, the node (t, log t, e^-t) as one tuple.
    # Through the wrapper phi gives the same values and refusals on 48
    # `box` points, and makes 32,076 integrand calls (58,022 while every
    # level refined the whole window)
    points = _box_points(4, 48)

    def outcomes():
        seen = []
        for s, z, c in points:
            try:
                got = phi(s, z, c)
            except AccuracyError as exc:
                got = (str(exc), exc.best, exc.bound)
            seen.append(repr(got))
        return seen

    plain = outcomes()
    calls = _count_integrand_calls(monkeypatch)
    assert outcomes() == plain
    assert calls[0] == 32_076


def _meets_small_re_c(s, z, c):
    """True when phi(s, z, c) may dispatch a call with 0 < Re c < 1/16 and
    |z| > 0.75 to the c_shift-first branch: directly, or through one of
    the reflection's inner calls, whose c is a or 1 - a, a = Log z / 2 pi i."""
    if abs(z) <= 0.75:
        return False
    if 0 < c.real < 0.0625:
        return True
    a = (semi_principal_log(z) / (2j * math.pi)).real
    return s.real <= 0 and (0 < a < 0.0625 or a > 0.9375)


# (seed, index) of the points among the first 512 `box` points of seeds
# 1-3 that meet the branch and that neither route can certify
SMALL_RE_C_REFUSED = {
    (1, 11), (1, 43), (1, 62), (1, 121), (1, 244), (1, 274), (1, 338),
    (1, 509), (2, 22), (2, 26), (2, 166), (2, 185), (2, 188), (2, 482),
    (3, 37), (3, 116), (3, 200), (3, 234), (3, 344), (3, 382), (3, 410),
    (3, 506),
}


def test_small_positive_re_c_loses_no_box_point():
    # every point that meets the branch returns, except those above; the
    # shift alone returns eleven of them (1:86, 1:199, 1:307, 1:347,
    # 1:410, 1:413, 1:502, 1:506, 3:121, 3:154, 3:496), and the integral
    # fallback keeps the others the integral route returns
    met = 0
    for seed in (1, 2, 3):
        for i, (s, z, c) in enumerate(_box_points(seed, 512)):
            s, z, c = complex(s), complex(z), complex(c)
            if (seed, i) in SMALL_RE_C_REFUSED or not _meets_small_re_c(s, z, c):
                continue
            met += 1
            phi(s, z, c)  # raises if the point is refused
    assert met == 44


def test_the_disk_takes_only_the_series(monkeypatch):
    # inside |z| <= 0.75 every c goes to the series: the 540 points with
    # Re c <= 0 among the first 512 `box` points of seeds 1-10 took a
    # c-shift, whose _compose step re-entered phi for the same series
    detours = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            detours.append(name)
            return fn(*args, **kwargs)
        return wrapped

    disk = [(s, z, c) for seed in range(1, 11)
            for s, z, c in _box_points(seed, 512)
            if abs(complex(z)) <= 0.75 and complex(c).real <= 0]
    assert len(disk) == 540
    for name in ("phi_c_shift", "_compose"):
        monkeypatch.setattr(eval_core, name,
                            counted(name, getattr(eval_core, name)))
    assert {phi(s, z, c).method for s, z, c in disk} == {"series"}
    assert not detours, detours


def test_box_refusals_are_cheap(monkeypatch):
    # integrand calls made inside refused phi calls over the first 512
    # `box` points of seeds 1-3 (238,049 in 136 refusals when written,
    # 262,969 in 139 with a retry at each level of the reflection):
    # a refusal stops where the rounding floor passes the target, and
    # the inner targets of c_shift and reflection are not cut so far
    # below it that most points refuse
    calls = _count_integrand_calls(monkeypatch)
    refused_calls = refused = 0
    for seed in (1, 2, 3):
        for s, z, c in _box_points(seed, 512):
            calls[0] = 0
            try:
                phi(s, z, c)
            except AccuracyError:
                refused += 1
                refused_calls += calls[0]
    assert refused_calls <= 238_049
    assert refused <= 136


def test_series_and_c_shift_estimates_count_rounding():
    # large |s| makes each term e^w round by about eps |w|; the estimates
    # used to hold the tail bound (series) or a flat 1e-15 |head|
    # (c_shift) alone and sat 1e5 times below the error.  40-digit
    # direct-sum references
    cases = [
        ((-4.8335627697991965 - 10.189474229307727j,
          -0.4798746732729076 + 0.22210943774403966j,
          0.6979650986122818 + 2.778890235792293j),
         -0.004732115534255231 - 0.0017629801882207644j, "series"),
        ((-5.0869395887717115 - 13.470993156162384j,
          0.47103574121391695 + 0.06699454017307174j,
          -0.6971916345695499 + 1.370167061411455j),
         2.870094391816123e-05 - 0.0029166024155722033j, "series"),
    ]
    for (s, z, c), want, method in cases:
        res = phi(s, z, c)
        assert res.method == method
        assert abs(res.value - want) <= res.error_estimate <= 1e-11, (s, z, c)
    # the second point inside the disk is a series point; its head of two
    # terms still checks the c-shift's rounding
    (s, z, c), want, _ = cases[1]
    res = phi_c_shift(s, z, c, 2)
    assert res.method == "c_shift"
    assert abs(res.value - want) <= res.error_estimate <= 1e-11


def _count_series_terms(monkeypatch):
    """[terms drawn by eval_core's sum_with_tail_bound], a live count."""
    drawn = [0]
    summed = eval_core.sum_with_tail_bound

    def counted(terms, *args, **kwargs):
        def each():
            for term in terms:
                drawn[0] += 1
                yield term
        return summed(each(), *args, **kwargs)

    monkeypatch.setattr(eval_core, "sum_with_tail_bound", counted)
    return drawn


def test_series_majorant_reads_re_c(monkeypatch):
    # for k >= n >= 2 - Re c, |k + c| >= k + Re c, so the ratio bound
    # holds at once for large Re c or |Im c|; read from n >= |c| + 2 it
    # drew 200,000 terms and refused; past Re c = MAX_TERMS the budget
    # test must not count the n below 0.  30-digit direct sums of 200
    # terms, whose omitted tails lie below 0.6^200
    mpmath = pytest.importorskip("mpmath")
    drawn = _count_series_terms(monkeypatch)
    for s, z, c in ((2, 0.5, 1 + 3e5j), (0.5, 0.6, 200000.3),
                    (0.5, 0.6, 1e10)):
        drawn[0] = 0
        res = phi(s, z, c)
        assert res.method == "series" and drawn[0] < 100
        with mpmath.workdps(30):
            want = complex(mpmath.fsum(
                mpmath.mpf(z) ** n * (n + mpmath.mpmathify(c)) ** -s
                for n in range(200)))
        assert abs(res.value - want) <= res.error_estimate <= 1e-12


def test_series_past_the_term_budget_refuses_before_the_first_term(
        monkeypatch):
    # no n within MAX_TERMS has n >= 2 - Re c (first point) or
    # rho(n) < 1, that is n > |s| / log 2 - Re c = 4.3e5 (second); the
    # second drew 200,000 terms (0.1 s) before it refused
    drawn = _count_series_terms(monkeypatch)
    budget = r"series of N = %s terms passes the budget \|N\| <= MAX_TERMS"
    for (s, z, c), n in (((2.5, 0.5, -300000.7), r"3e\+05"),
                         ((3e5j, 0.5, 1.5), r"4\.33e\+05")):
        with pytest.raises(AccuracyError, match=budget % n):
            phi(s, z, c)
    assert drawn[0] == 0


def test_integral_estimate_counts_the_dropped_left_tail():
    # at Re s = 0.033 the plain integrand t^(s-1) carries about 7e-12 below
    # t = 1e-290, where the quadrature stops; one step of the q-ladder
    # integrates t^s instead, whose tail there is negligible.  40-digit
    # reference as above
    res = phi(0.0329697517943881, -37.93749371271551 - 0.21567143973750924j,
              3.307747594343919 - 0.8452208956831502j)
    want = 0.024921528613196246 + 0.00014595285953488037j
    assert res.method == "integral"
    err = abs(res.value - want)
    assert err <= res.error_estimate <= 1e-10
    assert err <= 1e-14 * max(1.0, abs(want))


def test_integral_ladder_below_re_s_one_half(monkeypatch):
    # Re s = 0.016: the plain integrand t^(s-1) never lets the quadrature's
    # levels settle (12 levels, then a refusal); one step of the q-ladder
    # converges.  40-digit reference as above
    calls = _count_integrand_calls(monkeypatch)
    res = phi(0.01592769728216581, 6.67672378601727 - 9.67801600910213j,
              3.3863922711397567 - 2.7562765979168993j)
    want = -0.04310487350664083 - 0.07590726457185902j
    assert res.method == "integral"
    assert abs(res.value - want) <= 1e-14 * max(1.0, abs(want))
    assert calls[0] < 2_000


def test_integral_keeps_the_simple_pole_near_the_cut(monkeypatch):
    # |z| > 1 just off the cut with 0 < Re s < 1/2: the laddered kernel's
    # pole of order j + 1 at Log z would run all 12 levels; the plain
    # kernel with its simple pole taken out converges at once.  40-digit
    # references (mpmath.lerchphi, checked by quadrature)
    calls = _count_integrand_calls(monkeypatch)
    cases = [
        ((0.3, 5 + 1e-6j, 0.7),
         -0.33506883321993298511 + 0.24394953966521827027j),
        ((0.45, 3 + 0.01j, 1.2),
         -0.5885451819796527231 + 0.40762596844986064868j),
    ]
    for point, want in cases:
        res = phi(*point)
        err = abs(res.value - want)
        assert res.method == "integral"
        assert err <= res.error_estimate <= 1e-12
    assert calls[0] < 2_000


def test_integral_estimate_counts_the_error_of_gamma():
    # 1/Gamma(s+1) at Im s = 13.7 is off by about 8e-14 relative, which
    # the quadrature cannot see; 50-digit reference as above
    res = phi(0.28242610086897013 + 13.747459382976675j,
              -11.246344349458735 - 23.700196277263498j,
              1.0264168625981709 + 2.435472396931318j)
    want = 3680432.2886132917 - 4817692.9015826936j
    assert res.method == "integral"
    assert abs(res.value - want) <= res.error_estimate


def test_classify_stratum_tags():
    assert classify_stratum(2, 0.5, 0.5).tag == "regular"
    assert classify_stratum(2, 0.5, 3).tag == "removable_c"
    assert classify_stratum(2, 0.0, 0.5).tag == "singular_z0"
    assert classify_stratum(2, 1.0, 0.5).tag == "singular_z1"
    assert classify_stratum(2, 0.5, -2).tag == "singular_c"
    # a positive integer c is removable: it joins no singular tag
    assert classify_stratum(2, 1.0, 1).tag == "singular_z1"
    assert classify_stratum(2, 0.0, 2).tag == "singular_z0"
    assert classify_stratum(2, 1.0, 0).tag == "multiple"


def test_hurwitz_zeta_reference():
    cases = [
        ((2, 0.3), 12.245364546107732 + 0j),
        ((0.5 + 3j, 0.7), 0.25737135971126707 + 0.71523119493669696j),
        ((-2.5, 1.3), -0.05879141110697949 + 0j),
        ((3, 2.5 + 1.5j), 0.024863946554458335 - 0.074928693953482089j),
    ]
    for (s, c), want in cases:
        assert hurwitz_zeta(s, c).value == pytest.approx(want, abs=1e-10)


def test_hurwitz_zeta_estimate_counts_rounding():
    # Euler-Maclaurin cancels badly for Re s << 0: the values below are
    # poor, but the estimate has to say so (40-digit mpmath references)
    cases = [
        ((-2.5, 1.3), -0.05879141110697949),
        ((-5.5, 0.7), 0.0033300854596457134),
        ((-8.5, 0.7), -0.002822799495331288),
        ((-12.5, 0.7), -0.026043586687027342),
        ((-20.5, 0.7), -69.4798215539926),
    ]
    for (s, c), want in cases:
        r = hurwitz_zeta(s, c)
        assert abs(r.value - want) <= r.error_estimate, (s, c)


def test_hurwitz_zeta_pole():
    with pytest.raises(DomainError):
        hurwitz_zeta(1, 0.5)
    # as_int calls this s the integer 1 (a box of side 2 INT_TOL); a disc
    # of radius INT_TOL let it through to a value of about 5.6e11 (1 - i)
    with pytest.raises(PoleError):
        hurwitz_zeta(1 + 9e-13 + 9e-13j, 0.5)


def _counted(monkeypatch, module, names):
    """Count the calls of module.<name> for each name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(module, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_hurwitz_zeta_is_one_head(monkeypatch):
    # one Euler-Maclaurin sum: a c with Re c < 1/2 shifts inside the same
    # head that Euler-Maclaurin sums (two heads and a _compose step before)
    calls = _counted(monkeypatch, eval_core, ("_c_shift_head", "_compose"))
    # (30-digit mpmath.zeta references)
    for s, c, want in ((2, 0.3, 12.245364546107732),
                       (2, -2.7, 14.769375845132315),
                       (3, -4.5 + 0.25j,
                        0.019659828148421859 - 11.586935209332418j)):
        before = calls["_c_shift_head"]
        r = hurwitz_zeta(s, c)
        assert calls["_c_shift_head"] - before == 1, (s, c)
        assert r.method == "euler_maclaurin"
        assert abs(r.value - want) <= r.error_estimate, (s, c)
    assert calls["_compose"] == 0


def test_hurwitz_zeta_underflow_builds_no_head(monkeypatch):
    # every term (n + 1.5)^-1e5 underflows: the whole-sum bound returns 0
    # with the least positive double as its estimate, and no head term is
    # built (this built 120,005 head terms to return 0 with estimate 0)
    calls = _counted(monkeypatch, eval_core, ("_c_shift_head",))
    for s, c in ((1e5, 1.5), (1e5 + 3e4j, 1.5 + 0.5j), (2000, 2.5)):
        r = hurwitz_zeta(s, c)
        assert r.value == 0 and r.error_estimate == 5e-324, (s, c)
    assert calls["_c_shift_head"] == 0
    # 1.5^-1500 ~ 1e-264 lies in range: the sum runs and keeps its value
    r = hurwitz_zeta(1500, 1.5)
    assert calls["_c_shift_head"] == 1
    assert r.value.real == pytest.approx(1.5 ** -1500, rel=1e-12)


def test_hurwitz_zeta_refusal_names_its_bound():
    # far down the left half-plane the first dropped Euler-Maclaurin term
    # stays above 0.1 tol through all six doublings of the head
    with pytest.raises(AccuracyError, match="would not drop") as exc:
        hurwitz_zeta(-28.5, 0.7)
    assert 1e-13 < exc.value.bound < math.inf


# B_2k for k = 1..13
BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
             Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
             Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
             Fraction(-174611, 330), Fraction(854513, 138),
             Fraction(-236364091, 2730), Fraction(8553103, 6))


def test_bernoulli_ratios_from_the_special_values():
    for k, b in enumerate(BERNOULLI, 1):
        assert eval_core._bernoulli_ratio(k) == b / math.factorial(2 * k)


def test_lerch_zeta_reference():
    assert lerch_zeta(0.7, Fraction(1, 3), 0.6).value == pytest.approx(
        1.0430377044046821 + 0.29422439791660443j, abs=1e-10)
    assert lerch_zeta(2, 0.4, 1.25).value == pytest.approx(
        0.51220120729073715 + 0.061390314236373693j, abs=1e-10)
    with pytest.raises(DomainError):
        lerch_zeta(2, 1.2, 0.5)  # Re(a) outside (0, 1)


def test_periodic_zeta_reference():
    cases = [
        ((Fraction(1, 3), 2.5),
         -0.54165895711074696 + 0.72754771098140714j),
        ((Fraction(2, 5), 1 + 2j),
         -1.0337985123683635 + 0.24391605896889462j),
        ((0.29, -1.6), -0.2020475442776466 - 0.22257818446928204j),
    ]
    for (a, s), want in cases:
        assert periodic_zeta(a, s).value == pytest.approx(want, abs=1e-10)


def test_periodic_zeta_negative_integers_hit_q():
    # entire continuation: F(a, -m) = q_m(e^{2 pi i a}) for m >= 1
    for a in (Fraction(1, 3), Fraction(2, 5)):
        w = complex(math.cos(2 * math.pi * a), math.sin(2 * math.pi * a))
        for m in (1, 2, 3):
            want = q_ratio(m, w)
            assert periodic_zeta(a, -m).value == pytest.approx(want,
                                                               abs=1e-9)
    # and F(a, 0) = q_0 - 1 = z/(1-z)
    z = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert periodic_zeta(Fraction(1, 3), 0).value == pytest.approx(
        z / (1 - z), abs=1e-10)


def test_periodic_zeta_next_to_a_integer():
    # z = e^{2 pi i a} within 1e-8 of z = 1 is still off the cut, so the
    # z guards of phi do not apply; F(a, 2) = Li_2(z), 40-digit mpmath
    cases = [(1e-9, 1.6449340569786220453 + 1.2494358255059243984e-7j),
             (1 - 1e-9, 1.6449340569786223244 - 1.2494357919464720767e-7j)]
    for a, want in cases:
        res = periodic_zeta(a, 2)
        assert abs(res.value - want) <= res.error_estimate <= 1e-12


def test_periodic_zeta_near_zero():
    # 0 < Re s < 1/2 takes one step of the q-ladder, so the quadrature's
    # exponent keeps a real part of at least 1/2 (Hurwitz-formula values)
    cases = [
        ((Fraction(3, 5), 0.0263),
         -0.5047587769884637 - 0.16682092331564996j),
        ((Fraction(1, 5), 0.25 + 2j),
         -0.2568953540206138 + 2.36802927419723j),
        ((Fraction(4, 5), 0.4), -0.356643700234649 - 0.8279994825369484j),
        ((Fraction(2, 5), 0.1 - 2j),
         -0.3188696257830074 + 0.5740480464823566j),
    ]
    for (a, s), want in cases:
        assert periodic_zeta(a, s).value == pytest.approx(want, rel=1e-14)


def test_extended_polylog():
    # Li_2(1/2, 1) is the classical dilogarithm at 1/2
    want = math.pi ** 2 / 12 - math.log(2.0) ** 2 / 2
    assert extended_polylog(2, Fraction(1, 2), 1).value == pytest.approx(
        want, abs=1e-12)
    assert extended_polylog(1.5, 0.4 + 0.3j, 0.9).value == pytest.approx(
        0.47585713476472391 + 0.46952688382619379j, abs=1e-10)
    assert extended_polylog(2, 0, 1).value == 0j
    assert extended_polylog(2, 0, 0.5).value == 0j
    # z = 0 still tests c, as phi_series does: c = 0, -1 are singular
    for c in (0, -1):
        with pytest.raises(StratumError) as exc:
            extended_polylog(2, 0, c)
        assert exc.value.stratum == "singular_c"
    # the exact path: Li_{-2}(1/3, 1/2) = (1/3) Phi(-2, 1/3, 1/2)
    assert extended_polylog(-2, Fraction(1, 3), Fraction(1, 2)).exact \
        == Fraction(7, 8)


def test_error_estimates_are_honest():
    for (s, z, c), want, _ in PHI_REFERENCE:
        res = phi(s, z, c)
        assert abs(res.value - want) <= max(res.error_estimate, 1e-11) * 50


def test_tolerance_is_respected():
    loose = phi(2, 0.6, 0.8, tol=1e-6)
    tight = phi(2, 0.6, 0.8, tol=1e-13)
    assert abs(loose.value - tight.value) < 1e-6
    assert tight.error_estimate <= 1e-12


def _shifted_mellin_reference(mpmath, s, z, c):
    """Phi(s, z, c) in mpmath for |z| > 1 off the cut: the c-shift to
    Re c >= 1 taken exactly, then Gamma(s+j)^-1 int t^(s+j-1) e^(-ct)
    Phi(-j, z e^-t, c) dt with Re(s+j) >= 1, where Phi(-j, w, c) =
    P_j(w) / (1 - w)^(j+1) comes from applying (w d/dw + c) j times to
    1/(1 - w).  The path is split at Re Log z, the foot of the kernel's
    pole, and ends at Re Log z + 200, where e^(-ct) < 1e-86."""
    mp = mpmath.mp
    s, z, c = mp.mpc(s), mp.mpc(z), mp.mpc(c)
    n = max(0, math.ceil(1 - float(c.real)))
    head = mp.fsum(z ** k * mp.exp(-s * mp.log(c + k)) for k in range(n))
    c += n
    j = max(0, math.ceil(1 - float(s.real)))
    p = [mp.mpc(1)]  # coefficients of P_k, lowest degree first
    for k in range(j):
        # (w d/dw + c) P/(1-w)^(k+1) = [(w d/dw + c) P (1-w) + (k+1) w P]
        # / (1-w)^(k+2)
        q = [mp.mpc(0)] * (len(p) + 1)
        for i, a in enumerate(p):
            q[i] += (i + c) * a
            q[i + 1] += (k + 1 - i - c) * a
        p = q

    def f(t):
        w = z * mp.exp(-t)
        return (t ** (s + j - 1) * mp.exp(-c * t) * mp.polyval(p[::-1], w)
                / (1 - w) ** (j + 1))
    x0 = mp.log(abs(z))
    return head + z ** n * mp.quad(f, [0, x0, x0 + 200]) / mp.gamma(s + j)


# |z| > 1 points among the first 512 `box` points of seeds 1-3 that
# c_shift and reflection return only because their inner calls are first
# asked for a plain share of tol (tol / |z^N| or tol / (|p1| + |p2| + 1)
# put the inner quadratures' targets below their rounding floors)
NEWLY_RETURNED = [
    ((2.1072971496144124, 4.595098805690965 + 17.133830438941423j,
      -2.280264064166039 + 0.9867698969250274j), "c_shift"),
    ((7.574046963661472 + 12.160750517199823j,
      -8.25627535011593 - 16.08308877240154j,
      -3.537353814340512 + 0.28993597719428266j), "c_shift"),
    ((2.777296246621294, -6.2748064698083965 + 1.5312134457329056j,
      -3.547855783786814 + 1.0407336833592158j), "c_shift"),
    ((-1.0159644026724584 + 5.578062564003783j,
      -2.8137968910486992 - 4.165114733891595j,
      -3.5266801403757744 + 1.7954319120766273j), "reflection"),
    ((-4.569773241200721, -1.7696664554474495 - 36.79582088860618j,
      -0.8057965905570561 - 0.32549855034018726j), "reflection"),
    ((-0.3828457870544266 + 6.852628146664081j,
      7.252839666238069 - 48.28691082920735j,
      -1.0022536790334104 - 1.2627453477826993j), "reflection"),
]


def test_newly_returned_values_lie_within_their_estimates():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for (s, z, c), route in NEWLY_RETURNED:
            res = phi(s, z, c)
            assert res.method == route, (s, z, c)
            want = complex(_shifted_mellin_reference(mpmath, s, z, c))
            assert abs(res.value - want) <= res.error_estimate, (s, z, c)
            assert res.error_estimate <= 1e-12 * (1.0 + abs(want)), (s, z, c)


def test_flat_reflection_returns_a_point_the_nested_retries_refused():
    # `box` seed 1, #284 (N = 2): with the retry at each level, the
    # three-term retry asked its inner quadrature for a target below its
    # floor.  The value lies within its estimate, but the estimate is
    # above tol (1 + |v|), so it stays out of NEWLY_RETURNED
    mpmath = pytest.importorskip("mpmath")
    s, z, c = (-3.5538851527649635, -7.5472069532553645 + 12.929213094823908j,
               -1.4239713461734218 + 0.8622552460030208j)
    res = phi(s, z, c)
    assert res.method == "reflection"
    for dps in (30, 45):
        with mpmath.workdps(dps):
            want = complex(_shifted_mellin_reference(mpmath, s, z, c))
        assert abs(res.value - want) <= res.error_estimate, dps


def test_flat_reflection_retries_once(monkeypatch):
    # `box` seed 1, #31 (N = -1): one composition step asks its two
    # inner calls once more, where the nested retries made four calls
    # for the same value and estimate
    calls = [0]
    outer = eval_core.phi

    def counted(*args, **kwargs):
        calls[0] += 1
        return outer(*args, **kwargs)

    monkeypatch.setattr(eval_core, "phi", counted)
    res = outer(-2.221570604368255 - 9.42288509559484j,
                -1.9390222149395047 - 1.3971144714483679j,
                1.051695560478052 - 2.771519804749401j)
    assert res.method == "reflection"
    assert res.value == 624818.108768018 + 1026180.1758244503j
    assert res.error_estimate == 3.1610682264493347e-06
    assert calls[0] <= 3


def test_box_survey_runs():
    # the survey tool end to end, in its own interpreter, on 8 points of
    # this checkout against itself: no outcome differs, and the two sides
    # are timed interleaved, three times with the first side alternating
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "tools/box_survey.py"),
                           "--n", "8", "--seeds", "1", "--against", "src"],
                          capture_output=True, text=True, timeout=120,
                          cwd=root)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "0 points differ" in lines
    for line, first in zip(lines[-4:-1], ("this", "other", "this")):
        assert re.fullmatch(r"interleaved timing over 8 points, %s first: "
                            r"time ratio \d+\.\d{3} \(this checkout over the "
                            r"other\), blocks of 64 won [01] to [01]" % first,
                            line), line
    assert re.fullmatch(r"median time ratio \d+\.\d{3}", lines[-1]), lines[-1]
