"""Branch conventions, gamma, and the summation/quadrature engines."""

import cmath
import math
import random

import pytest

from lerchkit.branch_numerics import (EPS, QuadResult, branched_power,
                                      complex_gamma, gamma_rel_error,
                                      principal_log, quad_semiaxis,
                                      reciprocal_gamma, semi_principal_log,
                                      sum_with_tail_bound)
from lerchkit.errors import AccuracyError, DomainError


def test_principal_log_range_and_edge():
    # Im in (-pi, pi]; the cut on the negative axis takes the upper edge
    assert principal_log(-1.0) == complex(0.0, math.pi)
    assert principal_log(-1.0 - 0.0j).imag == pytest.approx(math.pi)
    assert principal_log(1j).imag == pytest.approx(math.pi / 2)
    assert principal_log(-1j).imag == pytest.approx(-math.pi / 2)
    assert principal_log(2.0) == complex(math.log(2.0), 0.0)


def test_semi_principal_log_range_and_edge():
    # Im in [0, 2*pi); positive reals sit on the lower edge (0), not 2*pi
    assert semi_principal_log(2.0).imag == 0.0
    assert semi_principal_log(-1.0).imag == pytest.approx(math.pi)
    assert semi_principal_log(-1j).imag == pytest.approx(3 * math.pi / 2)
    assert semi_principal_log(1j).imag == pytest.approx(math.pi / 2)


def test_log_zero_rejected():
    with pytest.raises(DomainError):
        principal_log(0)
    with pytest.raises(DomainError):
        semi_principal_log(0)


def test_branched_power_two_branches_disagree_below_axis():
    # (-1j)^0.5: principal gives e^{-i pi/4}, semi gives e^{+i 3 pi/4}
    p = branched_power(-1j, 0.5, "principal")
    s = branched_power(-1j, 0.5, "semi")
    r = 1.0 / math.sqrt(2.0)
    assert p == pytest.approx(complex(r, -r))
    assert s == pytest.approx(complex(-r, r))


def test_branched_power_agrees_in_upper_half_plane():
    for z in (0.3 + 0.4j, -2.0 + 0.1j, 1j, 5.0 + 2.0j):
        for e in (0.5, -1.3, 2.0 + 1.0j):
            assert branched_power(z, e, "principal") == pytest.approx(
                branched_power(z, e, "semi"))


def test_complex_gamma_known_values():
    assert complex_gamma(5).real == pytest.approx(24.0, rel=1e-12)
    assert complex_gamma(0.5).real == pytest.approx(math.sqrt(math.pi),
                                                    rel=1e-12)
    # Gamma(1/2 + i): |Gamma(1/2 + i t)|^2 = pi / cosh(pi t)
    g = complex_gamma(0.5 + 1j)
    assert abs(g) ** 2 == pytest.approx(math.pi / math.cosh(math.pi),
                                        rel=1e-11)


def test_gamma_rel_error_covers_gamma_and_its_reciprocal():
    # the s range of the routes' Gamma factors on the benchmark box
    # (Re s >= 1/16), one point in four in 1/16 <= Re s < 1/2, where the
    # reflection's sin(pi s) adds its rounding; mpmath is the reference
    # (installed, not a dependency)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2015)
    points = [complex(rng.uniform(1 / 16, 0.5 if k % 4 == 0 else 9),
                      rng.uniform(-16, 16)) for k in range(2000)]
    with mpmath.workdps(30):
        for s in points:
            x = mpmath.mpc(s.real, s.imag)
            bound = gamma_rel_error(s)
            want = complex(mpmath.gamma(x))
            assert abs(complex_gamma(s) - want) <= bound * abs(want), s
            want = complex(mpmath.rgamma(x))
            assert abs(reciprocal_gamma(s) - want) <= bound * abs(want), s
    assert gamma_rel_error(1.5) < 200 * EPS


def test_reciprocal_gamma_exact_zeros():
    for n in (0, -1, -2, -7, -30):
        assert reciprocal_gamma(n) == 0j  # exact, not merely small
    assert reciprocal_gamma(3) == pytest.approx(0.5)


def test_quad_semiaxis_gamma_integral():
    # int_0^inf t^{s-1} e^{-t} dt = Gamma(s)
    for s in (1.5, 2.0, 3.7):
        got = quad_semiaxis(lambda t, s=s: t ** (s - 1) * math.exp(-t))
        assert isinstance(got, QuadResult)
        assert got.value == pytest.approx(complex_gamma(s).real, rel=1e-11)
        assert got.error < 1e-9


def test_quad_semiaxis_reports_failure():
    # a non-integrable integrand cannot satisfy the tolerance
    with pytest.raises(AccuracyError) as exc:
        quad_semiaxis(lambda t: cmath.exp(1j * t * t), tol=1e-12)
    assert exc.value.best is not None


def _counted(f):
    calls = [0]

    def g(t):
        calls[0] += 1
        return f(t)
    return g, calls


def test_quad_semiaxis_refuses_after_twelve_levels():
    # t^-0.99 is cut off at the window's left end, so the levels creep
    # towards each other far above the rounding floor
    f, calls = _counted(lambda t: t ** -0.99 * math.exp(-t))
    with pytest.raises(AccuracyError, match="within 12 levels") as exc:
        quad_semiaxis(f)
    assert exc.value.best is not None
    assert calls[0] == 114_636


def test_quad_semiaxis_refuses_at_rounding_floor():
    # int_0^oo e^-t cos(40 t) dt = 1/1601; its rounding floor is about
    # eps * int |e^-t cos 40t| ~ 1.4e-16, more than 16 times a 1e-18
    # target, so level 1 refuses (all 12 levels take 114,636 calls), and
    # the attached bound covers the level-1 value's error
    f, calls = _counted(lambda t: math.exp(-t) * math.cos(40.0 * t))
    with pytest.raises(AccuracyError, match="rounding floor .* level 1,") as exc:
        quad_semiaxis(f, tol=1e-18)
    assert abs(exc.value.best - 1.0 / 1601) <= exc.value.bound
    assert calls[0] == 52
    # a floor within 16 targets is waited out until two successive level
    # differences stall within 16 floors: levels 8 and 9 here
    f, calls = _counted(lambda t: math.exp(-t) * math.cos(40.0 * t))
    with pytest.raises(AccuracyError, match="rounding floor .* level 9,") as exc:
        quad_semiaxis(f, tol=2e-17)
    assert abs(exc.value.best - 1.0 / 1601) <= 1e-15
    assert calls[0] <= 15_000
    # a target above the floor converges as before
    f, calls = _counted(lambda t: math.exp(-t) * math.cos(40.0 * t))
    got = quad_semiaxis(f, tol=1e-15)
    assert got.value == 0.0006246096189881585
    assert calls[0] == 7161


def test_sum_with_tail_bound_geometric():
    q = 0.5
    res = sum_with_tail_bound((q ** n for n in range(10 ** 6)),
                              lambda n: q ** n / (1 - q), tol=1e-13)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.tail_bound <= 1e-13
