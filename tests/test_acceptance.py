"""Release gate: thirteen end-to-end checks, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to watch the lines appear;
every check states its own tolerance and fails loudly rather than
degrading.  Randomized sections use fixed seeds so reruns are identical.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np

from lerchkit.deformed_polylog import (numeric_transport, rho, weyl_expand,
                                       z0_loop, z1_loop)
from lerchkit.eval_core import phi, phi_c_shift, phi_integral, phi_series
from lerchkit.monodromy import GeneratorLetter, monodromy, parse_word
from lerchkit.special_values import r_poly
from lerchkit.verify import (_LADDER_GRID, check_egf, check_four_term,
                             check_ladder_down, check_ladder_up,
                             check_laurent, check_lerch_three_term,
                             check_pde, check_periodic_zeta,
                             check_r_recursion, check_r_reflection,
                             check_rogers, check_spence, check_theta_form)
from test_deformed_polylog import _basis_residuals

L = GeneratorLetter


def _emit(num, ok, text):
    print("[%s] criterion %2d — %s" % ("PASS" if ok else "FAIL", num, text))
    assert ok, text


# ---------------------------------------------------------------------------

def test_criterion_01_r_table():
    table = {1: [0, 1], 2: [0, 1, 1], 3: [0, 1, 4, 1],
             4: [0, 1, 11, 11, 1], 5: [0, 1, 26, 66, 26, 1]}
    ok = all(r_poly(m) == want for m, want in table.items())
    _emit(1, ok, "numerator polynomials r_1..r_5 match the table exactly")


def test_criterion_02_reflection_recursion_laurent():
    reports = [check(20) for check in (check_r_reflection, check_r_recursion,
                                       check_laurent)]
    ok = all(r.passed and r.abs_residual == 0.0 for r in reports)
    _emit(2, ok, "reflection, recursion and Laurent expansion exact "
                 "for m <= 20")


def test_criterion_03_generating_function():
    r = check_egf(Fraction(1, 3), Fraction(2, 5), 12)
    ok = r.passed and r.abs_residual == 0.0
    _emit(3, ok, "exp-series division reproduces Li_{-m}(1/3, 2/5)/m! "
                 "for m <= 12 exactly")


def test_criterion_04_periodic_zeta_at_negative_integers():
    reports = [check_periodic_zeta(a, m)
               for a in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))
               for m in range(5)]
    worst = max(r.rel_residual for r in reports)
    ok = all(r.passed for r in reports)
    _emit(4, ok, "continued F(a, -m) matches the exact rational values "
                 "to %.1e (tol 1e-10)" % worst)


def test_criterion_05_ladders_and_pde():
    worst = 0.0
    ok = True
    for (s, z, c) in _LADDER_GRID:
        for check in (check_ladder_down, check_ladder_up, check_pde):
            r = check(s, z, c)
            ok = ok and r.passed
            worst = max(worst, r.rel_residual)
    _emit(5, ok, "ladder and PDE residuals on the 10-point grid, worst "
                 "%.1e (tol 1e-9 series / 1e-7 integral)" % worst)


def test_criterion_06_functional_equations():
    pts = ((0.5, 0.5, 0.5), (0.3, 0.4, 0.6), (0.3 + 0.2j, 0.4, 0.6),
           (0.6, 0.7, 0.3), (0.45, 0.25, 0.85))
    worst = 0.0
    ok = True
    for (s, a, c) in pts:
        r = check_lerch_three_term(s, a, c, tol=1e-8)
        ok = ok and r.passed
        worst = max(worst, r.rel_residual)
    pts4 = ((0.5, 0.5, 0.5), (0.4, 0.3, 0.7), (0.25, 0.6, 0.45),
            (0.35, 0.55, 0.8), (0.65, 0.15, 0.3))
    for (s, a, c) in pts4:
        for parity in (1, -1):
            r = check_four_term(s, a, c, parity=parity, tol=1e-8)
            ok = ok and r.passed
            worst = max(worst, r.rel_residual)
    _emit(6, ok, "three- and four-term functional equations, worst "
                 "residual %.1e (tol 1e-8)" % worst)


def test_criterion_07_transport_vs_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for m in (1, 2, 3):
        for c in (1, Fraction(1, 2), 0.3 + 0.2j, 0, -1):
            for gen, path in (("Z0", z0_loop()), ("Z1", z1_loop())):
                got = numeric_transport(m, c, path).entries
                want = rho(gen, m, c).entries
                worst = max(worst, np.max(np.abs(got - want)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 120.0
    _emit(7, ok, "numeric transport matches rho for m <= 3 over five "
                 "strata, worst %.1e in %.0fs (tol 1e-6, 120s)"
          % (worst, elapsed))


def _random_letters(rng, nlen):
    base = [L("Z0", 1), L("Z0", -1), L("Z1", 1), L("Z1", -1)]
    out = []
    for _ in range(nlen):
        if rng.random() < 0.75:
            out.append(rng.choice(base))
        else:
            out.append(L("Y", rng.choice([1, -1]), rng.choice([-2, -1, 0])))
    return out


def test_criterion_08_integer_s_vanishing():
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        letters = _random_letters(rng, rng.randint(1, 12))
        for s in (0, -1, -2):
            total, _ = monodromy(letters, s, -0.8 + 0.5j, 0.7)
            ok = ok and total == 0j
    for _ in range(20):
        letters = [L("Y", rng.choice([1, -1]), rng.choice([-2, -1, 0]))
                   for _ in range(rng.randint(1, 6))]
        total, _ = monodromy(letters, 2, -0.8 + 0.5j, 0.7)
        ok = ok and total == 0j
    _emit(8, ok, "monodromy of 100 random words vanishes identically at "
                 "s = 0, -1, -2 (and Y-loops at s = 2)")


def test_criterion_09_commutator_vanishing():
    rng = random.Random(23)

    def conj_word(k, e):
        w = [L("Z0", 1 if k >= 0 else -1)] * abs(k)
        return w + [L("Z1", e)] + [x.inverse() for x in reversed(w)]

    def random_h0():
        out = []
        for _ in range(rng.randint(1, 3)):
            out += conj_word(rng.randint(-2, 2), rng.choice([1, -1]))
        return out

    pts = ((0.5 + 0.3j, -0.7 + 0.4j, 0.62),
           (-0.3 + 0.8j, 0.35 - 0.55j, 0.8 - 0.2j),
           (1.3 + 0.1j, -1.4 - 0.6j, 0.3 + 0.3j),
           (0.25 - 0.4j, -0.15 + 0.95j, 1.0),
           (2.3 + 0.7j, 0.5 + 1.2j, 0.45 + 0.15j))
    ok = True
    for _ in range(50):
        u, v = random_h0(), random_h0()
        comm = (u + v + [x.inverse() for x in reversed(u)]
                + [x.inverse() for x in reversed(v)])
        for (s, z, c) in pts:
            total, _ = monodromy(comm, s, z, c)
            ok = ok and abs(total) <= 1e-12
    _emit(9, ok, "50 random commutators of Z1-conjugates give zero "
                 "correction at 5 generic points (tol 1e-12)")


def test_criterion_10_route_agreement():
    rng = random.Random(47)
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(0.6, 2.5) + rng.uniform(-0.4, 0.4) * 1j
        z = cmath.rect(rng.uniform(0.05, 0.7), rng.uniform(0.0, 2 * math.pi))
        c = rng.uniform(0.3, 2.0) + rng.uniform(-0.3, 0.3) * 1j
        a = phi_series(s, z, c).value
        b = phi_integral(s, z, c).value
        d = phi_c_shift(s, z, c, 4).value
        scale = max(1.0, abs(a))
        worst = max(worst, abs(a - b) / scale, abs(a - d) / scale)
    ok = worst < 1e-10
    worst_neg = 0.0
    for _ in range(50):
        zq = Fraction(rng.randint(1, 7) * rng.choice([1, -1]), 10)
        cq = Fraction(rng.randint(1, 20), 10)
        s = rng.choice([-1, -2, -3])
        exact = phi(s, zq, cq).exact
        num = phi_series(float(s), float(zq), float(cq)).value
        worst_neg = max(worst_neg,
                        abs(num - float(exact)) / max(1.0, abs(exact)))
    ok = ok and worst_neg < 1e-9
    _emit(10, ok, "series/integral/c-shift agree to %.1e on 100 points "
                  "(tol 1e-10); series matches exact rational values to "
                  "%.1e at negative integer s (tol 1e-9)"
          % (worst, worst_neg))


def test_criterion_11_dilog_identities():
    axis = (0.05, 0.16, 0.27, 0.38, 0.49)
    worst = 0.0
    ok = True
    for x in axis:
        for y in axis:
            for check in (check_spence, check_rogers):
                r = check(x, y, tol=1e-10)
                ok = ok and r.passed
                worst = max(worst, r.rel_residual)
    _emit(11, ok, "Spence and Rogers five-term identities on the 5x5 "
                  "grid, worst %.1e (tol 1e-10)" % worst)


def test_criterion_12_operator_exactness():
    ok = True
    for m in range(7):
        a, b = weyl_expand(m).entries[m + 1]
        ok = ok and a.coeffs == (-1,) and b.coeffs == (1,)
    for m in range(8):
        ok = ok and check_theta_form(m).passed
    for m in (1, 2, 3):
        for c in (1, Fraction(1, 2), 0, -1):
            ok = ok and all(r == 0 for r in _basis_residuals(m, c))
    _emit(12, ok, "top coefficient (1-z) z^{m+1} symbolically for m <= 6; "
                  "z A(theta) + B(theta) is the factored operator in Z[c] "
                  "for m <= 7; operator annihilation of every basis "
                  "solution exact through order 25")


def test_criterion_13_monodromy_jump():
    jump = abs(rho("Z0", 1, 1e-6).entries[0, 1]
               - rho("Z0", 1, 0).entries[0, 1])
    ok = jump >= 2 * math.pi - 1e-3
    _emit(13, ok, "log-block monodromy entry jumps by %.6f >= 2 pi - 1e-3 "
                  "across the integer stratum at eps = 1e-6" % jump)
