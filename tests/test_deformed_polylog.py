"""Deformed polylogarithm ODE: Weyl form, Fuchsian bases, monodromy
representation, and the numeric transport oracle.

The Weyl expansion is checked in theta-form, z A(theta) + B(theta), as
an identity in Z[c, theta] by ``verify``'s exact suite.  The annihilation
tests take A and B from it and run in exact rational arithmetic, so
residuals are required to be identically zero, not merely small.  The
transport checks tie the closed-form matrices to an independent
Taylor-stepping continuation of the full solution frame.
"""

import cmath
import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lerchkit import deformed_polylog, verify
from lerchkit.deformed_polylog import (_N_TAYLOR, MonodromyMatrix,
                                       _alternating_phi, _chain_columns,
                                       _check_path, _forced_chain,
                                       _frame_cond, _lu, _seg_dist,
                                       _start_frame, _step_record, basis,
                                       li_star, numeric_transport, rho,
                                       rho_word, unipotency_class,
                                       weyl_expand, z0_loop, z1_loop)
from lerchkit.errors import (AccuracyError, BranchError, DomainError,
                             StratumError, TransportError)
from lerchkit.eval_core import classify_stratum, phi
from lerchkit.monodromy import GeneratorLetter
from lerchkit.special_values import _padd, _pmul, poly_eval

TWO_PI_I = 2j * math.pi


# ---------------------------------------------------------------------------
# Weyl normal form
# ---------------------------------------------------------------------------

def test_weyl_entries_order_zero():
    op = weyl_expand(0)
    assert op.order == 1
    (a0, b0), (a1, b1) = op.entries
    assert a0.coeffs == (0,) and b0.coeffs == (-1,)
    assert a1.coeffs == (-1,) and b1.coeffs == (1,)


def test_weyl_entries_order_one():
    # ((1-z) theta - 1)(theta + c - 1) written as sum (alpha_k z + beta_k) z^k d^k
    op = weyl_expand(1)
    got = [(a.coeffs, b.coeffs) for a, b in op.entries]
    assert got == [((0,), (1, -1)),      # constant term: 1 - c
                   ((0, -1), (-1, 1)),   # d-term: (c - 1- c z) z
                   ((-1,), (1,))]        # top: (1 - z) z^2


def test_weyl_top_coefficient_exact():
    for m in range(7):
        a, b = weyl_expand(m).entries[m + 1]
        assert a.coeffs == (-1,) and b.coeffs == (1,)


def test_weyl_rejects_negative_order():
    with pytest.raises(DomainError):
        weyl_expand(-1)


# ---------------------------------------------------------------------------
# theta-form and exact annihilation of the basis solutions
# ---------------------------------------------------------------------------

def _taylor(p, x):
    """p^{(i)}(x) / i! for i = 0..len(p) - 1: p(x + t) in powers of t."""
    out = [0]
    for a in reversed(p):
        out = _padd(_pmul(out, [x, 1]), [a])
    return out + [0] * (len(p) - len(out))


def _basis_residuals(m, c, top=25):
    """Coefficients of D y, exact, for y each basis entry at c, through
    z^top for the lead entry; all are 0 when weyl_expand is right.

    P(theta) acts on z^e (log z)^j / j! as
    z^e sum_i P^{(i)}(e)/i! (log z)^{j-i} / (j-i)!, and on
    y = sum_n a_n z^{n+1} the z^{n+1}-coefficient of D y is
    B(n+1) a_n + A(n) a_{n-1}.
    """
    A, B = verify._theta_form(weyl_expand(m), c)
    tA, tB = _taylor(A, 1 - c), _taylor(B, 1 - c)
    # the log entries z^{1-c} (log z)^j / j!, j < m, and on the singular
    # stratum the (log z)^{>=1} part of Li*'s z^{1-c} (log z)^m / m!
    out = tA[:m] + tB[:m]
    # a[n + 1] = a_n = 1/(n + c)^m, and a_{-1} = 0
    a = [0] + [Fraction(1) / (n + c) ** m if n + c else 0
               for n in range(top)]
    lead = [poly_eval(B, n + 1) * a[n + 1] + poly_eval(A, n) * a[n]
            for n in range(top)]
    if c <= 0:
        # Li*_m(z, -k) at k = -c: no a_k, and the log term's (log z)^0 part
        lead[-c] += tB[m]
        lead[1 - c] += tA[m]
    return out + lead


@pytest.mark.parametrize("m", range(8))
def test_weyl_expansion_is_the_factored_operator(m):
    # ((1-z) theta - 1)(theta + c - 1)^m = z A + B in Z[c], checked by the
    # exact suite at the 2m + 5 integers of [-m-2, m+2]
    r = verify.check_theta_form(m)
    assert r.passed and r.abs_residual == 0.0, r.to_dict()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c", [1, Fraction(1, 2), 0, -1])
def test_operator_annihilates_basis_exactly(m, c):
    assert _basis_residuals(m, c) == [0] * (2 * m + 25)


# ---------------------------------------------------------------------------
# Li* closed form
# ---------------------------------------------------------------------------

LI_STAR_REFERENCE = [
    # (m, k, z) -> value
    ((2, 1, 0.6), 0.90890077799914437 + 0j),
    ((3, 2, -0.8), -0.72685242861147326 + 2.6058230009140466j),
    ((1, 0, 0.3 + 0.4j), -0.72190324965336961 + 0.24283011066895327j),
    ((2, 0, 1.7 + 0.9j), 0.012539355308924922 + 5.1756528470706913j),
    ((2, 1, -1.0), -6.7572692339687928 + 0j),
]


@pytest.mark.parametrize("args,want", LI_STAR_REFERENCE)
def test_li_star_reference_values(args, want):
    assert li_star(*args) == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_li_star_edges():
    assert li_star(2, 1, 0.0) == 0j
    with pytest.raises(BranchError):
        li_star(2, 1, 1.2)
    with pytest.raises(DomainError):
        li_star(2, -1, 0.5)


@pytest.mark.parametrize("m", range(4))
def test_li_star_refuses_next_to_z1(m):
    # z/(1 - z) at m = 0 once returned -1+1e12j at 1+1e-12j, and
    # -2+1e-10j at 2+1e-10j, within the 1e-8 band about the cut where
    # every m >= 1 refused
    for z in (1 + 1e-12j, 1 - 1e-9, 1):
        with pytest.raises(StratumError) as exc:
            li_star(m, 1, z)
        assert exc.value.stratum == "singular_z1"
    for z in (2, 2 + 1e-10j, 2 - 1e-10j):
        with pytest.raises(BranchError):
            li_star(m, 1, z)


def test_li_star_matches_its_series_in_the_disk():
    # the defining sum
    # Li*_m(z,-k) = sum_{n != k} z^{n+1}/(n-k)^m + z^{k+1} (log z)^m / m!
    for z in (0.23 - 0.17j, -0.31 + 0.05j):
        for m in (1, 2, 3):
            for k in (0, 1, 2):
                want = sum(z ** (n + 1) / (n - k) ** m
                           for n in range(80) if n != k)
                want += z ** (k + 1) * cmath.log(z) ** m / math.factorial(m)
                assert li_star(m, k, z) == pytest.approx(want, abs=1e-13)


def test_li_star_ladder_lowers_order():
    # (theta - k - 1) Li*_m(z,-k) = Li*_{m-1}(z,-k), with theta = z d/dz
    # from the Cauchy integral on a circle of radius r about z
    r, n = 0.1, 32
    ring = [cmath.exp(2j * math.pi * i / n) for i in range(n)]
    for z in (0.23 - 0.17j, -0.4 + 0.3j):
        for m in (1, 2, 3):
            for k in (0, 1, 2):
                deriv = sum(li_star(m, k, z + r * u) / (r * u)
                            for u in ring) / n
                got = z * deriv - (k + 1) * li_star(m, k, z)
                assert abs(got - li_star(m - 1, k, z)) < 1e-11, (z, m, k)


# ---------------------------------------------------------------------------
# closed-form monodromy matrices
# ---------------------------------------------------------------------------

def _rho_reference(gen, m, c, inverse):
    """rho's rows from the closed forms: I - w E_{12} for Z1, the Pascal
    band of w for Z0 at c in Z_{<=0}, else 1 (+) e^{-/+ 2 pi i c} times
    the band of size m, with w = +/- 2 pi i."""
    n = m + 1
    w = -TWO_PI_I if inverse else TWO_PI_I
    if gen == "Z1":
        rows = [[complex(i == j) for j in range(n)] for i in range(n)]
        rows[0][1] = -w
        return rows
    sign = 1 if inverse else -1
    if c in (0, -2):
        phase, lo = 1, 0
    else:
        lo = 1
        # e^{-2 pi i / 4} = -i exactly; else e^{2 pi Im c} e^{-2 pi i Re c}
        phase = (sign * 1j if c == Fraction(1, 4) else
                 cmath.exp(complex(-sign * 2 * math.pi * complex(c).imag,
                                   sign * 2 * math.pi * complex(c).real)))
    rows = [[0j] * n for _ in range(n)]
    rows[0][0] = 1
    for i in range(lo, n):
        for j in range(i, n):
            rows[i][j] = phase * (w ** (j - i) / math.factorial(j - i))
    return rows


@pytest.mark.parametrize("c", [0.3, 0.3 + 0.2j, Fraction(1, 4), 0, -2])
def test_rho_equals_the_closed_form_rows_exactly(c):
    for m in range(1, 7):
        for gen in ("Z0", "Z1"):
            for inverse in (False, True):
                want = _rho_reference(gen, m, c, inverse)
                got = rho(gen, m, c, inverse)
                assert got.entries.tolist() == want, (m, gen, inverse)
                assert got.rows == tuple(map(tuple, want))
                assert got.generator == gen + ("^-1" if inverse else "")
                assert got.kind == ("singular" if c in (0, -2) else "regular")


def test_rho_z0_is_identity_at_c_one():
    mat = rho("Z0", 1, 1).entries
    assert np.array_equal(mat, np.eye(2, dtype=complex))  # exact


def test_rho_z0_singular_is_pascal_band():
    mat = rho("Z0", 2, 0).entries
    want = np.array([[1.0, TWO_PI_I, TWO_PI_I ** 2 / 2.0],
                     [0.0, 1.0, TWO_PI_I],
                     [0.0, 0.0, 1.0]])
    assert np.array_equal(mat, want)
    assert rho("Z0", 2, 0).kind == "singular"


def test_rho_z0_regular_block_structure():
    c = Fraction(1, 2)
    mat = rho("Z0", 2, c).entries
    assert mat[0, 0] == 1.0 and mat[0, 1] == 0.0 and mat[0, 2] == 0.0
    assert mat[1, 1] == -1.0  # e^{-i pi} snapped exactly
    assert mat[1, 2] == -TWO_PI_I
    assert rho("Z0", 2, c).kind == "regular"


def test_rho_z1_shape():
    mat = rho("Z1", 3, 0.3).entries
    want = np.eye(4, dtype=complex)
    want[0, 1] = -TWO_PI_I
    assert np.array_equal(mat, want)


def test_rho_determinants():
    assert rho("Z1", 2, 0.3).det() == pytest.approx(1.0, abs=1e-14)
    assert rho("Z0", 2, 0).det() == pytest.approx(1.0, abs=1e-14)
    got = rho("Z0", 2, 0.3).det()
    assert got == pytest.approx(cmath.exp(-TWO_PI_I * 0.3 * 2), abs=1e-12)


def test_rho_inverse_products():
    for gen in ("Z0", "Z1"):
        for c in (Fraction(1, 2), 0, 0.3 + 0.2j):
            m = rho(gen, 3, c).entries @ rho(gen, 3, c, inverse=True).entries
            assert np.max(np.abs(m - np.eye(4))) < 1e-13


def test_rho_rejects_bad_input():
    with pytest.raises(DomainError):
        rho("Z0", 0, 1)
    with pytest.raises(DomainError):
        rho("Q", 1, 1)
    with pytest.raises(DomainError):
        rho_word("Z1 Y0", 1, Fraction(1, 2))
    with pytest.raises(DomainError, match="Z-letters only"):
        rho_word([GeneratorLetter("Z0"), GeneratorLetter("Y", 1, -2)], 2, 0.3)
    with pytest.raises(DomainError, match="m >= 1"):
        rho_word("", 0, 0.3)  # no letter for rho to refuse m = 0


def test_rho_word_orders_left_to_right():
    c = Fraction(1, 2)
    a = rho("Z0", 2, c).entries
    b = rho("Z1", 2, c).entries
    assert np.array_equal(rho_word("Z0 Z1", 2, c).entries, a @ b)
    assert np.array_equal(rho_word("Z1 Z0", 2, c).entries, b @ a)
    assert np.array_equal(rho_word("", 2, c).entries, np.eye(3))


def test_rho_word_takes_a_reduced_word():
    # the HomotopyWord that reduce_word returns, as monodromy takes it
    from lerchkit.monodromy import parse_word, reduce_word
    word = reduce_word(parse_word("Z0 Z1 Z1^-1 Z1"))
    assert rho_word(word, 2, 0.3).rows == rho_word("Z0 Z1", 2, 0.3).rows
    assert rho_word(reduce_word(parse_word("Y0 Y0^-1")), 2, 0.3).rows \
        == rho_word("", 2, 0.3).rows
    # text and letters are read the same way: reduced first
    assert rho_word("Y0 Y0^-1", 2, 0.3) == rho_word("", 2, 0.3)
    assert rho_word("Z0 Z0^-1 Z1", 2, 0.3) == rho_word("Z1", 2, 0.3)
    assert rho_word("Z0 Z0^-1 Z1", 2, 0.3).generator == "Z1"
    with pytest.raises(DomainError):
        rho_word(reduce_word(parse_word("Z0 Y1")), 2, 0.3)


def test_monodromy_jump_at_singular_stratum():
    # the (1,2) entry of rho(Z0) jumps by exactly 2 pi as c -> 0
    eps = 1e-6
    jump = abs(rho("Z0", 1, eps).entries[0, 1]
               - rho("Z0", 1, 0).entries[0, 1])
    assert jump == 2 * math.pi


def test_unipotency_classes():
    assert unipotency_class(1, 1) == "unipotent"
    assert unipotency_class(2, -3) == "unipotent"
    assert unipotency_class(1, 2.0) == "unipotent"
    assert unipotency_class(1, Fraction(1, 2)) == "quasi-unipotent"
    assert unipotency_class(1, 0.5) == "quasi-unipotent"
    assert unipotency_class(1, 0.3 + 0.4j) == "borel"
    assert unipotency_class(1, math.sqrt(2.0), irrational=True) == "borel"
    # within the integer tolerance of c = -1: the singular stratum, whose
    # rho(Z0) is the unipotent Pascal band
    assert basis(2, -1 + 1e-13).kind == "singular"
    assert unipotency_class(2, -1 + 1e-13) == "unipotent"


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan,
                               complex(0.5, math.inf)])
def test_non_finite_c_is_a_domain_error(c):
    # as in phi: every entry point taking c names it
    for call in (lambda: rho("Z0", 2, c), lambda: rho_word("Z0 Z1", 2, c),
                 lambda: basis(2, c), lambda: unipotency_class(2, c),
                 lambda: unipotency_class(2, c, irrational=True),
                 lambda: numeric_transport(2, c, z0_loop())):
        with pytest.raises(DomainError, match="c must be finite, got c = "):
            call()


@pytest.mark.parametrize("m", [0, -3])
def test_unipotency_class_wants_the_order_rho_wants(m):
    # the class is that of rho(Z0), which has no matrix for m < 1
    for c in (Fraction(1, 2), 1, 0.3 + 0.4j):
        with pytest.raises(DomainError, match="m >= 1"):
            unipotency_class(m, c)


# ---------------------------------------------------------------------------
# basis descriptors
# ---------------------------------------------------------------------------

def test_basis_descriptors():
    fb = basis(2, Fraction(1, 2))
    assert fb.kind == "regular"
    assert fb.entries[0] == "Li_{2,c}(z)"
    assert len(fb.entries) == 3 and fb.entries[-1] == "z^{1-c}"
    fb = basis(2, 0)
    assert fb.kind == "singular"
    assert fb.entries[0] == "Li*_2(z, 0)"
    fb = basis(1, -1)
    assert fb.entries[0] == "Li*_1(z, -1)"
    with pytest.raises(DomainError):
        basis(0, 1)


# ---------------------------------------------------------------------------
# transport oracle
# ---------------------------------------------------------------------------

def test_loops_are_valid_paths():
    for path in (z0_loop(), z1_loop()):
        assert abs(path[0] + 1.0) < 1e-12 and abs(path[-1] + 1.0) < 1e-12
    with pytest.raises(TransportError):
        numeric_transport(1, Fraction(1, 2), [0.5 + 0j, -1.0 + 0j])
    with pytest.raises(TransportError):
        # corridor pinched against the singular point at 0
        numeric_transport(1, Fraction(1, 2), [-1.0 + 0j, 0.05j, -1.0 + 0j])
    with pytest.raises(TransportError, match="at least two points"):
        numeric_transport(1, Fraction(1, 2), [-1.0 + 0j])
    with pytest.raises(DomainError, match="m >= 1"):
        numeric_transport(0, Fraction(1, 2), z0_loop())


def test_path_check_refuses_exactly_the_paths_near_a_singular_point():
    # the midpoint test skips only segments the projection clears
    rng = random.Random(7)
    refused = 0
    for _ in range(2000):
        path = [-1.0 + 0j] + [complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                              for _ in range(2)] + [-1.0 + 0j]
        near = any(min(_seg_dist(a, b, 0.0), _seg_dist(a, b, 1.0))
                   < 0.1 - 1e-12 for a, b in zip(path, path[1:]))
        try:
            _check_path(path)
        except TransportError:
            refused += 1
            assert near, path
        else:
            assert not near, path
    assert 200 < refused < 1800


@pytest.mark.parametrize("m,c", [
    (1, Fraction(1, 2)), (2, 0),
    # one case per stratum the transport benchmark draws: regular,
    # rational, singular and removable
    (3, 0.3 + 0.2j), (3, Fraction(2, 7)), (3, 0), (3, 2),
    # a start frame whose lead value phi(3, -1, c) was refused when asked
    # for a tolerance below the quadrature's rounding floor
    (3, 0.1114 + 0.4989j),
    # a negative singular c, and m = 4, c = 4, which stepping derivative
    # jets of the expanded operator missed by 7.8e-8
    (3, -1), (4, 4),
    # start frames shifted up from Re c < 0, from 0 < Re c <= 1/2 and not
    # shifted at all
    (3, Fraction(-3, 2)), (3, 0.5 - 0.4j), (3, Fraction(7, 3)),
    # |z^(1-c)| swings by 1.8e2 on the Z0 loop and 1.1e5 on the Z1 loop
    (1, Fraction(-13, 2))])
def test_transport_matches_closed_form(m, c):
    for gen, path in (("Z0", z0_loop()), ("Z1", z1_loop())):
        got = numeric_transport(m, c, path).entries
        want = rho(gen, m, c).entries
        assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("m,c,loops", [
    # rho_error 2.6 on Z0 and 10.7 on Z1 without the swing check
    (1, Fraction(-81, 2), (z0_loop(), z1_loop())),
    # rho_error 6.5e-5 without the swing check and a quadrature start
    # frame; kappa_1 of its start frame is below the 1e12 refused
    (2, 0.5 - 8j, (z0_loop(),))])
def test_transport_refuses_a_wide_swing_of_the_log_solution(m, c, loops):
    for path in loops:
        with pytest.raises(TransportError, match=r"\|z\^\(1-c\)\| swings"):
            numeric_transport(m, c, path)


def test_start_frame_sum_meets_exact_constants():
    # each within its bound 2^-53 plus a few ulps
    catalan = 0.91596559417721901505
    zeta3 = 1.2020569031595942854
    for c, want in ((1, (math.log(2), math.pi ** 2 / 12, 3 * zeta3 / 4)),
                    (Fraction(1, 2), (math.pi / 2, 4 * catalan))):
        got = _alternating_phi(len(want), c)
        for g, w in zip(got, want):
            assert abs(g - w) <= 2.0 ** -53 + 4 * math.ulp(w), (c, g, w)


@pytest.mark.parametrize("c", [0.3 + 0.2j, Fraction(2, 7), 3, Fraction(-3, 2),
                               0.5 - 0.4j, 0.1114 + 0.4989j, Fraction(7, 3),
                               Fraction(-1, 3)])
def test_start_frame_sum_matches_phi(c):
    # within the sum of the two estimates: phi's, and the sum's bound
    # 2^-53 plus a few ulps of rounding
    for j, got in enumerate(_alternating_phi(3, c), 1):
        want = phi(j, -1, c)
        bound = want.error_estimate + 2.0 ** -53 + 8 * math.ulp(abs(got))
        assert abs(got - want.value) <= bound, (j, got, want)


def test_transport_makes_no_phi_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("phi called")
    monkeypatch.setattr(deformed_polylog, "_phi", refuse)
    for m, c in ((2, 0.3 + 0.2j), (2, Fraction(1, 2)), (2, 0), (3, -1)):
        for gen, path in (("Z0", z0_loop()), ("Z1", z1_loop())):
            got = numeric_transport(m, c, path).entries
            assert np.max(np.abs(got - rho(gen, m, c).entries)) < 1e-8


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c", [0.3 + 0.2j, Fraction(2, 7), 0, 2])
def test_out_and_back_path_returns_the_identity(m, c):
    # a path that encloses nothing, or stays put (a zero-length segment
    # takes no step): no closed form enters the check
    for path in ([-1.0, -1.0 + 0.5j, -1.0], [-1.0, -1.0]):
        got = numeric_transport(m, c, path).entries
        assert np.max(np.abs(got - np.eye(m + 1))) < 1e-10


def _operator_residual(ab, z0, A, m):
    """Coefficients of sum_k (alpha_k z + beta_k) z^k y^(k) about z0,
    with y = sum_q A_q w^q, and per degree the sum of the magnitudes of
    the products that make it, through degree len(A) - m - 3."""
    top = len(A) - m - 3
    res, scale = [0j] * (top + 1), [0.0] * (top + 1)
    for k, (av, bv) in enumerate(ab):
        # P_k(w) = (alpha_k (z0 + w) + beta_k) (z0 + w)^k
        p = [0j] * (k + 2)
        for i in range(k + 1):
            binom = math.comb(k, i) * z0 ** (k - i)
            p[i] += (av * z0 + bv) * binom
            p[i + 1] += av * binom
        for d in range(top + 1):
            for i, pi in enumerate(p[:d + 1]):
                term = pi * A[d - i + k] * math.perm(d - i + k, k)
                res[d] += term
                scale[d] += abs(term)
    return res, scale


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [0.3 + 0.2j, Fraction(2, 7), 0, 2])
def test_shared_recurrence_matches_per_solution_loop(m, c):
    # The forced-series recurrence, shared by every level of the lead
    # chain, against the expanded operator of weyl_expand applied to the
    # solution it yields: the level-m forced series, driven by
    # v_0 = z / (1 - z) and zero at z0 with all its lower levels, from a
    # step record and m links of _forced_chain, as _lead_step forms it.
    # The residual is linear in v_0, so v_0 = K z / (1 - z) needs no K.
    ab = [(complex(alpha.eval(c)), complex(beta.eval(c)))
          for alpha, beta in weyl_expand(m).entries]
    shift = [q + complex(c) - 1.0 for q in range(_N_TAYLOR)]
    for path in (z0_loop(), z1_loop()):
        for z0 in path[1:-1:3]:
            record = _step_record(z0, 1.0)
            A = record.below
            for _ in range(m):
                A = _forced_chain(A, shift, record.rate)
            assert len(A) == _N_TAYLOR + 1 and A[0] == 0
            res, scale = _operator_residual(ab, z0, A, m)
            assert len(res) == _N_TAYLOR - m - 1
            for r, sc in zip(res, scale):
                assert abs(r) <= 1e-13 * sc


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [0.3 + 0.2j, Fraction(2, 7), 0, 2, 3])
def test_log_rows_of_transport_meet_rho_to_rounding(m, c):
    # The log solutions z^{1-c} (log z)^j / j! are continued in closed
    # form, so rows 1..m carry no truncation error.  Stepping them as
    # series left (2, 3) on the Z0 loop 1.13e-10 off.
    for gen, path in (("Z0", z0_loop()), ("Z1", z1_loop())):
        got = numeric_transport(m, c, path).rows
        want = rho(gen, m, c).rows
        scale = max(1.0, max(abs(x) for row in want for x in row))
        err = max(abs(a - b) for ra, rb in zip(got[1:], want[1:])
                  for a, b in zip(ra, rb))
        assert err <= 1e-13 * scale, (gen, err / scale)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c", [0.3 + 0.2j, Fraction(2, 7), Fraction(1, 6), 0,
                               Fraction(1, 2)])
def test_lead_row_of_transport_meets_rho_to_1e_12(m, c):
    # v_0 = z/(1 - z) is taken in closed form, so the lead row carries the
    # truncation of F_1..F_m alone.  Stepping v_0's series as well left
    # (3, 1/6) on the Z1 loop 1.2e-10 off.
    for gen, path in (("Z0", z0_loop()), ("Z1", z1_loop())):
        got = numeric_transport(m, c, path).rows
        want = rho(gen, m, c).rows
        scale = max(1.0, max(abs(x) for row in want for x in row))
        err = max(abs(a - b) for a, b in zip(got[0], want[0]))
        assert err <= 1e-12 * scale, (gen, err / scale)


def test_transport_survey_runs(tmp_path):
    # the survey tool end to end, in its own interpreter, on 4 cases; its
    # last line holds the worst lead-row and log-row rho_error
    root = Path(__file__).resolve().parents[1]
    tool = root / "tools/transport_survey.py"
    proc = subprocess.run([sys.executable, str(tool), "--n", "4",
                           "--seeds", "1"], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    found = re.fullmatch(r"  worst rho_error over 4 cases, 0 refused: "
                         r"lead row (\S+), log rows (\S+)", last)
    assert found, last
    assert float(found[1]) < 1e-8 and float(found[2]) <= 1e-13
    # --against races two checkouts, here the same one twice, on those
    # cases and on fresh random loops: no entry can differ
    proc = subprocess.run([sys.executable, str(tool), "--n", "4", "--seeds",
                           "1", "--against", str(root / "src")],
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(re.match(r"worst entry difference 0 .*; 0 refusals differ$",
                        line) for line in lines), proc.stdout
    # the extreme probe: orders up to 172 and degenerate start frames
    assert any(re.match(r"extreme: 418 cases on z0_loop\(\), m up to 172, "
                        r"one pass each: worst entry difference 0 .*; 0 "
                        r"outcomes differ; time ratio \S+$", line)
               for line in lines), proc.stdout
    assert re.fullmatch(r"unseen: 48 random loops, caches cleared before each "
                        r"pass: worst entry difference 0 .*; 0 refusals "
                        r"differ", lines[-2]), lines[-2]
    # each checkout's worst lead-row and log-row rho_error on those loops
    found = re.search(r"lead row (\S+) / (\S+), log rows (\S+) / (\S+);",
                      lines[-2])
    assert found and found[1] == found[2] and found[3] == found[4]
    assert float(found[1]) <= 1e-11 and float(found[3]) <= 1e-13
    assert re.fullmatch(r"  unseen +\S+ \[\S+, \S+\]", lines[-1]), lines[-1]


def test_transport_composes_like_the_word():
    m, c = 1, Fraction(1, 2)
    path = z0_loop() + z1_loop()[1:]
    got = numeric_transport(m, c, path).entries
    want = rho_word("Z0 Z1", m, c).entries
    assert np.max(np.abs(got - want)) < 1e-6


@pytest.mark.parametrize("path,name,value", [
    ([-1, math.nan, -1], "path[1]", "nan"), ([math.nan, -1], "path[0]", "nan"),
    ([-1, math.inf, -1], "path[1]", "inf")])
def test_non_finite_path_vertex_is_a_domain_error(path, name, value):
    # a NaN vertex compares false with everything and took no step, which
    # returned the identity; an infinite one ended in a step underflow.
    # Both are refused before the first step looks up a step record.
    before = _step_record.cache_info()
    name = re.escape(name)
    with pytest.raises(DomainError, match="%s must be finite, got %s = %s"
                       % (name, name, value)):
        numeric_transport(1, 0.5, path)
    assert _step_record.cache_info() == before


@pytest.mark.parametrize("m,path", [
    # 171! in the start frame's log column passes double range
    (172, z0_loop()), (200, z0_loop()),
    # the squared length of a segment does in the path check
    (1, [-1.0, 1e300j, -1.0])])
@pytest.mark.parametrize("c", [0.5, 0.3 + 0.2j, 2])
def test_transport_past_double_range_refuses_fast(m, path, c):
    # each raised a bare OverflowError
    t0 = time.perf_counter()
    with pytest.raises(AccuracyError, match=r"numeric_transport\(%d, .*\) "
                       r"overflows double precision" % m):
        numeric_transport(m, c, path)
    assert time.perf_counter() - t0 < 0.01


# one c from each stratum of the transport benchmark: regular, rational,
# singular and removable
STRATA = [0.3 + 0.2j, Fraction(2, 7), 0, 2]


def _bits(rows):
    return [(x.real.hex(), x.imag.hex()) for row in rows for x in row]


def test_step_records_leave_every_matrix_bit_identical(monkeypatch):
    # the package's loops, seeded random loops the records have not seen,
    # and c = 7, where a forced chain misses the step test
    rng = random.Random(35)
    loops = ([z0_loop(), z1_loop(), _random_z1_loop(rng)]
             + [_random_z0_loop(rng) for _ in range(3)])
    cases = [(m, c, loop) for m in (1, 2, 3) for c in STRATA + [7]
             for loop in loops]
    cold = []
    for m, c, loop in cases:
        _step_record.cache_clear()
        cold.append(_bits(numeric_transport(m, c, loop).rows))
    warm = [_bits(numeric_transport(*case).rows) for case in cases]
    attempts = []  # per step attempt: [z0, forced chains formed]

    def record(z0, h):
        attempts.append([z0, 0])
        return _step_record.__wrapped__(z0, h)

    def chain(*args):
        attempts[-1][1] += 1
        return _forced_chain(*args)
    monkeypatch.setattr(deformed_polylog, "_step_record", record)
    monkeypatch.setattr(deformed_polylog, "_forced_chain", chain)
    uncached = []
    for m, c, loop in cases:
        attempts.clear()
        uncached.append(_bits(numeric_transport(m, c, loop).rows))
        if c == 7 and loop in loops[:2]:
            # steps halve: an attempt retried from the same z0 failed at
            # a forced chain, and stopped there
            halved = [a for a, b in zip(attempts, attempts[1:])
                      if a[0] == b[0]]
            assert halved
            assert m == 1 or min(chains for _, chains in halved) < m
    assert cold == warm == uncached


@pytest.mark.parametrize("m", [1, 3])
def test_a_second_c_on_a_loop_reads_the_step_records(m):
    # the steps along a loop are the same for every c: a second c takes
    # every one of them from the records the first one left
    for loop in (z0_loop(), z1_loop()):
        _step_record.cache_clear()
        numeric_transport(m, STRATA[0], loop)
        first = _step_record.cache_info()
        for c in STRATA[1:]:
            numeric_transport(m, c, loop)
        last = _step_record.cache_info()
        assert first.misses > 0 and last.misses == first.misses
        assert last.hits - first.hits == 3 * (first.hits + first.misses)


def test_step_record_holds_tuples():
    z0, h = -0.5 + 0.2j, 0.1 - 0.05j
    record = _step_record(z0, h)
    assert record._fields == ("rate", "below", "log")
    assert all(isinstance(part, tuple) for part in record[:2])
    assert [len(part) for part in record[:2]] == [30, 31]
    # v_0 = z/(1 - z) in closed form: its Taylor series at z0, and
    # L = Log(1 + h/z0)
    assert cmath.isclose(record.below[0], z0 / (1.0 - z0), rel_tol=1e-15)
    assert cmath.isclose(sum(record.below), (z0 + h) / (1.0 - z0 - h),
                         rel_tol=1e-13)
    assert record.log == cmath.log(1.0 + h / z0)


def _random_z0_loop(rng):
    """A polyline from -1 once counterclockwise around 0 through 6 to 10
    jittered vertices at radius 0.35 to 0.6, so never within 0.2 of 0 or
    0.4 of 1: homotopic to z0_loop()."""
    k = rng.randint(6, 10)
    ring = [cmath.rect(rng.uniform(0.35, 0.6), math.pi + 2.0 * math.pi
                       * (i + rng.uniform(-0.3, 0.3)) / k) for i in range(k)]
    return [-1.0 + 0j] + ring + [ring[0], -1.0 + 0j]


def _random_z1_loop(rng):
    """A polyline from -1 up a corridor at height 0.5 to 0.8, once
    counterclockwise around 1 through 6 to 10 jittered vertices at radius
    0.35 to 0.6, and back: homotopic to z1_loop()."""
    k = rng.randint(6, 10)
    ring = [1.0 + cmath.rect(rng.uniform(0.35, 0.6), math.pi / 2.0 + 2.0
                             * math.pi * (i + rng.uniform(-0.3, 0.3)) / k)
            for i in range(k)]
    corridor = complex(-1.0, rng.uniform(0.5, 0.8))
    return [-1.0 + 0j, corridor] + ring + [ring[0], corridor, -1.0 + 0j]


def test_step_records_stay_within_maxsize_on_new_paths():
    # every step of a path the cache has not seen is a miss; the cache
    # evicts and every transport still meets rho(Z0)
    rng = random.Random(300)
    maxsize = _step_record.cache_info().maxsize
    _step_record.cache_clear()
    for i in range(300):
        m, c = 1 + i % 3, STRATA[i % 4]
        got = numeric_transport(m, c, _random_z0_loop(rng)).entries
        assert np.max(np.abs(got - rho("Z0", m, c).entries)) < 1e-8
        assert _step_record.cache_info().currsize <= maxsize
    assert _step_record.cache_info().misses > 10 * maxsize


def test_an_invalid_path_is_refused_on_every_call():
    # each call checks its path: a refused path is refused on every call
    for path, why in (([-1.0, 0.05j, -1.0], "within 0.1 of a singular"),
                      ([-1.0, -0.5j], "start and end at z = -1"),
                      ([-1.0], "at least two points")):
        for _ in range(3):
            with pytest.raises(TransportError, match=why):
                numeric_transport(1, 0.5, path)


@pytest.mark.parametrize("m,c", [
    # kappa_1 of 6e51 and 1e53: the LU and condition number took 0.7 s and
    # 0.2 s before the refusal
    (171, 0.5), (120, 0.3 + 0.2j),
    # kappa_1 = 8.8e12 under a column-norm ratio of 2.1e6, and a band of
    # kappa_1 past 1e12 that the column-norm ratio missed: each paid the
    # O(m^3) LU and condition number before the refusal (95 ms at m = 80)
    (20, 0.5), (60, 0.71 - 0.3j), (80, 0.71 - 0.3j)])
def test_degenerate_start_frame_is_refused_without_an_lu(monkeypatch, m, c):
    calls = []
    monkeypatch.setattr(deformed_polylog, "_lu",
                        lambda a: calls.append(len(a)) or _lu(a))
    with pytest.raises(TransportError, match="degenerate start frame"):
        numeric_transport(m, c, z0_loop())
    assert not calls


@pytest.mark.parametrize("m", [1, 3, 20])
def test_start_frame_with_an_underflowing_log_solution_is_refused(m):
    # b_0 = e^{i pi (1-c)} underflows to 0 below Im c of about -237, and
    # T^-1 divides by it
    assert _start_frame(m, 0.3 - 250j)[1][0] == 0
    with pytest.raises(TransportError, match="degenerate start frame"):
        numeric_transport(m, 0.3 - 250j, z0_loop())


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("c", [0.5, 0.3 + 0.2j, Fraction(2, 7), 0, -3, 2,
                               0.71 - 0.3j])
def test_start_frame_condition_number_is_exact(m, c):
    # the closed-form T^-1 and kappa_1 against numpy's on S rebuilt from
    # its chains: S is lower triangular, and T^-1 is the Toeplitz matrix of
    # (-i pi)^n / (n! b_0)
    lead, logs = _start_frame(m, c)
    frame = np.array(_chain_columns(lead, logs)).T
    assert np.all(np.triu(frame, 1) == 0)
    inverse = [(-1j * math.pi) ** n / math.factorial(n) / logs[0]
               for n in range(m)]
    want = np.linalg.inv(frame)[1:, 1]
    assert np.max(np.abs(inverse - want)) <= 1e-13 * np.max(np.abs(want))
    assert _frame_cond(lead, logs, inverse) == pytest.approx(
        np.linalg.cond(frame, 1), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c", STRATA)
def test_transport_matrices_are_upper_triangular_like_rho(m, c):
    # rows 1..m continue the log solutions, which never gain a multiple of
    # the lead one: below the diagonal every entry is an exact zero
    rng = random.Random(40)
    loops = [z0_loop(), z1_loop(), _random_z0_loop(rng),
             _random_z1_loop(rng)]
    for loop in loops:
        rows = numeric_transport(m, c, loop).rows
        assert all(rows[i][j] == 0 for i in range(m + 1) for j in range(i))


@pytest.mark.parametrize("m,c", [(1, 0.5), (3, 0.3 + 0.2j),
                                 (3, Fraction(2, 7))])
def test_path_ends_near_minus_one_are_read_at_minus_one(m, c):
    # ends within 1e-9 of -1 pass the path check; read where they lie, the
    # end chains missed rho by 9e-10 (m = 1) to 1.1e-7 (m = 3)
    for gen, loop in (("Z0", z0_loop()), ("Z1", z1_loop())):
        path = [-1.0 + 9e-10j] + loop[1:-1] + [-1.0 - 9e-10j]
        got = numeric_transport(m, c, path).rows
        want = rho(gen, m, c).rows
        scale = max(1.0, max(abs(x) for row in want for x in row))
        err = max(abs(a - b) for ra, rb in zip(got, want)
                  for a, b in zip(ra, rb))
        assert err <= 1e-12 * scale, (gen, err / scale)


def test_commutator_word_nontrivial_on_singular_stratum():
    mat = rho_word("Z0 Z1 Z0^-1 Z1^-1", 2, 0).entries
    assert np.max(np.abs(mat - np.eye(3))) > 1.0


def test_matrix_wrapper():
    mm = rho("Z0", 2, 0)
    assert isinstance(mm, MonodromyMatrix)
    assert mm.m == 2
    assert isinstance(mm.det(), complex)
    assert mm == rho("Z0", 2, 0) and hash(mm) == hash(rho("Z0", 2, 0))


# ---------------------------------------------------------------------------
# the pure-Python matrix kernel
# ---------------------------------------------------------------------------

def test_lu_swaps_rows_for_a_zero_leading_pivot():
    # hand-expanded along the first row: det a = -i (1) + 2 (-2)
    a = [[0j, 1j, 2], [1, 1, 0], [2, 0, 1]]
    lu, perm, sign = _lu(a)
    assert perm[0] != 0 and sign == -1
    det = MonodromyMatrix(a, "a", "regular").det()
    assert abs(det - (-4 - 1j)) < 1e-15


def test_kernel_matches_numpy_on_random_matrices():
    rng = random.Random(18)
    for n in range(1, 6):
        for _ in range(10):
            a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                 for _ in range(n)]
            lu, perm, sign = _lu(a)
            # P a = L U, with |L| <= 1 from partial pivoting
            low = np.tril(np.array(lu), -1) + np.eye(n)
            up = np.triu(np.array(lu))
            assert np.max(np.abs(low)) <= 1.0
            assert np.max(np.abs(np.array(a)[perm] - low @ up)) <= 1e-12
            assert sign == np.linalg.det(np.eye(n)[perm])
            det = MonodromyMatrix(a, "a", "regular").det()
            assert det == pytest.approx(np.linalg.det(a), rel=1e-12)


@pytest.mark.parametrize("m", range(1, 6))
def test_rho_determinants_in_closed_form(m):
    for c in (0.3, 0.3 + 0.2j, Fraction(2, 7), 1e-6, 2):
        want = cmath.exp(-TWO_PI_I * c * m)
        assert abs(rho("Z0", m, c).det() - want) <= 1e-14 * abs(want)
        assert abs(rho("Z1", m, c).det() - 1) <= 1e-14
    for c in (0, -2):
        assert abs(rho("Z0", m, c).det() - 1) <= 1e-14
        assert abs(rho("Z1", m, c).det() - 1) <= 1e-14


def test_rho_word_matches_numpy_products():
    # Entries of a partial product can be far larger than those of the
    # word (Z0^2 Z0^-2 passes through (4 pi)^m / m!), and both products
    # round at that size; so the difference is measured against the
    # largest entry any partial product reaches.
    rng = random.Random(7)
    letters = ("Z0", "Z1", "Z0^-1", "Z1^-1")
    for _ in range(100):
        m = rng.randint(1, 5)
        c = rng.choice((0.3, 0.3 + 0.2j, Fraction(1, 4), Fraction(2, 7),
                        0, -2, 1, 1e-6, 0.1114 + 0.4989j))
        word = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
        want, scale = np.eye(m + 1, dtype=complex), 1.0
        for letter in word:
            g = rho(letter[:2], m, c, inverse=letter.endswith("^-1"))
            want = want @ g.entries
            scale = max(scale, np.max(np.abs(want)))
        got = rho_word(" ".join(word), m, c).entries
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, (m, c, word)


def test_c_between_the_integer_and_the_refusal_radius():
    # INT_TOL (1e-12) < dist(c, Z<=0) < NEAR (1e-8): phi and the classifier
    # call c singular, the ODE tools take the regular basis (as_int chooses
    # it), rho gives its closed form and the transport refuses the start
    # frame; within INT_TOL the basis is the singular one
    for n in (0, -1, -3):
        for d in (5e-12, 1e-10, 9e-9):
            c = n + d
            assert classify_stratum(2, 0.5, c).tag == "singular_c"
            for m in (1, 2, 3):
                assert basis(m, c).kind == "regular"
                for generator, loop in (("Z0", z0_loop()), ("Z1", z1_loop())):
                    assert rho(generator, m, c).kind == "regular"
                    with pytest.raises(TransportError,
                                       match="degenerate start frame"):
                        numeric_transport(m, c, loop)
        for m in (1, 2, 3):
            assert basis(m, n + 5e-13).kind == "singular"



class _CountedFraction(Fraction):
    """A Fraction that counts c + k: one per head term of the start frame."""
    adds = 0

    def __add__(self, other):
        _CountedFraction.adds += 1
        return Fraction.__add__(self, other)


class _CountedInt(int):
    """An int that counts k - j: one per term of li_star's tail; -k stays
    counted, as the start frame feeds li_star k = -c."""
    subs = 0

    def __sub__(self, other):
        _CountedInt.subs += 1
        return int(self) - other

    def __neg__(self):
        return _CountedInt(-int(self))


def test_heads_past_the_term_budget_refuse_before_the_first_term():
    # MAX_TERMS (200,000) bounds the start frame's c-shift head and
    # li_star's k-term tail: these ran 1e6 terms (0.25 to 0.6 s each), the
    # last to return an imaginary part of -2.2e-9 on a real value
    budget = r"of N = 1e\+06 terms passes the budget \|N\| <= MAX_TERMS"
    _CountedFraction.adds = _CountedInt.subs = 0
    with pytest.raises(AccuracyError, match="alternating-sum head " + budget):
        numeric_transport(1, _CountedFraction(-1999999, 2), [-1, -1])
    assert _CountedFraction.adds < 5
    for call in (lambda: numeric_transport(1, _CountedInt(-10**6), [-1, -1]),
                 lambda: li_star(2, _CountedInt(10**6), -1)):
        with pytest.raises(AccuracyError, match="li_star tail " + budget):
            call()
    assert _CountedInt.subs == 0
    # within the budget the same sums run
    assert numeric_transport(1, -1000.5, [-1, -1]).kind == "regular"
    assert li_star(2, _CountedInt(10), -1) == pytest.approx(
        li_star(2, 10, -1), abs=0)
    assert _CountedInt.subs == 10

