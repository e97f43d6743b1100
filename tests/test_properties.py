"""Randomized invariants (hypothesis): branch arithmetic, exact tables,
route agreement, matrix inverses, and profile bookkeeping."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lerchkit.branch_numerics import (branched_power, principal_log,
                                      semi_principal_log)
from lerchkit.cli import parse_number
from lerchkit.deformed_polylog import rho
from lerchkit.eval_core import phi_integral, phi_series
from lerchkit.monodromy import (GeneratorLetter, parse_word, reduce_word,
                                z_profile)
from lerchkit.special_values import q_ratio, r_poly
from lerchkit.verify import ResidualReport

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
nonzero_complex = st.builds(complex, finite, finite).filter(
    lambda z: abs(z) > 1e-6)


# ---------------------------------------------------------------------------
# branch arithmetic
# ---------------------------------------------------------------------------

@given(nonzero_complex)
def test_principal_log_round_trip(z):
    # the open endpoint is reachable by rounding when z sits within one
    # ulp of the cut, so the randomized check allows both closed ends;
    # exact on-cut attachment is pinned in test_branch_numerics
    w = principal_log(z)
    assert -math.pi <= w.imag <= math.pi
    assert cmath.exp(w) == pytest.approx(z, rel=1e-12, abs=1e-12)


@given(nonzero_complex)
def test_semi_principal_log_round_trip(z):
    w = semi_principal_log(z)
    assert 0.0 <= w.imag <= 2.0 * math.pi
    assert cmath.exp(w) == pytest.approx(z, rel=1e-12, abs=1e-12)


@given(nonzero_complex)
def test_branches_agree_off_the_cut_side(z):
    assume(z.imag > 1e-9)
    assert principal_log(z) == semi_principal_log(z)


@given(nonzero_complex,
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_branched_power_adds_exponents(b, s, t):
    def semi_power(base, e):
        return cmath.exp(e * semi_principal_log(base))

    for power in (branched_power, semi_power):
        lhs = power(b, s + t)
        rhs = power(b, s) * power(b, t)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


# ---------------------------------------------------------------------------
# exact tables
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=12))
def test_r_polynomial_invariants(m):
    r = r_poly(m)
    assert r[0] == 0
    assert r[-1] == 1                    # monic
    assert r[1:] == r[:0:-1]             # palindrome
    assert sum(r) == math.factorial(m)


@given(st.integers(min_value=0, max_value=5),
       st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2)))
def test_q_ratio_sums_the_power_series(m, w):
    assume(w != 0)
    exact = q_ratio(m, w)
    wf = float(w)
    acc = sum(n ** m * wf ** n for n in range(400))
    assert float(exact) == pytest.approx(acc, rel=1e-10, abs=1e-10)


@given(st.integers(min_value=0, max_value=30))
def test_parse_number_round_trips_integers(n):
    assert parse_number(str(n)) == (n, True)
    assert parse_number("%d/7" % n) == (Fraction(n, 7), True)


# ---------------------------------------------------------------------------
# evaluation route agreement
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=0.05, max_value=0.7),
       st.floats(min_value=0.0, max_value=2 * math.pi),
       st.floats(min_value=0.3, max_value=2.0))
def test_series_and_integral_agree(s, rad, ang, c):
    z = cmath.rect(rad, ang)
    a = phi_series(s, z, c).value
    b = phi_integral(s, z, c).value
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# monodromy matrices
# ---------------------------------------------------------------------------

@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=4),
       st.one_of(st.integers(min_value=-2, max_value=2),
                 st.fractions(min_value=Fraction(-3, 2),
                              max_value=Fraction(3, 2)),
                 st.floats(min_value=-1.5, max_value=1.5)),
       st.sampled_from(["Z0", "Z1"]))
def test_rho_inverse_really_inverts(m, c, gen):
    fwd = rho(gen, m, c).entries
    bwd = rho(gen, m, c, inverse=True).entries
    assert np.max(np.abs(fwd @ bwd - np.eye(m + 1))) < 1e-12


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@given(st.builds(complex, finite, finite), st.builds(complex, finite, finite))
def test_residual_antisymmetry(a, b):
    fwd = ResidualReport("p", (), a, b, 1e-9)
    rev = ResidualReport("p", (), b, a, 1e-9)
    assert fwd.signed_residual == -rev.signed_residual
    assert fwd.abs_residual == rev.abs_residual
    assert fwd.passed == rev.passed


# ---------------------------------------------------------------------------
# word bookkeeping
# ---------------------------------------------------------------------------

letter = st.one_of(
    st.sampled_from([GeneratorLetter("Z0", 1), GeneratorLetter("Z0", -1),
                     GeneratorLetter("Z1", 1), GeneratorLetter("Z1", -1)]),
    st.builds(GeneratorLetter, st.just("Y"), st.sampled_from([1, -1]),
              st.integers(min_value=-2, max_value=2)))
word = st.lists(letter, max_size=10)


@given(word)
def test_word_text_round_trips(letters):
    text = " ".join(str(x) for x in letters)
    assert parse_word(text) == letters


@given(word, word)
def test_profile_concatenation_law(sig, tau):
    psig = z_profile(reduce_word(sig).z_part)
    ptau = z_profile(reduce_word(tau).z_part)
    pcat = z_profile(reduce_word(sig + tau).z_part)
    h = dict(psig.h)
    for k, v in ptau.h:
        h[k + psig.t] = h.get(k + psig.t, 0) + v
    assert pcat.h_map() == {k: v for k, v in h.items() if v}
    assert pcat.t == psig.t + ptau.t


@given(word)
def test_reduction_is_idempotent(letters):
    once = reduce_word(letters)
    again = reduce_word(list(once.z_part))
    assert again.z_part == once.z_part
