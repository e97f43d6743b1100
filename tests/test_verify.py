"""Cross-identity residual checks: ladders, PDE, functional equations,
dilogarithm identities, monodromy vanishing, and the exact suite (r_m,
Laurent data, the exp-series division, q_m on the unit circle and the
theta-form of the operator)."""

import json
from fractions import Fraction

import pytest

from lerchkit import eval_core, verify
from lerchkit.errors import DomainError, StratumError
from lerchkit.verify import (ResidualReport, SUITE_NAMES, check_commutator,
                             check_egf, check_four_term, check_ladder_down,
                             check_ladder_up, check_laurent,
                             check_lerch_three_term,
                             check_monodromy_vanishing, check_pde,
                             check_periodic_zeta, check_r_recursion,
                             check_r_reflection, check_rogers, check_spence,
                             run_suite)


# ---------------------------------------------------------------------------
# report object
# ---------------------------------------------------------------------------

def test_residual_report_properties():
    r = ResidualReport("demo", (1.0,), 2.0 + 0j, 2.0 + 1e-12j, 1e-9)
    assert r.abs_residual == pytest.approx(1e-12)
    assert r.signed_residual == -(ResidualReport(
        "demo", (1.0,), 2.0 + 1e-12j, 2.0 + 0j, 1e-9).signed_residual)
    assert r.passed
    assert not ResidualReport("demo", (), 1.0, 2.0, 1e-9).passed


def test_rel_residual_normalizes_by_scale():
    big = ResidualReport("big", (), 1e8 + 0j, 1e8 + 1.0j, 1e-6)
    assert big.abs_residual == pytest.approx(1.0)
    assert big.rel_residual == pytest.approx(1e-8)
    assert big.passed  # tolerance reads the relative residual


def test_report_round_trips_through_json():
    r = check_ladder_down(2, 0.5, 0.5)
    d = json.loads(json.dumps(r.to_dict()))
    assert d["name"] == r.name
    assert d["passed"] is True
    assert d["abs_residual"] == pytest.approx(r.abs_residual)


# ---------------------------------------------------------------------------
# ladder and PDE checks
# ---------------------------------------------------------------------------

LADDER_POINTS = [
    (2, 0.5, 0.5),
    (1.5, 0.3 + 0.2j, 0.7),
    (0.5 + 0.5j, -0.4, 1.2),
    (3, -0.7, 2.0),
    (2, 0.85, 0.6),       # integral route
    (1.2, -1.3, 0.8),     # integral route
]


@pytest.mark.parametrize("s,z,c", LADDER_POINTS)
def test_ladder_down(s, z, c):
    r = check_ladder_down(s, z, c)
    assert r.passed, r.to_dict()


@pytest.mark.parametrize("s,z,c", LADDER_POINTS)
def test_ladder_up(s, z, c):
    r = check_ladder_up(s, z, c)
    assert r.passed, r.to_dict()


def test_ladder_up_catches_a_wrong_phi_in_series_mode(monkeypatch):
    # both sides must come from phi: a relative error of 1e-6 * s in phi
    # breaks d/dc Phi = -s Phi(s+1) and has to show in the residual
    real = verify.phi

    def skewed(s, z, c, tol=1e-12):
        r = real(s, z, c, tol=tol)
        return r._replace(value=r.value * (1 + 1e-6 * complex(s)))

    monkeypatch.setattr(verify, "phi", skewed)
    assert not check_ladder_up(1.5, 0.3 + 0.2j, 0.7).passed


SERIES_GRID = [p for p in verify._LADDER_GRID
               if eval_core._series_region(complex(p[1]))]


def test_ladder_down_catches_a_wrong_phi_in_series_mode(monkeypatch):
    # an error delta = 1e-6 z c^{-s} in phi leaves (z d/dz + c) delta(s)
    # - delta(s-1) = delta(s): a z-derivative summed from the series
    # instead of taken from phi would cancel it
    real = verify.phi

    def skewed(s, z, c, tol=1e-12):
        r = real(s, z, c, tol=tol)
        sc, zc, cc = complex(s), complex(z), complex(c)
        if not eval_core._series_region(zc):
            return r
        return r._replace(value=r.value + 1e-6 * zc * cc ** -sc)

    assert len(SERIES_GRID) == 7
    assert all(check_ladder_down(*p).passed for p in SERIES_GRID)
    monkeypatch.setattr(verify, "phi", skewed)
    for p in SERIES_GRID:
        assert not check_ladder_down(*p).passed, p
        if p[0] != 0:
            assert not check_pde(*p).passed, p


@pytest.mark.parametrize("check", [check_ladder_down, check_ladder_up,
                                   check_pde])
def test_ladder_and_pde_checks_refuse_z_zero(check):
    # z = 0 is a singular stratum of phi; a check there could not fail
    with pytest.raises(StratumError) as exc:
        check(2, 0, 0.5)
    assert exc.value.stratum == "singular_z0"


def test_ladder_up_exact_at_s_zero(monkeypatch):
    # at s = 0 both sides vanish, and the check still evaluates them
    calls = []
    real = verify.phi

    def counted(s, z, c, tol=1e-12):
        calls.append((s, z, c))
        return real(s, z, c, tol=tol)

    monkeypatch.setattr(verify, "phi", counted)
    r = check_ladder_up(0, 0.5, 0.75)
    assert r.passed and r.tol == 1e-9
    assert len(calls) == 17 and (1, 0.5, 0.75) in calls


@pytest.mark.parametrize("s,z,c", [(-2, Fraction(1, 3), Fraction(1, 2)),
                                   (-1, Fraction(2, 5), Fraction(3, 4))])
def test_ladder_up_at_exact_input(s, z, c):
    # integer s < 0 with rational z, c takes the same circle on phi
    r = check_ladder_up(s, z, c)
    assert r.tol == 1e-9 and r.passed, r.to_dict()


@pytest.mark.parametrize("s,z,c", LADDER_POINTS)
def test_pde(s, z, c):
    r = check_pde(s, z, c)
    assert r.passed, r.to_dict()


def test_pde_on_monodromy_term():
    r = check_pde(0.6 + 0.4j, -0.8 + 0.5j, 0.7, target="monodromy")
    assert r.name == "pde_monodromy_term"
    assert r.passed, r.to_dict()


def test_commutator_is_exact():
    for degree in (2, 4, 6):
        r = check_commutator(max_degree=degree)
        assert r.point == ("monomials z^j c^k, j,k <= %d" % degree,)
        assert r.passed and r.abs_residual == 0.0


# ---------------------------------------------------------------------------
# functional equations on the unit polycylinder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,a,c", [
    (0.5, 0.5, 0.5),
    (0.3, 0.4, 0.6),
    (0.3 + 0.2j, 0.4, 0.6),
])
def test_three_term_equation(s, a, c):
    r = check_lerch_three_term(s, a, c)
    assert r.passed, r.to_dict()


@pytest.mark.parametrize("parity", [1, -1])
def test_four_term_equation(parity):
    r = check_four_term(0.4, 0.3, 0.7, parity=parity)
    assert r.name == ("four_term_plus" if parity == 1 else "four_term_minus")
    assert r.point == (0.4, 0.3, 0.7, parity)
    assert r.passed, r.to_dict()


def test_three_term_rejects_points_off_the_cylinder():
    with pytest.raises(DomainError):
        check_lerch_three_term(1.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        check_four_term(0.5, 0.5, 1.2)
    with pytest.raises(DomainError, match="parity must be"):
        check_four_term(0.4, 0.3, 0.7, parity=0)


def test_ladder_down_right_of_the_cut():
    # Re z >= 1 off the cut: the circle's radius is 0.05 |Im z|
    r = check_ladder_down(2, 1.5 + 0.5j, 0.7)
    assert r.passed and r.rel_residual < 1e-13, r.to_dict()


def test_pde_refuses_an_unknown_target():
    with pytest.raises(ValueError, match="target must be"):
        check_pde(2, 0.5, 0.5, target="x")


# ---------------------------------------------------------------------------
# dilogarithm identities
# ---------------------------------------------------------------------------

def test_spence_five_term():
    for x in (0.0, 0.15, 0.3, 0.45):
        for y in (0.0, 0.2, 0.4):
            r = check_spence(x, y)
            assert r.passed, r.to_dict()
    r = check_spence(0.1, 0.2, tol=1e-9)
    assert (r.point, r.tol) == ((0.1, 0.2), 1e-9) and r.passed
    with pytest.raises(DomainError):
        check_spence(0.6, 0.1)


@pytest.mark.parametrize("check", [check_spence, check_rogers])
def test_dilog_identities_run_on_phi(check, monkeypatch):
    # Li_2 comes from the package: a relative error of 1e-6 in phi has to
    # show in the five-term residual
    real = eval_core.phi

    def skewed(s, z, c, tol=1e-12):
        r = real(s, z, c, tol=tol)
        return r._replace(value=r.value * (1 + 1e-6))

    assert check(0.3, 0.4).passed
    monkeypatch.setattr(eval_core, "phi", skewed)
    assert not check(0.3, 0.4).passed


def test_rogers_five_term():
    for x in (0.1, 0.3, 0.45):
        for y in (0.2, 0.4):
            r = check_rogers(x, y)
            assert r.passed, r.to_dict()
    with pytest.raises(DomainError):
        check_rogers(0.0, 0.3)  # open interval


# ---------------------------------------------------------------------------
# monodromy vanishing
# ---------------------------------------------------------------------------

def test_vanishing_at_integer_s():
    # tolerance 0: the zeros must be exact
    for s in (0, -1, -2, -4, 1, 2):
        r = check_monodromy_vanishing(s)
        assert r.point[0] == s
        assert r.passed and r.abs_residual == 0.0


def test_vanishing_needs_integer_s():
    with pytest.raises(DomainError):
        check_monodromy_vanishing(0.5)


# ---------------------------------------------------------------------------
# exact special values and the operator
# ---------------------------------------------------------------------------

def test_r_identities_hold_exactly():
    # reflection and binomial recursion of r_m for 1 <= m <= 20, and the
    # Laurent expansion r_m = sum a_{m,k} (1-z)^{m+1-k} for m <= 20, as
    # identities of integer polynomials
    for check, name in ((check_r_reflection, "r_reflection"),
                        (check_r_recursion, "r_recursion"),
                        (check_laurent, "laurent")):
        r = check(20)
        assert (r.name, r.point, r.tol) == (name, ("m <= 20",), 0.0)
        assert r.passed and r.abs_residual == 0.0


def test_egf_division_is_exact():
    # all 13 coefficients of the exp-series division at (1/3, 2/5) equal
    # the exact Fractions Li_{-m}(1/3, 2/5) / m!, m <= 12
    r = check_egf(Fraction(1, 3), Fraction(2, 5), 12)
    assert r.point == (Fraction(1, 3), Fraction(2, 5), 12)
    assert r.passed and r.abs_residual == 0.0 and r.tol == 0.0


def test_periodic_zeta_check():
    # F(1/2, -m) is the Abel sum of the alternating series: the exact side
    # is q_0(-1) - 1 at m = 0 (q_0 carries the n = 0 term), then q_m(-1)
    exact = []
    for m in range(3):
        r = check_periodic_zeta(Fraction(1, 2), m)
        assert r.passed and r.tol == 1e-10, r.to_dict()
        exact.append(r.right + (m == 0))
    assert exact == pytest.approx([0.5, -0.25, 0.0], abs=1e-15)
    with pytest.raises(DomainError):
        check_periodic_zeta(0, 2)  # q_m has its pole at e^{2 pi i 0} = 1


def test_exact_checks_catch_a_wrong_entry(monkeypatch):
    # one Laurent coefficient off by one, one coefficient of Li_{-12}'s
    # numerator off by one (a relative change of 2.8e-17 in the egf
    # coefficient, which leaves its double unchanged) and one Weyl entry
    # off by one
    real_laurent = verify.laurent_coeffs
    real_li = verify.negative_polylog
    real_weyl = verify.weyl_expand

    def laurent(m):
        a = real_laurent(m)
        a[-1] += m == 13
        return a

    def li(m):
        biv = real_li(m)
        if m < 12:
            return biv
        *polys, top = biv.c_polys
        return biv._replace(c_polys=(*polys, top[:-1] + (top[-1] + 1,)))

    def weyl(m):
        op = real_weyl(m)
        if m != 5:
            return op
        (alpha, beta), *rest = op.entries
        alpha = alpha._replace(coeffs=(alpha.coeffs[0] + 1,)
                               + alpha.coeffs[1:])
        return op._replace(entries=((alpha, beta), *rest))

    assert run_suite("exact").passed
    monkeypatch.setattr(verify, "laurent_coeffs", laurent)
    monkeypatch.setattr(verify, "negative_polylog", li)
    monkeypatch.setattr(verify, "weyl_expand", weyl)
    failed = [(r.name, r.point, r.left) for r in run_suite("exact").reports
              if not r.passed]
    assert failed == [("laurent", ("m <= 20",), 1),
                      ("egf", (Fraction(1, 3), Fraction(2, 5), 12), 1),
                      ("theta_form", (5,), 2 * 5 + 5)]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_every_suite_passes():
    for name in SUITE_NAMES:
        rep = run_suite(name)
        assert rep.passed, (name, [r.to_dict() for r in rep.reports
                                   if not r.passed])
    combined = run_suite("all")
    assert [(r.name, r.point, r.tol)
            for r in combined.reports] == _combined_checks()


def _combined_checks():
    """The 130 (name, point, tol) triples of run_suite("all"), in order."""
    ladder = [(2, 0.5, 0.5), (1.5, 0.3 + 0.2j, 0.7), (0.5 + 0.5j, -0.4, 1.2),
              (2.5, 0.6j, 0.8 - 0.1j), (3, -0.7, 2.0), (0, 0.5, 0.75),
              (-1.5, 0.55, 0.9), (2, 0.85, 0.6), (1.2, -1.3, 0.8),
              (0.8, 1.5j, 1.1)]
    three = [(0.3, 0.4, 0.6), (0.5, 0.5, 0.5), (0.3 + 0.2j, 0.4, 0.6),
             (0.6, 0.7, 0.3), (0.45, 0.25, 0.85)]
    four = [(0.5, 0.5, 0.5), (0.4, 0.3, 0.7), (0.25, 0.6, 0.45),
            (0.35, 0.55, 0.8), (0.65, 0.15, 0.3)]
    axis = (0.05, 0.16, 0.27, 0.38, 0.49)
    want = []
    for p in ladder:
        want += [(name, p, 1e-9) for name in ("ladder_down", "ladder_up")]
    want += [("pde", p, 1e-9) for p in ladder]
    want += [("pde_monodromy_term", p, 1e-8)
             for p in ((0.5, -0.5, 0.5), (0.3 + 0.2j, -1.1 + 0.4j, 0.8))]
    want.append(("commutator", ("monomials z^j c^k, j,k <= 6",), 0.0))
    want += [("three_term", p, 1e-8) for p in three]
    for p in four:
        want += [("four_term_plus", p + (1,), 1e-8),
                 ("four_term_minus", p + (-1,), 1e-8)]
    for name in ("spence", "rogers"):
        want += [(name, (x, y), 1e-10) for x in axis for y in axis]
    want += [(name, ("m <= 20",), 0.0)
             for name in ("r_reflection", "r_recursion", "laurent")]
    want.append(("egf", (Fraction(1, 3), Fraction(2, 5), 12), 0.0))
    want += [("periodic_zeta", (Fraction(a, b), m), 1e-10)
             for a, b in ((1, 3), (2, 5), (1, 2)) for m in range(5)]
    want += [("theta_form", (m,), 0.0) for m in range(8)]
    for s in (0, -1, -2, -3, 2):
        words = verify._VANISH_WORDS if s <= 0 else verify._VANISH_Y_WORDS
        want.append(("monodromy_vanishing", (s,) + words, 0.0))
    assert len(want) == 130
    return want


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_tolerance_monotone():
    r_loose = check_ladder_down(2, 0.85, 0.6, tol=1e-3)
    r_tight = check_ladder_down(2, 0.85, 0.6, tol=1e-30)
    assert r_loose.abs_residual == r_tight.abs_residual  # deterministic
    assert r_loose.passed and not r_tight.passed
