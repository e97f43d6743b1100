"""Residual and exact checks of the identities the package relies on.

Each check evaluates both sides of one identity with the package's own
functions and reports the signed residual ``left - right``: ``phi`` for
the ladders and the PDE, ``lerch_zeta`` for the functional equations,
Li_2(x) = ``extended_polylog(2, x, 1)`` for the dilogarithm identities
and the closed forms of ``monodromy`` for the vanishing checks, so a
wrong value anywhere in that stack shows as a residual.

Every derivative comes from one primitive: the first two Taylor
coefficients a_1, a_2 of g(t) at t = 0, as 16-node trapezoid sums on
the unit circle |t| = 1.  The ladders take g(t) = Phi(s, z + t r, c)
and g(t) = Phi(s, z, c + t r), so F' = a_1 / r.  The PDE takes the two
diagonal circles g(t) = F(z + t r_z, c +- t r_c), whose coefficients
differ by a_1+ - a_1- = 2 r_c dF/dc and a_2+ - a_2- = 2 r_z r_c
d^2F/dz dc: 33 evaluations of F per point.  For a holomorphic g the
N-point trapezoid rule converges like (r/R)^N (R the distance to the
nearest singularity), so with r = 0.05 R the quadrature error is
negligible and the only cost is the roundoff amplification eps/r.  Both
sides come from ``phi`` at every point, exact inputs and the series
region included, so a wrong ``phi`` shows in the residual.  The ladder
and PDE checks refuse a point on a singular stratum, z = 0 included,
with the StratumError that ``phi`` raises there.

The exact suite checks ``special_values`` and ``weyl_expand`` in
integers and Fractions; each residual counts the failed comparisons.

Default tolerances on the relative residual: 1e-9 for every ladder and
PDE check on ``phi``, 1e-8 for the monodromy-term PDE and the
functional equations, 1e-10 for the dilogarithm identities and
``periodic_zeta`` against the exact q_m, and 0 (an exact zero) for the
commutator, monodromy vanishing and the exact checks.

The suites are fixed tables: each runs every one of its checks at every
point of its own table.  ``run_suite`` returns a machine-readable
SuiteReport (the CLI serialises it to JSON).
"""

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from itertools import product

from .branch_numerics import complex_gamma, dist_to_nonpos_int, exp_2pi_i
from .deformed_polylog import weyl_expand
from .errors import DomainError
from .eval_core import (c_coeff, extended_polylog, lerch_zeta, periodic_zeta,
                        phi)
from .monodromy import monodromy, monodromy_Z_conj, parse_word
from .special_values import (_one_minus_z_pow, _padd, _pderiv, _pmul,
                             _pscale, _trim, laurent_coeffs,
                             negative_polylog, q_ratio, r_poly)

_2PI_I = 2j * math.pi


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class ResidualReport(namedtuple("ResidualReport",
                                "name point left right tol")):
    """Two-sided evaluation of one identity at one point."""

    __slots__ = ()

    @property
    def signed_residual(self):
        return self.left - self.right

    @property
    def abs_residual(self):
        return abs(self.left - self.right)

    @property
    def rel_residual(self):
        scale = max(1.0, abs(self.left), abs(self.right))
        return self.abs_residual / scale

    @property
    def passed(self):
        return self.rel_residual <= self.tol

    def to_dict(self):
        return {
            "name": self.name,
            "point": [str(p) for p in self.point],
            "left": [self.left.real, self.left.imag],
            "right": [self.right.real, self.right.imag],
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "tol": self.tol,
            "passed": self.passed,
        }


class SuiteReport(namedtuple("SuiteReport", "name reports")):
    __slots__ = ()

    @property
    def passed(self):
        return all(r.passed for r in self.reports)

    def to_dict(self):
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.reports],
        }


def _exact_report(name, point, residual, tol):
    """Report of an exact check.  Its residual is an integer (a count of
    failed comparisons, so a Fraction miss cannot round to 0) or an exact
    zero of floats."""
    return ResidualReport(name, point, complex(residual), 0j, tol)


# ---------------------------------------------------------------------------
# derivative machinery
# ---------------------------------------------------------------------------

_NODES = 16


def _taylor12(g):
    """(a_1, a_2), the Taylor coefficients of t and t^2 in g(t) at t = 0,
    as trapezoid sums of (2 pi i)^{-1} oint g(t) t^{-k-1} dt on |t| = 1."""
    a1 = a2 = 0j
    for k in range(_NODES):
        rot = cmath.exp(2j * math.pi * k / _NODES)
        v = g(rot)
        a1 += v / rot
        a2 += v / (rot * rot)
    return a1 / _NODES, a2 / _NODES


def _dist_to_ray(z, x0):
    """Distance from z to the ray [x0, oo)."""
    zc = complex(z)
    if zc.real >= x0:
        return abs(zc.imag)
    return abs(zc - x0)


def _phi_value(s, z, c):
    return phi(s, z, c).value


# ---------------------------------------------------------------------------
# ladder and PDE checks
# ---------------------------------------------------------------------------

def check_ladder_down(s, z, c, tol=1e-9):
    """(z d/dz + c) Phi(s, z, c) = Phi(s-1, z, c)."""
    centre = _phi_value(s, z, c)  # phi refuses a singular stratum first
    zc, cc = complex(z), complex(c)
    r = 0.05 * _dist_to_ray(zc, 1.0)
    a1, _ = _taylor12(lambda t: _phi_value(s, zc + t * r, c))
    left = zc * a1 / r + cc * centre
    right = _phi_value(s - 1, z, c)
    return ResidualReport("ladder_down", (s, z, c), left, right, tol)


def check_ladder_up(s, z, c, tol=1e-9):
    """d/dc Phi(s, z, c) = -s Phi(s+1, z, c)."""
    right = -complex(s) * _phi_value(s + 1, z, c)  # phi refuses first
    cc = complex(c)
    r = 0.05 * dist_to_nonpos_int(cc)
    a1, _ = _taylor12(lambda t: _phi_value(s, z, cc + t * r))
    return ResidualReport("ladder_up", (s, z, c), a1 / r, right, tol)


def check_pde(s, z, c, tol=None, target="phi"):
    """(z d/dz d/dc + c d/dc) F = -s F.

    ``target="phi"`` checks the main function; ``target="monodromy"``
    applies the same operator to the one-loop branch correction
    ``monodromy_Z_conj(0, 1, s, z, c)``, -2 pi i Gamma(s)^{-1} times the
    residue t_0^{s-1} e^{-c t_0} at t_0 = Log z, whose closed form
    satisfies the same equation and is entire in c.
    """
    if target == "phi":
        name, default, ray = "pde", 1e-9, 1.0
        fun = lambda w, x: _phi_value(s, w, x)
    elif target == "monodromy":
        name, default, ray = "pde_monodromy_term", 1e-8, 0.0
        fun = lambda w, x: monodromy_Z_conj(0, 1, s, w, x)
    else:
        raise ValueError("target must be 'phi' or 'monodromy'")
    right = -complex(s) * fun(z, c)  # F refuses a singular stratum first
    zc, cc = complex(z), complex(c)
    r_z = 0.05 * _dist_to_ray(zc, ray)
    r_c = 0.05 * dist_to_nonpos_int(cc) if target == "phi" else 0.2
    # on the diagonal circles g(t) = F(z + t r_z, c +- t r_c) the t- and
    # t^2-coefficients differ by 2 r_c F_c and 2 r_z r_c F_zc
    p1, p2 = _taylor12(lambda t: fun(zc + t * r_z, cc + t * r_c))
    m1, m2 = _taylor12(lambda t: fun(zc + t * r_z, cc - t * r_c))
    dc = (p1 - m1) / (2 * r_c)
    dzdc = (p2 - m2) / (2 * r_z * r_c)
    left = zc * dzdc + cc * dc
    return ResidualReport(name, (s, z, c), left, right,
                          default if tol is None else tol)


# ---------------------------------------------------------------------------
# ladder commutator, exact on monomials
# ---------------------------------------------------------------------------

def check_commutator(max_degree=6, tol=0.0):
    """[d/dc, z d/dz + c] = id, verified exactly on monomials z^j c^k.

    On z^j p(c) both operators act on the c-polynomial p alone:
    z d/dz + c as j p + c p and d/dc as p'.
    """
    worst = 0
    for j in range(max_degree + 1):
        def down(p):
            return _padd(_pscale(p, j), _pmul([0, 1], p))
        for k in range(max_degree + 1):
            p = [0] * k + [1]
            comm = _padd(_pderiv(down(p)),
                         _pscale(_padd(down(_pderiv(p)), p), -1))
            worst = max(worst, *map(abs, comm))
    point = ("monomials z^j c^k, j,k <= %d" % max_degree,)
    return _exact_report("commutator", point, worst, tol)


# ---------------------------------------------------------------------------
# reflection identities
# ---------------------------------------------------------------------------

def _check_cylinder(s, a, c):
    for name, w in (("s", s), ("a", a), ("c", c)):
        if not 0.0 < complex(w).real < 1.0:
            raise DomainError(
                "%s = %s outside the unit polycylinder 0 < Re < 1"
                % (name, w))


def check_lerch_three_term(s, a, c, tol=1e-8):
    """zeta(1-s, a, c) against the two-term rotation of zeta(s, ., .),
    weighted by c_0(1-s) and c_1(1-s) of ``c_coeff``."""
    _check_cylinder(s, a, c)
    sc, ac, cc = complex(s), complex(a), complex(c)
    left = lerch_zeta(1 - s, a, c).value
    right = (c_coeff(0, 1 - sc) * cmath.exp(-_2PI_I * ac * cc)
             * lerch_zeta(s, 1 - c, a).value
             + c_coeff(1, 1 - sc) * cmath.exp(_2PI_I * cc * (1 - ac))
             * lerch_zeta(s, c, 1 - a).value)
    return ResidualReport("three_term", (s, a, c), left, right, tol)


def check_four_term(s, a, c, parity=1, tol=1e-8):
    """Completed two-sided functional equation, both parity sectors.

    parity +1:  pi^{-s/2} Gamma(s/2) [zeta(s,a,c) + e^{-2 pi i a}
    zeta(s,1-a,1-c)] equals e^{-2 pi i a c} times the mirrored
    combination at (1-s, 1-c, a); parity -1 uses the Gamma((s+1)/2)
    completion, the minus combination and an extra factor i on the
    right.
    """
    if parity not in (1, -1):
        raise DomainError("parity must be +1 or -1")
    _check_cylinder(s, a, c)
    sc, ac, cc = complex(s), complex(a), complex(c)
    k = 0 if parity == 1 else 1

    def lam(sig):
        return (cmath.exp(-(sig + k) / 2 * math.log(math.pi))
                * complex_gamma((sig + k) / 2))

    combo_l = (lerch_zeta(s, a, c).value
               + parity * cmath.exp(-_2PI_I * ac)
               * lerch_zeta(s, 1 - a, 1 - c).value)
    combo_r = (lerch_zeta(1 - s, 1 - c, a).value
               + parity * cmath.exp(_2PI_I * cc)
               * lerch_zeta(1 - s, c, 1 - a).value)
    twist = 1.0 if parity == 1 else 1j
    left = lam(sc) * combo_l
    right = twist * cmath.exp(-_2PI_I * ac * cc) * lam(1 - sc) * combo_r
    name = "four_term_plus" if parity == 1 else "four_term_minus"
    return ResidualReport(name, (s, a, c, parity), left, right, tol)


# ---------------------------------------------------------------------------
# dilogarithm identities on real sub-domains
# ---------------------------------------------------------------------------

def _li2(x):
    """Li_2(x) = x Phi(2, x, 1), the package's classical dilogarithm."""
    return extended_polylog(2, x, 1).value


def check_spence(x, y, tol=1e-10):
    """Five-dilog Spence identity on 0 <= x, y < 1/2."""
    for w in (x, y):
        if not 0.0 <= w < 0.5:
            raise DomainError("spence needs x, y in [0, 1/2), got %s" % w)
    u = x * y / ((1.0 - x) * (1.0 - y))
    left = _li2(u)
    right = (_li2(x / (1.0 - y)) + _li2(y / (1.0 - x)) - _li2(x) - _li2(y)
             - math.log1p(-x) * math.log1p(-y))
    return ResidualReport("spence", (x, y), left, right, tol)


def _rogers_L(x):
    """Rogers normalisation L(x) = Li_2(x) + log(x) log(1-x) / 2."""
    if x == 0.0:
        return 0j
    return _li2(x) + 0.5 * math.log(x) * math.log1p(-x)


def check_rogers(x, y, tol=1e-10):
    """Rogers five-term: L(x)+L(y)-L(xy) = L((x-xy)/(1-xy)) + L((y-xy)/(1-xy))."""
    for w in (x, y):
        if not 0.0 < w < 1.0:
            raise DomainError("rogers needs x, y in (0, 1), got %s" % w)
    xy = x * y
    left = _rogers_L(x) + _rogers_L(y) - _rogers_L(xy)
    right = _rogers_L((x - xy) / (1.0 - xy)) + _rogers_L((y - xy) / (1.0 - xy))
    return ResidualReport("rogers", (x, y), left, right, tol)


# ---------------------------------------------------------------------------
# monodromy vanishing
# ---------------------------------------------------------------------------

_VANISH_WORDS = (
    "Z1",
    "Z0 Z1 Z0^-1",
    "Z0^2 Z1^-1 Z0^-2",
    "Z1 Z0 Z1 Z0^-1 Z1^-1",
    "Y0",
    "Y-2^3 Z1^2",
    "Z0^2 Z1^-1 Z0^-1 Y-1 Z0^-1",
)

_VANISH_Y_WORDS = ("Y0", "Y-1^2", "Y-3 Y0^-1", "Y-2^3")

_VANISH_POINT = (0.5 + 0.3j, 0.62)


def check_monodromy_vanishing(s, tol=0.0):
    """All branch corrections vanish identically at integer s.

    For integer s <= 0 every word gives exactly 0; for integer s >= 1
    the Y-corrections (the loops around c = -n) give exactly 0.  The
    default tolerance 0 asserts the zeros are exact, not merely small.
    """
    if not isinstance(s, int):
        raise DomainError("monodromy vanishing is an integer-s statement")
    words = _VANISH_WORDS if s <= 0 else _VANISH_Y_WORDS
    z0, c0 = _VANISH_POINT
    worst = 0.0
    for text in words:
        total, _ = monodromy(parse_word(text), s, z0, c0)
        worst = max(worst, abs(total))
    return _exact_report("monodromy_vanishing", (s,) + words, worst, tol)


# ---------------------------------------------------------------------------
# exact special values and the operator
# ---------------------------------------------------------------------------

def check_r_reflection(m_max, tol=0.0):
    """z^{m+1} r_m(1/z) = r_m(z) for 1 <= m <= m_max."""
    misses = sum(_trim([0, *reversed(r)]) != r
                 for r in map(r_poly, range(1, m_max + 1)))
    return _exact_report("r_reflection", ("m <= %d" % m_max,), misses, tol)


def check_r_recursion(m_max, tol=0.0):
    """r_m = z sum_{j=1}^m C(m,j) r_{m-j} (1-z)^{j-1} for 1 <= m <= m_max."""
    misses = 0
    for m in range(1, m_max + 1):
        terms = [_pscale(_pmul(r_poly(m - j), _one_minus_z_pow(j - 1)),
                         math.comb(m, j)) for j in range(1, m + 1)]
        misses += _pmul([0, 1], reduce(_padd, terms)) != r_poly(m)
    return _exact_report("r_recursion", ("m <= %d" % m_max,), misses, tol)


def check_laurent(m_max, tol=0.0):
    """r_m(z) = sum_k a_{m,k} (1-z)^{m+1-k} for m <= m_max, with the
    a_{m,k} of ``laurent_coeffs``."""
    misses = sum(reduce(_padd, [_pscale(_one_minus_z_pow(m + 1 - k), a)
                                for k, a in enumerate(laurent_coeffs(m))])
                 != r_poly(m) for m in range(m_max + 1))
    return _exact_report("laurent", ("m <= %d" % m_max,), misses, tol)


def check_egf(z0, c0, order, tol=0.0):
    """z0 e^{c0 u} / (1 - z0 e^u) = sum_m Li_{-m}(z0, c0) u^m / m!: the
    exact power-series division against ``negative_polylog``, m <= order."""
    z0, c0 = Fraction(z0), Fraction(c0)
    got, misses = [], 0
    for m in range(order + 1):
        want = negative_polylog(m).eval(z0, c0) / math.factorial(m)
        # the u^m coefficient of (1 - z0 e^u) g(u) = z0 e^{c0 u}
        acc = c0 ** m / math.factorial(m) + sum(
            g / math.factorial(m - i) for i, g in enumerate(got))
        got.append(z0 * acc / (1 - z0))
        misses += got[m] != want
    return _exact_report("egf", (z0, c0, order), misses, tol)


def check_periodic_zeta(a, m, tol=1e-10):
    """``periodic_zeta``'s F(a, -m) against the exact rational
    q_m(e^{2 pi i a}) of ``q_ratio``, less its n = 0 term 1 at m = 0."""
    right = q_ratio(m, exp_2pi_i(a)) - (m == 0)
    return ResidualReport("periodic_zeta", (a, m),
                          periodic_zeta(a, -m).value, right, tol)


def _theta_form(op, c):
    """(A, B), ascending in theta, with op = z A(theta) + B(theta) at c for
    a ``weyl_expand`` operator, by z^k d^k = theta (theta-1)...(theta-k+1)."""
    A, B, falling = [0], [0], [1]
    for k, (alpha, beta) in enumerate(op.entries):
        A = _padd(A, _pscale(falling, alpha.eval(c)))
        B = _padd(B, _pscale(falling, beta.eval(c)))
        falling = _pmul(falling, [-k, 1])
    return A, B


def check_theta_form(m, tol=0.0):
    """``weyl_expand(m)`` = z A(theta) + B(theta), A = -theta (theta+c-1)^m,
    B = (theta-1)(theta+c-1)^m: A and B have c-degree <= m + 1, so
    agreement at the 2m + 5 integers of [-m-2, m+2] proves it in Z[c]."""
    op, misses = weyl_expand(m), 0
    for c in range(-m - 2, m + 3):
        power = [math.comb(m, i) * (c - 1) ** (m - i) for i in range(m + 1)]
        want = _pmul([0, -1], power), _pmul([-1, 1], power)
        misses += _theta_form(op, c) != want
    return _exact_report("theta_form", (m,), misses, tol)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

_LADDER_GRID = (
    (2, 0.5, 0.5),
    (1.5, 0.3 + 0.2j, 0.7),
    (0.5 + 0.5j, -0.4, 1.2),
    (2.5, 0.6j, 0.8 - 0.1j),
    (3, -0.7, 2.0),
    (0, 0.5, 0.75),
    (-1.5, 0.55, 0.9),
    (2, 0.85, 0.6),
    (1.2, -1.3, 0.8),
    (0.8, 1.5j, 1.1),
)

_THREE_TERM_GRID = (
    (0.3, 0.4, 0.6),
    (0.5, 0.5, 0.5),
    (0.3 + 0.2j, 0.4, 0.6),
    (0.6, 0.7, 0.3),
    (0.45, 0.25, 0.85),
)

_FOUR_TERM_GRID = (
    (0.5, 0.5, 0.5),
    (0.4, 0.3, 0.7),
    (0.25, 0.6, 0.45),
    (0.35, 0.55, 0.8),
    (0.65, 0.15, 0.3),
)

_DILOG_GRID = tuple(product((0.05, 0.16, 0.27, 0.38, 0.49), repeat=2))


def _every(checks, points, extra=()):
    """Suite runner (tol): every check at every argument tuple in
    ``points``, then the ``(check, point)`` pairs in ``extra``;
    ``tol=None`` keeps each check's own default tolerance."""
    def run(tol):
        pairs = [(check, point) for point in points for check in checks]
        kw = {} if tol is None else {"tol": tol}
        return [check(*point, **kw) for check, point in pairs + [*extra]]
    return run


_pde_monodromy = partial(check_pde, target="monodromy")

_SUITES = {
    "ladders": _every((check_ladder_down, check_ladder_up), _LADDER_GRID),
    "pde": _every((check_pde,), _LADDER_GRID, extra=(
        (_pde_monodromy, (0.5, -0.5, 0.5)),
        (_pde_monodromy, (0.3 + 0.2j, -1.1 + 0.4j, 0.8)))),
    "commutator": _every((check_commutator,), ((6,),)),
    "three_term": _every((check_lerch_three_term,), _THREE_TERM_GRID),
    "four_term": _every((partial(check_four_term, parity=1),
                         partial(check_four_term, parity=-1)),
                        _FOUR_TERM_GRID),
    "spence": _every((check_spence,), _DILOG_GRID),
    "rogers": _every((check_rogers,), _DILOG_GRID),
    "exact": _every((check_r_reflection, check_r_recursion, check_laurent),
                    ((20,),), extra=(
        (check_egf, (Fraction(1, 3), Fraction(2, 5), 12)),
        *((check_periodic_zeta, p) for p in product(
            (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)), range(5))),
        *((check_theta_form, (m,)) for m in range(8)))),
    "monodromy_vanishing": _every((check_monodromy_vanishing,),
                                  ((0,), (-1,), (-2,), (-3,), (2,))),
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(name, tol=None):
    """Run one named suite, or every suite in order for "all", over its
    fixed table of points; ``tol`` replaces each check's default."""
    if name == "all":
        return SuiteReport("all", tuple(r for suite in _SUITES.values()
                                        for r in suite(tol)))
    if name not in _SUITES:
        raise ValueError("unknown suite %r; choose from %s"
                         % (name, ", ".join(SUITE_NAMES)))
    return SuiteReport(name, tuple(_SUITES[name](tol)))
