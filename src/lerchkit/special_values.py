"""Exact integer/rational arithmetic for negative-order special values.

Conventions
-----------
q_m(z) = sum_{n>=0} n^m z^n with 0^0 = 1, so q_0 = 1/(1-z) and, for
m >= 1, q_m = sum_{n>=1} n^m z^n.  Each q_m is the rational function
r_m(z)/(1-z)^{m+1} where r_m is a monic degree-m integer polynomial
with r_m(0) = 0 for m >= 1 and r_m(1) = m!.  (The r_m coincide with the
classical Eulerian polynomials times z; the code relies only on the
recurrence and the identities checked below.)

The two-variable special value is the bivariate rational

    Li_{-m}(z, c) = z * sum_{k=0}^m C(m,k) c^k q_{m-k}(z),

a polynomial of degree m in c over the denominator (1-z)^{m+1}.  All
arithmetic in this module is exact (int / fractions.Fraction); floats
never enter unless the caller evaluates at a complex point.  The tables
of ``negative_polylog(m)`` are built once per m and cached, and an
exact evaluation runs in integers on the homogenised numerator
(``poly_eval_homogeneous``), forming one Fraction at the end.

Polynomials are plain lists of ints, ascending degree.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .branch_numerics import exp_2pi_i
from .errors import IdentityViolation, PoleError

__all__ = [
    "r_poly",
    "q_ratio",
    "laurent_coeffs",
    "negative_polylog",
    "BivariateRational",
    "egf_check",
    "identity_suite",
    "periodic_zeta_special",
    "poly_eval",
    "poly_eval_homogeneous",
]


# --- the package's integer-polynomial kernel (ascending coefficient lists;
# deformed_polylog builds its Z[c] coefficients with it too) ---------------

def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _padd(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                  for i in range(n)])


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _pscale(p, k):
    return _trim([k * a for a in p])


def _pderiv(p):
    return _trim([i * a for i, a in enumerate(p)][1:]) or [0]


def poly_eval(p, x):
    """Horner evaluation; exact for int/Fraction x, numeric otherwise."""
    acc = 0 * x if not isinstance(x, complex) else 0j
    for a in reversed(p):
        acc = acc * x + a
    return acc


def poly_eval_homogeneous(p, num, den, deg):
    """den^deg p(num/den) = sum_i p[i] num^i den^(deg-i) for len(p) <= deg + 1,
    by Horner on the homogenised form: exact and Fraction-free for ints."""
    acc, dpow = 0, den ** (deg + 1 - len(p))
    for a in reversed(p):
        acc = acc * num + a * dpow
        dpow *= den
    return acc


def _one_minus_z_pow(j):
    # (1-z)^j as an integer polynomial
    out = [1]
    for _ in range(j):
        out = _pmul(out, [1, -1])
    return out


# --- r_m, q_m, Laurent coefficients ----------------------------------------

_R_CACHE = {0: (1,)}


def _r_cached(m):
    """r_m as a tuple, from a table built bottom-up and kept for good (no
    recursion, so any m >= 0 works).  Two threads that extend the table
    at once write equal entries."""
    for k in range(len(_R_CACHE), m + 1):
        prev = list(_R_CACHE[k - 1])
        # r_k = z [ (1-z) r_{k-1}' + k r_{k-1} ]
        inner = _padd(_pmul([1, -1], _pderiv(prev)), _pscale(prev, k))
        _R_CACHE[k] = tuple([0] + inner)
    return _R_CACHE[m]


def r_poly(m):
    """Numerator polynomial r_m of q_m, as an ascending coefficient list.

    Monic of degree m, r_m(0) = 0 for m >= 1, r_m(1) = m!.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return list(_r_cached(m))


def q_ratio(m, w):
    """q_m(w) = r_m(w)/(1-w)^{m+1}; exact for Fraction w, numeric for complex.

    This *is* the analytic continuation of sum n^m w^n to everything
    except the pole at w = 1.
    """
    if w == 1:
        raise PoleError("q_%d has a pole of order %d at z = 1" % (m, m + 1),
                        location=1)
    num = poly_eval(r_poly(m), w)
    return num / (1 - w) ** (m + 1)


def laurent_coeffs(m):
    """Coefficients (a_{m,0}, ..., a_{m,m+1}) of the expansion of q_m in
    powers of (1-z): q_m = sum_k a_{m,k} (1-z)^{k-m-1}, equivalently
    r_m(z) = sum_k a_{m,k} (1-z)^{m+1-k}.

    a_{m,k} = (-1)^m sum_{l<k} (-1)^l C(k-1,l) (l+1)^m, and a_{m,0} = 0.
    """
    sign = (-1) ** m
    out = [0]
    for k in range(1, m + 2):
        s = sum((-1) ** l * math.comb(k - 1, l) * (l + 1) ** m
                for l in range(k))
        out.append(sign * s)
    return out


# --- the bivariate rational Li_{-m}(z, c) ----------------------------------

class BivariateRational(namedtuple("BivariateRational",
                                    "m c_polys pole_order")):
    """Li_{-m}(z,c) = numerator(z,c) / (1-z)^{pole_order}.

    ``c_polys[j]`` is the integer polynomial in z multiplying c^j, namely
    C(m,j) * z * r_{m-j}(z) * (1-z)^j.  The (1-z)-power denominator is
    kept implicit so evaluation close to z = 1 stays exact and the pole
    order is reportable.
    """

    __slots__ = ()

    @property
    def degree_c(self):
        return len(self.c_polys) - 1

    def numerator(self, z, c):
        acc = 0
        cp = 1
        for p in self.c_polys:
            acc = acc + cp * poly_eval(list(p), z)
            cp = cp * c
        return acc

    def eval(self, z, c):
        """Exact for Fraction/int inputs, numeric for float/complex.

        The exact branch stays in integers: with z = p/q, c = a/b, d the
        top z-degree and k = degree_c, the numerator times b^k q^d is
        sum_j a^j b^(k-j) sum_i P_{j,i} p^i q^(d-i), and (1-z)^e is
        (q-p)^e / q^e; one Fraction is formed from the two integers.
        """
        if z == 1:
            raise PoleError(
                "Li_{-%d}(z,c) has a pole of order %d at z = 1"
                % (self.m, self.pole_order),
                location=1,
            )
        if isinstance(z, (int, Fraction)) and isinstance(c, (int, Fraction)):
            p, q = z.numerator, z.denominator
            a, b = c.numerator, c.denominator
            d = max(len(poly) for poly in self.c_polys) - 1
            k, e = self.degree_c, self.pole_order
            num = poly_eval_homogeneous(
                [poly_eval_homogeneous(poly, p, q, d) for poly in self.c_polys],
                a, b, k)
            return Fraction(num * q ** max(e - d, 0),
                            b ** k * q ** max(d - e, 0) * (q - p) ** e)
        return self.numerator(z, c) / (1 - z) ** self.pole_order

    def c_derivative(self):
        """d/dc as another exact object (degree in c drops by one)."""
        if self.m == 0:
            return BivariateRational(0, (tuple([0]),), self.pole_order)
        polys = tuple(tuple(_pscale(list(p), j))
                      for j, p in enumerate(self.c_polys) if j >= 1)
        return BivariateRational(self.m, polys, self.pole_order)


@lru_cache(maxsize=64)
def negative_polylog(m):
    """The exact rational continuation of sum_{n>=0} (n+c)^m z^{n+1}.

    Cached per m (the object is frozen, so callers share it)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    polys = []
    for j in range(m + 1):
        p = _pscale(_pmul([0, 1], _pmul(list(_r_cached(m - j)),
                                        _one_minus_z_pow(j))),
                    math.comb(m, j))
        polys.append(tuple(p))
    return BivariateRational(m, tuple(polys), m + 1)


# --- exponential generating function check ---------------------------------

def egf_check(z0, c0, order):
    """Divide z0*exp(c0*u) by (1 - z0*exp(u)) as exact power series in u
    and compare coefficient of u^m with Li_{-m}(z0, c0)/m! for m <= order.

    Returns (ok, report) where report lists (m, coefficient, expected).
    """
    z0 = Fraction(z0)
    c0 = Fraction(c0)
    if z0 == 1:
        raise PoleError("generating function undefined at z = 1", location=1)
    # numerator and denominator Taylor coefficients
    num = [z0 * c0 ** m / math.factorial(m) for m in range(order + 1)]
    den = [-z0 / math.factorial(m) for m in range(order + 1)]
    den[0] += 1
    g = []
    for m in range(order + 1):
        acc = num[m]
        for j in range(1, m + 1):
            acc -= den[j] * g[m - j]
        g.append(acc / den[0])
    ok = True
    report = []
    for m in range(order + 1):
        expected = (negative_polylog(m).eval(z0, c0) / math.factorial(m)
                    if z0 != 0 else Fraction(0))
        report.append((m, g[m], expected))
        ok = ok and g[m] == expected
    return ok, report


# --- identity suite --------------------------------------------------------

def identity_suite(m_max):
    """Exact verification, for 1 <= m <= m_max, of

    * reflection:  z^{m+1} r_m(1/z) = r_m(z)  (coefficient palindrome
      around the z^1..z^m window), and
    * recursion:   r_m = z * sum_{j=1}^m C(m,j) r_{m-j} (1-z)^{j-1}.

    Raises IdentityViolation naming m and the identity on any failure;
    returns a summary dict otherwise.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    for m in range(1, m_max + 1):
        r = r_poly(m)
        # z^{m+1} r_m(1/z): coefficient of z^k is the old coefficient of
        # z^{m+1-k}, i.e. shift-then-reverse
        reflected = [0] + list(reversed(r))
        if _trim(reflected) != r:
            raise IdentityViolation("reflection identity fails at m = %d" % m)
        acc = [0]
        for j in range(1, m + 1):
            term = _pscale(_pmul(list(_r_cached(m - j)),
                                 _one_minus_z_pow(j - 1)),
                           math.comb(m, j))
            acc = _padd(acc, term)
        if _pmul([0, 1], acc) != r:
            raise IdentityViolation("binomial recursion fails at m = %d" % m)
    return {"m_max": m_max, "reflection": "ok", "recursion": "ok"}


# --- periodic zeta at non-positive integers --------------------------------

def periodic_zeta_special(a, m):
    """q_m(e^{2 pi i a}) for rational a in (0,1): equals F(a, -m) for
    m >= 1.  (At m = 0 the q-sum starts at n = 0 while F starts at
    n = 1, so F(a, 0) = q_0(e^{2 pi i a}) - 1.)

    The unit-circle point e^{2 pi i a} is never 1, so the rational
    expression is regular; the value is exact in the field Q(e^{2 pi i a})
    but returned as a complex double.
    """
    a = Fraction(a)
    if not 0 < a < 1:
        raise PoleError("periodic zeta special value needs 0 < a < 1 "
                        "(a = 0, 1 hits the pole of q_m)", location=a)
    return q_ratio(m, exp_2pi_i(a))
