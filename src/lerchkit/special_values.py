"""Exact integer/rational arithmetic for negative-order special values.

Conventions
-----------
q_m(z) = sum_{n>=0} n^m z^n with 0^0 = 1, so q_0 = 1/(1-z) and, for
m >= 1, q_m = sum_{n>=1} n^m z^n.  Each q_m is the rational function
r_m(z)/(1-z)^{m+1} where r_m is a monic degree-m integer polynomial
with r_m(0) = 0 for m >= 1 and r_m(1) = m!.  (The r_m coincide with the
classical Eulerian polynomials times z; the code relies only on the
recurrence, and ``verify``'s exact suite checks the identities.)

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

from .errors import PoleError

__all__ = [
    "r_poly",
    "q_ratio",
    "laurent_coeffs",
    "negative_polylog",
    "BivariateRational",
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
    # (1-z)^j as an integer polynomial, by the binomial theorem
    return [(-1) ** i * math.comb(j, i) for i in range(j + 1)]


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
    return poly_eval(r_poly(m), w) / (1 - w) ** (m + 1)


def laurent_coeffs(m):
    """Coefficients (a_{m,0}, ..., a_{m,m+1}) of the expansion of q_m in
    powers of (1-z): q_m = sum_k a_{m,k} (1-z)^{k-m-1}, equivalently
    r_m(z) = sum_k a_{m,k} (1-z)^{m+1-k}.

    a_{m,k} = (-1)^m sum_{l<k} (-1)^l C(k-1,l) (l+1)^m, and a_{m,0} = 0.
    """
    return [0] + [(-1) ** m * sum((-1) ** l * math.comb(k - 1, l)
                                  * (l + 1) ** m for l in range(k))
                  for k in range(1, m + 2)]


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
        polys = tuple(tuple(_pscale(list(p), j))
                      for j, p in enumerate(self.c_polys) if j >= 1)
        return BivariateRational(self.m, polys or ((0,),), self.pole_order)


@lru_cache(maxsize=64)
def negative_polylog(m):
    """The exact rational continuation of sum_{n>=0} (n+c)^m z^{n+1}.

    Cached per m (the object is frozen, so callers share it)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    polys = tuple(tuple(_pscale(_pmul((0, *_r_cached(m - j)),
                                      _one_minus_z_pow(j)), math.comb(m, j)))
                  for j in range(m + 1))
    return BivariateRational(m, polys, m + 1)
