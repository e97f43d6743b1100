"""The order-(m+1) Fuchsian operator behind the deformed polylogarithm,
its exact Weyl-algebra expansion over Z[c], solution bases on the regular
and singular strata, closed-form monodromy matrices, and a Taylor-method
transport oracle that continues the full solution frame along paths.

The operator in theta = z d/dz form is

    D_{m+1}^c = ((1-z) theta - 1) (theta + c - 1)^m,

expanded exactly as sum_k (alpha_k(c) z + beta_k(c)) z^k d^k/dz^k with
alpha, beta in Z[c] and top coefficient (1-z) z^{m+1}.  As
z^k d^k/dz^k = theta (theta - 1) ... (theta - k + 1), the expansion reads
z A(theta) + B(theta) with, exactly,

    A = sum_k alpha_k theta (theta - 1) ... (theta - k + 1)
      = -theta (theta + c - 1)^m,
    B = sum_k beta_k theta (theta - 1) ... (theta - k + 1)
      = (theta - 1) (theta + c - 1)^m.

On y = sum a_n z^{n+1} this makes the coefficient of z^{n+1} in D y
equal to B(n+1) a_n + A(n) a_{n-1}.  Solutions: the
deformed polylog Li_{m,c}(z) = sum_{n>=0} z^{n+1}/(n+c)^m together with
z^{1-c} (log z)^j / j! for j = m-1..0; on the singular stratum
c = -k in Z_{<=0} the first entry is replaced by the regularized

    Li*_m(z,-k) = sum_{n != k} z^{n+1}/(n-k)^m + z^{k+1} (log z)^m / m!.

Basis entries carry the 1/j! normalization so the monodromy matrices
take the Pascal band form with entries (2 pi i)^d / d!.  All logs are
principal; the base point z = -1 sits on the cut and takes its
upper-edge values (log(-1) = +i pi), matching the branch conventions
used everywhere else in this package.

The transport oracle follows the factorization: it carries each frame
column as its chain v_k = (theta + c - 1)^{m-k} y, k = 0..m, which solves
the first-order system (1-z) z v_0' = v_0, z v_k' = v_{k-1} - (c-1) v_k.
The lead column's chain is (Li_{0,c}, ..., Li_{m,c}), and the chain of
b_n = z^{1-c} (log z)^n / n! is (0, ..., 0, b_0, ..., b_n), so two
chains carry the whole frame.  The start values
Li_{j,c}(-1) = -Phi(j, -1, c) come from one accelerated alternating sum,
with no quadrature.  The matrix M = S^-1 F of the start frame S and the
continued frame F is the same in chain and jet coordinates, as both are
taken at z = -1.  S is lower triangular, with first row (v_0, 0, ..., 0)
over the Toeplitz matrix T of b_n(-1) = b_0 (i pi)^n / n!, so T^-1 is that
of (-i pi)^n / (n! b_0), and S^-1 and kappa_1(S) need no solve.

The transport step.  A step h from z0 is at most 0.4 times the distance
to {0, 1}.  Once v_0 is fixed the system is unipotent in log z: in
t = log z it reads dv_k/dt = v_{k-1} - (c-1) v_k, so e^{(c-1) t} v_k is a
polynomial in t, and with L = Log(1 + h/z0) and E = e^{(1-c) L},

    v_k(z0 + h) = E sum_{j=1..k} v_j(z0) L^{k-j} / (k-j)! + F_k,

where F_k is zero at z0 and driven by v_0 = K z/(1-z).  The chains of
the b_n have v_0 = 0, so F_k = 0: a step moves them by the Toeplitz
matrix of flow(L) = [E L^d / d!] alone, and the path by that of
flow(lam), lam = the sum of the steps' L = the continued Log z - i pi.
So only the lead chain is stepped.  At the end T^-1 b(end) = flow(lam),
as Toeplitz matrices commute: the log rows are that closed form, with no
truncation, and |z^{1-c}| / |b_0(-1)| = e^{Re((1-c) lam)} along the
path.  On the lead chain v_0 = (theta + c - 1)^m Li_{m,c} =
sum_n z^{n+1} = z/(1-z) for every c and m (also for Li*, whose log term
maps to z^{k+1}), so v_0 is not stepped and K = 1.  Its m forced parts
F_k are summed from their scaled Taylor coefficients W_{k,q} = A_q h^q,
q = 0..30, driven by those of v_0 at z0, W_{0,0} = z0 / (1 - z0) and
W_{0,q} = (h / (1 - z0))^q / (1 - z0): as z F_k' = F_{k-1} - (c-1) F_k
with F_k(z0) = 0, W_{k,0} = 0 and

    W_{k,q+1} = (W_{k-1,q} - (q + c - 1) W_{k,q}) h / (z0 (q + 1)).

A step is accepted when the last two terms of each of these m series
stay below 1e-10 * max(1, |v_k(z0 + h)|), and halved otherwise; the F_k
are formed and tested one at a time, so the first to fail ends the
attempt.  Along a path the steps are the same for every c and m, so the
c-independent half of a step (the rates h / (z0 (q + 1)), v_0's
coefficients and L) is a step record keyed on z0 and h, shared by every
transport that takes the step from a cache of 256 records.

Matrices are tuples of rows of Python complex numbers.  Every matrix of
the monodromy representation is upper triangular in this basis (the lead
entry gains multiples of the log entries, each log entry only lower
ones), so ``MonodromyMatrix.det`` is the product of the diagonal.  Only
``MonodromyMatrix.entries`` builds an array, on each read, and it is the
one place this package imports numpy.
"""

import cmath
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .branch_numerics import (INT_TOL, _order, as_int, branched_power,
                              finite_entry, finite_exit, principal_log,
                              refuse_past_budget)
from .errors import DomainError, TransportError
from .eval_core import _guard_cut, _refuse_singular
from .eval_core import phi as _phi
from .monodromy import _reduced
from .special_values import _padd, _pmul, _pscale, poly_eval

__all__ = [
    "CPolynomial",
    "WeylOperator",
    "FuchsianBasis",
    "MonodromyMatrix",
    "weyl_expand",
    "li_star",
    "basis",
    "rho",
    "rho_word",
    "numeric_transport",
    "z0_loop",
    "z1_loop",
    "unipotency_class",
]

_2PI_I = 2j * math.pi


# ---------------------------------------------------------------------------
# exact integer polynomials in c
# ---------------------------------------------------------------------------

class CPolynomial(namedtuple("CPolynomial", "coeffs", defaults=((0,),))):
    """Polynomial in c with integer coefficients, ascending order."""

    __slots__ = ()

    def eval(self, c):
        return poly_eval(self.coeffs, c)


def _stirling_rows(m_top):
    """Rows f^{(j)} of (theta + c - 1)^j = sum_k f^{(j)}_k z^k d^k,
    via f^{(j+1)}_k = f^{(j)}_{k-1} + (k + c - 1) f^{(j)}_k."""
    rows = [[[1]]]  # f^{(0)} = [1]
    for j in range(m_top):
        prev = rows[-1]
        nxt = []
        for k in range(len(prev) + 1):
            term = prev[k - 1] if k >= 1 else [0]
            if k < len(prev):
                term = _padd(term, _pmul(prev[k], [k - 1, 1]))
            nxt.append(term)
        rows.append(nxt)
    return rows


# entries: ((alpha_k, beta_k) CPolynomial pairs, k = 0..order)
WeylOperator = namedtuple("WeylOperator", "order entries")


def weyl_expand(m):
    """Exact z^k d^k expansion of D_{m+1}^c = ((1-z)theta - 1)(theta+c-1)^m.

    With f^{(j)}_k the coefficients of (theta + c - 1)^j the entries are
    alpha_k = (c-1) f^{(m)}_k - f^{(m+1)}_k and
    beta_k = f^{(m+1)}_k - c f^{(m)}_k, so the top coefficient is
    (1 - z) z^{m+1} exactly.  With z^k d^k = theta (theta-1) ... (theta-k+1)
    the expansion is z A(theta) + B(theta), and ``verify`` checks, in
    Z[c, theta], that A = -theta (theta+c-1)^m and
    B = (theta-1)(theta+c-1)^m.
    """
    m = _order(m, 0, "operator order needs m >= 0")
    rows = _stirling_rows(m + 1)
    fm, fm1 = rows[m], rows[m + 1]
    entries = []
    for k in range(m + 2):
        a = fm[k] if k < len(fm) else [0]
        b = fm1[k] if k < len(fm1) else [0]
        alpha = _padd(_pmul(a, [-1, 1]), _pscale(b, -1))  # (c-1) f_m - f_{m+1}
        beta = _padd(b, _pscale(_pmul(a, [0, 1]), -1))    # f_{m+1} - c f_m
        entries.append((CPolynomial(tuple(alpha)), CPolynomial(tuple(beta))))
    return WeylOperator(m + 1, tuple(entries))


# ---------------------------------------------------------------------------
# the regularized singular-stratum solution
# ---------------------------------------------------------------------------

def li_star(m, k, z, tol=1e-12):
    """Li*_m(z,-k) by the closed form

        z^{k+1} [ Li_m(z) + (log z)^m / m! ]
        + (-1)^m sum_{j<k} z^{j+1} / (k-j)^m,
    AccuracyError past k > MAX_TERMS tail terms, StratumError within
    NEAR (1e-8) of z = 1 (singular_z1), BranchError within NEAR of (1, inf),
    the upper-edge value on (-inf, 0) (log z = log|z| + i pi), 0 at z = 0.
    """
    zc = finite_entry("z", (z,), tol)[0]
    m = _order(m, 0, "Li* wants m >= 0, k >= 0")
    k = _order(k, 0, "Li* wants m >= 0, k >= 0", "k")
    if zc == 0:
        return 0j  # every term carries z^{>=1}, and z (log z)^m -> 0
    _refuse_singular(zc, None)
    _guard_cut(zc)

    def route():
        if m == 0:
            return zc / (1.0 - zc)
        return _li_star_from(m, k, zc, zc * _phi(m, zc, 1, tol=tol).value)
    return finite_exit("li_star", (m, k, z), route)


def _li_star_from(m, k, z, li_m):
    """li_star's closed form at m >= 1, given li_m = Li_m(z)."""
    refuse_past_budget("li_star tail", k)
    lg = principal_log(z)
    head = z ** (k + 1) * (li_m + lg ** m / math.factorial(m))
    tail = sum(z ** (j + 1) / (k - j) ** m for j in range(k))
    return head + (-1) ** m * tail


# ---------------------------------------------------------------------------
# solution bases
# ---------------------------------------------------------------------------

def _singular_c(c):
    """(c is in Z_{<=0}, that integer) under the package integer test,
    for a c that passes ``finite_entry``, as in phi."""
    finite_entry("c", (c,))
    is_int, n = as_int(c)
    return is_int and n <= 0, n


def _basis_kind(c):
    return "singular" if _singular_c(c)[0] else "regular"


# kind "regular" | "singular"; entries: human-readable descriptors,
# leading entry first
FuchsianBasis = namedtuple("FuchsianBasis", "m c kind entries")


def basis(m, c):
    """Fuchsian basis, lead entry first: "singular" (lead Li*_m(z, n))
    where ``as_int`` takes c for an n in Z<=0, else "regular", also for
    INT_TOL < dist(c, Z<=0) < NEAR, where ``numeric_transport`` refuses."""
    m = _order(m, 1, "basis wants m >= 1")
    singular, ci = _singular_c(c)
    logs = tuple("z^{1-c} (log z)^%d / %d!" % (j, j) if j > 1
                 else ("z^{1-c} log z" if j == 1 else "z^{1-c}")
                 for j in range(m - 1, -1, -1))
    if singular:
        lead = "Li*_%d(z, %d)" % (m, ci)
        return FuchsianBasis(m, c, "singular", (lead,) + logs)
    lead = "Li_{%d,c}(z)" % m
    return FuchsianBasis(m, c, "regular", (lead,) + logs)


# ---------------------------------------------------------------------------
# small complex matrices: tuples of rows
# ---------------------------------------------------------------------------

def _matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                 for row in a)


# ---------------------------------------------------------------------------
# closed-form monodromy matrices
# ---------------------------------------------------------------------------

class MonodromyMatrix(namedtuple("MonodromyMatrix", "rows generator kind")):
    """rows: m+1 tuples of m+1 Python complex numbers; generator: "Z0",
    "Z1", word text, or "transport"; kind: basis kind the matrix acts on."""

    __slots__ = ()

    @property
    def m(self):
        return len(self.rows) - 1

    @property
    def entries(self):
        """`rows` as a read-only (m+1) x (m+1) complex ndarray, built on
        each read; the only numpy import in the package."""
        import numpy as np
        arr = np.array(self.rows, dtype=complex)
        arr.flags.writeable = False
        return arr

    def det(self):
        """The product of the diagonal; DomainError naming the first entry
        below the diagonal that is not zero, as rows from outside the
        package may hold one."""
        rows = self.rows
        for i, row in enumerate(rows):
            for j in range(i):
                if row[j] != 0:
                    raise DomainError("det wants an upper-triangular matrix, "
                                      "got rows[%d][%d] = %r" % (i, j, row[j]))
        return complex(math.prod(row[i] for i, row in enumerate(rows)))


def _pascal_band(n, w):
    """Rows of the upper-triangular band with w^d/d! on the d-th
    superdiagonal."""
    band = [w ** d / math.factorial(d) for d in range(n)]
    return [[band[j - i] if j >= i else 0j for j in range(n)]
            for i in range(n)]


def rho(generator, m, c, inverse=False):
    """Closed-form monodromy matrix on the basis of D_{m+1}^c.

    Row i holds the coordinates of the continued basis entry i.  For Z0
    on the regular stratum the lead entry is single valued (first row
    (1,0,...,0)) and the log block is the e^{-2 pi i c}-scaled Pascal
    band of 2 pi i; on the singular stratum the band runs through the
    first row as well.  Z1 is I - 2 pi i E_{12} on both strata.
    """
    m = _order(m, 1, "rho wants m >= 1")
    n = m + 1
    w = -_2PI_I if inverse else _2PI_I
    kind = _basis_kind(c)

    def route():
        if generator == "Z1":
            rows = [[complex(i == j) for j in range(n)] for i in range(n)]
            rows[0][1] = -w
        elif generator != "Z0":
            raise DomainError("generator must be Z0 or Z1")
        elif kind == "singular":
            rows = _pascal_band(n, w)
        else:
            phase = _unit_phase(c, inverse)
            rows = [[1.0 + 0j] + [0j] * m]
            rows += [[0j] + [phase * v for v in r] for r in _pascal_band(m, w)]
        return tuple(map(tuple, rows))
    return MonodromyMatrix(finite_exit("rho", (generator, m, c), route),
                           generator + ("^-1" if inverse else ""), kind)


def _unit_phase(c, inverse):
    """e^{-2 pi i c} (conjugate for the inverse loop), snapped to the
    exact fourth root of unity when rational c makes it one."""
    sign = 1 if inverse else -1
    if isinstance(c, (int, Fraction)):
        r = (sign * Fraction(c)) % 1
        quarter = {Fraction(0): 1.0 + 0j, Fraction(1, 4): 1j,
                   Fraction(1, 2): -1.0 + 0j, Fraction(3, 4): -1j}
        if r in quarter:
            return quarter[r]
        return cmath.exp(_2PI_I * float(r))
    return cmath.exp(sign * _2PI_I * complex(c))


def rho_word(word, m, c):
    """Ordered product of generator matrices for a word (text, letters or
    a ``HomotopyWord``, reduced first as ``monodromy`` reads it: Y letters
    must cancel); paths read left to right and the matrices multiply in
    the same order (validated against numeric transport of concatenated
    loops)."""
    word = _reduced(word)
    if word.y_exponents:
        raise DomainError("rho_word handles Z-letters only")
    m = _order(m, 1, "rho wants m >= 1")  # the only guard for an empty word
    n = m + 1
    mat = tuple(tuple(complex(i == j) for j in range(n)) for i in range(n))
    for letter in word.z_part:
        g = rho(letter.kind, m, c, inverse=(letter.exp == -1))
        mat = _matmul(mat, g.rows)
    text = str(word)
    # complex products pass double range as oo or NaN, never by raising
    return MonodromyMatrix(finite_exit("rho_word", (text, m, c), lambda: mat),
                           text, _basis_kind(c))


def unipotency_class(m, c, irrational=False):
    """Classify rho(Z0) from its spectrum {1, e^{-2 pi i c}}: unipotent
    for integer c, quasi-unipotent for rational c, otherwise inside a
    Borel subgroup without being quasi-unipotent.  Pass irrational=True
    for exact irrationals handed over as floats."""
    _order(m, 1, "rho wants m >= 1")
    _singular_c(c)  # refuses a non-finite c
    if irrational:
        return "borel"
    if as_int(c)[0]:
        return "unipotent"
    if isinstance(c, complex) and abs(c.imag) > INT_TOL:
        return "borel"
    # floats are exact rationals by representation
    return "quasi-unipotent"


# ---------------------------------------------------------------------------
# numeric transport oracle
# ---------------------------------------------------------------------------

_BASE = -1.0 + 0.0j
_N_ARC = 16        # polyline vertices on each loop's circle
_Z1_HEIGHT = 0.65  # radius of the Z1 circle and height of its corridor
_N_TAYLOR = 30     # degree of every chain series at a transport step
_STEP_TOL = 1e-10  # bound on a step's dropped terms, relative to max(1, |v|)
_MAX_COND = 1e12   # largest kappa_1 of an accepted start frame
# Largest max/min of |z^{1-c}| on an accepted path.  A rounding error
# (2^-53 relative) in the lead chain where |z^{1-c}| is least is a multiple
# of z^{1-c}, unseen by the step test; it grows by up to that ratio before
# M's lead row reads it, and beyond _STEP_TOL * 2^53 outgrows _STEP_TOL.
_MAX_SWING = _STEP_TOL * 2.0 ** 53
_LOG_SWING = math.log(_MAX_SWING)


def z0_loop():
    """Polyline from -1 once counterclockwise around 0 (radius 1/2),
    winding number 0 about 1."""
    pts = [_BASE, -0.5 + 0.0j]
    for i in range(1, _N_ARC + 1):
        pts.append(cmath.rect(0.5, math.pi + 2.0 * math.pi * i / _N_ARC))
    pts += [_BASE]
    return pts


def z1_loop():
    """Polyline from -1 once counterclockwise around 1 (radius 0.65), via
    a corridor at Im z = 0.65; winding number 0 about 0.  The ccw
    orientation is the one matching rho(Z1): the continued lead entry
    gains -2 pi i times the top log entry (transport-validated)."""
    pts = [_BASE, complex(-1.0, _Z1_HEIGHT), complex(1.0, _Z1_HEIGHT)]
    for i in range(1, _N_ARC + 1):
        pts.append(1.0 + cmath.rect(
            _Z1_HEIGHT, math.pi / 2.0 + 2.0 * math.pi * i / _N_ARC))
    pts += [complex(-1.0, _Z1_HEIGHT), _BASE]
    return pts


def _seg_dist(a, b, p):
    """Distance from point p to segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(p - a)
    t = ((p - a) * ab.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def _check_path(path):
    if len(path) < 2:
        raise TransportError("path needs at least two points")
    if abs(path[0] - _BASE) > 1e-9 or abs(path[-1] - _BASE) > 1e-9:
        raise TransportError("transport paths start and end at z = -1")
    for a, b in zip(path, path[1:]):
        # [a, b] lies within |b - a| / 2 of its midpoint, so a midpoint
        # farther than that plus 0.1 from 0 and from 1 clears both
        reach = 0.5 * abs(b - a) + 0.1
        mid = 0.5 * (a + b)
        if abs(mid) > reach and abs(mid - 1.0) > reach:
            continue
        if min(_seg_dist(a, b, 0.0), _seg_dist(a, b, 1.0)) < 0.1 - INT_TOL:
            raise TransportError("path strays within 0.1 of a singular point")


_CRVZ_RATE = 3.0 + math.sqrt(8.0)


@lru_cache(maxsize=None)
def _crvz_weights(n):
    """The n weights of Cohen, Rodriguez Villegas and Zagier's Algorithm 1
    over d = (r^n + r^-n) / 2, r = 3 + sqrt 8, as ``_alternating_phi``
    takes them for an even head; an odd head negates each, exactly."""
    d = (_CRVZ_RATE ** n + _CRVZ_RATE ** -n) / 2.0
    b, e, scale = -1.0, -d, 1.0 / d
    tail = []
    for k in range(n):
        e = b - e
        tail.append(scale * e)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1))
    return tuple(tail)


def _alternating_phi(m, c):
    """[Phi(j, -1, c) = sum_k (-1)^k (k + c)^-j for j = 1..m], c off
    Z_{<=0}, with one 1/(k + c) per k for every j.  The exact shift
    Phi(j, -1, c) = sum_{k<N} (-1)^k (k + c)^-j + (-1)^N Phi(j, -1, c + N)
    takes Re c above 1/2; the tail then takes the weights of Cohen,
    Rodriguez Villegas and Zagier (Experimental Math. 9 (2000), Algorithm
    1).  Its terms (k + c)^-j = int_0^1 x^k dmu are moments of a measure of
    total variation (Re c)^-j, so n weighted terms miss it by at most
    2 (Re c)^-j / (3 + sqrt 8)^n, and n is the least that makes this 2^-53
    or less for every j <= m; the weights are built once per n.  A head
    longer than MAX_TERMS refuses."""
    n_shift = max(0, math.floor(0.5 - complex(c).real) + 1)
    refuse_past_budget("alternating-sum head", n_shift)
    shifted = complex(c + n_shift)
    re = shifted.real
    n = math.ceil(math.log(2.0 ** 54 * max(1.0 / re, re ** -m), _CRVZ_RATE))
    tail = _crvz_weights(n)
    if n_shift % 2:
        tail = map(operator.neg, tail)
    # c + k exactly (a Fraction stays one) in the head, where it can lie
    # near 0; the tail's bases lie in Re > 1/2, so c + N is rounded once
    # and each base c + N + k then rounds to within 2 ulp
    bases = itertools.chain((complex(c + k) for k in range(n_shift)),
                            (shifted + k for k in range(n)))
    sums = [0j] * m
    for base, w in zip(bases, itertools.chain(
            ((-1.0) ** k for k in range(n_shift)), tail)):
        r = 1.0 / base
        for j in range(m):
            w *= r
            sums[j] += w
    return sums


def _toeplitz_product(a, b):
    """[sum_{j<=k} a_{k-j} b_j for k < len(a)]: the lower-triangular
    Toeplitz matrix of b (or, as they commute, of a) times the vector a."""
    return [sum(map(operator.mul, a[k::-1], b)) for k in range(len(a))]


def _chain_columns(lead, logs):
    """Chain columns [lead, b_{m-1}, ..., b_0] from the lead chain
    (v_0..v_m) and the chain of b_{m-1} without its zero head (v_1..v_m).

    (theta + c - 1) b_n = b_{n-1} with b_{-1} = 0, so the chain of b_n is
    (0, ..., 0, b_0, ..., b_n): that of b_{m-1} moved up by m-1-n places.
    """
    m = len(logs)
    return [lead] + [[0j] * (m - n) + logs[:n + 1]
                     for n in range(m - 1, -1, -1)]


def _start_frame(m, c):
    """The two chains at z = -1 (see ``_chain_columns``): the lead chain
    (v_0..v_m) of Li_{m,c}, or Li* on the singular stratum, and the chain
    of b_{m-1} without its zero head, (b_0..b_{m-1}), where
    b_n = z^{1-c} (log z)^n / n! takes its upper-edge value at -1.  With
    Li_{j,c}(-1) = -Phi(j, -1, c), Li* is li_star's closed form fed
    Li_j(-1) = -Phi(j, -1, 1)."""
    singular, ci = _singular_c(c)
    lead = [_BASE / (1.0 - _BASE)]  # z/(1-z) at z = -1
    for j, p in enumerate(_alternating_phi(m, 1 if singular else c), 1):
        lead.append(_li_star_from(j, -ci, _BASE, -p) if singular else -p)
    zpow = branched_power(_BASE, 1.0 - complex(c))
    logs = [zpow * (1j * math.pi) ** n / math.factorial(n) for n in range(m)]
    return lead, logs


def _frame_cond(lead, logs, inverse):
    """kappa_1 = |S|_1 |S^-1|_1 of the start frame S whose columns are
    ``_chain_columns(lead, logs)``, given `inverse`, the first column of
    T^-1 for T the Toeplitz block of logs.  S is lower triangular:
    S = [[d, 0], [l, T]] with d = lead[0] and l = lead[1:], so
    S^-1 = [[1/d, 0], [-T^-1 l / d, T^-1]], and the widest column of S, T
    or T^-1 is its first."""
    inverse_norm = max(
        (1.0 + sum(map(abs, _toeplitz_product(lead[1:], inverse))))
        / abs(lead[0]), sum(map(abs, inverse)))
    return max(sum(map(abs, lead)), sum(map(abs, logs))) * inverse_norm


# the rates of a step record are h / z0 times these
_RECIPROCALS = tuple(1.0 / (q + 1) for q in range(_N_TAYLOR))

_StepRecord = namedtuple("_StepRecord", "rate below log")


@lru_cache(maxsize=256)
def _step_record(z0, h):
    """The c-independent half of the step from z0 to z0 + h: the rates
    h / (z0 (q + 1)), the scaled coefficients W_{0,q} of v_0 = z/(1 - z)
    (below) and L = Log(1 + h / z0) (log)."""
    hz = h / z0
    rate = tuple(map(operator.mul, itertools.repeat(hz), _RECIPROCALS))
    u = 1.0 / (1.0 - z0)
    below = list(itertools.accumulate(
        itertools.repeat(h * u, _N_TAYLOR), operator.mul, initial=u))
    below[0] = z0 * u
    return _StepRecord(rate, tuple(below), cmath.log(1.0 + hz))


def _forced_chain(below, shift, rate):
    """The scaled Taylor coefficients W_{k,q} of F_k from those of the
    level below it, shift = [q + c - 1] and a record's rates."""
    v = 0j
    return [v] + [v := (p - s * v) * r for p, s, r in zip(below, shift, rate)]


def _flow(one_c, L, n):
    """[e^{(1-c) L} L^d / d! for d < n], the flow of the log chain
    b = (b_0, ..., b_{n-1}): b at Log z + L is the lower-triangular
    Toeplitz matrix of b at Log z times it."""
    return list(itertools.accumulate(range(1, n), lambda f, d: f * L / d,
                                     initial=cmath.exp(one_c * L)))


def _lead_step(lead, record, shift, one_c):
    """The lead chain at z0 + h from the one at z0 and the step's record,
    or None at the first F_k to fail the step test: the last two terms of
    its series stay below _STEP_TOL * max(1, |v_k|) (a NaN fails it).
    new v_k = sum_{j<=k} flow[k-j] v_j + F_k, flow = ``_flow`` of L, for
    k >= 1; v_0 is z/(1 - z) and is not stepped, so lead[0] keeps its
    value at -1, where every path starts and ends."""
    rate, W, L = record
    new, flow = [lead[0]], _flow(one_c, L, len(lead) - 1)
    for k in range(1, len(lead)):
        W = _forced_chain(W, shift, rate)
        v = sum(W) + sum(map(operator.mul, lead[k:0:-1], flow))
        if not abs(W[-2]) + abs(W[-1]) <= _STEP_TOL * max(1.0, abs(v)):
            return None
        new.append(v)
    return new


def _transport_rows(m, c, path):
    """The rows of ``numeric_transport``'s matrix, for a path of finite
    complex vertices."""
    _check_path(path)
    # S and the end chains are read at -1 itself
    path = [_BASE, *path[1:-1], _BASE]
    lead, logs = _start_frame(m, c)
    # T^-1 has first column (-i pi)^n / (n! b_0), b_0 = e^{i pi (1-c)}, which
    # underflows to 0 below Im c of about -237; a NaN kappa_1 refuses too
    if logs[0] == 0 or not _frame_cond(lead, logs, inverse := [
            (-1j * math.pi) ** n / math.factorial(n) / logs[0]
            for n in range(m)]) <= _MAX_COND:
        raise TransportError("degenerate start frame")
    cc = complex(c)
    shift = [q + cc - 1.0 for q in range(_N_TAYLOR)]
    one_c = 1.0 - cc
    start = lead
    # lam: the continued Log z - i pi, the sum of the steps' L, summed
    # with Kahan's carry, as the log rows' error is |1 - c| times its own;
    # |z^{1-c}| / |b_0(-1)| is e^{Re((1-c) lam)}, whose least and greatest
    # logarithms so far are low and high
    lam, carry, low, high = 0j, 0j, 0.0, 0.0
    for a, b in zip(path, path[1:]):
        pos = a
        while abs(pos - b) > 1e-13:
            dist = min(abs(pos), abs(pos - 1.0))
            h = min(abs(b - pos), 0.4 * dist)
            direction = (b - pos) / abs(b - pos)
            for _ in range(40):
                step = h * direction
                record = _step_record(pos, step)
                new = _lead_step(lead, record, shift, one_c)
                if new:
                    lead, pos, add = new, pos + step, record.log - carry
                    lam, carry = lam + add, (lam + add - lam) - add
                    swing = (one_c * lam).real
                    if swing < low:
                        low = swing
                    elif swing > high:
                        high = swing
                    if high - low > _LOG_SWING:
                        raise TransportError(
                            "|z^(1-c)| swings by more than %.3g along the "
                            "path" % _MAX_SWING)
                    break
                h *= 0.5
            else:
                raise TransportError("step size underflow near %r" % (pos,))
    # row i of the result solves S x = (chain of basis entry i at the end):
    # x_0 = 1 on the lead row exactly, as v_0 is not stepped, and the log
    # rows are T^-1 b(end) = _flow(lam), as T and _flow's Toeplitz matrix
    # commute
    moved = list(map(operator.sub, lead[1:], start[1:]))
    return tuple(map(tuple, _chain_columns(
        [1.0 + 0j, *_toeplitz_product(moved, inverse)],
        _flow(one_c, lam, m))))


def numeric_transport(m, c, path):
    """The matrix of D_{m+1}^c's basis continued along a polyline `path`
    from -1 back to -1, in the basis at -1 (row i holds the coordinates of
    the continued entry i, as in ``rho``), by the Taylor steps of the
    module docstring.

    TransportError where the path has fewer than two vertices, does not
    start and end within 1e-9 of -1 (ends that do are read as -1) or comes
    within 0.1 of 0 or 1; where the start frame S has a 1-norm condition
    number kappa_1 = |S|_1 |S^-1|_1 above 1e12 or not finite ("degenerate
    start frame"; S is triangular with a closed-form inverse, so kappa_1
    is exact in O(m^2), and it passes 1e12 for c = 1/2 from m = 19 on), as
    it does for INT_TOL < dist(c, Z<=0) < NEAR with m <= 3, where ``rho``
    returns, and where z^{1-c} at -1 underflows (Im c below about -237);
    at the first step where max/min |z^{1-c}| so far along the path,
    read as e^{Re((1-c) lam)} from the continued Log z = i pi + lam,
    exceeds about 9e5 (``_MAX_SWING``), a factor by which the lead row
    loses accuracy; and where a step halves 40 times.  A vertex that is
    NaN or infinite is a DomainError naming it, and a path or frame past
    double range (a vertex near 1e300, or m >= 172) an AccuracyError.
    """
    m = _order(m, 1, "transport wants m >= 1")
    path = list(path)
    n = len(path)
    path = finite_entry(("path[%d] " * n) % tuple(range(n)), path)
    return MonodromyMatrix(
        finite_exit("numeric_transport", (m, c, "path"),
                    lambda: _transport_rows(m, c, path)),
        "transport", _basis_kind(c))
