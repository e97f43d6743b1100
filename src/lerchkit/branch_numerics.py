"""Branch-aware elementary numerics: total logarithms, branched powers,
the gamma function, and the two workhorse summation/quadrature routines.

Branch conventions
------------------
Two logarithms are used throughout the package, both *total* on the
punctured plane; each cut line is attached to the open region lying
counterclockwise of it (equivalently: approached from the upper side):

``principal_log``
    imaginary part in (-pi, pi], cut along the negative real axis,
    principal_log(-1) = +i*pi, principal_log(-1j) = -i*pi/2.

``semi_principal_log``
    imaginary part in [0, 2*pi), cut along the *positive* real axis,
    semi_principal_log(1) = 0, semi_principal_log(-1j) = 3*i*pi/2.

The two agree on the open upper half-plane and on the negative real
axis, and differ by 2*pi*i on the open lower half-plane.  Powers are
always exp(exponent * chosen log); no power is ever formed by
``cmath``'s ``**`` operator, whose branch policy we do not control.

Numeric policy
--------------
Every decision "is this parameter an integer?" in the package goes
through ``as_int``: exact for int and Fraction, within ``INT_TOL``
(1e-12) for float and complex, and an index argument (an order, a
shift count, a loop index or winding number) through ``_order``, which
refuses any other value by name.  ``EPS`` is the one machine epsilon
that rounding bounds are built from.  ``eval_core._stratum`` is the one
stratum test: singular within ``NEAR`` (1e-8) of z = 1 and of
c in {0, -1, -2, ...}.  The gamma-pole test below is a different rule:
it asks for bit-exact non-positive integers, the exact zeros of 1/Gamma.
Every public evaluator refuses input it cannot use in ``finite_entry``
and a result past double range in ``finite_exit``.

Certified sums
--------------
``sum_with_tail_bound`` knows no series: its iterator yields each term
t_n together with a bound b_n on the tail from n, which the caller works
out next to the term, and the sum stops at the first b_n <= tol.  At
most ``MAX_TERMS`` terms are drawn, by it or by any finite head sum.
"""

import cmath
import math
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import islice

from .errors import AccuracyError, DomainError, PoleError

__all__ = [
    "EPS",
    "INT_TOL",
    "MAX_TERMS",
    "NEAR",
    "as_int",
    "dist_to_nonpos_int",
    "exp_2pi_i",
    "finite_entry",
    "finite_exit",
    "principal_log",
    "semi_principal_log",
    "branched_power",
    "complex_gamma",
    "gamma_rel_error",
    "reciprocal_gamma",
    "quad_semiaxis",
    "sum_with_tail_bound",
    "refuse_past_budget",
    "QuadResult",
    "SumResult",
]

QuadResult = namedtuple("QuadResult", "value error")
SumResult = namedtuple("SumResult", "value tail_bound")

EPS = sys.float_info.epsilon  # 2**-52, the base of every rounding bound
INT_TOL = 1e-12  # integer detection for inexact inputs
NEAR = 1e-8      # refusal radius around z = 1 and c in Z_{<=0}
MAX_TERMS = 200_000  # the most terms any one sum draws


def as_int(x):
    """(is_integer, rounded value); exact test for int/Fraction, INT_TOL
    tolerance for float/complex."""
    if isinstance(x, int):
        return True, x
    if isinstance(x, Fraction):
        return (x.denominator == 1), int(x) if x.denominator == 1 else None
    w = complex(x)
    n = round(w.real)
    if abs(w.imag) <= INT_TOL and abs(w.real - n) <= INT_TOL:
        return True, int(n)
    return False, None


def dist_to_nonpos_int(c):
    """Distance from c to the nearest of 0, -1, -2, ..."""
    w = complex(c)
    n = min(0.0, round(w.real))
    return abs(w - n)


def exp_2pi_i(a):
    """e^{2 pi i a}, exactly -1 at a = 1/2 (where exp leaves a 1e-16
    imaginary part on the real point z = -1)."""
    a = complex(a)
    if a == 0.5:
        return -1.0 + 0j
    return cmath.exp(2j * math.pi * a)


def _as_upper_edge(z):
    """Normalize a signed-zero imaginary part so that real inputs are
    treated as limits from the upper half-plane (cut attachment rule)."""
    z = complex(z)
    if z.imag == 0.0:
        # kills -0.0, which would otherwise flip cmath.log to the lower edge
        z = complex(z.real, 0.0)
    return z


def principal_log(z):
    """Principal logarithm, Im in (-pi, pi], negative reals from above.

    Total on C \\ {0}; principal_log(-x) = log x + i*pi for x > 0.
    """
    z = _as_upper_edge(z)
    if z == 0:
        raise DomainError("log(0) is undefined")
    return cmath.log(z)


def semi_principal_log(z):
    """Logarithm with Im in [0, 2*pi); the cut sits on the positive reals.

    Positive real z gets the upper-edge value (imaginary part 0), so
    semi_principal_log(1) = 0 and the function agrees with
    ``principal_log`` on the closed upper half-plane minus the origin.
    """
    z = _as_upper_edge(z)
    if z == 0:
        raise DomainError("log(0) is undefined")
    w = cmath.log(z)
    if w.imag < 0.0:
        w += 2j * math.pi
    return w


def branched_power(base, exponent):
    """base**exponent as exp(exponent * principal_log(base)), e.g.
    (-1j)**0.5 = (1-1j)/sqrt(2)."""
    return cmath.exp(complex(exponent) * principal_log(base))


def finite_entry(names, values, tol=0.0):
    """complex(x) for the values of a public evaluator, named by ``names``,
    or DomainError("<name> must be finite, got <name> = <x>") for a NaN,
    an int or Fraction past double range, an infinite value but z (oo is
    the stratum singular_zinf), or a tol that is NaN, oo or negative."""
    out = []
    for name, x in zip(names.split(), values):
        try:
            w = complex(x)
        except OverflowError:  # an int or Fraction beyond double range
            w = complex(math.nan)
        if not cmath.isfinite(w) and (name != "z" or cmath.isnan(w)):
            raise DomainError("%s must be finite, got %s = %s" % (name, name, x))
        out.append(w)
    if not 0.0 <= tol < math.inf:
        raise DomainError("tol must be finite and >= 0, got tol = %s" % tol)
    return out


def _order(n, least, refusal, name="m"):
    """The index n as an int, or DomainError: ``finite_entry``'s for a NaN
    or oo, else `refusal` where ``as_int`` finds no integer, or one below
    least when least is not None."""
    finite_entry(name, (n,))
    is_int, k = as_int(n)
    if not is_int or least is not None and k < least:
        raise DomainError("%s, got %s = %r" % (refusal, name, n))
    return k


def finite_exit(name, args, route):
    """route(), a complex, a matrix as rows or an ``EvalResult`` (value
    and estimate), past every public evaluator's exit: an OverflowError,
    or a number there that is not finite, raises
    AccuracyError("name(args) overflows double precision", bound=inf)."""
    try:
        res = route()
        if isinstance(res, complex):
            numbers = (res,)
        elif isinstance(res[0], tuple):
            numbers = [x for row in res for x in row]
        else:
            numbers = (res.value, res.error_estimate)
        # a NaN or oo comes from a term past double range
        if all(map(cmath.isfinite, numbers)):
            return res
    except OverflowError:
        pass
    raise AccuracyError("%s(%s) overflows double precision"
                        % (name, ", ".join(map(str, args))), bound=math.inf)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

# Lanczos g = 7, 9-term coefficient set (double precision workhorse,
# relative error around 1e-13 on the right half-plane).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_exact_nonpositive_int(s):
    """True when s is *exactly* a non-positive integer (int, Fraction,
    or a float/complex that equals one bit-for-bit)."""
    if s.imag != 0:
        return False
    re = s.real
    return re == math.floor(re) and re <= 0 if re == re else False


def complex_gamma(s):
    """Gamma(s) for complex s by Lanczos approximation plus reflection.

    Poles at the non-positive integers raise ``PoleError``.  Accuracy is
    about 1e-13 relative for |s| <= 50.
    """
    s = complex(s)
    if _is_exact_nonpositive_int(s):
        raise PoleError("gamma pole at s = %g" % s.real, location=s)
    if s.real < 0.5:
        # reflection: gamma(s) gamma(1-s) = pi / sin(pi s)
        return math.pi / (cmath.sin(math.pi * s) * complex_gamma(1.0 - s))
    x = s - 1.0
    a = _LANCZOS_C[0]
    for i in range(1, 9):
        a += _LANCZOS_C[i] / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * cmath.exp((x + 0.5) * cmath.log(t) - t) * a


def gamma_rel_error(s):
    """Bound on the relative error of ``complex_gamma(s)`` and
    ``reciprocal_gamma(s)`` for Re s >= 1/16, where the integral and
    reflection routes take them: EPS (64 (1 + |s|) + 2 pi |s cot(pi s)|).

    The first term covers the Lanczos sum (against mpmath, at most
    37 EPS (1 + |s|) for Re s in [-40, 60], |Im s| <= 40, worst near
    Re s = 1/2); the second, for Re s < 1/2 only, the rounding of pi s
    in the reflection's sin(pi s)."""
    s = complex(s)
    bound = 64.0 * (1.0 + abs(s))
    if s.real < 0.5:
        bound += 2.0 * math.pi * abs(s) / abs(cmath.tan(math.pi * s))
    return EPS * bound


def reciprocal_gamma(s):
    """1/Gamma(s), entire; returns *exactly* 0+0j at s in {0, -1, -2, ...}.

    The exact zero matters: monodromy values carry a 1/Gamma(s) factor
    that must kill every term identically at non-positive integer s, not
    merely to rounding level.
    """
    if _is_exact_nonpositive_int(s):
        return 0j
    s = complex(s)
    if s.real < 0.5:
        # cancellation-free on the left half-plane
        return cmath.sin(math.pi * s) * complex_gamma(1.0 - s) / math.pi
    return 1.0 / complex_gamma(s)


# ---------------------------------------------------------------------------
# quadrature on (0, infinity)
# ---------------------------------------------------------------------------

# Hard window for the transformed variable u; t = exp(u - exp(-u)) spans
# ~1e-290 .. 2.7e5 over it, which is all double precision can represent
# usefully.  Integrands t^(sigma-1)*bounded need sigma >~ 0.05 for the
# truncated left tail (t < T_FLOOR) to be negligible.  Callers keep
# sigma >= 1/2, except ``phi_integral``, which goes down to sigma = 1/16
# with its kernel's pole subtracted and books that tail itself.
#
# Every node is a dyadic rational, the base level's u = _U_MIN + i/2 and
# a finer level's new nodes u = _U_MIN + (2i + 1) h, with an exact index
# i.  Levels 0 to _TABLE_DEPTH keep the (node, weight) pairs of ``_node``
# across the window in one tuple each, built on first use, with the
# weight-0 nodes below T_FLOOR (a prefix of each level) left out: 38 base
# pairs and 19 * 2^level above, 2,432 pairs for levels 0-6 together,
# 533 KB with their tuples and floats.  The integrand takes the
# stored node as it is.  Deeper levels call ``_node`` for each node.
_U_MIN = -9.0
_U_MAX = 12.5
T_FLOOR = 1e-290
_MAX_LEVEL = 12     # mesh halvings before the quadrature gives up
_FLOOR_WINDOW = 16  # a floor this many targets high is out of reach, and
                    # a level difference within this many floors stalled
_TABLE_DEPTH = 6    # deepest level whose nodes are kept
_tables = {}        # level -> (first, pairs), see ``_level_nodes``


def _node(u):
    """(node, weight) at u: the node (t, log t, e^-t) with
    t = exp(u - exp(-u)), and the weight dt/du = t (1 + exp(-u)).  Below
    T_FLOOR t = 0, with node (0, -inf, 1) and weight 0: a node that adds
    no term."""
    emu = math.exp(-u)
    t = math.exp(u - emu)
    if t < T_FLOOR:
        return (0.0, -math.inf, 1.0), 0.0
    return (t, math.log(t), math.exp(-t)), t * (1.0 + emu)


def _weighted(us):
    """The (node, weight) pairs of ``_node`` at us, weight-0 ones left
    out, one at a time: a deep level's span can hold 10^5 nodes."""
    return (pair for pair in map(_node, us) if pair[1])


def _level_nodes(level):
    """(first, pairs) for 0 <= level <= _TABLE_DEPTH: the (node, weight)
    pairs of ``_node`` at the nodes the level adds across the whole
    window, u = _U_MIN + i/2 at level 0 and u = _U_MIN + (2i + 1) h above
    it, h = 0.5 / 2**level, as one tuple from index i = first on.  The
    nodes before it, those below T_FLOOR, have weight 0 and are left
    out."""
    table = _tables.get(level)
    if table is None:
        h = 0.5 / 2 ** level
        ms = range(int((_U_MAX - _U_MIN) / h) + 1)  # u = _U_MIN + m h
        us = [_U_MIN + m * h for m in (ms[1::2] if level else ms)]
        pairs = tuple(_weighted(us))
        table = _tables[level] = (len(us) - len(pairs), pairs)
    return table


def _peak_index(t_peak):
    """Index of the base node nearest u*, where t(u*) = t_peak: the root
    of u - exp(-u) = log t_peak, by Newton from log t_peak (or _U_MIN,
    if that is larger).  The start lies left of the root, and on this
    concave function the steps then rise to it without passing it.  A
    root beyond _U_MAX counts as _U_MAX."""
    target = min(math.log(t_peak), _U_MAX)
    u = max(target, _U_MIN)
    for _ in range(64):
        emu = math.exp(-u)
        step = (u - emu - target) / (1.0 + emu)
        u -= step
        if step > -1e-9:
            break
    return round(2.0 * (u - _U_MIN))


def quad_semiaxis(f, tol=1e-12, t_peak=None):
    """Integrate f over (0, infinity) by double-exponential trapezoid.

    Substitutes t = exp(u - exp(-u)) and applies the trapezoid rule in u
    with successive mesh halving (h = 0.5 / 2**level); converged when two
    successive levels agree to ``tol`` in the scale-aware sense
    |T_k - T_{k-1}| <= tol * (1 + |T_k|).  f takes one argument, the
    node (t, log t, e^-t) as a tuple of floats, so an integrand reads
    log t and e^-t from the node tables instead of computing them.

    The base level (h0 = 1/2) walks out from u = 0, right and then left,
    until four successive terms lie below the cut 1e-3 min(tol, 1e-13)
    (1 + scale), scale the largest |term| so far.  Where the term at
    u = 0 lies at or below the cut and a t_peak > 0 is given, the walk
    starts again from the base node nearest t = t_peak, where the
    caller puts the integrand's peak, so that a peak far from t = 1/e
    is not missed.  Finer levels add new nodes only inside the live
    span, bounded by the base nodes just outside the outermost terms
    above the final cut; the quiet base nodes at and beyond its ends
    keep their place in the trapezoid sum.
    This assumes that beyond the live span the integrand stays below
    the cut, as the base walk does when it stops after four quiet nodes,
    and books h0 * sum |term| over those nodes in the error.

    Levels 0 to ``_TABLE_DEPTH`` hand f the node tuples stored in the
    tables above ``_U_MIN``, deeper ones those of ``_node``: the same
    floats either way, and each the one ``math.log`` or ``math.exp``
    gives at that t.

    Returns ``QuadResult(value, error)``; the error is the last level
    difference, plus the rounding floor F = EPS * h * mag defined below,
    since the converged sum still carries its rounding, plus the tails
    booked above.  The success test uses the level difference alone.
    Raises ``AccuracyError``, with the best estimate attached, when

    * the integrand is not negligible at the edge of the u-window;
    * the rounding floor passes the target: with ``mag`` the sum of
      |term| over every node so far, F = EPS * h * mag (about
      EPS * int |f|) is the rounding a level sum cannot get below.  A
      level that misses its target tol * (1 + |T_k|) < F refuses when F
      is above ``_FLOOR_WINDOW`` (16) targets, beyond any finer mesh
      (mostly by level 4), or when two successive level differences lie
      within 16 F, stalled by the integrand's own rounding (one such
      difference alone can still end the double-exponential descent);
    * ``_MAX_LEVEL`` (12) halvings are not enough.
    """
    h = 0.5
    # negligibility threshold for truncating the u-range, kept well below
    # the requested tolerance so truncation never dominates
    cut = min(tol, 1e-13) * 1e-3

    first, base = _level_nodes(0)
    mid = int(-_U_MIN / h)  # the node u = 0
    node, w = base[mid - first]
    total = f(node) * w
    if t_peak and abs(total) <= cut * (1.0 + abs(total)):
        mid = min(max(_peak_index(t_peak), first), first + len(base) - 1)
        node, w = base[mid - first]
        total = f(node) * w
    sizes = [0.0] * (first + len(base))  # |term| at each base node
    scale = mag = size = sizes[mid] = abs(total)
    ends = []
    # extend to the right, then to the left, until several consecutive
    # terms are negligible relative to the running scale
    for step in (1, -1):
        i, quiet = mid + step, 0
        while 0 <= i < len(sizes) and quiet < 4:
            if i < first:
                term = 0j
            else:
                node, w = base[i - first]
                term = f(node) * w
            total += term
            size = sizes[i] = abs(term)
            mag += size
            scale = max(scale, size)
            if size <= cut * (1.0 + scale):
                quiet += 1
            else:
                quiet = 0
            i += step
        if quiet < 4 and size > tol * (1.0 + scale):
            raise AccuracyError(
                "integrand not negligible at the quadrature window edge",
                best=total * h, bound=size,
            )
        ends.append(i - step)
    imax, imin = ends
    value = total * h

    # the live span (lo, hi) between the base nodes just outside the
    # outermost terms above the final cut (around the start if none is);
    # the finer levels leave the nodes at and beyond its ends, and book
    # them
    live = [i for i in range(imin, imax + 1)
            if sizes[i] > cut * (1.0 + scale)] or [mid]
    lo, hi = max(live[0] - 1, imin), min(live[-1] + 1, imax)
    booked = h * sum(sizes[i] for i in range(imin, imax + 1)
                     if not lo < i < hi)

    was_stalled = False
    for level in range(1, _MAX_LEVEL + 1):
        h *= 0.5
        # the new nodes inside the span are those with i0 <= i < i1; the
        # weight-0 ones, below T_FLOOR, come first and add no term
        i0, i1 = lo << (level - 1), hi << (level - 1)
        if level <= _TABLE_DEPTH:
            first, pairs = _level_nodes(level)
            nodes = pairs[max(i0 - first, 0):i1 - first]
        else:
            nodes = _weighted(_U_MIN + (2 * i + 1) * h for i in range(i0, i1))
        mids = 0j
        for node, w in nodes:
            term = f(node) * w
            mids += term
            mag += abs(term)
        refined = 0.5 * value + h * mids
        err = abs(refined - value)
        value = refined
        target = tol * (1.0 + abs(value))
        floor = EPS * h * mag
        if err <= target:
            return QuadResult(value, err + floor + booked)
        stalled = err <= _FLOOR_WINDOW * floor
        if target < floor and (floor > _FLOOR_WINDOW * target
                               or stalled and was_stalled):
            raise AccuracyError(
                "quadrature reached its rounding floor %.3g at level %d, "
                "above the tolerance %.3g" % (floor, level, target),
                best=value, bound=err + booked,
            )
        was_stalled = stalled
    raise AccuracyError(
        "quadrature did not converge within %d levels" % _MAX_LEVEL,
        best=value, bound=err + booked,
    )


# ---------------------------------------------------------------------------
# summation with a proven tail majorant
# ---------------------------------------------------------------------------

def sum_with_tail_bound(terms, tol=1e-12):
    """Sum a series whose terms carry their own tail bounds.

    ``terms`` yields pairs (t_n, b_n), where b_n bounds
    |sum_{k >= n} t_k|, or is ``math.inf`` while no bound holds yet.
    The sum stops at the first n with b_n <= tol and returns
    ``SumResult(t_0 + ... + t_{n-1}, b_n)``; t_n is not added.  An
    iterator that runs out is a finite sum with tail 0.  Past
    ``MAX_TERMS`` pairs the call raises ``AccuracyError`` with the
    partial sum as ``best`` and the last b_n as ``bound``.
    """
    partial, n = 0j, 0
    for n, (t, b) in enumerate(islice(terms, MAX_TERMS), 1):
        if b <= tol:
            return SumResult(partial, b)
        partial += t
    if n < MAX_TERMS:
        return SumResult(partial, 0.0)
    raise AccuracyError(
        "tail bound still %.3g after %d terms" % (b, n), best=partial, bound=b
    )


def refuse_past_budget(what, n):
    """AccuracyError naming the budget, before the first term, for a sum
    of |n| > MAX_TERMS terms."""
    if abs(n) > MAX_TERMS:
        raise AccuracyError("%s of N = %.3g terms passes the budget |N| <= "
                            "MAX_TERMS = %d" % (what, n, MAX_TERMS),
                            bound=math.inf)
