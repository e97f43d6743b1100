"""Region-dispatched numerical evaluation of Phi(s, z, c) and relatives.

Phi(s,z,c) = sum_{n>=0} z^n (n+c)^{-s} on |z| < 1, continued to the cut
plane z not in [1, infinity) on the principal branch (powers of n+c use
the principal log).  Four strategies cover the parameter space, tried
in this order:

series      |z| <= 0.75, any c (certified tail bound from the ratio
            majorant at the current n, asked for 0.5 tol)
reflection  Re(s) <= 0, |z| > 0.75, |z - 1| >= 4 pi 1e-8, Re(c) 1e-8 or
            more from any integer: a signed c-shift into 0 < Re(c') < 1
            and the three-term formula in Lerch-zeta coordinates
            (a = Log z / 2 pi i, semi-principal Log), prefactors c_0(s),
            c_1(s) of ``c_coeff``; its Phi terms live at Re(1 - s) > 1/2
c_shift     |z| > 0.75, other Re(c) < 1/16: Phi(s,z,c) = sum_{k<N} z^k
            (c+k)^{-s} + z^N Phi(s,z,c+N), N = ceil(1 - Re c), pushes
            Re(c) to 1 or above, then re-dispatches (for Re(c) > 0 the
            integral takes over if the shift refuses)
integral    the rest: Gamma(s)^{-1} int_0^inf t^{s-1} e^{-ct} /
            (1 - z e^{-t}) dt for any s (integrated by parts j times
            below Re(s) = 1/2, so that Re(s+j) >= 1/2, unless the pole at
            Log z is subtracted and Re(s) >= 1/16)

plus an exact short-circuit: integer s <= 0 with rational (z, c) is the
bivariate rational from special_values, returned exactly, for
m = -s <= EXACT_M_BUDGET (above it, or beyond double range, the call
raises AccuracyError).

Tolerances, and the entry and exit that every public evaluator passes
(``finite_entry``, ``finite_exit``), follow the numeric policy of
branch_numerics.  One test, ``_stratum``, decides the stratum (radii in its
docstring); ``classify_stratum`` reports its tag, and every evaluator refuses
a singular point with that tag rather than return garbage.  z on (or within
1e-8 of) [1, infinity) is a branch error (the principal value is ambiguous
there).  Log z is formed once, where z enters: ``phi``, ``phi_series`` and
``phi_integral`` hand its principal value to the private routes, and
``lerch_zeta`` and ``periodic_zeta`` hand 2 pi i a (2 pi i (a - 1) for
Re a > 1/2), not the Log of a rounded z = e^{2 pi i a}, so that a next to 0
or 1 keeps its digits.  Every term formed as e^w books EPS (|w| + 4) |e^w|
of rounding in its route's estimate (``_exp_rounding``).

The integral route (``periodic_zeta`` is z Phi(s, z, 1) on it) asks
``quad_semiaxis`` for 0.1 * tol, 1/Gamma included, and raises
``AccuracyError`` where it cannot reach it (``phi_integral`` has the
ladder, the pole subtraction and the estimate, ``quad_semiaxis`` the
refusal rule).  c_shift and reflection are one ``_compose`` step each: a
plain share of tol per inner call, and one retry sized by the
magnitudes if the estimate misses tol (1 + |value|).
``hurwitz_zeta`` is one Euler-Maclaurin sum: one c-shift head at z = 1,
corrections at c + N, Bernoulli numbers from special_values' q_{2k-1}(-1).
"""

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .branch_numerics import (
    EPS,
    NEAR,
    T_FLOOR,
    _is_exact_nonpositive_int,
    _order,
    as_int,
    complex_gamma,
    exp_2pi_i,
    finite_entry,
    finite_exit,
    gamma_rel_error,
    principal_log,
    quad_semiaxis,
    reciprocal_gamma,
    refuse_past_budget,
    sum_with_tail_bound,
)
from .errors import AccuracyError, BranchError, DomainError, PoleError, StratumError
from .special_values import negative_polylog, poly_eval, q_ratio

__all__ = [
    "StratumClass",
    "EvalResult",
    "classify_stratum",
    "phi_series",
    "phi_integral",
    "phi_c_shift",
    "c_coeff",
    "phi",
    "lerch_zeta",
    "periodic_zeta",
    "hurwitz_zeta",
    "extended_polylog",
]

_2PI = 2.0 * math.pi
_2PI_I = 2j * math.pi


class StratumClass(namedtuple("StratumClass", "tag")):
    __slots__ = ()

    def __str__(self):
        return self.tag


# exact is the Fraction when the rational path applied, else None
EvalResult = namedtuple("EvalResult", "value method error_estimate exact",
                        defaults=(None,))


def _stratum(z, c):
    """(tag, n), the package's one stratum test: singular_z1 within NEAR
    (1e-8) of z = 1, singular_c within NEAR of n in {0, -1, ...},
    removable_c at a positive integer n under ``as_int`` (INT_TOL,
    1e-12), singular_z0 and singular_zinf at z = 0 and oo, multiple for
    two singular tags at once, else regular; n is None off the c strata.
    z = None tests c alone, c = None z alone."""
    cc = None if c is None else complex(c)
    n = None if c is None else min(0, round(cc.real))
    if n is not None and abs(cc - n) >= NEAR:
        n = as_int(c)[1]  # positive or None: n <= 0 was caught above
    flags = ["singular_c"] if n is not None and n <= 0 else []
    if z is not None:
        zc = complex(z)
        if cmath.isinf(zc):
            flags.append("singular_zinf")
        elif zc == 0:
            flags.append("singular_z0")
        elif abs(zc - 1.0) < NEAR:
            flags.append("singular_z1")
    return ("multiple" if len(flags) > 1
            else (flags or ["removable_c" if n else "regular"])[0]), n


def _refuse_singular(z, c):
    """StratumError with ``_stratum``'s tag where that tag is singular."""
    tag = _stratum(z, c)[0]
    if tag not in ("regular", "removable_c"):
        raise StratumError("point lies on singular stratum: " + tag,
                           stratum=tag)


def classify_stratum(s, z, c):
    """Stratum tag of (s, z, c), that of ``_stratum`` (radii there):
    ``phi`` raises StratumError with it at every singular point."""
    return StratumClass(_stratum(z, c)[0])


def _guard_cut(zc):
    """The principal branch is ambiguous on [1, inf) (complex zc)."""
    if abs(zc.imag) < NEAR and zc.real >= 1.0 - NEAR:
        raise BranchError(
            "z = %s lies on (or within 1e-8 of) the cut [1, oo); the "
            "principal value is ambiguous there" % (zc,))


def _exp_rounding(w, term):
    """EPS (|w| + 4) |term| for a term formed as e^w: the rounding of w,
    of exp and of the product or sum the term enters."""
    return EPS * (abs(w) + 4.0) * abs(term)


# ---------------------------------------------------------------------------
# strategy: direct series
# ---------------------------------------------------------------------------

def _series_region(zc):
    """The dispatcher's series region |z| <= 0.75 (complex z), any c."""
    return abs(zc) <= 0.75


def phi_series(s, z, c, tol=1e-12):
    """Direct summation of sum z^n (n+c)^{-s} with a certified tail bound.

    Works for |z| < 1 and any s and c; the finitely many terms with
    Re(n+c) <= 0 take the principal branched power like all the others.

    The tail majorant is taken at the current n.  For k >= n >= 2 - Re c,
    |k+c| >= Re(k+c) = k + Re c >= 2, so u = 1/(k+c) has Re u >= 0, where
    |Log(1 + u)| <= |u| <= 1/(n + Re c), and
    |t_{k+1}/t_k| <= rho(n) = |z| e^{|s|/(n + Re c)}, which falls with n;
    once rho(n) < 1 the tail from n is at most |t_n| / (1 - rho(n)).
    The sum stops at the first such n where that bound is below half of
    tol, which leaves the other half for the rounding.  Where
    max(2 - Re c, |s| / (-log|z|) - Re c) > MAX_TERMS no n within that
    budget has rho(n) < 1, and the call raises ``AccuracyError`` naming
    it before it draws a term.  The estimate is the tail bound plus the
    rounding of each drawn term e^w, w = n Log z - s Log(n+c)
    (``_exp_rounding``).  A term beyond double range raises
    ``AccuracyError``.  For Re s > 0 the whole sum is at most
    M = e^{theta |Im s|} (min_n |n + c|)^{-Re s} / (1 - |z|), theta = |Arg c|
    (``_log_sum_bound``); where M lies below the least positive double
    the value is 0, with that double as its estimate, and no term is
    drawn.
    """
    sc, zc, cc = finite_entry("s z c", (s, z, c), tol)
    _refuse_singular(z if zc else None, c)  # at z = 0 only c: Phi = c^-s
    az = abs(zc)
    if az >= 1.0:
        raise DomainError("series strategy needs |z| < 1, got |z| = %g" % az)

    def route():
        if zc == 0:
            w = -sc * principal_log(cc)
            value = cmath.exp(w)
            return EvalResult(value, "series", _exp_rounding(w, value))
        return _series_sum(sc, zc, principal_log(zc), cc, tol)
    return finite_exit("Phi", (s, z, c), route)


_TINY = 5e-324  # the least positive double
_LOG_TINY = math.log(_TINY)
_LOG_HUGE = 1024 * math.log(2.0)  # log 2^1024, past the largest double


def _log_sum_bound(sc, cc, least, rest):
    """log M, raised by its own rounding, for Re s > 0 and
    M = e^{theta |Im s|} least^{-Re s} e^rest, theta = |Arg c|, where
    e^rest bounds sum_n |z|^n (|n + c| / least)^{-Re s}: M bounds
    sum_n |z^n (n + c)^{-s}|, as |Arg(n + c)| <= theta (n + c moves right
    along the line through c, where |Arg| never grows)."""
    parts = (abs(cmath.phase(cc)) * abs(sc.imag), -sc.real * math.log(least),
             rest)
    return sum(parts) + 8.0 * EPS * (sum(map(abs, parts)) + sc.real)


def _series_sum(sc, zc, lz, cc, tol):
    """``phi_series`` past its guards, 0 < |z| < 1 (``phi``'s route)."""
    # log M >= -Re s log|c| >= Re s (1 - |c|), as n = 0 is one of the n
    # and log x <= x - 1, so only Re s (|c| - 1) > -log 5e-324 needs log M
    if sc.real > 0.0 and sc.real * (abs(cc) - 1.0) > -_LOG_TINY:
        # min_n |n + c| sits at the floor or the ceiling of max(0, -Re c)
        k = max(0.0, -cc.real)
        least = min(abs(cc + math.floor(k)), abs(cc + math.ceil(k)))
        if _log_sum_bound(sc, cc, least, -math.log1p(-abs(zc))) < _LOG_TINY:
            # the whole sum lies below the least positive double
            return EvalResult(0j, "series", _TINY)
    n_min = 2.0 - cc.real
    sa = abs(sc)
    # rho(n) < 1 exactly when q = |s|/(n + Re c) < -log|z| = q_max > 0
    q_max = -lz.real
    # that is when n > |s| / q_max - Re c: past the budget, no term is drawn
    refuse_past_budget("series", max(0.0, n_min, sa / q_max - cc.real))
    target = 0.5 * tol
    # with a -0.0 imaginary part turned to +0.0 once here (and no n + c = 0),
    # cmath.log(n + c) equals principal_log(n + c) bit for bit
    if cc.imag == 0.0:
        cc = complex(cc.real, 0.0)
    log = cmath.log

    # rho = |z| e^q.  The factor books the rounding of log|z|, of q - q_max,
    # of exp and of q itself: n + Re c is one rounding of exact operands, so
    # q is within 2 EPS of |s|/(n + Re c), relative, and q < q_max
    round_up = 1.0 + 4.0 * EPS * (q_max + 2.0)
    rounding = 0.0

    def terms():
        # (t_n, bound on the tail from n): |t_n| / (1 - rho(n)) once
        # n >= 2 - Re c, |t_n| <= target and rho(n) < 1, else inf
        nonlocal rounding
        for n in count():
            w = n * lz - sc * log(n + cc)
            t = cmath.exp(w)
            at = abs(t)
            rounding += (abs(w) + 4.0) * at  # _exp_rounding / EPS
            b = math.inf
            if n >= n_min and at <= target:
                q = sa / (n + cc.real)
                if q < q_max:  # else rho >= 1, and exp(q) might overflow
                    rho = math.exp(q - q_max) * round_up
                    if rho < 1.0:
                        b = at / (1.0 - rho) * (1.0 + 4.0 * EPS)
            yield t, b

    res = sum_with_tail_bound(terms(), tol=target)
    return EvalResult(res.value, "series", res.tail_bound + EPS * rounding)


# ---------------------------------------------------------------------------
# strategy: real-axis integral
# ---------------------------------------------------------------------------

def phi_integral(s, z, c, tol=1e-12):
    """Gamma(s)^{-1} int_0^inf t^{s-1} e^{-ct}/(1 - z e^{-t}) dt, any s,
    Re(c) > 0 and z off the cut [1, inf), where 1 - z e^{-t} has no zero.

    With g(t) = t^{s-1} e^{-ct} / Gamma(s) and w = z e^{-t}, the kernel
    1/(1 - w) has a simple pole at t0 = Log z, and the integrand's
    residue there is g(t0) = (Log z)^{s-1} z^{-c} / Gamma(s).  As z
    crosses the cut [1, inf) the pole crosses the path of integration,
    and 2 pi i g(t0) is the jump of Phi, the Z1 monodromy.  For |z| > 1,
    Re t0 > 0 and the pole sits |arg z| off the real axis, where a
    small |arg z| keeps the trapezoid from converging until its last
    levels.  The route then integrates [g(t) - g0 w] / (1 - w),
    analytic at t0 for g0 = g(t0), and adds back
    g0 int_0^inf w/(1 - w) dt = -g0 log(1 - z) (principal log; 1 - z
    stays off (-inf, 0] for z off the cut).  The identity holds for any
    constant g0, so the rounding of g0 itself cancels.

    The gate: at the pole's foot x0 = Re t0, where w = e^{i arg z}, the
    subtraction changes the integrand's numerator from g(x0) to
    g(x0) - g0 w; the route subtracts only when that is no larger in
    modulus, so the subtraction never raises the integrand, or its
    rounding, where the pole acts.  A pole near the axis passes
    (g0 ~ g(x0)); a pole far from it with g0 >> g(x0), as from large
    |Im s|, does not, and then g0 = 0 and the integrand is the plain
    kernel, bit for bit.  So is z < -1, whose two nearest poles tie at
    pi off the axis.

    Below Re(s) = 1/2 the route integrates by parts j = ceil(1 - Re s)
    times (the ladder (z d/dz + c) Phi(s) = Phi(s-1) under the integral),
    so the exponent keeps the real part >= 1/2 that ``quad_semiaxis``
    needs: Phi(s, z, c) = Gamma(s+j)^{-1} int t^{s+j-1} e^{-ct}
    Phi(-j, w, c) dt.  That kernel's pole at t0 has order j + 1, whose
    rounding near the foot grows like eps / |arg z|^{j+1}, so where the
    simple pole is subtracted and Re s >= 1/16 the route keeps j = 0 and
    books the left tail the quadrature drops below t = T_FLOOR, where the
    integrand is g(t) / (1 - z) to first order: 2 |1/Gamma(s)| T^sigma /
    (sigma |1 - z|), sigma = Re s, doubled because the last mesh node can
    leave part of the next cell out as well (below 3e-17 |1/Gamma(s)| /
    |1 - z| for sigma >= 1/16).

    The estimate is the quadrature's error (level difference plus its
    rounding floor eps h sum|f|), the error of 1/Gamma(s+j) times the
    value (``gamma_rel_error``), that tail, and what the subtraction adds
    and the floor does not see: the rounding of the closed term,
    4 eps |closed|, and the cancellation in g - g0 w, at most
    2 eps |g0| L with L = int_0^inf |w/(1 - w)| dt in closed form.
    """
    sc, zc, cc = finite_entry("s z c", (s, z, c), tol)
    if cc.real <= 0:
        raise DomainError("integral strategy needs Re(c) > 0")
    _guard_cut(zc)  # which holds z = 1 and its 1e-8 neighbourhood
    return finite_exit("Phi", (s, z, c), lambda: _mellin(
        sc, zc, principal_log(zc) if zc else 0j, cc, tol))


def _mellin(sc, zc, lz, cc, tol):
    """``phi_integral`` past its checks, lz = Log z (read for |z| > 1 only).
    ``periodic_zeta`` calls in here: its z = e^{2 pi i a}, 0 < Re(a) < 1,
    keeps arg z in (0, 2 pi), off the cut even within 1e-8 of z = 1."""
    j = 0 if sc.real >= 0.5 else math.ceil(1.0 - sc.real)
    g0 = closed = 0j
    pole_err = 0.0
    if sc.real >= 0.0625:  # T_FLOOR^(1/16) < 1e-18: the dropped tail is tiny
        rg = reciprocal_gamma(sc)
        g0, closed, pole_err = _pole_term(sc, zc, lz, cc, rg)
        # with no pole subtracted the ladder stays for 1/16 <= Re s < 1/2:
        # the plain integral there refused one more bench `box` point and
        # drew 14,416 more integrand calls on seeds 1-3
        if g0:
            j = 0
    sig = sc + j
    sm1 = sig - 1.0
    if j:
        rg = reciprocal_gamma(sig)
        p = _ladder_numerator(j, cc)
        tail = 0.0

        def integrand(node):
            t, log_t, exp_t = node
            w = zc * exp_t
            return (rg * cmath.exp(sm1 * log_t - cc * t)
                    * poly_eval(p, w) / (1.0 - w) ** (j + 1))
    else:
        tail = 2.0 * abs(rg) * T_FLOOR ** sc.real / (sc.real * abs(1.0 - zc))

        if g0:
            def integrand(node):
                t, log_t, exp_t = node
                w = zc * exp_t
                return ((rg * cmath.exp(sm1 * log_t - cc * t) - g0 * w)
                        / (1.0 - w))
        else:
            # the one above at g0 = 0, kept apart: folding the two into
            # one cost 4-6% of in-process bench `box` time
            def integrand(node):
                t, log_t, exp_t = node
                return (rg * cmath.exp(sm1 * log_t - cc * t)
                        / (1.0 - zc * exp_t))

    # |t^(sig-1) e^(-ct)| peaks at t = (Re sig - 1) / Re c, where the
    # quadrature's walk starts if it finds nothing at t = 1/e
    value, err = quad_semiaxis(integrand, tol=0.1 * tol,
                               t_peak=max(sig.real - 1.0, 0.0) / cc.real)
    value += closed
    return EvalResult(value, "integral", err + pole_err + tail
                      + gamma_rel_error(sig) * abs(value))


def _ladder_numerator(j, cc):
    """P(w) of the special value Phi(-j, w, c) = P(w)/(1 - w)^{j+1}: the
    c_polys of ``negative_polylog(j)`` (Li_{-j} = w Phi(-j)) at c, over w."""
    p = [0j] * (j + 1)
    for k, poly in enumerate(negative_polylog(j).c_polys):
        for i, a in enumerate(poly[1:]):
            p[i] += a * cc ** k
    return p


def _pole_term(sc, zc, t0, cc, rg):
    """(g0, closed, rounding) of the pole subtraction in ``phi_integral``
    at t0 = Log z, all zero when the pole is not subtracted (gate and
    estimate in its docstring)."""
    r = abs(zc)
    # on the negative axis the poles log|z| +- i pi tie, both pi off the
    # real axis; subtracting one would make Phi complex at real s, c
    if r <= 1.0 or zc.imag == 0.0:
        return 0j, 0j, 0.0
    x0, theta = t0.real, t0.imag
    lg0 = (sc - 1.0) * principal_log(t0) - cc * t0  # log(g(t0) / rg)
    lgx = (sc - 1.0) * math.log(x0) - cc * x0       # log(g(x0) / rg)
    # exp(d) = g0 w(x0) / g(x0) with w(x0) = e^{i theta}; a modulus
    # above e fails the test anyway (and might overflow exp)
    d = lg0 - lgx + 1j * theta
    if d.real > 1.0 or abs(1.0 - cmath.exp(d)) > 1.0:
        return 0j, 0j, 0.0
    log1mz = principal_log(1.0 - zc)
    # L = int_0^inf |w / (1 - w)| dt in closed form (x = |z| e^{-t})
    big_l = math.log((r - math.cos(theta) + abs(1.0 - zc))
                     / (2.0 * math.sin(0.5 * theta) ** 2))
    g0 = rg * cmath.exp(lg0)
    return (g0, -g0 * log1mz,
            EPS * abs(g0) * (2.0 * big_l + 4.0 * abs(log1mz)))


# ---------------------------------------------------------------------------
# identities that re-enter Phi: c_shift and reflection
# ---------------------------------------------------------------------------

def _compose(method, calls, factors, share, tol, combine):
    """EvalResult(value, method, error) with (value, error) =
    combine(results) of an identity that re-enters Phi.

    Each call maps a tolerance to an ``EvalResult``, whose value enters
    the identity times its factor; each is asked for share * tol.  If
    the error misses tol (1 + |value|), each call with
    |factor| (1 + |result|) > 1 + |value| is asked once more, for
    share tol (1 + |value|) / (|factor| (1 + |result|)).
    """
    budget = share * tol
    rs = [call(budget) for call in calls]
    value, err = combine(rs)
    if err > tol * (1.0 + abs(value)):
        mag = 1.0 + abs(value)
        scales = [abs(f) * (1.0 + abs(r.value)) for f, r in zip(factors, rs)]
        rs = [call(budget * mag / scale) if mag < scale else r
              for call, r, scale in zip(calls, rs, scales)]
        value, err = combine(rs)
    return EvalResult(value, method, err)


def _c_shift_head(sc, zc, cc, n):
    """(head, z^N, rounding) of Phi(s,z,c) = head + z^N Phi(s,z,c+N).

    One identity for a shift N of either sign: the head is
    sum_{0<=k<N} z^k (c+k)^{-s} for N >= 0 and
    -sum_{N<=k<0} z^k (c+k)^{-s} = -z^N sum_{k<|N|} z^k (c+N+k)^{-s} for
    N < 0.  The head terms use the principal branched power (some c+k
    may have non-positive real part) e^w, w = -s Log(c+k); each books
    ``_exp_rounding`` and 2 EPS per product, sum or division (at most
    2|N| + 3) that carries it into the head.  No c+k is within NEAR of 0:
    callers refuse a singular c, or keep Re c off the integers (reflection).

    Where N log|z| = log|z^N|, for N of either sign, passes log 2^1024 + 1,
    z^N leaves double range whatever the rounding of its |N| products,
    and the call raises OverflowError before it builds a term; past that
    test, |N| above the budget MAX_TERMS (200,000) raises AccuracyError.
    """
    if zc and n * math.log(abs(zc)) > _LOG_HUGE + 1.0:
        raise OverflowError("z^%d passes double range" % n)
    refuse_past_budget("c-shift head", n)
    lo = min(n, 0)
    head, zpow, rounding, mag = 0j, 1.0 + 0j, 0.0, 0.0
    for k in range(abs(n)):
        w = -sc * principal_log(cc + lo + k)
        term = zpow * cmath.exp(w)
        head += term
        rounding += _exp_rounding(w, term)
        mag += abs(term)
        zpow *= zc
    rounding += 4.0 * EPS * (abs(n) + 2) * mag
    if n < 0:  # zpow = z^|N|
        zpow = 1.0 / zpow
        head = -zpow * head
        rounding *= abs(zpow)
    return head, zpow, rounding


def phi_c_shift(s, z, c, n_shift, tol=1e-12):
    """Phi(s,z,c) = sum_{k<N} z^k (c+k)^{-s} + z^N Phi(s,z,c+N), N >= 0
    the integer n_shift (an integral float is its int): one ``_compose``
    step asking ``phi`` for tol/2 (tol for N = 0)."""
    sc, zc, cc = finite_entry("s z c", (s, z, c), tol)
    n_shift = _order(n_shift, 0, "shift count must be an integer >= 0",
                     "n_shift")
    _refuse_singular(z, c)

    def route():
        head, zpow, rounding = _c_shift_head(sc, zc, cc, n_shift)
        return _compose(
            "c_shift", [lambda t: phi(sc, zc, cc + n_shift, tol=t)], [zpow],
            0.5 if n_shift else 1.0, tol,
            lambda rs: (head + zpow * rs[0].value,
                        abs(zpow) * rs[0].error_estimate + rounding))
    return finite_exit("Phi", (s, z, c), route)


# ---------------------------------------------------------------------------
# strategy: reflection to Re(s') > 1/2
# ---------------------------------------------------------------------------

def c_coeff(n, s):
    """Fourier-side coefficient c_n(s) = (2 pi)^{s-1} Gamma(1-s)
    e^{-+ i pi (1-s)/2}, the sign negative for n >= 1 and positive for
    n <= 0.  Simple poles at s in {1, 2, 3, ...}."""
    sc = finite_entry("s", (s,))[0]
    if _is_exact_nonpositive_int(1.0 - sc):  # the poles of Gamma(1 - s)
        raise PoleError("c_n(s) has a simple pole at s = %d" % round(sc.real),
                        location=sc)
    sign = -1.0 if n >= 1 else 1.0
    return finite_exit("c_coeff", (n, s), lambda: cmath.exp(
        (sc - 1.0) * math.log(_2PI)) * complex_gamma(1.0 - sc)
        * cmath.exp(sign * 1j * math.pi * (1.0 - sc) / 2.0))


def _reflect_with_c_normalization(sc, zc, lz, cc, tol):
    """Phi(s, z, c) = head + z^N Phi(s, z, c') (``_c_shift_head``), where
    N = -floor(Re c) puts c' = c + N in 0 < Re(c') < 1, and the
    three-term formula in Lerch-zeta coordinates z = e^{2 pi i a}, with
    a = lz / 2 pi i from lz = Log z (+ 1 where Im lz < 0: 0 <= Re a < 1):

      Phi(s, z, c') = c_0(s) e^{-2 pi i a c'}    Phi(1-s, e^{-2 pi i c'}, a)
                    + c_1(s) e^{2 pi i c'(1-a)}  Phi(1-s, e^{2 pi i c'}, 1-a)

    with the coefficients c_n of ``c_coeff``, for Re(s) <= 0.  Where
    Im lz < 0 and |lz| < 1, below the cut next to z = 1, a lies next
    to 1 and 1 - a is -lz / (2 pi i): 1.0 - a would carry an error EPS,
    relative EPS / |1 - a|, into the second inner call's term
    (1 - a)^(s-1), which no estimate books.
    The two inner ``phi`` calls live at Re(1-s) > 1/2 and are one
    ``_compose`` step, asked first for tol/8 each (tol/4 for N = 0).  The
    estimate counts the error of Gamma(1-s) (``gamma_rel_error``) and
    the rounding of the head, the two products and their sum (below).
    """
    n = -math.floor(cc.real)
    head, zpow, head_rounding = _c_shift_head(sc, zc, cc, n)
    cn, sp = cc + n, 1.0 - sc
    a = (lz if lz.imag >= 0.0 else lz + _2PI_I) / _2PI_I
    one_a = -lz / _2PI_I if lz.imag < 0.0 and abs(lz) < 1.0 else 1.0 - a
    w1, w2 = -_2PI_I * a * cn, _2PI_I * cn * one_a
    p1 = c_coeff(0, sc) * cmath.exp(w1)
    p2 = c_coeff(1, sc) * cmath.exp(w2)
    # t_i is Gamma(1-s) r_i times three factors e^w, c_n's two with |w|
    # summing to |1-s| (log 2 pi + pi/2): EPS (|w| + 4) per factor as in
    # _exp_rounding, 2 EPS each for the product with r_i and the sum, 16
    wc = abs(sp) * (math.log(_2PI) + 0.5 * math.pi) + 16.0
    args = [(sp, cmath.exp(-_2PI_I * cn), a),
            (sp, cmath.exp(_2PI_I * cn), one_a)]

    def combine(rs):
        t1, t2 = p1 * rs[0].value, p2 * rs[1].value
        inner = t1 + t2
        rounding = EPS * ((wc + abs(w1)) * abs(t1) + (wc + abs(w2)) * abs(t2))
        err = (abs(p1) * rs[0].error_estimate + abs(p2) * rs[1].error_estimate
               + gamma_rel_error(sp) * abs(inner) + rounding)
        return head + zpow * inner, abs(zpow) * err + head_rounding

    calls = [lambda t, arg=arg: phi(*arg, tol=t) for arg in args]
    return _compose("reflection", calls, [zpow * p1, zpow * p2],
                    0.125 if n else 0.25, tol, combine)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _overflows_double(m, zf, cf):
    """True when Phi(-m, z, c) = sum_n (n+c)^m z^n certainly exceeds double
    range: for rational 0 < z < 1 and c > 0 every term is positive, and
    the log of the largest (near n = m / |log z| - c), less a rounding
    margin, passes log 2^1024.  False for other z and c, or when floats
    cannot resolve the terms."""
    if not (0 < zf < 1 and cf > 0):
        return False
    try:
        lz = math.log(zf) if zf < 0.5 else math.log1p(-float(1 - zf))
        cx = float(cf)
        n = max(0, math.floor(m / -lz - cx))
        parts = [(m * math.log(k + cx), k * lz) for k in (n, n + 1)]
    except (OverflowError, ValueError, ZeroDivisionError):
        return False
    return max(a + b - 1e-9 * (abs(a) + abs(b))
               for a, b in parts) > _LOG_HUGE


# the largest m the exact path builds: the first negative_polylog(200)
# takes about 1.3 s, and the cost grows like m^3
EXACT_M_BUDGET = 200


def _exact_rational_case(s, z, c):
    """Exact Phi(-m, z, c) for integer s = -m <= 0 and rational z, c,
    past ``phi``'s stratum test; None for other input."""
    exact = (int, Fraction)
    if not (isinstance(s, exact) and isinstance(z, exact)
            and isinstance(c, exact) and s == int(s) <= 0):
        return None
    m, zf, cf = -int(s), Fraction(z), Fraction(c)
    if _overflows_double(m, zf, cf):
        raise OverflowError  # which phi refuses
    if m > EXACT_M_BUDGET:
        raise AccuracyError(
            "Phi(%d, %s, %s) is exact, but m = %d is above the exact "
            "path's budget m <= %d" % (-m, zf, cf, m, EXACT_M_BUDGET),
            bound=math.inf)
    # Phi(-m, z, c) = Li_{-m}(z,c) / z, both exact rationals; the estimate
    # is the rounding of value = p/q from val = n/d, |p d - n q| / (q d),
    # one ulp above the correctly rounded quotient, and 0 where it is exact
    val = negative_polylog(m).eval(zf, cf) / zf
    value = float(val)
    p, q = value.as_integer_ratio()
    miss = abs(p * val.denominator - val.numerator * q)
    bound = (math.nextafter(miss / (q * val.denominator), math.inf)
             if miss else 0.0)
    return EvalResult(complex(value), "rational", bound, exact=val)


def phi(s, z, c, tol=1e-12):
    """Evaluate Phi(s, z, c) on the principal branch, auto-dispatched.

    Routes in the order of the module docstring.  Input that
    ``finite_entry`` refuses raises DomainError before any route runs, a
    point that ``classify_stratum`` calls singular StratumError with its
    tag (z = oo is singular_zinf), the cut [1, oo) BranchError, and an
    overflow, or a value or estimate that is not finite, AccuracyError.
    """
    sc, zc, cc = finite_entry("s z c", (s, z, c), tol)
    _refuse_singular(z, c)
    return finite_exit("Phi", (s, z, c), lambda: _exact_rational_case(
        s, z, c) or _dispatch(sc, zc, principal_log(zc), cc, tol))


def _dispatch(sc, zc, lz, cc, tol):
    """``phi``'s numeric routes off the singular strata, lz = Log z."""
    if _series_region(zc):
        return _series_sum(sc, zc, lz, cc, tol)
    # next to an integer Re c the reflection meets c + k = 0 or an inner z = 1,
    # within 2 pi NEAR of z = 1 an inner c = a or 1 - a, |a| ~ |z - 1| / 2 pi
    if (sc.real <= 0 and NEAR <= cc.real % 1.0 <= 1.0 - NEAR
            and abs(zc - 1.0) >= 2.0 * _2PI * NEAR):
        _guard_cut(zc)  # raises BranchError on [1, oo)
        return _reflect_with_c_normalization(sc, zc, lz, cc, tol)
    if cc.real < 0.0625:
        # the slow decay of e^{-ct} at 0 < Re c < 1/16 often keeps the
        # integral from its target; it takes what the shift refuses
        try:
            return phi_c_shift(sc, zc, cc, math.ceil(1.0 - cc.real), tol=tol)
        except AccuracyError:
            if cc.real <= 0:
                raise
    # now Re(c) > 0, |z| > 0.75; phi_integral guards the cut
    return phi_integral(sc, zc, cc, tol=tol)


# ---------------------------------------------------------------------------
# the zeta-family wrappers
# ---------------------------------------------------------------------------

def _log_of_coordinate(name, ac):
    """Log z of z = e^{2 pi i a}, 0 < Re(a) < 1: 2 pi i a, or 2 pi i (a - 1)
    (exact) for Re a > 1/2; a DomainError naming the caller off that strip."""
    if not 0.0 < ac.real < 1.0:
        raise DomainError("%s needs 0 < Re(a) < 1" % name)
    return _2PI_I * (ac if ac.real <= 0.5 else ac - 1.0)


def lerch_zeta(s, a, c, tol=1e-12):
    """zeta(s, a, c) = Phi(s, e^{2 pi i a}, c), 0 < Re(a) < 1, on ``phi``'s
    routes with Log z from ``_log_of_coordinate``."""
    sc, ac, cc = finite_entry("s a c", (s, a, c), tol)
    lz = _log_of_coordinate("lerch_zeta", ac)

    def route():
        zc = exp_2pi_i(ac)  # past double range for large -Im a
        _refuse_singular(zc, c)
        return _dispatch(sc, zc, lz, cc, tol)
    return finite_exit("zeta", (s, a, c), route)


def periodic_zeta(a, s, tol=1e-12):
    """F(a, s) = sum_{n>=1} e^{2 pi i n a} n^{-s} = z Phi(s, z, 1), entire
    in s: the integral of ``phi_integral`` at z = e^{2 pi i a}, without
    its z guards (see ``_mellin``), with its estimate scaled by |z|."""
    ac, sc = finite_entry("a s", (a, s), tol)
    lz = _log_of_coordinate("periodic_zeta", ac)

    def route():
        z = exp_2pi_i(ac)
        res = _mellin(sc, z, lz, 1.0 + 0j, tol)
        return EvalResult(z * res.value, "integral",
                          abs(z) * res.error_estimate)
    return finite_exit("F", (a, s), route)


def hurwitz_zeta(s, c, tol=1e-12):
    """zeta_H(s, c) = sum (n+c)^{-s} by Euler-Maclaurin, |s| <= ~30: one
    sum, ``_euler_maclaurin``, whose head also carries Re c above 1/2."""
    sc, cc = finite_entry("s c", (s, c), tol)
    if as_int(sc) == (True, 1):
        raise PoleError("Hurwitz zeta has its pole at s = 1", location=1)
    _refuse_singular(None, c)  # its z = 1 defines it; only c is tested
    return finite_exit("zeta_H", (s, c), lambda: _euler_maclaurin(sc, cc, tol))


@lru_cache(maxsize=None)
def _bernoulli_ratio(k):
    """B_2k / (2k)!, exact, from the special value
    q_{2k-1}(-1) = (1 - 4^k) B_2k / 2k of ``q_ratio``."""
    return q_ratio(2 * k - 1, Fraction(-1)) / (
        (1 - 4 ** k) * math.factorial(2 * k - 1))


def _euler_maclaurin(sc, cc, tol):
    """zeta_H(s, c) = sum_{n<N} (n+c)^{-s} + corrections at c + N.

    One ``_c_shift_head`` at z = 1 sums N = shift + big_n terms: the
    shift takes Re c to 1/2 or above, and big_n doubles until the first
    omitted correction, the error proxy, is at most 0.1 tol (else
    ``AccuracyError`` with that bound).  The estimate adds the head's
    rounding and that of each e^w of the corrections (``_exp_rounding``).
    For Re s > 1, Re c > 0 the sum is at most its first term plus the
    integral, M = e^{theta |Im s|} (Re c)^{-Re s} (1 + Re c / (Re s - 1))
    (``_log_sum_bound``); where M lies below the least positive double
    the value is 0, with that double as its estimate, and no head is built.
    """
    a = cc.real
    if sc.real > 1.0 and a > 0.0 and _log_sum_bound(
            sc, cc, a, math.log1p(a / (sc.real - 1.0))) < _LOG_TINY:
        return EvalResult(0j, "euler_maclaurin", _TINY)
    K = 12
    shift = max(0, math.ceil(0.5 - a))
    big_n = max(10, math.ceil(1.2 * abs(sc)) + 5)
    # magnitude of the first omitted correction term
    b = float(abs(_bernoulli_ratio(K + 1)))
    poch = math.prod(abs(sc + i) for i in range(2 * K + 1))
    for _ in range(6):
        tail = b * poch * abs(cc + shift + big_n) ** (-(sc.real + 2 * K + 1))
        if tail <= 0.1 * tol:
            break
        big_n *= 2
    else:
        raise AccuracyError("Euler-Maclaurin tail would not drop below tol",
                            bound=tail)

    n = shift + big_n
    value, _, rounding = _c_shift_head(sc, 1.0 + 0j, cc, n)
    # (w, factor) pairs, each term factor e^w
    lb = principal_log(cc + n)
    terms = [((1.0 - sc) * lb, 1.0 / (sc - 1.0)), (-sc * lb, 0.5)]
    poch = sc
    for k in range(1, K + 1):
        bk = float(_bernoulli_ratio(k))
        terms.append(((-sc - 2 * k + 1) * lb, bk * poch))
        poch *= (sc + 2 * k - 1) * (sc + 2 * k)
    for w, factor in terms:
        t = factor * cmath.exp(w)
        value += t
        rounding += _exp_rounding(w, t)
    return EvalResult(value, "euler_maclaurin", tail + rounding)


def extended_polylog(s, z, c, tol=1e-12):
    """Li_s(z, c) = z * Phi(s, z, c); Li_s(z, 1) is the classical polylog."""
    zc = finite_entry("s z c", (s, z, c), tol)[1]
    if zc == 0:
        _refuse_singular(None, c)  # as phi_series does at z = 0
        return EvalResult(0j, "series", 0.0)
    inner = phi(s, z, c, tol=tol)
    exact = None
    if inner.exact is not None and isinstance(z, (int, Fraction)):
        exact = inner.exact * Fraction(z)
    return finite_exit("Li", (s, z, c), lambda: EvalResult(
        zc * inner.value, inner.method, abs(zc) * inner.error_estimate,
        exact=exact))
