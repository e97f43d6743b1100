"""Correctness references for the benchmark.

``phi_oracle`` sums the defining series of Phi(s, z, c) directly in
40-digit mpmath arithmetic.  It shares no code with lerchkit, and its
trusted domain is written down in ``ORACLE_DOMAIN``: |z| < 0.99, any s,
c at least 1e-6 away from the non-positive integers.  Outside it the
oracle refuses.  mpmath's own ``lerchphi`` is not used: it is wrong for
|z| > 1 with complex c.

``periodic_zeta_oracle`` evaluates F(a, s) = sum_{n>=1} e^{2 pi i n a} n^-s
through Hurwitz zeta values (DLMF 25.13.2), again in 40 digits.

``rho_error`` compares a numerically transported monodromy matrix with
the closed-form ``rho`` of the same loop.
"""

import math

import mpmath
from mpmath import mpc, mpf

ORACLE_DOMAIN = {
    "method": "direct series sum z^n (n+c)^(-s), principal log, "
              "40 significant digits (mpmath %s)" % mpmath.__version__,
    "trusted": "|z| < 0.99, any complex s, dist(c, Z<=0) >= 1e-6",
    "tail": "stops when the geometric majorant of the tail is below "
            "1e-35 of the partial sum",
}
ORACLE_MAX_ABS_Z = 0.99
DIGITS = 40

# A value is wrong when it misses the oracle by more than this share of
# max(|oracle|, 1).  Error estimates are checked separately, see
# bad_estimate().
CHECK_RTOL = 1e-8

# The transported matrix must match rho to this (scaled) distance.
TRANSPORT_TOL = 1e-6


class OracleError(Exception):
    """The point lies outside the oracle's trusted domain, or the sum
    lost too many digits to cancellation."""


def in_domain(z):
    return abs(complex(z)) < ORACLE_MAX_ABS_Z


def _mp(x):
    """mpmath number from int, Fraction, float or complex; a real input
    stays real so that log(n + c) of a negative real is +i pi (upper
    edge), as on the principal branch lerchkit uses."""
    if isinstance(x, complex):
        if x.imag == 0.0:
            return mpf(x.real)
        return mpc(x.real, x.imag)
    if hasattr(x, "denominator"):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def phi_oracle(s, z, c):
    """Phi(s, z, c) as a Python complex, from a 40-digit direct sum."""
    if not in_domain(z):
        raise OracleError("oracle trusted only for |z| < %g" % ORACLE_MAX_ABS_Z)
    cc = complex(c)
    if abs(cc - min(0, round(cc.real))) < 1e-6:
        raise OracleError("c is within 1e-6 of a non-positive integer")
    with mpmath.workdps(DIGITS):
        s_, z_, c_ = _mp(s), _mp(z), _mp(c)
        az = abs(complex(z))
        if az == 0.0:
            return complex(mpmath.exp(-s_ * mpmath.log(c_)))
        rho = (1.0 + az) / 2.0
        # from n1 on, |t_{n+1} / t_n| <= |z| exp(2|s| / (n - |c|)) <= rho
        n1 = abs(cc) + 2.0 + 2.0 * abs(complex(s)) / math.log(rho / az)
        geo = rho / (1.0 - rho)
        total = mpc(0)
        zn = mpc(1)
        biggest = mpf(0)
        n = 0
        while True:
            t = zn * mpmath.exp(-s_ * mpmath.log(n + c_))
            total += t
            at = abs(t)
            biggest = max(biggest, at)
            if n >= n1 and at * geo <= mpf(10) ** -35 * abs(total):
                break
            n += 1
            zn *= z_
        # rounding of every partial sum is at most biggest * 10^-DIGITS
        if biggest * (n + 1) * mpf(10) ** -DIGITS > mpf(10) ** -25 * abs(total):
            raise OracleError("cancellation ate more than 15 of %d digits"
                              % DIGITS)
        return complex(total)


def periodic_zeta_oracle(a, s):
    """F(a, s) for real 0 < a < 1 and s off the positive integers:
    Gamma(1-s) (2 pi)^(s-1) [e^(i pi (1-s)/2) zeta(1-s, a)
                             + e^(-i pi (1-s)/2) zeta(1-s, 1-a)]."""
    sc = complex(s)
    if not 0.0 < float(a) < 1.0:
        raise OracleError("periodic zeta oracle needs 0 < a < 1")
    if sc.real > 0.5 and abs(sc - round(sc.real)) < 1e-9:
        raise OracleError("Gamma(1 - s) has a pole at positive integer s")
    with mpmath.workdps(DIGITS):
        a_, s1 = _mp(a), 1 - _mp(s)
        half = 1j * mpmath.pi * s1 / 2
        value = (mpmath.gamma(s1) / (2 * mpmath.pi) ** s1
                 * (mpmath.exp(half) * mpmath.zeta(s1, a_)
                    + mpmath.exp(-half) * mpmath.zeta(s1, 1 - a_)))
        return complex(value)


def rel_err(value, ref):
    """|value - ref| / |ref| (the absolute error when ref is 0)."""
    return abs(value - ref) / abs(ref) if ref else abs(value)


def is_wrong(value, ref):
    return abs(value - ref) > CHECK_RTOL * max(abs(ref), 1.0)


def bad_estimate(value, error_estimate, ref):
    """True when the reported error estimate does not cover the true
    error, allowing one unit of double rounding."""
    return abs(value - ref) > error_estimate + 2.0 ** -52 * abs(ref)


def rho_error(transported, closed):
    """Largest entry distance between two matrices, over max(1, |rho|)."""
    diff = max(abs(a - b) for a, b in zip(transported.flat, closed.flat))
    return diff / max(1.0, max(abs(b) for b in closed.flat))
