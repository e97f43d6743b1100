"""Branch conventions, gamma, and the summation/quadrature engines."""

import cmath
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lerchkit import branch_numerics
from lerchkit.branch_numerics import (EPS, QuadResult, branched_power,
                                      complex_gamma, gamma_rel_error,
                                      principal_log, quad_semiaxis,
                                      reciprocal_gamma, semi_principal_log,
                                      sum_with_tail_bound)
from lerchkit.errors import AccuracyError, DomainError, PoleError


def test_principal_log_range_and_edge():
    # Im in (-pi, pi]; the cut on the negative axis takes the upper edge
    assert principal_log(-1.0) == complex(0.0, math.pi)
    assert principal_log(-1.0 - 0.0j).imag == pytest.approx(math.pi)
    assert principal_log(1j).imag == pytest.approx(math.pi / 2)
    assert principal_log(-1j).imag == pytest.approx(-math.pi / 2)
    assert principal_log(2.0) == complex(math.log(2.0), 0.0)


def test_semi_principal_log_range_and_edge():
    # Im in [0, 2*pi); positive reals sit on the lower edge (0), not 2*pi
    assert semi_principal_log(2.0).imag == 0.0
    assert semi_principal_log(-1.0).imag == pytest.approx(math.pi)
    assert semi_principal_log(-1j).imag == pytest.approx(3 * math.pi / 2)
    assert semi_principal_log(1j).imag == pytest.approx(math.pi / 2)


def test_log_zero_rejected():
    with pytest.raises(DomainError):
        principal_log(0)
    with pytest.raises(DomainError):
        semi_principal_log(0)


def test_branched_power_two_branches_disagree_below_axis():
    # (-1j)^0.5: principal gives e^{-i pi/4}, semi gives e^{+i 3 pi/4}
    p = branched_power(-1j, 0.5)
    s = cmath.exp(0.5 * semi_principal_log(-1j))
    r = 1.0 / math.sqrt(2.0)
    assert p == pytest.approx(complex(r, -r))
    assert s == pytest.approx(complex(-r, r))


def test_branched_power_agrees_in_upper_half_plane():
    for z in (0.3 + 0.4j, -2.0 + 0.1j, 1j, 5.0 + 2.0j):
        for e in (0.5, -1.3, 2.0 + 1.0j):
            assert branched_power(z, e) == pytest.approx(
                cmath.exp(e * semi_principal_log(z)))


def test_complex_gamma_known_values():
    assert complex_gamma(5).real == pytest.approx(24.0, rel=1e-12)
    assert complex_gamma(0.5).real == pytest.approx(math.sqrt(math.pi),
                                                    rel=1e-12)
    # Gamma(1/2 + i): |Gamma(1/2 + i t)|^2 = pi / cosh(pi t)
    g = complex_gamma(0.5 + 1j)
    assert abs(g) ** 2 == pytest.approx(math.pi / math.cosh(math.pi),
                                        rel=1e-11)


def test_complex_gamma_refuses_its_poles():
    for s in (0, -3, -3.0 + 0j):
        with pytest.raises(PoleError, match="gamma pole"):
            complex_gamma(s)


def test_gamma_rel_error_covers_gamma_and_its_reciprocal():
    # the s range of the routes' Gamma factors on the benchmark box
    # (Re s >= 1/16), one point in four in 1/16 <= Re s < 1/2, where the
    # reflection's sin(pi s) adds its rounding; mpmath is the reference
    # (installed, not a dependency)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2015)
    points = [complex(rng.uniform(1 / 16, 0.5 if k % 4 == 0 else 9),
                      rng.uniform(-16, 16)) for k in range(2000)]
    with mpmath.workdps(30):
        for s in points:
            x = mpmath.mpc(s.real, s.imag)
            bound = gamma_rel_error(s)
            want = complex(mpmath.gamma(x))
            assert abs(complex_gamma(s) - want) <= bound * abs(want), s
            want = complex(mpmath.rgamma(x))
            assert abs(reciprocal_gamma(s) - want) <= bound * abs(want), s
    assert gamma_rel_error(1.5) < 200 * EPS


def test_reciprocal_gamma_exact_zeros():
    for n in (0, -1, -2, -7, -30):
        assert reciprocal_gamma(n) == 0j  # exact, not merely small
    assert reciprocal_gamma(3) == pytest.approx(0.5)


def _at_t(f):
    """The integrand f(t) as quad_semiaxis takes it: a function of the
    node (t, log t, e^-t)."""
    return lambda node: f(node[0])


def test_quad_semiaxis_gamma_integral():
    # int_0^inf t^{s-1} e^{-t} dt = Gamma(s)
    for s in (1.5, 2.0, 3.7):
        got = quad_semiaxis(_at_t(lambda t, s=s: t ** (s - 1) * math.exp(-t)))
        assert isinstance(got, QuadResult)
        assert got.value == pytest.approx(complex_gamma(s).real, rel=1e-11)
        assert got.error < 1e-9


def test_quad_semiaxis_reports_failure():
    # a non-integrable integrand cannot satisfy the tolerance
    with pytest.raises(AccuracyError) as exc:
        quad_semiaxis(_at_t(lambda t: cmath.exp(1j * t * t)), tol=1e-12)
    assert exc.value.best is not None


def _counted(f):
    calls = [0]

    def g(t):
        calls[0] += 1
        return f(t)
    return g, calls


def test_quad_semiaxis_refuses_after_twelve_levels():
    # t^-0.99 is cut off at the window's left end, so the levels creep
    # towards each other far above the rounding floor
    f, calls = _counted(_at_t(lambda t: t ** -0.99 * math.exp(-t)))
    with pytest.raises(AccuracyError, match="within 12 levels") as exc:
        quad_semiaxis(f)
    assert exc.value.best is not None
    assert calls[0] == 85_971


def test_quad_semiaxis_refuses_at_rounding_floor():
    # int_0^oo e^-t cos(40 t) dt = 1/1601; its rounding floor is about
    # eps * int |e^-t cos 40t| ~ 1.4e-16, more than 16 times a 1e-18
    # target, so level 1 refuses (all 12 levels take 85,971 calls), and
    # the attached bound covers the level-1 value's error
    f, calls = _counted(_at_t(lambda t: math.exp(-t) * math.cos(40.0 * t)))
    with pytest.raises(AccuracyError, match="rounding floor .* level 1,") as exc:
        quad_semiaxis(f, tol=1e-18)
    assert abs(exc.value.best - 1.0 / 1601) <= exc.value.bound
    assert calls[0] == 39
    # a floor within 16 targets is waited out until two successive level
    # differences stall within 16 floors: levels 8 and 9 here
    f, calls = _counted(_at_t(lambda t: math.exp(-t) * math.cos(40.0 * t)))
    with pytest.raises(AccuracyError, match="rounding floor .* level 9,") as exc:
        quad_semiaxis(f, tol=2e-17)
    assert abs(exc.value.best - 1.0 / 1601) <= 1e-15
    assert calls[0] <= 15_000
    # a target above the floor converges as before
    f, calls = _counted(_at_t(lambda t: math.exp(-t) * math.cos(40.0 * t)))
    got = quad_semiaxis(f, tol=1e-15)
    assert got.value == 0.0006246096189881585
    assert calls[0] == 4103


def _untrimmed_quad(f, tol=1e-12):
    """quad_semiaxis before it refined only the live span: every level
    refines the whole base window and then grows it by four quiet nodes
    a side."""
    def term_at(u):
        emu = math.exp(-u)
        t = math.exp(u - emu)
        if t < 1e-290:
            return 0j
        return f((t, math.log(t), math.exp(-t))) * (t * (1.0 + emu))

    h, cut = 0.5, min(tol, 1e-13) * 1e-3
    total = term_at(0.0)
    scale = mag = abs(total)
    jmin = jmax = 0
    for direction in (+1, -1):
        j, quiet = direction, 0
        while -9.0 <= j * h <= 12.5 and quiet < 4:
            term = term_at(j * h)
            total += term
            size = abs(term)
            mag += size
            scale = max(scale, size)
            quiet = quiet + 1 if size <= cut * (1.0 + scale) else 0
            if direction > 0:
                jmax = j
            else:
                jmin = j
            j += direction
        if quiet < 4 and abs(term) > tol * (1.0 + scale):
            raise AccuracyError("integrand not negligible at the quadrature "
                                "window edge", best=total * h, bound=abs(term))
    umin, umax, value, was_stalled = jmin * h, jmax * h, total * h, False
    for level in range(1, 13):
        h *= 0.5
        mids, u = 0j, umin + h
        while u < umax:
            term = term_at(u)
            mids += term
            mag += abs(term)
            u += 2.0 * h
        refined = 0.5 * value + h * mids
        for direction, edge in ((+1, umax), (-1, umin)):
            u, quiet = edge + direction * h, 0
            while -9.0 <= u <= 12.5 and quiet < 4:
                term = term_at(u)
                refined += h * term
                size = abs(term)
                mag += size
                quiet = quiet + 1 if size <= cut * (1.0 + scale) else 0
                u += direction * h
            if direction > 0:
                umax = max(umax, u - h)
            else:
                umin = min(umin, u + h)
        err = abs(refined - value)
        value = refined
        target, floor = tol * (1.0 + abs(value)), EPS * h * mag
        if err <= target:
            return QuadResult(value, err + floor)
        stalled = err <= 16 * floor
        if target < floor and (floor > 16 * target or stalled and was_stalled):
            raise AccuracyError(
                "quadrature reached its rounding floor %.3g at level %d, "
                "above the tolerance %.3g" % (floor, level, target),
                best=value, bound=err)
        was_stalled = stalled
    raise AccuracyError("quadrature did not converge within 12 levels",
                        best=value, bound=err)


def _quad_outcome(quad, f, tol):
    """(repr of the result or of the refusal's message, best and bound,
    integrand calls): repr tells every bit of a float apart."""
    g, calls = _counted(f)
    try:
        got = quad(g, tol)
    except AccuracyError as exc:
        got = (str(exc), exc.best, exc.bound)
    return repr(got), calls[0]


def _kernel(node):
    # a Mellin kernel of the integral route: t^(s-1) e^(-ct) / (1 - z e^-t)
    t, log_t, exp_t = node
    return (cmath.exp((-0.5 + 3j) * log_t - (0.5 + 2j) * t)
            / (1.0 - (0.9 + 0.3j) * exp_t))


QUAD_CASES = {
    # name: (integrand, tol, integrand calls, refusal message)
    "level 1": (_at_t(lambda t: math.exp(-t)), 1e-6, 39, None),
    "level 9": (_at_t(lambda t: math.exp(-t) * math.cos(80.0 * t)), 1e-12,
                8_199, None),
    "mellin kernel": (_kernel, 1e-13, None, None),
    "floor at level 1": (_at_t(lambda t: math.exp(-t) * math.cos(40.0 * t)),
                         1e-18, 39, "rounding floor .* level 1,"),
    "floor at level 9": (_at_t(lambda t: math.exp(-t) * math.cos(40.0 * t)),
                         2e-17, None, "rounding floor .* level 9,"),
    "12 levels": (_at_t(lambda t: t ** -0.99 * math.exp(-t)), 1e-12, 85_971,
                  "within 12 levels"),
    "window edge": (_at_t(lambda t: 1.0 / (1.0 + t)), 1e-12, None,
                    "not negligible at the quadrature window edge"),
}


@pytest.mark.parametrize("name", QUAD_CASES)
def test_node_tables_change_no_bit(name, monkeypatch):
    # levels 1 to 7 take their nodes from the tables, level 8 on from
    # _node; with no table above the base level every level takes the
    # per-node path, and the sums are the same bit for bit
    f, tol, calls, refusal = QUAD_CASES[name]
    got = _quad_outcome(quad_semiaxis, f, tol)
    monkeypatch.setattr(branch_numerics, "_TABLE_DEPTH", 0)
    assert got == _quad_outcome(quad_semiaxis, f, tol)
    assert calls is None or got[1] == calls
    if refusal is None:
        assert got[0].startswith("QuadResult(")
    else:
        assert re.search(refusal, got[0])


def test_base_level_reads_its_nodes_from_the_table():
    # the base level walks u = 0, 1/2, 1, ... and then -1/2, -1, ...;
    # its table holds the very floats _node gives at those u
    seen = []
    quad_semiaxis(lambda node: seen.append(node) or node[2], tol=1e-6)
    for walk in (range(0, 26), range(-1, -19, -1)):
        want = [branch_numerics._node(j / 2)[0] for j in walk]
        n = next(k for k, (a, b) in enumerate(zip(seen, want)) if a != b)
        assert n >= 5  # the walk stops after four quiet terms
        del seen[:n]
    ts, logs, exps, ws = branch_numerics._level_nodes(0)
    assert (list(zip(zip(ts, logs, exps), ws))
            == [branch_numerics._node(i / 2 - 9.0) for i in range(44)])


@pytest.mark.parametrize("depth", [branch_numerics._TABLE_DEPTH, 0])
def test_every_node_is_t_log_t_and_exp_minus_t(depth, monkeypatch):
    # with the tables (levels 1 to 7 from them, 8 and 9 from _node) and
    # without (every level above the base from _node), each node handed
    # to the integrand is (t, log t, e^-t) of the floats math computes
    monkeypatch.setattr(branch_numerics, "_TABLE_DEPTH", depth)
    seen = []

    def f(node):
        seen.append(node)
        return math.exp(-node[0]) * math.cos(80.0 * node[0])

    quad_semiaxis(f)  # converges at level 9
    assert len(seen) == 8_199
    for node in seen:
        t = node[0]
        assert type(node) is tuple and t > 0.0
        assert node == (t, math.log(t), math.exp(-t)), node


def _mellin_kernels(n, seed):
    """n seeded Mellin kernels t^(s-1) e^(-ct) / (1 - z e^-t), |z| < 1."""
    rng = random.Random(seed)
    for _ in range(n):
        s = complex(rng.uniform(0.5, 4.0), rng.uniform(-8.0, 8.0))
        c = complex(rng.uniform(0.2, 5.0), rng.uniform(-5.0, 5.0))
        z = cmath.rect(rng.uniform(0.0, 0.95), rng.uniform(-math.pi, math.pi))
        yield lambda node, s=s, c=c, z=z: (
            cmath.exp((s - 1) * node[1] - c * node[0]) / (1.0 - z * node[2]))


def test_live_span_agrees_with_the_untrimmed_rule():
    # refining only the live span moves a value by less than its new
    # estimate, for about half the integrand calls
    new_calls = old_calls = 0
    for k, f in enumerate(_mellin_kernels(40, 20)):
        tol = (1e-8, 1e-12, 1e-13)[k % 3]
        g, calls = _counted(f)
        new = quad_semiaxis(g, tol)
        new_calls += calls[0]
        g, calls = _counted(f)
        old = _untrimmed_quad(g, tol)
        old_calls += calls[0]
        assert abs(new.value - old.value) <= new.error, k
    assert new_calls < 0.75 * old_calls
    # an integrand below the cut everywhere has no live term: the span
    # stays around u = 0, and the booked tails cover what it leaves out
    got = quad_semiaxis(_at_t(lambda t: 1e-20 * math.exp(-t)))
    assert abs(got.value - 1e-20) <= got.error


def test_node_cache_is_bounded():
    # the 12-level refusal walks every level; only the shallow ones keep
    # their nodes
    with pytest.raises(AccuracyError, match="within 12 levels"):
        quad_semiaxis(_at_t(lambda t: t ** -0.99 * math.exp(-t)))
    tables = branch_numerics._tables
    assert max(tables) == branch_numerics._TABLE_DEPTH < 12
    size = sum(sys.getsizeof(column) for table in tables.values()
               for column in table)
    assert size <= 256 * 1024


def test_no_node_table_at_import():
    # the tables are built by the first quadrature that needs them, so
    # importing the package (every CLI command does) builds none
    src = str(Path(branch_numerics.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import lerchkit.cli; "
            "from lerchkit import branch_numerics; "
            "print(len(branch_numerics._tables))" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "0"


def test_sum_with_tail_bound_geometric():
    q = 0.5
    res = sum_with_tail_bound(((q ** n, q ** n / (1 - q))
                               for n in range(10 ** 6)), tol=1e-13)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.tail_bound <= 1e-13


def test_sum_stops_before_the_term_whose_bound_reaches_tol():
    pairs = [(1.0, math.inf), (2.0, 5.0), (4.0, 0.5), (8.0, 0.1)]
    drawn = []

    def terms():
        for pair in pairs:
            drawn.append(pair)
            yield pair
    res = sum_with_tail_bound(terms(), tol=0.5)
    assert res == (3.0, 0.5)
    assert drawn == pairs[:3]


def test_sum_of_an_iterator_that_runs_out_has_tail_zero():
    assert sum_with_tail_bound([(1.0, math.inf), (2j, 9.0)], tol=1e-3) \
        == (1.0 + 2j, 0.0)
    assert sum_with_tail_bound(iter(()), tol=1e-3) == (0.0, 0.0)


def test_sum_past_max_terms_raises_with_the_partial_sum(monkeypatch):
    monkeypatch.setattr(branch_numerics, "MAX_TERMS", 5)
    bounds = iter([9.0, 8.0, 7.0, 6.0, 5.0, 0.0])
    with pytest.raises(AccuracyError) as exc:
        sum_with_tail_bound(((1.0, b) for b in bounds), tol=1e-3)
    assert exc.value.best == 5.0 and exc.value.bound == 5.0
    assert next(bounds) == 0.0  # the pair past the cap is never drawn
