"""Tests of the benchmark's own parts: the seeded generators, the
references, the span analysis and the tracer.

    python3 -m pytest bench/tests -q
"""

import cmath
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import islice

import mpmath
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def take(stream, n):
    return list(islice(stream, n))


GENERATORS = {
    "box": lambda seed: take(workloads.box_points(seed), 300),
    "disk": lambda seed: take(workloads.disk_points(seed), 300),
    "transport": lambda seed: take(workloads.transport_cases(seed), 800),
    "session": workloads.session_script,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(name):
    make = GENERATORS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_too_close_sees_every_stratum_and_the_cut():
    assert workloads.too_close(1e-7j, 2)                 # z = 0
    assert workloads.too_close(1 + 1e-7, 2)              # z = 1
    assert workloads.too_close(3 + 1e-7j, 2)             # cut [1, oo)
    assert workloads.too_close(0.5, -3 + 1e-7j)          # c = -3
    assert workloads.too_close(0.5, 1e-7)                # c = 0
    assert not workloads.too_close(0.5, 1 + 1e-7)        # c = 1 is regular
    assert not workloads.too_close(-3 + 1e-7j, 0.5)      # z < 0 is off the cut


def test_box_points_fill_the_box_in_balanced_blocks():
    pts = take(workloads.box_points(3), 2 * workloads.BOX_BLOCK)
    for s, z, c, band in pts:
        s = complex(s)
        lo, hi = workloads.BOX_BANDS[band]
        assert -6 <= s.real <= 8 and abs(s.imag) <= 15
        assert lo <= abs(z) <= hi
        assert -4 <= c.real <= 6 and abs(c.imag) <= 3
        assert not workloads.too_close(z, c)
    block = pts[:workloads.BOX_BLOCK]
    for band in range(3):
        in_band = [p for p in block if p[3] == band]
        assert len(in_band) == workloads.BOX_BLOCK // 3
        assert sum(isinstance(p[0], complex) for p in in_band) == len(in_band) // 3


def test_disk_points_stay_in_the_series_region():
    pts = take(workloads.disk_points(5), 500)
    for s, z, c, exact in pts:
        assert abs(complex(z)) <= 0.75 and complex(c).real > 0
        assert not workloads.too_close(z, c)
        if exact:
            assert isinstance(s, int) and s <= 0
            assert isinstance(z, Fraction) and isinstance(c, Fraction)
    assert sum(p[3] for p in pts) == len(pts) // 5


def test_transport_cases_cover_every_stratum():
    cases = take(workloads.transport_cases(2), 384)
    assert {m for m, _, _ in cases} == {1, 2, 3}
    assert {g for _, _, g in cases} == {"Z0", "Z1"}
    kinds = {type(c).__name__ if c != 0 else "zero" for _, c, _ in cases}
    assert kinds == {"complex", "Fraction", "zero", "int"}
    # the next round draws new regular values of c
    later = take(workloads.transport_cases(2), 768)[384:]
    assert ({c for _, c, _ in cases if isinstance(c, complex)}
            .isdisjoint(c for _, c, _ in later if isinstance(c, complex)))


def test_float_points_do_not_repeat():
    for stream in (workloads.box_points(4), workloads.disk_points(4)):
        pts = [p[:3] for p in take(stream, 20000)
               if not isinstance(p[1], Fraction)]
        assert len(set(pts)) == len(pts)


def test_session_numbers_parse_back():
    from lerchkit.cli import parse_number
    for x in (0.25, -1.5 + 2e-7j, 3 - 0.5j, Fraction(-3, 7), -4):
        text = workloads._num(x)
        assert parse_number(text)[0] == x


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_oracle_known_values():
    li2_half = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
    assert oracle.phi_oracle(2, 0.5, 1) == pytest.approx(2 * li2_half,
                                                         rel=1e-15)
    for z, c in ((0.3 + 0.4j, 1.7 - 0.2j), (-0.9, 0.25), (0.98j, -2.5 + 1j)):
        assert oracle.phi_oracle(0, z, c) == pytest.approx(1 / (1 - z),
                                                           rel=1e-14)


def test_oracle_keeps_to_its_domain():
    with pytest.raises(oracle.OracleError):
        oracle.phi_oracle(2, 0.995, 1)
    with pytest.raises(oracle.OracleError):
        oracle.phi_oracle(2, 0.5, -3 + 1e-8)


def test_oracle_principal_branch_at_negative_c():
    # n + c < 0 for n = 0, 1: the power takes log|n + c| + i pi
    s, z, c = 0.5, 0.3, -1.5
    want = sum(z ** n * cmath.exp(-s * complex(math.log(abs(n + c)),
                                               math.pi if n + c < 0 else 0))
               for n in range(200))
    assert oracle.phi_oracle(s, z, c) == pytest.approx(want, rel=1e-14)


def test_periodic_zeta_oracle_matches_the_defining_sum():
    a = Fraction(1, 3)
    for s in (2.5, 3.2):
        direct = complex(mpmath.nsum(
            lambda n: mpmath.exp(2j * mpmath.pi * n / 3) * n ** -s,
            [1, mpmath.inf]))
        assert oracle.periodic_zeta_oracle(a, s) == pytest.approx(direct,
                                                                  rel=1e-12)
    with pytest.raises(oracle.OracleError):
        oracle.periodic_zeta_oracle(a, 2.0)


def test_estimate_and_wrong_value_rules():
    assert not oracle.bad_estimate(1.0 + 1e-13, 2e-13, 1.0)
    assert oracle.bad_estimate(1.0 + 1e-13, 1e-14, 1.0)
    assert not oracle.is_wrong(1.0 + 1e-9, 1.0)
    assert oracle.is_wrong(1.0 + 1e-7, 1.0)


def test_ode_check_accepts_the_library_output():
    from lerchkit import deformed_polylog
    m, c = 3, Fraction(2, 5)
    def pairs(mat):
        return [[[v.real, v.imag] for v in row] for row in mat.tolist()]

    doc = {"rho_Z0": pairs(deformed_polylog.rho("Z0", m, c).entries),
           "rho_Z1": pairs(deformed_polylog.rho("Z1", m, c).entries),
           "class": deformed_polylog.unipotency_class(m, c),
           "coeffs": [{"alpha": list(a.coeffs), "beta": list(b.coeffs)}
                      for a, b in deformed_polylog.weyl_expand(m).entries]}
    checks = run.Checks()
    run._check_ode(checks, doc, m, c)
    assert checks.wrong == 0, checks.errors
    doc["rho_Z1"][0][1] = [0.0, 6.283185307179586]
    run._check_ode(checks, doc, m, c)
    assert checks.wrong == 1


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_on_a_synthetic_tree():
    tree = [
        (0, "root", None, 0.0, 10.0, True),
        (1, "a", 0, 1.0, 3.0, True),
        (2, "b", 0, 2.0, 5.0, False),      # overlaps a
        (3, "a", 0, 7.0, 8.0, True),
        (4, "leaf", 1, 1.5, 2.0, True),
        (5, "b", 0, 9.5, 11.0, True),      # runs past its parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10 - (4 + 1 + 0.5))
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    rows = spans.summarize(tree)
    assert rows["a"]["calls"] == 2
    assert rows["a"]["self_s"] == pytest.approx(2.5)
    assert rows["b"]["fail"] == 1
    assert spans.ancestors(tree)[4] == ("a", "root")


def test_a_span_inside_one_of_the_same_name_is_not_a_call():
    tree = [
        (0, "gamma", None, 0.0, 4.0, True),
        (1, "gamma", 0, 1.0, 3.0, True),    # e.g. the reflection recursion
        (2, "phi", None, 5.0, 9.0, True),
        (3, "shift", 2, 6.0, 8.0, True),
        (4, "phi", 3, 6.5, 7.5, True),      # a re-dispatch is a call
    ]
    rows = spans.summarize(tree)
    assert rows["gamma"]["calls"] == 1
    assert rows["gamma"]["self_s"] == pytest.approx(4.0)
    assert rows["gamma"]["durations"] == [4.0]
    assert rows["phi"]["calls"] == 2


def test_covered_merges_and_clips():
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(2, 4), (3, 6), (8, 12)]) == pytest.approx(6)
    assert spans.covered(5, 6, [(0, 10)]) == pytest.approx(1)


def test_tracer_records_parents_failures_and_keeps():
    tracer = spans.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.span("inner", inner, keep=lambda r: r != 0)
    outer = tracer.span("outer", lambda x: traced_inner(x) + traced_inner(0))
    assert outer(2) == 2
    with pytest.raises(ValueError):
        tracer.span("outer", traced_inner)(-1)
    names = [(s[1], s[5]) for s in tracer.spans]
    assert names == [("inner", True), ("outer", True), ("inner", False),
                     ("outer", False)]
    by_id = {s[0]: s for s in tracer.spans}
    assert by_id[tracer.spans[0][2]][1] == "outer"


POINTS = [
    (2.0, 0.5 + 0.1j, 1.3),             # series
    (1.5, 0.9 - 0.3j, 0.4 + 0.2j),      # integral
    (1.5, 0.4j, -1.3 + 0.1j),           # c_shift
    (-1.2, 0.9j, 0.3),                  # reflection
    (-3, Fraction(1, 3), Fraction(5, 2)),  # rational
    (3.0 + 12j, 40.0 + 2j, 0.5 + 2.9j),     # quadrature gives up
]


def _outcomes():
    from lerchkit import eval_core
    out = []
    for s, z, c in POINTS:
        try:
            out.append(eval_core.phi(s, z, c))
        except Exception as exc:
            out.append((type(exc), str(exc)))
    return out


def test_traced_values_equal_untraced_values():
    from lerchkit import eval_core, verify
    original = eval_core.phi
    plain = _outcomes()
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        assert verify.phi is not original       # callers see the wrapper
        traced = _outcomes()
    finally:
        tracer.uninstall()
    assert eval_core.phi is original and verify.phi is original
    assert traced == plain
    rows = spans.summarize(tracer.spans)
    for route in ("series", "integral", "c_shift", "reflection", "rational"):
        assert rows["eval_core." + route]["calls"] >= 1
    # one exact evaluation is one call of the exact path
    assert rows["special_values.exact"]["calls"] == 1
    assert rows["branch_numerics.quad"]["fail"] >= 1
    assert tracer.counts["branch_numerics.quad.integrand_evals"] > 0
    assert tracer.counts["branch_numerics.quad.wasted_evals"] > 0
    assert tracer.counts["branch_numerics.tailsum.terms"] > 0


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

class _NoSetup:
    def probe_if_due(self):
        return 0.0


def _loop_over(points, refusals_ok):
    from lerchkit.errors import AccuracyError

    def op(point):
        if point < 0:
            raise AccuracyError("refused")
        return point

    return run.library_loop(op, iter(points), 0.05, run.Speed(), _NoSetup(),
                            refusals_ok)


def test_accuracy_error_is_a_failure_except_where_refusals_are_allowed():
    points = [1, -1, 2] * 100000
    strict = _loop_over(points, refusals_ok=False)
    assert strict.failed > 0 and strict.refused == 0
    lenient = _loop_over(points, refusals_ok=True)
    assert lenient.failed == 0 and lenient.refused > 0
    assert lenient.attempted >= run.KEEP          # however short the run
    assert lenient.first_ok == sum(i % 3 != 1 for i in range(run.KEEP))
    assert lenient.outcomes[0] == (1, 1)


def test_quantile_interpolates():
    assert run.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert run.quantile([5.0], 0.95) == 5.0


def test_refuses_to_run_without_the_sources():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "disk", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip()
                   else "")


def test_samples_keep_a_uniform_sample_in_fixed_memory(monkeypatch):
    monkeypatch.setattr(run.Samples, "CAP", 64)
    samples = run.Samples()
    for x in range(6400):
        samples.add(float(x % 2))     # a stream with period 2
    assert samples.seen == 6400 and len(samples.values) == 64
    assert samples.total == 3200
    assert 16 < sum(samples.values) < 48
    assert samples.quantile(0.0) == 0.0 and samples.quantile(1.0) == 1.0


def test_samples_geometric_mean_covers_every_value(monkeypatch):
    monkeypatch.setattr(run.Samples, "CAP", 4)
    samples = run.Samples()
    assert samples.gmean() == 0.0
    for x in (1.0, 4.0, 2.0, 8.0, 0.5, 1.0, 16.0, 0.25):
        samples.add(x)
    assert samples.gmean() == pytest.approx(2 ** 0.875)   # 128 ** (1/8)
