#!/usr/bin/env python3
"""lerch-kit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload box --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json records why each one is there):

  box        library phi over the whole (s, z, c) parameter box
  disk       library phi inside |z| <= 0.75: series and exact routes only
  session    a fixed script of `python -m lerchkit` commands, one at a time
  transport  numeric_transport around both loops, checked against rho

Every workload is a closed loop with a single caller in one process: the
next operation starts when the previous one has returned.  The inputs
come from --seed alone.

--trace 0 measures the end-to-end metrics for --seconds seconds.
--trace 1 runs a fixed prefix of the same operations twice, untraced and
then traced (spans around every lerchkit layer, see spans.py), checks
that both passes return the same values, and reports the per-layer
metrics.  Either way a table goes to standard output first, and the
last line is one JSON object with the keys correct, attempted, failed
and metrics.  The metric names and units come from BENCHMARK.json.

An operation counts as failed when it raises, returns a value its
reference contradicts, or (session) exits non-zero or prints other
output than the same command printed before.  On `box` alone an
AccuracyError, lerchkit's certified refusal, is counted apart as a
refusal: the share of ops that returned a value is the `ok_share`
metric, so a change that refuses more shows there.
"""

import argparse
import cmath
import csv
import io
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict, deque
from fractions import Fraction
from itertools import count, islice

# No BLAS thread pool, in this process or its children: lerchkit's
# matrices are too small to use one, and starting it at the numpy
# import took 0 or 75 ms depending on the other tenants of the machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402  (standard library only)

WORKLOADS = ("box", "disk", "session", "transport")
SETUP_REPEATS = 11
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60
# results kept for the checks: those of the first KEEP ops, which also
# give ok_share; the library loops run at least KEEP ops, so that
# ok_share depends on the seed and the code, not on the machine's speed
KEEP = 512
# how many ops with a result the oracle checks per run
ORACLE_SUBSET = {"box": 40, "disk": 100}
# operations per second at the first baseline; only used to size the
# traced run's fixed prefix so that its three passes fit in --seconds
TRACE_RATE = {"box": 28.0, "disk": 5000.0, "session": 2.3, "transport": 18.0}

SETUP_PROBE = ("import sys; sys.path[:0] = [%r, %r]; import ops; "
               "ops.warm_up(%r); print('ready', flush=True)")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("LERCH_KIT_TOL", None)
    return env


def quantile(sorted_values, q):
    """Inclusive (linear interpolation) quantile of sorted data."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# The calibration kernel, the reference start and their reference times
# define the speed scale of every reported time; changing any of them
# breaks comparison with earlier runs.
REF_KERNEL_S = 0.0005
# A fresh interpreter importing mpmath, which lerchkit does not use.
REF_PROBE = "import mpmath; print('ready', flush=True)"
REF_START_S = 0.1
RECENT = 6            # samples the current slowness is the median of
SAMPLE_EVERY_S = 0.05  # the library loops run the kernel this often
SAMPLE_EVERY_CMDS = 3  # the session loop samples after every third command


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def _term(n, lz, s, c):
    return cmath.exp(n * lz - s * cmath.log(n + c))


def _kernel():
    """Fixed pure-Python work in the three styles lerchkit's code has:
    complex arithmetic, small objects with dicts and exceptions, and
    generator-driven summation."""
    acc = 0j
    z, s = 0.37 + 0.61j, 1.3 - 0.4j
    for n in range(1, 330):
        w = n + z
        acc += cmath.exp(-s * cmath.log(w)) / (1.0 + abs(w))
    table = {}
    for i in range(200):
        pair = _Pair(str(i), i)
        table[pair.key] = (pair.value, 2 * pair.value)
        if i % 7 == 0:
            try:
                raise ValueError(i)
            except ValueError as exc:
                acc += exc.args[0]
    lz = cmath.log(0.5 + 0.2j)
    for _ in range(2):
        for t in islice((_term(n, lz, s, z) for n in count()), 150):
            acc += t
    return acc + len(table)


def kernel_seconds():
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def start_seconds(code):
    """Wall seconds from starting `python -c code` to its ready line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line != b"ready\n":
        raise RuntimeError("probe %r failed" % code)
    return ready - start


def reference_start_seconds():
    return start_seconds(REF_PROBE)


class Speed:
    """Machine speed, sampled with a fixed piece of work.

    A shared machine can change speed by a factor of two within a minute,
    for every process alike.  So each latency is also reported divided by
    the current slowness: the median time of the last RECENT samples over
    the sample's reference time.  The library workloads sample the
    pure-Python calibration kernel (REF_KERNEL_S); the session, whose
    commands are mostly interpreter start and imports, samples the
    reference start (REF_START_S), because the cost of a process start
    drifts apart from the kernel's.  A calibrated time reads as
    seconds on a machine that takes the reference time for the sample.
    """

    def __init__(self, measure=kernel_seconds, ref_s=REF_KERNEL_S):
        self.measure, self.ref_s = measure, ref_s
        self.samples = []
        self._recent = deque(maxlen=RECENT)
        self.slowness = 1.0
        self._next = 0.0

    def sample(self, times=1):
        for _ in range(times):
            x = self.measure()
            self.samples.append(x)
            self._recent.append(x)
        self.slowness = statistics.median(self._recent) / self.ref_s
        self._next = time.perf_counter() + SAMPLE_EVERY_S

    def sample_if_due(self):
        if time.perf_counter() >= self._next:
            self.sample()


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

class Setup:
    """Set-up time: a fresh interpreter starts, imports lerchkit, runs the
    untimed warm-up and reports ready.  It is probed SETUP_REPEATS times,
    spread evenly over the timed phase, so that the median sees the
    machine in the same states as the operations do.

    On a shared machine the time of a process start moves by a third
    within minutes, and apart from the calibration kernel's time.  So
    each probe is followed by the reference start REF_PROBE, and the
    reported value is the median of
    the probes' wall times each divided by its reference's, times
    REF_START_S: seconds on a machine whose reference start takes
    REF_START_S.  The median wall time is kept as the raw figure."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.every = seconds / SETUP_REPEATS
        self.raw, self.cal = [], []
        self._next = 0.0

    def probe(self):
        """Run one probe; returns the wall time it took."""
        begin = time.perf_counter()
        wall = start_seconds(SETUP_PROBE % (SRC, BENCH, self.workload))
        ref = reference_start_seconds()
        self.raw.append(wall)
        self.cal.append(wall / ref * REF_START_S)
        end = time.perf_counter()
        self._next = end + self.every
        return end - begin

    def probe_if_due(self):
        if len(self.raw) < SETUP_REPEATS and time.perf_counter() >= self._next:
            return self.probe()
        return 0.0

    def result(self):
        """Median (wall, calibrated) seconds, after any probes still due."""
        while len(self.raw) < SETUP_REPEATS:
            self.probe()
        return statistics.median(self.raw), statistics.median(self.cal)


# ---------------------------------------------------------------------------
# timed loops
# ---------------------------------------------------------------------------

class Samples:
    """Latencies in fixed, preallocated memory, so that the harness adds
    the same to the peak RSS at any throughput: a uniform random sample
    of CAP values (reservoir sampling, fixed seed).  A systematic
    subsample would follow the periodic structure of the inputs.  The
    sum and the sum of logarithms cover every value."""

    CAP = 1 << 15

    def __init__(self):
        self.values = array("d", bytes(8 * self.CAP))
        self.seen = 0
        self.total = 0.0
        self.log_total = 0.0
        self._rng = random.Random(0)

    def add(self, x):
        self.total += x
        self.log_total += math.log(max(x, 1e-9))
        if self.seen < self.CAP:
            self.values[self.seen] = x
        else:
            j = self._rng.randrange(self.seen + 1)
            if j < self.CAP:
                self.values[j] = x
        self.seen += 1

    def quantile(self, q):
        return quantile(sorted(self.values[:min(self.seen, self.CAP)]), q)

    def gmean(self):
        """Geometric mean of every value (0.0 when there is none)."""
        return math.exp(self.log_total / self.seen) if self.seen else 0.0


class Timed:
    """What one timed phase did."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.first_ok = 0     # ops of the first KEEP that returned a value
        self.elapsed = 0.0
        # raw and calibrated seconds of the ops that returned / raised
        self.ok, self.ok_raw = Samples(), Samples()
        self.bad, self.bad_raw = Samples(), Samples()
        self.outcomes = {}    # op index -> (input, result), first KEEP ops
        self.errors = []      # first few failure messages
        self.peak_rss_mb = 0.0

    def add(self, ok, seconds, speed):
        if self.ok.seen + self.bad.seen < KEEP:
            self.first_ok += ok
        (self.ok_raw if ok else self.bad_raw).add(seconds)
        (self.ok if ok else self.bad).add(seconds / speed.slowness)

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def library_loop(op, items, seconds, speed, setup, refusals_ok):
    """Call op on fresh inputs from the iterator `items` for `seconds` of
    operations, and at least KEEP times.  An AccuracyError is a refusal
    if refusals_ok, else a failure."""
    from lerchkit.errors import AccuracyError

    run = Timed()
    clock = time.perf_counter
    i = 0
    speed.sample(RECENT)
    start = end = clock()
    deadline = start + seconds
    while end < deadline or i < KEEP:
        item = next(items)
        t0 = clock()
        try:
            result = op(item)
        except AccuracyError as exc:
            end = clock()
            result = exc
            run.add(False, end - t0, speed)
            if refusals_ok:
                run.refused += 1
            else:
                run.fail("op %d: %s: %s" % (i, type(exc).__name__, exc))
        except Exception as exc:  # counted and reported, the loop goes on
            end = clock()
            result = exc
            run.add(False, end - t0, speed)
            run.fail("op %d: %s: %s" % (i, type(exc).__name__, exc))
        else:
            end = clock()
            run.add(True, end - t0, speed)
        if i < KEEP:
            run.outcomes[i] = (item, result)
        i += 1
        speed.sample_if_due()
        deadline += setup.probe_if_due()
    run.attempted = i
    run.elapsed = end - start
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def cli_command(item, spans_file=None):
    if spans_file is None:
        head = [sys.executable, "-m", "lerchkit"]
    else:
        head = [sys.executable, os.path.join(BENCH, "cli_child.py"), spans_file]
    return head + item["argv"]


def session_loop(script, speed, seconds=None, rounds=None, trace_dir=None,
                 setup=None):
    """Run the script's commands one at a time, cycling, for `seconds` of
    commands (or for a fixed number of rounds).  Only whole rounds are
    run, so that every command has the same share of the samples."""
    run = Timed()
    speed.sample(RECENT)
    env = child_env()
    clock = time.perf_counter
    n = len(script)
    limit = None if rounds is None else rounds * n
    i = 0
    start = end = clock()
    deadline = start + (seconds if seconds is not None else math.inf)
    while (end < deadline or i % n) and (limit is None or i < limit):
        item = script[i % n]
        spans_file = (None if trace_dir is None
                      else os.path.join(trace_dir, "%d.json" % i))
        t0 = clock()
        proc = subprocess.run(cli_command(item, spans_file), env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        end = clock()
        if proc.returncode != 0:
            run.add(False, end - t0, speed)
            run.fail("%s: exit %d: %s" % (" ".join(item["argv"]),
                                          proc.returncode, proc.stderr[-300:]))
        elif i % n in run.outcomes and proc.stdout != run.outcomes[i % n][1]:
            run.add(False, end - t0, speed)
            run.fail("%s: output differs from its first run"
                     % " ".join(item["argv"]))
        else:
            run.add(True, end - t0, speed)
            run.outcomes.setdefault(i % n, (item, proc.stdout))
        i += 1
        if i % SAMPLE_EVERY_CMDS == 0:
            speed.sample()
        if setup is not None:
            deadline += setup.probe_if_due()
    run.attempted = i
    run.elapsed = end - start
    run.peak_rss_mb = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                       / 1024)
    return run


# ---------------------------------------------------------------------------
# correctness checks (after the timed phase)
# ---------------------------------------------------------------------------

class Checks:
    """Comparisons against a reference."""

    def __init__(self):
        self.checked = 0     # values compared with a reference
        self.estimated = 0   # of those, values that carry an error estimate
        self.bad_estimate = 0
        self.wrong = 0
        self.max_rel_err = 0.0
        self.skipped = 0     # outside the oracle's trusted domain
        self.refused_rows = 0  # sweep rows that hold an AccuracyError
        self.errors = []

    def add(self, value, ref, estimate=None, what=""):
        import oracle
        self.checked += 1
        self.max_rel_err = max(self.max_rel_err, oracle.rel_err(value, ref))
        if estimate is not None:
            self.estimated += 1
            if oracle.bad_estimate(value, estimate, ref):
                self.bad_estimate += 1
        if oracle.is_wrong(value, ref):
            self.error("%s: %r, reference %r" % (what, value, ref))

    def error(self, message):
        self.wrong += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def check_phi(outcomes, limit):
    """Oracle check of the first `limit` results inside its domain."""
    import oracle
    checks = Checks()
    for i in sorted(outcomes):
        point, result = outcomes[i]
        if checks.checked >= limit:
            break
        if isinstance(result, Exception) or not oracle.in_domain(point[1]):
            continue
        s, z, c = point[:3]
        try:
            ref = oracle.phi_oracle(s, z, c)
        except oracle.OracleError:
            checks.skipped += 1
            continue
        checks.add(result.value, ref, result.error_estimate,
                   "phi(%r, %r, %r)" % (s, z, c))
    return checks


def check_transport(outcomes):
    import oracle
    from lerchkit import deformed_polylog
    checks = Checks()
    for _i, ((m, c, gen), result) in sorted(outcomes.items()):
        if isinstance(result, Exception):
            continue
        err = oracle.rho_error(result.entries,
                               deformed_polylog.rho(gen, m, c).entries)
        checks.checked += 1
        checks.max_rel_err = max(checks.max_rel_err, err)
        if err > oracle.TRANSPORT_TOL:
            checks.error("transport m=%d c=%r %s: %.3g from rho"
                         % (m, c, gen, err))
    return checks


def check_session(outputs):
    """Check the first output of every command in the script."""
    import oracle
    checks = Checks()
    for _idx, (item, stdout) in sorted(outputs.items()):
        kind, point = item["kind"], item["point"]
        try:
            if kind == "eval":
                doc = json.loads(stdout)
                checks.add(complex(*doc["value"]), oracle.phi_oracle(*point),
                           doc["error_estimate"], "eval %r" % (point,))
            elif kind == "monodromy":
                doc = json.loads(stdout)
                base, mono = complex(*doc["base"]), complex(*doc["monodromy"])
                checks.add(base, oracle.phi_oracle(*point), None,
                           "monodromy base %r" % (point,))
                if abs(complex(*doc["value"]) - base - mono) > 1e-12 * max(
                        1.0, abs(base)) or not doc["contributions"]:
                    checks.error("monodromy ledger does not add up")
            elif kind == "special":
                doc = json.loads(stdout)
                _m, z, c = point
                li = Fraction(doc["li"])
                checks.add(complex(li), complex(z) * oracle.phi_oracle(-12, z, c),
                           None, "special Li_-12(%s, %s)" % (z, c))
                if sum(doc["r"]) != math.factorial(12):
                    checks.error("special: r_12(1) != 12!")
            elif kind == "ode":
                _check_ode(checks, json.loads(stdout), *point)
            elif kind == "sweep":
                rows = list(csv.DictReader(io.StringIO(stdout)))
                refused = [r for r in rows
                           if r["error"].startswith("AccuracyError")]
                checks.refused_rows += len(refused)
                if not rows or any(r["error"] and r not in refused for r in rows):
                    checks.error("sweep %s: missing or failed rows"
                                 % " ".join(item["argv"]))
                for r in rows:
                    if r["error"]:
                        continue
                    value = complex(float(r["value_re"]), float(r["value_im"]))
                    est = float(r["error_estimate"])
                    if point[1] is None:     # phi over a z grid
                        z = complex(float(r["z_re"]), float(r["z_im"]))
                        checks.add(value, oracle.phi_oracle(point[0], z, point[2]),
                                   est, "sweep phi z=%r" % z)
                    else:                    # periodic zeta over an s grid
                        s = complex(float(r["s_re"]), float(r["s_im"]))
                        checks.add(value, oracle.periodic_zeta_oracle(point[1], s),
                                   est, "sweep periodic_zeta s=%r" % s)
            elif kind == "verify":
                last = stdout.strip().splitlines()[-1]
                got = re.fullmatch(r"suite all: (\d+)/(\d+) passed", last)
                if not got or got.group(1) != got.group(2) or got.group(2) == "0":
                    checks.error("verify: %s" % last)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            checks.error("%s output unreadable: %s" % (kind, exc))
        except oracle.OracleError:
            checks.skipped += 1
    return checks


def _check_ode(checks, doc, m, c):
    """rho(Z0), rho(Z1) and the class of a regular rational c, rebuilt
    from their closed forms."""
    n = m + 1
    w = 2j * math.pi
    phase = complex(math.cos(-2 * math.pi * c), math.sin(-2 * math.pi * c))
    z0 = [[0j] * n for _ in range(n)]
    z0[0][0] = 1
    for i in range(1, n):
        for j in range(i, n):
            z0[i][j] = phase * w ** (j - i) / math.factorial(j - i)
    z1 = [[complex(i == j) for j in range(n)] for i in range(n)]
    z1[0][1] = -w
    for name, want in (("rho_Z0", z0), ("rho_Z1", z1)):
        got = doc[name]
        err = max(abs(complex(*got[i][j]) - want[i][j])
                  for i in range(n) for j in range(n))
        if err > 1e-12 * (2 * math.pi) ** m:
            checks.error("ode %s off by %.3g" % (name, err))
    top = doc["coeffs"][m + 1]   # (1 - z) z^(m+1): alpha = -1, beta = 1
    if len(doc["coeffs"]) != m + 2 or top["alpha"] != [-1] or top["beta"] != [1]:
        checks.error("ode: top operator coefficient is not (1 - z) z^%d" % (m + 1))
    want_class = "unipotent" if Fraction(c).denominator == 1 else "quasi-unipotent"
    if doc["class"] != want_class:
        checks.error("ode class %s, want %s" % (doc["class"], want_class))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs, the operation and its checks for one workload.  `items` is
    an endless iterator of fresh inputs, or the session's script."""

    def __init__(self, name, seed):
        self.name = name
        # only box reaches points where lerchkit may refuse at seed
        self.refusals_ok = name == "box"
        if name == "box":
            self.items = workloads.box_points(seed)
        elif name == "disk":
            self.items = workloads.disk_points(seed)
        elif name == "transport":
            self.items = workloads.transport_cases(seed)
        else:
            self.items = workloads.session_script(seed)

    def speed(self):
        if self.name == "session":
            return Speed(reference_start_seconds, REF_START_S)
        return Speed()

    def op(self):
        import ops
        return ops.transport_op if self.name == "transport" else ops.phi_op

    def timed(self, seconds, speed, setup):
        if self.name == "session":
            return session_loop(self.items, speed, seconds=seconds, setup=setup)
        return library_loop(self.op(), self.items, seconds, speed, setup,
                            self.refusals_ok)

    def check(self, outcomes):
        if self.name == "session":
            return check_session(outcomes)
        if self.name == "transport":
            return check_transport(outcomes)
        return check_phi(outcomes, ORACLE_SUBSET[self.name])


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(wl, seconds):
    speed = wl.speed()
    setup = Setup(wl.name, seconds)
    import ops
    ops.warm_up(wl.name)
    run = wl.timed(seconds, speed, setup)
    setup_raw, setup_s = setup.result()
    checks = wl.check(run.outcomes)
    ok, bad = run.ok, run.bad
    if not ok.seen:
        run.fail("no operation returned a value")
    busy = ok.total + bad.total
    first = min(KEEP, ok.seen + bad.seen)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": run.attempted / busy,
        "ok_gmean_ms": ok.gmean() * 1e3,
        "ok_share": run.first_ok / first,
        "peak_rss_mb": run.peak_rss_mb,
    }
    n_bad = run.refused + run.failed
    table = [
        ("setup_s", setup_s, "s", "median of %d fresh starts during the run, "
         "over a reference start; raw %.4g" % (SETUP_REPEATS, setup_raw)),
        ("ops_per_s", metrics["ops_per_s"], "1/s", "%d ops; raw %.4g"
         % (run.attempted,
            run.attempted / (run.ok_raw.total + run.bad_raw.total))),
        ("ok_gmean_ms", metrics["ok_gmean_ms"], "ms", "n=%d; raw %.4g"
         % (ok.seen, run.ok_raw.gmean() * 1e3)),
        ("ok_p50_ms", ok.quantile(0.5) * 1e3, "ms", "n=%d; raw %.4g"
         % (ok.seen, run.ok_raw.quantile(0.5) * 1e3)),
        ("ok_p95_ms", ok.quantile(0.95) * 1e3, "ms", "n=%d, %d beyond; raw %.4g"
         % (ok.seen, ok.seen - math.ceil(0.95 * ok.seen),
            run.ok_raw.quantile(0.95) * 1e3)),
        ("fail_p50_ms", bad.quantile(0.5) * 1e3 if bad.seen else None, "ms",
         "n=%d; raw %.4g" % (bad.seen, run.bad_raw.quantile(0.5) * 1e3)),
        ("ok_share", metrics["ok_share"], "share",
         "of the first %d ops" % first),
        ("fail_time_share", bad.total / busy, "share",
         "time spent in ops that raised"),
        ("fail_rate", n_bad / run.attempted, "share",
         "%d/%d (%d refused, %d failed)"
         % (n_bad, run.attempted, run.refused, run.failed)),
        ("bad_estimate_rate",
         checks.bad_estimate / checks.estimated if checks.estimated else None,
         "share", "%d/%d checked" % (checks.bad_estimate, checks.estimated)),
        ("max_rel_err", checks.max_rel_err if checks.checked else None, "1",
         "%d checked, %d outside the oracle domain"
         % (checks.checked, checks.skipped)),
        ("peak_rss_mb", run.peak_rss_mb, "MB",
         "children" if wl.name == "session" else "worker"),
        ("slowness", statistics.median(speed.samples) / speed.ref_s, "ratio",
         "machine speed: median %s time over %g s; times above are "
         "divided by it" % ("reference start" if wl.name == "session"
                            else "kernel", speed.ref_s)),
    ]
    if wl.name == "session":
        table.append(("sweep_rows_refused", checks.refused_rows, "count",
                      "AccuracyError rows in the first output of each sweep"))
    return run, checks, metrics, table


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if hasattr(a, "entries"):
        return (a.entries.shape == b.entries.shape
                and bool((a.entries == b.entries).all()))
    return a == b


def _fixed_pass(op, items):
    out = []
    start = time.perf_counter()
    for item in items:
        try:
            out.append(op(item))
        except Exception as exc:  # compared between passes, counted below
            out.append(exc)
    return time.perf_counter() - start, out


def import_seconds():
    """Median cumulative import time of lerchkit and of numpy, from
    `python -X importtime`."""
    found = {"lerchkit": [], "numpy": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import lerchkit"], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {k: statistics.median(v) if v else 0.0 for k, v in found.items()}


def traced(wl, seconds):
    """Untraced, traced and again untraced pass over the same fixed
    prefix of the workload; the traced pass gives the spans, the two
    untraced ones the wall time tracing is compared with."""
    from lerchkit.errors import AccuracyError

    import spans
    n_ops = max(1, int(TRACE_RATE[wl.name] * seconds / 5))
    speed = Speed()
    if wl.name == "session":
        rounds = math.ceil(n_ops / len(wl.items))
        plain = session_loop(wl.items, speed, rounds=rounds)
        trace_dir = os.path.join(OUT, "trace-%d" % os.getpid())
        os.makedirs(trace_dir, exist_ok=True)
        span_sets, counts = [], defaultdict(int)
        try:
            run = session_loop(wl.items, speed, rounds=rounds,
                               trace_dir=trace_dir)
            for name in sorted(os.listdir(trace_dir)):
                with open(os.path.join(trace_dir, name)) as fh:
                    doc = json.load(fh)
                span_sets.append([tuple(s) for s in doc["spans"]])
                for k, v in doc["counts"].items():
                    counts[k] += v
        finally:
            for name in os.listdir(trace_dir):
                os.remove(os.path.join(trace_dir, name))
            os.rmdir(trace_dir)
        again = session_loop(wl.items, speed, rounds=rounds)
        w0, w1 = (plain.elapsed + again.elapsed) / 2, run.elapsed
        mismatches = sum(run.outcomes.get(i) != out
                         for i, out in plain.outcomes.items())
        outcomes = plain.outcomes
        failed = plain.failed + run.failed + again.failed
        run.errors += plain.errors + again.errors
    else:
        import ops
        ops.warm_up(wl.name)
        items = list(islice(wl.items, n_ops))
        op = wl.op()
        w_first, plain = _fixed_pass(op, items)
        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            w1, result = _fixed_pass(op, items)
        finally:
            tracer.uninstall()
        w_again, _ = _fixed_pass(op, items)
        w0 = (w_first + w_again) / 2
        span_sets, counts = [tracer.spans], tracer.counts
        mismatches = sum(not _same(a, b) for a, b in zip(plain, result))
        outcomes = dict(enumerate(zip(items[:KEEP], plain)))
        failed = sum(isinstance(r, Exception) and not (
            wl.refusals_ok and isinstance(r, AccuracyError)) for r in plain)
        run = Timed()
        run.attempted = n_ops
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "spans-%s.json" % wl.name), "w") as fh:
        json.dump({"span_sets": span_sets, "counts": counts}, fh)
        fh.write("\n")
    checks = wl.check(outcomes)
    metrics = layer_metrics(span_sets, counts, run.attempted, w1 / w0,
                            import_seconds())
    run.failed = failed + mismatches
    notes = ["%d ops per pass, untraced %.2f s (mean of two), traced %.2f s, "
             "%d results differ between the passes"
             % (run.attempted, w0, w1, mismatches)]
    return run, checks, metrics, notes


def layer_metrics(span_sets, counts, n_ops, overhead, imports):
    import spans
    rows = defaultdict(lambda: {"calls": 0, "fail": 0, "self_s": 0.0,
                                "durations": []})
    nested = verify_phi = 0
    for span_set in span_sets:
        for name, row in spans.summarize(span_set).items():
            acc = rows[name]
            for key in ("calls", "fail", "self_s"):
                acc[key] += row[key]
            acc["durations"] += row["durations"]
        up = spans.ancestors(span_set)
        for sid, name, *_ in span_set:
            if name != "eval_core.phi":
                continue
            if "eval_core.phi" in up[sid]:
                nested += 1
            elif any(a.startswith("verify.suite.") for a in up[sid]):
                verify_phi += 1

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    def self_s(*names):
        return sum(rows[n]["self_s"] for n in names if n in rows)

    bn, ec = "branch_numerics.", "eval_core."
    evals = counts.get(bn + "quad.integrand_evals", 0)
    m = {
        bn + "quad.calls": calls(bn + "quad"),
        bn + "quad.self_s": self_s(bn + "quad"),
        bn + "quad.integrand_evals": evals,
        bn + "quad.fail": rows[bn + "quad"]["fail"] if bn + "quad" in rows else 0,
        bn + "quad.wasted_evals_share":
            counts.get(bn + "quad.wasted_evals", 0) / evals if evals else 0.0,
        bn + "tailsum.calls": calls(bn + "tailsum"),
        bn + "tailsum.terms": counts.get(bn + "tailsum.terms", 0),
        bn + "tailsum.self_s": self_s(bn + "tailsum"),
        bn + "gamma.calls": calls(bn + "gamma"),
        bn + "gamma.self_s": self_s(bn + "gamma"),
        ec + "phi.calls": calls(ec + "phi"),
        ec + "phi.nested_per_op": nested / n_ops,
        ec + "dispatch.self_s": self_s(ec + "phi"),
    }
    for route in ("series", "integral", "c_shift", "reflection", "rational"):
        m[ec + route + ".calls"] = calls(ec + route)
        m[ec + route + ".self_s"] = self_s(ec + route)
    sv, dp = "special_values.", "deformed_polylog."
    m[sv + "exact.calls"] = calls(sv + "exact")
    m[sv + "exact.self_s"] = self_s(sv + "exact", sv + "exact_build")
    m[sv + "q_ratio.calls"] = counts.get(sv + "q_ratio", 0)
    m[dp + "transport.calls"] = calls(dp + "transport")
    m[dp + "transport.self_s"] = self_s(dp + "transport")
    m[dp + "weyl_expand.self_s"] = self_s(dp + "weyl_expand")
    m[dp + "rho.self_s"] = self_s(dp + "rho")
    m["monodromy.branch_value.calls"] = calls("monodromy.branch_value")
    m["monodromy.branch_value.self_s"] = self_s("monodromy.branch_value")
    for suite in ("ladders", "pde", "commutator", "three_term", "four_term",
                  "spence", "rogers", "monodromy_vanishing"):
        m["verify.suite.%s.self_s" % suite] = self_s("verify.suite." + suite)
    m["verify.phi_calls"] = verify_phi
    m["cli.import_s"] = imports["lerchkit"]
    m["cli.import_numpy_s"] = imports["numpy"]
    for sub in spans.CLI_SUBCOMMANDS:
        durations = rows["cli.cmd." + sub]["durations"] if "cli.cmd." + sub in rows else []
        m["cli.cmd.%s.ms" % sub] = statistics.median(durations) * 1e3 if durations else 0.0
    m["cli.self_s"] = self_s("cli.main", *("cli.cmd." + s for s in spans.CLI_SUBCOMMANDS))
    m["trace.overhead_share"] = overhead
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    if not os.path.isfile(os.path.join(SRC, "lerchkit", "__init__.py")):
        print("bench: no lerchkit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    wl = Workload(args.workload, args.seed)
    if args.trace:
        run, checks, metrics, notes = traced(wl, args.seconds)
        wanted = spec["per_layer"]
        table = [(m["name"], metrics[m["name"]], m["unit"], "") for m in wanted]
    else:
        run, checks, metrics, table = end_to_end(wl, args.seconds)
        wanted = spec["end_to_end"]
        notes = []
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError("metrics not measured: %s" % ", ".join(missing))

    print("workload %s, seed %d, trace %d" % (wl.name, args.seed, args.trace))
    for name, value, unit, note in table:
        shown = "n/a" if value is None else "%.6g" % value
        print("  %-42s %12s %-6s %s" % (name, shown, unit, note))
    for line in notes + run.errors + checks.errors:
        print("  " + line)
    correct = run.failed == 0 and checks.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed + checks.wrong,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
