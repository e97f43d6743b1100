"""Survey ``numeric_transport`` over the first N `transport` cases of some
seeds.

    python tools/transport_survey.py [--n 96] [--seeds 1,2,3] [--against OTHER_SRC]

Runs ``deformed_polylog.numeric_transport`` of this checkout's ``src``, in
process, on ``bench/workloads.transport_cases`` and prints, per m and
stratum of c, the cases, the refusals, the worst ``bench/oracle``
``rho_error`` against the closed-form ``rho`` of the same checkout, split
into the lead row (row 0, the continued lead solution) and the log rows
(rows 1..m, the continued z^{1-c} (log z)^j / j!), each over
max(1, max |rho|) as ``rho_error`` takes it, and the seconds spent inside
``numeric_transport`` (wall clock, imports and ``rho`` excluded), the
median of 5 passes.  The last line of a survey without --against gives
the worst of each row split over all cases.  --against surveys a second
checkout's ``src`` as well, 5 passes each, alternating which checkout
goes first, and prints the worst entry difference between the two
checkouts' matrices, over max(1, max |entry|) of this checkout's matrix.
It then races the two on the package loops: both checkouts run
alternating blocks of BLOCK cases, the side that goes first flipping
from block to block, so that drift in the machine's speed falls on both
alike.  That race runs three times, this checkout first on the even
blocks of the first and third and the other on those of the second; a
line per race gives the time ratio OTHER / this and the blocks each side
won, and per m and stratum, and over all cases, the median ratio of the
three races is printed with their least and greatest.  A value above 1
means this checkout is faster.  --against then races both checkouts in
passes, as above, on UNSEEN seeded random loops, alternately around 0
and around 1, one transport each, with each checkout's step-record
cache cleared before each pass, so that every Taylor step misses its
record: the `unseen` line gives the worst entry difference, each
checkout's worst lead-row and log-row ``rho_error`` (the loops are
homotopic to the package's, so ``rho`` of their generator is the
reference), the refusals that differ and the time ratio OTHER / this on
those loops.  Before it,
the `extreme` line runs the EXTREME cases on ``z0_loop()``, one pass per
checkout: orders m up to 172 and values of c where the start frame is
degenerate or past double range, which the `transport` cases (m <= 3)
never reach.  It gives the worst entry difference where both checkouts
return, the number of outcomes that differ and the time ratio OTHER /
this; a line below it gives each checkout's worst lead-row and log-row
``rho_error`` over the cases that both return, and each differing
outcome follows on a line of its own.
"""
import argparse
import cmath
import importlib
import itertools
import math
import operator
import random
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files beside bench/
sys.path.insert(0, str(ROOT / "bench"))
from workloads import transport_cases  # noqa: E402

PASSES = 5  # timed passes per checkout
BLOCK = 16  # cases per timed block of the package-loop race
UNSEEN = 48  # seeded random loops of the --against race
# the extreme probe: the four strata of `transport`, a band of degenerate
# start frames (0.71 - 0.3i), log solutions that swing (0.5 - 8i, and
# -999.5, refused within a few steps) or pass double range (+-250i), c next
# to Z<=0, and the surveyed rationals
EXTREME_C = (0.3 + 0.2j, Fraction(2, 7), 0, 2, 0.5, Fraction(1, 6),
             0.71 - 0.3j, 0.5 - 8j, 0.5 + 8j, 250j, -250j, 0.3 - 250j, 1e-9,
             -1 + 1e-10, -3, 5.5, 7, Fraction(-37, 2), Fraction(-13, 2),
             0.1114 + 0.4989j, 0.5 - 0.4j, 3 + 2j, -999.5)
EXTREME = [(m, c, "Z0") for m in (*range(1, 9), 12, 19, 20, 30, 39, 47, 60,
                                  80, 120, 171, 172) for c in EXTREME_C]


def stratum(c):
    if isinstance(c, complex):
        return "regular"
    if isinstance(c, Fraction):
        return "rational"
    return "singular" if c == 0 else "removable"


def load(src):
    """(deformed_polylog, errors) of the lerchkit under src.  Modules
    loaded earlier from another src stay usable through their own
    references."""
    for name in [m for m in sys.modules if m.split(".")[0] == "lerchkit"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    mods = [importlib.import_module("lerchkit." + m)
            for m in ("deformed_polylog", "errors")]
    del sys.path[0]
    return mods


def row_errors(got, want):
    """(lead row, log rows) parts of ``bench/oracle.rho_error``: the
    largest entry distance in row 0 and in rows 1..m, each over
    max(1, max |want|)."""
    scale = max(1.0, max(abs(x) for row in want for x in row))
    lead, logs = (max(abs(a - b) for ra, rb in zip(got[rows], want[rows])
                      for a, b in zip(ra, rb)) / scale
                  for rows in (slice(0, 1), slice(1, None)))
    return lead, logs


def random_loop(rng, around):
    """A polyline from -1 once counterclockwise around `around` (0 or 1)
    through 6 to 10 jittered vertices at radius 0.35 to 0.6 from it, so
    never within 0.2 of 0 or 1; the loop around 1 reaches its ring along
    a corridor at height 0.5 to 0.8.  Homotopic to the package's loop."""
    k = rng.randint(6, 10)
    start = math.pi if around == 0 else math.pi / 2.0
    ring = [around + cmath.rect(rng.uniform(0.35, 0.6), start + 2.0 * math.pi
                                * (i + rng.uniform(-0.3, 0.3)) / k)
            for i in range(k)]
    corridor = [] if around == 0 else [complex(-1.0, rng.uniform(0.5, 0.8))]
    return [-1.0 + 0j] + corridor + ring + [ring[0]] + corridor + [-1.0 + 0j]


def unseen_cases():
    """UNSEEN (m, c, generator, loop) cases on fresh seeded random loops,
    alternately around 0 and 1, with m = 1, 2, 3 in turn and c cycling
    through one value per stratum."""
    rng = random.Random(35)
    strata = (0.3 + 0.2j, Fraction(2, 7), 0, 2)
    return [(1 + i % 3, strata[i // 2 % 4], "Z%d" % (i % 2),
             random_loop(rng, i % 2)) for i in range(UNSEEN)]


def clear_caches(dp):
    """Empty the checkout's step-record cache, where it has one.  The
    module's one other cache, ``_crvz_weights``, depends on no path and
    stays filled."""
    record = getattr(dp, "_step_record", None)
    if record is not None:
        record.cache_clear()


def cache_counts(dp):
    """(hits, misses) of the checkout's step-record cache, or None for a
    checkout without one."""
    record = getattr(dp, "_step_record", None)
    if record is None:
        return None
    info = record.cache_info()
    return info.hits, info.misses


def survey(mods, cases):
    """[(case, matrix rows or error text, (lead, log) rho_error parts or
    None, seconds, (step-record hits, misses) or None)] for cases
    (m, c, generator) on the package's loops or (m, c, generator, loop)."""
    dp, errors = mods
    rows = []
    for case in cases:
        m, c, gen = case[:3]
        loop = (case[3] if len(case) > 3
                else dp.z0_loop() if gen == "Z0" else dp.z1_loop())
        before = cache_counts(dp)
        t0 = time.perf_counter()
        try:
            got = dp.numeric_transport(m, c, loop)
        except errors.LerchError as e:
            got = "%s: %s" % (type(e).__name__, e)
        seconds = time.perf_counter() - t0
        after = cache_counts(dp)
        steps = (None if after is None
                 else tuple(map(operator.sub, after, before)))
        if isinstance(got, str):
            rows.append((case, got, None, seconds, steps))
            continue
        got = got.rows
        err = row_errors(got, dp.rho(gen, m, c).rows)
        rows.append((case, got, err, seconds, steps))
    return rows


def race(mods, cases, fresh=False):
    """Per checkout, the survey rows of PASSES passes over the cases,
    alternating which checkout goes first; fresh clears each checkout's
    caches before each of its passes."""
    passes = [[] for _ in mods]
    for i in range(PASSES):
        for j in (range(len(mods)) if i % 2 == 0
                  else reversed(range(len(mods)))):
            if fresh:
                clear_caches(mods[j][0])
            passes[j].append(survey(mods[j], cases))
    return passes


def block_race(mods, cases, first):
    """(per checkout, seconds per (m, stratum) key; blocks each checkout
    won) over cases timed on alternating blocks of BLOCK cases, checkout
    `first` first on even blocks and second on odd ones."""
    seconds, won = [defaultdict(float) for _ in mods], [0, 0]
    for b in range(0, len(cases), BLOCK):
        spent = [0.0, 0.0]
        for k in ((first, 1 - first) if b // BLOCK % 2 == 0
                  else (1 - first, first)):
            for row in survey(mods[k], cases[b:b + BLOCK]):
                seconds[k][row[0][0], stratum(row[0][1])] += row[3]
                spent[k] += row[3]
        won[spent[1] < spent[0]] += 1
    return seconds, won


def difference(rows, other):
    """(worst entry difference over max(1, max |entry|) of rows, the case
    where it lies, refusals that differ) between two checkouts' rows."""
    worst, where, differ = 0.0, None, 0
    for a, b in zip(rows, other):
        if isinstance(a[1], str) or isinstance(b[1], str):
            differ += a[1] != b[1]
            continue
        scale = max(1.0, max(abs(x) for row in a[1] for x in row))
        diff = max(abs(x - y) for ra, rb in zip(a[1], b[1])
                   for x, y in zip(ra, rb)) / scale
        if diff > worst:
            worst, where = diff, a[0][:3]
    return worst, where, differ


def show(label, ratios):
    print("  %-13s %.2f [%.2f, %.2f]"
          % (label, statistics.median(ratios), min(ratios), max(ratios)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=96)
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--against")
    args = ap.parse_args()
    cases = [case for seed in args.seeds.split(",")
             for case in itertools.islice(transport_cases(int(seed)), args.n)]
    srcs = [ROOT / "src"] + ([args.against] if args.against else [])
    mods = [load(src) for src in srcs]
    passes = race(mods, cases)
    keys = sorted({(case[0], stratum(case[1])) for case in cases})

    def worst_rows(errs):
        return (max((e[0] for e in errs), default=0.0),
                max((e[1] for e in errs), default=0.0))

    def seconds(rows):
        per_key = dict.fromkeys(keys, 0.0)
        for r in rows:
            per_key[r[0][0], stratum(r[0][1])] += r[3]
        return per_key

    def record_share(counts):
        if None in counts:
            return ""
        hits, misses = map(sum, zip(*counts))
        return "  %5d steps %5.1f%% cached" % (
            hits + misses, 100.0 * hits / max(1, hits + misses))

    # per checkout, per pass: seconds per key
    secs = [[seconds(rows) for rows in runs] for runs in passes]
    for src, runs, per_pass in zip(srcs, passes, secs):
        rows = runs[0]
        print("%s: %d cases, %.3f s (median of %d passes)"
              % (src, len(rows),
                 statistics.median(sum(p.values()) for p in per_pass),
                 PASSES))
        for key in keys:
            mine = [r for r in rows if (r[0][0], stratum(r[0][1])) == key]
            errs = [r[2] for r in mine if r[2] is not None]
            print("  m=%d %-9s %4d cases %3d refused  worst rho_error "
                  "lead %.3g logs %.3g  %.3f s%s"
                  % (*key, len(mine), len(mine) - len(errs),
                     *worst_rows(errs),
                     statistics.median(p[key] for p in per_pass),
                     record_share([r[4] for r in mine])))
        errs = [r[2] for r in rows if r[2] is not None]
        print("  worst rho_error over %d cases, %d refused: lead row %.3g, "
              "log rows %.3g" % (len(rows), len(rows) - len(errs),
                                 *worst_rows(errs)))
    if args.against:
        print("worst entry difference %.3g (m, c, loop = %r); "
              "%d refusals differ" % difference(passes[0][0], passes[1][0]))
        print("time ratio %s / %s on alternating blocks of %d cases:"
              % (srcs[1], srcs[0], BLOCK))
        races = []
        for first in (0, 1, 0):
            (mine, theirs), won = block_race(mods, cases, first)
            races.append((mine, theirs))
            print("  race, %s first on even blocks: ratio %.3f, blocks won "
                  "%d (this) to %d (other)"
                  % (("this", "other")[first],
                     sum(theirs.values()) / sum(mine.values()), *won))
        print("median [least, greatest] of the 3 races:")
        for key in keys:
            show("m=%d %s" % key, [o[key] / t[key] for t, o in races])
        show("all", [sum(o.values()) / sum(t.values()) for t, o in races])
        extreme = [survey(mod, EXTREME) for mod in mods]
        print("extreme: %d cases on z0_loop(), m up to %d, one pass each: "
              "worst entry difference %.3g (m, c, loop = %r); %d outcomes "
              "differ; time ratio %.2f"
              % (len(EXTREME), EXTREME[-1][0], *difference(*extreme),
                 sum(r[3] for r in extreme[1])
                 / sum(r[3] for r in extreme[0])))
        both = [(a[2], b[2]) for a, b in zip(*extreme)
                if a[2] is not None and b[2] is not None]
        (lead, logs), (o_lead, o_logs) = (
            worst_rows([errs[k] for errs in both]) for k in (0, 1))
        print("  worst rho_error where both return (%d cases), this / "
              "other: lead row %.3g / %.3g, log rows %.3g / %.3g"
              % (len(both), lead, o_lead, logs, o_logs))
        for a, b in zip(*extreme):
            outcomes = [r[1] if isinstance(r[1], str) else "returns"
                        for r in (a, b)]
            if outcomes[0] != outcomes[1]:
                print("  m=%d c=%r: %s / %s" % (*a[0][:2], *outcomes))
        unseen = race(mods, unseen_cases(), fresh=True)
        worst, where, differ = difference(unseen[0][0], unseen[1][0])
        (lead, logs), (o_lead, o_logs) = (
            worst_rows([r[2] for r in runs[0] if r[2] is not None])
            for runs in unseen)
        print("unseen: %d random loops, caches cleared before each pass: "
              "worst entry difference %.3g (m, c, loop = %r); worst "
              "rho_error this / other: lead row %.3g / %.3g, log rows "
              "%.3g / %.3g; %d refusals differ"
              % (UNSEEN, worst, where, lead, o_lead, logs, o_logs, differ))
        show("unseen", [sum(r[3] for r in o) / sum(r[3] for r in t)
                        for t, o in zip(*unseen)])


if __name__ == "__main__":
    main()
