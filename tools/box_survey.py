"""Survey ``phi`` over the first N points of a library workload, by route.

    python tools/box_survey.py [--workload box|disk] [--n 512] [--seeds 1,2,3]
                               [--against OTHER_SRC]

Calls ``eval_core.phi`` of this checkout's ``src`` at tol = 1e-12, in
process, on ``bench/workloads.box_points`` (or ``disk_points``), and
prints per route (or error type) the points, the inner ``phi`` calls,
the integrand calls and the series terms drawn, then a totals line:
points returned and refused, integrand calls, series terms and wall
seconds, and a line with the bytes that the quadrature's node tables
(``branch_numerics._tables``) hold after the survey, counted deep: each
container, node tuple and float once, an ``array`` with its buffer.
--against surveys a second checkout's ``src`` as well and lists each point
whose outcome differs: value, estimate and method, or error type,
message, ``best`` and ``bound``.  A line counts the changed outcomes
(route or error type), the moved values, with the largest move |v - v'|
as a share of the sum of the two estimates, the values whose estimate
alone moved, and the refusals that differ only in message, ``best`` or
``bound``.  Then both checkouts' ``phi``, without the counting wrappers,
are timed on alternating blocks of 64 points, the side that goes first
flipping from block to block, so that drift in the machine's speed
falls on both alike.  That race runs three times, this checkout first
on the even blocks of the first and third and the other on those of
the second; a line per race gives the ratio of the total times (this
checkout over the other) and the blocks each side won, and a last line
the median of the three ratios.
"""
import argparse
import importlib
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOL = 1e-12
BLOCK = 64  # points per timed block of --against
sys.dont_write_bytecode = True  # leave no cache files beside bench/
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def deep_size(obj, seen=None):
    """Bytes of obj and of everything it holds, each object once:
    ``sys.getsizeof`` over obj and, through tuples, lists and dicts, over
    what they hold (an ``array`` counts with its buffer)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        obj = [x for item in obj.items() for x in item]
    if isinstance(obj, (tuple, list)):
        size += sum(deep_size(x, seen) for x in obj)
    return size


def survey(src, points_of, n, seeds):
    """([(seed, i, outcome, inner phi calls, integrand calls, series
    terms)], phi, LerchError, table bytes) under src: the rows, then the
    unwrapped ``phi`` and the error base class of that checkout, and the
    deep size of its node tables after the survey."""
    for name in [m for m in sys.modules if m.split(".")[0] == "lerchkit"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    ec, errors, bn = (importlib.import_module("lerchkit." + m)
                      for m in ("eval_core", "errors", "branch_numerics"))
    del sys.path[0]
    quad, summed = ec.quad_semiaxis, ec.sum_with_tail_bound
    calls, rows = [0, 0, 0], []

    def counted(fn, k):
        def wrapped(*a, **kw):
            calls[k] += 1
            return fn(*a, **kw)
        return wrapped

    def counted_sum(terms, *a, **kw):
        def drawn():
            for term in terms:
                calls[2] += 1
                yield term
        return summed(drawn(), *a, **kw)
    phi = ec.phi
    ec.phi = counted(phi, 0)
    ec.quad_semiaxis = lambda f, *a, **kw: quad(counted(f, 1), *a, **kw)
    ec.sum_with_tail_bound = counted_sum
    for seed in seeds:
        points = points_of(seed)
        for i in range(n):
            calls[:] = [-1, 0, 0]  # the outer call is not an inner one
            try:
                r = ec.phi(*next(points)[:3], tol=TOL)
                out = (r.method, repr(r.value), repr(r.error_estimate))
            except errors.LerchError as e:
                out = (type(e).__name__, str(e), repr(getattr(e, "best", None)),
                       repr(getattr(e, "bound", None)))
            rows.append((seed, i, out, *calls))
    ec.phi, ec.quad_semiaxis, ec.sum_with_tail_bound = phi, quad, summed
    return rows, phi, errors.LerchError, deep_size(bn._tables)


def race(sides, points, first):
    """(seconds of each side over points, blocks each side won) for
    sides [(phi, LerchError)], timed on alternating blocks of points,
    side `first` first on even blocks and second on odd ones."""
    seconds, won = [0.0, 0.0], [0, 0]
    for b in range(0, len(points), BLOCK):
        spent = [0.0, 0.0]
        for k in ((first, 1 - first) if b // BLOCK % 2 == 0
                  else (1 - first, first)):
            phi, error = sides[k]
            start = time.perf_counter()
            for point in points[b:b + BLOCK]:
                try:
                    phi(*point, tol=TOL)
                except error:
                    pass
            spent[k] = time.perf_counter() - start
        seconds = [a + x for a, x in zip(seconds, spent)]
        won[spent[1] < spent[0]] += 1
    return seconds, won


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("box", "disk"), default="box")
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--against")
    args = ap.parse_args()
    points_of = getattr(workloads, args.workload + "_points")
    seeds = [int(x) for x in args.seeds.split(",")]
    srcs = [ROOT / "src"] + ([args.against] if args.against else [])
    runs, seconds, sides, tables = [], [], [], []
    for src in srcs:
        start = time.perf_counter()
        rows, phi, error, table_bytes = survey(src, points_of, args.n, seeds)
        seconds.append(time.perf_counter() - start)
        runs.append(rows)
        sides.append((phi, error))
        tables.append(table_bytes)
    for src, rows, wall, table_bytes in zip(srcs, runs, seconds, tables):
        print("%s: %d points" % (src, len(rows)))
        for route in sorted({row[2][0] for row in rows}):
            mine = [row for row in rows if row[2][0] == route]
            print("  %-14s %5d points %6d inner phi calls %9d integrand calls"
                  " %9d series terms"
                  % (route, len(mine), sum(r[3] for r in mine),
                     sum(r[4] for r in mine), sum(r[5] for r in mine)))
        returned = sum(len(row[2]) == 3 for row in rows)
        print("  total: %d returned, %d refused, %d integrand calls, "
              "%d series terms, %.2f s"
              % (returned, len(rows) - returned, sum(r[4] for r in rows),
                 sum(r[5] for r in rows), wall))
        print("  node tables: %d bytes (%.0f KB)"
              % (table_bytes, table_bytes / 1024))
    if args.against:
        diff = [(a, b) for a, b in zip(*runs) if a[2] != b[2]]
        print("%d points differ" % len(diff))
        for a, b in diff:
            print("  seed %d #%d\n    %s\n    %s" % (a[0], a[1], a[2], b[2]))
        changed = sum(a[2][0] != b[2][0] for a, b in diff)
        returned = [(a[2], b[2]) for a, b in diff
                    if a[2][0] == b[2][0] and len(a[2]) == 3]
        shares = [_share(abs(complex(x[1]) - complex(y[1])),
                         float(x[2]) + float(y[2]))
                  for x, y in returned if x[1] != y[1]]
        print("%d outcomes changed (route or error type); %d values moved, "
              "the largest by %.3g of the summed estimates; %d estimates "
              "moved alone; %d refusals differ in detail"
              % (changed, len(shares), max(shares, default=0.0),
                 len(returned) - len(shares),
                 len(diff) - changed - len(returned)))
        points = [p[:3] for seed in seeds
                  for p in islice(points_of(seed), args.n)]
        ratios = []
        for first in (0, 1, 0):
            (mine, theirs), won = race(sides, points, first)
            ratios.append(mine / theirs)
            print("interleaved timing over %d points, %s first: time ratio "
                  "%.3f (this checkout over the other), blocks of %d won %d "
                  "to %d" % (len(points), ("this", "other")[first],
                             ratios[-1], BLOCK, *won))
        print("median time ratio %.3f" % sorted(ratios)[1])

def _share(move, estimates):
    return move / estimates if estimates else float("inf")


if __name__ == "__main__":
    main()
