"""Survey ``phi`` over the first N `box` points of some seeds, by route.

    python tools/box_survey.py [--n 512] [--seeds 1,2,3] [--against OTHER_SRC]

Calls ``eval_core.phi`` of this checkout's ``src`` at tol = 1e-12, in
process, on ``bench/workloads.box_points``, and prints per route (or
error type) the points, the inner ``phi`` calls and the integrand calls,
then a totals line: points returned and refused, integrand calls and
wall seconds.
--against surveys a second checkout's ``src`` as well and lists each point
whose outcome differs: value, estimate and method, or error type,
message, ``best`` and ``bound``.
"""
import argparse
import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOL = 1e-12
sys.dont_write_bytecode = True  # leave no cache files beside bench/
sys.path.insert(0, str(ROOT / "bench"))
from workloads import box_points  # noqa: E402


def survey(src, n, seeds):
    """[(seed, i, outcome, inner phi calls, integrand calls)] under src."""
    for name in [m for m in sys.modules if m.split(".")[0] == "lerchkit"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    ec, errors = (importlib.import_module("lerchkit." + m)
                  for m in ("eval_core", "errors"))
    del sys.path[0]
    quad, calls, rows = ec.quad_semiaxis, [0, 0], []

    def counted(fn, k):
        def wrapped(*a, **kw):
            calls[k] += 1
            return fn(*a, **kw)
        return wrapped
    ec.phi = counted(ec.phi, 0)
    ec.quad_semiaxis = lambda f, *a, **kw: quad(counted(f, 1), *a, **kw)
    for seed in seeds:
        points = box_points(seed)
        for i in range(n):
            calls[:] = [-1, 0]  # the outer call is not an inner one
            try:
                r = ec.phi(*next(points)[:3], tol=TOL)
                out = (r.method, repr(r.value), repr(r.error_estimate))
            except errors.LerchError as e:
                out = (type(e).__name__, str(e), repr(getattr(e, "best", None)),
                       repr(getattr(e, "bound", None)))
            rows.append((seed, i, out, *calls))
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--against")
    args = ap.parse_args()
    seeds = [int(x) for x in args.seeds.split(",")]
    srcs = [ROOT / "src"] + ([args.against] if args.against else [])
    runs, seconds = [], []
    for src in srcs:
        start = time.perf_counter()
        runs.append(survey(src, args.n, seeds))
        seconds.append(time.perf_counter() - start)
    for src, rows, wall in zip(srcs, runs, seconds):
        print("%s: %d points" % (src, len(rows)))
        for route in sorted({row[2][0] for row in rows}):
            mine = [row for row in rows if row[2][0] == route]
            print("  %-14s %5d points %6d inner phi calls %9d integrand calls"
                  % (route, len(mine), sum(r[3] for r in mine),
                     sum(r[4] for r in mine)))
        returned = sum(len(row[2]) == 3 for row in rows)
        print("  total: %d returned, %d refused, %d integrand calls, %.2f s"
              % (returned, len(rows) - returned, sum(r[4] for r in rows), wall))
    if args.against:
        diff = [(a, b) for a, b in zip(*runs) if a[2] != b[2]]
        print("%d points differ" % len(diff))
        for a, b in diff:
            print("  seed %d #%d\n    %s\n    %s" % (a[0], a[1], a[2], b[2]))


if __name__ == "__main__":
    main()
