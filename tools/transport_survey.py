"""Survey ``numeric_transport`` over the first N `transport` cases of some
seeds.

    python tools/transport_survey.py [--n 96] [--seeds 1,2,3] [--against OTHER_SRC]

Runs ``deformed_polylog.numeric_transport`` of this checkout's ``src``, in
process, on ``bench/workloads.transport_cases`` and prints, per m and
stratum of c, the cases, the refusals, the worst ``bench/oracle``
``rho_error`` against the closed-form ``rho`` of the same checkout, and
the seconds spent inside ``numeric_transport`` (wall clock, imports and
``rho`` excluded).  --against surveys a second checkout's ``src`` as well
and prints the worst entry difference between the two checkouts'
matrices, over max(1, max |entry|) of this checkout's matrix, and per m
and stratum the time ratio OTHER / this, so a value above 1 means this
checkout is faster.
"""
import argparse
import importlib
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files beside bench/
sys.path.insert(0, str(ROOT / "bench"))
from oracle import rho_error  # noqa: E402
from workloads import transport_cases  # noqa: E402


def stratum(c):
    if isinstance(c, complex):
        return "regular"
    if isinstance(c, Fraction):
        return "rational"
    return "singular" if c == 0 else "removable"


def survey(src, n, seeds):
    """[(case, matrix rows or error text, rho_error, seconds)] under src."""
    for name in [m for m in sys.modules if m.split(".")[0] == "lerchkit"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(src).resolve()))
    dp, errors = (importlib.import_module("lerchkit." + m)
                  for m in ("deformed_polylog", "errors"))
    del sys.path[0]
    rows = []
    for seed in seeds:
        cases = transport_cases(seed)
        for _ in range(n):
            m, c, gen = case = next(cases)
            loop = dp.z0_loop() if gen == "Z0" else dp.z1_loop()
            t0 = time.perf_counter()
            try:
                got = dp.numeric_transport(m, c, loop)
            except errors.LerchError as e:
                rows.append((case, "%s: %s" % (type(e).__name__, e), None,
                             time.perf_counter() - t0))
                continue
            seconds = time.perf_counter() - t0
            got = got.entries
            err = rho_error(got, dp.rho(gen, m, c).entries)
            rows.append((case, got.tolist(), err, seconds))
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=96)
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--against")
    args = ap.parse_args()
    seeds = [int(x) for x in args.seeds.split(",")]
    srcs = [ROOT / "src"] + ([args.against] if args.against else [])
    runs = [survey(src, args.n, seeds) for src in srcs]
    keys = sorted({(r[0][0], stratum(r[0][1])) for r in runs[0]})
    seconds = []
    for src, rows in zip(srcs, runs):
        print("%s: %d cases, %.3f s" % (src, len(rows),
                                       sum(r[3] for r in rows)))
        per_key = {}
        for key in keys:
            mine = [r for r in rows if (r[0][0], stratum(r[0][1])) == key]
            errs = [r[2] for r in mine if r[2] is not None]
            per_key[key] = sum(r[3] for r in mine)
            print("  m=%d %-9s %4d cases %3d refused  worst rho_error %.3g"
                  "  %.3f s" % (*key, len(mine), len(mine) - len(errs),
                                max(errs, default=0), per_key[key]))
        seconds.append(per_key)
    if args.against:
        worst, where, differ = 0.0, None, 0
        for a, b in zip(*runs):
            if isinstance(a[1], str) or isinstance(b[1], str):
                differ += a[1] != b[1]
                continue
            scale = max(1.0, max(abs(x) for row in a[1] for x in row))
            diff = max(abs(x - y) for ra, rb in zip(a[1], b[1])
                       for x, y in zip(ra, rb)) / scale
            if diff > worst:
                worst, where = diff, a[0]
        print("worst entry difference %.3g (m, c, loop = %r); "
              "%d refusals differ" % (worst, where, differ))
        print("time ratio %s / %s:" % (srcs[1], srcs[0]))
        for key in keys:
            print("  m=%d %-9s %.2f" % (*key, seconds[1][key] / seconds[0][key]))
        print("  all          %.2f" % (sum(seconds[1].values())
                                       / sum(seconds[0].values())))


if __name__ == "__main__":
    main()
