"""Survey ``numeric_transport`` over the first N `transport` cases of some
seeds.

    python tools/transport_survey.py [--n 96] [--seeds 1,2,3] [--against OTHER_SRC]

Runs ``deformed_polylog.numeric_transport`` of this checkout's ``src``, in
process, on ``bench/workloads.transport_cases`` and prints, per m and
stratum of c, the cases, the refusals and the worst ``bench/oracle``
``rho_error`` against the closed-form ``rho`` of the same checkout.
--against surveys a second checkout's ``src`` as well and prints the worst
entry difference between the two checkouts' matrices, over
max(1, max |entry|) of this checkout's matrix.
"""
import argparse
import importlib
import sys
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
    """[(case, matrix rows or error text, rho_error)] under src."""
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
            try:
                got = dp.numeric_transport(m, c, loop).entries
            except errors.LerchError as e:
                rows.append((case, "%s: %s" % (type(e).__name__, e), None))
                continue
            err = rho_error(got, dp.rho(gen, m, c).entries)
            rows.append((case, got.tolist(), err))
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
    for src, rows in zip(srcs, runs):
        print("%s: %d cases" % (src, len(rows)))
        for key in sorted({(r[0][0], stratum(r[0][1])) for r in rows}):
            mine = [r for r in rows if (r[0][0], stratum(r[0][1])) == key]
            errs = [r[2] for r in mine if r[2] is not None]
            print("  m=%d %-9s %4d cases %3d refused  worst rho_error %.3g"
                  % (*key, len(mine), len(mine) - len(errs),
                     max(errs, default=0)))
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


if __name__ == "__main__":
    main()
