"""Command-line front end.

Subcommands: eval (one point), monodromy (itemized branch ledger for a
homotopy word), special (exact rational tables and values), ode
(deformed-polylog operator data and monodromy matrices), verify
(identity suites), sweep (grid evaluation to CSV/JSON).

Numbers are parsed rational-first: `p/q` and integers stay exact, for
the exact rational path and an exact integer test of c; decimals and
`re+im i` complex forms are accepted and flagged as approximate input.
Exit codes: 0 ok, 1 usage, 2 domain/stratum, 3 accuracy, 4 branch.
JSON output carries a top-level ``"schema": "lerch-kit/1"``.
"""

import argparse
import sys
from fractions import Fraction

from .errors import (AccuracyError, BranchError, DomainError, LerchError,
                     TransportError)
from .eval_core import (classify_stratum, extended_polylog, periodic_zeta,
                        phi)
from .monodromy import branch_value, monodromy_Z_conj, parse_word
from .special_values import laurent_coeffs, negative_polylog, r_poly

SCHEMA = "lerch-kit/1"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _exit_code(exc):
    if isinstance(exc, BranchError):
        return 4
    if isinstance(exc, (AccuracyError, TransportError)):
        return 3
    if isinstance(exc, DomainError):
        return 2
    return 1


# ---------------------------------------------------------------------------
# number parsing / formatting
# ---------------------------------------------------------------------------

def parse_number(text):
    """Parse rational-first: int and p/q stay exact, decimals go to
    float, `re+im i` (or j) to complex.  Returns (value, is_exact)."""
    t = text.strip()
    try:
        return int(t), True
    except ValueError:
        pass
    if "/" in t:
        try:
            return Fraction(t), True
        except (ValueError, ZeroDivisionError):
            pass
    try:
        return float(t), False
    except ValueError:
        pass
    try:
        return complex(t.replace("i", "j").replace(" ", "")), False
    except ValueError:
        pass
    raise ValueError("cannot parse number %r (want int, p/q, decimal "
                     "or re+im i)" % text)


def _fmt_complex(v):
    v = complex(v)
    re = v.real + 0.0 if v.real != 0.0 else 0.0  # drop -0.0
    im = v.imag + 0.0 if v.imag != 0.0 else 0.0
    if im == 0.0:
        return "%.12g" % re
    return "%.12g%+.12gi" % (re, im)


def _cpair(v):
    v = complex(v)
    return [v.real, v.imag]


def _print_json(payload):
    import json  # only the commands that print JSON pay for it
    print(json.dumps(payload))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args):
    s, se = parse_number(args.s)
    z, ze = parse_number(args.z)
    c, ce = parse_number(args.c)
    res = phi(s, z, c, tol=args.tol)
    stratum = classify_stratum(s, z, c).tag
    approx = not (se and ze and ce)
    if args.json:
        _print_json({
            "schema": SCHEMA, "command": "eval",
            "s": args.s, "z": args.z, "c": args.c,
            "value": _cpair(res.value),
            "exact": None if res.exact is None else str(res.exact),
            "method": res.method,
            "error_estimate": res.error_estimate,
            "stratum": stratum,
            "approximate_input": approx,
        })
        return 0
    if res.exact is not None:
        print("value           = %s (exact rational)" % res.exact)
    else:
        print("value           = %s" % _fmt_complex(res.value))
    print("method          = %s" % res.method)
    print("error estimate <= %.3g" % res.error_estimate)
    print("stratum         = %s" % stratum)
    if approx:
        print("note: approximate input (decimal); stratum test is inexact")
    return 0


def cmd_monodromy(args):
    word = parse_word(args.word)
    s, _ = parse_number(args.s)
    z, _ = parse_number(args.z)
    c, _ = parse_number(args.c)
    bv = branch_value(word, s, z, c, tol=args.tol)
    mono = bv.total - bv.base
    if args.json:
        _print_json({
            "schema": SCHEMA, "command": "monodromy", "word": args.word,
            "base": _cpair(bv.base),
            "contributions": [{"label": lab, "value": _cpair(v)}
                              for lab, v in bv.contributions],
            "monodromy": _cpair(mono),
            "value": _cpair(bv.total),
        })
        return 0
    print("base value      = %s" % _fmt_complex(bv.base))
    for lab, v in bv.contributions:
        print("  %-22s %s" % (lab, _fmt_complex(v)))
    print("monodromy total = %s" % _fmt_complex(mono))
    print("branch value    = %s" % _fmt_complex(bv.total))
    return 0


def cmd_special(args):
    m = args.m
    r = r_poly(m)
    laur = laurent_coeffs(m)
    payload = {"schema": SCHEMA, "command": "special",
               "m": m, "r": r, "laurent": laur}
    li_text = None
    if (args.z is None) != (args.c is None):
        raise ValueError("special needs --z and --c together")
    if args.z is not None:
        z, _ = parse_number(args.z)
        c, _ = parse_number(args.c)
        val = negative_polylog(m).eval(z, c)
        if isinstance(val, Fraction):
            payload["li"] = str(val)
            payload["li_exact"] = True
            li_text = "%s (exact rational)" % val
        else:
            payload["li"] = _cpair(val)
            payload["li_exact"] = False
            li_text = _fmt_complex(val)
    if args.json:
        _print_json(payload)
        return 0
    print("r_%d       = %s" % (m, r))
    print("a_{%d,k}   = %s" % (m, laur))
    if li_text is not None:
        print("Li_{-%d}(%s, %s) = %s" % (m, args.z, args.c, li_text))
    return 0


def cmd_ode(args):
    from .deformed_polylog import rho, unipotency_class, weyl_expand
    c, _ = parse_number(args.c)
    want_all = not (args.matrices or args.coeffs or args.klass)
    payload = {"schema": SCHEMA, "command": "ode", "m": args.m, "c": args.c}
    if args.coeffs or want_all:
        op = weyl_expand(args.m)
        payload["coeffs"] = [
            {"k": k, "alpha": list(a.coeffs), "beta": list(b.coeffs)}
            for k, (a, b) in enumerate(op.entries)]
    if args.matrices or want_all:
        for gen in ("Z0", "Z1"):
            mat = rho(gen, args.m, c)
            payload["basis_kind"] = mat.kind
            payload["rho_" + gen] = [[_cpair(v) for v in row]
                                     for row in mat.rows]
    if args.klass or want_all:
        payload["class"] = unipotency_class(args.m, c)
    if args.json:
        _print_json(payload)
        return 0
    if "coeffs" in payload:
        print("operator z^k d^k coefficients (alpha_k z + beta_k) z^k,")
        print("polynomials in c, ascending:")
        for row in payload["coeffs"]:
            print("  k=%d: alpha=%s beta=%s"
                  % (row["k"], row["alpha"], row["beta"]))
    if "rho_Z0" in payload:
        print("basis kind: %s" % payload["basis_kind"])
        for name in ("rho_Z0", "rho_Z1"):
            print("rho(%s) =" % name[4:])
            for row in payload[name]:
                print("  [ " + "  ".join(_fmt_complex(complex(re, im))
                                         for re, im in row) + " ]")
    if "class" in payload:
        print("class = %s" % payload["class"])
    return 0


def cmd_verify(args):
    from .verify import SUITE_NAMES, run_suite
    if args.suite not in SUITE_NAMES:
        args.usage_error("argument --suite: invalid choice: %r "
                         "(choose from %s)"
                         % (args.suite, ", ".join(map(repr, SUITE_NAMES))))
    rep = run_suite(args.suite, tol=args.tol)
    if args.json:
        _print_json({"schema": SCHEMA, "command": "verify",
                     **rep.to_dict()})
        return 0 if rep.passed else 1
    for r in rep.reports:
        pt = ", ".join(str(p) for p in r.point)
        print("[%s] %-22s (%s)  |residual| %.3e  tol %g"
              % ("PASS" if r.passed else "FAIL", r.name, pt,
                 r.abs_residual, r.tol))
    n_pass = sum(1 for r in rep.reports if r.passed)
    print("suite %s: %d/%d passed" % (rep.name, n_pass, len(rep.reports)))
    return 0 if rep.passed else 1


def _parse_grid(spec):
    var, eq, rng = spec.partition("=")
    parts = rng.split(":")
    if not eq or not var or len(parts) != 3:
        raise ValueError("grid spec must look like var=start:stop:count, "
                         "got %r" % spec)
    start, s_ex = parse_number(parts[0])
    stop, e_ex = parse_number(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise ValueError("grid count must be an integer, got %r"
                         % parts[2]) from None
    if count < 0:
        raise ValueError("grid count must be >= 0")
    if count == 0:
        return var, []
    if count == 1:
        return var, [start]
    if s_ex and e_ex:
        step = Fraction(stop - start, count - 1)
        vals = [start + i * step for i in range(count)]
        return var, [int(v) if isinstance(v, Fraction) and v.denominator == 1
                     else v for v in vals]
    a = complex(start) if isinstance(start, complex) or isinstance(stop, complex) \
        else float(start)
    b = complex(stop) if isinstance(a, complex) else float(stop)
    return var, [a + i * (b - a) / (count - 1) for i in range(count)]


def _as_index(v):
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v == round(v):
        return int(round(v))
    raise DomainError("index parameter must be an integer, got %r" % (v,))


def _result(r):
    return r.value, r.method, r.error_estimate


def _li_star(m, k, z, tol):
    from .deformed_polylog import li_star
    return li_star(_as_index(m), _as_index(k), z, tol=tol), "closed_form", None


# expr -> (parameters, call returning (value, method, error estimate));
# the closed forms compute no error bound, so their estimate is None
_SWEEP = {
    "phi": (("s", "z", "c"), lambda s, z, c, tol:
            _result(phi(s, z, c, tol=tol))),
    "li": (("s", "z", "c"), lambda s, z, c, tol:
           _result(extended_polylog(s, z, c, tol=tol))),
    "monodromy-term": (("s", "z", "c"), lambda s, z, c, tol:
                       (monodromy_Z_conj(0, 1, s, z, c), "closed_form", None)),
    "periodic_zeta": (("a", "s"), lambda a, s, tol:
                      _result(periodic_zeta(a, s, tol=tol))),
    "li_star": (("m", "k", "z"), _li_star),
}
_INDEX = ("m", "k")  # integer options, one column each


def _cells(name, w):
    """The output columns of parameter name at value w: an index keeps
    one, any other splits into real and imaginary parts."""
    if name in _INDEX:
        return {name: w if isinstance(w, int) else str(w)}
    w = complex(w)
    return {name + "_re": w.real, name + "_im": w.imag}


def cmd_sweep(args):
    var, values = _parse_grid(args.grid)
    needed, call = _SWEEP[args.expr]
    if var not in needed:
        raise ValueError("grid variable %r is not a parameter of %s "
                         "(parameters: %s)" % (var, args.expr,
                                               ", ".join(needed)))
    fixed = {}
    for name in needed:
        if name == var:
            continue
        raw = getattr(args, name)
        if raw is None:
            raise ValueError("missing --%s for expr %s" % (name, args.expr))
        fixed[name] = raw if name in _INDEX else parse_number(raw)[0]

    cols = [col for name in needed for col in _cells(name, 0)]
    cols += ["value_re", "value_im", "method", "error_estimate", "error"]
    rows, codes = [], []
    for v in values:  # deterministic grid order
        point = dict(fixed, **{var: v})
        row = {}
        for name in needed:
            row.update(_cells(name, point[name]))
        try:
            value, method, err = call(tol=args.tol, **point)
            row.update(value_re=value.real, value_im=value.imag,
                       method=method, error_estimate=err, error="")
        except LerchError as e:
            row.update(value_re="", value_im="", method="",
                       error_estimate="",
                       error="%s: %s" % (type(e).__name__, e))
            codes.append(_exit_code(e))
        rows.append(row)

    if not values:
        print("warning: empty grid, header-only output", file=sys.stderr)
    if args.json:
        _print_json({"schema": SCHEMA, "command": "sweep", "expr": args.expr,
                     "var": var, "columns": cols, "rows": rows})
    else:
        import csv
        writer = csv.DictWriter(sys.stdout, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
    # exit with the first refusal's code only when every row was refused
    return codes[0] if values and len(codes) == len(values) else 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_point_args(p, names):
    for n in names:
        p.add_argument("--" + n, required=True)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="target tolerance (default: 1e-12)")


def build_parser():
    parser = _Parser(prog="lerch-kit",
                     description="Lerch transcendent toolkit: evaluation, "
                                 "monodromy, exact special values, the "
                                 "deformed-polylog ODE and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    ev = sub.add_parser("eval", help="evaluate Phi(s, z, c)")
    _add_point_args(ev, ("s", "z", "c"))
    ev.add_argument("--json", action="store_true")
    ev.set_defaults(func=cmd_eval)

    mo = sub.add_parser("monodromy",
                        help="branch value and itemized monodromy ledger")
    mo.add_argument("--word", required=True,
                    help='homotopy word, e.g. "Z0^2 Z1^-1 Y-3" ("" = base)')
    _add_point_args(mo, ("s", "z", "c"))
    mo.add_argument("--json", action="store_true")
    mo.set_defaults(func=cmd_monodromy)

    sp = sub.add_parser("special",
                        help="exact tables r_m, a_{m,k} and Li_{-m}(z,c)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--z")
    sp.add_argument("--c")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_special)

    od = sub.add_parser("ode",
                        help="deformed-polylog operator and monodromy data")
    od.add_argument("--m", type=int, required=True)
    od.add_argument("--c", required=True)
    od.add_argument("--matrices", action="store_true")
    od.add_argument("--coeffs", action="store_true")
    od.add_argument("--class", dest="klass", action="store_true")
    od.add_argument("--json", action="store_true")
    od.set_defaults(func=cmd_ode)

    ve = sub.add_parser("verify", help="run an identity suite")
    ve.add_argument("--suite", required=True,
                    help="identity suite, or all; an unknown name lists "
                         "the suites")
    ve.add_argument("--tol", type=float, default=None)
    ve.add_argument("--json", action="store_true")
    ve.set_defaults(func=cmd_verify, usage_error=ve.error)

    sw = sub.add_parser("sweep", help="evaluate on a grid, CSV/JSON output")
    sw.add_argument("--expr", required=True, choices=sorted(_SWEEP))
    sw.add_argument("--grid", required=True,
                    help="var=start:stop:count (endpoints rational-first)")
    for n in ("s", "z", "c", "a"):
        sw.add_argument("--" + n)
    for n in _INDEX:
        sw.add_argument("--" + n, type=int)
    sw.add_argument("--tol", type=float, default=1e-12,
                    help="target tolerance (default: 1e-12)")
    sw.add_argument("--json", action="store_true")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except ValueError as e:
        print("lerch-kit: error: %s" % e, file=sys.stderr)
        return 1
    except LerchError as e:
        print("lerch-kit: error: %s" % e, file=sys.stderr)
        return _exit_code(e)
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
