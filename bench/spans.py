"""Span tracer for the benchmark's traced run.

The tracer instruments lerchkit from outside.  ``instrument`` wraps the
public entry points of each layer and rebinds every module-level name
that refers to one of them, so the package's own callers reach the
wrappers too: recursion through ``eval_core.phi``, ``verify.phi``,
``monodromy._phi``, ``eval_core.quad_semiaxis`` and so on.  The
integrand handed to ``quad_semiaxis`` and the term iterator handed to
``sum_with_tail_bound`` are wrapped as well, to count evaluations.

A span is (id, name, parent id, start, end, ok).  Spans stay in memory
and are written by ``dump`` when the run ends.  A span's self time is
its duration minus the part of it that its child spans cover.  A span
whose parent has the same name (``reciprocal_gamma`` calling
``complex_gamma``, or ``complex_gamma`` recursing) is part of its
parent's call: it adds self time but is not counted as a call.
"""

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

CLI_SUBCOMMANDS = ("eval", "monodromy", "special", "ode", "verify", "sweep")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, keep=None):
        """Wrap fn so that each call records a span called `name`.

        keep(result), when given, decides whether a call that returned
        is recorded; a call that raised is always recorded, with ok
        False.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end, False))
                raise
            end = clock()
            stack.pop()
            if keep is None or keep(result):
                spans.append((sid, name, parent, start, end, True))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call only bumps counts[name]."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def quad(self, name, fn):
        """Span wrapper for quad_semiaxis(f, ...) that also counts the
        integrand evaluations, and those spent in calls that raised."""
        inner = self.span(name, fn)
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            evals = 0

            def integrand(t):
                nonlocal evals
                evals += 1
                return f(t)

            try:
                result = inner(integrand, *args, **kwargs)
            except BaseException:
                counts[name + ".wasted_evals"] += evals
                raise
            finally:
                counts[name + ".integrand_evals"] += evals
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def tailsum(self, name, fn):
        """Span wrapper for sum_with_tail_bound(terms, ...) that counts
        the terms drawn from the iterator."""
        inner = self.span(name, fn)
        counts = self.counts

        def wrapper(terms, *args, **kwargs):
            drawn = 0

            def counted():
                nonlocal drawn
                for t in terms:
                    drawn += 1
                    yield t

            try:
                return inner(counted(), *args, **kwargs)
            finally:
                counts[name + ".terms"] += drawn

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------

    def rebind(self, original, wrapper):
        """Point every lerchkit module-level name bound to `original` at
        `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lerchkit"
                                   or mod_name.startswith("lerchkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set_attr(mod, attr, wrapper)

    def set_attr(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._undo:
            restore, owner, key, old = self._undo.pop()
            restore(owner, key, old)

    # -- output ---------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")


def instrument(tracer):
    """Wrap the entry points of every lerchkit layer (see module doc)."""
    # by module path: the package namespace binds `monodromy` to a function
    bn, cli, dp, ec, mo, sv, ve = (importlib.import_module("lerchkit." + m) for m in (
        "branch_numerics", "cli", "deformed_polylog", "eval_core", "monodromy",
        "special_values", "verify"))

    t = tracer
    t.rebind(bn.quad_semiaxis,
             t.quad("branch_numerics.quad", bn.quad_semiaxis))
    t.rebind(bn.sum_with_tail_bound,
             t.tailsum("branch_numerics.tailsum", bn.sum_with_tail_bound))
    for fn in (bn.complex_gamma, bn.reciprocal_gamma):
        t.rebind(fn, t.span("branch_numerics.gamma", fn))

    t.rebind(ec.phi, t.span("eval_core.phi", ec.phi))
    for fn, route in ((ec.phi_series, "series"),
                      (ec.phi_integral, "integral"),
                      (ec.phi_c_shift, "c_shift"),
                      (ec._reflect_with_c_normalization, "reflection")):
        t.rebind(fn, t.span("eval_core." + route, fn))
    # the exact-input test runs on every call; only a hit is the route
    t.rebind(ec._exact_rational_case,
             t.span("eval_core.rational", ec._exact_rational_case,
                    keep=lambda r: r is not None))

    # an exact evaluation builds the rational function, then evaluates it
    t.rebind(sv.negative_polylog,
             t.span("special_values.exact_build", sv.negative_polylog))
    t.set_attr(sv.BivariateRational, "eval",
               t.span("special_values.exact", sv.BivariateRational.eval))
    t.rebind(sv.q_ratio, t.counter("special_values.q_ratio", sv.q_ratio))

    for fn, name in ((dp.numeric_transport, "transport"),
                     (dp.weyl_expand, "weyl_expand"), (dp.rho, "rho")):
        t.rebind(fn, t.span("deformed_polylog." + name, fn))

    t.rebind(mo.branch_value, t.span("monodromy.branch_value", mo.branch_value))

    for name, fn in list(ve._SUITES.items()):
        t.set_item(ve._SUITES, name, t.span("verify.suite." + name, fn))

    # build_parser() binds the subcommand functions when main() runs
    for sub in CLI_SUBCOMMANDS:
        fn = getattr(cli, "cmd_" + sub)
        t.rebind(fn, t.span("cli.cmd." + sub, fn))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """{span id: duration minus the time its children cover}."""
    children = defaultdict(list)
    for sid, _name, parent, start, end, _ok in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - covered(start, end, children[sid])
            for sid, _name, _parent, start, end, _ok in spans}


def summarize(spans):
    """Per span name: calls, failed calls, their total seconds and
    durations, and self seconds.  Only self seconds include spans whose
    parent has the same name."""
    own = self_times(spans)
    name_of = {sid: name for sid, name, *_ in spans}
    out = defaultdict(lambda: {"calls": 0, "fail": 0, "total_s": 0.0,
                               "self_s": 0.0, "durations": []})
    for sid, name, parent, start, end, ok in spans:
        row = out[name]
        row["self_s"] += own[sid]
        if name_of.get(parent) == name:
            continue
        row["calls"] += 1
        row["fail"] += 0 if ok else 1
        row["total_s"] += end - start
        row["durations"].append(end - start)
    return out


def ancestors(spans):
    """{span id: tuple of ancestor names, nearest first}."""
    parent_of = {sid: parent for sid, _n, parent, *_ in spans}
    name_of = {sid: name for sid, name, *_ in spans}
    memo = {}

    def chain(sid):
        if sid in memo:
            return memo[sid]
        parent = parent_of.get(sid)
        if parent is None or parent not in name_of:
            memo[sid] = ()
        else:
            memo[sid] = (name_of[parent],) + chain(parent)
        return memo[sid]

    for sid in parent_of:
        chain(sid)
    return memo
