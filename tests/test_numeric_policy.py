"""Source guard: the integer/near-singular tolerances, the integer
polynomial kernel and the certified series sum each have one home.

* Only ``branch_numerics`` (the numeric policy) may compare against the
  literals 1e-8 or 1e-12, or bind them to a module-level name, and only
  it reads ``sys.float_info.epsilon`` (every other module uses ``EPS``).
* One stratum test: ``NEAR``, the refusal radius around z = 1 and
  c in {0, -1, ...}, is read by ``eval_core._stratum`` and otherwise only
  by the cut guard ``_guard_cut`` and the dispatcher's route test
  (``_dispatch``); every other refusal takes the stratum's tag, and
  only ``eval_core._refuse_singular`` raises "point lies on singular
  stratum".
* Only ``special_values`` may define ``_trim``/``_padd``/``_pmul``-style
  polynomial helpers, or operator helpers named ``_op_...`` (a
  dict-keyed second kernel once hid under those names).
* ``verify`` owns every identity check: no other module defines a
  function named ``check_*``, ``*_check`` or ``*_suite``.
* ``verify`` takes every value from ``phi``: the old uncertified
  ``1e-17`` stopping rule must not come back, it has no ``while`` loop
  (it sums no series of its own), and it uses no private name of
  ``eval_core``.
* ``eval_core`` hand-rolls the c-shift identity
  Phi(s,z,c) = sum_k z^k (c+k)^{-s} + z^N Phi(s,z,c+N) once: only
  ``_c_shift_head`` holds a loop or comprehension over ``branched_power``
  or ``principal_log``, and Euler-Maclaurin takes its head from it.
* The series region has one home: no ``eval_core`` function but
  ``_series_region`` holds the disk radius 0.75; ``_dispatch`` asks it
  first, so every later route lies outside the disk.
* ``eval_core`` has one Mellin integral: only ``_mellin`` calls
  ``quad_semiaxis``; ``phi_integral`` (past its z guards) and
  ``periodic_zeta`` (z Phi(s, z, 1)) both reach it.
* Log z is formed where z enters: in ``eval_core`` only ``phi``,
  ``phi_series`` and ``phi_integral`` hand ``zc`` to ``principal_log``,
  ``semi_principal_log`` or ``cmath.log``, the private routes take it
  from their caller, ``semi_principal_log`` is not imported, and
  ``lerch_zeta`` (whose Log z is 2 pi i a) does not call ``phi``.
* ``eval_core`` takes every rounding bound from ``EPS``: it holds no
  float literal between 1e-17 and 1e-13.
* ``eval_core`` has one retry rule for the identities that re-enter
  Phi: only ``_compose`` compares a combined estimate with
  ``tol * (1.0 + abs(...))``.
* The three-term prefactor has one home: ``c_coeff`` is the only
  ``eval_core`` function that calls ``complex_gamma``.
* The double-exponential map t = exp(u - exp(-u)) has one home:
  ``branch_numerics._node``, which the quadrature and its node tables
  share.
* One entry and one exit for every public evaluator: only
  ``branch_numerics.finite_entry`` raises "must be finite", only
  ``branch_numerics.finite_exit`` raises "overflows double precision",
  only those two and ``eval_core._overflows_double`` catch
  OverflowError, and no module wraps a function with ``functools.wraps``.
* Exact rationals are built in ``special_values``: no other module calls
  ``Fraction(...)`` once per pass of a loop or comprehension.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lerchkit"
POLICY_HOME = "branch_numerics.py"
KERNEL_HOME = "special_values.py"
POLICY_LITERALS = (1e-8, 1e-12)
KERNEL_NAME = re.compile(r"^_(p?trim|p(add|sub|mul|scale|deriv|shift)|op_)")


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths, "no sources under %s" % SRC
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def _is_policy_literal(node):
    return isinstance(node, ast.Constant) and node.value in POLICY_LITERALS


def test_policy_tolerances_live_in_branch_numerics():
    offenders = []
    for name, tree in _modules():
        if name == POLICY_HOME:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                # a literal anywhere inside an operand, as in x < 0.1 - 1e-12
                operands = [node.left] + node.comparators
                if any(_is_policy_literal(x) for operand in operands
                       for x in ast.walk(operand)):
                    offenders.append("%s:%d" % (name, node.lineno))
        for node in tree.body:
            if isinstance(node, ast.Assign) and _is_policy_literal(node.value):
                offenders.append("%s:%d" % (name, node.lineno))
    assert not offenders, offenders


NEAR_READERS = ["eval_core.py:_dispatch", "eval_core.py:_guard_cut",
                "eval_core.py:_stratum"]


def _reads_near(node):
    return (isinstance(node, ast.Name) and node.id == "NEAR"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "NEAR")


def test_one_stratum_test():
    readers = sorted({"%s:%s" % (name, getattr(top, "name", "<module>"))
                      for name, tree in _modules() for top in tree.body
                      if any(_reads_near(node) for node in ast.walk(top))})
    assert readers == NEAR_READERS, readers


def _reads_epsilon(node):
    """sys.float_info.epsilon, or float_info.epsilon after an import."""
    if not (isinstance(node, ast.Attribute) and node.attr == "epsilon"):
        return False
    inner = node.value
    return (isinstance(inner, ast.Attribute) and inner.attr == "float_info"
            or isinstance(inner, ast.Name) and inner.id == "float_info")


def test_one_machine_epsilon():
    offenders = ["%s:%d" % (name, node.lineno)
                 for name, tree in _modules() if name != POLICY_HOME
                 for node in ast.walk(tree) if _reads_epsilon(node)]
    assert not offenders, offenders


def test_one_polynomial_kernel():
    offenders = ["%s:%s" % (name, node.name)
                 for name, tree in _modules() if name != KERNEL_HOME
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and KERNEL_NAME.match(node.name)]
    assert not offenders, offenders


CHECK_NAME = re.compile(r"^check_|_check$|_suite$")


def test_verify_owns_every_identity_check():
    offenders = ["%s:%s" % (name, node.name)
                 for name, tree in _modules() if name != "verify.py"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and CHECK_NAME.search(node.name)]
    assert not offenders, offenders


def test_verify_has_no_uncertified_stop():
    assert "1e-17" not in (SRC / "verify.py").read_text()


def test_verify_sums_no_series_of_its_own():
    tree = ast.parse((SRC / "verify.py").read_text())
    loops = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.While)]
    assert not loops, loops


def test_verify_uses_no_eval_core_internals():
    tree = ast.parse((SRC / "verify.py").read_text())
    used = [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == "eval_core"
            for alias in node.names]
    used += [node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id == "eval_core"]
    private = [name for name in used if name.startswith("_")]
    assert not private, private


def _calls(node, name):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == name for n in ast.walk(node))


def test_one_c_shift_identity():
    # a finite head sum_k z^k (c+k)^{-s} forms its powers in a loop or a
    # comprehension, by branched_power or by e^w with w = -s Log(c+k)
    tree = ast.parse((SRC / "eval_core.py").read_text())
    loops = (ast.For, ast.ListComp, ast.GeneratorExp, ast.SetComp,
             ast.DictComp)
    homes = [fn.name for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             and any(isinstance(loop, loops)
                     and (_calls(loop, "branched_power")
                          or _calls(loop, "principal_log"))
                     for loop in ast.walk(fn))]
    assert homes == ["_c_shift_head"], homes


def test_one_disk_radius():
    tree = ast.parse((SRC / "eval_core.py").read_text())
    holders = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Constant) and node.value == 0.75
                       for node in ast.walk(fn))]
    assert holders == ["_series_region"], holders


def test_one_mellin_integral():
    tree = ast.parse((SRC / "eval_core.py").read_text())
    callers = [fn.name for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and _calls(fn, "quad_semiaxis")]
    assert callers == ["_mellin"], callers
    users = [fn.name for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and _calls(fn, "_mellin")]
    assert users == ["phi_integral", "periodic_zeta"], users


def _takes_log_of_z(call):
    """True when call is principal_log, semi_principal_log or cmath.log
    with the name zc among its arguments."""
    fn = call.func
    named = (isinstance(fn, ast.Name)
             and fn.id in ("principal_log", "semi_principal_log")
             or isinstance(fn, ast.Attribute) and fn.attr == "log"
             and isinstance(fn.value, ast.Name) and fn.value.id == "cmath")
    return named and any(isinstance(arg, ast.Name) and arg.id == "zc"
                         for arg in call.args)


def test_log_z_is_formed_where_z_enters():
    tree = ast.parse((SRC / "eval_core.py").read_text())
    funcs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    takers = sorted(name for name, fn in funcs.items()
                    if any(isinstance(node, ast.Call) and _takes_log_of_z(node)
                           for node in ast.walk(fn)))
    assert takers == ["phi", "phi_integral", "phi_series"], takers
    imported = {alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "semi_principal_log" not in imported
    # lerch_zeta hands phi's routes Log z = 2 pi i a, never a rounded z
    assert not _calls(funcs["lerch_zeta"], "phi")


def _is_tol_scale(node):
    """True when node is tol * (1.0 + abs(...))."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Name) and node.left.id == "tol"
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Add)
            and isinstance(node.right.left, ast.Constant)
            and node.right.left.value == 1.0
            and _calls(node.right.right, "abs"))


def test_one_retry_rule():
    tree = ast.parse((SRC / "eval_core.py").read_text())
    homes = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
             and any(isinstance(cmp, ast.Compare)
                     and any(_is_tol_scale(side)
                             for side in [cmp.left] + cmp.comparators)
                     for cmp in ast.walk(fn))]
    assert homes == ["_compose"], homes


def test_rounding_bounds_come_from_eps():
    tree = ast.parse((SRC / "eval_core.py").read_text())
    literals = ["%r at line %d" % (node.value, node.lineno)
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 1e-17 <= abs(node.value) <= 1e-13]
    assert not literals, literals


def test_one_home_for_the_three_term_prefactor():
    tree = ast.parse((SRC / "eval_core.py").read_text())
    callers = [fn.name for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and _calls(fn, "complex_gamma")]
    assert callers == ["c_coeff"], callers


def _is_exp(node):
    return (isinstance(node, ast.Call) and len(node.args) == 1
            and (isinstance(node.func, ast.Attribute) and node.func.attr == "exp"
                 or isinstance(node.func, ast.Name) and node.func.id == "exp"))


def _exp_of_minus(node):
    """The name x when node is exp(-x), else None."""
    if _is_exp(node):
        arg = node.args[0]
        if (isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.USub)
                and isinstance(arg.operand, ast.Name)):
            return arg.operand.id
    return None


def _writes_de_map(fn):
    """True when fn computes exp(u - exp(-u)), with exp(-u) inline or
    bound to a name first."""
    bound = {node.targets[0].id: _exp_of_minus(node.value)
             for node in ast.walk(fn)
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name)}
    for node in ast.walk(fn):
        if not (_is_exp(node) and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Sub)):
            continue
        left, right = node.args[0].left, node.args[0].right
        inner = _exp_of_minus(right)
        if inner is None and isinstance(right, ast.Name):
            inner = bound.get(right.id)
        if isinstance(left, ast.Name) and inner == left.id:
            return True
    return False


def test_one_double_exponential_map():
    homes = ["%s:%s" % (name, fn.name) for name, tree in _modules()
             for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and _writes_de_map(fn)]
    assert homes == ["branch_numerics.py:_node"], homes


def _top_level_homes(found):
    """Sorted "module:function" of each top-level definition in which
    found(node) holds for some node."""
    return sorted({"%s:%s" % (name, getattr(top, "name", "<module>"))
                   for name, tree in _modules() for top in tree.body
                   if any(found(node) for node in ast.walk(top))})


def _raises_text(text):
    def found(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Constant) and isinstance(n.value, str)
            and text in n.value for n in ast.walk(node))
    return found


def test_one_stratum_refusal():
    assert _top_level_homes(_raises_text("point lies on singular stratum")) \
        == ["eval_core.py:_refuse_singular"]


def test_one_entry_check():
    assert _top_level_homes(_raises_text("must be finite")) == [
        "branch_numerics.py:finite_entry"]


def test_one_exit_check():
    assert _top_level_homes(_raises_text("overflows double precision")) == [
        "branch_numerics.py:finite_exit"]


def _catches_overflow(node):
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    return any(isinstance(n, ast.Name) and n.id == "OverflowError"
               for n in ast.walk(node.type))


def test_overflow_is_caught_at_the_exit_only():
    assert _top_level_homes(_catches_overflow) == [
        "branch_numerics.py:finite_entry", "branch_numerics.py:finite_exit",
        "eval_core.py:_overflows_double"]


def test_no_wrapped_functions():
    def found(node):
        return (isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(alias.name == "wraps" for alias in node.names)
                or isinstance(node, ast.Attribute) and node.attr == "wraps")
    assert _top_level_homes(found) == []


def _repeated_parts(node):
    """The parts of a loop or comprehension that run once per pass."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test] + node.body
    if isinstance(node, ast.DictComp):
        parts = [node.key, node.value]
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        parts = [node.elt]
    else:
        return []
    # the first iterable is evaluated once, the rest once per outer pass
    return (parts + [cond for gen in node.generators for cond in gen.ifs]
            + [gen.iter for gen in node.generators[1:]])


def test_no_fraction_built_in_a_loop():
    # exact rationals are special_values' business: elsewhere a Fraction
    # built per pass is a second hand-rolled exact kernel (a Bernoulli
    # recurrence once stood in eval_core)
    def found(node):
        return any(_calls(part, "Fraction") for part in _repeated_parts(node))
    assert [home for home in _top_level_homes(found)
            if not home.startswith(KERNEL_HOME)] == []
