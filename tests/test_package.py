"""The package namespace: every exported name, loaded eagerly or on
first use, is the object its home module defines."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import lerchkit


def test_every_exported_name_is_the_home_object():
    for name in lerchkit.__all__:
        obj = getattr(lerchkit, name)
        home = obj.__module__
        assert home.startswith("lerchkit."), name
        assert getattr(sys.modules[home], name) is obj, name
    assert set(lerchkit.__all__) <= set(dir(lerchkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        lerchkit.no_such_name


def test_every_submodule_export_resolves():
    # a name left in a module's __all__ after its definition is deleted
    # breaks `from lerchkit.<module> import *`
    declaring = []
    for info in pkgutil.iter_modules(lerchkit.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("lerchkit." + info.name)
        names = getattr(module, "__all__", None)
        if names is not None:
            declaring.append(info.name)
            assert [n for n in names if not hasattr(module, n)] == [], \
                info.name
    assert "deformed_polylog" in declaring and "eval_core" in declaring


def test_star_import_binds_every_exported_name():
    ns = {}
    exec("from lerchkit import *", ns)
    assert {k for k in ns if k != "__builtins__"} == set(lerchkit.__all__)
    assert all(ns[k] is getattr(lerchkit, k) for k in lerchkit.__all__)


@pytest.mark.parametrize("statements", [
    "import lerchkit.verify",
    "import lerchkit.deformed_polylog",
    "import lerchkit.cli",
    "import lerchkit; lerchkit.rho; lerchkit.run_suite",
])
def test_monodromy_attribute_stays_the_function(statements):
    # importing a submodule sets it as a package attribute; `monodromy`
    # names both a submodule and its function, and the package keeps
    # the function
    src = os.path.dirname(os.path.dirname(lerchkit.__file__))
    code = ("import sys; sys.path.insert(0, %r); %s; import lerchkit; "
            "print(lerchkit.monodromy is "
            "sys.modules['lerchkit.monodromy'].monodromy)" % (src, statements))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "True"


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------

def test_records_are_immutable():
    for record, name in ((lerchkit.EvalResult(1j, "series", 1e-16), "value"),
                         (lerchkit.GeneratorLetter("Z0"), "exp"),
                         (lerchkit.negative_polylog(2), "pole_order"),
                         (lerchkit.rho("Z0", 2, 0.3), "rows")):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        assert getattr(record, name) == before


def test_record_repr_names_every_field():
    r = lerchkit.EvalResult(0.5 + 1j, "series", 1e-16)
    assert repr(r) == ("EvalResult(value=(0.5+1j), method='series', "
                       "error_estimate=1e-16, exact=None)")
    assert r._replace(exact=2).exact == 2 and r.exact is None

