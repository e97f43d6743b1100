"""Command-line interface: argument parsing, output formats, exit codes."""

import cmath
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lerchkit
from lerchkit import cli
from lerchkit.cli import _parse_grid, main, parse_number
from lerchkit.eval_core import phi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# number and grid parsing
# ---------------------------------------------------------------------------

def test_parse_number_types():
    assert parse_number("3") == (3, True)
    assert parse_number("-7/4") == (Fraction(-7, 4), True)
    assert parse_number("2.5") == (2.5, False)
    assert parse_number("1+2i") == (1 + 2j, False)
    assert parse_number("0.5j") == (0.5j, False)
    with pytest.raises(ValueError):
        parse_number("zebra")
    with pytest.raises(ValueError, match="cannot parse number '1/0'"):
        parse_number("1/0")


def test_parse_grid_exact():
    var, vals = _parse_grid("z=-9/10:9/10:19")
    assert var == "z"
    assert len(vals) == 19
    assert vals[0] == Fraction(-9, 10) and vals[-1] == Fraction(9, 10)
    assert vals[9] == 0 and isinstance(vals[9], int)  # exact grid hits 0


def test_parse_grid_float_and_edge_counts():
    _, vals = _parse_grid("s=0.5:2.5:5")
    assert vals == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])
    assert _parse_grid("s=1:9:1") == ("s", [1])
    assert _parse_grid("s=1:9:0") == ("s", [])
    for bad in ("s=1:2", "1:2:3", "s=1:2:x", "s=1:2:-1"):
        with pytest.raises(ValueError):
            _parse_grid(bad)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_text_output(capsys):
    code, out, _ = run(capsys, "eval", "--s", "2", "--z", "1/2", "--c", "1")
    assert code == 0
    val = float(out.splitlines()[0].split("=")[1])
    want = math.pi ** 2 / 6.0 - math.log(2.0) ** 2  # 2 Li_2(1/2)
    assert val == pytest.approx(want, rel=1e-9)
    assert "method" in out and "stratum" in out


def test_eval_json_output(capsys):
    code, out, _ = run(capsys, "eval", "--s", "2", "--z", "1/2", "--c", "1",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "lerch-kit/1"
    ref = phi(2, Fraction(1, 2), 1).value
    assert complex(*doc["value"]) == pytest.approx(ref, rel=1e-12)
    assert doc["approximate_input"] is False


def test_eval_exact_rational(capsys):
    code, out, _ = run(capsys, "eval", "--s", "0", "--z", "2/3", "--c", "1")
    assert code == 0
    assert "3 (exact rational)" in out


def test_eval_notes_approximate_input(capsys):
    _, out, _ = run(capsys, "eval", "--s", "2", "--z", "0.5", "--c", "1")
    assert "approximate input" in out


def test_eval_exit_codes(capsys):
    code, _, err = run(capsys, "eval", "--s", "2", "--z", "1", "--c", "1")
    assert code == 2 and "error" in err          # z = 1 stratum
    code, _, err = run(capsys, "eval", "--s", "1/2", "--z", "2", "--c", "1")
    assert code == 4                             # on the cut [1, inf)
    code, _, err = run(capsys, "eval", "--s", "x", "--z", "1/2", "--c", "1")
    assert code == 1                             # unparseable number


def test_zero_denominator_is_one_error_line(capsys):
    code, out, err = run(capsys, "eval", "--s", "2", "--z=1/0", "--c", "1")
    assert (code, out) == (1, "")
    assert err == ("lerch-kit: error: cannot parse number '1/0' (want int, "
                   "p/q, decimal or re+im i)\n")
    code, out, err = run(capsys, "sweep", "--expr", "phi",
                         "--grid=z=0:1/0:3", "--s", "2", "--c", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "cannot parse number '1/0'" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--s", "2", "--z", "1/2"])  # missing --c
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def test_monodromy_ledger(capsys):
    code, out, _ = run(capsys, "monodromy", "--word", "Z1",
                       "--s", "1/2", "--z", "-1", "--c", "1/2", "--json")
    assert code == 0
    doc = json.loads(out)
    got = complex(*doc["monodromy"])
    assert got == pytest.approx(-math.sqrt(2) + math.sqrt(2) * 1j, abs=1e-12)
    assert complex(*doc["value"]) == pytest.approx(
        complex(*doc["base"]) + got, abs=1e-12)
    assert doc["contributions"]


def test_monodromy_word_with_net_z0_power(capsys):
    # "Z1 Z0" ends one Z0 loop past its Z1: the Z1 term is booked at
    # index -1.  Row 0 of rho_word gives the same branch of z Phi(2, z, c)
    # in the basis z^{1-c} log z, z^{1-c}.
    code, out, _ = run(capsys, "monodromy", "--word", "Z1 Z0",
                       "--s", "2", "--z", "-1", "--c", "3/10", "--json")
    assert code == 0
    doc = json.loads(out)
    z, c, lg = -1.0, 0.3, math.pi * 1j
    row = lerchkit.rho_word("Z1 Z0", 2, Fraction(3, 10)).entries[0]
    zpow = cmath.exp((1 - c) * lg)
    want = complex(*doc["base"]) + (row[1] * zpow * lg + row[2] * zpow) / z
    assert complex(*doc["value"]) == pytest.approx(want, abs=1e-12)
    assert complex(*doc["value"]) == pytest.approx(-45.670 - 18.299j, abs=1e-3)


def test_monodromy_empty_word(capsys):
    code, out, _ = run(capsys, "monodromy", "--word", "",
                       "--s", "1/2", "--z", "-1", "--c", "1/2")
    assert code == 0
    assert "monodromy total = 0" in out


def test_monodromy_overflow_exits_three(capsys):
    # the ledger's Y term, and the phase e^{-2 pi i c} of rho(Z0), which
    # ended in a traceback
    for argv in (("monodromy", "--word", "Y-1^3", "--s", "0.5+100i",
                  "--z", "0.5+0.3i", "--c", "0.62"),
                 ("ode", "--m=1", "--c=0.5+200i", "--matrices")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("lerch-kit: error: ")
        assert "overflows double precision" in err and err.count("\n") == 1


def test_monodromy_text_ledger(capsys):
    # one line per ledger term between the base value and the totals
    code, out, _ = run(capsys, "monodromy", "--word", "Z1 Y-1",
                       "--s", "1/2", "--z", "0.5+0.5i", "--c", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "base", "Y-1^1", "(Z0^0", "monodromy", "branch"]
    bv = lerchkit.branch_value("Z1 Y-1", Fraction(1, 2), 0.5 + 0.5j,
                               Fraction(1, 2))
    for (label, value), line in zip(bv.contributions, lines[1:3]):
        assert line.strip().startswith(label)
        assert complex(line.split()[-1].replace("i", "j")) == pytest.approx(
            value, abs=1e-10)


def test_monodromy_bad_word(capsys):
    code, _, err = run(capsys, "monodromy", "--word", "Q3",
                       "--s", "1/2", "--z", "-1", "--c", "1/2")
    assert code == 1 and "error" in err


# ---------------------------------------------------------------------------
# special / ode
# ---------------------------------------------------------------------------

def test_special_table(capsys):
    code, out, _ = run(capsys, "special", "--m", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == [0, 1, 11, 11, 1]


def test_special_point_value(capsys):
    code, out, _ = run(capsys, "special", "--m", "1",
                       "--z", "2", "--c", "0")
    assert code == 0
    assert "= 4" in out
    code, _, err = run(capsys, "special", "--m", "1", "--z", "2")
    assert code == 1  # --z needs --c


def test_special_decimal_point_value(capsys):
    # a decimal z or c gives a float value, in text and in JSON:
    # Li_{-1}(z, c) = z (z / (1 - z)^2 + c / (1 - z)) = 1.25
    code, out, _ = run(capsys, "special", "--m", "1",
                       "--z", "0.5", "--c", "0.25")
    assert code == 0
    assert out.splitlines()[-1] == "Li_{-1}(0.5, 0.25) = 1.25"
    code, out, _ = run(capsys, "special", "--m", "1",
                       "--z", "0.5", "--c", "0.25", "--json")
    doc = json.loads(out)
    assert (doc["li"], doc["li_exact"]) == ([1.25, 0.0], False)


def test_ode_identity_matrix(capsys):
    code, out, _ = run(capsys, "ode", "--m", "1", "--c", "1", "--matrices",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis_kind"] == "regular"
    assert doc["rho_Z0"] == [[[1.0, 0.0], [0.0, 0.0]],
                             [[0.0, 0.0], [1.0, 0.0]]]


def test_ode_coeffs_and_class(capsys):
    code, out, _ = run(capsys, "ode", "--m", "1", "--c", "1/2",
                       "--coeffs", "--class", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "quasi-unipotent"
    rows = {r["k"]: r for r in doc["coeffs"]}
    assert rows[2]["alpha"] == [-1] and rows[2]["beta"] == [1]


def test_ode_coeffs_and_class_text(capsys):
    code, out, _ = run(capsys, "ode", "--m", "1", "--c", "1/2",
                       "--coeffs", "--class")
    assert code == 0
    assert out.splitlines() == [
        "operator z^k d^k coefficients (alpha_k z + beta_k) z^k,",
        "polynomials in c, ascending:",
        "  k=0: alpha=[0] beta=[1, -1]",
        "  k=1: alpha=[0, -1] beta=[-1, 1]",
        "  k=2: alpha=[-1] beta=[1]",
        "class = quasi-unipotent"]


@pytest.mark.parametrize("m", ["0", "-3"])
def test_ode_class_refuses_the_order_matrices_refuse(capsys, m):
    # --class and --matrices both describe rho, which wants m >= 1
    for flag in ("--class", "--matrices"):
        code, out, err = run(capsys, "ode", "--m=" + m, "--c=1/2", flag)
        assert (code, out) == (2, "")
        assert "rho wants m >= 1" in err


@pytest.mark.parametrize("c", ["inf", "-inf", "nan"])
def test_ode_refuses_a_non_finite_c(capsys, c):
    # one line naming c, as eval gives for phi, in place of a traceback
    for flag in ("--matrices", "--class"):
        code, out, err = run(capsys, "ode", "--m=2", "--c=" + c, flag)
        assert (code, out) == (2, "")
        assert err == "lerch-kit: error: c must be finite, got c = %s\n" % c


ODE_M2_C45 = {
    "schema": "lerch-kit/1", "command": "ode", "m": 2, "c": "4/5",
    "coeffs": [{"k": 0, "alpha": [0], "beta": [-1, 2, -1]},
               {"k": 1, "alpha": [0, 0, -1], "beta": [1, -2, 1]},
               {"k": 2, "alpha": [-1, -2], "beta": [0, 2]},
               {"k": 3, "alpha": [-1], "beta": [1]}],
    "basis_kind": "regular",
    "rho_Z0": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
               [[0.0, 0.0], [0.30901699437494745, 0.9510565162951535],
                [-5.975664329483111, 1.9416110387254666]],
               [[0.0, 0.0], [0.0, 0.0],
                [0.30901699437494745, 0.9510565162951535]]],
    "rho_Z1": [[[1.0, 0.0], [0.0, -6.283185307179586], [0.0, 0.0]],
               [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
               [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    "class": "quasi-unipotent",
}


@pytest.mark.parametrize("flags, keys", [
    ((), ("coeffs", "basis_kind", "rho_Z0", "rho_Z1", "class")),
    (("--matrices",), ("basis_kind", "rho_Z0", "rho_Z1")),
    (("--coeffs",), ("coeffs",)),
    (("--class",), ("class",)),
    (("--matrices", "--coeffs", "--class"),
     ("coeffs", "basis_kind", "rho_Z0", "rho_Z1", "class")),
])
def test_ode_json_payload_is_pinned(capsys, flags, keys):
    code, out, _ = run(capsys, "ode", "--m", "2", "--c", "4/5", *flags,
                       "--json")
    assert code == 0
    head = ("schema", "command", "m", "c")
    assert json.loads(out) == {k: ODE_M2_C45[k] for k in head + keys}


def test_ode_text_output(capsys):
    code, out, _ = run(capsys, "ode", "--m", "1", "--c", "1", "--matrices")
    assert code == 0
    assert "rho(Z0) =" in out and "rho(Z1) =" in out
    assert "-0" not in out  # formatting never shows negative zero


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spence")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "suite spence:" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spence", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["schema"], doc["command"], doc["suite"]) == (
        "lerch-kit/1", "verify", "spence")
    assert doc["passed"] and doc["checks"]
    assert all(check["passed"] for check in doc["checks"])


def test_verify_failure_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "ladders",
                       "--tol", "1e-30")
    assert code == 1
    assert "[FAIL]" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert ("lerch-kit verify: error: argument --suite: invalid choice: "
            "'bogus' (choose from 'ladders', 'pde', ") in err
    assert "'monodromy_vanishing', 'all')" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--expr", "phi",
                       "--grid", "z=0.1:0.5:5", "--s", "2", "--c", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    for row in rows:
        z = float(row["z_re"])
        want = phi(2, z, 1).value
        assert float(row["value_re"]) == pytest.approx(want.real, rel=1e-9)
        assert row["error"] == ""


def test_sweep_extended_polylog(capsys):
    # Li_s(z, c) = z Phi(s, z, c), which is 0 at z = 0
    code, out, _ = run(capsys, "sweep", "--expr", "li",
                       "--grid", "z=-1/2:1/2:3", "--s", "2", "--c", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["method"] for row in rows] == ["series"] * 3
    for row in rows:
        z = float(row["z_re"])
        want = lerchkit.extended_polylog(2, z, 1).value
        assert complex(float(row["value_re"]), float(row["value_im"])) == want


def test_sweep_exact_grid_flags_bad_rows(capsys):
    # the exact grid passes through z = 0, which has no assigned value
    code, out, _ = run(capsys, "sweep", "--expr", "phi",
                       "--grid", "z=-1/2:1/2:3", "--s", "2", "--c", "1")
    assert code == 0  # other rows succeeded
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    errs = [r["error"] for r in rows]
    assert errs[0] == "" and errs[2] == ""
    assert "StratumError" in errs[1]


def test_sweep_all_rows_failing_returns_domain_code(capsys):
    code, out, _ = run(capsys, "sweep", "--expr", "phi",
                       "--grid", "z=2:3:2", "--s", "1/2", "--c", "1")
    assert code == 4  # both rows sit on the branch cut
    # z^3001 passes double range (it ended in a traceback); c = inf and
    # s = nan are refused up front (they printed nan rows and exited 0,
    # and ended in a bare ValueError, exit 1)
    for argv, want in (
            (("--expr=li_star", "--m=2", "--k=3000",
              "--grid=z=2+2i:2+3i:2"), 3),
            (("--expr=monodromy-term", "--s=2", "--c=inf",
              "--grid=z=0.5:0.6:2"), 2),
            (("--expr=periodic_zeta", "--s=nan", "--grid=a=0.2:0.3:2"), 2)):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, err) == (want, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 and all(r["error"] for r in rows)


def test_sweep_index_grid(capsys):
    # a decimal grid of integral values runs as integers; an exact grid
    # keeps integral steps as int, and a non-integral index is refused
    code, out, _ = run(capsys, "sweep", "--expr=li_star", "--grid=k=0.0:2.0:3",
                       "--m=2", "--z=0.5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3 and all(r["error"] == "" and r["value_re"]
                                  for r in rows)
    code, out, _ = run(capsys, "sweep", "--expr=li_star", "--grid=k=0:1:3",
                       "--m=2", "--z=0.5")
    assert code == 0
    errs = [r["error"] for r in csv.DictReader(io.StringIO(out))]
    assert errs[0] == errs[2] == "" and errs[1].startswith("DomainError")
    code, out, _ = run(capsys, "sweep", "--expr=li_star",
                       "--grid=m=1/2:3/2:2", "--k=1", "--z=0.5")
    assert code == 2
    errs = [r["error"] for r in csv.DictReader(io.StringIO(out))]
    assert len(errs) == 2 and all(e.startswith("DomainError") for e in errs)


def test_sweep_empty_grid_warns(capsys):
    code, out, err = run(capsys, "sweep", "--expr", "phi",
                         "--grid", "z=0:1:0", "--s", "2", "--c", "1")
    assert code == 0
    assert "empty grid" in err
    assert len(out.strip().splitlines()) == 1  # header only


def test_sweep_json_file(capsys):
    # the document that `sweep ... --json > rows.json` writes
    code, out, _ = run(capsys, "sweep", "--expr", "periodic_zeta",
                       "--grid", "s=-3:-1:3", "--a", "1/3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "lerch-kit/1"
    assert doc["var"] == "s" and len(doc["rows"]) == 3
    assert all(r["error"] == "" for r in doc["rows"])


def test_sweep_csv_file(capsys):
    # the rows that `sweep ... > rows.csv` writes; an index keeps one column
    code, out, _ = run(capsys, "sweep", "--expr", "li_star",
                       "--grid", "z=-0.8:0.8:5", "--m", "2", "--k", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5 and rows[0]["m"] == "2"


@pytest.mark.parametrize("expr,point", [
    ("li_star", ("--m", "2", "--k", "1", "--tol", "1e-20")),
    ("monodromy-term", ("--s", "0.5", "--c", "0.7")),
])
def test_sweep_reports_no_estimate_for_closed_forms(capsys, expr, point):
    # neither closed form computes an error bound: li_star at z = 0.6 is
    # off by about 1e-16, so echoing --tol 1e-20 would be a false bound
    argv = ("sweep", "--expr", expr, "--grid", "z=0.3:0.6:2") + point
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["error_estimate"] for r in rows] == ["", ""]
    assert all(r["error"] == "" and r["value_re"] for r in rows)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    assert [r["error_estimate"] for r in doc["rows"]] == [None, None]


def test_sweep_checks_grid_variable(capsys):
    code, _, err = run(capsys, "sweep", "--expr", "phi",
                       "--grid", "a=0:1:3", "--s", "2", "--c", "1")
    assert code == 1 and "not a parameter" in err
    code, _, err = run(capsys, "sweep", "--expr", "phi",
                       "--grid", "z=0.1:0.5:3", "--s", "2")
    assert code == 1 and "missing --c" in err


# ---------------------------------------------------------------------------
# tolerance plumbing
# ---------------------------------------------------------------------------

def test_env_tolerance_is_honored(capsys, monkeypatch):
    # LERCH_KIT_TOL is no longer read, but a value it asks for is still
    # met: the default --tol of 1e-12 is tighter
    monkeypatch.setenv("LERCH_KIT_TOL", "1e-6")
    code, out, _ = run(capsys, "eval", "--s", "2", "--z", "0.85", "--c",
                       "0.6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["error_estimate"] <= 1e-6
    assert doc["error_estimate"] <= 1e-12
    ref = phi(2, 0.85, 0.6).value
    assert complex(*doc["value"]) == pytest.approx(ref, rel=1e-5)


def test_tol_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("LERCH_KIT_TOL", "1e-2")
    code, out, _ = run(capsys, "eval", "--s", "2", "--z", "0.85",
                       "--c", "0.6", "--tol", "1e-13", "--json")
    assert code == 0
    assert json.loads(out)["error_estimate"] <= 1e-12


def test_tol_flag_reaches_phi_and_env_is_ignored(capsys, monkeypatch):
    # --tol (default 1e-12) is the one way to set the tolerance: the
    # environment plays no part
    seen = []

    def spy(s, z, c, tol):
        seen.append(tol)
        return phi(s, z, c, tol=tol)

    monkeypatch.setattr(cli, "phi", spy)
    monkeypatch.setenv("LERCH_KIT_TOL", "1e-2")
    code, out, _ = run(capsys, "eval", "--s", "2", "--z", "0.85", "--c",
                       "0.6", "--tol", "1e-6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["error_estimate"] <= 1e-6
    ref = phi(2, 0.85, 0.6).value
    assert complex(*doc["value"]) == pytest.approx(ref, rel=1e-5)
    code, _, _ = run(capsys, "eval", "--s", "2", "--z", "0.85", "--c", "0.6")
    assert code == 0
    assert seen == [1e-6, 1e-12]


_WATCHED = ("lerchkit", "numpy", "dataclasses", "inspect", "json")


def _fresh_modules(statements):
    """The lerchkit, numpy, dataclasses, inspect and json modules a fresh
    interpreter holds after running `statements`."""
    src = os.path.dirname(os.path.dirname(lerchkit.__file__))
    code = ("import sys; sys.path.insert(0, %r); %s; "
            "print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in %r), file=sys.stderr)"
            % (src, statements, _WATCHED))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout, proc.stderr.split()


def test_cli_import_leaves_numpy_out():
    # the CLI loads the five core modules only, and none of dataclasses,
    # inspect or json; numpy is imported only when an array is built, so
    # neither the import nor `ode` loads it
    _, mods = _fresh_modules("import lerchkit.cli")
    assert mods == ["lerchkit"] + ["lerchkit." + m for m in (
        "branch_numerics", "cli", "errors", "eval_core", "monodromy",
        "special_values")]
    out, mods = _fresh_modules(
        "from lerchkit import cli; cli.main(['ode', '--m=2', '--c=4/5', "
        "'--matrices', '--coeffs', '--class', '--json'])")
    assert json.loads(out) == ODE_M2_C45
    assert "lerchkit.deformed_polylog" in mods
    assert not [m for m in mods if m.split(".")[0] == "numpy"]


@pytest.mark.parametrize("argv", [
    ["eval", "--s=2", "--z=1/2", "--c=1", "--json"],
    ["monodromy", "--word=Z0 Z1 Z0^-1 Y2", "--s=1.5", "--z=0.3+0.4i",
     "--c=0.4", "--json"],
    ["special", "--m=12", "--z=3/7", "--c=5/3", "--json"],
    ["ode", "--m=3", "--c=2/5", "--matrices", "--coeffs", "--class",
     "--json"],
    ["sweep", "--expr=phi", "--grid=z=-0.6:0.6:5", "--s=1.5", "--c=0.4"],
    ["verify", "--suite=all"],
], ids=lambda argv: argv[0])
def test_commands_leave_dataclasses_out(argv):
    # record types are named tuples, json loads only for JSON output, and
    # numpy only when an array is built, which no command does (verify
    # loads deformed_polylog for the theta-form check)
    _, mods = _fresh_modules("from lerchkit import cli; cli.main(%r)" % argv)
    assert "lerchkit.cli" in mods
    assert "dataclasses" not in mods and "inspect" not in mods
    assert "numpy" not in mods
    assert ("json" in mods) == ("--json" in argv)


def test_monodromy_matrices_leave_numpy_out():
    # rho, rho_word, det and numeric_transport run on plain rows; only
    # MonodromyMatrix.entries builds an array, afresh on each read
    out, mods = _fresh_modules(
        "from lerchkit import deformed_polylog as dp; "
        "t = dp.numeric_transport(2, 0.3, dp.z1_loop()); "
        "w = dp.rho_word('Z0 Z1', 3, 0.3); w.det(); "
        "dp.rho('Z0', 2, 0.3).rows; "
        "before = 'numpy' in sys.modules; e = t.entries; "
        "after = 'numpy' in sys.modules; import numpy as np; "
        "print(before, after, e.dtype == complex, "
        "np.array_equal(e, np.array(t.rows, dtype=complex)), "
        "np.array_equal(t.entries, e))")
    assert out.split() == ["False", "True", "True", "True", "True"]
    assert "numpy" in mods
