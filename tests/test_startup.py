"""What a cold pcqm process loads, and how its parser reads a command line.

By the time a test runs, pytest has imported every pcqm module, so each check
of import order or of what a command loads runs in a fresh interpreter.
"""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcqm
from pcqm.cli import COMMANDS, config_from_args, run

ROOT = Path(__file__).parents[1]
NUMERIC = ["numpy", "pcqm.cli", "pcqm.hydrogen", "pcqm.irrep", "pcqm.limits", "pcqm.record",
           "pcqm.units"]
SYMBOLIC = ["pcqm.expr", "pcqm.operators", "pcqm.reports", "pcqm.scalars", "pcqm.so4"]


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env.pop("PCQM_CONSTANTS", None)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


# ---------------------------------------------------------------------------
# Import order: a module first imported under a narrow window builds its
# constants under the default limits.


@pytest.mark.parametrize("argv, code, stdout", [
    (["--degree-window", "-1:1", "verify"], 2, "error: l^-2 outside degree window -1..1"),
    (["--degree-window", "-4:0", "verify"], 2, "error: l^1 outside degree window -4..0"),
    (["--degree-window", "1:4", "verify"], 2, "error: l^0 outside degree window 1..4"),
    (["--degree-window", "-1:1", "eval", "l*y_1"], 0, "1/2*X+_1 - 1/2*X-_1"),
    (["--degree-window", "0:0", "eval", "X+_1"], 0, "X+_1"),
])
def test_a_cold_command_under_narrow_limits_reads_as_a_warm_one(argv, code, stdout):
    done = fresh("-m", "pcqm.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, stdout + "\n", "")
    assert run(config_from_args(argv)) == (code, stdout)


IMPORT_UNDER_A_WINDOW = """
import sys

import pcqm
from pcqm.limits import limits


def product():
    p, x = pcqm.generator_poly("P", "+", 1), pcqm.generator_poly("X", "+", 1)
    try:
        return pcqm.multiply(p, x).render()
    except ArithmeticError as err:
        return f"{type(err).__name__}: {err}"


if sys.argv[1] == "first":
    from pcqm import operators
with limits(window=(1, 4)):
    from pcqm import operators
    print(operators.multiply is pcqm.multiply, product())
print(product())
"""


def test_a_module_imported_under_a_window_holds_the_default_constants():
    outputs = {when: fresh("-c", IMPORT_UNDER_A_WINDOW, when) for when in ("inside", "first")}
    for done in outputs.values():
        assert (done.returncode, done.stderr) == (0, "")
    assert outputs["inside"].stdout == outputs["first"].stdout == (
        "True DegreeWindowError: l^0 outside degree window 1..4\n"
        "X+_1*P+_1 - i\n"
    )


# ---------------------------------------------------------------------------
# What each command loads.

LOADED = """
import sys

from pcqm import cli

code, _ = cli.run(cli.config_from_args(sys.argv[1:]))
print(code, sorted(m for m in sys.modules if m.startswith("pcqm.") or m in ("numpy", "json", "csv")))
"""


@pytest.mark.parametrize("argv, loaded", [
    (["spectrum"], NUMERIC),
    (["bound"], NUMERIC),
    (["convert", "--value", "1", "--from", "fm", "--to", "GeV^-1"], NUMERIC),
    (["--format", "json", "irrep", "--k-max", "2"], NUMERIC + ["json"]),
    (["--format", "csv", "bound"], NUMERIC + ["csv"]),
    (["--format", "json", "spectrum", "--n-max", "0"], NUMERIC + ["json"]),
    (["--degree-window", "1:4", "verify"], NUMERIC + ["pcqm.operators", "pcqm.reports",
                                                      "pcqm.scalars", "pcqm.so4"]),
    (["eval", "X+_1"], NUMERIC + SYMBOLIC),
], ids=["spectrum", "bound", "convert", "irrep-json", "bound-csv", "refused-json", "verify",
        "eval"])
def test_a_command_loads_only_what_it_runs(argv, loaded):
    done = fresh("-c", LOADED, *argv)
    assert done.stderr == ""
    code, modules = done.stdout.split(" ", 1)
    assert ast.literal_eval(modules) == sorted(loaded)
    assert int(code) == run(config_from_args(argv))[0]


def test_import_pcqm_loads_numpy_but_no_symbolic_module():
    done = fresh("-c", "import sys, pcqm; print(sorted(m for m in sys.modules if m in %r))"
                 % (["numpy", "json", "csv", *SYMBOLIC],))
    assert (done.stdout, done.stderr) == ("['numpy']\n", "")


def test_every_public_name_resolves_to_its_module():
    for module_name, names in pcqm._LAZY.items():
        module = importlib.import_module(f"pcqm.{module_name}")
        assert getattr(pcqm, module_name) is module
        for name in names:
            assert getattr(pcqm, name) is getattr(module, name)
    from pcqm import multiply, verify  # noqa: F401
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pcqm.no_such_name


# ---------------------------------------------------------------------------
# The parser: every subcommand listed, each parsed in full when named.
# Every option that takes a value holds its text as typed; the command reads it.

COMMON = {"format": "text", "constants": "paper-approx", "degree_window": None, "word_cap": None}


@pytest.mark.parametrize("argv, values", [
    (["verify"], {}),
    (["--format", "json", "--constants", "precise", "--degree-window", "-2:3", "--word-cap", "5",
      "verify"],
     {"format": "json", "constants": "precise", "degree_window": "-2:3", "word_cap": "5"}),
    (["verify", "-f", "csv", "--constants", "precise", "--degree-window=-1:1", "--word-cap", "4"],
     {"format": "csv", "constants": "precise", "degree_window": "-1:1", "word_cap": "4"}),
    (["irrep"], {"k_max": "5"}),
    (["irrep", "--k-max", "3/2", "--format", "json"], {"k_max": "3/2", "format": "json"}),
    (["spectrum"], {"l": "0", "kappa": "1", "n_max": "5", "literal_e2": False}),
    (["spectrum", "--l", "0.1", "--kappa", "2", "--n-max", "3", "--literal-e2", "--constants",
      "precise"],
     {"l": "0.1", "kappa": "2", "n_max": "3", "literal_e2": True, "constants": "precise"}),
    (["bound"], {"delta_e": "4e-9eV", "e_ref": "13eV", "kappa": "1"}),
    (["--word-cap", "3", "bound", "--delta-e", "1e-9Hz", "--e-ref", "-13eV", "--kappa", "0.5"],
     {"delta_e": "1e-9Hz", "e_ref": "-13eV", "kappa": "0.5", "word_cap": "3"}),
    (["convert", "--value", "-1e5", "--from", "fm", "--to", "cm"],
     {"value": "-1e5", "from_unit": "fm", "to_unit": "cm"}),
    (["-f", "csv", "convert", "--value", "2", "--from", "kg", "--to", "GeV", "--constants",
      "precise"],
     {"value": "2", "from_unit": "kg", "to_unit": "GeV", "format": "csv", "constants": "precise"}),
    (["eval", "-X+_1"], {"expression": "-X+_1"}),
    (["--degree-window", "-4:0", "eval", "-f", "json", "--word-cap", "6", "--", "[x_1, px_1]"],
     {"expression": "[x_1, px_1]", "format": "json", "degree_window": "-4:0", "word_cap": "6"}),
])
def test_each_subcommand_parses_its_full_option_set(argv, values, monkeypatch):
    monkeypatch.delenv("PCQM_CONSTANTS", raising=False)
    command = next(a for a in argv if a in COMMANDS)
    assert vars(config_from_args(argv)) == {**COMMON, "command": command, **values}


def exits(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        config_from_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_help_lists_every_command(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = exits(["-h"])
    assert (code, err) == (0, "")
    assert "{verify,irrep,spectrum,bound,convert,eval}" in out
    for command, help in COMMANDS.items():
        assert f"    {command:<20}{help}\n" in out
    code, out, err = exits(["bogus"])
    refusal = err.splitlines()[-1]
    assert (code, out) == (2, "")
    assert refusal.startswith("pcqm: error: argument command: invalid choice: ")
    assert all(command in refusal for command in COMMANDS)


@pytest.mark.parametrize("command, options", [
    ("verify", []),
    ("irrep", ["--k-max K_MAX"]),
    ("spectrum", ["--l L", "--kappa KAPPA", "--n-max N_MAX", "--literal-e2"]),
    ("bound", ["--delta-e DELTA_E", "--e-ref E_REF", "--kappa KAPPA"]),
    ("convert", ["--value VALUE", "--from", "--to"]),
    ("eval", ["expression"]),
])
def test_each_command_help_names_its_options(command, options, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = exits([command, "-h"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: pcqm {command} [-h] [--format {{text,json,csv}}]")
    for option in ["--constants", "--degree-window LO:HI", "--word-cap WORD_CAP", *options]:
        assert option in out


@pytest.mark.parametrize("argv, usage, error", [
    (["convert", "--value", "1", "--from", "fm"], "pcqm convert",
     "pcqm convert: error: the following arguments are required: --to"),
    (["verify", "--k-max", "3"], "pcqm", "pcqm: error: unrecognized arguments: --k-max 3"),
])
def test_a_usage_error_exits_2_with_usage_and_message(argv, usage, error, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = exits(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {usage} [-h] [--format {{text,json,csv}}]")
    assert err.endswith(f"\n{error}\n")
