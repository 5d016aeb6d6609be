import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcqm.cli import FORMATS, bound_text, config_from_args, main, parse_value_with_unit, run, spectrum_rows
from pcqm.hydrogen import corrected_spectrum, length_bound
from pcqm.limits import current_limits

ROOT = Path(__file__).parents[1]
DATA = Path(__file__).parent / "data"
CLI_FORMATS = json.loads((DATA / "cli_formats.json").read_text())

# The console script's target in pyproject.toml, called as the installed
# wrapper calls it.
_SCRIPT = re.search(r'^pcqm = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
ENTRIES = {
    "module": [sys.executable, "-m", "pcqm.cli"],
    "script": [sys.executable, "-c", "import sys; from {0} import {1}; sys.exit({1}())".format(
        *_SCRIPT.groups())],
}


def run_argv(argv: list[str]) -> tuple[int, str]:
    return run(config_from_args(argv))


def test_parse_value_with_unit():
    assert parse_value_with_unit("4e-9eV", "eV") == (4e-9, "eV")
    assert parse_value_with_unit("13eV", "eV") == (13.0, "eV")
    assert parse_value_with_unit("1000Hz", "eV") == (1000.0, "Hz")
    assert parse_value_with_unit("2.5", "eV") == (2.5, "eV")
    with pytest.raises(ValueError):
        parse_value_with_unit("eV", "eV")


@pytest.fixture(scope="module")
def verify_main():
    """``main(["--format", fmt, "verify"])`` as ``(code, stdout)``, run once per format."""
    results = {}

    def get(fmt: str) -> tuple[int, str]:
        if fmt not in results:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--format", fmt, "verify"])
            results[fmt] = code, out.getvalue()
        return results[fmt]

    return get


def test_verify_passes_with_exit_zero(verify_main):
    code, stdout = verify_main("text")
    output = stdout.removesuffix("\n")
    assert code == 0
    assert output.endswith("VERIFY: PASS (530 checks)")


def test_verify_json_schema(verify_main):
    code, output = verify_main("json")
    assert code == 0
    payload = json.loads(output)
    assert payload["schema"] == "verify-report/v1"
    assert payload["all_passed"] is True
    names = [r["name"] for r in payload["reports"]]
    assert names == [
        "canonical-quantization",
        "induced-relations",
        "so4-commutators",
        "component-recomposition",
        "component-closure",
        "casimir-central",
        "casimir-expansion",
    ]


def test_verify_csv_has_all_rows(verify_main):
    code, output = verify_main("csv")
    assert code == 0
    lines = output.splitlines()
    assert lines[0] == "report,family,label,status,residual"
    assert len(lines) == 1 + 530


def test_eval_golden():
    code, output = run_argv(["eval", "[L_12, L_23]"])
    assert code == 0
    assert output + "\n" == (DATA / "eval_so4_bracket.txt").read_text()


def test_eval_matches_direct_library_call():
    from pcqm.expr import evaluate_text

    code, output = run_argv(["eval", "[x_1, px_1]"])
    assert code == 0
    assert output == evaluate_text("[x_1, px_1]").render()


def test_eval_expression_may_start_with_minus_and_a_letter():
    for expression in ("-X+_1", "-l*x_1", "-(X+_1)"):
        assert run_argv(["eval", expression]) == run_argv(["eval", "--", expression])
    assert run_argv(["eval", "-X+_1"]) == (0, "-X+_1")
    code, output = run_argv(["eval", "-f", "json", "X+_1"])
    assert (code, json.loads(output)["expression"]) == (0, "X+_1")
    assert run_argv(["eval", "-X+_1", "--format", "json"])[0] == 0
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()) as out:
        config_from_args(["eval", "-h"])
    assert exc.value.code == 0
    assert out.getvalue().startswith("usage: pcqm eval")


def test_eval_error_exit_code():
    code, output = run_argv(["eval", "[X+_1,"])
    assert code == 2
    assert output.startswith("error:")


def test_eval_error_json_mode():
    code, output = run_argv(["--format", "json", "eval", "x_9"])
    assert code == 2
    payload = json.loads(output)
    assert payload["schema"] == "error/v1"
    assert "index" in payload["error"]


def test_spectrum_golden():
    code, output = run_argv(["spectrum", "--n-max", "3", "--constants", "precise"])
    assert code == 0
    assert output + "\n" == (DATA / "spectrum_precise_l0.txt").read_text()


def test_spectrum_json_fields():
    code, output = run_argv(
        ["--format", "json", "spectrum", "--n-max", "2", "--l", "1e-5", "--constants", "precise"]
    )
    payload = json.loads(output)
    assert payload["schema"] == "spectrum/v1"
    assert list(payload["levels"][0]) == ["n", "k", "degeneracy", "E0_eV", "shift_eV"]
    assert payload["levels"][0]["shift_eV"] != 0


def test_spectrum_rows_and_text_name_the_same_fields():
    rows = spectrum_rows(corrected_spectrum(2, l_gevinv=1e-5))
    assert list(rows[0]) == ["n", "k", "degeneracy", "E0_eV", "shift_eV"]
    assert rows[1]["k"] == "1/2"
    code, output = run_argv(["spectrum", "--n-max", "2", "--l", "1e-5"])
    assert output.splitlines()[0].split() == ["n", "k", "degeneracy", "E0_eV", "shift_eV"]


def test_spectrum_literal_e2_puts_alpha_in_the_numerator():
    code, output = run_argv(["spectrum", "--literal-e2", "--n-max", "1"])
    assert code == 0
    assert output.splitlines()[-1] == "  1     0           1       -1864.47              0"


def test_bound_golden():
    code, output = run_argv(["bound"])
    assert code == 0
    assert output + "\n" == (DATA / "bound_default.txt").read_text()


def test_bound_text_echoes_the_born_infeld_comparison():
    assert "Born-Infeld" in bound_text(length_bound(4e-9, 13, 1.0))


def test_spectrum_and_bound_csv():
    code, output = run_argv(["-f", "csv", "spectrum", "--n-max", "2", "--constants", "precise"])
    assert code == 0
    lines = output.splitlines()
    assert lines[0] == "n,k,degeneracy,E0_eV,shift_eV"
    assert len(lines) == 3
    code, output = run_argv(["-f", "csv", "bound"])
    assert code == 0
    assert output.splitlines()[0].startswith("l_max_GeVinv,l_max_fm,l_max_cm")


def test_closure_report_serializes_structure_constants():
    from pcqm.so4 import verify_component_closure

    report = verify_component_closure()
    payload = report.to_dict()
    assert payload["schema"] == "closure-report/v1"
    entry = next(
        c for c in payload["checks"] if c["family"] == "[R,R]" and c["label"] == "(12),(23)"
    )
    assert entry["passed"] is True and entry["residual"] == "0"
    assert entry["expansion"] == {"LR_13": "-1/2*i"}


def test_bound_json_values():
    code, output = run_argv(
        ["--format", "json", "bound", "--delta-e", "4e-9eV", "--e-ref", "13eV", "--kappa", "1"]
    )
    payload = json.loads(output)
    assert payload["schema"] == "bound/v1"
    assert payload["l_max_cm"] == pytest.approx(3.5e-19, rel=0.05)
    assert payload["born_infeld_quoted_cm"] == 1e-7


def test_bound_accepts_hz_input():
    code, output = run_argv(["--format", "json", "bound", "--delta-e", "1000Hz"])
    payload = json.loads(output)
    assert payload["delta_e_eV"] == pytest.approx(4.14e-12, rel=0.01)


def test_bound_with_the_precise_constants():
    code, output = run_argv(
        ["--format", "json", "bound", "--constants", "precise", "--delta-e", "1000Hz"]
    )
    assert code == 0
    payload = json.loads(output)
    assert payload["constants"] == "precise"
    assert payload["delta_e_eV"] == pytest.approx(1000 / 2.417989242e14, rel=1e-12)
    assert payload["l_max_fm"] == pytest.approx(payload["l_max_GeVinv"] / 5.0677, rel=1e-12)


def test_irrep_sweep():
    code, output = run_argv(["irrep", "--k-max", "2"])
    assert code == 0
    assert output.endswith("IRREP SWEEP: PASS")
    code, output = run_argv(["--format", "json", "irrep", "--k-max", "1"])
    payload = json.loads(output)
    assert payload["schema"] == "irrep-sweep/v1"
    assert [row["denominator"] for row in payload["rows"]] == ["2", "8", "18"]


def test_convert_text_and_flag_positions():
    code, output = run_argv(["convert", "--value", "1", "--from", "fm", "--to", "GeV^-1"])
    assert code == 0
    assert output == "1 fm = 5 GeV^-1"
    code, output = run_argv(
        ["convert", "--value", "1", "--from", "fm", "--to", "GeV^-1", "--constants", "precise"]
    )
    assert output == "1 fm = 5.0677 GeV^-1"
    code, output = run_argv(
        ["--constants", "precise", "convert", "--value", "1", "--from", "sec", "--to", "m"]
    )
    assert output == "1 sec = 2.99792e+08 m"
    # A zero literal is zero, however small its exponent.
    assert run_argv(["convert", "--value", "0.0e-400", "--from", "fm", "--to", "cm"]) == (
        0, "0 fm = 0 cm")


def test_negative_zero_reads_as_zero(capsys):
    # The exact conversion has no negative zero, so the echoed value has none either.
    argv = ["convert", "--value", "-0.0", "--from", "fm", "--to", "cm"]
    expected = {
        "text": "0 fm = 0 cm",
        "json": json.dumps({"schema": "convert/v1", "value": 0.0, "from": "fm", "to": "cm", "result": 0.0,
                            "constants": "paper-approx"}, indent=2),
        "csv": "value,from,to,result\r\n0.0,fm,cm,0.0\r",  # the CSV writer ends its rows with \r\n
    }
    for fmt, output in expected.items():
        assert main(["--format", fmt, *argv]) == 0
        assert capsys.readouterr() == (output + "\n", "")


def test_convert_dimension_error():
    code, output = run_argv(["convert", "--value", "1", "--from", "fm", "--to", "GeV"])
    assert code == 2
    assert "cannot convert" in output


def test_constants_env_default(monkeypatch):
    monkeypatch.setenv("PCQM_CONSTANTS", "precise")
    cfg = config_from_args(["convert", "--value", "1", "--from", "fm", "--to", "GeV^-1"])
    assert cfg.constants == "precise"


@pytest.mark.parametrize(
    "env, argv, message",
    [
        # The constant set is checked before any other argument.
        ({"PCQM_CONSTANTS": "bogus"}, ["bound"], "unknown constant-set mode 'bogus'"),
        ({"PCQM_CONSTANTS": "bogus"}, ["bound", "--kappa", "-1"], "unknown constant-set mode 'bogus'"),
        ({"PCQM_CONSTANTS": "bogus"}, ["convert", "--value", "1", "--from", "fm", "--to", "cm"],
         "unknown constant-set mode 'bogus'"),
        ({"PCQM_CONSTANTS": "bogus"}, ["convert", "--value", "nan", "--from", "fm", "--to", "cm"],
         "unknown constant-set mode 'bogus'"),
        ({}, ["bound", "--delta-e", "4e-9parsec"], "unknown unit 'parsec'"),
        ({}, ["bound", "--delta-e", "4fm"], "cannot convert fm (GeV^-1) to eV (GeV^1)"),
        ({"PCQM_CONSTANTS": "bogus"}, ["convert", "--value", "1e-330", "--from", "fm", "--to", "cm"],
         "unknown constant-set mode 'bogus'"),
        # A number option is read by its command, so text that is no number is
        # refused by the option's name.
        ({}, ["spectrum", "--kappa", "abc"], "correction strength kappa must be a number, got 'abc'"),
        ({}, ["convert", "--value", "1,5", "--from", "fm", "--to", "cm"],
         "value must be a number, got '1,5'"),
        # So are the degree window, the word cap and --n-max: text that is no
        # integer is refused on stdout, not by argparse on stderr.
        ({}, ["--degree-window", "a:b", "eval", "l"], "degree window must look like '-4:4', got 'a:b'"),
        ({}, ["eval", "--degree-window=-4", "l"], "degree window must look like '-4:4', got '-4'"),
        ({}, ["--word-cap", "abc", "eval", "l"], "word length cap must be an integer, got 'abc'"),
        ({}, ["verify", "--word-cap", "1.5"], "word length cap must be an integer, got '1.5'"),
        ({}, ["spectrum", "--n-max", "abc"], "n_max must be an integer, got 'abc'"),
        ({}, ["spectrum", "--n-max", "2.0"], "n_max must be an integer, got '2.0'"),
    ],
)
def test_constant_set_and_unit_refusals_exit_2(env, argv, message, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    for fmt, expected in (("text", f"error: {message}"),
                          ("json", json.dumps({"schema": "error/v1", "error": message}))):
        assert main(["--format", fmt, *argv]) == 2
        assert capsys.readouterr() == (expected + "\n", "")


def test_verify_ignores_the_constant_set(monkeypatch, verify_main):
    # Only bound and convert read the constant set.
    monkeypatch.setenv("PCQM_CONSTANTS", "bogus")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify"]) == 0
    assert out.getvalue() == verify_main("text")[1]


def test_degree_window_and_word_cap_flags():
    code, output = run_argv(["--word-cap", "3", "eval", "x_1*x_2*x_3*x_4"])
    assert code == 2
    assert "exceeds cap" in output
    code, output = run_argv(["--degree-window=-8:8", "eval", "l^6"])
    assert code == 0
    assert output == "l^6"
    code, output = run_argv(["eval", "l^6"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--degree-window=4:-4", "eval", "l"],
        ["--word-cap", "0", "eval", "x_1"],
        ["--degree-window=-8:8", "--word-cap", "0", "eval", "l"],
        ["--word-cap", "13", "eval", "x_1"],
    ],
)
def test_bad_window_or_cap_exits_2_and_restores_state(argv):
    state = current_limits()
    code, output = run_argv(argv)
    assert code == 2 and output.startswith("error:")
    code, output = run_argv(["-f", "json", *argv])
    assert code == 2 and json.loads(output)["schema"] == "error/v1"
    assert current_limits() == state


@pytest.mark.parametrize(
    "expression",
    ["(" * 1200 + "1" + ")" * 1200, "(x_1+x_2+x_3+x_4+px_1+px_2+px_3+px_4)^8"],
)
def test_oversized_expression_exits_2(expression):
    code, output = run_argv(["eval", expression])
    assert code == 2 and output.startswith("error:")


# Raw characters, shuffled lexemes, and well-formed trees of the grammar.
_ATOMS = ["x_1", "py_2", "X+_3", "P-_1", "L_12", "Mxy_3", "C+", "i", "I", "l", "l^-2", "1/2", "3"]
_LEXEMES = _ATOMS + ["CR", "0", "+", "-", "*", "^2", "(", ")", "[", ",", "]", " "]
_TREES = st.recursive(
    st.sampled_from(_ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        st.tuples(inner, inner).map("[{0[0]}, {0[1]}]".format),
        inner.map("-({})^2".format),
    ),
    max_leaves=6,
)
_EXPRESSIONS = st.one_of(
    st.text(alphabet="0123456789/+-*^()[],_ iIlXPxyLMCR"),
    st.lists(st.sampled_from(_LEXEMES)).map("".join),
    _TREES,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_EXPRESSIONS)
@example("(" * 1200 + "1" + ")" * 1200)
@example("+".join(["x_1"] * 1000))
def test_eval_exits_0_or_2_on_any_input(expression):
    code, _ = run(config_from_args(["eval", "--", expression]))
    assert code in (0, 2)


def test_coefficient_too_long_to_render_exits_2():
    # (10^300 - 1)^64 has 19,200 digits, past the interpreter's int-to-str limit.
    for fmt in ("text", "json"):
        code, output = run_argv(["--format", fmt, "eval", "9" * 300 + "^64"])
        assert code == 2
        assert "coefficient too long to render" in output
        assert "set_int_max_str_digits" not in output


def test_coefficient_growth_is_refused_before_the_work():
    # Each factor has 64,000 digits; multiplying out all 20 (1.28M digits)
    # before refusing the result at render took about 6 s.
    factor = "(" + "9" * 1000 + ")^64"
    start = time.perf_counter()
    code, output = run_argv(["eval", "*".join([factor] * 20)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert output.startswith("error: coefficient too long to render")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--l", "nan"], "minimal length l must be finite, got nan"),
        (["spectrum", "--kappa", "inf"], "correction strength kappa must be finite, got inf"),
        (["bound", "--kappa", "nan"], "kappa must be finite, got nan"),
        (["bound", "--e-ref", "1e400eV"], "reference energy must be finite, got inf"),
        (["bound", "--e-ref", "1e400Hz"], "reference energy must be finite, got inf"),
        (["bound", "--delta-e", "1e400eV"], "observed splitting must be finite, got inf"),
        (["convert", "--value", "inf", "--from", "fm", "--to", "GeV^-1"], "value must be finite, got inf"),
        (["spectrum", "--l", "1e300"], "shift of level n=1 for l = 1e+300, kappa = 1 exceeds the float range"),
        (["bound", "--kappa", "1e-320"], "l^2 = delta_E/(|E_ref|*kappa) exceeds the float range"),
        (["convert", "--value", "1e308", "--from", "kg", "--to", "GeV"], "converted value exceeds the float range"),
        # Of two bad arguments, the finiteness of l is checked first.
        (["spectrum", "--l", "nan", "--n-max", "0"], "minimal length l must be finite, got nan"),
        (["bound", "--delta-e", "1e300kg"], "observed splitting exceeds the float range"),
        (["bound", "--e-ref", "1e300kg"], "reference energy exceeds the float range"),
    ],
)
def test_non_finite_or_overflowing_numbers_exit_2(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == f"error: {message}\n"
    assert err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--delta-e", "1e-320Hz"], "observed splitting is too small for the float range"),
        (["bound", "--e-ref", "1e-320Hz"], "reference energy is too small for the float range"),
        (["convert", "--value", "1e-300", "--from", "GeV", "--to", "kg"],
         "converted value is too small for the float range"),
        (["bound", "--delta-e", "1e-300", "--kappa", "1e100"],
         "l^2 = delta_E/(|E_ref|*kappa) is too small for the float range"),
        # A nonzero number literal below the float range, which float() reads as 0.
        (["convert", "--value", "1e-330", "--from", "GeV", "--to", "kg"],
         "value is too small for the float range"),
        (["bound", "--delta-e", "1e-330"], "observed splitting is too small for the float range"),
        (["bound", "--e-ref", "-1e-330eV"], "reference energy is too small for the float range"),
        (["bound", "--kappa", "1e-330"], "kappa is too small for the float range"),
        (["spectrum", "--kappa", "1e-330"], "correction strength kappa is too small for the float range"),
        (["spectrum", "--l", "2.5E-400"], "minimal length l is too small for the float range"),
    ],
)
def test_nonzero_values_that_round_to_zero_exit_2(argv, message, capsys):
    # A nonzero value that underflows is refused by its name, not read as 0.
    for fmt, expected in (("text", f"error: {message}"),
                          ("json", json.dumps({"schema": "error/v1", "error": message}))):
        assert main(["--format", fmt, *argv]) == 2
        assert capsys.readouterr() == (expected + "\n", "")


def test_a_level_shift_too_small_for_a_float_prints_as_zero():
    code, output = run_argv(["--format", "json", "spectrum", "--l", "1e-200", "--n-max", "2"])
    assert code == 0
    assert [level["shift_eV"] for level in json.loads(output)["levels"]] == [0.0, 0.0]


@pytest.mark.parametrize(
    "before, option, value, after, code, message",
    [
        (["bound"], "--e-ref", "-13eV", [], 0, None),
        (["bound"], "--delta-e", "-4e-9eV", [], 2, "observed splitting must be positive"),
        (["bound"], "--kappa", "-1e-5", [], 2, "kappa must be positive"),
        (["spectrum"], "--l", "-1e-5", [], 2, "minimal length must be non-negative"),
        (["spectrum"], "--kappa", "-1e-5", [], 2, "correction strength kappa must be positive"),
        (["spectrum"], "--n-max", "-3", [], 2, "n_max must lie in 1..10000, got -3"),
        (["convert"], "--value", "-1e5", ["--from", "fm", "--to", "cm"], 0, None),
        (["irrep"], "--k-max", "-1/2", [], 2, "--k-max must be a half-integer in 0..10, got -1/2"),
        ([], "--degree-window", "-8:8", ["eval", "l^6"], 0, None),
        ([], "--word-cap", "-1", ["eval", "l"], 2, "word length cap must lie in 1..12, got -1"),
    ],
)
def test_negative_values_read_as_with_equals(before, option, value, after, code, message, capsys):
    assert main([*before, option, value, *after]) == code
    spaced = capsys.readouterr()
    assert main([*before, f"{option}={value}", *after]) == code
    assert capsys.readouterr() == spaced
    if message is not None:
        assert spaced.out == f"error: {message}\n"


def test_main_prints_and_returns(capsys):
    assert main(["eval", "[X+_1, P+_1]"]) == 0
    assert capsys.readouterr().out.strip() == "i"


@pytest.mark.parametrize(
    "argv",
    [
        ["irrep", "--k-max", "-1"],
        ["-f", "csv", "irrep", "--k-max", "-1"],
        ["irrep", "--k-max", "12"],
        ["irrep", "--k-max", "21/2"],
        ["irrep", "--k-max", "1/0"],
        ["irrep", "--k-max", "0/0"],
        ["irrep", "--k-max", "1e10000000"],
        ["irrep", "--k-max", "1e5000"],
    ],
)
def test_irrep_rejects_k_max_outside_default_range(argv):
    code, output = run_argv(argv)
    assert code == 2
    assert output.startswith("error:") and "--k-max" in output


@pytest.mark.parametrize("k_max", ["1/0", "0/0", "1e10000000", "1e5000", "1e2", "abc", "."])
def test_irrep_names_k_max_text_that_is_not_a_number_as_typed(k_max):
    message = f"--k-max must be a half-integer in 0..10, got {k_max}"
    assert run_argv(["irrep", "--k-max", k_max]) == (2, f"error: {message}")


@pytest.mark.parametrize("k_max", ["0.7", "1/3", "5/4", "9.9"])
def test_irrep_rejects_k_max_that_is_not_a_spin(k_max):
    message = f"--k-max must be a half-integer in 0..10, got {Fraction(k_max)}"
    assert run_argv(["irrep", "--k-max", k_max]) == (2, f"error: {message}")
    code, output = run_argv(["--format", "json", "irrep", "--k-max", k_max])
    assert code == 2
    assert json.loads(output) == {"schema": "error/v1", "error": message}


def spawn(entry: str, argv: list[str], stdout=subprocess.PIPE) -> subprocess.Popen:
    """A CLI process started through one of ``ENTRIES``, running this checkout,
    with stdout buffered as in a plain shell."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen(
        [*ENTRIES[entry], *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_main_exits_quietly_when_stdout_closes_early():
    proc = spawn("module", ["eval", "Cx"])
    # The reader leaves before the child, still importing, has written anything.
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b""


def test_entries_write_all_of_verify_to_a_pipe_and_a_file(tmp_path):
    # Both entries leave without the interpreter's teardown; what they wrote
    # must be flushed first, whether stdout is a pipe or a file.
    argv = ["--format", "json", "verify"]
    procs = []
    for entry in ENTRIES:
        with (tmp_path / entry).open("wb") as fh:
            procs.append((entry, spawn(entry, argv, stdout=fh)))
        procs.append((entry, spawn(entry, argv)))
    code, output = run_argv(argv)
    assert code == 0
    expected = (output + "\n").encode()
    for entry, proc in procs:
        stdout, stderr = proc.communicate(timeout=60)
        if stdout is None:
            stdout = (tmp_path / entry).read_bytes()
        assert (entry, proc.returncode, stderr) == (entry, 0, b"")
        assert stdout == expected
    report = json.loads(expected)
    assert sum(c["passed"] for r in report["reports"] for c in r["checks"]) == 530


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["irrep", "--k-max", "10"], 0, run_argv(["irrep", "--k-max", "10"])[1] + "\n"),
        (["eval", "[Cx*Cx, Cx]"], 2, "error: product of 3468960 term pairs exceeds 50000\n"),
    ],
    ids=["irrep", "eval-refused"],
)
def test_entries_exit_with_the_command_code(argv, code, stdout):
    procs = {entry: spawn(entry, argv) for entry in ENTRIES}
    for entry, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert (entry, proc.returncode, out.decode(), err) == (entry, code, stdout, b"")


def test_verify_text_names_failing_checks(monkeypatch):
    from pcqm import operators
    from pcqm.reports import Check, IdentityReport

    def failing_suite():
        check = Check(family="same-branch", label="[X+_1, P+_1]", residual="i", passed=False)
        return IdentityReport(name="canonical-quantization", checks=(check,))

    monkeypatch.setattr(operators, "verify_canonical_relations", failing_suite)
    code, output = run_argv(["verify"])
    assert code == 1
    lines = output.splitlines()
    assert [line for line in lines if line.startswith("FAIL ")] == [
        "FAIL canonical-quantization [same-branch] [X+_1, P+_1]  residual: i"
    ]
    assert lines[0] == "canonical-quantization          1 checks   1 FAILED"
    assert lines[-1] == "VERIFY: FAIL (467 checks)"
    code, output = run_argv(["--format", "csv", "verify"])
    assert code == 1
    assert output.splitlines()[1] == 'canonical-quantization,same-branch,"[X+_1, P+_1]",fail,i'


def test_verify_reads_each_report_document_once(monkeypatch):
    # Text, JSON and CSV are all read from one to_dict() document per report.
    from pcqm.reports import IdentityReport

    to_dict, calls = IdentityReport.to_dict, []

    def counted(report):
        calls.append(len(report.checks))
        return to_dict(report)

    monkeypatch.setattr(IdentityReport, "to_dict", counted)
    for fmt in FORMATS:
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--format", fmt, "verify"]) == 0
        assert (len(calls), sum(calls)) == (7, 530), fmt


@pytest.mark.parametrize("limit, error", [
    (["--degree-window", "-1:1"], "l^-2 outside degree window -1..1"),
    (["--degree-window", "0:0"], "l^-1 outside degree window 0..0"),
    (["--word-cap", "3"], "product word length 4 exceeds cap 3"),
    (["--word-cap", "2"], "product word length 4 exceeds cap 2"),
    (["--degree-window", "-4:0"], "l^1 outside degree window -4..0"),
    (["--degree-window", "1:4"], "l^0 outside degree window 1..4"),
    (["--degree-window", "-4:-1"], "l^0 outside degree window -4..-1"),
])
def test_verify_keeps_its_first_error_under_narrow_limits(limit, error):
    # The suites evaluate their claims in order, so the first product to
    # leave a limit is still the one that refuses the run.
    for fmt, expected in (("text", f"error: {error}"), ("json", {"schema": "error/v1", "error": error})):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*limit, "--format", fmt, "verify"])
        lines = out.getvalue().splitlines()
        assert (code, len(lines)) == (2, 1)
        assert (lines[0] if fmt == "text" else json.loads(lines[0])) == expected


@pytest.mark.parametrize("command", [["verify"], ["eval", "P+_1^2*X+_1"]])
def test_internal_fault_exits_1_with_one_line_and_no_traceback(command, monkeypatch, capsys):
    from pcqm import expr, operators

    def fault(*args):
        raise TypeError("planted fault")

    monkeypatch.setattr(operators, "_contract", fault)
    line = "internal error: TypeError: planted fault"
    for fmt in ("text", "json", "csv"):
        expr._leaf_value.cache_clear()  # a cached product would skip _contract
        code = main(["--format", fmt, *command])
        out, err = capsys.readouterr()
        assert (code, err, out.count("\n")) == (1, "", 1)
        shown = json.loads(out) if fmt == "json" else out.rstrip("\n")
        assert shown == ({"schema": "error/v1", "error": line} if fmt == "json" else line)


def test_irrep_numeric_failure_exits_1(monkeypatch):
    from pcqm import irrep

    good = irrep.ladder_block

    def bad(k):
        # One wrong entry: J3 = diag(1) on the one-dimensional k=0 block.
        block = good(k)
        return irrep.LadderBlock(block.k, block.jp, block.jm, {(0, 0): Fraction(1)})

    monkeypatch.setattr(irrep, "ladder_block", bad)
    code, output = run_argv(["irrep", "--k-max", "1"])
    assert code == 1
    lines = output.splitlines()
    assert lines[-2].startswith("FAIL k=0: [J+,J-] = 2J3 fails at entry (0, 0)")
    assert lines[-1] == "IRREP SWEEP: FAIL"
    # A table without rows still prints its titles, and its CSV its header.
    assert lines[0].split() == ["k", "dim", "casimir", "2k(k+1)", "deviation", "4(C+1/2)"]
    code, output = run_argv(["--format", "csv", "irrep", "--k-max", "1"])
    assert output.splitlines() == ["k,dim,casimir,expected,deviation,denominator,denominator_closed_form"]
    code, output = run_argv(["--format", "json", "irrep", "--k-max", "1"])
    assert code == 1
    payload = json.loads(output)
    assert payload["schema"] == "irrep-sweep/v1"
    assert payload["all_passed"] is False
    assert payload["rows"] == []
    assert "[J+,J-] = 2J3" in payload["error"]


def test_irrep_sweep_to_ten_is_exact():
    code, output = run_argv(["--format", "json", "irrep", "--k-max", "10"])
    assert code == 0
    rows = json.loads(output)["rows"]
    assert len(rows) == 21
    assert all(r["deviation"] == 0.0 and r["casimir"] == r["expected"] for r in rows)


def test_irrep_sweep_calls_no_numpy(monkeypatch):
    from unittest import mock

    import numpy

    from pcqm import irrep

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"irrep sweep used numpy.{name}")

    monkeypatch.setattr(irrep, "np", NoNumpy())
    with mock.patch.object(numpy, "kron", side_effect=AssertionError("kron")), \
            mock.patch.object(numpy, "matmul", side_effect=AssertionError("matmul")):
        code, output = run_argv(["irrep", "--k-max", "10"])
    assert code == 0
    assert output.endswith("IRREP SWEEP: PASS")


@pytest.mark.parametrize("case", sorted(CLI_FORMATS))
def test_cli_formats_golden(case, capsys, verify_main):
    expected = CLI_FORMATS[case]
    argv = expected["argv"]
    if argv[0] == "--format" and argv[2:] == ["verify"]:
        code, stdout = verify_main(argv[1])
    else:
        code, stdout = main(argv), capsys.readouterr().out
    assert code == expected["code"]
    assert stdout == expected["stdout"]
