import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcqm.cli import config_from_args, main, parse_value_with_unit, run
from pcqm.limits import current_limits

DATA = Path(__file__).parent / "data"
CLI_FORMATS = json.loads((DATA / "cli_formats.json").read_text())


def run_argv(argv: list[str]) -> tuple[int, str]:
    return run(config_from_args(argv))


def test_parse_value_with_unit():
    assert parse_value_with_unit("4e-9eV", "eV") == (4e-9, "eV")
    assert parse_value_with_unit("13eV", "eV") == (13.0, "eV")
    assert parse_value_with_unit("1000Hz", "eV") == (1000.0, "Hz")
    assert parse_value_with_unit("2.5", "eV") == (2.5, "eV")
    with pytest.raises(ValueError):
        parse_value_with_unit("eV", "eV")


def test_verify_passes_with_exit_zero():
    code, output = run_argv(["verify"])
    assert code == 0
    assert output.endswith("VERIFY: PASS (530 checks)")


def test_verify_json_schema():
    code, output = run_argv(["--format", "json", "verify"])
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


def test_verify_csv_has_all_rows():
    code, output = run_argv(["-f", "csv", "verify"])
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


def test_bound_golden():
    code, output = run_argv(["bound"])
    assert code == 0
    assert output + "\n" == (DATA / "bound_default.txt").read_text()


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


def test_convert_dimension_error():
    code, output = run_argv(["convert", "--value", "1", "--from", "fm", "--to", "GeV"])
    assert code == 2
    assert "cannot convert" in output


def test_constants_env_default(monkeypatch):
    monkeypatch.setenv("PCQM_CONSTANTS", "precise")
    cfg = config_from_args(["convert", "--value", "1", "--from", "fm", "--to", "GeV^-1"])
    assert cfg.constants_mode == "precise"


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
    ],
)
def test_irrep_rejects_k_max_outside_default_range(argv):
    code, output = run_argv(argv)
    assert code == 2
    assert output.startswith("error:") and "--k-max" in output


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
    assert lines[-1] == "VERIFY: FAIL (467 checks)"


def test_irrep_numeric_failure_exits_1(monkeypatch):
    from pcqm import irrep

    rep = irrep.build_irrep(1)
    broken = type(rep)(k=rep.k, dim=rep.dim, l_ops=rep.l_ops, m_ops=(rep.l_ops[0] + 1,) + rep.m_ops[1:])
    monkeypatch.setattr(irrep, "build_irrep", lambda k: broken)
    code, output = run_argv(["irrep", "--k-max", "1"])
    assert code == 1
    lines = output.splitlines()
    assert lines[-2].startswith("FAIL k=0: Casimir matrix is not scalar")
    assert lines[-1] == "IRREP SWEEP: FAIL"
    code, output = run_argv(["--format", "json", "irrep", "--k-max", "1"])
    assert code == 1
    payload = json.loads(output)
    assert payload["schema"] == "irrep-sweep/v1"
    assert payload["all_passed"] is False
    assert payload["rows"] == []
    assert "not scalar" in payload["error"]


@pytest.mark.parametrize("case", sorted(CLI_FORMATS))
def test_cli_formats_golden(case, capsys):
    expected = CLI_FORMATS[case]
    assert main(expected["argv"]) == expected["code"]
    assert capsys.readouterr().out == expected["stdout"]
