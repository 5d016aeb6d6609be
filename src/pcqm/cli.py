"""Command-line front end.

Subcommands: verify (symbolic identity battery), irrep (Casimir sweep),
spectrum (level table), bound (length exclusion bound), convert (units),
eval (parse and normal-order an operator expression).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import hydrogen, irrep, operators, so4, units
from .expr import evaluate_text
from .limits import limits
from .units import ConstantSet

CONSTANTS_ENV = "PCQM_CONSTANTS"
FORMATS = ("text", "json", "csv")


@dataclass
class RunConfig:
    command: str
    fmt: str = "text"
    constants_mode: str = units.PAPER_APPROX
    degree_window: tuple[int, int] | None = None
    word_cap: int | None = None
    params: dict = field(default_factory=dict)


_VALUE_UNIT_RE = re.compile(
    r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([A-Za-z][A-Za-z0-9^\-]*)?\s*$"
)


def parse_value_with_unit(text: str, default_unit: str) -> tuple[float, str]:
    m = _VALUE_UNIT_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse value {text!r} (expected e.g. '4e-9eV')")
    return float(m.group(1)), m.group(2) or default_unit


def _energy_in_ev(text: str, constants: ConstantSet) -> float:
    value, unit = parse_value_with_unit(text, "eV")
    if unit == "eV":
        return value
    return float(units.convert(units.quantity(value, unit), "eV", constants).magnitude)


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"degree window must look like '-4:4', got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Suppressed defaults on subparsers keep values given before the
    # subcommand from being clobbered.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", "-f", choices=FORMATS, default=default("text"))
    parser.add_argument(
        "--constants",
        choices=(units.PAPER_APPROX, units.PRECISE),
        default=default(os.environ.get(CONSTANTS_ENV, units.PAPER_APPROX)),
        help="constant set (env %s)" % CONSTANTS_ENV,
    )
    parser.add_argument(
        "--degree-window", type=_parse_window, default=default(None), metavar="LO:HI"
    )
    parser.add_argument("--word-cap", type=int, default=default(None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcqm",
        description="Pseudo-complex quantum mechanics toolkit",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _add_common(p, suppress=True)
        return p

    subparser("verify", "run the full symbolic identity battery")

    p = subparser("irrep", "Casimir and denominator sweep over (k,k) irreps")
    p.add_argument("--k-max", type=Fraction, default=Fraction(5))

    p = subparser("spectrum", "hydrogen level table with the l^2 correction")
    p.add_argument("--l", type=float, default=0.0, help="minimal length in GeV^-1")
    p.add_argument("--kappa", type=float, default=1.0, help="correction strength in GeV^2")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--literal-e2", action="store_true", help="literal charge-squared numerator")

    p = subparser("bound", "upper bound on the minimal length")
    p.add_argument("--delta-e", default="4e-9eV", help="observed splitting (eV or Hz)")
    p.add_argument("--e-ref", default="13eV", help="reference level energy (eV or Hz)")
    p.add_argument("--kappa", type=float, default=1.0)

    p = subparser("convert", "natural-units conversion")
    p.add_argument("--value", type=float, required=True)
    p.add_argument("--from", dest="from_unit", required=True, choices=units.UNITS)
    p.add_argument("--to", dest="to_unit", required=True, choices=units.UNITS)

    p = subparser("eval", "evaluate an operator expression to normal form")
    p.add_argument("expression")
    return parser


def config_from_args(argv: list[str] | None = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("format", "constants", "degree_window", "word_cap", "command")
    }
    return RunConfig(
        command=args.command,
        fmt=args.format,
        constants_mode=args.constants,
        degree_window=args.degree_window,
        word_cap=args.word_cap,
        params=params,
    )


@dataclass(frozen=True)
class Result:
    """One command's outcome in every output format."""

    code: int
    payload: dict  # JSON document, carrying its "schema" tag
    header: list[str]  # CSV
    rows: list[list]
    text: str


def _columns(records: list[dict]) -> tuple[list[str], list[list]]:
    """CSV header and rows of a list of same-keyed records."""
    header = list(records[0])
    return header, [[r[h] for h in header] for r in records]


def render(result: Result, fmt: str) -> str:
    """The result as text, JSON or CSV."""
    if fmt == "json":
        return json.dumps(result.payload, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(result.header)
        writer.writerows(result.rows)
        return buf.getvalue().rstrip("\n")
    return result.text


def _run_verify(cfg: RunConfig) -> Result:
    reports = [
        operators.verify_canonical_relations(),
        operators.verify_induced_relations(),
        so4.verify_so4_relations(),
        so4.verify_recomposition(),
        so4.verify_component_closure(),
        so4.verify_casimir_commutes(),
        so4.casimir_expansion().report(),
    ]
    all_passed = all(r.all_passed for r in reports)
    lines = [r.to_text() for r in reports]
    lines += [
        f"FAIL {r.name} [{c.family}] {c.label}  residual: {c.residual}"
        for r in reports
        for c in r.failures()
    ]
    total = sum(len(r.checks) for r in reports)
    lines.append(f"VERIFY: {'PASS' if all_passed else 'FAIL'} ({total} checks)")
    return Result(
        0 if all_passed else 1,
        {
            "schema": "verify-report/v1",
            "all_passed": all_passed,
            "reports": [r.to_dict() for r in reports],
        },
        ["report", "family", "label", "status", "residual"],
        [row for r in reports for row in r.to_csv_rows()],
        "\n".join(lines),
    )


_IRREP_COLUMNS = [
    "k", "dim", "casimir", "expected", "deviation", "denominator", "denominator_closed_form",
]


def _irrep_rows(k_max: Fraction) -> tuple[list[dict], str | None]:
    """Rows of the sweep up to k_max, and the numeric failure that ended it early."""
    if not 0 <= k_max <= irrep.DEFAULT_K_MAX:
        raise ValueError(f"--k-max must lie in 0..{irrep.DEFAULT_K_MAX}, got {k_max}")
    rows = []
    k = Fraction(0)
    while k <= k_max:
        rep = irrep.build_irrep(k)
        try:
            value = irrep.casimir_eigenvalue(rep)
        except ArithmeticError as err:
            return rows, f"k={k}: {err}"
        expected = float(2 * k * (k + 1))
        denom = irrep.denominator_eigenvalue(k)
        values = (
            str(k), rep.dim, value, expected, abs(value - expected), str(denom),
            str(2 * (2 * k + 1) ** 2),
        )
        rows.append(dict(zip(_IRREP_COLUMNS, values)))
        k += Fraction(1, 2)
    return rows, None


def _run_irrep(cfg: RunConfig) -> Result:
    rows, error = _irrep_rows(cfg.params["k_max"])
    ok = error is None and all(
        r["deviation"] < 1e-12 and r["denominator"] == r["denominator_closed_form"]
        for r in rows
    )
    lines = [
        f"{'k':>4} {'dim':>5} {'casimir':>10} {'2k(k+1)':>9} {'deviation':>10} {'4(C+1/2)':>9}"
    ]
    for r in rows:
        lines.append(
            f"{r['k']:>4} {r['dim']:>5} {r['casimir']:>10.6g} {r['expected']:>9.6g} "
            f"{r['deviation']:>10.2e} {r['denominator']:>9}"
        )
    payload = {"schema": "irrep-sweep/v1", "all_passed": ok, "rows": rows}
    if error is not None:
        lines.append(f"FAIL {error}")
        payload["error"] = error
    lines.append(f"IRREP SWEEP: {'PASS' if ok else 'FAIL'}")
    return Result(
        0 if ok else 1,
        payload,
        _IRREP_COLUMNS,
        [list(r.values()) for r in rows],
        "\n".join(lines),
    )


def _run_spectrum(cfg: RunConfig) -> Result:
    spectrum_cfg = hydrogen.SpectrumConfig(
        constants=hydrogen.PhysicalConstants(),
        l_gevinv=cfg.params["l"],
        kappa_gev2=cfg.params["kappa"],
        n_max=cfg.params["n_max"],
        numerator=hydrogen.NUMERATOR_LITERAL_E2
        if cfg.params["literal_e2"]
        else hydrogen.NUMERATOR_BOHR,
    )
    levels = hydrogen.corrected_spectrum(spectrum_cfg)
    rows = hydrogen.spectrum_rows(levels)
    return Result(
        0, {"schema": "spectrum/v1", "levels": rows}, *_columns(rows), hydrogen.spectrum_text(levels)
    )


def _run_bound(cfg: RunConfig) -> Result:
    constants = ConstantSet.from_mode(cfg.constants_mode)
    bound = hydrogen.length_bound(
        delta_e_ev=_energy_in_ev(cfg.params["delta_e"], constants),
        e_ref_ev=_energy_in_ev(cfg.params["e_ref"], constants),
        kappa_gev2=cfg.params["kappa"],
        constants=constants,
    )
    payload = hydrogen.bound_dict(bound)
    fields = {k: v for k, v in payload.items() if k != "schema"}
    return Result(0, payload, *_columns([fields]), hydrogen.bound_text(bound))


def _run_convert(cfg: RunConfig) -> Result:
    constants = ConstantSet.from_mode(cfg.constants_mode)
    value = cfg.params["value"]
    q = units.quantity(value, cfg.params["from_unit"])
    out = units.convert(q, cfg.params["to_unit"], constants)
    record = {"value": value, "from": q.unit, "to": out.unit, "result": float(out.magnitude)}
    return Result(
        0,
        {"schema": "convert/v1", **record, "constants": constants.mode},
        *_columns([record]),
        f"{value:g} {q.unit} = {record['result']:.6g} {out.unit}",
    )


def _run_eval(cfg: RunConfig) -> Result:
    expression = cfg.params["expression"]
    record = {"expression": expression, "normal_form": evaluate_text(expression).render()}
    return Result(
        0, {"schema": "eval/v1", **record}, *_columns([record]), record["normal_form"]
    )


_RUNNERS = {
    "verify": _run_verify,
    "irrep": _run_irrep,
    "spectrum": _run_spectrum,
    "bound": _run_bound,
    "convert": _run_convert,
    "eval": _run_eval,
}


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute one subcommand; returns (exit status, rendered output).

    The degree window and word cap apply to this call only.
    """
    overrides = {"window": cfg.degree_window, "word_cap": cfg.word_cap}
    try:
        with limits(**{k: v for k, v in overrides.items() if v is not None}):
            result = _RUNNERS[cfg.command](cfg)
            return result.code, render(result, cfg.fmt)
    except (ValueError, ArithmeticError) as err:
        if cfg.fmt == "json":
            return 2, json.dumps({"schema": "error/v1", "error": str(err)})
        return 2, f"error: {err}"


def main(argv: list[str] | None = None) -> int:
    cfg = config_from_args(argv)
    code, output = run(cfg)
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
