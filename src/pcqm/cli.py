"""Command-line front end.

Subcommands: verify (symbolic identity battery), irrep (Casimir sweep),
spectrum (level table), bound (length exclusion bound), convert (units),
eval (parse and normal-order an operator expression).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import hydrogen, irrep, units
from .limits import limits
from .record import Record

CONSTANTS_ENV = "PCQM_CONSTANTS"
FORMATS = ("text", "json", "csv")


_VALUE_UNIT_RE = re.compile(
    r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([A-Za-z][A-Za-z0-9^\-]*)?\s*$"
)


def _number(text: str, name: str) -> float:
    """A number literal as a float, named ``name`` when it is refused: text that
    is no number, or a nonzero literal below the float range, which reads as 0."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None
    if value == 0 and float(text.lower().partition("e")[0]):  # a nonzero mantissa
        raise ValueError(f"{name} is too small for the float range")
    return value or 0.0  # -0.0 reads as 0.0, as the exact conversions do


def parse_value_with_unit(text: str, default_unit: str, name: str = "value") -> tuple[float, str]:
    m = _VALUE_UNIT_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse value {text!r} (expected e.g. '4e-9eV')")
    return _number(m.group(1), name), m.group(2) or default_unit


def _energy_in_ev(text: str, constants: str, name: str) -> float:
    value, unit = parse_value_with_unit(text, "eV", name)
    units.require_finite(value, name)
    if unit == "eV":
        return value
    return units.as_float(units.convert(value, unit, "eV", constants), name)


def _integer(text: str, name: str) -> int:
    """An integer literal, named ``name`` when it is refused."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


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
    # Held as the text typed, as each command's options are; ``run`` reads them.
    parser.add_argument("--degree-window", default=default(None), metavar="LO:HI")
    parser.add_argument("--word-cap", default=default(None))
    # Read "-1e5", "-13eV" and "-4:4" as values, as argparse reads "-2".
    parser._negative_number_matcher = re.compile(r"-\.?\d")


COMMANDS = {
    "verify": "run the full symbolic identity battery",
    "irrep": "Casimir and denominator sweep over (k,k) irreps",
    "spectrum": "hydrogen level table with the l^2 correction",
    "bound": "upper bound on the minimal length",
    "convert": "natural-units conversion",
    "eval": "evaluate an operator expression to normal form",
}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    _add_common(p, suppress=True)
    if command == "irrep":
        p.add_argument("--k-max", default="5", help="largest spin, a half-integer in 0..10")
    elif command == "spectrum":
        p.add_argument("--l", default="0", help="minimal length in GeV^-1")
        p.add_argument("--kappa", default="1", help="correction strength in GeV^2")
        p.add_argument("--n-max", default="5")
        p.add_argument("--literal-e2", action="store_true", help="literal charge-squared numerator")
    elif command == "bound":
        p.add_argument("--delta-e", default="4e-9eV", help="observed splitting (eV or Hz)")
        p.add_argument("--e-ref", default="13eV", help="reference level energy (eV or Hz)")
        p.add_argument("--kappa", default="1")
    elif command == "convert":
        p.add_argument("--value", required=True)
        p.add_argument("--from", dest="from_unit", required=True, choices=units.UNITS)
        p.add_argument("--to", dest="to_unit", required=True, choices=units.UNITS)
    elif command == "eval":
        p.add_argument("expression")
        # Read "-X+_1" as the expression; "-f" and "-h" still name options.
        p._negative_number_matcher = re.compile(r"-[^-]")


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``argv`` (``sys.argv[1:]`` for None).  Every subcommand is
    listed with its help, but only those named in ``argv`` get their options:
    the one chosen is among them, and a cold process skips building the rest."""
    named = set(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="pcqm",
        description="Pseudo-complex quantum mechanics toolkit",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help in COMMANDS.items():
        p = sub.add_parser(command, help=help)
        if command in named:
            _add_options(p, command)
    return parser


def config_from_args(argv: list[str] | None = None) -> argparse.Namespace:
    """One parsed command line: the common options and the subcommand's own."""
    return build_parser(argv).parse_args(argv)


class Result(Record):
    """One command's outcome in every output format."""

    # payload: the JSON document, carrying its "schema" tag; header and rows: the CSV.
    __slots__ = ("code", "payload", "header", "rows", "text")


def _columns(record: dict) -> tuple[list[str], list[list]]:
    """CSV header and row of a one-record result."""
    return list(record), [list(record.values())]


# A table's columns: row key -> (text title, width, format), or None for a
# column the text leaves out.  JSON rows and CSV columns carry every key.
_IRREP_COLUMNS = {
    "k": ("k", 4, ""),
    "dim": ("dim", 5, ""),
    "casimir": ("casimir", 10, ".6g"),
    "expected": ("2k(k+1)", 9, ".6g"),
    "deviation": ("deviation", 10, ".2e"),
    "denominator": ("4(C+1/2)", 9, ""),
    "denominator_closed_form": None,
}
_SPECTRUM_COLUMNS = {
    "n": ("n", 3, ""),
    "k": ("k", 5, ""),
    "degeneracy": ("degeneracy", 11, ""),
    "E0_eV": ("E0_eV", 14, ".6g"),
    "shift_eV": ("shift_eV", 14, ".6g"),
}


def _table(columns: dict, rows: list[dict], *tail: str) -> tuple[list[str], list[list], str]:
    """A table's CSV header and rows, and its fixed-width text: the titles, one
    line per row, then the ``tail`` lines."""
    shown = {key: column for key, column in columns.items() if column is not None}
    lines = [" ".join(f"{title:>{width}}" for title, width, _ in shown.values())]
    lines += [
        " ".join(f"{row[key]:>{width}{fmt}}" for key, (_, width, fmt) in shown.items())
        for row in rows
    ]
    header = list(columns)
    return header, [[row[key] for key in header] for row in rows], "\n".join([*lines, *tail])


def render(result: Result, fmt: str) -> str:
    """The result as text, JSON or CSV."""
    if fmt == "json":
        import json

        return json.dumps(result.payload, indent=2)
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(result.header)
        writer.writerows(result.rows)
        return buf.getvalue().rstrip("\n")
    return result.text


def _run_verify(cfg: argparse.Namespace) -> Result:
    from . import so4

    # The reports' JSON documents, from which the text and the CSV rows are read.
    reports = [r.to_dict() for r in so4.verify()]
    rows = [
        [r["name"], c["family"], c["label"], "pass" if c["passed"] else "fail", c["residual"]]
        for r in reports
        for c in r["checks"]
    ]
    lines = []
    for r in reports:
        failed = sum(not c["passed"] for c in r["checks"])
        verdict = f"{failed} FAILED" if failed else "all pass"
        lines.append(f"{r['name']:28s} {len(r['checks']):4d} checks   {verdict}")
    lines += [f"FAIL {name} [{family}] {label}  residual: {residual}"
              for name, family, label, status, residual in rows if status == "fail"]
    all_passed = all(r["all_passed"] for r in reports)
    lines.append(f"VERIFY: {'PASS' if all_passed else 'FAIL'} ({len(rows)} checks)")
    payload = {"schema": "verify-report/v1", "all_passed": all_passed, "reports": reports}
    header = ["report", "family", "label", "status", "residual"]
    return Result(0 if all_passed else 1, payload, header, rows, "\n".join(lines))


# Decimal or fraction text of at most 20 digits a side: an exponent such as
# 1e10000000 is refused as text, before anything expands it.
_SPIN_TEXT_RE = re.compile(r"\s*[-+]?(\d{1,20}(/\d{1,20}|\.\d{0,20})?|\.\d{1,20})\s*")


def _k_max(text: str) -> Fraction:
    """``--k-max`` as a half-integer in 0..DEFAULT_K_MAX.  A refusal names the
    number read, or the text as typed when it is not a number."""
    try:
        k = Fraction(text) if _SPIN_TEXT_RE.fullmatch(text) else None
    except ZeroDivisionError:
        k = None
    if k is not None and 0 <= k <= irrep.DEFAULT_K_MAX and (2 * k).denominator == 1:
        return k
    shown = text if k is None else k
    raise ValueError(f"--k-max must be a half-integer in 0..{irrep.DEFAULT_K_MAX}, got {shown}")


def _irrep_rows(k_max: Fraction) -> tuple[list[dict], str | None]:
    """Rows of the sweep up to k_max, and the failed exact spin-block check
    that ended it early."""
    rows = []
    k = Fraction(0)
    while k <= k_max:
        try:
            value = float(irrep.check_ladder_block(irrep.ladder_block(k)))
        except ArithmeticError as err:
            return rows, f"k={k}: {err}"
        expected = float(2 * k * (k + 1))
        denom = irrep.denominator_eigenvalue(k)
        values = (
            str(k), irrep.shell_degeneracy(k), value, expected, abs(value - expected), str(denom),
            str(2 * (2 * k + 1) ** 2),
        )
        rows.append(dict(zip(_IRREP_COLUMNS, values)))
        k += Fraction(1, 2)
    return rows, None


def _run_irrep(cfg: argparse.Namespace) -> Result:
    rows, error = _irrep_rows(_k_max(cfg.k_max))
    ok = error is None and all(
        r["deviation"] == 0 and r["denominator"] == r["denominator_closed_form"]
        for r in rows
    )
    tail = [f"IRREP SWEEP: {'PASS' if ok else 'FAIL'}"]
    payload = {"schema": "irrep-sweep/v1", "all_passed": ok, "rows": rows}
    if error is not None:
        tail.insert(0, f"FAIL {error}")
        payload["error"] = error
    return Result(0 if ok else 1, payload, *_table(_IRREP_COLUMNS, rows, *tail))


def spectrum_rows(levels: tuple[hydrogen.EnergyLevel, ...]) -> list[dict]:
    """The ``spectrum/v1`` rows of a level table."""
    fields = (
        (lv.n, str(lv.k), lv.degeneracy, float(lv.e0_ev), float(lv.shift_ev)) for lv in levels
    )
    return [dict(zip(_SPECTRUM_COLUMNS, values)) for values in fields]


def _run_spectrum(cfg: argparse.Namespace) -> Result:
    l, kappa = _number(cfg.l, "minimal length l"), _number(cfg.kappa, "correction strength kappa")
    n_max = _integer(cfg.n_max, "n_max")
    rows = spectrum_rows(hydrogen.corrected_spectrum(n_max, l, kappa, cfg.literal_e2))
    return Result(0, {"schema": "spectrum/v1", "levels": rows}, *_table(_SPECTRUM_COLUMNS, rows))


def bound_text(b: dict) -> str:
    """The text of a ``bound/v1`` record."""
    return (
        f"inputs: delta_E = {b['delta_e_eV']:g} eV, E_ref = {b['e_ref_eV']:g} eV, "
        f"kappa = {b['kappa_GeV2']:g} GeV^2  [{b['constants']}]\n"
        f"l^2   <= {b['l_squared_GeVinv2']:.6g} GeV^-2\n"
        f"l_max <= {b['l_max_GeVinv']:.6g} GeV^-1 = {b['l_max_fm']:.6g} fm "
        f"= {b['l_max_cm']:.6g} cm\n"
        f"Born-Infeld comparison: computed {b['born_infeld_computed_cm']:.6g} cm "
        f"(quoted {b['born_infeld_quoted_cm']:g} cm) for A_m = "
        f"{hydrogen.BORN_INFELD_ACCELERATION:g} m/sec^2"
    )


def _run_bound(cfg: argparse.Namespace) -> Result:
    units.unit_table(cfg.constants)  # refuses an unknown constant set before any argument
    record = hydrogen.length_bound(
        delta_e_ev=_energy_in_ev(cfg.delta_e, cfg.constants, "observed splitting"),
        e_ref_ev=_energy_in_ev(cfg.e_ref, cfg.constants, "reference energy"),
        kappa_gev2=_number(cfg.kappa, "kappa"),
        constants=cfg.constants,
    )
    return Result(0, {"schema": "bound/v1", **record}, *_columns(record), bound_text(record))


def _run_convert(cfg: argparse.Namespace) -> Result:
    units.unit_table(cfg.constants)  # refuses an unknown constant set before any argument
    value, unit, target_unit = _number(cfg.value, "value"), cfg.from_unit, cfg.to_unit
    result = units.as_float(
        units.convert(value, unit, target_unit, cfg.constants), "converted value"
    )
    record = {"value": value, "from": unit, "to": target_unit, "result": result}
    return Result(
        0,
        {"schema": "convert/v1", **record, "constants": cfg.constants},
        *_columns(record),
        f"{value:g} {unit} = {result:.6g} {target_unit}",
    )


def _run_eval(cfg: argparse.Namespace) -> Result:
    from .expr import evaluate_text

    expression = cfg.expression
    record = {"expression": expression, "normal_form": evaluate_text(expression).render()}
    return Result(0, {"schema": "eval/v1", **record}, *_columns(record), record["normal_form"])


_RUNNERS = {
    "verify": _run_verify,
    "irrep": _run_irrep,
    "spectrum": _run_spectrum,
    "bound": _run_bound,
    "convert": _run_convert,
    "eval": _run_eval,
}


def run(cfg: argparse.Namespace) -> tuple[int, str]:
    """Execute one subcommand; returns (exit status, rendered output).

    The degree window and word cap apply to this call only.  A refused input
    (``ValueError`` or ``ArithmeticError``) exits 2, and any other exception,
    an internal fault, exits 1; either is reported, never raised.
    """
    try:
        overrides = {}
        if cfg.degree_window is not None:
            overrides["window"] = _parse_window(cfg.degree_window)
        if cfg.word_cap is not None:
            overrides["word_cap"] = _integer(cfg.word_cap, "word length cap")
        with limits(**overrides):
            result = _RUNNERS[cfg.command](cfg)
            return result.code, render(result, cfg.format)
    except (ValueError, ArithmeticError) as err:
        code, error, prefix = 2, str(err), "error: "
    except Exception as err:
        code, error, prefix = 1, f"internal error: {type(err).__name__}: {err}", ""
    if cfg.format == "json":
        import json

        return code, json.dumps({"schema": "error/v1", "error": error})
    return code, prefix + error


def main(argv: list[str] | None = None) -> int:
    cfg = config_from_args(argv)
    code, output = run(cfg)
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early.  Python flushes stdout again at exit, so
        # point it at devnull to keep that flush from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def entry() -> None:
    """Process entry of ``pcqm`` and ``python -m pcqm.cli``: ``main``, then
    ``os._exit`` once stdout and stderr are flushed.  The OS reclaims the
    heap, so the process skips the interpreter's teardown (mostly numpy's)."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
