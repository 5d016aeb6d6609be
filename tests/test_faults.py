"""Fault injection: what catches each kernel fault.

Each row patches one point of the normal-ordering kernel, or of the span
solver behind the closure checks, and records which verify families fail,
with exact counts, whether a polynomial built from a fixed set of raw words
then departs from the rewriting oracle, and whether a bracket past the degree
window then evaluates instead of raising.  A row whose fault every verify
check misses shows which of the other two checks catches it.
"""

import csv
import io
import json
from collections import Counter

import pytest

from helpers import oracle_normal_order
from pcqm import operators, so4
from pcqm.cli import config_from_args, run
from pcqm.expr import evaluate_text
from pcqm.operators import NcPolynomial, gen, render_word
from pcqm.reports import Check
from pcqm.scalars import PC_ONE, BaseScalar, DegreeWindowError, GaussianRational, pc_rational

CHECKS = 530

X1, P1 = gen("X", "+", 1), gen("P", "+", 1)
X2, P2 = gen("X", "-", 2), gen("P", "-", 2)
XP2, PP2 = gen("X", "+", 2), gen("P", "+", 2)

# Raw words that reach every contraction the faults below touch:
# P+_1*P+_1*X+_1 meets _factors(2, 1), P+_1^2*X+_1^2 meets (-i)^2, and
# P+_1*P+_2*X+_1*X+_2 contracts at two ranks in one run junction.
RAW_WORDS = (
    (P1, X1),
    (P1, P1, X1),
    (P1, P1, X1, X1),
    (P2, X2, P2, X2, X1),
    (P1, P2, X2, X1),
    (P1, PP2, X1, XP2),
)

# Brackets whose operands' l-degrees add past the default window -4..4 at a
# pair that commutes: each raises as its two products do.
PAST_WINDOW = ("[l^3*X+_1, l^2*X-_1]", "[l^3*X+_1 + X+_2, l^2*X-_1 + P+_2]")
REFUSAL = "l^5 outside degree window -4..4"


def _plus_i_powers():
    return tuple(BaseScalar({0: GaussianRational(re, im)}) for re, im in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def _minus_i_squared_one():
    powers = operators._MINUS_I_POWERS
    return powers[:2] + (BaseScalar({0: GaussianRational(1, 0)}),) + powers[3:]


def _factors_2_1_bumped():
    factors = operators._factors

    def bumped(m: int, n: int) -> tuple[int, ...]:
        out = factors(m, n)
        return (out[0], out[1] + 1, *out[2:]) if (m, n) == (2, 1) else out

    return bumped


def _difference_keeps_cancelled_words():
    def difference(a, b):
        out = dict(a)
        for word, coeff in b.items():
            prev = out.get(word)
            out[word] = -coeff if prev is None else prev - coeff
        return out

    return difference


def _contract_lowest_rank_only():
    contract = operators._contract
    return lambda word, w1, w2, ranks: contract(word, w1, w2, ranks & -ranks)


def _scan_without_degrees():
    scan = operators._scan
    return lambda p: scan(p)[:4] + (0, 0)


def _span_pivots_doubled():
    span_pivots, two = so4.span_pivots, pc_rational(2)
    return lambda basis: [(label, b, pivot, inverse * two) for label, b, pivot, inverse in span_pivots(basis)]


def _check_of_always_passes():
    return classmethod(lambda cls, family, label, residual, extra=None: cls(family, label, "0", True, extra))


# Every component-closure family, with its check count.
_CLOSURE = {("component-closure", f"[{f}]"): 36 for f in ("R,R", "R,I", "I,I", "x,x", "y,y")}

# (name, patched module, its attribute, a builder of the faulty value, the
# failing verify checks as {(report, family): count}, whether a polynomial
# built from RAW_WORDS departs from the oracle, and whether a bracket of
# PAST_WINDOW evaluates).
FAULTS = (
    ("(-i)^k as (+i)^k", operators, "_MINUS_I_POWERS", _plus_i_powers, {
        ("canonical-quantization", "same-branch"): 8,
        ("induced-relations", "coordinate-momentum"): 4,
        ("so4-commutators", "pc-level"): 24,
        ("so4-commutators", "branch+"): 24,
        ("so4-commutators", "branch-"): 24,
    }, True, False),
    # Every verify check passes under this fault; only the oracle sees it.
    ("(-i)^2 = 1", operators, "_MINUS_I_POWERS", _minus_i_squared_one, {}, True, False),
    ("_factors(2, 1) k=1 entry + 1", operators, "_factors", _factors_2_1_bumped, {
        ("casimir-central", "casimir-central"): 6,
    }, True, False),
    # A cancelled word stays as a zero coefficient, so a residual that cancels
    # is not zero.  A bracket forms only the terms of its pairs that contract,
    # so a word whose pairs commute never reaches _difference inside it: the
    # cross-branch and induced families, the so4 cross-branch family and six
    # checks of each other so4 and closure family pass.  normal_form does not
    # subtract.
    ("_difference keeps cancelled words", operators, "_difference", _difference_keeps_cancelled_words, {
        ("canonical-quantization", "same-branch"): 8,
        **{("so4-commutators", f): 30 for f in ("pc-level", "branch+", "branch-")},
        ("component-recomposition", "branch-components"): 12,
        **{("component-recomposition", f): 6
           for f in ("real-part", "pseudo-part", "pc-recombination", "zero-divisor-recombination")},
        **{key: 30 for key in _CLOSURE},
        ("casimir-central", "casimir-central"): 6,
        ("casimir-expansion", "casimir-expansion"): 2,
    }, False, False),
    # Every verify check passes under this fault; only the oracle sees it, on
    # P+_1*P+_2*X+_1*X+_2.
    ("_contract keeps only the lowest rank", operators, "_contract", _contract_lowest_rank_only, {},
     True, False),
    # Each expansion coefficient is doubled, so exactly the closure checks fail.
    ("span_pivots doubles each reciprocal", so4, "span_pivots", _span_pivots_doubled,
     {key: 24 for key in _CLOSURE}, False, False),
    # The bracket guard sees every operand at l-degree 0, so a bracket forms
    # only its contracting pairs even where a commuting pair leaves the
    # window.  No verify check and no raw word sees it; only the brackets of
    # PAST_WINDOW do.
    ("bracket degree guard reads (0, 0)", operators, "_scan", _scan_without_degrees, {}, False, True),
    # Every residual reads as zero, so every check passes, as unfaulted, and
    # no product changes.  test_residual_check_fails_on_nonzero_residual in
    # tests/test_operators.py catches it, and so does each row above whose
    # verify checks fail: (-i)^k as (+i)^k, _factors(2, 1), _difference and
    # span_pivots.
    ("Check.of's zero test always passes", Check, "of", _check_of_always_passes, {}, False, False),
)


def _verify(fmt: str) -> tuple[int, str]:
    return run(config_from_args(["--format", fmt, "verify"]))


def _departures() -> list[str]:
    """The raw words whose polynomial departs from the oracle's normal form."""
    out = []
    for word in RAW_WORDS:
        terms = {word: PC_ONE}
        if NcPolynomial(terms).terms() != oracle_normal_order(terms):
            out.append(render_word(word))
    return out


def _outcome(text: str) -> str:
    try:
        return evaluate_text(text).render()
    except DegreeWindowError as err:
        return str(err)


def _admitted() -> list[str]:
    """The brackets of PAST_WINDOW that do not raise ``REFUSAL``."""
    return [text for text in PAST_WINDOW if _outcome(text) != REFUSAL]


def test_unfaulted_kernel_matches_the_oracle_on_the_raw_words():
    assert _departures() == []


@pytest.mark.parametrize("name, module, attr, make, failing, departs, admits", FAULTS, ids=[row[0] for row in FAULTS])
def test_each_kernel_fault_is_caught(monkeypatch, name, module, attr, make, failing, departs, admits):
    monkeypatch.setattr(module, attr, make())
    assert bool(_departures()) == departs, f"{name}: raw words departing from the oracle: {_departures()}"
    assert _admitted() == (list(PAST_WINDOW) if admits else []), f"{name}: brackets that evaluate"

    code, text = _verify("text")
    assert code == (1 if failing else 0)
    lines = text.splitlines()
    named = Counter(tuple(line.split(" ", 3)[1:3]) for line in lines if line.startswith("FAIL "))
    assert named == Counter({(report, f"[{family}]"): n for (report, family), n in failing.items()})
    assert lines[-1] == f"VERIFY: {'FAIL' if failing else 'PASS'} ({CHECKS} checks)"

    code, payload = _verify("json")
    assert code == (1 if failing else 0)
    report = json.loads(payload)
    assert report["all_passed"] is not bool(failing)
    reports = report["reports"]
    assert sum(len(r["checks"]) for r in reports) == CHECKS
    assert Counter((r["name"], c["family"]) for r in reports for c in r["checks"] if not c["passed"]) == failing

    code, table = _verify("csv")
    assert code == (1 if failing else 0)
    rows = list(csv.DictReader(io.StringIO(table)))
    assert len(rows) == CHECKS
    assert Counter((row["report"], row["family"]) for row in rows if row["status"] != "pass") == failing
