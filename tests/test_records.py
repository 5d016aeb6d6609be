"""The value-record contract of every record class in pcqm.

Each sample names a class's fields in constructor order, independently of
how the class stores them: equal fields give equal records with equal
hashes, a field cannot be assigned, copies and pickles keep the fields, and
``repr`` reads ``Name(field=value, ...)``.
"""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import pcqm
from pcqm import cli, expr, hydrogen, irrep, limits, reports, scalars, so4
from pcqm.operators import generator_poly
from pcqm.record import Record

X1 = generator_poly("X", "+", 1)
P1 = generator_poly("P", "+", 1)
CHECK = reports.Check("same-branch", "[X+_1, P+_1]", "i", False)
LEAF = expr.Num(Fraction(2))
ARRAY = np.eye(2)

# (class, fields in constructor order)
SAMPLES = [
    (limits.Limits, {"window": (-2, 3), "word_cap": 5}),
    (reports.Check, {"family": "f", "label": "[X+_1, P+_1]", "residual": "0", "passed": True,
                     "extra": None}),
    (reports.IdentityReport, {"name": "suite", "checks": (CHECK,), "schema": "identity-report/v1"}),
    (scalars.GaussianRational, {"re": Fraction(1, 2), "im": Fraction(-3)}),
    (so4.VectorOperators, {"comp": "x", "l_vec": (X1, P1, X1), "m_vec": (P1, X1, P1),
                           "l_squared": X1, "m_squared": P1, "casimir": X1}),
    (so4.CasimirExpansion, {"c_x": X1, "c_r": P1, "decomposition_residual": X1,
                            "ordering_residual": P1, "order4_residual": X1, "difference": P1}),
    (irrep.SpinBlock, {"k": Fraction(1, 2), "j1": ARRAY, "j2": ARRAY, "j3": ARRAY}),
    (irrep.LadderBlock, {"k": Fraction(1, 2), "jp": {(0, 1): Fraction(1)},
                         "jm": {(1, 0): Fraction(1)}, "j3": {(0, 0): Fraction(1, 2)}}),
    (irrep.So4Irrep, {"k": Fraction(1, 2), "dim": 4, "l_ops": (ARRAY,) * 3, "m_ops": (ARRAY,) * 3}),
    (hydrogen.EnergyLevel, {"n": 2, "k": Fraction(1, 2), "e0_ev": Fraction(-17, 5),
                            "shift_ev": Fraction(0), "degeneracy": 4}),
    (expr.Num, {"value": Fraction(2, 3)}),
    (expr.ImagUnit, {}),
    (expr.PseudoUnit, {}),
    (expr.LengthPower, {"power": -2}),
    (expr.GenSym, {"kind": "X", "branch": "+", "index": 1}),
    (expr.AliasSym, {"name": "px", "index": 2}),
    (expr.NamedOp, {"letter": "L", "comp": "xy", "i": 1, "j": 2}),
    (expr.CasimirOp, {"comp": "R"}),
    (expr.Neg, {"operand": LEAF}),
    (expr.Add, {"left": LEAF, "right": expr.ImagUnit()}),
    (expr.Sub, {"left": LEAF, "right": expr.ImagUnit()}),
    (expr.Mul, {"left": LEAF, "right": expr.ImagUnit()}),
    (expr.Pow, {"base": LEAF, "exponent": 3}),
    (expr.Bracket, {"left": LEAF, "right": expr.ImagUnit()}),
    (cli.Result, {"code": 0, "payload": {"schema": "eval/v1"}, "header": ["normal_form"],
                  "rows": [["l"]], "text": "l"}),
]
BY_IDENTITY = {irrep.SpinBlock, irrep.LadderBlock, irrep.So4Irrep}
IDS = [cls.__name__ for cls, _ in SAMPLES]


def _pcqm_modules():
    return [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(pcqm.__path__, "pcqm.")
    ]


def _classes_defined_in_pcqm():
    return {
        cls
        for module in _pcqm_modules()
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
    }


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_no_pcqm_class_is_a_dataclass():
    classes = _classes_defined_in_pcqm()
    assert len(classes) > len(SAMPLES)
    assert [cls.__name__ for cls in classes if hasattr(cls, "__dataclass_fields__")] == []


def test_samples_cover_every_record_class():
    records = {cls for cls in _classes_defined_in_pcqm() if issubclass(cls, Record)} - {Record}
    assert records == {cls for cls, _ in SAMPLES}
    assert len(records) == 25


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_records(cls, fields):
    a, b = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(a, name) is value
    if cls in BY_IDENTITY:
        assert a == a and a != b
        assert hash(a) != hash(b)
        return
    assert a == b and not a != b
    if _hashable(tuple(fields.values())):
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_fields_refuse_assignment(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_copies_and_pickles_keep_the_fields(cls, fields):
    record = cls(**fields)
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls
        for name, value in fields.items():
            if isinstance(value, np.ndarray) or name in ("l_ops", "m_ops"):
                assert np.array_equal(getattr(copied, name), value)
            else:
                assert getattr(copied, name) == value
        if cls not in BY_IDENTITY:
            assert copied == record


@pytest.mark.parametrize("cls, fields", SAMPLES, ids=IDS)
def test_repr_names_each_field(cls, fields):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_repr_of_a_parse_tree_and_the_default_limits():
    assert repr(expr.parse("-X+_1*2")) == (
        "Neg(operand=Mul(left=GenSym(kind='X', branch='+', index=1), "
        "right=Num(value=Fraction(2, 1))))"
    )
    assert repr(limits.Limits()) == "Limits(window=(-4, 4), word_cap=8)"


def test_records_of_different_classes_or_fields_differ():
    a, b = expr.Num(Fraction(1)), expr.Num(Fraction(2))
    assert expr.Add(a, b) != expr.Sub(a, b)
    assert expr.Add(a, b) != expr.Add(b, a)
    assert expr.ImagUnit() == expr.ImagUnit() and expr.ImagUnit() != expr.PseudoUnit()
    assert limits.Limits((-4, 4), 8) == limits.Limits() != limits.Limits((-4, 4), 9)
    assert expr.Num(Fraction(1)) != Fraction(1)


def test_fields_given_by_position_and_by_name_fill_slot_order():
    assert expr.Pow(LEAF, exponent=3) == expr.Pow(exponent=3, base=LEAF) == expr.Pow(LEAF, 3)
    assert reports.Check("f", "l", "0", True, extra={"n": 1}).extra == {"n": 1}
    assert scalars.GaussianRational(im=Fraction(2)) == scalars.GaussianRational(Fraction(0), Fraction(2))


def test_defaults_and_fresh_params():
    assert limits.Limits() == limits.Limits((-4, 4), 8)
    assert scalars.GaussianRational() == scalars.GaussianRational(Fraction(0), Fraction(0))
    assert expr.LengthPower() == expr.LengthPower(1)
    assert reports.IdentityReport("s", ()).schema == "identity-report/v1"
    assert reports.Check("f", "l", "0", True).extra is None


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: limits.Limits((4, -4)), "empty degree window 4..-4"),
        (lambda: limits.Limits((-8.5, 8)), r"degree window must be two integers, got \(-8\.5, 8\)"),
        (lambda: limits.Limits((False, 4)), r"degree window must be two integers, got \(False, 4\)"),
        (lambda: limits.Limits((-4, 0, 4)), r"degree window must be two integers, got \(-4, 0, 4\)"),
        (lambda: limits.Limits(word_cap=0), "word length cap must lie in 1..12, got 0"),
        (lambda: limits.Limits(word_cap=13), "word length cap must lie in 1..12, got 13"),
        (lambda: limits.Limits(word_cap=8.5), r"word length cap must lie in 1\.\.12, got 8\.5"),
        (lambda: limits.Limits(word_cap=True), "word length cap must lie in 1..12, got True"),
        # The level table takes plain values, and checks them as a constructor would.
        (lambda: hydrogen.corrected_spectrum(10, l_gevinv=-1.0), "minimal length must be non-negative"),
        (lambda: hydrogen.corrected_spectrum(10, l_gevinv=float("nan")),
         "minimal length l must be finite, got nan"),
        (lambda: hydrogen.corrected_spectrum(10, kappa_gev2=0.0),
         "correction strength kappa must be positive"),
        (lambda: hydrogen.corrected_spectrum(0), "n_max must lie in 1..10000, got 0"),
    ],
)
def test_constructors_reject_bad_values(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: expr.Add(LEAF), r"Add\(\) missing required arguments 'right'"),
        (lambda: reports.Check("f", "l", extra=None),
         r"Check\(\) missing required arguments 'passed', 'residual'"),
        (lambda: expr.Num(value=LEAF, power=2), r"Num\(\) got unexpected keyword arguments 'power'"),
        (lambda: expr.Num(1, 2), r"Num\(\) takes 1 arguments but 2 were given"),
        (lambda: expr.ImagUnit(1), r"ImagUnit\(\) takes 0 arguments but 1 were given"),
        (lambda: expr.Add(LEAF, LEAF, left=LEAF), r"Add\(\) got multiple values for 'left'"),
    ],
    ids=["missing", "missing-beside-default", "unknown-keyword", "surplus-positional",
         "surplus-without-fields", "given-twice"],
)
def test_generic_constructor_refuses_a_call_that_does_not_fit(build, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        build()


def _only_fills_fields(statement: ast.stmt) -> bool:
    """Whether ``statement`` is a docstring, an ``init_field(...)`` call or a
    ``super().__init__(...)`` call: it states fields, but checks nothing."""
    if not isinstance(statement, ast.Expr):
        return False
    if isinstance(statement.value, ast.Constant):
        return True
    func = getattr(statement.value, "func", None)
    return (isinstance(func, ast.Name) and func.id == "init_field") or (
        isinstance(func, ast.Attribute) and func.attr == "__init__"
    )


def test_no_record_init_only_copies_its_arguments():
    # Record.__init__ fills the fields from __slots__; an __init__ that only
    # copies its arguments states the field list a second time.
    copy_only = []
    for module in _pcqm_modules():
        for node in ast.parse(inspect.getsource(module)).body:
            if not (isinstance(node, ast.ClassDef) and issubclass(getattr(module, node.name), Record)):
                continue
            for init in node.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    if all(_only_fills_fields(statement) for statement in init.body):
                        copy_only.append(f"{module.__name__}.{node.name}")
    assert copy_only == []


def test_limits_block_replaces_named_fields_only():
    with limits.limits(word_cap=10):
        assert limits.current_limits() == limits.Limits((-4, 4), 10)
        with limits.limits(window=(-8, 8)):
            assert limits.current_limits() == limits.Limits((-8, 8), 10)
    assert limits.current_limits() == limits.Limits()
    with pytest.raises(TypeError):
        with limits.limits(depth=3):
            pass
