"""Value semantics of the package's value classes, all on polyutil.Value."""

import copy
import inspect
import pickle
from fractions import Fraction as F

import pytest

from tcaseries.grassmann import GrClass, LambdaGrClass
from tcaseries.polyutil import Value
from tcaseries.seriesforms import (
    CharPolyForm,
    EnhancedExpr,
    ExpPoly,
    OdeOperator,
    PoincareSeries,
    SigmaExpr,
    TSeries,
)
from tcaseries.symfunc import SCHUR, SymFunc
from tcaseries.torus import KernelSeries, LaurentPoly

# class -> (field names in positional order, arguments of one nonzero value)
CASES = {
    SymFunc: (("basis", "terms", "truncation"), (SCHUR, {(2, 1): F(1)}, 3)),
    TSeries: (("truncation", "coeffs"), (3, {(1,): F(1, 2)})),
    SigmaExpr: (("terms",), ({((1,), (0,)): F(1)},)),
    ExpPoly: (("parts",), ({1: (F(1), F(2))},)),
    EnhancedExpr: (("parts",), ({0: {((1,), ()): F(1)}},)),
    PoincareSeries: (("d", "truncation", "parts"), (2, 4, {0: (F(1),)})),
    CharPolyForm: (("m", "entries", "threshold"), (2, {1: {((1,), ()): F(1)}}, 0)),
    OdeOperator: (("coeffs",), (((F(1),), (F(-1), F(1))),)),
    LaurentPoly: (("d", "terms"), (2, {(1, -1): F(3)})),
    KernelSeries: (("d", "truncation", "terms"), (1, 2, {(1,): TSeries(2, {(1,): F(1)})})),
    GrClass: (("d", "r", "terms"), (3, 1, {(2,): 1})),
    LambdaGrClass: (("terms",), ({(1,): GrClass(3, 1, {(2,): 1})},)),
}
CLASSES = list(CASES)
IDS = [cls.__name__ for cls in CLASSES]


def _value(cls):
    return cls(*CASES[cls][1])


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_and_signature_pinned(cls):
    # perfbench and the tests construct these positionally and by keyword
    names = CASES[cls][0]
    assert issubclass(cls, Value) and cls.__slots__ == names
    assert tuple(inspect.signature(cls).parameters) == names


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_fields_give_equal_values(cls):
    a, b = _value(cls), _value(cls)
    assert a is not b and a == b and not a != b
    # the last field left at its default, or for OdeOperator a lower order
    other = OdeOperator(((F(1),),)) if cls is OdeOperator else cls(*CASES[cls][1][:-1])
    assert a != other and not a == other


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_only_within_one_class(cls):
    v = _value(cls)

    class Twin(Value):
        __slots__ = cls.__slots__

    twin = Twin(*(getattr(v, name) for name in cls.__slots__))
    assert v != twin and twin != v
    assert v.__eq__(twin) is NotImplemented
    assert v != tuple(getattr(v, name) for name in cls.__slots__)


def test_empty_values_of_one_field_classes_differ():
    empties = [ExpPoly({}), EnhancedExpr({}), SigmaExpr({}), LambdaGrClass({})]
    for i, a in enumerate(empties):
        for b in empties[i + 1:]:
            assert a != b


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_hash_over_fields(cls):
    v = _value(cls)
    if cls is OdeOperator:
        assert hash(v) == hash(_value(cls))
        assert {v: 1}[_value(cls)] == 1
    else:  # a dict field is unhashable, so the value is too
        with pytest.raises(TypeError):
            hash(v)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_assignment_refused(cls):
    v = _value(cls)
    for name in cls.__slots__:
        before = getattr(v, name)
        with pytest.raises(AttributeError):
            setattr(v, name, before)
        assert getattr(v, name) is before
    with pytest.raises(AttributeError):
        v.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_copy_and_pickle_round_trip(cls):
    v = _value(cls)
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(w) is cls and w == v


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_names_class_and_fields(cls):
    v = _value(cls)
    fields = ", ".join(f"{name}={getattr(v, name)!r}" for name in cls.__slots__)
    assert repr(v) == f"{cls.__name__}({fields})"


def test_repr_form():
    assert repr(LaurentPoly(1, {(2,): 3})) == "LaurentPoly(d=1, terms={(2,): Fraction(3, 1)})"
    assert repr(GrClass(2, 1)) == "GrClass(d=2, r=1, terms={})"


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not OdeOperator],
                         ids=[i for i in IDS if i != "OdeOperator"])
def test_default_fields_not_shared(cls):
    # every dict field defaults to empty; the canonical copy is fresh each time
    names, args = CASES[cls]
    required = len([p for p in inspect.signature(cls).parameters.values()
                    if p.default is inspect.Parameter.empty])
    a, b = cls(*args[:required]), cls(*args[:required])
    assert a == b
    for name in names:
        if isinstance(getattr(a, name), dict):
            assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
