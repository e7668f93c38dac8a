"""Value semantics of the package's value classes, all on polyutil.Value."""

import copy
import inspect
import json
import math
import pickle
from fractions import Fraction, Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from tcaseries.grassmann import (GrClass, LambdaGrClass, detring_formal_character,
                                 gessel_enhanced, pushforward_module_character, theta_r)
from tcaseries.partitions import enumerate_partitions
from tcaseries.polyutil import Value
from tcaseries.seriesforms import (
    CharPolyForm,
    EnhancedExpr,
    ExpPoly,
    OdeOperator,
    PoincareSeries,
    SigmaExpr,
    TSeries,
    enhanced_expand,
    phi_sigma,
    sigma_expand,
    ts_exp,
    tseries_to_json,
)
from tcaseries.symfunc import POWERSUM, SCHUR, SymFunc, change_basis
from tcaseries.torus import (KernelSeries, LaurentPoly, delta_squared,
                            enhanced_from_equivariant, kernel_K, sym_degree_characters)

# class -> (constructor parameters in positional order, arguments of one nonzero value)
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
# the fields of the classes that store their coefficients as integer numerators
# over one denominator (polyutil.lowest_terms); every other class stores its
# constructor's parameters
FIELDS = {TSeries: ("truncation", "den", "nums"), LaurentPoly: ("d", "den", "nums")}


def _value(cls):
    return cls(*CASES[cls][1])


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_and_signature_pinned(cls):
    # perfbench and the tests construct these positionally and by keyword
    names = CASES[cls][0]
    assert issubclass(cls, Value) and cls.__slots__ == FIELDS.get(cls, names)
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
    # a call of the constructor, with the value's arguments by name
    v = _value(cls)
    args = ", ".join(f"{name}={getattr(v, name)!r}" for name in CASES[cls][0])
    assert repr(v) == f"{cls.__name__}({args})"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_round_trips(cls):
    v = _value(cls)
    assert eval(repr(v), {c.__name__: c for c in CLASSES} | {"Fraction": Fraction}) == v


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
    for name in cls.__slots__:
        if isinstance(getattr(a, name), dict):
            assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)


# --- the trusted constructor --------------------------------------------------
#
# Kernels whose output is canonical by construction build it by Value.trusted,
# which skips the validating __init__. Each one's output must be what __init__
# would make of it: the same fields, dict items in the same order (Value
# equality ignores dict order), numbers of the same types.


def _shape(x):
    """x with every dict as its list of items and every number tagged with its type."""
    if isinstance(x, dict):
        return [(_shape(k), _shape(v)) for k, v in x.items()]
    if isinstance(x, tuple):
        return tuple(map(_shape, x))
    return type(x).__name__, x


def assert_canonical(v):
    """v equals its rebuild through the validating constructor, field by field, with
    numbers of the same types and dict items in the same order; its coefficients,
    when stored over one denominator, are in lowest terms."""
    rebuilt = type(v)(*(getattr(v, name) for name in inspect.signature(type(v)).parameters))
    assert _shape(rebuilt._fields()) == _shape(v._fields())
    if type(v) in FIELDS:
        assert type(v.den) is int and v.den >= 1 and math.gcd(v.den, *v.nums.values()) == 1
        assert all(type(c) is int and c for c in v.nums.values())


_FRACTIONS = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


def _partitions(top):
    return st.integers(0, top).flatmap(lambda n: st.sampled_from(enumerate_partitions(n)))


_TSERIES = st.builds(TSeries, st.integers(0, 6),
                     st.dictionaries(_partitions(6), _FRACTIONS, max_size=5))
_SIGMA = st.builds(SigmaExpr, st.dictionaries(
    st.tuples(_partitions(3), st.lists(st.integers(0, 3), max_size=3).map(tuple)),
    _FRACTIONS, max_size=4))
_ENHANCED = st.builds(EnhancedExpr, st.dictionaries(st.integers(0, 2), st.dictionaries(
    st.tuples(_partitions(4), _partitions(3)), _FRACTIONS, max_size=3), max_size=3))


@given(_TSERIES, _TSERIES)
def test_series_products_are_canonical(a, b):
    assert_canonical(a * b)


@given(_TSERIES, st.integers(0, 6))
def test_series_exponentials_are_canonical(s, N):
    s = TSeries(s.truncation, {lam: c for lam, c in s.coeffs.items() if lam})
    if N <= s.truncation:
        assert_canonical(ts_exp(s, N))


@settings(deadline=None)
@given(_ENHANCED, st.integers(0, 6))
def test_enhanced_expansions_are_canonical(e, N):
    assert_canonical(enhanced_expand(e, N))


@given(_SIGMA, st.integers(0, 6))
def test_sigma_expansions_are_canonical(e, N):
    assert_canonical(sigma_expand(e, N))


@given(_SIGMA)
def test_phi_sigma_is_canonical(e):
    assert_canonical(phi_sigma(e))


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 7))
def test_gessel_series_are_canonical(d, r, N):
    assert_canonical(gessel_enhanced(d, r, N))


@given(st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), st.lists(
    st.none() | st.builds(LaurentPoly, st.just(d), st.dictionaries(
        st.lists(st.integers(-1, 3), min_size=d, max_size=d).map(tuple), _FRACTIONS,
        max_size=4)), max_size=6))), st.integers(0, 5))
def test_integral_route_is_canonical(case, N):
    d, hilb = case
    assert_canonical(enhanced_from_equivariant(hilb, d, N))


def _laurent_polys(d):
    return st.builds(LaurentPoly, st.just(d), st.dictionaries(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(tuple), _FRACTIONS, max_size=4))


@given(_TSERIES, st.integers(0, 3).flatmap(_laurent_polys))
def test_validated_values_are_canonical(s, f):
    assert_canonical(s)
    assert_canonical(f)


@given(st.integers(0, 3).flatmap(lambda d: st.tuples(_laurent_polys(d), _laurent_polys(d))))
def test_laurent_products_are_canonical(pair):
    assert_canonical(pair[0] * pair[1])


@given(st.integers(0, 3).flatmap(_laurent_polys), _FRACTIONS)
def test_scaled_laurent_polys_are_canonical(f, c):
    assert_canonical(f.scale(c))


@pytest.mark.parametrize("d", range(5))
def test_weyl_weights_are_canonical(d):
    assert_canonical(delta_squared(d))


@pytest.mark.parametrize("d,N", [(0, 3), (1, 4), (2, 4), (3, 5)])
def test_kernel_series_are_canonical(d, N):
    assert_canonical(kernel_K(d, N))


@given(st.integers(0, 3).flatmap(_laurent_polys), st.integers(0, 5))
def test_symmetric_power_characters_are_canonical(chi, N):
    for character in sym_degree_characters(chi, N):
        assert_canonical(character)


@st.composite
def _grassmannian_classes(draw):
    """(d, r, [{alpha: coefficient}, ...]) with d <= 3 and |alpha| <= 2."""
    d = draw(st.integers(1, 3))
    r = draw(st.integers(0, d))
    alphas = [a for n in range(3) for a in enumerate_partitions(n, max_length=r)]
    classes = st.dictionaries(st.sampled_from(alphas), st.integers(-2, 2), max_size=3)
    return d, r, draw(st.lists(classes, min_size=1, max_size=2))


@settings(deadline=None)
@given(_grassmannian_classes(), st.integers(0, 4))
def test_pushforward_characters_are_canonical(case, N):
    d, r, classes = case
    for alpha in classes[0]:
        assert_canonical(pushforward_module_character(d, r, alpha, N))


@settings(deadline=None)
@given(_grassmannian_classes(), st.lists(_partitions(2), min_size=2, max_size=2, unique=True))
def test_theta_characters_are_canonical(case, mus):
    d, r, classes = case
    assert_canonical(theta_r(LambdaGrClass(
        {mu: GrClass(d, r, terms) for mu, terms in zip(mus, classes)})))


@given(st.integers(0, 6).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))))
def test_detring_characters_are_canonical(dr):
    assert_canonical(detring_formal_character(*dr))


@given(st.sampled_from([SCHUR, POWERSUM]), st.sampled_from([SCHUR, POWERSUM]),
       st.dictionaries(_partitions(5), _FRACTIONS, max_size=5), st.none() | st.integers(0, 5))
# chi^(2,2) vanishes on a 4-cycle: s_(2,2) is first reached from p_(3,1)
@example(POWERSUM, SCHUR, {(4,): F(1), (3, 1): F(1)}, None)
def test_basis_changes_are_canonical(basis, target, terms, truncation):
    assert_canonical(change_basis(SymFunc(basis, terms, truncation), target))


@pytest.mark.parametrize("given_truncation", [2.0, "2"])
def test_truncation_is_stored_as_an_int(given_truncation):
    # polyutil.size reads a truncation and its int is what is stored
    for value in (TSeries(given_truncation, {(1,): 1}), PoincareSeries(2, given_truncation),
                  SymFunc(SCHUR, {}, given_truncation), KernelSeries(1, given_truncation, {})):
        assert type(value.truncation) is int and value.truncation == 2, type(value).__name__
    text = json.dumps(tseries_to_json(TSeries(given_truncation, {(1,): 1})))
    assert '"truncation": 2,' in text


@pytest.mark.parametrize("given_d", [2.0, "2"])
def test_variable_count_is_stored_as_an_int(given_d):
    # polyutil.size reads a variable count and its int is what is stored
    for value in (LaurentPoly(given_d, {(1, 0): 1}), PoincareSeries(given_d, 3),
                  KernelSeries(given_d, 1, {(1, 0): TSeries(1, {(1,): 1})})):
        assert type(value.d) is int and value.d == 2, type(value).__name__
    chi = LaurentPoly(given_d, {(1, 0): 1})
    assert sym_degree_characters(chi, 2) == [LaurentPoly(2, {(0, 0): 1}), chi,
                                             LaurentPoly(2, {(2, 0): 1})]
