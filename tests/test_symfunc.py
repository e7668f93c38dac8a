"""Symmetric function ring: basis changes, products, exponentials."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tcaseries.partitions import enumerate_partitions, partitions_up_to, sym_character
from tcaseries.polyutil import multiset_code, multiset_mul, multiset_parts
from tcaseries.symfunc import (
    POWERSUM,
    SCHUR,
    SymFunc,
    change_basis,
    degree_slice,
    multiply,
    sym_algebra_character,
)
import tcaseries.symfunc as sf

from oracles import (
    decompose_schur,
    exp_power_sum_log,
    lr_coefficient,
    p_mul_sorting,
    schur_monomials,
)


def s_one(lam, trunc=None):
    return SymFunc(SCHUR, {tuple(lam): Fraction(1)}, trunc)


def test_basis_roundtrips_identity():
    for n in range(8):
        for lam in enumerate_partitions(n):
            f = s_one(lam)
            assert change_basis(change_basis(f, POWERSUM), SCHUR) == f, lam
    for n in range(6):
        for mu in enumerate_partitions(n):
            f = SymFunc(POWERSUM, {mu: Fraction(1)})
            assert change_basis(change_basis(f, SCHUR), POWERSUM) == f, mu


def test_only_schur_and_power_sum_bases():
    with pytest.raises(ValueError):
        SymFunc("m", {})
    with pytest.raises(ValueError):
        change_basis(s_one((1,)), "m")
    with pytest.raises(ValueError):
        sf.from_json({"basis": "m", "terms": {}})


def test_known_expansions():
    assert change_basis(s_one((2,)), POWERSUM).terms == {
        (1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    assert change_basis(s_one((1, 1)), POWERSUM).terms == {
        (1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    # p_(1,1) = s_(2) + s_(1,1)
    f = SymFunc(POWERSUM, {(1, 1): Fraction(1)})
    assert change_basis(f, SCHUR).terms == {(2,): Fraction(1), (1, 1): Fraction(1)}


def test_multiply_matches_lr_oracle():
    for a in range(5):
        for b in range(5):
            for lam in enumerate_partitions(a):
                for mu in enumerate_partitions(b):
                    prod = multiply(s_one(lam), s_one(mu))
                    expected = {}
                    for nu in enumerate_partitions(a + b):
                        c = lr_coefficient(lam, mu, nu)
                        if c:
                            expected[nu] = Fraction(c)
                    assert prod.terms == expected, (lam, mu)


def test_multiply_truncation():
    f = SymFunc(SCHUR, {(n,): Fraction(1) for n in range(4)}, truncation=3)
    g = multiply(f, f)
    assert g.truncation == 3
    assert all(sum(lam) <= 3 for lam in g.terms)
    # untruncated x truncated keeps the truncation
    h = multiply(s_one((1,)), f)
    assert h.truncation == 3


def _sym_square_oracle(gen_weights, nvars):
    """Monomial dict of Sym^2 of a space with the given monomial basis."""
    out = {}
    for i in range(len(gen_weights)):
        for j in range(i, len(gen_weights)):
            k = tuple(x + y for x, y in zip(gen_weights[i], gen_weights[j]))
            out[k] = out.get(k, 0) + 1
    return out


def test_sym_algebra_character_standard():
    # Sym(C^inf) = sum of trivials: all s_(n)
    f = sym_algebra_character(SymFunc(POWERSUM, {(1,): Fraction(1)}), 4)
    assert f.terms == {(n,) if n else (): Fraction(1) for n in range(5)}
    assert f.truncation == 4


def test_sym_algebra_character_sym2():
    f = sym_algebra_character(change_basis(s_one((2,)), POWERSUM), 4)
    # degree-4 slice is Sym^2(Sym^2) = s_(4) + s_(2,2); verified by monomial oracle
    gens = [k for k, c in schur_monomials((2,), 4).items() for _ in range(c)]
    oracle = decompose_schur(_sym_square_oracle(gens, 4), 4)
    assert oracle == {(4,): 1, (2, 2): 1}
    assert degree_slice(f, 4) == {(4,): Fraction(1), (2, 2): Fraction(1)}
    assert degree_slice(f, 2) == {(2,): Fraction(1)}
    assert degree_slice(f, 3) == {}
    assert degree_slice(f, 0) == {(): Fraction(1)}


def test_sym_algebra_character_wedge2():
    f = sym_algebra_character(change_basis(s_one((1, 1)), POWERSUM), 4)
    gens = [k for k, c in schur_monomials((1, 1), 4).items() for _ in range(c)]
    oracle = decompose_schur(_sym_square_oracle(gens, 4), 4)
    assert oracle == {(2, 2): 1, (1, 1, 1, 1): 1}
    assert degree_slice(f, 4) == {(2, 2): Fraction(1), (1, 1, 1, 1): Fraction(1)}
    assert degree_slice(f, 2) == {(1, 1): Fraction(1)}


def test_sym_algebra_character_rejects_degree_zero():
    with pytest.raises(ValueError):
        sym_algebra_character(SymFunc(POWERSUM, {(): Fraction(1)}), 3)


def test_complete_homogeneous_oracle():
    # sum_n s_(n) agrees with the all-monomials expansion degree by degree
    f = sym_algebra_character(SymFunc(POWERSUM, {(1,): Fraction(1)}), 3)
    for n in range(1, 4):
        mono = {}
        for k, c in schur_monomials((n,), 3).items():
            mono[k] = c
        assert decompose_schur(mono, 3) == {(n,): 1}
        assert degree_slice(f, n) == {(n,): Fraction(1)}
    # the exponential itself: exp(sum_k p_k/k) = sum_{|mu| <= 10} p_mu / z_mu
    f = sym_algebra_character(SymFunc(POWERSUM, {(1,): Fraction(1)}), 10)
    assert change_basis(f, POWERSUM).terms == exp_power_sum_log(10)


@st.composite
def small_symfunc(draw):
    terms = {}
    for lam in draw(st.lists(st.sampled_from(partitions_up_to(3)), min_size=1, max_size=3)):
        terms[lam] = Fraction(draw(st.integers(min_value=-3, max_value=3)))
    return SymFunc(SCHUR, terms)


@settings(max_examples=40, deadline=None)
@given(small_symfunc(), small_symfunc())
def test_multiply_commutes_with_basis_change(f, g):
    p = change_basis(multiply(f, g), POWERSUM)
    q = multiply(change_basis(f, POWERSUM), change_basis(g, POWERSUM))
    assert p == q


def test_json_roundtrip():
    f = SymFunc(SCHUR, {(2, 1): Fraction(1), (3,): Fraction(-1, 2)}, truncation=8)
    obj = sf.to_json(f)
    assert obj == {"basis": "s", "truncation": 8,
                   "terms": {"[3]": "-1/2", "[2,1]": "1"}}
    assert sf.from_json(obj) == f


def test_change_basis_to_schur_runs_on_integers(monkeypatch):
    # p -> s and back sum numerators over one denominator: no Fraction is made
    f = SymFunc(POWERSUM, {(2, 1): Fraction(1, 3), (1, 1, 1): Fraction(-5, 4), (3,): Fraction(2, 5),
                           (4, 2): Fraction(1, 6), (1,): Fraction(3), (): Fraction(7)}, 8)
    want: dict = {}
    for mu, c in f.terms.items():
        for lam in enumerate_partitions(sum(mu)):
            want[lam] = want.get(lam, 0) + c * sym_character(lam, mu)
    calls = []
    for name in ("__new__", "__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(*args, _original=getattr(Fraction, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(Fraction, name, counted)
    got = change_basis(f, SCHUR)
    back = change_basis(got, POWERSUM)
    monkeypatch.undo()
    assert got.terms == {lam: c for lam, c in want.items() if c} and back == f
    assert calls == []


def _multiset_terms():
    key = st.lists(st.integers(1, 20), max_size=4).map(lambda p: tuple(sorted(p, reverse=True)))
    coeff = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    return st.dictionaries(key, coeff, max_size=5)


@settings(max_examples=150, deadline=None)
@given(_multiset_terms(), _multiset_terms(), st.none() | st.integers(0, 40))
@example({(1,): 1, (2,): 1}, {(2,): 1, (1,): -1}, None)  # the (2, 1) terms cancel
@example({(3, 1): Fraction(1, 2)}, {}, None)
@example({}, {(20, 20): 2}, 40)
def test_p_mul_terms_matches_sorting_oracle(a, b, trunc):
    got = sf._p_mul_terms(a, b, trunc)
    assert got == p_mul_sorting(a, b, trunc)
    assert all(got.values())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=6), st.lists(st.integers(0, 20), max_size=6))
def test_multiset_codes_add_as_unions(p, q):
    (wp, cp), (wq, cq) = multiset_code(tuple(p)), multiset_code(tuple(q))
    assert (wp, multiset_parts(cp)) == (sum(p), tuple(sorted(p, reverse=True)))
    assert multiset_parts(cp + cq) == tuple(sorted(p + q, reverse=True))
    assert multiset_mul([(wp, cp, 2)], [(wq, cq, 3)], None, {}) == {cp + cq: [wp + wq, 6]}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(0, 30), max_size=(1 << w) - 1))))
def test_multiset_parts_reads_digits_of_any_width(case):
    # linear_form_det codes at most r parts in digits of r.bit_length() bits
    width, p = case
    assert multiset_parts(sum(1 << width * k for k in p), width) == tuple(sorted(p, reverse=True))


def test_multiset_codes_of_large_parts_decode_fast():
    # a code is as long as its largest part; decoding steps once per distinct part
    p = (10 ** 5, 10 ** 5, 3)
    start = time.perf_counter()
    w, code = multiset_code(p)
    assert (w, multiset_parts(code)) == (sum(p), p)
    assert time.perf_counter() - start < 1


def test_multiset_code_refuses_a_multiset_whose_sum_could_carry():
    # 16-bit digits: under 2^15 parts, a sum of two codes has every digit below 2^16
    with pytest.raises(ValueError, match="too large"):
        multiset_code((1,) * 40000)
    with pytest.raises(ValueError, match="too large"):
        multiset_code((0,) * 2 ** 15)
    w, code = multiset_code((1,) * (2 ** 15 - 1))
    assert w == 2 ** 15 - 1 and multiset_parts(code + code) == (1,) * (2 ** 16 - 2)
