"""Symmetric function ring: basis changes, products, plethysm, derivations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tcaseries.partitions import enumerate_partitions, partitions_up_to, transpose
from tcaseries.symfunc import (
    MONOMIAL,
    POWERSUM,
    SCHUR,
    SymFunc,
    add,
    change_basis,
    dagger,
    ddag,
    degree_slice,
    max_degree,
    multiply,
    plethysm_power,
    scale,
    schur_derivative,
    sym_algebra_character,
)
import tcaseries.symfunc as sf

from oracles import (
    decompose_schur,
    exp_power_sum_log,
    lr_coefficient,
    poly_mul,
    schur_monomials,
)


def s_one(lam, trunc=None):
    return SymFunc(SCHUR, {tuple(lam): Fraction(1)}, trunc)


def test_basis_roundtrips_identity():
    for n in range(8):
        for lam in enumerate_partitions(n):
            f = s_one(lam)
            for b1 in (POWERSUM, MONOMIAL):
                g = change_basis(change_basis(f, b1), SCHUR)
                assert g == f, (lam, b1)
    # p -> m -> p roundtrip through schur
    for n in range(6):
        for lam in enumerate_partitions(n):
            f = SymFunc(POWERSUM, {lam: Fraction(1)})
            assert change_basis(change_basis(f, MONOMIAL), POWERSUM) == f


def test_known_expansions():
    assert change_basis(s_one((2,)), POWERSUM).terms == {
        (1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    assert change_basis(s_one((1, 1)), POWERSUM).terms == {
        (1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    assert change_basis(s_one((2, 1)), MONOMIAL).terms == {
        (2, 1): Fraction(1), (1, 1, 1): Fraction(2)}
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
    assert max_degree(g) <= 3
    # untruncated x truncated keeps the truncation
    h = multiply(s_one((1,)), f)
    assert h.truncation == 3


def test_plethysm_power_examples():
    # p_2 ∘ s_(2) = s_(4) - s_(3,1) + s_(2,2)  (frozen from the monomial oracle)
    f = plethysm_power(2, s_one((2,)))
    assert f.basis == SCHUR
    assert f.terms == {(4,): Fraction(1), (3, 1): Fraction(-1), (2, 2): Fraction(1)}
    # oracle: s_2(x^2) in 4 variables
    sq = {tuple(2 * e for e in k): c for k, c in schur_monomials((2,), 4).items()}
    assert decompose_schur(sq, 4) == {(4,): 1, (3, 1): -1, (2, 2): 1}
    # p_k ∘ p_mu concatenates scaled parts
    g = plethysm_power(3, SymFunc(POWERSUM, {(2, 1): Fraction(5)}))
    assert g.terms == {(6, 3): Fraction(5)}


def test_plethysm_truncation_scales():
    f = SymFunc(SCHUR, {(1,): Fraction(1)}, truncation=3)
    assert plethysm_power(2, f).truncation == 6


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


def test_dagger_and_ddag():
    assert dagger(s_one((3,))).terms == {(1, 1, 1): Fraction(1)}
    assert ddag(s_one((3,))).terms == {(1, 1, 1): Fraction(-1)}
    assert ddag(s_one((2, 1))).terms == {(2, 1): Fraction(-1)}
    for n in range(5):
        for lam in enumerate_partitions(n):
            f = s_one(lam)
            assert ddag(ddag(f)) == f
            assert dagger(dagger(f)) == f


def test_ddag_in_powersum_negates_generators():
    # On powersums, ddag is p_k -> -p_k
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            f = SymFunc(POWERSUM, {mu: Fraction(1)})
            g = change_basis(ddag(f), POWERSUM)
            assert g.terms == {mu: Fraction((-1) ** len(mu))}


def test_ddag_multiplicative():
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            lhs = ddag(multiply(s_one(lam), s_one(mu)))
            rhs = multiply(ddag(s_one(lam)), ddag(s_one(mu)))
            assert lhs == rhs


def test_schur_derivative_branching():
    # corner-removal oracle
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            expected = {}
            for i in range(len(lam)):
                if i == len(lam) - 1 or lam[i] > lam[i + 1]:
                    mu = tuple(p for p in lam[:i] + (lam[i] - 1,) + lam[i + 1:] if p)
                    expected[mu] = expected.get(mu, Fraction(0)) + 1
            assert schur_derivative(s_one(lam)).terms == expected
    assert schur_derivative(s_one((2, 1))).terms == {(2,): Fraction(1), (1, 1): Fraction(1)}
    assert schur_derivative(s_one(())).terms == {}


@st.composite
def small_symfunc(draw):
    terms = {}
    for lam in draw(st.lists(st.sampled_from(partitions_up_to(3)), min_size=1, max_size=3)):
        terms[lam] = Fraction(draw(st.integers(min_value=-3, max_value=3)))
    return SymFunc(SCHUR, terms)


@settings(max_examples=40, deadline=None)
@given(small_symfunc(), small_symfunc())
def test_derivative_leibniz(f, g):
    lhs = schur_derivative(multiply(f, g))
    rhs = add(multiply(schur_derivative(f), g), multiply(f, schur_derivative(g)))
    assert lhs == rhs


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
