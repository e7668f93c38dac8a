"""Torus constant terms, Weyl inner products, invariant dimensions, the
kernel series, the integral route to enhanced series, and the lattice-EGF
oracle of tests/oracles.py."""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    decompose_schur,
    enhanced_from_equivariant_per_partition,
    hilbert_from_weight_presentation,
    invariant_dimensions_ct,
    poly_mul,
    schur_monomials,
    sym_powers_binomial,
)
from tcaseries.grassmann import gessel_enhanced
from tcaseries.partitions import (
    enumerate_partitions,
    partition_factorial,
    partitions_up_to,
)
from tcaseries.seriesforms import (
    SigmaExpr,
    TSeries,
    enhanced_expand,
    phi_sigma,
    sigma_expand,
    tca_enhanced_exp,
    ts_exp,
)
from tcaseries.torus import (
    KernelSeries,
    LaurentPoly,
    constant_term,
    delta_squared,
    enhanced_from_equivariant,
    invariant_dimensions,
    kernel_K,
    power_sum_lp,
    schur_coefficients,
    schur_lp,
    sym_degree_characters,
    weyl_inner,
)

F = Fraction
HALF = F(1, 2)


def lp(d, terms):
    return LaurentPoly(d, {e: F(c) for e, c in terms.items()})


# --- Laurent polynomial basics -----------------------------------------------


def test_constant_term_examples():
    assert constant_term(lp(1, {(0,): 1})) == 1
    f = lp(1, {(1,): 1, (-1,): 1})
    assert constant_term(f) == 0
    assert constant_term(f * f) == 2


def test_zero_coefficients_dropped():
    f = lp(1, {(1,): 1, ("01",): -1, (2,): 0})
    assert f.terms == {}
    assert constant_term(f) == 0


def test_value_at_one_counts_dimension():
    assert sum(schur_lp((2, 1), 3).terms.values()) == 8
    assert sum(power_sum_lp(5, 4).terms.values()) == 4
    assert sum(power_sum_lp(0, 4).terms.values()) == 4


def test_mismatched_variable_count_raises():
    with pytest.raises(ValueError):
        lp(1, {(1,): 1}) * lp(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): F(1)})


# Exponent entries for the packed-code kernels: small ones mixed with entries
# up to +-2^20, where a code narrower than the bound would alias two exponents
# without any error
WIDE = st.one_of(st.integers(-2, 2), st.sampled_from([2**20, -2**20, 2**20 - 1, 1 - 2**20]),
                 st.integers(-2**20, 2**20))
COEFFS = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def laurent_pairs(draw):
    """(d, a, b): d <= 3 (0 included) and two term dicts of up to four terms,
    each possibly empty, with entries from WIDE."""
    d = draw(st.integers(0, 3))
    terms = st.dictionaries(st.tuples(*[WIDE] * d), COEFFS, max_size=4)
    return d, draw(terms), draw(terms)


@settings(max_examples=200, deadline=None)
@given(laurent_pairs())
def test_laurent_products_match_tuple_keyed_oracle(case):
    # products run on signed packed codes; the oracle adds exponent tuples.
    # Terms compare in order: codes order as their exponents do
    d, a, b = case
    got, want = LaurentPoly(d, a) * LaurentPoly(d, b), LaurentPoly(d, poly_mul(a, b))
    assert list(got.terms.items()) == list(want.terms.items())


def test_laurent_products_keep_far_exponents_apart():
    # at the 22-bit width that holds the factors' entries, y^(2^21) and
    # x y^(-2^21) share a code and would cancel: the product needs one bit more
    f = lp(2, {(0, 2**20): 1, (1, -2**20): -1}) * lp(2, {(0, 2**20): 1, (0, -2**20): 1})
    assert f.terms == {(0, 2**21): 1, (0, 0): 1, (1, 0): -1, (1, -2**21): -1}


# --- Weyl inner product ------------------------------------------------------


def test_delta_squared_constant_term_is_group_order():
    for d in range(1, 5):
        assert constant_term(delta_squared(d)) == factorial(d)


def test_weyl_inner_of_units():
    one = lp(2, {(0, 0): 1})
    assert weyl_inner(one, one, 2) == 1


def test_schur_orthonormality():
    for d in (1, 2, 3):
        shapes = [m for m in partitions_up_to(3) if len(m) <= d]
        for lam, mu in itertools.product(shapes, repeat=2):
            expected = 1 if lam == mu else 0
            assert weyl_inner(schur_lp(lam, d), schur_lp(mu, d), d) == expected


def test_weyl_inner_distinct_schur_vanishes():
    assert weyl_inner(schur_lp((1,), 2), schur_lp((2,), 2), 2) == 0


def test_schur_coefficients_match_tableau_oracle():
    # inputs and expected expansions both come from SSYT enumeration
    for r in (1, 2, 3, 4):
        shapes = [lam for lam in partitions_up_to(5) if len(lam) <= r]
        polys = [schur_monomials(lam, r) for lam in shapes]
        polys += [poly_mul(a, b) for a, b in itertools.combinations_with_replacement(polys, 2)]
        for f in polys:
            want = {lam: F(c) for lam, c in decompose_schur(f, r).items()}
            assert schur_coefficients(lp(r, f)) == want


def test_schur_coefficients_straighten_each_term_once(monkeypatch):
    # one Weyl straightening of e + delta per term of f, no product with the
    # n! terms of the alternant
    import tcaseries.torus as torus
    f = schur_lp((2, 1), 4) * schur_lp((1, 1), 4)
    calls = []

    def counted(*args, _original=torus._reflect):
        calls.append(args)
        return _original(*args)

    def forbidden(d):
        raise AssertionError("schur_coefficients read _delta")

    monkeypatch.setattr(torus, "_reflect", counted)
    monkeypatch.setattr(torus, "_delta", forbidden)
    got = schur_coefficients(f)
    monkeypatch.undo()
    assert len(calls) == len(f.terms)
    assert got == {(2, 1, 1, 1): 1, (2, 2, 1): 1, (3, 1, 1): 1, (3, 2): 1}


def test_weyl_inner_variable_check():
    with pytest.raises(ValueError):
        weyl_inner(lp(1, {(0,): 1}), lp(1, {(0,): 1}), 2)


def test_power_sum_inner_is_z():
    # <p_lam, p_mu> = delta * z_lam for stable d (d >= |lam|)
    from tcaseries.partitions import z_of
    for lam in enumerate_partitions(3):
        for mu in enumerate_partitions(3):
            f = lp(3, {(0, 0, 0): 1})
            for k in lam:
                f = f * power_sum_lp(k, 3)
            g = lp(3, {(0, 0, 0): 1})
            for k in mu:
                g = g * power_sum_lp(k, 3)
            expected = z_of(lam) if lam == mu else 0
            assert weyl_inner(f, g, 3) == expected


# --- invariant dimension sequences -------------------------------------------


def test_sl2_standard_gives_catalan():
    chi = lp(2, {(1, 0): 1, (0, 1): 1})
    dims = invariant_dimensions([("sl", 2)], chi, 12)
    assert dims == [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132]


def test_sl3_standard_gives_three_row_tableaux():
    # dims[3m] counts standard tableaux of shape (m, m, m): 1, 1, 5, 42, 462;
    # SL(3) is not self-dual, so the pairing needs the shifted dual key
    chi = lp(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    dims = invariant_dimensions([("sl", 3)], chi, 12)
    assert dims == [1, 0, 0, 1, 0, 0, 5, 0, 0, 42, 0, 0, 462]


def test_sl2_x_sl2_tensor_gives_catalan_squares():
    chi = lp(4, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})
    dims = invariant_dimensions([("sl", 2), ("sl", 2)], chi, 8)
    assert dims == [1, 0, 1, 0, 4, 0, 25, 0, 196]


def test_trivial_group_gives_powers_of_dimension():
    chi = LaurentPoly(0, {(): F(3)})
    assert invariant_dimensions([], chi, 5) == [3 ** n for n in range(6)]


def test_gl1_torus_weights():
    chi = lp(1, {(1,): 1, (-1,): 1})
    dims = invariant_dimensions([("gl", 1)], chi, 8)
    assert dims == [comb(n, n // 2) if n % 2 == 0 else 0 for n in range(9)]


def test_gl2_standard_has_no_invariants():
    chi = lp(2, {(1, 0): 1, (0, 1): 1})
    assert invariant_dimensions([("gl", 2)], chi, 6) == [1, 0, 0, 0, 0, 0, 0]


def test_sl2_adjoint_weights():
    # Sym^2 of the standard: weights 2, 0, -2 once each after SL reduction
    chi = lp(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    dims = invariant_dimensions([("sl", 2)], chi, 6)
    # invariants of n copies of the 3-dim rep: 1, 0, 1, 1, 3, 6, 15
    assert dims == [1, 0, 1, 1, 3, 6, 15]


def test_invariant_dimensions_far_weight_returns_in_one_step():
    # E = x + x^-3 on GL(1): an invariant word has three x per x^-3, so
    # dims[4b] = C(4b, b); the key 3 returns to 0 in one step, so the
    # half-length tables keep every key, however far from 0
    dims = invariant_dimensions([("gl", 1)], lp(1, {(1,): 1, (-3,): 1}), 12)
    assert dims == [comb(n, n // 4) if n % 4 == 0 else 0 for n in range(13)]


@pytest.mark.parametrize("group,chi,n_max", [
    ([("gl", 2)], {(1, 0): 1, (0, 1): 1, (-1, -1): 1}, 9),        # C^2 + det^-1
    ([("gl", 2)], {(2, 0): 1, (0, 2): 1, (-1, 0): 1, (0, -1): 1}, 8),
    ([("sl", 2)], {(3, 0): 1, (0, 3): 1, (1, 0): 1, (0, 1): 1}, 10),  # Sym^3
    ([("gl", 1), ("sl", 2)], {(-2, 1, 0): 1, (-2, 0, 1): 1, (1, 0, 0): 2}, 9),
    ([("gl", 3)], {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,          # C^3 + (C^3)*
                   (-1, 0, 0): 1, (0, -1, 0): 1, (0, 0, -1): 1}, 8),
])
def test_invariant_dimensions_with_lopsided_weights(group, chi, n_max):
    # weights whose entries differ in size and sign, so that keys move out
    # fast and come back fast; half-length tables paired with their duals
    # against the constant term
    want = invariant_dimensions_ct(group, chi, n_max)
    assert invariant_dimensions(group, LaurentPoly(sum(k for _, k in group), chi), n_max) == want
    assert any(want[1:])


def test_invariant_dimensions_validation():
    chi = lp(2, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        invariant_dimensions([("so", 3)], chi, 2)
    with pytest.raises(ValueError):
        invariant_dimensions([("sl", 2), ("sl", 2)], chi, 2)
    with pytest.raises(ValueError):
        invariant_dimensions([("sl", 0)], chi, 2)
    with pytest.raises(ValueError):  # not invariant under swapping the block's variables
        invariant_dimensions([("gl", 2)], lp(2, {(1, 0): 1}), 2)
    with pytest.raises(ValueError):  # not integral
        invariant_dimensions([("gl", 2)], lp(2, {(1, 0): F(1, 2), (0, 1): F(1, 2)}), 2)


def _orbit(e, group):
    """The exponents e permuted within each block of the group."""
    orbit = {()}
    pos = 0
    for _, k in group:
        orbit = {o + p for o in orbit for p in itertools.permutations(e[pos:pos + k])}
        pos += k
    return orbit


@st.composite
def weyl_invariant_characters(draw, entries=st.integers(-1, 1), orbits=st.integers(1, 2)):
    """(group, character, n_max): gl/sl blocks of total rank <= 4 (none: the
    trivial group) and an integer sum of `orbits` orbits with exponent entries
    from `entries`, some with negative multiplicity, so that some characters
    are virtual."""
    ranks = draw(st.lists(st.integers(1, 4), max_size=4).filter(lambda r: sum(r) <= 4))
    group = [(draw(st.sampled_from(["gl", "sl"])), k) for k in ranks]
    chi: dict = {}
    for _ in range(draw(orbits)):
        e = tuple(draw(st.lists(entries, min_size=sum(ranks), max_size=sum(ranks))))
        m = draw(st.sampled_from([1, 1, 2, -1]))
        for o in _orbit(e, group):
            chi[o] = chi.get(o, 0) + m
    return group, {e: c for e, c in chi.items() if c}, draw(st.integers(0, 6))


def _result_or_error(route, *args):
    try:
        return route(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(weyl_invariant_characters())
def test_invariant_dimensions_match_constant_term_oracle(case):
    # Brauer-Klimyk on dominant weights against CT(chi^n |Delta|^2) / |W|; a
    # virtual character fails on both routes at the same n with the same value
    group, chi, n_max = case
    want = _result_or_error(invariant_dimensions_ct, group, chi, n_max)
    got = _result_or_error(invariant_dimensions, group,
                         LaurentPoly(sum(k for _, k in group), chi), n_max)
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want)
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(weyl_invariant_characters(WIDE, st.integers(0, 2)))
def test_invariant_dimensions_with_far_weights_match_constant_term_oracle(case):
    # the Brauer-Klimyk tables are keyed by codes whose width comes from a
    # bound on the keys, their sums with weights and their duals; far weights
    # (and none at all, and the trivial group) against the tuple-keyed oracle
    group, chi, n_max = case
    want = _result_or_error(invariant_dimensions_ct, group, chi, min(n_max, 4))
    got = _result_or_error(invariant_dimensions, group,
                           LaurentPoly(sum(k for _, k in group), chi), min(n_max, 4))
    if isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want)
    else:
        assert got == want


def test_invariant_dimensions_straighten_each_vector_once(monkeypatch):
    # each distinct vector (a key plus a weight, or a dual key) is straightened
    # once per call, however many products and steps reach it
    import tcaseries.torus as torus
    chi = lp(4, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})
    calls = []

    def counted(*args, _original=torus._reflect):
        calls.append(args[0])
        return _original(*args)

    monkeypatch.setattr(torus, "_reflect", counted)
    dims = invariant_dimensions([("sl", 2), ("sl", 2)], chi, 36)
    assert len(calls) == len(set(calls)) > 0
    calls.clear()
    assert invariant_dimensions([("sl", 2), ("sl", 2)], chi, 36) == dims
    assert len(calls) == len(set(calls)) > 0
    monkeypatch.undo()
    catalan = [comb(2 * m, m) // (m + 1) for m in range(19)]
    assert dims == [catalan[n // 2] ** 2 if n % 2 == 0 else 0 for n in range(37)]


def _spans(group):
    out, pos = [], 0
    for kind, k in group:
        out.append((pos, pos + k, kind == "sl"))
        pos += k
    return tuple(out)


def _joint_or_error(group, chi, n_max):
    """The joint Brauer-Klimyk kernel on every block at once, refused as
    invariant_dimensions refuses a virtual character."""
    import tcaseries.torus as torus
    dims = torus._brauer_klimyk(_spans(group), frozenset(chi.items()), n_max)
    for n, x in enumerate(dims):
        if x < 0:
            return f"negative invariant dimension {x} at n={n}: weights is a virtual character"
    return dims


def _block_character(draw, group):
    """An integer sum of up to two orbits (none: the zero character) on `group`,
    some with negative multiplicity."""
    d, chi = sum(k for _, k in group), {}
    for _ in range(draw(st.integers(0, 2))):
        e = tuple(draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d)))
        m = draw(st.sampled_from([1, 1, 2, -1]))
        for o in _orbit(e, group):
            chi[o] = chi.get(o, 0) + m
    return {e: c for e, c in chi.items() if c}


def _external(f, g, c=1):
    return {a + b: c * x * y for a, x in f.items() for b, y in g.items()}


@st.composite
def block_products(draw):
    """(group, chi, n_max): chi = c (f (x) g) on gl/sl blocks of rank <= 2 each
    side, with identical sides, (-f) (x) (-g), content c and, sometimes, a
    second product added, whose sum has rank 2 in general."""
    def blocks():
        ranks = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)
                     .filter(lambda r: sum(r) <= 2))
        return [(draw(st.sampled_from(["gl", "sl"])), k) for k in ranks]

    g1 = blocks()
    f = _block_character(draw, g1)
    if draw(st.booleans()):  # the same block and character on both sides
        g2, g = g1, f
    else:
        g2 = blocks()
        g = _block_character(draw, g2)
    if draw(st.booleans()):
        f, g = ({e: -c for e, c in f.items()}, {e: -c for e, c in g.items()})
    chi = _external(f, g, draw(st.sampled_from([1, 2, -1])))
    if draw(st.booleans()):
        for e, c in _external(_block_character(draw, g1), _block_character(draw, g2)).items():
            chi[e] = chi.get(e, 0) + c
    return g1 + g2, {e: c for e, c in chi.items() if c}, draw(st.integers(0, 8))


@settings(max_examples=200, deadline=None)
@given(block_products())
def test_block_split_matches_the_joint_kernel(case):
    # dims of f (x) g block by block against one joint Brauer-Klimyk run; a
    # virtual character fails at the same n with the same message
    group, chi, n_max = case
    got = _result_or_error(invariant_dimensions, group,
                           LaurentPoly(sum(k for _, k in group), chi), n_max)
    assert got == _joint_or_error(group, chi, n_max)


@pytest.mark.parametrize("group,chi,n_max", [
    ([("sl", 2), ("sl", 2)], {}, 6),                                   # zero
    ([("gl", 1), ("gl", 1)], {(1, 1): 1, (-1, -1): 1}, 8),             # rank 2
    ([("gl", 1), ("gl", 1)], _external({(1,): 1, (-1,): 1}, {(1,): 1, (-1,): 1}, 2), 8),
    ([("gl", 1), ("gl", 1)], {(0, 0): -1}, 4),                         # virtual
    ([("gl", 1), ("sl", 2), ("gl", 1)], _external(_external(           # three blocks
        {(1,): 1, (-1,): 1}, {(1, 0): 1, (0, 1): 1}), {(2,): 1, (-2,): 1}), 8),
])
def test_block_split_edge_cases_match_the_joint_kernel(group, chi, n_max):
    got = _result_or_error(invariant_dimensions, group,
                           LaurentPoly(sum(k for _, k in group), chi), n_max)
    assert got == _joint_or_error(group, chi, n_max)


def test_block_split_compares_key_sets_not_row_lengths():
    # rows {(1,): 1} and {(-1,): 1} have one entry each but no common key: rank 2
    import tcaseries.torus as torus
    assert torus._split_block(1, {(-1, -1): 1, (1, 1): 1}) is None
    assert torus._split_block(1, {(-1, -1): 2, (-1, 1): 2, (1, -1): 3, (1, 1): 3}) == (
        {(-1,): 2, (1,): 3}, {(-1,): 1, (1,): 1})


def test_sl2_x_sl2_tensor_to_120_gives_catalan_squares():
    chi = lp(4, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})
    catalan = [comb(2 * m, m) // (m + 1) for m in range(61)]
    assert invariant_dimensions([("sl", 2), ("sl", 2)], chi, 120) == [
        catalan[n // 2] ** 2 if n % 2 == 0 else 0 for n in range(121)]


# --- kernel series -----------------------------------------------------------


def test_kernel_small_exact():
    ker = kernel_K(2, 2)
    assert ker.terms == {
        (0, 0): TSeries(2, {(): F(1)}),
        (0, 1): TSeries(2, {(1,): F(1)}),
        (0, 2): TSeries(2, {(2,): F(1), (1, 1): F(1, 2)}),
        (1, 0): TSeries(2, {(1,): F(1)}),
        (1, 1): TSeries(2, {(1, 1): F(1)}),
        (2, 0): TSeries(2, {(2,): F(1), (1, 1): F(1, 2)}),
    }


def test_kernel_alpha_coefficients_factor():
    # [alpha^x] K(t, alpha) = prod_i sum_{mu |- x_i} t^mu / mu!
    N = 5
    ker = kernel_K(2, N)
    blocks = []
    for k in range(5):
        blocks.append(TSeries(N, {mu: F(1, partition_factorial(mu))
                                  for mu in enumerate_partitions(k)}))
    seen = set()
    for x in itertools.product(range(5), repeat=2):
        if sum(x) > 4:
            continue
        seen.add(x)
        assert ker.coefficient(x) == blocks[x[0]] * blocks[x[1]]
    for e in ker.terms:
        if sum(e) <= 4:
            assert e in seen


def test_kernel_egf_specialization_is_exponential():
    # with t_1 = t and t_i = 0 (i >= 2), [alpha^e] K = multinomial(|e|; e)/|e|!
    from tcaseries.seriesforms import ts_egf
    N = 6
    ker = kernel_K(2, N)
    for e in itertools.product(range(N + 1), repeat=2):
        if sum(e) > N:
            continue
        m = sum(e)
        expected = [F(0)] * (N + 1)
        expected[m] = F(comb(m, e[0]), factorial(m))
        assert ts_egf(ker.coefficient(e)) == expected


def test_kernel_exponent_bound_enforced():
    with pytest.raises(ValueError):
        KernelSeries(1, 2, {(3,): TSeries(2, {(1,): F(1)})})


def test_kernel_coefficients_are_cut_to_its_truncation():
    # a coefficient truncated above the kernel is cut to it (one truncated
    # below is refused); coefficients that cancel are dropped
    ker = KernelSeries(1, 2, {(1,): TSeries(4, {(1,): F(1), (3,): F(1)})})
    assert ker.coefficient((1,)) == TSeries(2, {(1,): F(1)})
    assert KernelSeries(1, 2, {(1,): TSeries(2, {(1,): 1}), ("01",): TSeries(3, {(1,): -1})}).terms == {}


@pytest.mark.parametrize("e", [(1,), (1, 0, 0), "ab", (1, 0.5)])
def test_kernel_coefficient_refuses_a_malformed_exponent(e):
    # the exponent is read as the constructor reads it: d integer entries
    with pytest.raises(ValueError):
        kernel_K(2, 3).coefficient(e)


def test_kernel_coefficient_reads_integral_entries():
    ker = kernel_K(2, 3)
    assert ker.coefficient(("1", 1.0)) == ker.coefficient((1, 1)) != TSeries(3, {})


# --- enhanced series via the integral ----------------------------------------


def test_single_schur_object_enhanced():
    d, N = 2, 4
    hilb = [None, None, schur_lp((2,), d)]
    assert enhanced_from_equivariant(hilb, d, N) == \
        TSeries(N, {(2,): F(1), (1, 1): F(1, 2)})


def test_zero_module_enhanced():
    assert enhanced_from_equivariant([None] * 6, 2, 5) == TSeries(5, {})
    assert enhanced_from_equivariant([], 2, 5) == TSeries(5, {})


@st.composite
def degree_characters(draw):
    """(hilb, d, N): d <= 3, N <= 6, a list of up to N + 2 degree characters,
    each None or a few terms with signed fractional coefficients, mostly of
    total degree n so that the integrals do not all vanish; sometimes one
    entry has the wrong number of variables."""
    d, N = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    wrong_d = draw(st.booleans())

    def character(n):
        k = draw(st.sampled_from([d, d, d, d + 1] if wrong_d else [d]))
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            width = max(k - 1, 0)
            head = draw(st.lists(st.integers(-1, n + 1), min_size=width, max_size=width))
            tail = n - sum(head) + draw(st.sampled_from([0, 0, 0, 1, -2]))
            e = tuple(head + [tail]) if k else ()
            terms[e] = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        return LaurentPoly(k, terms)

    length = draw(st.integers(0, N + 2))
    return [None if draw(st.booleans()) else character(n) for n in range(length)], d, N


@settings(max_examples=100, deadline=None)
@given(degree_characters())
def test_enhanced_integral_matches_per_partition_oracle(case):
    # |Delta|^2 once per degree against one weyl_inner per partition; a
    # character with the wrong number of variables fails on both routes
    hilb, d, N = case
    assert _result_or_error(enhanced_from_equivariant, hilb, d, N) == \
        _result_or_error(enhanced_from_equivariant_per_partition, hilb, d, N)


def test_enhanced_integral_refuses_wrong_variable_count():
    hilb = [lp(2, {(0, 0): 1}), lp(3, {(1, 0, 0): F(-1, 2)})]
    for route in (enhanced_from_equivariant, enhanced_from_equivariant_per_partition):
        with pytest.raises(ValueError, match="2 variables"):
            route(hilb, 2, 3)
    # entries above the truncation are never read
    assert enhanced_from_equivariant(hilb, 2, 0) == TSeries(0, {(): F(1)})


def test_sym_degree_characters_refuse_negative_truncation():
    with pytest.raises(ValueError):
        sym_degree_characters(power_sum_lp(1, 2), -1)
    assert sym_degree_characters(power_sum_lp(1, 2), 0) == [lp(2, {(0, 0): 1})]


@st.composite
def virtual_characters(draw):
    """(chi, N): d <= 3, N <= 6, up to four terms with exponents in -2..2 and
    signed coefficients of denominator up to 6, one of them not an integer."""
    d, N = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    exponents = st.tuples(*[st.integers(-2, 2)] * d)
    terms = draw(st.dictionaries(exponents, st.builds(F, st.integers(-4, 4), st.integers(1, 6)),
                                 max_size=3))
    terms[draw(exponents)] = draw(st.builds(F, st.integers(-5, 5), st.integers(2, 6))
                                  .filter(lambda c: c.denominator > 1))
    return LaurentPoly(d, terms), N


@settings(max_examples=100, deadline=None)
@given(virtual_characters())
def test_sym_degree_characters_match_binomial_series(case):
    # Sym^n is not linear in chi: scaling chi by its common denominator L
    # and dividing Sym^n by L^n would be wrong here
    chi, N = case
    assert sym_degree_characters(chi, N) == sym_powers_binomial(chi, N)


@st.composite
def far_characters(draw):
    """(chi, N): d <= 3 (0 included), N <= 4, up to three terms, possibly none,
    with entries from WIDE and signed coefficients of denominator up to 3."""
    d, N = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    return LaurentPoly(d, draw(st.dictionaries(st.tuples(*[WIDE] * d), COEFFS, max_size=3))), N


@settings(max_examples=100, deadline=None)
@given(far_characters())
def test_sym_degree_characters_with_far_exponents_match_binomial_series(case):
    # Newton's recurrence runs on codes wide enough for N times the largest
    # entry of chi; terms compare in order, as the package decodes in code order
    chi, N = case
    got, want = sym_degree_characters(chi, N), sym_powers_binomial(chi, N)
    assert [list(f.terms.items()) for f in got] == [list(f.terms.items()) for f in want]


def test_sym_degree_characters_of_half_a_line():
    # prod (1 - u)^{-1/2}: binom(n - 1/2, n) = 1, 1/2, 3/8, 5/16
    got = sym_degree_characters(lp(1, {(1,): HALF}), 3)
    assert got == [lp(1, {(0,): 1}), lp(1, {(1,): HALF}), lp(1, {(2,): F(3, 8)}),
                   lp(1, {(3,): F(5, 16)})]


def test_expansion_routes_do_no_fraction_arithmetic(monkeypatch):
    # the five expansion routes and the Laurent product run on integers over
    # one common denominator and make one Fraction per output coefficient; no
    # Fraction sum or product
    sigma = SigmaExpr({((2, 1), (2, 0)): F(1, 3), ((1,), (1,)): F(-5, 4), ((), (0, 0)): F(1),
                       ((1, 1), ()): F(2, 5)})
    enhanced = phi_sigma(sigma)
    chi = lp(2, {(1, 0): HALF, (0, 1): HALF, (1, -1): F(-2, 3)})
    hilb = sym_degree_characters(power_sum_lp(1, 2).scale(F(3, 2)), 8)
    routes = [(sigma_expand, sigma, 9), (enhanced_expand, enhanced, 9),
              (sym_degree_characters, chi, 8), (enhanced_from_equivariant, hilb, 2, 8),
              (ts_exp, TSeries(9, {(1,): F(1, 2), (2,): F(-2, 3), (2, 1): F(3, 4),
                                   (4,): F(1, 5)}), 9),
              (LaurentPoly.__mul__, chi, lp(2, {(1, 0): F(5, 14), (0, 1): F(5, 14),
                                              (1, -1): F(-10, 21), (0, 2): F(1, 4)}))]
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(*args, _original=getattr(F, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(F, name, counted)
    for route, *args in routes:
        calls.clear()
        assert route(*args)
        assert calls == [], route.__name__
    assert HALF + 1 == F(3, 2) and calls == ["__add__"]


def test_enhanced_routes_make_no_fraction(monkeypatch):
    # Gessel's determinant, the expansion of an enhanced form, the integral route
    # and the symmetric powers store integer numerators over one denominator:
    # they make no Fraction at all, not even one per output coefficient
    enhanced = phi_sigma(SigmaExpr({((2, 1), (2, 0)): F(1, 3), ((1,), (1,)): F(-5, 4),
                                    ((), (0, 0)): F(1), ((1, 1), ()): F(2, 5)}))
    chi = lp(2, {(1, 0): HALF, (0, 1): HALF, (1, -1): F(-2, 3)})
    hilb = sym_degree_characters(power_sum_lp(1, 2).scale(F(3, 2)), 8)
    routes = [(gessel_enhanced, 3, 2, 9), (enhanced_expand, enhanced, 9),
              (enhanced_from_equivariant, hilb, 2, 8), (sym_degree_characters, chi, 8)]
    made = []

    def counted(cls, *args, _original=F.__new__, **kwargs):
        made.append(args)
        return _original(cls, *args, **kwargs)
    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    for route, *args in routes:
        route(*args)
        assert made == [], route.__name__
    assert HALF + 1 and len(made) == 1  # the count sees a Fraction made
    monkeypatch.undo()
    assert F(1, 2) and len(made) == 1


def test_schur_coefficients_do_no_fraction_arithmetic(monkeypatch):
    # integers over one common denominator, one Fraction per coefficient
    cases = [(schur_lp((2, 1), 3) * schur_lp((1,), 3), {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}),
             (lp(2, {(2, 0): F(1, 3), (1, 1): F(-2, 3), (0, 2): F(1, 3)}), {(2,): F(1, 3), (1, 1): -1}),
             (lp(0, {(): 4}), {(): 4})]
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(*args, _original=getattr(F, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(F, name, counted)
    got = [schur_coefficients(f) for f, _ in cases]
    assert calls == []
    monkeypatch.undo()
    assert got == [want for _, want in cases]


@pytest.mark.parametrize("m", [1, 2])
def test_polynomial_tca_enhanced_three_routes(m):
    d, N = 2, 5
    chi = power_sum_lp(1, d).scale(m)
    hilb = sym_degree_characters(chi, N)
    integral = enhanced_from_equivariant(hilb, d, N)
    sigma_route = enhanced_expand(phi_sigma(SigmaExpr({((), (0,) * m): F(1)})), N)
    exp_route = tca_enhanced_exp(TSeries(N, {(1,): F(m)}), 1, N)
    assert integral == sigma_route
    assert integral == exp_route


def test_enhanced_integral_matches_symmetric_square_route():
    # Sym of the degree-2 symmetric object: its constituents up to weight 6
    # all have length <= 3, so the rank-3 integral already sees the full
    # algebra and agrees with the exponential route
    d, N = 3, 6
    sym = sym_degree_characters(schur_lp((2,), d), N)
    hilb = [sym[n // 2] if n % 2 == 0 else None for n in range(N + 1)]
    integral = enhanced_from_equivariant(hilb, d, N)
    hV = TSeries(N, {(2,): F(1), (1, 1): F(1, 2)})
    assert integral == tca_enhanced_exp(hV, 2, N)


def test_enhanced_integral_sees_length_truncation():
    # at d = 2 the integral computes the series of the rank-2 specialization:
    # schur constituents of length > 2 drop out of the degree characters
    from tcaseries.seriesforms import phi_enhanced
    from tcaseries.symfunc import SCHUR, SymFunc, sym_algebra_character
    d, N = 2, 6
    sym = sym_degree_characters(schur_lp((2,), d), N)
    hilb = [sym[n // 2] if n % 2 == 0 else None for n in range(N + 1)]
    integral = enhanced_from_equivariant(hilb, d, N)
    full = sym_algebra_character(SymFunc(SCHUR, {(2,): F(1)}, None), N)
    cut = SymFunc(SCHUR, {mu: c for mu, c in full.terms.items() if len(mu) <= d}, N)
    assert integral == phi_enhanced(cut, N)
    assert integral != phi_enhanced(full, N)


# --- lattice EGF (the oracle in tests/oracles.py) ----------------------------


def test_weight_presentation_free_rank_one():
    coeffs = hilbert_from_weight_presentation([[1]], (0,), 8)
    assert coeffs == [F(1, factorial(n)) for n in range(9)]


def test_weight_presentation_shift():
    coeffs = hilbert_from_weight_presentation([[1]], (2,), 6)
    assert coeffs == [F(0), F(0)] + [F(1, factorial(n)) for n in range(2, 7)]


def test_weight_presentation_offset_beyond_truncation():
    assert hilbert_from_weight_presentation([[1]], (7,), 5) == [F(0)] * 6


def test_weight_presentation_rejects_bad_rows():
    with pytest.raises(ValueError):
        hilbert_from_weight_presentation([[0, 0]], (0, 0), 4)
    with pytest.raises(ValueError):
        hilbert_from_weight_presentation([[1, -1]], (0, 0), 4)
    with pytest.raises(ValueError):
        hilbert_from_weight_presentation([[1, 0]], (0,), 4)
    with pytest.raises(ValueError):
        hilbert_from_weight_presentation([[1]], (-1,), 4)


def test_weight_presentation_sym2_fibers():
    # rows = weights of Sym^2 C^2; count fibers by brute force per target y
    A = [[2, 0], [1, 1], [0, 2]]
    N = 8
    coeffs = hilbert_from_weight_presentation(A, (0, 0), N)
    expected = [F(0)] * (N + 1)
    for y1 in range(N + 1):
        for y2 in range(N + 1 - y1):
            fiber = 0
            for x in itertools.product(range(N + 1), repeat=3):
                img = (2 * x[0] + x[1], x[1] + 2 * x[2])
                if img == (y1, y2):
                    fiber += 1
            expected[y1 + y2] += F(fiber, factorial(y1) * factorial(y2))
    assert coeffs == expected
