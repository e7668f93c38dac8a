"""Partition primitives, S_n characters, Kostka matrices, dimension formulas."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from tcaseries.partitions import (
    _horizontal_strips_above,
    _power_sum_to_monomial,
    as_partition,
    canonical_key,
    canonical_positions,
    dim_schur,
    dim_specht,
    enumerate_partitions,
    format_partition,
    kostka_and_inverse,
    kostka_number,
    parse_partition,
    partition_factorial,
    partitions_in_box,
    partitions_up_to,
    sym_character,
    transpose,
    z_of,
)
from tcaseries.polyutil import integer, multiset_code, multiset_parts

from oracles import partition_count, power_sum_monomial_boxes, ssyt_bounded, ssyt_fillings


@st.composite
def partitions(draw, max_size=8):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return tuple(parts)


def test_parse_format_roundtrip():
    assert parse_partition("[3,1,1]") == (3, 1, 1)
    assert parse_partition("[]") == ()
    assert format_partition((3, 1, 1)) == "[3,1,1]"
    assert format_partition(()) == "[]"
    with pytest.raises(ValueError):
        parse_partition("[1,3]")


def test_as_partition_strips_zeros():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition([0, 0]) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])


@pytest.mark.parametrize("parts", [(0, 1), (2, 0, 1), (1, -1), (-1,)])
def test_as_partition_checks_order_before_stripping_zeros(parts):
    with pytest.raises(ValueError):
        as_partition(parts)


def _outcome(validate, parts):
    """Result and whether each part is an int, or exception class and message."""
    try:
        lam = validate(parts)
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return lam, [type(p) is int for p in lam]


def _equal_valued(parts):
    """Tuples equal to parts, with every number as a float, a Fraction, a bool."""
    def each(convert):
        return tuple(p if isinstance(p, str) else convert(p) for p in parts)
    out = [each(float), each(Fraction)]
    if all(isinstance(p, str) or p in (0, 1) for p in parts):
        out.append(each(bool))
    return out


_PARTS = st.one_of(st.integers(-2, 5), st.booleans(),
                   st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 1.5, Fraction(2), Fraction(3, 2),
                                    "2", "01", "-1", "1.5"]))


def _reference_partition(parts):
    """Independent reference: the parts as Fractions must be integers, weakly
    decreasing and >= 0; the zeros are dropped."""
    values = [Fraction(p) for p in parts]
    if (any(v.denominator != 1 for v in values) or values != sorted(values, reverse=True)
            or values and values[-1] < 0):
        raise ValueError(f"{parts!r} is not a partition")
    return tuple(int(v) for v in values if v)


def _kind(outcome):
    """An outcome with the message of a refusal dropped."""
    return outcome if isinstance(outcome[0], tuple) else outcome[0]


@given(st.lists(_PARTS, max_size=4).map(tuple))
def test_cached_as_partition_matches_the_validator(parts):
    # the tuple and every tuple equal to it with numbers of other types are
    # answered as the reference answers them: the same int parts, or a ValueError
    for t in [parts, *_equal_valued(parts)]:
        assert _kind(_outcome(as_partition, t)) == _kind(_outcome(_reference_partition, t))


def test_as_partition_cache_by_hand():
    # every call validates: an unhashable part is refused each time
    for _ in range(2):
        with pytest.raises(TypeError):
            as_partition(([1],))
    # (2.0, 1) is answered (2, 1) with int parts, as (2, 1) is
    for key in [(2.0, 1), (2, 1)]:
        lam = as_partition(key)
        assert lam == (2, 1) and all(type(p) is int for p in lam)
    # a refused key stays refused, with its message, after a valid one was answered
    for bad, message in [((1, 2), "parts not weakly decreasing in (1, 2)"),
                         ((2, -1), "negative part in (2, -1)"),
                         ((2, 1.5), "1.5 is not an integer")]:
        assert _outcome(as_partition, bad) == _outcome(as_partition, bad) == (ValueError, message)
    # lists and generators are validated too
    assert as_partition([3, 1, 0]) == as_partition(p for p in (3, 1)) == (3, 1)


def test_complex_part_answered_whatever_the_cache_holds():
    # 2+0j == 2: integer() maps it to 2, so it is answered as 2 is, in either
    # order of calls; any other complex part is refused with a ValueError
    for keys in [((2 + 0j,), (2,)), ((2,), (2 + 0j,))]:
        for key, want in [*((k, (2,)) for k in keys), ((2 + 0j, 1.0 + 0j), (2, 1))]:
            lam = as_partition(key)
            assert lam == want and all(type(p) is int for p in lam)
        for bad in [(2 + 1j,), (2.5 + 0j,), (3, 1j)]:
            with pytest.raises(ValueError, match="is not an integer"):
                as_partition(bad)
    assert [integer(2 + 0j), integer(-3.0 + 0j)] == [2, -3]
    with pytest.raises(ValueError):
        integer(1j)


def test_canonical_key_is_cached():
    canonical_key.cache_clear()
    assert canonical_key((3, 1)) == canonical_key((3.0, True)) == (4, (-3, -1))
    assert canonical_key.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_enumerate_order_and_counts():
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(0) == [()]
    for n in range(13):
        assert len(enumerate_partitions(n)) == partition_count(n)


def test_enumerate_bounds():
    assert enumerate_partitions(5, max_length=2) == [(5,), (4, 1), (3, 2)]
    assert enumerate_partitions(4, max_part=2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_negative_bounds_admit_no_part():
    # a bound below 0 is not "no bound": only the empty partition has no part
    for bounds in ({"max_length": -1}, {"max_part": -1}):
        assert enumerate_partitions(3, **bounds) == []
        assert partitions_up_to(3, **bounds) == [()]


def test_partitions_in_box():
    box = partitions_in_box(2, 2)
    assert box == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]


def test_canonical_key_orders_reverse_lex():
    ps = sorted(enumerate_partitions(6), key=canonical_key)
    assert ps == enumerate_partitions(6)


@given(partitions())
def test_transpose_involution(lam):
    assert transpose(transpose(lam)) == lam
    assert sum(transpose(lam)) == sum(lam)


def test_z_of():
    import math
    assert z_of((2, 2, 1)) == 8
    assert z_of(()) == 1
    # class sizes n!/z_mu sum to n!
    for n in range(1, 8):
        assert sum(math.factorial(n) // z_of(mu) for mu in enumerate_partitions(n)) == math.factorial(n)
        assert all(math.factorial(n) % z_of(mu) == 0 for mu in enumerate_partitions(n))


@given(st.dictionaries(st.integers(1, 9), st.integers(1, 25), max_size=4))
@example({})
@example({1: 40})
@example({7: 1})
def test_partition_factorial_and_z_of_match_definitions(mult):
    # mult maps each part to its multiplicity: runs up to 25 long, and the
    # examples pin the empty partition, one long run and one single part
    lam = tuple(sorted(Counter(mult).elements(), reverse=True))
    counts = Counter(lam)
    assert partition_factorial(lam) == math.prod(math.factorial(m) for m in counts.values())
    assert z_of(lam) == math.prod(math.factorial(m) * i ** m for i, m in counts.items())


def test_sym_character_known_values():
    # S_3 table, classes (3), (2,1), (1,1,1)
    assert [sym_character((3,), mu) for mu in enumerate_partitions(3)] == [1, 1, 1]
    assert [sym_character((2, 1), mu) for mu in enumerate_partitions(3)] == [-1, 0, 2]
    assert [sym_character((1, 1, 1), mu) for mu in enumerate_partitions(3)] == [1, -1, 1]
    # spot values in S_4 and S_5
    assert sym_character((2, 2), (2, 2)) == 2
    assert sym_character((2, 2), (4,)) == 0
    assert sym_character((3, 1), (2, 1, 1)) == 1
    assert sym_character((3, 2), (5,)) == 0  # (3,2) contains a 2x2 box: no 5-strip
    assert sym_character((4, 1), (5,)) == -1
    assert sym_character((1, 1), (2,)) == -1


def test_sym_character_size_mismatch():
    with pytest.raises(ValueError):
        sym_character((2, 1), (2, 2))


def test_char_table_orthogonality():
    # sum_mu chi^a(mu) chi^b(mu) / z_mu = [a == b]
    for n in range(1, 8):
        classes = enumerate_partitions(n)
        for a in classes:
            for b in classes:
                s = sum(Fraction(sym_character(a, mu) * sym_character(b, mu), z_of(mu))
                        for mu in classes)
                assert s == (a == b), (a, b)


def test_sign_and_trivial_rows():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            assert sym_character((n,), mu) == 1
            eps = (-1) ** (n - len(mu))
            assert sym_character((1,) * n, mu) == eps


def test_dim_specht_matches_identity_column_and_ssyt():
    import math
    for n in range(1, 8):
        total = 0
        for lam in enumerate_partitions(n):
            d = dim_specht(lam)
            assert d == sym_character(lam, (1,) * n)
            assert d == ssyt_fillings(lam, (1,) * n)
            total += d * d
        assert total == math.factorial(n)


def test_dim_schur_vs_ssyt():
    for n in range(7):
        for lam in enumerate_partitions(n):
            for d in range(1, 5):
                assert dim_schur(lam, d) == ssyt_bounded(lam, d)


def test_dim_schur_general_weights():
    # det^{-1} twist on GL(2): one-dimensional
    assert dim_schur((-1, -1), 2) == 1
    assert dim_schur((1, -1), 2) == 3
    with pytest.raises(ValueError):
        dim_schur((1, 2), 2)
    assert dim_schur((2, 1, 1), 2) == 0


def test_kostka_known_values():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((2, 1), (2, 1)) == 1
    assert kostka_number((2, 1), (3,)) == 0
    assert kostka_number((3, 1), (2, 1, 1)) == 2


def test_kostka_vs_ssyt_oracle():
    for n in range(8):
        for lam in enumerate_partitions(n):
            for mu in enumerate_partitions(n):
                assert kostka_number(lam, mu) == ssyt_fillings(lam, mu)


def test_horizontal_strips_above_match_interlacing_filter():
    # mu/lam is a horizontal strip iff mu_1 >= lam_1 >= mu_2 >= lam_2 >= ...
    def interlaces(mu, lam):
        if len(lam) > len(mu):
            return False
        lam = lam + (0,) * (len(mu) - len(lam))
        return all(mu[i] >= lam[i] >= (mu[i + 1] if i + 1 < len(mu) else 0)
                   for i in range(len(mu)))

    for lam in partitions_up_to(6):
        for k in range(6):
            got = _horizontal_strips_above(lam, k)
            want = [mu for mu in enumerate_partitions(sum(lam) + k) if interlaces(mu, lam)]
            assert sorted(got) == sorted(want) and len(set(got)) == len(got), (lam, k)


def test_kostka_inverse():
    for n in range(8):
        order, K, Kinv = kostka_and_inverse(n)
        assert order == enumerate_partitions(n)
        size = len(order)
        for i in range(size):
            for j in range(size):
                s = sum(K[i][t] * Kinv[t][j] for t in range(size))
                assert s == (1 if i == j else 0)
                assert isinstance(Kinv[i][j], int)


def test_kostka_inverse_row_known():
    # m_(2) = s_(2) - s_(1,1) and m_(1,1) = s_(1,1)
    order, K, Kinv = kostka_and_inverse(2)
    assert order == [(2,), (1, 1)]
    assert Kinv[0] == [1, -1]
    assert Kinv[1] == [0, 1]


def test_canonical_positions_index_partitions_up_to():
    for N in range(9):
        parts, positions = canonical_positions(N)
        assert parts == tuple(partitions_up_to(N))
        assert {multiset_parts(code): i for code, i in positions.items()} == \
            {lam: i for i, lam in enumerate(parts)}
        assert all(positions[multiset_code(lam)[1]] == i for i, lam in enumerate(parts))
    with pytest.raises(TypeError):
        positions[0] = 1


@pytest.mark.parametrize("r", [1, 2, 3])
def test_power_sum_scatter_table_matches_box_placements(r):
    # column nu of the table holds (position of lam, N! / lam! [x^nu] p_lam) for
    # every lam with a nonzero entry, in canonical order
    brute = {lam: power_sum_monomial_boxes(lam, r) for lam in partitions_up_to(8)}
    for N in range(9):
        parts, _ = canonical_positions(N)
        table = _power_sum_to_monomial(r, N)
        got = {(parts[i], nu): v for nu, col in table.items() for i, v in col}
        assert got == {(lam, nu): math.factorial(N) // partition_factorial(lam) * c
                       for lam in parts for nu, c in brute[lam].items()}
        assert all([i for i, _ in col] == sorted(i for i, _ in col) for col in table.values())
