"""Partition primitives, S_n characters, Kostka matrices, dimension formulas."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tcaseries.partitions import (
    as_partition,
    canonical_key,
    dim_schur,
    dim_specht,
    enumerate_partitions,
    format_partition,
    kostka_and_inverse,
    kostka_number,
    parse_partition,
    partition_factorial,
    partitions_in_box,
    sym_character,
    transpose,
    z_of,
)

from oracles import partition_count, ssyt_bounded, ssyt_fillings


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
    with pytest.raises(ValueError):
        as_partition([1, 2])


def test_enumerate_order_and_counts():
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert enumerate_partitions(0) == [()]
    for n in range(13):
        assert len(enumerate_partitions(n)) == partition_count(n)


def test_enumerate_bounds():
    assert enumerate_partitions(5, max_length=2) == [(5,), (4, 1), (3, 2)]
    assert enumerate_partitions(4, max_part=2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


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
