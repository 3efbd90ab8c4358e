from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bairekit.core import (
    BoundFamily,
    bound_eval,
    cantor_pair,
    cantor_unpair,
    ceil_log2,
    ceil_pow,
    derive_seed,
    iroot,
    monus,
    prefix_arg_size,
    rank_to_string,
    string_to_rank,
)


def brute_enumeration(count):
    """Independent length-then-lex enumeration used as the oracle."""
    out = [""]
    length = 1
    while len(out) < count:
        out.extend("".join(bits) for bits in product("01", repeat=length))
        length += 1
    return out[:count]


def test_rank_to_string_examples():
    assert rank_to_string(0) == ""
    assert rank_to_string(2) == "1"
    assert rank_to_string(4) == "01"


def test_rank_to_string_matches_brute_enumeration():
    assert [rank_to_string(i) for i in range(127)] == brute_enumeration(127)


def test_string_to_rank_examples():
    assert string_to_rank("") == 0
    assert string_to_rank("1") == 2
    assert string_to_rank("00") == 3  # 2^2 - 1 + 0


def test_string_to_rank_rejects_junk():
    with pytest.raises(ValueError):
        string_to_rank("012")


def test_round_trip_small():
    for i in range(2**12):
        assert string_to_rank(rank_to_string(i)) == i


def test_length_lex_order_is_monotone():
    prev = rank_to_string(0)
    for i in range(1, 1000):
        cur = rank_to_string(i)
        assert (len(prev), prev) < (len(cur), cur)
        prev = cur


@given(st.integers(min_value=0, max_value=2**40))
def test_round_trip_property(i):
    assert string_to_rank(rank_to_string(i)) == i


def test_monus():
    assert monus(5, 3) == 2
    assert monus(3, 5) == 0
    assert monus(0, 0) == 0


def test_ceil_log2_and_arg_size():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    # arg size of a prefix is ceil(log2(len + 1))
    assert [prefix_arg_size(m) for m in (0, 1, 2, 3, 4, 7, 8)] == [0, 1, 2, 2, 3, 3, 4]


def test_iroot_and_ceil_pow():
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert ceil_pow(16, Fraction(1, 2)) == 4
    assert ceil_pow(17, Fraction(1, 2)) == 5
    assert ceil_pow(0, Fraction(1, 2)) == 0


@given(
    st.one_of(st.integers(0, 2**64), st.integers(2**1024, 2**3000)),
    st.integers(1, 12),
)
def test_iroot_floor_property(x, k):
    # exact for x beyond float range, where a float seed overflows
    r = iroot(x, k)
    assert r**k <= x < (r + 1) ** k


def test_iroot_beyond_float_range():
    r = iroot(2**1100, 3)
    assert r**3 <= 2**1100 < (r + 1) ** 3
    assert iroot(2**1200, 3) == 2**400
    assert iroot(2**1200 - 1, 3) == 2**400 - 1


def test_bound_eval_examples():
    assert bound_eval(BoundFamily.poly(2), 5) == 25
    for k in range(5):
        assert bound_eval(BoundFamily.poly(k), 1) == 1
    assert bound_eval(BoundFamily.subexp(Fraction(1, 2)), 16) == 16  # 2^(16^0.5)


def test_bound_eval_is_at_least_one():
    for fam in (BoundFamily.poly(3), BoundFamily.quasipoly(1), BoundFamily.quasipolylin(2)):
        assert bound_eval(fam, 0) == 1


def test_bound_eval_monotone():
    families = [
        BoundFamily.poly(0),
        BoundFamily.poly(1),
        BoundFamily.poly(3),
        BoundFamily.quasipoly(1),
        BoundFamily.quasipoly(2),
        BoundFamily.quasipolylin(1),
        BoundFamily.subexp(Fraction(1, 3)),
        BoundFamily.subexp(Fraction(1, 2)),
        BoundFamily.subexp(Fraction(2, 3)),
    ]
    for fam in families:
        values = [bound_eval(fam, n) for n in range(65)]
        assert all(a <= b for a, b in zip(values, values[1:])), fam


def test_bound_family_validation():
    with pytest.raises(ValueError):
        BoundFamily("subexp", Fraction(2))
    with pytest.raises(ValueError):
        BoundFamily("poly", Fraction(1, 2))
    with pytest.raises(ValueError):
        BoundFamily("exp", Fraction(1))


def test_cantor_pair_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(0, 1) == 2


def test_cantor_round_trip_exhaustive():
    for i in range(256):
        for j in range(256):
            assert cantor_unpair(cantor_pair(i, j)) == (i, j)


@given(st.integers(min_value=0, max_value=10**9))
def test_cantor_unpair_then_pair(n):
    i, j = cantor_unpair(n)
    assert cantor_pair(i, j) == n


def test_derive_seed_is_stable():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    # frozen value guards cross-platform stability of seeded artifacts
    assert derive_seed("stable") == 0xF379CCB92B911644
