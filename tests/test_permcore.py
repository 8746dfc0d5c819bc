import random

import pytest

from faro.numtheory import euler_totient, multiplicative_order
from faro.permcore import (
    IN_SHUFFLE,
    OUT_SHUFFLE,
    ShuffleKind,
    cycle_decomposition,
    in_shuffle_order,
    in_target,
    k_target,
    kway_kind,
    out_target,
    permutation_order,
)


@pytest.mark.parametrize("i,order,expected", [(1, 6, 2), (3, 6, 6), (4, 6, 1), (6, 6, 5)])
def test_in_target_examples(i, order, expected):
    assert in_target(i, order) == expected


def test_in_target_rejects_bad_arguments():
    with pytest.raises(ValueError):
        in_target(1, 5)
    with pytest.raises(ValueError):
        in_target(0, 6)
    with pytest.raises(ValueError):
        in_target(7, 6)
    with pytest.raises(ValueError):
        in_target(1, 0)
    with pytest.raises(ValueError):
        in_target(1, -2)


@pytest.mark.parametrize("i,expected", [(1, 1), (6, 6), (2, 3), (3, 5), (4, 2), (5, 4)])
def test_out_target_order_6(i, expected):
    # out-shuffle of [1..6] is [1,4,2,5,3,6]; element i sits at position
    # expected in that deck
    deck = [1, 4, 2, 5, 3, 6]
    assert deck[expected - 1] == i
    assert out_target(i, 6) == expected


def test_out_target_rejects_short_orders():
    with pytest.raises(ValueError):
        out_target(1, 0)
    with pytest.raises(ValueError):
        out_target(1, 7)


@pytest.mark.parametrize("i,order,k,expected", [(1, 12, 3, 3), (9, 12, 3, 1), (4, 12, 3, 12)])
def test_k_target_examples(i, order, k, expected):
    assert k_target(i, order, k) == expected


def test_k_target_arity_two_is_the_in_shuffle_map():
    for order in (2, 6, 8, 26, 100):
        for i in range(1, order + 1):
            assert k_target(i, order, 2) == in_target(i, order)


def test_k_target_rejects_indivisible_order():
    with pytest.raises(ValueError):
        k_target(1, 10, 3)
    with pytest.raises(ValueError):
        k_target(1, 12, 1)


def test_shuffle_kind_validation():
    with pytest.raises(ValueError):
        ShuffleKind("sideways")
    with pytest.raises(ValueError):
        kway_kind(1)
    with pytest.raises(ValueError):
        ShuffleKind("in", k=3)
    assert str(kway_kind(4)) == "k:4"
    assert str(IN_SHUFFLE) == "in"


def test_cycle_decomposition_examples():
    assert cycle_decomposition(IN_SHUFFLE, 6).cycles == ((1, 2, 4), (3, 6, 5))
    assert cycle_decomposition(IN_SHUFFLE, 8).cycles == ((1, 2, 4, 8, 7, 5), (3, 6))
    assert cycle_decomposition(IN_SHUFFLE, 2).cycles == ((1, 2),)
    assert cycle_decomposition(IN_SHUFFLE, 0).cycles == ()


def test_cycle_decomposition_omits_fixed_points():
    # out-shuffle fixes both ends; order 6 leaves the single interior cycle
    assert cycle_decomposition(OUT_SHUFFLE, 6).cycles == ((2, 3, 5, 4),)


def test_cycles_are_canonical_and_consistent_with_the_map():
    rng = random.Random(4)
    kinds = [IN_SHUFFLE, OUT_SHUFFLE, kway_kind(3), kway_kind(5)]
    for kind in kinds:
        arity = kind.k if kind.family == "kway" else 2
        orders = [arity * rng.randrange(1, 200) for _ in range(20)]
        for order in orders:
            if kind.family == "out" and order < 2:
                continue
            target = {
                "in": lambda i: in_target(i, order),
                "out": lambda i: out_target(i, order),
                "kway": lambda i: k_target(i, order, kind.k),
            }[kind.family]
            decomposition = cycle_decomposition(kind, order)
            covered = set()
            previous_leader = 0
            for cycle in decomposition.cycles:
                assert len(cycle) >= 2
                assert cycle[0] == min(cycle)
                assert cycle[0] > previous_leader
                previous_leader = cycle[0]
                for a, b in zip(cycle, cycle[1:]):
                    assert target(a) == b
                assert target(cycle[-1]) == cycle[0]
                assert covered.isdisjoint(cycle)
                covered.update(cycle)
            for i in range(1, order + 1):
                if i not in covered:
                    assert target(i) == i


def test_target_maps_are_bijections():
    for order in range(2, 4097, 2):
        modulus = order + 1
        seen = bytearray(order + 1)
        for i in range(1, order + 1):
            t = 2 * i % modulus
            assert not seen[t]
            seen[t] = 1
        seen = bytearray(order + 1)
        for i in range(1, order + 1):
            t = out_target(i, order)
            assert not seen[t]
            seen[t] = 1
    rng = random.Random(5)
    for k in range(3, 10):
        for order in [k * n for n in range(1, 1025 // k)] + [
            k * rng.randrange(1, 4096 // k) for _ in range(8)
        ]:
            modulus = order + 1
            seen = bytearray(order + 1)
            for i in range(1, order + 1):
                t = k * i % modulus
                assert not seen[t]
                seen[t] = 1


def test_power_of_three_block_structure():
    # at order 3^k - 1 there are exactly k cycles, led by the powers of
    # three, the cycle led by 3^s has length phi(3^k) / 3^s, and its members
    # are the positions whose 3-adic valuation is exactly s
    for k in range(1, 9):
        order = 3**k - 1
        decomposition = cycle_decomposition(IN_SHUFFLE, order)
        assert len(decomposition.cycles) == k
        phi = euler_totient(3**k)
        for s, cycle in enumerate(decomposition.cycles):
            assert cycle[0] == 3**s
            assert len(cycle) == phi // 3**s
            for member in cycle:
                assert member % 3**s == 0
                if s + 1 <= k:
                    assert member % 3 ** (s + 1) != 0
        assert decomposition.moved_count() == order


@pytest.mark.parametrize(
    "kind,order,expected",
    [
        (IN_SHUFFLE, 6, 3),
        (IN_SHUFFLE, 52, 52),
        (OUT_SHUFFLE, 52, 8),
        (IN_SHUFFLE, 2, 2),
        (IN_SHUFFLE, 0, 1),
    ],
)
def test_permutation_order_examples(kind, order, expected):
    assert permutation_order(kind, order) == expected


def test_permutation_order_agrees_with_multiplicative_order():
    # two independent routes: lcm of cycle lengths vs order of 2 mod (2n+1)
    for order in range(2, 4097, 2):
        assert permutation_order(IN_SHUFFLE, order) == in_shuffle_order(order)


def test_out_shuffle_order_is_interior_in_shuffle_order():
    for order in range(4, 600, 2):
        assert permutation_order(OUT_SHUFFLE, order) == multiplicative_order(2, order - 1)


def test_kway_two_matches_in_shuffle_decomposition():
    for order in (2, 6, 8, 26, 80, 100):
        assert (
            cycle_decomposition(kway_kind(2), order).cycles
            == cycle_decomposition(IN_SHUFFLE, order).cycles
        )
