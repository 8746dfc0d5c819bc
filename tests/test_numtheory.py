import random
from math import gcd

import pytest

from faro.numtheory import (
    euler_totient,
    is_primitive_root,
    multiplicative_order,
)


@pytest.mark.parametrize("m,expected", [(9, 6), (53, 52), (27, 18), (2, 1), (12, 4)])
def test_totient_examples(m, expected):
    assert euler_totient(m) == expected


def test_totient_matches_coprime_count():
    for m in range(2, 400):
        assert euler_totient(m) == sum(1 for i in range(1, m + 1) if gcd(i, m) == 1)


def test_totient_rejects_small_modulus():
    with pytest.raises(ValueError):
        euler_totient(1)


@pytest.mark.parametrize("g,m,expected", [(2, 9, 6), (1, 9, 1), (2, 53, 52)])
def test_order_examples(g, m, expected):
    assert multiplicative_order(g, m) == expected


def test_order_matches_brute_force():
    rng = random.Random(2)
    for _ in range(150):
        m = rng.randrange(2, 300)
        g = rng.randrange(1, m)
        if gcd(g, m) != 1:
            continue
        t = 1
        acc = g % m
        while acc != 1:
            acc = acc * g % m
            t += 1
        assert multiplicative_order(g, m) == t


def test_order_rejects_non_units():
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)
    with pytest.raises(ValueError):
        multiplicative_order(0, 5)


def test_order_divides_totient_and_powers_to_one():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randrange(2, 2000)
        g = rng.randrange(1, m)
        if gcd(g, m) != 1:
            continue
        t = multiplicative_order(g, m)
        assert euler_totient(m) % t == 0
        assert pow(g, t, m) == 1


@pytest.mark.parametrize("g,m,expected", [(2, 9, True), (2, 7, False), (2, 3, True)])
def test_primitive_root_examples(g, m, expected):
    assert is_primitive_root(g, m) is expected


def test_two_generates_all_powers_of_three():
    for k in range(1, 13):
        assert is_primitive_root(2, 3**k)


def test_primitive_root_of_p_squared_lifts_to_higher_powers():
    # any generator found modulo p^2 by search must stay a generator
    # modulo p^3 and p^4
    for p in (3, 5, 7, 11):
        lifted = 0
        for g in range(2, p * p):
            if gcd(g, p) != 1 or not is_primitive_root(g, p * p):
                continue
            assert is_primitive_root(g, p**3)
            assert is_primitive_root(g, p**4)
            lifted += 1
        assert lifted > 0
