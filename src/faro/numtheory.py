"""Modular arithmetic primitives behind the shuffle cycle structure.

Everything operates on plain Python integers. Arbitrary-precision arithmetic
means intermediate products can never overflow, so the routines are correct
for any modulus; sizes in this package stay small enough (about 2**40) that
trial-division factorization is all the machinery needed.

Key facts used elsewhere:
    phi(p^e) = p^(e-1) * (p - 1)
    ord_m(g) | phi(m)                 for gcd(g, m) = 1
    g is a primitive root of m  <=>   ord_m(g) = phi(m)
"""

from math import gcd

__all__ = [
    "euler_totient",
    "multiplicative_order",
    "is_primitive_root",
]


def _check_modulus(m: int) -> None:
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")


def euler_totient(m: int) -> int:
    """phi(m): count of residues in 1..m coprime to m, via trial division."""
    _check_modulus(m)
    result = 1
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            result *= p - 1
            n //= p
            while n % p == 0:
                result *= p
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        result *= n - 1
    return result


def _sorted_divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def multiplicative_order(g: int, m: int) -> int:
    """Least t >= 1 with g**t = 1 (mod m); tests divisors of phi(m)."""
    _check_modulus(m)
    if gcd(g, m) != 1:
        raise ValueError(f"{g} is not a unit modulo {m} (gcd != 1)")
    phi = euler_totient(m)
    for t in _sorted_divisors(phi):
        if pow(g, t, m) == 1:
            return t
    raise AssertionError("unreachable: the order always divides phi(m)")


def is_primitive_root(g: int, m: int) -> bool:
    """True iff the powers of g generate the whole unit group of m."""
    return multiplicative_order(g, m) == euler_totient(m)
