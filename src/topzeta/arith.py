"""Number-theoretic primitives used by the zeta-function formulas.

Divisors, Mobius, Jordan totients, lcm, and the gadget m(k,l,q) that
controls which twists of a germ feed a given twist of its suspension or
Le-Yomdin blow-up.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .errors import ValidationError


# trial division stays under 10^6 steps up to this bound
TRIAL_DIVISION_BOUND = 10 ** 12


def _check_pos(*values: int) -> None:
    for v in values:
        if v < 1:
            raise ValidationError(f"expected a positive integer, got {v}")


def _factorize(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of 1 <= n <= 10^12, by trial division."""
    _check_pos(n)
    if n > TRIAL_DIVISION_BOUND:
        raise ValidationError(
            "integer above 10^12: too large to factor by trial division")
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, strictly increasing; n <= 10^12."""
    out = [1]
    for p, e in _factorize(n):
        out = [d * p ** i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    factors = _factorize(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


@lru_cache(maxsize=None)
def jordan_totient(m: int, n: int) -> int:
    """J_m(n) = sum_{d|n} mu(d) (n/d)^m; J_1 is Euler's totient."""
    _check_pos(m, n)
    return sum(mobius(d) * (n // d) ** m for d in divisors(n))


def frak_m(k: int, l: int, q: int) -> int:
    """Generator of {M : l*gcd(k,M) divides q*M}.

    Equals l1 * gcd(k, l1^u) for u >> 1 with l1 = l/gcd(l,q); the gcd
    stabilizes after at most bit_length(k) doublings, so no prime
    factorization is needed.
    """
    _check_pos(k, l, q)
    l1 = l // gcd(l, q)
    if l1 == 1:
        return 1
    g = gcd(k, l1)
    while True:
        g_next = gcd(k, g * l1)
        if g_next == g:
            return l1 * g
        g = g_next


def divisor_closure(values) -> frozenset[int]:
    """Union of the divisor sets of the given positive integers."""
    out: set[int] = set()
    for v in sorted(values, reverse=True):
        if v not in out:           # else its divisors are in out already
            out.update(divisors(v))
    return frozenset(out)


def lcm_all(values) -> int:
    out = 1
    for v in values:
        out = lcm(out, v)
    return out

