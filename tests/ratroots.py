"""Rational-root search by divisor enumeration, as a small-input oracle.

The package factors dense denominators by Descartes bisection; this is the
textbook alternative (every rational root p/q has p | a_0 and q | lead),
whose cost grows with the number of divisors and the square roots of the
end coefficients, so the tests only feed it small inputs.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def int_divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return sorted(out)


def scaled_value(p: Sequence[int], num: int, den: int) -> int:
    """den^n p(num/den) for an integer polynomial p of degree n, by Horner's
    rule in integers."""
    acc = 0
    power = 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    return acc


def rational_root(p: Sequence) -> Fraction | None:
    """A rational root of a rational-coefficient polynomial, or None."""
    scale = 1
    for c in p:
        scale = lcm(scale, Fraction(c).denominator)
    ints = [int(Fraction(c) * scale) for c in p]
    a0, lead = ints[0], ints[-1]
    if a0 == 0:
        return Fraction(0)
    for num in int_divisors(abs(a0)):
        for den in int_divisors(abs(lead)):
            for sign in (1, -1):
                if not scaled_value(ints, sign * num, den):
                    return Fraction(sign * num, den)
    return None


def roots_by_search(p: Sequence) -> list[tuple[Fraction, int]] | None:
    """Sorted (root, multiplicity) pairs of p, or None when p does not split
    into linear factors over Q."""
    p = [Fraction(c) for c in p]
    roots: dict[Fraction, int] = {}
    while len(p) > 1:
        root = rational_root(p)
        if root is None:
            return None
        quot = [Fraction(0)] * (len(p) - 1)   # synthetic division by s - root
        acc = Fraction(0)
        for i in range(len(p) - 1, 0, -1):
            acc = acc * root + p[i]
            quot[i - 1] = acc
        p = quot
        roots[root] = roots.get(root, 0) + 1
    return sorted(roots.items())
