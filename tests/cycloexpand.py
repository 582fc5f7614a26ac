"""Coefficient-level expansion of cyclotomic products, as a test oracle.

Kept out of the package on purpose: only the tests compare CycloProducts
by actual polynomial coefficients, and only at small degree.
"""
from __future__ import annotations

from functools import lru_cache

from topzeta.arith import divisors
from topzeta.cyclo import CycloProduct
from topzeta.ratfun import pmul


def _div_exact(a, b) -> tuple[int, ...]:
    """a // b for integer polynomials, b monic, when the division is exact."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        q[i] = coef = a[i + len(b) - 1]
        for j, cb in enumerate(b):
            a[i + j] -= coef * cb
    if any(a):
        raise ValueError("inexact integer polynomial division")
    return tuple(q)


@lru_cache(maxsize=None)
def cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d, ascending."""
    num = tuple([-1] + [0] * (d - 1) + [1])  # x^d - 1
    for e in divisors(d):
        if e != d:
            num = _div_exact(num, cyclotomic_coeffs(e))
    return num


def expand(h: CycloProduct) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(numerator, denominator) coefficient tuples of the product."""
    num: tuple[int, ...] = (1,)
    den: tuple[int, ...] = (1,)
    for d, e in h.items:
        block = cyclotomic_coeffs(d)
        for _ in range(abs(e)):
            if e > 0:
                num = pmul(num, block)
            else:
                den = pmul(den, block)
    return num, den


def expand_poly(h: CycloProduct) -> tuple[int, ...]:
    """Coefficients of a polynomial CycloProduct."""
    num, den = expand(h)
    return _div_exact(num, den)
