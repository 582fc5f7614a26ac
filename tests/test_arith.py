from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from closed_forms import frak_n
from topzeta.arith import TRIAL_DIVISION_BOUND, divisor_closure, \
    divisors, frak_m, jordan_totient, mobius
from topzeta.errors import ValidationError


def test_divisors_examples():
    assert divisors(1) == (1,)
    assert divisors(10) == (1, 2, 5, 10)
    # trial-division oracle
    assert divisors(84) == tuple(d for d in range(1, 85) if 84 % d == 0)
    assert divisors(84) == (1, 2, 3, 4, 6, 7, 12, 14, 21, 28, 42, 84)
    for n in range(1, 1001):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)


def test_trial_division_bound():
    # trial division is exponential in the digits of its input, so both
    # functions that factor stop at the bound instead of running for hours
    assert TRIAL_DIVISION_BOUND == 10 ** 12
    assert len(divisors(10 ** 12)) == 169
    assert mobius(10 ** 12 - 11) == -1  # the largest prime below 10^12
    for n in (10 ** 12 + 1, 10 ** 20):
        with pytest.raises(ValidationError, match="trial division"):
            divisors(n)
        with pytest.raises(ValidationError, match="trial division"):
            mobius(n)


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    # sum_{d|n} mu(d) = [n = 1]
    for n in range(1, 1001):
        assert sum(mobius(d) for d in divisors(n)) == (n == 1)


def test_jordan_examples():
    assert jordan_totient(2, 2) == 3
    assert jordan_totient(2, 5) == 24
    assert jordan_totient(2, 10) == 72
    assert all(jordan_totient(m, 1) == 1 for m in range(1, 5))


@pytest.mark.parametrize("m", [1, 2])
def test_jordan_identity(m):
    # sum_{d|n} J_m(d) = n^m
    for n in range(1, 501):
        assert sum(jordan_totient(m, d) for d in divisors(n)) == n ** m


def _in_dkl(k: int, l: int, q: int, big_m: int) -> bool:
    return (q * big_m) % (l * gcd(k, big_m)) == 0


def test_frak_m_examples():
    assert frak_m(10, 3, 10) == 3
    assert frak_m(10, 30, 10) == 3
    assert frak_m(84, 27, 84) == 27
    for l in range(1, 12):
        for q in range(1, 12):
            assert frak_m(1, l, q) == l // gcd(l, q)


def test_frak_m_membership_properties():
    # generator and twice the generator lie in D(k, l, q); no proper divisor does
    for k in range(1, 31):
        for l in range(1, 31):
            for q in range(1, 31, 3):
                fm = frak_m(k, l, q)
                assert _in_dkl(k, l, q, fm)
                assert _in_dkl(k, l, q, 2 * fm)
                for d in divisors(fm):
                    if d != fm:
                        assert not _in_dkl(k, l, q, d)


def test_frak_n_examples():
    for n in range(1, 10):
        for m in range(1, 8):
            assert frak_n(n, m, 1) == (m + 1) * n
    assert frak_n(6, 3, 2) == 15
    for m in range(1, 6):
        for k in range(1, 6):
            assert frak_n(1, m, k) == m + k


@given(st.integers(1, 60), st.integers(1, 20), st.integers(1, 8), st.integers(1, 8))
def test_frak_n_divisibility_monotone(n1, mult, m, k):
    n2 = n1 * mult
    assert frak_n(n2, m, k) % frak_n(n1, m, k) == 0


def test_lemma_divmlk_grid():
    # l not dividing frak_n(n, m, k) forces lcm(e, frak_m(k, l, m+k)) not | n
    for n in range(1, 25):
        for m in range(1, 7):
            for k in range(1, 7):
                for l in range(2, 25):
                    if frak_n(n, m, k) % l == 0:
                        continue
                    fm = frak_m(k, l, m + k)
                    for e in divisors(k):
                        assert n % lcm(e, fm) != 0


def test_lemma_divell_grid():
    # l | m and l not | frak_n(n, m, k) forces l not | n
    for n in range(1, 25):
        for m in range(1, 13):
            for k in range(1, 7):
                for l in range(2, 13):
                    if m % l == 0 and frak_n(n, m, k) % l != 0:
                        assert n % l != 0


def test_divisor_closure():
    assert divisor_closure([12]) == frozenset({1, 2, 3, 4, 6, 12})
    assert divisor_closure([18, 21]) == frozenset({1, 2, 3, 6, 9, 18, 7, 21})
    assert divisor_closure([]) == frozenset()
