"""Suspensions of Brieskorn-Pham curves against Denef-Loeser's Newton
formula (closed_forms.newton_bp_ztop), which owes nothing to the transfer
theorem that suspend_G implements: x^a + y^b + z^c (m = 0),
z^m (z^k + x^a + y^b) with m >= 1 and nu_z >= 1, and suspend_profile applied
twice (four variables).  Every twist up to twice the support bound
(m+k) support_lcm is held to the oracle, and both vanish off the bound."""
import random
import time

from closed_forms import newton_bp_ztop
from graphgen import brieskorn_pham_graph
from topzeta.suspension import profile_from_graph, suspend_G, \
    suspend_profile

BUDGET_S = 4.0


def curve_profile(a: int, b: int):
    return profile_from_graph(brieskorn_pham_graph(a, b))


def test_three_variables_m0():
    rng = random.Random(101)
    start = time.perf_counter()
    cases = nonzero = 0
    for _ in range(80):
        a, b, c = (rng.randint(2, 8) for _ in range(3))
        f = curve_profile(a, b)
        bound = c * f.support_lcm
        for l in range(1, 2 * bound + 1):
            z = suspend_G(f, 0, c, 1, l)
            assert z == newton_bp_ztop((a, b, c), 0, 1, l), (a, b, c, l)
            if bound % l:
                assert z.is_zero(), (a, b, c, l)
            cases += 1
            nonzero += not z.is_zero()
    assert cases > 12_000 and nonzero > 500
    assert time.perf_counter() - start < BUDGET_S


def test_generalized_suspensions():
    rng = random.Random(103)
    start = time.perf_counter()
    cases = nonzero = 0
    for _ in range(100):
        a, b = rng.randint(2, 6), rng.randint(2, 6)
        m, k, nu_z = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 4)
        f = curve_profile(a, b)
        bound = (m + k) * f.support_lcm
        for l in range(1, 2 * bound + 1):
            z = suspend_G(f, m, k, nu_z, l)
            assert z == newton_bp_ztop((a, b, k), m, nu_z, l), \
                (a, b, m, k, nu_z, l)
            if bound % l:
                assert z.is_zero(), (a, b, m, k, nu_z, l)
            cases += 1
            nonzero += not z.is_zero()
    assert cases > 12_000 and nonzero > 500
    assert time.perf_counter() - start < BUDGET_S


def test_suspend_profile_twice():
    # x^a + y^b + z^c, then w^m (w^k + ...) on it: every entry of the
    # complete profile, and the zero entries past its support
    rng = random.Random(107)
    start = time.perf_counter()
    cases = nonzero = 0
    for i in range(30):
        a, b, c = (rng.randint(2, 5) for _ in range(3))
        m = 0 if i % 2 else rng.randint(1, 3)
        k, nu_z = rng.randint(2, 5), 1 if m == 0 else rng.randint(1, 3)
        f = suspend_profile(curve_profile(a, b), 0, c, 1)
        g = suspend_profile(f, m, k, nu_z)
        bound = (m + k) * f.support_lcm
        assert bound % g.support_lcm == 0
        for l in range(1, 2 * bound + 1):
            z = g.entry(l)
            assert z == newton_bp_ztop((a, b, c, k), m, nu_z, l), \
                (a, b, c, m, k, nu_z, l)
            if bound % l:
                assert z.is_zero() and l not in g.entries, l
            cases += 1
            nonzero += not z.is_zero()
    assert cases > 4_000 and nonzero > 150
    assert time.perf_counter() - start < BUDGET_S
