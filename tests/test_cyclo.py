import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import power_transform, thom_sebastiani_walk, \
    variable_power
from cycloexpand import expand_poly
from topzeta.arith import divisor_closure, jordan_totient, lcm_all
from topzeta.cyclo import CycloProduct
from topzeta.errors import ValidationError

brackets_strategy = st.lists(
    st.tuples(st.integers(1, 30), st.integers(-3, 3).filter(bool)),
    min_size=0, max_size=5)

poly_brackets_strategy = st.lists(
    st.tuples(st.integers(1, 24), st.integers(1, 3)), min_size=1, max_size=4)


def test_from_brackets_examples():
    d1 = CycloProduct.from_brackets([(1, 1), (18, 1), (21, 2), (6, -1), (9, -1)])
    assert d1.factors == {1: 2, 3: 1, 7: 2, 18: 1, 21: 2}
    d2 = CycloProduct.from_brackets([(1, 1), (12, 1), (14, 1), (4, -1), (6, -1)])
    assert d2.factors == {1: 1, 7: 1, 12: 1, 14: 1}
    assert CycloProduct.from_brackets([]) == CycloProduct.one()


def test_mul_div():
    a = CycloProduct.from_brackets([(6, 1), (4, 2)])
    assert (a / a) == CycloProduct.one()
    delta = CycloProduct.from_brackets([(1, 1), (18, 1), (21, 2), (6, -1), (9, -1)])
    tilde = delta * CycloProduct.from_brackets([(1, 1)])
    assert tilde.exponent(1) == 3
    # (tau^6-1)(tau^9-1) and (tau^18-1)(tau^3-1) are distinct products
    p = CycloProduct.from_brackets([(6, 1), (9, 1)])
    q = CycloProduct.from_brackets([(18, 1), (3, 1)])
    assert p != q
    assert p.exponent(18) == 0 and q.exponent(18) == 1
    # cross-checked by brute-force expansion
    assert expand_poly(p) != expand_poly(q)


def test_exponent_reads_the_factor_map():
    # the sorted items bisected against the d -> e map, for present and
    # absent d, below, between and above the stored orders
    rng = random.Random(20261020)
    assert CycloProduct.one().exponent(1) == 0
    for _ in range(300):
        h = CycloProduct.from_factors(
            {rng.randint(1, 40): rng.choice([-3, -2, -1, 1, 2, 3])
             for _ in range(rng.randint(0, 6))})
        for d in range(1, 45):
            assert h.exponent(d) == h.factors.get(d, 0), (h, d)


def test_no_tuple_arithmetic():
    # a product is a tuple, but + would concatenate and n * repeat it
    c = CycloProduct.from_brackets([(6, 1), (4, 2)])
    with pytest.raises(TypeError):
        c + c
    with pytest.raises(TypeError):
        2 * c
    with pytest.raises(TypeError):
        c + (1,)


def test_bracket_roundtrip_examples():
    h = CycloProduct.from_factors({1: 2, 3: 1, 7: 2, 18: 1, 21: 2})
    assert CycloProduct.from_brackets(h.to_brackets()) == h


@given(brackets_strategy)
def test_bracket_roundtrip(brackets):
    h = CycloProduct.from_brackets(brackets)
    assert CycloProduct.from_brackets(h.to_brackets()) == h


def _root_multiset(h: CycloProduct) -> dict[int, int]:
    """Roots as residues modulo lcm of the orders (brute-force oracle)."""
    if not h.items:
        return {}
    big_l = lcm_all(d for d, _ in h.items)
    out: dict[int, int] = {}
    for d, e in h.items:
        for j in range(d):
            if gcd(j, d) == 1:
                res = j * (big_l // d)
                out[res] = out.get(res, 0) + e
    return {r: c for r, c in out.items() if c}


def _power_oracle(h: CycloProduct, k: int) -> CycloProduct:
    """Raise every root to the k-th power and refactor by counting orders."""
    if not h.items:
        return CycloProduct.one()
    big_l = lcm_all(d for d, _ in h.items)
    counts: dict[int, dict[int, int]] = {}
    for res, c in _root_multiset(h).items():
        res_k = (res * k) % big_l
        order = big_l // gcd(res_k, big_l)
        counts.setdefault(order, {})
        counts[order][res_k] = counts[order].get(res_k, 0) + c
    factors = {}
    for order, residues in counts.items():
        values = set(residues.values())
        assert len(values) == 1 and len(residues) == jordan_totient(1, order)
        val = values.pop()
        if val:
            factors[order] = val
    return CycloProduct.from_factors(factors)


def test_power_transform_examples():
    h = CycloProduct.from_brackets([(12, 2), (5, -1)])
    assert power_transform(h, 1) == h
    phi9 = CycloProduct.from_factors({9: 1})
    pt = power_transform(phi9, 6)
    assert set(pt.factors) == {3}  # a power of Phi_{9/gcd(9,6)}
    assert power_transform(CycloProduct.from_brackets([(4, 1)]), 2) == \
        CycloProduct.from_brackets([(2, 2)])


@settings(max_examples=120)
@given(brackets_strategy, st.integers(1, 12))
def test_power_transform_oracle(brackets, k):
    h = CycloProduct.from_brackets(brackets)
    assert power_transform(h, k) == _power_oracle(h, k)


@given(brackets_strategy, st.integers(1, 12), st.integers(1, 6))
def test_degree_conservation(brackets, k, p):
    h = CycloProduct.from_brackets(brackets)
    assert power_transform(h, k).degree() == h.degree()
    assert variable_power(h, p).degree() == p * h.degree()


def test_variable_power_examples():
    h = CycloProduct.from_brackets([(6, 1), (4, -1)])
    assert variable_power(h, 1) == h
    one_minus = CycloProduct.from_brackets([(1, 1)])
    for k in range(1, 5):
        assert variable_power(one_minus, 3 + k) == \
            CycloProduct.from_brackets([(3 + k, 1)])


@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 6))
def test_phi_ab_divides_phi_a_of_power(a, b, c):
    # Phi_{ab} | Phi_a(tau^{bc}) when gcd(a, c) = 1
    if gcd(a, c) != 1:
        return
    lifted = variable_power(CycloProduct.from_factors({a: 1}), b * c)
    assert lifted.exponent(a * b) >= 1


@settings(max_examples=80)
@given(poly_brackets_strategy, st.integers(1, 8), st.integers(1, 6), st.integers(1, 20))
def test_prop_cyclo_3_and_4(brackets, k, m, n):
    h = CycloProduct.from_brackets(brackets)
    lifted = variable_power(power_transform(h, k), m + k)
    if h.exponent(n) >= 1:
        assert lifted.exponent((m + k) * n // gcd(n, k)) >= 1
        if m % n == 0:
            assert lifted.exponent(n) >= 1


def test_order_data_examples():
    delta = CycloProduct.from_brackets([(1, 1), (18, 1), (21, 2), (6, -1), (9, -1)])
    orders = delta.root_orders()
    assert orders == frozenset({1, 3, 7, 18, 21}) and delta.is_polynomial()
    assert divisor_closure(orders) == divisor_closure([18, 21])
    assert CycloProduct.one().root_orders() == frozenset()
    assert CycloProduct.one().is_polynomial()
    ratio = CycloProduct.from_brackets([(2, 1), (4, -1)])
    assert not ratio.is_polynomial()
    assert ratio.exponent(4) == -1


def test_thom_sebastiani_examples():
    phi1 = CycloProduct.from_factors({1: 1})
    assert phi1.thom_sebastiani_tensor(3) == CycloProduct.from_factors({3: 1})
    odd = CycloProduct.from_factors({3: 1, 5: 2})
    assert odd.thom_sebastiani_tensor(2).root_orders() == frozenset({6, 10})
    four = CycloProduct.from_factors({4: 1, 8: 1})
    assert four.thom_sebastiani_tensor(2).root_orders() == frozenset({4, 8})
    with pytest.raises(ValueError):
        CycloProduct.from_factors({2: -1}).thom_sebastiani_tensor(2)


def _orders_after_z2(orders):
    out = set()
    for d in orders:
        if d % 4 == 0:
            out.add(d)
        elif d % 2 == 1:
            out.add(2 * d)
        else:
            out.add(d // 2)
    return frozenset(out)


def test_casesorder2_on_random_inputs():
    rng = random.Random(20260810)
    for _ in range(100):
        factors = {rng.randint(1, 30): rng.randint(1, 3)
                   for _ in range(rng.randint(1, 4))}
        h = CycloProduct.from_factors(factors)
        tensored = h.thom_sebastiani_tensor(2)
        assert tensored.root_orders() == _orders_after_z2(h.root_orders())


def test_power_brackets_refuses_bad_arguments_as_bad_input():
    h = CycloProduct.from_brackets([(6, 1)])
    for k, p in ((0, 1), (2, 0)):
        with pytest.raises(ValidationError) as exc:
            h.power_brackets(k, p)
        assert type(exc.value) is ValidationError


def test_thom_sebastiani_refuses_non_polynomial_as_bad_input():
    with pytest.raises(ValidationError) as exc:
        CycloProduct.from_factors({2: -1}).thom_sebastiani_tensor(2)
    assert type(exc.value) is ValidationError


def test_thom_sebastiani_matches_residue_walk():
    rng = random.Random(20261018)
    assert CycloProduct.one().thom_sebastiani_tensor(5) == CycloProduct.one()
    for _ in range(300):
        h = CycloProduct.from_factors({rng.randint(1, 40): rng.randint(1, 3)
                                       for _ in range(rng.randint(1, 7))})
        for k in (1, rng.randint(2, 12)):
            assert h.thom_sebastiani_tensor(k) == thom_sebastiani_walk(h, k)
    with pytest.raises(ValueError):
        CycloProduct.one().thom_sebastiani_tensor(0)


def test_thom_sebastiani_degree():
    # eigenvalue count multiplies by k - 1
    h = CycloProduct.from_factors({1: 2, 6: 1, 9: 2})
    for k in (2, 3, 4, 5):
        assert h.thom_sebastiani_tensor(k).degree() == (k - 1) * h.degree()


def test_power_transform_matches_expansion():
    # substitute actual roots: h^(2) of (tau^4 - 1) is (tau^2 - 1)^2
    h = CycloProduct.from_brackets([(4, 1)])
    assert expand_poly(power_transform(h, 2)) == \
        expand_poly(CycloProduct.from_brackets([(2, 2)]))


def test_json_roundtrip():
    from topzeta.cyclo import cyclo_from_json, cyclo_to_json
    h = CycloProduct.from_factors({1: 2, 18: -1, 21: 2})
    assert cyclo_from_json(cyclo_to_json(h)) == h
    assert cyclo_from_json({"brackets": [[6, 1], [9, 1]]}) == \
        CycloProduct.from_brackets([(6, 1), (9, 1)])
