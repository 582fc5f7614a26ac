"""Brieskorn-Pham curves x^a + y^b as an end-to-end oracle.

The resolution graph comes from the Euclidean algorithm on (a, b) alone,
and the closed forms that check it do not read a graph: Z^(l) of
z^b + x^a from the binomial cone terms, and Delta from Brieskorn's
eigenvalues (Milnor-Orlik, Topology 9, 1970).  For curves both
conjectures are theorems (Veys, Math. Ann. 295, 1993).
"""
import time
from itertools import product
from math import lcm

from closed_forms import brieskorn_pham_eigenvalues, ztop_binomial
from graphgen import brieskorn_pham_graph
from topzeta.binomial import BinomialGerm
from topzeta.checks import check_holomorphy, check_monodromy
from topzeta.cyclo import CycloProduct
from topzeta.resolution import acampo, strata_of_graph, ztop_from_strata
from topzeta.suspension import summary_from_graph

EXPONENTS = range(2, 13)


def test_zeta_functions_match_binomial_closed_form():
    start = time.perf_counter()
    for a in EXPONENTS:
        for b in EXPONENTS:
            res = strata_of_graph(brieskorn_pham_graph(a, b))
            germ = BinomialGerm(0, b, (a,), (1,), 1)
            for l in range(1, 2 * lcm(a, b) + 1):
                assert ztop_from_strata(res, l) == ztop_binomial(germ, l), \
                    (a, b, l)
    assert time.perf_counter() - start < 4.0


def test_cusp_fixture_in_both_orders(cusp_graph):
    res = strata_of_graph(cusp_graph)
    for a, b in ((2, 3), (3, 2)):
        germ = BinomialGerm(0, b, (a,), (1,), 1)
        for l in range(1, 13):
            assert ztop_from_strata(res, l) == ztop_binomial(germ, l), (a, l)


def test_monodromy_matches_brieskorn():
    for a in EXPONENTS:
        for b in EXPONENTS:
            _, delta = acampo(brieskorn_pham_graph(a, b))
            assert delta == CycloProduct.from_brackets(
                [(a, 1), (1, -1)]).thom_sebastiani_tensor(b), (a, b)
    _, cusp = acampo(brieskorn_pham_graph(2, 3))
    assert cusp == CycloProduct.from_factors({6: 1})


def test_thom_sebastiani_matches_milnor_orlik():
    # x_1^a_1 + ... + x_n^a_n for n = 3 and 4 with 2 <= a_i <= 6, every
    # order of the exponents: the tensor, applied once per variable after
    # the first, against the products of roots of unity
    start = time.perf_counter()
    for n in (3, 4):
        for exponents in product(range(2, 7), repeat=n):
            delta = CycloProduct.from_brackets([(exponents[0], 1), (1, -1)])
            for a in exponents[1:]:
                delta = delta.thom_sebastiani_tensor(a)
            assert delta == brieskorn_pham_eigenvalues(exponents), exponents
    assert time.perf_counter() - start < 3.0


def test_conjectures_hold():
    start = time.perf_counter()
    for a in EXPONENTS:
        for b in EXPONENTS:
            germ = summary_from_graph(brieskorn_pham_graph(a, b))
            assert check_monodromy(germ.zeta.entry(1), germ.delta).passed
            assert check_holomorphy(germ.zeta.entry,
                                    germ.delta.root_orders()).passed
    assert time.perf_counter() - start < 4.0
