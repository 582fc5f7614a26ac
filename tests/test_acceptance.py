"""Acceptance criteria, one test per criterion.

Every comparison is exact.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion PASS/FAIL lines.
"""
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import gcd

import pytest

from closed_forms import lys_candidate_poles, lys_orders_formula, \
    power_transform
from conftest import load_fixture
from graphgen import random_graph
from topzeta.arith import divisor_closure, divisors, frak_m, jordan_totient
from topzeta.binomial import BULLETS, BinomialGerm, euler_specialize, \
    motivic_w, w_top
from topzeta.checks import check_holomorphy, check_monodromy
from topzeta.cyclo import CycloProduct
from topzeta.lys import LysSurface, lys_charpoly, lys_from_json, lys_orders, \
    lys_summary, lys_ztop
from topzeta.ratfun import RatFun
from topzeta.resolution import acampo, graph_from_json, strata_of_graph, \
    ztop_from_strata
from topzeta.suspension import GermSummary, ZetaProfile, fbad_set, \
    profile_from_graph, profile_from_json, summary_from_graph, suspend_G, \
    suspend_matrix, suspend_orders, suspend_summary

@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} ({name}): PASS")


def test_criterion_01_suspension_of_x5y6():
    with criterion(1, "x^5+y^6 suspension by 10 points"):
        prof = profile_from_json(load_fixture("x5y6_profile.json"))
        u = [7, 15]
        rows = {
            1: RatFun.from_polys([7, 3], [7, 22, 15]),
            3: RatFun.from_polys([6], u), 6: RatFun.from_polys([6], u),
            5: RatFun.from_polys([1], [14, 30]),
            10: RatFun.from_polys([-5], [14, 30]),
            15: RatFun.from_polys([7], [14, 30]),
            30: RatFun.from_polys([7], [14, 30]),
        }
        for ell in range(1, 31):
            assert suspend_G(prof, 0, 10, 1, ell) == \
                rows.get(ell, RatFun.zero()), ell
        b_matrix, holds = suspend_matrix(prof, 10)
        assert b_matrix == [[9, -3, -24, -72], [-1, 7, -24, -72],
                            [-1, -3, -14, -72], [-1, -3, -24, -62]]
        assert holds


def test_criterion_02_lvp_twist_27():
    with criterion(2, "k = 84, ell = 27 twist"):
        prof = profile_from_json(load_fixture("lvp_profile.json"))
        assert suspend_G(prof, 0, 84, 1, 27) == \
            RatFun.from_polys([8], [317, 756])


def test_criterion_03_triple_cusp_suite():
    with criterion(3, "triple-cusp suite"):
        g = graph_from_json(load_fixture("triple_cusp_graph.json"))
        _, delta = acampo(g)
        assert delta.factors == {1: 2, 3: 1, 7: 2, 18: 1, 21: 2}
        res = strata_of_graph(g)
        assert ztop_from_strata(res, 9) == RatFun.from_polys([1], [5, 18])
        assert ztop_from_strata(res, 18) == RatFun.from_polys([-1], [5, 18])
        assert fbad_set(delta.root_orders()) == frozenset({18})
        assert suspend_G(profile_from_graph(g), 0, 2, 1, 18).is_zero()


def test_criterion_04_low_degree_lys():
    with criterion(4, "degree-3 tangent cone surfaces, k = 1..8"):
        node = ZetaProfile({1: RatFun.from_polys([1], [1, 2, 1])})
        nodesum = GermSummary(node, CycloProduct.from_factors({1: 1}))
        one = RatFun.from_polys([1, 1], [1])
        a3 = graph_from_json(load_fixture("a3_graph.json"))
        a3.check_numerical_data()
        germ = summary_from_graph(a3)
        assert germ.zeta.entry(1) == RatFun.from_polys([3, 1], [3, 7, 4])
        assert germ.delta.factors == {1: 1, 4: 1}
        for k in range(1, 9):
            S = LysSurface(2, 3, k, 0, 0, [nodesum] * 3)
            assert lys_ztop(S, 1) == \
                RatFun.from_polys([k + 3, 6, 3], [1]) / (one ** 3 * (k + 3))
            assert lys_charpoly(S)[0] == \
                CycloProduct.from_brackets([(3 + k, 3), (1, -1)])
            T = LysSurface(2, 3, k, 0, 2, [germ])
            den = one * RatFun.from_polys([3 * (k + 4), 4 * (k + 3)], [1])
            if k % 2 == 1:
                num = RatFun.from_polys([3 * (k + 4), 3], [1])
                delta = CycloProduct.from_brackets(
                    [(3 + k, 1), (4 * (3 + k), 1), (2 * (3 + k), -1), (1, -1)])
            elif k % 4 == 2:
                num = RatFun.from_polys([3 * (k + 4)], [1])
                delta = CycloProduct.from_brackets(
                    [(3 + k, 1), (2 * (3 + k), 2), (3 + k, -2), (1, -1)])
            else:
                num = RatFun.from_polys([3 * (k + 4), 12], [1])
                delta = CycloProduct.from_brackets([(3 + k, 3), (1, -1)])
            assert lys_ztop(T, 1) == num / den, k
            assert lys_charpoly(T)[0] == delta, k


def test_criterion_05_motivic_oracle_full_grid():
    with criterion(5, "Euler specialization = topological terms, full grid"):
        pairs = [(n_j, nu_j) for n_j in range(1, 7) for nu_j in range(1, 4)]
        shapes = []
        for q in (1, 2, 3):
            shapes.extend(itertools.combinations_with_replacement(pairs, q))
        start = time.monotonic()
        cases = 0
        for shape in shapes:
            n_vec = tuple(p[0] for p in shape)
            nu_vec = tuple(p[1] for p in shape)
            for m in range(0, 5):
                for k in range(1, 7):
                    for nu_z in range(1, 5):
                        germ = BinomialGerm(m, k, n_vec, nu_vec, nu_z)
                        for bullet in BULLETS:
                            cases += 1
                            assert euler_specialize(motivic_w(germ, bullet)) \
                                == w_top(germ, bullet), (germ, bullet)
        elapsed = time.monotonic() - start
        assert cases >= 10_000
        assert elapsed < 60, f"grid took {elapsed:.1f}s"
        print(f"  [{cases} cases in {elapsed:.1f}s]", end=" ")


def test_criterion_06_normalization():
    with criterion(6, "Z(., 1) at 0 equals 1/prod nu0"):
        graph_fixtures = ["triple_cusp_graph", "two_cusp_graph", "a3_graph",
                          "cusp_graph"]
        for name in graph_fixtures:
            g = graph_from_json(load_fixture(f"{name}.json"))
            res = strata_of_graph(g)
            assert ztop_from_strata(res, 1).evaluate(0) == F(1, res.prod_nu0)
        for name in ("kashiwara_quartic", "kashiwara_sextic",
                     "kashiwara_degree10"):
            for graph_json in load_fixture(f"{name}.json")["fibers"].values():
                res = strata_of_graph(graph_from_json(graph_json))
                assert ztop_from_strata(res, 1).evaluate(0) == 1
        rng = random.Random(2026)
        for _ in range(100):
            res = strata_of_graph(random_graph(rng))
            assert ztop_from_strata(res, 1).evaluate(0) == F(1, res.prod_nu0)


def test_criterion_07_arithmetic_properties():
    with criterion(7, "Jordan identity, frak_m brute force, power transform"):
        for n in range(1, 501):
            assert sum(jordan_totient(2, d) for d in divisors(n)) == n * n
        for k in range(1, 61):
            for ell in range(1, 61):
                for q in range(1, 61):
                    expected = frak_m(k, ell, q)
                    found = next(
                        big_m for big_m in range(1, 10 * k * ell + 1)
                        if (q * big_m) % (ell * gcd(k, big_m)) == 0)
                    assert found == expected, (k, ell, q)
        rng = random.Random(7)
        from test_cyclo import _power_oracle
        for _ in range(200):
            brackets = [(rng.randint(1, 30), rng.choice([-2, -1, 1, 2]))
                        for _ in range(rng.randint(0, 5))]
            h = CycloProduct.from_brackets(brackets)
            k = rng.randint(1, 12)
            assert power_transform(h, k) == _power_oracle(h, k)


def _curve_fixture_graphs():
    names = ["triple_cusp_graph", "two_cusp_graph", "a3_graph", "cusp_graph"]
    graphs = [graph_from_json(load_fixture(f"{n}.json")) for n in names]
    for name in ("kashiwara_quartic", "kashiwara_sextic", "kashiwara_degree10"):
        for graph_json in load_fixture(f"{name}.json")["fibers"].values():
            graphs.append(graph_from_json(graph_json))
    return graphs


def _lys_fixtures():
    names = ["lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
             "lys_kashiwara_Ib", "lys_kashiwara_IbL"]
    return [lys_from_json(load_fixture(f"{n}.json")) for n in names]


def test_criterion_08_structural_theorems():
    with criterion(8, "order-set and pole-set structure theorems"):
        for g in _curve_fixture_graphs():
            germ = summary_from_graph(g)
            orders_f = germ.delta.root_orders()
            _, orders_sus = suspend_orders(germ, 2)
            assert fbad_set(orders_f) == \
                divisor_closure(orders_f) - divisor_closure(orders_sus)
        for S in _lys_fixtures():
            assert lys_orders(S) == lys_orders_formula(S)
            z1 = lys_ztop(S, 1)
            assert z1.pol_plus() <= lys_candidate_poles(S)
            if F(S.n + 1, S.m + S.k) != 1:
                assert F(S.n + 1, S.m + S.k) not in z1.pol_plus() or \
                    F(S.n + 1, S.m + S.k) in lys_candidate_poles(S)
        # pole transfer for suspensions of the curve fixtures
        for g in _curve_fixture_graphs()[:4]:
            prof = profile_from_graph(g)
            for k in (2, 3):
                for ell in (1, 2, 3, 6, 9, 18):
                    for pole, _ in suspend_G(prof, 0, k, 1, ell) \
                            .poles_with_multiplicity():
                        if pole.denominator == 1:
                            continue
                        target = pole + F(1, k)
                        assert any(
                            k % (ell // l1) == 0 and target in
                            {p for p, _ in
                             prof.entry(l1).poles_with_multiplicity()}
                            for l1 in divisors(ell))


def _conjectures_hold(germ: GermSummary) -> bool:
    orders = germ.delta.root_orders()
    l_max = min(2 * max(orders, default=1), 80)
    return check_monodromy(germ.zeta.entry(1), germ.delta).passed \
        and check_holomorphy(germ.zeta.entry, orders, l_max).passed


def test_criterion_09_conjecture_suites():
    with criterion(9, "monodromy and holomorphy checks on all fixtures"):
        for g in _curve_fixture_graphs():
            assert _conjectures_hold(summary_from_graph(g))
        for g in _curve_fixture_graphs()[:4]:
            germ = summary_from_graph(g)
            for k in (2, 3):
                assert _conjectures_hold(suspend_summary(germ, k))
        for S in _lys_fixtures():
            assert _conjectures_hold(lys_summary(S))


def test_criterion_10_kashiwara_tables():
    with criterion(10, "Kashiwara pencil tables ingest"):
        for name in ("kashiwara_quartic", "kashiwara_sextic",
                     "kashiwara_degree10"):
            fixture = load_fixture(f"{name}.json")
            assert fixture["fibers"]
            for fiber, graph_json in fixture["fibers"].items():
                g = graph_from_json(graph_json)
                g.check_numerical_data()  # at every vertex
                strata_of_graph(g)  # checks the normalization
