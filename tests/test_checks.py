from fractions import Fraction as F

import pytest

from conftest import load_fixture
from topzeta.checks import check_holomorphy, check_monodromy, default_l_max
from topzeta.cyclo import CycloProduct
from topzeta.lys import lys_charpoly, lys_from_json, lys_orders, lys_ztop
from topzeta.ratfun import RatFun
from topzeta.resolution import acampo, strata_of_graph, ztop_from_strata
from topzeta.suspension import summary_from_graph, suspend_G, suspend_orders

ONE_BRACKET = CycloProduct.from_brackets([(1, 1)])


def test_monodromy_xyz_lys():
    S = lys_from_json(load_fixture("lys_xyz_k2.json"))
    report = check_monodromy(lys_ztop(S, 1), lys_charpoly(S)[1])
    assert report.passed
    assert [item.label for item in report.items] == ["-1|1"]
    assert "smooth point" in report.items[0].note


def test_monodromy_suspension_of_triple_cusp(triple_cusp_graph):
    germ = summary_from_graph(triple_cusp_graph)
    delta_f, _ = suspend_orders(germ, 2)
    zeta1 = suspend_G(germ.zeta, 0, 2, 1, 1)
    assert F(7, 9) in zeta1.pol_plus()
    report = check_monodromy(zeta1, delta_f * ONE_BRACKET)
    assert report.passed
    assert any(item.label == "-7/9|9" for item in report.items)


def test_monodromy_negative_case():
    report = check_monodromy(RatFun.inv_linear(2, 1),
                             CycloProduct.from_factors({1: 1}))
    assert not report.passed
    assert report.to_json()["verdict"] == "fail"
    assert report.to_json()["items"][0] == {
        "ok": False, "order": 2, "pole": "-1/2",
        "note": "Phi_2 does not divide the characteristic polynomial"}


def test_monodromy_rejects_nonpolynomial():
    with pytest.raises(ValueError):
        check_monodromy(RatFun.one(), CycloProduct.from_factors({2: -1}))


def test_holomorphy_suspension(triple_cusp_graph):
    germ = summary_from_graph(triple_cusp_graph)
    _, orders = suspend_orders(germ, 2)
    family = lambda l: suspend_G(germ.zeta, 0, 2, 1, l)
    report = check_holomorphy(family, orders, l_max=50)
    assert report.passed
    checked = {int(item.label) for item in report.items}
    assert 18 in checked       # the f-bad order must be checked and vanish
    assert 9 not in checked    # in the closure: skipped


def test_holomorphy_curve_fixtures(triple_cusp_graph, two_cusp_graph,
                                   a3_graph, cusp_graph):
    # Veys: holomorphy holds for curves
    for g in (triple_cusp_graph, two_cusp_graph, a3_graph, cusp_graph):
        res = strata_of_graph(g)
        _, delta = acampo(g)
        report = check_holomorphy(lambda l: ztop_from_strata(res, l),
                                  delta.root_orders())
        assert report.passed


def test_holomorphy_suspension_k_gt_2(triple_cusp_graph, a3_graph):
    for g in (triple_cusp_graph, a3_graph):
        germ = summary_from_graph(g)
        for k in (3, 4, 5):
            _, orders = suspend_orders(germ, k)
            report = check_holomorphy(
                lambda l: suspend_G(germ.zeta, 0, k, 1, l), orders, l_max=60)
            assert report.passed


def test_holomorphy_lys_fixtures():
    for name in ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                 "lys_kashiwara_Ib", "lys_kashiwara_IbL"):
        S = lys_from_json(load_fixture(f"{name}.json"))
        orders = lys_orders(S)
        l_max = min(2 * max(orders), 80)
        report = check_holomorphy(lambda l: lys_ztop(S, l), orders, l_max)
        assert report.passed, name
        mon = check_monodromy(lys_ztop(S, 1), lys_charpoly(S)[1])
        assert mon.passed, name


def test_default_l_max():
    assert default_l_max(frozenset({2, 3})) == 12
    assert default_l_max(frozenset()) == 2
    assert default_l_max(frozenset({101, 103})) == 10_000


def test_holomorphy_negative_case():
    family = lambda l: RatFun.inv_linear(1, l)
    report = check_holomorphy(family, frozenset({2}), l_max=5)
    assert not report.passed
    assert {int(i.label): i.ok for i in report.items} == \
        {3: False, 4: False, 5: False}
