from fractions import Fraction as F

import pytest

from conftest import load_fixture
from topzeta.arith import divisor_closure
from topzeta.checks import CheckItem, check_holomorphy, check_monodromy, \
    curve_subject, default_l_max, lys_subject, subject_from_json, \
    suspension_subject
from topzeta.cyclo import CycloProduct
from topzeta.errors import ValidationError
from topzeta.lys import lys_charpoly, lys_from_json, lys_orders, lys_ztop
from topzeta.ratfun import RatFun
from topzeta.resolution import acampo, strata_of_graph, ztop_from_strata
from topzeta.suspension import summary_from_graph, suspend_G, suspend_orders


def test_monodromy_xyz_lys():
    S = lys_from_json(load_fixture("lys_xyz_k2.json"))
    report = check_monodromy(lys_ztop(S, 1), lys_charpoly(S)[1])
    assert report.passed
    assert [item.label for item in report.items] == ["-1|1"]
    assert "smooth point" in report.items[0].note


def test_monodromy_suspension_of_triple_cusp(triple_cusp_graph):
    subject = suspension_subject(summary_from_graph(triple_cusp_graph), 2)
    zeta1 = subject.zeta(1)
    assert F(7, 9) in zeta1.pol_plus()
    report = check_monodromy(zeta1, subject.delta_tilde)
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


def test_monodromy_refuses_nonpolynomial_as_bad_input():
    with pytest.raises(ValidationError) as exc:
        check_monodromy(RatFun.one(), CycloProduct.from_factors({2: -1}))
    assert type(exc.value) is ValidationError


def test_holomorphy_passing_items_are_plain_check_items(triple_cusp_graph):
    # a passing item is built by tuple.__new__ and must be the CheckItem
    # the constructor builds, down to its type and its JSON
    subjects = [curve_subject(triple_cusp_graph),
                suspension_subject(summary_from_graph(triple_cusp_graph), 2),
                lys_subject(lys_from_json(load_fixture("lys_xyz_k1.json")))]
    for subject in subjects:
        items = check_holomorphy(subject.zeta, subject.orders).items
        assert items and all(item.ok for item in items)
        for item in items:
            assert type(item) is CheckItem
            assert item == CheckItem(item.ell, True)
            assert item.to_json() == CheckItem(item.ell, True).to_json() \
                == {"ell": item.ell, "ok": True}


def test_holomorphy_suspension(triple_cusp_graph):
    subject = suspension_subject(summary_from_graph(triple_cusp_graph), 2)
    report = check_holomorphy(subject.zeta, subject.orders, l_max=50)
    assert report.passed
    checked = {int(item.label) for item in report.items}
    assert 18 in checked       # the f-bad order must be checked and vanish
    assert 9 not in checked    # in the closure: skipped


def test_holomorphy_curve_fixtures(triple_cusp_graph, two_cusp_graph,
                                   a3_graph, cusp_graph):
    # Veys: holomorphy holds for curves
    for g in (triple_cusp_graph, two_cusp_graph, a3_graph, cusp_graph):
        subject = curve_subject(g)
        assert check_holomorphy(subject.zeta, subject.orders).passed


def test_holomorphy_suspension_k_gt_2(triple_cusp_graph, a3_graph):
    for g in (triple_cusp_graph, a3_graph):
        germ = summary_from_graph(g)
        for k in (3, 4, 5):
            subject = suspension_subject(germ, k)
            assert check_holomorphy(subject.zeta, subject.orders,
                                    l_max=60).passed


def test_holomorphy_lys_fixtures():
    for name in ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                 "lys_kashiwara_Ib", "lys_kashiwara_IbL"):
        subject = lys_subject(lys_from_json(load_fixture(f"{name}.json")))
        l_max = min(2 * max(subject.orders), 80)
        assert check_holomorphy(subject.zeta, subject.orders, l_max).passed
        assert check_monodromy(subject.zeta(1), subject.delta_tilde).passed


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


def test_subjects_match_their_constructions(triple_cusp_graph):
    # each builder is the construction it names, and subject_from_json
    # infers the kind from the keys when "kind" is absent
    res = strata_of_graph(triple_cusp_graph)
    _, delta = acampo(triple_cusp_graph)
    germ = summary_from_graph(triple_cusp_graph)
    delta_f, orders_f = suspend_orders(germ, 3)
    S = lys_from_json(load_fixture("lys_tacnode_k2.json"))
    tau_minus_1 = CycloProduct.from_factors({1: 1})
    cases = [
        (curve_subject(triple_cusp_graph), delta * tau_minus_1,
         delta.root_orders(), lambda l: ztop_from_strata(res, l)),
        (suspension_subject(germ, 3), delta_f * tau_minus_1, orders_f,
         lambda l: suspend_G(germ.zeta, 0, 3, 1, l)),
        (lys_subject(S), lys_charpoly(S)[1], lys_orders(S),
         lambda l: lys_ztop(S, l)),
    ]
    for subject, delta_tilde, orders, family in cases:
        assert subject.delta_tilde == delta_tilde
        # the orders are Delta_tilde's, so they may differ only in 1
        assert divisor_closure(subject.orders) - {1} == \
            divisor_closure(orders) - {1}
        assert all(subject.zeta(l) == family(l) for l in range(1, 40))
    graph_obj = load_fixture("triple_cusp_graph.json")
    for obj, expected in [
            (graph_obj, cases[0][0]),
            ({"kind": "curve", "graph": graph_obj}, cases[0][0]),
            ({"germ": graph_obj, "k": 3}, cases[1][0]),
            (load_fixture("lys_tacnode_k2.json"), cases[2][0])]:
        subject = subject_from_json(obj)
        assert (subject.delta_tilde, subject.orders) == \
            (expected.delta_tilde, expected.orders)
        assert subject.zeta(1) == expected.zeta(1)
    with pytest.raises(ValidationError, match="cannot infer subject kind"):
        subject_from_json({"k": 2})
    with pytest.raises(ValidationError, match="unknown subject kind 'germ'"):
        subject_from_json({"kind": "germ"})
