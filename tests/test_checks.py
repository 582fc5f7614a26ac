import random
import time
from fractions import Fraction as F

import pytest

from conftest import load_fixture
from graphgen import brieskorn_pham_graph, random_graph
from topzeta.checks import CheckItem, check_holomorphy, check_monodromy, \
    default_l_max, subject_from_json
from topzeta.cyclo import CycloProduct
from topzeta.errors import ValidationError
from topzeta.lys import LysSurface, lys_charpoly, lys_from_json, \
    lys_summary, lys_ztop
from topzeta.ratfun import RatFun
from topzeta.resolution import acampo, graph_from_json, strata_of_graph, \
    ztop_from_strata
from topzeta.suspension import GermSummary, ZetaProfile, \
    summary_from_graph, suspend_G, suspend_summary

TAU_MINUS_1 = CycloProduct.from_brackets([(1, 1)])
L_CAP = 5_000
LYS_FIXTURES = ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                "lys_kashiwara_Ib", "lys_kashiwara_IbL")


def holomorphy(germ: GermSummary, l_max: int | None = None):
    """check_holomorphy over germ's profile and the root orders of Delta,
    as `topzeta check holomorphy` calls it."""
    return check_holomorphy(germ.zeta.entry, germ.delta.root_orders(), l_max)


def monodromy(germ: GermSummary):
    return check_monodromy(germ.zeta.entry(1), germ.delta)

def test_monodromy_xyz_lys():
    S = lys_from_json(load_fixture("lys_xyz_k2.json"))
    report = check_monodromy(lys_ztop(S, 1), lys_charpoly(S)[0])
    assert report.passed
    assert [item.label for item in report.items] == ["-1|1"]
    assert "smooth point" in report.items[0].note


def test_monodromy_suspension_of_triple_cusp(triple_cusp_graph):
    germ = suspend_summary(summary_from_graph(triple_cusp_graph), 2)
    assert F(7, 9) in germ.zeta.entry(1).pol_plus()
    report = monodromy(germ)
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
    germs = [summary_from_graph(triple_cusp_graph),
             suspend_summary(summary_from_graph(triple_cusp_graph), 2),
             lys_summary(lys_from_json(load_fixture("lys_xyz_k1.json")))]
    for germ in germs:
        items = holomorphy(germ).items
        assert items and all(item.ok for item in items)
        for item in items:
            assert type(item) is CheckItem
            assert item == CheckItem(item.ell, True)
            assert item.to_json() == CheckItem(item.ell, True).to_json() \
                == {"ell": item.ell, "ok": True}


def test_holomorphy_suspension(triple_cusp_graph):
    report = holomorphy(
        suspend_summary(summary_from_graph(triple_cusp_graph), 2), 50)
    assert report.passed
    checked = {int(item.label) for item in report.items}
    assert 18 in checked       # the f-bad order must be checked and vanish
    assert 9 not in checked    # in the closure: skipped


def test_holomorphy_curve_fixtures(triple_cusp_graph, two_cusp_graph,
                                   a3_graph, cusp_graph):
    # Veys: holomorphy holds for curves
    for g in (triple_cusp_graph, two_cusp_graph, a3_graph, cusp_graph):
        assert holomorphy(summary_from_graph(g)).passed


def test_holomorphy_suspension_k_gt_2(triple_cusp_graph, a3_graph):
    for g in (triple_cusp_graph, a3_graph):
        germ = summary_from_graph(g)
        for k in (3, 4, 5):
            assert holomorphy(suspend_summary(germ, k), 60).passed


def test_holomorphy_lys_fixtures():
    for name in LYS_FIXTURES:
        germ = lys_summary(lys_from_json(load_fixture(f"{name}.json")))
        l_max = min(2 * max(germ.delta.root_orders()), 80)
        assert holomorphy(germ, l_max).passed
        assert monodromy(germ).passed


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


def test_lys_summary_validates_unless_a_point_is_unvalidated():
    # Z(F, 0) = 1 holds when every point's profile is validated; an
    # unvalidated point can break it, and its surface still checks
    q = GermSummary(ZetaProfile({1: RatFun.from_polys([1], [-3, 1])},
                                validate=False),
                    CycloProduct.from_factors({2: 1}))
    germ = lys_summary(LysSurface(2, 3, 1, 2, 0, [q]))
    assert not germ.zeta.validate
    assert germ.zeta.entry(1).evaluate(0) == F(7, 9)
    assert lys_summary(lys_from_json(load_fixture("lys_xyz_k1.json"))) \
        .zeta.validate


def above_bound_germs() -> list[tuple]:
    """Two constructions whose support_lcm lies above divisors' 10^12 bound,
    as (summary, family, Delta, M): an n = 2 surface with five
    Brieskorn-Pham points, and z^2 + f for an unvalidated profile with
    entries at 1 and at the primes 7..43."""
    pairs = [(7, 11), (13, 17), (19, 23), (29, 31), (37, 41)]
    points = [summary_from_graph(brieskorn_pham_graph(a, b), f"q{i + 1}")
              for i, (a, b) in enumerate(pairs)]
    chi_c = 3 * 56 - 56 ** 2 + sum(q.delta.degree() for q in points)
    S = LysSurface(2, 56, 1, 3 - chi_c, chi_c - len(points), points)
    primes = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    f = GermSummary(ZetaProfile(
        {l: RatFun.inv_linear(l, 1) for l in (1, *primes)}, validate=False),
        CycloProduct.from_factors(dict.fromkeys(primes, 1)))
    return [(lys_summary(S), lambda l: lys_ztop(S, l), lys_charpoly(S)[0],
             S.support_lcm),
            (suspend_summary(f, 2), lambda l: suspend_G(f.zeta, 0, 2, 1, l),
             f.delta.thom_sebastiani_tensor(2), 2 * f.zeta.support_lcm)]


def test_subjects_match_their_constructions():
    # every summary a check reads is its construction: entry(l) is
    # ztop_from_strata, suspend_G or lys_ztop at every l <= 2 M (M the
    # construction's support bound, at most L_CAP here) and at every stored
    # l, so each profile is complete; Delta is the construction's
    start = time.perf_counter()
    rng = random.Random(2424)
    graphs = [graph_from_json(load_fixture(f"{name}.json")) for name in
              ("a3_graph", "cusp_graph", "triple_cusp_graph",
               "two_cusp_graph")]
    for pencil in ("kashiwara_quartic", "kashiwara_sextic",
                   "kashiwara_degree10"):
        graphs += [graph_from_json(g) for g in
                   load_fixture(f"{pencil}.json")["fibers"].values()]
    graphs += [random_graph(rng) for _ in range(50)]
    cases = []
    for g in graphs:
        res, germ = strata_of_graph(g), summary_from_graph(g)
        cases.append((germ, lambda l, res=res: ztop_from_strata(res, l),
                      acampo(g)[1], res.support_lcm))
        for k in (2, 3):
            cases.append((
                suspend_summary(germ, k),
                lambda l, k=k, f=germ.zeta: suspend_G(f, 0, k, 1, l),
                germ.delta.thom_sebastiani_tensor(k),
                k * germ.zeta.support_lcm))
    for name in LYS_FIXTURES:
        S = lys_from_json(load_fixture(f"{name}.json"))
        cases.append((lys_summary(S), lambda l, S=S: lys_ztop(S, l),
                      lys_charpoly(S)[0], S.support_lcm))
    cases += above_bound_germs()
    twists = off_bound = 0
    for germ, family, delta, bound in cases:
        assert germ.delta == delta
        assert bound % germ.zeta.support_lcm == 0
        for l in {*range(1, min(2 * bound, L_CAP) + 1), *germ.zeta.entries}:
            assert germ.zeta.entry(l) == family(l), (bound, l)
            twists += 1
            off_bound += bound % l != 0
    assert twists > 80_000 and off_bound > 75_000
    assert time.perf_counter() - start < 8.0
    # subject_from_json reads each kind, inferring it when "kind" is absent
    graph_obj = load_fixture("triple_cusp_graph.json")
    curve = summary_from_graph(graph_from_json(graph_obj))
    for obj, expected in [
            (graph_obj, curve),
            ({"kind": "curve", "graph": graph_obj}, curve),
            ({"germ": graph_obj, "k": 3}, suspend_summary(curve, 3)),
            (load_fixture("lys_tacnode_k2.json"), lys_summary(
                lys_from_json(load_fixture("lys_tacnode_k2.json"))))]:
        assert subject_from_json(obj) == expected
    with pytest.raises(ValidationError, match="cannot infer subject kind"):
        subject_from_json({"k": 2})
    with pytest.raises(ValidationError, match="unknown subject kind 'germ'"):
        subject_from_json({"kind": "germ"})


def test_delta_and_delta_tilde_give_the_same_reports():
    # neither check reads Phi_1, so (tau - 1) Delta, which perfbench passes
    # from lys_charpoly, gives the reports that Delta gives: the subjects of
    # `check`, the curve fixtures' suspensions at k = 2 and 3, the Le-Yomdin
    # fixtures at k = 1..24 and seeded random germs with their suspensions
    names = ("a3_graph", "cusp_graph", "triple_cusp_graph", "two_cusp_graph")
    curves = [summary_from_graph(graph_from_json(load_fixture(f"{name}.json")))
              for name in names]
    rng = random.Random(5)
    curves += [summary_from_graph(random_graph(rng)) for _ in range(40)]
    germs = [subject_from_json(load_fixture(f"{name}.json"))
             for name in (*names, "cusp3_susp", *LYS_FIXTURES)]
    germs += curves + [suspend_summary(g, k) for g in curves for k in (2, 3)]
    pairs = [(germ, germ.delta * TAU_MINUS_1) for germ in germs]
    for name in LYS_FIXTURES:
        base = lys_from_json(load_fixture(f"{name}.json"))
        for k in range(1, 25):
            S = LysSurface(base.n, base.m, k, base.chi_complement,
                           base.chi_curve_smooth, base.points)
            pairs.append((lys_summary(S), lys_charpoly(S)[1]))
    items = 0
    for germ, delta_tilde in pairs:
        z = germ.zeta.entry(1)
        assert check_monodromy(z, delta_tilde) == \
            check_monodromy(z, germ.delta)
        report = holomorphy(germ)
        assert check_holomorphy(
            germ.zeta.entry, delta_tilde.root_orders()) == report
        items += len(report.items)
    assert len(pairs) == 10 + 44 * 3 + 120 and items > 1000
