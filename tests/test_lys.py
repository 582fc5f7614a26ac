import random
from fractions import Fraction as F

import pytest

from closed_forms import candidate_a, lys_candidate_poles, \
    lys_orders_formula, residue_lct_formula, sis_ztop
from conftest import load_fixture
from graphgen import random_graph
from topzeta.arith import divisor_closure
from topzeta.cyclo import CycloProduct
from topzeta.errors import ValidationError
from topzeta.lys import LysSurface, is_bad_divisor, lys_charpoly, lys_from_json, \
    lys_orders, lys_to_json, lys_ztop, residue_lct
from topzeta.ratfun import PoleError, RatFun
from topzeta.suspension import GermSummary, ZetaProfile, summary_from_graph


def node_summary():
    return GermSummary(ZetaProfile({1: RatFun.from_polys([1], [1, 2, 1])}),
                       CycloProduct.from_factors({1: 1}), "node")


def xyz_surface(k: int) -> LysSurface:
    return LysSurface(2, 3, k, 0, 0, [node_summary()] * 3)


def tacnode_surface(k: int, a3_graph) -> LysSurface:
    return LysSurface(2, 3, k, 0, 2, [summary_from_graph(a3_graph, "A3")])


def test_chi_accounting_validation():
    with pytest.raises(ValidationError):
        LysSurface(2, 3, 1, 1, 0, [node_summary()] * 3)
    # non-surface dimensions skip the accounting
    LysSurface(3, 4, 2, 0, 0, [])


@pytest.mark.parametrize("k", range(1, 9))
def test_xyz_ztop(k):
    S = xyz_surface(k)
    one = RatFun.from_polys([1, 1], [1])
    expected = RatFun.from_polys([k + 3, 6, 3], [1]) / (one ** 3 * (k + 3))
    assert lys_ztop(S, 1) == expected
    assert lys_ztop(S, 1).evaluate(0) == 1


@pytest.mark.parametrize("k", range(1, 9))
def test_xyz_charpoly(k):
    S = xyz_surface(k)
    delta, delta_tilde = lys_charpoly(S)
    expected = CycloProduct.from_brackets([(3 + k, 3), (1, -1)])
    assert delta == expected
    assert delta_tilde == delta * CycloProduct.from_brackets([(1, 1)])
    assert delta_tilde.is_polynomial()


@pytest.mark.parametrize("k", range(1, 9))
def test_tacnode_three_cases(k, a3_graph):
    S = tacnode_surface(k, a3_graph)
    one = RatFun.from_polys([1, 1], [1])
    den = one * RatFun.from_polys([3 * (k + 4), 4 * (k + 3)], [1])
    if k % 2 == 1:
        num = RatFun.from_polys([3 * (k + 4), 3], [1])
        delta = CycloProduct.from_brackets([(3 + k, 1), (4 * (3 + k), 1),
                                            (2 * (3 + k), -1), (1, -1)])
    elif k % 4 == 2:
        num = RatFun.from_polys([3 * (k + 4)], [1])
        delta = CycloProduct.from_brackets([(3 + k, 1), (2 * (3 + k), 2),
                                            (3 + k, -2), (1, -1)])
    else:
        num = RatFun.from_polys([3 * (k + 4), 12], [1])
        delta = CycloProduct.from_brackets([(3 + k, 3), (1, -1)])
    assert lys_ztop(S, 1) == num / den
    assert lys_charpoly(S)[0] == delta


def test_sis_equals_lys_at_k1(a3_graph):
    for surface in (xyz_surface(1), tacnode_surface(1, a3_graph)):
        for l in range(1, 13):
            assert sis_ztop(surface, l) == lys_ztop(surface, l), l
    with pytest.raises(ValidationError):
        sis_ztop(xyz_surface(2), 1)


def test_lys_orders(a3_graph):
    assert lys_orders(xyz_surface(2)) == divisor_closure([5])
    assert lys_orders(xyz_surface(4)) == divisor_closure([7])
    # tacnode k = 1: local orders {1, 4} -> n(1,3,1) = 4, n(4,3,1) = 16
    assert lys_orders(tacnode_surface(1, a3_graph)) == divisor_closure([16])
    smooth = LysSurface(2, 4, 2, 7, -4, [])
    assert lys_orders(smooth) == divisor_closure([4])
    # a line as tangent cone: F is smooth, Delta = 1, no eigenvalues
    assert lys_orders(LysSurface(2, 1, 1, 1, 2, [])) == frozenset()


def test_lys_orders_matches_charpoly_closure(a3_graph):
    # lys_orders is the closure of Delta's root orders; the paper's
    # generators m and n(n_0, m, k) must give the same set
    for S in (xyz_surface(3), tacnode_surface(2, a3_graph),
              lys_from_json(load_fixture("lys_kashiwara_Ib.json")),
              lys_from_json(load_fixture("lys_kashiwara_IbL.json"))):
        assert lys_orders(S) == lys_orders_formula(S)


def _random_surface(rng: random.Random) -> LysSurface:
    """A formal surface: random local germs on a tangent cone of degree m,
    with the Euler characteristics the accounting asks for."""
    m, k = rng.randint(2, 9), rng.randint(1, 6)
    points = [summary_from_graph(random_graph(rng), f"q{i + 1}")
              for i in range(rng.randint(0, 3))]
    chi_c = 3 * m - m ** 2 + sum(q.delta.degree() for q in points)
    return LysSurface(2, m, k, 3 - chi_c, chi_c - len(points), points)


def _or_pole_error(fn, S):
    try:
        return fn(S)
    except PoleError:
        return PoleError


def test_orders_and_residue_match_closed_forms():
    # the lys-survey population (every fixture at k = 1..24), the smooth
    # quartic cone and seeded random surfaces
    surfaces = [LysSurface(2, 4, 2, 7, -4, [])]
    for name in ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                 "lys_kashiwara_Ib", "lys_kashiwara_IbL"):
        base = lys_from_json(load_fixture(f"{name}.json"))
        surfaces += [LysSurface(2, base.m, k, base.chi_complement,
                                base.chi_curve_smooth, base.points)
                     for k in range(1, 25)]
    rng = random.Random(13)
    fixed = len(surfaces)
    surfaces += [_random_surface(rng) for _ in range(500)]
    checked = 0
    for i, S in enumerate(surfaces):
        try:
            orders = lys_orders(S)
        except ValidationError:  # (tau - 1) Delta is not a polynomial
            assert i >= fixed
            continue
        checked += 1
        assert orders == lys_orders_formula(S)
        assert _or_pole_error(residue_lct, S) == \
            _or_pole_error(residue_lct_formula, S)
    assert checked >= fixed + 300


def test_candidate_poles(a3_graph):
    S = xyz_surface(4)
    assert lys_ztop(S, 1).pol_plus() <= lys_candidate_poles(S)
    T = tacnode_surface(3, a3_graph)
    assert lys_ztop(T, 1).pol_plus() <= lys_candidate_poles(T)
    smooth = LysSurface(2, 4, 2, 7, -4, [])
    assert lys_candidate_poles(smooth) == {F(1), F(3, 4)}


def test_candidate_a_examples():
    assert candidate_a(F(1), 3, 3, 5) == 1
    assert candidate_a(F(5, 18), 3, 3, 2) == F(32, 45)


def test_residue_smooth_cone():
    # smooth quartic cone: chi(P^2 \ C) = 7, chi(C) = -4
    S = LysSurface(2, 4, 2, 7, -4, [])
    assert residue_lct(S) == residue_lct_formula(S) == F(7 - 16, 4)
    assert is_bad_divisor(S) is False


def test_residue_kashiwara_Ib():
    S = lys_from_json(load_fixture("lys_kashiwara_Ib.json"))
    assert is_bad_divisor(S)
    r = residue_lct(S)
    assert r != 0
    assert F(3, S.m) in lys_ztop(S, 1).pol_plus()


def test_residue_kashiwara_IbL():
    S = lys_from_json(load_fixture("lys_kashiwara_IbL.json"))
    assert is_bad_divisor(S)
    assert residue_lct(S) == 0
    assert F(3, S.m) not in lys_ztop(S, 1).pol_plus()


def test_residue_refusals(a3_graph):
    with pytest.raises(PoleError, match=r"m = 3: the candidate -3/m = -1 "
                       r"is also the root of s \+ 1"):
        residue_lct(xyz_surface(2))  # m = 3
    # germ with -3/m a pole: m = 4 with an A3 point (pole -3/4 of Z(f_q))
    germ = summary_from_graph(a3_graph, "A3")
    S = LysSurface(2, 4, 2, 4, -2, [germ])
    assert F(3, 4) in germ.zeta.pol_plus()
    with pytest.raises(PoleError):
        residue_lct(S)
    assert not is_bad_divisor(S)


def test_twisted_vanishing_case(a3_graph):
    S = tacnode_surface(2, a3_graph)
    # l | m + k and l | m is impossible here (gcd(5,3) = 1 beyond 1)
    assert lys_ztop(S, 7).is_zero()


def test_every_fixture_normalizes(a3_graph):
    surfaces = [xyz_surface(2), tacnode_surface(3, a3_graph),
                LysSurface(2, 4, 2, 7, -4, [])]
    for name in ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                 "lys_kashiwara_Ib", "lys_kashiwara_IbL"):
        surfaces.append(lys_from_json(load_fixture(f"{name}.json")))
    for S in surfaces:
        assert lys_ztop(S, 1).evaluate(0) == 1


def test_json_roundtrip(a3_graph):
    S = tacnode_surface(2, a3_graph)
    as_json = lys_to_json(S)
    again = lys_from_json(as_json)
    assert lys_to_json(again) == as_json
    for l in (1, 2, 4, 5):
        assert lys_ztop(again, l) == lys_ztop(S, l)
