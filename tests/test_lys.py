import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from closed_forms import brieskorn_pham_eigenvalues, candidate_a, \
    is_bad_divisor, lys_candidate_poles, lys_euler_characteristics, \
    lys_orders_formula, newton_bp_ztop, power_transform, residue_lct, \
    residue_lct_formula, sis_ztop, variable_power
from conftest import load_fixture
from graphgen import brieskorn_pham_graph, random_graph
from topzeta.arith import TRIAL_DIVISION_BOUND, divisor_closure, divisors
from topzeta.cli import main
from topzeta.cyclo import CycloProduct
from topzeta.errors import ValidationError
from topzeta.lys import N_MAX, LysSurface, lys_charpoly, lys_from_json, \
    lys_orders, lys_summary, lys_to_json, lys_ztop
from topzeta.ratfun import PoleError, RatFun
from topzeta.suspension import GermSummary, ZetaProfile, shift_entries, \
    summary_from_graph, suspend_reads, suspend_summary, suspend_terms


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
    # every dimension is held to one rule: m points on P^1, a plane curve,
    # the smooth quartic (K3) surface of P^3 with chi = 24
    for n, chi in ((1, (-2, 4)), (2, (7, -4)), (3, (-20, 24))):
        assert lys_euler_characteristics(n, 4, []) == chi
        LysSurface(n, 4, 2, *chi, [])
        with pytest.raises(ValidationError, match=re.escape(
                f"(chi_complement, chi_curve_smooth) = (0, 0), "
                f"expected {chi}")):
            LysSurface(n, 4, 2, 0, 0, [])
    # the cone C in P^3 over a smooth plane curve D of degree m is its
    # vertex, whose germ is x^m + y^m + z^m, and a C-bundle over D:
    # chi(C) = chi(D) + 1 with chi(D) = 3m - m^2
    for m in range(1, 9):
        vertex = GermSummary(ZetaProfile({1: RatFun.one()}),
                             brieskorn_pham_eigenvalues((m, m, m)), "vertex")
        chi_c = 3 * m - m ** 2 + 1
        LysSurface(3, m, 1, 4 - chi_c, chi_c - 1, [vertex])


def test_dimension_and_degree_bounds():
    # refused before any count: chi_n(m) has about n log10(m) digits, which
    # past about 4,300 would fail to print in the refusal's message
    LysSurface(N_MAX, 1, 1, 1, N_MAX, [])        # a hyperplane
    for n, m in ((N_MAX + 1, 1), (2, TRIAL_DIVISION_BOUND + 1),
                 (2, 10 ** 4000)):
        with pytest.raises(ValidationError,
                           match=r"^need n <= 64 and m <= 10\^12$"):
            LysSurface(n, m, 1, 0, 0, [])


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
        except ValidationError:  # Delta is not a polynomial
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
    assert F(3, 4) in germ.zeta.entry(1).pol_plus()
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


def _charpoly_oracle(S: LysSurface) -> CycloProduct:
    """Delta as (tau^m - 1)^chi / (tau - 1) times each point's
    variable_power(power_transform(delta_q, k), m + k), one product at a
    time."""
    delta = CycloProduct.from_brackets([(S.m, S.chi_complement), (1, -1)])
    for q in S.points:
        delta = delta * variable_power(power_transform(q.delta, S.k),
                                       S.m + S.k)
    return delta


def test_charpoly_matches_per_point_transforms():
    # the one bracket pass against the per-point transforms: every
    # Le-Yomdin fixture at k = 1..24
    tau_minus_1 = CycloProduct.from_brackets([(1, 1)])
    for name in ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                 "lys_kashiwara_Ib", "lys_kashiwara_IbL"):
        base = lys_from_json(load_fixture(f"{name}.json"))
        for k in range(1, 25):
            S = LysSurface(base.n, base.m, k, base.chi_complement,
                           base.chi_curve_smooth, base.points)
            delta = _charpoly_oracle(S)
            assert lys_charpoly(S) == (delta, delta * tau_minus_1), (name, k)


def test_delta_is_derived_at_construction(monkeypatch):
    # every Le-Yomdin fixture at k = 1..24: once the surfaces are built,
    # Delta and Delta_tilde, the orders and the summary assemble no bracket
    # product
    surfaces = []
    for name in ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                 "lys_kashiwara_Ib", "lys_kashiwara_IbL"):
        base = lys_from_json(load_fixture(f"{name}.json"))
        surfaces += [LysSurface(base.n, base.m, k, base.chi_complement,
                                base.chi_curve_smooth, base.points)
                     for k in range(1, 25)]
    readers = (lys_charpoly, lys_orders, lys_summary)
    before = [[read(S) for read in readers] for S in surfaces]

    def refuse(brackets):
        raise AssertionError("a bracket product assembled after construction")

    monkeypatch.setattr(CycloProduct, "from_brackets", staticmethod(refuse))
    assert [[read(S) for read in readers] for S in surfaces] == before


def test_entries_are_shifted_at_construction(monkeypatch):
    # every Le-Yomdin fixture at k = 1..24: once the surfaces are built,
    # lys_ztop at every divisor of support_lcm and at twists off it, and
    # the summary, shift no entry to r
    surfaces = []
    for name in ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                 "lys_kashiwara_Ib", "lys_kashiwara_IbL"):
        base = lys_from_json(load_fixture(f"{name}.json"))
        surfaces += [LysSurface(base.n, base.m, k, base.chi_complement,
                                base.chi_curve_smooth, base.points)
                     for k in range(1, 25)]

    def read(S):
        ells = [*divisors(S.support_lcm), 2 * S.support_lcm + 1, 7, 11]
        return [lys_ztop(S, l) for l in ells], lys_summary(S)

    before = [read(S) for S in surfaces]

    def refuse(self, a, b):
        raise AssertionError("an entry shifted to r after construction")

    monkeypatch.setattr(RatFun, "substitute_affine", refuse)
    assert [read(S) for S in surfaces] == before


@given(st.lists(st.dictionaries(st.integers(1, 30), st.integers(1, 2),
                                max_size=4), max_size=3),
       st.integers(1, 8), st.integers(1, 24))
def test_charpoly_oracle_on_random_points(point_deltas, m, k):
    # random point deltas, with the Euler characteristics the accounting
    # asks for; a Delta that is not a polynomial is refused, also where
    # Delta_tilde is one
    points = [GermSummary(ZetaProfile({1: RatFun.one()}),
                          CycloProduct.from_factors(factors), f"q{i + 1}")
              for i, factors in enumerate(point_deltas)]
    chi_c = 3 * m - m ** 2 + sum(q.delta.degree() for q in points)
    S = LysSurface(2, m, k, 3 - chi_c, chi_c - len(points), points)
    delta = _charpoly_oracle(S)
    delta_tilde = delta * CycloProduct.from_brackets([(1, 1)])
    if delta.is_polynomial():
        assert lys_charpoly(S) == (delta, delta_tilde)
    else:
        with pytest.raises(ValidationError):
            lys_charpoly(S)


def _per_point_ztop(S: LysSurface, l: int) -> RatFun:
    """Z_top^(l) with no point types: the global terms and every point's
    suspend_terms, from its entries shifted here, added by one
    sum_inv_products."""
    krs = (S.n + 1, S.m)
    terms = [(S.chi_complement, [krs])] if S.m % l == 0 else []
    if l == 1:
        terms.append((S.chi_curve_smooth, [krs, (1, 1)]))
    for q in S.points:
        if reads := suspend_reads(q.zeta, S.m, S.k, S.n + 1, l):
            at_r = shift_entries(q.zeta, S.m, S.k, S.n + 1, q.zeta.support())
            terms += suspend_terms(reads, at_r, q.zeta.prod_nu0, S.m, S.k,
                                   S.n + 1, l)
    return RatFun.sum_inv_products(terms)


def test_point_types_match_per_point_assembly():
    # random germs, each repeated 1-4 times, shuffled and some copies
    # renamed: every twist dividing support_lcm and a few that do not give
    # the per-point sum, Delta the per-point transforms, and the lct
    # statements read every point
    rng = random.Random(2323)
    twists = 0
    for _ in range(100):
        m, k = rng.randint(2, 9), rng.randint(1, 6)
        germs = [summary_from_graph(random_graph(rng), f"q{i + 1}")
                 for i in range(rng.randint(1, 3))]
        points = [GermSummary(g.zeta, g.delta, rng.choice([g.name, "copy"]))
                  for g in germs for _ in range(rng.randint(1, 4))]
        rng.shuffle(points)
        chi_c = 3 * m - m ** 2 + sum(q.delta.degree() for q in points)
        fields = (2, m, k, 3 - chi_c, chi_c - len(points), points)
        S = LysSurface(*fields)
        assert sum(count for _, count in S.point_types) == len(points)
        for q, count in S.point_types:
            assert count == sum(p[:2] == q[:2] for p in points)
        firsts = [p for i, p in enumerate(points)
                  if all(p[:2] != o[:2] for o in points[:i])]
        assert [q for q, _ in S.point_types] == firsts
        divisors = [l for l in range(1, S.support_lcm + 1)
                    if S.support_lcm % l == 0]
        for l in divisors + [S.support_lcm + 1, 2 * S.support_lcm, 7, 11]:
            assert lys_ztop(S, l) == _per_point_ztop(S, l), (m, k, l)
            twists += 1
        try:
            delta = lys_charpoly(S)[0]
        except ValidationError:  # Delta is not a polynomial
            assert not _charpoly_oracle(S).is_polynomial()
        else:
            assert delta == _charpoly_oracle(S)
        hits = [q.name for q in points
                if F(3, m) in q.zeta.entry(1).pol_plus()]
        assert is_bad_divisor(S) == (m > 3 and S.chi_complement <= 0
                                     and not hits)
        if hits and m != 3:       # the message names the first such point
            with pytest.raises(PoleError, match=re.escape(repr(hits[0]))):
                residue_lct(S)
        with pytest.raises(TypeError):
            LysSurface(*fields, point_types=S.point_types)
    assert twists > 1_000


def cone_point(n: int, m: int) -> GermSummary:
    """The one singular point of the tangent cone of x_1^m + ... + x_n^m
    + w^(m+k), as a germ in n variables: x^m (n = 1), the curve x^m + y^m
    (n = 2), or that curve suspended by z^m (n = 3)."""
    if n == 1:
        return GermSummary(
            ZetaProfile({l: RatFun.inv_linear(m, 1) for l in divisors(m)}),
            CycloProduct.from_brackets([(m, 1), (1, -1)]), "x^m")
    curve = summary_from_graph(brieskorn_pham_graph(m, m), "x^m + y^m")
    return curve if n == 2 else suspend_summary(curve, m)


def test_brieskorn_pham_cones_in_every_dimension(capsys, tmp_path):
    # x_1^m + ... + x_n^m + w^(m+k) is a k-Le-Yomdin germ with Euler
    # characteristics from the one rule: Z against Denef-Loeser's Newton
    # formula at every twist up to 2 support_lcm, Delta against Brieskorn's
    # eigenvalues (Milnor-Orlik), and both checks of the command line, which
    # read the subject's lys_summary, pass
    subject = tmp_path / "cone.json"
    cones = twists = 0
    for n, m_top in ((1, 6), (2, 6), (3, 5)):
        for m in range(2, m_top + 1):
            point = cone_point(n, m)
            for k in range(1, 6):
                S = LysSurface(n, m, k, *lys_euler_characteristics(
                    n, m, [point]), [point])
                exponents = (m,) * n + (m + k,)
                for l in range(1, 2 * S.support_lcm + 1):
                    assert lys_ztop(S, l) == newton_bp_ztop(
                        exponents, 0, 1, l), (n, m, k, l)
                    twists += 1
                assert lys_charpoly(S)[0] == \
                    brieskorn_pham_eigenvalues(exponents), (n, m, k)
                subject.write_text(json.dumps(lys_to_json(S)))
                for conjecture in ("monodromy", "holomorphy"):
                    assert main(["check", conjecture, "--in",
                                 str(subject)]) == 0, (n, m, k)
                    assert capsys.readouterr().out.startswith(
                        f"{conjecture}: PASS\n")
                cones += 1
    assert (cones, twists) == (70, 3_940)


def test_z_reads_a_k_above_the_trial_division_bound():
    # each point's twist reads only the divisors of gcd(k, its support_lcm),
    # so Z of a Brieskorn-Pham cone has its Newton-formula value at
    # k = 10^13, while Delta, a transform of the points' Delta by k, still
    # needs k factored and is refused
    k = 10 ** 13
    for n, m in ((1, 4), (2, 3), (3, 2)):
        point = cone_point(n, m)
        S = LysSurface(n, m, k, *lys_euler_characteristics(n, m, [point]),
                       [point])
        for l in (1, 2, 3, 4, 7, m + k, 2 * (m + k)):
            assert lys_ztop(S, l) == newton_bp_ztop(
                (m,) * n + (m + k,), 0, 1, l), (n, m, l)
        with pytest.raises(ValidationError, match="above 10\\^12"):
            lys_charpoly(S)
