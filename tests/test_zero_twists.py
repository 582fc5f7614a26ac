"""A twist whose terms are all zero costs only its gates: suspend_G,
ztop_from_strata and lys_ztop exit early on zero terms.  Each test holds
every exit to an oracle that takes none, for every l <= 2 lcm, and keeps
to a stated budget."""
import json
import random
import sys
import time
from math import gcd, lcm

import pytest

from conftest import FIXTURES, load_fixture
from graphgen import random_graph
from closed_forms import suspend_G_dispatch
from topzeta.arith import divisors, frak_m, lcm_all
from topzeta.binomial import SIGMA_PLUS, BinomialGerm, cone_multiplicities, \
    motivic_w
from topzeta.checks import check_monodromy
from topzeta.lys import LysSurface, lys_from_json, lys_orders, lys_ztop
from topzeta.ratfun import RatFun
from topzeta.resolution import graph_from_json, strata_from_json, \
    strata_of_graph, strata_to_json, ztop_from_strata
from topzeta.suspension import ZetaProfile, profile_from_graph, \
    profile_from_json, summary_from_graph, suspend_G

BUDGET_S = 4.0
LYS_FIXTURES = ("lys_kashiwara_Ib", "lys_kashiwara_IbL", "lys_tacnode_k2",
                "lys_xyz_k1", "lys_xyz_k2")


def expected_reads(m: int, k: int, l: int, bound: int) -> list[int]:
    """The entries suspend_G reads, in order: none when l does not divide
    bound = (m+k) lcm(support(f)) (the support gate), else entry l when
    l | m (sigma+), entry 1 when l | m+k (sigma-), then
    lcm(e, m(k, l, m+k)) for each e | gcd(k, lcm(support(f))) (rho)."""
    if bound % l:
        return []
    fm = frak_m(k, l, m + k)
    return [l] * (m % l == 0) + [1] * ((m + k) % l == 0) \
        + [lcm(e, fm) for e in divisors(gcd(k, bound // (m + k)))]


def test_suspend_G_fast_paths_match_dispatch(monkeypatch):
    # the value against the five-case dispatch, and the entry reads (what a
    # tracer of ZetaProfile.entry sees) against the formula's order, zero
    # twists included
    rng = random.Random(71)
    profiles = [profile_from_json(load_fixture(name)) for name in
                ("x5y6_profile.json", "lvp_profile.json")]
    profiles += [profile_from_graph(random_graph(rng, rng.randint(1, 4)))
                 for _ in range(6)]
    reads = []
    entry = ZetaProfile.entry

    def recording_entry(self, l):
        reads.append(l)
        return entry(self, l)

    monkeypatch.setattr(ZetaProfile, "entry", recording_entry)
    start = time.perf_counter()
    cases = 0
    for prof in profiles:
        for m in range(4):
            k, nu_z = rng.randint(1, 8), rng.randint(1, 3)
            # every nonzero twist divides (m+k) lcm(support(f))
            bound = (m + k) * lcm_all(prof.support())
            for l in range(1, 2 * bound + 1):
                reads.clear()
                z = suspend_G(prof, m, k, nu_z, l)
                assert reads == expected_reads(m, k, l, bound), (m, k, l)
                assert z == suspend_G_dispatch(prof, m, k, nu_z, l), \
                    (m, k, nu_z, l)
                cases += 1
    assert cases > 2000
    assert time.perf_counter() - start < BUDGET_S


def test_suspend_G_gate_far_twists(monkeypatch):
    # seeded graphgen profiles at l up to 10^6 outside the bound
    # (m+k) lcm(support(f)): primes, multiples of the bound and other
    # non-divisors; each is zero, equals the dispatch and reads no entry
    rng = random.Random(79)
    primes = [p for p in range(2, 2000) if all(p % q for q in range(2, p))]
    reads = []
    entry = ZetaProfile.entry

    def recording_entry(self, l):
        reads.append(l)
        return entry(self, l)

    cases = 0
    for _ in range(12):
        prof = profile_from_graph(random_graph(rng, rng.randint(1, 4)))
        assert prof.support_lcm == lcm_all(prof.support())
        m, k, nu_z = rng.randint(0, 3), rng.randint(1, 8), rng.randint(1, 3)
        bound = (m + k) * prof.support_lcm
        ells = [p for p in rng.sample(primes, 20) if bound % p]
        ells += [bound * rng.randint(2, 10**6 // bound) for _ in range(10)]
        ells += [l for l in (rng.randint(2, 10**6) for _ in range(30))
                 if bound % l]
        for l in ells:
            assert bound % l and l <= 10**6
            z = suspend_G_dispatch(prof, m, k, nu_z, l)
            assert z.is_zero(), (m, k, l)
            with monkeypatch.context() as patch:
                patch.setattr(ZetaProfile, "entry", recording_entry)
                assert suspend_G(prof, m, k, nu_z, l) == z, (m, k, nu_z, l)
            assert not reads, (m, k, l)
            cases += 1
    assert cases > 500


def test_zeta_profile_is_immutable():
    prof = profile_from_json(load_fixture("x5y6_profile.json"))
    with pytest.raises(AttributeError):
        prof.prod_nu0 = 2
    with pytest.raises(AttributeError):
        prof.support_lcm = 1
    with pytest.raises(TypeError):
        prof.entries[7] = RatFun.zero()
    assert prof.support_lcm == lcm_all(prof.support()) == 30
    # the profile keeps a copy of the dict it was given
    raw = dict(prof.entries)
    copy = ZetaProfile(raw, prof.prod_nu0)
    raw.clear()
    assert copy == prof and copy.support_lcm == 30


VALUE_TYPES = ("RatFun", "CycloProduct", "BinomialGerm", "ConeData",
               "MotTerm", "ZetaProfile", "GermSummary", "LysSurface",
               "Component", "Stratum", "StratifiedResolution", "Vertex",
               "Arrow", "CurveResolutionGraph", "CheckItem",
               "Report")


@pytest.fixture(scope="module")
def values() -> dict:
    """One instance of each value type of the package, by class name."""
    graph = graph_from_json(load_fixture("a3_graph.json"))
    res = strata_of_graph(graph)
    summary = summary_from_graph(graph, "A3")
    report = check_monodromy(summary.zeta.entry(1), summary.delta)
    germ = BinomialGerm(0, 2, (3,), (1,), 1)
    out = {type(v).__name__: v for v in (
        RatFun.inv_linear(1, 1), summary.delta, germ,
        cone_multiplicities(germ), motivic_w(germ, SIGMA_PLUS)[0],
        profile_from_json(load_fixture("x5y6_profile.json")), summary,
        lys_from_json(load_fixture("lys_xyz_k1.json")), res,
        res.components[0], res.strata[0], graph, graph.vertices[0],
        graph.arrows[0], report, report.items[0])}
    # every tuple class of the package is listed
    modules = [m for name, m in sys.modules.items()
               if name.startswith("topzeta.")]
    declared = {c.__name__ for m in modules for c in vars(m).values()
                if isinstance(c, type) and issubclass(c, tuple)
                and c.__module__ == m.__name__}
    assert declared == set(out) == set(VALUE_TYPES)
    return out


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable(values, name):
    value = values[name]
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = None


def strata_oracle(res, l: int) -> RatFun:
    """sum over strata with l | N_i for all i in I of
    chi / prod (N_i s + nu_i), one one-term sum_inv_products per stratum
    added up by +."""
    comps = {c.id: c for c in res.components}
    total = RatFun.zero()
    for st in res.strata:
        if all(comps[i].N % l == 0 for i in st.I):
            total += RatFun.sum_inv_products(
                [(st.chi, [(comps[i].nu, comps[i].N) for i in st.I])])
    return total


def test_ztop_from_strata_fast_path_matches_sum():
    # curve fixtures, Kashiwara fibres and seeded random graphs with
    # lcm(N) <= 1,680 (the sextic G and degree-10 C5 fibres, 85,680 and
    # 148,200, would take the budget)
    rng = random.Random(73)
    graphs = [graph_from_json(load_fixture(f"{name}.json")) for name in
              ("a3_graph", "cusp_graph", "triple_cusp_graph",
               "two_cusp_graph")]
    for pencil in ("kashiwara_quartic", "kashiwara_sextic",
                   "kashiwara_degree10"):
        graphs += [graph_from_json(g) for g in
                   load_fixture(f"{pencil}.json")["fibers"].values()]
    graphs += [random_graph(rng, rng.randint(1, 5)) for _ in range(30)]
    start = time.perf_counter()
    subjects = 0
    for g in graphs:
        res = strata_of_graph(g)
        l_top = 2 * lcm_all(c.N for c in res.components)
        if l_top > 2 * 1680:
            continue
        subjects += 1
        for l in range(1, l_top + 1):
            assert ztop_from_strata(res, l) == strata_oracle(res, l), l
    assert subjects >= 30
    assert time.perf_counter() - start < BUDGET_S


def test_ztop_from_strata_matches_sum_on_strata_json_with_zero_chi():
    # stratifications read by strata_from_json that hold zero-chi strata,
    # which leave no stored term: the curve fixtures, 20 seeded graphs and
    # a stratification with a zero-chi point stratum, every l <= 2 lcm(N)
    rng = random.Random(181)
    graphs = [graph_from_json(load_fixture(f"{name}.json")) for name in
              ("a3_graph", "cusp_graph", "triple_cusp_graph",
               "two_cusp_graph")]
    graphs += [random_graph(rng, rng.randint(2, 5)) for _ in range(20)]
    inputs = [strata_to_json(strata_of_graph(g)) for g in graphs]
    # the open strata give 1/3 + 2/6 + 1/3 = 1, and two point strata have
    # chi = 0
    inputs.append({
        "components": [{"id": "E1", "N": 2, "nu": 3},
                       {"id": "E2", "N": 4, "nu": 6},
                       {"id": "E3", "N": 6, "nu": 3}],
        "strata": [{"I": ["E1"], "chi": 1}, {"I": ["E2"], "chi": 2},
                   {"I": ["E3"], "chi": 1}, {"I": ["E1", "E2"], "chi": 0},
                   {"I": ["E2", "E3"], "chi": 0}]})
    start = time.perf_counter()
    zero_chi = 0
    for obj in inputs:
        res = strata_from_json(obj)
        zero_chi += any(not st.chi for st in res.strata)
        for l in range(1, min(2 * res.support_lcm, 5_000) + 1):
            assert ztop_from_strata(res, l) == strata_oracle(res, l), (obj, l)
    assert zero_chi >= 15
    assert time.perf_counter() - start < BUDGET_S


def test_lys_ztop_matches_point_terms():
    # every Le-Yomdin fixture at k = 1..4: the two global terms, built here
    # from dense polynomials, plus one suspend_G term per point, for every
    # l <= 2 lcm of the order closure
    start = time.perf_counter()
    twists = 0
    for name in LYS_FIXTURES:
        surface = lys_from_json(json.loads(
            (FIXTURES / f"{name}.json").read_text()))
        for k in range(1, 5):
            S = LysSurface(surface.n, surface.m, k, surface.chi_complement,
                           surface.chi_curve_smooth, surface.points)
            krs = [S.n + 1, S.m]                   # m s + n + 1
            for l in range(1, 2 * lcm_all(lys_orders(S)) + 1):
                expected = RatFun.zero()
                if S.m % l == 0:
                    expected += RatFun.from_polys([S.chi_complement], krs)
                if l == 1:
                    expected += RatFun.from_polys(
                        [S.chi_curve_smooth], [S.n + 1, S.n + 1 + S.m, S.m])
                for q in S.points:
                    expected += suspend_G(q.zeta, S.m, S.k, S.n + 1, l)
                assert lys_ztop(S, l) == expected, (name, k, l)
                twists += 1
    assert twists > 80_000
    assert time.perf_counter() - start < BUDGET_S
