import itertools
import random
import time
from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest

from conftest import FIXTURES, load_fixture
from graphgen import random_graph
from test_ratfun import assert_canonical, expand
from closed_forms import candidate_a, k2_twisted, suspend_F, \
    suspend_G_dispatch, w_top_twisted
from topzeta import cli, suspension
from topzeta.arith import divisor_closure, divisors, lcm_all
from topzeta.binomial import BULLETS, BinomialGerm, w_top
from topzeta.cyclo import CycloProduct
from topzeta.errors import ValidationError
from topzeta.lys import LysSurface, lys_from_json, lys_ztop
from topzeta.ratfun import RatFun
from topzeta.resolution import graph_from_json, strata_of_graph
from topzeta.suspension import GermSummary, ZetaProfile, fbad_set, \
    profile_from_graph, profile_from_json, profile_to_json, \
    shift_entries, summary_from_graph, suspend_G, suspend_matrix, \
    suspend_orders, suspend_profile, suspend_reads, suspend_terms

SUBSTITUTION_BUDGET_S = 2.0


def test_profile_invariants():
    with pytest.raises(ValidationError):  # ell = 1 missing
        ZetaProfile({2: RatFun.zero()})
    with pytest.raises(ValidationError):  # normalization
        ZetaProfile({1: RatFun.from_polys([2], [1, 2, 1])})
    with pytest.raises(ValidationError):  # divisor closure
        ZetaProfile({1: RatFun.from_polys([1], [1, 1]),
                     4: RatFun.inv_linear(1, 1)})
    prof = ZetaProfile({1: RatFun.from_polys([1], [1, 1])})
    assert prof.entry(7).is_zero()


def test_profile_names_the_first_entry_that_lacks_a_divisor():
    # the closure is built from the largest entry down, yet the refusal
    # names the first nonzero entry, in entries order, with an absent
    # divisor, and its least absent divisor: the largest, 15, lacks
    # nothing, 10 lacks 2, 8 lacks 2 and 4, and the zero entry 6 is not read
    z = RatFun.inv_linear(1, 1)
    entries = {1: RatFun.from_polys([1], [1, 1]), 3: z, 5: z, 15: z,
               9: z, 10: z, 8: z, 6: RatFun.zero()}
    with pytest.raises(ValidationError) as info:
        ZetaProfile(entries)
    assert str(info.value) == \
        "support not divisor-closed: entry 10 is nonzero but divisor 2 is absent"
    with pytest.raises(ValidationError) as info:
        ZetaProfile({**entries, 2: z})
    assert str(info.value) == \
        "support not divisor-closed: entry 8 is nonzero but divisor 4 is absent"


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("prod_nu0", [0, -1])
def test_profile_refuses_prod_nu0_below_one(prod_nu0, validate):
    # with the JSON reader's message, also where no normalization is checked
    with pytest.raises(ValidationError) as info:
        ZetaProfile({1: RatFun.inv_linear(1, 1)}, prod_nu0, validate)
    assert str(info.value) == f"'prod_nu0' must be >= 1, got {prod_nu0}"


def test_x5y6_rows(x5y6_profile):
    prof = x5y6_profile
    u = [7, 15]
    rows = {
        1: RatFun.from_polys([7, 3], [7, 22, 15]),
        3: RatFun.from_polys([6], u), 6: RatFun.from_polys([6], u),
        5: RatFun.from_polys([1], [14, 30]),
        10: RatFun.from_polys([-5], [14, 30]),
        15: RatFun.from_polys([7], [14, 30]), 30: RatFun.from_polys([7], [14, 30]),
    }
    for l in range(1, 31):
        expected = rows.get(l, RatFun.zero())
        assert suspend_G(prof, 0, 10, 1, l) == expected, l


def test_x5y6_matrix(x5y6_profile):
    b_matrix, holds = suspend_matrix(x5y6_profile, 10)
    assert b_matrix == [[9, -3, -24, -72], [-1, 7, -24, -72],
                        [-1, -3, -14, -72], [-1, -3, -24, -62]]
    assert holds


def test_matrix_prime_k(x5y6_profile):
    for p in (2, 3, 5):
        b_matrix, holds = suspend_matrix(x5y6_profile, p)
        assert b_matrix == [[p - 1, -(p * p - 1)], [-1, p - (p * p - 1)]]
        assert holds


@pytest.mark.parametrize("name", ["x5y6", "lvp"])
def test_matrix_identity_fails_on_a_perturbed_row(monkeypatch, capsys, name):
    # suspend_matrix reads Z^(l)(F) as suspend_terms' terms: one more term,
    # 1/(s + 7), on Z^(2)(F) breaks the identity in the row of l = 2, and
    # `suspend --matrix` then exits 3
    path = str(FIXTURES / f"{name}_profile.json")
    prof = profile_from_json(load_fixture(f"{name}_profile.json"))
    for k in (2, 6, 10):
        assert suspend_matrix(prof, k)[1]
    terms = suspension.suspend_terms
    monkeypatch.setattr(suspension, "suspend_terms", lambda *args: terms(
        *args) + [(1, [(7, 1)])] * (args[-1] == 2))
    for k in (2, 6, 10):
        assert suspend_matrix(prof, k)[1] is False
        code = cli.main(["suspend", "--in", path, "--k", str(k), "--ell", "1",
                         "--matrix"])
        out = capsys.readouterr().out
        assert code == 3 and out.endswith("identity_holds = False\n")


def test_suspend_F_equals_suspend_G(x5y6_profile):
    for l in range(1, 31):
        assert suspend_F(x5y6_profile, 10, l) == \
            suspend_G(x5y6_profile, 0, 10, 1, l)


def test_suspend_G_candidate_pole_cancellation():
    # -nu_z/(m+k) corresponds to r = 0 and always cancels
    prof = ZetaProfile({1: RatFun.from_polys([3, 1], [3, 7, 4]),
                        2: RatFun.inv_linear(4, 3),
                        4: RatFun.from_polys([-1], [3, 4])})
    for m in (1, 2, 3):
        for k in (1, 2, 5):
            for nu_z in (1, 3):
                if F(nu_z, m + k) == 1:
                    continue
                z = suspend_G(prof, m, k, nu_z, 1)
                assert F(nu_z, m + k) not in z.pol_plus()


def test_pol_plus_containment_suspend_G():
    prof = ZetaProfile({1: RatFun.from_polys([3, 1], [3, 7, 4]),
                        2: RatFun.inv_linear(4, 3),
                        4: RatFun.from_polys([-1], [3, 4])})
    for m in (1, 2, 3):
        for k in (1, 2, 4):
            for nu_z in (1, 2):
                z = suspend_G(prof, m, k, nu_z, 1)
                allowed = {F(1), F(nu_z, m)} | {
                    candidate_a(r0, nu_z, m, k)
                    for r0 in prof.entry(1).pol_plus()}
                assert z.pol_plus() <= allowed


def test_pole_transfer(triple_cusp_graph, a3_graph):
    # a non-integer pole -s1 of Z^(l)(F) forces a pole -(s1 - 1/k) of some
    # Z^(l1)(f) with l1 | l and l/l1 | k
    for graph in (triple_cusp_graph, a3_graph):
        prof = profile_from_graph(graph)
        for k in (2, 3):
            for l in range(1, 25):
                for pole, _ in suspend_G(prof, 0, k, 1, l) \
                        .poles_with_multiplicity():
                    if pole.denominator == 1:
                        continue
                    target = pole + F(1, k)
                    found = any(
                        k % (l // l1) == 0 and
                        target in {p for p, _ in
                                   prof.entry(l1).poles_with_multiplicity()}
                        for l1 in divisors(l))
                    assert found, (graph, k, l, pole)


def test_k2_twisted_cases(triple_cusp_graph):
    prof = profile_from_graph(triple_cusp_graph)
    assert k2_twisted(prof, 18).is_zero()
    for l in range(2, 46):
        assert k2_twisted(prof, l) == suspend_G(prof, 0, 2, 1, l)
    with pytest.raises(ValueError):
        k2_twisted(prof, 1)


def test_k2_twisted_node_example():
    # node: Z = 1/(s+1)^2, Z^(2) = 0, t = s + 1/2
    prof = ZetaProfile({1: RatFun.from_polys([1], [1, 2, 1]),
                        2: RatFun.zero()})
    t = RatFun.linear(1, F(1, 2))
    assert k2_twisted(prof, 2) == 1 / (2 * (t + 1))
    assert k2_twisted(prof, 2) == suspend_G(prof, 0, 2, 1, 2)
    # the l = 2 case as pure substitution arithmetic, on an unnormalized
    # family with Z = 2/(s+1)^2: (1/2)(1/t - 2/(t(t+1))) = (t-1)/(2t(t+1))
    raw = ZetaProfile({1: RatFun.from_polys([2], [1, 2, 1]),
                       2: RatFun.zero()}, validate=False)
    assert k2_twisted(raw, 2) == (t - 1) / (2 * t * (t + 1))


def test_k2_twisted_trivial_zero():
    prof = ZetaProfile({1: RatFun.from_polys([1], [1, 1])})
    assert k2_twisted(prof, 8).is_zero()


def test_suspend_orders_triple_cusp(triple_cusp_graph):
    germ = summary_from_graph(triple_cusp_graph)
    delta_f, orders = suspend_orders(germ, 2)
    assert orders == frozenset({2, 6, 9, 14, 42})
    assert divisor_closure(orders) == divisor_closure([9, 42])


def test_suspend_orders_small():
    germ = GermSummary(ZetaProfile({1: RatFun.from_polys([1], [1, 1])}),
                       CycloProduct.from_factors({1: 1}))
    _, orders = suspend_orders(germ, 3)
    assert orders == frozenset({3})


def test_suspend_orders_group_bound(a3_graph):
    germ = summary_from_graph(a3_graph)
    from topzeta.arith import lcm_all
    for k in (2, 3, 4, 5):
        _, orders = suspend_orders(germ, k)
        bound = lcm_all(germ.delta.root_orders()) * k
        assert all(bound % d == 0 for d in orders)


def test_fbad_examples():
    assert fbad_set(frozenset({1, 3, 7, 18, 21})) == frozenset({18})
    orders2 = frozenset({1, 7, 12, 14})
    assert 14 not in fbad_set(orders2)
    assert fbad_set(frozenset({2, 6, 10})) == frozenset({2, 6, 10})
    assert 2 in fbad_set(frozenset({2}))
    assert fbad_set(frozenset({1, 4, 8})) == frozenset()


def test_set_f_bad_lemma_on_fixtures(triple_cusp_graph, two_cusp_graph,
                                     a3_graph, cusp_graph):
    for graph in (triple_cusp_graph, two_cusp_graph, a3_graph, cusp_graph):
        germ = summary_from_graph(graph)
        orders_f = germ.delta.root_orders()
        _, orders_sus = suspend_orders(germ, 2)
        assert fbad_set(orders_f) == \
            divisor_closure(orders_f) - divisor_closure(orders_sus)


def test_set_f_bad_lemma_randomized():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng)
        germ = summary_from_graph(g)
        orders_f = germ.delta.root_orders()
        _, orders_sus = suspend_orders(germ, 2)
        assert fbad_set(orders_f) == \
            divisor_closure(orders_f) - divisor_closure(orders_sus)


def test_cross_consistency_random_profiles():
    rng = random.Random(31)
    for _ in range(12):
        prof = profile_from_graph(random_graph(rng))
        for k in (2, 3):
            for l in (1, 2, 3, 4, 6, 9):
                assert suspend_F(prof, k, l) == suspend_G(prof, 0, k, 1, l)


def test_stratification_assembly(triple_cusp_graph, a3_graph, cusp_graph):
    # suspend_G must equal the stratum-by-stratum sum of binomial cone terms
    rng = random.Random(41)
    graphs = [triple_cusp_graph, a3_graph, cusp_graph]
    graphs += [random_graph(rng, rng.randint(1, 4)) for _ in range(4)]
    for graph in graphs:
        prof = profile_from_graph(graph)
        res = strata_of_graph(graph)
        by_id = {c.id: c for c in res.components}
        cases = [(0, 2, 1), (1, 2, 3), (3, 4, 2), (2, 1, 3)]
        cases += [(rng.randint(0, 4), rng.randint(1, 6), rng.randint(1, 3))
                  for _ in range(3)]
        for m, k, nu_z in cases:
            for l in (1, 2, 3, 4, 5, 6, 9, 10, 12, 18):
                direct = suspend_G(prof, m, k, nu_z, l)
                assembled = RatFun.zero()
                for stratum in res.strata:
                    comps = [by_id[cid] for cid in stratum.I]
                    germ = BinomialGerm(m, k, tuple(c.N for c in comps),
                                        tuple(c.nu for c in comps), nu_z)
                    for bullet in BULLETS:
                        if l == 1:
                            term = w_top(germ, bullet)
                        else:
                            term = w_top_twisted(germ, bullet, l)
                        assembled = assembled + stratum.chi * term
                assert assembled == direct, (graph, m, k, nu_z, l)


def test_suspend_G_matches_five_case_dispatch(x5y6_profile):
    # the cone sum against the paper's case-by-case statement, for every
    # m <= 3, k <= 6, nu_z <= 2 and every l <= 2 lcm(support)
    rng = random.Random(43)
    lvp = profile_from_json(load_fixture("lvp_profile.json"))
    profiles = [x5y6_profile, lvp]
    profiles += [profile_from_graph(random_graph(rng, rng.randint(1, 4)))
                 for _ in range(4)]
    start = time.perf_counter()
    for prof in profiles:
        l_top = 2 * lcm_all(prof.support())
        for m in range(4):
            for k in range(1, 7):
                for nu_z in (1, 2):
                    for l in range(1, l_top + 1):
                        assert suspend_G(prof, m, k, nu_z, l) == \
                            suspend_G_dispatch(prof, m, k, nu_z, l), \
                            (m, k, nu_z, l)
    assert time.perf_counter() - start < 3.0


def _nonzero(profile: ZetaProfile) -> dict:
    return {l: z for l, z in profile.entries.items() if not z.is_zero()}


def test_suspend_profile_order_symmetry(x5y6_profile):
    # z1^k1 + z2^k2 + f is symmetric in (k1, k2) (Thom-Sebastiani), an
    # oracle independent of the cone terms: suspending in either order must
    # give the same profile, which fails if a profile drops a nonzero entry
    one = suspend_profile(x5y6_profile, 0, 10, 1)
    assert one.support() == {1, 3, 5, 6, 10, 15, 30}
    for l in one.entries:
        assert one.entry(l) == suspend_F(x5y6_profile, 10, l)
    rng = random.Random(53)
    profiles = [profile_from_graph(graph_from_json(load_fixture(f"{name}.json")))
                for name in ("triple_cusp_graph", "two_cusp_graph",
                             "a3_graph", "cusp_graph")]
    profiles += [profile_from_graph(random_graph(rng, rng.randint(1, 4)))
                 for _ in range(4)]
    start = time.perf_counter()
    for f in profiles:
        for k1, k2 in ((3, 2), (4, 6), (2, 2), (3, 5)):
            first = suspend_profile(f, 0, k1, 1)
            # the stored twists are the divisors of k1 s for s = 1 and s in
            # f's support, and every twist outside them is zero
            bound = k1 * lcm_all(f.support())
            assert set(first.entries) == divisor_closure(
                k1 * s for s in {1} | f.support())
            assert all(suspend_G(f, 0, k1, 1, l).is_zero()
                       for l in range(1, 2 * bound + 1)
                       if l not in first.entries)
            assert _nonzero(suspend_profile(first, 0, k2, 1)) == \
                _nonzero(suspend_profile(suspend_profile(f, 0, k2, 1),
                                         0, k1, 1)), (k1, k2)
    assert time.perf_counter() - start < 4.0


def test_profile_json_roundtrip():
    # lvp_profile.json is built with "validate": false; writing it must
    # keep that key, or reading it back fails the Z(f, 0) check
    for name in ("x5y6_profile.json", "lvp_profile.json"):
        profile = profile_from_json(load_fixture(name))
        as_json = profile_to_json(profile)
        again = profile_from_json(as_json)
        assert profile_to_json(again) == as_json, name
        assert again.entries == profile.entries, name
        assert again.validate == profile.validate, name


def test_absent_entries_read_as_zero(x5y6_profile):
    # x5y6 stores its whole support, the divisors of 30; suspend_G reads
    # entries beyond it (z^7 + f at l = 1 reads entry 7) and must see the
    # same zero there as in a profile that stores those zeros
    padded = ZetaProfile({**{l: RatFun.zero() for l in range(1, 721)},
                          **x5y6_profile.entries})
    for k in range(1, 13):
        for l in range(1, 61):
            assert suspend_G(x5y6_profile, 0, k, 1, l) == \
                suspend_G(padded, 0, k, 1, l), (k, l)
    assert str(suspend_G(x5y6_profile, 0, 7, 1, 1)) == \
        "(90*s + 107)/((210*s + 107)*(s + 1))"


def test_each_entry_substituted_once_per_twist(monkeypatch):
    # at every nonzero twist, suspend_G and lys_ztop substitute r into no
    # more functions than the distinct nonzero entries they read: Z^(1) is
    # not substituted once per cone, nor the rho entries again as a sum
    profiles = [profile_from_json(load_fixture(f"{name}_profile.json"))
                for name in ("x5y6", "lvp")]
    profiles += [profile_from_graph(graph_from_json(load_fixture(
        f"{name}.json"))) for name in ("a3_graph", "cusp_graph",
                                       "triple_cusp_graph", "two_cusp_graph")]
    cases = [partial(suspend_G, prof, m, k, nu_z, l)
             for prof in profiles for m in range(3) for k in (1, 2, 3, 6)
             for nu_z in (1, 3) for l in divisors((m + k) * prof.support_lcm)]
    for name in ("lys_kashiwara_Ib", "lys_kashiwara_IbL", "lys_tacnode_k2",
                 "lys_xyz_k1", "lys_xyz_k2"):
        S = lys_from_json(load_fixture(f"{name}.json"))
        for k in (1, 2, 3):
            S = LysSurface(S.n, S.m, k, S.chi_complement,
                           S.chi_curve_smooth, S.points)
            # every nonzero twist divides m or some (m+k) lcm(support_q)
            bound = lcm_all([S.m] + [(S.m + k) * q.zeta.support_lcm
                                     for q in S.points])
            cases += [partial(lys_ztop, S, l) for l in divisors(bound)]
    reads, calls = set(), [0]
    entry, substitute = ZetaProfile.entry, RatFun.substitute_affine

    def recording_entry(self, l):
        z = entry(self, l)
        if not z.is_zero():
            reads.add((id(self), l))
        return z

    def counting_substitute(self, a, b):
        calls[0] += 1
        return substitute(self, a, b)

    monkeypatch.setattr(ZetaProfile, "entry", recording_entry)
    monkeypatch.setattr(RatFun, "substitute_affine", counting_substitute)
    start = time.perf_counter()
    nonzero = 0
    for case in cases:
        reads.clear()
        calls[0] = 0
        if not case().is_zero():
            nonzero += 1
            assert calls[0] <= len(reads), (case.func.__name__, case.args[1:])
    assert nonzero > 1000, nonzero
    assert time.perf_counter() - start < SUBSTITUTION_BUDGET_S


def test_profile_shifts_each_entry_once(monkeypatch):
    # suspend_profile shifts each nonzero entry of f to r once, for all its
    # twists; suspend_G at one twist shifts exactly the nonzero entries that
    # twist reads, each once
    profiles = [profile_from_json(load_fixture(f"{name}_profile.json"))
                for name in ("x5y6", "lvp")]
    profiles += [profile_from_graph(graph_from_json(load_fixture(
        f"{name}.json"))) for name in ("a3_graph", "cusp_graph",
                                       "triple_cusp_graph", "two_cusp_graph")]
    reads, shifted = [], []
    entry, substitute = ZetaProfile.entry, RatFun.substitute_affine

    def recording_entry(self, l):
        z = entry(self, l)
        if not z.is_zero():
            reads.append(id(z))
        return z

    def recording_substitute(self, a, b):
        shifted.append(id(self))
        return substitute(self, a, b)

    monkeypatch.setattr(ZetaProfile, "entry", recording_entry)
    monkeypatch.setattr(RatFun, "substitute_affine", recording_substitute)
    nonzero = 0
    for f in profiles:
        for m, k, nu_z in itertools.product(range(3), (1, 2, 3, 6), (1, 3)):
            shifted.clear()
            g = suspend_profile(f, m, k, nu_z)
            assert sorted(shifted) == sorted(id(f.entries[j])
                                             for j in f.support())
            for l in divisors((m + k) * f.support_lcm):
                reads.clear()
                shifted.clear()
                z = suspend_G(f, m, k, nu_z, l)
                assert sorted(shifted) == sorted(set(reads)), (m, k, nu_z, l)
                assert z == g.entry(l), (m, k, nu_z, l)
                nonzero += bool(shifted)
    assert nonzero > 900, nonzero


def _fixture_twists():
    """suspend_G on the x5y6, lvp and curve-fixture profiles (m = 0..2,
    k in {1, 2, 3, 6}, nu_z in {1, 3}) and lys_ztop on the Le-Yomdin
    fixtures at k = 1..3, at every twist that can be nonzero."""
    profiles = [profile_from_json(load_fixture(f"{name}_profile.json"))
                for name in ("x5y6", "lvp")]
    profiles += [profile_from_graph(graph_from_json(load_fixture(
        f"{name}.json"))) for name in ("a3_graph", "cusp_graph",
                                       "triple_cusp_graph", "two_cusp_graph")]
    cases = [partial(suspend_G, prof, m, k, nu_z, l)
             for prof in profiles for m in range(3) for k in (1, 2, 3, 6)
             for nu_z in (1, 3) for l in divisors((m + k) * prof.support_lcm)]
    for name in ("lys_kashiwara_Ib", "lys_kashiwara_IbL", "lys_tacnode_k2",
                 "lys_xyz_k1", "lys_xyz_k2"):
        base = lys_from_json(load_fixture(f"{name}.json"))
        for k in (1, 2, 3):
            S = LysSurface(base.n, base.m, k, base.chi_complement,
                           base.chi_curve_smooth, base.points)
            bound = lcm_all([S.m] + [(S.m + k) * q.zeta.support_lcm
                                     for q in S.points])
            cases += [partial(lys_ztop, S, l) for l in divisors(bound)]
    return cases


def test_one_canonicalization_per_twist(monkeypatch):
    # a nonzero twist canonicalizes each substituted entry and the sum once,
    # and no cone term or global term on its own
    cases = _fixture_twists()
    calls = Counter()
    canonical, substitute = RatFun._canonical, RatFun.substitute_affine

    def counting_canonical(*args):
        calls["canonical"] += 1
        return canonical(*args)

    def counting_substitute(self, a, b):
        calls["substitute"] += 1
        return substitute(self, a, b)

    monkeypatch.setattr(RatFun, "_canonical", staticmethod(counting_canonical))
    monkeypatch.setattr(RatFun, "substitute_affine", counting_substitute)
    start = time.perf_counter()
    nonzero = 0
    for case in cases:
        calls.clear()
        if not case().is_zero():
            nonzero += 1
            assert calls["canonical"] <= calls["substitute"] + 1, \
                (case.func.__name__, case.args[1:], calls)
    assert nonzero > 1000, nonzero
    assert time.perf_counter() - start < SUBSTITUTION_BUDGET_S


def _vanishing_profile(rng, roots, pole) -> ZetaProfile:
    """An unvalidated profile over the divisors of a small L whose nonzero
    entries have numerators vanishing at some of the given values of t,
    and some a pole at the given one."""
    entries = {}
    for j in divisors(rng.choice((1, 2, 3, 4, 6))):
        if j > 1 and rng.random() < 0.25:
            entries[j] = RatFun.zero()
            continue
        zeros = [(-t.numerator, t.denominator)
                 for t in rng.sample(roots, rng.randint(1, len(roots)))]
        poles = [(rng.randint(1, 4), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 3))]
        poles += [(-pole.numerator, pole.denominator)] * rng.randint(0, 1)
        entries[j] = RatFun.from_polys(
            expand(rng.choice((-1, 1)) * rng.randint(1, 5), zeros),
            expand(1, poles))
    return ZetaProfile(entries, rng.randint(1, 3), validate=False)


def _special_roots(m: int, k: int, nu_z: int) -> list:
    """The values of t = r(s) at the roots of the forms the cone terms
    bring: nu_z + m s (sigma+), s + 1 (rho*) and k r (sigma-).  At s = 0,
    the root of the numerator s of rho at l = 1, t is nu_z/k."""
    return [F(0), F(nu_z - m - k, k)] + ([F(-nu_z, m)] if m else [])


def _dense_part(part) -> RatFun:
    num, den, forms = part
    return RatFun.from_polys(num, expand(den, [form for form, mult in
                                               forms.items()
                                               for _ in range(mult)]))


def test_parts_cancel_where_entries_vanish():
    # profile entries whose numerators vanish where sigma+, rho* or sigma-
    # bring a form, and with a pole where rho's numerator s vanishes at
    # l = 1: every part's numerator keeps no root of its own forms,
    # and suspend_G and lys_ztop stay canonical and equal the five-case
    # dispatch and a RatFun.sum of canonical terms
    rng = random.Random(101)
    twists = lys_twists = 0
    for _ in range(60):
        m, k, nu_z = rng.randint(0, 3), rng.randint(1, 4), rng.randint(1, 4)
        f = _vanishing_profile(rng, _special_roots(m, k, nu_z),
                               F(nu_z, k))
        at_r = shift_entries(f, m, k, nu_z, f.support())
        for l in divisors((m + k) * f.support_lcm):
            reads = suspend_reads(f, m, k, nu_z, l)
            terms = [] if reads is None else suspend_terms(
                reads, at_r, f.prod_nu0, m, k, nu_z, l)
            parts = [RatFun._part(*t) for t in terms]
            for num, _, forms in parts:
                for a, b in forms:
                    assert sum(c * F(-a, b) ** i
                               for i, c in enumerate(num)) != 0
            z = suspend_G(f, m, k, nu_z, l)
            assert_canonical(z)
            assert z == suspend_G_dispatch(f, m, k, nu_z, l), (m, k, nu_z, l)
            assert z == RatFun.sum([_dense_part(p) for p in parts])
            twists += 1
    for _ in range(25):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        roots = _special_roots(m, k, 3)
        points = [GermSummary(_vanishing_profile(rng, roots, F(3, k)),
                              CycloProduct.from_brackets(
                                  [(rng.randint(2, 4), 1), (1, -1)]),
                              f"q{i + 1}")
                  for i in range(rng.randint(1, 3))]
        chi_c = 3 * m - m ** 2 + sum(q.delta.degree() for q in points)
        S = LysSurface(2, m, k, 3 - chi_c, chi_c - len(points), points)
        bound = lcm_all([m] + [(m + k) * q.zeta.support_lcm for q in points])
        for l in divisors(bound):
            terms = [suspend_G_dispatch(q.zeta, m, k, 3, l) for q in points]
            if m % l == 0:
                terms.append(RatFun.sum_inv_products(
                    [(S.chi_complement, [(3, m)])]))
            if l == 1:
                terms.append(RatFun.sum_inv_products(
                    [(S.chi_curve_smooth, [(3, m), (1, 1)])]))
            z = lys_ztop(S, l)
            assert_canonical(z)
            assert z == RatFun.sum(terms), (m, k, l)
            lys_twists += 1
    assert twists > 200 and lys_twists > 100, (twists, lys_twists)
