"""Every construction's twists vanish off its support bound M, the derived
field support_lcm: lcm(N_i) for a stratified resolution (Denef-Loeser,
J. AMS 5, 1992) and lcm(m, (m+k) support_lcm_q over the points q) for a
Le-Yomdin surface.  Each check holds every l <= min(2 M, 5,000) to an oracle
that takes no gate, keeps to a stated budget, and reaches twists above
2 lcm(closure of the eigenvalue orders), where the sampled holomorphy check
stops."""
import random
import time
from math import lcm

from closed_forms import lys_euler_characteristics
from conftest import load_fixture
from graphgen import random_graph
from test_zero_twists import LYS_FIXTURES, strata_oracle
from topzeta import lys
from topzeta.arith import divisor_closure, lcm_all
from topzeta.lys import LysSurface, lys_charpoly, lys_from_json, lys_ztop
from topzeta.ratfun import RatFun
from topzeta.resolution import acampo, graph_from_json, strata_of_graph, \
    ztop_from_strata
from topzeta.suspension import suspend_G

BUDGET_S = 8.0
L_CAP = 5_000
CURVE_FIXTURES = ("a3_graph", "cusp_graph", "triple_cusp_graph",
                  "two_cusp_graph")
PENCILS = ("kashiwara_quartic", "kashiwara_sextic", "kashiwara_degree10")


def lys_surfaces() -> list[LysSurface]:
    """The Le-Yomdin fixtures at k = 1..24, as surfaces (n = 2) and as
    n = 3 copies with the same points, each with the Euler characteristics
    of its dimension."""
    out = []
    for name in LYS_FIXTURES:
        base = lys_from_json(load_fixture(f"{name}.json"))
        for n in (2, 3):
            chi = lys_euler_characteristics(n, base.m, base.points)
            out += [LysSurface(n, base.m, k, *chi, base.points)
                    for k in range(1, 25)]
    return out


def lys_oracle(S: LysSurface, l: int) -> RatFun:
    """The two global terms from dense polynomials plus one suspend_G per
    point, with no gate of lys_ztop's."""
    total = RatFun.zero()
    if S.m % l == 0:
        total += RatFun.from_polys([S.chi_complement], [S.n + 1, S.m])
    if l == 1:
        total += RatFun.from_polys([S.chi_curve_smooth],
                                   [S.n + 1, S.n + 1 + S.m, S.m])
    for q in S.points:
        total += suspend_G(q.zeta, S.m, S.k, S.n + 1, l)
    return total


def test_lys_ztop_vanishes_off_support_lcm():
    start = time.perf_counter()
    twists = beyond = 0
    for S in lys_surfaces():
        bound = lcm(S.m, *((S.m + S.k) * lcm_all(q.zeta.support())
                           for q in S.points))
        assert S.support_lcm == bound
        # the points are plane-curve germs, which fit only n = 2: an n = 3
        # copy counts the twists beyond its n = 2 twin's closure
        twin = LysSurface(2, S.m, S.k, *lys_euler_characteristics(
            2, S.m, S.points), S.points)
        closure_lcm = lcm_all(divisor_closure(
            lys_charpoly(twin)[0].root_orders()))
        for l in range(1, min(2 * bound, L_CAP) + 1):
            expected = lys_oracle(S, l)
            if bound % l:
                assert expected.is_zero(), (S.n, S.m, S.k, l)
            assert lys_ztop(S, l) == expected, (S.n, S.m, S.k, l)
            twists += 1
            beyond += l > 2 * closure_lcm
    assert twists > 400_000 and beyond > 50_000
    assert time.perf_counter() - start < BUDGET_S


def test_ztop_from_strata_vanishes_off_support_lcm():
    # curve fixtures, the Kashiwara fibres and seeded graphgen graphs
    rng = random.Random(89)
    graphs = [graph_from_json(load_fixture(f"{name}.json"))
              for name in CURVE_FIXTURES]
    for pencil in PENCILS:
        graphs += [graph_from_json(g) for g in
                   load_fixture(f"{pencil}.json")["fibers"].values()]
    graphs += [random_graph(rng, rng.randint(1, 6)) for _ in range(30)]
    start = time.perf_counter()
    twists = beyond = off_single = 0
    for g in graphs:
        res = strata_of_graph(g)
        bound = lcm_all(c.N for c in res.components)
        assert res.support_lcm == bound
        closure_lcm = lcm_all(divisor_closure(acampo(g)[1].root_orders()))
        for l in range(1, min(2 * bound, L_CAP) + 1):
            expected = strata_oracle(res, l)
            if bound % l:
                assert expected.is_zero(), l
            assert ztop_from_strata(res, l) == expected, l
            twists += 1
            beyond += l > 2 * closure_lcm
            off_single += bound % l == 0 \
                and all(c.N % l for c in res.components)
    assert twists > 30_000 and beyond > 20_000 and off_single > 100
    assert time.perf_counter() - start < BUDGET_S


def test_lys_ztop_zero_twist_builds_no_part(monkeypatch):
    # off support_lcm, lys_ztop answers from the gate: no point's
    # suspend_reads and no RatFun._sum; on it, each point type's read rule
    # runs once, so the three A1 nodes of xyz = 0 cost one call
    surfaces = lys_surfaces()
    calls = {"suspend_reads": 0, "_sum": 0}
    suspend_reads, ratfun_sum = lys.suspend_reads, RatFun._sum

    def counting_suspend_reads(*args):
        calls["suspend_reads"] += 1
        return suspend_reads(*args)

    def counting_sum(parts):
        calls["_sum"] += 1
        return ratfun_sum(parts)

    monkeypatch.setattr(lys, "suspend_reads", counting_suspend_reads)
    monkeypatch.setattr(RatFun, "_sum", staticmethod(counting_sum))
    zero_twists = 0
    for S in surfaces:
        for l in (2, 3, 5, 7, 11, 13, 2 * S.support_lcm,
                  S.support_lcm + 1):
            if S.support_lcm % l == 0:
                continue
            assert lys_ztop(S, l).is_zero()
            zero_twists += 1
        assert calls == {"suspend_reads": 0, "_sum": 0}, (S.m, S.k)
        lys_ztop(S, S.m)
        assert calls == {"suspend_reads": len(S.point_types), "_sum": 1}
        calls.update(suspend_reads=0, _sum=0)
    assert zero_twists > 1_000
    for name in ("lys_xyz_k1", "lys_xyz_k2"):      # three A1 nodes, one type
        S = lys_from_json(load_fixture(f"{name}.json"))
        assert len(S.points) == 3 and len(S.point_types) == 1
