"""Cost growth read from counts of bytecode events, not from time.

sys.settrace with frame.f_trace_opcodes set reports each bytecode that a
Python frame runs.  The count of one call is exact and repeatable under one
CPython version, so its growth with the input size shows a cost's order
without a timer's noise.  A call into C (sum, a dict lookup, a big-integer
product) counts as one event, so counts complement timings and do not
replace them.
"""
from functools import partial

import pytest

from conftest import load_fixture
from graphgen import brieskorn_pham_graph
from opcodes import opcode_count
from topzeta import checks, lys, ratfun, resolution, suspension


# the chain x^(V-1) + y^V has V vertices, V - 1 edges and one arrow; a cost
# linear in V, a + b V with a >= 0, grows by less than 2 from V to 2V - 1,
# and one that scans every edge per vertex grows by about 4; the margin over
# 2 is for per-vertex steps whose count varies, such as Fraction arithmetic
CHAIN_VERTICES = (51, 101, 201)
GROWTH_PER_DOUBLING = 2.2


@pytest.mark.parametrize("layer", ["graph_from_json", "strata_of_graph",
                                   "solve_multiplicities", "acampo"])
def test_graph_layers_grow_linearly_along_a_chain(layer):
    # acampo factors only the N of a vertex whose valence is not 2: a
    # bracket with exponent 0 is skipped, and every inner vertex of the
    # chain has valence 2
    counts = []
    for v in CHAIN_VERTICES:
        obj = resolution.graph_to_json(brieskorn_pham_graph(v - 1, v))
        g = resolution.graph_from_json(obj)
        args = {"graph_from_json": (obj,), "strata_of_graph": (g,),
                "solve_multiplicities": (
                    {u.id: u.self_intersection for u in g.vertices},
                    g.arrows, g.edges), "acampo": (g,)}[layer]
        counts.append(opcode_count(getattr(resolution, layer), *args))
    growth = [big / small for small, big in zip(counts, counts[1:])]
    assert max(growth) <= GROWTH_PER_DOUBLING, (counts, growth)


def zero_twist_call(label: str):
    """The call at twist l, and its support bound M."""
    if label == "lys_ztop":
        ib_l = lys.lys_from_json(load_fixture("lys_kashiwara_IbL.json"))
        return partial(lys.lys_ztop, ib_l), ib_l.support_lcm
    if label == "suspend_G":
        x5y6 = suspension.profile_from_json(load_fixture("x5y6_profile.json"))
        return (partial(suspension.suspend_G, x5y6, 0, 6, 1),
                6 * x5y6.support_lcm)
    cusp = resolution.strata_of_graph(
        resolution.graph_from_json(load_fixture("triple_cusp_graph.json")))
    return partial(resolution.ztop_from_strata, cusp), cusp.support_lcm


@pytest.mark.parametrize("label", ["lys_ztop", "suspend_G",
                                   "ztop_from_strata"])
def test_zero_twist_count_is_the_same_at_every_l(label):
    # a twist l that does not divide the support bound M is answered by the
    # support gate, a modulo and a return, before any term is read: its
    # count is the same at every such l, however many digits l has
    call, bound = zero_twist_call(label)
    ells = [bound + 1, 2 * bound + 1, 10 ** 9 + 7, 10 ** 30 + 1]
    assert all(bound % l for l in ells)
    for l in ells:
        assert call(l).is_zero()    # and warm any cache the first call fills
    counts = [opcode_count(call, l) for l in ells]
    assert len(set(counts)) == 1, dict(zip(ells, counts))


# k with d(k) = 60, 120 and 240 divisors, each a multiple of 126, the lcm of
# the cusp germ's support, so gcd(k, 126) = 126 at every k
SUSPENSION_K = (5_040, 55_440, 720_720)
# the spread of the per-twist counts over SUSPENSION_K; a rho loop over
# every divisor of k grows its count per twist by about 1.3x to 1.4x each
# time d(k) doubles
PER_TWIST_SPREAD = 1.1


def test_suspend_profile_cost_per_twist_is_flat_in_k():
    # suspend_profile shifts the germ's nonzero entries once, and each twist
    # reads only the divisors e of gcd(k, support_lcm): a nonzero entry
    # lcm(e, m(k,l,m+k)) divides support_lcm, and so does e.  Its cones then
    # build at most 2 + d(gcd(k, support_lcm)) terms, so the count per twist
    # does not grow with d(k); the twists themselves, the divisors of k s,
    # grow with it
    cusp = lys.germ_from_json(load_fixture("cusp3_susp.json")["germ"]).zeta
    assert cusp.support_lcm == 126
    per_twist = []
    for k in SUSPENSION_K:
        twists = len(suspension.suspend_profile(cusp, 0, k, 1).entries)
        per_twist.append(
            opcode_count(suspension.suspend_profile, cusp, 0, k, 1) / twists)
    assert max(per_twist) <= PER_TWIST_SPREAD * min(per_twist), per_twist


# l_max of a holomorphy check over a family that is zero at every twist;
# every l in 4..l_max is checked, 97, 997 and 9,997 twists
HOLOMORPHY_L_MAX = (100, 1_000, 10_000)


def test_holomorphy_verdict_reads_no_item():
    # the check sets the verdict, so reading it reads none of the items
    zero = ratfun.RatFun.zero()
    reports = [checks.check_holomorphy(lambda l: zero, frozenset({2, 3}),
                                       l_max) for l_max in HOLOMORPHY_L_MAX]
    assert all(report.passed for report in reports)
    assert [len(report.items) for report in reports] == [97, 997, 9_997]
    counts = [opcode_count(lambda r: r.passed, report) for report in reports]
    assert len(set(counts)) == 1, counts


def test_holomorphy_cost_per_zero_twist_is_flat_in_l_max():
    # a passing twist is a closure test, one call and a zero test, and
    # records nothing: each of the 900 twists from l_max = 100 to 1,000
    # costs what each of the 9,000 from 1,000 to 10,000 costs
    zero = ratfun.RatFun.zero()
    counts = [opcode_count(checks.check_holomorphy, lambda l: zero,
                           frozenset({2, 3}), l_max)
              for l_max in HOLOMORPHY_L_MAX]
    per_twist = [(more - fewer) / (big - small) for fewer, more, small, big
                 in zip(counts, counts[1:], HOLOMORPHY_L_MAX,
                        HOLOMORPHY_L_MAX[1:])]
    assert per_twist[0] == per_twist[1], (counts, per_twist)
