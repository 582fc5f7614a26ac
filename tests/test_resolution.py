import random
import time
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from closed_forms import dense_multiplicities
from conftest import load_fixture
from graphgen import brieskorn_pham_graph, random_graph
from topzeta.cyclo import CycloProduct
from topzeta.errors import ValidationError
from topzeta.ratfun import RatFun
from topzeta.resolution import Arrow, Component, CurveResolutionGraph, \
    StratifiedResolution, Stratum, Vertex, acampo, \
    graph_from_json, graph_to_json, solve_multiplicities, strata_from_json, \
    strata_of_graph, strata_to_json, ztop_from_strata


def test_strata_of_triple_cusp(triple_cusp_graph):
    res = strata_of_graph(triple_cusp_graph)
    chi = {next(iter(st.I)): st.chi for st in res.strata if len(st.I) == 1}
    assert chi == {"E1": 1, "E2": 1, "E3": -1, "E4": -2}
    points = [st for st in res.strata if len(st.I) == 2]
    assert len(points) == 6 and all(st.chi == 1 for st in points)


def test_strata_single_vertex():
    g = CurveResolutionGraph([Vertex("E1", 1, 2, -1)],
                             [Arrow("A1", 1, "E1")], [])
    res = strata_of_graph(g)
    chi = {next(iter(st.I)): st.chi for st in res.strata if len(st.I) == 1}
    assert chi == {"E1": 1}
    lone = CurveResolutionGraph([Vertex("E1", 2, 2, None)], [], [])
    assert strata_of_graph(lone).strata[0].chi == 2


def test_strata_a3(a3_graph):
    res = strata_of_graph(a3_graph)
    chi = {next(iter(st.I)): st.chi for st in res.strata if len(st.I) == 1}
    assert chi == {"E1": 1, "E2": -1}


def test_ztop_twisted_examples(triple_cusp_graph):
    res = strata_of_graph(triple_cusp_graph)
    assert ztop_from_strata(res, 9) == RatFun.from_polys([1], [5, 18])
    assert ztop_from_strata(res, 18) == RatFun.from_polys([-1], [5, 18])
    assert ztop_from_strata(res, 1).evaluate(0) == 1
    assert ztop_from_strata(res, 1000).is_zero()


def test_normalization_validation():
    comps = [Component("E1", 2, 2)]
    StratifiedResolution(comps, [Stratum(frozenset(["E1"]), 2)], 1)
    # every construction checks sum chi / prod nu = 1 / prod_nu0
    with pytest.raises(ValidationError, match="normalization fails"):
        StratifiedResolution(comps, [Stratum(frozenset(["E1"]), 2)], 3)


def test_terms_are_derived_and_skip_zero_chi_strata():
    comps = [Component("E1", 2, 3), Component("E2", 4, 6),
             Component("E3", 6, 3)]
    strata = [Stratum(frozenset(["E1"]), 1), Stratum(frozenset(["E2"]), 2),
              Stratum(frozenset(["E3"]), 1),
              Stratum(frozenset(["E1", "E2"]), 0)]
    res = StratifiedResolution(comps, strata, 1)
    assert res.terms == [(1, ((3, 2),)), (2, ((6, 4),)), (1, ((3, 6),))]
    assert res.support_lcm == 12
    # derived fields are no constructor arguments
    with pytest.raises(TypeError):
        StratifiedResolution(comps, strata, 1, 12, res.terms)
    with pytest.raises(TypeError):
        StratifiedResolution(comps, strata, 1, terms=res.terms)


def test_validation_errors():
    with pytest.raises(ValidationError):  # disconnected
        CurveResolutionGraph([Vertex("E1", 1, 2, None), Vertex("E2", 1, 2, None)],
                             [], [])
    with pytest.raises(ValidationError):  # projection formula
        CurveResolutionGraph([Vertex("E1", 2, 2, -1)], [Arrow("A1", 1, "E1")], [])
    with pytest.raises(ValidationError):  # unknown stratum id
        StratifiedResolution([Component("E1", 1, 1)],
                             [Stratum(frozenset(["EX"]), 1)])


def test_acampo_examples(triple_cusp_graph, two_cusp_graph, a3_graph):
    _, delta = acampo(triple_cusp_graph)
    assert delta.factors == {1: 2, 3: 1, 7: 2, 18: 1, 21: 2}
    _, delta2 = acampo(two_cusp_graph)
    assert delta2.factors == {1: 1, 7: 1, 12: 1, 14: 1}
    _, delta3 = acampo(a3_graph)
    assert delta3.factors == {1: 1, 4: 1}


def test_acampo_zeta_is_inverse_of_delta_for_curves(cusp_graph):
    zeta, delta = acampo(cusp_graph)
    tilde = delta * CycloProduct.from_brackets([(1, 1)])
    # zeta_g = (tau - 1)^... for d = 2: Delta = zeta^{-1} (tau - 1)
    assert zeta * tilde == CycloProduct.from_brackets([(1, 2)])


def test_acampo_rejects_non_reduced_arrows():
    g = CurveResolutionGraph([Vertex("E1", 2, 2, -1)],
                             [Arrow("A1", 2, "E1")], [])
    with pytest.raises(ValidationError):
        acampo(g)


def test_solve_multiplicities_examples(triple_cusp_graph):
    solved = solve_multiplicities(
        {"E1": -3, "E2": -2, "E3": -2, "E4": -1},
        [Arrow(f"A{i}", 1, "E4") for i in (1, 2, 3)],
        [("E1", "E3"), ("E2", "E3"), ("E3", "E4")])
    assert [(v.N, v.nu) for v in solved.vertices] == \
        [(v.N, v.nu) for v in triple_cusp_graph.vertices]

    single = solve_multiplicities({"E1": -1}, [Arrow("A1", 1, "E1")], [])
    assert (single.vertices[0].N, single.vertices[0].nu) == (1, 2)

    a3 = solve_multiplicities(
        {"E1": -2, "E2": -1},
        [Arrow("A1", 1, "E2"), Arrow("A2", 1, "E2")], [("E1", "E2")])
    assert [(v.N, v.nu) for v in a3.vertices] == [(2, 2), (4, 3)]


def test_solve_multiplicities_rejects_singular():
    # the singular matrix [[-1, 1], [1, -1]] is refused at its zero pivot
    for edges, message in (
            ([("E1", "E2")], "intersection matrix is not negative definite"),
            ([("E1", "E9")], "bad edge (E1, E9)"),
            ([("E1", "E2"), ("E1", "E1")], "bad edge (E1, E1)")):
        with pytest.raises(ValidationError) as err:
            solve_multiplicities({"E1": -1, "E2": -1},
                                 [Arrow("A1", 1, "E1")], edges)
        assert str(err.value) == message, edges


NOT_A_TREE = "exceptional graph is not a tree: {} edges on {} vertices"
TRIANGLE = [("E1", "E2"), ("E2", "E3"), ("E1", "E3")]


@pytest.mark.parametrize("self_intersections,edges,message", [
    ({"E1": -3, "E2": -3, "E3": -3}, TRIANGLE, NOT_A_TREE.format(3, 3)),
    ({"E1": -3, "E2": -3}, [("E1", "E2")] * 2, NOT_A_TREE.format(2, 2)),
    ({"E1": 1}, [], "intersection matrix is not negative definite"),
    # non-singular but indefinite: det [[-1, 1], [1, 2]] = -3
    ({"E1": -1, "E2": 2}, [("E1", "E2")],
     "intersection matrix is not negative definite"),
    ({"E1": -2}, [], "non-integer N at E1: 1/2"),
    ({}, [], "exceptional graph is not connected"),
    ({"E1": -1, "E2": -1}, [], "exceptional graph is not connected"),
], ids=["cycle", "doubled-edge", "self-intersection+1", "indefinite",
        "non-integer-N", "empty", "disconnected"])
def test_solve_multiplicities_refusals(self_intersections, edges, message):
    with pytest.raises(ValidationError) as err:
        solve_multiplicities(self_intersections, [Arrow("A1", 1, "E1")],
                             edges)
    assert str(err.value) == message


def test_solve_multiplicities_refuses_non_integer_nu():
    # E1^2 = -3 with an arrow of multiplicity 3: N = 1, nu - 1 = -1/3
    with pytest.raises(ValidationError) as err:
        solve_multiplicities({"E1": -3}, [Arrow("A1", 3, "E1")], [])
    assert str(err.value) == "non-integer nu at E1: 2/3"


@pytest.mark.parametrize("size,edges,message", [
    (3, TRIANGLE, NOT_A_TREE.format(3, 3)),
    (3, [("E1", "E2"), ("E2", "E1"), ("E2", "E3")], NOT_A_TREE.format(3, 3)),
    (3, [("E1", "E2")], "exceptional graph is not connected"),
    (0, [], "exceptional graph is not connected"),
    (3, [("E1", "E2"), ("E2", "E4")], "bad edge (E2, E4)"),
], ids=["cycle", "doubled-edge", "disconnected", "empty", "bad-edge"])
def test_graph_refuses_what_is_not_a_tree(size, edges, message):
    vertices = [Vertex(f"E{i}", 3, 2, None) for i in range(1, size + 1)]
    with pytest.raises(ValidationError) as err:
        CurveResolutionGraph(vertices, [], edges)
    assert str(err.value) == message


def _assert_solve_matches_dense(g: CurveResolutionGraph) -> None:
    self_intersections = {v.id: v.self_intersection for v in g.vertices}
    dense = dense_multiplicities(self_intersections, g.arrows, g.edges)
    assert dense == {v.id: (v.N, v.nu) for v in g.vertices}, g


def test_tree_solve_matches_dense_oracle():
    # random_graph and brieskorn_pham_graph build through the tree solve;
    # the dense Gauss-Jordan solve of the whole matrix must give the same
    # (N, nu) on 300 seeded blow-up sequences, the Brieskorn-Pham curves
    # 2 <= a, b <= 12 and the chains x^(V-1) + y^V up to V = 51
    rng = random.Random(20261020)
    for _ in range(300):
        _assert_solve_matches_dense(
            random_graph(rng, n_blowups=rng.randint(0, 20)))
    for a in range(2, 13):
        for b in range(2, 13):
            _assert_solve_matches_dense(brieskorn_pham_graph(a, b))
    for v in (*range(3, 12), 21, 31, 41, 51):
        _assert_solve_matches_dense(brieskorn_pham_graph(v - 1, v))


SOLVE_BUDGET_S = 1.0


def test_tree_solve_of_a_long_chain_is_fast():
    # x^200 + y^201 has 201 vertices; the dense solve took seconds here
    g = brieskorn_pham_graph(200, 201)
    self_intersections = {v.id: v.self_intersection for v in g.vertices}
    start = time.perf_counter()
    solved = solve_multiplicities(self_intersections, g.arrows, g.edges)
    assert time.perf_counter() - start < SOLVE_BUDGET_S
    assert len(solved.vertices) == 201
    solved.check_numerical_data()


@dataclass(frozen=True)
class EnComponent:
    strata: tuple[frozenset[str], ...]
    kind: str  # "type1" | "type2" | "other"


def _components(ids, edges) -> list[set[str]]:
    """Connected components of the graph on ids spanned by those edges whose
    ends both lie in ids, each started from its first id in the given order."""
    adj: dict[str, set[str]] = {i: set() for i in ids}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    out: list[set[str]] = []
    seen: set[str] = set()
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(comp)
    return out


def e_n_components(g: CurveResolutionGraph, n: int) -> list[EnComponent]:
    """Connected components of E^(n), the union of exceptional strata all of
    whose divisors have multiplicity divisible by n, each tagged:

    - "type1": a single open stratum of a valence-2 vertex;
    - "type2": E_0° u E_1° u {E_0 n E_1} with valences 3 and 1;
    - "other": anything else (e.g. an isolated branching-vertex stratum).
    """
    good = sorted(v.id for v in g.vertices if v.N % n == 0)
    out = []
    for comp in _components(good, g.edges):
        strata: list[frozenset[str]] = [frozenset([vid]) for vid in sorted(comp)]
        strata += [frozenset([u, v]) for u, v in g.edges
                   if u in comp and v in comp]
        out.append(EnComponent(tuple(strata), _classify(g, comp)))
    return out


def _classify(g: CurveResolutionGraph, comp: set[str]) -> str:
    valences = sorted(len(g.near[vid]) for vid in comp)
    if len(comp) == 1 and valences == [2]:
        return "type1"
    if len(comp) == 2 and valences == [1, 3]:
        return "type2"
    return "other"


def test_e_n_components(triple_cusp_graph):
    comps9 = e_n_components(triple_cusp_graph, 9)
    assert len(comps9) == 1 and comps9[0].kind == "type2"
    assert set(comps9[0].strata) == {frozenset(["E2"]), frozenset(["E3"]),
                                     frozenset(["E2", "E3"])}
    comps18 = e_n_components(triple_cusp_graph, 18)
    assert len(comps18) == 1 and comps18[0].kind == "other"
    assert comps18[0].strata == (frozenset(["E3"]),)
    comps1 = e_n_components(triple_cusp_graph, 1)
    assert len(comps1) == 1
    assert len([s for s in comps1[0].strata if len(s) == 1]) == 4


def test_e_n_components_partition_random_graphs():
    # components are disjoint, cover E^(n), meet no edge between them, are
    # each connected, and come in the order of their least vertex id
    rng = random.Random(20261018)
    for _ in range(40):
        g = random_graph(rng)
        for n in (1, 2, 3, 4, 6):
            good = {v.id for v in g.vertices if v.N % n == 0}
            comps = [{vid for st in c.strata for vid in st if len(st) == 1}
                     for c in e_n_components(g, n)]
            assert sorted(vid for c in comps for vid in c) == sorted(good)
            assert [min(c) for c in comps] == sorted(min(c) for c in comps)
            for c in comps:
                assert not any((u in c) != (v in c) for u, v in g.edges
                               if u in good and v in good)
                reached = {min(c)}
                for _ in c:
                    reached |= {w for u, v in g.edges if {u, v} & reached
                                for w in (u, v) if w in c}
                assert reached == c


def test_e_n_type1():
    # bamboo with a middle valence-2 vertex isolated in E^(4)
    g = solve_multiplicities(
        {"E1": -2, "E2": -2, "E3": -1},
        [Arrow("A1", 1, "E3")], [("E1", "E2"), ("E2", "E3")])
    mults = {v.id: v.N for v in g.vertices}
    assert mults == {"E1": 1, "E2": 2, "E3": 3}
    comps = e_n_components(g, 2)
    assert len(comps) == 1 and comps[0].kind == "type1"


def test_kashiwara_tables_ingest():
    for name in ("kashiwara_quartic", "kashiwara_sextic", "kashiwara_degree10"):
        fixture = load_fixture(f"{name}.json")
        for fiber, gj in fixture["fibers"].items():
            g = graph_from_json(gj)
            g.check_numerical_data()
            res = strata_of_graph(g)
            assert ztop_from_strata(res, 1).evaluate(0) == 1


def test_smooth_fibers_collapse():
    # strict transforms of smooth curves through non-minimal resolutions
    for name, fiber in (("kashiwara_quartic", "L"), ("kashiwara_degree10", "C2")):
        g = graph_from_json(load_fixture(f"{name}.json")["fibers"][fiber])
        res = strata_of_graph(g)
        assert ztop_from_strata(res, 1) == RatFun.from_polys([1], [1, 1])


def test_randomized_normalization_and_monodromy():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng)
        res = strata_of_graph(g)
        assert ztop_from_strata(res, 1).evaluate(0) == F(1, res.prod_nu0)
        _, delta = acampo(g)
        assert delta.is_polynomial()
        tilde = delta * CycloProduct.from_brackets([(1, 1)])
        for pole, _ in ztop_from_strata(res, 1).poles_with_multiplicity():
            order = pole.denominator
            assert order == 1 or tilde.exponent(order) >= 1  # Veys' theorem


@pytest.mark.parametrize("prod_nu0", [0, -1])
def test_library_refuses_prod_nu0_below_one(prod_nu0):
    # the value types check the range themselves, with the JSON readers'
    # message; a library caller used to get ZeroDivisionError or no error
    message = f"'prod_nu0' must be >= 1, got {prod_nu0}"
    with pytest.raises(ValidationError) as info:
        StratifiedResolution([Component("E1", 2, 2)],
                             [Stratum(frozenset(["E1"]), 2)], prod_nu0)
    assert str(info.value) == message
    with pytest.raises(ValidationError) as info:
        CurveResolutionGraph([Vertex("E1", 2, 2, None)], [], [], prod_nu0)
    assert str(info.value) == message


def test_solver_leaves_the_range_to_the_graph():
    # E1^2 = -1 with no arrow solves N = 0: the graph refuses it, with the
    # message it gives any vertex below 1 (E1^2 = +1 is refused at the pivot)
    with pytest.raises(ValidationError) as info:
        solve_multiplicities({"E1": -1}, [], [])
    assert str(info.value) == "vertex E1: non-positive N = 0"


@pytest.mark.parametrize("key", ["N", "nu"])
def test_library_refuses_vertex_below_one(key):
    vertex = Vertex("E1", 2, 2, None)._replace(**{key: 0})
    with pytest.raises(ValidationError) as info:
        CurveResolutionGraph([vertex], [], [])
    assert str(info.value) == f"vertex E1: non-positive {key} = 0"


def test_json_roundtrips(triple_cusp_graph):
    as_json = graph_to_json(triple_cusp_graph)
    again = graph_from_json(as_json)
    assert graph_to_json(again) == as_json
    res = strata_of_graph(triple_cusp_graph)
    assert strata_to_json(strata_from_json(strata_to_json(res))) == \
        strata_to_json(res)


def test_graph_from_json_field_errors():
    def graph(vertex):
        return {"vertices": [vertex],
                "arrows": [{"id": "a", "mult": 1, "attached_to": "E"}]}

    for key in ("N", "nu"):
        with pytest.raises(ValidationError, match=f"non-positive {key} = 0"):
            graph_from_json(graph({"id": "E", "N": 2, "nu": 2, key: 0}))
        vertex = {"id": "E", "N": 2, "nu": 2}
        del vertex[key]
        with pytest.raises(ValidationError, match=f"missing field '{key}'"):
            graph_from_json(graph(vertex))
    as_json = graph({"id": "E", "N": 2, "nu": 2})
    as_json["arrows"][0]["mult"] = 1.0
    with pytest.raises(ValidationError, match="'mult' must be an integer, "
                                              "got 1.0"):
        graph_from_json(as_json)
