"""Embedded-resolution combinatorics.

StratifiedResolution holds components (N, nu) and strata with Euler
characteristics and evaluates the (twisted) topological zeta functions
Z^(l) = sum_{I : l | N_i} chi(E_I°) / prod (N_i s + nu_i).

CurveResolutionGraph is the dual graph of a plane-curve resolution:
exceptional vertices, arrows for strict-transform branches, and edges.
Its exceptional graph is a tree with a negative definite intersection
matrix (Mumford), walked by one traversal that also gives its adjacency.
From that we derive strata, A'Campo's monodromy zeta function and (N, nu),
solved from self-intersections by elimination along the tree.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from .arith import lcm_all
from .cyclo import CycloProduct
from .errors import ValidationError, checked, json_array, json_check, \
    json_field, json_items, json_number
from .ratfun import RatFun


class Component(NamedTuple):
    id: str
    N: int
    nu: int


class Stratum(NamedTuple):
    I: frozenset[str]
    chi: int


@checked
class StratifiedResolution(NamedTuple):
    """Components (N, nu) and strata chi(E_I°).  Two fields are derived
    here, once: support_lcm = lcm(N_i), which every l with a nonzero Z^(l)
    divides, and terms, the sum_inv_products terms of Z^(1): one
    (chi, factors) per stratum with chi != 0, factors the pairs (nu_i, N_i)
    over i in I."""
    components: list[Component]
    strata: list[Stratum]
    prod_nu0: int
    support_lcm: int       # derived
    terms: list            # derived

    def _new(cls, components, strata, prod_nu0=1):
        check_prod_nu0(prod_nu0)
        ids = {c.id for c in components}
        if len(ids) != len(components):
            raise ValidationError("duplicate component ids")
        seen = set()
        for st in strata:
            if not st.I:
                raise ValidationError("empty stratum index set")
            if not st.I <= ids:
                raise ValidationError(f"stratum references unknown ids: {sorted(st.I)}")
            if st.I in seen:
                raise ValidationError(f"duplicate stratum {sorted(st.I)}")
            seen.add(st.I)
        for c in components:
            if c.N < 1 or c.nu < 1:
                raise ValidationError(f"component {c.id}: N and nu must be >= 1")
        by_id = {c.id: (c.nu, c.N) for c in components}
        terms = [(st.chi, tuple([by_id[cid] for cid in st.I]))
                 for st in strata if st.chi]
        # normalization: sum chi / prod nu_i over strata is 1 / prod_nu0
        total = sum((Fraction(chi, prod([nu for nu, _ in factors]))
                     for chi, factors in terms), Fraction(0))
        if total != Fraction(1, prod_nu0):
            raise ValidationError(
                f"normalization fails: sum chi/prod nu = {total}, "
                f"expected 1/{prod_nu0}")
        return tuple.__new__(cls, (components, strata, prod_nu0,
                                   lcm_all(c.N for c in components), terms))


def ztop_from_strata(res: StratifiedResolution, l: int = 1) -> RatFun:
    """Z_top^(l); l = 1 imposes no divisibility condition.  Zero, at the
    cost of one modulo, when l does not divide res.support_lcm or no N_i;
    otherwise the stored res.terms with l | every N_i (all of them at
    l = 1) go straight to sum_inv_products."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    if res.support_lcm % l or all(c.N % l for c in res.components):
        return RatFun.zero()
    return RatFun.sum_inv_products(res.terms if l == 1 else [
        t for t in res.terms if all(n % l == 0 for _, n in t[1])])


# ---------------------------------------------------------------------------
# curve dual graphs


class Vertex(NamedTuple):
    id: str
    N: int
    nu: int
    self_intersection: int | None = None


class Arrow(NamedTuple):
    id: str
    mult: int
    attached_to: str


@checked
class CurveResolutionGraph(NamedTuple):
    """One field is derived here, once: near, the adjacency, which lists
    for each E_i one (N, nu) per component that meets it, (mult, 1) for
    an arrow; the valence of E_i is len(near[id])."""
    vertices: list[Vertex]
    arrows: list[Arrow]
    edges: list[tuple[str, str]]
    prod_nu0: int
    near: dict             # derived

    def _new(cls, vertices, arrows, edges, prod_nu0=1):
        for v in vertices:
            for key, value in (("N", v.N), ("nu", v.nu)):
                if value < 1:
                    raise ValidationError(
                        f"vertex {v.id}: non-positive {key} = {value}")
        check_prod_nu0(prod_nu0)
        by_id = {v.id: (v.N, v.nu) for v in vertices}
        if len(by_id) != len(vertices):
            raise ValidationError("duplicate vertex ids")
        for a in arrows:
            if a.attached_to not in by_id:
                raise ValidationError(f"arrow {a.id} attached to unknown vertex")
            if a.mult < 1:
                raise ValidationError(f"arrow {a.id}: mult must be >= 1")
        ids = by_id.keys() | {a.id for a in arrows}
        if len(ids) < len(vertices) + len(arrows):
            raise ValidationError("duplicate component ids")
        _, links = _tree_order(list(by_id), edges)
        near = {vid: [by_id[w] for w in ws] for vid, ws in links.items()}
        for a in arrows:
            near[a.attached_to].append((a.mult, 1))
        self = tuple.__new__(cls, (vertices, arrows, edges, prod_nu0, near))
        self.check_numerical_data()
        return self

    def check_numerical_data(self) -> None:
        """At each exceptional E_i (a rational curve) whose E_i^2 = -e_i is
        given, the total transform meets E_i with intersection 0 and
        adjunction holds: sum_{j~i} N_j + arrow mults = e_i N_i (projection
        formula) and sum_{j~i} (nu_j - 1) = e_i nu_i - 2, where arrows add
        nu - 1 = 0."""
        for v in self.vertices:
            if v.self_intersection is None:
                continue
            e = -v.self_intersection
            total = sum(n for n, _ in self.near[v.id])
            if total != e * v.N:
                raise ValidationError(
                    f"projection formula fails at {v.id}: "
                    f"{total} != {e} * {v.N}")
            canonical = sum(nu - 1 for _, nu in self.near[v.id])
            if canonical != e * v.nu - 2:
                raise ValidationError(
                    f"adjunction fails at {v.id}: sum of nu - 1 over its "
                    f"neighbours is {canonical} != {e} * {v.nu} - 2")


def _tree_order(ids: list[str], edges) -> tuple[dict, dict]:
    """The tree on ids spanned by edges, walked breadth first from ids[0]:
    each vertex's parent (None at the root), keyed in that order, and its
    neighbours, keyed in the order of ids.  Refuses an edge with an unknown
    end or a loop, an empty or disconnected graph, and a connected one with
    more than V - 1 edges (a cycle or a doubled edge)."""
    near: dict[str, list[str]] = {vid: [] for vid in ids}
    for u, v in edges:
        if u not in near or v not in near or u == v:
            raise ValidationError(f"bad edge ({u}, {v})")
        near[u].append(v)
        near[v].append(u)
    parent = dict.fromkeys(ids[:1])
    order = list(parent)
    for vid in order:
        for w in near[vid]:
            if w not in parent:
                parent[w] = vid
                order.append(w)
    if not order or len(order) < len(near):
        raise ValidationError("exceptional graph is not connected")
    if len(edges) != len(order) - 1:
        raise ValidationError(f"exceptional graph is not a tree: "
                              f"{len(edges)} edges on {len(order)} vertices")
    return parent, near


def strata_of_graph(g: CurveResolutionGraph) -> StratifiedResolution:
    """Stratify pi^{-1}(0): one open stratum per exceptional vertex with
    chi = 2 - valence, one point stratum per edge and per arrow attachment.
    Arrow open strata lie outside pi^{-1}(0) and are excluded; arrow
    components carry (N = mult, nu = 1)."""
    comps = [Component(v.id, v.N, v.nu) for v in g.vertices]
    comps += [Component(a.id, a.mult, 1) for a in g.arrows]
    strata = [Stratum(frozenset([vid]), 2 - len(near))
              for vid, near in g.near.items()]
    strata += [Stratum(frozenset([u, v]), 1) for u, v in g.edges]
    strata += [Stratum(frozenset([a.attached_to, a.id]), 1) for a in g.arrows]
    return StratifiedResolution(comps, strata, g.prod_nu0)


def acampo(g: CurveResolutionGraph) -> tuple[CycloProduct, CycloProduct]:
    """A'Campo data of a curve germ: the monodromy zeta function
    zeta = prod (tau^{N_i} - 1)^{chi(E_i°)} over exceptional vertices and
    the characteristic polynomial Delta = (tau - 1) prod (tau^{N_i} - 1)^{v_i - 2}."""
    if any(a.mult > 1 for a in g.arrows):
        raise ValidationError(
            "A'Campo valence convention undefined for non-reduced arrows")
    zeta = CycloProduct.from_brackets(
        (v.N, 2 - len(g.near[v.id])) for v in g.vertices)
    delta = CycloProduct.from_brackets(
        [(1, 1)] + [(v.N, len(g.near[v.id]) - 2) for v in g.vertices])
    if not delta.is_polynomial():
        raise ValidationError("characteristic polynomial is not a polynomial; "
                              "graph is inconsistent with a curve germ")
    return zeta, delta


# ---------------------------------------------------------------------------
# solving (N, nu) from self-intersections


def solve_multiplicities(self_intersections: dict[str, int],
                         arrows: list[Arrow], edges: list[tuple[str, str]],
                         prod_nu0: int = 1) -> CurveResolutionGraph:
    """The graph on the vertices of self_intersections, in its order, with
    N and nu filled in from self-intersections -e_i and arrow multiplicities.

    N solves the projection formula e_i N_i - sum_{j~i} N_j = arrows_i and
    x = nu - 1 the adjunction system e_i x_i - sum_{j~i} x_j = 2 - e_i
    (arrows contribute nu - 1 = 0), both in one O(V) elimination from the
    leaves of the tree to its root and back.  A pivot <= 0 (the matrix is
    not negative definite) and a non-integer solution are refused here,
    a solution below 1 by CurveResolutionGraph.
    """
    parent, _ = _tree_order(list(self_intersections), edges)
    load: dict[str, int] = {}
    for a in arrows:
        load[a.attached_to] = load.get(a.attached_to, 0) + a.mult
    # each vertex's pivot and right-hand sides once its subtree is gone;
    # back-substitution, root first, turns the sides into (N, nu - 1)
    pivot = {vid: Fraction(-self_intersections[vid]) for vid in parent}
    rhs = {vid: [Fraction(load.get(vid, 0)), 2 - pivot[vid]] for vid in parent}
    for vid in reversed(parent):
        if pivot[vid] <= 0:
            raise ValidationError(
                "intersection matrix is not negative definite")
        if (up := parent[vid]) is not None:
            inv = 1 / pivot[vid]
            pivot[up] -= inv
            rhs[up] = [x + y * inv for x, y in zip(rhs[up], rhs[vid])]
    for vid in parent:
        above = rhs.get(parent[vid], (0, 0))
        rhs[vid] = [(x + y) / pivot[vid] for x, y in zip(rhs[vid], above)]
    for k, name in enumerate(("N", "nu")):
        for vid in self_intersections:
            if rhs[vid][k].denominator != 1:
                raise ValidationError(
                    f"non-integer {name} at {vid}: {rhs[vid][k] + k}")
    solved = [Vertex(vid, int(rhs[vid][0]), int(rhs[vid][1]) + 1, e)
              for vid, e in self_intersections.items()]
    return CurveResolutionGraph(solved, list(arrows), list(edges), prod_nu0)


# ---------------------------------------------------------------------------
# JSON


def graph_to_json(g: CurveResolutionGraph) -> dict:
    return {
        "vertices": [
            {"id": v.id, "N": v.N, "nu": v.nu,
             **({"self_intersection": v.self_intersection}
                if v.self_intersection is not None else {})}
            for v in g.vertices],
        "arrows": [{"id": a.id, "mult": a.mult, "attached_to": a.attached_to}
                   for a in g.arrows],
        "edges": [[u, v] for u, v in g.edges],
        "prod_nu0": g.prod_nu0,
    }


def graph_from_json(obj: dict) -> CurveResolutionGraph:
    json_check(obj, dict, "'graph'")
    vertices = [Vertex(vid := json_field(d, "id", str, f"'vertices'[{i}]"),
                       json_field(d, "N", record=f"vertex {vid}"),
                       json_field(d, "nu", record=f"vertex {vid}"),
                       None if d.get("self_intersection") is None
                       else _self_intersection(d))
                for i, d in enumerate(json_array(obj, "vertices"))]
    return CurveResolutionGraph(vertices, _arrows(obj), _edges(obj),
                                prod_nu0_from_json(obj))


def _self_intersection(d: dict) -> int:
    return json_field(d, "self_intersection", record=f"vertex {d.get('id')}")


def _arrows(obj: dict) -> list[Arrow]:
    return [Arrow(aid := json_field(d, "id", str, f"'arrows'[{i}]"),
                  json_field(d, "mult", record=f"arrow {aid}"),
                  json_field(d, "attached_to", str, f"'arrows'[{i}]"))
            for i, d in enumerate(json_array(obj, "arrows", required=False))]


def _edges(obj: dict) -> list[tuple]:
    edges = json_array(obj, "edges", list, required=False)
    for i, edge in enumerate(edges):
        if len(json_items(edge, str, f"'edges'[{i}]")) != 2:
            raise ValidationError(f"'edges'[{i}] must have two ends")
    return [(u, v) for u, v in edges]


def prod_nu0_from_json(obj: dict) -> int:
    """The optional 'prod_nu0' of a graph, strata or profile, unchecked."""
    return json_number(obj.get("prod_nu0", 1), "'prod_nu0'")


def check_prod_nu0(value: int) -> None:
    """The range check of prod_nu0 in every value type that holds one."""
    if value < 1:
        raise ValidationError(f"'prod_nu0' must be >= 1, got {value}")


def strata_to_json(res: StratifiedResolution) -> dict:
    return {
        "components": [{"id": c.id, "N": c.N, "nu": c.nu} for c in res.components],
        "strata": [{"I": sorted(st.I), "chi": st.chi} for st in res.strata],
        "prod_nu0": res.prod_nu0,
    }


def strata_from_json(obj: dict) -> StratifiedResolution:
    comps = [Component(cid := json_field(d, "id", str, f"'components'[{i}]"),
                       json_field(d, "N", record=f"component {cid}"),
                       json_field(d, "nu", record=f"component {cid}"))
             for i, d in enumerate(json_array(obj, "components"))]
    strata = [Stratum(frozenset(json_array(d, "I", str,
                                           record=f"'strata'[{i}]")),
                      json_field(d, "chi", record=f"'strata'[{i}]"))
              for i, d in enumerate(json_array(obj, "strata"))]
    return StratifiedResolution(comps, strata, prod_nu0_from_json(obj))
