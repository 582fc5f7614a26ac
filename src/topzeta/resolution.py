"""Embedded-resolution combinatorics.

StratifiedResolution holds components (N, nu) and strata with Euler
characteristics and evaluates the (twisted) topological zeta functions
Z^(l) = sum_{I : l | N_i} chi(E_I°) / prod (N_i s + nu_i).

CurveResolutionGraph is the dual graph of a plane-curve resolution:
exceptional vertices, arrows for strict-transform branches, and edges.
From it we derive strata, A'Campo's monodromy zeta function and the
solved multiplicities (N, nu) from self-intersections.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from .arith import gauss_jordan
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
    components: list[Component]
    strata: list[Stratum]
    prod_nu0: int

    def _new(cls, components, strata, prod_nu0=1):
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
        # normalization: sum chi / prod nu_i over strata is 1 / prod_nu0
        nu = {c.id: c.nu for c in components}
        total = sum((Fraction(st.chi, prod([nu[cid] for cid in st.I]))
                     for st in strata), Fraction(0))
        if total != Fraction(1, prod_nu0):
            raise ValidationError(
                f"normalization fails: sum chi/prod nu = {total}, "
                f"expected 1/{prod_nu0}")
        return tuple.__new__(cls, (components, strata, prod_nu0))


def ztop_from_strata(res: StratifiedResolution, l: int = 1) -> RatFun:
    """Z_top^(l); l = 1 imposes no divisibility condition."""
    if l < 1:
        raise ValidationError("l must be >= 1")
    if all(c.N % l for c in res.components):
        return RatFun.zero()
    by_id = {c.id: c for c in res.components}
    terms = []
    for st in res.strata:
        comps = [by_id[cid] for cid in st.I]
        if all(c.N % l == 0 for c in comps):
            terms.append((st.chi, [(c.nu, c.N) for c in comps]))
    return RatFun.sum_inv_products(terms)


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
    vertices: list[Vertex]
    arrows: list[Arrow]
    edges: list[tuple[str, str]]
    prod_nu0: int

    def _new(cls, vertices, arrows, edges, prod_nu0=1):
        ids = {v.id for v in vertices}
        if len(ids) != len(vertices):
            raise ValidationError("duplicate vertex ids")
        for a in arrows:
            if a.attached_to not in ids:
                raise ValidationError(f"arrow {a.id} attached to unknown vertex")
            if a.mult < 1:
                raise ValidationError(f"arrow {a.id}: mult must be >= 1")
        for u, v in edges:
            if u not in ids or v not in ids or u == v:
                raise ValidationError(f"bad edge ({u}, {v})")
        if len(_components([v.id for v in vertices], edges)) != 1:
            raise ValidationError("exceptional graph is not connected")
        self = tuple.__new__(cls, (vertices, arrows, edges, prod_nu0))
        if all(v.self_intersection is not None for v in vertices):
            self.check_numerical_data()
        return self

    def neighbors(self, vid: str) -> list[str]:
        return [v if u == vid else u for u, v in self.edges if vid in (u, v)]

    def arrows_at(self, vid: str) -> list[Arrow]:
        return [a for a in self.arrows if a.attached_to == vid]

    def valence(self, vid: str) -> int:
        return len(self.neighbors(vid)) + len(self.arrows_at(vid))

    def check_numerical_data(self) -> None:
        """At each exceptional E_i (a rational curve, E_i^2 = -e_i), the
        total transform meets E_i with intersection 0 and adjunction holds:
        sum_{j~i} N_j + arrow mults = e_i N_i (projection formula) and
        sum_{j~i} (nu_j - 1) = e_i nu_i - 2, where arrows add nu - 1 = 0."""
        by_id = {v.id: v for v in self.vertices}
        for v in self.vertices:
            if v.self_intersection is None:
                continue
            e = -v.self_intersection
            near = [by_id[w] for w in self.neighbors(v.id)]
            total = sum(w.N for w in near)
            total += sum(a.mult for a in self.arrows_at(v.id))
            if total != e * v.N:
                raise ValidationError(
                    f"projection formula fails at {v.id}: "
                    f"{total} != {e} * {v.N}")
            canonical = sum(w.nu - 1 for w in near)
            if canonical != e * v.nu - 2:
                raise ValidationError(
                    f"adjunction fails at {v.id}: sum of nu - 1 over its "
                    f"neighbours is {canonical} != {e} * {v.nu} - 2")


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


def strata_of_graph(g: CurveResolutionGraph) -> StratifiedResolution:
    """Stratify pi^{-1}(0): one open stratum per exceptional vertex with
    chi = 2 - valence, one point stratum per edge and per arrow attachment.
    Arrow open strata lie outside pi^{-1}(0) and are excluded; arrow
    components carry (N = mult, nu = 1)."""
    comps = [Component(v.id, v.N, v.nu) for v in g.vertices]
    comps += [Component(a.id, a.mult, 1) for a in g.arrows]
    strata = [Stratum(frozenset([v.id]), 2 - g.valence(v.id)) for v in g.vertices]
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
        (v.N, 2 - g.valence(v.id)) for v in g.vertices)
    delta = CycloProduct.from_brackets(
        [(1, 1)] + [(v.N, g.valence(v.id) - 2) for v in g.vertices])
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
    N and nu filled in from self-intersections and arrow multiplicities.

    N solves the projection formula sum_{j~i} N_j + arrows_i = e_i N_i;
    nu - 1 solves the adjunction system M (nu - 1) = (e_i - 2) with M the
    intersection matrix (arrows contribute nu - 1 = 0).  Both right-hand
    sides go through one elimination.
    """
    index = {vid: i for i, vid in enumerate(self_intersections)}
    for u, v in edges:
        if u not in index or v not in index or u == v:
            raise ValidationError(f"bad edge ({u}, {v})")
    n = len(index)
    m = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        m[index[u]][index[v]] += 1
        m[index[v]][index[u]] += 1
    for vid, i in index.items():
        e = self_intersections[vid]
        arrow_load = sum(a.mult for a in arrows if a.attached_to == vid)
        m[i][i] = Fraction(e)
        m[i] += [Fraction(-arrow_load), Fraction(-e - 2)]
    if not gauss_jordan(m, n):
        raise ValidationError("singular intersection matrix")
    big_n = [row[n] for row in m]
    nu = [row[n + 1] + 1 for row in m]
    for name, vals in (("N", big_n), ("nu", nu)):
        for vid, val in zip(index, vals):
            if val.denominator != 1:
                raise ValidationError(f"non-integer {name} at {vid}: {val}")
            if val < 1:
                raise ValidationError(f"non-positive {name} at {vid}: {val}")
    solved = [Vertex(vid, int(big_n[i]), int(nu[i]), self_intersections[vid])
              for vid, i in index.items()]
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
    vertices = [Vertex(json_field(d, "id", str, f"'vertices'[{i}]"),
                       _positive(d, "N"), _positive(d, "nu"),
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
    """The optional positive 'prod_nu0' of a graph, strata or profile."""
    value = json_number(obj.get("prod_nu0", 1), "'prod_nu0'")
    if value < 1:
        raise ValidationError(f"'prod_nu0' must be >= 1, got {value}")
    return value


def _positive(d: dict, key: str) -> int:
    value = json_field(d, key, record=f"vertex {d.get('id')}")
    if value < 1:
        raise ValidationError(f"vertex {d.get('id')}: non-positive {key} = {value}")
    return value


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
