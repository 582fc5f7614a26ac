"""Random curve resolution graphs via simulated point blow-ups.

Starting from a single (-1)-curve, each step blows up either a free point
on a component (attaching a new (-1)-vertex) or an intersection point
(splitting an edge); the resulting intersection lattice is unimodular, so
the numerical data solved from the self-intersections is automatically
integral.  Arrows are smooth transversal branches.
"""
from __future__ import annotations

import random

from topzeta.resolution import Arrow, CurveResolutionGraph, \
    solve_multiplicities


def random_graph(rng: random.Random, n_blowups: int | None = None,
                 n_arrows: int | None = None) -> CurveResolutionGraph:
    if n_blowups is None:
        n_blowups = rng.randint(0, 6)
    verts = {"E1": 1}  # vertex -> e (self-intersection is -e)
    edges: list[tuple[str, str]] = []
    for _ in range(n_blowups):
        new = f"E{len(verts) + 1}"
        if edges and rng.random() < 0.4:
            u, v = edges.pop(rng.randrange(len(edges)))
            verts[u] += 1
            verts[v] += 1
            edges.extend([(u, new), (v, new)])
        else:
            v = rng.choice(sorted(verts))
            verts[v] += 1
            edges.append((v, new))
        verts[new] = 1
    if n_arrows is None:
        n_arrows = rng.randint(1, 3)
    arrows = [Arrow(f"A{i + 1}", 1, rng.choice(sorted(verts)))
              for i in range(n_arrows)]
    return solve_multiplicities({v: -verts[v] for v in sorted(verts)},
                                arrows, edges)


def brieskorn_pham_graph(a: int, b: int) -> CurveResolutionGraph:
    """The minimal embedded resolution graph of x^a + y^b, a, b >= 2.

    Blow-ups follow the Euclidean algorithm on (a, b).  At each centre the
    curve reads x^a + y^b in coordinates whose axes {x = 0} and {y = 0} lie
    on the exceptional curves on_x and on_y (None for an axis that lies on
    none).  For a < b the chart y -> y, x -> x y leaves x^a + y^(b-a), the
    new curve E as {y = 0} and on_x as {x = 0}, and the symmetric chart
    serves a > b.  A smooth curve x + y^c (or x^c + y) is done once it
    meets only the exceptional curve it crosses transversally; at a = b
    the gcd(a, b) branches leave the last curve E transversally, one arrow
    each.  Every centre lowers the self-intersection of the curves through
    it by one."""
    e: dict[str, int] = {}            # vertex -> e, self-intersection -e
    edges: list[tuple[str, str]] = []
    on_x = on_y = None
    while True:
        if a == 1 and on_x is None:
            arrows = [Arrow("A1", 1, on_y)]
            break
        if b == 1 and on_y is None:
            arrows = [Arrow("A1", 1, on_x)]
            break
        new = f"E{len(e) + 1}"
        e[new] = 1
        through = [v for v in (on_x, on_y) if v is not None]
        for v in through:
            e[v] += 1
            edges.append((v, new))
        if len(through) == 2:
            edges.remove((on_x, on_y) if (on_x, on_y) in edges
                         else (on_y, on_x))
        if a == b:
            arrows = [Arrow(f"A{i + 1}", 1, new) for i in range(a)]
            break
        if a < b:
            b, on_y = b - a, new
        else:
            a, on_x = a - b, new
    return solve_multiplicities({v: -e[v] for v in sorted(e)}, arrows, edges)
