"""Cost growth read from counts of bytecode events, not from time.

sys.settrace with frame.f_trace_opcodes set reports each bytecode that a
Python frame runs.  The count of one call is exact and repeatable under one
CPython version, so its growth with the input size shows a cost's order
without a timer's noise.  A call into C (sum, a dict lookup, a big-integer
product) counts as one event, so counts complement timings and do not
replace them.
"""
import sys

import pytest

from graphgen import brieskorn_pham_graph
from topzeta import resolution


def opcode_count(fn, *args) -> int:
    """The bytecode events that Python frames run during fn(*args)."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


# the chain x^(V-1) + y^V has V vertices, V - 1 edges and one arrow; a cost
# linear in V, a + b V with a >= 0, grows by less than 2 from V to 2V - 1,
# and one that scans every edge per vertex grows by about 4; the margin over
# 2 is for per-vertex steps whose count varies, such as Fraction arithmetic
CHAIN_VERTICES = (51, 101, 201)
GROWTH_PER_DOUBLING = 2.2


@pytest.mark.parametrize("layer", ["graph_from_json", "strata_of_graph",
                                   "solve_multiplicities"])
def test_graph_layers_grow_linearly_along_a_chain(layer):
    counts = []
    for v in CHAIN_VERTICES:
        obj = resolution.graph_to_json(brieskorn_pham_graph(v - 1, v))
        g = resolution.graph_from_json(obj)
        args = {"graph_from_json": (obj,), "strata_of_graph": (g,),
                "solve_multiplicities": (
                    {u.id: u.self_intersection for u in g.vertices},
                    g.arrows, g.edges)}[layer]
        counts.append(opcode_count(getattr(resolution, layer), *args))
    growth = [big / small for small, big in zip(counts, counts[1:])]
    assert max(growth) <= GROWTH_PER_DOUBLING, (counts, growth)
