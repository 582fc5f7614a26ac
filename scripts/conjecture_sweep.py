#!/usr/bin/env python3
"""Run the monodromy and holomorphy checks across every fixture plus a
batch of randomized curve germs and their suspensions."""
import argparse
import json
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from graphgen import random_graph
from topzeta.checks import check_holomorphy, check_monodromy
from topzeta.lys import lys_from_json, lys_summary
from topzeta.resolution import graph_from_json
from topzeta.suspension import GermSummary, summary_from_graph, \
    suspend_summary

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

CURVES = ["triple_cusp_graph", "two_cusp_graph", "a3_graph", "cusp_graph"]
LYS = ["lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
       "lys_kashiwara_Ib", "lys_kashiwara_IbL"]


def check(germ: GermSummary, label: str) -> bool:
    mon = check_monodromy(germ.zeta.entry(1), germ.delta)
    hol = check_holomorphy(germ.zeta.entry, germ.delta.root_orders())
    print(f"  {label:34s} monodromy={'PASS' if mon.passed else 'FAIL'} "
          f"holomorphy={'PASS' if hol.passed else 'FAIL'}")
    return mon.passed and hol.passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--random", type=int, default=25,
                        help="number of randomized curve germs")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    ok = True

    print("curve fixtures:")
    graphs = {name: graph_from_json(
        json.loads((FIXTURES / f"{name}.json").read_text())) for name in CURVES}
    for name, g in graphs.items():
        ok &= check(summary_from_graph(g), name)

    print("suspensions of curve fixtures:")
    for name, g in graphs.items():
        germ = summary_from_graph(g)
        for k in (2, 3):
            ok &= check(suspend_summary(germ, k), f"z^{k} + ({name})")

    print("Le-Yomdin surfaces:")
    for name in LYS:
        surface = lys_from_json(
            json.loads((FIXTURES / f"{name}.json").read_text()))
        ok &= check(lys_summary(surface), name)

    print(f"randomized curve germs (n = {args.random}):")
    rng = random.Random(args.seed)
    for i in range(args.random):
        g = random_graph(rng)
        germ = summary_from_graph(g)
        ok &= check(germ, f"random germ {i + 1}")
        ok &= check(suspend_summary(germ, 2), f"z^2 + (random germ {i + 1})")

    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
