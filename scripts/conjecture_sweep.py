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
from topzeta.cyclo import CycloProduct
from topzeta.lys import lys_charpoly, lys_from_json, lys_orders, lys_ztop
from topzeta.resolution import acampo, graph_from_json, strata_of_graph, \
    ztop_from_strata
from topzeta.suspension import summary_from_graph, suspend_G, suspend_orders

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
ONE_BRACKET = CycloProduct.from_brackets([(1, 1)])

CURVES = ["triple_cusp_graph", "two_cusp_graph", "a3_graph", "cusp_graph"]
LYS = ["lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
       "lys_kashiwara_Ib", "lys_kashiwara_IbL"]


def check_curve(g, label: str) -> bool:
    res = strata_of_graph(g)
    _, delta = acampo(g)
    mon = check_monodromy(ztop_from_strata(res, 1), delta * ONE_BRACKET)
    hol = check_holomorphy(lambda l: ztop_from_strata(res, l),
                           delta.root_orders())
    ok = mon.passed and hol.passed
    print(f"  {label:34s} monodromy={'PASS' if mon.passed else 'FAIL'} "
          f"holomorphy={'PASS' if hol.passed else 'FAIL'}")
    return ok


def check_suspension(g, k: int, label: str) -> bool:
    germ = summary_from_graph(g)
    delta_f, orders = suspend_orders(germ, k)
    mon = check_monodromy(suspend_G(germ.zeta, 0, k, 1, 1),
                          delta_f * ONE_BRACKET)
    hol = check_holomorphy(lambda l: suspend_G(germ.zeta, 0, k, 1, l), orders)
    ok = mon.passed and hol.passed
    print(f"  {label:34s} monodromy={'PASS' if mon.passed else 'FAIL'} "
          f"holomorphy={'PASS' if hol.passed else 'FAIL'}")
    return ok


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
        ok &= check_curve(g, name)

    print("suspensions of curve fixtures:")
    for name, g in graphs.items():
        for k in (2, 3):
            ok &= check_suspension(g, k, f"z^{k} + ({name})")

    print("Le-Yomdin surfaces:")
    for name in LYS:
        surface = lys_from_json(
            json.loads((FIXTURES / f"{name}.json").read_text()))
        mon = check_monodromy(lys_ztop(surface, 1), lys_charpoly(surface)[1])
        orders = lys_orders(surface)
        hol = check_holomorphy(lambda l: lys_ztop(surface, l), orders)
        ok &= mon.passed and hol.passed
        print(f"  {name:34s} monodromy={'PASS' if mon.passed else 'FAIL'} "
              f"holomorphy={'PASS' if hol.passed else 'FAIL'}")

    print(f"randomized curve germs (n = {args.random}):")
    rng = random.Random(args.seed)
    for i in range(args.random):
        g = random_graph(rng)
        ok &= check_curve(g, f"random germ {i + 1}")
        ok &= check_suspension(g, 2, f"z^2 + (random germ {i + 1})")

    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
