#!/usr/bin/env python3
"""Survey of Le-Yomdin surfaces over k.

For each fixture surface, prints the topological zeta function, the
characteristic polynomial, the eigenvalue-order closure and, where the
tangent cone is a bad divisor, the residue at the log-canonical candidate.
Those two surface statements are read from tests/closed_forms.py, beside
the paper's closed form for the residue.
"""
import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))

from closed_forms import is_bad_divisor, residue_lct
from topzeta.cyclo import cyclo_str
from topzeta.lys import LysSurface, lys_charpoly, lys_from_json, \
    lys_orders, lys_ztop
from topzeta.ratfun import render_text

FIXTURES = ROOT / "fixtures"
SURFACES = ["lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
            "lys_kashiwara_Ib", "lys_kashiwara_IbL"]


def survey(surface: LysSurface, name: str, k_max: int) -> None:
    print(f"== {name}: m = {surface.m}, chi(P^2 \\ C) = "
          f"{surface.chi_complement}, {len(surface.points)} singular point(s)")
    for k in range(1, k_max + 1):
        s_k = LysSurface(surface.n, surface.m, k, surface.chi_complement,
                         surface.chi_curve_smooth, surface.points)
        delta, _ = lys_charpoly(s_k)
        print(f"  k = {k}:")
        print(f"    Z(F, s)  = {render_text(lys_ztop(s_k, 1))}")
        print(f"    Delta    = {cyclo_str(delta)}")
        print(f"    orders   = {sorted(lys_orders(s_k))}")
        if is_bad_divisor(s_k):
            print(f"    bad divisor; residue at -3/m: {residue_lct(s_k)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=4)
    args = parser.parse_args()
    for name in SURFACES:
        surface = lys_from_json(
            json.loads((FIXTURES / f"{name}.json").read_text()))
        survey(surface, name, args.kmax)
    return 0


if __name__ == "__main__":
    sys.exit(main())
