#!/usr/bin/env python3
"""Recompute the suspension table for f = x^5 + y^6, k = 10.

Prints every nonzero twisted zeta function of F = z^10 + f together with
the Jordan-weighted matrix form of the transfer identity.
"""
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from topzeta.arith import divisors, jordan_totient
from topzeta.ratfun import render_text
from topzeta.suspension import profile_from_json, suspend_G, suspend_matrix

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main() -> int:
    profile = profile_from_json(
        json.loads((FIXTURES / "x5y6_profile.json").read_text()))
    k = 10
    print(f"source profile (x^5 + y^6), suspension by {k} points\n")
    print("input twists:")
    for ell in sorted(profile.entries):
        print(f"  Z^({ell})(f)  = {render_text(profile.entries[ell])}")
    print("\noutput twists (all nonzero ell <= 30):")
    for ell in range(1, 31):
        z = suspend_G(profile, 0, k, 1, ell)
        if not z.is_zero():
            print(f"  Z^({ell})(F)  = {render_text(z)}")
    b_matrix, holds = suspend_matrix(profile, k)
    print(f"\nJordan weights J_2 on divisors {list(divisors(k))}: "
          f"{[jordan_totient(2, d) for d in divisors(k)]}")
    print("matrix B = k Id - J:")
    for row in b_matrix:
        print(f"  {row}")
    print(f"transfer identity holds: {holds}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
