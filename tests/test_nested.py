"""Nested germs, read by the one reader lys.germ_from_json.

A suspension's germ and a Le-Yomdin point may themselves be suspensions
or Le-Yomdin germs.  Brieskorn-Pham sums x_1^a_1 + ... + x_n^a_n built by
two constructions are held to Denef-Loeser's Newton-polyhedron formula
(J. AMS 5, 1992, Thm 5.3) and to Brieskorn's eigenvalues (Milnor-Orlik,
Topology 9, 1970), neither of which reads a construction.
"""
import json
import random
import sys

import pytest

from closed_forms import brieskorn_pham_eigenvalues, \
    lys_euler_characteristics, newton_bp_ztop
from conftest import load_fixture
from graphgen import brieskorn_pham_graph
from test_lys import cone_point
from topzeta.cli import main
from topzeta.lys import LysSurface, germ_from_json, lys_from_json, \
    lys_summary
from topzeta.resolution import graph_to_json
from topzeta.suspension import GermSummary, summary_from_graph


def curve_json(a: int, b: int) -> dict:
    return {"graph": graph_to_json(brieskorn_pham_graph(a, b))}


def cone_json(m: int, k: int) -> dict:
    """x^m + y^m + z^(m+k) as an n = 2 Le-Yomdin surface, inline."""
    chi = lys_euler_characteristics(
        2, m, [summary_from_graph(brieskorn_pham_graph(m, m))])
    return {"n": 2, "m": m, "k": k, "chi_complement": chi[0],
            "chi_curve_smooth": chi[1], "points": [curve_json(m, m)]}


def assert_brieskorn_pham(germ: GermSummary, exponents: tuple) -> int:
    """germ is x_1^a_1 + ... + x_n^a_n: Z^(l) at every l <= 2 support_lcm
    and Delta; returns the number of twists compared."""
    bound = 2 * germ.zeta.support_lcm
    for l in range(1, bound + 1):
        assert germ.zeta.entry(l) == newton_bp_ztop(exponents, 0, 1, l), \
            (exponents, l)
    assert germ.delta == brieskorn_pham_eigenvalues(exponents), exponents
    return bound


def test_suspension_of_suspension_matches_newton():
    # z^d + (w^c + x^a + y^b), the inner suspension written as the outer
    # one's germ, with and without "kind"
    rng = random.Random(2311)
    twists = 0
    for _ in range(25):
        a, b, c, d = (rng.randint(2, 6) for _ in range(4))
        inner = {"k": c, "germ": curve_json(a, b)}
        for obj in ({"k": d, "germ": inner},
                    {"kind": "suspension", "k": d,
                     "germ": dict(inner, kind="suspension")}):
            twists += assert_brieskorn_pham(germ_from_json(obj),
                                            (a, b, c, d))
    assert twists > 1_000


def test_suspension_of_le_yomdin_matches_newton():
    # w^c + (x^m + y^m + z^(m+k)), an n = 2 cone suspended, its germ given
    # inline and under "lys"
    twists = 0
    for m in (2, 3, 4):
        for k in (1, 2, 3):
            for c in (2, 3):
                for germ in (cone_json(m, k), {"lys": cone_json(m, k)}):
                    twists += assert_brieskorn_pham(
                        germ_from_json({"k": c, "germ": germ}),
                        (m, m, m + k, c))
    assert twists > 1_000


def test_le_yomdin_point_written_as_a_suspension():
    # an n = 3 point {"germ": graph, "k": m} is x^m + y^m + z^m, the point
    # that test_brieskorn_pham_cones_in_every_dimension builds
    for m in (2, 3, 4):
        point = GermSummary(*cone_point(3, m)[:2], "q1")
        for k in (1, 2, 3):
            chi = lys_euler_characteristics(3, m, [point])
            obj = {"n": 3, "m": m, "k": k, "chi_complement": chi[0],
                   "chi_curve_smooth": chi[1],
                   "points": [{"germ": curve_json(m, m), "k": m}]}
            assert lys_from_json(obj) == LysSurface(3, m, k, *chi, [point])


def test_le_yomdin_point_of_a_surface_in_p3():
    # an n = 2 Le-Yomdin germ has 3 variables, so it is a point of a
    # surface in P^3, named like any other point
    for m, k in ((2, 1), (3, 2)):
        point = lys_summary(lys_from_json(cone_json(m, k)), "q1")
        chi = lys_euler_characteristics(3, 6, [point])
        obj = {"n": 3, "m": 6, "k": 1, "chi_complement": chi[0],
               "chi_curve_smooth": chi[1], "points": [cone_json(m, k)]}
        assert lys_from_json(obj) == LysSurface(3, 6, 1, *chi, [point])


def test_nested_subjects_pass_both_checks(capsys, tmp_path):
    subject = tmp_path / "nested.json"
    chi = lys_euler_characteristics(3, 3, [cone_point(3, 3)])
    for obj in ({"k": 2, "germ": cone_json(3, 1)},
                {"k": 3, "germ": {"k": 2, "germ": curve_json(2, 3)}},
                {"n": 3, "m": 3, "k": 1, "chi_complement": chi[0],
                 "chi_curve_smooth": chi[1],
                 "points": [{"germ": curve_json(3, 3), "k": 3}]}):
        subject.write_text(json.dumps(obj))
        for conjecture in ("monodromy", "holomorphy"):
            assert main(["check", conjecture, "--in", str(subject)]) == 0
            assert capsys.readouterr().out.startswith(
                f"{conjecture}: PASS\n")


@pytest.mark.parametrize("argv", [["lys", "--in", "IN", "--ell", "1"],
                                  ["charpoly", "--in", "IN"],
                                  ["check", "monodromy", "--in", "IN"]])
@pytest.mark.parametrize("point,message", [
    # z^2 + (a plane curve) has 3 variables: its germ is read in n - 1 = 1
    ({"germ": curve_json(2, 3), "k": 2},
     "point 'q' is a plane-curve graph; graph points need n = 2"),
    # an n = 2 Le-Yomdin germ has 3 variables, a point of P^3
    ({"lys": cone_json(2, 1)},
     "point 'q' is a Le-Yomdin germ in P^2; such points need n = 3")])
def test_point_of_the_wrong_dimension(capsys, tmp_path, argv, point, message):
    # the n = 2 surface lys_kashiwara_Ib with its first point replaced
    obj = load_fixture("lys_kashiwara_Ib.json")
    obj["points"][0] = dict(point, name="q")
    f = tmp_path / "lys.json"
    f.write_text(json.dumps(obj))
    assert main([str(f) if a == "IN" else a for a in argv]) == 1
    out, err = capsys.readouterr()
    assert not out and err == f"error: {message}\n"


def test_nesting_near_the_depth_limit_is_bad_input(capsys, tmp_path):
    # the reader recurses once per level, a few frames below the JSON
    # decoder, so some depths decode and then exhaust the stack while read:
    # each depth up to past the decoder's limit exits 0 or 1, never 3.
    # The limit is lowered so that the depths stay small.
    f = tmp_path / "deep.json"
    leaf = json.dumps(curve_json(2, 3))
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    codes = {}
    try:
        sys.setrecursionlimit(depth + 120)
        for nesting in range(40, 120):
            f.write_text('{"k": 1, "germ": ' * nesting + leaf + "}" * nesting)
            codes[nesting] = main(["--quiet", "check", "monodromy",
                                   "--in", str(f)])
    finally:
        sys.setrecursionlimit(limit)
    assert set(codes.values()) == {0, 1}, codes
    assert "recursion" in capsys.readouterr().err
