import io
import itertools
import json
import random
import re
import time
from fractions import Fraction as F

import pytest

from closed_forms import brieskorn_pham_eigenvalues, \
    lys_euler_characteristics, newton_bp_ztop
from conftest import FIXTURES
from graphgen import brieskorn_pham_graph
from topzeta import cli
from topzeta.cli import main
from topzeta.cyclo import CycloProduct
from topzeta.errors import ValidationError
from topzeta.lys import LysSurface, lys_from_json, lys_to_json
from topzeta.ratfun import RatFun
from topzeta.resolution import graph_from_json, graph_to_json
from topzeta.suspension import MATRIX_DIVISOR_BOUND, summary_from_graph, \
    summary_to_json, suspend_summary


ROOT = FIXTURES.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_suspend_text(capsys):
    code, out, _ = run_cli(capsys, "suspend", "--in",
                           str(FIXTURES / "x5y6_profile.json"),
                           "--k", "10", "--ell", "1")
    assert code == 0
    assert out.strip() == "(3*s + 7)/((15*s + 7)*(s + 1))"


def test_suspend_matrix(capsys):
    code, out, _ = run_cli(capsys, "suspend", "--in",
                           str(FIXTURES / "x5y6_profile.json"),
                           "--k", "10", "--ell", "1,10", "--matrix")
    assert code == 0
    assert "Z^(1) = " in out and "Z^(10) = " in out
    assert "identity_holds = True" in out
    assert "[9, -3, -24, -72]" in out


def test_suspend_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "suspend", "--in",
                           str(FIXTURES / "x5y6_profile.json"),
                           "--k", "10", "--ell", "5")
    assert code == 0
    payload = json.loads(out)
    emitted = json.dumps(payload, indent=2, sort_keys=True)
    assert emitted == out.strip()
    assert payload["results"][0]["zeta"] == {"num": ["1"], "den": ["14", "30"]}


def test_suspend_latex(capsys):
    code, out, _ = run_cli(capsys, "--format", "latex", "suspend", "--in",
                           str(FIXTURES / "x5y6_profile.json"),
                           "--k", "10", "--ell", "1")
    assert code == 0
    assert out.strip() == r"\frac{3 s + 7}{(15 s + 7) (s + 1)}"


def test_zeta_graph(capsys):
    code, out, _ = run_cli(capsys, "zeta", "graph", "--in",
                           str(FIXTURES / "triple_cusp_graph.json"),
                           "--ell", "9")
    assert code == 0
    assert out.strip() == "(1)/(18*s + 5)"


def test_zeta_strata(capsys, tmp_path):
    from topzeta.resolution import graph_from_json, strata_of_graph, strata_to_json
    graph = graph_from_json(json.loads(
        (FIXTURES / "triple_cusp_graph.json").read_text()))
    strata_file = tmp_path / "strata.json"
    strata_file.write_text(json.dumps(strata_to_json(strata_of_graph(graph))))
    code, out, _ = run_cli(capsys, "zeta", "strata", "--in", str(strata_file),
                           "--ell", "18")
    assert code == 0
    assert out.strip() == "(-1)/(18*s + 5)"


def test_acampo(capsys):
    code, out, _ = run_cli(capsys, "acampo", "--in",
                           str(FIXTURES / "triple_cusp_graph.json"))
    assert code == 0
    assert "Delta = Phi_1^2 Phi_3 Phi_7^2 Phi_18 Phi_21^2" in out


def test_lys_and_sis(capsys):
    code, out, _ = run_cli(capsys, "lys", "--in",
                           str(FIXTURES / "lys_xyz_k1.json"), "--ell", "1")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "sis", "--in",
                             str(FIXTURES / "lys_xyz_k1.json"), "--ell", "1")
    assert code2 == 0
    assert out == out2
    code3, _, err = run_cli(capsys, "sis", "--in",
                            str(FIXTURES / "lys_xyz_k2.json"), "--ell", "1")
    assert code3 == 1 and "k = 1" in err


def test_charpoly(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--in",
                           str(FIXTURES / "lys_xyz_k2.json"))
    assert code == 0
    assert "Delta = Phi_1^2 Phi_5^3" in out


def test_check_holomorphy_suspension(capsys):
    code, out, _ = run_cli(capsys, "check", "holomorphy", "--in",
                           str(FIXTURES / "cusp3_susp.json"), "--lmax", "50")
    assert code == 0
    assert out.startswith("holomorphy: PASS")


def test_check_monodromy_curve(capsys):
    code, out, _ = run_cli(capsys, "check", "monodromy", "--in",
                           str(FIXTURES / "triple_cusp_graph.json"))
    assert code == 0
    assert out.startswith("monodromy: PASS")


def test_check_monodromy_lys_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "check", "monodromy",
                           "--in", str(FIXTURES / "lys_kashiwara_Ib.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert {"ok": True, "order": 4, "pole": "-1/4"} in payload["items"]


def test_check_fail_exit_code(capsys, tmp_path):
    # tacnode zeta data paired with a node characteristic polynomial: the
    # transferred pole -9/10 has no matching eigenvalue
    bad = {"kind": "lys", "n": 2, "m": 3, "k": 2,
           "chi_complement": 2, "chi_curve_smooth": 0,
           "points": [
               {"name": "q1", "prod_nu0": 1,
                "delta": {"cyclotomic": {"1": 1}},
                "entries": [
                    {"ell": 1, "num": ["3", "1"], "den": ["3", "7", "4"]},
                    {"ell": 2, "num": ["1"], "den": ["3", "4"]},
                    {"ell": 4, "num": ["-1"], "den": ["3", "4"]}]}]}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "check", "monodromy", "--in", str(f))
    assert code == 2
    assert "FAIL" in out


def test_check_suspension_with_summary_subject(capsys, tmp_path):
    # suspension subject given as zeta profile + characteristic polynomial
    subject = {"kind": "suspension", "k": 3,
               "germ": {"prod_nu0": 1,
                        "delta": {"cyclotomic": {"1": 1, "4": 1}},
                        "entries": [
                            {"ell": 1, "num": ["3", "1"], "den": ["3", "7", "4"]},
                            {"ell": 2, "num": ["1"], "den": ["3", "4"]},
                            {"ell": 4, "num": ["-1"], "den": ["3", "4"]}]}}
    f = tmp_path / "susp.json"
    f.write_text(json.dumps(subject))
    for conj in ("monodromy", "holomorphy"):
        code, out, _ = run_cli(capsys, "check", conj, "--in", str(f))
        assert code == 0 and "PASS" in out


def test_fbad(capsys):
    code, out, _ = run_cli(capsys, "fbad", "--orders", "1,3,7,18,21")
    assert code == 0
    assert out.strip() == "18"


def test_quiet(capsys):
    code, out, _ = run_cli(capsys, "--quiet", "fbad", "--orders", "1,3,7,18,21")
    assert code == 0
    assert out == ""


def test_input_error_exit_code(capsys, tmp_path):
    f = tmp_path / "nonsense.json"
    f.write_text('{"bogus": 1}')
    code, _, err = run_cli(capsys, "zeta", "graph", "--in", str(f))
    assert code == 1 and err
    code2, _, err2 = run_cli(capsys, "zeta", "graph", "--in",
                             str(tmp_path / "missing.json"))
    assert code2 == 1


def test_stdin_input(capsys, monkeypatch):
    payload = (FIXTURES / "triple_cusp_graph.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run_cli(capsys, "zeta", "graph", "--in", "-", "--ell", "9")
    assert code == 0
    assert out.strip() == "(1)/(18*s + 5)"


def test_non_object_json_exit_code(capsys, tmp_path):
    f = tmp_path / "list.json"
    f.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "zeta", "graph", "--in", str(f))
    assert code == 1 and not out
    assert err == "error: input must be a JSON object, got list\n"


def test_nonlinear_profile_denominator_exit_code(capsys, tmp_path):
    f = tmp_path / "profile.json"
    f.write_text(json.dumps({"entries": [
        {"ell": 1, "num": ["1"], "den": ["1", "1", "1"]}]}))
    code, out, err = run_cli(capsys, "suspend", "--in", str(f),
                             "--k", "2", "--ell", "1")
    assert code == 1 and not out
    assert err.startswith("error: denominator does not split") and \
        err.count("\n") == 1


@pytest.mark.parametrize("lmax", ["1", "0", "-3", "10001"])
def test_check_holomorphy_lmax_out_of_range(capsys, lmax):
    code, out, err = run_cli(capsys, "check", "holomorphy", "--in",
                             str(FIXTURES / "cusp3_susp.json"), "--lmax", lmax)
    assert code == 1 and not out
    assert err == f"error: l_max must be between 2 and 10000, got {lmax}\n"


def test_check_holomorphy_lmax_lower_bound_accepted(capsys):
    code, out, _ = run_cli(capsys, "check", "holomorphy", "--in",
                           str(FIXTURES / "cusp3_susp.json"), "--lmax", "2")
    assert code == 0 and out.startswith("holomorphy: PASS")


@pytest.mark.parametrize("argv,message", [
    (["suspend", "--in", str(FIXTURES / "x5y6_profile.json"), "--k", "2",
      "--m", "3", "--nuz", "2", "--ell", "1", "--matrix"],
     "--matrix is the matrix form of z^k + f; it needs --m 0 and --nuz 1"),
    (["suspend", "--in", str(FIXTURES / "x5y6_profile.json"), "--k", "2",
      "--nuz", "2", "--ell", "1", "--matrix"],
     "--matrix is the matrix form of z^k + f; it needs --m 0 and --nuz 1"),
    (["check", "monodromy", "--in", str(FIXTURES / "lys_kashiwara_Ib.json"),
      "--lmax", "5"], "--lmax applies to check holomorphy only"),
], ids=["matrix-m", "matrix-nuz", "monodromy-lmax"])
def test_flags_that_would_be_ignored_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("conjecture", ["monodromy", "holomorphy"])
def test_check_refuses_non_surface_lys(capsys, tmp_path, conjecture):
    # an n = 3 copy of a surface keeps the surface's Euler characteristics,
    # which the rule for n = 3 refuses before either check reads Delta
    obj = json.loads((FIXTURES / "lys_xyz_k1.json").read_text())
    obj["n"] = 3
    f = tmp_path / "lys_n3.json"
    f.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "check", conjecture, "--in", str(f))
    assert code == 1 and not out
    assert err == "error: (chi_complement, chi_curve_smooth) = (0, 0), " \
        "expected (-2, 3)\n"


def test_charpoly_n3_lys_is_brieskorn(capsys, tmp_path):
    # x^2 + y^2 + z^2 + w^3 is an n = 3 Le-Yomdin germ (m = 2, k = 1) with
    # one point, x^2 + y^2 + z^2, on a quadric cone: chi(C) = 3.  Its Delta
    # is Brieskorn's Phi_6, where the surface formula would give
    # Phi_2^2 Phi_6
    point = suspend_summary(summary_from_graph(brieskorn_pham_graph(2, 2)), 2)
    assert brieskorn_pham_eigenvalues((2, 2, 2, 3)) == \
        CycloProduct.from_factors({6: 1})
    f = tmp_path / "lys_n3.json"
    f.write_text(json.dumps(lys_to_json(LysSurface(3, 2, 1, 1, 2, [point]))))
    code, out, err = run_cli(capsys, "charpoly", "--in", str(f))
    assert code == 0 and not err
    assert out == "Delta = Phi_6\nDelta_tilde = Phi_1 Phi_6\n"


@pytest.mark.parametrize("argv", [["lys", "--in", "IN", "--ell", "1"],
                                  ["charpoly", "--in", "IN"],
                                  ["check", "monodromy", "--in", "IN"]])
def test_graph_point_needs_n2(capsys, tmp_path, argv):
    # a resolution graph is a plane-curve germ, so an n = 3 surface with a
    # graph point is refused even with the Euler characteristics that the
    # rule gives for n = 3, which pass the surface's own check
    obj = json.loads((FIXTURES / "lys_kashiwara_Ib.json").read_text())
    points = lys_from_json(obj).points
    obj["n"] = 3
    obj["chi_complement"], obj["chi_curve_smooth"] = \
        lys_euler_characteristics(3, obj["m"], points)
    LysSurface(3, obj["m"], obj["k"], obj["chi_complement"],
               obj["chi_curve_smooth"], points)
    f = tmp_path / "lys_n3.json"
    f.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *[str(f) if a == "IN" else a
                                       for a in argv])
    assert code == 1 and not out
    assert err == "error: point 'q' is a plane-curve graph; " \
        "graph points need n = 2\n"


@pytest.mark.parametrize("name,k", [("lys_xyz_k1", 5), ("lys_tacnode_k2", 1)])
def test_lys_z_past_the_bracket_bound(capsys, tmp_path, name, k):
    # at m = 10^12 - 1 a bracket of Delta, (m + k) d / gcd(d, k),
    # exceeds 10^12; Z needs no Delta, so lys and sis print it and only the
    # commands that read Delta refuse
    obj = json.loads((FIXTURES / f"{name}.json").read_text())
    points = lys_from_json(obj).points
    obj["m"], obj["k"] = 10 ** 12 - 1, k
    obj["chi_complement"], obj["chi_curve_smooth"] = \
        lys_euler_characteristics(2, obj["m"], points)
    f = tmp_path / "lys.json"
    f.write_text(json.dumps(obj))
    for command in ["lys"] + ["sis"] * (k == 1):
        code, out, err = run_cli(capsys, command, "--in", str(f),
                                 "--ell", "1")
        assert code == 0 and out.startswith("Z^(1) = ") and not err
    for argv in (["charpoly"], ["check", "monodromy"]) * 2:
        code, out, err = run_cli(capsys, *argv, "--in", str(f))
        assert code == 1 and not out
        assert err == "error: integer above 10^12: too large to factor by " \
            "trial division\n"


def test_lys_delta_not_a_polynomial(capsys, tmp_path):
    # seven points with delta Phi_2 on a quartic pass the Euler
    # characteristics, but Delta = Phi_1^-1 Phi_2^7 Phi_10^7 is no polynomial
    # (Delta_tilde is one); Z needs no Delta, so lys and sis print it and the
    # commands that read Delta refuse the surface
    point = summary_to_json(summary_from_graph(graph_from_json(
        json.loads((FIXTURES / "cusp_graph.json").read_text()))))
    point["delta"] = {"cyclotomic": {"2": 1}}
    obj = {"kind": "lys", "n": 2, "m": 4, "k": 1, "chi_complement": 0,
           "chi_curve_smooth": -4,
           "points": [{**point, "name": f"q{i + 1}"} for i in range(7)]}
    f = tmp_path / "lys.json"
    f.write_text(json.dumps(obj))
    for command in ("lys", "sis"):
        code, out, err = run_cli(capsys, command, "--in", str(f),
                                 "--ell", "1")
        assert code == 0 and out.startswith("Z^(1) = ") and not err
    for argv in (["charpoly"], ["check", "monodromy"],
                 ["check", "holomorphy"]):
        code, out, err = run_cli(capsys, *argv, "--in", str(f))
        assert code == 1 and not out
        assert err == "error: Delta is not a polynomial; inconsistent " \
            "Le-Yomdin input\n"


DELETE = object()


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    if value is DELETE:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value


STRATA = ROOT / "perfbench" / "data" / "triple_cusp_strata.json"

SUSPEND = ["suspend", "--in", "IN", "--k", "2", "--ell", "1"]
GRAPH = ["zeta", "graph", "--in", "IN"]
LYS = ["lys", "--in", "IN", "--ell", "1"]
STRATA_CMD = ["zeta", "strata", "--in", "IN"]

# (id, argv with IN for the input path, fixture, path to the field, value,
#  the expected message)
MALFORMED = [
    ("entries", SUSPEND, FIXTURES / "x5y6_profile.json", ["entries"], 5,
     "'entries' must be a JSON array, got int"),
    ("entries-item", SUSPEND, FIXTURES / "x5y6_profile.json", ["entries"],
     [5], "'entries'[0] must be a JSON object, got int"),
    ("vertices", GRAPH, FIXTURES / "triple_cusp_graph.json", ["vertices"], 3,
     "'vertices' must be a JSON array, got int"),
    ("arrows", GRAPH, FIXTURES / "triple_cusp_graph.json", ["arrows"], "A1",
     "'arrows' must be a JSON array, got str"),
    ("edges", GRAPH, FIXTURES / "triple_cusp_graph.json", ["edges"],
     {"E1": "E2"}, "'edges' must be a JSON array, got dict"),
    ("edges-item", GRAPH, FIXTURES / "triple_cusp_graph.json", ["edges", 0],
     7, "'edges'[0] must be a JSON array, got int"),
    ("points", LYS, FIXTURES / "lys_xyz_k1.json", ["points"], 5,
     "'points' must be a JSON array, got int"),
    ("delta", LYS, FIXTURES / "lys_xyz_k1.json", ["points", 0, "delta"], 3,
     "'delta' must be a JSON object, got int"),
    ("cyclotomic", LYS, FIXTURES / "lys_xyz_k1.json",
     ["points", 0, "delta", "cyclotomic"], [[1, 1]],
     "'cyclotomic' must be a JSON object, got list"),
    ("germ-vertices", ["check", "monodromy", "--in", "IN"],
     FIXTURES / "cusp3_susp.json", ["germ", "graph", "vertices"], None,
     "'vertices' must be a JSON array, got NoneType"),
    ("components", STRATA_CMD, STRATA, ["components"], 5,
     "'components' must be a JSON array, got int"),
    ("strata", STRATA_CMD, STRATA, ["strata"], {},
     "'strata' must be a JSON array, got dict"),
    # scalar fields, at least one per reader: integers and numeric strings
    # only, no null, booleans, floats, arrays or objects
    ("vertex-N", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["vertices", 0, "N"], None, "vertex E1: 'N' must be an integer, got null"),
    ("vertex-nu", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["vertices", 0, "nu"], 2.0, "vertex E1: 'nu' must be an integer, got 2.0"),
    ("vertex-self_intersection", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["vertices", 0, "self_intersection"], "-3x",
     "vertex E1: 'self_intersection' must be an integer, got \"-3x\""),
    ("arrow-mult", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["arrows", 0, "mult"], [1],
     "arrow A1: 'mult' must be an integer, got an array"),
    ("graph-prod_nu0", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["prod_nu0"], True, "'prod_nu0' must be an integer, got true"),
    ("component-N", STRATA_CMD, STRATA, ["components", 0, "N"], {"a": 1},
     "component E1: 'N' must be an integer, got an object"),
    ("stratum-chi", STRATA_CMD, STRATA, ["strata", 0, "chi"], "x",
     "'strata'[0]: 'chi' must be an integer, got \"x\""),
    ("entry-ell", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["entries", 0, "ell"], None,
     "'entries'[0]: 'ell' must be an integer, got null"),
    ("profile-prod_nu0", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["prod_nu0"], 1.5, "'prod_nu0' must be an integer, got 1.5"),
    ("num-coefficient", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["entries", 0, "num", 0], [11],
     "'num'[0] must be a rational number, got an array"),
    ("den-coefficient", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["entries", 0, "den", 1], 41.0,
     "'den'[1] must be a rational number, got 41.0"),
    ("den", SUSPEND, FIXTURES / "x5y6_profile.json", ["entries", 0, "den"],
     5, "'den' must be a JSON array, got int"),
    ("lys-k", LYS, FIXTURES / "lys_xyz_k1.json", ["k"], None,
     "'k' must be an integer, got null"),
    ("lys-chi", LYS, FIXTURES / "lys_xyz_k1.json", ["chi_complement"], 0.5,
     "'chi_complement' must be an integer, got 0.5"),
    ("suspension-k", ["check", "monodromy", "--in", "IN"],
     FIXTURES / "cusp3_susp.json", ["k"], [2],
     "'k' must be an integer, got an array"),
    ("cyclotomic-exponent", LYS, FIXTURES / "lys_xyz_k1.json",
     ["points", 0, "delta", "cyclotomic", "1"], None,
     "'cyclotomic'['1'] must be an integer, got null"),
    # ids are JSON strings, and nested graphs, germs and surfaces objects
    ("vertex-id", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["vertices", 1, "id"], ["E2"],
     "'vertices'[1]: 'id' must be a JSON string, got list"),
    ("arrow-id", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["arrows", 0, "id"], 1, "'arrows'[0]: 'id' must be a JSON string, got int"),
    ("arrow-attached_to", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["arrows", 0, "attached_to"], {"a": 1},
     "'arrows'[0]: 'attached_to' must be a JSON string, got dict"),
    ("edge-end", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["edges", 2, 1], 3, "'edges'[2][1] must be a JSON string, got int"),
    ("edge-ends", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["edges", 0], ["E1", "E3", "E4"], "'edges'[0] must have two ends"),
    ("component-id", STRATA_CMD, STRATA, ["components", 0, "id"], None,
     "'components'[0]: 'id' must be a JSON string, got NoneType"),
    ("stratum-I", STRATA_CMD, STRATA, ["strata", 1, "I"], "E1",
     "'strata'[1]: 'I' must be a JSON array, got str"),
    ("stratum-I-item", STRATA_CMD, STRATA, ["strata", 1, "I", 0], [],
     "'strata'[1]: 'I'[0] must be a JSON string, got list"),
    ("germ", ["check", "monodromy", "--in", "IN"], FIXTURES / "cusp3_susp.json",
     ["germ"], [1], "'germ' must be a JSON object, got list"),
    ("germ-graph", ["check", "monodromy", "--in", "IN"],
     FIXTURES / "cusp3_susp.json", ["germ", "graph"], 5,
     "'graph' must be a JSON object, got int"),
    ("point-graph", LYS, FIXTURES / "lys_kashiwara_Ib.json",
     ["points", 0, "graph"], [], "'graph' must be a JSON object, got list"),
    ("point-name", LYS, FIXTURES / "lys_xyz_k1.json", ["points", 0, "name"],
     5, "'name' must be a JSON string, got int"),
    # a missing required field names its record, where it has one
    ("vertex-id-missing", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["vertices", 0, "id"], DELETE, "'vertices'[0]: missing field 'id'"),
    ("arrow-mult-missing", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["arrows", 0, "mult"], DELETE, "arrow A1: missing field 'mult'"),
    ("stratum-chi-missing", STRATA_CMD, STRATA, ["strata", 0, "chi"], DELETE,
     "'strata'[0]: missing field 'chi'"),
    ("num-missing", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["entries", 0, "num"], DELETE, "missing field 'num'"),
    ("delta-missing", LYS, FIXTURES / "lys_xyz_k1.json",
     ["points", 0, "delta"], DELETE, "missing field 'delta'"),
    ("lys-n-missing", LYS, FIXTURES / "lys_xyz_k1.json", ["n"], DELETE,
     "missing field 'n'"),
    ("suspension-germ-missing", ["check", "monodromy", "--in", "IN"],
     FIXTURES / "cusp3_susp.json", ["germ"], DELETE, "missing field 'germ'"),
    # values that used to fail inside the arithmetic
    ("profile-prod_nu0-zero", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["prod_nu0"], 0, "'prod_nu0' must be >= 1, got 0"),
    ("graph-prod_nu0-zero", GRAPH, FIXTURES / "triple_cusp_graph.json",
     ["prod_nu0"], 0, "'prod_nu0' must be >= 1, got 0"),
    ("strata-prod_nu0-negative", STRATA_CMD, STRATA, ["prod_nu0"], -2,
     "'prod_nu0' must be >= 1, got -2"),
    ("den-zero", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["entries", 1, "den"], ["0", "0/5"], "zero denominator"),
    ("entry-1-pole-at-0", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["entries", 0, "den"], ["0", "1"], "Z(f, s) has a pole at s = 0"),
    ("delta-no-key", LYS, FIXTURES / "lys_xyz_k1.json",
     ["points", 0, "delta"], {}, "expected a 'cyclotomic' or 'brackets' key"),
    ("brackets-pair", LYS, FIXTURES / "lys_xyz_k1.json",
     ["points", 0, "delta"], {"brackets": [[1, 1, 1]]},
     "each of 'brackets' must be a pair [m, n]"),
    # a stratification is checked at ingest, as one derived from a graph is
    ("strata-normalization", STRATA_CMD, STRATA, ["strata", 0, "chi"], 5,
     "normalization fails: sum chi/prod nu = 3, expected 1/1"),
    # "validate" is a JSON boolean: a string, null or 0 is not read as one
    ("validate-string", SUSPEND, FIXTURES / "lvp_profile.json", ["validate"],
     "false", "'validate' must be a JSON boolean, got str"),
    ("validate-null", SUSPEND, FIXTURES / "lvp_profile.json", ["validate"],
     None, "'validate' must be a JSON boolean, got NoneType"),
    ("validate-zero", SUSPEND, FIXTURES / "lvp_profile.json", ["validate"],
     0, "'validate' must be a JSON boolean, got int"),
    # a second entry for one ell is refused, not read over the first
    ("entry-ell-duplicate", SUSPEND, FIXTURES / "x5y6_profile.json",
     ["entries", 1, "ell"], 3, "'entries'[2]: duplicate ell = 3"),
    # integers whose divisors trial division would take hours to list
    ("cyclotomic-index-huge", LYS, FIXTURES / "lys_xyz_k1.json",
     ["points", 0, "delta", "cyclotomic"], {str(10 ** 13): 1},
     "integer above 10^12: too large to factor by trial division"),
    ("suspension-k-huge", ["check", "monodromy", "--in", "IN"],
     FIXTURES / "cusp3_susp.json", ["k"], 10 ** 13,
     "integer above 10^12: too large to factor by trial division"),
    # a Le-Yomdin n or m whose Euler characteristics would run to thousands
    # of digits, and a surface's Euler characteristics given for n = 3
    ("lys-m-huge", LYS, FIXTURES / "lys_xyz_k1.json", ["m"], 10 ** 4000,
     "need n <= 64 and m <= 10^12"),
    ("lys-n-huge", LYS, FIXTURES / "lys_xyz_k1.json", ["n"], 65,
     "need n <= 64 and m <= 10^12"),
    ("lys-n3-chi", LYS, FIXTURES / "lys_xyz_k1.json", ["n"], 3,
     "(chi_complement, chi_curve_smooth) = (0, 0), expected (-2, 3)"),
]


@pytest.mark.parametrize("argv,fixture,path,value,message",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_nested_json_exit_code(capsys, tmp_path, argv, fixture,
                                         path, value, message):
    obj = json.loads(fixture.read_text())
    _set(obj, path, value)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *[str(f) if a == "IN" else a
                                       for a in argv])
    assert code == 1 and not out
    assert err == f"error: {message}\n"


CURVE_FIXTURES = ("a3_graph", "cusp_graph", "triple_cusp_graph",
                  "two_cusp_graph")


def _normalization(graph, nu):
    """sum chi / prod nu over the strata of a graph given as JSON, with the
    arrows at nu = 1."""
    valence = {v: 0 for v in nu}
    for u, v in graph["edges"]:
        valence[u] += 1
        valence[v] += 1
    for a in graph["arrows"]:
        valence[a["attached_to"]] += 1
    return (sum(F(2 - valence[v], nu[v]) for v in nu)
            + sum(F(1, nu[u] * nu[v]) for u, v in graph["edges"])
            + sum(F(1, nu[a["attached_to"]]) for a in graph["arrows"]))


def _nu_edits():
    """(name, graph JSON, normalized) for every edit that sets nu at two
    vertices of a curve fixture to other values in 1..12; normalized says
    whether sum chi / prod nu = 1 still holds."""
    for name in CURVE_FIXTURES:
        graph = json.loads((FIXTURES / f"{name}.json").read_text())
        ids = [v["id"] for v in graph["vertices"]]
        for i, j in itertools.combinations(range(len(ids)), 2):
            for pair in itertools.product(range(1, 13), repeat=2):
                edit = json.loads(json.dumps(graph))
                vertices = edit["vertices"]
                if (vertices[i]["nu"], vertices[j]["nu"]) == pair:
                    continue
                vertices[i]["nu"], vertices[j]["nu"] = pair
                nu = {v["id"]: v["nu"] for v in vertices}
                yield name, edit, _normalization(edit, nu) == 1


def test_cusp_nu_edit_exit_code(capsys, tmp_path):
    # the normalization holds for nu(E1) = 3, nu(E2) = 2; adjunction does not
    obj = json.loads((FIXTURES / "cusp_graph.json").read_text())
    obj["vertices"][0]["nu"], obj["vertices"][1]["nu"] = 3, 2
    f = tmp_path / "cusp.json"
    f.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "zeta", "graph", "--in", str(f))
    assert code == 1 and not out
    assert err == ("error: adjunction fails at E1: sum of nu - 1 over its "
                   "neighbours is 4 != 3 * 3 - 2\n")


NOT_TREES = {
    # a triangle E1-E2-E3 with an arrow on each vertex: acampo used to print
    # zeta = Phi_1^-3 Phi_3^-3 and exit 0
    "triangle": ({"vertices": [{"id": f"E{i}", "N": 3, "nu": 2}
                               for i in (1, 2, 3)],
                  "arrows": [{"id": f"A{i}", "mult": 1, "attached_to": f"E{i}"}
                             for i in (1, 2, 3)],
                  "edges": [["E1", "E2"], ["E2", "E3"], ["E1", "E3"]]},
                 "3 edges on 3 vertices"),
    # E1 and E2 joined twice: acampo used to print Delta = Phi_1^2 Phi_2
    "doubled-edge": ({"vertices": [{"id": "E1", "N": 2, "nu": 2},
                                   {"id": "E2", "N": 1, "nu": 2}],
                      "arrows": [{"id": "A1", "mult": 1, "attached_to": "E1"}],
                      "edges": [["E1", "E2"], ["E1", "E2"]]},
                     "2 edges on 2 vertices"),
}


@pytest.mark.parametrize("argv", [
    ["acampo", "--in", "IN"], GRAPH, ["check", "monodromy", "--in", "IN"]],
    ids=["acampo", "zeta-graph", "check"])
@pytest.mark.parametrize("name", sorted(NOT_TREES))
def test_graph_that_is_not_a_tree_exits_1(capsys, tmp_path, name, argv):
    graph, counts = NOT_TREES[name]
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, *[str(f) if a == "IN" else a
                                       for a in argv])
    assert code == 1 and not out
    assert err == f"error: exceptional graph is not a tree: {counts}\n"


def _bad_triple_cusp(name: str) -> dict:
    obj = json.loads((FIXTURES / "triple_cusp_graph.json").read_text())
    if name == "partial-self-intersections":
        # E1's left out: the graph used to be checked only when every
        # vertex had one, so all three commands exited 0
        del obj["vertices"][0]["self_intersection"]
        obj["vertices"][1]["self_intersection"] = -5
    else:
        # acampo used to print a Delta for a repeated arrow id
        obj["arrows"][1]["id"] = {"arrow-id": "A1", "vertex-id": "E2"}[name]
    return obj


@pytest.mark.parametrize("argv", [
    ["acampo", "--in", "IN"], GRAPH, ["check", "monodromy", "--in", "IN"]],
    ids=["acampo", "zeta-graph", "check"])
@pytest.mark.parametrize("name,message", [
    ("partial-self-intersections",
     "projection formula fails at E2: 18 != 5 * 9"),
    ("arrow-id", "duplicate component ids"),
    ("vertex-id", "duplicate component ids")])
def test_graph_checks_exit_1(capsys, tmp_path, name, message, argv):
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(_bad_triple_cusp(name)))
    code, out, err = run_cli(capsys, *[str(f) if a == "IN" else a
                                       for a in argv])
    assert code == 1 and not out
    assert err == f"error: {message}\n"


def test_check_holomorphy_reads_twist_2(capsys, tmp_path):
    # x^3 + y^5: Delta = Phi_15 has no Phi_2, so twist 2 is checked; a
    # Delta with Phi_2 would skip it
    f = tmp_path / "x3y5.json"
    f.write_text(json.dumps(graph_to_json(brieskorn_pham_graph(3, 5))))
    code, out, _ = run_cli(capsys, "check", "holomorphy", "--in", str(f),
                           "--lmax", "6")
    assert code == 0
    assert out == "holomorphy: PASS\n  2: ok\n  4: ok\n  6: ok\n"


def test_nu_edits_exit_code(capsys, tmp_path):
    # every two-vertex nu edit is rejected at ingest, and the 82 that keep
    # the normalization exit 1 through the CLI as well
    normalized = 0
    for name, edit, keeps_normalization in _nu_edits():
        with pytest.raises(ValidationError, match="adjunction fails at E"):
            graph_from_json(edit)
        if keeps_normalization:
            normalized += 1
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps(edit))
            code, out, err = run_cli(capsys, "zeta", "graph", "--in", str(f))
            assert code == 1 and not out, edit
            assert err.startswith("error: adjunction fails at E"), err
    assert normalized == 82


INTEGER_FIELDS ={"N", "nu", "mult", "self_intersection", "prod_nu0", "chi",
                  "ell", "k", "n", "m", "chi_complement", "chi_curve_smooth"}


def _stringify_integers(obj):
    """obj with every integer field and cyclotomic exponent as a string."""
    if isinstance(obj, list):
        return [_stringify_integers(x) for x in obj]
    if not isinstance(obj, dict):
        return obj
    return {key: str(value) if isinstance(value, int) and (
                key in INTEGER_FIELDS or key.isdigit())
            else _stringify_integers(value) for key, value in obj.items()}


@pytest.mark.parametrize("argv,fixture", [
    (SUSPEND, FIXTURES / "x5y6_profile.json"),
    (GRAPH, FIXTURES / "triple_cusp_graph.json"),
    (STRATA_CMD, STRATA),
    (LYS, FIXTURES / "lys_xyz_k2.json"),
    (["check", "monodromy", "--in", "IN"], FIXTURES / "cusp3_susp.json"),
], ids=["profile", "graph", "strata", "lys", "suspension"])
def test_numeric_strings_read_as_integers(capsys, tmp_path, argv, fixture):
    obj = json.loads(fixture.read_text())
    text = _stringify_integers(obj)
    assert text != obj
    outputs = []
    for data in (obj, text):
        f = tmp_path / "in.json"
        f.write_text(json.dumps(data))
        outputs.append(run_cli(capsys, *[str(f) if a == "IN" else a
                                         for a in argv]))
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]


GOLDEN = json.loads(
    (ROOT / "perfbench" / "refs" / "cli_oneshot.json").read_text())


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_cli_matches_recorded_output(capsys, monkeypatch, label):
    # argv paths in the recording are relative to the repository root
    monkeypatch.chdir(ROOT)
    case = GOLDEN[label]
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


@pytest.mark.parametrize("label", sorted(
    label for label in GOLDEN if label.startswith("json:")))
def test_json_output_renders_no_text(capsys, monkeypatch, label):
    # --format json prints the payload only: a text renderer that raises
    # must leave every recorded exit code and stdout as they are
    def refuse(*_):
        raise AssertionError("text rendered for --format json")

    for name in ("render_text", "render_latex", "cyclo_str"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(ROOT)
    case = GOLDEN[label]
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


# seeded CLI fuzz: every fixture (each Kashiwara fibre as a graph) and the
# strata file, one field replaced by a bad value or deleted per run
FUZZ_VALUES = [None, 0, -1, "x", [], {}, 5, [5], {"a": 1}, True, 1.5, "1"]
FUZZ_RUNS_PER_INPUT = 25
FUZZ_BUDGET_S = 30
CHECK = ["check", "monodromy", "--in", "IN"]
HOLOMORPHY = ["check", "holomorphy", "--in", "IN", "--lmax", "12"]
FUZZ_COMMANDS = {
    "graph": [GRAPH + ["--ell", "2"], ["acampo", "--in", "IN"], CHECK],
    "profile": [["suspend", "--in", "IN", "--k", "6", "--m", "1", "--nuz",
                 "2", "--ell", "1,2,3,6"],
                ["suspend", "--in", "IN", "--k", "2", "--ell", "1,2,4"]],
    "suspension": [CHECK, HOLOMORPHY],
    "lys": [["lys", "--in", "IN", "--ell", "1,2"], ["charpoly", "--in", "IN"],
            CHECK, HOLOMORPHY],
    "strata": [STRATA_CMD + ["--ell", "2"]],
}


def _fuzz_inputs():
    for path in sorted(FIXTURES.glob("*.json")):
        obj = json.loads(path.read_text())
        if "fibers" in obj:
            for fibre, graph in obj["fibers"].items():
                yield f"{path.name}:{fibre}", graph, "graph"
        else:
            kind = ("graph" if "vertices" in obj else
                    "profile" if "entries" in obj else
                    "suspension" if "germ" in obj else "lys")
            yield path.name, obj, kind
    yield STRATA.name, json.loads(STRATA.read_text()), "strata"


def _json_paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def test_fuzzed_inputs_exit_cleanly(capsys, tmp_path):
    # every run exits 0, 1 or 2, an error with one line on stderr that is
    # more than a bare quoted key; exit 3 would mean a fault in topzeta, and
    # an exception escaping main a traceback for a CLI user
    rng = random.Random(59)
    f = tmp_path / "fuzz.json"
    start = time.perf_counter()
    runs = 0
    for name, obj, kind in _fuzz_inputs():
        paths = list(_json_paths(obj))
        for _ in range(FUZZ_RUNS_PER_INPUT):
            data = json.loads(json.dumps(obj))
            path = rng.choice(paths)
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            if rng.random() < 0.1:
                del parent[path[-1]]
                value = "deleted"
            else:
                value = parent[path[-1]] = rng.choice(FUZZ_VALUES)
            f.write_text(json.dumps(data))
            for argv in FUZZ_COMMANDS[kind]:
                argv = [str(f) if a == "IN" else a for a in argv]
                code, _, err = run_cli(capsys, *argv)
                runs += 1
                assert code in (0, 1, 2), (name, path, value, argv, err)
                if code == 1:
                    assert err.count("\n") == 1, (name, path, value, err)
                    assert not re.fullmatch(r"error: '[^']*'\n", err), \
                        (name, path, value, err)
    assert runs > 1000
    assert time.perf_counter() - start < FUZZ_BUDGET_S


def test_lys_point_graph_inline(capsys, tmp_path):
    # a Le-Yomdin point reads its graph inline as well as under "graph", as
    # a suspension germ does
    fixture = FIXTURES / "lys_kashiwara_Ib.json"
    obj = json.loads(fixture.read_text())
    for point in obj["points"]:
        point.update(point.pop("graph"))
    f = tmp_path / "inline.json"
    f.write_text(json.dumps(obj))
    for argv in (["lys", "--ell", "1,2"], ["check", "monodromy"]):
        given = run_cli(capsys, *argv, "--in", str(fixture))
        assert given[0] == 0
        assert run_cli(capsys, *argv, "--in", str(f)) == given


def test_lys_point_named_by_position(capsys, tmp_path):
    # a point without "name" is named q<i> in profile form too
    obj = json.loads((FIXTURES / "lys_xyz_k1.json").read_text())
    del obj["points"][0]["name"]
    obj["points"][0]["delta"] = {"cyclotomic": {"1": -1}}
    f = tmp_path / "lys.json"
    f.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "lys", "--in", str(f), "--ell", "1")
    assert code == 1 and not out
    assert err == "error: germ 'q1': delta is not a polynomial\n"


@pytest.mark.parametrize("order", ["10000000000000", str(10 ** 16 + 61)])
def test_large_orders_exit_quickly(capsys, order):
    # orders above 10^12 are refused before any trial division, which would
    # take 10^8 steps on the prime 10^16 + 61
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fbad", "--orders", order)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out
    assert err == "error: integer above 10^12: too large to factor by " \
        "trial division\n"


def test_suspend_reads_a_k_above_the_trial_division_bound(capsys):
    # Z^(1) of z^k + x^5 + y^6 reads only the divisors of gcd(k, 30), so
    # `suspend` prints it at k = 10^13, and the Newton polyhedron agrees;
    # --matrix needs the divisors of k itself and still refuses
    k = 10 ** 13
    argv = ("suspend", "--in", str(FIXTURES / "x5y6_profile.json"),
            "--k", str(k), "--ell", "1")
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 0 and not err
    z = RatFun.from_json(json.loads(out)["results"][0]["zeta"])
    assert z == newton_bp_ztop((5, 6, k), 0, 1, 1)
    code, out, err = run_cli(capsys, *argv, "--matrix")
    assert code == 1 and not out
    assert err == "error: integer above 10^12: too large to factor by " \
        "trial division\n"


@pytest.mark.parametrize("k,d", [(963_761_198_400, 6720), (21_621_600, 576)])
def test_suspend_matrix_divisor_bound(capsys, k, d):
    # --matrix builds d(k)^2 entries, so a k with more than
    # MATRIX_DIVISOR_BOUND divisors is refused before any is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "suspend", "--in",
                             str(FIXTURES / "x5y6_profile.json"), "--k",
                             str(k), "--ell", "1", "--matrix")
    assert time.perf_counter() - start < 2.0
    assert code == 1 and not out
    assert err == f"error: k = {k} has d(k) = {d} divisors; the matrix " \
        f"form allows at most {MATRIX_DIVISOR_BOUND}\n"


def test_lys_euler_characteristics_checked(capsys, tmp_path):
    # both Euler characteristics follow from chi(C) = 3m - m^2 + sum mu_p;
    # their sum alone would still be 3 here
    obj = json.loads((FIXTURES / "lys_kashiwara_Ib.json").read_text())
    obj["chi_complement"], obj["chi_curve_smooth"] = -2, 4
    f = tmp_path / "lys.json"
    f.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "lys", "--in", str(f), "--ell", "1")
    assert code == 1 and not out
    assert err == ("error: (chi_complement, chi_curve_smooth) = (-2, 4), "
                   "expected (-1, 3)\n")


@pytest.mark.parametrize("argv", [
    ["zeta", "graph"],
    ["zeta", "graph", "--in", str(FIXTURES / "cusp_graph.json"), "--ell", "x"],
    ["fbad", "--orders", "1,x"],
    ["suspend", "--in", str(FIXTURES / "x5y6_profile.json"), "--k", "10",
     "--ell", ","],
    ["lys", "--in", str(FIXTURES / "lys_xyz_k1.json"), "--ell", ""],
    ["fbad", "--orders", ","],
    ["--strict", "suspend", "--in", str(FIXTURES / "x5y6_profile.json"),
     "--k", "7", "--ell", "1"],
    ["bogus"],
], ids=["missing-in", "ell-not-int", "orders-not-ints", "ell-empty",
        "lys-ell-empty", "orders-empty", "strict-retired",
        "unknown-subcommand"])
def test_usage_error_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and not out
    assert err.startswith("error: topzeta") and err.count("\n") == 1


@pytest.mark.parametrize("data", [
    b'\xff{"vertices": []}',
    b'{"prod_nu0": ' + b"7" * 5000 + b"}",
    b"[" * 100_000 + b"]" * 100_000,
], ids=["bad-utf8", "over-long-integer", "deep-nesting"])
def test_unreadable_json_exit_code(capsys, tmp_path, data):
    f = tmp_path / "bad.json"
    f.write_bytes(data)
    code, out, err = run_cli(capsys, "zeta", "graph", "--in", str(f))
    assert code == 1 and not out
    assert err.startswith("error: unreadable JSON input: ") and \
        err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: topzeta")


def test_internal_fault_exit_code(capsys, monkeypatch):
    # a KeyError from inside the library is a fault, not bad input
    def broken(*args, **kwargs):
        raise KeyError("N")

    monkeypatch.setattr("topzeta.resolution.strata_of_graph", broken)
    code, out, err = run_cli(capsys, "zeta", "graph", "--in",
                             str(FIXTURES / "triple_cusp_graph.json"))
    assert code == 3 and not out
    assert err == "internal error: KeyError: 'N'\n"
