"""Time the import of the CLI, value-type construction, RatFun addition,
the binomial, suspension, strata and Le-Yomdin layers, the holomorphy check,
Z^(1) of large curves and the criterion-5 motivic grid; write BENCH_*.json.

Usage:
    python3 scripts/bench.py --compare ../parent/src --out BENCH_N.json

--compare PARENT_SRC measures two trees in the same rounds and in this one
interpreter: the topzeta package of PARENT_SRC and that of this checkout's
src/ are each imported under a name of their own, so their modules, classes
and lru_caches stay apart.  Each round runs every row group (cli_import,
construct, ratfun, layers, twists, zero_twists, curves, grid) for both
trees back to back, the parent first in odd rounds and second in even
ones.  It writes a "before" and an "after" row, each value the median over
the rounds, so host drift falls on both rows alike instead of reading as a
change between them.

The two rows replace the before and after rows of the output file and
keep the others.  Comparing a tree with itself (--compare src) shows the
noise floor: such a run writes no before and after rows but appends a
"noise" row of the after/before ratio of each value, and rewrites the
"noise_band" row, the least and greatest ratio of each value over every
noise row of the file.

Exact work counts stand beside the timings: after the timed rounds, each
tree's row groups run once more and every layer row records
opcodes|<row>, the bytecode events (tests/opcodes.py) of one call, its
first case.  A parent comparison appends a "count_ratio" row of the
after/before ratio of each count, and a noise row holds the counts'
ratios too, which read exactly 1.  Counts depend on the CPython version,
which each row's machine field names.  Each before and after row holds:

  * machine: Python version, platform and CPU count;
  * layers: microseconds per construction of RatFun, MotTerm,
    BinomialGerm and CheckItem from fields taken from the grid and the
    holomorphy check, and milliseconds per graph_from_json of every
    resolution graph stored under fixtures/ and perfbench/data/ (215
    graphs); microseconds per sum of two terms over n shared
    forms, for each n of SHARED_FORMS, of RatFun a + b and of
    RatFun.sum_inv_products, per one-term RatFun.sum_inv_products that
    builds a (as w_top builds each cone term), per product a * c that
    cancels the n
    forms and per quotient a / d by d = 1/c, whose factored reciprocal
    cancels them; microseconds per RatFun.sum of n canonical
    terms, for each n of SUM_TERMS; microseconds per substitute_affine at
    s -> (7s + 1)/6 of a function of numerator and denominator degree d,
    for each d of SUBSTITUTE_DEGREES; microseconds per case of w_top,
    motivic_w and euler_specialize on a fixed sample of the grid's shapes
    at q = 1, 2, 3 (cone cache warm),
    microseconds per (k, N) key of cone_multiplicities with the cone
    cache cleared, microseconds per twist of suspend_G on the x5y6 and lvp
    profiles (m = 0 and 2, k = SUSPEND_K, each l of L_LADDER) and of
    ztop_from_strata on each curve fixture (l = 1..12); microseconds per
    LysSurface construction, which derives Delta, and per call of
    lys_charpoly and of lys_ztop at l = 1 on each Le-Yomdin fixture at
    k = 1..LYS_K_MAX;
    microseconds per twist of lys_ztop on LYS_SURFACES at the zero twists
    up to the default l_max and at the nonzero twists of the order closure,
    per zero twist
    of suspend_G (the same profiles, l <= 2 (m+k) lcm(support)) and of
    ztop_from_strata (l <= 2 lcm(N)), and milliseconds per check_holomorphy
    at the default l_max on the subjects HOLOMORPHY_SURFACE and
    HOLOMORPHY_SUBJECTS (a surface, a curve and a suspension), as
    `check holomorphy` reads them, 20 checks per timing, per
    check_holomorphy and Report.to_json, which builds every item of the
    report as `check holomorphy` prints it, on HOLOMORPHY_SURFACE, 20 per
    timing, and milliseconds per lys.germ_from_json, the read of a `check`
    subject, on each of
    CHECK_FIXTURES, 20 reads per timing, and on cusp3_susp with its "k" set
    to each of SUSPENSION_KS, whose d(k) are 2, 60 and 240, fewer reads per
    timing at the larger k; milliseconds per lys_summary on
    each Le-Yomdin fixture, 20 summaries per timing;
    milliseconds per
    graph_from_json of the resolution graph of x^(V-1) + y^V, which has
    V vertices, and per ztop_from_strata(res, 1) on it, for each V of
    CURVE_VERTICES (a large sum of terms with forms of their own), and per
    solve_multiplicities of that graph from its self-intersections; each
    the median over the rounds of a median of REPEATS timings;
  * end_to_end: the criterion-5 grid (1,329 shapes, 637,920 germ/cone
    cases, euler_specialize(motivic_w) == w_top checked on each) from a
    cleared cone cache, once per round, in seconds; and the milliseconds
    to `import topzeta.cli` in a fresh interpreter, the median of
    IMPORT_SPAWNS interpreters per round (it includes compiling the
    sources wherever the interpreter writes no bytecode cache, as under
    PYTHONDONTWRITEBYTECODE);
  * src_lines: the line count of the measured topzeta package;
  * rounds: the number of rounds;
  * counts: opcodes|<row> for each layer row.

Standard library only; timings use time.perf_counter.
"""
from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import operator
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.append(str(SRC))
sys.path.append(str(SRC.parent / "tests"))

from graphgen import brieskorn_pham_graph  # noqa: E402
from opcodes import opcode_count  # noqa: E402
from topzeta import arith, binomial, checks, lys, ratfun, resolution, \
    suspension  # noqa: E402
from topzeta.resolution import graph_to_json  # noqa: E402

# the modules the row groups read by these names; compare_rows rebinds the
# names to the measured tree's modules before each group
MODULES = ("arith", "binomial", "checks", "lys", "ratfun", "resolution",
           "suspension")

REPEATS = 5
ROUNDS = 9
SHAPES_PER_Q = 12
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GRAPH_DIRS = (FIXTURES, FIXTURES.parent / "perfbench" / "data")
CURVES = ("a3_graph", "cusp_graph", "triple_cusp_graph", "two_cusp_graph")
SUSPEND_K = 6
L_LADDER = (1, 2, 3, 5, 6, 10, 27, 30, 54, 97)
CALLS_PER_TWIST = 200
LYS_FIXTURES = ("lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                "lys_kashiwara_Ib", "lys_kashiwara_IbL")
LYS_K_MAX = 24
LYS_SURFACES = ("lys_kashiwara_Ib", "lys_kashiwara_IbL")
CURVE_VERTICES = (31, 61, 101, 151)
HOLOMORPHY_SURFACE = "lys_kashiwara_IbL"
HOLOMORPHY_SUBJECTS = ("triple_cusp_graph", "cusp3_susp")
CHECK_FIXTURES = (*CURVES, "cusp3_susp", *LYS_FIXTURES)
# k -> lys.germ_from_json calls per timing of cusp3_susp at that k
SUSPENSION_KS = {2: 20, 5040: 5, 720720: 1}
SUBSTITUTE_DEGREES = (1, 2, 4, 8, 16)
SHARED_FORMS = (1, 2, 4, 8, 16)
SUM_TERMS = (2, 4, 8, 16)
CONSTRUCTIONS = 2000
IMPORT_SPAWNS = 5
# set while each tree's row groups run once more after the timed rounds:
# per_case_us then returns a count of bytecode events in place of a timing
COUNTING = False


def grid_shapes(q_values=(1, 2, 3)) -> list[tuple]:
    """Criterion 5's (N, nu) shapes."""
    pairs = [(n_j, nu_j) for n_j in range(1, 7) for nu_j in range(1, 4)]
    shapes = []
    for q in q_values:
        for shape in itertools.combinations_with_replacement(pairs, q):
            shapes.append((tuple(p[0] for p in shape),
                           tuple(p[1] for p in shape)))
    return shapes


def germs(shapes) -> list:
    return [binomial.BinomialGerm(m, k, n_vec, nu_vec, nu_z)
            for n_vec, nu_vec in shapes for m in range(0, 5)
            for k in range(1, 7) for nu_z in range(1, 5)]


def per_case_us(fn, cases, scale: float = 1) -> float:
    """Median over REPEATS of the microseconds per call of fn on cases,
    divided by scale (1e3 for milliseconds); while COUNTING, the bytecode
    events of fn on its first case instead."""
    if COUNTING:
        return opcode_count(fn, *cases[0])
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for case in cases:
            fn(*case)
        samples.append((time.perf_counter() - start) / len(cases) * 1e6)
    return statistics.median(samples) / scale


def cli_import_ms() -> float:
    """Median over IMPORT_SPAWNS fresh interpreters, which import topzeta
    from the measured tree's src/, of the milliseconds to import
    topzeta.cli."""
    probe = ("import time; t = time.perf_counter(); import topzeta.cli; "
             "print((time.perf_counter() - t) * 1e3)")
    env = dict(os.environ, PYTHONPATH=str(Path(arith.__file__).parents[1]))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", probe], check=True,
                             env=env, stdout=subprocess.PIPE,
                             text=True).stdout)
        for _ in range(IMPORT_SPAWNS))


def construct_rows() -> dict:
    """Microseconds per construction of the value types built in the inner
    loops: RatFun and MotTerm (grid terms), BinomialGerm (grid germs) and
    CheckItem (one per checked twist when a holomorphy report's items are
    read, and one per failing twist in the check itself)."""
    g = binomial.BinomialGerm(2, 4, (2, 6), (1, 2), 3)
    term = binomial.motivic_w(g, binomial.RHO)[0]
    f = ratfun.RatFun.inv_linear(1, 1) + ratfun.RatFun.inv_linear(2, 3)
    cases = {"RatFun": (ratfun.RatFun, (f.num, f.scale, f.forms)),
             "MotTerm": (binomial.MotTerm, (
                 term.order, term.cofactor, term.atoms, term.domain,
                 term.nu_vec, term.weights, term.monomials)),
             "BinomialGerm": (binomial.BinomialGerm,
                              (g.m, g.k, g.N, g.nu, g.nu_z)),
             "CheckItem": (checks.CheckItem, (7, True, ""))}
    rows = {f"construct_us|{name}": per_case_us(cls, [args] * CONSTRUCTIONS)
            for name, (cls, args) in cases.items()}
    graphs = stored_graphs()
    rows[f"construct_ms|graph_from_json,graphs={len(graphs)}"] = per_case_us(
        lambda: [resolution.graph_from_json(g) for g in graphs], [()], 1e3)
    return rows


def stored_graphs() -> list[dict]:
    """Every resolution graph (a JSON object with "vertices") in the JSON
    files of GRAPH_DIRS, however deeply nested."""
    def walk(obj):
        if isinstance(obj, dict) and "vertices" in obj:
            yield obj
        elif isinstance(obj, (dict, list)):
            for value in obj.values() if isinstance(obj, dict) else obj:
                yield from walk(value)

    return [g for d in GRAPH_DIRS for path in sorted(d.glob("*.json"))
            for g in walk(json.loads(path.read_text(encoding="utf-8")))]


def ratfun_rows() -> dict:
    """RatFun addition, microseconds per sum of the two terms
    a = 1/((s + 1) ... (s + n) (2s + 1)) and 3/((s + 1) ... (s + n) (3s + 1)):
    the n shared forms are held at equal power, so each is tried for
    cancellation; per one-term sum_inv_products that builds a; per product
    a * c with c = (s + 1) ... (s + n)/(3s + 1),
    whose numerator cancels the n forms; per quotient a / d with
    d = (3s + 1)/((s + 1) ... (s + n)), whose factored reciprocal c
    cancels them; and per RatFun.sum of n terms.  Every input is built by
    one-term sum_inv_products."""
    rows = {}
    term = ratfun.RatFun.sum_inv_products
    for n in SHARED_FORMS:
        shared = [(i, 1) for i in range(1, n + 1)]
        terms = [(1, shared + [(1, 2)]), (3, shared + [(1, 3)])]
        a, b = [term([t]) for t in terms]
        rows[f"ratfun_add_us|shared={n}"] = per_case_us(
            operator.add, [(a, b)] * CALLS_PER_TWIST)
        rows[f"sum_inv_products_us|shared={n}"] = per_case_us(
            ratfun.RatFun.sum_inv_products, [(terms,)] * CALLS_PER_TWIST)
        rows[f"sum_inv_products_one_us|shared={n}"] = per_case_us(
            ratfun.RatFun.sum_inv_products, [(terms[:1],)] * CALLS_PER_TWIST)
        c = term([(1, [(1, 3)], ratfun.linear_product(shared))])
        rows[f"ratfun_mul_us|shared={n}"] = per_case_us(
            operator.mul, [(a, c)] * CALLS_PER_TWIST)
        d = term([(1, shared, (1, 3))])
        rows[f"ratfun_div_us|shared={n}"] = per_case_us(
            operator.truediv, [(a, d)] * CALLS_PER_TWIST)
    # n terms (i + 1)/((s + 1)^(1 + i % 2) ((i + 1) s + 1)), as suspend_G's
    # cone terms: one form shared at unequal powers, one of their own
    for n in SUM_TERMS:
        terms = [term([(i + 1, [(1, 1)] * (1 + i % 2) + [(1, i + 1)])])
                 for i in range(n)]
        rows[f"ratfun_sum_us|terms={n}"] = per_case_us(
            ratfun.RatFun.sum, [(terms,)] * CALLS_PER_TWIST)
    # (1 + s + ... + s^d)/((2s + 1)(2s + 3) ... (2s + 2d - 1)) at suspend_G's
    # r = ((m+k)s + nu_z)/k for m = 1, k = 6, nu_z = 1
    for d in SUBSTITUTE_DEGREES:
        f = term([(1, [(2 * i + 1, 2) for i in range(d)], (1,) * (d + 1))])
        rows[f"substitute_affine_us|deg={d}"] = per_case_us(
            f.substitute_affine,
            [(Fraction(7, 6), Fraction(1, 6))] * CALLS_PER_TWIST)
    return rows


def layer_rows() -> dict:
    rows = {}
    rng = random.Random(4)
    for q in (1, 2, 3):
        shapes = rng.sample(grid_shapes((q,)), SHAPES_PER_Q)
        keys = sorted({(k, n_vec) for n_vec, _ in shapes for k in range(1, 7)})
        key_germs = [(binomial.BinomialGerm(0, k, n_vec, n_vec, 1),)
                     for k, n_vec in keys]

        def cold_cone(g):
            binomial._cone_data_cached.cache_clear()
            binomial.cone_multiplicities(g)

        rows[f"cone_multiplicities_cold_us|q={q}"] = \
            per_case_us(cold_cone, key_germs)
        cases = [(g, b) for g in germs(shapes) for b in binomial.BULLETS]
        for g, _ in cases:
            binomial.cone_multiplicities(g)
        rows[f"w_top_us|q={q}"] = per_case_us(binomial.w_top, cases)
        rows[f"motivic_w_us|q={q}"] = per_case_us(binomial.motivic_w, cases)
        exprs = [(binomial.motivic_w(g, b),) for g, b in cases]
        rows[f"euler_specialize_us|q={q}"] = \
            per_case_us(binomial.euler_specialize, exprs)
        rows[f"cases|q={q}"] = len(cases)
    return rows


def load(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def twist_rows() -> dict:
    """suspend_G, ztop_from_strata, LysSurface, lys_charpoly and lys_ztop at
    l = 1, microseconds per call."""
    rows = {}
    for name in LYS_FIXTURES:
        base = lys.lys_from_json(load(name))
        fields = [(base.n, base.m, k, base.chi_complement,
                   base.chi_curve_smooth, base.points)
                  for k in range(1, LYS_K_MAX + 1)]
        surfaces = [lys.LysSurface(*f) for f in fields]
        rows[f"lys_construct_us|{name}"] = per_case_us(lys.LysSurface, fields)
        rows[f"lys_charpoly_us|{name}"] = per_case_us(
            lys.lys_charpoly, [(S,) for S in surfaces])
        rows[f"lys_ztop_us|{name},l=1"] = per_case_us(
            lys.lys_ztop, [(S, 1) for S in surfaces])
    for name in ("x5y6", "lvp"):
        prof = suspension.profile_from_json(load(f"{name}_profile"))
        for m in (0, 2):
            for l in L_LADDER:
                rows[f"suspend_G_us|{name},m={m},l={l}"] = per_case_us(
                    suspension.suspend_G,
                    [(prof, m, SUSPEND_K, 1, l)] * CALLS_PER_TWIST)
    for name in CURVES:
        res = resolution.strata_of_graph(resolution.graph_from_json(load(name)))
        rows[f"ztop_from_strata_us|{name}"] = per_case_us(
            resolution.ztop_from_strata,
            [(res, l) for l in range(1, 13)] * (CALLS_PER_TWIST // 12))
    return rows


def zero_twist_rows() -> dict:
    """Microseconds per twist at zero and at nonzero twists, and one whole
    holomorphy check; a zero twist is an l whose function is zero."""
    rows = {}

    def split(fn, ells):
        zero = [l for l in ells if fn(l).is_zero()]
        return zero, sorted(set(ells) - set(zero))

    for name in LYS_SURFACES:
        surface = lys.lys_from_json(load(name))
        closure = lys.lys_orders(surface)
        zero, _ = split(partial(lys.lys_ztop, surface),
                        range(2, checks.default_l_max(closure) + 1))
        _, nonzero = split(partial(lys.lys_ztop, surface), sorted(closure))
        for kind, ells in (("zero", zero), ("nonzero", nonzero)):
            rows[f"lys_ztop_us|{name},{kind},twists={len(ells)}"] = \
                per_case_us(lys.lys_ztop, [(surface, l) for l in ells])
    for name in ("x5y6", "lvp"):
        prof = suspension.profile_from_json(load(f"{name}_profile"))
        for m in (0, 2):
            l_top = 2 * (m + SUSPEND_K) * arith.lcm_all(prof.support())
            zero, _ = split(partial(suspension.suspend_G, prof, m, SUSPEND_K,
                                    1), range(1, l_top + 1))
            rows[f"suspend_G_zero_us|{name},m={m},twists={len(zero)}"] = \
                per_case_us(suspension.suspend_G,
                            [(prof, m, SUSPEND_K, 1, l) for l in zero])
    for name in CURVES:
        res = resolution.strata_of_graph(resolution.graph_from_json(load(name)))
        l_top = 2 * arith.lcm_all(c.N for c in res.components)
        zero, _ = split(partial(resolution.ztop_from_strata, res),
                        range(1, l_top + 1))
        rows[f"ztop_from_strata_zero_us|{name},twists={len(zero)}"] = \
            per_case_us(resolution.ztop_from_strata,
                        [(res, l) for l in zero])
    for name in (HOLOMORPHY_SURFACE, *HOLOMORPHY_SUBJECTS):
        subject = lys.germ_from_json(load(name))
        family, orders = subject.zeta.entry, subject.delta.root_orders()
        closure = arith.divisor_closure(orders)
        twists = sum(1 for l in range(2, checks.default_l_max(orders) + 1)
                     if l not in closure)
        rows[f"check_holomorphy_ms|{name},twists={twists}"] = per_case_us(
            checks.check_holomorphy, [(family, orders)] * 20, 1e3)
        if name == HOLOMORPHY_SURFACE:
            rows[f"holomorphy_report_ms|{name}"] = per_case_us(
                lambda *args: checks.check_holomorphy(*args).to_json(),
                [(family, orders)] * 20, 1e3)
    for name in CHECK_FIXTURES:
        rows[f"subject_summary_ms|{name}"] = per_case_us(
            lys.germ_from_json, [(load(name),)] * 20, 1e3)
    for k, reads in SUSPENSION_KS.items():
        rows[f"subject_summary_ms|cusp3_susp,k={k}"] = per_case_us(
            lys.germ_from_json, [(dict(load("cusp3_susp"), k=k),)] * reads,
            1e3)
    for name in LYS_FIXTURES:
        rows[f"lys_summary_ms|{name}"] = per_case_us(
            lys.lys_summary, [(lys.lys_from_json(load(name)),)] * 20, 1e3)
    return rows


def curve_rows() -> dict:
    """Z^(1) of large curves: milliseconds per graph_from_json of the
    resolution graph of x^(V-1) + y^V, per ztop_from_strata on it, whose
    V vertices each give a stratum term with a form of its own, and per
    solve_multiplicities of that graph from its self-intersections."""
    rows = {}
    for v in CURVE_VERTICES:
        obj = graph_to_json(brieskorn_pham_graph(v - 1, v))
        rows[f"construct_ms|graph_from_json,V={v}"] = per_case_us(
            resolution.graph_from_json, [(obj,)], 1e3)
        graph = resolution.graph_from_json(obj)
        res = resolution.strata_of_graph(graph)
        rows[f"curve_ztop_ms|V={v}"] = per_case_us(
            resolution.ztop_from_strata, [(res, 1)], 1e3)
        self_intersections = {u.id: u.self_intersection
                              for u in graph.vertices}
        rows[f"solve_multiplicities_ms|V={v}"] = per_case_us(
            resolution.solve_multiplicities,
            [(self_intersections, graph.arrows, graph.edges)], 1e3)
    return rows


def grid_seconds() -> float:
    """One pass of the criterion-5 grid from a cleared cone cache."""
    binomial._cone_data_cached.cache_clear()
    start = time.perf_counter()
    cases = 0
    for n_vec, nu_vec in grid_shapes():
        for m in range(0, 5):
            for k in range(1, 7):
                for nu_z in range(1, 5):
                    g = binomial.BinomialGerm(m, k, n_vec, nu_vec, nu_z)
                    for b in binomial.BULLETS:
                        cases += 1
                        if binomial.euler_specialize(binomial.motivic_w(g, b)) \
                                != binomial.w_top(g, b):
                            raise SystemExit(f"oracle mismatch at {g}, {b}")
    elapsed = time.perf_counter() - start
    if cases != 637_920:
        raise SystemExit(f"grid has {cases} cases, expected 637,920")
    return elapsed


GROUPS = {"cli_import": lambda: {"cli_import_ms": cli_import_ms()},
          "construct": construct_rows, "ratfun": ratfun_rows,
          "layers": layer_rows, "twists": twist_rows,
          "zero_twists": zero_twist_rows, "curves": curve_rows,
          "grid": lambda: {"criterion5_grid_s": grid_seconds()}}


def src_lines(package: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(package.glob("*.py")))


def load_tree(src: Path, name: str) -> dict:
    """The MODULES of the topzeta package under src, imported as the package
    `name`: its relative imports resolve inside it, so two trees load side
    by side without sharing a module."""
    spec = importlib.util.spec_from_file_location(
        name, src / "topzeta" / "__init__.py",
        submodule_search_locations=[str(src / "topzeta")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def compare_rows(parent: Path) -> list[dict]:
    """A before (parent) and an after (this checkout) row from the same
    ROUNDS rounds, in alternating order; each value is the median over
    the rounds.  A group reads the modules bound to the names of MODULES,
    which are set to the measured tree's before each call; each row also
    holds the count_rows of its tree."""
    trees = {"before": load_tree(parent, "topzeta_before"),
             "after": load_tree(SRC, "topzeta_after")}
    samples: dict[str, dict[str, list]] = {"before": {}, "after": {}}
    for r in range(ROUNDS):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for group in GROUPS.values():
            for label in order:
                globals().update(trees[label])
                for key, value in group().items():
                    samples[label].setdefault(key, []).append(value)
    rows = []
    for label, values in samples.items():
        grid = values.pop("criterion5_grid_s")
        imports = values.pop("cli_import_ms")
        rows.append({
            "label": label,
            "machine": {"python": platform.python_version(),
                        "platform": platform.platform(),
                        "nproc": os.cpu_count()},
            "layers": {key: statistics.median(v) for key, v in values.items()},
            "end_to_end": {"criterion5_grid_s": statistics.median(grid),
                           "criterion5_grid_samples_s": grid,
                           "criterion5_grid_cases": 637_920,
                           "cli_import_ms": statistics.median(imports),
                           "cli_import_samples_ms": imports},
            "src_lines": src_lines(
                Path(trees[label]["arith"].__file__).parent),
            "rounds": ROUNDS,
        })
    for row, counts in zip(rows, count_rows(trees).values()):
        row["counts"] = counts
    return rows


def count_rows(trees: dict) -> dict:
    """For each tree, opcodes|<row>: the bytecode events of one call of
    each layer row, the first case of its timing.  The row groups run once
    more per tree with COUNTING set, after the timed rounds, so each tree's
    caches are in the state that the same rounds left them in; cli_import
    and grid are end-to-end timings and have no count."""
    global COUNTING
    COUNTING = True
    try:
        counts = {}
        for label, modules in trees.items():
            globals().update(modules)
            counts[label] = {
                f"opcodes|{key}": value for name, group in GROUPS.items()
                if name not in ("cli_import", "grid")
                for key, value in group().items()
                if not key.startswith("cases|")}
        return counts
    finally:
        COUNTING = False


def timings(row: dict) -> dict:
    """The medians of a before or after row, and its counts, by key."""
    e2e = row["end_to_end"]
    return {**{k: v for k, v in row["layers"].items()
                if not k.startswith("cases|")},
            "criterion5_grid_s": e2e["criterion5_grid_s"],
            "cli_import_ms": e2e["cli_import_ms"], **row["counts"]}


def noise_row(before: dict, after: dict) -> dict:
    """after/before of each timing, for a tree compared with itself."""
    old = timings(before)
    return {"label": "noise", "machine": after["machine"],
            "rounds": ROUNDS, "ratios": {
                k: v / old[k] for k, v in timings(after).items()}}


def count_ratio_row(before: dict, after: dict) -> dict:
    """after/before of each count that both trees have: exact, where the
    timings' ratios carry the host's noise."""
    old, new = before["counts"], after["counts"]
    return {"label": "count_ratio", "machine": after["machine"],
            "ratios": {k: new[k] / old[k] for k in new if k in old}}


def noise_band(noise: list[dict]) -> dict:
    """The least and greatest after/before ratio of each timing and count
    over the noise rows."""
    keys = noise[-1]["ratios"]
    return {"label": "noise_band", "runs": len(noise), "band": {
        k: [min(r["ratios"][k] for r in noise),
            max(r["ratios"][k] for r in noise)] for k in keys}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="PARENT_SRC", type=Path,
                        help="src/ of the parent tree")
    parser.add_argument("--out", help="BENCH_*.json to update")
    args = parser.parse_args(argv)
    if not args.compare or not args.out:
        parser.error("--compare and --out are required")

    new_rows = compare_rows(args.compare.resolve())
    out = Path(args.out)
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"] \
        if out.exists() else []
    if args.compare.resolve() == SRC:
        rows = [r for r in rows if r["label"] != "noise_band"]
        rows += [noise_row(*new_rows)]
        rows += [noise_band([r for r in rows if r["label"] == "noise"])]
    else:
        rows = [r for r in rows if r["label"] not in (
            "before", "after", "count_ratio")] \
            + new_rows + [count_ratio_row(*new_rows)]
    out.write_text(json.dumps({"rows": rows}, indent=2) + "\n",
                   encoding="utf-8")
    json.dump(new_rows, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
