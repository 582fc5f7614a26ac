"""Time the import of the CLI, value-type construction, RatFun addition,
the binomial, suspension, strata and Le-Yomdin layers, the holomorphy check
and the criterion-5 motivic grid; write BENCH_*.json.

Usage:
    python3 scripts/bench.py --compare ../parent/src --out BENCH_N.json

--compare PARENT_SRC measures two trees in the same rounds: each round runs
every row group (cli_import, construct, ratfun, layers, twists,
zero_twists, grid) in a child process for PARENT_SRC and for this
checkout's src/, back to back, the parent first in odd rounds and second
in even ones.  It writes a "before"
and an "after" row, each value the median over the rounds, so host drift
falls on both rows alike instead of reading as a change between them.
Comparing a tree with itself (--compare src) shows the noise floor.

The two rows replace the before and after rows of the output file and
keep the others.  Each row holds:

  * machine: Python version, platform and CPU count;
  * layers: microseconds per construction of RatFun, MotTerm,
    BinomialGerm and CheckItem from fields taken from the grid and the
    holomorphy check; microseconds per sum of two terms over n shared
    forms, for each n of SHARED_FORMS, of RatFun a + b and of
    RatFun.sum_inv_products; microseconds per case of w_top, motivic_w
    and euler_specialize on a fixed sample of the grid's shapes at
    q = 1, 2, 3 (cone cache warm),
    microseconds per (k, N) key of cone_multiplicities with the cone
    cache cleared, microseconds per twist of suspend_G on the x5y6 and lvp
    profiles (m = 0 and 2, k = SUSPEND_K, each l of L_LADDER) and of
    ztop_from_strata on each curve fixture (l = 1..12); microseconds per
    twist of lys_ztop on LYS_SURFACES at the zero twists up to the default
    l_max and at the nonzero twists of the order closure, per zero twist
    of suspend_G (the same profiles, l <= 2 (m+k) lcm(support)) and of
    ztop_from_strata (l <= 2 lcm(N)), and milliseconds per check_holomorphy
    at the default l_max on HOLOMORPHY_SURFACE; each the median over the
    rounds of a median of REPEATS timings;
  * end_to_end: the criterion-5 grid (1,329 shapes, 637,920 germ/cone
    cases, euler_specialize(motivic_w) == w_top checked on each) from a
    cleared cone cache, once per round, in seconds; and the milliseconds
    to `import topzeta.cli` in a fresh interpreter, the median of
    IMPORT_SPAWNS interpreters per round (it includes compiling the
    sources wherever the interpreter writes no bytecode cache, as under
    PYTHONDONTWRITEBYTECODE);
  * src_lines: the line count of the measured topzeta package;
  * rounds: the number of rounds.

Standard library only; timings use time.perf_counter.
"""
from __future__ import annotations

import argparse
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
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.append(str(SRC))

from topzeta import arith, binomial, checks, lys, ratfun, resolution, \
    suspension  # noqa: E402

REPEATS = 5
ROUNDS = 9
SHAPES_PER_Q = 12
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CURVES = ("a3_graph", "cusp_graph", "triple_cusp_graph", "two_cusp_graph")
SUSPEND_K = 6
L_LADDER = (1, 2, 3, 5, 6, 10, 27, 30, 54, 97)
CALLS_PER_TWIST = 200
LYS_SURFACES = ("lys_kashiwara_Ib", "lys_kashiwara_IbL")
HOLOMORPHY_SURFACE = "lys_kashiwara_IbL"
SHARED_FORMS = (1, 2, 4, 8, 16)
CONSTRUCTIONS = 2000
IMPORT_SPAWNS = 5


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


def per_case_us(fn, cases) -> float:
    """Median over REPEATS of the microseconds per call of fn on cases."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for case in cases:
            fn(*case)
        samples.append((time.perf_counter() - start) / len(cases) * 1e6)
    return statistics.median(samples)


def cli_import_ms() -> float:
    """Median over IMPORT_SPAWNS fresh interpreters, which import topzeta
    from this process's PYTHONPATH, of the milliseconds to import
    topzeta.cli."""
    probe = ("import time; t = time.perf_counter(); import topzeta.cli; "
             "print((time.perf_counter() - t) * 1e3)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", probe], check=True,
                             stdout=subprocess.PIPE, text=True).stdout)
        for _ in range(IMPORT_SPAWNS))


def construct_rows() -> dict:
    """Microseconds per construction of the value types built in the inner
    loops: RatFun and MotTerm (grid terms), BinomialGerm (grid germs) and
    CheckItem (one per holomorphy twist)."""
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
    return {f"construct_us|{name}": per_case_us(cls, [args] * CONSTRUCTIONS)
            for name, (cls, args) in cases.items()}


def ratfun_rows() -> dict:
    """RatFun addition, microseconds per sum of the two terms
    1/((s + 1) ... (s + n) (2s + 1)) and 3/((s + 1) ... (s + n) (3s + 1)):
    the n shared forms are held at equal power, so each is tried for
    cancellation."""
    rows = {}
    for n in SHARED_FORMS:
        shared = [(i, 1) for i in range(1, n + 1)]
        terms = [(1, shared + [(1, 2)]), (3, shared + [(1, 3)])]
        a, b = [ratfun.RatFun.scaled_inv_product(c, f) for c, f in terms]
        rows[f"ratfun_add_us|shared={n}"] = per_case_us(
            operator.add, [(a, b)] * CALLS_PER_TWIST)
        rows[f"sum_inv_products_us|shared={n}"] = per_case_us(
            ratfun.RatFun.sum_inv_products, [(terms,)] * CALLS_PER_TWIST)
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
    """suspend_G and ztop_from_strata, microseconds per call."""
    rows = {}
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
    surface = lys.lys_from_json(load(HOLOMORPHY_SURFACE))
    closure = lys.lys_orders(surface)
    twists = sum(1 for l in range(2, checks.default_l_max(closure) + 1)
                 if l not in closure)
    rows[f"check_holomorphy_ms|{HOLOMORPHY_SURFACE},twists={twists}"] = \
        per_case_us(checks.check_holomorphy,
                    [(partial(lys.lys_ztop, surface), closure)]) / 1e3
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
          "zero_twists": zero_twist_rows,
          "grid": lambda: {"criterion5_grid_s": grid_seconds()}}


def src_lines(package: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(package.glob("*.py")))


def run_group(src: Path, group: str) -> dict:
    """One row group measured in a child process importing topzeta from
    src."""
    proc = subprocess.run(
        [sys.executable, __file__, "--group", group],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE,
        check=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare_rows(parent: Path) -> list[dict]:
    """A before (parent) and an after (this checkout) row from the same
    ROUNDS rounds, in alternating order; each value is the median over
    the rounds."""
    trees = {"before": parent, "after": SRC}
    samples: dict[str, dict[str, list]] = {"before": {}, "after": {}}
    for r in range(ROUNDS):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for group in GROUPS:
            for label in order:
                for key, value in run_group(trees[label], group).items():
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
            "src_lines": src_lines(trees[label] / "topzeta"),
            "rounds": ROUNDS,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="PARENT_SRC", type=Path,
                        help="src/ of the parent tree")
    parser.add_argument("--out", help="BENCH_*.json to update")
    parser.add_argument("--group", choices=GROUPS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.group:
        print(json.dumps(GROUPS[args.group]()))
        return 0
    if not args.compare or not args.out:
        parser.error("--compare and --out are required")

    new_rows = compare_rows(args.compare.resolve())
    out = Path(args.out)
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"] \
        if out.exists() else []
    rows = [r for r in rows if r["label"] not in ("before", "after")] \
        + new_rows
    out.write_text(json.dumps({"rows": rows}, indent=2) + "\n",
                   encoding="utf-8")
    json.dump(new_rows, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
