"""The four benchmark workloads.

Each workload's setup(seed, counts) builds the inputs of one pass, in an
order drawn from the seed, and returns them as operations.  An operation
returns True when its output matches the exact oracle or the reference
captured in refs/ (see capture.py); a False return or an exception counts
the operation as failed.  The library sees only the generated inputs.

Library functions are always looked up on their module at call time, so
that a traced run sees the wrapped versions (tracer.py).
"""
from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"
DATA = BENCH / "data"
OUT = BENCH / "out"
FIXTURES = ROOT / "fixtures"

CURVE_FIXTURES = ["triple_cusp_graph", "two_cusp_graph", "a3_graph",
                  "cusp_graph"]
KASHIWARA_PENCILS = ["kashiwara_quartic", "kashiwara_sextic",
                     "kashiwara_degree10"]
LYS_FIXTURES = ["lys_xyz_k1", "lys_xyz_k2", "lys_tacnode_k2",
                "lys_kashiwara_Ib", "lys_kashiwara_IbL"]
LYS_K_MAX = 24
# The seed draws RANDOM_GERMS of the fixed population of germs in
# data/random_germs.json, as motivic-grid draws shapes from the fixed grid,
# so that seeds vary the sample and its order but not the population.
# capture.py made that population with tests/graphgen.py (see NOTE.md).
RANDOM_GERMS = 150

# README commands; "zeta strata" reads the stratification that capture.py
# derives from triple_cusp_graph.json.
CLI_COMMANDS = [
    ("zeta-graph", ["zeta", "graph", "--in", "fixtures/triple_cusp_graph.json",
                    "--ell", "9"]),
    ("zeta-strata", ["zeta", "strata", "--in",
                     "perfbench/data/triple_cusp_strata.json", "--ell", "2"]),
    ("acampo", ["acampo", "--in", "fixtures/triple_cusp_graph.json"]),
    ("suspend", ["suspend", "--in", "fixtures/x5y6_profile.json", "--k", "10",
                 "--ell", "1,3,5,10,15"]),
    ("suspend-matrix", ["suspend", "--in", "fixtures/x5y6_profile.json",
                        "--k", "10", "--ell", "1", "--matrix"]),
    ("lys", ["lys", "--in", "fixtures/lys_tacnode_k2.json", "--ell", "1,2,5"]),
    ("sis", ["sis", "--in", "fixtures/lys_xyz_k1.json", "--ell", "1"]),
    ("charpoly", ["charpoly", "--in", "fixtures/lys_kashiwara_Ib.json"]),
    ("check-monodromy", ["check", "monodromy", "--in",
                         "fixtures/lys_kashiwara_Ib.json"]),
    ("check-holomorphy", ["check", "holomorphy", "--in",
                          "fixtures/cusp3_susp.json", "--lmax", "50"]),
    ("fbad", ["fbad", "--orders", "1,3,7,18,21"]),
]
CLI_FORMATS = ("text", "json")
CLI_TIMEOUT_S = 120


@dataclass
class Counts:
    """Work counters of one run; tracer is set in traced runs."""
    tracer: object = None
    cases: int = 0              # binomial (germ, cone) cases compared
    twists: int = 0             # twists a holomorphy check evaluated
    useful_twists: int = 0      # ... that read a nonzero input term
    child_layers: dict = field(default_factory=dict)  # traced CLI children
    child_wall_s: float = 0.0


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], bool]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Counts], list[Op]]
    # stop only between passes: op costs are heavy-tailed, so a partial
    # pass would make the measured mix depend on the seed's order
    whole_passes: bool
    # operations run in this process (not in a child), so they can be
    # probed for speed while they run (speed.py)
    in_process: bool = True


def fixture(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def load_refs(name: str) -> dict:
    return json.loads((REFS / name).read_text(encoding="utf-8"))


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def matches(ref, compute: Callable[[], dict]) -> bool:
    return canonical(compute()) == canonical(ref)


# ---------------------------------------------------------------------------
# motivic-grid: criterion 5's grid, one shape (N, nu) per operation


def grid_shapes() -> list[tuple]:
    pairs = [(n_j, nu_j) for n_j in range(1, 7) for nu_j in range(1, 4)]
    shapes = []
    for q in (1, 2, 3):
        shapes.extend(itertools.combinations_with_replacement(pairs, q))
    return shapes


def motivic_shape(shape, counts: Counts) -> bool:
    """All m, k, nu_z and cones of one shape; exact oracle
    euler_specialize(motivic_w) == w_top."""
    from topzeta import binomial
    n_vec = tuple(p[0] for p in shape)
    nu_vec = tuple(p[1] for p in shape)
    ok = True
    for m in range(0, 5):
        for k in range(1, 7):
            for nu_z in range(1, 5):
                germ = binomial.BinomialGerm(m, k, n_vec, nu_vec, nu_z)
                for bullet in binomial.BULLETS:
                    counts.cases += 1
                    ok &= (binomial.euler_specialize(
                        binomial.motivic_w(germ, bullet))
                        == binomial.w_top(germ, bullet))
    return ok


def setup_motivic(seed: int, counts: Counts) -> list[Op]:
    shapes = grid_shapes()
    random.Random(seed).shuffle(shapes)
    return [Op(f"shape {s}", partial(motivic_shape, s, counts))
            for s in shapes]


# ---------------------------------------------------------------------------
# lys-survey: the five Le-Yomdin fixtures at k = 1..24


def lys_surfaces():
    """(label, surface) for every survey item, in fixture order."""
    from topzeta import lys
    items = []
    for name in LYS_FIXTURES:
        base = lys.lys_from_json(fixture(name))
        for k in range(1, LYS_K_MAX + 1):
            items.append((f"{name}|k={k}", lys.LysSurface(
                base.n, base.m, k, base.chi_complement, base.chi_curve_smooth,
                base.points)))
    return items


def lys_item(surface) -> dict:
    from topzeta import checks, cyclo, lys, ratfun
    z = lys.lys_ztop(surface, 1)
    _, delta_tilde = lys.lys_charpoly(surface)
    orders = lys.lys_orders(surface)
    report = checks.check_monodromy(z, delta_tilde)
    return {"zeta": z.to_json(),
            "delta_tilde": cyclo.cyclo_to_json(delta_tilde),
            "orders": sorted(orders),
            "monodromy": "pass" if report.passed else "fail",
            "text": ratfun.render_text(z)}


def setup_lys(seed: int, counts: Counts) -> list[Op]:
    refs = load_refs("lys_survey.json")
    items = lys_surfaces()
    random.Random(seed).shuffle(items)
    return [Op(label, partial(matches, refs[label], partial(lys_item, s)))
            for label, s in items]


# ---------------------------------------------------------------------------
# holomorphy-sweep: check_holomorphy at the default l_max per subject


@dataclass(frozen=True)
class Subject:
    label: str
    orders: frozenset
    family: Callable          # l -> Z^(l)
    strata: object = None     # stratification, for curve subjects


def curve_subject(label: str, g) -> Subject:
    from topzeta import resolution
    res = resolution.strata_of_graph(g)
    _, delta = resolution.acampo(g)
    return Subject(label, delta.root_orders(),
                   lambda l: resolution.ztop_from_strata(res, l), res)


def suspension_subject(label: str, g, k: int) -> Subject:
    from topzeta import suspension
    germ = suspension.summary_from_graph(g)
    _, orders = suspension.suspend_orders(germ, k)
    return Subject(label, orders,
                   lambda l: suspension.suspend_G(germ.zeta, 0, k, 1, l))


def lys_subject(label: str, surface) -> Subject:
    from topzeta import lys
    return Subject(label, lys.lys_orders(surface),
                   lambda l: lys.lys_ztop(surface, l))


def fixture_graphs() -> list[tuple[str, dict]]:
    graphs = [(name, fixture(name)) for name in CURVE_FIXTURES]
    for pencil in KASHIWARA_PENCILS:
        for fibre, graph_json in fixture(pencil)["fibers"].items():
            graphs.append((f"{pencil}:{fibre}", graph_json))
    return graphs


def holomorphy_fixture_subjects() -> list[Subject]:
    from topzeta import lys, resolution
    subjects = []
    for name, graph_json in fixture_graphs():
        g = resolution.graph_from_json(graph_json)
        subjects.append(curve_subject(f"curve:{name}", g))
        for k in (2, 3):
            subjects.append(suspension_subject(f"susp{k}:{name}", g, k))
    for name in LYS_FIXTURES:
        subjects.append(lys_subject(f"lys:{name}", lys.lys_from_json(
            fixture(name))))
    return subjects


def random_germs() -> list[dict]:
    return json.loads((DATA / "random_germs.json").read_text(
        encoding="utf-8"))["germs"]


def random_subjects(rng: random.Random) -> list[Subject]:
    from topzeta import resolution
    subjects = []
    for i, graph_json in enumerate(rng.sample(random_germs(), RANDOM_GERMS),
                                   1):
        g = resolution.graph_from_json(graph_json)
        subjects.append(curve_subject(f"random{i}:curve", g))
        subjects.append(suspension_subject(f"random{i}:susp2", g, 2))
    return subjects


def holomorphy_item(subject: Subject, counts: Counts) -> dict:
    from topzeta import checks
    tracer = counts.tracer

    def family(l: int):
        counts.twists += 1
        if tracer is None:
            return subject.family(l)
        tracer.entry_nonzero = False
        z = subject.family(l)
        if subject.strata is not None:
            useful = any(c.N % l == 0 for c in subject.strata.components)
        else:
            useful = tracer.entry_nonzero
        counts.useful_twists += useful
        return z

    if tracer is not None:
        family = tracer.wrap("bench.family", family)
    zeta1 = subject.family(1)
    report = checks.check_holomorphy(family, subject.orders)
    return {"zeta1": zeta1.to_json(),
            "holomorphy": "pass" if report.passed else "fail"}


def holomorphy_random_passes(subject: Subject, counts: Counts) -> bool:
    return holomorphy_item(subject, counts)["holomorphy"] == "pass"


def setup_holomorphy(seed: int, counts: Counts) -> list[Op]:
    refs = load_refs("holomorphy_sweep.json")
    rng = random.Random(seed)
    ops = [Op(s.label, partial(matches, refs[s.label],
                               partial(holomorphy_item, s, counts)))
           for s in holomorphy_fixture_subjects()]
    ops += [Op(s.label, partial(holomorphy_random_passes, s, counts))
            for s in random_subjects(rng)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-oneshot: one `python -m topzeta.cli` child per operation


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli_oneshot(argv: list[str], ref: dict, counts: Counts) -> bool:
    if counts.tracer is None:
        cmd = [sys.executable, "-m", "topzeta.cli", *argv]
    else:
        OUT.mkdir(exist_ok=True)
        out = OUT / "cli-child-layers.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "run.py"), "--cli-child", str(out),
               "--", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S,
                          check=False)
    if counts.tracer is not None:
        merge_child_layers(counts, json.loads(out.read_text(encoding="utf-8")))
    return (proc.returncode == ref["exit"]
            and proc.stdout == ref["stdout"].encode("utf-8"))


def merge_child_layers(counts: Counts, child: dict) -> None:
    counts.child_wall_s += child["wall_s"]
    for layer, (calls, self_s) in child["layers"].items():
        acc = counts.child_layers.setdefault(layer, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s


def cli_cases() -> list[tuple[str, list[str]]]:
    """(label, argv) for each command and output format."""
    return [(f"{fmt}:{name}", ["--format", fmt, *args])
            for name, args in CLI_COMMANDS for fmt in CLI_FORMATS]


def setup_cli(seed: int, counts: Counts) -> list[Op]:
    import topzeta.cli  # noqa: F401  (the program must be importable)
    refs = load_refs("cli_oneshot.json")
    cases = cli_cases()
    random.Random(seed).shuffle(cases)
    return [Op(label, partial(cli_oneshot, argv, refs[label], counts))
            for label, argv in cases]


WORKLOADS = {
    "motivic-grid": Workload(setup_motivic, whole_passes=False),
    "lys-survey": Workload(setup_lys, whole_passes=True),
    "holomorphy-sweep": Workload(setup_holomorphy, whole_passes=True),
    "cli-oneshot": Workload(setup_cli, whole_passes=True, in_process=False),
}
