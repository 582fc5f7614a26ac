#!/usr/bin/env python3
"""Capture the benchmark's correctness references from the current code.

Run from the root of a topzeta checkout:

    python3 perfbench/capture.py

Writes data/triple_cusp_strata.json (the stratification that the README's
`zeta strata` command reads, derived from fixtures/triple_cusp_graph.json),
data/random_germs.json (the population of random germs that
holomorphy-sweep samples from; see random_germs below) and refs/*.json:

  lys_survey.json        per (surface, k): zeta, Delta_tilde, order set,
                         monodromy verdict and rendered text;
  holomorphy_sweep.json  per fixture subject: zeta1 and holomorphy verdict
                         (the enumerated twists are left out on purpose, so
                         that a change to which twists are checked keeps
                         the references valid);
  cli_oneshot.json       per README command and format: exit code and
                         stdout.

Only rerun it when a change to the program is meant to change outputs.
"""
from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from math import lcm

import run
from workloads import DATA, REFS, ROOT, Counts, cli_cases, cli_env, \
    fixture, holomorphy_fixture_subjects, holomorphy_item, lys_item, \
    lys_surfaces

RANDOM_POOL = 200
RANDOM_POOL_SEED = 2026
# Germs whose eigenvalue orders have a larger lcm are left out: the sampled
# holomorphy check evaluates up to 2 lcm twists, so one such germ would
# decide a run's cost on its own.  The fixtures keep the large-lcm case
# (lys_kashiwara_IbL, 9,980 twists).
RANDOM_ORDER_LCM_MAX = 120


def write_json(path, obj) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def random_germs() -> dict:
    """RANDOM_POOL germs from tests/graphgen.py with generator seed
    RANDOM_POOL_SEED, keeping those with order lcm <= RANDOM_ORDER_LCM_MAX."""
    from topzeta import resolution
    spec = importlib.util.spec_from_file_location(
        "graphgen", ROOT / "tests" / "graphgen.py")
    graphgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(graphgen)
    generator = random.Random(RANDOM_POOL_SEED)
    germs, generated = [], 0
    while len(germs) < RANDOM_POOL:
        g = graphgen.random_graph(generator)
        generated += 1
        _, delta = resolution.acampo(g)
        if lcm(*delta.root_orders()) <= RANDOM_ORDER_LCM_MAX:
            germs.append(resolution.graph_to_json(g))
    return {"generator_seed": RANDOM_POOL_SEED,
            "order_lcm_max": RANDOM_ORDER_LCM_MAX,
            "generated": generated, "germs": germs}


def main() -> int:
    run.import_program()
    from topzeta import resolution
    graph = resolution.graph_from_json(fixture("triple_cusp_graph"))
    write_json(DATA / "triple_cusp_strata.json",
               resolution.strata_to_json(resolution.strata_of_graph(graph)))
    write_json(DATA / "random_germs.json", random_germs())

    write_json(REFS / "lys_survey.json",
               {label: lys_item(s) for label, s in lys_surfaces()})
    write_json(REFS / "holomorphy_sweep.json",
               {s.label: holomorphy_item(s, Counts())
                for s in holomorphy_fixture_subjects()})

    cli = {}
    for label, argv in cli_cases():
        proc = subprocess.run([sys.executable, "-m", "topzeta.cli", *argv],
                              cwd=ROOT, env=cli_env(), capture_output=True,
                              check=False)
        cli[label] = {"argv": argv, "exit": proc.returncode,
                      "stdout": proc.stdout.decode("utf-8")}
    write_json(REFS / "cli_oneshot.json", cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
