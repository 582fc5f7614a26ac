#!/usr/bin/env python3
"""Run workloads over several seeds and record how far the metrics spread.

Run from the root of a topzeta checkout:

    python3 perfbench/repeat.py --seeds 101-110 --out perfbench/runs/ten-seeds.json
    python3 perfbench/repeat.py --workload lys-survey --seeds 1-5

Each run is `run.py` in its own process, with --trace 0 unless told.
For every workload and metric this prints the median over the seeds and
the spread, the interquartile range over the median (statistics.quantiles,
n=4), of the reported (speed-scaled) values and of the raw ones.  --out keeps
every run's result and metadata line as JSON, so that the spreads can be
checked later.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median,
            "spread": (q[2] - q[0]) / median if median else 0.0}


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", default="101-110", help="first-last")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]] \
        if args.workload == "all" else [args.workload]

    record = {"seconds": args.seconds, "trace": int(args.trace),
              "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds_of(args.seeds):
            lines = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace], cwd=ROOT, stdout=subprocess.PIPE,
                text=True, check=True).stdout.splitlines()
            runs.append({"seed": seed, **json.loads(lines[-2]),
                         "result": json.loads(lines[-1])})
            print(name, seed, "failed", runs[-1]["result"]["failed"],
                  flush=True)
        scaled = {m: spread([r["result"]["metrics"][m]["value"]
                             for r in runs])
                  for m in runs[0]["result"]["metrics"]} \
            if len(runs) > 1 else {}
        raw = {m: spread([r["meta"]["raw"][m] for r in runs])
               for m in runs[0]["meta"].get("raw", {})} \
            if len(runs) > 1 else {}
        record["workloads"][name] = {"spread": scaled, "raw_spread": raw,
                                     "runs": runs}
        for m, s in scaled.items():
            r = raw.get(m, {"spread": float("nan")})
            print(f"{name:17s} {m:17s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.3f} (raw {r['spread']:.3f})")
    if args.out:
        args.out.parent.mkdir(exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
