"""Run a perfbench workload on two revisions in alternating pairs and
write every run and a summary to one JSON-lines file.

Usage:
    python3 scripts/pairs.py --parent REV --change REV --workload W \
        --seeds A-B --out benchruns/NAME-pairs.jsonl

Each revision is exported with `git archive` into a directory of its own,
and each side runs its own perfbench/run.py there, from its own src/, with
run.py's default run length.  There is one pair per seed of A-B, at least
2: pair i uses seed A + i - 1 on both sides; the parent runs first in odd
pairs and the change first in even ones, so a drift of the host falls on
both sides alike.  One line per run holds the pair, side, revision, seed,
exit code and run.py's metadata and result lines.  The last line is the
summary: the pairs run and the pairs in which both sides ran correctly,
and for each end-to-end metric of the result, and for each raw
(unscaled) value of the metadata, the medians of both sides over the
complete pairs, the parent's interquartile range, the change in % and
the pairs won: those in which the change is better, so a pair with a
failed run is not won.  "Better" is read from BENCHMARK.json (throughput
higher, every other metric lower).  Giving the same revision on both
sides shows how far the medians drift on unchanged code.

Standard library only; the runs are sequential.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def export(rev: str, into: Path) -> None:
    """The files of rev, as `git archive` gives them, under into."""
    archive = io.BytesIO(git("archive", "--format=tar", rev))
    with tarfile.open(fileobj=archive) as tar:
        tar.extractall(into)


def run_side(tree: Path, workload: str, seed: int) -> dict:
    """One run.py run in tree: its exit code and its last two stdout lines,
    the metadata and the result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        return {"exit": done.returncode, "meta": None, "result": None}
    return {"exit": 0, "meta": json.loads(lines[-2])["meta"],
            "result": json.loads(lines[-1])}


def compare(parent: list[float], change: list[float], higher: bool) -> dict:
    """Medians, the parent's interquartile range, the change of the median
    in % and the pairs (parent[i], change[i]) in which the change is
    better."""
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    return {"parent_median": med_p, "change_median": med_c,
            "parent_iqr": q3 - q1,
            "change_pct": (med_c / med_p - 1) * 100 if med_p else None,
            "pairs_won": won,
            "beyond_parent_iqr": abs(med_c - med_p) > q3 - q1}


def summarize(records: list[dict], better: dict[str, str]) -> dict:
    """The pairs run, the pairs in which both sides ran correctly and,
    over the latter, compare() of each result metric and each raw metadata
    value; and the operations attempted and failed on each side."""
    sides = {"parent": {}, "change": {}}
    for r in records:
        sides[r["side"]][r["pair"]] = r
    pairs = sorted(p for p in sides["parent"] if p in sides["change"]
                   and sides["parent"][p]["exit"] == 0
                   and sides["change"][p]["exit"] == 0)

    def block(of):
        """compare() of each value of(run) names, run by run; nothing
        below two complete pairs, which have no interquartile range."""
        if len(pairs) < 2:
            return {}
        return {name: compare([of(sides["parent"][p])[name] for p in pairs],
                              [of(sides["change"][p])[name] for p in pairs],
                              better.get(name) == "higher")
                for name in of(sides["parent"][pairs[0]])}

    ops = {side: {key: sum(r["result"][key] for r in runs.values()
                           if r["result"]) for key in ("attempted", "failed")}
           for side, runs in sides.items()}
    return {"pairs_run": len(sides["parent"].keys() | sides["change"].keys()),
            "pairs_complete": len(pairs), "operations": ops,
            "metrics": block(lambda r: {k: m["value"] for k, m in
                                        r["result"]["metrics"].items()}),
            "raw": block(lambda r: r["meta"]["raw"])}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        metavar="A-B", help="one seed per pair")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds must name at least 2 seeds, one per pair")

    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            .decode().strip()
            for side, rev in (("parent", args.parent),
                              ("change", args.change))}
    better = {m["name"]: m["better"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    records = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        with args.out.open("w", encoding="utf-8") as out:
            for pair, seed in enumerate(args.seeds, 1):
                order = ("parent", "change") if pair % 2 else \
                    ("change", "parent")
                for side in order:
                    record = {"pair": pair, "workload": args.workload,
                              "side": side, "rev": revs[side],
                              "first": order[0], "seed": seed,
                              **run_side(trees[side], args.workload, seed)}
                    records.append(record)
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"pair {pair} {side}: exit {record['exit']}",
                          file=sys.stderr)
            summary = {"summary": summarize(records, better),
                       "workload": args.workload, "parent": revs["parent"],
                       "change": revs["change"], "seeds": args.seeds}
            out.write(json.dumps(summary) + "\n")
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
