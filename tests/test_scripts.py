import importlib.util
import subprocess
import sys

import pytest

from conftest import FIXTURES

SCRIPTS = FIXTURES.parent / "scripts"


@pytest.mark.parametrize("name", ["suspension_table.py", "lys_survey.py",
                                  "conjecture_sweep.py"])
def test_script_runs(name):
    done = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_counts_read_exactly_1_on_one_tree():
    # --compare src: the same tree loaded twice gives every layer
    # row the same count; the first pass fills the caches, as the timed
    # rounds do
    bench = load_script("bench.py")
    trees = {label: bench.load_tree(bench.SRC, f"topzeta_count_{label}")
             for label in ("before", "after")}
    bench.count_rows(trees)
    counts = bench.count_rows(trees)
    assert counts["before"] == counts["after"]
    assert len(counts["after"]) > 100
    assert counts["after"]["opcodes|lys_charpoly_us|lys_kashiwara_Ib"] < 1000
    ratios = bench.count_ratio_row(*[{"counts": c, "machine": None}
                                     for c in counts.values()])["ratios"]
    assert set(ratios.values()) == {1.0}


def test_pairs_summary():
    # medians, the parent's interquartile range, the change in % and the
    # pairs won; a pair with a failed run counts as run and not won, and
    # is left out of the medians
    pairs = load_script("pairs.py")
    runs = {"parent": [10, 12, 11, 13, 99], "change": [14, 15, 12, 16, 1]}
    records = [{"pair": i, "side": side, "exit": 0 if i < 5 else 2,
                "meta": {"raw": {"throughput_per_s": v}},
                "result": {"attempted": 100, "failed": side == "change",
                           "metrics": {
                               "throughput_per_s": {"value": v},
                               "latency_ms_p50": {"value": 1 / v}}}}
               for side, values in runs.items()
               for i, v in enumerate(values, 1)]
    summary = pairs.summarize(records, {"throughput_per_s": "higher",
                                        "latency_ms_p50": "lower"})
    assert summary["pairs_run"] == 5 and summary["pairs_complete"] == 4
    assert summary["operations"]["change"] == {"attempted": 500, "failed": 5}
    throughput = summary["metrics"]["throughput_per_s"]
    assert throughput == summary["raw"]["throughput_per_s"]
    assert throughput["parent_median"] == 11.5
    assert throughput["change_median"] == 14.5
    assert throughput["parent_iqr"] == 1.5
    assert throughput["change_pct"] == (14.5 / 11.5 - 1) * 100
    assert throughput["pairs_won"] == 4 and throughput["beyond_parent_iqr"]
    assert summary["metrics"]["latency_ms_p50"]["pairs_won"] == 4
    assert pairs.seed_range("41-50") == list(range(41, 51))
    assert pairs.summarize(records[:1] + records[5:6], {})["metrics"] == {}
