"""The benchmark's own tests.

Run from the root of a topzeta checkout:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

run.import_program()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SELF_TIME_BOUND = 0.01   # share of the wall time measured outside the tracer


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result: dict, spec_metrics: list[dict]) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec_metrics}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "5",
                             "--seconds", "0", "--trace", "0", "--ops", "2"))
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["attempted"] == 2
    assert result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", "1", "--ops", "2")
    result = result_of(proc)
    assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
    assert (ROOT / meta["trace_file"]).is_file()


def test_same_seed_same_inputs():
    def labels(seed):
        return [op.label for op in workloads.setup_holomorphy(
            seed, workloads.Counts())]
    assert labels(3) == labels(3)
    assert labels(3) != labels(4)


# -- a wrong or raising operation counts as failed ----------------------------


def corrupted_refs(monkeypatch, refs_file: str, label: str, corrupt):
    load = workloads.load_refs

    def load_corrupted(name):
        refs = load(name)
        if name == refs_file:
            refs = copy.deepcopy(refs)
            corrupt(refs[label])
        return refs

    monkeypatch.setattr(workloads, "load_refs", load_corrupted)


def failed_count(workload: str, labels: list[str]) -> int:
    wl = workloads.WORKLOADS[workload]
    ops = [op for op in wl.setup(1, workloads.Counts()) if op.label in labels]
    assert len(ops) == len(labels)
    loop = run.run_loop(ops, wl.whole_passes, 0, len(ops))
    return len(loop["failures"])


@pytest.mark.parametrize("workload,refs_file,label,other,corrupt", [
    ("lys-survey", "lys_survey.json", "lys_xyz_k1|k=1", "lys_xyz_k2|k=1",
     lambda ref: ref.update(text=ref["text"] + " ")),
    ("holomorphy-sweep", "holomorphy_sweep.json", "curve:cusp_graph",
     "curve:a3_graph", lambda ref: ref["zeta1"]["num"].append("1")),
    ("cli-oneshot", "cli_oneshot.json", "text:fbad", "json:fbad",
     lambda ref: ref.update(stdout=ref["stdout"].replace("18", "19"))),
    ("cli-oneshot", "cli_oneshot.json", "json:fbad", "text:fbad",
     lambda ref: ref.update(exit=1)),
])
def test_corrupted_reference_counts_as_failed(monkeypatch, workload,
                                              refs_file, label, other,
                                              corrupt):
    assert failed_count(workload, [label, other]) == 0
    corrupted_refs(monkeypatch, refs_file, label, corrupt)
    assert failed_count(workload, [label, other]) == 1


@pytest.mark.parametrize("fault", ["wrong", "raise"])
def test_motivic_oracle_mismatch_counts_as_failed(monkeypatch, fault):
    from topzeta import binomial
    w_top = binomial.w_top

    def faulty(germ, bullet):
        if bullet == binomial.RHO and germ.k == 6:
            if fault == "raise":
                raise ArithmeticError("injected")
            return w_top(germ, bullet) + 1
        return w_top(germ, bullet)

    shape, other = "shape ((1, 1),)", "shape ((2, 1),)"
    assert failed_count("motivic-grid", [shape, other]) == 0
    monkeypatch.setattr(binomial, "w_top", faulty)
    assert failed_count("motivic-grid", [shape, other]) == 2


def test_random_holomorphy_subject_must_pass(monkeypatch):
    from topzeta import checks
    subject = next(s for s in workloads.random_subjects(
        random.Random(1)) if s.label == "random1:curve")
    counts = workloads.Counts()
    assert workloads.holomorphy_random_passes(subject, counts)
    monkeypatch.setattr(checks, "check_holomorphy",
                        lambda family, orders: checks.Report("holomorphy", (
                            checks.CheckItem("2", False),)))
    assert not workloads.holomorphy_random_passes(subject, counts)


# -- tracing -------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["lys-survey", "holomorphy-sweep",
                                      "motivic-grid"])
def test_traced_self_times_sum_to_wall_time(workload):
    from topzeta import ratfun
    add = ratfun.RatFun.__add__
    wl = workloads.WORKLOADS[workload]
    tracer = Tracer()
    counts = workloads.Counts(tracer=tracer)
    tracer.install()
    try:
        t0 = perf_counter()
        ops = tracer.call("bench.setup", wl.setup, 1, counts)[:3]
        setup_s = perf_counter() - t0
        loop = run.run_loop(ops, wl.whole_passes, 0, 3, tracer)
    finally:
        tracer.uninstall()
    assert ratfun.RatFun.__add__ is add
    assert not loop["failures"]
    # the set-up and each operation are root spans, timed here from outside
    wall = setup_s + sum(loop["raw"])
    totals = tracer.totals()
    self_sum = sum(self_s for _, self_s in totals.values())
    assert abs(self_sum - wall) <= SELF_TIME_BOUND * wall
    assert all(self_s >= 0 for _, self_s in totals.values())
    # every stored span lies inside its parent
    by_id = {s[0]: s for s in tracer.spans}
    for sid, _, t0, t1, parent in tracer.spans:
        assert t0 <= t1
        if parent in by_id:
            assert by_id[parent][2] <= t0 and t1 <= by_id[parent][3]
    layers = {name for name, (calls, _) in totals.items() if calls}
    assert "ratfun.ring" in layers and "bench.op" in layers


def test_useful_twist_ratio_is_a_share():
    wl = workloads.WORKLOADS["holomorphy-sweep"]
    tracer = Tracer(max_spans=0)
    counts = workloads.Counts(tracer=tracer)
    tracer.install()
    try:
        ops = [op for op in wl.setup(1, counts)
               if op.label in ("susp2:triple_cusp_graph",
                               "curve:triple_cusp_graph")]
        run.run_loop(ops, True, 0, 2, tracer)
    finally:
        tracer.uninstall()
    assert counts.twists > 0
    assert 0 < counts.useful_twists < counts.twists


# -- the checkout is required ---------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "motivic-grid", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- speed scaling ---------------------------------------------------------------


def test_scale_leaves_out_probes_and_scales_each_stretch():
    from speed import REFERENCE_PROBE_S, SpeedProbe
    probe = SpeedProbe()
    ref = REFERENCE_PROBE_S
    probe.cuts = [(0.0, 1.0, ref), (5.0, 6.0, 2 * ref), (10.0, 11.0, ref)]
    raw, scaled = probe.scale([(1.0, 10.0), (6.5, 9.5)])
    # 4 s and 4 s, each between probes of ref and 2 ref; then 3 s
    assert raw == pytest.approx([8.0, 3.0])
    assert scaled == pytest.approx([8.0 / 1.5, 3.0 / 1.5])


def test_timer_probes_while_a_block_runs():
    from speed import PROBE_INTERVAL_S, SpeedProbe
    probe = SpeedProbe()
    probe.sample()
    t0 = perf_counter()
    with probe.every(PROBE_INTERVAL_S):
        while perf_counter() - t0 < 3.5 * PROBE_INTERVAL_S:
            pass
    t1 = perf_counter()
    probe.sample()
    assert len(probe.cuts) == 5
    (raw,), (scaled,) = probe.scale([(t0, t1)])
    probe_s = sum(end - start for start, end, _ in probe.cuts[1:4])
    assert raw == pytest.approx(t1 - t0 - probe_s)
    assert scaled > 0
