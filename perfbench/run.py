#!/usr/bin/env python3
"""topzeta benchmark: one workload per run, as a closed loop with one client.

Run from the root of a topzeta checkout:

    python3 perfbench/run.py --workload motivic-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, as a table

The client starts its next operation when the previous one has finished,
until --seconds have passed and at least MIN_OPS operations are done
(workloads with heavy-tailed operations stop only between whole passes).
There is no warm-up: the run pays the library's cache fills, as a user's
process does.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed amount
of work twice, untraced in a child process and traced here, and reports
the per-layer metrics (tracer.py).  The last line of stdout is the result
object; the line before it holds the run's metadata.  NOTE.md explains
the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from speed import PROBE_INTERVAL_S, SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN = BENCH / "run.py"
SPEC = ROOT / "BENCHMARK.json"

MIN_OPS = 100             # at least 10 latency samples beyond p90
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# per-layer metrics named "<tracer layer>.calls", "<tracer layer>_calls",
# "... .self_s" or "..._self_s" are read from the tracer's layer totals;
# measure_traced computes the others one by one
LAYER_FIELD = re.compile(r"^(?P<layer>.+)[._](?P<field>calls|self_s)$")


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile_ms(samples_s: list[float], pct: int) -> float:
    if len(samples_s) < 2:
        return samples_s[0] * 1e3
    if pct == 50:
        return statistics.median(samples_s) * 1e3
    return statistics.quantiles(samples_s, n=100)[pct - 1] * 1e3


def import_program():
    """Import topzeta from this checkout's src/, never from elsewhere."""
    if not (SRC / "topzeta" / "__init__.py").is_file():
        raise BenchError(f"no topzeta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import topzeta
    if Path(topzeta.__file__).resolve().parent != SRC / "topzeta":
        raise BenchError(f"topzeta imported from {topzeta.__file__}")
    import topzeta.cli  # noqa: F401  (loads every module the tracer wraps)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()


# ---------------------------------------------------------------------------
# the measured loop


def run_loop(ops, whole_passes: bool, seconds: float, min_ops: int,
             tracer=None, in_process: bool = True) -> dict:
    """Closed loop over ops; latencies raw and scaled to reference speed.
    Untraced operations that run in this process run back to back under a
    probe timer; the others are probed in between, so that no probe
    competes with a child process or lands in a traced span (speed.py)."""
    if not ops:
        raise BenchError("workload has no operations")
    probe = SpeedProbe()
    timed = in_process and tracer is None
    spans: list[tuple[float, float]] = []
    failures: list[str] = []
    probe.sample()
    start = perf_counter()

    def done() -> bool:
        return len(spans) >= min_ops and perf_counter() - start >= seconds

    with probe.every(PROBE_INTERVAL_S) if timed else contextlib.nullcontext():
        while True:
            for op in ops:
                t0 = perf_counter()
                try:
                    ok = op.run() if tracer is None \
                        else tracer.call("bench.op", op.run)
                except Exception as exc:  # a raising operation fails
                    ok = False
                    failures.append(f"{op.label}: {type(exc).__name__}: "
                                    f"{exc}")
                else:
                    if not ok:
                        failures.append(f"{op.label}: wrong output")
                spans.append((t0, perf_counter()))
                if not timed:
                    probe.sample()
                if not whole_passes and done():
                    break
            if done():
                break
    probe.sample()
    raw, scaled = probe.scale(spans)
    for line in failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    return {"raw": raw, "scaled": scaled, "failures": failures,
            "probe_ms": [c[2] * 1e3 for c in probe.cuts]}


def timing_metrics(loop: dict) -> dict:
    lat = loop["scaled"]
    return {"throughput_per_s": metric(len(lat) / sum(lat), "1/s"),
            "latency_ms_p50": metric(percentile_ms(lat, 50), "ms"),
            "latency_ms_p90": metric(percentile_ms(lat, 90), "ms")}


def raw_timings(loop: dict) -> dict:
    raw = loop["raw"]
    return {"throughput_per_s": len(raw) / sum(raw),
            "latency_ms_p50": percentile_ms(raw, 50),
            "latency_ms_p90": percentile_ms(raw, 90),
            "speed_factor_mean": sum(loop["scaled"]) / sum(raw)}


def probe_summary(probe_ms: list[float]) -> dict:
    """Speed-probe durations of the run; their range shows how far the
    host's speed moved during it."""
    return {"n": len(probe_ms), "min": min(probe_ms),
            "median": statistics.median(probe_ms), "max": max(probe_ms)}


def child(args: list[str], timeout: float = CHILD_TIMEOUT_S, env=None) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError(f"child {args[:3]} exited {proc.returncode}")
    return proc.stdout.decode("utf-8")


def setup_samples(workload: str, seed: int, n: int) -> list[tuple]:
    """(raw, scaled) seconds from spawning a fresh interpreter until its
    inputs are ready: interpreter start, imports, fixtures, profiles and
    seeded inputs.  The child reports the time it got ready on the
    system-wide monotonic clock."""
    probe = SpeedProbe()
    out = []
    for _ in range(n):
        probe.sample()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = float(child([str(RUN), "--setup-only", "--workload", workload,
                             "--seed", str(seed)]).split()[-1])
        probe.sample()
        out.append((ready - t0, (ready - t0) * probe.factor()))
    return out


def import_ms_samples(n: int) -> list[float]:
    """Milliseconds to import topzeta.cli in a fresh interpreter, scaled."""
    from workloads import cli_env
    code = ("import time; t = time.perf_counter(); import topzeta.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    probe = SpeedProbe()
    out = []
    for _ in range(n):
        probe.sample()
        ms = float(child(["-c", code], env=cli_env()))
        probe.sample()
        out.append(ms * probe.factor())
    return out


# ---------------------------------------------------------------------------
# runs


def measure(args, counts) -> tuple[dict, dict]:
    """Untraced run: (result, meta)."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    t0 = perf_counter()
    ops = wl.setup(args.seed, counts)
    own_setup = perf_counter() - t0
    if args.ops:
        ops = ops[:args.ops]
    min_ops = args.ops or MIN_OPS
    seconds = 0 if args.fixed_work else args.seconds
    loop = run_loop(ops, wl.whole_passes, seconds, min_ops,
                    in_process=wl.in_process)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = [(own_setup, own_setup)] if args.fixed_work else \
        setup_samples(args.workload, args.seed,
                      1 if args.ops else SETUP_SAMPLES)
    metrics = timing_metrics(loop)
    metrics["setup_s"] = metric(statistics.median(s for _, s in setups), "s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    failed = len(loop["failures"])
    n = len(loop["raw"])
    result = {"correct": failed == 0, "attempted": n, "failed": failed,
              "metrics": metrics}
    meta = {"latency_samples": n,
            "raw": {**raw_timings(loop),
                    "setup_s": statistics.median(r for r, _ in setups)},
            "setup_samples_s": [s for _, s in setups],
            "probe_ms": probe_summary(loop["probe_ms"])}
    return result, meta


def cli_in_process(min_ops: int, limit: int) -> dict:
    """Loop of topzeta.cli.main(argv) calls in this process."""
    import topzeta.cli
    from workloads import Op, cli_cases, load_refs
    refs = load_refs("cli_oneshot.json")

    def call(label: str, argv: list[str]) -> bool:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = topzeta.cli.main(argv)
        ref = refs[label]
        return code == ref["exit"] and buf.getvalue() == ref["stdout"]

    cases = cli_cases()[:limit] if limit else cli_cases()
    ops = [Op(f"in-process {label}", lambda a=(label, argv): call(*a))
           for label, argv in cases]
    return run_loop(ops, True, 0, min_ops)


def measure_traced(args, counts) -> tuple[dict, dict]:
    """Traced run: per-layer metrics, with the tracing overhead measured
    against an untraced child doing the same fixed amount of work.  Self
    times are scaled to reference speed by the traced loop's mean factor."""
    from tracer import Tracer
    from workloads import OUT, WORKLOADS
    wl = WORKLOADS[args.workload]
    min_ops = args.ops or MIN_OPS
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--trace", "0", "--fixed-work"]
    if args.ops:
        base += ["--ops", str(args.ops)]
    untraced = json.loads(child([str(RUN), *base]).splitlines()[-1])
    import_ms = statistics.median(import_ms_samples(IMPORT_SAMPLES))
    in_process_ms = spawn_ms = 0.0
    failures: list[str] = []
    if args.workload == "cli-oneshot":
        in_process = cli_in_process(min_ops, args.ops)
        failures += in_process["failures"]
        in_process_ms = percentile_ms(in_process["scaled"], 50)
        spawn_ms = untraced["metrics"]["latency_ms_p50"]["value"] \
            - in_process_ms

    tracer = Tracer()
    counts.tracer = tracer
    tracer.install()
    try:
        ops = tracer.call("bench.setup", wl.setup, args.seed, counts)
        if args.ops:
            ops = ops[:args.ops]
        # each operation is a root span, so the speed probes between
        # operations stay out of the traced wall time
        loop = run_loop(ops, wl.whole_passes, 0, min_ops, tracer)
    finally:
        tracer.uninstall()
    failures += loop["failures"]
    traced = timing_metrics(loop)["throughput_per_s"]["value"]
    scale = raw_timings(loop)["speed_factor_mean"]

    totals = {k: list(v) for k, v in tracer.totals().items()}
    wall = tracer.wall_s
    if counts.child_layers:   # cli-oneshot: the traced work ran in children
        totals, wall = counts.child_layers, counts.child_wall_s
    metrics = {}
    for spec in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]:
        match = LAYER_FIELD.match(spec["name"])
        if match:
            calls, self_s = totals.get(match["layer"], (0, 0.0))
            metrics[spec["name"]] = metric(calls, "count") \
                if match["field"] == "calls" else metric(self_s * scale, "s")
    metrics["binomial.cases"] = metric(counts.cases, "count")
    metrics["checks.twists_evaluated"] = metric(counts.twists, "count")
    metrics["checks.useful_twist_ratio"] = metric(
        counts.useful_twists / counts.twists if counts.twists else 0.0,
        "ratio")
    metrics["cli.import_ms"] = metric(import_ms, "ms")
    metrics["cli.in_process_ms_p50"] = metric(in_process_ms, "ms")
    metrics["cli.spawn_overhead_ms"] = metric(spawn_ms, "ms")
    metrics["trace.overhead_ratio"] = metric(
        traced / untraced["metrics"]["throughput_per_s"]["value"], "ratio")

    harness = sum(v[1] for k, v in totals.items() if k.startswith("bench."))
    meta = {"operations": len(loop["raw"]),
            "traced_wall_s": wall,
            "speed_factor_mean": scale,
            "harness_share": harness / wall if wall else 0.0,
            "layers": {k: {"calls": v[0], "self_s": v[1]}
                       for k, v in sorted(totals.items())}}
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_file, {"workload": args.workload, "seed": args.seed})
    meta["trace_file"] = str(trace_file.relative_to(ROOT))
    failed = len(failures) + untraced["failed"]
    result = {"correct": failed == 0, "attempted": len(loop["raw"]),
              "failed": failed, "metrics": metrics}
    return result, meta


def cli_child(out_path: str, argv: list[str]) -> int:
    """One traced `topzeta.cli` invocation; layer totals go to out_path."""
    import topzeta.cli
    from tracer import Tracer
    tracer = Tracer(max_spans=0)
    tracer.install()
    code = tracer.call("bench.run", topzeta.cli.main, argv)
    Path(out_path).write_text(json.dumps(
        {"wall_s": tracer.wall_s,
         "layers": {k: list(v) for k, v in tracer.totals().items()}}),
        encoding="utf-8")
    return code


def run_all(args) -> int:
    """Every workload in its own process, printed as a table."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        cmd = [str(RUN), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        result = json.loads(child(cmd, timeout=None).splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric_name, m in result["metrics"].items():
            print(f"  {metric_name:34s} {m['value']:>14.6g} {m['unit']}")
        status |= result["failed"] != 0
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="tiny run: this many operations per pass and "
                             "run (for the benchmark's own tests)")
    parser.add_argument("--fixed-work", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cli-child", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("cli_argv", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cpus = nproc()
    if hasattr(os, "sched_setaffinity"):
        # one vCPU for this process and the children it starts (speed.py)
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        import_program()
        os.chdir(ROOT)
        if args.cli_child:
            return cli_child(args.cli_child, args.cli_argv)
        if args.workload == "all":
            return run_all(args)
        from workloads import WORKLOADS, Counts
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        counts = Counts()
        if args.setup_only:
            WORKLOADS[args.workload].setup(args.seed, counts)
            print("ready", time.clock_gettime(time.CLOCK_MONOTONIC))
            return 0
        run = measure_traced if args.trace else measure
        result, meta = run(args, counts)
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    meta.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": cpus, "platform": platform.platform(),
        "counts": {"binomial.cases": counts.cases,
                   "checks.twists_evaluated": counts.twists},
        "src_lines": src_line_count()})
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
