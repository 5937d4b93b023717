#!/usr/bin/env python3
"""The engine benchmark: one workload per invocation, from a checkout root.

    python3 enginebench/run.py --workload shell_echo --seed 1 --seconds 10 --trace 0

Every measurement runs in a fresh child interpreter (``child.py``), so
each launch is also one cold start.  ``--trace 0`` launches the plain
workload ``LAUNCHES`` times and prints the end-to-end metrics;
``--trace 1`` interleaves plain, wrapped (per-layer) and reference
launches and prints the per-layer metrics.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds diagnostics (sample counts, tails, host steal).
The exit code is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from layers import quantile  # noqa: E402

#: Plain launches per end-to-end run: each gives one cold-start set-up
#: sample and one timed segment, and every metric is their median.
LAUNCHES = 10

#: Rounds of interleaved launches in a traced run.
TRACE_ROUNDS = 3

#: A whole invocation must finish within this many seconds.
RUN_BUDGET_S = 170.0

#: Unit of every per-layer metric a traced run prints.
PER_LAYER_UNITS = {
    "inputs.pull_wait_ms_p50": "ms",
    "template.render_us_p50": "us",
    "template.renders_per_job": "count",
    "scheduler.dispatch_wait_us_p50": "us",
    "scheduler.delivery_lag_us_p50": "us",
    "scheduler.delivery_lag_us_p90": "us",
    "backends.run_job_us_p50": "us",
    "backends.run_job_self_us_p50": "us",
    "backends.overhead_us_p50": "us",
    "backends.ctx_switches_per_job": "count",
    "backends.spawn_ceiling_jobs_per_s": "1/s",
    "backends.engine_vs_ceiling": "ratio",
    "output.push_us_p50": "us",
    "output.pending_max": "count",
    "joblog.write_us_p50": "us",
    "job.record_us_p50": "us",
    "obs.tracer_calls_per_job": "count",
    "obs.tracer_us_per_job": "us",
    "obs.trace_bytes_per_job": "bytes",
    "obs.trace_cost_ratio": "ratio",
    "remote.place_us_p50": "us",
    "remote.ensure_us_p50": "us",
    "remote.ensure_self_us_p50": "us",
    "remote.put_us_p50": "us",
    "remote.get_us_p50": "us",
    "remote.execute_us_p50": "us",
    "remote.files_staged": "count",
    "remote.cache_hit_ratio": "ratio",
    "remote.bytes_moved_per_job": "bytes",
    "setup.interpreter_ms": "ms",
    "setup.import_core_ms": "ms",
    "setup.import_remote_ms": "ms",
    "setup.prepare_ms": "ms",
    "latency.arrival_p90_ms": "ms",
    "latency.arrival_p99_ms": "ms",
    "latency.samples": "count",
    "trace.shim_overhead_ratio": "ratio",
    "proc.steal_frac": "ratio",
    "proc.loadavg_1m": "load",
}


def read_steal() -> tuple[int, int]:
    """(steal ticks, total ticks) of the host CPU line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def launch_plan(workload: str, trace: bool) -> list[str]:
    if not trace:
        return ["plain"] * LAUNCHES
    extra = {"shell_echo": ["ceiling"], "callable_traced": ["notrace"]}.get(workload, [])
    return (["plain", "shimmed"] + extra) * TRACE_ROUNDS


def launch(workload: str, seed: str, seconds: float, kind: str, work: str,
           spans: str, env: dict, deadline: float) -> dict:
    """Start one child interpreter, wait for it, return its report."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, seed,
           f"{seconds:.6f}", kind, spans]
    t_launch = time.time()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"kind": kind, "attempted": 1, "failed": 1, "errors": ["launch timed out"]}
    lines = stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"kind": kind, "attempted": 1, "failed": 1,
                "errors": [f"launch exited with {proc.returncode}"]}
    report = json.loads(lines[-1])
    report["kind"] = kind
    report["t_launch"] = t_launch
    return report


def write_pool(work: str, seed: int) -> None:
    base, files = wl.remote_pool(seed)
    os.makedirs(os.path.join(work, "in"))
    with open(os.path.join(work, "in", "base.dat"), "wb") as fh:
        fh.write(base)
    for i, data in enumerate(files):
        with open(os.path.join(work, wl.pool_path(i)), "wb") as fh:
            fh.write(data)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def of(reports: list[dict], kind: str) -> list[dict]:
    return [r for r in reports if r["kind"] == kind and "jobs_per_s" in r]


def end_to_end(reports: list[dict]) -> tuple[dict, dict]:
    plain = of(reports, "plain")
    latencies = [x for r in plain for x in r["latency_ms"]]
    metrics = {
        "jobs_per_s": (median([r["jobs_per_s"] for r in plain]), "1/s"),
        "coordinator_cpu_ms_per_job": (median([r["cpu_ms_per_job"] for r in plain]), "ms"),
        "arrival_latency_p50_ms": (median([quantile(r["latency_ms"], 0.5) for r in plain]), "ms"),
        "setup_s": (median([r["first_pull_wall"] - r["t_launch"] for r in plain]), "s"),
        "peak_rss_mb": (median([r["rss_mb"] for r in plain]), "MiB"),
    }
    detail = {
        "latency.samples": len(latencies),
        "latency.arrival_p90_ms": quantile(latencies, 0.9),
        "latency.arrival_p99_ms": quantile(latencies, 0.99),
        "jobs_per_s_per_launch": [round(r["jobs_per_s"], 2) for r in plain],
        "setup_s_per_launch": [round(r["first_pull_wall"] - r["t_launch"], 4) for r in plain],
        "stream.generator_late_ms_p90": median([r["generator_late_ms_p90"] for r in plain]),
    }
    return metrics, detail


def per_layer(reports: list[dict], e2e: dict, detail: dict) -> dict:
    plain, shimmed = of(reports, "plain"), of(reports, "shimmed")
    layer_rows = [r["layers"] for r in shimmed]
    names = sorted({k for row in layer_rows for k in row})
    metrics = {k: median([row.get(k, 0.0) for row in layer_rows]) for k in names}

    def med(key: str, rows: list[dict]) -> float:
        return median([r[key] for r in rows])

    for key in ("import_core_ms", "import_remote_ms", "prepare_ms"):
        metrics[f"setup.{key}"] = median([r["setup"][key] for r in shimmed])
    metrics["setup.interpreter_ms"] = median(
        [(r["t_main"] - r["t_launch"]) * 1e3 for r in plain + shimmed])
    plain_rate = e2e["jobs_per_s"][0]
    metrics["trace.shim_overhead_ratio"] = med("jobs_per_s", shimmed) / plain_rate
    notrace = of(reports, "notrace")
    metrics["obs.trace_cost_ratio"] = plain_rate / med("jobs_per_s", notrace) if notrace else 0.0
    ceiling = of(reports, "ceiling")
    ceiling_rate = med("jobs_per_s", ceiling) if ceiling else 0.0
    metrics["backends.spawn_ceiling_jobs_per_s"] = ceiling_rate
    metrics["backends.engine_vs_ceiling"] = plain_rate / ceiling_rate if ceiling_rate else 0.0
    for key in ("latency.arrival_p90_ms", "latency.arrival_p99_ms", "latency.samples",
                "proc.steal_frac", "proc.loadavg_1m"):
        metrics[key] = float(detail[key])
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("enginebench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    # Launches measure an installed engine's cold start, not bytecode
    # compilation of a fresh checkout.
    compileall.compile_dir(src, quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)

    bench_dir = os.path.join(root, ".bench_work")
    work = os.path.join(bench_dir, f"{ns.workload}-{os.getpid()}")
    spans_dir = os.path.join(bench_dir, "spans")
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(spans_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["TMPDIR"] = os.path.join(work, "tmp")
    steal0 = read_steal()
    try:
        if ns.workload == "remote_staged":
            write_pool(work, ns.seed)
        plan = launch_plan(ns.workload, bool(ns.trace))
        seconds = ns.seconds / len(plan)
        reports = []
        for i, kind in enumerate(plan):
            spans = os.path.join(spans_dir, f"{ns.workload}-{i}.jsonl")
            reports.append(launch(ns.workload, wl.launch_seed(ns.seed, i, kind),
                                  seconds, kind, work, spans, env, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1 = read_steal()

    attempted = sum(r.get("attempted", 0) for r in reports)
    failed = sum(r.get("failed", 0) for r in reports)
    wrapped = sorted({w for r in reports if r["kind"] != "shimmed" for w in r.get("wrapped", ())})
    errors = [e for r in reports for e in r.get("errors", ())]
    if wrapped:
        errors.append(f"layer wrappers active in an untraced launch: {wrapped}")
    correct = not errors and failed == 0 and bool(of(reports, "plain"))

    e2e, detail = end_to_end(reports) if correct else ({}, {})
    ticks = steal1[1] - steal0[1]
    detail["proc.steal_frac"] = (steal1[0] - steal0[0]) / ticks if ticks > 0 else 0.0
    detail["proc.loadavg_1m"] = os.getloadavg()[0]
    detail["errors"] = errors[:10]
    if not correct:
        metrics = {}
    elif ns.trace:
        layer = per_layer(reports, e2e, detail)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in e2e.items()}
    print(json.dumps({"workload": ns.workload, "seed": ns.seed, "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
