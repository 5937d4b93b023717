#!/usr/bin/env python3
"""Dispatch-throughput runner: the engine's analog of the paper's Fig. 3.

Measures single-node job launch/completion throughput through the real
engine — the metric the paper's low-overhead claim rests on — for:

* ``callable``: no-op Python callables (pure engine bookkeeping cost);
* ``callable_traced``: the same run with ``--trace``-style tracing live —
  the observability subsystem's overhead bound (must stay within 10% of
  the untraced rate);
* ``subprocess``: real ``/bin/true`` jobs (fork+exec included) through
  the engine's one local spawn path;
* ``spawn_ceiling``: a raw serial posix_spawn+waitpid loop — the
  kernel's process-creation ceiling the subprocess rates are bounded by;
* ``template``: per-job command-render cost (hot-path microcost).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_dispatch.py --label after \
        --out BENCH_pr2.json

The output file accumulates one entry per label, so a before/after pair
lives in a single tracked JSON (the repo's perf trajectory seed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import Parallel  # noqa: E402
from repro.core.template import CommandTemplate  # noqa: E402


def _noop(_x):
    return None


def bench_callable(n: int = 2000, jobs: int = 8, repeats: int = 5) -> dict:
    """Jobs/s through the engine with a no-op Python callable."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        summary = Parallel(_noop, jobs=jobs).run(range(n))
        dt = time.perf_counter() - t0
        assert summary.n_succeeded == n, summary.n_failed
        rates.append(n / dt)
    return {"n": n, "jobs": jobs, "repeats": repeats,
            "jobs_per_s": statistics.median(rates),
            "jobs_per_s_best": max(rates)}


def bench_callable_traced(n: int = 2000, jobs: int = 8, repeats: int = 5) -> dict:
    """Jobs/s with a full RunTracer (Chrome trace sink) attached."""
    import tempfile

    from repro.core.options import Options
    from repro.obs import RunTracer

    rates = []
    with tempfile.TemporaryDirectory() as td:
        for i in range(repeats):
            trace = os.path.join(td, f"bench-{i}.trace.json")
            tracer = RunTracer.from_options(
                Options(trace=trace, metrics_interval=0.5)
            )
            options = Options(jobs=jobs, tracer=tracer)
            t0 = time.perf_counter()
            summary = Parallel(_noop, options=options).run(range(n))
            dt = time.perf_counter() - t0
            assert summary.n_succeeded == n, summary.n_failed
            assert os.path.exists(trace), "trace file was not written"
            rates.append(n / dt)
    return {"n": n, "jobs": jobs, "repeats": repeats,
            "jobs_per_s": statistics.median(rates),
            "jobs_per_s_best": max(rates)}


def bench_subprocess(n: int = 300, jobs: int = 8, repeats: int = 3) -> dict:
    """Jobs/s launching real /bin/true subprocesses."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        summary = Parallel("true # {}", jobs=jobs).run(range(n))
        dt = time.perf_counter() - t0
        assert summary.n_succeeded == n, summary.n_failed
        rates.append(n / dt)
    return {"n": n, "jobs": jobs, "repeats": repeats,
            "jobs_per_s": statistics.median(rates),
            "jobs_per_s_best": max(rates)}


def _serial_spawn_loop(n: int) -> float:
    """One tight posix_spawn+waitpid pass over /bin/true; returns jobs/s."""
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            pid = os.posix_spawn(
                "/bin/sh", ["sh", "-c", "true"], os.environ,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, devnull, 0),
                    (os.POSIX_SPAWN_DUP2, devnull, 1),
                    (os.POSIX_SPAWN_DUP2, devnull, 2),
                ],
            )
            os.waitpid(pid, 0)
        dt = time.perf_counter() - t0
    finally:
        os.close(devnull)
    return n / dt


def bench_spawn_ceiling(n: int = 400, repeats: int = 3) -> dict:
    """The machine's raw serial process-creation ceiling (no engine).

    A tight ``posix_spawn``+``waitpid`` loop over ``/bin/true`` — the
    kernel-imposed upper bound on any subprocess dispatch rate on this
    box (the per-node fork-rate ceiling the paper's scaling model divides
    by).  The ``subprocess`` benchmark can approach but never exceed
    this; report the engine's efficiency against it rather than chasing
    absolute jobs/s across differently-sized machines.

    Repeated like every other variant (median + best-of) so the
    ceiling-vs-achieved ratio in the BENCH JSONs is stable run-to-run:
    a one-shot probe made the denominator the noisiest number in the
    file.
    """
    if not hasattr(os, "posix_spawn"):
        return {"n": 0, "jobs_per_s": 0.0, "jobs_per_s_best": 0.0,
                "supported": False}
    rates = [_serial_spawn_loop(n) for _ in range(repeats)]
    return {"n": n, "repeats": repeats,
            "jobs_per_s": statistics.median(rates),
            "jobs_per_s_best": max(rates), "supported": True}


def bench_fork_contention(n: int = 300, workers=(1, 2, 4),
                          repeats: int = 3) -> dict:
    """Aggregate spawn rate of K concurrent serial spawner processes.

    The paper's Fig. 3 in miniature: each worker process runs the same
    tight posix_spawn+waitpid loop as ``spawn_ceiling``; the aggregate
    rate over K workers maps the node's fork-bandwidth curve.  On a
    multi-vCPU box the curve rises toward the node ceiling before
    flattening; on 1 vCPU it is flat-to-falling from K=1 (pure
    contention) — both shapes calibrate the simulator's per-node
    ``fork_rate`` (see ``repro.cluster.machines.fork_rate_from_curve``).
    """
    import multiprocessing

    if not hasattr(os, "posix_spawn"):
        return {"supported": False, "curve": {}}

    def worker(count, q):
        q.put(_serial_spawn_loop(count))

    ctx = multiprocessing.get_context("fork")
    curve = {}
    for k in workers:
        per_worker = max(1, n // k)
        aggregates = []
        for _ in range(repeats):
            q = ctx.SimpleQueue()
            procs = [ctx.Process(target=worker, args=(per_worker, q))
                     for _ in range(k)]
            t0 = time.perf_counter()
            for p in procs:
                p.start()
            for p in procs:
                p.join()
            dt = time.perf_counter() - t0
            assert all(p.exitcode == 0 for p in procs)
            # Drain per-worker rates (sanity), but the aggregate is
            # wall-clock: total spawns / elapsed — what a node delivers.
            while not q.empty():
                q.get()
            aggregates.append(per_worker * k / dt)
        curve[str(k)] = {"aggregate_jobs_per_s": statistics.median(aggregates),
                         "aggregate_jobs_per_s_best": max(aggregates),
                         "n_per_worker": per_worker, "repeats": repeats}
    peak = max(v["aggregate_jobs_per_s"] for v in curve.values())
    return {"supported": True, "curve": curve,
            "peak_aggregate_jobs_per_s": peak}


def bench_remote_local_transport(
    n: int = 200, hosts: int = 4, slots: int = 2, repeats: int = 3
) -> dict:
    """Jobs/s through RemoteBackend + LocalTransport on a 4-host roster.

    The full remote path per job — least-loaded placement, per-host
    re-render, transport execute, health bookkeeping — with the cheapest
    real transport, so the number isolates coordination overhead over the
    plain ``subprocess`` rate rather than network cost.
    """
    roster = ",".join(f"{slots}/bench{i}" for i in range(hosts))
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        summary = Parallel("true # {}", sshlogin=[roster]).run(range(n))
        dt = time.perf_counter() - t0
        assert summary.n_succeeded == n, summary.n_failed
        rates.append(n / dt)
    return {"n": n, "hosts": hosts, "slots": slots, "repeats": repeats,
            "jobs_per_s": statistics.median(rates),
            "jobs_per_s_best": max(rates)}


def bench_template(iters: int = 50_000) -> dict:
    """Renders/s for a realistic multi-token template."""
    t = CommandTemplate("convert {1} -scale {2}% {1/.}_{2}.png {#} {%}")
    args = ("/data/images/photo.jpg", "50")
    out = t.render(args, seq=1, slot=1)
    assert "photo_50.png" in out
    t0 = time.perf_counter()
    for i in range(iters):
        t.render(args, seq=i, slot=7)
    dt = time.perf_counter() - t0
    return {"iters": iters, "renders_per_s": iters / dt}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--label", default="run",
                    help="entry name in the output JSON (e.g. before/after)")
    ap.add_argument("--out", default=None,
                    help="JSON file to merge results into (default: stdout)")
    ap.add_argument("--quick", action="store_true",
                    help="smaller problem sizes (CI smoke run)")
    ns = ap.parse_args(argv)

    if ns.quick:
        results = {
            "callable": bench_callable(n=400, repeats=3),
            "callable_traced": bench_callable_traced(n=400, repeats=3),
            "subprocess": bench_subprocess(n=100, repeats=2),
            "spawn_ceiling": bench_spawn_ceiling(n=150, repeats=2),
            "fork_contention": bench_fork_contention(n=100, repeats=2),
            "remote_local": bench_remote_local_transport(n=80, repeats=2),
            "template": bench_template(iters=10_000),
        }
    else:
        results = {
            "callable": bench_callable(),
            "callable_traced": bench_callable_traced(),
            "subprocess": bench_subprocess(),
            "spawn_ceiling": bench_spawn_ceiling(),
            "fork_contention": bench_fork_contention(),
            "remote_local": bench_remote_local_transport(),
            "template": bench_template(),
        }
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "results": results,
    }
    for name, r in results.items():
        rate = (r.get("jobs_per_s") or r.get("renders_per_s")
                or r.get("peak_aggregate_jobs_per_s") or 0.0)
        print(f"{ns.label:>8s}  {name:<18s} {rate:12.1f} /s")
    if ns.out:
        doc = {}
        if os.path.exists(ns.out):
            with open(ns.out, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        doc[ns.label] = entry
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"[merged into {ns.out}]")
    else:
        json.dump(entry, sys.stdout, indent=1)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
