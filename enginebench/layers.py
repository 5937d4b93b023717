"""Per-layer timing from outside the engine, for traced runs only.

:class:`Recorder` replaces public entry points of each ``repro`` layer
with timing wrappers, keeps the spans in memory keyed by job seq, and
turns them into the per-layer metrics after the run.  Nothing here is
imported or installed by an untraced (end-to-end) launch.

A span is ``(name, seq, start, end, thread)`` on the ``perf_counter``
clock.  Spans without their own seq argument (host placement, staging,
channel calls) take the seq of the ``run_job`` call running on the same
thread.  A span's self time is its duration minus the time covered by
the spans directly nested inside it on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from typing import Callable

clock = time.perf_counter

#: Marker set on every installed wrapper, so a check can find them.
MARK = "__enginebench_wrapper__"

#: (module, class, attribute, span name, how to find the job seq)
_TARGETS = (
    ("repro.core.template", "CommandTemplate", "render", "template.render", "kw_seq"),
    ("repro.core.output", "OutputSequencer", "push", "output.push", "result"),
    ("repro.core.joblog", "JoblogWriter", "write", "joblog.write", "result"),
    ("repro.core.job", "RunSummary", "record", "job.record", "result"),
    ("repro.remote.hosts", "HostPool", "acquire", "remote.place", "current"),
    ("repro.remote.cache", "StagingCache", "ensure", "remote.ensure", "current"),
)

_BACKENDS = (
    ("repro.core.backends.local", "LocalShellBackend"),
    ("repro.core.backends.callable_backend", "CallableBackend"),
    ("repro.remote.backend", "RemoteBackend"),
)

_CHANNEL_VERBS = ("put", "get", "execute")


def _owner(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


def wrapped_targets() -> list[str]:
    """Names of engine entry points that currently carry a timing wrapper."""
    found = []
    owners = [(m, c) for m, c, *_ in _TARGETS] + list(_BACKENDS)
    owners += [("repro.obs.tracer", "RunTracer"), ("repro.remote.transport", "LocalTransport")]
    for module, cls in owners:
        owner = _owner(module, cls)
        for attr, value in vars(owner).items() if owner is not None else ():
            if getattr(value, MARK, False):
                found.append(f"{cls}.{attr}")
    return found


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0..1) by nearest rank; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Recorder:
    """Installs the wrappers, collects spans, computes layer metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, int]] = []
        #: seq -> (run_job entry, run_job exit, job's own end - start)
        self.run_jobs: dict[int, tuple[float, float, float]] = {}
        # Worker threads append to these lists; a list append is atomic,
        # a counter's read-modify-write is not.
        self.pending: list[int] = []
        self.moved_bytes: list[int] = []
        self.ensure_hits: list[bool] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        setattr(wrapper, MARK, True)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _timed(self, fn: Callable, name: str, seq_of: str, after=None) -> Callable:
        spans, local, get_ident = self.spans, self._local, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            if seq_of == "kw_seq":
                seq = kwargs.get("seq", 0)
            elif seq_of == "result":
                seq = args[1].seq
            else:
                seq = getattr(local, "seq", 0)
            spans.append((name, seq, t0, t1, get_ident()))
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point this engine version has."""
        for module, cls, attr, name, seq_of in _TARGETS:
            owner = _owner(module, cls)
            if owner is None or attr not in vars(owner):
                continue
            after = None
            if name == "output.push":
                after = self._after_push
            elif name == "remote.ensure":
                after = self._after_ensure
            self._patch(owner, attr, self._timed(vars(owner)[attr], name, seq_of, after))
        for module, cls in _BACKENDS:
            owner = _owner(module, cls)
            if owner is not None and "run_job" in vars(owner):
                self._patch(owner, "run_job", self._run_job_wrapper(vars(owner)["run_job"]))
        tracer = _owner("repro.obs.tracer", "RunTracer")
        if tracer is not None:
            for attr, value in list(vars(tracer).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    self._patch(tracer, attr, self._tracer_wrapper(value))
        transport = _owner("repro.remote.transport", "LocalTransport")
        if transport is not None and "open_channel" in vars(transport):
            self._patch(transport, "open_channel",
                        self._open_channel_wrapper(vars(transport)["open_channel"]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- special wrappers ----------------------------------------------------
    def _after_push(self, args, _out) -> None:
        self.pending.append(getattr(args[0], "pending", 0))

    def _after_ensure(self, _args, out) -> None:
        self.ensure_hits.append(isinstance(out, tuple) and bool(out[-1]))

    def _run_job_wrapper(self, fn: Callable) -> Callable:
        spans, local, run_jobs = self.spans, self._local, self.run_jobs
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def run_job(backend, job, *args, **kwargs):
            local.seq = job.seq
            t0 = clock()
            result = fn(backend, job, *args, **kwargs)
            t1 = clock()
            local.seq = 0
            spans.append(("backends.run_job", job.seq, t0, t1, get_ident()))
            run_jobs[job.seq] = (t0, t1, result.end_time - result.start_time)
            return result

        return run_job

    def _tracer_wrapper(self, fn: Callable) -> Callable:
        """Times only the outermost tracer call on each thread."""
        spans, local = self.spans, self._local
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = getattr(local, "tracer_depth", 0)
            local.tracer_depth = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                local.tracer_depth = depth
                if depth == 0:
                    spans.append(("obs.tracer", getattr(local, "seq", 0), t0, clock(), get_ident()))

        return traced

    def _open_channel_wrapper(self, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def open_channel(transport, host):
            channel = fn(transport, host)
            for verb in _CHANNEL_VERBS:
                method = getattr(channel, verb, None)
                if method is not None:
                    after = recorder._after_transfer if verb in ("put", "get") else None
                    setattr(channel, verb,
                            recorder._timed(method, f"remote.{verb}", "current", after))
            return channel

        return open_channel

    def _after_transfer(self, _args, out) -> None:
        if isinstance(out, int):
            self.moved_bytes.append(out)

    # -- results -------------------------------------------------------------
    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its direct children's."""
        by_thread: dict[int, list] = {}
        for span in self.spans:
            by_thread.setdefault(span[4], []).append(span)
        out: dict[str, list[float]] = {}
        for spans in by_thread.values():
            spans.sort(key=lambda s: (s[2], -s[3]))
            stack: list[list] = []  # [name, end, duration, child time]
            for name, _seq, t0, t1, _tid in spans:
                while stack and stack[-1][1] <= t0:
                    done = stack.pop()
                    out.setdefault(done[0], []).append(done[2] - done[3])
                if stack:
                    stack[-1][3] += t1 - t0
                stack.append([name, t1, t1 - t0, 0.0])
            for done in stack:
                out.setdefault(done[0], []).append(done[2] - done[3])
        return out

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, _seq, t0, t1, _tid in self.spans:
            out.setdefault(name, []).append(t1 - t0)
        return out

    def metrics(self, jobs: int, pulls: list[float]) -> dict[str, float]:
        """The per-layer metrics of one traced launch.

        ``pulls[i]`` is when the engine pulled job ``i + 1``'s input.
        """
        jobs = max(jobs, 1)
        dur = self.durations()
        self_t = self.self_times()
        us = 1e6

        def p50_us(name: str, table=dur) -> float:
            return quantile(table.get(name, []), 0.5) * us

        waits = [t0 - pulls[seq - 1] for seq, (t0, _t1, _own) in self.run_jobs.items()
                 if 0 < seq <= len(pulls)]
        overhead = [(t1 - t0) - own for t0, t1, own in self.run_jobs.values()]
        return {
            "template.render_us_p50": p50_us("template.render"),
            "template.renders_per_job": len(dur.get("template.render", [])) / jobs,
            "scheduler.dispatch_wait_us_p50": quantile(waits, 0.5) * us,
            "backends.run_job_us_p50": p50_us("backends.run_job"),
            "backends.run_job_self_us_p50": p50_us("backends.run_job", self_t),
            "backends.overhead_us_p50": quantile(overhead, 0.5) * us,
            "output.push_us_p50": p50_us("output.push"),
            "output.pending_max": float(max(self.pending, default=0)),
            "joblog.write_us_p50": p50_us("joblog.write"),
            "job.record_us_p50": p50_us("job.record"),
            "obs.tracer_calls_per_job": len(dur.get("obs.tracer", [])) / jobs,
            "obs.tracer_us_per_job": sum(dur.get("obs.tracer", [])) * us / jobs,
            "remote.place_us_p50": p50_us("remote.place"),
            "remote.ensure_us_p50": p50_us("remote.ensure"),
            "remote.ensure_self_us_p50": p50_us("remote.ensure", self_t),
            "remote.put_us_p50": p50_us("remote.put"),
            "remote.get_us_p50": p50_us("remote.get"),
            "remote.execute_us_p50": p50_us("remote.execute"),
            "remote.files_staged": float(self.ensure_hits.count(False)),
            "remote.cache_hit_ratio": sum(self.ensure_hits) / max(len(self.ensure_hits), 1),
            "remote.bytes_moved_per_job": sum(self.moved_bytes) / jobs,
        }

    def write(self, path: str) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


class TimedSource:
    """Wraps the input iterator handed to the engine; times each pull."""

    def __init__(self, inner) -> None:
        self._inner = iter(inner)
        self.waits: list[float] = []

    def __iter__(self) -> "TimedSource":
        return self

    def __next__(self):
        t0 = clock()
        try:
            return next(self._inner)
        finally:
            self.waits.append(clock() - t0)
