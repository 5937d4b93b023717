"""One fresh-interpreter launch of a workload: set up, run, check, report.

``run.py`` starts this script once per launch and reads the JSON object
it prints as its last stdout line::

    python3 enginebench/child.py WORKLOAD SEED SECONDS KIND SPANS_PATH

The working directory is the run's scratch directory.  ``KIND`` is

* ``plain``: the workload as a user would run it, nothing wrapped;
* ``shimmed``: the same, with the layer wrappers of ``layers.py``
  installed, plus the set-up breakdown;
* ``notrace``: ``callable_traced`` without the engine's ``--trace``;
* ``ceiling``: no engine; a raw parallel ``Popen`` + ``communicate``
  loop over the ``shell_echo`` inputs with the same slot count.
"""

import time

T_MAIN = time.time()

import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import workloads as wl  # noqa: E402

clock = time.perf_counter


def vm_hwm_mb() -> float:
    """This process's peak resident set (VmHWM), MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_and_switches() -> tuple[float, int]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_nvcsw + usage.ru_nivcsw


class Feed:
    """The benchmark's input generator.

    Stamps the moment the engine pulls each item (``pulls``), and the
    moment each item became available to the engine (``avail``): the
    pull itself for a batch, the scheduled due time for the stream.
    The first pull starts the timed section.
    """

    def __init__(self, items, count: int):
        self.items = items
        self.count = count
        self.args: list[str] = []
        self.pulls: list[float] = []
        self.avail: list[float] = []
        self.late: list[float] = []
        self.first_pull = 0.0
        self.first_pull_wall = 0.0
        self.usage0 = (0.0, 0)

    def _start(self) -> None:
        self.usage0 = cpu_and_switches()
        self.first_pull_wall = time.time()
        self.first_pull = clock()

    def batch(self):
        """A closed loop: the engine pulls as fast as slots free up."""
        for i, item in zip(range(self.count), self.items):
            if i == 0:
                self._start()
            now = clock()
            self.args.append(item)
            self.pulls.append(now)
            self.avail.append(now)
            yield item

    def stream(self, queue_source):
        """An open loop: one producer thread puts items on a fixed schedule."""
        self._start()
        q = queue_source()
        producer = threading.Thread(target=self._produce, args=(q,), daemon=True)
        producer.start()
        try:
            for group in q:
                self.pulls.append(clock())
                yield group
        finally:
            producer.join(timeout=5.0)

    def _produce(self, q) -> None:
        gap = 1.0 / wl.STREAM_RATE
        t0 = self.first_pull
        try:
            for i, item in zip(range(self.count), self.items):
                due = t0 + i * gap
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                self.args.append(item)
                self.avail.append(due)
                self.late.append(clock() - due)
                q.put(item)
        finally:
            q.close()


def build_engine(repro, workload: str, kind: str, emit, tag: str):
    """The engine as each workload configures it; files are named by ``tag``."""
    n = wl.nproc()
    joblog = f"joblog-{tag}.txt"
    if workload == "shell_echo":
        return repro.Parallel("echo {}", jobs=n, keep_order=True, joblog=joblog, output=emit)
    if workload == "callable_traced":
        trace = None if kind == "notrace" else f"trace-{tag}.json"
        return repro.Parallel(wl.reverse_len, jobs=n, joblog=joblog, trace=trace, output=emit)
    if workload == "remote_staged":
        roster = ",".join(f"1/node{i + 1}" for i in range(n))
        return repro.Parallel(
            wl.REMOTE_COMMAND, sshlogin=[roster], transfer_files=["{}"],
            basefiles=["in/base.dat"], return_files=[wl.REMOTE_RETURN],
            joblog=joblog, output=emit,
        )
    return repro.Parallel("echo {}", jobs=n, joblog=joblog, output=emit)


def check(workload: str, kind: str, args, emits) -> list[str]:
    """Every job's output against its seeded input; one error per failure."""
    rows = [(seq, text, code) for seq, _t, _w, text, code, _end in emits]
    errors = wl.check_emits(workload, args, rows, ordered=workload == "shell_echo")
    errors += wl.check_joblog("joblog-run.txt", len(args))
    if workload == "callable_traced" and kind != "notrace":
        with open("trace-run.json", encoding="utf-8") as fh:
            errors += wl.check_trace(json.load(fh), len(args))
    if workload == "remote_staged":
        with open("in/base.dat", "rb") as fh:
            base = fh.read()
        files = []
        for i in range(wl.POOL_FILES):
            with open(wl.pool_path(i), "rb") as fh:
                files.append(fh.read())
        errors += wl.check_returns(args, base, files)
    return errors


def prepare_ms(repro, workload: str, repeats: int = 3) -> float:
    """Median time from a warm ``Parallel.run`` call to its first pull."""
    samples = []
    for i in range(repeats):
        feed = Feed(wl.INPUTS[workload](f"prepare:{i}"), 1)
        engine = build_engine(repro, workload, "plain", None, f"prepare{i}")
        t0 = clock()
        engine.run(feed.batch())
        samples.append((feed.first_pull - t0) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


def run_engine(workload: str, seed: str, seconds: float, kind: str, spans_path: str) -> dict:
    out: dict = {"t_main": T_MAIN}
    recorder = None
    if kind == "shimmed":
        t0 = clock()
        import repro.core  # noqa: F401
        t1 = clock()
        import repro.remote  # noqa: F401
        t2 = clock()
        out["setup"] = {"import_core_ms": (t1 - t0) * 1e3, "import_remote_ms": (t2 - t1) * 1e3}
        import layers

        recorder = layers.Recorder()
        recorder.install()
        out["wrapped"] = layers.wrapped_targets()
    import repro

    emits: list = []
    append = emits.append

    def emit(result, text):
        append((result.seq, clock(), time.time(), text, result.exit_code, result.end_time))

    feed = Feed(wl.INPUTS[workload](seed), max(1, round(seconds * wl.NOMINAL_RATE[workload])))
    source = feed.stream(repro.QueueSource) if workload == "stream_queue" else feed.batch()
    timed_source = None
    if recorder is not None:
        timed_source = source = layers.TimedSource(source)
    engine = build_engine(repro, workload, kind, emit, "run")
    engine.run(source)
    t_end = clock()
    cpu1, switches1 = cpu_and_switches()
    out["rss_mb"] = vm_hwm_mb()

    # Imported only now: an untraced launch must not pay for it.
    import layers

    jobs = len(emits)
    duration = t_end - feed.first_pull
    cpu0, switches0 = feed.usage0
    out.update(
        first_pull_wall=feed.first_pull_wall,
        jobs=jobs,
        jobs_per_s=jobs / duration,
        cpu_ms_per_job=(cpu1 - cpu0) * 1e3 / max(jobs, 1),
        latency_ms=[
            round((t - feed.avail[seq - 1]) * 1e3, 4)
            for seq, t, *_ in emits if 0 < seq <= len(feed.avail)
        ],
        generator_late_ms_p90=layers.quantile(feed.late, 0.9) * 1e3,
    )
    errors = check(workload, kind, feed.args, emits)
    out["attempted"] = len(feed.args)
    out["errors"] = errors[:10]
    out["failed"] = len(errors)
    if recorder is not None:
        recorder.uninstall()
        layer = recorder.metrics(jobs, feed.pulls)
        lags = [(wall - end) * 1e6 for _s, _t, wall, _x, _c, end in emits]
        trace_file = "trace-run.json"
        layer.update({
            "inputs.pull_wait_ms_p50": layers.quantile(timed_source.waits, 0.5) * 1e3,
            "scheduler.delivery_lag_us_p50": layers.quantile(lags, 0.5),
            "scheduler.delivery_lag_us_p90": layers.quantile(lags, 0.9),
            "backends.ctx_switches_per_job": (switches1 - switches0) / max(jobs, 1),
            "obs.trace_bytes_per_job": os.path.getsize(trace_file) / max(jobs, 1)
            if os.path.exists(trace_file) else 0.0,
        })
        out["layers"] = layer
        out["setup"]["prepare_ms"] = prepare_ms(repro, workload)
        recorder.write(spans_path)
    else:
        out["wrapped"] = layers.wrapped_targets()
    return out


def run_ceiling(seed: str, seconds: float) -> dict:
    """Raw parallel spawn reference: ``nproc`` threads of Popen+communicate."""
    count = max(1, round(seconds * wl.NOMINAL_RATE["shell_echo"]))
    inputs = zip(range(count), wl.shell_inputs(seed))
    lock = threading.Lock()
    done: list[tuple[str, str, int]] = []

    def worker() -> None:
        while True:
            with lock:
                _i, arg = next(inputs, (None, None))
            if arg is None:
                return
            proc = subprocess.Popen(
                ["/bin/sh", "-c", f"echo {arg}"], stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            stdout, _ = proc.communicate()
            done.append((arg, stdout.decode(), proc.returncode))

    t0 = clock()
    threads = [threading.Thread(target=worker) for _ in range(wl.nproc())]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = clock() - t0
    errors = [arg[:20] for arg, text, code in done if code != 0 or text != arg + "\n"]
    return {
        "jobs": len(done), "jobs_per_s": len(done) / elapsed, "attempted": len(done),
        "failed": len(errors), "errors": errors[:10], "wrapped": [],
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, kind, spans_path = argv
    if kind == "ceiling":
        out = run_ceiling(seed, float(seconds))
    else:
        out = run_engine(workload, seed, float(seconds), kind, spans_path)
        for name in glob.glob("joblog-*") + glob.glob("trace-*") + glob.glob("in/*.out"):
            os.remove(name)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
