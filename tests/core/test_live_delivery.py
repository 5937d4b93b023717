"""Delivery of finished jobs while the coordinator waits on a live input.

On a live source (``QueueSource``, a pipe on stdin) the coordinator spends
most of its time blocked in the input pull.  A job that finishes meanwhile
must still be delivered at once — output, joblog line, slot, halt — not
held until the next item arrives.  Every test here holds back the next
``put`` (or stdin line) until it has seen the delivery it asserts.
"""

import os
import select
import subprocess
import sys
import threading
import time

import pytest

from repro import Parallel, QueueSource

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: How long a test waits for a delivery before it gives up.  A held result
#: waits here the full time, since the next item only comes afterwards.
WAIT = 5.0


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-worker")]


def _start(engine, source):
    """Run ``engine`` over ``source`` on a thread; returns (thread, box)."""
    box = {}

    def target():
        try:
            box["summary"] = engine.run(source)
        except BaseException as exc:  # re-raised by the test
            box["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    return runner, box


def _finish(q, runner):
    q.close()
    runner.join(timeout=10)
    assert not runner.is_alive(), "run did not return after close()"


def test_finished_job_delivered_before_next_item(tmp_path):
    log = tmp_path / "jobs.log"
    texts = []
    emitted = threading.Event()

    def emit(result, text):
        texts.append(text)
        emitted.set()

    engine = Parallel(
        "echo {}", jobs=2, output=emit,
        joblog=str(log), joblog_flush_every=1,
    )
    q = QueueSource()
    runner, box = _start(engine, q)
    try:
        q.put("first")
        assert emitted.wait(WAIT), "output held until the next input item"
        assert texts == ["first\n"]
        # The joblog line is written before the output is emitted.
        lines = log.read_text().splitlines()
        assert len(lines) == 2 and lines[1].split("\t")[-1] == "echo first"
    finally:
        _finish(q, runner)
    assert box["summary"].ok


def test_delivered_during_delay_sleep(tmp_path):
    """A job finishing while ``--delay`` paces the next start is delivered
    during that sleep, before the next job starts."""
    log = tmp_path / "jobs.log"
    emitted = {}
    both = threading.Event()

    def emit(result, text):
        emitted[text.strip()] = time.time()
        if len(emitted) == 2:
            both.set()

    engine = Parallel(
        "echo {}", jobs=2, delay=1.0, output=emit,
        joblog=str(log), joblog_flush_every=1,
    )
    q = QueueSource()
    runner, box = _start(engine, q)
    try:
        q.put("a")
        q.put("b")
        assert both.wait(WAIT + 1.0), "output held until the next input item"
        assert len(log.read_text().splitlines()) == 3
    finally:
        _finish(q, runner)
    summary = box["summary"]
    assert summary.ok
    b_start = next(r.start_time for r in summary.results if r.args == ("b",))
    assert emitted["a"] < b_start


def test_halt_now_kills_in_flight_on_live_source():
    """``--halt now,fail=1`` kills in-flight jobs when the failing job
    completes, though the coordinator is blocked on input.

    The run itself still returns only at the next item or at close():
    the coordinator cannot be pulled out of a blocking input read.
    """
    results = []
    both = threading.Event()

    def emit(result, text):
        results.append(result)
        if len(results) == 2:
            both.set()

    engine = Parallel("{}", jobs=2, halt="now,fail=1", output=emit)
    q = QueueSource()
    runner, box = _start(engine, q)
    try:
        q.put("sleep 30")
        q.put("exit 1")
        assert both.wait(WAIT), "halt held until the next input item"
    finally:
        _finish(q, runner)
    summary = box["summary"]
    seen = [(r.seq, r.state, r.exit_code, r.end_time - r.start_time) for r in results]
    assert summary.halted, seen
    sleeper = next(r for r in results if r.seq == 1)
    assert not sleeper.ok, seen
    assert sleeper.end_time - sleeper.start_time < 2.0, seen


@pytest.mark.parametrize("hook", ["output", "progress"])
def test_callback_error_on_worker_reaches_run(hook):
    """A callback raising while a worker delivers fails the run with that
    exception; it is neither lost nor able to hang the run."""
    called = threading.Event()

    def boom(*_args):
        called.set()
        raise RuntimeError(f"{hook} failed")

    engine = Parallel("echo {}", jobs=2, **{hook: boom})
    q = QueueSource()
    runner, box = _start(engine, q)
    try:
        q.put("a")
        assert called.wait(WAIT), "job never delivered"
        q.put("b")  # the coordinator raises as soon as its pull returns
        runner.join(timeout=WAIT)
        assert not runner.is_alive(), "run hung after a delivery error"
    finally:
        _finish(q, runner)
    assert isinstance(box.get("error"), RuntimeError)
    assert str(box["error"]) == f"{hook} failed"
    deadline = time.monotonic() + WAIT
    while _pool_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _pool_threads() == []


def test_stress_coordinator_and_workers_share_delivery(tmp_path):
    """More workers than cores, a source that keeps blocking, retries and
    ``--keep-order``: completions are delivered by both the coordinator
    and the workers, and none is lost, doubled or reordered."""
    n = 300
    log = tmp_path / "jobs.log"
    attempts = {}
    lock = threading.Lock()
    emitted = []

    def work(x):
        with lock:
            attempts[x] = attempts.get(x, 0) + 1
            first = attempts[x] == 1
        if first and int(x) % 7 == 0:
            raise RuntimeError("first attempt fails")
        return x

    def emit(result, text):
        emitted.append(result.seq)

    def produce(q):
        for i in range(n):
            q.put(str(i))
            if i % 10 == 0:
                time.sleep(0.001)  # the coordinator blocks in its pull
        q.close()

    engine = Parallel(
        work, jobs=8, retries=2, keep_order=True, output=emit,
        joblog=str(log),
    )
    q = QueueSource()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        producer = threading.Thread(target=produce, args=(q,), daemon=True)
        producer.start()
        runner, box = _start(engine, q)
        runner.join(timeout=60)
        assert not runner.is_alive(), "stress run did not finish"
    finally:
        sys.setswitchinterval(old_interval)
        q.close()
    summary = box["summary"]
    retried = sum(1 for i in range(n) if i % 7 == 0)
    assert summary.ok and summary.n_succeeded == n
    assert emitted == list(range(1, n + 1))
    assert len(log.read_text().splitlines()) == 1 + n + retried


def _read_line(fd, timeout):
    """One line from ``fd`` within ``timeout`` seconds, or None."""
    deadline = time.monotonic() + timeout
    data = b""
    while not data.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1)
        if not chunk:
            return None
        data += chunk
    return data


def test_cli_prints_while_stdin_stays_open():
    """The paper's ``tail -n+0 -f q.proc | parallel`` idiom: each line's
    output appears while stdin is still open, through a pipe."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)  # stdout must flush on its own
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.core.cli", "-j2", "echo", "{}"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
    )
    fd = proc.stdout.fileno()
    try:
        proc.stdin.write(b"one\n")
        proc.stdin.flush()
        # The first line also covers interpreter start-up.
        assert _read_line(fd, 10.0) == b"one\n"
        proc.stdin.write(b"two\n")
        proc.stdin.flush()
        assert _read_line(fd, 2.0) == b"two\n"
    finally:
        proc.stdin.close()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert proc.returncode == 0
