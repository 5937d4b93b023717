"""Local shell backend: runs rendered commands as real subprocesses.

This is the engine's production path — functionally the same as what GNU
Parallel does (fork + exec via the shell), with output capture, timeouts,
working-directory and niceness support, and kill-on-halt.

Every local job starts one way, in :class:`ProcessGroups`:
``subprocess.Popen(start_new_session=True)`` on the job's own worker
thread, collected by ``communicate()`` on that same thread.  CPython
(3.10+) spawns through vfork and releases the GIL across exec, so there
is no cheaper in-process launch to reach for; the measured per-job cost
of the alternatives this engine used to carry (a hand-rolled launcher
with one shared reaper thread, a sharded dispatcher pool) was the
hand-off between threads or processes, not the spawn syscall
(DESIGN.md §5f).  The same helper runs
:class:`~repro.remote.transport.LocalTransport`'s jobs.

The one contract covers every local run:

* the child is its own session and process-group leader, so ``--halt
  now``, ``--timeout`` and :meth:`ProcessGroups.cancel_all` kill the
  whole job tree with one ``killpg``;
* ``--nice`` is applied right after spawn with ``setpriority(PRIO_PGRP)``;
* ``--wd`` (``...`` = one shared per-run tempdir) is the child's cwd;
* ``--pipe`` blocks go to the child's stdin;
* output is decoded as ``Popen(text=True)`` does: the locale encoding,
  strict errors, universal newlines;
* ``--linebuffer`` (``job.stream`` set) swaps ``communicate()`` for a
  short selector loop on the same thread that hands each complete stdout
  line to the stream as it arrives, and honours the same deadline.

``--spawn-path``, ``--dispatchers`` and ``--rpc-batch`` are still
accepted (and still validated) for command-line compatibility; they
select nothing.
"""

from __future__ import annotations

import locale
import os
import select
import selectors
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from typing import Callable, NamedTuple, Optional

from repro.core.backends.base import Backend
from repro.core.job import Job, JobResult, JobState
from repro.core.options import TMPDIR_WORKDIR, Options

__all__ = ["Finished", "LocalShellBackend", "ProcessGroups", "merged_env"]

_POSIX = os.name == "posix"
_CHUNK = 32768


def merged_env(extra: Optional[dict[str, str]]) -> Optional[dict[str, str]]:
    """``os.environ`` plus ``extra``; None (inherit, no copy) when empty."""
    if not extra:
        return None
    env = dict(os.environ)
    env.update(extra)
    return env


def _decode(data: bytes, encoding: str) -> str:
    """Decode captured output as ``Popen(text=True)`` does."""
    text = data.decode(encoding)
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


class Finished(NamedTuple):
    """One collected process: its exit, output and wall-clock stamps."""

    pid: int
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool
    start: float
    spawned: float
    end: float


class ProcessGroups:
    """Starts shell jobs in their own sessions and kills them by group.

    One instance is shared by all of a run's worker threads; each
    :meth:`run` blocks its caller for the job's duration.
    """

    def __init__(self) -> None:
        self._procs: dict[int, subprocess.Popen] = {}
        self._lock = threading.Lock()
        self.cancelled = threading.Event()
        self._encoding = locale.getpreferredencoding(False)

    def run(
        self,
        argv: list[str],
        *,
        cwd: Optional[str] = None,
        env: Optional[dict[str, str]] = None,
        stdin: Optional[str] = None,
        timeout: Optional[float] = None,
        nice: Optional[int] = None,
        stream: Optional[Callable[[str], None]] = None,
    ) -> Finished:
        """Run ``argv`` to completion; raises ``OSError`` if it cannot start.

        On ``timeout`` the job's group is killed and its output up to the
        kill is still collected (``timed_out`` is then True).
        """
        start = time.time()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=cwd,
            env=env,
            text=stream is None,
            start_new_session=_POSIX,
        )
        spawned = time.time()
        if nice is not None and hasattr(os, "setpriority"):
            # From the parent, right after spawn: the first few ms of the
            # job may run un-niced.  PRIO_PGRP (the child leads its group)
            # also covers helpers the shell has already forked.
            try:
                os.setpriority(os.PRIO_PGRP, proc.pid, nice)
            except OSError:
                pass
        with self._lock:
            self._procs[proc.pid] = proc
            cancelled = self.cancelled.is_set()
        if cancelled:
            # cancel_all ran between spawn and registration: its snapshot
            # missed this process, so deliver the kill here.
            self._kill_group(proc.pid)
        try:
            if stream is None:
                try:
                    stdout, stderr = proc.communicate(stdin, timeout)
                    timed_out = False
                except subprocess.TimeoutExpired:
                    self._kill_group(proc.pid)
                    stdout, stderr = proc.communicate()
                    timed_out = True
            else:
                stdout, stderr, timed_out = self._communicate_lines(
                    proc, stdin, timeout, stream
                )
        finally:
            with self._lock:
                self._procs.pop(proc.pid, None)
        return Finished(
            proc.pid, proc.returncode, stdout, stderr, timed_out,
            start, spawned, time.time(),
        )

    def _communicate_lines(
        self,
        proc: subprocess.Popen,
        stdin: Optional[str],
        timeout: Optional[float],
        stream: Callable[[str], None],
    ) -> tuple[str, str, bool]:
        """``communicate()`` that also streams complete stdout lines."""
        deadline = None if timeout is None else time.monotonic() + timeout
        timed_out = False
        out, err, tail = bytearray(), bytearray(), bytearray()
        sink: Optional[Callable[[str], None]] = stream

        def emit(data: bytes) -> None:
            nonlocal sink
            try:
                # Complete lines only, so a multi-byte character is never
                # split; decoding errors are replaced here and raised (as
                # communicate() would) only for the final result.
                sink(data.decode(self._encoding, errors="replace"))
            except Exception:
                sink = None  # a broken sink must not strand the job's pipes

        pending = memoryview(stdin.encode(self._encoding)) if stdin else None
        with selectors.DefaultSelector() as sel:
            if proc.stdin is not None:
                if pending:
                    sel.register(proc.stdin, selectors.EVENT_WRITE)
                else:
                    proc.stdin.close()
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                wait = None
                if deadline is not None and not timed_out:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        self._kill_group(proc.pid)
                        timed_out = True
                        wait = None
                for key, _ in sel.select(wait):
                    if key.fileobj is proc.stdin:
                        try:
                            n = os.write(key.fd, pending[: select.PIPE_BUF])
                        except BrokenPipeError:
                            n = len(pending)
                        pending = pending[n:]
                        if not pending:
                            sel.unregister(key.fileobj)
                            key.fileobj.close()
                        continue
                    data = os.read(key.fd, _CHUNK)
                    if not data:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
                        continue
                    buf = key.data
                    buf += data
                    if buf is out and sink is not None:
                        tail += data
                        cut = tail.rfind(b"\n") + 1
                        if cut:
                            emit(bytes(tail[:cut]))
                            del tail[:cut]
        if tail and sink is not None:
            emit(bytes(tail))
        proc.wait()
        return _decode(out, self._encoding), _decode(err, self._encoding), timed_out

    def cancel_all(self) -> int:
        """Kill every in-flight job's group and refuse new ones.

        Returns the number of groups signalled.
        """
        self.cancelled.set()
        with self._lock:
            pids = list(self._procs)
        for pid in pids:
            self._kill_group(pid)
        return len(pids)

    @staticmethod
    def _kill_group(pid: int) -> None:
        try:
            if _POSIX:
                os.killpg(pid, signal.SIGTERM)
            else:  # pragma: no cover - non-posix fallback
                os.kill(pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            pass


class LocalShellBackend(Backend):
    """Executes each job's command string through ``/bin/sh -c``.

    Each spawned process gets its own process group so that ``--halt now``
    and timeouts kill the whole job tree, not just the shell.
    """

    def __init__(self, shell: str = "/bin/sh"):
        self.shell = shell
        self.host = os.uname().nodename if hasattr(os, "uname") else "local"
        self._groups = ProcessGroups()
        self._lock = threading.Lock()
        #: Per-run merged environment cache (``prepare_run``): copying
        #: ``os.environ`` per job is pure hot-path waste.  The Options the
        #: cache was built from is held by strong reference and compared
        #: with ``is`` — an id() key can collide after a collection.
        self._run_env: dict[str, str] | None = None
        self._run_opts: Options | None = None
        #: Lazily-created ``--wd ...`` per-run tempdir, removed in close().
        self._tmp_workdir: str | None = None

    def prepare_run(self, options: Options) -> None:
        self._run_env = merged_env(options.env)
        self._run_opts = options

    def _env_for(self, options: Options) -> dict[str, str] | None:
        # Direct run_job callers (tests, wrappers) may skip prepare_run;
        # fall back to computing-and-caching on first use per options.
        if self._run_opts is not options:
            self.prepare_run(options)
        return self._run_env

    def _cwd_for(self, options: Options) -> str | None:
        """Resolve ``--wd`` for this job; ``...`` = one shared per-run
        tempdir (created lazily, removed in :meth:`close`)."""
        if options.workdir != TMPDIR_WORKDIR:
            return options.workdir
        with self._lock:
            if self._tmp_workdir is None:
                self._tmp_workdir = tempfile.mkdtemp(prefix="repro-wd-")
            return self._tmp_workdir

    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        if self._groups.cancelled.is_set():
            now = time.time()
            return self._result(job, slot, -1, "", "", now, now, JobState.KILLED)
        try:
            done = self._groups.run(
                [self.shell, "-c", job.command],
                cwd=self._cwd_for(options),
                env=self._env_for(options),
                stdin=job.stdin_data,
                timeout=timeout,
                nice=options.nice,
                stream=job.stream,
            )
        except OSError as exc:
            now = time.time()
            return self._result(
                job, slot, 127, "", f"spawn failed: {exc}", now, now, JobState.FAILED
            )
        tracer = self._tracer
        if tracer is not None:
            tracer.span(
                "spawn", done.start, done.spawned, seq=job.seq, slot=slot,
                path="popen", pid=done.pid,
            )
            if done.timed_out:
                tracer.instant(
                    "proc_timeout_kill", seq=job.seq, slot=slot,
                    pid=done.pid, timeout=timeout,
                )
            # Collection is the blocking communicate(), so this span
            # includes the job's own runtime (documented).
            tracer.span(
                "reap", done.spawned, done.end, seq=job.seq, slot=slot,
                path="popen",
            )
        if done.timed_out:
            state = JobState.TIMED_OUT
        elif done.returncode == 0:
            state = JobState.SUCCEEDED
        elif self._groups.cancelled.is_set():
            state = JobState.KILLED
        else:
            state = JobState.FAILED
        return self._result(
            job, slot, done.returncode, done.stdout, done.stderr,
            done.start, done.end, state,
        )

    def cancel_all(self) -> None:
        n_procs = self._groups.cancel_all()
        if self._tracer is not None:
            self._tracer.instant("cancel_all", n_procs=n_procs)

    def close(self) -> None:
        with self._lock:
            tmp, self._tmp_workdir = self._tmp_workdir, None
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    def _result(
        self,
        job: Job,
        slot: int,
        code: int,
        stdout: str,
        stderr: str,
        start: float,
        end: float,
        state: JobState,
    ) -> JobResult:
        return JobResult(
            seq=job.seq,
            args=job.args,
            command=job.command,
            exit_code=code,
            stdout=stdout,
            stderr=stderr,
            start_time=start,
            end_time=end,
            slot=slot,
            host=self.host,
            attempt=job.attempt,
            state=state,
        )
