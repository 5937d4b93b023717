"""Seeded inputs and output checks for the four engine workloads.

Everything here is plain standard-library code: the inputs are a pure
function of the seed, and the checks are pure functions of what a run
recorded, so both can be tested without running the engine.
"""

from __future__ import annotations

import os
import random
from typing import Iterator

WORKLOADS = ("shell_echo", "callable_traced", "remote_staged", "stream_queue")

#: Offered rate of the ``stream_queue`` producer, items per second.  Well
#: below ``shell_echo``'s capacity (~1000 jobs/s on 2 vCPU), so the engine
#: idles between arrivals and a backlog never builds.
STREAM_RATE = 100.0

#: Jobs per second of launch time each workload is given: about what the
#: engine ran on the 2-vCPU reference box when the benchmark was written.
#: A launch runs a fixed number of jobs (rate x its share of --seconds),
#: so every run does the same work and memory use is comparable.
NOMINAL_RATE = {
    "shell_echo": 1000.0,
    "callable_traced": 7000.0,
    "remote_staged": 350.0,
    "stream_queue": STREAM_RATE,
}

#: Share of ``remote_staged`` jobs that reuse an input an earlier job of
#: the same run already used (candidates for a staging-cache hit).
REPEAT_SHARE = 0.5

#: Size of the ``remote_staged`` input pool.  Fresh picks walk the pool in
#: order; a run that exhausts it wraps, which only raises the repeat share.
POOL_FILES = 2048

#: Size of the shared ``--basefile``; each ``remote_staged`` job copies it
#: into its returned file.
BASE_BYTES = 4096

#: Share of ``shell_echo`` jobs whose argument (and so output) is a few KiB.
LONG_SHARE = 0.1

#: Each job writes its returned file next to its staged input, so the
#: directory exists on the host without an extra ``mkdir`` process.
REMOTE_COMMAND = "cat in/base.dat {} > {}.{#}.out"
REMOTE_RETURN = "{}.{#}.out"


def nproc() -> int:
    """CPUs this process may run on; every load is sized for it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def launch_seed(seed: int, launch: int, kind: str = "") -> str:
    """The seed of one child launch: distinct per launch, fixed per run seed."""
    return f"{seed}:{launch}:{kind}"


def _hex(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(4 * n), f"0{n}x")[-n:]


def shell_inputs(seed: str) -> Iterator[str]:
    """``echo`` arguments: 8-64 hex chars, a minority a few KiB long."""
    rng = random.Random(f"shell:{seed}")
    while True:
        long = rng.random() < LONG_SHARE
        yield _hex(rng, rng.randint(2048, 4096) if long else rng.randint(8, 64))


def callable_inputs(seed: str) -> Iterator[str]:
    rng = random.Random(f"callable:{seed}")
    while True:
        yield _hex(rng, rng.randint(8, 32))


def stream_inputs(seed: str) -> Iterator[str]:
    rng = random.Random(f"stream:{seed}")
    while True:
        yield _hex(rng, rng.randint(8, 64))


def pool_path(index: int) -> str:
    return f"in/p{index:04d}.dat"


def remote_pool(seed: int) -> tuple[bytes, list[bytes]]:
    """The ``--basefile`` content and the ``--transferfile`` input pool."""
    rng = random.Random(f"pool:{seed}")
    base = rng.randbytes(BASE_BYTES)
    files = [rng.randbytes(rng.randint(256, 4096)) for _ in range(POOL_FILES)]
    return base, files


def remote_inputs(seed: str) -> Iterator[str]:
    """Pool paths; ``REPEAT_SHARE`` of jobs reuse an input used earlier."""
    rng = random.Random(f"remote:{seed}")
    used: list[int] = []
    fresh = 0
    while True:
        if used and rng.random() < REPEAT_SHARE:
            index = rng.choice(used)
        else:
            index = fresh % POOL_FILES
            fresh += 1
            used.append(index)
        yield pool_path(index)


INPUTS = {
    "shell_echo": shell_inputs,
    "callable_traced": callable_inputs,
    "remote_staged": remote_inputs,
    "stream_queue": stream_inputs,
}


def reverse_len(text: str) -> str:
    """The ``callable_traced`` job: cheap, and its value is checkable."""
    return f"{text[::-1]}:{len(text)}"


def expected_text(workload: str, arg: str) -> str:
    """What the engine should hand the emit callback for one job."""
    if workload == "callable_traced":
        return reverse_len(arg)
    if workload == "remote_staged":
        return ""
    return arg + "\n"


# -- checks ------------------------------------------------------------------
# Each returns a list of error strings, one per failed job (or per broken
# run-level invariant); an empty list means the run's output is correct.


def check_emits(
    workload: str, args: list[str], emits: list[tuple[int, str, int]],
    ordered: bool,
) -> list[str]:
    """Every pulled input was emitted once, with the right text and exit 0.

    ``emits`` holds ``(seq, text, exit_code)`` in emission order; job
    ``seq`` ran ``args[seq - 1]``.
    """
    errors: list[str] = []
    seen: set[int] = set()
    for pos, (seq, text, code) in enumerate(emits):
        if not 1 <= seq <= len(args) or seq in seen:
            errors.append(f"seq {seq}: unexpected or duplicate output")
            continue
        seen.add(seq)
        if ordered and seq != pos + 1:
            errors.append(f"seq {seq}: emitted at position {pos + 1} under --keep-order")
        elif code != 0:
            errors.append(f"seq {seq}: exit code {code}")
        elif text != expected_text(workload, args[seq - 1]):
            errors.append(f"seq {seq}: wrong output {text[:40]!r}")
    missing = len(args) - len(seen)
    if missing:
        errors.append(f"{missing} job(s) never emitted")
    return errors


def check_joblog(path: str, n_jobs: int) -> list[str]:
    """One line per job after the header, each with exit value 0."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("Seq\t"):
        return [f"joblog {path}: missing header"]
    errors = []
    seqs = set()
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) < 9 or fields[6] != "0" or fields[7] != "0":
            errors.append(f"joblog: bad line {line[:60]!r}")
            continue
        seqs.add(int(fields[0]))
    if len(lines) - 1 != n_jobs or seqs != set(range(1, n_jobs + 1)):
        errors.append(f"joblog: {len(lines) - 1} lines for {n_jobs} jobs")
    return errors


def check_trace(trace: dict, n_jobs: int) -> list[str]:
    """The Chrome trace holds exactly one successful job span per seq."""
    counts: dict[int, int] = {}
    for event in trace.get("traceEvents", ()):
        if event.get("ph") == "X" and event.get("cat") == "job":
            args = event.get("args", {})
            if args.get("state") == "succeeded":
                seq = args.get("seq")
                counts[seq] = counts.get(seq, 0) + 1
    errors = [f"trace: seq {s} has {counts.get(s, 0)} job spans"
              for s in range(1, n_jobs + 1) if counts.get(s) != 1]
    extra = set(counts) - set(range(1, n_jobs + 1))
    if extra:
        errors.append(f"trace: spans for unknown seqs {sorted(extra)[:5]}")
    return errors


def check_returns(args: list[str], base: bytes, files: list[bytes]) -> list[str]:
    """Each job's ``--return`` file is the basefile followed by its input."""
    errors = []
    for seq, arg in enumerate(args, 1):
        index = int(arg[len("in/p"):-len(".dat")])
        expected = base + files[index]
        try:
            with open(f"{arg}.{seq}.out", "rb") as fh:
                got = fh.read()
        except OSError as exc:
            errors.append(f"seq {seq}: return file missing ({exc.strerror})")
            continue
        if got != expected:
            errors.append(f"seq {seq}: returned file differs from its input")
    return errors
