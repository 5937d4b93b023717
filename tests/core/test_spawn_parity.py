"""One local spawn path, pinned to literal expected output.

Every local job starts the same way (``repro.core.backends.local``).
``--spawn-path``, ``--dispatchers`` and ``--rpc-batch`` are still
accepted for compatibility but select nothing, so every value of them
must reproduce the same literal byte stream: ``--keep-order`` ordering,
``--tag`` prefixes, exit codes, stderr routing, timeout kills, ``--joblog``
rows and ``--halt`` outcomes.

``--linebuffer`` streams on every local run — including ``--wd`` and
``--pipe`` — so a line reaches ``output=`` while its job still runs.
"""

import time

import pytest

from repro import Parallel
from repro.core.joblog import read_joblog

#: Every accepted ``--spawn-path`` value; none may change the output.
PATHS = ("auto", "posix", "popen")
#: Shard counts and frame sizes: accepted, and equally inert.
DISPATCHERS = (1, 2, 4)
MATRIX_PATHS = ("auto", "popen")
RPC_BATCHES = (1, 8, 64)

#: A workload exercising stdout, stderr and mixed exit codes at once.
MIXED_CMD = "sh -c 'echo out-{}; echo err-{} >&2; exit $(( {} % 2 ))'"


def run_collect(command, inputs, **option_fields):
    """Run and return (summary, concatenated formatted output)."""
    chunks = []
    engine = Parallel(
        command, output=lambda _res, text: chunks.append(text), **option_fields
    )
    summary = engine.run(inputs)
    return summary, "".join(chunks)


def _prefix(flags, seq):
    """The line prefix ``--tag`` / ``--tagstring '[{#}]'`` give input ``seq``."""
    if flags.get("tagstring"):
        return f"[{seq}]\t"
    if flags.get("tag"):
        return f"{seq}\t"
    return ""


FLAG_SETS = [
    {"keep_order": True},
    {"keep_order": True, "tag": True},
    {"keep_order": True, "tagstring": "[{#}]"},
]
FLAG_IDS = ["keep-order", "keep-order+tag", "keep-order+tagstring"]


# ---------------------------------------------------------- formatted output
@pytest.mark.parametrize("flags", FLAG_SETS, ids=FLAG_IDS)
def test_formatted_output_identical_across_paths(flags):
    expected = "".join(
        f"{_prefix(flags, i)}one-{i}\n{_prefix(flags, i)}two-{i}\n"
        for i in range(1, 9)
    )
    for path in PATHS:
        summary, text = run_collect(
            "printf '%s\\n%s\\n' one-{} two-{}", range(1, 9),
            jobs=4, spawn_path=path, **flags,
        )
        assert summary.ok
        assert text == expected, f"--spawn-path {path}"


def test_tag_without_keep_order_same_line_set():
    # Completion order is scheduling-dependent, so compare the sorted
    # line multiset instead of the byte stream.
    expected = sorted(f"{i}\t{i}" for i in range(1, 13))
    for path in PATHS:
        summary, text = run_collect(
            "echo {}", range(1, 13), jobs=4, tag=True, spawn_path=path
        )
        assert summary.ok
        assert sorted(text.splitlines()) == expected, f"--spawn-path {path}"


def _mixed_rows(n):
    """(seq, exit code, stdout, stderr) for MIXED_CMD over inputs 1..n."""
    return [(i, i % 2, f"out-{i}\n", f"err-{i}\n") for i in range(1, n + 1)]


def test_exit_codes_and_stderr_identical_across_paths():
    for path in PATHS:
        rows = []
        engine = Parallel(
            MIXED_CMD,
            output=lambda res, text: rows.append(
                (res.seq, res.exit_code, text, res.stderr)
            ),
            jobs=3, keep_order=True, spawn_path=path,
        )
        summary = engine.run(range(1, 7))
        assert summary.n_failed == 3  # odd seqs exit 1
        assert rows == _mixed_rows(6), f"--spawn-path {path}"


def test_timeout_kill_identical_across_paths():
    for path in PATHS:
        summary, text = run_collect(
            "sh -c 'sleep 5; echo late-{}'", [1, 2],
            jobs=2, timeout=0.2, spawn_path=path,
        )
        assert not summary.ok
        assert text == ""
        # The group gets SIGTERM: the shell dies before it can echo.
        assert sorted(
            (r.seq, r.state.value, r.stdout, r.exit_code)
            for r in summary.results
        ) == [(1, "timed_out", "", -15), (2, "timed_out", "", -15)]


# ------------------------------------------- --dispatchers / --rpc-batch
def _stable_joblog_rows(path):
    """Joblog reduced to its run-invariant columns, in seq order."""
    return sorted(
        (e.seq, e.exitval, e.signal, e.command) for e in read_joblog(path)
    )


def _expected_joblog(n):
    return [
        (i, i % 2, 0, MIXED_CMD.replace("{}", str(i))) for i in range(1, n + 1)
    ]


def _matrix_cell(n_disp, path, tmp_path, flags):
    """One (dispatchers, spawn-path) run; returns its comparable outcome."""
    joblog = tmp_path / f"d{n_disp}-{path}.log"
    rows = []
    engine = Parallel(
        MIXED_CMD,
        output=lambda res, text: rows.append(
            (res.seq, res.exit_code, text, res.stderr)
        ),
        jobs=4, spawn_path=path, dispatchers=n_disp,
        joblog=str(joblog), **flags,
    )
    summary = engine.run(range(1, 9))
    return {
        "rows": rows,
        "n_failed": summary.n_failed,
        "joblog": _stable_joblog_rows(str(joblog)),
    }


def _expected_rows(flags):
    return [
        (seq, code, _prefix(flags, seq) + out, err)
        for seq, code, out, err in _mixed_rows(8)
    ]


@pytest.mark.parametrize("path", MATRIX_PATHS)
@pytest.mark.parametrize("flags", FLAG_SETS, ids=FLAG_IDS)
def test_dispatcher_matrix_byte_identical(tmp_path, path, flags):
    for n_disp in DISPATCHERS:
        cell = _matrix_cell(n_disp, path, tmp_path, flags)
        assert cell["rows"] == _expected_rows(flags), (
            f"--dispatchers {n_disp} --spawn-path {path} diverged"
        )
        assert cell["n_failed"] == 4  # odd seqs exit 1
        assert cell["joblog"] == _expected_joblog(8)


@pytest.mark.parametrize("n_disp", DISPATCHERS)
@pytest.mark.parametrize("path", MATRIX_PATHS)
def test_dispatcher_matrix_halt_now_fail(tmp_path, n_disp, path):
    # Serial submission makes --halt now,fail=1 deterministic: the first
    # failure (seq 2) halts before seq 3 dispatches, in every cell.
    joblog = tmp_path / f"halt-{n_disp}-{path}.log"
    rows = []
    engine = Parallel(
        "sh -c 'exit $(( {} == 2 ))'",
        output=lambda res, text: rows.append((res.seq, res.exit_code, text)),
        jobs=1, keep_order=True, halt="now,fail=1",
        spawn_path=path, dispatchers=n_disp, joblog=str(joblog),
    )
    summary = engine.run(range(1, 7))
    assert not summary.ok
    assert summary.n_failed == 1
    assert rows == [(1, 0, ""), (2, 1, "")]
    assert _stable_joblog_rows(str(joblog)) == [
        (1, 0, 0, "sh -c 'exit $(( 1 == 2 ))'"),
        (2, 1, 0, "sh -c 'exit $(( 2 == 2 ))'"),
    ]


@pytest.mark.parametrize("rpc_batch", RPC_BATCHES)
def test_rpc_batch_matrix_byte_identical(tmp_path, rpc_batch):
    flags = {"keep_order": True, "tag": True, "rpc_batch": rpc_batch}
    for n_disp in DISPATCHERS:
        cell = _matrix_cell(n_disp, "auto", tmp_path, flags)
        assert cell["rows"] == _expected_rows(flags), (
            f"--rpc-batch {rpc_batch} --dispatchers {n_disp} diverged"
        )
        assert cell["n_failed"] == 4
        assert cell["joblog"] == _expected_joblog(8)


def test_rpc_batch_auto_matches_explicit(tmp_path):
    flags = {"keep_order": True}
    auto = _matrix_cell(2, "auto", tmp_path, {**flags, "rpc_batch": "auto"})
    explicit = _matrix_cell(2, "auto", tmp_path, {**flags, "rpc_batch": 8})
    assert auto["rows"] == explicit["rows"] == _expected_rows(flags)
    assert auto["joblog"] == explicit["joblog"] == _expected_joblog(8)


# --------------------------------------------------------------- --linebuffer
@pytest.mark.parametrize(
    "leg", ["default", "workdir", "pipe"],
)
def test_linebuffer_line_arrives_before_job_ends(leg):
    """``first`` reaches ``output=`` while the job still sleeps."""
    arrivals = []
    engine = Parallel(
        "echo first; sleep 1; echo second",
        output=lambda _res, text: arrivals.append((time.time(), text)),
        jobs=1, linebuffer=True,
        **({"workdir": "."} if leg == "workdir" else {}),
    )
    if leg == "pipe":
        summary = engine.pipe("x\n", n_records=1)
    else:
        summary = engine.run(["x"])
    assert summary.ok
    end = summary.results[0].end_time
    first_at = next(t for t, text in arrivals if "first" in text)
    assert first_at <= end - 0.5, f"first line came {end - first_at:.2f}s early"
    streamed = "".join(text for _t, text in arrivals)
    assert streamed.startswith("first\nsecond")


def test_linebuffer_honours_timeout():
    arrivals = []
    summary = Parallel(
        "echo first {}; sleep 5",
        output=lambda _res, text: arrivals.append(text),
        jobs=1, linebuffer=True, timeout=0.5,
    ).run(["x"])
    [result] = summary.results
    assert result.state.value == "timed_out"
    assert result.runtime < 3
    assert arrivals and arrivals[0].startswith("first")


def test_linebuffer_pipe_streams_a_large_block_through():
    # More than a pipe buffer each way: stdin is written while stdout is
    # read, so neither side can stall the other.
    text = "".join(f"line-{i:06d}\n" for i in range(20_000))
    chunks = []
    summary = Parallel(
        "cat", output=lambda _res, chunk: chunks.append(chunk),
        jobs=1, linebuffer=True,
    ).pipe(text, n_records=20_000)
    assert summary.ok
    assert "".join(chunks) == text
    assert summary.results[0].stdout == text
