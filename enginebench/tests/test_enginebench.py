"""The benchmark's own tests: seeded inputs, output checks, wrapper hygiene.

Run from the repository root::

    python3 -m pytest -q enginebench/tests
"""

import itertools
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads as wl  # noqa: E402


def first(gen, n=200):
    return list(itertools.islice(gen, n))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = wl.INPUTS[workload]
    assert first(make(wl.launch_seed(7, 0))) == first(make(wl.launch_seed(7, 0)))
    assert first(make(wl.launch_seed(7, 0))) != first(make(wl.launch_seed(8, 0)))
    assert first(make(wl.launch_seed(7, 0))) != first(make(wl.launch_seed(7, 1)))


def test_remote_pool_is_seeded():
    assert wl.remote_pool(3) == wl.remote_pool(3)
    assert wl.remote_pool(3) != wl.remote_pool(4)


def test_remote_inputs_repeat_the_stated_share():
    picks = first(wl.remote_inputs("s"), 2000)
    seen, repeats = set(), 0
    for path in picks:
        repeats += path in seen
        seen.add(path)
    assert abs(repeats / len(picks) - wl.REPEAT_SHARE) < 0.05


def test_shell_inputs_mix_short_and_long_arguments():
    lengths = [len(a) for a in first(wl.shell_inputs("s"), 2000)]
    long_share = sum(n >= 2048 for n in lengths) / len(lengths)
    assert abs(long_share - wl.LONG_SHARE) < 0.03
    assert min(lengths) >= 8


@pytest.mark.parametrize("workload", ["shell_echo", "callable_traced", "stream_queue"])
def test_emit_check_catches_one_wrong_output(workload):
    args = first(wl.INPUTS[workload]("x"), 50)
    emits = [(seq, wl.expected_text(workload, a), 0) for seq, a in enumerate(args, 1)]
    assert wl.check_emits(workload, args, emits, ordered=True) == []
    seq, text, code = emits[17]
    emits[17] = (seq, text[:-2] + "zz", code)
    assert len(wl.check_emits(workload, args, emits, ordered=True)) == 1


def test_emit_check_catches_order_exit_code_and_missing_jobs():
    args = first(wl.shell_inputs("x"), 10)
    emits = [(seq, a + "\n", 0) for seq, a in enumerate(args, 1)]
    swapped = emits[:3] + [emits[4], emits[3]] + emits[5:]
    assert wl.check_emits("shell_echo", args, swapped, ordered=False) == []
    assert len(wl.check_emits("shell_echo", args, swapped, ordered=True)) == 2
    failed = emits[:5] + [(6, args[5] + "\n", 1)] + emits[6:]
    assert len(wl.check_emits("shell_echo", args, failed, ordered=True)) == 1
    assert len(wl.check_emits("shell_echo", args, emits[:-1], ordered=True)) == 1


def test_returned_file_check_catches_one_wrong_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    base, files = b"B" * 100, [b"%d" % i * 3 for i in range(wl.POOL_FILES)]
    args = [wl.pool_path(i) for i in (3, 9, 3)]
    for seq, arg in enumerate(args, 1):
        index = int(arg[4:8])
        (tmp_path / f"{arg}.{seq}.out").write_bytes(base + files[index])
    assert wl.check_returns(args, base, files) == []
    (tmp_path / f"{args[1]}.2.out").write_bytes(b"wrong")
    assert len(wl.check_returns(args, base, files)) == 1
    (tmp_path / f"{args[2]}.3.out").unlink()
    assert len(wl.check_returns(args, base, files)) == 2


def test_joblog_and_trace_checks_count_jobs(tmp_path):
    log = tmp_path / "joblog"
    header = "Seq\tHost\tStarttime\tJobRuntime\tSend\tReceive\tExitval\tSignal\tCommand"
    lines = [f"{s}\t:\t0\t0\t0\t0\t0\t0\techo {s}" for s in (1, 2, 3)]
    log.write_text("\n".join([header] + lines) + "\n")
    assert wl.check_joblog(str(log), 3) == []
    assert wl.check_joblog(str(log), 4) != []
    events = [{"ph": "X", "cat": "job", "args": {"seq": s, "state": "succeeded"}}
              for s in (1, 2, 3)]
    assert wl.check_trace({"traceEvents": events}, 3) == []
    assert len(wl.check_trace({"traceEvents": events + events[:1]}, 3)) == 1


def child_report(workload, kind, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), workload, "t:0",
         "0.3", kind, str(tmp_path / "spans.jsonl")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["shell_echo", "callable_traced"])
def test_no_layer_wrappers_in_end_to_end_launches(workload, tmp_path):
    plain = child_report(workload, "plain", tmp_path)
    assert plain["failed"] == 0 and plain["jobs"] > 0
    assert plain["wrapped"] == []
    assert "layers" not in plain
    shimmed = child_report(workload, "shimmed", tmp_path)
    assert shimmed["failed"] == 0
    assert {"CommandTemplate.render", "CallableBackend.run_job"} <= set(shimmed["wrapped"])
    assert shimmed["layers"]["backends.run_job_us_p50"] > 0


def test_run_refuses_a_directory_without_the_engine(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "shell_echo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "jobs_per_s", "coordinator_cpu_ms_per_job", "arrival_latency_p50_ms",
        "setup_s", "peak_rss_mb"}
