"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Run by hand for its per-layer split, not declared (see README.md).
UNDECLARED = ["campaign-sweep"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_declared(proc: subprocess.CompletedProcess, declared: list[dict]) -> None:
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    lines = proc.stdout.splitlines()
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(
            line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
            for line in lines
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS + UNDECLARED)
def test_every_end_to_end_metric_prints_with_its_unit(workload: str) -> None:
    proc = bench("--workload", workload, "--trace", "0")
    assert_declared(proc, SPEC["end_to_end"])
    assert f"digest {workload} " in proc.stdout
    for metric in SPEC["end_to_end"]:
        assert result_of(proc)["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["spec-mutator", "serve-mixed"])
def test_every_per_layer_metric_prints_with_its_unit(workload: str) -> None:
    proc = bench("--workload", workload, "--trace", "1")
    assert_declared(proc, SPEC["per_layer"])
    assert result_of(proc)["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_wrong_digest_counts_as_failed_not_abort(tmp_path: Path) -> None:
    digests = tmp_path / "digests.json"
    proc = bench("--workload", "spec-mutator", "--seed", "3", "--write-digests",
                 "--digests", str(digests))
    assert proc.returncode == 0, proc.stderr
    good = result_of(bench("--workload", "spec-mutator", "--seed", "3", "--digests", str(digests)))
    assert good["correct"] is True and good["failed"] == 0

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import SpecMutator

    # One op of input set 0, which every run's first pass runs.
    victim = SpecMutator(3, "tiny").ops(0)[0][0]
    data = json.loads(digests.read_text())
    data["workloads"]["spec-mutator"][victim] = "0" * 64
    digests.write_text(json.dumps(data))
    proc = bench("--workload", "spec-mutator", "--seed", "3", "--digests", str(digests))
    bad = result_of(proc)
    assert bad["correct"] is False
    assert 1 <= bad["failed"] < bad["attempted"]
    assert f"FAILED {victim}: digest" in proc.stdout
    assert float(proc.stdout.split("failed_ratio ", 1)[1].split()[0]) > 0


def test_fails_without_the_package_under_test(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_span_self_time_and_uninstall() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spans import SpanRecorder
    from repro.machine.cpu import Core

    original = Core.load_cap
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert Core.load_cap is not original
    finally:
        recorder.uninstall()
    assert Core.load_cap is original

    # Synthetic spans: a 10 s parent with children of 3 s and 2 s.
    outer, inner = recorder._name_id("a/outer"), recorder._name_id("b/inner")
    spans = ((outer, -1, 0.0, 10.0), (inner, 0, 1.0, 4.0), (inner, 0, 5.0, 7.0))
    for name, parent, start, end in spans:
        recorder.name.append(name)
        recorder.parent.append(parent)
        recorder.op.append(0)
        recorder.start.append(start)
        recorder.end.append(end)
    layers = recorder.by_layer()
    assert layers["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert layers["b"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


def test_tree_peak_counts_descendants() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import tree_peak_kib

    # A grandchild holding 64 MiB, under a shell that only waits for it.
    hold = "x = bytearray(64 << 20); import time; time.sleep(30)"
    shell = subprocess.Popen(
        ["sh", "-c", f'"{sys.executable}" -c "{hold}"; true'], start_new_session=True
    )
    try:
        deadline = time.monotonic() + 20
        while tree_peak_kib(shell.pid) < 64 << 10 and time.monotonic() < deadline:
            time.sleep(0.1)
        assert tree_peak_kib(shell.pid) >= 64 << 10
    finally:
        os.killpg(shell.pid, signal.SIGKILL)
        shell.wait()
