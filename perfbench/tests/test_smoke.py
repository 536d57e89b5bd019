"""Smoke test of the benchmark: tiny inputs, every workload, both trace
modes. Checks that every metric BENCHMARK.json declares is emitted with
its unit and that every output check runs and passes.

Run from the root of the repository: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_metric_and_runs_every_check(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]

    stem = f"{workload}-seed7-trace{trace}-smoke"
    with open(os.path.join(ROOT, "perfbench", "out", stem + ".json")) as fh:
        result = json.load(fh)
    for name in run.EXPECTED_CHECKS:
        assert result["checks"][name]["ran"] >= 1, name
        assert result["checks"][name]["failed"] == 0, name
    env = result["environment"]
    assert env["cpu_count"] == os.cpu_count() and env["python"]
    assert "git_sha" in env and env["executable"] == "/bin/true"
    assert result["local_pilot_cores"] == os.cpu_count()
    if trace:
        for part in ("sim", "local"):
            assert set(result["layers"][part]) == set(spans.LAYERS)
        assert result["top_spans"]["self"]["name"] and result["top_spans"]["busy"]["name"]
        for path in result["span_files"]:
            assert os.path.getsize(os.path.join(ROOT, path)) > 0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sim_hetero", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
