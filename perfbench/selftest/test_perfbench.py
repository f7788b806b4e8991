"""Self-test of the benchmark (tiny inputs, about a minute).

Run from the repository root::

    python3 -m pytest perfbench/selftest -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in expected]
    for entry in expected:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{entry['name']} ")
                   and line.endswith(f" {entry['unit']}") for line in lines)


def test_workloads_match_the_spec():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(
        workloads.WORKLOADS)


def test_same_seed_same_inputs():
    first = workloads.build("schema_churn", 5, tiny=True)
    second = workloads.build("schema_churn", 5, tiny=True)
    assert [p.raw for p in first.payloads] == [p.raw for p in second.payloads]
    assert first.order == second.order


def test_wrong_expected_verdict_is_caught(monkeypatch, capsys):
    workload = workloads.build("serve_small", 3, tiny=True)
    victim = workload.payloads[workload.order[0]]
    victim.valid = not victim.valid
    monkeypatch.setattr(workloads, "build", lambda *args, **kw: workload)
    code = run.main(["--workload", "serve_small", "--seed", "3",
                     "--seconds", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "serve_small", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
