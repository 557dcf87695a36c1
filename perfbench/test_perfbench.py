"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
import liouv.cli  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def axis_session(tmp_path_factory):
    return run.Session("axis", 3, tmp_path_factory.mktemp("axis"))


def _corrupt_report(monkeypatch, damage):
    real = liouv.cli.build_report

    def build_report(*args, **kwargs):
        report = real(*args, **kwargs)
        damage(report)
        return report

    monkeypatch.setattr(liouv.cli, "build_report", build_report)


def _perturb_Z(report):
    Z = report["driving"]["Z"]
    Z[0][1] += 1e-4
    Z[1][0] -= 1e-4  # still antisymmetric: only the Lyapunov residual can tell


def _wrong_stationary_dim(report):
    report["ness"]["stationary_dim"] = 1


@pytest.mark.parametrize("damage", [_perturb_Z, _wrong_stationary_dim])
def test_corrupted_result_is_counted_as_failed(axis_session, monkeypatch, damage):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    clean = run.measure(axis_session, 0.0)
    assert run.tally(clean, []) == {"correct": True, "attempted": 1, "failed": 0}
    _corrupt_report(monkeypatch, damage)
    samples = run.measure(axis_session, 0.0)
    assert samples[0]["problems"]
    assert run.tally(samples, []) == {"correct": False, "attempted": 1, "failed": 1}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_not_ops(name, tmp_path):
    a = workloads.build(name, 1, tmp_path / "a")
    b = workloads.build(name, 2, tmp_path / "b")
    assert [op.kind for op in a] == [op.kind for op in b]
    assert [op.argv[:1] + op.argv[2:3] for op in a] == [op.argv[:1] + op.argv[2:3] for op in b]
    files_a = sorted(p.read_text() for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.read_text() for p in (tmp_path / "b").iterdir())
    assert len(files_a) == len(files_b)
    assert all(x != y for x, y in zip(files_a, files_b))


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json_for_any_seed(trace):
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    for seed in (1, 2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "certify", "--seed", str(seed),
             "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, cwd=run.ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "generic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
