"""Smoke test of the benchmark on a tiny lake.

Run from the repository root (it starts two Spark runs, a few minutes)::

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ["perfbench/run.py", "--workload", "tiny", "--seed", "1", "--seconds", "1"]


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, *extra], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emits_every_named_metric(bench, trace, section):
    result = _result(_run(ROOT, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # With --trace 1 the traced pass is checked against the untraced one, so
    # no failure means the traced answers equal the untraced answers.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in bench[section]]
    for m in bench[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_per_layer_table_matches_benchmark_json(bench):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import report

    assert [list(s) for s in report.metric_specs()] == [
        [m["name"], m["unit"], m["better"]] for m in bench["per_layer"]
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
