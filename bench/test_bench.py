"""Self-test of the benchmark: determinism, result shape and the bare-copy failure.

Run with ``python3 -m pytest -q bench/test_bench.py`` from the repository root.
Each benchmark run is a subprocess, so two runs of one seed also differ in
their string-hash seed: exact counts that repeat are independent of it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Short task lists that still reach every task kind but example2's commands.
SHORT = {"cold-walk": 6, "lattice-queries": 8, "desk-verify": 15}
EXACT = ("tarski.steps", "market.choose_calls", "oracle.matchings_enumerated")


def bench(cwd, *args, timeout=300):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result(workload, trace, tasks, seed=7):
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tasks", str(tasks))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_counts_repeat_and_no_errors(workload):
    runs = [result(workload, 1, SHORT[workload]) for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] == 2 * SHORT[workload]
        assert set(r["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for key in EXACT:
        assert runs[0]["metrics"][key]["value"] == runs[1]["metrics"][key]["value"] > 0, key


def test_timed_run_reports_every_end_to_end_metric():
    r = result("cold-walk", 0, 3)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] == 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "cold-walk", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
