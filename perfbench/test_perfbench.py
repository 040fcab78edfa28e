"""Self-test of the benchmark: one op of each workload, untraced and
traced, through the real command line.

    python3 -m pytest perfbench/test_perfbench.py

Checks that the last output line is the result object, that it carries
every metric `BENCHMARK.json` names with the unit it names, and that
no op failed its output check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--max-ops",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_one_op(workload, trace):
    lines = run_bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    assert "failed_frac 0.0 frac (failed / attempted)" in lines
    if not trace:
        # wall-clock figures, printed but not gated
        for name, unit in (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("setup_wall_s", "s")):
            assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    env = json.loads(lines[0].removeprefix("env "))
    assert {"nproc", "python", "numpy", "scipy", "thread_env", "git_sha", "git_dirty"} <= set(env)


def test_refuses_without_sources():
    """Run from a copy that holds only the benchmark: it must fail
    without printing a result."""
    bare = HERE / "out" / "bare"
    bench = bare / "perfbench"
    bench.mkdir(parents=True, exist_ok=True)
    for f in ("run.py", "workloads.py", "tracing.py"):
        (bench / f).write_text((HERE / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
