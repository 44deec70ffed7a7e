"""Self-test of the benchmark's own code; it is not part of the tier-1 suite:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import workloads  # noqa: E402
from perfbench.metrics import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                               benchmark_entry)
from perfbench.tracing import Tracer  # noqa: E402


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
        env={"PATH": "/usr/bin:/bin"})


def test_benchmark_json_matches_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [benchmark_entry(m) for m in END_TO_END]
    assert spec["per_layer"] == [benchmark_entry(m) for m in PER_LAYER]
    e2e = {m.name for m in END_TO_END}
    for m in PER_LAYER:
        if not m.name.startswith("trace."):
            assert m.moves in e2e, m
            assert set(m.on.split(",")) <= set(WORKLOADS), m


@pytest.mark.parametrize("trace,spec", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_metric_printed_with_unit(trace, spec):
    proc = _run(ROOT, "--workload", "stationary-flux", "--seed", "0",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in spec]
    for m in spec:
        got = result["metrics"][m.name]
        assert got["unit"] == m.unit
        assert f"{m.name} = {got['value']!r} {m.unit}" in lines
    assert any(line.startswith("failed_frac = 0.0 ") for line in lines)
    assert any(line.startswith("provenance: ") for line in lines)


def _corrupt(path, kind, delta):
    """Shift the u value of the first interior row of the given kind."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        cols = line.split(",")
        if cols[-1] == kind and (kind == "trace" or float(cols[1]) not in
                                 (-1.0, 1.0)):
            cols[-2] = repr(float(cols[-2]) + delta)
            lines[i] = ",".join(cols)
            break
    path.write_text("\n".join(lines) + "\n")


def test_gate_fires_on_corrupted_snapshot(tmp_path):
    strip = workloads.WORKLOADS["strip-spinodal"]
    clean = workloads.Tally()
    strip.run(clean, tmp_path, data_seed=0)
    assert clean.failed == 0, clean.failures

    out = tmp_path / "out"
    _corrupt(out / "snapshot_0005.csv", "bulk", 1e-3)
    _corrupt(out / "snapshot_0007.csv", "trace", 1e-3)
    tally = workloads.Tally()
    post = strip.post_process(tally, (tmp_path / "run.cfg").read_text(), out, 0)
    strip.check(tally, *post)
    assert "snapshot_0005.csv: mass drift" in " ".join(tally.failures)
    assert ("snapshot_0007.csv: trace differs from bulk boundary"
            in tally.failures)


def test_tracer_self_time():
    import time

    tracer = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        traced_child()
        time.sleep(0.01)

    traced_child = tracer.wrap("child", child)
    tracer.run_id = 0
    tracer.wrap("parent", parent)()
    a = tracer.arrays()
    assert list(a["parent"]) == [-1, 0]
    dur = a["end"] - a["start"]
    assert dur[0] > dur[1] >= 0.02
    assert dur[0] - dur[1] >= 0.01


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "interval-quench", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
