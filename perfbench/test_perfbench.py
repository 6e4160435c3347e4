"""Self-test of the benchmark in quick mode (tiny inputs).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    assert report["machine"]["seed"] == 3
    if workload == "analytic":
        # The R = C defect at -20 dB is in the quick list and must show.
        assert result["failed"] > 0
        assert any("snr_db=-20" in entry["request"] for entry in report["ledger"])


def test_same_seed_same_inputs(tmp_path):
    import workloads

    configs = []
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
        requests = workloads.build("spherical", 5, str(tmp_path / sub), quick=True)
        configs.append([open(r.argv[1]).read() for r in requests])
    assert configs[0] == configs[1]


def test_gate_fails_on_a_wrong_reference(tmp_path):
    refs = dict(gate.REFERENCES, capacity_snr10=1.3)
    summary = run.run_workload("analytic", 3, 0, 0, True, str(tmp_path), refs=refs)
    assert summary["gate_failures"] > 0
    gated = [e for e in summary["ledger"] if e["error"] == "gate"]
    assert gated and all("snr_db=10" in e["request"] for e in gated)
    assert "capacity_nats" in gated[0]["detail"]
    # The run went on: every request of the pass was attempted.
    assert summary["attempted"] == summary["requests_per_pass"]


def test_gate_passes_with_the_true_references(tmp_path):
    summary = run.run_workload("coset", 3, 0, 0, True, str(tmp_path))
    assert summary["gate_failures"] == 0
    assert summary["failed"] == 0
    # Every latency was calibrated against a machine-speed sample.
    assert summary["calibration_ms"] > 0
    assert summary["e2e"]["wall_s"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "analytic", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
