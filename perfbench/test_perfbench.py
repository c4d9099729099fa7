"""Tests of the benchmark itself, at tiny R.

    PYTHONPATH=src python3 -m pytest perfbench -q

They sit outside ``tests/`` so that the package's own suite does not collect
them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from tracer import TraceError, analyse, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_REPS = {"ids_edge": 3, "census_small": 40, "moments_nearcrit": 3, "verify_scan": 3}


def test_benchmark_json_names_the_workloads_and_units_of_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--reps", str(TINY_REPS[workload])],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in spec:
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), m["name"]
    if trace and workload == "census_small":
        assert all(m["value"] == 0 for k, m in result["metrics"].items()
                   if k.startswith("spectral."))


def test_changed_artifact_byte_fails_the_run(tmp_path, monkeypatch):
    name, seed, reps = "ids_edge", 5, 3
    result = bench.harness.run_ids(bench.make_config(name, seed, tmp_path / "ref", reps))
    reference = {name: {str(seed): {"n_reps": reps, "artifacts": bench.artifacts(result)}}}
    calls = bench.Calls(name, tmp_path / "work", reference, reps)

    monkeypatch.setattr(bench.harness, "BUILD_TAG", "another-build")
    assert calls.run(seed)["problems"] == []  # the build line is not compared

    write_table = bench.harness.write_table

    def one_byte_off(path, *args, **kwargs):
        out = write_table(path, *args, **kwargs)
        if path.name == "ids.csv":
            data = bytearray(path.read_bytes())
            i = max(k for k, b in enumerate(data) if chr(b).isdigit())
            data[i] ^= 1  # a digit stays a digit
            path.write_bytes(bytes(data))
        return out

    monkeypatch.setattr(bench.harness, "write_table", one_byte_off)
    assert calls.run(seed)["problems"]
    assert calls.run(seed + 1)["problems"] == []  # no reference for this seed
    assert calls.failed() == 1 and len(calls.records) == 3


def test_moment_floats_compare_to_the_stated_tolerance():
    want = ["# format=erlap-moments-csv-1", "two_k,lap_mean,satisfied", "2,1.5,true"]
    assert bench._compare("moments.csv", ["# format=erlap-moments-csv-1",
                                          "two_k,lap_mean,satisfied", "2,1.5000000000001,true"], want) == []
    assert bench._compare("moments.csv", ["# format=erlap-moments-csv-1",
                                          "two_k,lap_mean,satisfied", "2,1.50000000001,true"], want)
    assert bench._compare("moments.csv", ["# format=erlap-moments-csv-1",
                                          "two_k,lap_mean,satisfied", "2,1.5,false"], want)


def test_self_times_add_up_to_the_root_spans():
    # stages: 0 root, 1 sample (starts a realization), 2 solve, 3 inside solve
    # root [0, 100) holds sample [10, 20), solve [20, 50) with [25, 35) inside, sample [60, 70)
    events = [(0, 1), (10, 2), (20, -2), (20, 3), (25, 4), (35, -4), (50, -3),
              (60, 2), (70, -2), (100, -1)]
    wall, self_ns, per_rep = analyse(events, 4, bucket_stage=1)
    assert wall == 100
    assert self_ns.tolist() == [50, 20, 20, 10]
    assert per_rep.tolist() == [[10, 10, 20, 10], [30, 10, 0, 0]]
    with pytest.raises(TraceError):
        analyse([(0, 1), (5, 2), (9, -1), (10, -2)], 2, bucket_stage=1)


def test_tail_leaves_ten_values_beyond_it():
    assert tail(range(200)) == (189.0, 95.0)
    assert tail(range(5)) == (4.0, 100.0)
