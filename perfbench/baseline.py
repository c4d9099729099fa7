"""Run every workload on several seeds and record the spread of each metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload of BENCHMARK.json this makes one untraced run on each of
the seeds 1-10 and one traced run on seed 1, all through ``run.py`` with the
run length from BENCHMARK.json.  For every end-to-end metric, and for the
host-clock ``reps_per_s`` and ``setup_s`` that ``run.py`` prints next to
them, it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread), and writes all results, with the environment line, to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run through run.py: its result line and the lines that record it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def host_clock(log: list[str]) -> dict[str, float]:
    """The host-clock values from the ``host_clock`` line of a run's record."""
    line = next(ln for ln in log if ln.startswith("host_clock "))
    return {f"host.{k}": float(v) for k, v in (kv.split("=") for kv in line.split()[1:])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, log = run(workload, seed, spec["run_seconds"], 0)
            record["env"] = next(ln for ln in log if ln.startswith("env "))
            runs.append({"seed": seed, **result, "host": host_clock(log), "log": log[2:]})
            print(workload, seed, json.dumps(result), flush=True)
        traced, _ = run(workload, SEEDS[0], spec["run_seconds"], 1)
        stats = {
            name: summary([r["metrics"][name]["value"] for r in runs]) for name in bounds
        }
        stats.update({
            name: summary([r["host"][name] for r in runs]) for name in runs[0]["host"]
        })
        for name, s in stats.items():
            line = f"{workload} {name}: median={s['median']!r} spread={s['spread']:.4f}"
            if name in bounds:
                ok = name == "setup_s" or s["spread"] < bounds[name] / 3
                line += f" bound={bounds[name]} {'ok' if ok else 'WIDE'}"
            print(line, flush=True)
        record["workloads"][workload] = {"summary": stats, "runs": runs, "traced": traced}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
