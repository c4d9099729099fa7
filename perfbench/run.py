"""erlap benchmark: one run of one workload.

    python3 perfbench/run.py --workload ids_edge --seed 20260809 --seconds 25 --trace 0

With ``--trace 0`` the run times the workload's harness entry point
(``run_ids``, ``run_census``, ``run_moments`` or ``run_verify``) with tracing
off and reports the end-to-end metrics; with ``--trace 1`` it makes the
separate traced run that reports the per-layer metrics.  Every call's
artifacts are checked (see ``bench.py``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, each call and each
metric with its unit.

This file never imports erlap: it starts ``bench.py`` in fresh interpreters
(which pin the BLAS thread pools to one thread) and takes ``setup_s`` as the
time from starting an interpreter until it has imported erlap and validated
the workload's configuration.  ``reps_per_s`` and ``setup_s`` are reported on
the reference clock of ``refclock.py``, whose kernel runs here while
``bench.py`` waits with its process group stopped: after each interpreter
gets ready and after each timed call.  The host-clock values are printed
next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# the kernel of the reference clock runs with one BLAS thread, as bench.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import refclock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start ``bench.py`` and return it once it reports ready, with the time taken."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
        start_new_session=True,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"bench.py did not get ready (exit code {proc.returncode})")
    return proc, ready_s


def _stop(proc: subprocess.Popen) -> None:
    """Kill what is left of ``proc``'s process group (pool workers included) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()
    try:
        proc.stdin.close()
    except BrokenPipeError:
        pass


def _resume(proc: subprocess.Popen) -> None:
    try:
        proc.stdin.write("go\n")
        proc.stdin.flush()
    except BrokenPipeError:  # bench.py has died; its exit code tells
        pass


def _kernel_s(proc: subprocess.Popen) -> float:
    """The kernel's time with ``proc``'s process group stopped, so that no work
    the program leaves running shares the CPU with the kernel."""
    os.killpg(proc.pid, signal.SIGSTOP)
    try:
        return refclock.calibrate()
    finally:
        os.killpg(proc.pid, signal.SIGCONT)


def run(args) -> dict:
    """One run of ``bench.py``: its result plus the reference-clock readings.

    ``setup`` holds (host seconds to ready, kernel seconds right after) per
    interpreter, and ``kernel_s`` the kernel time before the first timed call
    and after each one.
    """
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.reps is not None:
        common += ["--reps", str(args.reps)]
    setup, kernel_s = [], []
    if not args.trace:
        # bench.py (inheriting this) and the kernel share one CPU: on a shared
        # host each CPU can be slowed by other neighbours
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready_s = _start(common + ["--probe"])
            _stop(proc)
            setup.append((ready_s, refclock.calibrate()))
    proc, ready_s = _start(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    watchdog = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        if not args.trace:
            kernel_s.append(_kernel_s(proc))
            setup.append((ready_s, kernel_s[0]))
            _resume(proc)
        lines = []
        for line in proc.stdout:
            if line.strip() == "done":  # bench.py waits until the kernel has run
                kernel_s.append(_kernel_s(proc))
                _resume(proc)
            else:
                lines.append(line)
        proc.wait()
    finally:
        timed_out = not watchdog.is_alive()
        watchdog.cancel()
        _stop(proc)
    if timed_out:
        raise BenchError(f"bench.py ran longer than {TIMEOUT_S} s")
    if proc.returncode != 0 or not lines:
        raise BenchError(f"bench.py failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not args.trace and len(kernel_s) != len(result["calls"]) + 1:
        raise BenchError(f"{len(result['calls'])} calls but {len(kernel_s)} kernel times")
    result["setup_samples"] = setup
    result["kernel_s"] = kernel_s
    return result


def report(args, result: dict) -> dict:
    """Print the run's record and return the result line."""
    env = result["env"]
    print(f"erlap benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    host_rates, rates = [], []
    for i, call in enumerate(result["calls"]):
        wall = call.get("wall_ns")
        timing = (f"wall_s={wall / 1e9!r} cpu_s={call['cpu_s']!r} "
                  f"reps_per_s={call['n_reps'] / (wall / 1e9)!r}") if wall else "raised"
        if not args.trace:
            slowdown = refclock.slowdown(*result["kernel_s"][i:i + 2])
            timing += f" slowdown={slowdown!r}"
            if not call["problems"]:
                host_rates.append(call["n_reps"] / (wall / 1e9))
                rates.append(host_rates[-1] * slowdown)
        status = "ok" if not call["problems"] else "FAILED " + "; ".join(call["problems"])
        print(f"call {i} seed={call['seed']} workers={call['workers']} R={call['n_reps']} "
              f"traced={int(call['traced'])} {timing} {status}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"attempted={attempted} failed={failed} failed_share={failed / attempted!r}")
    metrics = {}
    if not args.trace:
        setup = result["setup_samples"]
        print(f"setup (host s, kernel s): {setup}")
        print(f"host_clock reps_per_s={statistics.median(host_rates or [0.0])!r} "
              f"setup_s={statistics.median(ready for ready, _ in setup)!r}")
        metrics["reps_per_s"] = {"value": statistics.median(rates or [0.0]), "unit": "1/s"}
        metrics["setup_s"] = {
            "value": statistics.median(ready / refclock.slowdown(k) for ready, k in setup),
            "unit": "s",
        }
    metrics.update(result["metrics"])
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one erlap benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="realizations per call instead of the workload's own R (smoke tests)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
