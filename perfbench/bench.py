"""In-process half of the erlap benchmark: workloads, timed calls, checks, trace.

``run.py`` starts this file in a fresh interpreter::

    python3 perfbench/bench.py --workload W --seed S --seconds T --trace 0|1 [--reps R] [--probe]

It prints ``ready`` once erlap is imported and the workload's configuration is
validated; with ``--probe`` it then exits.  Otherwise it calls the workload's
harness entry point until ``T`` seconds are used and prints one JSON line with
what it measured.  Untraced, it waits for a ``go`` line on standard input
before the first call and after each call, which it ends with a ``done``
line: ``run.py`` runs the reference clock's kernel (``refclock.py``) in
those pauses.

The references that the artifacts are compared against live in
``reference.json``; ``python3 perfbench/bench.py --write-reference`` rewrites
them from the current code, which is only right after a deliberate change of
the artifact bytes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# one BLAS thread per process, set before numpy loads: at 2 workers on 2 cores
# unpinned pools oversubscribe, and the reference was written this way
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import erlap  # noqa: E402
from erlap import analytics, clusters, harness, spectral  # noqa: E402

from tracer import TraceError, Tracer, analyse, tail  # noqa: E402

DEFAULT_SEED = 20260809
HELD_OUT_SEED = 4242
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
MOMENT_RTOL = 1e-12
# header lines that carry ERLAP_BUILD_TAG, the temporary output directory or the
# worker count; the data must not depend on any of them
IGNORED_PREFIXES = tuple(
    prefix + key for prefix in ("# ", "") for key in ("build=", "config.outdir=", "config.workers=")
)


@dataclass(frozen=True)
class Workload:
    runner: str  # name of the erlap.harness entry point
    config: dict  # ExperimentConfig fields other than master_seed and outdir
    pool: int = 1  # workers of the traced run's extra call for parallel efficiency


WORKLOADS = {
    "ids_edge": Workload(
        "run_ids",
        dict(n_vertices=20_000, edge_prob=0.5, n_reps=200, grid_kind="geometric",
             e_min=0.05, e_max=0.5, n_points=10, workers=1),
    ),
    # timed at 1 worker: at 2 workers its rate spread too widely over seeds;
    # R=1e4 puts six calls in a run instead of three
    "census_small": Workload(
        "run_census", dict(n_vertices=200, edge_prob=0.5, n_reps=10_000, workers=1),
        pool=2,
    ),
    # R=50 gives calls of ~1.5 s, so a run takes its median over a dozen calls
    "moments_nearcrit": Workload(
        "run_moments", dict(n_vertices=10_000, edge_prob=0.9, n_reps=50, k_max=2, workers=1)
    ),
    "verify_scan": Workload(
        "run_verify", dict(n_vertices=10_000, edge_prob=0.5, n_reps=200, workers=1)
    ),
}

E2E_UNITS = {"reps_per_s": "1/s", "setup_s": "s", "peak_rss_growth_mib": "MiB"}

TIMED_STAGES = (
    "ensemble.sample",
    "clusters.decompose",
    "clusters.accumulate",
    "spectral.solve",
    "spectral.reduce",
)
STAGES = TIMED_STAGES + ("analytics.busy", "harness.write", "harness.self")

LAYER_UNITS = {}
for _stage in TIMED_STAGES:
    LAYER_UNITS[f"{_stage}_us_p50"] = "us"
    LAYER_UNITS[f"{_stage}_us_tail"] = "us"
    LAYER_UNITS[f"{_stage}_share"] = "ratio"
LAYER_UNITS.update({
    "ensemble.edges_per_rep": "count",
    "clusters.clusters_per_rep": "count",
    "clusters.largest_cluster": "count",
    "clusters.tree_share": "ratio",
    "spectral.solved_clusters_per_rep": "count",
    "spectral.dense_bytes_per_rep": "B",
    "spectral.prunable_share": "ratio",
    "analytics.busy_share": "ratio",
    "harness.self_share": "ratio",
    "harness.write_us": "us",
    "harness.bytes_written": "B",
    "harness.parallel_efficiency": "ratio",
    "trace.overhead_share": "ratio",
    "trace.tail_pct": "%",
    "trace.reps": "count",
})


def make_config(name: str, seed: int, outdir: Path, reps: int | None = None,
                workers: int | None = None) -> harness.ExperimentConfig:
    values = dict(WORKLOADS[name].config, master_seed=seed, outdir=str(outdir))
    if reps is not None:
        values["n_reps"] = reps
    if workers is not None:
        values["workers"] = workers
    return harness.ExperimentConfig(**values)


def call_seeds(seed: int):
    """Master seeds of the successive calls in one run.

    The first call always uses the default seed, so every run compares one
    call's artifacts byte for byte with reference.json and measures memory on
    the same input.  The second uses ``seed`` itself (the held-out reference
    seed if ``seed`` is the default), the rest seeds derived from ``seed``.
    """
    yield DEFAULT_SEED
    yield HELD_OUT_SEED if seed == DEFAULT_SEED else seed
    i = 2
    while True:
        yield int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])
        i += 1


# ---------------------------------------------------------------------------
# output checks


def _lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith(IGNORED_PREFIXES)]


def artifacts(result) -> dict[str, list[str]]:
    """The artifact content a reference pins, one list of lines per file."""
    if isinstance(result, harness.VerifyResult):
        lines = [f"check.{name}={ok}" for name, ok, _ in result.checks]
        lines += [
            f"ok={result.ok}",
            f"violations={len(result.violations)}",
            f"clusters_total={result.clusters_total}",
            f"clusters_checked={result.clusters_checked}",
        ]
        return {"verify": lines}
    paths = (getattr(result, f.name) for f in fields(result))
    return {p.name: _lines(p) for p in paths if isinstance(p, Path)}


def _rows(lines: list[str]) -> tuple[list[str], list[list[str]]]:
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return body[0], body[1:]


def _same_float(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= MOMENT_RTOL * max(abs(x), abs(y))


def _compare(name: str, got: list[str], want: list[str]) -> list[str]:
    if name != "moments.csv":
        if got == want:
            return []
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return [f"{name} line {i}: {g!r} != reference {w!r}"]
        return [f"{name}: {len(got)} lines != reference {len(want)}"]
    # moments: float columns to MOMENT_RTOL, everything else exactly
    got_head = [ln for ln in got if ln.startswith("#")]
    want_head = [ln for ln in want if ln.startswith("#")]
    if got_head != want_head:
        return [f"{name}: header differs from reference"]
    cols, got_rows = _rows(got)
    want_cols, want_rows = _rows(want)
    if cols != want_cols or len(got_rows) != len(want_rows):
        return [f"{name}: columns or row count differ from reference"]
    problems = []
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        for col, a, b in zip(cols, g, w):
            exact = col in ("two_k", "satisfied")
            if (a != b) if exact else not _same_float(a, b):
                problems.append(f"{name} row {i} {col}: {a} != reference {b}")
    return problems


def invariants(name: str, config, result) -> list[str]:
    """Identities that hold for every seed."""
    if name == "verify_scan":
        if result.ok and not result.violations:
            return []
        return [f"verify: ok={result.ok} violations={list(result.violations)[:3]}"]
    if name == "ids_edge":
        cols, rows = _rows(_lines(result.ids_csv))
        sigma = [float(r[cols.index("sigma_hat")]) for r in rows]
        if len(sigma) != config.n_points:
            return [f"ids.csv has {len(sigma)} rows, grid has {config.n_points}"]
        if any(b < a for a, b in zip(sigma, sigma[1:])) or sigma[-1] > 1.0:
            return [f"sigma is not nondecreasing in [0, 1]: {sigma}"]
        return []
    if name == "census_small":
        cols, rows = _rows(_lines(result.census_csv))
        covered = sum(int(r[cols.index("size")]) * int(r[cols.index("clusters")]) for r in rows)
        want = config.n_vertices * config.n_reps
        return [] if covered == want else [f"census covers {covered} vertices, not N*R={want}"]
    cols, rows = _rows(_lines(result.moments_csv))
    satisfied = [r[cols.index("satisfied")] for r in rows]
    if len(rows) != config.k_max or any(s != "true" for s in satisfied):
        return [f"moment inequality: satisfied={satisfied} for k_max={config.k_max}"]
    return []


def check(name: str, config, result, reference: dict) -> list[str]:
    """Invariants always; exact artifacts when ``reference`` pins this seed and R."""
    problems = invariants(name, config, result)
    ref = reference.get(name, {}).get(str(config.master_seed))
    if ref is not None and ref["n_reps"] == config.n_reps:
        got = artifacts(result)
        if sorted(got) != sorted(ref["artifacts"]):
            problems.append(f"artifact set {sorted(got)} != reference {sorted(ref['artifacts'])}")
        for file, want in ref["artifacts"].items():
            problems += _compare(file, got.get(file, []), want)
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def write_reference(workdir: Path) -> None:
    out = {}
    for name in WORKLOADS:
        out[name] = {}
        for seed in REFERENCE_SEEDS:
            config = make_config(name, seed, workdir / f"{name}-{seed}")
            result = getattr(harness, WORKLOADS[name].runner)(config)
            problems = invariants(name, config, result)
            if problems:
                raise RuntimeError(f"{name} seed {seed}: {problems}")
            out[name][str(seed)] = {"n_reps": config.n_reps, "artifacts": artifacts(result)}
            print(f"reference {name} seed={seed}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# timed calls


def _cpu_s() -> float:
    """CPU seconds used by this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _bytes_in(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Calls:
    """Runs checked calls of one workload and keeps their outcomes."""

    def __init__(self, name: str, workdir: Path, reference: dict, reps: int | None):
        self.name = name
        self.workdir = workdir
        self.reference = reference
        self.reps = reps
        self.records: list[dict] = []

    def run(self, seed: int, workers: int | None = None, runner=None) -> dict:
        """One call of the harness entry point; ``runner`` replaces it when traced.

        The call is timed from entry until it returns with its artifacts
        written.  A call that raises or fails a check counts as failed.
        """
        outdir = self.workdir / f"call{len(self.records)}"
        config = make_config(self.name, seed, outdir, self.reps, workers)
        record = {"seed": seed, "workers": config.workers, "n_reps": config.n_reps,
                  "traced": runner is not None}
        runner = runner or getattr(harness, WORKLOADS[self.name].runner)
        try:
            cpu0 = _cpu_s()
            t0 = time.perf_counter_ns()
            result = runner(config)
            record["wall_ns"] = time.perf_counter_ns() - t0
            record["cpu_s"] = _cpu_s() - cpu0
            problems = check(self.name, config, result, self.reference)
            record["bytes_written"] = _bytes_in(outdir) if outdir.exists() else 0
        except Exception as exc:  # a failing call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        record["problems"] = problems
        self.records.append(record)
        return record

    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pause() -> None:
    """Wait until ``run.py`` has timed the reference clock's kernel."""
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("error: run.py did not resume this run")


def measure(seed: int, seconds: float, calls: Calls, ready_rss_mib: float) -> dict:
    """Untraced calls at the workload's own settings until ``seconds`` are used.

    After each call this process pauses while ``run.py`` times the reference
    clock's kernel; ``run.py`` turns the calls' wall times into ``reps_per_s``.
    A call starts only if the median call so far still fits in the budget;
    the first call always runs.

    The memory metric is how far the first call raises this process's peak
    RSS above its peak when it got ready, so it counts what erlap allocates
    and not the interpreter and its imports.  The first call always runs the
    default seed: the peak follows the largest cluster, and at
    ``moments_nearcrit``'s near-critical p that changes from seed to seed by
    more than half.
    """
    start = time.perf_counter()
    walls = []
    for s in call_seeds(seed):
        record = calls.run(s)
        if len(calls.records) == 1:
            growth_mib = _max_rss_mib() - ready_rss_mib
        print("done", flush=True)
        _pause()
        if "wall_ns" in record:
            walls.append(record["wall_ns"] / 1e9)
        typical = statistics.median(walls) if walls else 0.0
        if time.perf_counter() - start + typical > seconds:
            break
    return {"peak_rss_growth_mib": growth_mib}


# ---------------------------------------------------------------------------
# traced run


class TraceCounts:
    """Counters taken at the span boundaries, summarised after each call."""

    def __init__(self):
        self.edges: list[int] = []
        self.decomposed: list[tuple[np.ndarray, np.ndarray]] = []
        self.solved: list[np.ndarray] = []

    def on_sample(self, args, graph) -> None:
        self.edges.append(graph.n_edges)

    def on_decompose(self, args, d) -> None:
        self.decomposed.append((d.sizes, d.edge_counts))

    def on_grouped_solve(self, args, out) -> None:
        self.solved.append(args[0].sizes)

    def on_cluster_solve(self, args, spectrum) -> None:
        self.solved.append(np.array([spectrum.size]))


def instrument(tracer: Tracer, counts: TraceCounts) -> None:
    """Wrap every public call the harness makes into the other modules."""
    for module in (harness, spectral):
        tracer.patch(module, "sample_graph", "ensemble.sample", counts.on_sample)
        tracer.patch(module, "decompose", "clusters.decompose", counts.on_decompose)
    for method in ("add", "merge", "report"):
        tracer.patch(clusters.CensusAccumulator, method, "clusters.accumulate")
    # the stacked solve behind graph_spectrum, cluster_min_gaps and the moments
    tracer.patch(spectral, "_grouped_eigenvalues", "spectral.solve", counts.on_grouped_solve)
    tracer.patch(harness, "eigenvalues_cluster", "spectral.solve", counts.on_cluster_solve)
    for fn in ("empirical_ids", "moment_samples", "graph_spectrum", "cluster_min_gaps",
               "quadratic_form", "path_emin_reference"):
        tracer.patch(harness, fn, "spectral.reduce")
    for fn in analytics.__all__:
        if inspect.isfunction(getattr(analytics, fn)):
            tracer.patch(analytics, fn, "analytics.busy")
    for fn in ("write_table", "write_summary"):
        tracer.patch(harness, fn, "harness.write")


def _fiedler_floor(sizes: np.ndarray) -> np.ndarray:
    """Smallest possible Fiedler value of a connected graph on each size."""
    return 2.0 * (1.0 - np.cos(np.pi / sizes))


def trace_run(name: str, seed: int, seconds: float, calls: Calls) -> dict:
    """Rounds of an untraced and a traced call of one seed, both at 1 worker.

    The per-layer numbers come from the traced calls; the untraced ones give
    the tracing overhead.  For a workload with a ``pool``, each round also
    makes an untraced call on that many workers for the parallel efficiency.
    """
    pool = WORKLOADS[name].pool
    runner = getattr(harness, WORKLOADS[name].runner)
    start = time.perf_counter()
    wall = np.int64(0)
    self_ns = np.zeros(len(STAGES), dtype=np.int64)
    per_rep = []
    serial_ns = traced_ns = parallel_ns = 0
    n_traced = 0
    totals = dict(edges=0, clusters=0, largest=0, nontrivial=0, trees=0, solved=0,
                  dense_bytes=0, prunable=0, solved_nontrivial=0)
    rounds = []
    for s in call_seeds(seed):
        t_round = time.perf_counter()
        serial = calls.run(s)
        tracer = Tracer(list(STAGES))
        counts = TraceCounts()
        instrument(tracer, counts)
        try:
            traced = calls.run(s, runner=tracer.wrap("harness.self", runner))
        finally:
            tracer.restore()
        parallel = calls.run(s, workers=pool) if pool > 1 else serial
        if all("wall_ns" in r for r in (serial, traced, parallel)):
            try:
                w, st, pr = analyse(tracer.events, len(STAGES), STAGES.index("ensemble.sample"))
                if abs(w - traced["wall_ns"]) > 0.01 * traced["wall_ns"]:
                    raise TraceError(f"root spans {w} ns vs measured {traced['wall_ns']} ns")
            except TraceError as exc:
                traced["problems"].append(f"self-time accounting: {exc}")
            else:
                wall += w
                self_ns += st
                per_rep.append(pr)
                serial_ns += serial["wall_ns"]
                traced_ns += traced["wall_ns"]
                parallel_ns += parallel["wall_ns"]
                n_traced += 1
                _count(totals, counts, WORKLOADS[name].config.get("e_max"))
        del tracer, counts
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    reps_ns = np.concatenate(per_rep) if per_rep else np.zeros((0, len(STAGES)), np.int64)
    n_reps = reps_ns.shape[0]
    metrics = {}
    pct = 0.0
    for stage in TIMED_STAGES:
        i = STAGES.index(stage)
        us = reps_ns[:, i] / 1e3
        metrics[f"{stage}_us_p50"] = float(np.median(us)) if n_reps else 0.0
        metrics[f"{stage}_us_tail"], pct = tail(us)
        metrics[f"{stage}_share"] = float(self_ns[i] / wall) if wall else 0.0
    per = max(n_reps, 1)
    metrics.update({
        "ensemble.edges_per_rep": totals["edges"] / per,
        "clusters.clusters_per_rep": totals["clusters"] / per,
        "clusters.largest_cluster": totals["largest"],
        "clusters.tree_share": totals["trees"] / max(totals["nontrivial"], 1),
        "spectral.solved_clusters_per_rep": totals["solved"] / per,
        "spectral.dense_bytes_per_rep": totals["dense_bytes"] / per,
        "spectral.prunable_share": totals["prunable"] / max(totals["solved_nontrivial"], 1),
        "analytics.busy_share": float(self_ns[STAGES.index("analytics.busy")] / wall) if wall else 0.0,
        "harness.self_share": float(self_ns[STAGES.index("harness.self")] / wall) if wall else 0.0,
        "harness.write_us": float(self_ns[STAGES.index("harness.write")] / 1e3 / max(n_traced, 1)),
        "harness.bytes_written": statistics.median(
            [r["bytes_written"] for r in calls.records if "bytes_written" in r] or [0]),
        "harness.parallel_efficiency": serial_ns / (pool * parallel_ns) if parallel_ns else 0.0,
        "trace.overhead_share": (traced_ns - serial_ns) / serial_ns if serial_ns else 0.0,
        "trace.tail_pct": pct,
        "trace.reps": n_reps,
    })
    return metrics


def _count(totals: dict, counts: TraceCounts, e_max: float | None) -> None:
    """Add one traced call's counters; pruning by ``e_max`` applies to IDS runs only."""
    totals["edges"] += sum(counts.edges)
    for sizes, edge_counts in counts.decomposed:
        nontrivial = sizes >= 2
        totals["clusters"] += sizes.shape[0]
        totals["largest"] = max(totals["largest"], int(sizes.max()) if sizes.size else 0)
        totals["nontrivial"] += int(nontrivial.sum())
        totals["trees"] += int((nontrivial & (edge_counts == sizes - 1)).sum())
    for sizes in counts.solved:
        s = sizes[sizes >= 2].astype(np.float64)
        totals["solved"] += s.shape[0]
        totals["dense_bytes"] += int(8 * (s * s).sum())
        if e_max is not None:
            totals["solved_nontrivial"] += s.shape[0]
            totals["prunable"] += int((_fiedler_floor(s) > e_max).sum())


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import multiprocessing
    import platform

    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "start_method": multiprocessing.get_start_method(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "erlap": erlap.__version__,
    }


def _remove(workdir: Path) -> None:
    """Delete this run's work directory, and its parent once no run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="realizations per call (default: the workload's own R)")
    parser.add_argument("--probe", action="store_true", help="exit once ready")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())

    src = (ROOT / "src").resolve()
    if not Path(erlap.__file__).resolve().is_relative_to(src):
        print(f"error: erlap was imported from {erlap.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.write_reference:
        try:
            write_reference(workdir)
        finally:
            _remove(workdir)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    make_config(args.workload, args.seed, workdir, args.reps)  # validation is set-up
    print("ready", flush=True)
    if args.probe:
        return 0

    calls = Calls(args.workload, workdir, load_reference(), args.reps)
    try:
        if args.trace:
            metrics = trace_run(args.workload, args.seed, args.seconds, calls)
        else:
            ready_rss_mib = _max_rss_mib()
            _pause()
            metrics = measure(args.seed, args.seconds, calls, ready_rss_mib)
    finally:
        _remove(workdir)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    print(json.dumps({
        "attempted": len(calls.records),
        "failed": calls.failed(),
        "metrics": {k: {"value": getattr(v, "item", lambda: v)(), "unit": units[k]}
                    for k, v in metrics.items()},
        "calls": calls.records,
        "env": environment(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
