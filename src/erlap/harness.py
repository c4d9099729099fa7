"""Experiment orchestration: configured Monte Carlo runs, bound-verification
reports, spectral-edge exponent regression, and versioned persisted artifacts.

Every persisted file starts with a comment header carrying the format
version, the full configuration echo, the master seed, and a build tag.
All aggregation is either over exact integer counters or over arrays indexed
by realization, so identical configurations produce byte-identical artifacts
regardless of the worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO

import numpy as np

from . import analytics, ensemble, spectral
from .clusters import CensusAccumulator, CensusReport, ClusterDecomposition, decompose
from .ensemble import Graph, GraphSpec, sample_graph
from .spectral import (
    DEFAULT_SIZE_CAP,
    MAX_MOMENT_POWER,
    IdsEstimate,
    MomentInequalityReport,
    MomentSamples,
    _each_realization,
    _run_chunked,
    # unused here, wrapped on this module by perfbench's traced run: cluster_min_gaps,
    # eigenvalues_cluster, graph_spectrum, path_emin_reference, quadratic_form (and sample_graph)
    cluster_min_gaps,
    counting_function,
    empirical_ids,
    eigenvalues_cluster,
    fiedler_floor,
    graph_spectrum,
    moment_samples,
    path_emin_reference,
    quadratic_form,
)

__all__ = [
    "BUILD_TAG",
    "ExperimentConfig",
    "IdsRunResult",
    "CensusRunResult",
    "MomentsRunResult",
    "VerifyResult",
    "run_ids",
    "run_census",
    "run_lifshitz",
    "run_moments",
    "run_verify",
    "weighted_line_fit",
]

_CONFIG_FORMAT = "erlap-config-1"
BUILD_TAG = os.environ.get("ERLAP_BUILD_TAG", "erlap-0.1.0")

_GRID_KINDS = ("geometric", "linear", "explicit")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one orchestrated run.

    Round-trips losslessly through the flat key=value file format written by
    :meth:`to_file`.
    """

    n_vertices: int = 1000
    edge_prob: float = 0.5
    n_reps: int = 10
    master_seed: int = 1
    grid_kind: str = "geometric"
    e_min: float = 0.05
    e_max: float = 0.5
    n_points: int = 10
    energies: tuple[float, ...] | None = None
    workers: int = 1
    outdir: str = "."
    size_cap: int = DEFAULT_SIZE_CAP
    chain_size: int = 3
    k_max: int = 2
    anchor_e_min: float = 1e-4
    anchor_e_max: float = 1e-2
    anchor_points: int = 20
    noise_floor: float = 5.0
    tau_n_max: int = 50

    def __post_init__(self):
        # bounds and tau draw no graph, so p/N may underflow; spec() checks the drawn graph
        ensemble._check_graph_fields(self.n_vertices, self.edge_prob, self.master_seed, drawn=False)
        if self.n_reps < 1:
            raise ValueError("n_reps must be at least 1")
        if self.grid_kind not in _GRID_KINDS:
            raise ValueError(f"grid_kind must be one of {_GRID_KINDS}, got {self.grid_kind!r}")
        if self.grid_kind == "explicit":
            grid = spectral._validate_grid(self.energies)  # also rejects a missing grid
            object.__setattr__(self, "energies", tuple(float(x) for x in grid))
        else:
            if not (0.0 < self.e_min < self.e_max < math.inf):
                raise ValueError("need 0 < e_min < e_max < inf")
            if self.n_points < 2:
                raise ValueError("need at least two grid points")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.size_cap < 2:
            raise ValueError("size_cap must be at least 2")
        if self.chain_size < 2:
            raise ValueError("chain_size must be at least 2")
        if not 1 <= self.k_max <= MAX_MOMENT_POWER // 2:
            raise ValueError(f"k_max must lie in [1, {MAX_MOMENT_POWER // 2}]")
        if not (0.0 < self.anchor_e_min < self.anchor_e_max < math.inf):
            raise ValueError("need 0 < anchor_e_min < anchor_e_max < inf")
        if self.anchor_points < 4:
            raise ValueError("anchor fit needs at least 4 points")
        if not 0.0 < self.noise_floor < math.inf:
            raise ValueError("noise_floor must be positive and finite")
        if self.tau_n_max < 1:
            raise ValueError("tau_n_max must be at least 1")

    def spec(self) -> GraphSpec:
        return GraphSpec(self.n_vertices, self.edge_prob, self.master_seed)

    def energy_grid(self) -> np.ndarray:
        if self.grid_kind == "explicit":
            return np.asarray(self.energies, dtype=np.float64)
        if self.grid_kind == "geometric":
            return np.geomspace(self.e_min, self.e_max, self.n_points)
        return np.linspace(self.e_min, self.e_max, self.n_points)

    def to_file(self, dest: str | Path | IO[str]) -> None:
        lines = [f"format={_CONFIG_FORMAT}\n"]
        for f in fields(self):
            lines.append(f"{f.name}={_fmt(getattr(self, f.name))}\n")
        text = "".join(lines)
        if hasattr(dest, "write"):
            dest.write(text)
        else:
            Path(dest).write_text(text, newline="\n")

    @classmethod
    def from_file(cls, src: str | Path | IO[str]) -> "ExperimentConfig":
        text = src.read() if hasattr(src, "read") else Path(src).read_text()
        pairs = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            pairs[key] = value
        if pairs.pop("format", None) != _CONFIG_FORMAT:
            raise ValueError(f"unsupported config format (expected {_CONFIG_FORMAT})")
        kwargs = {}
        for f in fields(cls):
            if f.name not in pairs:
                raise ValueError(f"config file is missing key {f.name!r}")
            kwargs[f.name] = _decode(f, pairs.pop(f.name))
        if pairs:
            raise ValueError(f"unknown config keys: {sorted(pairs)}")
        return cls(**kwargs)


def _decode(f, raw: str):
    t = f.type
    if raw == "none" and t.endswith("None"):
        return None
    if t.startswith("int"):
        return int(raw)
    if t.startswith("float"):
        return float(raw)
    if t.startswith("tuple"):
        return tuple(float(x) for x in raw.split(","))
    return raw


def _fmt(value) -> str:
    """The one text form of config fields, table cells and summary values;
    :func:`_decode` reads the config fields back."""
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(_fmt(float(v)) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _header_lines(name: str, config: ExperimentConfig, extra: dict | None = None) -> list[str]:
    head = [("format", f"erlap-{name}-1"), ("build", BUILD_TAG), ("seed", config.master_seed)]
    head += [(f"config.{f.name}", getattr(config, f.name)) for f in fields(config)]
    return [f"# {key}={_fmt(value)}\n" for key, value in head + list((extra or {}).items())]


def write_table(
    path: Path,
    name: str,
    config: ExperimentConfig,
    columns: list[tuple[str, object]],
    extra_header: dict | None = None,
) -> Path:
    """Write a CSV table with the standard comment header block, creating its directory."""
    rows = len(columns[0][1])
    lines = _header_lines(name, config, extra_header)
    lines.append(",".join(col for col, _ in columns) + "\n")
    for i in range(rows):
        lines.append(",".join(_fmt(values[i]) for _, values in columns) + "\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines), newline="\n")
    return path


def write_summary(path: Path, name: str, config: ExperimentConfig, values: dict) -> Path:
    """Write a versioned key=value summary record, a table's header lines unprefixed,
    creating its directory."""
    lines = [line[2:] for line in _header_lines(f"{name}-summary", config, values)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines), newline="\n")
    return path


def summary_line(name: str, values: dict) -> str:
    """Single machine-readable stdout line for a subcommand."""
    parts = [name] + [f"{k}={_fmt(v)}" for k, v in values.items()]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# ids + bounds


def envelope_columns(energies: np.ndarray, p: float) -> list[tuple[str, np.ndarray]]:
    """The paper's envelopes of sigma(E) - sigma(0) on an energy grid, as table
    columns: the staircase and smooth lower bounds and the upper bound."""
    return [
        ("lower_staircase", analytics.lower_bound_L(energies, p, "staircase")),
        ("lower_smooth", analytics.lower_bound_L(energies, p, "smooth")),
        ("upper", analytics.upper_bound_U(energies, p)),
    ]


def _gap_status(ids: IdsEstimate, noise_floor: float) -> list[str]:
    """For each grid point, "used" when its gap estimate is positive, has a finite
    standard error and exceeds ``noise_floor`` of them; otherwise the first of
    those rules that it fails.  The log transform amplifies noise without mercy
    near zero, so a point that fails is excluded rather than zero-imputed."""
    delta, se = ids.delta_sigma, ids.delta_sigma_se
    return np.select(  # np.select takes the first condition that holds
        [~(delta > 0.0), ~np.isfinite(se), delta <= noise_floor * se],
        ["nonpositive gap estimate", "no standard error (single realization)", "below noise floor"],
        "used",
    ).tolist()


@dataclass(frozen=True)
class IdsRunResult:
    ids: IdsEstimate
    usable: np.ndarray | None
    ids_csv: Path
    bounds_csv: Path | None
    summary_path: Path


def run_ids(config: ExperimentConfig) -> IdsRunResult:
    """Monte Carlo IDS estimate plus bound verification, persisted as CSV."""
    outdir = Path(config.outdir)
    grid = config.energy_grid()
    ids = empirical_ids(
        config.spec(), config.n_reps, grid, workers=config.workers, size_cap=config.size_cap
    )
    ids_csv = write_table(
        outdir / "ids.csv",
        "ids-csv",
        config,
        [("E", ids.energies), ("sigma_hat", ids.sigma), ("stderr", ids.sigma_se)],
        {"sigma0_hat": ids.sigma0, "sigma0_stderr": ids.sigma0_se},
    )
    usable = None
    bounds_csv = None
    summary = {
        "status": "ok",
        "sigma0_hat": ids.sigma0,
        "sigma0_stderr": ids.sigma0_se,
        "grid_points": ids.energies.shape[0],
    }
    p, e, delta = ids.p, ids.energies, ids.delta_sigma
    if 0.0 < p < 1.0:
        usable = np.array(_gap_status(ids, config.noise_floor)) == "used"
        rescaled = np.full(e.shape, np.nan)
        rescaled[usable] = -np.log(delta[usable]) * np.sqrt(e[usable])
        window_low = analytics.decay_f(p)
        window_high = analytics.TWO_SQRT3 * analytics.decay_F(p)
        near_critical = p > 0.95
        bounds_csv = write_table(
            outdir / "bounds.csv",
            "bounds-csv",
            config,
            [("E", e), ("delta_sigma", delta), ("stderr", ids.delta_sigma_se)]
            + envelope_columns(e, p)
            + [
                ("rescaled_stat", rescaled),
                ("window_low", np.full(e.shape, window_low)),
                ("window_high", np.full(e.shape, window_high)),
                ("replica_g", np.full(e.shape, analytics.replica_g(p))),
                ("status", ["ok" if u else "below_noise_floor" for u in usable]),
            ],
            {
                "replica_note": "replica value is heuristic, not a proven bound",
                "noise_floor": config.noise_floor,
                "near_critical": near_critical,
            },
        )
        summary["usable_points"] = int(usable.sum())
        summary["window_low"] = window_low
        summary["window_high"] = window_high
        if near_critical:
            summary["warning"] = "near-critical: slow convergence expected"
    else:
        summary["warning"] = "bounds omitted: p outside (0, 1)"
    summary_path = write_summary(outdir / "ids_summary.txt", "ids", config, summary)
    return IdsRunResult(ids, usable, ids_csv, bounds_csv, summary_path)


# ---------------------------------------------------------------------------
# census


# Census realizations are decomposed in blocks, one disjoint union of at most this
# many vertices (one realization per block from N = 8192 on).  It bounds the block's
# temporaries: only its degrees and renumbering are this long, and the decomposition
# holds only the vertices with an edge (39% at p = 0.5), so 8192 needs about what
# 4096 did when every vertex was labelled.  census_small ran at 47.8k reps/s with
# 8192 and 36.8k with 4096 (perfbench, 4 paired 25 s runs, 2 shared vCPUs).
_BLOCK_VERTICES = 8192


def _census_chunk(args):
    spec, rs = args
    n = spec.n_vertices
    acc = CensusAccumulator(n, spec.edge_prob)
    for idx, counts in ensemble.sample_pair_index_blocks(spec, rs, max(1, _BLOCK_VERTICES // n)):
        # one index_pair call per block; offsetting graph b by b*N keeps the edges sorted
        edges = ensemble.index_pair(idx, n) + np.repeat(np.arange(counts.size) * n, counts)[:, None]
        acc.add(decompose(Graph(counts.size * n, edges, validate=False)), n_reps=counts.size)
    return [acc]


@dataclass(frozen=True)
class CensusRunResult:
    report: CensusReport
    census_csv: Path
    summary_path: Path


def run_census(config: ExperimentConfig) -> CensusRunResult:
    """Cluster census over the configured ensemble with analytic comparison.

    A chain longer than N, which no cluster can hold at any p, is rejected
    before any realization is drawn, so it writes nothing.
    """
    outdir = Path(config.outdir)
    n = config.n_vertices
    p = config.edge_prob
    chain = config.chain_size
    if chain > n:
        raise ValueError(f"chain length m must lie in [2, N], got {chain}")
    subcritical = 0.0 < p < 1.0
    chain_exact = analytics.linear_prob_finite(n, p, chain) if subcritical else None
    acc, *parts = _run_chunked(_census_chunk, config.spec(), config.n_reps, (), config.workers)
    for part in parts:
        acc.merge(part)
    report = acc.report()

    top = report.max_size
    sizes = np.arange(1, top + 1, dtype=np.int64)
    tau_hat = report.tau_hat()[1:]
    tau_se = report.tau_hat_se()[1:]
    if subcritical:
        tau_limit = analytics.tau_n(p, sizes)
        tree_finite = np.asarray([analytics.tree_prob_finite(n, p, int(s)) for s in sizes])
        linear_density = np.asarray(
            [analytics.linear_prob_finite(n, p, int(s)) / s if s >= 2 else math.nan for s in sizes]
        )
    else:
        tau_limit = np.full(sizes.shape, np.nan)
        tree_finite = np.full(sizes.shape, np.nan)
        linear_density = np.full(sizes.shape, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (tau_hat - tau_limit) / tau_se
    census_csv = write_table(
        outdir / "census.csv",
        "census-csv",
        config,
        [
            ("size", sizes),
            ("clusters", report.clusters_by_size[1:]),
            ("trees", report.trees_by_size[1:]),
            ("linear", report.linear_by_size[1:]),
            ("tau_hat", tau_hat),
            ("tau_hat_se", tau_se),
            ("tau_limit", tau_limit),
            ("z_tau", z),
            ("tree_density_finite", tree_finite),
            ("linear_density_finite", linear_density),
        ],
        {"se_note": "nan standard errors mean R < 2" if config.n_reps < 2 else "ok"},
    )
    freq, freq_se = report.linear_chain_frequency(chain)
    summary = {
        "status": "ok",
        "total_clusters": report.total_clusters,
        "mean_cluster_density": report.mean_cluster_density(),
        "tree_vertex_fraction": report.tree_fraction(),
        "chain_size": chain,
        "chain_frequency": freq,
        "chain_frequency_se": freq_se,
    }
    if subcritical:
        summary["chain_exact"] = chain_exact
        summary["chain_z"] = (freq - chain_exact) / freq_se if freq_se and math.isfinite(freq_se) and freq_se > 0 else math.nan
    else:
        summary["note"] = "p >= 1: cluster-density limit unverified, reporting raw mean K/N only"
    summary_path = write_summary(outdir / "census_summary.txt", "census", config, summary)
    return CensusRunResult(report, census_csv, summary_path)


# ---------------------------------------------------------------------------
# lifshitz fit


def weighted_line_fit(x, y, weights=None) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, slope_se).

    With ``weights`` = 1/Var(y) the slope error is the known-variance WLS
    expression; without, the residual variance drives an OLS error estimate.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 3:
        raise ValueError("need at least 3 matching points")
    known_var = weights is not None
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=np.float64)
    s = w.sum()
    sx = float((w * x).sum())
    sy = float((w * y).sum())
    sxx = float((w * x * x).sum())
    sxy = float((w * x * y).sum())
    denom = s * sxx - sx * sx
    slope = (s * sxy - sx * sy) / denom
    intercept = (sxx * sy - sx * sxy) / denom
    if known_var:
        slope_se = math.sqrt(s / denom)
    else:
        resid = y - slope * x - intercept
        dof = x.size - 2
        sigma2 = float((resid * resid).sum()) / dof
        slope_se = math.sqrt(sigma2 * s / denom)
    return slope, intercept, slope_se


def _anchor_fit(energies: np.ndarray, envelope: np.ndarray) -> tuple[float, float]:
    """Slope and its standard error of ln|ln envelope| against ln E."""
    slope, _, se = weighted_line_fit(np.log(energies), np.log(np.abs(np.log(envelope))))
    return slope, se


def fit_lifshitz_exponent(ids: IdsEstimate, status: list[str], config: ExperimentConfig) -> dict:
    """Weighted regression of ln|ln(sigma(E) - sigma(0))| against ln E over the
    grid points whose ``status`` (:func:`_gap_status`) is "used".

    The limiting slope is -1/2; at accessible energies the empirical fit is
    reported against a wide soft gate while the analytic envelopes act as
    sanity anchors with the exact limiting slope.  ``ids.p`` lies in (0, 1), as
    :func:`run_lifshitz` checks before sampling.  Returns the lifshitz summary's
    values in summary order.
    """
    delta = ids.delta_sigma
    se = ids.delta_sigma_se
    e = ids.energies
    excluded = [(float(x), s) for x, s in zip(e, status) if s != "used"]
    used_x, used_y, used_w = [], [], []
    for i in (i for i, s in enumerate(status) if s == "used"):
        y = math.log(abs(math.log(delta[i])))
        var_y = (se[i] / (delta[i] * math.log(delta[i]))) ** 2
        used_x.append(math.log(e[i]))
        used_y.append(y)
        used_w.append(1.0 / var_y if var_y > 0 else 1.0)
    if len(used_x) < 4:
        raise ValueError(
            f"only {len(used_x)} usable grid points (need >= 4); excluded: {excluded}"
        )
    slope, _, slope_se = weighted_line_fit(used_x, used_y, used_w)
    anchors = np.geomspace(config.anchor_e_min, config.anchor_e_max, config.anchor_points)
    envelopes = dict(envelope_columns(anchors, ids.p))
    upper_slope, upper_se = _anchor_fit(anchors, envelopes["upper"])
    smooth_slope, smooth_se = _anchor_fit(anchors, envelopes["lower_smooth"])
    return {
        "slope": slope,
        "slope_se": slope_se,
        "points_used": len(used_x),
        "points_excluded": len(excluded),
        "anchor_upper_slope": upper_slope,
        "anchor_upper_se": upper_se,
        "anchor_smooth_slope": smooth_slope,
        "anchor_smooth_se": smooth_se,
    }


@dataclass(frozen=True)
class LifshitzRunResult:
    fit: dict
    ids: IdsEstimate
    fit_csv: Path
    summary_path: Path


def run_lifshitz(config: ExperimentConfig) -> LifshitzRunResult:
    """Exponent regression over a fresh IDS estimate, persisted; a p outside (0, 1)
    is rejected before any realization is drawn."""
    if not 0.0 < config.edge_prob < 1.0:
        raise ValueError("exponent fit requires subcritical p in (0, 1)")
    outdir = Path(config.outdir)
    ids = empirical_ids(
        config.spec(),
        config.n_reps,
        config.energy_grid(),
        workers=config.workers,
        size_cap=config.size_cap,
    )
    status = _gap_status(ids, config.noise_floor)
    fit = fit_lifshitz_exponent(ids, status, config)
    fit_csv = write_table(
        outdir / "lifshitz.csv",
        "lifshitz-csv",
        config,
        [
            ("E", ids.energies),
            ("delta_sigma", ids.delta_sigma),
            ("stderr", ids.delta_sigma_se),
            ("status", status),
        ],
        {"noise_floor": config.noise_floor},
    )
    summary_path = write_summary(
        outdir / "lifshitz_summary.txt",
        "lifshitz",
        config,
        {
            "status": "ok",
            **fit,
            "soft_gate_low": -0.75,
            "soft_gate_high": -0.25,
            "soft_gate_hit": -0.75 <= fit["slope"] <= -0.25,
        },
    )
    return LifshitzRunResult(fit, ids, fit_csv, summary_path)


# ---------------------------------------------------------------------------
# moments


@dataclass(frozen=True)
class MomentsRunResult:
    samples: MomentSamples
    reports: tuple[MomentInequalityReport, ...]
    moments_csv: Path
    summary_path: Path


def run_moments(config: ExperimentConfig) -> MomentsRunResult:
    """Even spectral moments versus the Poisson degree moments and the
    moment inequality, persisted as a table."""
    outdir = Path(config.outdir)
    samples = moment_samples(
        config.spec(),
        config.n_reps,
        config.k_max,
        workers=config.workers,
        size_cap=config.size_cap,
    )
    reports = tuple(samples.inequality(k) for k in range(1, config.k_max + 1))
    poisson = [analytics.poisson_moment(config.edge_prob, 2 * r.k) for r in reports]
    z_deg = [
        (r.deg_mean - poi) / r.deg_se if math.isfinite(r.deg_se) and r.deg_se > 0 else math.nan
        for r, poi in zip(reports, poisson)
    ]
    moments_csv = write_table(
        outdir / "moments.csv",
        "moments-csv",
        config,
        [
            ("two_k", [2 * r.k for r in reports]),
            ("lap_mean", [r.lap_mean for r in reports]),
            ("lap_se", [r.lap_se for r in reports]),
            ("deg_mean", [r.deg_mean for r in reports]),
            ("deg_se", [r.deg_se for r in reports]),
            ("poisson_moment", poisson),
            ("z_deg_vs_poisson", z_deg),
            ("adj_mean", [r.adj_mean for r in reports]),
            ("adj_se", [r.adj_se for r in reports]),
            ("rhs_mean", [r.rhs_mean for r in reports]),
            ("slack_mean", [r.slack_mean for r in reports]),
            ("slack_se", [r.slack_se for r in reports]),
            ("satisfied", [r.satisfied for r in reports]),
        ],
    )
    summary_path = write_summary(
        outdir / "moments_summary.txt",
        "moments",
        config,
        {
            "status": "ok" if all(r.satisfied for r in reports) else "inequality_violated",
            "k_max": config.k_max,
            "all_satisfied": all(r.satisfied for r in reports),
        },
    )
    return MomentsRunResult(samples, reports, moments_csv, summary_path)


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    checks: tuple[tuple[str, bool, str], ...]
    violations: tuple[str, ...]
    clusters_total: int
    clusters_checked: int


def _verify_one(d: ClusterDecomposition, r: int):
    """Property scan of realization ``r`` by one inertia count, no eigensolve.  Each
    vertex of a cluster of size n >= 2 is shifted by E = Fiedler's floor 2(1 - cos(pi/n))
    less n*eps*2*d_max, and :func:`counting_function` counts the pivots <= 0 of
    L - diag(E).  A cluster adds at least 1, for its constant vector, and exactly 1 iff
    its kernel is one-dimensional and its smallest nonzero eigenvalue exceeds E; so the
    count must equal the number of those clusters, which :func:`decompose` finds by
    another mechanism.  E is at least 1/n^2 for every n <= 11,888, so this also checks
    the 1/n^2 floor there.  Returns (violations, clusters, clusters checked)."""
    n = d.sizes.take(d.labels)  # the cluster size of each vertex with an edge
    # paths attain the floor; the eigensolver's error bound n*eps*2*d_max is also the
    # float count's allowance: a path of 2..500 vertices counts 1 at the floor less it
    # and 2 at the floor plus it
    shift = fiedler_floor(np.arange(1, d.sizes.max(initial=1) + 1)).take(n - 1)  # one floor per size
    shift -= spectral._eig_margin(n, d.max_degree.take(d.labels))
    count = int(counting_function(shift.size, d.edges, shift[:, None])[0])
    clusters = d.sizes.size
    violations = [] if count == clusters else [
        f"Fiedler floor violated at realization {r}: count={count} clusters={clusters}"
    ]
    return violations, d.n_clusters, clusters


def run_verify(config: ExperimentConfig) -> VerifyResult:
    """Full property gate; any violation flips the overall status."""
    checks = []
    violations: list[str] = []

    # paths attain the floor: the forest of P_2..P_200 counts each path's kernel at the
    # floor less the scan's allowance n*eps*2*d_max, and its lambda_2 too at the floor plus it
    n = np.repeat(np.arange(2, 201), np.arange(2, 201))  # each vertex's path size
    heads = np.flatnonzero(n[:-1] == n[1:])  # one path per size: an edge joins equal sizes
    allowance = spectral._eig_margin(n, np.minimum(n - 1, 2))
    shifts = fiedler_floor(n)[:, None] + allowance[:, None] * np.array([-1.0, 1.0])
    counts = counting_function(n.size, np.stack([heads, heads + 1], axis=1), shifts).tolist()
    checks.append(("path_oracle", counts == [199, 398], f"n=2..200 counts={counts} want=[199, 398]"))

    norm_bad = []
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        total, _ = analytics.tau_normalization(p, 1e-8)
        if abs(total - 1.0) >= 1e-8:
            norm_bad.append((p, total))
    checks.append(("tau_normalization", not norm_bad, f"bad={norm_bad}"))

    ns = np.arange(1, 1001, dtype=np.int64)
    tail_bad = []
    for p in np.arange(0.05, 0.96, 0.05):
        p = round(float(p), 2)
        if np.any(analytics.tau_n(p, ns) > analytics.tau_tail_bound(p, ns)):
            tail_bad.append(p)
    checks.append(("tail_domination", not tail_bad, f"bad={tail_bad}"))

    sandwich_bad = []
    energies = np.geomspace(1e-4, 1.0, 40)
    for p in np.arange(0.05, 0.96, 0.05):
        p = round(float(p), 2)
        lo, lo_s, up = (values for _, values in envelope_columns(energies, p))
        mask = (lo < 1.0) & (up < 1.0)
        if np.any(lo[mask] > up[mask]) or np.any(lo_s[mask] > lo[mask]):
            sandwich_bad.append(p)
    checks.append(("bound_sandwich", not sandwich_bad, f"bad={sandwich_bad}"))

    extra = (config.size_cap, _verify_one)
    rows = _run_chunked(_each_realization, config.spec(), config.n_reps, extra, config.workers)
    ens_violations = [v for row in rows for v in row[0]]
    clusters_total = sum(row[1] for row in rows)
    clusters_checked = sum(row[2] for row in rows)
    violations.extend(ens_violations)
    checks.append(
        (
            "ensemble_scan",
            not ens_violations,
            f"clusters_total={clusters_total} gap_checked={clusters_checked}",
        )
    )

    for name, ok, detail in checks:
        if not ok and name != "ensemble_scan":
            violations.append(f"{name}: {detail}")
    ok = all(c[1] for c in checks)
    return VerifyResult(
        ok=ok,
        checks=tuple(checks),
        violations=tuple(violations),
        clusters_total=clusters_total,
        clusters_checked=clusters_checked,
    )
