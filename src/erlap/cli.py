"""Command-line front end.

Subcommands: sample, census, spectrum, ids, lifshitz, bounds, tau, moments,
verify.  Each one prints a single machine-readable summary line; ``verify``
exits nonzero when any checked property is violated, with the violating
instance serialized to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import analytics, harness
from .ensemble import sample_graph, write_edge_list
from .spectral import EigensolverError, _each_realization, graph_spectrum


def _add_common(parser: argparse.ArgumentParser, sampling: bool = True) -> None:
    parser.add_argument("--config", type=str, default=None, help="config file to start from")
    if sampling:
        parser.add_argument("--n", dest="n_vertices", type=int, default=None, help="number of vertices N")
        parser.add_argument("--p", dest="edge_prob", type=float, default=None, help="edge probability parameter p")
        parser.add_argument("--reps", dest="n_reps", type=int, default=None, help="number of realizations")
        parser.add_argument("--seed", dest="master_seed", type=int, default=None, help="master seed")
        parser.add_argument("--workers", type=int, default=None, help="parallel workers")
    else:
        parser.add_argument("--p", dest="edge_prob", type=float, default=None, help="edge probability parameter p")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", dest="grid_kind", type=str, default=None, choices=("geometric", "linear"))
    parser.add_argument("--emin", dest="e_min", type=float, default=None, help="smallest grid energy")
    parser.add_argument("--emax", dest="e_max", type=float, default=None, help="largest grid energy")
    parser.add_argument("--points", dest="n_points", type=int, default=None, help="grid point count")
    parser.add_argument("--energies", type=str, default=None, help="explicit comma-separated grid")


def _build_config(args: argparse.Namespace, analytic: bool = False) -> harness.ExperimentConfig:
    """The ``--config`` file (or the defaults) overridden by every flag given; each
    config flag's dest is its :class:`~erlap.harness.ExperimentConfig` field.  An
    ``analytic`` command draws nothing and takes no ``--n``, so its p is checked
    first, on its own: it must lie in (0, 1).  Every other command's graph is checked
    here, p/N > 0 included, before anything is drawn or written."""
    if args.config:
        config = harness.ExperimentConfig.from_file(args.config)
    else:
        config = harness.ExperimentConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(harness.ExperimentConfig)
                 if getattr(args, f.name, None) is not None}
    if analytic:
        analytics._check_p_subcritical(overrides.get("edge_prob", config.edge_prob))
    energies = overrides.pop("energies", None)
    if energies is not None:  # an explicit grid, malformed when empty
        overrides["energies"] = tuple(float(x) for x in energies.split(","))
        overrides["grid_kind"] = "explicit"
    config = replace(config, **overrides)
    if not analytic:
        config.spec()
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erlap",
        description="Monte Carlo laboratory for Laplacian spectra of sparse "
        "Erdos-Renyi random graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample one graph and write its edge list")
    _add_common(p_sample)
    p_sample.add_argument("--rep", type=int, default=0, help="realization index")
    p_sample.add_argument("--out", type=str, default=None, help="edge-list output path")

    p_spectrum = sub.add_parser("spectrum", help="full Laplacian spectrum of one realization")
    _add_common(p_spectrum)
    p_spectrum.add_argument("--rep", type=int, default=0, help="realization index")

    p_census = sub.add_parser("census", help="cluster census over an ensemble")
    _add_common(p_census)
    p_census.add_argument("--chain-size", dest="chain_size", type=int, default=None)

    p_ids = sub.add_parser("ids", help="empirical IDS on an energy grid plus bound report")
    _add_common(p_ids)
    _add_grid(p_ids)

    p_lif = sub.add_parser("lifshitz", help="spectral-edge exponent regression")
    _add_common(p_lif)
    _add_grid(p_lif)
    p_lif.add_argument("--anchor-emin", dest="anchor_e_min", type=float, default=None)
    p_lif.add_argument("--anchor-emax", dest="anchor_e_max", type=float, default=None)
    p_lif.add_argument("--anchor-points", dest="anchor_points", type=int, default=None)

    p_bounds = sub.add_parser("bounds", help="analytic bound curves (no sampling)")
    _add_common(p_bounds, sampling=False)
    _add_grid(p_bounds)

    p_tau = sub.add_parser("tau", help="cluster-size density table (no sampling)")
    _add_common(p_tau, sampling=False)
    p_tau.add_argument("--nmax", dest="tau_n_max", type=int, default=None, help="largest tabulated size")

    p_mom = sub.add_parser("moments", help="spectral moment table and inequality check")
    _add_common(p_mom)
    p_mom.add_argument("--kmax", dest="k_max", type=int, default=None, help="largest k (powers 2k)")

    p_verify = sub.add_parser("verify", help="run the full property gate")
    _add_common(p_verify)

    for p_solving in (p_spectrum, p_ids, p_lif, p_mom, p_verify):
        p_solving.add_argument("--size-cap", dest="size_cap", type=int, default=None,
                               help="largest cluster (vertices) that may be counted or solved")
    # verify writes no file, so it takes no output directory
    for p_writing in (p_sample, p_spectrum, p_census, p_ids, p_lif, p_bounds, p_tau, p_mom):
        p_writing.add_argument("--outdir", type=str, default=None, help="output directory")

    return parser


def _cmd_sample(args) -> int:
    config = _build_config(args)
    g = sample_graph(config.spec(), args.rep)
    out = args.out or str(Path(config.outdir) / "graph.txt")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    write_edge_list(g, out)
    print(harness.summary_line("sample", {"status": "ok", "n": g.n, "m": g.n_edges, "rep": args.rep, "file": out}))
    return 0


def _spectrum_one(d, r):
    return graph_spectrum(d), d.n_clusters


def _cmd_spectrum(args) -> int:
    config = _build_config(args)
    # _each_realization checks the size cap and names (master_seed, realization) in its errors
    [(eigenvalues, clusters)] = _each_realization(
        (config.spec(), [args.rep], config.size_cap, _spectrum_one)
    )
    path = harness.write_table(
        Path(config.outdir) / "spectrum.csv",
        "spectrum-csv",
        config,
        [("eigenvalue", eigenvalues)],
        {"kernel_dim": clusters, "rep": args.rep},
    )
    print(
        harness.summary_line(
            "spectrum",
            {"status": "ok", "n": eigenvalues.size, "clusters": clusters, "file": path},
        )
    )
    return 0


def _cmd_census(args) -> int:
    config = _build_config(args)
    result = harness.run_census(config)
    print(
        harness.summary_line(
            "census",
            {
                "status": "ok",
                "n": config.n_vertices,
                "p": config.edge_prob,
                "reps": config.n_reps,
                "clusters": result.report.total_clusters,
                "mean_density": result.report.mean_cluster_density(),
                "file": result.census_csv,
            },
        )
    )
    return 0


def _cmd_ids(args) -> int:
    config = _build_config(args)
    result = harness.run_ids(config)
    values = {
        "status": "ok",
        "n": config.n_vertices,
        "p": config.edge_prob,
        "reps": config.n_reps,
        "sigma0": result.ids.sigma0,
        "file": result.ids_csv,
    }
    if result.usable is not None:
        values["usable_points"] = int(result.usable.sum())
    print(harness.summary_line("ids", values))
    return 0


def _cmd_lifshitz(args) -> int:
    config = _build_config(args)
    result = harness.run_lifshitz(config)
    print(
        harness.summary_line(
            "lifshitz",
            {
                "status": "ok",
                "slope": result.fit["slope"],
                "slope_se": result.fit["slope_se"],
                "points_used": result.fit["points_used"],
                "anchor_upper_slope": result.fit["anchor_upper_slope"],
                "anchor_smooth_slope": result.fit["anchor_smooth_slope"],
                "file": result.fit_csv,
            },
        )
    )
    return 0


def _cmd_bounds(args) -> int:
    config = _build_config(args, analytic=True)
    p, energies = config.edge_prob, config.energy_grid()
    path = harness.write_table(
        Path(config.outdir) / "bound_curve.csv",
        "bound-curve-csv",
        config,
        [("E", energies)] + harness.envelope_columns(energies, p),
        {
            "formula_version": analytics.FORMULA_VERSION,
            "decay_f": analytics.decay_f(p),
            "decay_F": analytics.decay_F(p),
        },
    )
    print(
        harness.summary_line(
            "bounds",
            {"status": "ok", "p": p, "points": energies.shape[0], "file": path},
        )
    )
    return 0


def _cmd_tau(args) -> int:
    config = _build_config(args, analytic=True)
    p = config.edge_prob
    ns = np.arange(1, config.tau_n_max + 1, dtype=np.int64)
    tau = analytics.tau_n(p, ns)
    partial_sums = np.cumsum(ns * tau)
    path = harness.write_table(
        Path(config.outdir) / "tau.csv",
        "tau-csv",
        config,
        [
            ("n", ns),
            ("tau", tau),
            ("tail_bound", analytics.tau_tail_bound(p, ns)),
            ("partial_sum_n_tau", partial_sums),
        ],
        {"formula_version": analytics.FORMULA_VERSION},
    )
    print(
        harness.summary_line(
            "tau",
            {
                "status": "ok",
                "p": p,
                "nmax": config.tau_n_max,
                "partial_sum": float(partial_sums[-1]),
                "file": path,
            },
        )
    )
    return 0


def _cmd_moments(args) -> int:
    config = _build_config(args)
    result = harness.run_moments(config)
    ok = all(r.satisfied for r in result.reports)
    print(
        harness.summary_line(
            "moments",
            {
                "status": "ok" if ok else "inequality_violated",
                "n": config.n_vertices,
                "p": config.edge_prob,
                "reps": config.n_reps,
                "k_max": config.k_max,
                "file": result.moments_csv,
            },
        )
    )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    config = _build_config(args)
    result = harness.run_verify(config)
    for name, ok, detail in result.checks:
        print(f"VERIFY {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(
        harness.summary_line(
            "verify",
            {
                "status": "ok" if result.ok else "violated",
                "n": config.n_vertices,
                "p": config.edge_prob,
                "reps": config.n_reps,
                "seed": config.master_seed,
                "clusters_total": result.clusters_total,
                "clusters_gap_checked": result.clusters_checked,
                "violations": len(result.violations),
            },
        )
    )
    if not result.ok:
        for v in result.violations:
            print(f"VIOLATION {v}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "spectrum": _cmd_spectrum,
    "census": _cmd_census,
    "ids": _cmd_ids,
    "lifshitz": _cmd_lifshitz,
    "bounds": _cmd_bounds,
    "tau": _cmd_tau,
    "moments": _cmd_moments,
    "verify": _cmd_verify,
}


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand, returning the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
