"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here; the Monte Carlo criteria use the
fixed master seed below, so the whole gate is deterministic.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from erlap.analytics import (
    decay_F,
    decay_f,
    linear_prob_finite,
    tau_n,
    tau_normalization,
    tau_tail_bound,
)
from erlap.clusters import decompose
from erlap.ensemble import Graph, GraphSpec, sample_graph
from erlap.harness import (
    ExperimentConfig,
    _gap_status,
    envelope_columns,
    fit_lifshitz_exponent,
    run_census,
    run_ids,
    run_moments,
)
from erlap.spectral import (
    cluster_min_gaps,
    eigenvalues_cluster,
    empirical_ids,
    graph_spectrum,
    path_emin_reference,
)

MASTER_SEED = 20260809


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def gap_scan_ensemble():
    """Shared N=1e4, p=0.5, R=10 ensemble for the gap and kernel criteria."""
    spec = GraphSpec(10_000, 0.5, MASTER_SEED)
    rows = []
    for r in range(10):
        g = sample_graph(spec, r)
        d = decompose(g)
        _, sizes, gaps = cluster_min_gaps(d)
        spectrum = graph_spectrum(d)
        rows.append((d, sizes, gaps, spectrum))
    return rows


def test_criterion_1_cheeger_floor(gap_scan_ensemble):
    violations = 0
    clusters_total = 0
    checked = 0
    for d, sizes, gaps, _ in gap_scan_ensemble:
        clusters_total += d.n_clusters
        checked += sizes.shape[0]
        violations += int(np.count_nonzero(gaps < 1.0 / sizes.astype(float) ** 2))
    ok = violations == 0 and 70_000 <= clusters_total <= 80_000
    _report(
        1,
        "cheeger_floor",
        ok,
        f"violations={violations} clusters_total={clusters_total} gap_checked={checked}",
    )


def test_criterion_2_path_oracle():
    worst = 0.0
    ok = True
    for n in range(2, 201):
        edges = np.stack(
            [np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)], axis=1
        )
        c = decompose(Graph(n, edges)).cluster(0)
        e_min = eigenvalues_cluster(c)[1]
        ref = path_emin_reference(n)
        worst = max(worst, abs(e_min - ref))
        if abs(e_min - ref) >= 1e-9 or e_min > 12.0 / n**2:
            ok = False
    _report(2, "path_oracle", ok, f"n=2..200 worst|e_min-ref|={worst:.2e} (tol 1e-9)")


def test_criterion_3_kernel_identity(gap_scan_ensemble):
    ok = True
    for d, _, _, spectrum in gap_scan_ensemble:
        zeros = int(np.count_nonzero(spectrum == 0.0))
        if zeros != d.n_clusters:
            ok = False
    _report(3, "kernel_identity", ok, "exact zero count equals cluster count on all 10 graphs")


def test_criterion_4_tau_normalization():
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        total, _ = tau_normalization(p, 1e-8)
        worst = max(worst, abs(total - 1.0))
    _report(4, "tau_normalization", worst < 1e-8, f"worst |sum-1|={worst:.2e} (tol 1e-8)")


def test_criterion_5_tail_domination():
    ns = np.arange(1, 1001)
    violations = 0
    for k in range(1, 20):
        p = round(0.05 * k, 2)
        if p >= 1.0:
            continue
        violations += int(np.count_nonzero(tau_n(p, ns) > tau_tail_bound(p, ns)))
    _report(
        5,
        "tail_domination",
        violations == 0,
        f"n<=1000, p in 0.05..0.95 grid, violations={violations}",
    )


def test_criterion_6_cluster_size_distribution(tmp_path):
    config = ExperimentConfig(
        n_vertices=10_000,
        edge_prob=0.5,
        n_reps=100,
        master_seed=MASTER_SEED,
        outdir=str(tmp_path),
    )
    res = run_census(config)
    tau_hat = res.report.tau_hat()
    se = res.report.tau_hat_se()
    zmax = 0.0
    for n in range(1, 9):
        z = abs(tau_hat[n] - tau_n(0.5, n)) / se[n]
        zmax = max(zmax, z)
    _report(6, "cluster_size_distribution", zmax < 4.0, f"max |z| over n<=8: {zmax:.2f} (gate 4)")


def test_criterion_7_finite_linear_chain_probability(tmp_path):
    config = ExperimentConfig(
        n_vertices=200,
        edge_prob=0.5,
        n_reps=100_000,
        master_seed=MASTER_SEED,
        chain_size=3,
        outdir=str(tmp_path),
    )
    res = run_census(config)
    freq, se = res.report.linear_chain_frequency(3)
    exact = linear_prob_finite(200, 0.5, 3)
    ok = abs(freq - exact) < 3.0 * se
    _report(
        7,
        "finite_linear_chain",
        ok,
        f"freq={freq:.5f} exact={exact:.5f} |z|={abs(freq - exact) / se:.2f} (gate 3)",
    )


def test_criterion_8_lifshitz_sandwich(tmp_path):
    config = ExperimentConfig(
        n_vertices=20_000,
        edge_prob=0.5,
        n_reps=200,
        master_seed=MASTER_SEED,
        e_min=0.05,
        e_max=0.5,
        n_points=10,
        outdir=str(tmp_path),
    )
    res = run_ids(config)
    rows = [l.split(",") for l in res.bounds_csv.read_text().splitlines() if not l.startswith("#")]
    table = dict(zip(rows[0], zip(*rows[1:])))
    usable = np.array(table["status"]) == "ok"
    rescaled = np.array(table["rescaled_stat"], dtype=np.float64)
    lo, hi = decay_f(0.5), 2.0 * math.sqrt(3.0) * decay_F(0.5)
    inside = (rescaled[usable] >= lo) & (rescaled[usable] <= hi)
    ok = bool(inside.all()) and int(usable.sum()) >= 4
    _report(
        8,
        "lifshitz_sandwich",
        ok,
        f"usable={int(usable.sum())}/10 rescaled range "
        f"[{rescaled[usable].min():.3f}, {rescaled[usable].max():.3f}] in "
        f"[{lo:.4f}, {hi:.4f}]",
    )


def test_criterion_9_lifshitz_exponent(tmp_path):
    config = ExperimentConfig(
        n_vertices=20_000,
        edge_prob=0.5,
        n_reps=200,
        master_seed=MASTER_SEED,
        e_min=0.03,
        e_max=0.3,
        n_points=10,
        outdir=str(tmp_path),
    )
    ids = empirical_ids(config.spec(), config.n_reps, config.energy_grid(), config.workers)
    fit = fit_lifshitz_exponent(ids, _gap_status(ids, config.noise_floor), config)
    upper_slope, smooth_slope = fit["anchor_upper_slope"], fit["anchor_smooth_slope"]
    # (a) analytic anchors carry the exact limiting slope at small energy
    anchors_ok = abs(upper_slope + 0.5) <= 0.03 and abs(smooth_slope + 0.5) <= 0.03
    # (b) the empirical fit is reported against the documented soft gate
    soft = -0.75 <= fit["slope"] <= -0.25
    print(
        f"ACCEPTANCE  9 lifshitz_exponent (report): empirical slope "
        f"{fit['slope']:.4f} +- {fit['slope_se']:.4f} on E in [0.03, 0.3], soft gate "
        f"[-0.75, -0.25] {'hit' if soft else 'MISSED (reported, not gated)'}"
    )
    _report(
        9,
        "lifshitz_exponent",
        anchors_ok,
        f"anchor slopes upper={upper_slope:.4f} "
        f"smooth={smooth_slope:.4f} (gate -0.5 +- 0.03); "
        f"empirical={fit['slope']:.4f} reported",
    )


def test_criterion_10_moments(tmp_path):
    config = ExperimentConfig(
        n_vertices=10_000,
        edge_prob=0.5,
        n_reps=100,
        master_seed=MASTER_SEED,
        k_max=2,
        outdir=str(tmp_path),
    )
    res = run_moments(config)
    c = dict(res.columns)
    deg2, deg2_se, lap2, lap2_se = (c[name][0] for name in ("deg_mean", "deg_se", "lap_mean", "lap_se"))
    deg_ok = abs(deg2 - 0.75) < 3.0 * deg2_se
    lap_ok = abs(lap2 - 1.25) < 3.0 * lap2_se
    ineq_ok = all(m >= -4.0 * se for m, se in zip(c["slack_mean"], c["slack_se"]))
    ok = deg_ok and lap_ok and ineq_ok
    slack1, slack2 = c["slack_mean"]
    _report(
        10,
        "moments",
        ok,
        f"deg2={deg2:.4f} (3se={3 * deg2_se:.4f}) lap2={lap2:.4f} "
        f"(3se={3 * lap2_se:.4f}) slacks k1={slack1:.3f} k2={slack2:.3f}",
    )


def _strip_config_noise(data: bytes) -> bytes:
    keep = [
        line
        for line in data.split(b"\n")
        if not line.startswith(b"# config.workers") and not line.startswith(b"# config.outdir")
    ]
    return b"\n".join(keep)


def test_criterion_11_worker_count_determinism(tmp_path):
    mismatches = []

    ids_base = dict(
        n_vertices=10_000,
        edge_prob=0.5,
        n_reps=10,
        master_seed=MASTER_SEED,
        e_min=0.05,
        e_max=0.5,
        n_points=10,
    )
    a = run_ids(ExperimentConfig(outdir=str(tmp_path / "ids1"), workers=1, **ids_base))
    b = run_ids(ExperimentConfig(outdir=str(tmp_path / "ids3"), workers=3, **ids_base))
    for x, y, name in (
        (a.ids_csv, b.ids_csv, "ids.csv"),
        (a.bounds_csv, b.bounds_csv, "bounds.csv"),
    ):
        if _strip_config_noise(Path(x).read_bytes()) != _strip_config_noise(Path(y).read_bytes()):
            mismatches.append(name)

    census_base = dict(n_vertices=10_000, edge_prob=0.5, n_reps=20, master_seed=MASTER_SEED)
    c = run_census(ExperimentConfig(outdir=str(tmp_path / "cen1"), workers=1, **census_base))
    d = run_census(ExperimentConfig(outdir=str(tmp_path / "cen4"), workers=4, **census_base))
    if _strip_config_noise(c.census_csv.read_bytes()) != _strip_config_noise(
        d.census_csv.read_bytes()
    ):
        mismatches.append("census.csv")

    mom_base = dict(
        n_vertices=10_000, edge_prob=0.5, n_reps=10, master_seed=MASTER_SEED, k_max=2
    )
    e = run_moments(ExperimentConfig(outdir=str(tmp_path / "mom1"), workers=1, **mom_base))
    f = run_moments(ExperimentConfig(outdir=str(tmp_path / "mom2"), workers=2, **mom_base))
    if _strip_config_noise(e.moments_csv.read_bytes()) != _strip_config_noise(
        f.moments_csv.read_bytes()
    ):
        mismatches.append("moments.csv")

    _report(
        11,
        "worker_count_determinism",
        not mismatches,
        f"csv byte-identical across worker counts; mismatches={mismatches or 'none'}",
    )


def test_criterion_8_gap_between_analytic_bounds(tmp_path):
    """Companion to criterion 8: the raw gap estimate sits inside the
    [staircase lower, explicit upper] envelope wherever it clears the floor."""
    config = ExperimentConfig(
        n_vertices=20_000,
        edge_prob=0.5,
        n_reps=200,
        master_seed=MASTER_SEED + 1,
        e_min=0.05,
        e_max=0.5,
        n_points=10,
    )
    ids = empirical_ids(config.spec(), config.n_reps, config.energy_grid())
    u = np.array(_gap_status(ids, config.noise_floor)) == "used"
    env = dict(envelope_columns(ids.energies, config.edge_prob))
    delta, se = ids.delta_sigma, ids.delta_sigma_se
    ok = bool(
        np.all(delta[u] >= env["lower_staircase"][u] - 3 * se[u])
        and np.all(delta[u] <= env["upper"][u] + 3 * se[u])
    )
    _report(
        8,
        "gap_inside_envelope (companion)",
        ok,
        f"usable={int(u.sum())}/10, all gaps within [L_staircase, U] at 3 sigma",
    )
