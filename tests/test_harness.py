"""Orchestration: config round-trips, persisted artifacts, determinism, CLI."""

import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlap import ensemble, harness, spectral
from erlap.cli import cli_dispatch
from erlap.clusters import CensusAccumulator, decompose
from erlap.ensemble import GraphSpec, read_edge_list, sample_graph
from erlap.harness import (
    BUILD_TAG,
    ExperimentConfig,
    _census_chunk,
    _gap_status,
    fit_lifshitz_exponent,
    run_census,
    run_ids,
    run_lifshitz,
    run_moments,
    run_verify,
    weighted_line_fit,
)
from erlap.spectral import empirical_ids, fiedler_floor, path_emin_reference


def _strip_machine_lines(data: bytes) -> bytes:
    # config echo legitimately differs across outdir/worker settings
    keep = []
    for line in data.split(b"\n"):
        if line.startswith(b"# config.outdir") or line.startswith(b"# config.workers"):
            continue
        if line.startswith(b"config.outdir") or line.startswith(b"config.workers"):
            continue
        keep.append(line)
    return b"\n".join(keep)


def test_config_round_trip(tmp_path):
    config = ExperimentConfig(
        n_vertices=321,
        edge_prob=0.625,
        n_reps=7,
        master_seed=12345,
        grid_kind="explicit",
        energies=(0.125, 0.25, 1.0 / 3.0),
        workers=2,
        outdir=str(tmp_path),
        chain_size=4,
        k_max=3,
        noise_floor=4.5,
    )
    path = tmp_path / "run.cfg"
    config.to_file(path)
    assert ExperimentConfig.from_file(path) == config
    # stream form round-trips too
    buf = io.StringIO()
    config.to_file(buf)
    assert ExperimentConfig.from_file(io.StringIO(buf.getvalue())) == config


def test_config_round_trip_numpy_scalars(tmp_path):
    # numpy 2 reprs scalars as np.float64(0.5); the echo must stay a plain number
    config = ExperimentConfig(
        n_vertices=np.int64(300),
        edge_prob=np.float64(0.5),
        n_reps=np.int32(3),
        master_seed=np.uint32(7),
        e_min=np.float32(0.125),
        e_max=np.float64(0.5),
        noise_floor=np.float64(4.5),
        outdir=str(tmp_path),
    )
    path = tmp_path / "run.cfg"
    config.to_file(path)
    text = path.read_text()
    assert "np." not in text
    assert "edge_prob=0.5\n" in text and "n_vertices=300\n" in text
    assert ExperimentConfig.from_file(path) == config
    summary = run_census(config).summary_path.read_text()
    assert "np." not in summary and "config.edge_prob=0.5\n" in summary


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_vertices=1)
    with pytest.raises(ValueError):
        ExperimentConfig(edge_prob=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(grid_kind="weird")
    with pytest.raises(ValueError):
        ExperimentConfig(grid_kind="explicit", energies=())
    with pytest.raises(ValueError):
        ExperimentConfig(e_min=0.5, e_max=0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(k_max=5)
    with pytest.raises(ValueError):
        ExperimentConfig(workers=0)
    # a NaN floor would let every point through the noise-floor rule
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_floor"):
            ExperimentConfig(noise_floor=bad)
    # explicit energies pass the grid validation of empirical_ids
    for bad in ((math.nan, 1.0), (math.inf,), (1.0, 0.5), None):
        with pytest.raises(ValueError):
            ExperimentConfig(grid_kind="explicit", energies=bad)
    # a non-finite top energy would set the eigensolve pruning threshold
    for bad in (dict(e_max=math.inf), dict(e_max=math.nan), dict(e_min=math.nan),
                dict(anchor_e_max=math.inf), dict(anchor_e_min=math.nan)):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


_config_values = st.one_of(
    st.sampled_from(["none", "nan", "inf", "-inf", "-0.0", "1e400", str(10**400), "9" * 5000,
                     "explicit", "linear", "0.1,nan", "0.5,0.1", "", ",", "1_0"]),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)


@given(
    changes=st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)] + ["format", "x"]),
        _config_values,
        max_size=4,
    ),
    drop=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_config_file_fuzz_raises_only_value_error(changes, drop):
    buf = io.StringIO()
    ExperimentConfig().to_file(buf)
    lines = buf.getvalue().splitlines()
    if drop:
        lines = lines[:-1]
    lines += [f"{key}={value}" for key, value in changes.items()]
    try:
        config = ExperimentConfig.from_file(io.StringIO("\n".join(lines)))
    except ValueError:
        return
    # whatever parses re-serializes to a fixed point
    once, twice = io.StringIO(), io.StringIO()
    config.to_file(once)
    ExperimentConfig.from_file(io.StringIO(once.getvalue())).to_file(twice)
    assert twice.getvalue() == once.getvalue()


def test_config_file_rejects_unknown_keys(tmp_path):
    config = ExperimentConfig()
    path = tmp_path / "c.cfg"
    config.to_file(path)
    path.write_text(path.read_text() + "mystery=1\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(path)


def test_energy_grids():
    geo = ExperimentConfig(e_min=0.1, e_max=1.0, n_points=4).energy_grid()
    assert np.allclose(geo, np.geomspace(0.1, 1.0, 4))
    lin = ExperimentConfig(grid_kind="linear", e_min=0.1, e_max=0.4, n_points=4).energy_grid()
    assert np.allclose(lin, [0.1, 0.2, 0.3, 0.4])
    exp = ExperimentConfig(grid_kind="explicit", energies=(0.5, 1.5)).energy_grid()
    assert exp.tolist() == [0.5, 1.5]


def test_run_ids_persists_and_is_deterministic(tmp_path):
    base = dict(n_vertices=400, edge_prob=0.5, n_reps=8, master_seed=99, n_points=5)
    r1 = run_ids(ExperimentConfig(outdir=str(tmp_path / "a"), **base))
    r2 = run_ids(ExperimentConfig(outdir=str(tmp_path / "b"), **base))
    assert _strip_machine_lines(r1.ids_csv.read_bytes()) == _strip_machine_lines(
        r2.ids_csv.read_bytes()
    )
    header = r1.ids_csv.read_text()
    assert header.startswith("# format=erlap-ids-csv-1\n")
    assert f"# build={BUILD_TAG}\n" in header
    assert "# seed=99\n" in header
    assert "# config.n_vertices=400\n" in header
    assert "E,sigma_hat,stderr\n" in header
    summary = r1.summary_path.read_text()
    assert summary.startswith("format=erlap-ids-summary-1\n")
    assert "sigma0_hat=" in summary


def test_run_ids_workers_do_not_change_bytes(tmp_path):
    base = dict(n_vertices=500, edge_prob=0.5, n_reps=12, master_seed=5, n_points=4)
    r1 = run_ids(ExperimentConfig(outdir=str(tmp_path / "w1"), workers=1, **base))
    r2 = run_ids(ExperimentConfig(outdir=str(tmp_path / "w3"), workers=3, **base))
    for a, b in ((r1.ids_csv, r2.ids_csv), (r1.bounds_csv, r2.bounds_csv)):
        assert _strip_machine_lines(a.read_bytes()) == _strip_machine_lines(b.read_bytes())


def test_run_ids_bounds_presence():
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        sup = run_ids(
            ExperimentConfig(n_vertices=300, edge_prob=1.5, n_reps=3, master_seed=1, outdir=td)
        )
        assert sup.usable is None
        assert sup.bounds_csv is None
        assert "bounds omitted" in sup.summary_path.read_text()
    with tempfile.TemporaryDirectory() as td:
        near = run_ids(
            ExperimentConfig(n_vertices=300, edge_prob=0.99, n_reps=3, master_seed=1, outdir=td)
        )
        assert near.usable is not None
        assert "# near_critical=true\n" in near.bounds_csv.read_text()
        assert "near-critical" in near.summary_path.read_text()


def test_bounds_report_columns(tmp_path):
    res = run_ids(
        ExperimentConfig(
            n_vertices=400, edge_prob=0.5, n_reps=6, master_seed=3, outdir=str(tmp_path)
        )
    )
    text = res.bounds_csv.read_text()
    header_row = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header_row.split(",") == [
        "E",
        "delta_sigma",
        "stderr",
        "lower_staircase",
        "lower_smooth",
        "upper",
        "rescaled_stat",
        "window_low",
        "window_high",
        "replica_g",
        "status",
    ]
    assert "# replica_note=" in text


def test_run_census_outputs(tmp_path):
    res = run_census(
        ExperimentConfig(
            n_vertices=500, edge_prob=0.5, n_reps=40, master_seed=21, outdir=str(tmp_path)
        )
    )
    assert res.report.n_reps == 40
    assert int(res.report.vertex0_by_size.sum()) == 40
    text = res.census_csv.read_text()
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0].split(",")[:4] == ["size", "clusters", "trees", "linear"]
    summary = res.summary_path.read_text()
    assert "chain_frequency=" in summary and "chain_exact=" in summary


@pytest.mark.parametrize("block_vertices, block_sizes", [
    pytest.param(4050, [81, 81, 38], id="short_last_block"),
    pytest.param(50, [1] * 200, id="one_per_block"),
    pytest.param(None, [200], id="default"),
])
def test_census_blocks_count_like_single_realizations(block_vertices, block_sizes, monkeypatch):
    # N=50: the cap sets how 200 realizations fall into blocks, which no counter sees
    if block_vertices is not None:
        monkeypatch.setattr(harness, "_BLOCK_VERTICES", block_vertices)
    real_blocks, seen = ensemble.sample_pair_index_blocks, []

    def blocks(spec, rs, block):
        for idx, counts in real_blocks(spec, rs, block):
            seen.append(counts.size)
            yield idx, counts

    monkeypatch.setattr(ensemble, "sample_pair_index_blocks", blocks)
    spec = GraphSpec(50, 1.2, 8)
    [acc] = _census_chunk((spec, range(200)))
    assert seen == block_sizes
    want = CensusAccumulator(50, 1.2)
    v0_sizes, v0_linear = [], []
    for r in range(200):
        d = decompose(sample_graph(spec, r))
        want.add(d)
        if d.vertices[:1].tolist() == [0]:  # vertex 0 has an edge: its cluster is labelled
            k0 = int(d.labels[0])
            v0_sizes.append(int(d.sizes[k0]))
            v0_linear.append(bool(d.class_flag_arrays()[1][k0]))
        else:  # an isolated vertex 0 is a one-vertex cluster, not linear
            v0_sizes.append(1)
            v0_linear.append(False)
    got_report, want_report = acc.report(), want.report()
    for name in ("clusters_by_size", "trees_by_size", "linear_by_size", "sq_clusters_by_size",
                 "vertex0_by_size", "vertex0_linear_by_size"):
        assert np.array_equal(getattr(got_report, name), getattr(want_report, name)), name
    assert acc.n_reps == want.n_reps
    top = max(v0_sizes) + 1
    assert got_report.n_reps == 200
    assert np.array_equal(got_report.vertex0_by_size[:top], np.bincount(v0_sizes, minlength=top))
    assert np.array_equal(
        got_report.vertex0_linear_by_size[:top],
        np.bincount(np.asarray(v0_sizes)[np.asarray(v0_linear)], minlength=top),
    )
    assert not got_report.vertex0_by_size[top:].any()


def test_census_function_counts_vertex0_like_run_census(tmp_path):
    config = ExperimentConfig(
        n_vertices=120, edge_prob=0.8, n_reps=150, master_seed=31, outdir=str(tmp_path)
    )
    want = run_census(config).report
    acc = CensusAccumulator(config.n_vertices, config.edge_prob)
    for r in range(config.n_reps):
        acc.add(decompose(sample_graph(config.spec(), r)))
    got = acc.report()
    assert np.array_equal(got.vertex0_by_size, want.vertex0_by_size)
    assert np.array_equal(got.vertex0_linear_by_size, want.vertex0_linear_by_size)
    assert got.linear_chain_frequency(3) == want.linear_chain_frequency(3)


def test_run_census_single_rep_has_nan_se(tmp_path):
    res = run_census(
        ExperimentConfig(
            n_vertices=200, edge_prob=0.5, n_reps=1, master_seed=2, outdir=str(tmp_path)
        )
    )
    text = res.census_csv.read_text()
    data_rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert all(row.split(",")[5] == "nan" for row in data_rows)  # tau_hat_se column
    assert res.report.mean_cluster_density() > 0


def test_run_census_worker_invariance(tmp_path):
    base = dict(n_vertices=300, edge_prob=0.5, n_reps=20, master_seed=4)
    a = run_census(ExperimentConfig(outdir=str(tmp_path / "a"), workers=1, **base))
    b = run_census(ExperimentConfig(outdir=str(tmp_path / "b"), workers=3, **base))
    assert _strip_machine_lines(a.census_csv.read_bytes()) == _strip_machine_lines(
        b.census_csv.read_bytes()
    )


def test_supercritical_census_reports_raw_density(tmp_path):
    res = run_census(
        ExperimentConfig(
            n_vertices=300, edge_prob=2.0, n_reps=5, master_seed=11, outdir=str(tmp_path)
        )
    )
    summary = res.summary_path.read_text()
    assert "note=" in summary and "raw mean K/N" in summary


def test_weighted_line_fit_recovers_slope():
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 10.0, 40)
    y = -0.5 * x + 2.0
    slope, intercept, se = weighted_line_fit(x, y)
    assert abs(slope + 0.5) < 1e-12 and abs(intercept - 2.0) < 1e-12
    noisy = y + rng.normal(0, 0.05, x.shape)
    slope, _, se = weighted_line_fit(x, noisy, weights=np.full(x.shape, 1.0 / 0.05**2))
    assert abs(slope + 0.5) < 4 * se


def test_lifshitz_anchor_slopes_near_half():
    config = ExperimentConfig(n_vertices=200, edge_prob=0.5, n_reps=4, master_seed=1)
    # anchors are analytic; the empirical part just has to clear the
    # 4-point gate, so use a generous high-energy grid
    est = empirical_ids(config.spec(), 30, np.geomspace(0.8, 4.0, 8))
    fit = fit_lifshitz_exponent(est, _gap_status(est, config.noise_floor), config)
    assert abs(fit["anchor_upper_slope"] + 0.5) <= 0.03
    assert abs(fit["anchor_smooth_slope"] + 0.5) <= 0.03


def test_lifshitz_requires_enough_points():
    config = ExperimentConfig(n_vertices=120, edge_prob=0.5, n_reps=6, master_seed=9)
    est = empirical_ids(config.spec(), 6, np.geomspace(1e-6, 2e-6, 5))
    with pytest.raises(ValueError) as err:
        fit_lifshitz_exponent(est, _gap_status(est, config.noise_floor), config)
    assert "usable" in str(err.value)


def test_gap_status_hand_cases():
    # one rule for bounds.csv and the exponent fit: positive gap, finite
    # standard error, gap above noise_floor standard errors; the first failure names a point
    nan = math.nan
    cases = [
        (0.0, 0.125, "nonpositive gap estimate"),
        (-0.1, 0.125, "nonpositive gap estimate"),
        (nan, 0.125, "nonpositive gap estimate"),
        (-0.1, nan, "nonpositive gap estimate"),  # fails two rules: the first wins
        (0.75, nan, "no standard error (single realization)"),
        (0.75, math.inf, "no standard error (single realization)"),
        (0.625, 0.125, "below noise floor"),  # exactly 5 standard errors is not above
        (0.3, 0.125, "below noise floor"),
        (0.75, 0.125, "used"),
        (0.7, 0.125, "used"),
        (0.8, 0.125, "used"),
        (0.9, 0.125, "used"),
    ]
    delta, se, want = (np.array(col) for col in zip(*cases))
    ids = dataclasses.replace(
        empirical_ids(GraphSpec(100, 0.5, 1), 2, np.geomspace(0.1, 1.0, len(cases))),
        delta_sigma=delta,
        delta_sigma_se=se,
    )
    config = ExperimentConfig(noise_floor=5.0)
    status = _gap_status(ids, 5.0)
    assert status == want.tolist()
    fit = fit_lifshitz_exponent(ids, status, config)
    assert fit["points_used"] == int(np.count_nonzero(want == "used")) == 4
    assert fit["points_excluded"] == int(np.count_nonzero(want != "used")) == 8


def test_run_lifshitz_persists(tmp_path):
    config = ExperimentConfig(
        n_vertices=800,
        edge_prob=0.5,
        n_reps=60,
        master_seed=14,
        e_min=0.3,
        e_max=3.0,
        n_points=8,
        outdir=str(tmp_path),
    )
    res = run_lifshitz(config)
    assert res.fit["points_used"] >= 4
    text = res.fit_csv.read_text()
    assert text.startswith("# format=erlap-lifshitz-csv-1\n")
    summary = res.summary_path.read_text()
    assert "anchor_upper_slope=" in summary
    assert "soft_gate_low=-0.75" in summary


def test_run_moments_small(tmp_path):
    res = run_moments(
        ExperimentConfig(
            n_vertices=2000,
            edge_prob=0.5,
            n_reps=30,
            master_seed=8,
            k_max=2,
            outdir=str(tmp_path),
        )
    )
    c = dict(res.columns)
    assert c["two_k"] == [2, 4]
    assert all(c["satisfied"])
    assert abs(c["lap_mean"][0] - 1.25) < 5 * c["lap_se"][0] + 5e-3
    text = res.moments_csv.read_text()
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0].split(",")[0] == "two_k"
    assert rows[1].split(",")[0] == "2"


def test_run_verify_green():
    result = run_verify(
        ExperimentConfig(n_vertices=1500, edge_prob=0.5, n_reps=3, master_seed=77)
    )
    assert result.ok
    names = [c[0] for c in result.checks]
    assert names == [
        "path_oracle",
        "tau_normalization",
        "tail_domination",
        "bound_sandwich",
        "ensemble_scan",
    ]
    assert result.clusters_total > 3000
    assert result.clusters_checked > 500


# --- CLI ----------------------------------------------------------------------


def test_cli_tau_and_bounds(tmp_path, capsys):
    assert cli_dispatch(["tau", "--p", "0.5", "--nmax", "30", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tau status=ok")
    table = (tmp_path / "tau.csv").read_text()
    assert "n,tau,tail_bound,partial_sum_n_tau" in table

    assert (
        cli_dispatch(
            [
                "bounds",
                "--p",
                "0.5",
                "--emin",
                "0.001",
                "--emax",
                "1",
                "--points",
                "10",
                "--outdir",
                str(tmp_path),
            ]
        )
        == 0
    )
    assert (tmp_path / "bound_curve.csv").exists()


def _csv_columns(path) -> dict[str, list[str]]:
    rows = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
    return dict(zip(rows[0], map(list, zip(*rows[1:]))))


_ENVELOPES = ("E", "lower_staircase", "lower_smooth", "upper")


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_bounds_csv_envelopes_equal_bound_curve_csv(tmp_path, capsys, p):
    # both tables take their envelopes from harness.envelope_columns
    ids = ["ids", "--n", "300", "--reps", "2", "--p", str(p), "--outdir", str(tmp_path / "ids")]
    assert cli_dispatch(ids) == 0
    assert cli_dispatch(["bounds", "--p", str(p), "--outdir", str(tmp_path / "bounds")]) == 0
    from_ids = _csv_columns(tmp_path / "ids" / "bounds.csv")
    from_bounds = _csv_columns(tmp_path / "bounds" / "bound_curve.csv")
    assert list(from_bounds) == list(_ENVELOPES)
    for name in _ENVELOPES:
        assert from_ids[name] == from_bounds[name], name


def test_cli_bounds_and_tau_write_underflowed_values(tmp_path, capsys):
    # closed forms that underflow to 0.0 are written as 0.0, as erlap ids does
    grid = ["--p", "0.5", "--emin", "1e-6", "--emax", "1e-3"]
    assert cli_dispatch(["bounds", *grid, "--outdir", str(tmp_path / "bounds")]) == 0
    ids = ["ids", "--n", "300", "--reps", "2", *grid, "--outdir", str(tmp_path / "ids")]
    assert cli_dispatch(ids) == 0
    curve = _csv_columns(tmp_path / "bounds" / "bound_curve.csv")
    assert curve["lower_staircase"][0] == curve["lower_smooth"][0] == "0.0"
    from_ids = _csv_columns(tmp_path / "ids" / "bounds.csv")
    for name in _ENVELOPES:
        assert from_ids[name] == curve[name], name

    assert cli_dispatch(["tau", "--p", "0.1", "--nmax", "600", "--outdir", str(tmp_path)]) == 0
    table = _csv_columns(tmp_path / "tau.csv")
    assert table["tau"][-1] == table["tail_bound"][-1] == "0.0"
    assert capsys.readouterr().err == ""


def test_cli_bounds_and_tau_take_a_p_whose_p_over_n_underflows(tmp_path, capsys):
    # bounds and tau draw no graph: p/N underflowing at the default N = 1000 is no error
    # of theirs, and the closed forms that underflow are written as 0.0
    for cmd, name in (("bounds", "bound_curve.csv"), ("tau", "tau.csv")):
        assert cli_dispatch([cmd, "--p", "1e-322", "--outdir", str(tmp_path / cmd)]) == 0
        table = _csv_columns(tmp_path / cmd / name)
        assert "0.0" in {v for column in table.values() for v in column}, cmd
    out = capsys.readouterr()
    assert out.err == "" and "status=ok p=1e-322 " in out.out
    # a sampling command still checks the graph it draws, before drawing or writing
    assert cli_dispatch(["ids", "--n", "2", "--p", "5e-324", "--reps", "2", "--outdir", str(tmp_path / "ids")]) == 2
    assert capsys.readouterr().err == "error: edge_prob must satisfy 0 < p < N and p/N > 0, got p=5e-324 for N=2\n"
    assert not (tmp_path / "ids").exists()


def test_cli_tiny_p_draws_edgeless_graphs(tmp_path, capsys):
    # numpy's gaps near 2**63 at tiny p/N once wrapped the int64 slot sums into
    # "pair index outside [0, N(N-1)/2)" and exit status 2
    ids = ["ids", "--n", "10000", "--p", "1e-15", "--reps", "2", "--outdir", str(tmp_path / "ids")]
    census = ["census", "--n", "200", "--p", "1e-17", "--reps", "50", "--outdir", str(tmp_path / "census")]
    # at p/N = 5e-313, a subnormal, the exponential gaps overflow to inf and are
    # clipped with no warning; a p/N that underflows to 0 exits 2 before sampling
    subnormal = ["census", "--n", "200", "--p", "1e-310", "--reps", "5", "--outdir", str(tmp_path / "sub")]
    zero = ["ids", "--n", "2", "--p", "5e-324", "--reps", "2", "--outdir", str(tmp_path / "zero")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_dispatch(ids) == 0
        assert cli_dispatch(census) == 0
        assert cli_dispatch(subnormal) == 0
        out = capsys.readouterr()
        assert cli_dispatch(zero) == 2
    assert out.err == ""
    assert "sigma0=1.0 " in out.out and "clusters=10000 mean_density=1.0 " in out.out
    assert "clusters=1000 mean_density=1.0 " in out.out
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: edge_prob must satisfy 0 < p < N and p/N > 0, got p=5e-324 for N=2"]
    assert not (tmp_path / "zero").exists()


def test_cli_sample_round_trip(tmp_path, capsys):
    out_file = tmp_path / "g.txt"
    status = cli_dispatch(
        ["sample", "--n", "60", "--p", "0.5", "--seed", "4", "--out", str(out_file)]
    )
    assert status == 0
    g = read_edge_list(out_file)
    assert g.n == 60


def test_cli_ids_and_census(tmp_path, capsys):
    assert (
        cli_dispatch(
            [
                "ids",
                "--n",
                "300",
                "--p",
                "0.5",
                "--reps",
                "5",
                "--seed",
                "2",
                "--points",
                "4",
                "--outdir",
                str(tmp_path),
            ]
        )
        == 0
    )
    assert (tmp_path / "ids.csv").exists()
    assert (tmp_path / "bounds.csv").exists()
    assert (
        cli_dispatch(
            [
                "census",
                "--n",
                "300",
                "--p",
                "0.5",
                "--reps",
                "10",
                "--seed",
                "2",
                "--outdir",
                str(tmp_path),
            ]
        )
        == 0
    )
    assert (tmp_path / "census.csv").exists()


def test_cli_rejects_bad_explicit_energies(tmp_path, capsys):
    for energies in ("nan,1", "inf", "1,0.5", ""):  # "" is an empty grid, not a default one
        status = cli_dispatch(
            ["bounds", "--p", "0.5", "--energies", energies, "--outdir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not (tmp_path / "bound_curve.csv").exists()


@pytest.mark.parametrize("command", ["tau", "bounds"])
def test_cli_analytic_commands_check_p_alone(tmp_path, capsys, command):
    # bounds and tau draw nothing and take no --n, so no p is checked against an N:
    # every p outside (0, 1) gets the analytic one-line error and exit 2
    for p in ("1500", "1000", "1.5", "1.0", "0", "-1", "nan", "inf"):
        assert cli_dispatch([command, "--p", p, "--outdir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: p must lie in the open interval (0, 1), got {float(p)!r}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n, p, seed, digest", [
    (10_000, "0.5", 20260809, "813d54eaf0565c3029a78886e43323f6aeca33cf42787efcc37eee0765166e36"),
    (10_000, "0.5", 4242, "ab354765a5374cedd121e3061c2be34ac24b3f5df0ebc51dcadb72166f74bfd3"),
    # a 1,951-vertex giant, within the default size cap
    (2400, "2.0", 20260809, "dafb4386a17904738488028c924abf770a4496d63e990982a5ed4563efdf5e39"),
], ids=["N1e4_seed20260809", "N1e4_seed4242", "giant"])
def test_cli_spectrum_bytes_are_pinned(tmp_path, capsys, n, p, seed, digest):
    # no benchmark workload runs the Laplacian builder or graph_spectrum, so their
    # spectrum.csv is pinned here: sha256 of the file less its build, workers and
    # outdir header lines, as written before isolated vertices became a count (numpy
    # 2.4.6 with its bundled OpenBLAS on x86-64; a LAPACK that rounds differently
    # writes other bytes)
    import hashlib

    argv = ["spectrum", "--n", str(n), "--p", p, "--seed", str(seed), "--outdir", str(tmp_path)]
    assert cli_dispatch(argv) == 0
    capsys.readouterr()
    lines = (tmp_path / "spectrum.csv").read_text().splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(("# build=", "# config.workers=", "# config.outdir="))]
    assert len(kept) == len(lines) - 3
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    # sparse int64 products at k = 3, 4 on near-critical cyclic clusters
    ("--n 2000 --p 0.9 --reps 5 --kmax 4", "0d589680d088a9f96e9573938e8b17d630c71f1a1ae47a09566c7b7a697e130a"),
    # closed-walk counts on a giant 2-core
    ("--n 2000 --p 1.5 --reps 2", "f7cc05a7606f1c6fb46ac96276cc6a3bbc76fcb2f13983ea4dc5923246d392ec"),
    # p/N >= 1/3 draws by geometric gaps; every power on graphs of 6 vertices
    ("--n 6 --p 2.5 --reps 500 --kmax 4", "8291fbfcaef16bb7efd6903f51e21fa106bfc6518b405daf1eb12cca05f507a5"),
], ids=["p0.9_k4", "p1.5_k2", "n6_k4"])
def test_cli_moments_bytes_are_pinned(tmp_path, capsys, args, digest):
    # the benchmark compares moments.csv at k_max = 2 to a relative 1e-12; this pins
    # every byte, at every power, less the build, workers and outdir header lines
    import hashlib

    assert cli_dispatch(["moments", *args.split(), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "moments.csv").read_text().splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(("# build=", "# config.workers=", "# config.outdir="))]
    assert len(kept) == len(lines) - 3
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == digest


def test_cli_arg_map_names_config_fields():
    # every flag stores under its config field's name, apart from the few that are not config
    import argparse

    from erlap.cli import build_parser

    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    allowed |= {"command", "config", "rep", "out", "energies"}
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, parser in sub.choices.items():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in allowed, (name, action.dest)


def test_cli_verify_exit_codes(tmp_path, capsys):
    assert (
        cli_dispatch(
            ["verify", "--n", "800", "--p", "0.5", "--reps", "2", "--seed", "7"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "VERIFY path_oracle: ok" in out
    assert "verify status=ok" in out
    # verify writes no file, so an output directory is an unknown flag
    assert cli_dispatch(["verify", "--n", "300", "--reps", "1", "--outdir", str(tmp_path / "v")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --outdir" in captured.err
    assert not (tmp_path / "v").exists()


def test_cli_verify_serializes_violations(tmp_path, capsys, monkeypatch):
    # force one analytic check to fail: the gate must exit 1 and print the
    # violating instance
    import erlap.analytics as analytics_module

    monkeypatch.setattr(analytics_module, "tau_normalization", lambda p, tol: (0.5, 10))
    status = cli_dispatch(
        ["verify", "--n", "300", "--p", "0.5", "--reps", "1", "--seed", "1"]
    )
    captured = capsys.readouterr()
    assert status == 1
    assert "VERIFY tau_normalization: FAILED" in captured.out
    assert "verify status=violated" in captured.out
    assert "VIOLATION tau_normalization" in captured.err


def test_run_verify_ensemble_scan_calls_no_eigensolver(monkeypatch):
    # the ensemble scan counts inertia only, and so does the path oracle
    import erlap.harness as harness_module

    def refuse(*args, **kwargs):
        raise AssertionError("run_verify called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(spectral, "_grouped_eigenvalues", refuse)
    monkeypatch.setattr(harness_module, "eigenvalues_cluster", refuse)
    config = ExperimentConfig(n_vertices=1500, edge_prob=0.5, n_reps=3, master_seed=77)
    result = run_verify(config)
    assert result.ok
    # every cluster of size >= 2 is checked, as decompose counts them
    ds = [decompose(sample_graph(config.spec(), r)) for r in range(3)]
    assert all(np.all(d.sizes >= 2) for d in ds)
    assert result.clusters_checked == sum(d.sizes.size for d in ds)
    assert result.clusters_total == sum(d.sizes.size + d.n_isolated for d in ds)


def test_run_verify_calls_cluster_solver_only_for_path_oracle(monkeypatch):
    # the path oracle, once the cluster solver's one caller, is now one inertia count
    # on the forest P_2..P_200, so no path and no cluster is solved at any R; the
    # ensemble scan adds one count per realization
    import erlap.harness as harness_module

    real_solver, real_count = harness_module.eigenvalues_cluster, harness_module.counting_function
    solved, counted = [], []

    def solver(c, *args, **kwargs):
        solved.append(c.size)
        return real_solver(c, *args, **kwargs)

    def count(n, edges, energies, *args, **kwargs):
        counted.append((n, len(edges), np.shape(energies)))
        return real_count(n, edges, energies, *args, **kwargs)

    monkeypatch.setattr(harness_module, "eigenvalues_cluster", solver)
    monkeypatch.setattr(harness_module, "counting_function", count)
    for reps in (1, 4):
        solved.clear()
        counted.clear()
        config = ExperimentConfig(n_vertices=1500, edge_prob=0.5, n_reps=reps, master_seed=77)
        result = run_verify(config)
        assert result.ok and dict((name, ok) for name, ok, _ in result.checks)["path_oracle"]
        assert solved == []
        assert counted[0] == (sum(range(2, 201)), sum(range(1, 200)), (sum(range(2, 201)), 2))
        assert len(counted) == 1 + reps


def test_run_verify_flags_gaps_below_fiedler_floor(monkeypatch):
    # a size-2 cluster sits exactly on its floor, lambda_2 = 2: raising every floor by
    # a relative 1e-6 puts each single edge's lambda_2 below the shift, and every
    # realization holds one, so every realization is flagged with one count too many;
    # the path oracle's P_2 counts its lambda_2 below the raised floor too
    import erlap.harness as harness_module

    real = harness_module.fiedler_floor
    monkeypatch.setattr(harness_module, "fiedler_floor", lambda sizes: real(sizes) * (1.0 + 1e-6))
    result = run_verify(ExperimentConfig(n_vertices=1500, edge_prob=0.5, n_reps=2, master_seed=77))
    assert not result.ok
    checks = dict((name, ok) for name, ok, _ in result.checks)
    assert checks["ensemble_scan"] is False and checks["path_oracle"] is False
    assert [v.split(":")[0] for v in result.violations] == [
        "Fiedler floor violated at realization 0",
        "Fiedler floor violated at realization 1",
        "path_oracle",
    ]
    for v in result.violations[:2]:
        count, clusters = (int(field.split("=")[1]) for field in v.split(": ")[1].split())
        assert count > clusters


def test_path_oracle_flags_a_floor_wrong_for_one_path_size(monkeypatch):
    # raising the floor of n = 137 alone by 3 allowances puts lambda_2 of P_137 below
    # both of the oracle's shifts; no realization holds a 137-vertex cluster, so the
    # ensemble scan, which reads the same floor, still passes
    import erlap.harness as harness_module

    real = harness_module.fiedler_floor

    def wrong_at_137(sizes):
        sizes = np.asarray(sizes)
        return real(sizes) + (sizes == 137) * 3 * 137 * np.finfo(np.float64).eps * 2.0 * 2

    monkeypatch.setattr(harness_module, "fiedler_floor", wrong_at_137)
    config = ExperimentConfig(n_vertices=1500, edge_prob=0.5, n_reps=2, master_seed=77)
    assert all(137 not in decompose(sample_graph(config.spec(), r)).sizes for r in range(2))
    result = run_verify(config)
    checks = dict((name, ok) for name, ok, _ in result.checks)
    assert checks["path_oracle"] is False and checks["ensemble_scan"] is True
    assert [v for v in result.violations if v.startswith("path_oracle:")] == [
        "path_oracle: n=2..200 counts=[200, 398] want=[199, 398]"
    ]
    assert len(result.violations) == 1


def test_verify_flags_two_clusters_under_one_label():
    # two clusters of size >= 2 merged under one label hold two kernels where the
    # decomposition expects one, so the count exceeds the cluster count by one
    import erlap.harness as harness_module
    from erlap.clusters import ClusterDecomposition

    d = decompose(sample_graph(GraphSpec(1500, 0.5, 77), 0))
    assert harness_module._verify_one(d, 0)[0] == []
    a, b = 0, 1  # every cluster d describes has size >= 2
    labels = np.unique(np.where(d.labels == b, a, d.labels), return_inverse=True)[1]
    merged = ClusterDecomposition(d.graph, d.vertices, d.edges, d.degrees, labels)
    violations, total, checked = harness_module._verify_one(merged, 5)
    assert (total, checked) == (d.n_clusters - 1, d.sizes.size - 1)
    assert violations == [f"Fiedler floor violated at realization 5: count={checked + 1} clusters={checked}"]


def test_fiedler_floor_less_margin_covers_the_inverse_square_floor():
    # verify checks Fiedler's floor less the eigensolver margin (at most
    # n*eps*2(n - 1)); that bound is at least 1/n^2 for n = 2..11,888, so the
    # paper's 1/n^2 floor on the smallest nonzero eigenvalue is checked with it
    n = np.arange(2, 11_889)
    bound = fiedler_floor(n) - spectral._eig_margin(n, n - 1)
    assert np.all(bound >= 1.0 / n.astype(np.float64) ** 2)


def test_path_oracle_tolerance_implies_the_twelve_over_n_squared_bound():
    # verify's path oracle puts e_min within n*eps*2*d_max <= 1.8e-13 of ref =
    # 2(1 - cos(pi/n)) <= pi^2/n^2 for n = 2..200, so below 12/n^2, with a margin of
    # at least (12 - pi^2)/200^2 - 1e-9 > 5.3e-5 even at the eigensolver tests' 1e-9
    n = np.arange(2, 201)
    ref = np.array([path_emin_reference(int(k)) for k in n])
    assert np.all(ref <= np.pi**2 / n.astype(np.float64) ** 2)
    assert np.min(12.0 / n.astype(np.float64) ** 2 - (ref + 1e-9)) > 5.3e-5


def test_run_verify_workers_do_not_change_result():
    config = ExperimentConfig(n_vertices=2000, edge_prob=0.5, n_reps=6, master_seed=12)
    serial = run_verify(config)
    pooled = run_verify(dataclasses.replace(config, workers=2))
    assert serial == pooled
    assert serial.ok and serial.clusters_checked > 0


def test_run_verify_at_reference_scale():
    # N=1e4, p=0.5, R=10: total clusters concentrate near N*R*(1 - p/2)
    result = run_verify(
        ExperimentConfig(n_vertices=10_000, edge_prob=0.5, n_reps=10, master_seed=7)
    )
    assert result.ok
    assert 72_000 <= result.clusters_total <= 78_000
    assert result.clusters_checked > 10_000


def test_cli_error_paths(tmp_path, capsys):
    assert cli_dispatch(["unknown-subcommand"]) == 2
    assert cli_dispatch(["ids", "--no-such-flag"]) == 2
    # invalid parameter combination surfaces as exit 2 with an error line
    assert cli_dispatch(["ids", "--n", "1", "--p", "0.5", "--reps", "2", "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_giant_cluster_fails_cleanly(tmp_path, capsys):
    # p=2 grows a giant cluster of ~4000 > size_cap vertices; the error crosses
    # the process pool and names the realization to replay
    argv = ["ids", "--n", "5000", "--p", "2.0", "--reps", "2", "--seed", "7",
            "--workers", "2", "--outdir", str(tmp_path)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cluster of size ")
    assert lines[0].endswith("(master_seed=7, realization=0)")


def test_cli_spectrum_giant_cluster_names_realization(tmp_path, capsys):
    argv = ["spectrum", "--n", "5000", "--p", "2.0", "--rep", "3", "--seed", "9",
            "--outdir", str(tmp_path)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: cluster of size 3929 exceeds the size cap 2000 "
        "(master_seed=9, realization=3)"
    ]


def test_cli_moments_giant_cluster_fails_cleanly(tmp_path, capsys):
    argv = ["moments", "--n", "5000", "--p", "2.0", "--outdir", str(tmp_path)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cluster of size ")
    assert lines[0].endswith("realization=0)")


def test_cli_realization_value_error_names_realization(tmp_path, capsys, monkeypatch):
    # a ValueError raised for one realization, like _trace_powers' int64 refusal,
    # keeps the one error line and exit 2 and names the (seed, realization) to replay
    from erlap import spectral

    def refuse(d, k_max):
        raise ValueError("M^3 of a graph of maximum degree 9 exceeds int64")

    monkeypatch.setattr(spectral, "_trace_powers", refuse)
    argv = ["moments", "--n", "200", "--p", "0.5", "--reps", "2", "--kmax", "3", "--seed", "11",
            "--outdir", str(tmp_path)]
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: M^3 of a graph of maximum degree 9 exceeds int64 (master_seed=11, realization=0)"
    ]
    assert not tmp_path.joinpath("moments.csv").exists()


def test_cli_size_cap_flag(tmp_path, capsys):
    from erlap.cli import build_parser

    for command in ("spectrum", "ids", "lifshitz", "moments", "verify"):
        assert build_parser().parse_args([command, "--size-cap", "7"]).size_cap == 7
    argv = ["ids", "--n", "2000", "--p", "1.5", "--reps", "1", "--outdir", str(tmp_path)]
    assert cli_dispatch(argv + ["--size-cap", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: cluster of size 1213 exceeds the size cap 100 "
        "(master_seed=1, realization=0)"
    ]
    assert cli_dispatch(argv + ["--size-cap", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: size_cap must be at least 2"]
    assert not tmp_path.joinpath("ids.csv").exists()


@pytest.mark.parametrize("command", ["ids", "moments", "verify", "spectrum"])
def test_size_cap_checked_by_the_driver_before_one(command, tmp_path, monkeypatch):
    # every capped command draws through _each_realization, which checks the cap before
    # the command's per-realization function: with that function refusing, each gets
    # the same error naming the cluster and the realization
    import erlap.cli as cli_module
    import erlap.harness as harness_module
    from erlap.cli import build_parser
    from erlap.spectral import EigensolverError

    def refuse(*args):
        raise AssertionError(f"{command} ran its per-realization function past the cap")

    owner, name = {"ids": (spectral, "_ids_one"), "moments": (spectral, "_moment_one"),
                   "verify": (harness_module, "_verify_one"),
                   "spectrum": (cli_module, "_spectrum_one")}[command]
    monkeypatch.setattr(owner, name, refuse)
    argv = [command, "--n", "2000", "--p", "1.5", "--reps", "2", "--seed", "1", "--size-cap", "100"]
    argv += [] if command == "verify" else ["--outdir", str(tmp_path)]
    with pytest.raises(EigensolverError) as err:
        cli_module._COMMANDS[command](build_parser().parse_args(argv))
    assert str(err.value) == "cluster of size 1213 exceeds the size cap 100 (master_seed=1, realization=0)"
    assert err.value.cluster.size == 1213
    assert err.value.realization == 0
    assert list(tmp_path.iterdir()) == []


def _never_sample(*args, **kwargs):
    raise AssertionError("a rejected configuration drew a realization")


def test_cli_lifshitz_rejects_p_before_sampling(tmp_path, capsys, monkeypatch):
    # p = 2 would also grow a giant cluster beyond the size cap: the p error comes first
    from erlap import harness

    monkeypatch.setattr(harness, "empirical_ids", _never_sample)
    for p in ("1.0", "2.0"):
        argv = ["lifshitz", "--n", "5000", "--p", p, "--reps", "200",
                "--outdir", str(tmp_path / p)]
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: exponent fit requires subcritical p in (0, 1)"]
        assert not (tmp_path / p).exists()


def test_cli_census_rejects_chain_before_sampling(tmp_path, capsys, monkeypatch):
    # no cluster of N vertices holds a longer chain, at any p: the census fails
    # before drawing a realization rather than report a chain frequency of 0.0
    from erlap import harness

    monkeypatch.setattr(harness, "_run_chunked", _never_sample)
    for p in ("0.5", "1.0", "1.5"):
        argv = ["census", "--n", "100", "--p", p, "--reps", "200", "--chain-size", "500",
                "--outdir", str(tmp_path / p)]
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: chain length m must lie in [2, N], got 500"]
        assert not (tmp_path / p).exists()
    # the config, shared by every command, leaves the census-only chain alone
    assert ExperimentConfig(n_vertices=2).chain_size == 3


def test_benchmark_hooks_exist():
    # perfbench/bench.py wraps these module attributes by name in its traced
    # run; renaming one away would crash the benchmark with AttributeError
    import erlap.harness as harness_module
    import erlap.spectral as spectral_module

    for name in ("sample_graph", "decompose", "eigenvalues_cluster", "empirical_ids",
                 "moment_samples", "graph_spectrum", "cluster_min_gaps", "quadratic_form",
                 "path_emin_reference", "write_table", "write_summary"):
        assert callable(getattr(harness_module, name)), name
    for name in ("sample_graph", "decompose", "_grouped_eigenvalues"):
        assert callable(getattr(spectral_module, name)), name
    for name in ("add", "merge", "report"):
        assert callable(getattr(CensusAccumulator, name)), name
    # the traced run reads the decomposition from the first positional argument
    d = decompose(sample_graph(GraphSpec(50, 0.8, 3), 0))
    groups = spectral_module._grouped_eigenvalues(d)
    assert sum(ids.shape[0] for _, ids, _ in groups) == int(np.count_nonzero(d.sizes >= 2))


def test_cli_config_file(tmp_path, capsys):
    cfg = ExperimentConfig(n_vertices=250, edge_prob=0.5, n_reps=4, master_seed=6, n_points=4)
    path = tmp_path / "exp.cfg"
    cfg.to_file(path)
    assert (
        cli_dispatch(["ids", "--config", str(path), "--outdir", str(tmp_path), "--reps", "3"]) == 0
    )
    out = capsys.readouterr().out
    assert "reps=3" in out  # CLI override wins over the file value
    assert (tmp_path / "ids.csv").exists()
