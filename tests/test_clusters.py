"""Cluster decomposition, classification, and census bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlap.analytics import tau_n
from erlap.clusters import CensusAccumulator, decompose
from erlap.ensemble import Graph, GraphSpec, sample_graph

from oracles import WideDecomposition, bfs_components, classify, union_find_labels, wide_census_add


def _graph(n, edges):
    return Graph(n, sorted(map(tuple, edges)))


def _census(decompositions, edge_prob):
    """Report of one accumulator fed the decompositions of one (N, p) ensemble in turn."""
    decompositions = list(decompositions)
    acc = CensusAccumulator(decompositions[0].graph.n, edge_prob)
    for d in decompositions:
        acc.add(d)
    return acc.report()


def _isolated(d):
    """The vertices of ``d.graph`` with no edge, each a one-vertex cluster."""
    return np.setdiff1d(np.arange(d.graph.n), d.vertices).tolist()


def test_empty_graph_singletons():
    d = decompose(_graph(5, []))
    assert d.n_clusters == 5
    # every cluster is one isolated vertex, so none is described
    assert d.n_isolated == 5 and d.sizes.size == 0
    assert _isolated(d) == [0, 1, 2, 3, 4]
    with pytest.raises(IndexError):
        d.cluster(0)


def test_hand_decomposition():
    d = decompose(_graph(6, [(0, 1), (1, 2), (3, 4)]))
    assert d.n_clusters == 3
    clusters = [d.cluster(k) for k in range(d.sizes.size)]
    groups = [c.vertices.tolist() for c in clusters]
    assert groups == [[0, 1, 2], [3, 4]]
    assert d.n_isolated == 1 and _isolated(d) == [5]
    # local edges of the first cluster are re-indexed to 0..size-1
    assert clusters[0].edges.tolist() == [[0, 1], [1, 2]]


@given(
    n=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_decompose_matches_bfs(n, data):
    total = n * (n - 1) // 2
    m = data.draw(st.integers(min_value=0, max_value=min(total, 60)))
    idx = data.draw(
        st.lists(st.integers(min_value=0, max_value=total - 1), min_size=m, max_size=m, unique=True)
    ) if total else []
    pairs = sorted(
        (divmod_pair(k, n) for k in idx)
    )
    g = _graph(n, pairs)
    d = decompose(g)
    ours = [d.cluster(k).vertices.tolist() for k in range(d.sizes.size)]
    assert sorted(ours + [[v] for v in _isolated(d)]) == bfs_components(n, pairs)
    assert d.n_clusters == len(bfs_components(n, pairs))
    _assert_labels_match_oracles(g)


def _assert_labels_match_oracles(g):
    """The labels are union-find's canonical labels restricted to the vertices with an
    edge and renumbered in order; every other vertex is a one-vertex cluster."""
    d = decompose(g)
    labels = d.labels
    assert labels.dtype == np.int64
    assert np.array_equal(np.unique(labels), np.arange(d.sizes.size))
    full = union_find_labels(g.n, g.edges)
    assert np.array_equal(d.vertices, np.flatnonzero(np.bincount(full)[full] >= 2))
    assert np.array_equal(labels, np.unique(full[d.vertices], return_inverse=True)[1].ravel())
    groups = [d.vertices[labels == k].tolist() for k in range(d.sizes.size)]
    assert groups == sorted(groups)  # numbered by smallest member
    assert sorted(groups + [[v] for v in _isolated(d)]) == bfs_components(g.n, g.edges.tolist())


@given(
    n=st.integers(min_value=2, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32),
    p=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
)
@settings(max_examples=30, deadline=None)
def test_decompose_labels_match_oracles_on_samples(n, seed, p):
    # supercritical samples carry a giant cluster full of cycles
    if p < n:
        _assert_labels_match_oracles(sample_graph(GraphSpec(n, p, seed), 0))


@given(
    n=st.integers(min_value=2, max_value=5000),
    seed=st.integers(min_value=0, max_value=2**32),
    pieces=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_decompose_labels_match_oracles_on_shuffled_paths(n, seed, pieces):
    # paths through randomly relabelled vertices need the most hook rounds
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(pieces - 1, n - 1), replace=False))
    edges = [
        sorted((int(u), int(v)))
        for seg in np.split(order, cuts)
        for u, v in zip(seg[:-1], seg[1:])
    ]
    _assert_labels_match_oracles(_graph(n, edges))


def _path(vertices):
    return [sorted((int(u), int(v))) for u, v in zip(vertices[:-1], vertices[1:])]


def _census_block(n, p, seed, reps):
    # realization b on vertices b*n .. (b+1)*n - 1, as census decomposes its blocks
    return _graph(n * reps, [
        (i + b * n, j + b * n)
        for b in range(reps)
        for i, j in sample_graph(GraphSpec(n, p, seed), b).edges.tolist()
    ])


@pytest.mark.parametrize("g", [
    # round 1 hooks every vertex under its predecessor: one chain of n - 1 hooked roots
    _graph(5000, _path(range(5000))),
    # every edge hooks the centre; round 2 hooks each leaf under vertex 0
    _graph(300, [(v, 299) for v in range(299)]),
    # round 1 roots the second path at 2500 but its last vertex at 0, so root 2500
    # is hooked in round 2, the last one, and one gather re-roots its whole path
    _graph(5000, _path(range(2500)) + _path(range(2500, 5000)) + [(2499, 4999)]),
    _graph(1, []),
    _census_block(200, 0.5, 20260809, 20),
], ids=["ascending_path", "star_max_centre", "paths_joined_late", "single_vertex", "census_block"])
def test_decompose_labels_match_oracles_on_hook_shapes(g):
    _assert_labels_match_oracles(g)


def divmod_pair(k, n):
    # small-n linear index decode, independent of the library's index_pair
    c = 0
    for i in range(n - 1):
        row = n - 1 - i
        if k < c + row:
            return (i, i + 1 + (k - c))
        c += row
    raise AssertionError("bad index")


def test_partition_properties_on_sample():
    spec = GraphSpec(3000, 0.7, 4)
    for r in range(3):
        g = sample_graph(spec, r)
        d = decompose(g)
        assert int(d.sizes.sum()) + d.n_isolated == g.n
        assert np.all(d.sizes >= 2)
        assert int(d.edge_counts.sum()) == g.n_edges
        # the local edges are the graph's, and every edge joins two vertices of the same cluster
        assert np.array_equal(d.vertices[d.edges], g.edges)
        assert np.array_equal(d.labels[d.edges[:, 0]], d.labels[d.edges[:, 1]])


def _flags(n, edges):
    # (tree, linear, cyclic) of a graph that is one cluster
    return tuple(bool(a[0]) for a in decompose(_graph(n, edges)).class_flag_arrays())


def test_classify_hand_cases():
    tree, linear, cyclic = _flags(3, [(0, 1), (1, 2)])  # path
    assert tree and linear and not cyclic

    tree, linear, cyclic = _flags(3, [(0, 1), (0, 2), (1, 2)])  # triangle
    assert cyclic and not tree and not linear

    tree, linear, cyclic = _flags(4, [(0, 1), (0, 2), (0, 3)])  # star
    assert tree and not linear

    tree, linear, cyclic = _flags(2, [(0, 1)])  # pair
    assert tree and linear

    # a single vertex is isolated, and the census counts it as a tree but not linear
    d = decompose(_graph(1, []))
    assert d.n_isolated == 1 and d.n_clusters == 1 and d.sizes.size == 0
    report = _census([d], edge_prob=0.5)
    assert report.trees_by_size.tolist() == [0, 1] and report.linear_by_size.tolist() == [0, 0]


@given(
    n=st.integers(min_value=2, max_value=60),
    p=st.floats(min_value=0.05, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_class_flag_arrays_match_per_cluster_oracle(n, p, seed):
    # p up to 4 covers cyclic and supercritical clusters
    g = sample_graph(GraphSpec(n, min(p, n - 0.5), seed), 0)
    d = decompose(g)
    flags = np.stack(d.class_flag_arrays(), axis=1)
    for k in range(d.sizes.size):
        assert (False, *flags[k].tolist()) == classify(d.cluster(k)), k
    assert d.n_isolated == sum(len(c) == 1 for c in bfs_components(n, g.edges.tolist()))


def test_exactly_one_class_per_cluster():
    spec = GraphSpec(2000, 0.9, 21)
    for r in range(3):
        d = decompose(sample_graph(spec, r))
        tree, linear, cyclic = d.class_flag_arrays()
        # the isolated vertices are counted apart; every other cluster is a tree or cyclic
        assert d.n_clusters == d.n_isolated + d.sizes.size and np.all(d.sizes >= 2)
        assert np.all(tree.astype(int) + cyclic.astype(int) == 1)
        assert np.all(~linear | tree)


def test_linear_chain_degree_profile():
    spec = GraphSpec(4000, 0.8, 33)
    checked = 0
    for r in range(4):
        d = decompose(sample_graph(spec, r))
        _, linear, _ = d.class_flag_arrays()
        for k in np.nonzero(linear)[0]:
            c = d.cluster(int(k))
            degs = sorted(np.bincount(c.edges.ravel(), minlength=c.size).tolist())
            n = c.size
            assert degs == [1, 1] + [2] * (n - 2)
            checked += 1
    assert checked > 50


def test_census_hand_case():
    report = _census([decompose(_graph(3, [(0, 1)]))], edge_prob=0.5)
    assert report.clusters_by_size.tolist() == [0, 1, 1]
    assert report.total_clusters == 2
    assert report.trees_by_size.tolist() == [0, 1, 1]
    assert report.linear_by_size.tolist() == [0, 0, 1]
    # vertex 0 lies on the 2-vertex chain
    assert report.vertex0_by_size.tolist() == [0, 0, 1]
    assert report.vertex0_linear_by_size.tolist() == [0, 0, 1]
    freq, se = report.linear_chain_frequency(2)
    assert freq == 1.0 and math.isnan(se)  # one realization has no standard error


def test_linear_chain_frequency_above_largest_cluster():
    spec = GraphSpec(200, 0.5, 4)
    report = _census((decompose(sample_graph(spec, r)) for r in range(20)), edge_prob=0.5)
    for size in (report.max_size + 1, 10**6):
        assert report.linear_chain_frequency(size) == (0.0, 0.0)


def test_census_report_rejects_inconsistent_vertex0_counts():
    spec = GraphSpec(100, 0.7, 2)
    report = _census((decompose(sample_graph(spec, r)) for r in range(5)), edge_prob=0.7)
    extra = report.vertex0_by_size.copy()
    extra[1] += 1
    with pytest.raises(ValueError):
        dataclasses.replace(report, vertex0_by_size=extra)
    with pytest.raises(ValueError):
        dataclasses.replace(report, vertex0_linear_by_size=report.vertex0_by_size + 1)


def test_census_counting_identity_exact():
    # R * N * tau_hat(n) * n is an exact integer identity with vertex totals
    spec = GraphSpec(500, 0.9, 10)
    decomps = [decompose(sample_graph(spec, r)) for r in range(20)]
    report = _census(decomps, edge_prob=0.9)
    per_size_vertices = np.zeros(report.max_size + 1, dtype=np.int64)
    for d in decomps:
        for k in range(d.sizes.size):
            per_size_vertices[int(d.sizes[k])] += int(d.sizes[k])
        per_size_vertices[1] += d.n_isolated
    sizes = np.arange(report.max_size + 1)
    assert np.array_equal(sizes * report.clusters_by_size, per_size_vertices)
    # so sum_n n * tau_hat(n) = 1 exactly: the sizes partition all R * N vertex slots
    assert int((sizes * report.clusters_by_size).sum()) == 20 * 500
    # the cluster total and the vertices on trees follow exactly from the size counts
    assert report.total_clusters == sum(d.n_clusters for d in decomps)
    on_trees = sum(int(d.sizes[d.is_tree].sum()) + d.n_isolated for d in decomps)
    assert report.tree_fraction() == on_trees / (20 * 500)


def test_census_merge_is_order_independent():
    spec = GraphSpec(400, 0.6, 3)
    decomps = [decompose(sample_graph(spec, r)) for r in range(12)]

    forward = CensusAccumulator(400, 0.6)
    for d in decomps:
        forward.add(d)

    left = CensusAccumulator(400, 0.6)
    right = CensusAccumulator(400, 0.6)
    for d in decomps[7:]:
        left.add(d)
    for d in decomps[:7]:
        right.add(d)
    left.merge(right)

    a, b = forward.report(), left.report()
    assert np.array_equal(a.clusters_by_size, b.clusters_by_size)
    assert np.array_equal(a.sq_clusters_by_size, b.sq_clusters_by_size)
    assert np.array_equal(a.trees_by_size, b.trees_by_size)
    assert np.array_equal(a.linear_by_size, b.linear_by_size)
    assert np.array_equal(a.vertex0_by_size, b.vertex0_by_size)
    assert np.array_equal(a.vertex0_linear_by_size, b.vertex0_linear_by_size)
    assert a.total_clusters == b.total_clusters
    assert a.tree_fraction() == b.tree_fraction()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_census_block_add_equals_single_adds(data):
    n = data.draw(st.integers(min_value=1, max_value=80), label="N")
    n_reps = data.draw(st.integers(min_value=1, max_value=6), label="B")
    total = n * (n - 1) // 2
    graphs = []
    for _ in range(n_reps):
        idx = data.draw(st.sets(st.integers(0, max(total - 1, 0)), max_size=min(total, 90)))
        graphs.append(_graph(n, [divmod_pair(k, n) for k in idx]))
    union = _graph(n * n_reps, [
        (i + b * n, j + b * n) for b, g in enumerate(graphs) for i, j in g.edges.tolist()
    ])

    block = CensusAccumulator(n, 0.5)
    block.add(decompose(union), n_reps=n_reps)
    single = CensusAccumulator(n, 0.5)
    for g in graphs:
        single.add(decompose(g))
    for name in ("clusters_by_size", "trees_by_size", "linear_by_size", "sq_clusters_by_size",
                 "vertex0_by_size", "vertex0_linear_by_size"):
        assert np.array_equal(getattr(block, name), getattr(single, name)), name
    assert block.n_reps == single.n_reps


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_decompose_matches_wide_oracle(data):
    # the decomposition is the N-wide one restricted to its clusters of size >= 2,
    # renumbered in order, with the one-vertex clusters counted
    n = data.draw(st.integers(min_value=1, max_value=60), label="N")
    total = n * (n - 1) // 2
    idx = data.draw(st.sets(st.integers(0, max(total - 1, 0)), max_size=min(total, 50)))
    g = _graph(n, [divmod_pair(k, n) for k in idx])
    d, wide = decompose(g), WideDecomposition(g)
    big = np.flatnonzero(wide.sizes >= 2)  # the wide ids of the clusters d describes
    assert np.array_equal(d.vertices, np.flatnonzero(wide.sizes[wide.labels] >= 2))
    assert np.array_equal(d.vertices[d.edges], g.edges)
    assert np.array_equal(d.labels, np.searchsorted(big, wide.labels[d.vertices]))
    assert np.array_equal(d.edge_labels, np.searchsorted(big, wide.edge_labels))
    assert np.array_equal(d.degrees, wide.degrees[d.vertices])
    for name in ("sizes", "edge_counts", "is_tree", "max_degree"):
        assert np.array_equal(getattr(d, name), getattr(wide, name)[big]), name
    isolated, *flags = wide.class_flag_arrays()
    assert [f.tolist() for f in d.class_flag_arrays()] == [f[big].tolist() for f in flags]
    assert d.n_isolated == int(isolated.sum())
    assert d.n_clusters == wide.n_clusters


def _assert_census_matches_wide_oracle(n, graphs):
    """One block add of ``graphs`` (each on N vertices) against the wide oracle's add."""
    union = _graph(n * len(graphs), [
        (i + b * n, j + b * n) for b, g in enumerate(graphs) for i, j in g.edges.tolist()
    ])
    got, want = CensusAccumulator(n, 0.5), CensusAccumulator(n, 0.5)
    got.add(decompose(union), n_reps=len(graphs))
    wide_census_add(want, WideDecomposition(union), n_reps=len(graphs))
    for name in ("clusters_by_size", "trees_by_size", "linear_by_size", "sq_clusters_by_size",
                 "vertex0_by_size", "vertex0_linear_by_size"):
        a, b = getattr(got, name), getattr(want, name)
        top = max(np.flatnonzero(a).max(initial=0), np.flatnonzero(b).max(initial=0)) + 1
        assert np.array_equal(a[:top], b[:top]), name
    assert got.n_reps == want.n_reps == len(graphs)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_census_add_matches_wide_oracle(data):
    # blocks that mix edgeless realizations and ones whose vertex 0 is isolated or not
    n = data.draw(st.integers(min_value=1, max_value=30), label="N")
    n_reps = data.draw(st.integers(min_value=1, max_value=6), label="B")
    total = n * (n - 1) // 2
    graphs = []
    for _ in range(n_reps):
        kind = data.draw(st.sampled_from(["edgeless", "any", "vertex0 isolated", "vertex0 linked"]))
        idx = set() if kind == "edgeless" else data.draw(
            st.sets(st.integers(0, max(total - 1, 0)), max_size=min(total, 30)))
        pairs = {divmod_pair(k, n) for k in idx}
        if kind == "vertex0 isolated":
            pairs = {e for e in pairs if e[0] != 0}
        elif kind == "vertex0 linked" and n >= 2:
            pairs.add((0, data.draw(st.integers(1, n - 1))))
        graphs.append(_graph(n, pairs))
    _assert_census_matches_wide_oracle(n, graphs)


@pytest.mark.parametrize("n, p, reps", [
    (200, 0.5, 40), (200, 0.5, 1), (6, 2.5, 300), (200, 1e-12, 7), (50, 4.0, 3),
], ids=["census_block", "one_realization", "dense_small_N", "edgeless", "supercritical"])
def test_census_add_matches_wide_oracle_on_samples(n, p, reps):
    _assert_census_matches_wide_oracle(n, [sample_graph(GraphSpec(n, p, 20260809), r) for r in range(reps)])


def test_census_rejects_mixed_ensembles():
    acc = CensusAccumulator(100, 0.5)
    with pytest.raises(ValueError):
        acc.add(decompose(_graph(50, [])))
    with pytest.raises(ValueError):
        acc.add(decompose(_graph(100, [])), n_reps=2)
    other = CensusAccumulator(100, 0.7)
    with pytest.raises(ValueError):
        acc.merge(other)


def test_cluster_density_matches_tau_sum():
    # mean K/N approaches sum_n tau_n; subcritical trees dominate
    n, p, reps = 10_000, 0.5, 100
    spec = GraphSpec(n, p, 555)
    ks = []
    tree_fraction = []
    for r in range(reps):
        d = decompose(sample_graph(spec, r))
        ks.append(d.n_clusters)
        tree, _, _ = d.class_flag_arrays()
        tree_fraction.append((d.sizes[tree].sum() + d.n_isolated) / n)
    ks = np.array(ks, dtype=float)
    target = float(np.sum(tau_n(p, np.arange(1, 400))))
    se = ks.std(ddof=1) / math.sqrt(reps) / n
    assert abs(ks.mean() / n - target) < 3 * se + 1e-4  # 1/N finite-size allowance
    # monitored dominance: nearly all vertices sit on tree clusters
    assert np.mean(tree_fraction) > 0.99


def test_tau_hat_matches_analytic_small_sizes():
    n, p, reps = 10_000, 0.5, 100
    spec = GraphSpec(n, p, 556)
    report = _census((decompose(sample_graph(spec, r)) for r in range(reps)), edge_prob=p)
    tau_hat = report.tau_hat()
    se = report.tau_hat_se()
    for size, target in ((1, math.exp(-0.5)), (2, math.exp(-1.0) / 4.0)):
        assert abs(tau_hat[size] - target) < 3 * se[size], (size, tau_hat[size], target)

