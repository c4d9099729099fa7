"""Laplacian assembly, eigensolves, kernel bookkeeping, IDS, and moments."""

import dataclasses
import itertools
import math
import statistics
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erlap import spectral
from erlap.analytics import lower_bound_L, upper_bound_U
from erlap.clusters import Cluster, decompose
from erlap.ensemble import Graph, GraphSpec, degree_sequence, sample_graph
from erlap.spectral import (
    DEFAULT_SIZE_CAP,
    MAX_MOMENT_POWER,
    EigensolverError,
    cluster_min_gaps,
    eigenvalues_cluster,
    empirical_ids,
    fiedler_floor,
    counting_function,
    graph_spectrum,
    moment_samples,
    path_emin_reference,
    quadratic_form,
)

from oracles import (
    bfs_components,
    dense_counting_function,
    dense_laplacian,
    eigen_moment_rows,
    eigenvalue_counts,
    exact_counts,
    exact_small_ensemble_ids,
    exact_tree_counts,
    path_spectrum_closed_form,
    stack_trace_powers,
    two_filter_leaf_rounds,
    unique_renumbering,
)


def _graph(n, edges):
    return Graph(n, sorted(map(tuple, edges)))


def _single_cluster(g):
    d = decompose(g)
    assert d.n_clusters == 1
    return d.cluster(0)


def _path_graph(n):
    return _graph(n, [(i, i + 1) for i in range(n - 1)])


def _stacked_laplacians(d):
    """{cluster id: dense Laplacian} as the one builder lays them out."""
    stacks = spectral._laplacian_stacks(d)
    return {int(k): lap for _, ids, stack in stacks for k, lap in zip(ids, stack)}


def test_laplacian_hand_matrices():
    # an edge, a 3-vertex path, a triangle and an isolated vertex, clusters 0..3
    d = decompose(_graph(9, [(0, 1), (2, 3), (3, 4), (5, 6), (5, 7), (6, 7)]))
    laps = {k: lap.tolist() for k, lap in _stacked_laplacians(d).items()}
    assert laps == {
        0: [[1, -1], [-1, 1]],
        1: [[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
        2: [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    }


def test_laplacian_rows_sum_to_zero_exactly():
    spec = GraphSpec(1000, 0.8, 71)
    d = decompose(sample_graph(spec, 0))
    laps = _stacked_laplacians(d)
    assert sorted(laps) == np.flatnonzero(d.sizes >= 2).tolist()
    for lap in laps.values():
        assert np.array_equal(lap, np.round(lap))  # integer entries
        assert np.all(lap.sum(axis=1) == 0)
        assert np.array_equal(lap, lap.T)


@given(
    n=st.integers(min_value=2, max_value=80),
    p=st.floats(min_value=0.05, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=80, deadline=None)
@example(n=2400, p=2.0, seed=20260809)  # a 1,951-vertex giant, within the default cap
@example(n=3000, p=0.95, seed=20260809)  # near-critical: 26 size classes
def test_laplacian_stacks_match_dense_oracle(n, p, seed):
    # the builder lays out every cluster of size >= 2, each row the dense
    # Laplacian of its cluster; clusters themselves are cut from the labels
    g = sample_graph(GraphSpec(n, min(p, n - 0.5), seed), 0)
    d = decompose(g)
    yielded = []
    for s, ids, stack in spectral._laplacian_stacks(d):
        assert np.array_equal(ids, np.flatnonzero(d.sizes == s))
        for k, lap in zip(ids, stack):
            c = d.cluster(int(k))
            assert np.array_equal(lap, dense_laplacian(c.size, c.edges.tolist()))
        yielded.append(s)
    assert yielded == sorted({int(s) for s in d.sizes if s >= 2})
    components = bfs_components(n, g.edges.tolist())
    assert d.n_isolated == sum(len(c) == 1 for c in components)
    components = [c for c in components if len(c) >= 2]
    assert d.sizes.size == len(components)
    for k in range(d.sizes.size):
        c = d.cluster(k)
        assert c.vertices.tolist() == components[k]
        inside = np.isin(g.edges[:, 0], c.vertices)
        assert np.array_equal(c.vertices[c.edges], g.edges[inside])


def test_quadratic_form_hand_cases():
    edge = _single_cluster(_graph(2, [(0, 1)]))
    assert quadratic_form(edge, np.array([1.0, -1.0])) == 4.0
    assert quadratic_form(edge, np.array([2.5, 2.5])) == 0.0
    with pytest.raises(ValueError):
        quadratic_form(edge, np.array([1.0, 2.0, 3.0]))


def test_quadratic_form_matches_matrix():
    rng = np.random.default_rng(5)
    spec = GraphSpec(60, 3.5, 15)
    g = sample_graph(spec, 1)
    d = decompose(g)
    checked = 0
    for k in range(d.sizes.size):
        c = d.cluster(int(k))
        lap = dense_laplacian(c.size, c.edges.tolist())
        for _ in range(100):
            phi = rng.standard_normal(c.size)
            direct = float(phi @ lap @ phi)
            assert abs(quadratic_form(c, phi) - direct) <= 1e-9 * max(1.0, abs(direct))
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


def test_eigenvalues_hand_spectra():
    edge = _single_cluster(_graph(2, [(0, 1)]))
    assert np.allclose(eigenvalues_cluster(edge), [0.0, 2.0], atol=1e-12)

    path3 = _single_cluster(_path_graph(3))
    assert np.allclose(eigenvalues_cluster(path3), [0.0, 1.0, 3.0], atol=1e-12)

    tri = _single_cluster(_graph(3, [(0, 1), (0, 2), (1, 2)]))
    assert np.allclose(eigenvalues_cluster(tri), [0.0, 3.0, 3.0], atol=1e-12)


def test_spectrum_invariants():
    spec = GraphSpec(500, 0.9, 13)
    d = decompose(sample_graph(spec, 0))
    # an isolated vertex is a one-vertex cluster: its one eigenvalue is the kernel
    isolated = np.setdiff1d(np.arange(d.graph.n), d.vertices)
    assert d.n_isolated == isolated.size > 0
    for v in isolated[:100].tolist():
        s = eigenvalues_cluster(Cluster(np.array([v]), np.empty((0, 2), dtype=np.int64)))
        assert s.tolist() == [0.0]
    for k in range(min(d.sizes.size, 200)):
        c = d.cluster(int(k))
        s = eigenvalues_cluster(c)
        assert s.shape == (c.size,) and s[0] == 0.0
        assert np.all(np.diff(s) >= 0.0)
        assert s[1] > 0.0


def test_eigenvalues_cluster_rejects_a_disconnected_cluster():
    # P3 u P2 rounds its second zero to 3.9e-17 > 0 and P2 u P2 to <= 0; the
    # labels reject both before any solve
    for edges in ([[0, 1], [1, 2], [3, 4]], [[0, 1], [2, 3]]):
        c = Cluster(np.arange(np.max(edges) + 1), np.array(edges))
        with pytest.raises(ValueError, match="2 components"):
            eigenvalues_cluster(c)
    with pytest.raises(ValueError, match="0 components"):
        eigenvalues_cluster(Cluster(np.arange(0), np.empty((0, 2), dtype=np.int64)))
    # malformed edges fail as Graph's own input does, before the labels or the builder
    for edges, message in (([[0, 5]], "out of range"), ([[0, 1], [0, 1]], "unique"),
                           ([[0, 1], [1, 1]], "self-loops")):
        with pytest.raises(ValueError, match=message):
            eigenvalues_cluster(Cluster(np.arange(2), np.array(edges)))


def test_path_oracle_closed_form():
    for n in range(2, 201):
        c = _single_cluster(_path_graph(n))
        e_min = eigenvalues_cluster(c)[1]
        ref = path_emin_reference(n)
        assert abs(e_min - ref) < 1e-9
        assert e_min <= 12.0 / n**2
    with pytest.raises(ValueError):
        path_emin_reference(1)


def test_path_full_spectrum_closed_form():
    for n in (2, 3, 7, 24):
        c = _single_cluster(_path_graph(n))
        got = eigenvalues_cluster(c)
        want = np.sort(path_spectrum_closed_form(n))
        assert np.max(np.abs(got - want)) < 1e-10


def test_path_reference_values():
    assert abs(path_emin_reference(2) - 2.0) < 1e-12
    assert abs(path_emin_reference(3) - 1.0) < 1e-12
    assert abs(path_emin_reference(10) - 0.09788696740969285) < 1e-12


def test_fiedler_floor_is_the_path_gap_and_bounds_every_cluster():
    ns = np.arange(2, 201)
    floors = fiedler_floor(ns)
    assert floors.tolist() == [path_emin_reference(int(n)) for n in ns]
    assert np.max(np.abs(floors - [path_spectrum_closed_form(int(n))[1] for n in ns])) == 0.0
    d = decompose(sample_graph(GraphSpec(3000, 0.9, 5), 0))
    _, sizes, gaps = cluster_min_gaps(d)
    # paths attain the floor, so computed gaps may sit a few ulps below it
    assert np.all(gaps >= fiedler_floor(sizes) * (1.0 - 1e-12))


def _old_min_solved_size(e_max: float, size_cap: int) -> int:
    """The search as it was when it took the size cap: capped at it, and cap + 1
    when no size up to the cap reaches ``e_max``."""
    n = np.arange(2, min(size_cap, 1 << 14) + 1)
    reach = fiedler_floor(n) - spectral._eig_margin(n, n - 1) <= e_max
    return int(n[np.argmax(reach)]) if reach.any() else size_cap + 1


def test_min_solved_size_brackets_the_floor():
    assert spectral._min_solved_size(0.5) == 5
    assert spectral._min_solved_size(2.0) == 2
    # below every floor less margin up to n = 12163, the search still ends
    assert spectral._min_solved_size(1e-9) == 12164
    # the driver rejects a realization with a cluster above the cap before any count,
    # so sizes 2..cap are all a count sees: the uncapped search counts the sizes of
    # that range that the capped search counted, at every top energy and every cap
    floors = fiedler_floor(np.arange(2, 40))
    e_maxes = np.concatenate((np.geomspace(1e-9, 4.0, 400), floors, np.nextafter(floors, 0.0),
                              np.nextafter(floors, 4.0), [1e-300, 3.6e-8, 3.7e-8, 10.0, 1e300]))
    caps = [2, 3, 4, 5, 7, 12, 39, 100, 2000, 12163, 12164, 12165, 1 << 14, 20_000]
    for e_max in e_maxes.tolist():
        m = spectral._min_solved_size(e_max)
        for cap in caps:
            assert min(m, cap + 1) == _old_min_solved_size(e_max, cap), (e_max, cap)
    # the search stops by pi/sqrt(e_max) + 2: at and beside the floors of larger sizes
    floors = fiedler_floor(np.arange(40, 12_200, 9))
    for e_max in np.concatenate((floors, np.nextafter(floors, 0.0), np.nextafter(floors, 4.0))).tolist():
        assert spectral._min_solved_size(e_max) == _old_min_solved_size(e_max, 1 << 14), e_max
    for n in range(2, 30):
        floor = float(fiedler_floor(n))
        # within 3 ulps of the floor (the margin is at least 4 eps), size n is solved ...
        below = above = floor
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 4.0)
        for e in (below, floor, above):
            assert spectral._min_solved_size(float(e)) <= n
        # ... and clearly below it, size n is pruned
        assert spectral._min_solved_size(floor * (1 - 1e-9)) == n + 1


def test_grid_rejects_non_finite_energies():
    spec = GraphSpec(50, 0.5, 1)
    for grid in ([math.nan], [0.1, math.nan], [math.inf], [0.1, math.inf], [-math.inf, 0.1]):
        with pytest.raises(ValueError):
            empirical_ids(spec, 2, grid)


def _ids_one(d, r, grid, min_size):
    # realization r's (counts, n_clusters) as empirical_ids counts it, in a block of one
    return spectral._count_block(0, [(r, spectral._ids_one(d, r, min_size))], grid)[0]


def _pruned_and_full_counts(d, grid):
    min_size = spectral._min_solved_size(float(grid[-1]))
    return (_ids_one(d, 0, grid, min_size)[0],
            _ids_one(d, 0, grid, 2)[0])


def _exact_ids_counts(g, grid):
    # README tie policy: every cluster counts exactly.  A dense solve of an n-vertex
    # component rounds each eigenvalue by less than 2 n^2 eps, so its count is exact
    # at every energy that no computed eigenvalue lies that near; the slow exact
    # oracle counts only the other energies
    counts = np.zeros(grid.shape, dtype=np.int64)
    all_edges = g.edges.tolist()
    for comp in bfs_components(g.n, all_edges):
        n, index = len(comp), {v: i for i, v in enumerate(comp)}
        edges = [(index[a], index[b]) for a, b in all_edges if a in index]
        values = np.linalg.eigvalsh(dense_laplacian(n, edges))
        near = np.abs(values[:, None] - grid).min(axis=0) <= 2.0 * n * n * np.finfo(np.float64).eps
        found = np.searchsorted(values, grid, side="right")
        found[near] = exact_counts(n, edges, grid[near])
        counts += found
    return counts


def _assert_matches_dense(g, grid, counts):
    # the dense whole-graph solve rounds each eigenvalue by up to N*eps*||L||,
    # ||L|| <= 2(N - 1), so it brackets the counts between E -/+ that much
    tol = 2.0 * g.n * g.n * np.finfo(np.float64).eps
    edges = g.edges.tolist()
    assert np.all(dense_counting_function(g.n, edges, grid - tol) <= counts)
    assert np.all(counts <= dense_counting_function(g.n, edges, grid + tol))


_grids = st.lists(
    st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=8, unique=True
).map(lambda xs: np.array(sorted(xs)))


@given(
    n=st.integers(min_value=2, max_value=80),
    p=st.floats(min_value=0.05, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32),
    grid=_grids,
)
@settings(max_examples=80, deadline=None)
def test_pruned_ids_counts_match_dense_oracle(n, p, seed, grid):
    # p up to 4 covers cyclic and supercritical clusters
    spec = GraphSpec(n, min(p, n - 0.5), seed)
    min_size = spectral._min_solved_size(float(grid[-1]))
    g = sample_graph(spec, 0)
    d = decompose(g)
    counts, k = _ids_one(d, 0, grid, min_size)
    assert k == d.n_clusters
    pruned, full = _pruned_and_full_counts(d, grid)
    assert np.array_equal(pruned, full)
    # the grids draw integer energies too, where an eigensolve can round a tie
    # below E: every cluster counts exactly there
    assert np.array_equal(counts, _exact_ids_counts(g, grid))
    _assert_matches_dense(g, grid, counts)
    # off the integers no eigenvalue equals E, and the per-cluster solves agree
    off = grid != np.floor(grid)
    groups = spectral._grouped_eigenvalues(d)
    assert np.array_equal(counts[off], eigenvalue_counts(d, groups, grid[off]))


def _random_forest(data, max_n):
    n = data.draw(st.integers(min_value=1, max_value=max_n))
    perm = data.draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        u = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=v - 1)))
        if u is not None:
            edges.append(sorted((perm[u], perm[v])))
    return n, sorted(edges)


@given(
    data=st.data(),
    energies=st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=64).map(lambda k: k / 8),
            st.floats(min_value=1e-3, max_value=8.0).map(lambda x: round(x, 6)),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_forest_counts_match_exact_oracle(data, energies):
    # integer energies (k/8 with 8 | k) carry ties, the others cannot
    n, edges = _random_forest(data, 60)
    counts = counting_function(n, edges, energies)
    assert np.array_equal(counts, exact_tree_counts(n, edges, energies))
    # a zero bound runs the integer energies on Python integers from the start
    with mock.patch.object(spectral, "_INT64_PIVOT_BOUND", 0):
        assert np.array_equal(counting_function(n, edges, energies), counts)


def test_forest_counts_closed_forms():
    # the star K_{1,m} has spectrum 0, 1 (m - 1 times), m + 1
    for m in range(1, 12):
        star = [(0, i) for i in range(1, m + 1)]
        grid = [0.5, 1.0, 1.5] + [float(e) for e in range(2, m + 3)]
        want = [1, m, m] + [m] * (m - 1) + [m + 1, m + 1]
        assert counting_function(m + 1, star, grid).tolist() == want
    # P3 has spectrum 0, 1, 3, and P_n for even n has the eigenvalue 2 (k = n/2)
    assert counting_function(3, [(0, 1), (1, 2)], [0.5, 1, 2, 3]).tolist() == [1, 2, 2, 3]
    for n in range(2, 41, 2):
        path = [(i, i + 1) for i in range(n - 1)]
        assert counting_function(n, path, [2.0]).tolist() == [n // 2 + 1]
        below = np.count_nonzero(path_spectrum_closed_form(n) < 2.0 - 1e-9)
        assert below == n // 2
    # a forest counts as the sum of its trees: P3, K_{1,3} (0, 1, 1, 4), a vertex
    forest = [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6)]
    assert counting_function(8, forest, [1.0, 3.0]).tolist() == [2 + 3 + 1, 3 + 3 + 1]
    assert counting_function(4, [], [0.25, 2.0]).tolist() == [4, 4]
    # K_{1,m} peels one leaf a round, so at E = 3 the centre's g is (-2)^m: the
    # int64 pivots must move to Python integers past 2^31 (2^64 wraps to 0); an
    # energy of 2^40 starts on Python integers
    for m in (100, 150):
        star = [(0, i) for i in range(1, m + 1)]
        grid = [1.0, 3.0, float(m), float(m + 1)]
        want = [m, m, m, m + 1]
        assert counting_function(m + 1, star, grid).tolist() == want
        with mock.patch.object(spectral, "_INT64_PIVOT_BOUND", 0):
            assert counting_function(m + 1, star, grid).tolist() == want
        assert counting_function(m + 1, star, [2.0**40]).tolist() == [m + 1]


def _assert_same_peel(n, edges):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg, rounds, live = spectral._leaf_rounds(n, edges)
    want, want_live = two_filter_leaf_rounds(n, edges)
    assert len(rounds) == len(want)
    for (leaves, parents), (want_leaves, want_parents) in zip(rounds, want):
        assert np.array_equal(leaves, want_leaves) and np.array_equal(parents, want_parents)
    assert np.array_equal(live, want_live)
    assert np.array_equal(deg, np.bincount(edges.ravel(), minlength=n))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_mask_peel_matches_the_two_filter_oracle_on_forests(data):
    _assert_same_peel(*_random_forest(data, 60))


def test_one_mask_peel_matches_the_two_filter_oracle_on_stars_beside_k2s():
    # a star's leaves all name its centre, and both ends of a K2 are leaves: the
    # pair rule and the owner slot meet in one round, in shuffled vertex orders
    rng = np.random.default_rng(7)
    for m in range(1, 9):
        for k2s in range(4):
            n = m + 1 + 2 * k2s
            parts = [(0, i) for i in range(1, m + 1)]
            parts += [(m + 1 + 2 * t, m + 2 + 2 * t) for t in range(k2s)]
            for _ in range(6):
                perm = rng.permutation(n)
                edges = sorted(tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in parts)
                _assert_same_peel(n, edges)


@pytest.mark.parametrize("n, p", [(2000, 1.5), (500, 3.0)])
def test_one_mask_peel_matches_the_two_filter_oracle_on_graphs_with_cores(n, p):
    for r in range(3):
        g = sample_graph(GraphSpec(n, p, 20260809), r)
        _, _, live = spectral._leaf_rounds(g.n, g.edges)
        assert (live > 0).any()  # a 2-core is left
        _assert_same_peel(g.n, g.edges)


@st.composite
def _clusters_in_any_order(draw):
    # isolated vertices, trees and cyclic clusters of 1..9 vertices, their vertices
    # shuffled so that uncounted clusters sit below, between and above counted ones
    sizes = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=10))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    edges, start = set(), 0
    for size in sizes:
        for v in range(1, size):
            edges.add((draw(st.integers(min_value=0, max_value=v - 1)) + start, v + start))
        for _ in range(draw(st.integers(min_value=0, max_value=2)) if size >= 3 else 0):
            a, b = sorted(draw(st.lists(st.integers(start, start + size - 1), min_size=2, max_size=2, unique=True)))
            edges.add((a, b))
        start += size
    return _graph(n, [sorted((perm[a], perm[b])) for a, b in edges])


@given(
    g=_clusters_in_any_order(),
    grid=st.lists(st.floats(min_value=1e-3, max_value=2.5), min_size=1, max_size=5, unique=True).map(
        lambda xs: np.array(sorted(xs))
    ),
)
@settings(max_examples=150, deadline=None)
def test_ids_counts_do_not_depend_on_the_renumbering_of_counted_vertices(g, grid):
    d = decompose(g)
    min_size = spectral._min_solved_size(float(grid[-1]))
    counts, k = _ids_one(d, 0, grid, min_size)
    counted = d.sizes >= min_size
    n, edges = unique_renumbering(g.edges[counted[d.edge_labels]])
    want = counting_function(n, edges, grid) + d.n_clusters - np.count_nonzero(counted)
    assert np.array_equal(counts, want) and k == d.n_clusters
    _assert_matches_dense(g, grid, counts)


@st.composite
def _cyclic_graph(draw):
    # dense labelled graphs on up to 14 vertices: many cycles, and cores whose
    # diagonals hit 0 at integer energies
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []


@given(
    graph=_cyclic_graph(),
    energies=st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=16).map(float),
            st.integers(min_value=1, max_value=128).map(lambda k: k / 8),
            st.floats(min_value=1e-3, max_value=16.0),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_counts_match_exact_oracle_on_cyclic_graphs(graph, energies):
    n, edges = graph
    counts = counting_function(n, edges, energies)
    assert np.array_equal(counts, exact_counts(n, edges, energies))
    # integer energies on Python integers from the start, and every float energy
    # counted exactly, as when a core pivot rounds to 0
    with mock.patch.object(spectral, "_INT64_PIVOT_BOUND", 0):
        assert np.array_equal(counting_function(n, edges, energies), counts)
    with mock.patch.object(spectral, "_inertia", _all_rounded_to_zero):
        assert np.array_equal(counting_function(n, edges, energies), counts)


def _all_rounded_to_zero(*args, _real=spectral._inertia):
    # as if every float core pivot rounded to 0: each column goes to the exact count
    le, zero = _real(*args)
    return le, np.ones_like(zero)


_shift = st.one_of(
    st.integers(min_value=1, max_value=16).map(float),
    st.integers(min_value=1, max_value=128).map(lambda k: k / 8),
    st.floats(min_value=1e-3, max_value=16.0),
)


@given(graph=_cyclic_graph(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_per_vertex_shifts_count_like_the_dense_and_exact_oracles(graph, data):
    # each column shifts every vertex by its own energy; an all-integer column is
    # counted exactly, and so is any column once a core pivot rounds to 0
    n, edges = graph
    integer_columns = data.draw(st.lists(st.booleans(), min_size=1, max_size=3))
    columns = [
        data.draw(st.lists(st.integers(1, 16).map(float) if whole else _shift, min_size=n, max_size=n))
        for whole in integer_columns
    ]
    shifts = np.array(columns).T
    counts = counting_function(n, edges, shifts)
    # L - diag(E) -/+ 1e-9 I brackets the float count; a tie counts on one side only
    assert np.all(dense_counting_function(n, edges, shifts - 1e-9) <= counts)
    assert np.all(counts <= dense_counting_function(n, edges, shifts + 1e-9))
    exact = exact_counts(n, edges, shifts)
    assert np.array_equal(counts[integer_columns], exact[integer_columns])
    if len(edges) >= n:  # a cycle, so a core for _inertia
        with mock.patch.object(spectral, "_inertia", _all_rounded_to_zero):
            assert np.array_equal(counting_function(n, edges, shifts), exact)


@given(
    graph=_cyclic_graph(),
    energies=st.lists(st.one_of(_shift, st.just(2.0**40)), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_identical_rows_count_like_the_grid(graph, energies):
    # an (n, k) array of equal rows is the grid itself, integer energies included
    n, edges = graph
    grid = np.array(energies)
    assert np.array_equal(counting_function(n, edges, np.tile(grid, (n, 1))), counting_function(n, edges, grid))


def test_path_count_resolves_the_fiedler_floor_within_the_verify_allowance():
    # paths attain Fiedler's floor.  Every vertex shifted by the floor less verify's
    # allowance n*eps*2*d_max, a path counts its kernel alone; shifted by the floor
    # plus the allowance, its kernel and lambda_2
    for n in range(2, 501):
        path = [(i, i + 1) for i in range(n - 1)]
        allowance = n * np.finfo(np.float64).eps * 2.0 * min(n - 1, 2)
        shifts = fiedler_floor(n) + np.array([[-allowance, allowance]] * n)
        assert counting_function(n, path, shifts).tolist() == [1, 2], n


def _layouts(shifts):
    # one (n, k) table C-ordered, Fortran-ordered, and as every other column of a
    # wider table whose other columns are NaN
    wide = np.full((shifts.shape[0], 2 * shifts.shape[1]), np.nan)
    wide[:, ::2] = shifts
    return np.ascontiguousarray(shifts), np.asfortranarray(shifts), wide[:, ::2]


def test_layout_of_the_energy_table_does_not_change_the_path_forest_counts():
    # verify's path oracle: the forest of P_2..P_200, each vertex shifted by its path's
    # floor -/+ the scan's allowance, then by integer energies counted exactly; a
    # single column is contiguous in every layout, so it gives the counts to match
    n = np.repeat(np.arange(2, 201), np.arange(2, 201))
    heads = np.flatnonzero(n[:-1] == n[1:])
    edges = np.stack([heads, heads + 1], axis=1)
    allowance = n * np.finfo(np.float64).eps * 2.0 * np.minimum(n - 1, 2)
    floats = fiedler_floor(n)[:, None] + allowance[:, None] * np.array([-1.0, 1.0])
    integers = np.stack([np.arange(n.size) % 5, np.full(n.size, 2), n % 3 + 1], axis=1).astype(np.float64)
    for shifts in (floats, integers):
        want = [int(counting_function(n.size, edges, shifts[:, [j]])[0]) for j in range(shifts.shape[1])]
        for table in _layouts(shifts):
            assert counting_function(n.size, edges, table).tolist() == want
    assert want[1] == sum(m // 2 + 1 for m in range(2, 201))  # P_m counts m // 2 + 1 at E = 2


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_layout_of_the_energy_table_does_not_change_the_counts(data):
    # cyclic graphs and forests; float columns and all-integer columns (the exact
    # pivots), k >= 2 so that the layouts differ
    n, edges = _random_forest(data, 60) if data.draw(st.booleans()) else data.draw(_cyclic_graph())
    integer_columns = data.draw(st.lists(st.booleans(), min_size=2, max_size=4))
    columns = [
        data.draw(st.lists(st.integers(1, 16).map(float) if whole else _shift, min_size=n, max_size=n))
        for whole in integer_columns
    ]
    shifts = np.array(columns).T
    c_order, fortran, strided = (counting_function(n, edges, table) for table in _layouts(shifts))
    assert np.array_equal(fortran, c_order) and np.array_equal(strided, c_order)
    assert np.array_equal(c_order[integer_columns], exact_counts(n, edges, shifts)[integer_columns])


def test_counts_cores_with_all_zero_diagonals():
    # C4 (0, 2, 2, 4) at E = 2, K4 (0, 4, 4, 4) and K_{3,3} (0, 3, 3, 3, 3, 6) at
    # E = 3: every core diagonal is 0, so the first pivot needs a partner
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    k33 = [(i, j) for i in range(3) for j in range(3, 6)]
    assert counting_function(4, c4, [2.0]).tolist() == [3]
    assert counting_function(4, k4, [3.0, 4.0]).tolist() == [1, 4]
    assert counting_function(6, k33, [3.0, 6.0]).tolist() == [5, 6]
    for n, edges in ((4, c4), (4, k4), (6, k33)):
        grid = [1.0, 2.0, 3.0, 4.0, 6.0]
        assert counting_function(n, edges, grid).tolist() == exact_counts(n, edges, grid).tolist()


@pytest.mark.parametrize("n, p, r, count", [(10_000, 0.9, 1, 7112), (2000, 1.5, 0, 1103)])
def test_integer_energy_ties_counted_exactly_on_cyclic_clusters(n, p, r, count):
    # an eigensolve of these realizations' cyclic clusters rounds some of their
    # eigenvalues 1 above 1 (eigvalsh counted 7106 and 1069); inertia counts every one
    d = decompose(sample_graph(GraphSpec(n, p, 20260809), r))
    grid = np.array([0.5, 1.0, 2.0])
    counts, _ = _ids_one(d, r, grid, 2)
    tolerant = np.searchsorted(graph_spectrum(d), grid + 1e-7, side="right")
    assert counts[1] == count
    assert np.array_equal(counts, tolerant)


def test_ids_calls_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ids called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(spectral, "_grouped_eigenvalues", refuse)
    grid = [0.25, 0.5, 1.0, 2.0, 3.0]
    for spec, reps in ((GraphSpec(10_000, 0.9, 20260809), 3), (GraphSpec(2000, 1.5, 20260809), 2)):
        est = empirical_ids(spec, reps, grid)
        assert np.all(np.isfinite(est.sigma))


def test_counts_a_cycle_and_rejects_a_repeated_pair():
    # a triangle with a pendant vertex, spectrum 0, 1, 3, 4
    paw = [(0, 1), (1, 2), (0, 2), (2, 3)]
    assert counting_function(4, paw, [0.5, 1.0, 3.0, 3.5]).tolist() == [1, 2, 3, 3]
    for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 1)]):
        with pytest.raises(ValueError, match="repeat a pair"):
            counting_function(2, edges, [1.0])


@given(
    paths=st.lists(st.integers(min_value=2, max_value=30), max_size=5),
    extra=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=14),
    target=st.integers(min_value=2, max_value=30),
    ulps=st.one_of(st.integers(min_value=-6, max_value=6), st.integers(-1000, 0)),
    lower=_grids,
)
@settings(max_examples=150, deadline=None)
def test_pruning_exact_when_top_energy_sits_on_a_path_floor(paths, extra, target, ulps, lower):
    # disjoint paths attain Fiedler's floor, and from n = 10 on their computed
    # gaps fall up to ~10^3 ulps below it; a random graph on 12 more vertices
    # adds trees and cycles.  The top energy lands a few ulps around the floor
    # of one path size, where pruning that size would drop a computed
    # eigenvalue that the full count includes.
    edges = {(min(a, b), max(a, b)) for a, b in extra if a != b}
    start = 12
    for size in paths + [target]:
        edges |= {(v, v + 1) for v in range(start, start + size - 1)}
        start += size
    g = Graph(start, sorted(edges))
    floor = float(fiedler_floor(target))
    e_max = floor + ulps * float(np.spacing(floor))
    grid = np.unique(np.append(lower[lower < e_max], e_max))
    pruned, full = _pruned_and_full_counts(decompose(g), grid)
    assert np.array_equal(pruned, full)
    _assert_matches_dense(g, grid, pruned)


def _joined(graphs):
    """The graphs as one, each numbered from its offset: (n, edges, offsets)."""
    offsets = np.concatenate(([0], np.cumsum([n for n, _ in graphs]))).astype(np.int64)
    edges = [np.asarray(e, dtype=np.int64).reshape(-1, 2) + o for (_, e), o in zip(graphs, offsets.tolist())]
    return int(offsets[-1]), np.concatenate([np.empty((0, 2), dtype=np.int64), *edges]), offsets


# cyclic graphs (2-cores), trees, and groups with no vertex or no edge
_groups = st.lists(
    st.one_of(_cyclic_graph(), st.integers(min_value=0, max_value=4).map(lambda n: (n, []))),
    min_size=1, max_size=6,
)


@given(graphs=_groups, energies=st.lists(_shift, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_grouped_rows_equal_each_graph_counted_alone(graphs, energies):
    # float grids and integer energies; an empty group counts 0 at every energy
    n, edges, offsets = _joined(graphs)
    rows = counting_function(n, edges, energies, offsets)
    assert rows.shape == (len(graphs), len(energies))
    for row, (m, e) in zip(rows, graphs):
        assert np.array_equal(row, counting_function(m, e, energies))


def test_grouped_count_takes_offsets_from_0_to_n_and_a_grid():
    n, edges, offsets = _joined([(3, [(0, 1), (1, 2)]), (0, []), (2, [(0, 1)])])
    assert counting_function(n, edges, [0.5, 1.0], offsets).tolist() == [[1, 2], [0, 0], [1, 1]]
    for bad in ([0, 3, 3], [1, 3, 3, 5], [0, 3, 2, 5], [[0, 5]], [0]):
        with pytest.raises(ValueError, match="offsets must ascend"):
            counting_function(n, edges, [0.5], bad)
    with pytest.raises(ValueError, match="1-d grid"):
        counting_function(n, edges, np.full((n, 1), 0.5), offsets)


def _core_groups(n, edges, offsets):
    """The group of each 2-core vertex of the joined graph, in core order."""
    live = spectral._leaf_rounds(n, edges)[2]
    return np.searchsorted(offsets, np.flatnonzero(live > 0), side="right") - 1


def _marking(mark, exact_calls):
    # as if a float core pivot rounded to 0 at the core vertices ``mark``; the exact
    # eliminations record which vertices they take
    def inertia(edges, diag, off, _real=spectral._inertia):
        le, zero = _real(edges, diag, off)
        if isinstance(diag[0], np.ndarray):
            zero[mark] = True
        else:
            exact_calls.append(np.array([x is not None for x in diag]))
        return le, zero

    return inertia


_non_integer = st.one_of(
    st.integers(min_value=1, max_value=128).filter(lambda k: k % 8).map(lambda k: k / 8),
    st.floats(min_value=1e-3, max_value=16.0).filter(lambda x: x != math.floor(x)),
)


@given(graphs=_groups, energies=st.lists(_non_integer, min_size=1, max_size=6), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_zero_core_pivot_sends_only_its_own_group_to_the_exact_count(graphs, energies, data):
    # the zero flags of the chosen groups' core vertices are set: each row equals its
    # group counted alone under the same marking, the unmarked rows keep their float
    # count, and only marked core vertices enter an exact elimination (the energies are
    # not integers, which would send every group to the exact count)
    marked = data.draw(st.lists(st.integers(0, len(graphs) - 1), unique=True))
    n, edges, offsets = _joined(graphs)
    groups = _core_groups(n, edges, offsets)
    mine = np.isin(groups, marked)
    exact_calls = []
    with mock.patch.object(spectral, "_inertia", _marking(mine, exact_calls)):
        rows = counting_function(n, edges, energies, offsets)
    for grp, (row, (m, e)) in enumerate(zip(rows, graphs)):
        if grp in marked:
            with mock.patch.object(spectral, "_inertia", _marking(slice(None), [])):
                assert np.array_equal(row, counting_function(m, e, energies))
            if grp in groups:  # a marked group with a core is counted exactly
                assert np.array_equal(row, exact_counts(m, e, energies))
        else:
            assert np.array_equal(row, counting_function(m, e, energies))
    assert len(exact_calls) == (len(energies) if mine.any() else 0)
    for taken in exact_calls:
        assert not (taken & ~mine).any()


def test_a_core_pivot_that_rounds_to_zero_beside_one_that_does_not():
    # at E = 2 - 60 ulps, just below the 4-cycle's double eigenvalue 2, its last float
    # core pivot rounds to exactly 0 and its float count reads 2; the exact count sends
    # it 1.  The triangle's pivots do not round to 0, so it keeps its float count, in a
    # block as alone
    triangle, c4 = (3, [(0, 1), (0, 2), (1, 2)]), (4, [(0, 1), (0, 3), (1, 2), (2, 3)])
    graphs, energies = [triangle, (0, []), c4, (2, [])], [float.fromhex("0x1.fffffffffffc4p+0"), 0.5]
    zeros, exact_calls = [], []

    def spy(edges, diag, off, _real=spectral._inertia):
        le, zero = _real(edges, diag, off)
        if isinstance(diag[0], np.ndarray):
            zeros.append((le.sum(axis=0).tolist(), zero.tolist()))
        else:
            exact_calls.append([x is not None for x in diag])
        return le, zero

    n, edges, offsets = _joined(graphs)
    with mock.patch.object(spectral, "_inertia", spy):
        rows = counting_function(n, edges, energies, offsets)
    # the core is the triangle's 3 vertices, then the 4-cycle's: at E the triangle counts
    # its kernel, the 4-cycle 2, and only its last pivot rounds to 0
    assert zeros == [([1 + 2, 1 + 1], [[False, False]] * 6 + [[True, False]])]
    assert exact_calls == [[False] * 3 + [True] * 4]
    for row, (m, e) in zip(rows, graphs):
        assert np.array_equal(row, counting_function(m, e, energies))
    assert rows.tolist() == [[1, 1], [0, 0], [1, 1], [2, 2]]
    assert exact_counts(*triangle, energies).tolist() == [1, 1] and exact_counts(*c4, energies).tolist() == [1, 1]


def test_a_column_within_2_to_the_minus_54_counts_the_kernel_exactly():
    # at 0 < E <= 2^-54, 1 - E rounds to 1, so the float pivots cannot see E: the
    # 4-cycle's last core pivot rounded to a tiny positive and missed the kernel.  Such a
    # column counts as E = 0, which it equals below Fiedler's floor, exactly and in no
    # float elimination; a block or a per-vertex table changes nothing
    triangle, c4 = (3, [(0, 1), (0, 2), (1, 2)]), (4, [(0, 1), (0, 3), (1, 2), (2, 3)])
    graphs = [triangle, (0, []), c4, (2, [])]
    n, edges, offsets = _joined(graphs)
    for tiny in (5e-324, 1e-17, 2.0**-54):
        energies = [tiny, 0.5]
        assert counting_function(*c4, energies).tolist() == [1, 1]
        assert counting_function(*c4, np.full((4, 2), energies)).tolist() == [1, 1]
        widths = []

        def spy(edges, diag, off, _real=spectral._inertia):
            if isinstance(diag[0], np.ndarray):
                widths.append(diag[0].size)
            return _real(edges, diag, off)

        with mock.patch.object(spectral, "_inertia", spy):
            rows = counting_function(n, edges, energies, offsets)
        assert rows.tolist() == [[1, 1], [0, 0], [1, 1], [2, 2]]
        assert widths == [1]  # the 0.5 column alone
        assert exact_counts(*c4, energies).tolist() == [1, 1]
    # a column of zeros and tiny entries counts the kernel too
    assert counting_function(*c4, np.array([[0.0], [5e-324], [0.0], [1e-17]])).tolist() == [1]


@st.composite
def _matrix_part(draw, k, exact):
    # a cyclic graph with a diagonal and edge weights: Fractions of small integers (exact
    # zeros that need the congruence step) or None, left out; or float arrays over k
    # energies, -inf entries left out
    if exact:
        entry = st.one_of(st.none(), st.integers(-3, 3).map(Fraction))
    else:
        value = st.one_of(st.just(-np.inf), st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
        entry = st.lists(value, min_size=k, max_size=k).map(np.array)
    n, edges = draw(_cyclic_graph())
    weights = draw(st.lists(st.sampled_from([1, -1, 2, 3]), min_size=n, max_size=n))
    return n, edges, draw(st.lists(entry, min_size=n, max_size=n)), weights


def _off(weights, k, exact):
    return (lambda i, j: Fraction(-weights[i] * weights[j])) if exact else (lambda i, j: -np.ones(k))


@given(data=st.data(), exact=st.booleans(), k=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
@np.errstate(all="ignore")
def test_inertia_flags_each_vertex_as_its_part_alone(data, exact, k):
    # on a disjoint union, each vertex's flags (pivot <= 0, pivot == 0) equal those its
    # part gives alone; left-out vertices read False in both
    parts = data.draw(st.lists(_matrix_part(k, exact), min_size=1, max_size=4))
    n, edges, offsets = _joined([(m, e) for m, e, _, _ in parts])
    diag = [x for _, _, d, _ in parts for x in d]
    weights = [w for *_, ws in parts for w in ws]
    le, zero = spectral._inertia(edges, diag, _off(weights, k, exact))
    assert le.shape == zero.shape == ((n,) if exact else (n, k))
    alone = [spectral._inertia(np.asarray(e, dtype=np.int64).reshape(-1, 2), d, _off(w, k, exact))
             for _, e, d, w in parts]
    assert np.array_equal(le, np.concatenate([a for a, _ in alone]))
    assert np.array_equal(zero, np.concatenate([z for _, z in alone]))
    out = np.array([x is None for x in diag]) if exact else np.isneginf(np.array(diag))
    assert not (le[out].any() or zero[out].any())
    assert not (zero & ~le).any()
    if exact:  # the flags count the eigenvalues <= 0 of the matrix on the vertices kept
        keep = np.flatnonzero(~out)
        m = np.diag([float(x or 0) for x in diag])
        for i, j in edges.tolist():
            m[i, j] = m[j, i] = -weights[i] * weights[j]
        vals = np.linalg.eigvalsh(m[np.ix_(keep, keep)])
        assert np.count_nonzero(vals <= -1e-9) <= le.sum() <= np.count_nonzero(vals <= 1e-9)


def test_inertia_congruence_on_zero_diagonals_beside_a_left_out_vertex():
    # two 4-cycles with an all-zero diagonal, the first with vertex 1 left out: the
    # first pivot of each needs a partner w and the congruence v <- v + s*w
    c4 = [(0, 1), (0, 3), (1, 2), (2, 3)]
    edges = np.array(c4 + [(i + 4, j + 4) for i, j in c4])
    diag = [Fraction(0), None, Fraction(0), Fraction(0)] + [Fraction(0)] * 4
    le, zero = spectral._inertia(edges, diag, lambda i, j: Fraction(-1))
    # the path 2 - 3 - 0 has spectrum -sqrt(2), 0, sqrt(2); the 4-cycle's adjacency
    # -2, 0, 0, 2 under the minus sign
    assert le[:4].sum() == 2 and not le[1] and zero[:4].sum() == 1
    assert le[4:].sum() == 3 and zero[4:].sum() == 2
    alone = spectral._inertia(np.array(c4), diag[4:], lambda i, j: Fraction(-1))
    assert np.array_equal(le[4:], alone[0]) and np.array_equal(zero[4:], alone[1])


def _decomposition_of(monkeypatch, g):
    """Make the realization driver decompose ``g`` whatever it draws."""
    d = decompose(g)
    monkeypatch.setattr(spectral, "decompose", lambda graph: d)
    return d


def test_size_cap_checked_whatever_min_size(monkeypatch):
    # a 12-vertex path beside small clusters: the driver applies the cap to the largest
    # cluster of the decomposition whichever sizes are counted, and before any counting
    g = _graph(20, [(i, i + 1) for i in range(11)] + [(12, 13), (14, 15), (15, 16)])
    _decomposition_of(monkeypatch, g)
    monkeypatch.setattr(spectral, "counting_function", None)
    spec = GraphSpec(20, 0.5, 4)
    runs = [(spectral._ids_one, m) for m in (2, 5, 12, 13, 50)]
    runs += [(lambda d, r: spectral._grouped_eigenvalues(d),), (spectral._moment_one, (2, 4))]
    for one, *extra in runs:
        with pytest.raises(EigensolverError) as err:
            spectral._each_realization((spec, range(3, 5), 8, one, *extra))
        assert str(err.value) == "cluster of size 12 exceeds the size cap 8 (master_seed=4, realization=3)"
        assert err.value.cluster.size == 12
    monkeypatch.undo()
    # end to end at p = 3: the giant cluster raises whether the top energy prunes
    # sizes below 5 or every size up to the cap
    for grid in ([0.05, 0.5], [1e-9]):
        with pytest.raises(EigensolverError) as err:
            empirical_ids(GraphSpec(3000, 3.0, 1), 1, grid, size_cap=100)
        assert err.value.realization == 0
        assert err.value.cluster.size > 100


def test_size_cap_raises_diagnostic(monkeypatch):
    # the eigensolves take no cap; the driver names the cluster beyond it
    g = _path_graph(12)
    assert graph_spectrum(decompose(g)).size == 12
    _decomposition_of(monkeypatch, g)
    with pytest.raises(EigensolverError) as err:
        spectral._each_realization((GraphSpec(12, 0.5, 1), [0], 8, lambda d, r: graph_spectrum(d)))
    assert err.value.cluster.size == 12
    assert (err.value.master_seed, err.value.realization) == (1, 0)
    # a failed solve of one cluster names that cluster
    c = _single_cluster(g)
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: real(a) + 1e-9)
    with pytest.raises(EigensolverError, match="kernel") as err:
        eigenvalues_cluster(c)
    assert err.value.cluster is c


def test_checked_eigvalsh_rejects_a_kernel_outside_the_margin(monkeypatch):
    # the smallest eigenvalue must lie within n*eps*2(n - 1) of 0 before it is
    # pinned; a P3 Laplacian shifted either way by a tiny multiple of I is rejected
    c = _single_cluster(_path_graph(3))
    lap = dense_laplacian(c.size, c.edges.tolist())
    ids = np.array([0])
    assert spectral._checked_eigvalsh(lap[None].copy(), ids, lambda k: c)[0, 0] == 0.0
    for shift in (1e-9, -1e-12):
        with pytest.raises(EigensolverError, match="kernel") as err:
            spectral._checked_eigvalsh((lap + shift * np.eye(3))[None], ids, lambda k: c)
        assert err.value.cluster is c
        assert "np.float64(" not in str(err.value)
    # in an ensemble run the error names the realization that replays it
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: real(a) + 1e-9)
    with pytest.raises(EigensolverError) as err:
        spectral._each_realization((GraphSpec(300, 2.0, 5), range(2), DEFAULT_SIZE_CAP, lambda d, r: graph_spectrum(d)))
    assert (err.value.master_seed, err.value.realization) == (5, 0)


def test_graph_spectrum_union_and_kernel():
    g = _graph(3, [(0, 1)])
    s = graph_spectrum(decompose(g))
    assert np.allclose(s, [0.0, 0.0, 2.0], atol=1e-12)
    assert int(np.count_nonzero(s == 0.0)) == 2

    empty = _graph(5, [])
    assert np.array_equal(graph_spectrum(decompose(empty)), np.zeros(5))


def test_graph_spectrum_rejects_a_second_zero(monkeypatch):
    # a solved cluster whose nonzero eigenvalue came out as an exact 0.0
    # breaks the kernel identity: zeros != clusters
    real = spectral._checked_eigvalsh

    def second_zero(stack, ids, cluster_of):
        vals = real(stack, ids, cluster_of)
        vals[:, 1] = 0.0
        return vals

    d = decompose(_graph(4, [(0, 1), (1, 2)]))
    assert np.count_nonzero(graph_spectrum(d) == 0.0) == 2
    monkeypatch.setattr(spectral, "_checked_eigvalsh", second_zero)
    with pytest.raises(ValueError, match="cluster count"):
        graph_spectrum(d)


def test_graph_spectrum_matches_dense_solve():
    spec = GraphSpec(400, 1.2, 2)
    g = sample_graph(spec, 0)
    d = decompose(g)
    s = graph_spectrum(d)
    dense = np.sort(np.linalg.eigvalsh(dense_laplacian(g.n, g.edges.tolist())))
    assert s.shape == (g.n,)
    assert np.max(np.abs(s - dense)) < 1e-10
    assert int(np.count_nonzero(s == 0.0)) == d.n_clusters


def test_kernel_identity_on_ensemble():
    spec = GraphSpec(2000, 0.5, 404)
    for r in range(5):
        g = sample_graph(spec, r)
        d = decompose(g)
        s = graph_spectrum(d)
        assert int(np.count_nonzero(s == 0.0)) == d.n_clusters


def test_cheeger_floor_on_ensemble():
    spec = GraphSpec(5000, 0.9, 123)
    total = 0
    for r in range(4):
        d = decompose(sample_graph(spec, r))
        _, sizes, gaps = cluster_min_gaps(d)
        assert np.all(gaps >= 1.0 / sizes.astype(float) ** 2)
        total += sizes.shape[0]
    assert total > 1000


def test_empirical_ids_validation():
    spec = GraphSpec(50, 0.5, 1)
    for run in (lambda: empirical_ids(spec, 0, [0.1]), lambda: moment_samples(spec, 0, 2)):
        with pytest.raises(ValueError, match="^need at least one realization$"):
            run()
    with pytest.raises(ValueError):
        empirical_ids(spec, 2, [])
    with pytest.raises(ValueError):
        empirical_ids(spec, 2, [0.0, 0.1])
    with pytest.raises(ValueError):
        empirical_ids(spec, 2, [0.2, 0.1])


def test_empirical_ids_structured_limits():
    spec = GraphSpec(300, 0.5, 42)
    # far below any positive eigenvalue the counting function equals sigma0
    est = empirical_ids(spec, 10, [1e-12, 1e-9])
    assert est.sigma[0] == est.sigma0
    assert est.sigma[1] == est.sigma0
    # beyond twice the max degree the spectrum is exhausted (Gershgorin discs)
    max_deg = max(
        int(degree_sequence(sample_graph(spec, r)).max()) for r in range(10)
    )
    est_hi = empirical_ids(spec, 10, [2.0 * max_deg + 0.5])
    assert est_hi.sigma[0] == 1.0


def test_empirical_ids_monotone_and_errors():
    spec = GraphSpec(400, 0.5, 17)
    grid = np.geomspace(0.05, 2.0, 9)
    est = empirical_ids(spec, 8, grid)
    assert np.all(np.diff(est.sigma) >= 0)
    assert est.sigma0 <= est.sigma[0] <= 1.0
    assert np.all(np.isfinite(est.sigma_se))
    single = empirical_ids(spec, 1, grid)
    assert np.all(np.isnan(single.sigma_se))
    assert math.isnan(single.sigma0_se)


def _ids_fields(est):
    return [getattr(est, f.name) for f in dataclasses.fields(est)]


def test_block_budget_and_workers_change_no_value(monkeypatch):
    # blocks of one realization, of the default budget and of a whole chunk, at 1 and 2
    # workers (chunks of 2, 2, ..., 1), count every realization as it counts alone:
    # near-critical 2-cores and integer energies
    spec, grid = GraphSpec(3000, 0.9, 20260809), [0.05, 0.3, 1.0, 2.0]
    sizes = []

    def spy(n, edges, energies, offsets=None, _real=spectral.counting_function):
        sizes.append(0 if offsets is None else len(offsets) - 1)
        return _real(n, edges, energies, offsets)

    monkeypatch.setattr(spectral, "counting_function", spy)
    want = _ids_fields(empirical_ids(spec, 13, grid))
    assert max(sizes) > 2  # the default budget joins several realizations
    for budget, workers in itertools.product((1, spectral._BLOCK_CELLS, 1 << 62), (1, 2)):
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", budget)
        got = _ids_fields(empirical_ids(spec, 13, grid, workers=workers))
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (budget, workers)


def test_an_error_in_the_middle_of_a_block_names_its_realization(monkeypatch):
    real = spectral._ids_one

    def repeat_a_pair(d, r, min_size):
        n, edges, kernels, k = real(d, r, min_size)
        return n, np.concatenate((edges, edges[:1] if r == 5 else edges[:0])), kernels, k

    def refuse(d, r, min_size):
        if r == 5:
            raise ValueError("refused")
        return real(d, r, min_size)

    monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1 << 62)
    spec = GraphSpec(2000, 0.9, 7)
    for one, message in ((repeat_a_pair, "edges repeat a pair or join a vertex to itself"), (refuse, "refused")):
        monkeypatch.setattr(spectral, "_ids_one", one)
        with pytest.raises(ValueError) as err:
            empirical_ids(spec, 9, [0.5, 1.0])
        assert str(err.value) == f"{message} (master_seed=7, realization=5)"


def test_empirical_ids_matches_the_exact_small_ensemble():
    # all 32,768 graphs on N = 6 vertices (tests/oracles.py) give E[sigma_6(E)] exactly; at
    # p = 2.5, q = 5/12 >= 1/3 draws through numpy's geometric, and one block holds
    # hundreds of realizations, most with no counted cluster.  18 comparisons (sigma at
    # eight energies and sigma0, at two p) share a family-wise level of 1e-3
    n, reps, m = 6, 20_000, 15
    grid = np.array([0.15, 0.45, 0.8, 1.0, 1.3, 2.0, 2.6, 3.5])
    z_bound = statistics.NormalDist().inv_cdf(1 - 1e-3 / (2 * 18))
    graphs, clusters, counts = exact_small_ensemble_ids(n, grid)
    assert graphs.sum() == 1 << m
    for p in (0.5, 2.5):
        q = p / n
        weights = q ** np.arange(m + 1) * (1 - q) ** (m - np.arange(m + 1))
        est = empirical_ids(GraphSpec(n, p, 20260809), reps, grid)
        z = (est.sigma - weights @ counts / n) / est.sigma_se
        z0 = (est.sigma0 - weights @ clusters / n) / est.sigma0_se
        assert np.all(np.abs(z) <= z_bound) and abs(z0) <= z_bound, (p, z, z0)


def test_ids_gap_sits_between_bounds():
    # the spectral-edge gap estimate lands inside the analytic envelope
    n, p, reps = 10_000, 0.5, 100
    est = empirical_ids(GraphSpec(n, p, 99), reps, [0.5])
    lo = lower_bound_L(0.5, p)
    hi = upper_bound_U(0.5, p)
    gap = float(est.delta_sigma[0])
    se = float(est.delta_sigma_se[0])
    assert lo - 3 * se <= gap <= hi + 3 * se
    assert gap > lo  # comfortably above at this scale


def test_moment_matches_dense_trace_power():
    spec = GraphSpec(40, 2.0, 19)
    g = sample_graph(spec, 3)
    d = decompose(g)
    for k in np.nonzero((d.sizes >= 2) & (d.sizes <= 8))[0][:6]:
        c = d.cluster(int(k))
        s = eigenvalues_cluster(c)
        lap = dense_laplacian(c.size, c.edges.tolist())
        for power in range(1, 7):
            via_eigs = float(np.sum(s**power))
            via_trace = float(np.trace(np.linalg.matrix_power(lap, power)))
            assert abs(via_eigs - via_trace) <= 1e-8 * max(1.0, abs(via_trace))


def test_moment_samples_small_scale():
    n, p, reps = 2000, 0.5, 30
    samples = moment_samples(GraphSpec(n, p, 88), reps, k_max=2)
    r = samples.inequality(1)
    lap2, lap2_se = r.lap_mean, r.lap_se
    deg2, deg2_se = r.deg_mean, r.deg_se
    adj2, adj2_se = r.adj_mean, r.adj_se
    # Tr L^2 = sum d_i^2 + sum d_i and Tr A^2 = sum d_i exactly per graph
    assert abs(lap2 - (p**2 + 2 * p)) < 4 * lap2_se + 2e-3
    assert abs(adj2 - p) < 4 * adj2_se + 1e-3
    assert abs(deg2 - (p + p**2)) < 4 * deg2_se + 2e-3


@given(
    reps=st.integers(min_value=1, max_value=300),
    width=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    n=st.integers(min_value=1, max_value=10**5),
    counts=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200, deadline=None)
def test_mean_se_matches_the_expressions_it_replaced(reps, width, n, counts, seed):
    # bit for bit: sigma (2-d, scale N), sigma0 (1-d, scale N) and delta_sigma
    # (2-d, scale 1) in empirical_ids, and each column and the slack in
    # MomentSamples.inequality (1-d, scale 1); NaN errors, shaped like the mean, at R = 1
    rng = np.random.default_rng(seed)
    shape = (reps,) if width is None else (reps, width)
    if counts:
        rows = rng.integers(0, n + 1, shape)
    else:
        rows = rng.standard_normal(shape) * rng.uniform(1e-9, 1e3)
    for scale in (1, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no degrees-of-freedom warning at R = 1
            mean, se = spectral._mean_se(rows, scale=scale)
        if rows.ndim == 2:
            want = rows.mean(axis=0) / n if scale == n else rows.mean(axis=0)
        else:
            want = float(rows.mean()) / n if scale == n else float(rows.mean())
        assert np.asarray(mean).tobytes() == np.asarray(want, dtype=np.float64).tobytes()
        if reps == 1:
            assert np.shape(se) == np.shape(mean) and np.all(np.isnan(se))
            continue
        if rows.ndim == 2:
            sd = rows.std(axis=0, ddof=1)
            want = sd / (n * math.sqrt(reps)) if scale == n else sd / math.sqrt(reps)
        else:
            sd = rows.std(ddof=1)
            want = float(sd) / (n * math.sqrt(reps)) if scale == n else float(sd / math.sqrt(reps))
        assert np.asarray(se).tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def test_adjacency_trace_identities_exact():
    g = sample_graph(GraphSpec(300, 1.0, 23), 0)
    samples_one = moment_samples(GraphSpec(300, 1.0, 23), 1, k_max=2)
    deg = degree_sequence(g)
    # rows are exact integer traces divided by N, so the closed forms hold
    # with ==: Tr A^2 = 2m counts closed 2-walks, Tr L^2 = sum d(d + 1)
    assert samples_one.adj[0, 0] == 2 * g.n_edges / g.n
    assert samples_one.lap[0, 0] == int(np.sum(deg * (deg + 1))) / g.n
    # k_max = 1 takes them from the degrees, with no trace products
    with mock.patch.object(spectral, "_trace_powers", side_effect=AssertionError):
        first = moment_samples(GraphSpec(300, 1.0, 23), 1, k_max=1)
    for kind in ("lap", "deg", "adj"):
        assert getattr(first, kind).tolist() == getattr(samples_one, kind)[:, :1].tolist()
    # Tr A^4 against a dense matrix power
    dense_adj = np.zeros((g.n, g.n))
    for i, j in g.edges.tolist():
        dense_adj[i, j] = dense_adj[j, i] = 1.0
    tr4 = float(np.trace(np.linalg.matrix_power(dense_adj, 4))) / g.n
    assert abs(samples_one.adj[0, 1] - tr4) < 1e-8 * max(1.0, tr4)


@given(
    n=st.integers(min_value=2, max_value=60),
    p=st.floats(min_value=0.05, max_value=4.0),
    k_max=st.integers(min_value=1, max_value=MAX_MOMENT_POWER // 2),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_moment_rows_match_eigenvalue_power_sums(n, p, k_max, seed):
    # p up to 4 covers cyclic and supercritical graphs
    spec = GraphSpec(n, min(p, n - 0.5), seed)
    samples = moment_samples(spec, 2, k_max)
    for r in range(2):
        g = sample_graph(spec, r)
        lap, deg, adj = eigen_moment_rows(g.n, g.edges.tolist(), samples.two_ks)
        np.testing.assert_allclose(samples.lap[r], lap, rtol=1e-12, atol=0)
        np.testing.assert_allclose(samples.deg[r], deg, rtol=1e-12, atol=0)
        np.testing.assert_allclose(samples.adj[r], adj, rtol=1e-12, atol=0)


def test_moments_giant_cluster_fails_cleanly():
    # the trace products need no cap, but it holds at every k_max, before any product
    for k_max in range(1, MAX_MOMENT_POWER // 2 + 1):
        with pytest.raises(EigensolverError) as err, \
                mock.patch.object(spectral, "_trace_powers", side_effect=AssertionError):
            moment_samples(GraphSpec(3000, 3.0, 1), 1, k_max, size_cap=100)
        assert err.value.realization == 0
        assert err.value.cluster.size > 100


def test_degree_moments_correctly_rounded():
    # the star K_{1,m}: sum d^{2k} = m^{2k} + m, Tr A^{2k} = 2 m^k, and L has spectrum
    # {0, 1^(m - 1), m + 1}, so Tr L^{2k} = (m - 1) + (m + 1)^{2k}.  Each row is the
    # correctly rounded quotient of the exact trace, past 2^53 where a float64 sum is
    # inexact: sum d^12 at m = 23, Tr L^8 from m = 100 on; at m = 500 the sum of the
    # squares of L^4 passes 2^63 and is taken in Python integers.  2k = 10, 12 lie
    # beyond MAX_MOMENT_POWER, so they are reached through _moment_one.
    two_ks = (2, 4, 6, 8, 10, 12)
    for m in (23, 100, 500):
        g = _graph(m + 1, [(0, i) for i in range(1, m + 1)])
        lap, deg, adj = spectral._moment_one(decompose(g), 0, two_ks)
        assert deg.tolist() == [float(Fraction(m**t + m, m + 1)) for t in two_ks]
        assert lap.tolist() == [float(Fraction(m - 1 + (m + 1) ** t, m + 1)) for t in two_ks]
        assert adj.tolist() == [float(Fraction(2 * m ** (t // 2), m + 1)) for t in two_ks]


def test_trace_powers_refuse_products_beyond_int64():
    # the star K_{1,m} has d_max = m, and (2m)^4 >= 2^63 from m = 27,555 on: the
    # entries of L^4 could wrap, so no product is formed
    m = 27_555
    g = _graph(m + 1, [(0, i) for i in range(1, m + 1)])
    assert (2 * (m - 1)) ** 4 < 2**63 <= (2 * m) ** 4
    with pytest.raises(ValueError, match="exceeds int64"):
        spectral._trace_powers(decompose(g), 4)



@given(
    reps=st.integers(min_value=1, max_value=40),
    k_max=st.integers(min_value=1, max_value=MAX_MOMENT_POWER // 2),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_moment_inequality_fields_are_column_reductions(reps, k_max, seed):
    rng = np.random.default_rng(seed)
    two_ks = tuple(range(2, 2 * k_max + 1, 2))
    lap, deg, adj = (rng.uniform(0.0, 50.0, (reps, k_max)) for _ in range(3))
    samples = spectral.MomentSamples(100, 0.5, reps, two_ks, lap, deg, adj)
    for j, two_k in enumerate(two_ks):
        r = samples.inequality(two_k // 2)
        slack = (2.0 ** (two_k - 1)) * (deg[:, j] + adj[:, j]) - lap[:, j]
        for name, col in (("lap", lap[:, j]), ("deg", deg[:, j]), ("adj", adj[:, j]), ("slack", slack)):
            want = tuple(float(x) for x in spectral._mean_se(col))
            got = (getattr(r, f"{name}_mean"), getattr(r, f"{name}_se"))
            assert np.array(got).tobytes() == np.array(want).tobytes(), name
        assert r.rhs_mean == (2.0 ** (two_k - 1)) * (r.deg_mean + r.adj_mean)
        assert r.satisfied == bool(np.all(slack >= 0))


# small graphs rich in triangles and 4-cycles, with Tr A^4 and Tr L^4 from their
# spectra: K4 has A spectrum {3, -1^3}, C4 {2, 0^2, -2}, K_{2,3} {+-sqrt 6, 0^3}
# and Petersen {3, 1^5, -2^4}; L = D - A, and K_{2,3} has L spectrum {0, 2^2, 3, 5}
_PIECES = {
    "K4": (4, list(itertools.combinations(range(4), 2)), 768, 84),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 288, 32),
    "K23": (5, [(i, j) for i in (0, 1) for j in (2, 3, 4)], 738, 72),
    "Petersen": (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 2580, 150),
}


def _fourth_traces_of(g):
    d = decompose(g)
    return spectral._fourth_traces(d, np.bincount(d.degrees).tolist())


def _stack_traces(g, k_max=2):
    return stack_trace_powers(spectral._laplacian_stacks(decompose(g)), k_max)


def _union_graph(kinds, bridges, tails, seed):
    """Disjoint copies of ``kinds`` in a random labeling, joined by up to ``bridges``
    random edges between copies and grown by ``tails`` pendant vertices."""
    rng = np.random.default_rng(seed)
    edges, owner, n = set(), [], 0
    for copy, kind in enumerate(kinds):
        size, piece, _, _ = _PIECES[kind]
        edges |= {(n + i, n + j) for i, j in piece}
        owner += [copy] * size
        n += size
    owner = np.asarray(owner)
    for _ in range(bridges):
        i, j = (int(v) for v in rng.integers(n, size=2))
        if owner[i] != owner[j]:
            edges.add((min(i, j), max(i, j)))
    for _ in range(tails):
        edges.add((int(rng.integers(n)), n))
        n += 1
    perm = rng.permutation(n)
    return _graph(n, [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges])


_cycle_rich_graphs = st.one_of(
    st.builds(lambda n, c, seed: sample_graph(GraphSpec(n, min(c, n - 0.5), seed), 0),
              st.integers(min_value=2, max_value=40), st.floats(min_value=0.5, max_value=8.0),
              st.integers(min_value=0, max_value=2**32)),
    st.builds(_union_graph, st.lists(st.sampled_from(sorted(_PIECES)), min_size=1, max_size=5),
              st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=12),
              st.integers(min_value=0, max_value=2**32)),
)


@pytest.mark.parametrize("kind", sorted(_PIECES))
def test_fourth_traces_closed_forms(kind):
    size, edges, lap4, adj4 = _PIECES[kind]
    g = _graph(size, [sorted(e) for e in edges])
    assert _fourth_traces_of(g) == (lap4, adj4)
    assert _stack_traces(g) == ([lap4], [adj4])


@given(g=_cycle_rich_graphs)
@settings(max_examples=150, deadline=None)
def test_fourth_traces_match_stack_oracle(g):
    # exact integers, and the k = 2 column is their correctly rounded quotient
    (lap4,), (adj4,) = _stack_traces(g)
    assert _fourth_traces_of(g) == (lap4, adj4)
    lap, _, adj = spectral._moment_one(decompose(g), 0, (2, 4))
    assert (lap[1], adj[1]) == (lap4 / g.n, adj4 / g.n)


@pytest.mark.parametrize("n, p, seed, reps", [
    (10_000, 0.5, 20260809, 3), (10_000, 0.9, 20260809, 3), (10_000, 0.99, 20260809, 3),
    (2000, 1.5, 4242, 1), (1000, 3.0, 4242, 1),
])
def test_fourth_traces_match_stack_oracle_on_acceptance_seeds(n, p, seed, reps):
    # and the sparse products at k = 3, 4
    for r in range(reps):
        g = sample_graph(GraphSpec(n, p, seed), r)
        (lap4, *lap_k), (adj4, *adj_k) = _stack_traces(g, 4)
        assert _fourth_traces_of(g) == (lap4, adj4)
        assert spectral._trace_powers(decompose(g), 4) == (lap_k, adj_k)


@given(g=_cycle_rich_graphs, k_max=st.integers(min_value=3, max_value=MAX_MOMENT_POWER // 2))
@settings(max_examples=60, deadline=None)
def test_trace_powers_match_stack_oracle_from_k3(g, k_max):
    # _trace_powers starts at k = 3; the rows are the correctly rounded quotients
    two_ks = tuple(range(2, 2 * k_max + 1, 2))
    lap_k, adj_k = _stack_traces(g, k_max)
    assert spectral._trace_powers(decompose(g), k_max) == (lap_k[1:], adj_k[1:])
    lap, _, adj = spectral._moment_one(decompose(g), 0, two_ks)
    assert lap[1:].tolist() == [t / g.n for t in lap_k]
    assert adj[1:].tolist() == [t / g.n for t in adj_k]


def test_moments_never_lay_out_a_stack():
    # k <= 2 come from degrees and walk counts, k >= 3 from sparse products: the size
    # cap is still checked, but no stack is laid out at any k_max, and no product below 3
    checked, powers = [], []
    real, real_powers = spectral._check_size_cap, spectral._trace_powers
    with mock.patch.object(spectral, "_laplacian_stacks", side_effect=AssertionError), \
            mock.patch.object(spectral, "_check_size_cap", lambda *args: checked.append(real(*args))), \
            mock.patch.object(spectral, "_trace_powers", lambda *args: powers.append(args[1]) or real_powers(*args)):
        for k_max in range(1, MAX_MOMENT_POWER // 2 + 1):
            moment_samples(GraphSpec(10_000, 0.99, 20260809), 3, k_max)
    assert len(checked) == 4 * 3
    assert powers == [3] * 3 + [4] * 3
