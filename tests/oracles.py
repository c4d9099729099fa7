"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: components come from BFS or a sequential union-find instead of the
vectorized hook-and-compress labelling, the decomposition and the census keep
every isolated vertex as a cluster of its own, Laplacians are built entry by entry
from the definition, small ensembles are enumerated exhaustively with
exact per-graph probabilities, a realization's edges are drawn from its own
``np.random.default_rng`` a fixed batch of geometric gaps at a time, a stack of
Laplacians is solved whole, every
copy of a repeated matrix included, and exact counts of eigenvalues <= E come
from a dense fraction-free elimination in a static degree order instead of the
sparse one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def bfs_components(n: int, edges) -> list[list[int]]:
    """Connected components by breadth-first search, sorted canonically."""
    adj = {v: [] for v in range(n)}
    for i, j in edges:
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return sorted(comps)


def union_find_labels(n: int, edges) -> np.ndarray:
    """Canonical cluster labels by sequential union-find.

    Path halving and union by size, then clusters renumbered 0..K-1 by
    ascending smallest member vertex.
    """
    parent = list(range(n))
    size = [1] * n
    for a, b in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a == b:
            continue
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
    roots = np.asarray(parent, dtype=np.int64)
    while True:
        jumped = roots[roots]
        if np.array_equal(jumped, roots):
            break
        roots = jumped
    uniq, inverse = np.unique(roots, return_inverse=True)
    first_vertex = np.full(uniq.shape[0], n, dtype=np.int64)
    np.minimum.at(first_vertex, inverse, np.arange(n, dtype=np.int64))
    rank = np.empty(uniq.shape[0], dtype=np.int64)
    rank[np.argsort(first_vertex)] = np.arange(uniq.shape[0], dtype=np.int64)
    return rank[inverse]


class WideDecomposition:
    """The N-wide decomposition, as the library computed it before isolated vertices
    became a count: every vertex labelled by :func:`union_find_labels`, an isolated
    vertex a one-vertex cluster, clusters 0..K-1 numbered by smallest member."""

    def __init__(self, graph):
        self.graph = graph
        self.labels = union_find_labels(graph.n, graph.edges)
        k = int(self.labels.max()) + 1 if graph.n else 0
        self.n_clusters = k
        self.sizes = np.bincount(self.labels, minlength=k).astype(np.int64)
        self.edge_labels = self.labels[graph.edges[:, 0]]
        self.edge_counts = np.bincount(self.edge_labels, minlength=k).astype(np.int64)
        self.is_tree = self.edge_counts == self.sizes - 1
        self.degrees = np.bincount(graph.edges.ravel(), minlength=graph.n).astype(np.int64)
        self.max_degree = np.zeros(k, dtype=np.int64)
        np.maximum.at(self.max_degree, self.labels, self.degrees)

    def class_flag_arrays(self):
        """(isolated, tree, linear, cyclic) indexed by cluster."""
        tree = self.is_tree
        linear = tree & (self.sizes >= 2) & (self.max_degree <= 2)
        return self.sizes == 1, tree, linear, ~tree


def wide_census_add(acc, d: WideDecomposition, n_reps: int = 1) -> None:
    """``CensusAccumulator.add`` as it ran on a :class:`WideDecomposition` of ``n_reps``
    realizations, realization b on vertices b*N .. (b+1)*N - 1: every cluster's
    realization scattered from all N*B vertices, vertex 0's cluster read from the
    N-wide labels."""
    n = acc.n_vertices
    assert d.graph.n == n * n_reps
    _, tree, linear, _ = d.class_flag_arrays()
    sizes = d.sizes
    top = int(sizes.max()) + 1
    acc._ensure(top)
    rep = np.empty(d.n_clusters, dtype=np.int64)
    rep[d.labels] = np.arange(d.graph.n, dtype=np.int64) // n
    per_rep = np.bincount(rep * top + sizes, minlength=n_reps * top).reshape(n_reps, top)
    k0 = d.labels[np.arange(n_reps) * n]
    acc.clusters_by_size[:top] += per_rep.sum(axis=0)
    acc.sq_clusters_by_size[:top] += (per_rep * per_rep).sum(axis=0)
    acc.trees_by_size[:top] += np.bincount(sizes[tree], minlength=top)
    acc.linear_by_size[:top] += np.bincount(sizes[linear], minlength=top)
    acc.vertex0_by_size[:top] += np.bincount(sizes[k0], minlength=top)
    acc.vertex0_linear_by_size[:top] += np.bincount(sizes[k0[linear[k0]]], minlength=top)
    acc.n_reps += n_reps


def classify(cluster) -> tuple[bool, bool, bool, bool]:
    """(isolated, tree, linear chain, cyclic) of one connected cluster record.

    Recomputed from the record's own vertex and edge lists: a connected cluster
    on n vertices is a tree iff it has n - 1 edges (a single vertex is a
    degenerate tree) and cyclic otherwise; a linear chain is a tree with n >= 2
    and no vertex of degree > 2, counted edge by edge.
    """
    n, m = len(cluster.vertices), len(cluster.edges)
    degree = [0] * n
    for i, j in cluster.edges.tolist():
        degree[i] += 1
        degree[j] += 1
    tree = m == n - 1
    return n == 1, tree, tree and n >= 2 and max(degree) <= 2, m >= n


def dense_laplacian(n: int, edges) -> np.ndarray:
    """Laplacian assembled entry by entry from the defining formula."""
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    return lap


def dense_counting_function(n: int, edges, energies) -> np.ndarray:
    """#{eigenvalues <= E} of the dense N x N Laplacian of the whole graph at each
    energy of a grid, or, for ``energies`` of shape (N, k), #{eigenvalues <= 0} of
    L - diag(E[:, j]) for each column j.

    One eigensolve of the full matrix per grid or column: no clusters, no pinned
    kernel and no pruning, so its zero eigenvalues carry rounding of either sign.
    """
    lap = dense_laplacian(n, edges)
    e = np.asarray(energies, dtype=np.float64)
    if e.ndim == 2:
        return np.array([np.count_nonzero(np.linalg.eigvalsh(lap - np.diag(col)) <= 0.0) for col in e.T])
    return np.searchsorted(np.linalg.eigvalsh(lap), e, side="right")


def exact_tree_counts(n: int, edges, energies) -> np.ndarray:
    """#{eigenvalues <= E} of the Laplacian of a forest at each energy, exactly.

    Each tree is rooted by depth-first search and eliminated children first with
    ``Fraction`` pivots (Jacobs and Trevisan, Linear Algebra Appl. 2011): a
    vertex's pivot is its degree minus E minus 1/a over the pivots a of its
    children; a vertex with a zero child takes pivot -1/2, one zero child takes
    2, and the edge to its own parent is cut.  By Sylvester's law of inertia the
    count is the number of pivots <= 0.  A float is a dyadic rational, so
    ``Fraction(E)`` is exact.
    """
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[int(i)].append(int(j))
        adj[int(j)].append(int(i))
    counts = []
    for energy in energies:
        e = Fraction(float(energy))
        parent = [None] * n
        seen = [False] * n
        total = 0
        for root in range(n):
            if seen[root]:
                continue
            order, stack = [], [root]
            seen[root] = True
            while stack:
                v = stack.pop()
                order.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        parent[w] = v
                        stack.append(w)
            pivot, cut = {}, set()
            for v in reversed(order):
                children = [w for w in adj[v] if parent[w] == v and w not in cut]
                zeros = [w for w in children if pivot[w] == 0]
                if zeros:
                    pivot[v], pivot[zeros[0]] = Fraction(-1, 2), Fraction(2)
                    cut.add(v)
                else:
                    pivot[v] = len(adj[v]) - e - sum(1 / pivot[w] for w in children)
            total += sum(1 for a in pivot.values() if a <= 0)
        counts.append(total)
    return np.array(counts, dtype=np.int64)


def eigenvalue_counts(d, groups, energies) -> np.ndarray:
    """#{eigenvalues <= E} at each energy E > 0 of a decomposition from computed spectra:
    one kernel per cluster plus the nonzero eigenvalues <= E of the solved ``groups``
    (``(size, cluster_ids, values)`` as ``spectral._grouped_eigenvalues`` returns them),
    so a tie at an integer E falls wherever the eigensolver rounds it."""
    counts = np.full(np.shape(energies), d.n_clusters, dtype=np.int64)
    for _, _, vals in groups:
        counts += np.searchsorted(np.sort(vals[:, 1:], axis=None), energies, side="right")
    return counts


def exact_counts(n: int, edges, energies) -> np.ndarray:
    """#{eigenvalues <= E} of the Laplacian of any simple graph at each energy, exactly;
    for ``energies`` of shape (n, k), #{eigenvalues <= 0} of L - diag(E[:, j]) for each
    column j.

    Each float E_v is a rational num_v/den_v with den_v > 0, so with den their least
    common multiple, L - diag(E) has the inertia of the integer matrix
    M = den*L - diag(den*E) (Sylvester's law of inertia).  M is eliminated
    densely, rows in the static order of ascending degree (ties by vertex), by
    Bareiss's fraction-free steps (Math. Comp. 1968):
    each is an exact integer division, and the k-th pivot is the k-th leading principal
    minor D_k, so the k-th LDL^T pivot D_k/D_{k-1} is <= 0 iff D_k and D_{k-1} differ in
    sign.  When every live diagonal is 0, the congruence k <- k + s*j (s = +-1) on a
    live pair with M[k][j] != 0 makes M[k][k] = 2s*M[k][j] + M[j][j] nonzero; a live
    block that is all zero counts as zero eigenvalues.
    """
    lap = dense_laplacian(n, edges).astype(np.int64).tolist()
    e = np.asarray(energies, dtype=np.float64)
    counts = []
    for column in np.broadcast_to(e.T if e.ndim == 2 else e[:, None], (e.shape[-1], n)).tolist():
        ratios = [x.as_integer_ratio() for x in column]
        den = math.lcm(*(d for _, d in ratios))
        m = [[den * x - (i == j) * ratios[i][0] * (den // ratios[i][1]) for j, x in enumerate(row)]
             for i, row in enumerate(lap)]
        live, prev, total = sorted(range(n), key=lambda v: (lap[v][v], v)), 1, 0
        while live:
            k = next((k for k in live if m[k][k]), None)
            if k is None:
                pair = next(((k, j) for k in live for j in live if m[k][j]), None)
                if pair is None:
                    total += len(live)
                    break
                k, j = pair
                s = 1 if 2 * m[k][j] + m[j][j] else -1
                diagonal = 2 * s * m[k][j] + m[j][j]
                for x in live:
                    m[k][x] = m[x][k] = m[k][x] + s * m[j][x]
                m[k][k] = diagonal
            pivot, row = m[k][k], m[k]
            total += (pivot < 0) != (prev < 0)
            live.remove(k)
            for x in live:
                mx, a = m[x], row[x]
                for y in live:
                    mx[y] = (pivot * mx[y] - a * row[y]) // prev
            prev = pivot
        counts.append(total)
    return np.array(counts, dtype=np.int64)


def eigen_moment_rows(n: int, edges, two_ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N^{-1} Tr M^{2k} for M = L, D, A as eigenvalue power sums.

    Solves the dense N x N Laplacian and adjacency matrices of the whole
    graph, so it shares neither the cluster stacks nor the integer trace
    products of :func:`erlap.spectral.moment_samples`.
    """
    lap = dense_laplacian(n, edges)
    deg = np.diag(lap).copy()
    adj = np.diag(deg) - lap
    rows = []
    for values in (np.linalg.eigvalsh(lap), deg, np.linalg.eigvalsh(adj)):
        rows.append(np.array([float(np.sum(values**two_k)) / n for two_k in two_ks]))
    return tuple(rows)


def stack_trace_powers(stacks, k_max: int) -> tuple[list[int], list[int]]:
    """Tr L^{2k} and Tr A^{2k} for k = 2..k_max as ||M^k||_F^2 summed over stacks.

    ``stacks`` yields ``(size, cluster_ids, stack)`` as the library's stack
    builder lays them out; A is the off-diagonal part of -L.  Each M^k is formed
    whole by float64 matrix powers, exact while every trace is below 2^53: the
    route the library took for every k >= 2 before walk counts replaced k = 2 and
    sparse int64 products the rest.
    """
    lap, adj = [0] * (k_max - 1), [0] * (k_max - 1)
    for s, _, stack in stacks:
        a = -stack
        a[:, np.arange(s), np.arange(s)] = 0.0
        for k in range(2, k_max + 1):
            for traces, m in ((lap, stack), (adj, a)):
                power = np.linalg.matrix_power(m, k)
                traces[k - 2] += int(np.vdot(power, power))
    return lap, adj


def two_filter_leaf_rounds(n: int, edges) -> tuple[list, np.ndarray]:
    """The leaf peel of :func:`erlap.spectral.counting_function` as it ran before one mask
    per round: the (leaves, parents) rounds and the live degrees left.

    Each round filters twice.  The pair rule first drops the larger end of a K2 (both of
    its ends are leaves); then every remaining leaf writes itself into its parent's owner
    slot, and the leaves whose write landed (one per parent) are peeled.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    live = np.bincount(edges.ravel(), minlength=n)
    nbr = np.bincount(edges.ravel(), edges[:, ::-1].ravel(), n).astype(np.int64)
    owner = np.empty(n, dtype=np.int64)
    rounds = []
    while (leaves := np.flatnonzero(live == 1)).size:
        parents = nbr[leaves]
        keep = (live[parents] > 1) | (leaves < parents)
        leaves, parents = leaves[keep], parents[keep]
        owner[parents] = leaves
        keep = owner[parents] == leaves
        leaves, parents = leaves[keep], parents[keep]
        live[leaves] = 0
        live[parents] -= 1
        nbr[parents] -= leaves
        rounds.append((leaves, parents))
    return rounds, live


def unique_renumbering(edges) -> tuple[int, np.ndarray]:
    """The vertex count and edges of a graph's non-isolated part, its vertices numbered
    0.. in ascending order by ``np.unique``: how IDS counts once numbered the vertices of
    the clusters they count."""
    vertices, local = np.unique(np.asarray(edges, dtype=np.int64), return_inverse=True)
    return vertices.size, local.reshape(-1, 2)


def all_graphs(n: int):
    """Yield (edge tuple, edge count) for every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        edges = tuple(pairs[k] for k in range(len(pairs)) if bits >> k & 1)
        yield edges, len(edges)


def _small_ensemble_laplacians(n: int) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs, the edge count m of each of the 2^M labelled graphs on ``n`` vertices
    (graph b holds the pairs whose bit is set in b), the number of graphs of each m, and
    their int64 Laplacians built entry by entry, stacked in the order of b."""
    pairs = list(itertools.combinations(range(n), 2))
    bits = (np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1
    lap = np.zeros((bits.shape[0], n, n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        lap[:, i, j] = lap[:, j, i] = -bits[:, k]
        lap[:, i, i] += bits[:, k]
        lap[:, j, j] += bits[:, k]
    m = bits.sum(axis=1)
    return pairs, m, np.bincount(m, minlength=len(pairs) + 1), lap


def exact_small_ensemble_ids(n: int, energies) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer tables over all 2^M labelled graphs on ``n`` vertices, M = n(n - 1)/2, by
    edge count m = 0..M: the number of graphs, their summed cluster counts (BFS, isolated
    vertices included) and their summed #{eigenvalues <= E} at each energy.  At edge
    probability q, E[sigma_N(E)] = sum_m q^m (1 - q)^(M - m) counts[m, E] / n, and
    E[sigma_N(0)] the same over the cluster counts.

    The eigenvalues come from one stacked ``np.linalg.eigvalsh`` of the Laplacians built
    entry by entry.  A Laplacian eigenvalue lambda is an algebraic integer whose conjugates
    lie in [0, n], so for an integer E != lambda the norm of E - lambda, a nonzero integer,
    gives |E - lambda| >= n^-(n - 1): one within 1e-9 of an integer E equals it and counts.
    Every other eigenvalue must lie at least 1e-3 from a non-integer energy and 1e-9
    (beyond the solve's error) from an integer one, else ValueError.
    """
    e = np.asarray(energies, dtype=np.float64)
    pairs, m, graphs, lap = _small_ensemble_laplacians(n)
    dist = np.linalg.eigvalsh(lap.astype(np.float64))[:, :, None] - e
    integer = e == np.floor(e)
    tie = integer & (np.abs(dist) <= 1e-9)
    if (~tie & (np.abs(dist) < np.where(integer, 2e-9, 1e-3))).any():
        raise ValueError("an eigenvalue lies too near a grid energy")
    below = np.count_nonzero((dist < 0) | tie, axis=1)
    clusters = [len(bfs_components(n, [(i, j) for i, j in pairs if row[i][j]])) for row in lap.tolist()]
    cluster_sums = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.add.at(cluster_sums, m, clusters)
    count_sums = np.zeros((len(pairs) + 1, e.size), dtype=np.int64)
    np.add.at(count_sums, m, below)
    return graphs, cluster_sums, count_sums


def exact_small_ensemble_moments(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integer tables over all 2^M labelled graphs on ``n`` vertices, by edge count
    m = 0..M: the number of graphs, and their summed Tr L^2k, sum_v d_v^2k and Tr A^2k
    for 2k = 2, 4 (one column each).  At edge probability q, E[N^-1 Tr M^2k] =
    sum_m q^m (1 - q)^(M - m) sums[m, k - 1] / n.

    The traces come from batched int64 matrix products of the Laplacian stack that
    :func:`exact_small_ensemble_ids` solves, not from eigenvalues: with M symmetric and
    S = M^2, Tr M^2 = Tr S and Tr M^4 = ||S||_F^2.
    """
    pairs, m, graphs, lap = _small_ensemble_laplacians(n)
    deg = np.einsum("gii->gi", lap)
    adj = deg[:, :, None] * np.eye(n, dtype=np.int64) - lap

    def by_edge_count(per_graph):
        sums = np.zeros((len(pairs) + 1, 2), dtype=np.int64)
        np.add.at(sums, m, per_graph)
        return sums

    def traces(mat):
        sq = mat @ mat
        return np.stack([np.einsum("gii->g", sq), (sq * sq).sum(axis=(1, 2))], axis=1)

    degs = np.stack([(deg**2).sum(axis=1), (deg**4).sum(axis=1)], axis=1)
    return graphs, by_edge_count(traces(lap)), by_edge_count(degs), by_edge_count(traces(adj))


def reference_pair_indices(n: int, p: float, master_seed: int, r: int) -> np.ndarray:
    """Sorted linear pair indices of realization ``r`` of G(N, p/N): Geometric(p/N)
    gaps from ``np.random.default_rng([master_seed, r])``, walked from slot -1
    until they pass the last of the N(N-1)/2 pairs."""
    rng = np.random.default_rng([master_seed, r])
    q, total = p / n, n * (n - 1) // 2
    out, last = [], -1
    while last < total:
        out.append(last + np.cumsum(rng.geometric(q, size=256)))
        last = int(out[-1][-1])
    idx = np.concatenate(out)
    return idx[idx < total]


def geometric_pair_index_blocks(spec, realization_indices, block: int, batch: int):
    """``(idx, counts)`` per block of at most ``block`` realizations, as the block
    sampler yields them, from one ``Generator.geometric`` loop per realization:
    ``batch`` gaps at a time from ``np.random.default_rng([master_seed, r])``,
    continued until the walk has passed the last pair, and one cumsum over
    the block's gaps.  Gaps near 2**63 (tiny p/N) wrap its int64 sums."""
    n = spec.n_vertices
    q, total = spec.edge_prob / n, n * (n - 1) // 2
    rs = list(realization_indices)
    for j in range(0, len(rs), block):
        gaps, bounds, carried = [], [0], 0
        for r in rs[j : j + block]:
            draw = np.random.default_rng([spec.master_seed, r]).geometric
            g = draw(q, batch)
            last = int(g.sum()) - 1  # every realization walks from slot -1
            # the block's running sum stands at the previous realization's
            # last slot (0 before the first): the first gap takes it back
            g[0] -= carried + 1
            gaps.append(g)
            while last < total:
                gaps.append(g := draw(q, batch))
                last += int(g.sum())
            carried = last
            bounds.append(len(gaps) * batch)
        pos = np.cumsum(np.concatenate(gaps))
        keep = pos < total
        counts = [np.count_nonzero(keep[a:b]) for a, b in zip(bounds, bounds[1:])]
        yield pos[keep], np.array(counts, dtype=np.int64)


def graph_probability(n: int, m: int, q: float) -> float:
    """Probability of one labeled graph with m edges under Bernoulli(q) pairs."""
    total = n * (n - 1) // 2
    return q**m * (1.0 - q) ** (total - m)


def path_spectrum_closed_form(n: int) -> np.ndarray:
    """All Laplacian eigenvalues of the n-vertex path: 2(1 - cos(pi k / n))."""
    k = np.arange(n)
    return 2.0 * (1.0 - np.cos(np.pi * k / n))


def stirling_second_kind_table(k: int) -> list[list[int]]:
    """Exact S(i, j) integers for i, j <= k via the classical recurrence."""
    table = [[0] * (k + 1) for _ in range(k + 1)]
    table[0][0] = 1
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table


def poisson_moment_exact(p, k: int) -> float:
    """Poisson raw moment from the Touchard polynomial with exact coefficients."""
    from fractions import Fraction

    if k == 0:
        return 1.0
    table = stirling_second_kind_table(k)
    pf = Fraction(p)
    return float(sum(table[k][j] * pf**j for j in range(1, k + 1)))


def three_standard_errors(p_true: float, n_samples: int) -> float:
    """3 sigma band for a Bernoulli frequency estimate."""
    return 3.0 * math.sqrt(p_true * (1.0 - p_true) / n_samples)
