"""Connected-cluster decomposition, classification, and census statistics.

A cluster is a maximal connected subgraph.  An isolated vertex, a one-vertex
cluster, adds one zero eigenvalue and nothing else, so a decomposition only
counts them and describes the clusters on the vertices with an edge (1 - e^-p
of them: 39% at p = 0.5).  It renumbers those vertices and their edges in
ascending order, a monotone map that keeps the edge rows canonical and sorted,
and labels them by vectorized hook-and-compress rounds (Shiloach-Vishkin style)
with no per-edge Python loop.  Between rounds every vertex points at its root,
the smallest vertex of its part so far.  A round hooks roots under smaller
roots, which leaves only the hooked roots pointing at a non-root; so pointer
jumping runs over those alone, and one full gather then re-roots every vertex.
Every cluster ends rooted at its smallest vertex, and the roots in ascending
order number the clusters canonically.

A decomposition keeps only the labels and per-cluster counts that every
consumer reads.  Classification needs nothing more: a cluster is a tree iff
it has one edge fewer than vertices, so the class masks are per-cluster
array expressions.  No cluster is laid out in local coordinates: a single
:class:`Cluster` record (vertices and edges only) is cut from the labels on
request, and the stacked eigensolves lay out the clusters they solve
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensemble import Graph, degree_sequence

__all__ = [
    "Cluster",
    "ClusterDecomposition",
    "CensusAccumulator",
    "CensusReport",
    "decompose",
]


@dataclass(frozen=True)
class Cluster:
    """One maximal connected cluster in local coordinates.

    ``vertices`` holds the global vertex ids sorted ascending; ``edges``
    holds the internal edges re-indexed to 0..size-1 (position in the sorted
    vertex list), canonical i < j rows in lexicographic order.  Its class
    follows from the counts alone (see :class:`ClusterDecomposition`).
    """

    vertices: np.ndarray
    edges: np.ndarray

    @property
    def size(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def __repr__(self) -> str:
        return f"Cluster(size={self.size}, edges={self.n_edges})"


class ClusterDecomposition:
    """Partition of a graph into its maximal connected clusters: the clusters of
    two or more vertices described array by array, the isolated vertices counted.

    ``vertices`` are the vertices with an edge, ascending, and ``edges`` the graph's
    edges renumbered to positions in that list (a monotone map, so rows stay
    canonical and sorted).  Per vertex of that list: ``labels`` and ``degrees``.
    The clusters are numbered 0..K-1 by ascending smallest member; per cluster:
    ``sizes`` and ``edge_counts``, and on request the ``is_tree`` mask and
    ``max_degree``.  Per edge: ``edge_labels``.  The graph's ``n_isolated``
    vertices are one-vertex clusters of their own, so it has
    ``n_clusters = K + n_isolated`` clusters in all.  :class:`Cluster` records are
    cut from the labels on request, because hot loops (census, inertia counts)
    only need the arrays.

    ``is_tree`` is the one classification rule: a connected cluster on n
    vertices has at least n - 1 edges and is a tree iff it has exactly n - 1
    (an isolated vertex is a degenerate tree); every other cluster is cyclic.
    """

    def __init__(self, graph: Graph, vertices: np.ndarray, edges: np.ndarray,
                 degrees: np.ndarray, labels: np.ndarray):
        k = int(labels.max()) + 1 if labels.size else 0
        self.graph = graph
        self.vertices = vertices
        self.edges = edges
        self.degrees = degrees
        self.labels = labels
        self.n_isolated = graph.n - vertices.size
        self.n_clusters = k + self.n_isolated
        self.sizes = np.bincount(labels, minlength=k).astype(np.int64, copy=False)
        self.edge_labels = labels.take(edges[:, 0])
        self.edge_counts = np.bincount(self.edge_labels, minlength=k).astype(np.int64, copy=False)

    @cached_property
    def is_tree(self) -> np.ndarray:
        """True for each cluster with exactly size - 1 edges."""
        return self.edge_counts == self.sizes - 1

    @cached_property
    def max_degree(self) -> np.ndarray:
        """Largest vertex degree in each cluster."""
        out = np.zeros(self.sizes.size, dtype=np.int64)
        np.maximum.at(out, self.labels, self.degrees)
        return out

    def class_flag_arrays(self):
        """Boolean arrays (tree, linear, cyclic) indexed by cluster; a linear chain
        is a tree with no vertex of degree > 2."""
        tree = self.is_tree
        return tree, tree & (self.max_degree <= 2), ~tree

    def cluster(self, k: int) -> Cluster:
        """Cluster ``k`` with its (global) vertices ascending and its edges renumbered
        to their positions in that list (a monotone map, so rows stay canonical)."""
        if not 0 <= k < self.sizes.size:
            raise IndexError(f"cluster index {k} out of range")
        mine = np.flatnonzero(self.labels == k)
        edges = np.searchsorted(mine, self.edges[self.edge_labels == k])
        vertices = self.vertices.take(mine)
        vertices.setflags(write=False)
        edges.setflags(write=False)
        return Cluster(vertices, edges)

    def __repr__(self) -> str:
        return f"ClusterDecomposition(n={self.graph.n}, clusters={self.n_clusters})"


def _component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Cluster label of every vertex, clusters numbered by smallest member.

    Invariant: between rounds every vertex points at its root.  A round keeps
    the edges whose ends have different roots and hooks every larger root
    under the smallest root it touches.  Only a hooked root can then point at
    a non-root, and only when its new parent was hooked too; so the jumps run
    over one entry per hooked root (an edge that won its hook), and each jump
    keeps only the entries that still moved.  One gather then re-roots every
    vertex.  Vertices only ever point to smaller ones, so the forest stays
    acyclic and ends rooted at cluster minima.  Round 1 hooks straight from
    the canonical i < j rows, since every vertex is its own root then.
    """
    # each mask's indices found once, every gather a take: half the cost of mask compression
    lab = np.arange(n, dtype=np.int64)
    a, b = edges[:, 0].copy(), edges[:, 1].copy()
    lo, hi = a, b
    while hi.shape[0]:
        np.minimum.at(lab, hi, lo)
        up = lab.take(lo)
        jump = ((lab.take(hi) == lo) & (up != lo)).nonzero()[0]
        hooked, up = hi.take(jump), up.take(jump)
        while hooked.shape[0]:
            lab[hooked] = up
            nxt = lab.take(up)
            jump = (nxt != up).nonzero()[0]
            hooked, up = hooked.take(jump), nxt.take(jump)
        lab = lab.take(lab)
        la, lb = lab.take(a), lab.take(b)
        live = (la != lb).nonzero()[0]
        a, b, la, lb = a.take(live), b.take(live), la.take(live), lb.take(live)
        lo, hi = np.minimum(la, lb), np.maximum(la, lb)
    return _renumber(lab == np.arange(n, dtype=np.int64))[1].take(lab)  # roots ranked


def _renumber(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of ``mask``'s true entries and, at each, its rank among them, by one
    scatter: at N = 2e4 half the time of a cumsum of the mask, a third of a sort's."""
    vertices = mask.nonzero()[0]
    local = np.empty(mask.size, dtype=np.int64)
    local[vertices] = np.arange(vertices.size)
    return vertices, local


def decompose(g: Graph) -> ClusterDecomposition:
    """Partition into clusters: vertices share a cluster iff a path joins them.  Only
    the vertices with an edge are labelled, renumbered with their edges (module
    docstring)."""
    deg = degree_sequence(g)
    vertices, local = _renumber(deg > 0)
    edges = local.take(g.edges)
    return ClusterDecomposition(g, vertices, edges, deg.take(vertices), _component_labels(vertices.size, edges))


_SIZE_COUNTERS = (
    "clusters_by_size",
    "trees_by_size",
    "linear_by_size",
    "sq_clusters_by_size",
    "vertex0_by_size",
    "vertex0_linear_by_size",
)


class CensusAccumulator:
    """Order-independent accumulation of per-size cluster counts.

    Besides the cluster counts, each realization adds one indicator for the
    cluster covering its vertex 0: ``vertex0_by_size`` counts realizations by
    that cluster's size, ``vertex0_linear_by_size`` those where it is a
    linear chain.  All counters are integers, so merging partial
    accumulators is exact, associative, and commutative; parallel reductions
    over realizations cannot change the result.
    """

    def __init__(self, n_vertices: int, edge_prob: float):
        self.n_vertices = int(n_vertices)
        self.edge_prob = float(edge_prob)
        self.n_reps = 0
        for name in _SIZE_COUNTERS:
            setattr(self, name, np.zeros(64, dtype=np.int64))

    def add(self, d: ClusterDecomposition, n_reps: int = 1) -> None:
        """Count ``n_reps`` realizations from the decomposition of their
        disjoint union, realization b on vertices b*N .. (b+1)*N - 1.  Each
        realization's isolated vertices are its clusters of size 1, all trees."""
        n = self.n_vertices
        if d.graph.n != n * n_reps:
            raise ValueError(
                f"mixed ensembles: accumulator expects {n_reps} x N={n} vertices, "
                f"got {d.graph.n}"
            )
        tree, linear, _ = d.class_flag_arrays()
        sizes = d.sizes
        top = int(sizes.max(initial=1)) + 1
        self._ensure(top)
        rep_of_vertex = d.vertices // n
        rep = np.empty(sizes.size, dtype=np.int64)
        rep[d.labels] = rep_of_vertex  # realization of each cluster
        per_rep = np.bincount(rep * top + sizes, minlength=n_reps * top).reshape(n_reps, top)
        per_rep[:, 1] = n - np.bincount(rep_of_vertex, minlength=n_reps)  # isolated vertices
        k0 = d.labels.take(np.flatnonzero(d.vertices == rep_of_vertex * n))  # each vertex 0 with an edge
        self.clusters_by_size[:top] += per_rep.sum(axis=0)
        self.sq_clusters_by_size[:top] += (per_rep * per_rep).sum(axis=0)
        self.trees_by_size[:top] += np.bincount(sizes[tree], minlength=top)
        self.trees_by_size[1] += per_rep[:, 1].sum()
        self.linear_by_size[:top] += np.bincount(sizes[linear], minlength=top)
        self.vertex0_by_size[:top] += np.bincount(sizes[k0], minlength=top)
        self.vertex0_by_size[1] += n_reps - k0.size
        self.vertex0_linear_by_size[:top] += np.bincount(sizes[k0[linear[k0]]], minlength=top)
        self.n_reps += n_reps

    def _ensure(self, length: int) -> None:
        for name in _SIZE_COUNTERS:
            arr = getattr(self, name)
            if arr.shape[0] < length:
                setattr(self, name, np.pad(arr, (0, length - arr.shape[0])))

    def merge(self, other: "CensusAccumulator") -> None:
        if (self.n_vertices, self.edge_prob) != (other.n_vertices, other.edge_prob):
            raise ValueError("cannot merge censuses over different (N, p) ensembles")
        n = other.clusters_by_size.shape[0]
        self._ensure(n)
        for name in _SIZE_COUNTERS:
            getattr(self, name)[:n] += getattr(other, name)
        self.n_reps += other.n_reps

    def report(self) -> "CensusReport":
        top = int(np.flatnonzero(self.clusters_by_size).max(initial=0)) + 1
        return CensusReport(
            n_vertices=self.n_vertices,
            edge_prob=self.edge_prob,
            n_reps=self.n_reps,
            **{name: getattr(self, name)[:top].copy() for name in _SIZE_COUNTERS},
        )


@dataclass(frozen=True)
class CensusReport:
    """Aggregated cluster census over ``n_reps`` realizations of one ensemble.

    Arrays are indexed by cluster size (index 0 unused).  The empirical
    number density tau_hat(n) is (mean clusters of size n per realization)/N;
    the size distribution of the cluster covering a fixed vertex follows as
    n * N * density, which ties the two counting conventions together.
    ``vertex0_by_size`` holds one indicator per realization, the size of the
    cluster covering vertex 0 (so it sums to ``n_reps``);
    ``vertex0_linear_by_size`` counts the realizations where that cluster
    is a linear chain, which gives :meth:`linear_chain_frequency`.  The cluster
    total and the vertices on trees follow exactly from the size counts.
    """

    n_vertices: int
    edge_prob: float
    n_reps: int
    clusters_by_size: np.ndarray
    trees_by_size: np.ndarray
    linear_by_size: np.ndarray
    sq_clusters_by_size: np.ndarray
    vertex0_by_size: np.ndarray
    vertex0_linear_by_size: np.ndarray

    def __post_init__(self):
        if self.n_reps < 1:
            raise ValueError("census needs at least one realization")
        if np.any(self.linear_by_size > self.trees_by_size) or np.any(
            self.trees_by_size > self.clusters_by_size
        ):
            raise ValueError("inconsistent census counts (linear <= tree <= total violated)")
        sizes = np.arange(self.clusters_by_size.shape[0], dtype=np.int64)
        if int((sizes * self.clusters_by_size).sum()) != self.n_vertices * self.n_reps:
            raise ValueError("census does not cover all vertices")
        if int(self.vertex0_by_size.sum()) != self.n_reps or np.any(
            self.vertex0_linear_by_size > self.vertex0_by_size
        ):
            raise ValueError("inconsistent vertex-0 counts (one per realization, linear <= total)")

    @property
    def max_size(self) -> int:
        return self.clusters_by_size.shape[0] - 1

    @property
    def total_clusters(self) -> int:
        return int(self.clusters_by_size.sum())

    def tau_hat(self) -> np.ndarray:
        """Empirical mean number density of clusters per size (index = size)."""
        return self.clusters_by_size / (self.n_reps * self.n_vertices)

    def tau_hat_se(self) -> np.ndarray:
        """Standard error of tau_hat across realizations (NaN when R == 1)."""
        r = self.n_reps
        out = np.full(self.clusters_by_size.shape[0], np.nan)
        if r < 2:
            return out
        s1 = self.clusters_by_size.astype(np.float64)
        s2 = self.sq_clusters_by_size.astype(np.float64)
        var = (s2 - s1 * s1 / r) / (r - 1)
        np.maximum(var, 0.0, out=var)
        return np.sqrt(var / r) / self.n_vertices

    def tree_fraction(self) -> float:
        """Fraction of all vertex slots lying on tree clusters."""
        sizes = np.arange(self.trees_by_size.shape[0], dtype=np.int64)
        return int((sizes * self.trees_by_size).sum()) / (self.n_reps * self.n_vertices)

    def mean_cluster_density(self) -> float:
        """Mean K/N over the accumulated realizations."""
        return self.total_clusters / (self.n_reps * self.n_vertices)

    def linear_chain_frequency(self, size: int) -> tuple[float, float]:
        """Fraction of realizations whose vertex 0 lies on a linear chain of
        ``size`` vertices, with its binomial standard error (NaN when R == 1)."""
        r = self.n_reps
        count = int(self.vertex0_linear_by_size[size]) if 0 <= size <= self.max_size else 0
        q = count / r
        return q, (math.sqrt(q * (1.0 - q) / r) if r >= 2 else math.nan)

