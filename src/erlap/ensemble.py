"""Reproducible sampling of sparse Erdos-Renyi random graphs G(N, p/N).

Every one of the C(N,2) vertex pairs carries an independent Bernoulli(p/N)
edge variable.  Sampling walks the linearized pair index with geometric
gap-skipping, so the expected cost is O(N*p) instead of O(N^2), and each
realization draws from its own generator keyed by (master_seed, r) so that
results never depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

__all__ = [
    "GraphSpec",
    "Graph",
    "sample_graph",
    "sample_pair_indices",
    "degree_sequence",
    "pair_index",
    "index_pair",
    "write_edge_list",
    "read_edge_list",
]

_MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class GraphSpec:
    """Ensemble parameters for G(N, p/N).

    The pair (master_seed, realization_index) passed to :func:`sample_graph`
    fully determines the drawn graph, bitwise, under any parallel schedule.
    """

    n_vertices: int
    edge_prob: float
    master_seed: int

    def __post_init__(self) -> None:
        n = self.n_vertices
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
            raise ValueError(f"n_vertices must be an integer >= 2, got {n!r}")
        p = self.edge_prob
        if not (0.0 < float(p) < n):
            raise ValueError(f"edge_prob must satisfy 0 < p < N, got {p!r}")
        s = self.master_seed
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or not (0 <= s <= _MAX_SEED):
            raise ValueError(f"master_seed must fit in an unsigned 64-bit integer, got {s!r}")
        object.__setattr__(self, "n_vertices", int(n))
        object.__setattr__(self, "edge_prob", float(p))
        object.__setattr__(self, "master_seed", int(s))


class Graph:
    """Simple undirected graph on ``n`` labeled vertices with a canonical edge list.

    Edges are an (m, 2) int64 array with i < j per row, sorted
    lexicographically.  Two graphs are equal iff ``n`` and the edge arrays
    are equal, so the canonical form doubles as an equality witness.
    Instances are immutable once constructed.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges, validate: bool = True):
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array of vertex pairs")
        if validate:
            if n < 1:
                raise ValueError("graph needs at least one vertex")
            if e.shape[0]:
                if e.min() < 0 or e.max() >= n:
                    raise ValueError("edge endpoint out of range")
                if np.any(e[:, 0] >= e[:, 1]):
                    raise ValueError("edges must satisfy i < j (no self-loops)")
                keys = e[:, 0] * np.int64(n) + e[:, 1]
                if np.any(np.diff(keys) <= 0):
                    raise ValueError("edges must be lexicographically sorted and unique")
        e.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", e)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges.shape == other.edges.shape and bool(
            np.array_equal(self.edges, other.edges)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.n_edges})"


def _row_offset(i, n):
    """Number of (a, b), a < b pairs preceding row ``i`` in lexicographic order."""
    i = np.asarray(i, dtype=np.int64)
    return i * (2 * n - 1 - i) // 2


def pair_index(i, j, n: int):
    """Linear index of the pair (i, j), i < j, under lexicographic ordering."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return _row_offset(i, n) + (j - i - 1)


def index_pair(idx, n: int):
    """Invert :func:`pair_index`: map linear indices to an (m, 2) pair array."""
    k = np.atleast_1d(np.asarray(idx, dtype=np.int64))
    b = 2 * n - 1
    # float solve of i*(2n-1-i)/2 <= k, then exact integer fixup (off by <= 1)
    i = ((b - np.sqrt(b * b - 8.0 * k)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    while (low := k < _row_offset(i, n)).any():
        i[low] -= 1
    while (high := k >= _row_offset(i + 1, n)).any():
        i[high] += 1
    j = k - _row_offset(i, n) + i + 1
    return np.stack([i, j], axis=1)


def _skip_indices(rng: np.random.Generator, q: float, total: int) -> np.ndarray:
    """Indices of successes among ``total`` iid Bernoulli(q) slots.

    Gaps between successes are iid Geometric(q); drawing them in batches and
    cumulative-summing visits only the successes.
    """
    mean = total * q
    batch = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    out = []
    last = -1
    while last < total:
        gaps = rng.geometric(q, size=batch)
        pos = last + np.cumsum(gaps)
        out.append(pos)
        last = int(pos[-1])
    idx = np.concatenate(out)
    return idx[idx < total]


def sample_pair_indices(spec: GraphSpec, realization_index: int) -> np.ndarray:
    """Sorted linear indices (:func:`pair_index`) of the edges of realization ``r``."""
    r = realization_index
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or r < 0:
        raise ValueError(f"realization_index must be a nonnegative integer, got {r!r}")
    n = spec.n_vertices
    rng = np.random.default_rng([spec.master_seed, int(r)])
    return _skip_indices(rng, spec.edge_prob / n, n * (n - 1) // 2)


def sample_graph(spec: GraphSpec, realization_index: int) -> Graph:
    """Draw realization ``r`` of the ensemble; a pure function of (spec, r)."""
    idx = sample_pair_indices(spec, realization_index)
    # ascending linear index == lexicographic (i, j) order, so no re-sort needed
    return Graph(spec.n_vertices, index_pair(idx, spec.n_vertices), validate=False)


def degree_sequence(g: Graph) -> np.ndarray:
    """Per-vertex degree; sums to twice the edge count."""
    return np.bincount(g.edges.ravel(), minlength=g.n).astype(np.int64)


def write_edge_list(g: Graph, dest: str | IO[str]) -> None:
    """Serialize as text: first line ``N M``, then one ``i j`` line per edge."""
    lines = [f"{g.n} {g.n_edges}\n"]
    lines.extend(f"{i} {j}\n" for i, j in g.edges.tolist())
    if hasattr(dest, "write"):
        dest.write("".join(lines))
    else:
        with open(dest, "w", newline="\n") as fh:
            fh.write("".join(lines))


def _parse_edge_lines(lines: Iterable[str]) -> Graph:
    it = iter(lines)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty edge-list input") from None
    n_str, m_str = first.split()
    n, m = int(n_str), int(m_str)
    if not (1 <= n and n * n < 2**63):
        raise ValueError(f"vertex count {n} outside [1, 3037000499] (int64 edge keys i*N + j)")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"edge count {m} outside [0, N(N-1)/2] for N={n}")
    # storage grows with the edges actually read, never with the declared m
    edges = []
    for line in filter(str.strip, it):
        a, b = map(int, line.split())
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError("edge endpoint out of range")
        edges.append((a, b))
    if len(edges) != m:
        raise ValueError(f"declared {m} edges, found {len(edges)}")
    return Graph(n, edges, validate=True)


def read_edge_list(src: str | IO[str]) -> Graph:
    """Parse the edge-list text format written by :func:`write_edge_list`."""
    if hasattr(src, "read"):
        return _parse_edge_lines(src.read().splitlines())
    with open(src) as fh:
        return _parse_edge_lines(fh.read().splitlines())
