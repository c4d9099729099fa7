"""Per-cluster Laplacian spectra, whole-graph spectra, IDS estimation, moments.

The graph Laplacian L = D - A is block diagonal over clusters, so the graph
spectrum is the multiset union of small per-cluster eigenproblems.  One
builder assembles the clusters of each size as a stack of dense Laplacians,
and one checked eigensolve handles every stack, which keeps the LAPACK loop
in C even when a realization holds thousands of tiny clusters.  The eigensolve
functions take no size cap; the realization driver checks it, once per realization.

LAPACK computes every eigenvalue of an n-vertex Laplacian within the margin
n*eps*||L||_2 <= n*eps*2*d_max <= n*eps*2(n - 1).  Each connected cluster has a
one-dimensional kernel: the solve requires its smallest computed eigenvalue to lie
within that margin of 0 and then replaces it by an exact 0.0, so that zero counts
(and hence the spectral value at the lower edge) never depend on a floating point
threshold.  Spectra are returned as plain ascending arrays; the whole-graph one
is checked to hold exactly one 0.0 per cluster.

IDS counts skip the sizes that Fiedler's theorem settles: a connected n-vertex
graph has smallest nonzero eigenvalue >= 2(1 - cos(pi/n)), and the margin also
covers the floor's rounding.  A size whose floor minus margin exceeds the top
grid energy adds exactly its kernel to each count #{lambda <= E}.  The others
need no eigensolve: #{lambda <= E} is the number of pivots <= 0 of L - E*I
(Sylvester's law of inertia), eliminated leaf to root with no fill-in down to the
2-core, then sparsest row first.  A Laplacian eigenvalue is an algebraic integer,
so it equals a float E only at an integer E, where exact pivots count the ties.
One such count is a hundred-odd numpy calls on small arrays, so empirical_ids counts a
block of realizations at a time: their counted clusters form one graph, each numbered
from its realization's offset.  Peel and core pivots land in one per-vertex table, and
one sum per realization gives each the row it gets alone.  A block closes once its
pivot table holds _BLOCK_CELLS cells (counted vertices x energies); larger tables trade
the saved calls for fresh memory pages.
Verify needs no eigensolve either: with each vertex shifted by its cluster's floor
less n*eps*2*d_max, one count equals the number of clusters of size >= 2 iff each has
a one-dimensional kernel and clears its floor.  Its path oracle counts the forest of the
paths P_2..P_200, which attain the floor, at the floor less and plus that allowance.

Moments need no eigensolve.  The degrees give sum d^{2k}, Tr A^2 = 2m and
Tr L^2 = sum d(d + 1) as Python integers.  Tr A^4 and Tr L^4 count closed 4-walks:
degrees, edge degree sums, and the triangles and 4-cycles of the cyclic clusters,
counted from their wedges a - v - b in int64.  So at k <= 2 no matrix is laid out;
for k >= 3, Tr M^{2k} = ||M^k||_F^2 (M = L, A) comes from sparse int64 products over
the vertices of degree > 0.  The moments table and the moment inequality are reduced
from the rows in one step, by :func:`erlap.harness.moment_columns`.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clusters import Cluster, ClusterDecomposition, _renumber, decompose
from .ensemble import Graph, GraphSpec, sample_graph

__all__ = [
    "EigensolverError",
    "IdsEstimate",
    "MomentSamples",
    "quadratic_form",
    "eigenvalues_cluster",
    "fiedler_floor",
    "path_emin_reference",
    "counting_function",
    "graph_spectrum",
    "cluster_min_gaps",
    "empirical_ids",
    "moment_samples",
]

DEFAULT_SIZE_CAP = 2000
MAX_MOMENT_POWER = 8
_INT64_PIVOT_BOUND = 1 << 31  # int64 peel pivots f/g below it keep every product below 2^63


class EigensolverError(RuntimeError):
    """Diagnostic eigensolver failure carrying the offending cluster and, in
    ensemble runs, the ``(master_seed, realization)`` that replays it."""

    def __init__(self, message: str, cluster: Cluster | None = None,
                 master_seed: int | None = None, realization: int | None = None):
        if realization is not None:
            message = f"{message} (master_seed={master_seed}, realization={realization})"
        super().__init__(message)
        self.cluster = cluster
        self.master_seed = master_seed
        self.realization = realization


def _check_size_cap(d: ClusterDecomposition, size_cap: int) -> None:
    """Raise :class:`EigensolverError`, naming the largest cluster of ``d``, if it exceeds ``size_cap``."""
    if d.sizes.size and (top := int(d.sizes.max())) > size_cap:
        raise EigensolverError(f"cluster of size {top} exceeds the size cap {size_cap}",
                               cluster=d.cluster(int(np.argmax(d.sizes))))


def _laplacian_stacks(d: ClusterDecomposition):
    """Yield ``(size, cluster_ids, stack)`` per size class of the clusters of ``d``, all
    of size >= 2, sizes and ids ascending, ``stack[j]`` the dense float64 Laplacian of
    cluster ``cluster_ids[j]`` with its vertices in ascending order.

    A stable sort of the labels gives each vertex its local index: its place less its
    cluster's start.  Each class writes -1 at both entries of its edges in one fancy
    index, and the diagonal is minus the row sums.
    """
    sizes, edge_sizes = d.sizes, d.sizes.take(d.edge_labels)
    local = np.empty(d.labels.size, dtype=np.int64)
    local[np.argsort(d.labels, kind="stable")] = np.arange(d.labels.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    for s in np.unique(sizes).tolist():
        ids = np.flatnonzero(sizes == s)
        mine = np.flatnonzero(edge_sizes == s)
        slot = np.searchsorted(ids, d.edge_labels.take(mine))
        i, j = local.take(d.edges.take(mine, axis=0)).T
        stack = np.zeros((ids.size, s, s))
        stack[slot, i, j] = stack[slot, j, i] = -1.0
        stack[:, np.arange(s), np.arange(s)] = -stack.sum(axis=2)
        yield s, ids, stack


def _eig_margin(n, d_max):
    """n*eps*2*d_max >= n*eps*||L||_2, the eigensolver's error bound on any eigenvalue of
    an n-vertex Laplacian of maximum degree d_max, at most n - 1 (module docstring)."""
    return n * np.finfo(np.float64).eps * 2.0 * d_max


def _checked_eigvalsh(stack: np.ndarray, ids: np.ndarray, cluster_of) -> np.ndarray:
    """Ascending eigenvalues of each stacked Laplacian, kernel pinned to 0.0; LAPACK
    failures and a smallest eigenvalue outside the margin of 0 raise
    :class:`EigensolverError`."""
    s = stack.shape[1]
    margin = float(_eig_margin(s, s - 1))
    try:
        vals = np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed to converge for size {s}: {exc}",
            cluster=cluster_of(int(ids[0])),
        ) from exc
    j = int(np.argmax(np.abs(vals[:, 0])))
    if abs(vals[j, 0]) > margin:
        raise EigensolverError(
            f"computed kernel eigenvalue {float(vals[j, 0])!r} of a size-{s} cluster "
            f"exceeds the margin {margin!r}",
            cluster=cluster_of(int(ids[j])),
        )
    vals[:, 0] = 0.0
    return vals


def quadratic_form(c: Cluster, phi) -> float:
    """Energy sum over edges of |phi_i - phi_j|^2; equals <phi, L phi>."""
    phi = np.asarray(phi)
    if phi.shape != (c.size,):
        raise ValueError(f"vector of length {phi.shape} does not match cluster size {c.size}")
    if c.n_edges == 0:
        return 0.0
    diff = phi[c.edges[:, 0]] - phi[c.edges[:, 1]]
    return float(np.sum(np.abs(diff) ** 2))


def eigenvalues_cluster(c: Cluster) -> np.ndarray:
    """The ``c.size`` Laplacian eigenvalues of the connected cluster ``c``, ascending,
    the kernel pinned to 0.0 (module docstring).

    A ``c`` that is not one connected cluster, or whose edges are not canonical rows
    (:class:`Cluster`) of a simple graph on its vertices, raises ValueError; a failed
    solve raises :class:`EigensolverError` naming ``c``.
    """
    # validated as Graph validates its own input; an empty cluster has 0 components
    d = decompose(Graph(c.size, c.edges, validate=c.size > 0 or c.n_edges > 0))
    if d.n_clusters != 1:
        raise ValueError(f"cluster has {d.n_clusters} components, not 1")
    try:
        return graph_spectrum(d)
    except EigensolverError as exc:  # name c, not its local copy
        raise EigensolverError(str(exc), cluster=c) from exc


def fiedler_floor(sizes) -> np.ndarray:
    """Elementwise 2(1 - cos(pi/n)), Fiedler's floor (Czech. Math. J. 1973) on the smallest
    nonzero Laplacian eigenvalue of a connected n-vertex graph; the path attains it."""
    return 2.0 * (1.0 - np.cos(np.pi / np.asarray(sizes, dtype=np.float64)))


def path_emin_reference(n: int) -> float:
    """The n-vertex path's smallest nonzero Laplacian eigenvalue 2(1 - cos(pi/n)) < 12/n^2."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"path needs n >= 2 vertices, got {n!r}")
    return float(fiedler_floor(n))


def _min_solved_size(e_max: float) -> int:
    """Smallest size whose floor minus margin (module docstring) reaches ``e_max``;
    that difference falls with n, lies below pi^2/n^2 and is negative from n ~ 12000
    on, so the search ends by pi/sqrt(e_max) + 2 or 2^14, whichever comes first."""
    n = np.arange(2, min(int(math.pi / math.sqrt(e_max)) + 2, 1 << 14) + 1)
    return int(n[np.argmax(fiedler_floor(n) - _eig_margin(n, n - 1) <= e_max)])


def _grouped_eigenvalues(d: ClusterDecomposition):
    """Laplacian eigenvalues of the clusters :func:`_laplacian_stacks` yields, by size:
    a list of (size, cluster_ids, values) with ``values`` of shape (count, size), each
    row sorted ascending with its first entry exactly 0."""
    return [(s, ids, _checked_eigvalsh(stack, ids, d.cluster))
            for s, ids, stack in _laplacian_stacks(d)]


def _inertia(edges: np.ndarray, diag: list, off):
    """Which pivots are <= 0, and which are exactly 0, of the symmetric matrix with
    diagonal ``diag`` and entry ``off(i, j)`` at each edge (i, j), by elimination of the
    sparsest live row first: two boolean arrays with a row per vertex.  A vertex whose
    diagonal is None is left out and reads False in both.

    Entries are ``Fraction``s, or float64 arrays that carry one matrix per energy through
    one order fixed by the pattern, a flag per energy in each row.  A -inf diagonal (a
    vertex the peel left out) sends 0 and reads False.  An exact zero diagonal beside
    b = rows[v][w] != 0 is first made 2sb + rows[w][w] != 0 by the congruence
    v <- v + s*w, s = +-1; an exact zero row is a zero eigenvalue.  The heap pops each
    component's rows in the order it pops them alone, and no pivot mixes two components,
    so each vertex reads what its component gives alone.
    """
    rows = {v: {v: x} for v, x in enumerate(diag) if x is not None}  # row v: {column: entry}
    for i, j in edges.tolist():
        if i in rows and j in rows:
            rows[i][j] = rows[j][i] = off(i, j)
    heap = [(len(row), v) for v, row in rows.items()]
    heapq.heapify(heap)
    le, zero = [False] * len(diag), [False] * len(diag)
    while heap:
        k, v = heapq.heappop(heap)
        if len(rows.get(v, ())) != k:
            continue
        row = rows.pop(v)
        d = row.pop(v)
        exact = isinstance(d, Fraction)
        if exact and not d and (w := next((w for w, b in row.items() if b), None)) is not None:
            s = 1 if 2 * row[w] + rows[w][w] else -1
            d = 2 * s * row[w] + rows[w][w]
            for x, a in rows[w].items():
                if x != v:
                    row[x] = rows[x][v] = row.get(x, 0) + s * a
        le[v], zero[v] = (d <= 0) & (d > -np.inf), d == 0
        inv = 1 / d if not exact or d else 0  # an exact zero row sends nothing
        for x, a in row.items():
            rx, a = rows[x], a * inv
            del rx[v]
            for y, b in row.items():
                rx[y] = rx.get(y, 0) - a * b
            heapq.heappush(heap, (len(rx), x))
    return np.array(le, dtype=bool), np.array(zero, dtype=bool)


def _leaf_rounds(n: int, edges: np.ndarray):
    """Degrees, (leaves, parents) rounds and live degrees left (> 0 on the 2-core) of
    :func:`counting_function`'s leaf peel of the graph on 0..n-1 with ``edges``."""
    deg = np.bincount(edges.ravel(), minlength=n)
    live = deg.copy()
    # the sum of a vertex's live neighbours is a leaf's parent
    nbr = np.bincount(edges.ravel(), edges[:, ::-1].ravel(), n).astype(np.int64)
    owner = np.empty(n, dtype=np.int64)
    rounds = []
    while (leaves := (live == 1).nonzero()[0]).size:
        parents = nbr.take(leaves)
        # one write per parent lands; a K2 end the pair rule drops is its parent's only leaf
        owner[parents] = leaves
        keep = ((owner.take(parents) == leaves) & ((live.take(parents) > 1) | (leaves < parents))).nonzero()[0]
        leaves, parents = leaves.take(keep), parents.take(keep)
        # the parents are now unique, so each gather-and-scatter is exact
        live[leaves] = 0
        live[parents] = live.take(parents) - 1
        nbr[parents] = nbr.take(parents) - leaves
        rounds.append((leaves, parents))
    return deg, rounds, live


@np.errstate(divide="ignore", invalid="ignore")
def counting_function(n: int, edges, energies, offsets=None) -> np.ndarray:
    """#{eigenvalues <= E}, kernel included, at each energy E of the Laplacian of the
    simple graph on vertices 0..n-1 with ``edges``: the pivots <= 0 of L - E*I (module
    docstring).  ``energies`` of shape (k,) is a grid; of shape (n, k), column j shifts
    each vertex v by its own E[v, j] and counts the pivots <= 0 of L - diag(E[:, j]).
    A column is counted exactly iff every entry is an integer, or every entry lies in
    [-2^-52, 2^-52], where d - E can round to d and float pivots miss E.  A column with
    every entry < 0 counts 0, L - diag(E) being positive definite.  A column in
    (2^-52, ulp(d_max)/2], empty unless d_max >= 4, can still miscount, as d - E rounds
    to d.  A repeated pair or a loop raises ValueError.

    ``offsets``, ascending from 0 to n, split the vertices into groups for a grid:
    group g holds ``offsets[g]``..``offsets[g + 1] - 1``, and no edge joins two groups.
    The result then has one row per group, equal to that group's own count with its
    vertices renumbered from 0; an empty group counts 0.

    Each round peels the current leaves, one per parent, into their parents, until only
    the 2-core is left; a tree's root is the larger end of its last edge.  One mask keeps
    the leaves whose write to their parent's slot landed, less the larger end of a K2.
    The (n, k) pivot tables are row-major whatever the layout of ``energies``, so a round
    gathers and scatters its leaf and parent rows whole.  Zero pivots follow Jacobs and
    Trevisan (Linear Algebra Appl. 2011): the parent's pivot becomes -1/2, one zero
    child's 2, and the parent sends nothing on.  That 2x2 pivot's inverse is 0 in the
    parent's slot, so the parent, core or not, is dropped with no update to its
    neighbours.  The core S = diag(f) - A_core goes to :func:`_inertia` once, on float
    arrays, and its per-vertex flags fill the core's rows of the peel's table, so one
    ``reduceat`` counts each group.  A group counts a column exactly when the column is
    exact or a float core pivot of that group rounds to 0: its core then goes to
    :func:`_inertia` as the integer matrix diag(g) S diag(g) of the exact pivots f/g,
    congruent to S for any nonzero g, and the other groups' vertices are left out.
    Groups share no edge, so no pivot mixes two groups and a group's row does not
    depend on the others.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = np.asarray(energies, dtype=np.float64)
    one = offsets is None
    offsets = np.array([0, n]) if one else np.asarray(offsets, dtype=np.int64)
    if not one and (offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != n
                    or (offsets[1:] < offsets[:-1]).any() or e.ndim != 1):
        raise ValueError("offsets must ascend from 0 to n, with a 1-d grid of energies")
    full = (offsets[1:] > offsets[:-1]).nonzero()[0]  # the groups with a vertex

    def group_counts(table):
        """The True entries of each column of the (n, k) boolean ``table``, per group."""
        out = np.zeros((offsets.size - 1, table.shape[1]), dtype=np.int64)
        # reduceat would sum the next row into an empty group and reject a start equal to n
        out[full] = np.add.reduceat(table.view(np.uint8), offsets.take(full), axis=0, dtype=np.int64)
        return out

    deg, rounds, live = _leaf_rounds(n, edges)
    core = live > 0
    if has_core := core.any():
        # a loop or a repeated pair lies on a cycle of the multigraph, so in the core
        core_edges = np.sort(edges[core[edges[:, 0]] & core[edges[:, 1]]], axis=1)
        if (core_edges[:, 0] == core_edges[:, 1]).any() or np.unique(core_edges, axis=0).shape != core_edges.shape:
            raise ValueError("edges repeat a pair or join a vertex to itself")
        core_edges = _renumber(core)[1].take(core_edges)
    cols = e.reshape(-1, e.shape[-1])
    # the columns counted exactly: integer ones, and those within [-2^-52, 2^-52]
    integral = (cols == np.floor(cols)).all(axis=0)
    negative = None  # the columns with every entry < 0, which count 0
    if (e <= 2.0**-52).any():
        negative = (cols < 0).all(axis=0)
        integral |= (np.abs(cols) <= 2.0**-52).all(axis=0)
    floats = np.flatnonzero(~integral)
    counts = np.empty((offsets.size - 1, integral.size), dtype=np.int64)
    need = np.tile(integral, (offsets.size - 1, 1))  # the groups each column counts exactly
    # a leaf's pivot a adds -1/a to its parent's; a zero pivot sends 1/0 = inf, so
    # its parent falls to -inf and later sends 1/-inf = -0
    f = deg[:, None] - np.take(e, floats, axis=-1)
    for leaves, parents in rounds:
        f[parents] = f.take(parents, axis=0) - np.reciprocal(f.take(leaves, axis=0))
    counted = (f <= 0) & (f > -np.inf)
    if has_core and floats.size:
        zero, minus_one = np.zeros(f.shape, dtype=bool), -np.ones(floats.size)
        counted[core], zero[core] = _inertia(core_edges, list(f[core]), lambda i, j: minus_one)
        need[:, floats] = group_counts(zero) > 0  # a float core pivot of the group rounded to 0
    counts[:, floats] = group_counts(counted)
    exact = np.flatnonzero(need.any(axis=0))
    if exact.size:  # exact pivots f/g of E = num/den, g = 0 leaving a vertex out
        need = need.take(exact, axis=1)
        num, den = np.frompyfunc(float.as_integer_ratio, 1, 2)(np.take(e, exact, axis=-1))
        wide = int(deg.max(initial=0)) * den.max(initial=1) + np.abs(num).max(initial=0) >= _INT64_PIVOT_BOUND
        num, den = num.astype(object if wide else np.int64), den.astype(object if wide else np.int64)
        f, g = deg[:, None] * den - num, np.broadcast_to(den, (n, exact.size)).copy()
        for leaves, parents in rounds:
            fl, gl = f.take(leaves, axis=0), g.take(leaves, axis=0)
            # f/g - gl/fl, a zero pivot leaving g = 0 at its parent; a leaf with g = 0
            # sends nothing: an odd fl scales its parent's f and g by one nonzero factor
            fl |= gl == 0
            fp, gp = f.take(parents, axis=0), g.take(parents, axis=0)
            f[parents] = fp = fp * fl - gp * gl
            g[parents] = gp = gp * fl
            if not wide and max(np.abs(fp).max(), np.abs(gp).max()) >= _INT64_PIVOT_BOUND:
                wide, f, g = True, f.astype(object), g.astype(object)
        counted = (g != 0) & ((f == 0) | ((f < 0) != (g < 0)))
        if has_core:
            mine = np.repeat(need, np.diff(offsets), axis=0)[core]  # each core vertex's group's need
            for col, (fc, gc, mc) in enumerate(zip(f[core].T.tolist(), g[core].T.tolist(), mine.T.tolist())):
                diag = [Fraction(x * y) if y and m else None for x, y, m in zip(fc, gc, mc)]
                counted[core, col] = _inertia(core_edges, diag, lambda i, j: Fraction(-gc[i] * gc[j]))[0]
        counts[:, exact] = np.where(need, group_counts(counted), counts.take(exact, axis=1))
    if negative is not None:
        counts[:, negative] = 0
    return counts[0] if one else counts


def graph_spectrum(d: ClusterDecomposition) -> np.ndarray:
    """All N Laplacian eigenvalues of ``d.graph`` ascending, the multiset union of
    its clusters' spectra, one 0.0 per isolated vertex; a count of exact zeros other
    than ``d.n_clusters`` (the kernel identity) raises ValueError."""
    parts = [np.zeros(d.n_isolated)]
    parts += [vals.ravel() for _, _, vals in _grouped_eigenvalues(d)]
    eigs = np.sort(np.concatenate(parts))
    if int(np.count_nonzero(eigs == 0.0)) != d.n_clusters:
        raise ValueError("number of exact zeros must equal the cluster count")
    return eigs


def cluster_min_gaps(d: ClusterDecomposition):
    """Cluster ids (:class:`ClusterDecomposition` numbering), sizes, and smallest
    nonzero eigenvalues of every cluster with at least two vertices."""
    groups = _grouped_eigenvalues(d)
    ids = np.concatenate([np.empty(0, dtype=np.int64)] + [ids for _, ids, _ in groups])
    gaps = np.concatenate([np.empty(0)] + [vals[:, 1] for _, _, vals in groups])
    return ids, d.sizes[ids], gaps


@dataclass(frozen=True)
class IdsEstimate:
    """Monte Carlo estimate of the eigenvalue counting function on a grid.

    ``sigma`` are means over realizations of N^{-1} #{eigenvalues <= E}
    (closed right endpoint, so right-continuous in E).  Sizes n whose Fiedler
    floor 2(1 - cos(pi/n)) less the margin n*eps*2(n - 1) exceeds the top energy
    add only their kernel; every other cluster counts by inertia, exactly at integer E.
    ``sigma0`` is the mean cluster count per vertex, computed structurally
    from the decomposition and never from thresholded eigenvalues.
    ``delta_sigma`` is the per-realization difference sigma(E) - sigma(0)
    re-averaged, carrying its own standard error since the two terms are
    correlated.
    """

    energies: np.ndarray
    sigma: np.ndarray
    sigma_se: np.ndarray
    sigma0: float
    sigma0_se: float
    delta_sigma: np.ndarray
    delta_sigma_se: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.sigma) < 0):
            raise ValueError("sigma must be nondecreasing along the grid")
        if np.any(self.sigma > 1.0) or np.any(self.sigma < self.sigma0 - 1e-15):
            raise ValueError("sigma must lie between sigma0 and 1")


def _validate_grid(grid) -> np.ndarray:
    e = np.asarray(grid, dtype=np.float64)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("energy grid must be a nonempty 1-d array")
    if not np.all((e > 0.0) & np.isfinite(e)):
        raise ValueError("energy grid must be finite and strictly positive")
    if np.any(np.diff(e) <= 0.0):
        raise ValueError("energy grid must be strictly increasing")
    return e


def _ids_one(d: ClusterDecomposition, r: int, min_size: int):
    """The clusters of ``d`` of size >= ``min_size``, the ones an IDS count takes by
    inertia, as one graph: its vertex count and its edges, renumbered in ascending order;
    then the kernels of the other clusters, and ``d.n_clusters``."""
    counted = d.sizes >= min_size
    # a cluster has an edge, so its edges' ends are all its vertices
    edges = d.edges.take(counted.take(d.edge_labels).nonzero()[0], axis=0)
    flag = np.zeros(d.vertices.size, dtype=bool)
    flag[edges] = True
    vertices, local = _renumber(flag)
    return vertices.size, local.take(edges), int(d.n_clusters - np.count_nonzero(counted)), int(d.n_clusters)


def _realizations(spec, rs, size_cap: int, one, *extra):
    """Yield ``one(d, r, *extra)`` for each index ``r``, ``d`` the decomposition of
    realization ``r`` of ``spec`` once :func:`_check_size_cap` has passed it; an
    :class:`EigensolverError` or a ValueError is re-raised with ``(master_seed, r)``.
    The one place a realization is drawn and its size cap checked."""
    for r in rs:
        try:
            d = decompose(sample_graph(spec, r))
            _check_size_cap(d, size_cap)
            value = one(d, r, *extra)
            del d  # so that the next draw does not hold two decompositions at once
        except EigensolverError as exc:
            raise EigensolverError(str(exc), exc.cluster, spec.master_seed, r) from exc
        except ValueError as exc:  # e.g. _trace_powers' int64 refusal
            raise ValueError(f"{exc} (master_seed={spec.master_seed}, realization={r})") from exc
        yield value


def _each_realization(args):
    """Chunk worker: the list of :func:`_realizations` over ``args = (spec, rs, size_cap,
    one, *extra)``."""
    return list(_realizations(*args))


# pivot-table cells (counted vertices x energies) that close a block of IDS counts
_BLOCK_CELLS = 25_000


def _count_block(master_seed: int, block: list, grid: np.ndarray) -> list:
    """(counts, n_clusters) per ``(r, part)`` of ``block``, ``part`` as :func:`_ids_one`
    returns it: the parts' graphs joined with vertex offsets and counted in one
    :func:`counting_function` call, one row per part, plus its uncounted kernels."""
    if not block:
        return []
    parts = [part for _, part in block]
    sizes = np.array([n for n, *_ in parts], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    edges = np.concatenate([e + s for (_, e, *_), s in zip(parts, offsets.tolist())])
    try:
        rows = counting_function(int(offsets[-1]), edges, grid, offsets)
    except ValueError:  # one part at a time finds the realization to name
        for r, (n, e, *_) in block:
            try:
                counting_function(n, e, grid)
            except ValueError as exc:
                raise ValueError(f"{exc} (master_seed={master_seed}, realization={r})") from exc
        raise
    return [(row + kernels, k) for row, (_, _, kernels, k) in zip(rows, parts)]


def _ids_chunk(args):
    """Chunk worker of :func:`empirical_ids`: (counts, n_clusters) for each realization of
    ``rs``, counted a block at a time.  A block takes the counted graphs of consecutive
    realizations (:func:`_ids_one`, through :func:`_realizations`) until their pivot
    table reaches ``_BLOCK_CELLS``; each row equals its realization's own count, so the
    blocks, like the chunks, change no value."""
    spec, rs, size_cap, grid, min_size = args
    out, block, cells = [], [], 0
    for r, part in zip(rs, _realizations(spec, rs, size_cap, _ids_one, min_size)):
        block.append((r, part))
        cells += part[0] * grid.size
        if cells >= _BLOCK_CELLS:
            out += _count_block(spec.master_seed, block, grid)
            block, cells = [], 0
    return out + _count_block(spec.master_seed, block, grid)


def _run_chunked(worker, spec, n_reps: int, extra: tuple, workers: int):
    """Evaluate ``worker`` over contiguous ranges of realization indices and
    concatenate the lists it returns, in index order.

    The per-realization function is pure, so a process pool changes only the
    wall time, never the collected values.
    """
    if n_reps < 1:
        raise ValueError("need at least one realization")
    step = n_reps if workers <= 1 else max(1, math.ceil(n_reps / (workers * 4)))
    args = [(spec, range(i, min(i + step, n_reps)), *extra) for i in range(0, n_reps, step)]
    if workers <= 1:
        nested = [worker(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(worker, args))  # map keeps the order of args
    return [value for chunk in nested for value in chunk]


def _mean_se(rows: np.ndarray, scale=1):
    """Mean over realizations (axis 0) of ``rows / scale`` and its standard error,
    from the ddof=1 standard deviation; the error is NaN for a single realization."""
    r = rows.shape[0]
    mean = rows.mean(axis=0) / scale
    if r < 2:
        return mean, np.full(np.shape(mean), np.nan)
    return mean, rows.std(axis=0, ddof=1) / (scale * math.sqrt(r))


def empirical_ids(
    spec: GraphSpec,
    n_reps: int,
    grid,
    workers: int = 1,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> IdsEstimate:
    """Monte Carlo IDS estimate over ``n_reps`` realizations of ``spec``, counted a
    block of realizations at a time (:func:`_ids_chunk`); neither the blocks nor the
    workers change a value.

    Standard errors require at least two realizations and come out as NaN
    for a single one.
    """
    e = _validate_grid(grid)
    extra = (size_cap, e, _min_solved_size(float(e[-1])))
    results = _run_chunked(_ids_chunk, spec, n_reps, extra, workers)
    counts = np.stack([c for c, _ in results])
    ks = np.asarray([k for _, k in results], dtype=np.int64)
    n = spec.n_vertices
    sigma, sigma_se = _mean_se(counts, scale=n)
    sigma0, sigma0_se = _mean_se(ks, scale=n)
    delta, delta_se = _mean_se((counts - ks[:, None]) / n)
    return IdsEstimate(
        energies=e,
        sigma=sigma,
        sigma_se=sigma_se,
        sigma0=float(sigma0),
        sigma0_se=float(sigma0_se),
        delta_sigma=delta,
        delta_sigma_se=delta_se,
    )


@dataclass(frozen=True)
class MomentSamples:
    """Per-realization spectral moments for the Laplacian, degrees, adjacency.

    Row r of each array holds N^{-1} Tr[M^{2k}] for realization r and the
    powers listed in ``two_ks``, the correctly rounded quotient of an exact integer
    trace, never an eigenvalue power sum: from the degrees for M = D and at k = 1,
    from closed-walk counts at k = 2, and at k >= 3 from ||M^k||_F^2 by sparse int64
    products.  :func:`erlap.harness.moment_columns` reduces the rows, so parallel
    collection order cannot change its means and standard errors.
    """

    two_ks: tuple[int, ...]
    lap: np.ndarray
    deg: np.ndarray
    adj: np.ndarray


def _trace_powers(d: ClusterDecomposition, k_max: int) -> tuple[list[int], list[int]]:
    """Tr L^{2k} and Tr A^{2k} of ``d.graph`` for k = 3..k_max as Python integers, each
    ||M^k||_F^2 of a sparse int64 product over the vertices of degree > 0 (``d.vertices``).

    The absolute row sums of L are 2d, so no entry of M^k, nor a partial sum forming it,
    exceeds (2 d_max)^k: the products are exact while that is below 2^63 (checked; every
    d_max < 2^14 passes at k <= 4).  The squares are summed in int64 while
    nnz(M^k) (2 d_max)^{2k} < 2^63, else in Python integers.
    """
    import scipy.sparse  # here: at module level it raised the peak RSS growth of runs with no product

    deg, bound = d.degrees, 2 * int(d.degrees.max(initial=0))
    if bound**k_max >= 1 << 63:
        raise ValueError(f"M^{k_max} of a graph of maximum degree {bound // 2} exceeds int64")
    i, j = np.concatenate((d.edges, d.edges[:, ::-1])).T
    adj = scipy.sparse.csr_array((np.ones(i.size, dtype=np.int64), (i, j)), shape=(deg.size, deg.size))
    lap = scipy.sparse.diags_array(deg, dtype=np.int64) - adj
    traces = ([], [])
    for m, out in zip((lap, adj), traces):
        power = m @ m
        for k in range(3, k_max + 1):
            power = power @ m
            x = power.data.astype(object if power.nnz * bound ** (2 * k) >= 1 << 63 else np.int64)
            out.append(int(np.dot(x, x)))
    return traces


def _fourth_traces(d: ClusterDecomposition, hist: list) -> tuple[int, int]:
    """Tr L^4 and Tr A^4 of ``d.graph`` from closed-walk counts, as Python integers;
    ``hist`` is the histogram of ``d.degrees``.

    With c_ij the common neighbours of i != j, t_e the triangles on edge e = ij
    and C4 the 4-cycles (Cvetkovic, Doob and Sachs, *Spectra of Graphs*):
    sum_{i != j} c_ij^2 = sum d(d - 1) + 8 C4, Tr A^4 = sum d^2 + sum c_ij^2, and
    Tr L^4 = sum (d^2 + d)^2 + 2 sum_e (d_i + d_j)^2 - 4 sum_e (d_i + d_j) t_e
    + sum c_ij^2.  Triangles and 4-cycles lie in the cyclic clusters, and c_ij is
    the number of wedges i - v - j there, so one count of the wedge keys (i, j),
    i < j, gives 8 C4 = 2 sum_{i < j} c_ij (c_ij - 1) and t_e = c_ij, all in int64.
    """
    degrees, n = d.degrees, d.vertices.size
    d2, d3, d4 = (sum(count * v**t for v, count in enumerate(hist)) for t in (2, 3, 4))
    pairs = degrees.take(d.edges[:, 0]) + degrees.take(d.edges[:, 1])
    # sum_e (d_i + d_j)^2 <= m (2 d_max)^2 < m (2 len(hist))^2: in int64 while that is below 2^63
    pairs = pairs.astype(object if pairs.size * (2 * len(hist)) ** 2 >= 1 << 63 else np.int64, copy=False)
    lap = d4 + 2 * d3 + d2 + 2 * int(np.dot(pairs, pairs))
    walks = d2 - 2 * d.edges.shape[0]  # sum d(d - 1); the 4-cycles add 8 C4
    if not d.is_tree.all():
        e = d.edges.take(np.flatnonzero(~d.is_tree.take(d.edge_labels)), axis=0)
        tail, head = np.concatenate((e, e[:, ::-1])).T
        order = np.argsort(tail)
        tail, head = tail.take(order), head.take(order)
        # the wedges a - v - b: each half-edge v -> a meets every half-edge v -> b of
        # its run, which starts at first and is as long as the degree of v
        run, first = degrees.take(tail), np.searchsorted(tail, tail)
        slot = np.repeat(first - np.cumsum(run) + run, run) + np.arange(int(run.sum()))
        a, b = np.repeat(head, run), head.take(slot)
        pair = np.flatnonzero(a < b)  # each unordered wedge once, and no a - v - a
        keys, c = np.unique(a.take(pair) * n + b.take(pair), return_counts=True)
        walks += 2 * int(np.dot(c, c - 1))
        edge_keys = e[:, 0] * n + e[:, 1]
        at = np.minimum(np.searchsorted(keys, edge_keys), keys.size - 1)
        tri = np.where(keys.take(at) == edge_keys, c.take(at), 0)
        lap -= 4 * int(np.dot(degrees.take(e[:, 0]) + degrees.take(e[:, 1]), tri))
    return lap + walks, d2 + walks


def _moment_one(d: ClusterDecomposition, r: int, two_ks: tuple[int, ...]):
    g = d.graph
    hist = np.bincount(d.degrees).tolist()
    deg = [sum(count * v**two_k for v, count in enumerate(hist)) for two_k in two_ks]
    # Tr A^2 = sum d = 2m and Tr L^2 = sum d(d + 1)
    lap, adj = [deg[0] + 2 * g.n_edges], [2 * g.n_edges]
    if len(two_ks) > 1:
        lap4, adj4 = _fourth_traces(d, hist)
        lap_k, adj_k = _trace_powers(d, len(two_ks)) if len(two_ks) > 2 else ([], [])
        lap, adj = [*lap, lap4, *lap_k], [*adj, adj4, *adj_k]
    return tuple(np.array([t / g.n for t in row]) for row in (lap, deg, adj))


def moment_samples(
    spec: GraphSpec,
    n_reps: int,
    k_max: int,
    workers: int = 1,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> MomentSamples:
    """Collect per-realization moments M^Delta, M^D, M^A at powers 2..2*k_max."""
    if not 1 <= k_max <= MAX_MOMENT_POWER // 2:
        raise ValueError(f"k_max must lie in [1, {MAX_MOMENT_POWER // 2}]")
    two_ks = tuple(2 * k for k in range(1, k_max + 1))
    rows = _run_chunked(
        _each_realization, spec, n_reps, (size_cap, _moment_one, two_ks), workers
    )
    return MomentSamples(
        two_ks=two_ks,
        lap=np.stack([r[0] for r in rows]),
        deg=np.stack([r[1] for r in rows]),
        adj=np.stack([r[2] for r in rows]),
    )
