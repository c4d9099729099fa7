"""Reproducible sampling of sparse Erdos-Renyi random graphs G(N, p/N).

Every one of the C(N,2) vertex pairs carries an independent Bernoulli(p/N)
edge variable.  Sampling walks the linearized pair index with geometric
gap-skipping, so the expected cost is O(N*p) instead of O(N^2), and each
realization draws from its own generator keyed by (master_seed, r) so that
results never depend on execution order.

Realization r draws the stream of ``np.random.default_rng([master_seed, r])``.
Its PCG64 is seeded from words that SeedSequence's hash would give, worked out
for many indices at once (a lone draw keeps those of the 256-index slice that
holds it), so no SeedSequence is built per realization.  A block of
realizations draws its gaps as one (block, batch) stack: below q = p/N = 1/3
numpy's geometric gap is a rounded-up exponential, so each row is one
``standard_exponential`` fill and the whole stack is scaled, rounded up and
clipped just above total + 1 in a few array passes; from q = 1/3 on each row
is filled by ``geometric`` itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

__all__ = [
    "GraphSpec",
    "Graph",
    "sample_graph",
    "sample_pair_indices",
    "sample_pair_index_blocks",
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
        _check_graph_fields(self.n_vertices, self.edge_prob, self.master_seed)
        object.__setattr__(self, "n_vertices", int(self.n_vertices))
        object.__setattr__(self, "edge_prob", float(self.edge_prob))
        object.__setattr__(self, "master_seed", int(self.master_seed))


def _check_graph_fields(n, p, s, drawn: bool = True) -> None:
    """Raise ValueError unless 2 <= N < 2^63 (vertex ids are int64), 0 < p < N and the
    seed fits in 64 bits; for a graph that is ``drawn``, p/N must not underflow to 0."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not 2 <= n < 1 << 63:
        raise ValueError(f"n_vertices must be an integer in [2, 2^63), got {n!r}")
    if not (0.0 < float(p) < n and (not drawn or float(p) / n > 0.0)):
        raise ValueError(f"edge_prob must satisfy 0 < p < N and p/N > 0, got p={p!r} for N={n}")
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or not (0 <= s <= _MAX_SEED):
        raise ValueError(f"master_seed must fit in an unsigned 64-bit integer, got {s!r}")


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
    """Invert :func:`pair_index`: map linear indices to an (m, 2) pair array; an index
    outside [0, n(n-1)/2) raises ValueError."""
    k = np.atleast_1d(np.asarray(idx, dtype=np.int64))
    b = 2 * n - 1
    out = np.empty((k.size, 2), dtype=np.int64)
    # float solve of i*(2n-1-i)/2 <= k, truncated; the row is right iff i < j < n, and
    # only otherwise does the exact integer fixup (off by <= 1) run
    if b * b < 1 << 53:
        # every step but the square root is exact: each value is an integer below 2^53,
        # and i(2n-3-i) is even
        i = k.astype(np.float64)
        i *= -8.0
        i += b * b
        np.sqrt(i, out=i)
        np.subtract(b, i, out=i)
        i /= 2.0
        np.trunc(i, out=i)
        j = np.subtract(b - 2, i)
        j *= i
        j *= -0.5
        j += k
        j += 1.0
        out[:, 0], out[:, 1] = i, j
    else:
        out[:, 0] = (b - np.sqrt(b * b - 8.0 * k)) / 2.0
        i, j = out[:, 0], out[:, 1]
        j[:] = k - _row_offset(i, n) + i + 1
    if not ((j > i) & (j < n)).all():
        if k.min() < 0 or k.max() >= n * (n - 1) // 2:  # the fixup would never end
            raise ValueError(f"pair index outside [0, N(N-1)/2) for N={n}")
        i = np.clip(out[:, 0], 0, n - 2)
        while (low := k < _row_offset(i, n)).any():
            i[low] -= 1
        while (high := k >= _row_offset(i + 1, n)).any():
            i[high] += 1
        out[:, 0], out[:, 1] = i, k - _row_offset(i, n) + i + 1
    return out


def _batch_size(q: float, total: int) -> int:
    """Geometric gaps drawn at a time: enough to pass ``total`` slots in all but
    rare cases.  It decides only when drawing stops, never the values drawn."""
    mean = total * q
    return int(mean + 6.0 * math.sqrt(mean) + 16.0)


# NumPy's SeedSequence (NEP 19): a 4-word uint32 pool filled by `hashmix`, whose
# hash constant steps by a fixed multiplier on every call, then `mix`ed word
# against word; generate_state reads the pool out through a second hash chain.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Realizations whose seed words are worked out at once
_SEED_SLICE = 256


def _hash_chain(init: int, mult: int, calls: int) -> list[tuple[int, int]]:
    """(xor, multiply) constants of ``calls`` successive hash steps."""
    out, h = [], init
    for _ in range(calls):
        out.append((h, h := h * mult & _MASK32))
    return out


_HASH_A = _hash_chain(0x43B0D7E5, 0x931E8875, 16)  # 4 pool fills, 12 pairwise mixes
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)  # 8 output words


def _seed_words(master_seed: int, r) -> list:
    """``SeedSequence([master_seed, r]).generate_state(4, np.uint64)`` as four
    words, for an index ``r`` below 2**64 given as a Python int, or elementwise
    for a uint64 array of them.

    A seed below 2**64 is one or two uint32 words and so is ``r``; the pool
    takes at most four, and a missing word hashes exactly like a zero word, so
    the pool is the seed's words, then ``r``'s low and high words, zero-padded.
    Every step is masked to 32 bits, so the same code runs on either type.
    """
    pool = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed >> 32 else [])
    pool += [r & _MASK32, r >> 32] + [0] * (2 - len(pool))
    mixer = []
    for w, (xor, mult) in zip(pool, _HASH_A):
        v = (w ^ xor) * mult & _MASK32
        mixer.append(v ^ v >> 16)
    calls = iter(_HASH_A[4:])
    for src in range(4):
        for dst in range(4):
            if src != dst:
                xor, mult = next(calls)
                h = (mixer[src] ^ xor) * mult & _MASK32
                v = _MIX_L * mixer[dst] - _MIX_R * (h ^ h >> 16) & _MASK32
                mixer[dst] = v ^ v >> 16
    out = []
    for k, (xor, mult) in enumerate(_HASH_B):
        v = (mixer[k % 4] ^ xor) * mult & _MASK32
        out.append(v ^ v >> 16)
    # generate_state(4, np.uint64) views the 8 uint32 words as little-endian pairs
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The four uint64 words that PCG64 asks its seed sequence for, given.

    ``PCG64(_SeedWords(w))`` with ``w = _seed_words(s, r)`` starts where
    ``np.random.default_rng([s, r])`` does, without building a SeedSequence.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _slots(spec: GraphSpec, words: np.ndarray):
    """The walks of the realizations whose seed words are the rows of ``words``, and the
    number of pairs ``total``: an int64 array with one row per realization, whose slots
    below ``total`` are its edges' linear indices, ascending and ahead of every other
    slot."""
    n = spec.n_vertices
    q = spec.edge_prob / n
    total = n * (n - 1) // 2
    batch = _batch_size(q, total)
    clip = math.nextafter(float(total + 1), math.inf)  # above total + 1 where float() rounds down
    gens = [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]
    slots = []
    while not slots or slots[-1][:, -1].min() < total:
        gaps = np.empty((len(gens), batch))
        for gen, row in zip(gens, gaps):
            if q < 1 / 3:
                gen.standard_exponential(out=row)
            else:
                row[:] = gen.geometric(q, batch)
        if q < 1 / 3:
            with np.errstate(over="ignore"):  # a subnormal q: inf gaps, clipped below
                np.ceil(np.divide(gaps, -math.log1p(-q), out=gaps), out=gaps)
        s = np.minimum(gaps, clip, out=gaps).astype(np.int64)
        s[:, 0] += np.minimum(slots[-1][:, -1], total) if slots else -1
        slots.append(np.cumsum(s, axis=1, out=s))
    return (slots[0] if len(slots) == 1 else np.concatenate(slots, axis=1)), total


def sample_pair_index_blocks(spec: GraphSpec, realization_indices, block: int):
    """Yield ``(idx, counts)`` for consecutive blocks of at most ``block`` of
    ``realization_indices``: ``idx`` holds the sorted linear indices
    (:func:`pair_index`) of each realization's edges in turn and ``counts``
    each realization's edge count.

    Realization ``r`` walks the pairs from slot -1 with Geometric(q) gaps,
    q = p/N, from ``np.random.default_rng([master_seed, r])``'s stream, its
    start state set from seed words worked out for up to 256 indices at once.
    A block is one C-ordered (block, batch) float64 stack, one row per
    realization filled by one draw.  For q < 1/3 numpy's ``geometric`` is
    ``ceil(-standard_exponential / log1p(-q))``, one exponential per gap: rows
    are filled by ``standard_exponential`` and the stack is divided by
    ``-log1p(-q)`` and rounded up, bit for bit numpy's gaps.  From q = 1/3 on
    numpy draws by search, and rows are filled by ``geometric`` itself.

    Gaps are clipped at the float just above total + 1, so a clipped gap
    passes the last pair from any slot; numpy gives gaps near 2**63 at tiny q.
    A cumsum per row from slot -1 turns gaps into slots, and slots past the
    last pair are dropped.  While any walk has not passed the last pair, every
    row draws one more batch, from its last slot or total if lower.  So no
    slot exceeds total + batch * (total + 1), and no int64 sum can wrap while
    that is below 2**63: for every N up to 3.3e6 at p <= 1, up to 2.0e6 at
    p <= 4, and up to 1.0e9 as p -> 0 (batch 16).

    No array of a block's walk outlives its ``yield``: the gap and slot stacks
    and the mask are freed before the block is handed out, and the generator
    keeps no reference to ``idx`` or ``counts``.
    """
    rs = realization_indices
    if len(rs) and not (0 <= min(rs) and max(rs) <= _MAX_SEED):
        raise ValueError("realization indices must lie in [0, 2**64 - 1]")
    span = block * max(1, _SEED_SLICE // block)
    for i in range(0, len(rs), span):
        part = np.fromiter(rs[i : i + span], np.uint64, min(span, len(rs) - i))
        words = np.array(_seed_words(spec.master_seed, part), dtype=np.uint64).T.copy()
        for j in range(0, len(part), block):
            yield _block_pairs(spec, words[j : j + block])


def _block_pairs(spec: GraphSpec, words: np.ndarray):
    """One block of :func:`sample_pair_index_blocks`, in a call of its own so that the
    generator's frame holds none of its arrays across the ``yield``."""
    s, total = _slots(spec, words)
    keep = s < total
    # every row ends past the last pair, so its count is its first dropped slot
    return s[keep], keep.argmin(axis=1)


@functools.lru_cache(maxsize=4)
def _slice_words(master_seed: int, start: int) -> np.ndarray:
    """The seed words of realizations ``start``, ``start + 1``, ... up to 256 of them
    and below 2**64, hashed as one array: a read-only (count, 4) uint64 array.  Drawn one
    at a time, consecutive realizations share it, at about 0.5 us an index against 10 us
    for one Python-int hash."""
    rs = np.arange(min(_SEED_SLICE, _MAX_SEED + 1 - start), dtype=np.uint64) + np.uint64(start)
    words = np.array(_seed_words(master_seed, rs), dtype=np.uint64).T.copy()
    words.setflags(write=False)
    return words


def sample_pair_indices(spec: GraphSpec, realization_index: int) -> np.ndarray:
    """Sorted linear indices (:func:`pair_index`) of the edges of realization ``r``,
    bit for bit its part of :func:`sample_pair_index_blocks`; its seed words come from
    the 256-index slice that holds ``r``."""
    r = realization_index
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool) or not (0 <= r <= _MAX_SEED):
        raise ValueError(f"realization_index must be an integer in [0, 2**64 - 1], got {r!r}")
    start, k = divmod(int(r), _SEED_SLICE)
    [row], total = _slots(spec, _slice_words(spec.master_seed, start * _SEED_SLICE)[k : k + 1])
    # the slots below total come first, so one binary search counts them
    return row[: row.searchsorted(total)]


def sample_graph(spec: GraphSpec, realization_index: int) -> Graph:
    """Draw realization ``r`` of the ensemble; a pure function of (spec, r)."""
    idx = sample_pair_indices(spec, realization_index)
    # ascending linear index == lexicographic (i, j) order, so no re-sort needed
    return Graph(spec.n_vertices, index_pair(idx, spec.n_vertices), validate=False)


def degree_sequence(g: Graph) -> np.ndarray:
    """Per-vertex degree; sums to twice the edge count."""
    return np.bincount(g.edges.ravel(), minlength=g.n).astype(np.int64, copy=False)


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
