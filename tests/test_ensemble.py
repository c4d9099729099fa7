"""Sampling semantics: Bernoulli(p/N) pairs, canonical form, reproducibility."""

import gc
import hashlib
import io
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from erlap import ensemble
from erlap.ensemble import (
    Graph,
    GraphSpec,
    degree_sequence,
    index_pair,
    pair_index,
    read_edge_list,
    sample_graph,
    sample_pair_index_blocks,
    sample_pair_indices,
    write_edge_list,
)
from erlap.harness import _BLOCK_VERTICES, _census_chunk

from oracles import (
    all_graphs,
    geometric_pair_index_blocks,
    graph_probability,
    isqrt_index_pair,
    reference_pair_indices,
)


def test_spec_validation():
    GraphSpec(2, 1.0, 0)
    with pytest.raises(ValueError):
        GraphSpec(1, 0.5, 0)
    with pytest.raises(ValueError):
        GraphSpec(10, 0.0, 0)
    with pytest.raises(ValueError):
        GraphSpec(10, 10.0, 0)  # p must stay below N
    with pytest.raises(ValueError):
        GraphSpec(10, -0.5, 0)
    with pytest.raises(ValueError, match="p/N > 0"):
        GraphSpec(2, 5e-324, 0)  # p/N rounds to 0
    GraphSpec(200, 1e-310, 0)  # p/N is subnormal, not 0
    for n in (1 << 63, 10**400):  # vertex ids are int64, and p/N would overflow a float
        with pytest.raises(ValueError, match="n_vertices"):
            GraphSpec(n, 0.5, 0)
    with pytest.raises(ValueError):
        GraphSpec(10, 0.5, -1)
    with pytest.raises(ValueError):
        GraphSpec(10, 0.5, 2**64)
    GraphSpec(10, 9.999, 2**64 - 1)


def test_graph_canonical_validation():
    Graph(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])  # self loop
    with pytest.raises(ValueError):
        Graph(3, [(1, 0)])  # wrong orientation
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (0, 1)])  # duplicate
    with pytest.raises(ValueError):
        Graph(3, [(0, 2), (0, 1)])  # out of order
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])  # out of range


def test_two_vertex_edge_probability():
    # single possible edge appears with probability p/2
    spec = GraphSpec(2, 1.0, 101)
    reps = 4000
    hits = sum(sample_graph(spec, r).n_edges for r in range(reps))
    freq = hits / reps
    se = math.sqrt(0.5 * 0.5 / reps)
    assert abs(freq - 0.5) < 4 * se


def test_determinism_same_inputs():
    spec = GraphSpec(500, 0.7, 99)
    a = sample_graph(spec, 3)
    b = sample_graph(spec, 3)
    assert a == b
    assert a != sample_graph(spec, 4)


def test_determinism_across_thread_schedules():
    spec = GraphSpec(300, 0.5, 7)
    serial = [sample_graph(spec, r) for r in range(12)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda r: sample_graph(spec, r), reversed(range(12))))
    threaded.reverse()
    assert all(x == y for x, y in zip(serial, threaded))
    # census blocks share no generator either: overlapping ranges drawn by four
    # threads, switching every microsecond, count what a serial pass counts
    spec = GraphSpec(100, 0.8, 7)
    ranges = [range(0, 150), range(50, 200), range(100, 250), range(0, 250)] * 2
    serial = [_census_chunk((spec, rs))[0].report() for rs in ranges]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = [f.result(timeout=60) for f in
                        [pool.submit(_census_chunk, (spec, rs)) for rs in ranges]]
    finally:
        sys.setswitchinterval(interval)
    for want, [acc] in zip(serial, threaded):
        got = acc.report()
        for name in ("clusters_by_size", "trees_by_size", "linear_by_size",
                     "sq_clusters_by_size", "vertex0_by_size", "vertex0_linear_by_size"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


_SEEDS = [0, 1, 20260809, 2**32 - 1, 2**32, 2**64 - 1]
_INDEX_RANGES = [range(0, 300), range(2**32 - 3, 2**32 + 3), range(2**64 - 4, 2**64)]


@pytest.mark.parametrize("seed", _SEEDS)
def test_seed_words_match_seed_sequence(seed):
    # the same hash on a uint64 array of indices and on each index as a Python int
    for rs in _INDEX_RANGES:
        arrays = ensemble._seed_words(seed, np.fromiter(rs, np.uint64, len(rs)))
        for k, r in enumerate(rs):
            want = np.random.SeedSequence([seed, r]).generate_state(4, np.uint64)
            assert ensemble._seed_words(seed, r) == want.tolist()
            assert [int(a[k]) for a in arrays] == want.tolist()
            bits = np.random.PCG64(ensemble._SeedWords(want))
            assert bits.state == np.random.default_rng([seed, r]).bit_generator.state


def _blocks(spec, rs, block):
    out = list(sample_pair_index_blocks(spec, rs, block))
    assert all(counts.size == min(block, len(rs) - i * block) for i, (_, counts) in enumerate(out))
    return (np.concatenate([idx for idx, _ in out]) if out else np.empty(0, np.int64),
            [c for _, counts in out for c in counts.tolist()])


@pytest.mark.parametrize("n, p", [(2, 1.9), (50, 1.2), (200, 0.5), (5000, 4.0)])
def test_block_sampler_matches_default_rng_reference(n, p):
    # blocks of 7 divide neither a seed slice nor the index ranges; the census
    # block holds 8192 realizations at N = 2 and three at N = 5000
    for seed in _SEEDS:
        spec = GraphSpec(n, p, seed)
        for rs in _INDEX_RANGES:
            want = [reference_pair_indices(n, p, seed, r) for r in rs]
            for block in (7, max(1, _BLOCK_VERTICES // n)):
                idx, counts = _blocks(spec, rs, block)
                assert np.array_equal(idx, np.concatenate(want))
                assert counts == [x.size for x in want]
            for r in (rs[0], rs[-1]):
                assert np.array_equal(sample_pair_indices(spec, r), want[r - rs[0]])


def test_block_sampler_continues_short_batches(monkeypatch):
    # batch size decides only when drawing stops: with one gap per batch every
    # realization takes the continuation branch and draws the same pairs
    spec = GraphSpec(200, 0.5, 20260809)
    rs = range(2**32 - 30, 2**32 + 30)
    want = [reference_pair_indices(200, 0.5, 20260809, r) for r in rs]
    monkeypatch.setattr(ensemble, "_batch_size", lambda q, total: 1)
    idx, counts = _blocks(spec, rs, 20)
    assert np.array_equal(idx, np.concatenate(want))
    assert counts == [x.size for x in want]
    assert np.array_equal(sample_pair_indices(spec, rs[0]), want[0])
    assert _blocks(spec, range(0), 20)[1] == []


def test_block_sampler_frees_each_walk_before_its_yield(monkeypatch):
    # a block's slot stack must not stay alive in the generator while the census
    # decomposes the block; at 81 realizations of N = 200 it is about 70 KiB
    spec = GraphSpec(200, 0.5, 20260809)
    rs = range(250)
    want = list(sample_pair_index_blocks(spec, rs, 81))
    real_slots, stacks = ensemble._slots, []

    def slots(spec, words):
        s, total = real_slots(spec, words)
        stacks.append(weakref.ref(s))
        return s, total

    monkeypatch.setattr(ensemble, "_slots", slots)
    blocks = sample_pair_index_blocks(spec, rs, 81)
    for k, (want_idx, want_counts) in enumerate(want):
        idx, counts = next(blocks)
        gc.collect()
        assert len(stacks) == k + 1 and stacks[-1]() is None
        assert np.array_equal(idx, want_idx) and np.array_equal(counts, want_counts)
        held = weakref.ref(idx)
        del idx  # nor does the generator keep what it yielded
        assert held() is None
    assert next(blocks, None) is None


_THIRD = 1 / 3  # numpy's geometric draws by inversion below this q, by search from it on


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    q=st.one_of(
        st.floats(1e-4, math.nextafter(_THIRD, 0)),
        st.sampled_from([math.nextafter(_THIRD, 0), _THIRD]),
        st.floats(_THIRD, 0.6),
    ),
    block=st.integers(1, 81),
    start=st.one_of(st.integers(0, 2**12), st.integers(2**64 - 2**12, 2**64 - 600)),
    count=st.integers(0, 600),
    batch=st.one_of(st.none(), st.integers(1, 3)),
)
@example(n=300, q=0.01, block=81, start=1000, count=600, batch=None)
@example(n=8, q=math.nextafter(_THIRD, 0), block=3, start=2**32 - 300, count=600, batch=2)
@example(n=3, q=_THIRD, block=1, start=250, count=300, batch=None)
@example(n=12, q=0.45, block=20, start=7, count=300, batch=1)
def test_block_sampler_matches_geometric_oracle(n, q, block, start, count, batch):
    # the p whose p/N is q, as the sampler divides it
    p = next((c for c in (q * n, math.nextafter(q * n, 0), math.nextafter(q * n, n)) if c / n == q), None)
    assume(p is not None and 0 < p < n)
    spec = GraphSpec(n, p, 20260809)
    total = n * (n - 1) // 2
    # about 2e5 gaps, or 1e4 continued batches, per side
    cost = total * q + 1 if batch is None else (total * q / batch + 1) * 20
    rs = range(start, start + min(count, int(2e5 / cost)))
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # walks continue several times
            mp.setattr(ensemble, "_batch_size", lambda q, total: batch)
        want = list(geometric_pair_index_blocks(spec, rs, block, ensemble._batch_size(q, total)))
        got = list(sample_pair_index_blocks(spec, rs, block))
    assert len(got) == len(want)
    for (idx, counts), (want_idx, want_counts) in zip(got, want):
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("q", [1e-12, 2.5e-5, 9e-5, 0.01, 0.3, math.nextafter(_THIRD, 0)])
def test_geometric_is_a_rounded_up_exponential(q):
    # the block sampler's gaps rest on this identity of the installed numpy: if a
    # release changes geometric, this fails instead of every stream moving
    a, b = np.random.default_rng([7, 11]), np.random.default_rng([7, 11])
    gaps = np.ceil(b.standard_exponential(100_000) / -math.log1p(-q))
    assert np.array_equal(gaps, a.geometric(q, 100_000))
    assert a.bit_generator.state == b.bit_generator.state


def test_tiny_p_gives_edgeless_graphs():
    # numpy's gaps reach 2**63 - 1 or about 1e18 here, and int64 slot sums wrapped;
    # at N = 2**27 + 1, float(total + 1) rounds down to total, so a clip there
    # would leave slot total - 1
    for spec, rs, block in [(GraphSpec(200, 1e-17, 20260809), range(50), 20),
                            (GraphSpec(10_000, 1e-15, 20260809), range(2), 1)]:
        for idx, counts in sample_pair_index_blocks(spec, rs, block):
            assert idx.size == 0 and not counts.any()
    for seed in (1, 20260809):
        assert sample_pair_indices(GraphSpec(2**27 + 1, 1e-12, seed), 0).size == 0


def test_samplers_reject_indices_beyond_64_bits():
    spec = GraphSpec(50, 0.5, 3)
    for rs in (range(2**64 - 2, 2**64 + 1), range(-1, 3)):
        with pytest.raises(ValueError):
            list(sample_pair_index_blocks(spec, rs, 7))
    for r in (2**64, 2**70, -1):
        with pytest.raises(ValueError):
            sample_pair_indices(spec, r)
        with pytest.raises(ValueError):
            sample_graph(spec, r)


def test_mean_edge_count():
    # E[M] = C(N,2) * p/N = (N-1) p / 2 with binomial fluctuations
    n, p, reps = 1000, 0.5, 10_000
    spec = GraphSpec(n, p, 2024)
    counts = np.array([sample_graph(spec, r).n_edges for r in range(reps)])
    expect = (n - 1) * p / 2.0
    total = n * (n - 1) // 2
    q = p / n
    se = math.sqrt(total * q * (1 - q) / reps)
    assert abs(counts.mean() - expect) < 3 * se


@pytest.mark.parametrize("p", [2.0, 0.8])
def test_small_ensemble_exhaustive_distribution(p):
    # every labeled graph on 4 vertices appears with its product probability
    n, reps = 4, 40_000
    q = p / n
    spec = GraphSpec(n, p, 31415)
    counts = {}
    for r in range(reps):
        key = tuple(map(tuple, sample_graph(spec, r).edges.tolist()))
        counts[key] = counts.get(key, 0) + 1
    for edges, m in all_graphs(n):
        want = graph_probability(n, m, q)
        got = counts.get(edges, 0) / reps
        se = math.sqrt(want * (1 - want) / reps)
        assert abs(got - want) < 4 * se, (edges, got, want)


def test_degree_sequence_hand_cases():
    assert degree_sequence(Graph(4, np.empty((0, 2)))).tolist() == [0, 0, 0, 0]
    assert degree_sequence(Graph(3, [(0, 1)])).tolist() == [1, 1, 0]


def test_degree_sum_equals_twice_edges():
    spec = GraphSpec(800, 0.9, 5)
    for r in range(5):
        g = sample_graph(spec, r)
        assert int(degree_sequence(g).sum()) == 2 * g.n_edges


def test_degree_moments_match_binomial():
    # degrees are Binomial(N-1, p/N): mean (N-1)p/N, variance ~ p
    n, p, reps = 10_000, 0.5, 20
    spec = GraphSpec(n, p, 77)
    means, variances = [], []
    for r in range(reps):
        deg = degree_sequence(sample_graph(spec, r)).astype(float)
        means.append(deg.mean())
        variances.append(deg.var())
    q = p / n
    mean_true = (n - 1) * q
    var_true = (n - 1) * q * (1 - q)
    se_mean = math.sqrt(2 * (n * (n - 1) // 2) * q * (1 - q) / n**2 / reps)
    assert abs(np.mean(means) - mean_true) < 3 * se_mean
    # Poisson-like degrees: var of the per-run variance is ~ (mu4 - var^2)/n
    se_var = math.sqrt(2.5 / n / reps)
    assert abs(np.mean(variances) - var_true) < 4 * se_var


@given(
    n=st.integers(min_value=2, max_value=400),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_pair_index_bijection(n, data):
    total = n * (n - 1) // 2
    k = data.draw(st.integers(min_value=0, max_value=total - 1))
    pair = index_pair(np.array([k]), n)[0]
    i, j = int(pair[0]), int(pair[1])
    assert 0 <= i < j < n
    assert int(pair_index(i, j, n)) == k


def test_pair_index_boundaries_large_n():
    n = 100_000
    total = n * (n - 1) // 2
    ks = np.array([0, 1, n - 2, n - 1, total - 1, total - n // 2])
    pairs = index_pair(ks, n)
    back = pair_index(pairs[:, 0], pairs[:, 1], n)
    assert np.array_equal(back, ks)
    assert np.array_equal(index_pair(np.array([total - 1]), n)[0], [n - 2, n - 1])
    # an index past either end is refused, where the integer fixup would never end
    for m, bad in ((n, [0, total]), (n, [-1]), (10, [45])):
        with pytest.raises(ValueError, match="pair index outside"), np.errstate(invalid="ignore"):
            index_pair(np.array(bad), m)


@pytest.mark.parametrize("n", [3_037_000_499, 2**26 + 1])
def test_index_pair_round_trip_where_the_float_estimate_misses(n, monkeypatch):
    # n = 3,037,000,499 is the largest N whose int64 keys i*N + j fit (the edge-list
    # bound); there the float row estimate misses near row boundaries and the integer
    # fixup must run.  At 2**26 + 1 it is exact at every row boundary.
    rng = np.random.default_rng(n)
    total = n * (n - 1) // 2
    rows = np.concatenate([np.arange(1000), rng.integers(0, n - 1, 1000), n - 2 - np.arange(1000)])
    starts = ensemble._row_offset(rows, n)
    ks = np.concatenate([rng.integers(0, total, 10_000), starts, starts[starts > 0] - 1, [total - 1]])
    calls = []
    real = ensemble._row_offset
    monkeypatch.setattr(ensemble, "_row_offset", lambda i, n: calls.append(1) or real(i, n))
    pairs = index_pair(ks, n)
    assert np.all((0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1]) & (pairs[:, 1] < n))
    assert np.array_equal(pair_index(pairs[:, 0], pairs[:, 1], n), ks)
    if n == 3_037_000_499:
        assert len(calls) > 1  # one _row_offset call checks the estimate; the fixup makes more
        calls.clear()
        index_pair(ks[:10_000], n)  # random k alone pass the exactness test
        assert len(calls) == 1


# n = 47,453,133 is the largest N with (2N - 1)^2 < 2^53, where index_pair decodes in
# float64; above it the decode runs in int64
@given(n=st.integers(min_value=2, max_value=2**26), data=st.data())
@settings(max_examples=200, deadline=None)
@example(n=2, data=None)
@example(n=47_453_133, data=None)
@example(n=47_453_134, data=None)
@example(n=2**26, data=None)
def test_index_pair_matches_the_isqrt_oracle_at_row_starts(n, data):
    total = n * (n - 1) // 2
    rows = [0, n - 2] if data is None else [data.draw(st.integers(0, n - 2)) for _ in range(4)]
    starts = [i * (2 * n - 1 - i) // 2 for i in rows]
    ks = sorted({k for s in starts for k in (s - 1, s, s + 1) if 0 <= k < total})
    assert index_pair(np.array(ks), n).tolist() == [list(isqrt_index_pair(k, n)) for k in ks]
    for bad in (-1, total):
        with pytest.raises(ValueError, match="pair index outside"), np.errstate(invalid="ignore"):
            index_pair(np.array([0, bad]), n)


# sha256 of sample_graph(GraphSpec(n, p, seed), r).edges.tobytes(), taken before the lone
# draw had its own seed-word memo, row count and float pair decode: q = p/N below and
# from 1/3 on, tiny p, N = 2, both sides of a 256-index seed slice, the last index, and
# N on both sides of the float decode's bound
_GRAPH_DIGESTS = [
    ((1000, 0.5, 20260809, 0), 260, "154e3cb00ee8763bcd03ebee3a0cee8978dbaa37bcfcfcc83c0f03d4d3b3b788"),
    ((20000, 0.5, 20260809, 7), 5025, "848ec6ec1e1ad2fd29ac2bd02745ebf6947cbaf70f4860f636abbe7b6c9e3c39"),
    ((6, 2.5, 4242, 3), 8, "91ff791452171b06d1defe83a8489ddad4d8af2d4cf8f309ad446163c29fece9"),
    ((3, 1.5, 1, 12), 2, "07cb712f20f3e2427b6b2832a4a022963b0de21c4708c95a5fca7a228508e42b"),
    ((10000, 1e-15, 20260809, 1), 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((2**27 + 1, 1e-12, 1, 0), 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((2, 0.5, 11, 1), 1, "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db"),
    ((2, 0.5, 11, 2), 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((200, 0.5, 20260809, 255), 50, "e5af91ada41ba0ebac8216a18792fcc3e779b0308bdcf5ee5701332d2cb25554"),
    ((200, 0.5, 20260809, 256), 46, "afd3666e68677cddf82bab94a484ab87181003437dfe8a8489c6fbffb3cff5bf"),
    ((200, 3.0, 2**64 - 1, 2**64 - 1), 331, "90823bf8cae9d81492f77f8a3f36fa815016b98d1f72237d37baab8896fb005e"),
    ((5, 2.0, 2**64 - 1, 2**64 - 1), 5, "acce2df16512b784b8ec65928eee000237ab5b8fdaf1034ce3c1d6da72137ede"),
    ((100000, 0.5, 3, 2), 24659, "f2f4e032b6c1bd1758c33d6520a22c40910524bd91158a5cfeef97919e6bc8d7"),
    ((5 * 10**7, 1e-6, 3, 0), 30, "1a9a5cdcc1e62c5b9536cc78416225a3339e330a758bdd13eac6c3dafad3d89f"),
    ((10**9, 1e-7, 20260809, 256), 46, "b4edbd405d7dec022ec4267e354035d97d07f8b02710a1a765543110eba03f44"),
]


@pytest.mark.parametrize("case, m, digest", _GRAPH_DIGESTS)
def test_sampled_graphs_are_pinned(case, m, digest):
    n, p, seed, r = case
    g = sample_graph(GraphSpec(n, p, seed), r)
    assert g.n_edges == m
    assert hashlib.sha256(g.edges.tobytes()).hexdigest() == digest


def test_a_lone_draw_is_its_part_of_the_block_path_across_a_seed_slice():
    # lone draws take their seed words from the 256-index slice that holds them, in
    # any order; the block path hashes its own ranges, here starting mid-slice
    for spec in (GraphSpec(200, 0.5, 20260809), GraphSpec(7, 2.5, 2**64 - 1)):
        for rs in (range(250, 262), range(2**32 - 4, 2**32 + 4), range(2**64 - 6, 2**64)):
            for block in (1, 5):
                idx, counts = _blocks(spec, rs, block)
                want = np.split(idx, np.cumsum(counts)[:-1])
                for r in [*reversed(rs), *rs]:
                    assert np.array_equal(sample_pair_indices(spec, r), want[r - rs[0]])
                    assert np.array_equal(sample_graph(spec, r).edges,
                                          index_pair(want[r - rs[0]], spec.n_vertices))


def test_sampled_graphs_canonical():
    spec = GraphSpec(200, 3.0, 12)
    for r in range(10):
        g = sample_graph(spec, r)
        e = g.edges
        assert np.all(e[:, 0] < e[:, 1])
        if e.shape[0] > 1:
            keys = e[:, 0] * g.n + e[:, 1]
            assert np.all(np.diff(keys) > 0)
        assert e.min(initial=0) >= 0 and e.max(initial=0) < g.n


def test_edge_list_round_trip(tmp_path):
    spec = GraphSpec(150, 1.5, 8)
    g = sample_graph(spec, 0)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert read_edge_list(path) == g
    # exact wire format for a hand case
    buf = io.StringIO()
    write_edge_list(Graph(3, [(0, 1), (1, 2)]), buf)
    assert buf.getvalue() == "3 2\n0 1\n1 2\n"
    assert read_edge_list(io.StringIO("2 0\n")) == Graph(2, np.empty((0, 2)))


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("3 2\n0 1\n"))
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO(""))
    # headers are checked before anything is sized from them: "5 99999999999999"
    # once asked np.empty for 1.42 PiB
    for text in ("5 99999999999999\n", "5 11\n", "5 -1\n", "0 0\n", "3037000500 0\n",
                 "4 1\n0 9223372036854775808\n", "4 1\n0 1 2\n", "4 1\n0 1\n1 2\n",
                 "4 1\n1 0\n", "4 1\n-1 2\n"):
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO(text))
    assert read_edge_list(io.StringIO("3037000499 1\n\n  0 3037000498 \n\n")).n_edges == 1


_edge_tokens = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["99999999999999", str(10**400), "9" * 5000, "1_0", "0x1", "1.0"]),
    st.text(max_size=4),
)
_edge_lines = st.lists(_edge_tokens, max_size=3).map(" ".join)


@given(header=_edge_lines, body=st.lists(_edge_lines, max_size=8))
@settings(max_examples=300, deadline=None)
def test_read_edge_list_fuzz_raises_only_value_error(header, body):
    try:
        g = read_edge_list(io.StringIO("\n".join([header] + body)))
    except ValueError:
        return
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert read_edge_list(io.StringIO(buf.getvalue())) == g


def test_realization_index_validation():
    spec = GraphSpec(10, 0.5, 0)
    with pytest.raises(ValueError):
        sample_graph(spec, -1)
    with pytest.raises(ValueError):
        sample_graph(spec, 0.5)
