import re
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from squadfountain import cli
from squadfountain.codec import (
    DecoderState,
    SourceBlock,
    SymbolBatch,
    codec_trial,
    csr_ptr,
    decode_with_doping,
    distinct_rows,
    dope_degree_two,
    encode_symbols,
    init_decoder,
    process_ripple_symbol,
    symbols_from_rows,
)
from squadfountain.degrees import (
    DegreeDistribution,
    ideal_soliton,
    robust_soliton,
    sample_degrees,
)
from squadfountain.errors import (
    DopingUnavailableError,
    InvalidParameterError,
    MalformedInputError,
    StalledDecoderError,
)
from squadfountain.network import (
    NetworkConfig,
    build_network,
    collect,
    simulate_collection_with_doping,
)


def make_block(k, payload_len=4, seed=0):
    return SourceBlock.random(k, payload_len, np.random.default_rng(seed))


def xor_of(block, indices):
    """The XOR of the given packets, one big integer at a time."""
    acc = 0
    for i in indices:
        acc ^= int.from_bytes(block.packet(i), "big")
    return acc.to_bytes(block.payload_len, "big")


def batch_of(block, *rows):
    """The coded symbols over the given source rows, in order, as one batch."""
    ptr = np.cumsum([0, *map(len, rows)])
    return symbols_from_rows(block, ptr, np.array([s for row in rows for s in row], np.int64))


class _FixedPick:
    """rng stub whose integers() always lands on a chosen position."""

    def __init__(self, position=0):
        self.position = position

    def integers(self, n):
        return min(self.position, n - 1)


class TestSourceBlock:
    def test_views_of_one_buffer(self):
        raw = np.random.default_rng(7).integers(0, 256, size=(5, 3), dtype=np.uint8)
        block = SourceBlock.random(5, 3, np.random.default_rng(7))
        assert block.data == raw.tobytes()
        assert not block.words.flags.writeable
        assert block.packets == tuple(r.tobytes() for r in raw)
        assert [block.packet(i) for i in range(1, 6)] == list(block.packets)

    @pytest.mark.parametrize("k, payload_len, size", [(0, 4, 0), (3, 0, 0), (3, 4, 11)])
    def test_malformed_data_rejected(self, k, payload_len, size):
        with pytest.raises(InvalidParameterError):
            SourceBlock(k=k, payload_len=payload_len, data=bytes(size))


def point_mass(k: int, d: int) -> DegreeDistribution:
    """Every symbol of degree ``d``."""
    return DegreeDistribution.from_weights(np.eye(k + 1)[d])


class TestEncoding:
    def test_degree_one_copies_packet(self):
        block = make_block(10)
        dist = point_mass(10, 1)
        (sym,) = encode_symbols(block, dist, 1, np.random.default_rng(1))
        assert sym.degree == 1
        assert sym.payload == block.packet(sym.neighbors[0])

    def test_full_degree_xors_everything(self):
        block = make_block(8)
        dist = point_mass(8, 8)
        (sym,) = encode_symbols(block, dist, 1, np.random.default_rng(2))
        assert sym.neighbors == tuple(range(1, 9))
        assert sym.payload == xor_of(block, range(1, 9))

    def test_equal_neighbor_sets_cancel(self):
        block = make_block(12)
        dist = point_mass(12, 12)
        rng = np.random.default_rng(3)
        a, b = encode_symbols(block, dist, 2, rng)
        assert a.neighbors == b.neighbors
        xor = bytes(x ^ y for x, y in zip(a.payload, b.payload))
        assert xor == bytes(block.payload_len)

    def test_dist_block_size_mismatch(self):
        with pytest.raises(InvalidParameterError):
            encode_symbols(make_block(5), ideal_soliton(6), 1, np.random.default_rng(0))

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            encode_symbols(make_block(5), ideal_soliton(5), -1, np.random.default_rng(0))


@st.composite
def encodings(draw, max_k=24):
    """A small block's distribution (IS, RS or a point mass), n, a payload
    length (every word width the encoder XORs in, and odd lengths) and a
    seed."""
    k = draw(st.integers(min_value=2, max_value=max_k))
    kind = draw(st.sampled_from(["is", "rs", "point"]))
    if kind == "is":
        dist = ideal_soliton(k)
    elif kind == "rs":
        dist = robust_soliton(k, 0.1, 0.5)
    else:
        dist = point_mass(k, draw(st.integers(1, k)))
    n = draw(st.integers(min_value=0, max_value=2 * k))
    payload_len = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 32, 33]))
    return dist, n, payload_len, draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestBatchEncoder:
    @given(case=encodings())
    @settings(max_examples=100, deadline=None)
    def test_rows_payloads_and_degrees(self, case):
        dist, n, payload_len, seed = case
        block = make_block(dist.k, payload_len, seed=seed % 1000)
        symbols = encode_symbols(block, dist, n, np.random.default_rng(seed))
        assert len(symbols) == n
        for sym in symbols:
            assert list(sym.neighbors) == sorted(set(sym.neighbors))
            assert 1 <= sym.neighbors[0] and sym.neighbors[-1] <= dist.k
            assert sym.payload == xor_of(block, sym.neighbors)
        # the degrees are the stream's first draw
        degrees = sample_degrees(dist, np.random.default_rng(seed), n)
        assert [sym.degree for sym in symbols] == degrees.tolist()


def reference_distinct_rows(rng, sizes, m):
    """The subset sampler before its re-sorts became stable and its keys
    bit-packed, kept as the reference it must match draw for draw: keys
    ``row * m + value`` taken from an owner array over all rows, every sort
    a full one, and the large rows merged in by one more sort."""
    n = len(sizes)
    owner = np.repeat(np.arange(n, dtype=np.int64), sizes)
    large = sizes * 4 > m
    keys = owner[~large[owner]] * m
    keys += rng.integers(0, m, size=len(keys))
    while True:
        keys.sort()
        dup = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        if not dup.size:
            break
        keys[dup] += rng.integers(0, m, size=dup.size) - keys[dup] % m
    parts = [keys]
    for i in np.flatnonzero(large):
        parts.append(i * m + rng.permutation(m)[: sizes[i]])
    if len(parts) > 1:
        keys = np.sort(np.concatenate(parts))
    return csr_ptr(sizes), keys % m


class TestDistinctRows:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 13, 40, 1000])
    def test_matches_reference_draw_for_draw(self, m):
        # row sizes: any up to m (rows above m/4 and of size m), the largest
        # small rows (the most duplicates), empty and full rows mixed with
        # the m/4 boundary, and Ideal Soliton degrees as the encoder draws
        for seed in range(48):
            g = np.random.default_rng(seed)
            kind = seed % 4
            n = int(g.integers(0, 1000 if kind == 3 else 60))
            if kind == 0:
                sizes = g.integers(1, m + 1, size=n)
            elif kind == 1:
                sizes = np.full(n, max(1, m // 4))
            elif kind == 2:
                sizes = g.choice([0, 1, m // 4, m // 4 + 1, m], size=n)
            else:
                sizes = sample_degrees(ideal_soliton(m), g, n) if m > 1 else np.ones(n, int)
            sizes = sizes.astype(np.int64)
            new, old = cli.trial_rng(seed, m), cli.trial_rng(seed, m)
            ptr, rows = distinct_rows(new, sizes, m)
            want_ptr, want_rows = reference_distinct_rows(old, sizes, m)
            assert ptr.tolist() == want_ptr.tolist()
            assert rows.tolist() == want_rows.tolist()
            assert new.integers(2**63, size=4).tolist() == old.integers(2**63, size=4).tolist()
            for lo, hi in zip(ptr[:-1], ptr[1:]):
                row = rows[lo:hi]
                assert np.all(np.diff(row) > 0) and (hi == lo or 0 <= row[0] <= row[-1] < m)


class CountingStream:
    """A generator that counts the draws the subset sampler makes from it."""

    def __init__(self, rng):
        self.rng, self.integer_draws = rng, 0

    def integers(self, *args, **kw):
        self.integer_draws += 1
        return self.rng.integers(*args, **kw)

    def permutation(self, m):
        return self.rng.permutation(m)


class TestDistinctRowsStreams:
    @pytest.mark.parametrize("seed", range(12))
    def test_each_block_is_its_own_one_stream_call(self, seed):
        # m = 12: rows of 1..3 draw with replacement, so a block of 60 or
        # more rows, most of size 3, redraws; rows of 4..12 take permutation
        # prefixes
        m, g = 12, np.random.default_rng(seed)
        count = int(g.integers(60, 120))  # rows per stream
        sizes = g.choice([1, 2, 3, 3, 3, 4, 7, 12], size=5 * count)
        streams = [CountingStream(cli.trial_rng(seed, j)) for j in range(5)]
        ptr, rows = distinct_rows(streams, sizes, m, count)
        first = np.arange(6) * count
        for j, (lo, hi) in enumerate(zip(first, first[1:])):
            assert streams[j].integer_draws >= 2  # the small rows' draw, then a redraw
            alone = cli.trial_rng(seed, j)
            want_ptr, want_rows = distinct_rows(alone, sizes[lo:hi], m)
            assert (ptr[lo:hi + 1] - ptr[lo]).tolist() == want_ptr.tolist()
            assert rows[ptr[lo]:ptr[hi]].tolist() == want_rows.tolist()
            # and the stream is left where the one-stream call leaves it
            assert streams[j].rng.integers(2**63, size=2).tolist() == \
                alone.integers(2**63, size=2).tolist()
        assert np.any(sizes * 4 > m)


def assert_read_only(batch):
    for arr in (batch.ptr, batch.neighbors, batch.payloads):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        batch.ptr[0] = 1
    if len(batch):
        with pytest.raises(ValueError):
            batch.payloads[0, 0] ^= 1


class TestSymbolBatch:
    @given(case=encodings(max_k=40))
    @settings(max_examples=100, deadline=None)
    def test_batch_decodes_like_its_symbols(self, case):
        dist, n, payload_len, seed = case
        block = make_block(dist.k, payload_len, seed=seed % 1000)
        batch = encode_symbols(block, dist, n, np.random.default_rng(seed))
        symbols = list(batch)
        assert list(batch[1:-1]) == symbols[1:-1]
        assert list(batch[-1:]) == symbols[-1:]
        for view in (batch, batch[1:], batch[:0]):
            assert_read_only(view)
        # the same rows rebuilt from their symbols decode alike
        rebuilt = batch_of(block, *(sym.neighbors for sym in symbols))
        assert list(rebuilt) == symbols
        a, b = (
            decode_with_doping(block, given, np.random.default_rng(seed))
            for given in (batch, rebuilt)
        )
        assert len(batch) == len(rebuilt) == n
        for name in ("k_d", "doped", "dope_levels", "interdoping_yields",
                     "ripple_trajectory", "defected_total", "history", "recovered"):
            assert getattr(a, name) == getattr(b, name), name
        assert a.recovered == dict(enumerate(block.packets, start=1))

    def test_strided_slice_rejected(self):
        batch = encode_symbols(make_block(6), ideal_soliton(6), 3, np.random.default_rng(0))
        for index in (slice(None, None, 2), slice(None, None, -1)):
            with pytest.raises(ValueError):
                batch[index]

    def test_integer_index_rejected(self):
        # a batch is read by iteration and step-one slices; one symbol is a
        # one-row slice
        batch = encode_symbols(make_block(6), ideal_soliton(6), 3, np.random.default_rng(0))
        for index in (0, 2, -1, 3, -4):
            with pytest.raises(InvalidParameterError, match="step-one slices only"):
                batch[index]
        assert list(batch[2:3]) == list(batch)[2:]


class TestGoldenStream:
    def test_first_codec_trial_pinned(self):
        # trial 0 of decode-sim --seed 1 --k 1000 --payload-len 32 under IS:
        # any change to the codec's random stream moves these numbers
        rng = cli.trial_rng(1, 0)
        block = SourceBlock.random(1000, 32, rng)
        symbols = encode_symbols(block, ideal_soliton(1000), 1000, rng)
        assert sum(sym.degree for sym in symbols) == 7145
        assert [sym.neighbors for sym in symbols[:4]] == [
            (81, 443), (513, 555, 728), (139, 177, 579, 729), (309, 657)
        ]
        state = decode_with_doping(block, symbols, rng)
        assert state.k_d == 13
        assert tuple(state.doped[:5]) == (145, 700, 735, 256, 783)

    def test_codec_trial_draws_the_pinned_layout(self):
        # the layout written out above, the oracle: block, symbols, dopings
        block, symbols, rng = codec_trial(1, 0, ideal_soliton(1000), 1000, 32)
        want_rng = cli.trial_rng(1, 0)
        want = SourceBlock.random(1000, 32, want_rng)
        assert block == want
        want_symbols = encode_symbols(want, ideal_soliton(1000), 1000, want_rng)
        for rows in ("ptr", "neighbors", "payloads"):
            assert np.array_equal(getattr(symbols, rows), getattr(want_symbols, rows))
        state = decode_with_doping(block, symbols, rng)
        assert state.k_d == 13
        assert tuple(state.doped[:5]) == (145, 700, 735, 256, 783)

    def test_first_rs_trial_pinned(self):
        # trial 0 of decode-sim --seed 1 --k 1000 --dist rs
        rng = cli.trial_rng(1, 0)
        block = SourceBlock.random(1000, 32, rng)
        state = decode_with_doping(
            block, encode_symbols(block, robust_soliton(1000, 0.1, 0.5), 1000, rng), rng)
        assert state.k_d == 89
        assert tuple(state.doped[:5]) == (205, 272, 432, 384, 658)
        assert Counter(state.dope_levels) == {2: 89}

    def test_first_network_d2_trial_pinned(self):
        # trial 0 of decode-sim --seed 1 --network --k 1000 --h 200
        # --dissemination d2 --storage-input degree_two_inputs; its dopings
        # reach the fallback to degree three
        cfg = NetworkConfig(k=1000, h=200, dissemination="degree_two_combining",
                            storage_combine_input="degree_two_inputs")
        rng = cli.trial_rng(1, 0)
        state, _ = simulate_collection_with_doping(build_network(cfg, rng), 1, 1000, rng)
        assert state.k_d == 213
        assert tuple(state.doped[:5]) == (727, 808, 242, 457, 660)
        assert Counter(state.dope_levels) == {2: 204, 3: 9}


class TestTrialRngKey:
    @pytest.mark.parametrize("seed, stream", [
        (1, 2**63), (1, 2**63 | 5), (1, 2**63 | 1 << 32 | 7), (5, 2**64 - 1),
        (2**64 - 1, 0), (2**64 - 2, 2**63 + 3), (2**63 + 1, 1),
    ])
    def test_key_reads_back_unchanged(self, seed, stream):
        key = cli.trial_rng(seed, stream).bit_generator.state["state"]["key"]
        assert key.tolist() == [seed, stream]

    def test_low_bits_above_2_63_draw_apart(self):
        draws = {cli.trial_rng(1, 2**63 | t).integers(2**62) for t in range(4)}
        assert len(draws) == 4

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_outside_two_words_rejected(self, seed, stream):
        with pytest.raises(InvalidParameterError, match="outside 0..2\\*\\*64-1"):
            cli.trial_rng(seed, stream)


class TestInitDecoder:
    def test_degree_one_seeds_ripple(self):
        block = make_block(5)
        state = init_decoder(5, batch_of(block, (3,)), 4)
        assert list(state.ripple) == [3]

    def test_no_degree_one_means_stalled(self):
        block = make_block(5)
        state = init_decoder(5, batch_of(block, (1, 2), (3, 4)), 4)
        assert not state.ripple
        with pytest.raises(StalledDecoderError):
            process_ripple_symbol(state)

    def test_duplicate_degree_one_deduplicated(self):
        block = make_block(5)
        state = init_decoder(5, batch_of(block, (3,), (3,)), 4)
        assert list(state.ripple) == [3]
        assert state.defected_total == 1

    def test_out_of_range_neighbor_rejected(self):
        batch = batch_of(make_block(7), (7,))
        with pytest.raises(MalformedInputError):
            init_decoder(5, batch, 4)

    @pytest.mark.parametrize("payload_len", [3, 5])
    def test_payload_width_mismatch_rejected(self, payload_len):
        # 4-byte payloads: a narrower or wider payload_len would replay
        # the wrong bytes
        block = make_block(5)
        with pytest.raises(MalformedInputError):
            init_decoder(5, batch_of(block, (1,), (1, 2)), payload_len)

    @pytest.mark.parametrize("ptr, neighbors", [
        ([0, 1, 1], [1]),  # empty row
        ([0, 2], [3, 1]),  # unsorted
        ([0, 2], [2, 2]),  # repeated
        ([0, 1], [0]),  # below 1
        ([0, 1], [7]),  # above k
        ([0, 1], [1, 2]),  # pointers stop short of the neighbors
        ([1, 2], [1, 2]),  # pointers start past zero
        ([0, 2, 1, 3], [1, 2, 3]),  # a pointer decreases
    ])
    def test_malformed_row_rejected(self, ptr, neighbors):
        # built directly, so nothing but the decoder checks the rows
        batch = SymbolBatch(ptr, neighbors, np.zeros((len(ptr) - 1, 4), np.uint8))
        with pytest.raises(MalformedInputError, match="symbol|pointers"):
            init_decoder(6, batch, 4)

    @pytest.mark.parametrize("ptr, neighbors, named", [
        ([0, 1, 2, 2], [1, 4], "1 has neighbors [4]"),  # bad row before an empty one
        ([0, 1, 1, 2], [1, 4], "1 has neighbors []"),  # empty row before a bad one
        ([0, 2, 2, 3], [2, 1, 3], "0 has neighbors [2, 1]"),
    ])
    def test_error_names_first_bad_symbol(self, ptr, neighbors, named):
        batch = SymbolBatch(ptr, neighbors, np.zeros((len(ptr) - 1, 4), np.uint8))
        with pytest.raises(MalformedInputError, match=re.escape(f"symbol {named},")):
            init_decoder(3, batch, 4)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_payload_row_count_mismatch_rejected(self, rows):
        # two symbols: one payload row too few, or one too many
        batch = SymbolBatch([0, 1, 3], [1, 1, 2], np.zeros((rows, 4), np.uint8))
        with pytest.raises(MalformedInputError, match="payloads"):
            init_decoder(5, batch, 4)

    def test_repeated_neighbor_rejected_end_to_end(self):
        # the row (2, 2) with its zero payload, read as a degree-two symbol,
        # would end in a finished decode with wrong recovered payloads
        batch = SymbolBatch([0, 2], [2, 2], np.zeros((1, 4), np.uint8))
        with pytest.raises(MalformedInputError, match=r"symbol 0 has neighbors \[2, 2\]"):
            decode_with_doping(make_block(3), batch, np.random.default_rng(0))


class TestDecoderIdEdges:
    """The decoder's rows and adjacency share one id object per value, for
    ids up to max(k + 1, n); decodes at the edges of that range, pinned."""

    @staticmethod
    def decode(block, batch, rng):
        state = decode_with_doping(block, batch, rng)
        assert state.recovered == dict(enumerate(block.packets, start=1))
        return tuple(state.doped), tuple(state.dope_levels), state.defected_total

    @pytest.mark.parametrize("degrees, n, stream, pinned", [
        ({2: 0.6, 3: 0.4}, 70, 20, ((19,), (2,), 51)),
        ({3: 0.5, 4: 0.5}, 60, 30, ((19, 2, 14), (3, 2, 2), 43)),
    ])
    def test_outputs_above_k(self, degrees, n, stream, pinned):
        # n >= 3k outputs: most output ids lie above every source id
        weights = np.zeros(21)
        for d, w in degrees.items():
            weights[d] = w
        rng = cli.trial_rng(27, stream)
        block = SourceBlock.random(20, 8, rng)
        batch = encode_symbols(block, DegreeDistribution.from_weights(weights), n, rng)
        assert self.decode(block, batch, rng) == pinned

    def test_empty_batch(self):
        rng = cli.trial_rng(27, 10)
        block = SourceBlock.random(6, 8, rng)
        assert self.decode(block, batch_of(block), rng) == (
            (2, 3, 4, 6, 5, 1), (0,) * 6, 0)

    def test_one_source(self):
        rng = cli.trial_rng(27, 11)
        block = SourceBlock.random(1, 8, rng)
        assert self.decode(block, batch_of(block), rng) == ((1,), (0,), 0)
        assert self.decode(block, batch_of(block, [1]), rng) == ((), (), 0)
        assert self.decode(block, batch_of(block, [1], [1], [1]), rng) == ((), (), 2)


class TestPeeling:
    def test_degree_two_peel_releases_partner(self):
        block = make_block(6)
        state = init_decoder(6, batch_of(block, (2,), (2, 5)), 4)
        released = process_ripple_symbol(state)
        assert released == 1
        assert list(state.ripple) == [5]
        process_ripple_symbol(state)
        assert state.recovered_payload(5) == block.packet(5)

    def test_degree_three_only_reduces(self):
        block = make_block(6)
        state = init_decoder(6, batch_of(block, (1,), (1, 2, 3)), 4)
        assert process_ripple_symbol(state) == 0
        assert state._count == [0, 2]  # {1} is spent, {1,2,3} keeps 2 and 3

    def test_hand_peeled_three_symbol_chain(self):
        # {1}, {1,2}, {2,3}: decoding 1 releases 2, decoding 2 releases 3
        block = make_block(3)
        state = init_decoder(3, batch_of(block, (1,), (1, 2), (2, 3)), 4)
        steps = 0
        while not state.finished:
            process_ripple_symbol(state)
            steps += 1
        assert steps == 3
        for i in (1, 2, 3):
            assert state.recovered_payload(i) == block.packet(i)

    def test_decoded_count_tracks_steps(self):
        block = make_block(3)
        state = init_decoder(3, batch_of(block, (1,), (1, 2), (2, 3)), 4)
        for expected in (1, 2, 3):
            process_ripple_symbol(state)
            assert len(state.decoded) == expected
            assert len(state.decoded) + len(state.undecoded) == 3


class TestDoping:
    def test_minimal_unlock(self):
        block = make_block(4)
        state = init_decoder(4, batch_of(block, (1, 2)), 4)
        doped = dope_degree_two(state, block.packet, np.random.default_rng(0))
        assert doped in (1, 2)
        assert len(state.ripple) == 1
        assert state.dope_levels == [2]

    def test_uncovered_forced_choice(self):
        # sources 1..6 peel off their own degree-one symbols; 7 is uncovered
        block = make_block(7)
        state = init_decoder(7, batch_of(block, *((i,) for i in range(1, 7))), 4)
        while state.ripple:
            process_ripple_symbol(state)
        assert state.undecoded == [7]
        doped = dope_degree_two(state, block.packet, np.random.default_rng(0))
        assert doped == 7
        assert state.dope_levels == [0]

    def test_release_count_matches_degree_two_membership(self):
        # doped symbol 1 sits in three degree-two outputs: three releases
        block = make_block(6)
        symbols = batch_of(block, (1, 2), (1, 3), (1, 5), (4, 5, 6))
        state = init_decoder(6, symbols, 4)
        doped = dope_degree_two(state, block.packet, _FixedPick(0))
        assert doped == 1  # pairs in output order: (1,2),(1,3),(1,5)
        assert len(state.ripple) == 3
        assert set(state.ripple) == {2, 3, 5}

    def test_draw_is_size_biased_over_lowest_degree_pairs(self):
        # one uniform draw over (output, neighbor) pairs: input 1 sits in
        # three of the three degree-two outputs, so it owns 3 of 6 positions
        block = make_block(6)
        symbols = batch_of(block, (1, 2), (1, 3), (1, 5), (4, 5, 6))

        class _CheckedPick(_FixedPick):
            def integers(self, n):
                assert n == 6
                return super().integers(n)

        doped = []
        for position in range(6):
            state = init_decoder(6, symbols, 4)
            doped.append(dope_degree_two(state, block.packet, _CheckedPick(position)))
            assert state.dope_levels == [2]
        assert doped.count(1) == 3
        assert sorted(doped) == [1, 1, 1, 2, 3, 5]

    def test_fallback_to_degree_three(self):
        block = make_block(5)
        state = init_decoder(5, batch_of(block, (1, 2, 3)), 4)
        dope_degree_two(state, block.packet, np.random.default_rng(4))
        assert state.dope_levels == [3]

    def test_requires_empty_ripple(self):
        block = make_block(4)
        state = init_decoder(4, batch_of(block, (2,)), 4)
        with pytest.raises(InvalidParameterError):
            dope_degree_two(state, block.packet, np.random.default_rng(0))

    def test_oracle_failure_is_wrapped(self):
        block = make_block(4)
        state = init_decoder(4, batch_of(block, (1, 2)), 4)

        def broken(_):
            raise IOError("relay unreachable")

        with pytest.raises(DopingUnavailableError):
            dope_degree_two(state, broken, np.random.default_rng(0))

    @pytest.mark.parametrize("width", [3, 5])
    def test_packet_of_wrong_width_rejected(self, width):
        # a short packet would be zero-padded into recovered, a long one
        # would overflow only at replay
        block = make_block(4)
        state = init_decoder(4, batch_of(block, (1, 2)), 4)
        with pytest.raises(DopingUnavailableError, match=f"{width} bytes"):
            dope_degree_two(state, lambda s: block.packet(s).ljust(width, b"\0")[:width],
                            np.random.default_rng(0))
        assert state.doped == [] and not state.ripple


class SetDecoder:
    """The set-based peeling decoder that ``DecoderState`` replaced, kept as
    the reference it must match.

    Each output keeps a residual neighbour set and a residual payload (its
    payload with every decoded neighbour XORed out), each source a set of
    its outputs, and the ripple (source, payload) pairs.  An output that
    releases is spent, and the ripple is first in, first out.  With
    ``ordered`` a decoded source's outputs are visited in ascending order,
    as ``DecoderState`` visits them; without, in Python's set order.  That
    order decides the ripple's order, and so any state taken between stalls,
    but never a stall state: that is the peeling closure of what was decoded.
    """

    def __init__(self, k, symbols, ordered):
        self.ordered = ordered
        self.undecoded = set(range(1, k + 1))
        self.decoded = {}
        self.ripple = deque()
        self.members = set()
        self.out_nbrs = [set(sym.neighbors) for sym in symbols]
        self.out_payload = [int.from_bytes(sym.payload, "big") for sym in symbols]
        self.adjacency = {}
        for oid, sym in enumerate(symbols):
            for src in sym.neighbors:
                self.adjacency.setdefault(src, set()).add(oid)
        self.doped, self.dope_levels = [], []
        self.defected_total = 0
        for oid, nbrs in enumerate(self.out_nbrs):
            if len(nbrs) == 1:
                self._release(oid)
        self.trajectory = [len(self.ripple)]

    def _release(self, oid):
        nbrs = self.out_nbrs[oid]
        (last,) = nbrs
        nbrs.clear()
        self.adjacency[last].discard(oid)
        if last in self.members or last in self.decoded:
            self.defected_total += 1
        else:
            self.ripple.append((last, self.out_payload[oid]))
            self.members.add(last)

    def absorb(self, src, payload):
        self.decoded[src] = payload
        self.undecoded.discard(src)
        outputs = self.adjacency.pop(src, set())
        for oid in sorted(outputs) if self.ordered else outputs:
            nbrs = self.out_nbrs[oid]
            nbrs.discard(src)
            self.out_payload[oid] ^= payload
            if len(nbrs) == 1:
                self._release(oid)
        self.trajectory.append(len(self.ripple))

    def step(self):
        src, payload = self.ripple.popleft()
        self.members.discard(src)
        self.absorb(src, payload)

    def degree_two(self):
        return {oid for oid, nbrs in enumerate(self.out_nbrs) if len(nbrs) == 2}


def scan_dope_degree_two(state, oracle, rng):
    """The doping rule as a scan over every output of a ``SetDecoder``,
    before the degree-two bucket: the reference the bucket must match draw
    for draw."""
    lowest = None
    for nbrs in state.out_nbrs:
        d = len(nbrs)
        if d >= 2 and (lowest is None or d < lowest):
            lowest = d
            if d == 2:
                break
    if lowest is None:
        candidates = sorted(state.undecoded)
        src = candidates[int(rng.integers(len(candidates)))]
        level = 0
    else:
        holders = [nbrs for nbrs in state.out_nbrs if len(nbrs) == lowest]
        pair = int(rng.integers(len(holders) * lowest))
        src = sorted(holders[pair // lowest])[pair % lowest]
        level = lowest
    state.absorb(src, int.from_bytes(oracle(src), "big"))
    state.doped.append(src)
    state.dope_levels.append(level)
    return src


def reference_decode(block, symbols, seed, ordered):
    """Doped decode by ``SetDecoder`` and the scan; also returns the
    degree-two outputs at every doping."""
    rng = np.random.default_rng(seed)
    ref = SetDecoder(block.k, symbols, ordered)
    buckets = []
    while ref.undecoded:
        if ref.ripple:
            ref.step()
        else:
            buckets.append(ref.degree_two())
            scan_dope_degree_two(ref, block.packet, rng)
    return ref, buckets


def trial_batch(source, k, k_s, seed):
    """A block and k_s symbols over it: encoded under IS or RS, or collected
    from a network of degree-two combining with degree-two inputs."""
    if source == "network_d2":
        cfg = NetworkConfig(k=k, h=15, dissemination="degree_two_combining",
                            storage_combine_input="degree_two_inputs", payload_len=4)
        net = build_network(cfg, np.random.default_rng(seed))
        return net.block, collect(net, 1 + seed % k, k_s)[0]
    dist = ideal_soliton(k) if source == "is" else robust_soliton(k, 0.1, 0.5)
    block = make_block(k, seed=seed)
    return block, encode_symbols(block, dist, k_s, np.random.default_rng(seed))


class TestDegreeTwoBucket:
    @pytest.mark.parametrize("source", ["is", "rs", "network_d2"])
    def test_draws_match_scan_oracle(self, source):
        k = 150
        levels = Counter()
        for seed in range(30):
            # 20% short of k leaves sources uncovered, so polls occur too
            k_s = k if seed % 2 else round(0.8 * k)
            block, symbols = trial_batch(source, k, k_s, seed)
            drained = decode_with_doping(block, symbols, np.random.default_rng(500 + seed))
            rng = np.random.default_rng(500 + seed)
            state = init_decoder(k, symbols, block.payload_len)
            buckets, sizes = [], [len(state.ripple)]
            while not state.finished:
                if state.ripple:
                    process_ripple_symbol(state, rng)
                else:
                    flagged = set(np.flatnonzero(state._degree_two).tolist())
                    assert flagged == {oid for oid, c in enumerate(state._count) if c == 2}
                    buckets.append(flagged)
                    dope_degree_two(state, block.packet, rng)
                sizes.append(len(state.ripple))
            # the drained decode and the step-by-step drive agree step for step
            assert drained.finished
            for name in ("k_d", "doped", "dope_levels", "defected_total", "history",
                         "ripple_trajectory", "interdoping_yields"):
                assert getattr(drained, name) == getattr(state, name), name
            assert drained.ripple_trajectory == tuple(sizes)
            # in ascending visiting order the reference peels step for step
            # alike; in set order it stalls in the same states
            for ordered in (True, False):
                ref, ref_buckets = reference_decode(block, symbols, 500 + seed, ordered)
                assert drained.doped == ref.doped
                assert drained.dope_levels == ref.dope_levels
                assert drained.defected_total == ref.defected_total
                assert buckets == ref_buckets
                assert drained.recovered == {
                    i: p.to_bytes(block.payload_len, "big")
                    for i, p in sorted(ref.decoded.items())
                }
                if ordered:
                    assert drained.ripple_trajectory == tuple(ref.trajectory)
            levels.update(min(level, 3) for level in state.dope_levels)
        # every branch of the rule is drawn: degree two, the fallback to
        # degree three and up, and the uncovered poll
        assert set(levels) == {0, 2, 3}


@st.composite
def decodes(draw):
    """A small encoding with repeated symbols, a seed and a step count to
    stop at midway."""
    dist, n, payload_len, seed = draw(encodings())
    repeats = draw(st.integers(min_value=0, max_value=n))
    return dist, n, payload_len, repeats, seed, draw(st.integers(0, 2 * dist.k))


def assert_peeling_invariant(state, block, symbols):
    """Each output's residual count is the number of its undecoded
    neighbours, and every payload decoded so far is bit-exact."""
    undecoded = set(state.undecoded)
    assert state._count == [len(undecoded.intersection(sym.neighbors)) for sym in symbols]
    assert state.decoded == {
        i: int.from_bytes(block.packet(i), "big") for i in state.decoded
    }
    assert set(state.decoded) == set(range(1, state.k + 1)) - undecoded


class TestDecoderInvariants:
    @given(case=decodes())
    @settings(max_examples=150, deadline=None)
    def test_replay_and_counters(self, case):
        dist, n, payload_len, repeats, seed, midway = case
        k = dist.k
        block = make_block(k, payload_len, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        symbols = encode_symbols(block, dist, n, rng)
        symbols = batch_of(block, *(sym.neighbors for sym in [*symbols, *symbols[:repeats]]))
        state = init_decoder(k, symbols, block.payload_len)
        steps = 0
        while not state.finished:
            if steps == midway:
                # replayed midway; the rest is replayed incrementally below
                assert_peeling_invariant(state, block, symbols)
            if state.ripple:
                process_ripple_symbol(state, rng)
            else:
                dope_degree_two(state, block.packet, rng)
            steps += 1
        assert all(state.recovered_payload(i) == block.packet(i) for i in range(1, k + 1))
        covered = {src for sym in symbols for src in sym.neighbors}
        assert len(state.doped) >= k - len(covered)
        releases = sum(rec.releases for rec in state.history)
        assert releases == k - len(state.doped)
        # every output reaches residual degree one exactly once
        assert releases + state.defected_total == len(symbols)


class TestDecodeWithDoping:
    def test_no_doping_when_peeling_suffices(self):
        block = make_block(6)
        symbols = batch_of(block, (1,), *((i, i + 1) for i in range(1, 6)))
        state = decode_with_doping(block, symbols, np.random.default_rng(0))
        assert state.k_d == 0

    def test_pure_polling_when_no_symbols(self):
        block = make_block(9)
        state = decode_with_doping(block, batch_of(block), np.random.default_rng(1))
        assert state.k_d == 9
        assert set(state.dope_levels) == {0}
        assert all(state.recovered[i] == block.packet(i) for i in range(1, 10))

    def test_bit_exact_recovery(self):
        k = 200
        block = make_block(k, payload_len=32, seed=5)
        rng = np.random.default_rng(6)
        symbols = encode_symbols(block, ideal_soliton(k), k, rng)
        state = decode_with_doping(block, symbols, rng)
        assert all(state.recovered[i] == block.packet(i) for i in range(1, k + 1))

    def test_yields_telescope_to_last_stall(self):
        k = 150
        block = make_block(k, seed=7)
        rng = np.random.default_rng(8)
        symbols = encode_symbols(block, ideal_soliton(k), k, rng)
        state = decode_with_doping(block, symbols, rng)
        assert len(state.interdoping_yields) == state.k_d
        assert sum(state.interdoping_yields) <= k

    def test_returns_the_drained_decoder(self):
        k = 40
        block = make_block(k, seed=11)
        rng = np.random.default_rng(12)
        state = decode_with_doping(block, encode_symbols(block, ideal_soliton(k), k, rng), rng)
        assert isinstance(state, DecoderState)
        assert state.finished and not state.ripple and state.k_d == len(state.doped) > 0

    def test_recovered_only_once_finished(self):
        # a state stepped part way holds some payloads in decoded, and
        # recovered refuses it rather than hand out zeros for the rest
        k = 40
        block = make_block(k, seed=11)
        rng = np.random.default_rng(12)
        state = DecoderState(k, encode_symbols(block, ideal_soliton(k), k, rng), block.payload_len)
        state.drain(block.packet, rng, steps=k // 2)
        assert len(state.decoded) == k // 2
        with pytest.raises(InvalidParameterError, match=f"{k - k // 2} sources are not decoded"):
            state.recovered
        assert "recovered" not in vars(state)  # the refusal caches nothing
        state.drain(block.packet, rng)
        assert state.recovered == dict(enumerate(block.packets, start=1))

    def test_ripple_trajectory_identity(self):
        # per decode step the ripple moves by releases-1; a dope adds releases
        k = 120
        block = make_block(k, seed=9)
        rng = np.random.default_rng(10)
        symbols = encode_symbols(block, ideal_soliton(k), k, rng)
        state = init_decoder(k, symbols, block.payload_len)
        prev = len(state.ripple)
        while not state.finished:
            if state.ripple:
                released = process_ripple_symbol(state)
                assert len(state.ripple) == prev - 1 + released
            else:
                dope_degree_two(state, block.packet, rng)
                released = state.history[-1].releases
                assert len(state.ripple) == prev + released
            prev = len(state.ripple)

    def test_duplicate_column_consistency(self):
        k = 60
        block = make_block(k, seed=11)
        rng = np.random.default_rng(12)
        symbols = encode_symbols(block, ideal_soliton(k), 2 * k, rng)
        # force duplicates
        symbols = batch_of(block, *(sym.neighbors for sym in [*symbols, *symbols[:20]]))
        state = init_decoder(k, symbols, block.payload_len)
        for _ in range(25):
            if state.ripple:
                process_ripple_symbol(state)
            else:
                dope_degree_two(state, block.packet, rng)
        # a duplicate row keeps its twin's residual count
        assert_peeling_invariant(state, block, symbols)
        assert state._count[-20:] == state._count[:20]

    def test_is_beats_rs_mean(self):
        k, trials = 300, 60
        is_dist, rs_dist = ideal_soliton(k), robust_soliton(k, 0.1, 0.5)
        means = {}
        for name, dist in (("is", is_dist), ("rs", rs_dist)):
            kd = []
            for t in range(trials):
                rng = np.random.default_rng(1000 + t)
                block = SourceBlock.random(k, 8, rng)
                kd.append(decode_with_doping(block, encode_symbols(block, dist, k, rng), rng).k_d)
            means[name] = np.mean(kd)
        assert means["is"] < means["rs"]

    def test_release_counts_near_poisson(self):
        # early decode-step releases at 20% surplus track Poisson(lam~1.22)
        k, seeds, horizon = 1000, 30, 200
        dist = ideal_soliton(k)
        counts = Counter()
        for t in range(seeds):
            rng = np.random.default_rng(2000 + t)
            block = SourceBlock.random(k, 8, rng)
            state = init_decoder(k, encode_symbols(block, dist, round(1.2 * k), rng), 8)
            steps = 0
            while steps < horizon and not state.finished:
                if state.ripple:
                    counts[process_ripple_symbol(state)] += 1
                    steps += 1
                else:
                    dope_degree_two(state, block.packet, rng)
        total = sum(counts.values())
        lam = 1.0 + 0.2 * k / (k - horizon / 2)
        support = range(0, 12)
        tv = 0.5 * sum(
            abs(counts.get(r, 0) / total - float(poisson.pmf(r, lam))) for r in support
        )
        assert tv < 0.05


def unreleased(state):
    """Residual degrees of the outputs not yet released (count two or more)."""
    return [c for c in state._count if c >= 2]


class TestUnreleasedHistogram:
    def test_fresh_state_matches_start_law(self):
        # one 1000-output state carries ~0.07 sampling noise on its own;
        # pooling ten keeps the shape comparison inside the 0.05 band
        k = 1000
        pooled = Counter()
        for seed in range(10):
            block = make_block(k, seed=300 + seed)
            rng = np.random.default_rng(400 + seed)
            state = init_decoder(k, encode_symbols(block, ideal_soliton(k), k, rng), 4)
            pooled.update(unreleased(state))
        total = sum(pooled.values())
        start = ideal_soliton(k).pmf.copy()
        start[1] = 0.0
        start /= start.sum()
        tv = 0.5 * sum(
            abs(pooled.get(d, 0.0) / total - start[d]) for d in range(2, k + 1)
        )
        assert tv < 0.05

    def test_single_output(self):
        block = make_block(5)
        state = init_decoder(5, batch_of(block, (1, 2, 3)), 4)
        assert unreleased(state) == [3]

    def test_empty_when_nothing_unreleased(self):
        block = make_block(3)
        state = init_decoder(3, batch_of(block, (2,)), 4)
        assert unreleased(state) == []
