import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squadfountain import costs
from squadfountain import network as nw
from squadfountain.codec import (
    SymbolBatch,
    csr_ptr,
    decode_with_doping,
    distinct_rows,
    dope_degree_two,
    init_decoder,
    process_ripple_symbol,
    symbols_from_rows,
    trial_rng,
)
from squadfountain.degrees import sample_degrees
from squadfountain.errors import ExhaustedNetworkError, InvalidParameterError
from squadfountain.network import NetworkConfig


def build(k=20, h=5, seed=0, **kw):
    cfg = NetworkConfig(k=k, h=h, payload_len=4, **kw)
    return nw.build_network(cfg, np.random.default_rng(seed))


def slot_rows(net, gap):
    """The slots of each node of squad ``gap``, redrawn from the squad's
    stream in ``_plan``'s order: coupon sources, or the degrees' uniforms
    and then ``distinct_rows``.  Sources count from 1, overheard
    transmissions (degree-two inputs) from 0."""
    rng = trial_rng(net._node_key, gap)
    if net.cfg.storage == "coupon":
        return [(src,) for src in rng.integers(1, net.k + 1, size=net.h).tolist()]
    degrees = np.minimum(sample_degrees(net._dist, rng, net.h), net._slot_count)
    ptr, slots = distinct_rows(rng, degrees, net._slot_count)
    if not net._combines_slots:
        slots += 1
    return [tuple(slots[lo:hi].tolist()) for lo, hi in zip(ptr, ptr[1:])]


def planned_on(net, gap, rows):
    """The symbols of squad ``gap``'s nodes planned on the slot ``rows``."""
    ptr = csr_ptr(np.array([len(row) for row in rows], dtype=np.int64))
    slots = np.array([s for row in rows for s in row], dtype=np.int64)
    return (net._plan_rows(gap, ptr, slots) if net._combines_slots else
            symbols_from_rows(net.block, ptr, slots))


def replan_node(net, gap, index, slots):
    """The symbols of squad ``gap`` with node ``index`` planned on ``slots``."""
    rows = slot_rows(net, gap)
    rows[index] = tuple(slots)
    return planned_on(net, gap, rows)


@pytest.fixture
def planning(monkeypatch):
    """What planning draws and makes from here on: the stream of every
    ``trial_rng`` call, and the rows of every ``symbols_from_rows`` pass."""
    streams, passes = [], []
    real_rng, real_rows = nw.trial_rng, nw.symbols_from_rows

    def counted_rng(seed, stream):
        streams.append(stream)
        return real_rng(seed, stream)

    def counted_rows(*args):
        passes.append(len(args[1]) - 1)
        return real_rows(*args)

    monkeypatch.setattr(nw, "trial_rng", counted_rng)
    monkeypatch.setattr(nw, "symbols_from_rows", counted_rows)
    return streams, passes


def stored_symbols(net):
    """Every stored symbol, squad by squad."""
    return [sym for gap in range(1, net.k + 1) for sym in net._plan([gap])]


def xor_of(block, indices):
    """The XOR of the given packets, one big integer at a time."""
    acc = 0
    for i in indices:
        acc ^= int.from_bytes(block.packet(i), "big")
    return acc.to_bytes(block.payload_len, "big")


def covers(left, right):
    """The sorted distinct sources one transmission covers."""
    return tuple(sorted({int(left), int(right)}))


def overheard(sched, gap):
    """What a node between relays gap and gap+1 hears, left relay first, as
    flat ``(round, left, right)`` arrays."""
    rnd, left, right = sched.transmissions([gap, gap % sched.k + 1])
    return np.tile(rnd, 2), left.ravel(), right.ravel()


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidParameterError):
            NetworkConfig(k=2, h=1)
        with pytest.raises(InvalidParameterError):
            NetworkConfig(k=10, h=0.5)
        for h in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                NetworkConfig(k=10, h=h)
        with pytest.raises(InvalidParameterError, match="nodes per squad, not 2.5"):
            NetworkConfig(k=10, h=2.5)
        with pytest.raises(InvalidParameterError):
            NetworkConfig(k=10, h=2, storage="raptor")

    def test_degree_two_inputs_need_combining_dissemination(self):
        with pytest.raises(InvalidParameterError):
            NetworkConfig(
                k=10, h=2,
                dissemination="degree_one",
                storage_combine_input="degree_two_inputs",
            )

    @pytest.mark.parametrize("h", [1e300, 2**62 / 20])
    def test_rejects_more_storage_nodes_than_int64_holds(self, h):
        # checked before any storage node is counted
        with pytest.raises(InvalidParameterError, match=r"k \* h must be below 2\*\*62"):
            NetworkConfig(k=20, h=h)


class TestBuild:
    def test_fixed_small(self):
        net = build(k=7, h=1)
        assert net.total_storage_nodes == 7
        assert all(len(net._plan([g])) == 1 for g in range(1, 8))

    def test_fixed_large_counts_without_materializing(self, planning):
        net = build(k=1000, h=200)
        assert net.total_storage_nodes == 200_000
        assert planning == ([], [])  # building plans nothing

    def test_node_plans_deterministic(self):
        a, b = build(seed=4), build(seed=4)
        for gap, idx in [(1, 0), (5, 3), (20, 4)]:
            assert slot_rows(a, gap)[idx] == slot_rows(b, gap)[idx]
            assert list(a._plan([gap]))[idx] == list(b._plan([gap]))[idx]
        assert list(a._plan([2])) == list(a._plan([2]))

    @pytest.mark.parametrize("mode", nw.DISSEMINATION_MODES)
    def test_owns_the_schedule_its_config_names(self, mode):
        net = build(k=9, h=1, dissemination=mode)
        assert net.schedule.mode == net.cfg.dissemination == mode
        assert net.schedule.k == net.k and net.schedule.verify()

    def test_squads_hold_h_nodes(self):
        net = build(k=5, h=2)
        assert [len(net._plan([gap])) for gap in range(1, 6)] == [2] * 5
        assert len(net._plan([1, 3, 5])) == 6


class TestDegreeOneDissemination:
    def test_k3_full_circulation(self):
        sched = build(k=3, h=1).schedule
        for relay in (1, 2, 3):
            _, left, right = sched.transmissions([relay])
            assert left.shape == (1, 3)
            assert np.array_equal(left, right)
            assert set(left[0].tolist()) == {1, 2, 3}

    def test_k7_ring_forwarding_coverage(self):
        sched = build(k=7, h=1).schedule
        # relay 1 hears neighbors' round-r forwards: distance r both ways
        received = set()
        for r in range(1, 4):
            received |= {(1 - r - 1) % 7 + 1, (1 + r - 1) % 7 + 1}
        assert received == {2, 3, 4, 5, 6, 7}
        assert sched.rounds == 3 and sched.verify()

    def test_shared_node_overhears_both_relays_fully(self):
        sched = build(k=9, h=1).schedule
        _, left, right = overheard(sched, 1)  # squad between relays 1 and 2
        assert np.array_equal(left, right)
        assert set(left.tolist()) == set(range(1, 10))
        assert len(left) == 18  # both relays transmit all nine packets

    @pytest.mark.parametrize("k", [5, 7, 10])
    def test_verify_reads_the_neighbours_transmissions(self, k, monkeypatch):
        sched = build(k=k, h=1).schedule
        assert sched.verify()
        honest = nw.TransmissionSchedule.transmissions

        def drop_one(self, relays):
            # relay 2 resends its own packet where it forwarded source 1 to relay 3
            rnd, left, right = honest(self, relays)
            row, t = np.nonzero((np.asarray(relays)[:, None] == 2) & (left == 1))
            left[row, t] = right[row, t] = 2
            return rnd, left, right

        monkeypatch.setattr(nw.TransmissionSchedule, "transmissions", drop_one)
        assert not sched.verify()


class TestDegreeTwoDissemination:
    def test_k7_round_structure(self):
        sched = build(k=7, h=1, dissemination="degree_two_combining").schedule
        rnd, left, right = sched.transmissions([1])
        assert [covers(a, b) for a, b in zip(left[0], right[0])] == [(1,), (2, 7), (3, 6)]
        assert rnd.tolist() == [1, 2, 3]
        assert sched.rounds == 3

    @pytest.mark.parametrize("k", [5, 7, 10])
    def test_verify_reads_the_neighbours_combinations(self, k, monkeypatch):
        sched = build(k=k, h=1, dissemination="degree_two_combining").schedule
        assert sched.verify()
        honest = nw.TransmissionSchedule.transmissions

        def repeat_own(self, relays):
            # relay 2 resends its own packet in round two
            rnd, left, right = honest(self, relays)
            row = np.asarray(relays) == 2
            left[row, 1], right[row, 1] = 2, 2
            return rnd, left, right

        monkeypatch.setattr(nw.TransmissionSchedule, "transmissions", repeat_own)
        assert not sched.verify()

    def test_k5_two_rounds_bit_exact(self):
        sched = build(k=5, h=1, dissemination="degree_two_combining").schedule
        assert sched.rounds == 2
        assert sched.verify()

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9, 12, 15, 16])
    def test_equivalence_and_round_counts(self, k):
        d1 = nw.TransmissionSchedule("degree_one", k)
        d2 = nw.TransmissionSchedule("degree_two_combining", k)
        assert d1.verify() and d2.verify()
        assert d2.rounds == nw.combining_rounds(k)
        assert d2.transmissions([2])[1].shape == (1, nw.combining_rounds(k)) == (1, d2.per_relay)
        assert d1.transmissions([2])[1].shape == (1, k) == (1, d1.per_relay)

    def test_combining_rounds_closed_form(self):
        for k in range(3, 201):
            assert nw.combining_rounds(k) == math.ceil((k - 1) / 2)


class TestStorageListen:
    @pytest.mark.parametrize("mode", nw.DISSEMINATION_MODES)
    def test_rejects_a_schedule_of_the_other_mode(self, mode):
        net = build(k=9, h=2, dissemination=mode)
        other, = set(nw.DISSEMINATION_MODES) - {mode}
        nw.storage_listen(net, nw.TransmissionSchedule(mode, net.k))
        with pytest.raises(InvalidParameterError, match="does not match"):
            nw.storage_listen(net, nw.TransmissionSchedule(other, net.k))

    def test_coupon_nodes_store_single_packets(self):
        net = build(k=50, h=10, storage="coupon")
        seen = set()
        for gap in range(1, 51):
            for sym in net._plan([gap]):
                assert sym.degree == 1
                assert sym.payload == net.block.packet(sym.neighbors[0])
                seen.add(sym.neighbors[0])
        assert len(seen) > 40  # 500 uniform draws cover most of 50 sources

    def test_coupon_nodes_reject_degree_two_inputs(self):
        # a coupon node stores one source packet, never an overheard slot
        with pytest.raises(InvalidParameterError, match="coupon nodes store one source packet"):
            NetworkConfig(k=21, h=5, storage="coupon", dissemination="degree_two_combining",
                          storage_combine_input="degree_two_inputs")
        net = build(k=21, h=5, storage="coupon", dissemination="degree_two_combining")
        for sym in stored_symbols(net):
            assert sym.degree == 1
            assert sym.payload == net.block.packet(sym.neighbors[0])

    def test_degree_one_inputs_use_planned_sources(self):
        net = build(k=12, h=2)
        sym = list(replan_node(net, 3, 0, (2, 5, 9)))[0]
        assert sym.neighbors == (2, 5, 9)
        assert sym.payload == xor_of(net.block, (2, 5, 9))

    def test_degree_two_inputs_track_symmetric_difference(self):
        net = build(
            k=11, h=2,
            dissemination="degree_two_combining",
            storage_combine_input="degree_two_inputs",
        )
        _, left, right = overheard(net.schedule, 4)
        expected = set(covers(left[1], right[1])) ^ set(covers(left[2], right[2]))
        sym = list(replan_node(net, 4, 0, (1, 2)))[0]
        assert set(sym.neighbors) == expected
        assert sym.payload == xor_of(net.block, sym.neighbors)

    def test_shared_packet_cancels_out(self):
        # left relay round 3 carries {2,6}, right relay round 2 carries {4,6};
        # combining both leaves the degree-two set {2,4}
        net = build(
            k=11, h=2,
            dissemination="degree_two_combining",
            storage_combine_input="degree_two_inputs",
        )
        _, left, right = overheard(net.schedule, 4)
        assert covers(left[2], right[2]) == (2, 6)
        assert covers(left[6], right[6]) == (4, 6)
        sym = list(replan_node(net, 4, 1, (2, 6)))[1]
        assert sym.neighbors == (2, 4)
        assert sym.payload == xor_of(net.block, (2, 4))

    def test_all_planned_symbols_consistent(self):
        net = build(
            k=9, h=3, seed=2,
            dissemination="degree_two_combining",
            storage="is_combining",
            storage_combine_input="degree_two_inputs",
        )
        for sym in stored_symbols(net):
            assert sym.degree >= 1
            assert sym.payload == xor_of(net.block, sym.neighbors)


@st.composite
def specs(draw, max_k):
    """The ``build`` arguments of small networks over every squad size of
    one to four nodes, storage mode and input kind."""
    dissemination = draw(st.sampled_from(nw.DISSEMINATION_MODES))
    spec = dict(
        k=draw(st.integers(min_value=3, max_value=max_k)),
        h=draw(st.integers(min_value=1, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        dissemination=dissemination,
        storage=draw(st.sampled_from(nw.STORAGE_MODES)),
    )
    # coupon nodes store one source packet, so they take degree-one inputs
    combines = dissemination == "degree_two_combining" and spec["storage"] != "coupon"
    spec["storage_combine_input"] = (draw(st.sampled_from(nw.STORAGE_INPUTS)) if combines
                                     else "degree_one_inputs")
    return spec


def networks():
    """Small networks of up to 24 relays."""
    return specs(max_k=24).map(lambda spec: build(**spec))


class TestSquadPlans:
    @given(net=networks())
    @settings(max_examples=80, deadline=None)
    def test_stored_symbols_well_formed(self, net):
        for gap in range(1, net.k + 1):
            symbols = net._plan([gap])
            assert len(symbols) == net.h
            for slots, sym in zip(slot_rows(net, gap), symbols):
                assert list(sym.neighbors) == sorted(set(sym.neighbors))
                assert 1 <= sym.neighbors[0] and sym.neighbors[-1] <= net.k
                assert sym.payload == xor_of(net.block, sym.neighbors)
                assert 1 <= len(slots) <= net._slot_count
                assert list(slots) == sorted(set(slots))

    @given(net=networks())
    @settings(max_examples=80, deadline=None)
    def test_plan_draws_each_squad_stream_in_order(self, net):
        # the slots redrawn from each squad's own stream give _plan's symbols
        for gap in range(1, net.k + 1):
            assert_same_batch(net._plan([gap]), planned_on(net, gap, slot_rows(net, gap)))

    @given(net=networks(), order_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_plans_independent_of_touch_order(self, net, order_seed):
        twin = nw.Network(net.cfg, net.block, net._node_key)
        gaps = list(range(1, net.k + 1))
        shuffled = list(np.random.default_rng(order_seed).permutation(gaps))
        forward = {gap: net._plan([gap]) for gap in gaps}
        backward = {gap: twin._plan([int(gap)]) for gap in shuffled}
        for gap in gaps:
            assert_same_batch(forward[gap], backward[gap])

    @given(net=networks())
    @settings(max_examples=40, deadline=None)
    def test_planned_batches_are_read_only(self, net):
        # a node's sources and payload are read-only rows of one batch, so
        # no edit in place can part them
        for gap in range(1, net.k + 1):
            batch = net._plan([gap])
            assert not any(a.flags.writeable for a in (batch.ptr, batch.neighbors, batch.payloads))

    def test_overheard_transmissions_never_cancel(self):
        # linearly independent over GF(2): no slot subset leaves a node empty
        for k in range(3, 41):
            net = build(k=k, h=1, dissemination="degree_two_combining",
                        storage_combine_input="degree_two_inputs")
            _, left, right = overheard(net.schedule, k // 2 + 1)
            basis: dict[int, int] = {}  # leading bit -> reduced row
            for a, b in zip(left, right):
                row = sum(1 << src for src in covers(a, b))
                while row and row.bit_length() in basis:
                    row ^= basis[row.bit_length()]
                if row:
                    basis[row.bit_length()] = row
            assert len(left) == net._slot_count == len(basis), k

    @pytest.mark.parametrize("k", [3, 4, 7, 8, 11])
    def test_slots_follow_the_overheard_transmissions(self, k):
        # one round rule: a node planned on slot s stores overheard transmission s
        net = build(k=k, h=1, dissemination="degree_two_combining",
                    storage_combine_input="degree_two_inputs")
        slots = np.arange(net._slot_count)
        for gap in range(1, k + 1):
            _, left, right = overheard(net.schedule, gap)
            symbols = net._plan_rows(gap, np.arange(len(slots) + 1), slots)
            for s, sym in enumerate(symbols):
                assert sym.neighbors == covers(left[s], right[s]), (gap, s)
                assert sym.payload == xor_of(net.block, covers(left[s], right[s]))

    @pytest.mark.parametrize("k", range(3, 13))
    def test_sorted_pair_parity_matches_counts(self, k):
        # every slot subset of a squad, against np.unique's count parity over
        # the same (node, source) keys; no source is heard more than twice
        net = build(k=k, h=1, dissemination="degree_two_combining",
                    storage_combine_input="degree_two_inputs")
        count = net._slot_count
        rows = [[s for s in range(count) if mask >> s & 1] for mask in range(1, 2**count)]
        ptr = np.cumsum([0] + [len(row) for row in rows])
        slots = np.array([s for row in rows for s in row], dtype=np.int64)
        owner = np.repeat(np.arange(len(rows)), np.diff(ptr))
        for gap in range(1, k + 1):
            _, left, right = overheard(net.schedule, gap)
            a, b = left[slots], right[slots]
            two = a != b
            keys = np.concatenate([owner, owner[two]]) * (k + 1) + np.concatenate([a, b[two]])
            heard, times = np.unique(keys, return_counts=True)
            assert times.max() <= 2
            odd = heard[times % 2 == 1]
            symbols = net._plan_rows(gap, ptr, slots)
            assert symbols.ptr.tolist() == [0, *np.cumsum(
                np.bincount(odd // (k + 1), minlength=len(rows))).tolist()]
            assert symbols.neighbors.tolist() == (odd % (k + 1)).tolist()


def walked_drain_order(k, collector):
    """The drain order as a walk outwards, the oracle of the closed form:
    the collector's gap, then left and right of it at each distance, one
    gap at the antipode of an even ring."""
    yield collector
    for m in range(1, k // 2 + 1):
        left, right = (collector - m - 1) % k + 1, (collector + m - 1) % k + 1
        yield left
        if right != left:
            yield right


class TestCollect:
    @given(k=st.integers(min_value=1, max_value=400), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_drain_order_is_the_walk(self, k, data):
        collector = data.draw(st.integers(min_value=1, max_value=k))
        s = data.draw(st.integers(min_value=0, max_value=k))
        walk = list(walked_drain_order(k, collector))
        assert sorted(walk) == list(range(1, k + 1))
        assert nw._drain_order(k, collector, s) == walk[:s]

    def test_network_freed_without_cycle_collection(self):
        net = build(k=20, h=5)
        symbols, _ = nw.collect(net, 1, 10)
        gone = weakref.ref(net)
        gc.disable()
        try:
            del net
            assert gone() is None  # no reference cycle keeps it alive
        finally:
            gc.enable()
        assert len(symbols) == 10

    def test_single_squad(self):
        net = build(k=20, h=5)
        symbols, rep = nw.collect(net, 4, 5)
        assert rep.s == 1
        assert rep.supersquad_hops == pytest.approx(5.0)  # all at one hop

    def test_ceiling_rule(self):
        net = build(k=30, h=4, seed=3)
        _, rep = nw.collect(net, 10, 9)
        assert rep.s == 3  # ceil(9/4)

    def test_full_supersquad_average_hops(self):
        # with s full squads the mean per-symbol cost is (s-1)/4 + 1
        net = build(k=30, h=4, seed=3)
        _, rep = nw.collect(net, 10, 20)
        assert rep.s == 5
        assert rep.supersquad_hops / 20 == pytest.approx((5 - 1) / 4 + 1)

    @given(k=st.integers(min_value=3, max_value=60), h=st.integers(min_value=1, max_value=10),
           collector=st.integers(min_value=1, max_value=60), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_drains_the_squads_the_cost_model_counts(self, k, h, collector, data):
        # every k_s on every ring: s = ceil(k_s/h), and full squads cost the
        # sec2 hop model's c_s = 1 + (s-1)/4 per symbol
        net = build(k=k, h=h)
        k_s = data.draw(st.integers(min_value=0, max_value=k * h))
        _, rep = nw.collect(net, (collector - 1) % k + 1, k_s)
        assert rep.s == costs.supersquad_squads(k_s, h)
        if k_s % h == 0:
            assert rep.supersquad_hops == k_s * (1 + (rep.s - 1) / 4)
        # a partial last squad too: squad by squad, each symbol of the j-th
        # squad drained at j/2 + 1 hops
        hops, taken = 0.0, 0
        for j in range(rep.s):
            take = min(h, k_s - taken)
            hops += take * (j / 2 + 1)
            taken += take
        assert taken == k_s and rep.supersquad_hops == hops

    def test_thousand_symbols_from_five_squads(self):
        net = build(k=1000, h=200, seed=12)
        _, rep = nw.collect(net, 17, 1000)
        assert rep.s == 5
        assert len(rep.squads_drained) == 5

    def test_plans_only_the_drained_squads(self, planning):
        net = build(k=1000, h=200, seed=12)
        _, rep = nw.collect(net, 17, 1000)
        assert rep.squads_drained == (17, 16, 18, 15, 19)
        assert sorted(planning[0]) == sorted(rep.squads_drained) and planning[1] == [1000]

    @pytest.mark.parametrize("mode, inputs", [
        ("degree_one", "degree_one_inputs"),
        ("degree_two_combining", "degree_two_inputs"),
    ], ids=["d1", "d2"])
    def test_needs_no_listen_call(self, mode, inputs):
        # a fresh network collects what a twin that listened first collects
        fresh, heard = (build(k=20, h=5, seed=8, dissemination=mode,
                              storage_combine_input=inputs) for _ in range(2))
        nw.storage_listen(heard, nw.TransmissionSchedule(mode, heard.k))
        (got, rep), (want, want_rep) = nw.collect(fresh, 3, 37), nw.collect(heard, 3, 37)
        assert rep == want_rep and list(got) == list(want)
        for a, b in ((got.ptr, want.ptr), (got.neighbors, want.neighbors),
                     (got.payloads, want.payloads)):
            assert np.array_equal(a, b)

    def test_negative_count_rejected(self):
        net = build(k=20, h=5)
        with pytest.raises(InvalidParameterError):
            nw.collect(net, 1, -1)

    def test_exhausted_network(self):
        net = build(k=6, h=1)
        with pytest.raises(ExhaustedNetworkError):
            nw.collect(net, 1, 7)

    @given(net=networks(), collector=st.integers(min_value=1), share=st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_batch_concatenates_drained_squads(self, net, collector, share):
        k_s = round(share * net.total_storage_nodes)
        symbols, rep = nw.collect(net, (collector - 1) % net.k + 1, k_s)
        assert len(set(rep.squads_drained)) == rep.s  # no squad drained twice
        drained = [sym for gap in rep.squads_drained for sym in net._plan([gap])]
        assert len(symbols) == k_s and list(symbols) == drained[:k_s]
        assert not symbols.payloads.flags.writeable

    def test_deterministic(self):
        net = build(k=16, h=3, seed=9)
        first, rep1 = nw.collect(net, 5, 10)
        second, rep2 = nw.collect(net, 5, 10)
        assert [s.neighbors for s in first] == [s.neighbors for s in second]
        assert rep1 == rep2


@st.composite
def collections(draw):
    """A network spec of up to 60 relays (twins are built from it), a
    collector, and k_s: none, all, or a partial last squad when squads hold
    two nodes or more."""
    spec = draw(specs(max_k=60))
    k, h = spec["k"], spec["h"]
    collector = draw(st.integers(min_value=1, max_value=k))
    kind = draw(st.sampled_from(["none", "all", "partial"] if h > 1 else ["none", "all"]))
    if kind == "partial":
        full = draw(st.integers(min_value=0, max_value=k - 1))  # squads drained before
        k_s = full * h + draw(st.integers(min_value=1, max_value=h - 1))
    else:
        k_s = 0 if kind == "none" else k * h
    return spec, collector, k_s


def assert_same_batch(got, want):
    """Equal rows and payload bytes (an empty batch's payload width is free)."""
    assert np.array_equal(got.ptr, want.ptr) and np.array_equal(got.neighbors, want.neighbors)
    assert len(got.payloads) == len(want.payloads)
    assert got.payloads.tobytes() == want.payloads.tobytes()


def joined(batches):
    """The symbols of ``batches``, in order, as one batch (empty for none)."""
    if not batches:
        return SymbolBatch(np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros((0, 0)))
    return SymbolBatch(csr_ptr(np.concatenate([np.diff(b.ptr) for b in batches])),
                       np.concatenate([b.neighbors for b in batches]),
                       np.concatenate([b.payloads for b in batches]))


class TestOnePassCollect:
    @given(case=collections())
    @settings(max_examples=150, deadline=None)
    def test_matches_squad_by_squad_planning(self, case):
        spec, collector, k_s = case
        net, twin = build(**spec), build(**spec)
        batch, rep = nw.collect(net, collector, k_s)
        drained = nw._drain_order(net.k, collector, -(-k_s // net.h))
        assert list(rep.squads_drained) == drained
        # the oracle: one squad at a time, last drained first
        plans = {gap: twin._plan([gap]) for gap in reversed(drained)}
        assert_same_batch(batch, joined([plans[g] for g in drained])[:k_s])
        # a second collect plans again, to the same batch; one for every
        # symbol starts with it
        assert_same_batch(nw.collect(net, collector, k_s)[0], batch)
        everything, _ = nw.collect(net, collector, net.total_storage_nodes)
        assert_same_batch(everything[:k_s], batch)
        assert_same_batch(everything, joined(
            [twin._plan([g]) for g in nw._drain_order(net.k, collector, net.k)]))

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(dissemination="degree_two_combining", storage_combine_input="degree_two_inputs"),
        dict(storage="coupon"),
    ], ids=["d1", "d2", "coupon"])
    def test_one_pass_per_collect(self, planning, kw):
        # every squad a collect drains draws from its own stream, and all of
        # them come out of one symbols_from_rows call; no read keeps a plan
        streams, passes = planning
        net = build(k=40, h=5, seed=4, **kw)
        nw.collect(net, 1, 23)  # five squads, the last one partly
        assert sorted(streams) == [1, 2, 3, 39, 40] and passes == [25]
        nw.collect(net, 1, 23)
        assert sorted(streams[5:]) == [1, 2, 3, 39, 40] and passes == [25, 25]
        nw.collect(net, 1, 0)  # drains nothing, so plans nothing
        assert len(streams) == 10 and passes == [25, 25]
        nw.collect(net, 1, 60)  # twelve squads
        assert sorted(streams[10:]) == [1, 2, 3, 4, 5, 6, 35, 36, 37, 38, 39, 40]
        assert passes == [25, 25, 60]
        net._plan([20])
        assert streams[22:] == [20] and passes == [25, 25, 60, 5]


@st.composite
def reads(draw):
    """A network spec of up to 30 relays and one to six reads of it, in any
    order: ``("collect", collector, k_s)`` or ``("plan", gap)``."""
    spec = draw(specs(max_k=30))
    k, total = spec["k"], build(**spec).total_storage_nodes
    relays = st.integers(min_value=1, max_value=k)
    return spec, draw(st.lists(st.one_of(
        st.tuples(st.just("collect"), relays, st.integers(min_value=0, max_value=total)),
        st.tuples(st.just("plan"), relays),
    ), min_size=1, max_size=6))


def read(net, op, *args):
    """The arrays of the batch a read returns: a collection's, or one squad's
    plan."""
    batch = nw.collect(net, *args)[0] if op == "collect" else net._plan(list(args))
    return batch.ptr, batch.neighbors, batch.payloads


def state(net):
    """Every attribute of ``net``, by identity and by its pickled bytes."""
    return {name: (id(value), pickle.dumps(value)) for name, value in vars(net).items()}


class TestReadsChangeNothing:
    @given(case=reads())
    @settings(max_examples=80, deadline=None)
    def test_reads_leave_the_network_as_built(self, case):
        spec, ops = case
        net = build(**spec)
        net.block.words  # the block's word view of its bytes, made by the first read
        before = state(net)
        for op in ops:
            got, want = read(net, *op), read(build(**spec), *op)  # want: from a fresh twin
            assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))
            assert state(net) == before


class TestRingDistance:
    def test_mean_distance_is_about_quarter_ring(self):
        # costs charges each poll ceil(k/4) hops, about a uniform source's
        # mean distance from the collector along the shorter arc
        k = 101
        offsets = np.arange(k)  # relay 1 + d lies d hops one way round
        dists = np.minimum(offsets, k - offsets)
        assert np.mean(dists) == pytest.approx(k / 4, rel=0.05)
        poll = costs.strategy_cost("polling", k, 10).c_T  # k polls, over k
        assert poll == math.ceil(k / 4) == pytest.approx(np.mean(dists), rel=0.05)


class TestCollectionWithDoping:
    def test_coupon_full_coverage_rarely_dopes(self):
        # coupon symbols are all degree one, so doping equals the uncovered count
        k = 200
        k_s = round(k * float(np.sum(1.0 / np.arange(1, k + 1))))  # k * H_k
        kds = []
        for seed in range(20):
            net = build(k=k, h=50, seed=100 + seed, storage="coupon")
            rep, _ = nw.simulate_collection_with_doping(
                net, 1, k_s, np.random.default_rng(seed)
            )
            kds.append(rep.k_d)
        assert np.mean(kds) < 3.0

    def test_no_symbols_means_pure_polling(self):
        net = build(k=12, h=2, seed=5)
        rep, crep = nw.simulate_collection_with_doping(net, 1, 0, np.random.default_rng(0))
        assert rep.k_d == 12
        assert crep.k_s == 0 and crep.s == 0

    def test_collecting_nothing_gives_the_empty_batch(self):
        net = build(k=12, h=2, seed=5)
        batch, _ = nw.collect(net, 1, 0)
        assert len(batch) == 0 and list(batch) == []
        for arr in (batch.ptr, batch.neighbors, batch.payloads):
            assert not arr.flags.writeable
        state = decode_with_doping(net.block, batch, np.random.default_rng(0))
        assert state.k_d == 12 and set(state.dope_levels) == {0}
        assert state.recovered == dict(enumerate(net.block.packets, start=1))

    def test_recovers_block_bit_exact(self):
        net = build(k=60, h=10, seed=7)
        rep, _ = nw.simulate_collection_with_doping(net, 3, 60, np.random.default_rng(2))
        assert all(rep.recovered[i] == net.block.packet(i) for i in range(1, 61))

    @pytest.mark.parametrize("mode, inputs", [
        ("degree_one", "degree_one_inputs"),
        ("degree_two_combining", "degree_two_inputs"),
    ], ids=["d1", "d2"])
    def test_drained_decode_matches_step_by_step(self, mode, inputs):
        for seed in range(5):
            net = build(k=200, h=20, seed=seed, dissemination=mode,
                        storage_combine_input=inputs)
            drained, _ = nw.simulate_collection_with_doping(
                net, 1, 200, np.random.default_rng(seed)
            )
            # the drive that benchmarks/workloads.traced_decode makes
            rng = np.random.default_rng(seed)
            state = init_decoder(200, nw.collect(net, 1, 200)[0], net.block.payload_len)
            sizes = [len(state.ripple)]
            while not state.finished:
                if state.ripple:
                    process_ripple_symbol(state, rng)
                else:
                    dope_degree_two(state, net.block.packet, rng)
                sizes.append(len(state.ripple))
            assert drained.finished and drained.k_d > 0
            for name in ("k_d", "doped", "dope_levels", "defected_total", "history",
                         "ripple_trajectory", "interdoping_yields"):
                assert getattr(drained, name) == getattr(state, name), name
            assert drained.ripple_trajectory == tuple(sizes)


class TestNetworkTrial:
    @pytest.mark.parametrize("kw", [
        dict(),
        dict(dissemination="degree_two_combining", storage_combine_input="degree_two_inputs"),
        dict(storage="coupon"),
        dict(storage="rs_combining"),
    ], ids=["d1", "d2", "coupon", "rs"])
    def test_is_the_harness_layout(self, kw):
        # the CLI's trial and the benchmark harness's draw the same network,
        # symbols and dopings from one stream
        cfg = NetworkConfig(k=60, h=8, payload_len=4, **kw)
        for stream in range(4):
            got = decode_with_doping(*nw.network_trial(11, stream, cfg, 5, 70))
            rng = trial_rng(11, stream)
            want, _ = nw.simulate_collection_with_doping(nw.build_network(cfg, rng), 5, 70, rng)
            assert got.k_d == want.k_d > 0
            assert tuple(got.doped) == tuple(want.doped)
            assert got.dope_levels == want.dope_levels
            assert got.recovered == want.recovered


class TestMixingProperty:
    def test_degree_two_inputs_are_more_redundant(self):
        # symmetric-difference symbols from one squad pool are heavily
        # dependent; doping demand dwarfs the degree-one-input baseline
        k = 300

        def mean_kd(inputs, h, seeds=4):
            out = []
            for s in range(seeds):
                net = build(
                    k=k, h=h, seed=700 + s,
                    dissemination="degree_two_combining",
                    storage_combine_input=inputs,
                )
                rep, _ = nw.simulate_collection_with_doping(
                    net, 1, k, np.random.default_rng(800 + s)
                )
                out.append(rep.k_d)
            return float(np.mean(out))

        same_squad_d2 = mean_kd("degree_two_inputs", h=k)  # s = 1
        same_squad_d1 = mean_kd("degree_one_inputs", h=k)
        spread_d2 = mean_kd("degree_two_inputs", h=k // 10)  # s = 10
        assert same_squad_d2 > 2 * same_squad_d1
        # mixing across squads must not make the dependency worse
        assert spread_d2 < 1.05 * same_squad_d2

