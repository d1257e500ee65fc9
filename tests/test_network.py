import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squadfountain import network as nw
from squadfountain.errors import ExhaustedNetworkError, InvalidParameterError
from squadfountain.network import NetworkConfig


def build(k=20, h=5, seed=0, **kw):
    cfg = NetworkConfig(k=k, h=h, payload_len=4, **kw)
    return nw.build_network(cfg, np.random.default_rng(seed))


def replan_node(net, gap, index, slots):
    """Replace one node's slots in the cached plan of its squad."""
    plan = net.squad(gap)
    rows = [list(plan.slots[lo:hi]) for lo, hi in zip(plan.slot_ptr, plan.slot_ptr[1:])]
    rows[index] = list(slots)
    ptr = np.cumsum([0] + [len(row) for row in rows])
    net._squads[gap] = net._plan_rows(gap, ptr, np.array(sum(rows, []), dtype=np.int64))


def slot_row(net, gap, index):
    """The planned slots of node ``index`` in squad ``gap``."""
    plan = net.squad(gap)
    return tuple(plan.slots[plan.slot_ptr[index]:plan.slot_ptr[index + 1]].tolist())


def stored_symbols(net):
    """Every stored symbol, squad by squad."""
    return [sym for gap in range(1, net.k + 1) for sym in net.squad(gap).symbols]


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidParameterError):
            NetworkConfig(k=2, h=1)
        with pytest.raises(InvalidParameterError):
            NetworkConfig(k=10, h=0.5)
        with pytest.raises(InvalidParameterError):
            NetworkConfig(k=10, h=2.5, squad_size_model="fixed")
        with pytest.raises(InvalidParameterError):
            NetworkConfig(k=10, h=2, storage="raptor")

    def test_degree_two_inputs_need_combining_dissemination(self):
        with pytest.raises(InvalidParameterError):
            NetworkConfig(
                k=10, h=2,
                dissemination="degree_one",
                storage_combine_input="degree_two_inputs",
            )


class TestBuild:
    def test_fixed_small(self):
        net = build(k=7, h=1)
        assert net.total_storage_nodes == 7
        assert all(net.squad_size(g) == 1 for g in range(1, 8))

    def test_fixed_large_counts_without_materializing(self):
        net = build(k=1000, h=200)
        assert net.total_storage_nodes == 200_000
        assert not net._squads

    def test_poisson_squad_sizes(self):
        cfg = NetworkConfig(k=1000, h=200.0, squad_size_model="poisson")
        net = nw.build_network(cfg, np.random.default_rng(11))
        mean = net.squad_sizes.mean()
        assert abs(mean - 200.0) < 1.35  # 3 sigma for 1000 Poisson(200) draws

    def test_node_plans_deterministic(self):
        a, b = build(seed=4), build(seed=4)
        for gap, idx in [(1, 0), (5, 3), (20, 4)]:
            assert slot_row(a, gap, idx) == slot_row(b, gap, idx)
        assert slot_row(a, 2, 1) == slot_row(a, 2, 1)

    def test_node_bounds_checked(self):
        net = build(k=5, h=2)
        listen(net)
        with pytest.raises(IndexError):
            net.squad(1).symbols[2]
        with pytest.raises(InvalidParameterError):
            net.squad(6)


class TestDegreeOneDissemination:
    def test_k3_full_circulation(self):
        net = build(k=3, h=1)
        sched = nw.disseminate_degree_one(net)
        for relay in (1, 2, 3):
            tx = sched.relay_transmissions(relay)
            assert len(tx) == 3
            assert {t.neighbors[0] for t in tx} == {1, 2, 3}

    def test_k7_ring_forwarding_coverage(self):
        net = build(k=7, h=1)
        sched = nw.disseminate_degree_one(net)
        # relay 1 hears neighbors' round-r forwards: distance r both ways
        received = set()
        for r in range(1, 4):
            received |= {(1 - r - 1) % 7 + 1, (1 + r - 1) % 7 + 1}
        assert received == {2, 3, 4, 5, 6, 7}
        assert sched.rounds == 3 and sched.verify()

    def test_shared_node_overhears_both_relays_fully(self):
        net = build(k=9, h=1)
        sched = nw.disseminate_degree_one(net)
        heard = sched.overheard(1)  # squad between relays 1 and 2
        sources = {t.neighbors[0] for t in heard}
        assert sources == set(range(1, 10))
        assert len(heard) == 18  # both relays transmit all nine packets

    @pytest.mark.parametrize("k", [5, 7, 10])
    def test_verify_reads_the_neighbours_transmissions(self, k, monkeypatch):
        net = build(k=k, h=1)
        sched = nw.disseminate_degree_one(net)
        assert sched.verify()
        honest = nw.TransmissionSchedule.relay_transmissions

        def drop_one(self, relay):
            # relay 2 no longer forwards source 1 to relay 3
            sent = honest(self, relay)
            return [t for t in sent if relay != 2 or t.neighbors != (1,)]

        monkeypatch.setattr(nw.TransmissionSchedule, "relay_transmissions", drop_one)
        assert not sched.verify()

    def test_verify_rejects_a_wrong_payload(self, monkeypatch):
        net = build(k=7, h=1)
        sched = nw.disseminate_degree_one(net)
        honest = nw.TransmissionSchedule.relay_transmissions

        def corrupt(self, relay):
            sent = honest(self, relay)
            if relay == 5:
                sent[-1] = nw.Transmission(
                    sent[-1].round, relay, sent[-1].neighbors, bytes(len(sent[-1].payload)))
            return sent

        monkeypatch.setattr(nw.TransmissionSchedule, "relay_transmissions", corrupt)
        assert not sched.verify()


class TestDegreeTwoDissemination:
    def test_k7_round_structure(self):
        net = build(k=7, h=1)
        sched = nw.disseminate_degree_two(net)
        tx = sched.relay_transmissions(1)
        assert [t.neighbors for t in tx] == [(1,), (2, 7), (3, 6)]
        assert sched.rounds == 3

    def test_k5_two_rounds_bit_exact(self):
        net = build(k=5, h=1)
        sched = nw.disseminate_degree_two(net)
        assert sched.rounds == 2
        assert sched.verify()

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9, 12, 15, 16])
    def test_equivalence_and_round_counts(self, k):
        net = build(k=k, h=1, seed=k)
        d1 = nw.disseminate_degree_one(net)
        d2 = nw.disseminate_degree_two(net)
        assert d1.verify() and d2.verify()
        assert d2.rounds == nw.combining_rounds(k)
        assert len(d2.relay_transmissions(2)) == nw.combining_rounds(k)
        assert len(d1.relay_transmissions(2)) == k

    def test_payloads_match_neighbor_sets(self):
        net = build(k=9, h=1)
        sched = nw.disseminate_degree_two(net)
        for relay in range(1, 10):
            for t in sched.relay_transmissions(relay):
                assert t.payload == net.block.xor_of(t.neighbors)


class TestStorageListen:
    def test_coupon_nodes_store_single_packets(self):
        net = build(k=50, h=10, storage="coupon")
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        seen = set()
        for gap in range(1, 51):
            for idx in range(net.squad_size(gap)):
                sym = net.squad(gap).symbols[idx]
                assert sym.degree == 1
                assert sym.payload == net.block.packet(sym.neighbors[0])
                seen.add(sym.neighbors[0])
        assert len(seen) > 40  # 500 uniform draws cover most of 50 sources

    def test_coupon_nodes_ignore_degree_two_inputs(self):
        # a coupon node stores one source packet, never an overheard slot
        net = build(k=21, h=5, storage="coupon", dissemination="degree_two_combining",
                    storage_combine_input="degree_two_inputs")
        nw.storage_listen(net, nw.disseminate_degree_two(net))
        for sym in stored_symbols(net):
            assert sym.degree == 1
            assert sym.payload == net.block.packet(sym.neighbors[0])

    def test_degree_one_inputs_use_planned_sources(self):
        net = build(k=12, h=2)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        replan_node(net, 3, 0, (2, 5, 9))
        sym = net.squad(3).symbols[0]
        assert sym.neighbors == (2, 5, 9)
        assert sym.payload == net.block.xor_of((2, 5, 9))

    def test_degree_two_inputs_track_symmetric_difference(self):
        net = build(
            k=11, h=2,
            dissemination="degree_two_combining",
            storage_combine_input="degree_two_inputs",
        )
        nw.storage_listen(net, nw.disseminate_degree_two(net))
        heard = net.schedule.overheard(4)
        replan_node(net, 4, 0, (1, 2))
        expected = set(heard[1].neighbors) ^ set(heard[2].neighbors)
        sym = net.squad(4).symbols[0]
        assert set(sym.neighbors) == expected
        assert sym.payload == net.block.xor_of(sym.neighbors)

    def test_shared_packet_cancels_out(self):
        # left relay round 3 carries {2,6}, right relay round 2 carries {4,6};
        # combining both leaves the degree-two set {2,4}
        net = build(
            k=11, h=2,
            dissemination="degree_two_combining",
            storage_combine_input="degree_two_inputs",
        )
        nw.storage_listen(net, nw.disseminate_degree_two(net))
        heard = net.schedule.overheard(4)
        assert heard[2].neighbors == (2, 6)
        assert heard[6].neighbors == (4, 6)
        replan_node(net, 4, 1, (2, 6))
        sym = net.squad(4).symbols[1]
        assert sym.neighbors == (2, 4)
        assert sym.payload == net.block.xor_of((2, 4))

    def test_all_planned_symbols_consistent(self):
        net = build(
            k=9, h=3, seed=2,
            dissemination="degree_two_combining",
            storage="is_combining",
            storage_combine_input="degree_two_inputs",
        )
        nw.storage_listen(net, nw.disseminate_degree_two(net))
        for sym in stored_symbols(net):
            assert sym.degree >= 1
            assert sym.payload == net.block.xor_of(sym.neighbors)


@st.composite
def networks(draw):
    """Small networks over every squad model, storage mode and input kind."""
    model = draw(st.sampled_from(nw.SQUAD_SIZE_MODELS))
    dissemination = draw(st.sampled_from(nw.DISSEMINATION_MODES))
    inputs = (
        draw(st.sampled_from(nw.STORAGE_INPUTS))
        if dissemination == "degree_two_combining"
        else "degree_one_inputs"
    )
    return build(
        k=draw(st.integers(min_value=3, max_value=24)),
        # Poisson squads of mean 1..3 leave some squads empty
        h=draw(st.integers(min_value=1, max_value=4))
        if model == "fixed"
        else draw(st.floats(min_value=1.0, max_value=3.0)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        squad_size_model=model,
        dissemination=dissemination,
        storage=draw(st.sampled_from(nw.STORAGE_MODES)),
        storage_combine_input=inputs,
    )


def listen(net):
    schedule = (
        nw.disseminate_degree_one(net)
        if net.cfg.dissemination == "degree_one"
        else nw.disseminate_degree_two(net)
    )
    nw.storage_listen(net, schedule)


class TestSquadPlans:
    @given(net=networks())
    @settings(max_examples=80, deadline=None)
    def test_stored_symbols_well_formed(self, net):
        listen(net)
        for gap in range(1, net.k + 1):
            symbols = net.squad(gap).symbols
            assert len(symbols) == net.squad_size(gap)
            for idx in range(net.squad_size(gap)):
                slots, sym = slot_row(net, gap, idx), symbols[idx]
                assert list(sym.neighbors) == sorted(set(sym.neighbors))
                assert 1 <= sym.neighbors[0] and sym.neighbors[-1] <= net.k
                assert sym.payload == net.block.xor_of(sym.neighbors)
                assert 1 <= len(slots) <= net._slot_count
                assert list(slots) == sorted(set(slots))

    @given(net=networks(), order_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_plans_independent_of_touch_order(self, net, order_seed):
        twin = nw.Network(net.cfg, net.block, net.squad_sizes, net._node_key)
        gaps = list(range(1, net.k + 1))
        shuffled = list(np.random.default_rng(order_seed).permutation(gaps))
        listen(net)
        listen(twin)
        forward = {gap: net.squad(gap).symbols for gap in gaps}
        backward = {gap: twin.squad(int(gap)).symbols for gap in shuffled}
        assert forward == backward
        for gap in gaps:
            for idx in range(net.squad_size(gap)):
                assert slot_row(net, gap, idx) == slot_row(twin, gap, idx)

    def test_overheard_transmissions_never_cancel(self):
        # linearly independent over GF(2): no slot subset leaves a node empty
        for k in range(3, 41):
            net = build(k=k, h=1, dissemination="degree_two_combining",
                        storage_combine_input="degree_two_inputs")
            heard = nw.disseminate_degree_two(net).overheard(k // 2 + 1)
            basis: dict[int, int] = {}  # leading bit -> reduced row
            for t in heard:
                row = sum(1 << src for src in t.neighbors)
                while row and row.bit_length() in basis:
                    row ^= basis[row.bit_length()]
                if row:
                    basis[row.bit_length()] = row
            assert len(heard) == net._slot_count == len(basis), k

    def test_empty_squad_has_no_symbols(self):
        cfg = NetworkConfig(k=40, h=1.0, squad_size_model="poisson", payload_len=4)
        net = nw.build_network(cfg, np.random.default_rng(3))
        listen(net)
        empty = [g for g in range(1, 41) if net.squad_size(g) == 0]
        assert empty  # Poisson(1) leaves about 15 of 40 squads empty
        assert all(net.squad(g).symbols == [] for g in empty)
        with pytest.raises(IndexError):
            net.squad(empty[0]).symbols[0]


class TestCollect:
    def test_network_freed_without_cycle_collection(self):
        net = build(k=20, h=5)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
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
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        symbols, rep = nw.collect(net, 4, 5)
        assert rep.s == 1
        assert rep.supersquad_hops == pytest.approx(5.0)  # all at one hop

    def test_ceiling_rule(self):
        net = build(k=30, h=4, seed=3)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        _, rep = nw.collect(net, 10, 9)
        assert rep.s == 3  # ceil(9/4)

    def test_full_supersquad_average_hops(self):
        # with s full squads the mean per-symbol cost is (s-1)/4 + 1
        net = build(k=30, h=4, seed=3)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        _, rep = nw.collect(net, 10, 20)
        assert rep.s == 5
        assert rep.supersquad_hops / 20 == pytest.approx((5 - 1) / 4 + 1)

    def test_thousand_symbols_from_five_squads(self):
        net = build(k=1000, h=200, seed=12)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        _, rep = nw.collect(net, 17, 1000)
        assert rep.s == 5
        assert len(rep.squads_drained) == 5

    def test_plans_only_the_drained_squads(self):
        net = build(k=1000, h=200, seed=12)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        _, rep = nw.collect(net, 17, 1000)
        assert rep.squads_drained == (17, 16, 18, 15, 19)
        assert sorted(net._squads) == sorted(rep.squads_drained)

    def test_requires_listening_first(self):
        net = build(k=10, h=2)
        with pytest.raises(InvalidParameterError):
            nw.collect(net, 1, 4)

    def test_negative_count_rejected(self):
        net = build(k=20, h=5)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        with pytest.raises(InvalidParameterError):
            nw.collect(net, 1, -1)

    def test_exhausted_network(self):
        net = build(k=6, h=1)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        with pytest.raises(ExhaustedNetworkError):
            nw.collect(net, 1, 7)

    @given(net=networks(), collector=st.integers(min_value=1), share=st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_batch_concatenates_drained_squads(self, net, collector, share):
        listen(net)
        k_s = round(share * net.total_storage_nodes)
        symbols, rep = nw.collect(net, (collector - 1) % net.k + 1, k_s)
        assert all(net.squad_size(gap) > 0 for gap in rep.squads_drained)
        drained = [sym for gap in rep.squads_drained for sym in net.squad(gap).symbols]
        assert len(symbols) == k_s and symbols == drained[:k_s]
        assert not symbols.payloads.flags.writeable

    def test_deterministic(self):
        net = build(k=16, h=3, seed=9)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        first, rep1 = nw.collect(net, 5, 10)
        second, rep2 = nw.collect(net, 5, 10)
        assert [s.neighbors for s in first] == [s.neighbors for s in second]
        assert rep1 == rep2


class TestRingDistance:
    def test_wraps_both_ways(self):
        assert nw.ring_distance(10, 1, 2) == 1
        assert nw.ring_distance(10, 1, 10) == 1
        assert nw.ring_distance(10, 2, 7) == 5
        assert nw.ring_distance(10, 3, 3) == 0

    def test_mean_distance_is_about_quarter_ring(self):
        k = 101
        dists = [nw.ring_distance(k, 1, j) for j in range(1, k + 1)]
        assert np.mean(dists) == pytest.approx(k / 4, rel=0.05)


class TestCollectionWithDoping:
    def test_coupon_full_coverage_rarely_dopes(self):
        # coupon symbols are all degree one, so doping equals the uncovered count
        k = 200
        k_s = round(k * float(np.sum(1.0 / np.arange(1, k + 1))))  # k * H_k
        kds = []
        for seed in range(20):
            net = build(k=k, h=50, seed=100 + seed, storage="coupon")
            nw.storage_listen(net, nw.disseminate_degree_one(net))
            rep, _ = nw.simulate_collection_with_doping(
                net, 1, k_s, np.random.default_rng(seed)
            )
            assert rep.success
            kds.append(rep.k_d)
        assert np.mean(kds) < 3.0

    def test_no_symbols_means_pure_polling(self):
        net = build(k=12, h=2, seed=5)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        rep, crep = nw.simulate_collection_with_doping(net, 1, 0, np.random.default_rng(0))
        assert rep.k_d == 12
        assert crep.k_s == 0 and crep.s == 0

    def test_doping_hops_are_ring_distances(self):
        net = build(k=40, h=4, seed=6)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        collector = 7
        rep, crep = nw.simulate_collection_with_doping(
            net, collector, 20, np.random.default_rng(1)
        )
        assert len(crep.doped_hop_costs) == rep.k_d
        for src, hops in zip(rep.doped_indices, crep.doped_hop_costs):
            assert hops == nw.ring_distance(40, collector, src)
            assert hops <= 20

    def test_recovers_block_bit_exact(self):
        net = build(k=60, h=10, seed=7)
        nw.storage_listen(net, nw.disseminate_degree_one(net))
        rep, _ = nw.simulate_collection_with_doping(net, 3, 60, np.random.default_rng(2))
        assert rep.success
        assert all(rep.recovered[i] == net.block.packet(i) for i in range(1, 61))


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
                nw.storage_listen(net, nw.disseminate_degree_two(net))
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

