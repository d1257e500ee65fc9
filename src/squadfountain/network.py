"""Circular squad network: dissemination, decentralized storage, collection.

k relays sit on a ring, relay i holding source packet i.  Between each
adjacent relay pair lives a squad of storage nodes that overhears both
relays.  Packets are disseminated either as plain copies (each relay
forwards every packet once, both directions) or as degree-two combinations
(each relay XORs the packets arriving from its two sides, halving the
number of transmission rounds).  Storage nodes pre-plan a degree and a
slot subset, then store the XOR of the overheard transmissions in those
slots.  A collector drains nearby squads for the upfront symbols and polls
source relays directly whenever the decoder needs doping.  Stored and
collected symbols travel as ``SymbolBatch``es, a squad's rows at a time.

Networks are built lazily: squad sizes are drawn eagerly, and each
squad's node plans are made in one vectorised pass on first touch, from a
counter-based (Philox) stream keyed by the network and the squad, so large
networks cost only the squads a collection actually visits, and a plan does
not depend on the order in which squads are touched.  A stored symbol's
payload is the XOR of the source packets it covers, which equals the XOR of
the overheard transmissions it combines.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import IO

import numpy as np

from .codec import (
    DecodeReport,
    SourceBlock,
    SymbolBatch,
    _csr_ptr,
    _distinct_rows,
    decode_with_doping,
    symbols_from_rows,
)
from .degrees import DegreeDistribution, ideal_soliton, robust_soliton, sample_degrees
from .errors import ExhaustedNetworkError, InvalidParameterError

SQUAD_SIZE_MODELS = ("fixed", "poisson")
DISSEMINATION_MODES = ("degree_one", "degree_two_combining")
STORAGE_MODES = ("coupon", "is_combining", "rs_combining")
STORAGE_INPUTS = ("degree_one_inputs", "degree_two_inputs")


def ring_distance(k: int, i: int, j: int) -> int:
    """Hops between relays i and j along the shorter arc."""
    d = abs(i - j) % k
    return min(d, k - d)


def _wrap(k: int, i: int) -> int:
    """Map any integer onto relay labels 1..k."""
    return (i - 1) % k + 1


def combining_rounds(k: int) -> int:
    """Rounds after which every relay has seen every packet: ceil((k-1)/2)."""
    return k // 2


@dataclass(frozen=True)
class NetworkConfig:
    k: int
    h: float
    squad_size_model: str = "fixed"
    dissemination: str = "degree_one"
    storage: str = "is_combining"
    storage_combine_input: str = "degree_one_inputs"
    rs_c: float = 0.1
    rs_delta: float = 0.5
    payload_len: int = 32

    def __post_init__(self):
        if self.k < 3:
            raise InvalidParameterError(f"k must be >= 3, got {self.k}")
        if self.h < 1:
            raise InvalidParameterError(f"h must be >= 1, got {self.h}")
        if self.squad_size_model not in SQUAD_SIZE_MODELS:
            raise InvalidParameterError(f"unknown squad_size_model {self.squad_size_model!r}")
        if self.dissemination not in DISSEMINATION_MODES:
            raise InvalidParameterError(f"unknown dissemination {self.dissemination!r}")
        if self.storage not in STORAGE_MODES:
            raise InvalidParameterError(f"unknown storage {self.storage!r}")
        if self.storage_combine_input not in STORAGE_INPUTS:
            raise InvalidParameterError(
                f"unknown storage_combine_input {self.storage_combine_input!r}"
            )
        if self.squad_size_model == "fixed" and self.h != int(self.h):
            raise InvalidParameterError("fixed squad model needs integer h")
        if (
            self.storage_combine_input == "degree_two_inputs"
            and self.dissemination != "degree_two_combining"
        ):
            raise InvalidParameterError(
                "degree_two_inputs requires degree_two_combining dissemination"
            )

    def degree_distribution(self) -> DegreeDistribution | None:
        if self.storage == "is_combining":
            return ideal_soliton(self.k)
        if self.storage == "rs_combining":
            return robust_soliton(self.k, self.rs_c, self.rs_delta)
        return None  # coupon nodes always store a single packet


@dataclass(frozen=True)
class SquadPlan:
    """Every node of one squad, as rows of two CSR arrays.

    Node i stores the slots ``slots[slot_ptr[i]:slot_ptr[i+1]]`` and covers
    the sources ``neighbors[nbr_ptr[i]:nbr_ptr[i+1]]``; both rows are sorted.
    For degree-one inputs (and coupon storage) slots are source indices; for
    degree-two inputs they index the squad's overheard transmission list
    (left relay's rounds first, then the right relay's).
    """

    slot_ptr: np.ndarray
    slots: np.ndarray
    nbr_ptr: np.ndarray
    neighbors: np.ndarray


@dataclass(frozen=True)
class Transmission:
    round: int
    relay: int
    neighbors: tuple[int, ...]
    payload: bytes


class TransmissionSchedule:
    """Per-relay transmissions for one dissemination mode, computed on demand."""

    def __init__(self, mode: str, block: SourceBlock):
        self.mode = mode
        self.block = block
        self.k = block.k
        # every relay has received every packet after this many rounds
        self.rounds = combining_rounds(self.k)

    def relay_transmissions(self, relay: int) -> list[Transmission]:
        k, block = self.k, self.block
        out: list[Transmission] = []
        if self.mode == "degree_one":
            out.append(Transmission(1, relay, (relay,), block.packet(relay)))
            seen = {relay}
            r = 2
            while len(seen) < k:
                for src in (_wrap(k, relay - r + 1), _wrap(k, relay + r - 1)):
                    if src not in seen:
                        seen.add(src)
                        out.append(Transmission(r, relay, (src,), block.packet(src)))
                r += 1
            return out
        out.append(Transmission(1, relay, (relay,), block.packet(relay)))
        for r in range(2, self.rounds + 1):
            left = _wrap(k, relay - r + 1)
            right = _wrap(k, relay + r - 1)
            nbrs = tuple(sorted({left, right}))
            out.append(Transmission(r, relay, nbrs, block.xor_of(nbrs)))
        return out

    def overheard(self, gap: int) -> list[Transmission]:
        """Everything a shared node between relays gap and gap+1 hears."""
        right = _wrap(self.k, gap + 1)
        return self.relay_transmissions(gap) + self.relay_transmissions(right)

    def verify(self) -> bool:
        """True when every relay ends up holding all k packets bit-exact."""
        if self.mode == "degree_one":
            return all(self._collect_degree_one(i) for i in range(1, self.k + 1))
        return all(self._online_decode(i) for i in range(1, self.k + 1))

    def _collect_degree_one(self, relay: int) -> bool:
        k, block = self.k, self.block
        got = {relay: block.packet(relay)}
        for r in range(1, self.rounds + 1):
            for src in (_wrap(k, relay - r), _wrap(k, relay + r)):
                got[src] = block.packet(src)
        return len(got) == k and all(got[i] == block.packet(i) for i in got)

    def _online_decode(self, relay: int) -> bool:
        """Replay the combining rounds with the rolling buffer discipline.

        Rounds r >= 4 overwrite the packets recovered three rounds earlier,
        so the live buffer never grows past eight packets; decoding each
        incoming combination must find its matching packet still buffered.
        """
        k, block = self.k, self.block
        buffer: dict[int, bytes] = {relay: block.packet(relay)}
        recovered: dict[int, bytes] = dict(buffer)

        def learn(src: int, payload: bytes) -> None:
            buffer[src] = payload
            recovered[src] = payload

        learn(_wrap(k, relay - 1), block.packet(_wrap(k, relay - 1)))
        learn(_wrap(k, relay + 1), block.packet(_wrap(k, relay + 1)))
        for r in range(2, self.rounds + 1):
            # the two round-r receptions pair one known with one new packet
            for known, new in (
                (_wrap(k, relay + r - 2), _wrap(k, relay - r)),
                (_wrap(k, relay - r + 2), _wrap(k, relay + r)),
            ):
                combo = block.xor_of({known, new})
                if known not in buffer:
                    return False  # overwrite rule evicted a packet still needed
                plain = bytes(a ^ b for a, b in zip(combo, buffer[known]))
                if plain != block.packet(new):
                    return False
                learn(new, plain)
            evict = r - 3  # drop the recoveries of round r-3 (own packet at r=4)
            if evict >= 1:
                for old in {_wrap(k, relay - evict + 1), _wrap(k, relay + evict - 1)}:
                    buffer.pop(old, None)
            if len(buffer) > 8:
                return False
        return len(recovered) == k and all(
            recovered[i] == block.packet(i) for i in recovered
        )

    def dump(self, fp: IO[str]) -> None:
        for relay in range(1, self.k + 1):
            for t in self.relay_transmissions(relay):
                nbrs = "+".join(str(n) for n in t.neighbors)
                fp.write(f"relay={relay} round={t.round} sources={nbrs}\n")


class Network:
    """Relays, squads, and lazily planned storage nodes."""

    def __init__(
        self,
        cfg: NetworkConfig,
        block: SourceBlock,
        squad_sizes: np.ndarray,
        node_key: int,
    ):
        self.cfg = cfg
        self.block = block
        self.squad_sizes = squad_sizes
        self._node_key = node_key
        self._dist = cfg.degree_distribution()
        self._squads: dict[int, SquadPlan] = {}
        # degree-two inputs combine overheard transmissions; coupon nodes and
        # degree-one inputs hold source packets
        self._combines_slots = (
            cfg.storage != "coupon" and cfg.storage_combine_input == "degree_two_inputs"
        )
        self._slot_count = 2 * combining_rounds(cfg.k) if self._combines_slots else cfg.k
        self.stored: "SymbolStore | None" = None

    @property
    def k(self) -> int:
        return self.cfg.k

    @property
    def total_storage_nodes(self) -> int:
        return int(self.squad_sizes.sum())

    def squad_size(self, gap: int) -> int:
        return int(self.squad_sizes[gap - 1])

    def squad(self, gap: int) -> SquadPlan:
        """The plans of every node in squad ``gap``, made on first touch."""
        if gap not in self._squads:
            if not 1 <= gap <= self.k:
                raise InvalidParameterError(f"no squad {gap} on a ring of {self.k}")
            self._squads[gap] = self._plan_squad(gap)
        return self._squads[gap]

    def _plan_squad(self, gap: int) -> SquadPlan:
        rng = np.random.Generator(np.random.Philox(key=[self._node_key, gap]))
        n = self.squad_size(gap)
        if self.cfg.storage == "coupon":
            return self._plan_rows(
                gap, _csr_ptr(np.ones(n, np.int64)), rng.integers(1, self.k + 1, size=n)
            )
        sizes = np.minimum(sample_degrees(self._dist, rng, n), self._slot_count)
        ptr, slots = _distinct_rows(rng, sizes, self._slot_count)
        return self._plan_rows(gap, ptr, slots if self._combines_slots else slots + 1)

    def _plan_rows(self, gap: int, ptr: np.ndarray, slots: np.ndarray) -> SquadPlan:
        """Attach to each row of slots the sources it covers.

        A squad's overheard transmissions are linearly independent over
        GF(2): taken from the outermost round inwards, each covers a source
        that none of the remaining ones covers.  So no slot subset cancels,
        and every node covers at least one source.
        """
        if not self._combines_slots:
            return SquadPlan(ptr, slots, ptr, slots)
        k, rounds = self.k, combining_rounds(self.k)
        # slot s is round s % rounds + 1 of the left relay (s < rounds) or the right one
        relay = np.where(slots < rounds, gap, gap % k + 1)
        r = slots % rounds + 1
        left = (relay - r) % k + 1
        right = (relay + r - 2) % k + 1
        two = right != left  # round one carries the relay's own packet alone
        owner = np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))
        keys = np.concatenate([owner, owner[two]]) * (k + 1) + np.concatenate([left, right[two]])
        heard, times = np.unique(keys, return_counts=True)
        odd = heard[times % 2 == 1]  # a source heard an even number of times cancels
        nbr_ptr = _csr_ptr(np.bincount(odd // (k + 1), minlength=len(ptr) - 1))
        return SquadPlan(ptr, slots, nbr_ptr, odd % (k + 1))


def build_network(cfg: NetworkConfig, rng: np.random.Generator) -> Network:
    """Draw the source block and squad sizes; node plans follow lazily."""
    block = SourceBlock.random(cfg.k, cfg.payload_len, rng)
    if cfg.squad_size_model == "fixed":
        sizes = np.full(cfg.k, int(cfg.h), dtype=np.int64)
    else:
        sizes = rng.poisson(cfg.h, size=cfg.k).astype(np.int64)
    node_key = int(rng.integers(0, 2**63 - 1))
    return Network(cfg, block, sizes, node_key)


def disseminate_degree_one(net: Network) -> TransmissionSchedule:
    """Plain forwarding: every relay transmits each packet exactly once."""
    return TransmissionSchedule("degree_one", net.block)


def disseminate_degree_two(net: Network) -> TransmissionSchedule:
    """Degree-two combining: own packet, then left+right XORs each round."""
    return TransmissionSchedule("degree_two_combining", net.block)


class SymbolStore:
    """Stored symbols, one per storage node, as a batch per squad made on first touch.

    The network owns its store (``net.stored``) and the store refers back to
    it weakly, so a trial's network and symbols are freed as soon as the
    trial drops them, not at the next full garbage collection.
    """

    def __init__(self, net: Network, schedule: TransmissionSchedule):
        if net.cfg.dissemination != schedule.mode:
            raise InvalidParameterError(
                f"schedule mode {schedule.mode!r} does not match config"
            )
        self.net = weakref.proxy(net)
        self.schedule = schedule
        self._squads: dict[int, SymbolBatch] = {}

    def squad_symbols(self, gap: int) -> SymbolBatch:
        """Every symbol of squad ``gap``: each payload XORs the covered sources."""
        if gap not in self._squads:
            plan = self.net.squad(gap)
            self._squads[gap] = symbols_from_rows(self.net.block, plan.nbr_ptr, plan.neighbors)
        return self._squads[gap]


def storage_listen(net: Network, schedule: TransmissionSchedule) -> SymbolStore:
    """Bind the network's planned nodes to a dissemination schedule."""
    store = SymbolStore(net, schedule)
    net.stored = store
    return store


@dataclass(frozen=True)
class CollectionReport:
    k_s: int
    s: int
    supersquad_hops: float
    squads_drained: tuple[int, ...]
    k_d: int = 0
    doped_hop_costs: tuple[int, ...] = field(default=())


def _drain_order(k: int, collector: int):
    """Squad gaps by distance from the collector, alternating sides.

    Each of the k gaps appears exactly once; for even k the antipodal
    offsets +-k/2 name the same gap.
    """
    yield collector
    for m in range(1, k // 2 + 1):
        left = _wrap(k, collector - m)
        right = _wrap(k, collector + m)
        yield left
        if right != left:
            yield right


def collect(
    net: Network, collector_relay: int, k_s: int
) -> tuple[SymbolBatch, CollectionReport]:
    """Drain squads outward from the collector until k_s symbols are gathered;
    they come back as one batch of the drained squads' leading rows.

    A symbol from the j-th squad drained (0-based) is charged j/2 + 1 hops,
    which makes a full supersquad average exactly (s-1)/4 + 1 per symbol.
    """
    if net.stored is None:
        raise InvalidParameterError("run storage_listen before collecting")
    if not 1 <= collector_relay <= net.k:
        raise InvalidParameterError(f"collector relay {collector_relay} outside 1..{net.k}")
    if k_s < 0:
        raise InvalidParameterError(f"cannot collect {k_s} symbols")
    if k_s > net.total_storage_nodes:
        raise ExhaustedNetworkError(
            f"need {k_s} symbols but the network stores only {net.total_storage_nodes}"
        )
    parts: list[SymbolBatch] = []
    drained: list[int] = []
    hops = 0.0
    taken = 0
    for gap in _drain_order(net.k, collector_relay):
        if taken >= k_s:
            break
        size = net.squad_size(gap)
        if size == 0:
            continue  # empty squads cost nothing and are not part of the supersquad
        take = min(size, k_s - taken)
        parts.append(net.stored.squad_symbols(gap)[:take])
        hops += take * (len(drained) / 2.0 + 1.0)
        drained.append(gap)
        taken += take
    report = CollectionReport(
        k_s=k_s, s=len(drained), supersquad_hops=hops, squads_drained=tuple(drained)
    )
    return SymbolBatch.concat(parts), report


def simulate_collection_with_doping(
    net: Network,
    collector_relay: int,
    k_s: int,
    rng: np.random.Generator,
    ripple_discipline: str = "fifo",
) -> tuple[DecodeReport, CollectionReport]:
    """Collect upfront symbols, then decode, polling sources on every stall.

    Each doped packet is charged the ring distance from the collector to its
    source relay (uniform sources average about k/4 hops).
    """
    symbols, creport = collect(net, collector_relay, k_s)
    report = decode_with_doping(net.block, symbols, rng, ripple_discipline)
    doped_hops = tuple(
        ring_distance(net.k, collector_relay, src) for src in report.doped_indices
    )
    creport = replace(creport, k_d=report.k_d, doped_hop_costs=doped_hops)
    return report, creport
