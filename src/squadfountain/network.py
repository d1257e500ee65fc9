"""Circular squad network: dissemination, decentralized storage, collection.

k relays sit on a ring, relay i holding source packet i.  Between each
adjacent relay pair lives a squad of storage nodes that overhears both
relays.  Packets are disseminated either as plain copies (each relay
forwards every packet once, both directions) or as degree-two combinations
(each relay XORs the packets arriving from its two sides, halving the
number of transmission rounds).  Storage nodes pre-plan a degree and a
slot subset, then store the XOR of the overheard transmissions in those
slots.  A collector drains nearby squads for the upfront symbols and polls
source relays directly whenever the decoder needs doping.

Networks are built lazily: squad sizes are drawn eagerly, and node plans and
stored symbols are made per read and never kept, each squad's from a
counter-based (Philox) stream keyed by the network and the squad.  A
collection plans the squads it drains in one vectorised pass, each squad
from its own stream, so large networks cost only the squads a collection
actually visits, reading a network never changes it, and a plan does not
depend on which squads share a pass.  A stored symbol's payload is the
XOR of the source packets it covers, which equals the XOR of the overheard
transmissions it combines.  The schedule names sources only: a transmission's
payload is by definition the XOR of the sources it names, so what a relay
recovers bit-exact follows from the names, and no payload array is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .codec import (
    DecodeReport,
    SourceBlock,
    SymbolBatch,
    csr_ptr,
    decode_with_doping,
    distinct_rows,
    encode_symbols,
    key_type,
    symbols_from_rows,
    trial_rng,
)
from .degrees import DegreeDistribution, ideal_soliton, robust_soliton, sample_degrees
from .errors import ExhaustedNetworkError, InvalidParameterError

SQUAD_SIZE_MODELS = ("fixed", "poisson")
DISSEMINATION_MODES = ("degree_one", "degree_two_combining")
STORAGE_MODES = ("coupon", "is_combining", "rs_combining")
STORAGE_INPUTS = ("degree_one_inputs", "degree_two_inputs")


def ring_distance(k: int, i, j):
    """Hops between relays i and j along the shorter arc; broadcasts."""
    d = np.abs(np.subtract(i, j)) % k
    return np.minimum(d, k - d)


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
        if not 1 <= self.h < np.inf:
            raise InvalidParameterError(f"h must be finite and >= 1, got {self.h}")
        if self.k * self.h >= 2**62:  # squad sizes and their sum stay int64
            raise InvalidParameterError(f"k * h must be below 2**62, got {self.k * self.h:g}")
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
    """Every node of one squad: the slots it stores and the symbol it holds.

    Node i stores the slots ``slots[slot_ptr[i]:slot_ptr[i+1]]`` (sorted) and
    holds ``symbols[i]``, which covers the sources those slots combine.  For
    degree-one inputs (and coupon storage) slots are source indices; for
    degree-two inputs they index the squad's overheard transmission list
    (left relay's rounds first, then the right relay's).
    """

    slot_ptr: np.ndarray
    slots: np.ndarray
    symbols: SymbolBatch


_VERIFY_CHUNK = 64  # relays per vectorised verify pass; bounds its memory


def round_sources(k: int, relays, rounds) -> tuple[np.ndarray, np.ndarray]:
    """The sources r-1 hops left and right of relay j, which its round-r
    transmission covers (its own packet alone in round one); broadcasts."""
    return (relays - rounds) % k + 1, (relays + rounds - 2) % k + 1


class TransmissionSchedule:
    """Every relay's transmissions in one dissemination mode, as arrays on demand.

    Plain forwarding sends the k packets singly: each round's left source,
    then its right one, unless already sent.  Combining sends each round's
    two sources as one XOR.  A schedule is graph-only: a transmission's
    payload is by definition the XOR of the sources it names, so the names
    alone say what every relay and storage node can recover.
    """

    def __init__(self, mode: str, k: int):
        self.mode = mode
        self.k = k
        # every relay has received every packet after this many rounds
        self.rounds = combining_rounds(k)
        self.per_relay = k if mode == "degree_one" else self.rounds

    def transmissions(self, relays) -> tuple[np.ndarray, ...]:
        """``(round, left, right)`` of n relays' transmissions in order,
        shaped (per_relay,) and (n, per_relay) per source (one source named
        twice for a single packet)."""
        t = np.arange(self.per_relay)
        rnd = (t + 1) // 2 + 1 if self.mode == "degree_one" else t + 1
        left, right = round_sources(self.k, np.asarray(relays, dtype=np.int64)[:, None], rnd)
        if self.mode == "degree_one":
            left = right = np.where(t % 2 == 1, left, right)
        return rnd, left, right

    def verify(self) -> bool:
        """True when every relay ends up holding all k packets bit-exact from
        what its two neighbours transmit.  As each payload is the XOR of the
        sources it names, recovery is bit-exact exactly when the names let
        every relay peel out each packet in time.  Relays are checked in
        fixed chunks."""
        k = self.k
        check = self._collects_all if self.mode == "degree_one" else self._decodes_online
        for lo in range(1, k + 1, _VERIFY_CHUNK):
            relays = np.arange(lo, min(lo + _VERIFY_CHUNK, k + 1))
            # heard row c is the left neighbour of relays[c], row c+2 its right one
            if not check(relays, self.transmissions(_wrap(k, np.arange(lo - 1, relays[-1] + 2)))):
                return False
        return True

    def _collects_all(self, relays: np.ndarray, heard: tuple[np.ndarray, ...]) -> bool:
        """Plain forwarding: every heard transmission is one packet, and each
        neighbour forwards the sources up to ``rounds`` hops out on its side,
        which with the relay's own make all k."""
        _, src, right = heard
        if np.any(src != right):
            return False
        k, i, owner = self.k, relays[:, None], np.arange(len(relays))[:, None]
        got = np.zeros((len(relays), k + 1), dtype=bool)  # column 0 takes the far sources
        got[owner[:, 0], relays] = True
        for sent, hops in ((src[:-2], (i - src[:-2]) % k), (src[2:], (src[2:] - i) % k)):
            got[owner, np.where((1 <= hops) & (hops <= self.rounds), sent, 0)] = True
        return bool(got[:, 1:].all())

    def _decodes_online(self, relays: np.ndarray, heard: tuple[np.ndarray, ...]) -> bool:
        """Combining: replay every relay's online decoding, all rounds at once.

        From its side-s neighbour (s = -1 left, +1 right) relay i hears in
        round r a known packet r-2 hops out on the other side and a new one r
        hops out on side s (round one: the neighbour's own packet alone).
        XORing out the known packet gives the new one bit-exact, as each
        payload is the XOR of the two.  The rolling buffer drops what was
        recovered in round q after round q+4 (own packet: q = 0): the known
        packet must still be there, and at most eight packets are ever live.
        """
        rnd, left, right = heard
        k, n = self.k, len(relays)
        i, side, owner = relays[:, None], np.array([-1, 1])[:, None, None], np.arange(n)[:, None]
        # the new packet lies on the sending neighbour's far side
        new, known = np.stack([left[:-2], right[2:]]), np.stack([right[:-2], left[2:]])
        expected = _wrap(k, i + side * rnd), _wrap(k, i - side * (rnd - 2))
        if np.any(new != expected[0]) or np.any(known != expected[1]):
            return False
        recovered = np.full((n, k + 1), -1)  # the round each source was recovered in
        recovered[owner[:, 0], relays] = 0
        recovered[owner, new] = rnd
        age = rnd - recovered[owner, known]
        if np.any(recovered[:, 1:] < 0) or np.any(((age < 1) | (age > 4)) & (known != new)):
            return False  # a packet never recovered, or a known one evicted or not yet there
        width = len(rnd) + 4  # per relay, recoveries by round after three empty rounds
        bins = owner * width + recovered[:, 1:] + 3
        live = np.bincount(bins.ravel(), minlength=n * width).reshape(n, width).cumsum(axis=1)
        return bool((live[:, 4:] - live[:, :-4]).max() <= 8)


class Network:
    """Relays, the dissemination schedule its config names, squads, and
    storage nodes planned whenever they are read."""

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
        self.schedule = TransmissionSchedule(cfg.dissemination, cfg.k)
        # degree-two inputs combine overheard transmissions; coupon nodes and
        # degree-one inputs hold source packets
        self._combines_slots = (
            cfg.storage != "coupon" and cfg.storage_combine_input == "degree_two_inputs"
        )
        self._slot_count = 2 * self.schedule.rounds if self._combines_slots else cfg.k

    @property
    def k(self) -> int:
        return self.cfg.k

    @property
    def total_storage_nodes(self) -> int:
        return int(self.squad_sizes.sum())

    def squad_size(self, gap: int) -> int:
        if not 1 <= gap <= self.k:
            raise InvalidParameterError(f"no squad {gap} on a ring of {self.k}")
        return int(self.squad_sizes[gap - 1])

    def squad(self, gap: int) -> SquadPlan:
        """The plans and symbols of every node in squad ``gap``, made anew from
        the squad's stream; each payload XORs the covered sources."""
        return self._plan([gap])

    def _plan(self, gaps: list[int]) -> SquadPlan:
        """One plan of every node in the squads ``gaps``, squad by squad, made
        in one vectorised pass.  Squad g draws from its own stream,
        ``trial_rng(node_key, g)``, what planning it alone draws: its coupon
        sources, or its degrees' uniforms and then its ``distinct_rows`` draws."""
        sizes = [self.squad_size(gap) for gap in gaps]
        rngs = [trial_rng(self._node_key, gap) for gap in gaps]
        if self.cfg.storage == "coupon":
            ptr = csr_ptr(np.ones(sum(sizes), np.int64))
            slots = np.concatenate([rng.integers(1, self.k + 1, size=n)
                                    for rng, n in zip(rngs, sizes)])
        else:
            degrees = np.minimum(sample_degrees(self._dist, rngs, sizes), self._slot_count)
            ptr, slots = distinct_rows(rngs, degrees, self._slot_count, sizes)
            if not self._combines_slots:
                slots += 1  # a subset of sources, which count from 1
        if self._combines_slots:
            return self._plan_rows(np.repeat(np.repeat(gaps, sizes), np.diff(ptr)), ptr, slots)
        symbols = symbols_from_rows(self.block, ptr, slots)
        # the slots are the sources, kept as the batch's read-only arrays
        return SquadPlan(symbols.ptr, symbols.neighbors, symbols)

    def _plan_rows(self, gap, ptr: np.ndarray, slots: np.ndarray) -> SquadPlan:
        """Attach to each row of degree-two slots the symbol over the sources
        it covers; ``gap`` is the squad of every slot, or of each one.

        A squad's overheard transmissions are linearly independent over
        GF(2): taken from the outermost round inwards, each covers a source
        that none of the remaining ones covers.  So no slot subset cancels,
        and every node covers at least one source.  A relay's rounds cover
        each source at most once, so a node hears a source at most twice
        (once from each relay), and a source heard twice cancels.
        """
        k, rounds, n = self.k, self.schedule.rounds, len(ptr) - 1
        # slot s is round s % rounds + 1 of the left relay (s < rounds) or the right one
        relay = np.where(slots < rounds, gap, gap % k + 1)
        left, right = round_sources(k, relay, slots % rounds + 1)
        two = right != left  # round one carries the relay's own packet alone
        # one key per (node, source) heard, the node above the source's bits
        shift = k.bit_length()
        base = np.repeat(np.arange(n, dtype=np.int64) << shift, np.diff(ptr))
        keys = np.concatenate([base | left, (base | right)[two]]).astype(key_type(n << shift))
        keys.sort()
        lone = np.ones(len(keys) + 1, dtype=np.bool_)  # lone[i]: keys i-1 and i differ
        lone[1:-1] = keys[1:] != keys[:-1]
        heard_once = keys[lone[:-1] & lone[1:]]
        nbr_ptr = csr_ptr(np.bincount(heard_once >> shift, minlength=n))
        sources = heard_once & ((1 << shift) - 1)
        return SquadPlan(ptr, slots, symbols_from_rows(self.block, nbr_ptr, sources))


def build_network(cfg: NetworkConfig, rng: np.random.Generator) -> Network:
    """Draw the source block and squad sizes; node plans follow lazily."""
    block = SourceBlock.random(cfg.k, cfg.payload_len, rng)
    if cfg.squad_size_model == "fixed":
        sizes = np.full(cfg.k, int(cfg.h), dtype=np.int64)
    else:
        sizes = rng.poisson(cfg.h, size=cfg.k).astype(np.int64)
    node_key = int(rng.integers(0, 2**63 - 1))
    return Network(cfg, block, sizes, node_key)


# The benchmark harness (benchmarks/workloads.py) still calls these three;
# nothing in the package does, as every network owns its schedule.
def disseminate_degree_one(net: Network) -> TransmissionSchedule:
    """Plain forwarding: every relay transmits each packet exactly once."""
    return TransmissionSchedule("degree_one", net.k)


def disseminate_degree_two(net: Network) -> TransmissionSchedule:
    """Degree-two combining: own packet, then left+right XORs each round."""
    return TransmissionSchedule("degree_two_combining", net.k)


def storage_listen(net: Network, schedule: TransmissionSchedule) -> None:
    """Reject a schedule whose mode is not the network's; store nothing."""
    if net.cfg.dissemination != schedule.mode:
        raise InvalidParameterError(
            f"schedule mode {schedule.mode!r} does not match config"
        )


@dataclass(frozen=True)
class CollectionReport:
    k_s: int
    s: int
    supersquad_hops: float
    squads_drained: tuple[int, ...]
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

    The drained squads are found first and planned in one pass
    (``Network._plan``), each from its own stream, so the batch is what
    planning them one at a time, in any order, gives; nothing is kept.

    A symbol from the j-th squad drained (0-based) is charged j/2 + 1 hops,
    which makes a full supersquad average exactly (s-1)/4 + 1 per symbol.
    """
    if not 1 <= collector_relay <= net.k:
        raise InvalidParameterError(f"collector relay {collector_relay} outside 1..{net.k}")
    if k_s < 0:
        raise InvalidParameterError(f"cannot collect {k_s} symbols")
    if k_s > net.total_storage_nodes:
        raise ExhaustedNetworkError(
            f"need {k_s} symbols but the network stores only {net.total_storage_nodes}"
        )
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
        hops += take * (len(drained) / 2.0 + 1.0)
        drained.append(gap)
        taken += take
    report = CollectionReport(
        k_s=k_s, s=len(drained), supersquad_hops=hops, squads_drained=tuple(drained)
    )
    if not drained:
        empty = np.zeros((0, net.block.payload_len), np.uint8)
        return SymbolBatch(np.zeros(1, np.int64), np.zeros(0, np.int64), empty), report
    return net._plan(drained).symbols[:k_s], report


def simulate_collection_with_doping(
    net: Network,
    collector_relay: int,
    k_s: int,
    rng: np.random.Generator,
) -> tuple[DecodeReport, CollectionReport]:
    """Collect upfront symbols, then decode, polling sources on every stall.

    Each doped packet is charged the ring distance from the collector to its
    source relay (uniform sources average about k/4 hops), all in one array
    expression.
    """
    symbols, creport = collect(net, collector_relay, k_s)
    report = decode_with_doping(net.block, symbols, rng)
    doped = np.array(report.doped_indices, dtype=np.int64)
    doped_hops = tuple(ring_distance(net.k, doped, collector_relay).tolist())
    creport = replace(creport, doped_hop_costs=doped_hops)
    return report, creport


def codec_dopings(
    seed: int, streams, dist: DegreeDistribution, k_s: int, payload_len: int
) -> np.ndarray:
    """k_d of one direct-encoding trial per stream: ``trial_rng(seed, stream)``
    draws the block, then k_s symbols from ``dist``, then the dopings."""
    kd = np.empty(len(streams), dtype=np.int64)
    for i, stream in enumerate(streams):
        rng = trial_rng(seed, stream)
        block = SourceBlock.random(dist.k, payload_len, rng)
        kd[i] = decode_with_doping(block, encode_symbols(block, dist, k_s, rng), rng).k_d
    return kd


def network_dopings(
    seed: int, streams, cfg: NetworkConfig, collector_relay: int, k_s: int
) -> np.ndarray:
    """k_d of one network trial per stream: ``trial_rng(seed, stream)`` builds
    the network, then draws the dopings of collecting k_s symbols."""
    kd = np.empty(len(streams), dtype=np.int64)
    for i, stream in enumerate(streams):
        rng = trial_rng(seed, stream)
        net = build_network(cfg, rng)
        kd[i] = simulate_collection_with_doping(net, collector_relay, k_s, rng)[0].k_d
    return kd
