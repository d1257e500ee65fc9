"""Fountain encoding and the peeling decoder with degree-two doping.

Coded symbols are XORs of source-packet subsets.  A batch is encoded in one
vectorised pass into compressed sparse rows (a row-pointer array plus a
flat index array), the form storage squads are planned in too; one builder
checks such rows once per batch and turns them into symbols.

The decoder peels: processing a ripple symbol removes it from every
adjacent output symbol, and any output thereby reduced to a single neighbor
releases that neighbor into the ripple.  When the ripple empties before all
sources are recovered, a doping step fetches one true source packet from an
oracle.  It picks a remaining output of lowest residual degree uniformly
(degree two first, then three, and so on) and then one of that output's
neighbors uniformly, so each input is weighted by the number of such
outputs that hold it: the size-biased draw the ripple-walk model assumes.
When no outputs remain the choice is uniform over the undecoded, i.e.
uncovered, symbols.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .degrees import DegreeDistribution, sample_degrees
from .errors import (
    DopingUnavailableError,
    InvalidParameterError,
    MalformedInputError,
    StalledDecoderError,
)

RIPPLE_DISCIPLINES = ("fifo", "lifo", "random")


@dataclass(frozen=True)
class SourceBlock:
    """k fixed-length source packets, indexed 1..k.

    ``matrix`` holds the same packets as a read-only k x payload_len uint8
    array (row i - 1 is packet i), built once for vectorised XORs.
    """

    k: int
    payload_len: int
    packets: tuple[bytes, ...]
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1 or len(self.packets) != self.k:
            raise InvalidParameterError("packets must hold exactly k entries")
        if self.payload_len < 1 or any(
            len(p) != self.payload_len for p in self.packets
        ):
            raise InvalidParameterError("all payloads must have length payload_len")
        # a buffer over immutable bytes is read-only
        matrix = np.frombuffer(b"".join(self.packets), dtype=np.uint8)
        object.__setattr__(self, "matrix", matrix.reshape(self.k, self.payload_len))

    @classmethod
    def random(
        cls, k: int, payload_len: int, rng: np.random.Generator
    ) -> "SourceBlock":
        raw = rng.integers(0, 256, size=(k, payload_len), dtype=np.uint8)
        return cls(k=k, payload_len=payload_len, packets=tuple(r.tobytes() for r in raw))

    def packet(self, index: int) -> bytes:
        if not 1 <= index <= self.k:
            raise InvalidParameterError(f"source index {index} outside 1..{self.k}")
        return self.packets[index - 1]

    def xor_of(self, indices: Iterable[int]) -> bytes:
        acc = 0
        for i in indices:
            acc ^= int.from_bytes(self.packet(i), "big")
        return acc.to_bytes(self.payload_len, "big")


@dataclass(frozen=True)
class CodedSymbol:
    """XOR of the source packets named by ``neighbors`` (sorted, distinct)."""

    neighbors: tuple[int, ...]
    payload: bytes

    def __post_init__(self):
        if len(self.neighbors) < 1:
            raise InvalidParameterError("a coded symbol needs at least one neighbor")
        if list(self.neighbors) != sorted(set(self.neighbors)):
            raise InvalidParameterError("neighbors must be sorted and distinct")

    @property
    def degree(self) -> int:
        return len(self.neighbors)


def _csr_ptr(lengths: np.ndarray) -> np.ndarray:
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def _distinct_rows(
    rng: np.random.Generator, sizes: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """One uniform subset of ``range(m)`` per row, of the given sizes, as CSR.

    Rows of at most a quarter of m draw with replacement in one batch; a
    sort finds the duplicates within each row, and only those are redrawn
    until none remain.  Larger rows take a permutation prefix.  Each row
    comes out sorted.
    """
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
    return _csr_ptr(sizes), keys % m


def symbols_from_rows(
    block: SourceBlock, ptr: np.ndarray, neighbors: np.ndarray
) -> list[CodedSymbol]:
    """One coded symbol per CSR row ``neighbors[ptr[i]:ptr[i+1]]`` of sources.

    The batch is checked once, as arrays: every row non-empty, strictly
    increasing and inside 1..k.  The symbols are then built without
    repeating that check one symbol at a time, and every payload comes from
    one XOR reduction over the block's packet matrix.
    """
    if len(ptr) == 0 or ptr[0] != 0 or ptr[-1] != len(neighbors):
        raise InvalidParameterError("row pointers must run from 0 to the neighbor count")
    if np.any(ptr[1:] <= ptr[:-1]):
        raise InvalidParameterError("a coded symbol needs at least one neighbor")
    if len(neighbors) == 0:
        return []
    if neighbors.min() < 1 or neighbors.max() > block.k:
        raise InvalidParameterError(f"neighbors must lie in 1..{block.k}")
    step = np.diff(neighbors)
    step[ptr[1:-1] - 1] = 1  # a row may start below the previous row's end
    if np.any(step < 1):
        raise InvalidParameterError("neighbors must be sorted and distinct")
    payloads = np.bitwise_xor.reduceat(block.matrix[neighbors - 1], ptr[:-1], axis=0)
    nbrs, bounds = neighbors.tolist(), ptr.tolist()
    symbols = []
    for lo, hi, payload in zip(bounds, bounds[1:], payloads):
        sym = object.__new__(CodedSymbol)  # checked above, as a batch
        sym.__dict__.update(neighbors=tuple(nbrs[lo:hi]), payload=payload.tobytes())
        symbols.append(sym)
    return symbols


def encode_symbols(
    block: SourceBlock, dist: DegreeDistribution, n: int, rng: np.random.Generator
) -> list[CodedSymbol]:
    """Encode n symbols: each draws a degree, that many distinct sources, XORs them.

    All n degrees are drawn first, in one call, then all neighbour rows in
    one batched subset draw; the XORs come from one reduction.
    """
    if dist.k != block.k:
        raise InvalidParameterError(
            f"distribution support {dist.k} != block size {block.k}"
        )
    if n < 0:
        raise InvalidParameterError(f"cannot encode {n} symbols")
    ptr, rows = _distinct_rows(rng, sample_degrees(dist, rng, n), block.k)
    return symbols_from_rows(block, ptr, rows + 1)


@dataclass(frozen=True)
class StepRecord:
    """One decoder step: kind is 'init', 'decode' or 'dope'."""

    kind: str
    releases: int
    defected: int
    ripple_size: int
    dope_level: int | None = None  # residual degree doped into; 0 = uncovered poll


class DecoderState:
    """Mutable peeling-decoder state; single-threaded per trial.

    Outputs keep a residual neighbor set and a residual payload (original
    payload with every decoded member XORed out).  An output that releases
    or empties is spent.  The ids of outputs at residual degree two are kept
    in a bucket, so doping need not rescan every output.  The ripple holds
    (source, payload) pairs without duplicates; redundant releases are
    dropped and counted as defected.
    """

    def __init__(self, k: int, payload_len: int, ripple_discipline: str = "fifo"):
        if ripple_discipline not in RIPPLE_DISCIPLINES:
            raise InvalidParameterError(
                f"ripple_discipline must be one of {RIPPLE_DISCIPLINES}"
            )
        self.k = k
        self.payload_len = payload_len
        self.ripple_discipline = ripple_discipline
        self.undecoded: set[int] = set(range(1, k + 1))
        self.decoded: dict[int, int] = {}
        self.ripple: deque[tuple[int, int]] = deque()
        self._ripple_members: set[int] = set()
        self._out_neighbors: list[set[int]] = []
        self._out_payload: list[int] = []
        self._adjacency: dict[int, set[int]] = {}
        self._degree_two: set[int] = set()
        self.doped: list[int] = []
        self.dope_levels: list[int] = []
        self.history: list[StepRecord] = []
        self.defected_total = 0

    # -- inspection ---------------------------------------------------------

    @property
    def decoded_count(self) -> int:
        return len(self.decoded)

    @property
    def ripple_size(self) -> int:
        return len(self.ripple)

    @property
    def finished(self) -> bool:
        return not self.undecoded

    def iter_outputs(self) -> Iterator[tuple[frozenset[int], int]]:
        """Live (unreleased) outputs as (residual neighbors, residual payload)."""
        for nbrs, payload in zip(self._out_neighbors, self._out_payload):
            if len(nbrs) >= 2:
                yield frozenset(nbrs), payload

    def recovered_payload(self, index: int) -> bytes:
        return self.decoded[index].to_bytes(self.payload_len, "big")

    # -- construction -------------------------------------------------------

    def _add_symbol(self, sym: CodedSymbol) -> None:
        if sym.neighbors[-1] > self.k or sym.neighbors[0] < 1:
            raise MalformedInputError(
                f"symbol neighbors {sym.neighbors} outside 1..{self.k}"
            )
        oid = len(self._out_neighbors)
        self._out_neighbors.append(set(sym.neighbors))
        self._out_payload.append(int.from_bytes(sym.payload, "big"))
        for src in sym.neighbors:
            self._adjacency.setdefault(src, set()).add(oid)
        if len(sym.neighbors) == 2:
            self._degree_two.add(oid)

    def _seed_ripple(self) -> None:
        releases = defected = 0
        for oid, nbrs in enumerate(self._out_neighbors):
            if len(nbrs) == 1:
                (src,) = nbrs
                nbrs.clear()
                self._adjacency[src].discard(oid)
                if src in self._ripple_members:
                    defected += 1
                else:
                    self.ripple.append((src, self._out_payload[oid]))
                    self._ripple_members.add(src)
                    releases += 1
        self.defected_total += defected
        self.history.append(StepRecord("init", releases, defected, len(self.ripple)))

    # -- core peeling -------------------------------------------------------

    def _pop_ripple(self, rng: np.random.Generator | None) -> tuple[int, int]:
        if self.ripple_discipline == "fifo":
            return self.ripple.popleft()
        if self.ripple_discipline == "lifo":
            return self.ripple.pop()
        if rng is None:
            raise InvalidParameterError("random ripple discipline needs an rng")
        pick = int(rng.integers(len(self.ripple)))
        self.ripple.rotate(-pick)
        item = self.ripple.popleft()
        self.ripple.rotate(pick)
        return item

    def _absorb(self, src: int, payload: int) -> tuple[int, int]:
        """Record src as decoded and propagate; returns (releases, defected)."""
        self.decoded[src] = payload
        self.undecoded.discard(src)
        releases = defected = 0
        for oid in self._adjacency.pop(src, ()):
            nbrs = self._out_neighbors[oid]
            nbrs.discard(src)
            self._out_payload[oid] ^= payload
            if len(nbrs) == 2:
                self._degree_two.add(oid)
            elif len(nbrs) == 1:
                self._degree_two.discard(oid)
                (last,) = nbrs
                nbrs.clear()
                self._adjacency[last].discard(oid)
                if last in self._ripple_members or last in self.decoded:
                    defected += 1
                else:
                    self.ripple.append((last, self._out_payload[oid]))
                    self._ripple_members.add(last)
                    releases += 1
        self.defected_total += defected
        return releases, defected


def init_decoder(
    k: int,
    symbols: Sequence[CodedSymbol],
    payload_len: int | None = None,
    ripple_discipline: str = "fifo",
) -> DecoderState:
    """Build adjacency from the collected symbols and seed the ripple."""
    if payload_len is None:
        payload_len = len(symbols[0].payload) if symbols else 1
    state = DecoderState(k, payload_len, ripple_discipline)
    for sym in symbols:
        state._add_symbol(sym)
    state._seed_ripple()
    return state


def process_ripple_symbol(
    state: DecoderState, rng: np.random.Generator | None = None
) -> int:
    """Decode one ripple symbol; returns the number of new ripple entries."""
    if not state.ripple:
        raise StalledDecoderError("ripple is empty; dope or stop")
    src, payload = state._pop_ripple(rng)
    state._ripple_members.discard(src)
    releases, defected = state._absorb(src, payload)
    state.history.append(StepRecord("decode", releases, defected, len(state.ripple)))
    return releases


def dope_degree_two(
    state: DecoderState,
    oracle: Callable[[int], bytes],
    rng: np.random.Generator,
) -> int:
    """Fetch one true source packet to unlock a stalled decoder.

    Selection is one uniform draw over the (output, neighbor) pairs of the
    remaining outputs of lowest residual degree (degree two when
    available), taken in output order with each output's neighbors sorted.
    An input is thus weighted by how many of those outputs hold it, so a
    degree-two doping releases 1 + Poisson(lambda) outputs, as the ripple
    walk of ``analytics`` assumes.  With no outputs left the uncovered
    symbols are polled uniformly.  The fetched packet is absorbed exactly
    like a ripple symbol.
    """
    if state.ripple:
        raise InvalidParameterError("doping requires an empty ripple")
    if state.finished:
        raise InvalidParameterError("decoding already complete")
    if state._degree_two:
        lowest = 2
        holders = [state._out_neighbors[oid] for oid in sorted(state._degree_two)]
    else:  # rare: rescan for the lowest residual degree above two
        live = [nbrs for nbrs in state._out_neighbors if len(nbrs) > 2]
        lowest = min(map(len, live), default=0)
        holders = [nbrs for nbrs in live if len(nbrs) == lowest]
    if holders:
        pair = int(rng.integers(len(holders) * lowest))
        src = sorted(holders[pair // lowest])[pair % lowest]
        level = lowest
    else:
        candidates = sorted(state.undecoded)
        src = candidates[int(rng.integers(len(candidates)))]
        level = 0
    try:
        packet = oracle(src)
    except Exception as exc:  # noqa: BLE001 - oracle contract is opaque
        raise DopingUnavailableError(f"oracle failed for source {src}") from exc
    if packet is None:
        raise DopingUnavailableError(f"oracle returned nothing for source {src}")
    releases, defected = state._absorb(src, int.from_bytes(packet, "big"))
    state.doped.append(src)
    state.dope_levels.append(level)
    state.history.append(
        StepRecord("dope", releases, defected, len(state.ripple), dope_level=level)
    )
    return src


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of one doped decode run."""

    success: bool
    k: int
    k_s: int
    k_d: int
    doped_indices: tuple[int, ...]
    dope_levels: tuple[int, ...]  # residual degree doped into; 0 = uncovered poll
    interdoping_yields: tuple[int, ...]
    ripple_trajectory: tuple[int, ...]
    defected_total: int
    recovered: dict[int, bytes]


def decode_with_doping(
    block: SourceBlock,
    symbols: Sequence[CodedSymbol],
    rng: np.random.Generator,
    ripple_discipline: str = "fifo",
    oracle: Callable[[int], bytes] | None = None,
) -> DecodeReport:
    """Run the full decode loop: dope whenever the ripple is empty.

    Stall times are logged at each doping; interdoping yields are their
    successive differences (the very first yield counts the decodes that
    happened before the first stall).
    """
    state = init_decoder(block.k, symbols, block.payload_len, ripple_discipline)
    if oracle is None:
        oracle = block.packet
    stall_steps: list[int] = []
    while not state.finished:
        if state.ripple:
            process_ripple_symbol(state, rng)
        else:
            stall_steps.append(state.decoded_count)
            dope_degree_two(state, oracle, rng)
    yields = tuple(
        int(b) - int(a) for a, b in zip([0] + stall_steps[:-1], stall_steps)
    )
    trajectory = tuple(rec.ripple_size for rec in state.history)
    recovered = {i: state.recovered_payload(i) for i in sorted(state.decoded)}
    return DecodeReport(
        success=state.finished,
        k=block.k,
        k_s=len(symbols),
        k_d=len(state.doped),
        doped_indices=tuple(state.doped),
        dope_levels=tuple(state.dope_levels),
        interdoping_yields=yields,
        ripple_trajectory=trajectory,
        defected_total=state.defected_total,
        recovered=recovered,
    )


def unreleased_degree_histogram(state: DecoderState) -> dict[int, float]:
    """Empirical pmf of residual degrees among unreleased (degree >= 2) outputs."""
    counts: dict[int, int] = {}
    for nbrs in state._out_neighbors:
        d = len(nbrs)
        if d >= 2:
            counts[d] = counts.get(d, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return {}
    return {d: c / total for d, c in sorted(counts.items())}
