"""Fountain encoding and the peeling decoder with degree-two doping.

Coded symbols are XORs of source-packet subsets.  A batch is encoded in one
vectorised pass into compressed sparse rows (a row-pointer array plus a
flat index array), the form storage squads are planned in too.  Rows are
checked once per batch and travel, beside their payloads, as a read-only
``SymbolBatch`` that the decoder reads without building symbol objects.

The decoder peels: processing a ripple symbol removes it from every
adjacent output symbol, and any output thereby reduced to a single neighbor
releases that neighbor into the ripple, a first-in-first-out queue.  The
queue's order never changes a stall: a stall state is the peeling closure
of what has been decoded.  Peeling works on the collected rows as int
arrays and per-output residual counts; payloads are replayed in decode
order only when asked for, so a Monte Carlo run that needs only the doping
count never XORs a payload.  When the ripple empties before all
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
from functools import cached_property

import numpy as np

from .degrees import DegreeDistribution, sample_degrees
from .errors import (
    DopingUnavailableError,
    InvalidParameterError,
    MalformedInputError,
    StalledDecoderError,
)

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


class SymbolBatch(Sequence[CodedSymbol]):
    """Coded symbols as read-only arrays: symbol i covers the sources
    ``neighbors[ptr[i]:ptr[i+1]]`` (sorted, distinct) and carries row i of
    the n x payload_len uint8 ``payloads``.  A ``CodedSymbol`` is built only
    when indexed or iterated; a step-one slice is a batch of views.  A batch
    equals a batch, list or tuple of the same symbols in order.
    """

    __slots__ = ("ptr", "neighbors", "payloads")

    def __init__(self, ptr: np.ndarray, neighbors: np.ndarray, payloads: np.ndarray):
        # unchecked: symbols_from_rows checks rows, and a CodedSymbol its own
        self.ptr, self.neighbors, self.payloads = arrays = (
            np.asarray(ptr, np.int64).view(), np.asarray(neighbors, np.int64).view(),
            np.asarray(payloads, np.uint8).view())
        for arr in arrays:
            arr.flags.writeable = False

    @classmethod
    def of(cls, symbols: Iterable[CodedSymbol]) -> "SymbolBatch":
        """``symbols`` as a batch, converted once; a batch is returned as is."""
        if isinstance(symbols, SymbolBatch):
            return symbols
        symbols = list(symbols)
        width = len(symbols[0].payload) if symbols else 0
        if any(len(sym.payload) != width for sym in symbols):
            raise MalformedInputError("symbol payloads differ in length")
        payloads = np.frombuffer(b"".join(sym.payload for sym in symbols), np.uint8)
        return cls(_csr_ptr(np.array([sym.degree for sym in symbols], np.int64)),
                   np.array([s for sym in symbols for s in sym.neighbors], np.int64),
                   payloads.reshape(len(symbols), width))

    @classmethod
    def concat(cls, batches: Sequence["SymbolBatch"]) -> "SymbolBatch":
        """The symbols of ``batches``, in order, as one batch."""
        if not batches:
            return cls.of(())
        lengths = np.concatenate([np.diff(b.ptr) for b in batches])
        return cls(_csr_ptr(lengths), np.concatenate([b.neighbors for b in batches]),
                   np.concatenate([b.payloads for b in batches]))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, int):
            return next(iter(self[rows:rows + 1]))
        if rows.step != 1:
            return SymbolBatch.of(map(self.__getitem__, rows))
        lo, hi = rows.start, max(rows.start, rows.stop)
        ptr = self.ptr[lo:hi + 1]
        return SymbolBatch(ptr - ptr[0], self.neighbors[ptr[0]:ptr[-1]], self.payloads[lo:hi])

    def __iter__(self) -> Iterator[CodedSymbol]:
        nbrs, bounds = self.neighbors.tolist(), self.ptr.tolist()
        for lo, hi, payload in zip(bounds, bounds[1:], self.payloads):
            sym = object.__new__(CodedSymbol)  # rows are checked as a batch
            sym.__dict__.update(neighbors=tuple(nbrs[lo:hi]), payload=payload.tobytes())
            yield sym

    def __eq__(self, other) -> bool:
        if isinstance(other, (SymbolBatch, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def symbols_from_rows(
    block: SourceBlock, ptr: np.ndarray, neighbors: np.ndarray
) -> SymbolBatch:
    """One coded symbol per CSR row ``neighbors[ptr[i]:ptr[i+1]]`` of sources.

    The batch is checked once, as arrays: every row non-empty, strictly
    increasing and inside 1..k.  Every payload comes from one XOR reduction
    over the block's packet matrix.
    """
    if len(ptr) == 0 or ptr[0] != 0 or ptr[-1] != len(neighbors):
        raise InvalidParameterError("row pointers must run from 0 to the neighbor count")
    if np.any(ptr[1:] <= ptr[:-1]):
        raise InvalidParameterError("a coded symbol needs at least one neighbor")
    if len(neighbors) and (neighbors.min() < 1 or neighbors.max() > block.k):
        raise InvalidParameterError(f"neighbors must lie in 1..{block.k}")
    step = np.diff(neighbors)
    step[ptr[1:-1] - 1] = 1  # a row may start below the previous row's end
    if np.any(step < 1):
        raise InvalidParameterError("neighbors must be sorted and distinct")
    payloads = np.bitwise_xor.reduceat(block.matrix[neighbors - 1], ptr[:-1], axis=0)
    return SymbolBatch(ptr, neighbors, payloads)


def encode_symbols(
    block: SourceBlock, dist: DegreeDistribution, n: int, rng: np.random.Generator
) -> SymbolBatch:
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
    """Mutable peeling-decoder state on int arrays; single-threaded per trial.

    The collected rows are kept as CSR (row pointers into the flat, sorted
    neighbours), taken straight from a ``SymbolBatch`` (a plain sequence of
    symbols is converted once), beside the source-to-output adjacency.
    Peeling touches only a residual count per output: when decoding a source
    brings an output's count to one, its row is rescanned for the one
    undecoded source, which joins the back of the ripple (a first-in-first-out
    deque of source ids) unless it is there already, in which case the output
    is counted as defected.  A decoded source's outputs are visited in
    ascending order, so the ripple's order follows from the rows alone.  The
    ids of outputs at count two are kept in a bucket for doping.

    No payload is touched while peeling.  Payloads are replayed in decode
    order when first asked for: a released source's payload is its releasing
    row's payload (turned into an int only then) XOR the replayed values of
    that row's other neighbours, and a doped source's payload is the
    oracle's packet.
    """

    def __init__(self, k: int, payload_len: int, symbols: Sequence[CodedSymbol] = ()):
        self.k = k
        self.payload_len = payload_len
        batch = SymbolBatch.of(symbols)
        n, flat = len(batch), batch.neighbors
        bad = (flat < 1) | (flat > k)
        if bad.any():
            row = batch[int(np.searchsorted(batch.ptr, bad.argmax(), "right")) - 1]
            raise MalformedInputError(f"symbol neighbors {row.neighbors} outside 1..{k}")
        lengths = np.diff(batch.ptr)
        owner = np.repeat(np.arange(n), lengths)
        self._ptr = batch.ptr.tolist()
        self._nbrs = flat.tolist()
        self._payloads = batch.payloads  # rows turned into ints when replayed
        # outputs of source s: _adj[_adj_ptr[s]:_adj_ptr[s + 1]], ascending,
        # from one sort of (source, output) keys
        self._adj_ptr = _csr_ptr(np.bincount(flat, minlength=k + 1)).tolist()
        self._adj = (np.sort(flat * n + owner) % n).tolist()
        self._count = lengths.tolist()
        self._degree_two = set(np.flatnonzero(lengths == 2).tolist())
        self._flags = bytearray(k + 1)  # decoded sources
        self._releaser = [-1] * (k + 1)  # releasing output of each source
        self._order: list[int] = []  # decoded sources in decode order
        # payloads by source: doped ones when fetched, released ones when
        # replayed (0 before); _values holds the replayed prefix of _order
        self._vals = [0] * (k + 1)
        self._values: dict[int, int] = {}
        self.ripple: deque[int] = deque()
        self.doped: list[int] = []
        self.dope_levels: list[int] = []
        self.defected_total = 0
        # per-step counters; step 0 seeds the ripple
        self._releases: list[int] = []
        self._defected: list[int] = []
        self._ripple_sizes: list[int] = []
        self._dope_steps: list[int] = []
        ones = np.flatnonzero(lengths == 1).tolist()
        releases = sum(map(self._release, ones))
        self._record(releases, len(ones) - releases)

    # -- inspection ---------------------------------------------------------

    @property
    def decoded_count(self) -> int:
        return len(self._order)

    @property
    def ripple_size(self) -> int:
        return len(self.ripple)

    @property
    def finished(self) -> bool:
        return len(self._order) == self.k

    @property
    def undecoded(self) -> list[int]:
        """Sources not yet decoded, ascending."""
        flags = self._flags
        return [i for i in range(1, self.k + 1) if not flags[i]]

    @property
    def decoded(self) -> dict[int, int]:
        """Payloads of the decoded sources, as ints, in decode order (replayed
        when first asked for)."""
        self._replay()
        return self._values

    def _replay(self) -> list[int]:
        """Replay the sources decoded since the last call; returns the payloads
        by source, 0 for a source not decoded."""
        values, vals = self._values, self._vals
        nbrs, ptr = self._nbrs, self._ptr
        new = self._order[len(values):]
        for src in new:
            oid = self._releaser[src]
            if oid < 0:  # doped
                continue
            value = int.from_bytes(self._payloads[oid], "big")
            for other in nbrs[ptr[oid]:ptr[oid + 1]]:
                value ^= vals[other]  # src's own entry is still 0
            vals[src] = value
        values.update(zip(new, map(vals.__getitem__, new)))
        return vals

    @property
    def history(self) -> list[StepRecord]:
        """One record per step, built from the step counters when asked for."""
        levels = dict(zip(self._dope_steps, self.dope_levels))
        steps = zip(self._releases, self._defected, self._ripple_sizes)
        return [
            StepRecord("dope" if t in levels else "decode" if t else "init", *counts,
                       levels.get(t))
            for t, counts in enumerate(steps)
        ]

    def recovered_payload(self, index: int) -> bytes:
        return self.decoded[index].to_bytes(self.payload_len, "big")

    # -- peeling ------------------------------------------------------------

    def _release(self, oid: int) -> int:
        """Put output oid's one undecoded source in the ripple; returns 1, or
        0 when the source is there already (the output defects)."""
        for src in self._nbrs[self._ptr[oid]:self._ptr[oid + 1]]:
            if not self._flags[src]:
                break
        if self._releaser[src] >= 0:
            return 0
        self._releaser[src] = oid
        self.ripple.append(src)
        return 1

    def _record(self, releases: int, defected: int) -> None:
        self.defected_total += defected
        self._releases.append(releases)
        self._defected.append(defected)
        self._ripple_sizes.append(len(self.ripple))

    def _absorb(self, src: int) -> int:
        """Record src as decoded and count down its outputs; returns releases."""
        count, bucket = self._count, self._degree_two
        self._flags[src] = 1
        self._order.append(src)
        releases = spent = 0
        for oid in self._adj[self._adj_ptr[src]:self._adj_ptr[src + 1]]:
            c = count[oid] - 1
            count[oid] = c
            if c == 2:
                bucket.add(oid)
            elif c == 1:
                bucket.discard(oid)
                releases += self._release(oid)
                spent += 1
        self._record(releases, spent - releases)
        return releases


def init_decoder(
    k: int,
    symbols: Sequence[CodedSymbol],
    payload_len: int | None = None,
) -> DecoderState:
    """Build adjacency from the collected symbols and seed the ripple."""
    if payload_len is None:
        payload_len = len(symbols[0].payload) if symbols else 1
    return DecoderState(k, payload_len, symbols)


def process_ripple_symbol(
    state: DecoderState, rng: np.random.Generator | None = None
) -> int:
    """Decode the oldest ripple symbol; returns the number of new ripple
    entries.  ``rng`` is unused: the ripple is first in, first out."""
    if not state.ripple:
        raise StalledDecoderError("ripple is empty; dope or stop")
    return state._absorb(state.ripple.popleft())


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
    count = state._count
    if state._degree_two:
        lowest = 2
        holders = sorted(state._degree_two)
    else:  # rare: rescan for the lowest residual degree above two
        live = [oid for oid, c in enumerate(count) if c > 2]
        lowest = min((count[oid] for oid in live), default=0)
        holders = [oid for oid in live if count[oid] == lowest]
    if holders:
        pair = int(rng.integers(len(holders) * lowest))
        oid = holders[pair // lowest]
        row = state._nbrs[state._ptr[oid]:state._ptr[oid + 1]]
        src = [s for s in row if not state._flags[s]][pair % lowest]
        level = lowest
    else:
        candidates = state.undecoded
        src = candidates[int(rng.integers(len(candidates)))]
        level = 0
    try:
        packet = oracle(src)
    except Exception as exc:  # noqa: BLE001 - oracle contract is opaque
        raise DopingUnavailableError(f"oracle failed for source {src}") from exc
    if packet is None:
        raise DopingUnavailableError(f"oracle returned nothing for source {src}")
    state._vals[src] = int.from_bytes(packet, "big")
    state.doped.append(src)
    state.dope_levels.append(level)
    state._dope_steps.append(len(state._releases))
    state._absorb(src)
    return src


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of one doped decode run; ``recovered`` is replayed on first use."""

    success: bool
    k: int
    k_s: int
    k_d: int
    doped_indices: tuple[int, ...]
    dope_levels: tuple[int, ...]  # residual degree doped into; 0 = uncovered poll
    interdoping_yields: tuple[int, ...]
    ripple_trajectory: tuple[int, ...]
    defected_total: int
    state: DecoderState = field(repr=False, compare=False)

    @cached_property
    def recovered(self) -> dict[int, bytes]:
        values, size = self.state.decoded, self.state.payload_len
        return {i: values[i].to_bytes(size, "big") for i in sorted(values)}


def decode_with_doping(
    block: SourceBlock,
    symbols: Sequence[CodedSymbol],
    rng: np.random.Generator,
) -> DecodeReport:
    """Run the full decode loop: dope from ``block.packet`` whenever the
    ripple is empty.

    Stall times are logged at each doping; interdoping yields are their
    successive differences (the very first yield counts the decodes that
    happened before the first stall).
    """
    state = init_decoder(block.k, symbols, block.payload_len)
    while not state.finished:
        if state.ripple:
            process_ripple_symbol(state, rng)
        else:
            dope_degree_two(state, block.packet, rng)
    # step 0 seeds the ripple and every later step decodes one source
    stalls = [0] + [step - 1 for step in state._dope_steps]
    yields = tuple(b - a for a, b in zip(stalls, stalls[1:]))
    return DecodeReport(
        success=state.finished,
        k=block.k,
        k_s=len(symbols),
        k_d=len(state.doped),
        doped_indices=tuple(state.doped),
        dope_levels=tuple(state.dope_levels),
        interdoping_yields=yields,
        ripple_trajectory=tuple(state._ripple_sizes),
        defected_total=state.defected_total,
        state=state,
    )
