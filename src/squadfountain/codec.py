"""Fountain encoding and the peeling decoder with degree-two doping.

Coded symbols are XORs of source-packet subsets.  A batch is encoded in one
vectorised pass into compressed sparse rows (a row-pointer array plus a
flat index array), the form storage squads are planned in too.  Rows
travel, beside their payloads, as a read-only ``SymbolBatch`` that the
decoder checks once and reads without building symbol objects.

The decoder peels: processing a ripple symbol removes it from every
adjacent output symbol, and any output thereby reduced to a single neighbor
releases that neighbor into the ripple, a first-in-first-out queue.  The
queue's order never changes a stall: a stall state is the peeling closure
of what has been decoded.  Peeling works on the collected rows as int
arrays and per-output residual counts; payloads are replayed in decode
order only when asked for, from one conversion of every payload row to an
int, so a Monte Carlo run that needs only the doping count never XORs a
payload.  When the ripple empties before all sources are recovered, a
doping step, taken inside the same loop that peels, fetches one true source
packet from an oracle.  It picks a remaining output of lowest residual
degree uniformly (degree two first, then three, and so on) and then one of
that output's neighbors uniformly, so each input is weighted by the number
of such outputs that hold it: the size-biased draw the ripple-walk model
assumes.  When no outputs remain the choice is uniform over the undecoded,
i.e. uncovered, symbols.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .degrees import DegreeDistribution, sample_degrees
from .errors import (
    DopingUnavailableError,
    InvalidParameterError,
    MalformedInputError,
    StalledDecoderError,
)


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox keyed by the pair (seed, stream) as two uint64 words: distinct
    pairs never share a key."""
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 2**64:
            raise InvalidParameterError(f"{name} {value} outside 0..2**64-1")
    key = np.array([seed, stream], dtype=np.uint64)  # a list of ints >= 2**63 goes float
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SourceBlock:
    """k fixed-length source packets, indexed 1..k, held in one buffer.

    ``data`` is the k packets back to back; ``words`` views it as read-only
    machine words for vectorised XORs, and ``packets`` splits it into k
    ``bytes`` when read.
    """

    k: int
    payload_len: int
    data: bytes

    def __post_init__(self):
        if min(self.k, self.payload_len) < 1 or len(self.data) != self.k * self.payload_len:
            raise InvalidParameterError("data must hold k >= 1 payloads of payload_len >= 1 bytes")

    @classmethod
    def random(
        cls, k: int, payload_len: int, rng: np.random.Generator
    ) -> "SourceBlock":
        if min(k, payload_len) < 1:
            raise InvalidParameterError(f"need k, payload_len >= 1, got {k}, {payload_len}")
        raw = rng.integers(0, 256, size=(k, payload_len), dtype=np.uint8)
        return cls(k=k, payload_len=payload_len, data=raw.tobytes())

    @cached_property
    def packets(self) -> tuple[bytes, ...]:
        return tuple(self.packet(i) for i in range(1, self.k + 1))

    def packet(self, index: int) -> bytes:
        if not 1 <= index <= self.k:
            raise InvalidParameterError(f"source index {index} outside 1..{self.k}")
        return self.data[(index - 1) * self.payload_len : index * self.payload_len]

    @cached_property
    def words(self) -> np.ndarray:
        """Read-only: a view of the packets as the widest machine words
        dividing payload_len, one row per packet."""
        word = next(w for w in (8, 4, 2, 1) if self.payload_len % w == 0)
        return np.frombuffer(self.data, dtype=f"u{word}").reshape(self.k, -1)


@dataclass(frozen=True)
class CodedSymbol:
    """XOR of the source packets named by ``neighbors`` (sorted, distinct)."""

    neighbors: tuple[int, ...]
    payload: bytes

    @property
    def degree(self) -> int:
        return len(self.neighbors)


def key_type(bound: int) -> type:
    """int32 when every sort key lies below ``bound`` and fits (it sorts
    faster), else int64."""
    return np.int32 if bound < 2**31 else np.int64


def csr_ptr(lengths: np.ndarray) -> np.ndarray:
    """Row pointers of a CSR layout whose rows have the given lengths."""
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def _draws(
    rngs: Sequence[np.random.Generator], m: int, first_key, at: np.ndarray | None = None
) -> np.ndarray:
    """One uniform value in ``range(m)`` per key position in ``at`` (every
    key when None), ascending: stream j draws, in order, those in its span
    ``first_key[j]:first_key[j + 1]``."""
    if len(rngs) == 1:  # one stream draws them all, with no split
        return rngs[0].integers(0, m, size=first_key[-1] if at is None else len(at))
    cut = (first_key if at is None else np.searchsorted(at, first_key)).tolist()
    return np.concatenate([rng.integers(0, m, size=hi - lo)
                           for rng, lo, hi in zip(rngs, cut[:-1], cut[1:]) if hi > lo]
                          or [np.zeros(0, np.int64)])


def distinct_rows(
    rngs: np.random.Generator | Sequence[np.random.Generator],
    sizes: np.ndarray,
    m: int,
    count: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One uniform subset of ``range(m)`` per row, of the given sizes, as CSR.

    ``rngs`` is one generator for every row, or a sequence of streams where
    stream j owns the ``count`` rows from ``j * count``.  Each stream makes
    the draws, in the order, that a one-stream call over its own rows makes,
    so its rows equal that call's: its small rows' values, one redraw per
    round that finds duplicates in its rows, then its large rows'
    permutations.  All else runs once over every row.

    Rows of at most a quarter of m draw with replacement in one batch, as
    keys with the row in the high bits and the value in the low ones; a sort
    finds the duplicates within each row, and only those are redrawn until
    none remain.  Equal keys are indistinguishable, so the sort's kind never
    moves a draw: only the first sort is a full one, and each re-sort of the
    nearly sorted keys is a stable run-merging one.  Larger rows take a
    sorted permutation prefix, written into their own span of the output.
    Each row comes out sorted.
    """
    if isinstance(rngs, np.random.Generator):
        rngs, count = (rngs,), len(sizes)
    large = sizes * 4 > m
    shift = (m - 1).bit_length()
    value = (1 << shift) - 1  # the mask of a key's value bits
    keys = np.repeat(np.arange(len(sizes), dtype=np.int64) << shift, np.where(large, 0, sizes))
    # rows sit above values, so stream j's keys stay keys[first_key[j]:first_key[j + 1]]
    first_key = np.searchsorted(keys, np.arange(len(rngs) + 1) * count << shift)
    keys += _draws(rngs, m, first_key)
    keys.sort()
    while (dup := np.flatnonzero(keys[1:] == keys[:-1]) + 1).size:
        keys[dup] += _draws(rngs, m, first_key, dup) - (keys[dup] & value)
        keys.sort(kind="stable")
    ptr = csr_ptr(sizes)
    rows = np.empty(ptr[-1], dtype=np.int64)
    rows[np.repeat(~large, sizes)] = keys & value
    for i in np.flatnonzero(large):
        rows[ptr[i]:ptr[i + 1]] = np.sort(rngs[i // count].permutation(m)[:sizes[i]])
    return ptr, rows


class SymbolBatch:
    """Coded symbols as read-only arrays: symbol i covers the sources
    ``neighbors[ptr[i]:ptr[i+1]]`` (sorted, distinct) and carries row i of
    the n x payload_len uint8 ``payloads``.  A ``CodedSymbol`` is built only
    when iterated; a step-one slice, the one index taken, is a batch of views.
    """

    __slots__ = ("ptr", "neighbors", "payloads")

    def __init__(self, ptr: np.ndarray, neighbors: np.ndarray, payloads: np.ndarray):
        # unchecked: DecoderState checks every batch it decodes
        self.ptr, self.neighbors, self.payloads = arrays = (
            np.asarray(ptr, np.int64).view(), np.asarray(neighbors, np.int64).view(),
            np.asarray(payloads, np.uint8).view())
        for arr in arrays:
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, index: slice) -> SymbolBatch:
        if not isinstance(index, slice) or (rows := range(len(self))[index]).step != 1:
            raise InvalidParameterError("a symbol batch takes step-one slices only")
        lo, hi = rows.start, max(rows.start, rows.stop)
        ptr = self.ptr[lo:hi + 1]
        return SymbolBatch(ptr - ptr[0], self.neighbors[ptr[0]:ptr[-1]], self.payloads[lo:hi])

    def __iter__(self) -> Iterator[CodedSymbol]:
        nbrs, bounds = self.neighbors.tolist(), self.ptr.tolist()
        for lo, hi, payload in zip(bounds, bounds[1:], self.payloads):
            yield CodedSymbol(tuple(nbrs[lo:hi]), payload.tobytes())


def symbols_from_rows(
    block: SourceBlock, ptr: np.ndarray, neighbors: np.ndarray
) -> SymbolBatch:
    """One coded symbol per CSR row ``neighbors[ptr[i]:ptr[i+1]]`` of sources.

    Unchecked: the rows are taken as given, and the decoder checks every
    batch it takes.  Every payload is one XOR reduction over the packets'
    machine words, ``block.words``.
    """
    words = block.words.take(neighbors - 1, axis=0)
    payloads = np.bitwise_xor.reduceat(words, ptr[:-1], axis=0).view(np.uint8)
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
    ptr, rows = distinct_rows(rng, sample_degrees(dist, rng, n), block.k)
    return symbols_from_rows(block, ptr, rows + 1)


def codec_trial(
    seed: int, stream: int, dist: DegreeDistribution, k_s: int, payload_len: int
) -> tuple[SourceBlock, SymbolBatch, np.random.Generator]:
    """One direct-encoding trial: ``trial_rng(seed, stream)`` draws the
    block, then k_s symbols from ``dist``, and is returned for the dopings."""
    rng = trial_rng(seed, stream)
    block = SourceBlock.random(dist.k, payload_len, rng)
    return block, encode_symbols(block, dist, k_s, rng), rng


@dataclass(frozen=True)
class StepRecord:
    """One decoder step: kind is 'init', 'decode' or 'dope'; its ripple releases."""

    kind: str
    releases: int


class DecoderState:
    """Mutable peeling-decoder state on int arrays; single-threaded per trial.

    The collected rows are kept as CSR (row pointers into the flat, sorted
    neighbours), taken straight from a ``SymbolBatch``, beside the
    source-to-output adjacency.  Both are lists gathered from one object
    array of the ids ``0..max(k, n - 1)``: entries of one value share one
    int object, where converting each array would make a new int per edge.
    Peeling touches only a residual count per output: when decoding a source
    brings an output's count to one, its row is rescanned for the one
    undecoded source, which joins the back of the ripple (a first-in-first-out
    deque of source ids) unless it is there already, in which case the output
    is counted as defected.  A decoded source's outputs are visited in
    ascending order, so the ripple's order follows from the rows alone.  A
    byte per output flags those at count two; doping reads the flagged ids
    in ascending order.  One loop, ``drain``, peels and, given an oracle,
    dopes in place whenever the ripple empties before every source is
    decoded: ``decode_with_doping`` drains once and returns the state, and
    ``process_ripple_symbol`` and ``dope_degree_two`` each take one step.

    No payload is touched while peeling.  Payloads are replayed in decode
    order when first asked for: a released source's payload is its releasing
    row's payload XOR the replayed values of that row's other neighbours,
    and a doped source's payload is the oracle's packet.  The first replay
    turns every payload row into an int in one pass.  ``decoded`` holds the
    decoded sources' int payloads in decode order, ``recovered`` every
    source's bytes once ``finished``; ``recovered_payload`` is harness-only.

    The step log is the releases of every step (step 0 seeds the ripple, each
    later one decodes a source) and the steps that doped; ``history``, the
    ripple trajectory and the interdoping yields derive from it.
    """

    def __init__(self, k: int, batch: SymbolBatch, payload_len: int):
        self.k = k
        self.payload_len = payload_len
        ptr, flat, payloads = batch.ptr, batch.neighbors, batch.payloads
        n = len(ptr) - 1
        if n < 0 or ptr[0] != 0 or ptr[-1] != len(flat):
            raise MalformedInputError(f"row pointers must run from 0 to {len(flat)} neighbors")
        if len(payloads) != n or n and payloads.shape[1:] != (payload_len,):
            raise MalformedInputError(f"payloads {payloads.shape} are not {n} x {payload_len}")
        lengths = np.diff(ptr)
        bad = lengths < 1  # an empty row or a decreasing pointer
        if (lengths >= 0).all():  # no pointer decreases, so each row is a slice of flat
            step = np.diff(flat, prepend=0)
            step[ptr[:-1][~bad]] = 1  # a row may start below the previous row's end
            wrong = np.flatnonzero((step < 1) | (flat < 1) | (flat > k))
            bad[np.searchsorted(ptr, wrong, "right") - 1] = True
        if bad.any():
            i = int(bad.argmax())
            raise MalformedInputError(f"symbol {i} has neighbors {flat[ptr[i]:ptr[i + 1]].tolist()}"
                                      f", not a sorted distinct subset of 1..{k}")
        self._ptr = ptr = ptr.tolist()
        # sources 1..k and outputs 0..n-1 as shared int objects, not a new one per edge
        ids = np.arange(max(k + 1, n)).astype(object)
        self._nbrs = nbrs = ids.take(flat).tolist()
        self._payloads = payloads
        self._payload_ints: list[int] = []  # row oid's payload as an int, from the first replay
        # outputs of source s: _adj[_adj_ptr[s]:_adj_ptr[s + 1]], ascending,
        # from one sort of keys with the source above the output's bits
        self._adj_ptr = csr_ptr(np.bincount(flat, minlength=k + 1)).tolist()
        shift = n.bit_length()
        dtype = key_type((k + 1) << shift)
        keys = flat.astype(dtype) << shift
        keys |= np.repeat(np.arange(n, dtype=dtype), lengths)
        keys.sort()
        self._adj = ids.take(keys & ((1 << shift) - 1)).tolist()
        self._count = lengths.tolist()
        self._degree_two = two = bytearray((lengths == 2).tobytes())  # outputs at count two
        self._degree_two_view = np.frombuffer(two, np.bool_)  # what doping reads
        self._flags = bytearray(k + 1)  # decoded sources
        self._releaser = releaser = [-1] * (k + 1)  # releasing output of each source
        self._order: list[int] = []  # decoded sources in decode order
        # payloads by source: doped ones when fetched, released ones when
        # replayed (0 before); the first _replayed of _order are replayed,
        # and _values holds those that decoded has read, in decode order
        self._vals = [0] * (k + 1)
        self._replayed = 0
        self._values: dict[int, int] = {}
        self.ripple = ripple = deque[int]()
        self.doped: list[int] = []
        self.dope_levels: list[int] = []
        # step 0 seeds the ripple from the degree-one outputs; a repeat defects
        ones = np.flatnonzero(lengths == 1).tolist()
        for oid in ones:
            src = nbrs[ptr[oid]]
            if releaser[src] < 0:
                releaser[src] = oid
                ripple.append(src)
        self.defected_total = len(ones) - len(ripple)
        # the step log
        self._releases, self._dope_steps = [len(ripple)], []
        # what drain reads, bound once: a one-step drain pays no look-ups
        order = self._order
        self._drain_state = (ripple, self._count, self._flags, releaser, ripple.popleft,
                             ripple.append, order, order.append, two, self._adj,
                             self._adj_ptr, nbrs, ptr, self._releases.append)

    # -- inspection ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        return len(self._order) == self.k

    @property
    def k_d(self) -> int:
        return len(self.doped)

    @property
    def undecoded(self) -> list[int]:
        """Sources not yet decoded, ascending."""
        flags = self._flags
        return [i for i in range(1, self.k + 1) if not flags[i]]

    @property
    def decoded(self) -> dict[int, int]:
        """Payloads of the decoded sources, as ints, in decode order (replayed
        when first asked for)."""
        vals, values = self._replay(), self._values
        new = self._order[len(values):]
        values.update(zip(new, map(vals.__getitem__, new)))
        return values

    def _replay(self) -> list[int]:
        """Replay the sources decoded since the last call; returns the payloads
        by source, 0 for a source not decoded."""
        vals, releaser = self._vals, self._releaser
        nbrs, ptr, rows = self._nbrs, self._ptr, self._payload_ints
        if not rows:
            raw = np.frombuffer(self._payloads.tobytes(), f"V{self.payload_len}").tolist()
            rows += map(int.from_bytes, raw, ["big"] * len(raw))
        new = self._order[self._replayed:]
        self._replayed += len(new)
        for src in new:
            oid = releaser[src]
            if oid < 0:  # doped
                continue
            value = rows[oid]
            for other in nbrs[ptr[oid]:ptr[oid + 1]]:
                value ^= vals[other]  # src's own entry is still 0
            vals[src] = value
        return vals

    @property
    def history(self) -> list[StepRecord]:
        """One record per step, built from the step log when asked for."""
        dopes = set(self._dope_steps)
        return [StepRecord("dope" if t in dopes else "decode" if t else "init", releases)
                for t, releases in enumerate(self._releases)]

    @cached_property
    def recovered(self) -> dict[int, bytes]:
        """Every source's packet by index; only a finished state has them all."""
        if not self.finished:
            raise InvalidParameterError(f"{self.k - len(self._order)} sources are not decoded")
        vals, size = self._replay(), self.payload_len
        return {i: vals[i].to_bytes(size, "big") for i in range(1, self.k + 1)}

    @property
    def ripple_trajectory(self) -> tuple[int, ...]:
        """Ripple size after each step: step 0 seeds it, a peel step moves it
        by its releases minus one and a doping step by its releases."""
        unpopped = {0, *self._dope_steps}
        return tuple(accumulate(releases - (t not in unpopped)
                                for t, releases in enumerate(self._releases)))

    @property
    def interdoping_yields(self) -> tuple[int, ...]:
        """Decodes between successive stalls; the first counts those before
        the first stall.  A doping at step t stalls after t - 1 decodes."""
        stalls = [0] + [step - 1 for step in self._dope_steps]
        return tuple(b - a for a, b in zip(stalls, stalls[1:]))

    def recovered_payload(self, index: int) -> bytes:
        return self.decoded[index].to_bytes(self.payload_len, "big")

    # -- peeling ------------------------------------------------------------

    def drain(self, oracle: Callable[[int], bytes] | None = None,
               rng: np.random.Generator | None = None, steps: int = -1) -> int:
        """Decode sources one step each, until ``steps`` are taken (no limit
        when negative), every source is decoded, or the ripple is empty and
        no ``oracle`` is given.  A step decodes the oldest ripple source; with
        an oracle, a step that finds the ripple empty dopes (``_dope``) and
        decodes the doped source instead.  An output brought to count one
        puts its one undecoded source in the ripple, or defects when that
        source is there already.  Returns the last step's releases."""
        (ripple, count, flags, releaser, pop, push, order, decode, two,
         adj, adj_ptr, nbrs, ptr, log_releases) = self._drain_state
        defected = self.defected_total
        releases = 0
        while steps:
            if ripple:
                src = pop()
            elif oracle is None or len(order) == self.k:
                break
            else:
                src = self._dope(oracle, rng)
            steps -= 1
            flags[src] = 1
            decode(src)
            releases = spent = 0
            for oid in adj[adj_ptr[src]:adj_ptr[src + 1]]:
                c = count[oid] - 1
                count[oid] = c
                if c == 2:
                    two[oid] = 1
                elif c == 1:
                    two[oid] = 0
                    spent += 1
                    for last in nbrs[ptr[oid]:ptr[oid + 1]]:
                        if not flags[last]:
                            break
                    if releaser[last] < 0:
                        releaser[last] = oid
                        push(last)
                        releases += 1
            defected += spent - releases
            log_releases(releases)
        self.defected_total = defected
        return releases

    def _dope(self, oracle: Callable[[int], bytes], rng: np.random.Generator) -> int:
        """Choose the source to dope, fetch its packet and log the doping;
        the caller decodes it as this step.

        Selection is one uniform draw over the (output, neighbor) pairs of the
        remaining outputs of lowest residual degree (degree two when
        available), taken in output order with each output's neighbors sorted.
        An input is thus weighted by how many of those outputs hold it, so a
        degree-two doping releases 1 + Poisson(lambda) outputs, as the ripple
        walk of ``analytics`` assumes.  With no outputs left the uncovered
        symbols are polled uniformly.
        """
        lowest = 2
        holders = self._degree_two_view.nonzero()[0]  # ascending
        if not holders.size:  # rare: scan for the lowest residual degree above two; k + 1 if none
            counts = np.fromiter(self._count, np.int64, len(self._count))
            lowest = int(counts.min(where=counts > 2, initial=self.k + 1))
            holders = np.flatnonzero(counts == lowest)
        if holders.size:
            pair = int(rng.integers(holders.size * lowest))
            oid = int(holders[pair // lowest])
            row = self._nbrs[self._ptr[oid]:self._ptr[oid + 1]]
            src = [s for s in row if not self._flags[s]][pair % lowest]
            level = lowest
        else:
            candidates = self.undecoded
            src = candidates[int(rng.integers(len(candidates)))]
            level = 0
        try:
            packet = oracle(src)
        except Exception as exc:  # noqa: BLE001 - oracle contract is opaque
            raise DopingUnavailableError(f"oracle failed for source {src}") from exc
        if packet is None:
            raise DopingUnavailableError(f"oracle returned nothing for source {src}")
        if len(packet) != self.payload_len:
            raise DopingUnavailableError(
                f"oracle returned {len(packet)} bytes for source {src}, not {self.payload_len}")
        self._vals[src] = int.from_bytes(packet, "big")
        self.doped.append(src)
        self.dope_levels.append(level)
        self._dope_steps.append(len(self._releases))
        return src


# Harness-only: benchmarks/workloads.py calls these three, the package never does.
init_decoder = DecoderState  # the constructor under its functional name


def process_ripple_symbol(
    state: DecoderState, rng: np.random.Generator | None = None
) -> int:
    """Decode the oldest ripple symbol; returns the number of new ripple
    entries.  ``rng`` is unused: the ripple is first in, first out."""
    if not state.ripple:
        raise StalledDecoderError("ripple is empty; dope or stop")
    return state.drain(steps=1)


def dope_degree_two(
    state: DecoderState,
    oracle: Callable[[int], bytes],
    rng: np.random.Generator,
) -> int:
    """Fetch one true source packet to unlock a stalled decoder, chosen as
    ``DecoderState._dope`` chooses it, and decode it as one peeling step of
    the drain loop; returns the doped source."""
    if state.ripple:
        raise InvalidParameterError("doping requires an empty ripple")
    if state.finished:
        raise InvalidParameterError("decoding already complete")
    state.drain(oracle, rng, 1)
    return state.doped[-1]


def decode_with_doping(
    block: SourceBlock,
    batch: SymbolBatch,
    rng: np.random.Generator,
) -> DecoderState:
    """Drain a new decoder over the batch, doping from ``block.packet`` whenever
    the ripple empties before every source is decoded; returns the decoder."""
    state = DecoderState(block.k, batch, block.payload_len)
    state.drain(block.packet, rng)
    return state


def dopings(
    trials: Iterable[tuple[SourceBlock, SymbolBatch, np.random.Generator]]
) -> np.ndarray:
    """The k_d of ``decode_with_doping(*trial)`` for each (block, batch, rng)
    trial, as ``codec_trial`` and ``network.network_trial`` lay them out."""
    return np.fromiter((decode_with_doping(*trial).k_d for trial in trials), np.int64)
