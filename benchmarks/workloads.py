"""The benchmark's workloads: set-up, one timed op, its traced twin, its check.

Each workload is built from the seed alone.  Op ``i`` is deterministic: its
Monte Carlo trials draw from ``cli.trial_rng(seed, i)``, the stream
``decode-sim`` uses for trial ``i``, so the first ops can be compared with
the CLI's CSV.  ``run`` makes exactly the calls the CLI makes; ``run_traced``
makes the same work visible layer by layer and must give the same ``k_d``.
Checks hold for any random stream: they test bit-exact recovery and bounds
that no stream can break, never a particular draw.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from squadfountain import analytics, cli, costs
from squadfountain.codec import (
    SourceBlock,
    decode_with_doping,
    dope_degree_two,
    encode_symbols,
    init_decoder,
    process_ripple_symbol,
)
from squadfountain.degrees import ideal_soliton, robust_soliton
from squadfountain.network import (
    Network,
    NetworkConfig,
    build_network,
    collect,
    disseminate_degree_one,
    disseminate_degree_two,
    simulate_collection_with_doping,
    storage_listen,
)

from tracing import Tracer

K = 1000
PAYLOAD_LEN = 32
H = 200
COLLECTOR = 1

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9  # analytic results against reference.json
MATRIX_TOL = 1e-8  # the recursion_matrix acceptance bound
WALK_TV_TOL = 0.02  # the walk_mc acceptance bound


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


@dataclass
class Trial:
    """One decode trial's output, kept for its correctness check."""

    label: str
    k_d: int
    block: SourceBlock
    recovered: Callable[[int], bytes | None]
    symbols: list | None = None  # None: re-collect them from ``net``
    net: Network | None = None


def check_trial(t: Trial) -> bool:
    """Every source bit-exact, and at least one doping per uncovered source."""
    symbols = t.symbols if t.symbols is not None else collect(t.net, COLLECTOR, K)[0]
    covered: set[int] = set()
    for sym in symbols:
        covered.update(sym.neighbors)
    exact = all(t.recovered(i) == p for i, p in enumerate(t.block.packets, start=1))
    return exact and t.k_d >= t.block.k - len(covered)


def traced_decode(tr: Tracer, block: SourceBlock, symbols, rng) -> Trial:
    """``decode_with_doping`` driven step by step, so peel and dope time apart."""
    with tr.span("codec.init"):
        state = init_decoder(block.k, symbols, block.payload_len)
    while not state.finished:
        if state.ripple:
            with tr.span("codec.peel"):
                while state.ripple and not state.finished:
                    process_ripple_symbol(state, rng)
        else:
            with tr.span("codec.dope"):
                dope_degree_two(state, block.packet, rng)
    kinds = Counter(rec.kind for rec in state.history)
    tr.count("codec.peel_steps", kinds["decode"])
    tr.count("codec.dopings", len(state.doped))
    tr.count("codec.dopings_fallback", sum(level != 2 for level in state.dope_levels))
    tr.count("codec.releases", sum(rec.releases for rec in state.history))
    tr.count("codec.defected", state.defected_total)

    def recovered(i: int) -> bytes | None:
        return state.recovered_payload(i) if i in state.decoded else None

    return Trial("", len(state.doped), block, recovered, symbols)


def _decode_sim_kd(argv: list[str], tmpdir: Path) -> dict[str, list[int]]:
    """Per-trial k_d by strategy from an in-process ``decode-sim`` run."""
    out = tmpdir / "decode-sim.csv"
    code = cli.main(["decode-sim", *argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"decode-sim {argv} exited {code}")
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    kd: dict[str, list[int]] = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row["trial"].isdigit():
            kd.setdefault(row["strategy"], []).append(int(row["k_d"]))
    return kd


class MonteCarlo:
    """Shared check and k_d readout of the two trial workloads."""

    @staticmethod
    def check(out: list[Trial]) -> bool:
        return all(check_trial(t) for t in out)

    @staticmethod
    def kd(out: list[Trial]) -> dict[str, int]:
        return {t.label: t.k_d for t in out}


class CodecMC(MonteCarlo):
    """Direct encoding at k_s = k: op i is trial i under IS, then under RS."""

    def __init__(self, seed: int, tr: Tracer):
        self.seed = seed
        with tr.span("degrees.dist_build"):
            self.dists = {"is": ideal_soliton(K), "rs": robust_soliton(K, 0.1, 0.5)}

    def run(self, i: int) -> list[Trial]:
        out = []
        for label, dist in self.dists.items():
            rng = cli.trial_rng(self.seed, i)
            block = SourceBlock.random(K, PAYLOAD_LEN, rng)
            symbols = encode_symbols(block, dist, K, rng)
            report = decode_with_doping(block, symbols, rng)
            out.append(Trial(label, report.k_d, block, report.recovered.get, symbols))
        return out

    def run_traced(self, i: int, tr: Tracer) -> list[Trial]:
        out = []
        for label, dist in self.dists.items():
            rng = cli.trial_rng(self.seed, i)
            with tr.span("trial." + label):
                with tr.span("codec.block"):
                    block = SourceBlock.random(K, PAYLOAD_LEN, rng)
                with tr.span("codec.encode"):
                    symbols = encode_symbols(block, dist, K, rng)
                tr.count("codec.symbols", len(symbols))
                tr.count("codec.edges", sum(sym.degree for sym in symbols))
                trial = traced_decode(tr, block, symbols, rng)
            trial.label = label
            out.append(trial)
        return out

    def cli_kd(self, trials: int, tmpdir: Path) -> dict[str, list[int]]:
        return _decode_sim_kd(
            ["--k", str(K), "--dist", "is,rs", "--payload-len", str(PAYLOAD_LEN),
             "--trials", str(trials), "--seed", str(self.seed)],
            tmpdir,
        )


class NetworkMC(MonteCarlo):
    """Network trials with IS storage: op i is trial i with plain
    dissemination of degree-one inputs, then with degree-two combining of
    degree-two inputs (per-node source subsets versus slot subsets)."""

    MODES = {
        "d1": ("degree_one", "degree_one_inputs", disseminate_degree_one),
        "d2": ("degree_two_combining", "degree_two_inputs", disseminate_degree_two),
    }
    CLI_FLAGS = {
        "d1": ["--dissemination", "d1"],
        "d2": ["--dissemination", "d2", "--storage-input", "degree_two_inputs"],
    }

    def __init__(self, seed: int, tr: Tracer):
        self.seed = seed
        self.modes = {
            label: (
                NetworkConfig(k=K, h=H, dissemination=mode, storage="is_combining",
                              storage_combine_input=inputs, payload_len=PAYLOAD_LEN),
                disseminate,
            )
            for label, (mode, inputs, disseminate) in self.MODES.items()
        }

    def run(self, i: int) -> list[Trial]:
        out = []
        for label, (cfg, disseminate) in self.modes.items():
            rng = cli.trial_rng(self.seed, i)
            net = build_network(cfg, rng)
            storage_listen(net, disseminate(net))
            report, _ = simulate_collection_with_doping(net, COLLECTOR, K, rng)
            out.append(Trial(label, report.k_d, net.block, report.recovered.get, net=net))
        return out

    def run_traced(self, i: int, tr: Tracer) -> list[Trial]:
        out = []
        for label, (cfg, disseminate) in self.modes.items():
            rng = cli.trial_rng(self.seed, i)
            with tr.span("trial." + label):
                with tr.span("network.build"):
                    net = build_network(cfg, rng)
                with tr.span("network.listen"):
                    storage_listen(net, disseminate(net))
                with tr.span("network.collect"):
                    symbols, creport = collect(net, COLLECTOR, K)
                tr.count("network.symbols_collected", len(symbols))
                tr.count("network.squads_drained", creport.s)
                trial = traced_decode(tr, net.block, symbols, rng)
            trial.label = label
            out.append(trial)
        return out

    def cli_kd(self, trials: int, tmpdir: Path) -> dict[str, list[int]]:
        common = ["--network", "--k", str(K), "--h", str(H), "--storage", "is",
                  "--payload-len", str(PAYLOAD_LEN), "--collector", str(COLLECTOR),
                  "--trials", str(trials), "--seed", str(self.seed)]
        return {
            label: _decode_sim_kd(common + flags, tmpdir)["is"]
            for label, flags in self.CLI_FLAGS.items()
        }


# ---------------------------------------------------------------------------
# Analytic workload
# ---------------------------------------------------------------------------

DELTAS = tuple(round(0.01 * j, 2) for j in range(7))
COST_K = 2000
YIELD_T_MAX = 2000
MATRIX_STATES, MATRIX_STEPS = 500, 50
WALKS, WALK_CAP = 100_000, 51


def _matrix_route(lam: float) -> np.ndarray:
    matrix = analytics.ripple_transition_matrix(lam, MATRIX_STATES)
    return analytics.trapping_probabilities(matrix, MATRIX_STEPS)


def analytic_ops() -> list[tuple[str, str, Callable, tuple]]:
    """(span, key, function, args) in the fixed interleaving.

    Block j holds the doping schedules at the j-th k, the cost minimum at the
    j-th h and the three yield routes at the j-th intensity.  The walk's
    random stream is appended per op.
    """
    ops = []
    for k, h, lam in zip((1000, 2000, 5000), (10, 15, 30), (1.0, 1.05, 1.2)):
        for d in DELTAS:
            ops.append(("analytics.expected_dopings", f"expected_dopings k={k} delta={d}",
                        analytics.expected_dopings, (k, d)))
        ops.append(("costs.minimize", f"minimize_cost k={COST_K} h={h}",
                    costs.minimize_cost, (COST_K, h, np.array(DELTAS))))
        ops.append(("analytics.yield_pmf", f"yield_pmf lam={lam}",
                    analytics.interdoping_yield_pmf, (lam, YIELD_T_MAX)))
        ops.append(("analytics.matrix", f"matrix lam={lam}", _matrix_route, (lam,)))
        ops.append(("analytics.walk_mc", f"walk_mc lam={lam}",
                    analytics.simulate_walk_stopping_times, (lam, WALKS, WALK_CAP)))
    return ops


# the numbers of each analytic result that reference.json stores
SUMMARIES: dict[str, Callable] = {
    "analytics.expected_dopings": lambda r: [r.k_d, r.stall_dopings, r.uncovered],
    "costs.minimize": lambda r: [r[0], r[1].c_T, r[1].k_d],
    "analytics.yield_pmf": lambda r: [
        float(np.arange(len(r.probs)) @ r.probs), float(r.probs.sum()), r.tail
    ],
}


class AnalyticSweep:
    """Doping predictions, cost minima and the three yield routes."""

    def __init__(self, seed: int, tr: Tracer):
        self.seed = seed
        self.ops = analytic_ops()
        self.reference = json.loads(REFERENCE_PATH.read_text())
        self._recursion: dict[float, analytics.YieldPmf] = {}

    def _call(self, i: int):
        span, key, fn, args = self.ops[i % len(self.ops)]
        if span == "analytics.walk_mc":
            args = (*args, cli.trial_rng(self.seed, i))
        return span, key, fn(*args)

    def run(self, i: int):
        return self._call(i)

    def run_traced(self, i: int, tr: Tracer):
        span = self.ops[i % len(self.ops)][0]
        with tr.span(span):
            out = self._call(i)
        if span == "analytics.expected_dopings":
            tr.count("analytics.schedule_rounds", len(out[2].rounds))
        return out

    def _short_pmf(self, lam: float) -> analytics.YieldPmf:
        if lam not in self._recursion:
            self._recursion[lam] = analytics.interdoping_yield_pmf(lam, MATRIX_STEPS)
        return self._recursion[lam]

    def check(self, out) -> bool:
        span, key, result = out
        if span in SUMMARIES:
            got, want = SUMMARIES[span](result), self.reference[key]
            return len(got) == len(want) and all(
                abs(g - w) <= REL_TOL * abs(w) for g, w in zip(got, want)
            )
        lam = float(key.split("=")[1])
        pmf = self._short_pmf(lam)
        if span == "analytics.matrix":
            return float(np.max(np.abs(result - pmf.probs[1:]))) <= MATRIX_TOL
        # walk: a walk starting at two cannot stop before step two
        if result.min() < 2 or result.max() > WALK_CAP:
            return False
        emp = np.bincount(result, minlength=WALK_CAP + 1) / len(result)
        head = np.abs(emp[2:WALK_CAP] - pmf.probs[2:]).sum()
        tv = 0.5 * (head + abs(emp[WALK_CAP] - pmf.tail))
        return tv < WALK_TV_TOL

    @staticmethod
    def kd(out) -> None:
        return None

    def cli_kd(self, trials: int, tmpdir: Path) -> None:
        return None


WORKLOADS = {"codec_mc": CodecMC, "network_mc": NetworkMC, "analytic_sweep": AnalyticSweep}
