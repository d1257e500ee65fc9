"""Acceptance checks: one callable per criterion, shared by tests and the CLI.

Each criterion runs at its stated tolerance; ``tol_scale`` multiplies the
tolerance (values below one tighten the verdicts without changing the
measured numbers).  Heavy Monte Carlo inputs are cached per seed so
criteria that share a simulation do not rerun it.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import analytics, costs
from .cli import main as cli_main
from .codec import (
    SourceBlock,
    decode_with_doping,
    dope_degree_two,
    encode_symbols,
    init_decoder,
    process_ripple_symbol,
    trial_rng,
)
from .degrees import ideal_soliton, robust_soliton
from .network import NetworkConfig, build_network, codec_dopings, network_dopings

DEFAULT_SEED = 20260810

# Every criterion draws from trial_rng streams of its own within a seed,
# except determinism: its decode-sim run draws trials 0..4, which are network
# streams, and it only checks that two runs are byte-identical.
# Trial-indexed criteria use ``base ^ index`` (equal to ``base + index``,
# which the doping samples use) with index below _STREAM_BLOCK, so each base
# owns one block of streams; single-stream criteria share a block at
# distinct offsets.
_STREAM_BLOCK = 0x10000
NETWORK_STREAMS = 0x00000
CODEC_STREAMS = 0x10000
BITEXACT_STREAMS = 0x20000
DEGREE_EVOLUTION_STREAMS = 0x30000
DISSEMINATION_STREAMS = 0x40000
WALK_STREAM = 0x50004
COUPON_STREAM = 0x50005
UNCOVERED_STREAM = 0x50006
STREAM_RANGES = {
    "network_doping_sample": range(NETWORK_STREAMS, NETWORK_STREAMS + _STREAM_BLOCK),
    "codec_doping_sample": range(CODEC_STREAMS, CODEC_STREAMS + _STREAM_BLOCK),
    "decoder_bitexact": range(BITEXACT_STREAMS, BITEXACT_STREAMS + _STREAM_BLOCK),
    "degree_evolution": range(
        DEGREE_EVOLUTION_STREAMS, DEGREE_EVOLUTION_STREAMS + _STREAM_BLOCK
    ),
    "dissemination": range(DISSEMINATION_STREAMS, DISSEMINATION_STREAMS + _STREAM_BLOCK),
    "walk_mc": range(WALK_STREAM, WALK_STREAM + 1),
    "coupon_coverage": range(COUPON_STREAM, COUPON_STREAM + 1),
    "uncovered": range(UNCOVERED_STREAM, UNCOVERED_STREAM + 1),
}

SAMPLE_TRIALS = 200  # trials in each shared doping sample


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: dict[str, object]
    threshold_desc: str
    seconds: float | None = None  # wall time, stdout only; run_criterion fills it

    def measured_text(self) -> str:
        return " ".join(f"{k}={_short(v)}" for k, v in self.measured.items())

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        timed = "" if self.seconds is None else f" seconds={_short(self.seconds)}"
        return f"{verdict} {self.name}: {self.measured_text()}{timed} [{self.threshold_desc}]"


def _short(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# ---------------------------------------------------------------------------
# Shared Monte Carlo inputs
# ---------------------------------------------------------------------------


@cache
def network_doping_sample(seed: int) -> np.ndarray:
    """k_d samples for k=1000, zero surplus, IS storage, plain dissemination."""
    cfg = NetworkConfig(k=1000, h=200, dissemination="degree_one",
                        storage="is_combining", payload_len=32)
    streams = range(NETWORK_STREAMS, NETWORK_STREAMS + SAMPLE_TRIALS)
    return network_dopings(seed, streams, cfg, 1, 1000)


@cache
def codec_doping_sample(dist_name: str, seed: int) -> np.ndarray:
    """k_d samples for k=1000, k_s=1000, direct encoding with IS or RS."""
    dist = ideal_soliton(1000) if dist_name == "is" else robust_soliton(1000, 0.1, 0.5)
    streams = range(CODEC_STREAMS, CODEC_STREAMS + SAMPLE_TRIALS)
    return codec_dopings(seed, streams, dist, 1000, 32)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def criterion_decoder_bitexact(seed: int, tol: float) -> CriterionResult:
    k, trials = 100, 100
    dist = ideal_soliton(k)
    start = time.perf_counter()
    exact = 0
    for trial in range(trials):
        rng = trial_rng(seed, BITEXACT_STREAMS ^ trial)
        block = SourceBlock.random(k, 32, rng)
        report = decode_with_doping(block, encode_symbols(block, dist, k, rng), rng)
        if all(report.recovered[i] == block.packet(i) for i in range(1, k + 1)):
            exact += 1
    elapsed = time.perf_counter() - start
    passed = exact == trials and elapsed < 5.0 * tol
    return CriterionResult(
        "decoder_bitexact",
        passed,
        {"bit_exact_trials": f"{exact}/{trials}"},
        "100/100 bit-exact, runtime < 5 s",
        seconds=elapsed,
    )


def criterion_yield_anchor(seed: int, tol: float) -> CriterionResult:
    worst = 0.0
    for lam in (1.0, 1.05, 1.2):
        pmf = analytics.interdoping_yield_pmf(lam, 10)
        worst = max(worst, abs(pmf.probs[2] - math.exp(-2 * lam)))
        worst = max(worst, abs(pmf.probs[3] - 2 * lam * math.exp(-3 * lam)))
    return CriterionResult(
        "yield_anchor",
        worst <= 1e-12 * tol,
        {"max_abs_error": worst},
        "|P(Y=2)-e^-2lam|, |P(Y=3)-2lam e^-3lam| <= 1e-12",
    )


def criterion_recursion_matrix(seed: int, tol: float) -> CriterionResult:
    worst = 0.0
    for lam in (1.0, 1.05, 1.2):
        matrix = analytics.ripple_transition_matrix(lam, 500)
        from_matrix = analytics.trapping_probabilities(matrix, 50)
        from_closed_form = analytics.interdoping_yield_pmf(lam, 50).probs[1:51]
        worst = max(worst, float(np.max(np.abs(from_matrix - from_closed_form))))
    return CriterionResult(
        "recursion_matrix",
        worst <= 1e-8 * tol,
        {"max_abs_error": worst},
        "matrix powers vs closed form entrywise <= 1e-8, u <= 50",
    )


def criterion_walk_mc(seed: int, tol: float) -> CriterionResult:
    n = 1_000_000
    horizon = 50
    rng = trial_rng(seed, WALK_STREAM)
    times = analytics.simulate_walk_stopping_times(1.0, n, horizon + 1, rng)
    pmf = analytics.interdoping_yield_pmf(1.0, horizon)
    emp = np.bincount(times, minlength=horizon + 2) / n
    diffs = np.abs(emp[2 : horizon + 1] - pmf.probs[2 : horizon + 1])
    tail_emp = float(emp[horizon + 1])
    tv = 0.5 * (float(diffs.sum()) + abs(tail_emp - pmf.tail))
    return CriterionResult(
        "walk_mc",
        tv < 0.02 * tol,
        {"tv_distance": tv, "walks": n},
        "TV(closed form, 1e6 walks) over t <= 50 below 0.02",
    )


def criterion_doping_prediction(seed: int, tol: float) -> CriterionResult:
    start = time.perf_counter()
    sample = network_doping_sample(seed)
    elapsed = time.perf_counter() - start
    sim_mean = float(sample.mean())
    predicted = analytics.expected_dopings(1000, 0.0).k_d
    rel = abs(predicted - sim_mean) / sim_mean
    passed = rel <= 0.25 * tol and elapsed < 120.0
    return CriterionResult(
        "doping_prediction",
        passed,
        {"predicted_kd": predicted, "sim_mean_kd": sim_mean, "rel_error": rel},
        "analytic k_d within 25% of 200-seed simulation, runtime < 2 min",
        seconds=elapsed,
    )


def criterion_is_vs_rs(seed: int, tol: float) -> CriterionResult:
    is_kd = codec_doping_sample("is", seed) / 1000.0
    rs_kd = codec_doping_sample("rs", seed) / 1000.0
    measured = {
        "is_mean": float(is_kd.mean()),
        "rs_mean": float(rs_kd.mean()),
        "is_var": float(is_kd.var()),
        "rs_var": float(rs_kd.var()),
    }
    passed = (
        measured["is_mean"] < measured["rs_mean"]
        and measured["is_var"] < measured["rs_var"]
    )
    return CriterionResult(
        "is_vs_rs",
        passed,
        measured,
        "IS doping ratio strictly smaller mean and variance than RS",
    )


def criterion_wald(seed: int, tol: float) -> CriterionResult:
    sim_mean = float(network_doping_sample(seed).mean())
    predicted = analytics.wald_dopings(1000)
    rel = abs(predicted - sim_mean) / sim_mean
    return CriterionResult(
        "wald",
        rel <= 0.15 * tol,
        {"wald_kd": predicted, "sim_mean_kd": sim_mean, "rel_error": rel},
        "k/E[Y] within 15% of simulated mean dopings",
    )


def criterion_degree_evolution(seed: int, tol: float) -> CriterionResult:
    k, ell, seeds = 1000, 500, 50
    dist = ideal_soliton(k)
    counts: Counter[int] = Counter()
    for trial in range(seeds):
        rng = trial_rng(seed, DEGREE_EVOLUTION_STREAMS ^ trial)
        block = SourceBlock.random(k, 8, rng)
        state = init_decoder(k, encode_symbols(block, dist, k, rng), block.payload_len)
        while state.decoded_count < ell:
            if state.ripple:
                process_ripple_symbol(state)
            else:
                dope_degree_two(state, block.packet, rng)
        counts.update(c for c in state._count if c >= 2)  # residual degrees
    total = sum(counts.values())
    ref = analytics.unreleased_degree_dist(k, ell)
    tv = 0.5 * sum(
        abs(counts.get(d, 0) / total - ref.pmf[d]) for d in range(2, k - ell + 1)
    )
    return CriterionResult(
        "degree_evolution",
        tv < 0.05 * tol,
        {"tv_distance": tv, "pooled_outputs": total},
        "pooled unreleased-degree pmf at ell=500 within TV 0.05 of rescaled start law",
    )


def criterion_dissemination(seed: int, tol: float) -> CriterionResult:
    failures = []
    for k in (3, 5, 7, 9, 15):
        cfg = NetworkConfig(k=k, h=1, dissemination="degree_two_combining", payload_len=16)
        sched = build_network(cfg, trial_rng(seed, DISSEMINATION_STREAMS ^ k)).schedule
        if not sched.verify():
            failures.append(k)
        if k == 7:
            _, left, right, _ = sched.transmissions([1])
            pairs = zip(left[0].tolist(), right[0].tolist())
            if [tuple(sorted({a, b})) for a, b in pairs] != [(1,), (2, 7), (3, 6)]:
                failures.append("round-structure")
    return CriterionResult(
        "dissemination",
        not failures,
        {"failures": failures or "none"},
        "ceil((k-1)/2) rounds, all packets recovered bit-exact, k=7 structure",
    )


def criterion_coupon_coverage(seed: int, tol: float) -> CriterionResult:
    k, trials = 500, 400
    rng = trial_rng(seed, COUPON_STREAM)
    target = costs.coupon_requirement(k)
    batch = int(target * 6)
    covers = np.empty(trials)
    for t in range(trials):
        draws = rng.integers(0, k, size=batch)
        uniq, first = np.unique(draws, return_index=True)
        while len(uniq) < k:  # astronomically rare; extend the draw window
            draws = np.concatenate([draws, rng.integers(0, k, size=batch)])
            uniq, first = np.unique(draws, return_index=True)
        covers[t] = first.max() + 1
    mean_cover = float(covers.mean())
    rel = abs(mean_cover - target) / target
    return CriterionResult(
        "coupon_coverage",
        rel < 0.05 * tol,
        {"sim_mean_nodes": mean_cover, "k_harmonic": target,
         "klogk_estimate": costs.coupon_requirement_klogk(k), "rel_error": rel},
        "simulated coupon coverage within 5% of k*H_k",
    )


def criterion_uncovered(seed: int, tol: float) -> CriterionResult:
    approx_at_zero = analytics.uncovered_count(1000, 0.0).approx
    k, seeds = 1000, 500
    k_s = round(k * math.log(k))
    formula = costs.coupon_residual_uncovered(k, k_s)
    rng = trial_rng(seed, UNCOVERED_STREAM)
    uncovered = np.empty(seeds)
    for t in range(seeds):
        draws = rng.integers(0, k, size=k_s)
        uncovered[t] = k - len(np.unique(draws))
    mean_unc = float(uncovered.mean())
    se = float(uncovered.std(ddof=1)) / math.sqrt(seeds)
    z = abs(mean_unc - formula) / se if se > 0 else 0.0
    passed = approx_at_zero == 1.0 and z <= 3.0 * tol
    return CriterionResult(
        "uncovered",
        passed,
        {"approx_at_delta0": approx_at_zero, "formula": formula,
         "sim_mean": mean_unc, "z_score": z},
        "approx equals 1 at delta=0; simulated uncovered within 3 SE of formula",
    )


def criterion_cost_minima(seed: int, tol: float) -> CriterionResult:
    k = 2000
    grid = np.round(np.arange(0, 7) * 0.01, 2)
    kd_by_delta = {d: pred.k_d for d, pred in analytics.doping_table(k, grid.tolist()).items()}
    expected = {10.0: 0.01, 15.0: 0.03, 30.0: 0.04}
    measured: dict[str, object] = {}
    passed = True
    for h, target in expected.items():
        delta_star, _ = costs.minimize_cost(k, h, grid, kd_by_delta=kd_by_delta)
        measured[f"delta_star_h{int(h)}"] = delta_star
        if abs(delta_star - target) > 0.01 * tol + 1e-12:
            passed = False
    return CriterionResult(
        "cost_minima",
        passed,
        measured,
        "argmin delta within 1 percentage point of {1%,3%,4%} for h={10,15,30}",
    )


def criterion_strategy_order(seed: int, tol: float) -> CriterionResult:
    # the doped strategy is compared at its canonical zero-surplus pair
    k = 2000
    kd0 = analytics.expected_dopings(k, 0.0).k_d
    ordering_ok = True
    for h in (20, 50, 100, 200, 500):
        is_point = costs.strategy_cost("is_doping", k, h, delta=0.0, k_d=kd0)
        rs_point = costs.strategy_cost("rs_no_doping", k, h)
        coupon_point = costs.strategy_cost("coupon", k, h)
        if not (is_point.normalized < rs_point.normalized < coupon_point.normalized):
            ordering_ok = False
    crossover_h = None
    for h in (1100, 1500, 2000, 3000, 5100, 6000, 10000, 20000):
        is_point = costs.strategy_cost("is_doping", k, h, delta=0.0, k_d=kd0)
        rs_point = costs.strategy_cost("rs_no_doping", k, h)
        if is_point.normalized >= rs_point.normalized:
            crossover_h = h
            break
    passed = ordering_ok and crossover_h is not None
    return CriterionResult(
        "strategy_order",
        passed,
        {"ordering_20_500": ordering_ok, "is_ge_rs_at_h": crossover_h or "none",
         "is_kd_delta0": kd0},
        "is<rs<coupon on h in [20,500]; is>=rs somewhere above h=1000",
    )


def criterion_determinism(seed: int, tol: float) -> CriterionResult:
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for name in ("a.csv", "b.csv"):
            path = str(Path(tmp) / name)
            code = cli_main(
                ["decode-sim", "--k", "60", "--trials", "5",
                 "--seed", str(seed), "--out", path]
            )
            outputs.append(Path(path).read_bytes() if code == 0 else b"")
        identical = bool(outputs[0]) and outputs[0] == outputs[1]
    return CriterionResult(
        "determinism",
        identical,
        {"bytes": len(outputs[0]), "identical": identical},
        "same seed twice gives byte-identical CSV",
    )


CRITERIA = {
    "decoder_bitexact": criterion_decoder_bitexact,
    "yield_anchor": criterion_yield_anchor,
    "recursion_matrix": criterion_recursion_matrix,
    "walk_mc": criterion_walk_mc,
    "doping_prediction": criterion_doping_prediction,
    "is_vs_rs": criterion_is_vs_rs,
    "wald": criterion_wald,
    "degree_evolution": criterion_degree_evolution,
    "dissemination": criterion_dissemination,
    "coupon_coverage": criterion_coupon_coverage,
    "uncovered": criterion_uncovered,
    "cost_minima": criterion_cost_minima,
    "strategy_order": criterion_strategy_order,
    "determinism": criterion_determinism,
}


def run_criterion(name: str, seed: int = DEFAULT_SEED, tol_scale: float = 1.0) -> CriterionResult:
    start = time.perf_counter()
    result = CRITERIA[name](seed, tol_scale)
    if result.seconds is None:
        result = replace(result, seconds=time.perf_counter() - start)
    return result
