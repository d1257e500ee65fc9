"""Acceptance checks: one callable per criterion, shared by tests and the CLI.

Each criterion ``criterion_*(seed)`` returns its verdict and its measured
values; ``CRITERIA`` pairs it with its threshold text, and ``run_criterion``
times it and builds the result.  Every criterion tests the fixed bound its
threshold text states; how close a value comes to its bound is read from
the measured values.  Heavy Monte Carlo inputs are cached per seed so
criteria that share a simulation do not rerun it.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import analytics, costs
from .cli import fmt, main as cli_main
from .codec import DecoderState, codec_trial, decode_with_doping, trial_rng
from .degrees import ideal_soliton, robust_soliton
from .network import NetworkConfig, TransmissionSchedule, codec_dopings, network_dopings

DEFAULT_SEED = 20260810

# Every criterion that draws uses trial_rng streams of its own within a seed,
# except determinism: its decode-sim run draws trials 0..4, which are network
# streams, and it only checks that two runs are byte-identical.  A criterion
# reads its stream i as STREAM_RANGES[name][i], which raises IndexError past
# the end of its range.  Trial-indexed criteria own one block of streams each;
# single-stream criteria share a block at distinct offsets.
_STREAM_BLOCK = 0x10000
STREAM_RANGES = {
    name: range(base, base + size)
    for name, base, size in (
        ("network_doping_sample", 0x00000, _STREAM_BLOCK),
        ("codec_doping_sample", 0x10000, _STREAM_BLOCK),
        ("decoder_bitexact", 0x20000, _STREAM_BLOCK),
        ("degree_evolution", 0x30000, _STREAM_BLOCK),
        ("walk_mc", 0x50004, 1),
        ("coupon_coverage", 0x50005, 1),
        ("uncovered", 0x50006, 1),
    )
}

SAMPLE_TRIALS = 200  # trials in each shared doping sample


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: dict[str, object]
    threshold_desc: str
    seconds: float  # wall time, stdout only

    def measured_text(self) -> str:
        return " ".join(f"{k}={fmt(v, 6)}" for k, v in self.measured.items())

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} {self.name}: {self.measured_text()} "
                f"seconds={fmt(self.seconds, 6)} [{self.threshold_desc}]")


# ---------------------------------------------------------------------------
# Shared Monte Carlo inputs
# ---------------------------------------------------------------------------


# A criterion's verdict and its measured values, in display order.
Verdict = tuple[bool, dict[str, object]]


@cache
def network_doping_sample(seed: int) -> tuple[np.ndarray, float]:
    """k_d samples for k=1000, zero surplus, IS storage, plain dissemination,
    and the seconds the draw took."""
    start = time.perf_counter()
    cfg = NetworkConfig(k=1000, h=200, dissemination="degree_one",
                        storage="is_combining", payload_len=32)
    streams = STREAM_RANGES["network_doping_sample"][:SAMPLE_TRIALS]
    sample = network_dopings(seed, streams, cfg, 1, 1000)
    return sample, time.perf_counter() - start


@cache
def codec_doping_sample(dist_name: str, seed: int) -> np.ndarray:
    """k_d samples for k=1000, k_s=1000, direct encoding with IS or RS."""
    dist = ideal_soliton(1000) if dist_name == "is" else robust_soliton(1000, 0.1, 0.5)
    streams = STREAM_RANGES["codec_doping_sample"][:SAMPLE_TRIALS]
    return codec_dopings(seed, streams, dist, 1000, 32)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def criterion_decoder_bitexact(seed: int) -> Verdict:
    k, trials = 100, 100
    dist = ideal_soliton(k)
    streams = STREAM_RANGES["decoder_bitexact"]
    start = time.perf_counter()
    exact = 0
    for trial in range(trials):
        block, batch, rng = codec_trial(seed, streams[trial], dist, k, 32)
        report = decode_with_doping(block, batch, rng)
        if all(report.recovered[i] == block.packet(i) for i in range(1, k + 1)):
            exact += 1
    elapsed = time.perf_counter() - start
    return (exact == trials and elapsed < 5.0,
            {"bit_exact_trials": f"{exact}/{trials}"})


def criterion_yield_anchor(seed: int) -> Verdict:
    worst = 0.0
    for lam in (1.0, 1.05, 1.2):
        pmf = analytics.interdoping_yield_pmf(lam, 10)
        worst = max(worst, abs(pmf.probs[2] - math.exp(-2 * lam)))
        worst = max(worst, abs(pmf.probs[3] - 2 * lam * math.exp(-3 * lam)))
    return worst <= 1e-12, {"max_abs_error": worst}


def criterion_recursion_matrix(seed: int) -> Verdict:
    worst = 0.0
    for lam in (1.0, 1.05, 1.2):
        matrix = analytics.ripple_transition_matrix(lam, 500)
        from_matrix = analytics.trapping_probabilities(matrix, 50)
        from_closed_form = analytics.interdoping_yield_pmf(lam, 50).probs[1:51]
        worst = max(worst, float(np.max(np.abs(from_matrix - from_closed_form))))
    return worst <= 1e-8, {"max_abs_error": worst}


def criterion_walk_mc(seed: int) -> Verdict:
    n = 1_000_000
    horizon = 50
    rng = trial_rng(seed, STREAM_RANGES["walk_mc"][0])
    times = analytics.simulate_walk_stopping_times(1.0, n, horizon + 1, rng)
    pmf = analytics.interdoping_yield_pmf(1.0, horizon)
    emp = np.bincount(times, minlength=horizon + 2) / n
    diffs = np.abs(emp[2 : horizon + 1] - pmf.probs[2 : horizon + 1])
    tail_emp = float(emp[horizon + 1])
    tv = 0.5 * (float(diffs.sum()) + abs(tail_emp - pmf.tail))
    return tv < 0.02, {"tv_distance": tv, "walks": n}


def criterion_doping_prediction(seed: int) -> Verdict:
    # the runtime bound is on the shared sample's draw, whichever criterion
    # drew it first
    sample, draw_seconds = network_doping_sample(seed)
    sim_mean = float(sample.mean())
    predicted = analytics.expected_dopings(1000, 0.0).k_d
    rel = abs(predicted - sim_mean) / sim_mean
    return (rel <= 0.25 and draw_seconds < 120.0,
            {"predicted_kd": predicted, "sim_mean_kd": sim_mean, "rel_error": rel})


def criterion_is_vs_rs(seed: int) -> Verdict:
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
    return passed, measured


def criterion_wald(seed: int) -> Verdict:
    sim_mean = float(network_doping_sample(seed)[0].mean())
    predicted = analytics.wald_dopings(1000)
    rel = abs(predicted - sim_mean) / sim_mean
    return rel <= 0.15, {"wald_kd": predicted, "sim_mean_kd": sim_mean, "rel_error": rel}


def criterion_degree_evolution(seed: int) -> Verdict:
    k, ell, seeds = 1000, 500, 50
    dist = ideal_soliton(k)
    streams = STREAM_RANGES["degree_evolution"]
    counts: Counter[int] = Counter()
    for trial in range(seeds):
        block, batch, rng = codec_trial(seed, streams[trial], dist, k, 8)
        state = DecoderState(k, batch, block.payload_len)
        state.drain(block.packet, rng, ell)  # peel, doping at each stall, to ell decoded
        # an output's residual degree: its neighbours not yet decoded
        undecoded = np.isin(batch.neighbors, state.undecoded)
        residual = np.add.reduceat(undecoded, batch.ptr[:-1], dtype=np.int64)
        counts.update(c for c in residual.tolist() if c >= 2)
    total = sum(counts.values())
    ref = analytics.unreleased_degree_dist(k, ell)
    tv = 0.5 * sum(
        abs(counts.get(d, 0) / total - ref.pmf[d]) for d in range(2, k - ell + 1)
    )
    return tv < 0.05, {"tv_distance": tv, "pooled_outputs": total}


def criterion_dissemination(seed: int) -> Verdict:
    failures = []
    for k in (3, 5, 7, 9, 15):
        sched = TransmissionSchedule("degree_two_combining", k)  # names only: nothing is drawn
        if not sched.verify():
            failures.append(k)
        if k == 7:
            _, left, right = sched.transmissions([1])
            pairs = zip(left[0].tolist(), right[0].tolist())
            if [tuple(sorted({a, b})) for a, b in pairs] != [(1,), (2, 7), (3, 6)]:
                failures.append("round-structure")
    return not failures, {"failures": failures or "none"}


def criterion_coupon_coverage(seed: int) -> Verdict:
    k, trials = 500, 400
    rng = trial_rng(seed, STREAM_RANGES["coupon_coverage"][0])
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
    return rel < 0.05, {
        "sim_mean_nodes": mean_cover, "k_harmonic": target,
        "klogk_estimate": costs.coupon_requirement_klogk(k), "rel_error": rel,
    }


def criterion_uncovered(seed: int) -> Verdict:
    approx_at_zero = analytics.uncovered_count(1000, 0.0).approx
    k, seeds = 1000, 500
    k_s = round(k * math.log(k))
    formula = costs.coupon_residual_uncovered(k, k_s)
    rng = trial_rng(seed, STREAM_RANGES["uncovered"][0])
    uncovered = np.empty(seeds)
    for t in range(seeds):
        draws = rng.integers(0, k, size=k_s)
        uncovered[t] = k - len(np.unique(draws))
    mean_unc = float(uncovered.mean())
    se = float(uncovered.std(ddof=1)) / math.sqrt(seeds)
    z = abs(mean_unc - formula) / se if se > 0 else 0.0
    return approx_at_zero == 1.0 and z <= 3.0, {
        "approx_at_delta0": approx_at_zero, "formula": formula,
        "sim_mean": mean_unc, "z_score": z,
    }


def criterion_cost_minima(seed: int) -> Verdict:
    k = 2000
    grid = np.round(np.arange(0, 7) * 0.01, 2)
    kd_by_delta = {d: pred.k_d for d, pred in analytics.doping_table(k, grid.tolist()).items()}
    expected = {10.0: 0.01, 15.0: 0.03, 30.0: 0.04}
    measured: dict[str, object] = {}
    passed = True
    for h, target in expected.items():
        delta_star, _ = costs.minimize_cost(k, h, grid, kd_by_delta=kd_by_delta)
        measured[f"delta_star_h{int(h)}"] = delta_star
        if abs(delta_star - target) > 0.01 + 1e-12:
            passed = False
    return passed, measured


def criterion_strategy_order(seed: int) -> Verdict:
    # the doped strategy is compared at its canonical zero-surplus pair; the
    # other strategies fix their own k_d
    k = 2000
    kd0 = analytics.expected_dopings(k, 0.0).k_d

    def cost(strategy: str, h: int) -> float:
        return costs.strategy_cost(strategy, k, h, delta=0.0, k_d=kd0).normalized

    ordering_ok = all(cost("is_doping", h) < cost("rs_no_doping", h) < cost("coupon", h)
                      for h in (20, 50, 100, 200, 500))
    crossover_h = next((h for h in (1100, 1500, 2000, 3000, 5100, 6000, 10000, 20000)
                        if cost("is_doping", h) >= cost("rs_no_doping", h)), None)
    return ordering_ok and crossover_h is not None, {
        "ordering_20_500": ordering_ok, "is_ge_rs_at_h": crossover_h or "none",
        "is_kd_delta0": kd0,
    }


def criterion_determinism(seed: int) -> Verdict:
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
    return identical, {"bytes": len(outputs[0]), "identical": identical}


# name -> (criterion, threshold text)
CRITERIA = {
    "decoder_bitexact": (criterion_decoder_bitexact, "100/100 bit-exact, runtime < 5 s"),
    "yield_anchor": (criterion_yield_anchor,
                     "|P(Y=2)-e^-2lam|, |P(Y=3)-2lam e^-3lam| <= 1e-12"),
    "recursion_matrix": (criterion_recursion_matrix,
                         "matrix powers vs closed form entrywise <= 1e-8, u <= 50"),
    "walk_mc": (criterion_walk_mc, "TV(closed form, 1e6 walks) over t <= 50 below 0.02"),
    "doping_prediction": (criterion_doping_prediction,
                          "analytic k_d within 25% of 200-seed simulation, runtime < 2 min"),
    "is_vs_rs": (criterion_is_vs_rs,
                 "IS doping ratio strictly smaller mean and variance than RS"),
    "wald": (criterion_wald, "k/E[Y] within 15% of simulated mean dopings"),
    "degree_evolution": (criterion_degree_evolution, "pooled unreleased-degree pmf at "
                         "ell=500 within TV 0.05 of rescaled start law"),
    "dissemination": (criterion_dissemination, "ceil((k-1)/2) rounds, all packets "
                      "recovered bit-exact, k=7 structure"),
    "coupon_coverage": (criterion_coupon_coverage,
                        "simulated coupon coverage within 5% of k*H_k"),
    "uncovered": (criterion_uncovered, "approx equals 1 at delta=0; "
                  "simulated uncovered within 3 SE of formula"),
    "cost_minima": (criterion_cost_minima, "argmin delta within 1 percentage point "
                    "of {1%,3%,4%} for h={10,15,30}"),
    "strategy_order": (criterion_strategy_order,
                       "is<rs<coupon on h in [20,500]; is>=rs somewhere above h=1000"),
    "determinism": (criterion_determinism, "same seed twice gives byte-identical CSV"),
}


def run_criterion(name: str, seed: int = DEFAULT_SEED) -> CriterionResult:
    criterion, threshold = CRITERIA[name]
    start = time.perf_counter()
    passed, measured = criterion(seed)
    return CriterionResult(name, bool(passed), measured, threshold, time.perf_counter() - start)
