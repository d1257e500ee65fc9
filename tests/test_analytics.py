import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc
from scipy.stats import chi2_contingency, poisson

from squadfountain import analytics as an
from squadfountain import cli, costs
from squadfountain.codec import trial_rng
from squadfountain.errors import InvalidParameterError


def iterate_column_degree_law(k: int, ell: int) -> np.ndarray:
    """Independent oracle: step the column-degree recursion from the start law.

    mass[d] for d >= 2 follows
        next[d] = mass[d] * (1 - d/m) + mass[d+1] * (d+1)/m,  m = current length,
    starting from the Ideal Soliton masses on a length-k column.
    """
    mass = np.zeros(k + 2)
    for d in range(2, k + 1):
        mass[d] = 1.0 / (d * (d - 1))
    for step in range(ell):
        m = k - step
        nxt = np.zeros(k + 2)
        for d in range(2, m):
            nxt[d] = mass[d] * (1 - d / m) + mass[d + 1] * (d + 1) / m
        mass = nxt
    return mass


def recursion_yield_pmf(lam: float, t_max: int) -> np.ndarray:
    """Independent oracle: the stall-time pmf by the first-passage recursion.

    With eta0 = exp(-lam) and aleph_s = Poisson(s*lam),
        P(Y=t+1) = eta0 * (aleph_t(t-1) - sum_{i<t} P(Y=t-i) * aleph_i(1+i)).
    Differences of nearly equal terms can round slightly negative; those are
    clamped to zero.
    """
    probs = np.zeros(t_max + 1)
    eta0 = math.exp(-lam)
    steps = np.arange(1, t_max, dtype=float)
    alive_mass = poisson.pmf(steps - 1.0, steps * lam)  # survive s steps, die next
    echo_mass = poisson.pmf(steps + 1.0, steps * lam)  # earlier-death correction
    for t in range(1, t_max):
        resid = alive_mass[t - 1]
        if t > 1:
            resid -= float(np.dot(probs[t - 1 : 0 : -1], echo_mass[: t - 1]))
        probs[t + 1] = max(0.0, eta0 * resid)
    return probs


def per_round_schedule(k: int, delta: float) -> list[float]:
    """Independent oracle: the doping schedule with one closed-form yield pmf
    per round, evaluated at that round's intensity; returns the yields."""
    u = an.uncovered_count(k, delta).exact
    decoded, yields = 0.0, []
    while decoded + u < k:
        remaining = k - decoded
        lam = an.walk_intensity(k, delta, decoded)
        if remaining < 2.0:
            ey = remaining
        else:
            ey = an.expected_yield(an.interdoping_yield_pmf(lam, int(remaining)), k, decoded)
        yields.append(ey)
        decoded += ey
    return yields


class TestDegreeEvolution:
    """The degree law of unreleased outputs against the column recursion."""

    def test_start_is_ideal_soliton(self):
        # the Ideal Soliton masses on 2..50 sum to 1 - 1/50
        res = an.unreleased_degree_dist(50, 0)
        for d in (2, 3, 10, 50):
            assert res.pmf[d] == pytest.approx(1.0 / (d * (d - 1)) / (1 - 1 / 50), rel=1e-12)

    def test_halfway_value(self):
        res = an.unreleased_degree_dist(1000, 500)
        assert res.pmf[2] == pytest.approx(0.5 / (1 - 1 / 500), rel=1e-12)

    @pytest.mark.parametrize("ell", [1, 10, 30, 47])
    def test_matches_recursion_iteration(self, ell):
        # the column recursion shrinks every mass by the same factor, so its
        # law normalized is the unreleased law at every degree
        k = 50
        oracle = iterate_column_degree_law(k, ell)
        oracle /= oracle.sum()
        res = an.unreleased_degree_dist(k, ell)
        assert res.k == k - ell
        for d in range(k + 1):
            mass = res.pmf[d] if d <= res.k else 0.0
            assert mass == pytest.approx(oracle[d], abs=1e-12)

    def test_domain_checks(self):
        for ell in (-1, 48, 50):
            with pytest.raises(InvalidParameterError):
                an.unreleased_degree_dist(50, ell)


class TestUnreleasedDegreeDist:
    def test_mass_at_two_dominates(self):
        res = an.unreleased_degree_dist(1000, 300)
        assert res.pmf[2] == pytest.approx(3 * res.pmf[3], rel=1e-12)  # 1/2 : 1/6
        assert res.pmf[2] == max(res.pmf)

    def test_smallest_support(self):
        res = an.unreleased_degree_dist(10, 7)
        assert res.k == 3
        assert res.pmf[1] == 0.0
        assert res.pmf[2] + res.pmf[3] == pytest.approx(1.0)

    def test_renormalization(self):
        # the Ideal Soliton masses on 2..60 sum to 1 - 1/60; renormalized,
        # degree two carries more than its raw half
        res = an.unreleased_degree_dist(100, 40)
        assert res.pmf[2] == pytest.approx(0.5 / (1 - 1 / 60), rel=1e-12)
        assert res.pmf.sum() == pytest.approx(1.0, abs=1e-12)


# Stall-time anchors, derived by enumerating the Poisson increment sequences
# that keep the walk positive and first hit zero at t (see the t=4 case:
# increment triples summing to 2 with a positive running ripple, weight
# sum 4 over the factorials).
def stall_anchors(lam: float) -> dict[int, float]:
    return {
        2: math.exp(-2 * lam),
        3: 2 * lam * math.exp(-3 * lam),
        4: 4 * lam**2 * math.exp(-4 * lam),
        5: (25.0 / 3.0) * lam**3 * math.exp(-5 * lam),
    }


class TestInterdopingYieldPmf:
    @pytest.mark.parametrize("lam", [1.0, 1.05, 1.2, 1.4])
    def test_closed_form_anchors(self, lam):
        pmf = an.interdoping_yield_pmf(lam, 10)
        for t, expected in stall_anchors(lam).items():
            assert pmf.probs[t] == pytest.approx(expected, abs=1e-12)

    def test_first_two_masses_zero(self):
        pmf = an.interdoping_yield_pmf(1.1, 20)
        assert pmf.probs[0] == 0.0 and pmf.probs[1] == 0.0

    @given(lam=st.floats(min_value=1.0, max_value=1.5))
    @settings(max_examples=25, deadline=None)
    def test_valid_probability_mass(self, lam):
        pmf = an.interdoping_yield_pmf(lam, 200)
        assert np.all(pmf.probs >= 0.0) and np.all(pmf.probs <= 1.0)
        assert float(pmf.probs.sum()) <= 1.0 + 1e-9
        assert pmf.tail >= 0.0

    @pytest.mark.parametrize("lam", [1.0, 1.5])
    def test_clamped_mass_negligible_deep(self, lam):
        # the closed form leaves no negative round-off to clamp, however deep
        pmf = an.interdoping_yield_pmf(lam, 2000)
        assert np.all(pmf.probs >= 0.0)
        assert float(pmf.probs.sum()) <= 1.0 + 1e-9

    @pytest.mark.parametrize("lam", [1.0, 1.05, 1.2, 1.5])
    def test_matches_recursion_oracle(self, lam):
        pmf = an.interdoping_yield_pmf(lam, 2000)
        assert np.max(np.abs(pmf.probs - recursion_yield_pmf(lam, 2000))) <= 1e-12

    def test_rejects_bad_args(self):
        for lam in (0.9, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                an.interdoping_yield_pmf(lam, 50)
        with pytest.raises(InvalidParameterError):
            an.interdoping_yield_pmf(1.0, 1)

    def test_rejects_an_overflowing_walk_mean(self):
        # t * lam used to overflow to inf and end in a NaN total under
        # two RuntimeWarnings; just below the overflow the walk never stalls
        with pytest.raises(InvalidParameterError, match="lam \\* t_max must be finite"):
            an.interdoping_yield_pmf(1e308, 3)
        pmf = an.interdoping_yield_pmf(1e300, 3)
        assert pmf.probs.tolist() == [0.0] * 4 and pmf.tail == 1.0

    def test_rejects_nan_mass(self):
        # a NaN total compares false against the tolerance either way
        with pytest.raises(InvalidParameterError):
            an.YieldPmf(1.0, [0, 0, math.nan], 0.0)


class TestPoissonFromSpecial:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.05, 2.0, 7.3, 30.0, 1234.5])
    def test_equal_to_scipy_stats(self, mu):
        n = np.arange(-1, 300)
        assert np.array_equal(an._poisson_pmf(n, mu), poisson.pmf(n, mu))
        # the walk asks pdtrc for n >= 0 only: pdtrc(-1, mu) is NaN, not 1
        assert np.array_equal(pdtrc(n[1:], mu), poisson.sf(n[1:], mu))

    def test_yield_pmf_arguments(self):
        t = np.arange(1, 2001, dtype=float)
        for lam in (1.0, 1.2, 30.0):
            assert np.array_equal(
                an._poisson_pmf(t - 2.0, t * lam), poisson.pmf(t - 2.0, t * lam)
            )

    @staticmethod
    def fresh_interpreter(code: str) -> str:
        src = Path(an.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        return out.stdout.strip()

    def test_import_leaves_scipy_stats_unloaded(self):
        # every module but __main__, which runs the CLI when imported
        names = sorted(p.stem for p in Path(an.__file__).parent.glob("*.py")
                       if not p.stem.startswith("__"))
        code = (
            "import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('squadfountain.' + name)\n"
            "print('scipy.stats' in sys.modules)"
        )
        assert self.fresh_interpreter(code) == "False"

    def test_monte_carlo_paths_load_no_scipy(self, tmp_path):
        # decode-sim on both paths and disseminate never evaluate a Poisson mass
        runs = [
            ["decode-sim", "--seed", "1", "--k", "60", "--trials", "2"],
            ["decode-sim", "--seed", "1", "--k", "60", "--trials", "2", "--network", "--h", "5"],
            ["disseminate", "--seed", "1", "--k", "61"],
        ]
        runs = [[*argv, "--out", str(tmp_path / f"{i}.csv")] for i, argv in enumerate(runs)]
        code = (
            "import sys\n"
            "from squadfountain.cli import main\n"
            f"print([main(argv) for argv in {runs!r}], 'scipy' in sys.modules)"
        )
        assert self.fresh_interpreter(code) == "[0, 0, 0] False"

    def test_analytic_routines_load_scipy_special_only(self):
        code = (
            "import sys, numpy as np\n"
            "from squadfountain import analytics\n"
            "analytics.expected_dopings(100, 0.0)\n"
            "analytics.simulate_walk_stopping_times(1.0, 10, 5, np.random.default_rng(1))\n"
            "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)"
        )
        assert self.fresh_interpreter(code) == "True False"


def row_loop_matrix(lam: float, k: int) -> np.ndarray:
    """Oracle: the truncated transition matrix filled one row at a time."""
    eta = poisson.pmf(np.arange(k + 1), lam)
    P = np.zeros((k, k))
    P[0, 0] = 1.0
    for v in range(2, k + 1):
        P[v - 1, v - 2 :] = eta[: k - v + 2]
    return P


def full_power_trapping(P: np.ndarray, u_max: int) -> np.ndarray:
    """Oracle: absorption increments from products with the whole matrix."""
    state = np.zeros(len(P))
    state[2] = 1.0
    absorbed = [0.0]
    for _ in range(u_max):
        state = state @ P
        absorbed.append(state[0])
    return np.diff(absorbed)


class TestTransitionMatrixValidator:
    @pytest.mark.parametrize("k", [3, 4, 60, 500])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.2])
    def test_equals_row_loop(self, lam, k):
        assert np.array_equal(an.ripple_transition_matrix(lam, k), row_loop_matrix(lam, k))

    @pytest.mark.parametrize("k", [3, 4, 60, 500])
    @pytest.mark.parametrize("lam", [1.0, 1.2])
    def test_leading_block_matches_full_powers(self, lam, k):
        P = an.ripple_transition_matrix(lam, k)
        for u_max in sorted({1, 2, 49, 50, k - 1, k, 2 * k}):
            by_block = an.trapping_probabilities(P, u_max)
            assert by_block.shape == (u_max,)
            assert np.max(np.abs(by_block - full_power_trapping(P, u_max))) <= 1e-15

    def test_jump_beyond_the_leading_columns_allowed(self):
        P = an.ripple_transition_matrix(1.0, 60)
        P[55, 53], P[55, 54] = P[55, 54] / 2, P[55, 54] / 2  # stays stochastic
        by_block = an.trapping_probabilities(P, 50)
        assert np.max(np.abs(by_block - full_power_trapping(P, 50))) <= 1e-15

    @pytest.mark.parametrize("row, col", [(2, 0), (5, 3), (59, 49)])
    def test_jump_into_a_leading_column_rejected(self, row, col):
        P = an.ripple_transition_matrix(1.0, 60)
        P[row, col] = 1e-3
        with pytest.raises(InvalidParameterError):
            an.trapping_probabilities(P, 50)

    @pytest.mark.parametrize("lam, k", [
        (0.0, 10), (-1.0, 10), (math.nan, 10), (math.inf, 10), (1.0, 2),
    ])
    def test_matrix_rejects_bad_args(self, lam, k):
        with pytest.raises(InvalidParameterError):
            an.ripple_transition_matrix(lam, k)

    @pytest.mark.parametrize("shape", [(60, 59), (59, 60), (60,), (2, 2)])
    def test_malformed_shape_rejected(self, shape):
        # all zero, so only the shape can be at fault
        with pytest.raises(InvalidParameterError):
            an.trapping_probabilities(np.zeros(shape), 5)

    def test_rows_are_stochastic_up_to_truncation(self):
        P = an.ripple_transition_matrix(1.1, 100)
        assert P[0, 0] == 1.0 and P[0, 1:].sum() == 0.0
        sums = P[1:50].sum(axis=1)  # rows far from the edge lose only tail mass
        assert np.all(sums > 1 - 1e-9) and np.all(sums <= 1 + 1e-12)

    def test_absorption_at_two_steps(self):
        P = an.ripple_transition_matrix(1.0, 60)
        at_two = an.trapping_probabilities(P, 2)[-1]
        assert at_two == pytest.approx(math.exp(-2), abs=1e-12)

    def test_absorption_monotone(self):
        P = an.ripple_transition_matrix(1.05, 80)
        increments = an.trapping_probabilities(P, 40)
        assert np.all(increments >= -1e-15)
        assert np.all(np.diff(np.cumsum(increments)) >= -1e-15)

    @pytest.mark.parametrize("lam", [1.0, 1.05, 1.2])
    def test_matches_recursion(self, lam):
        P = an.ripple_transition_matrix(lam, 200)
        by_matrix = an.trapping_probabilities(P, 50)
        by_closed_form = an.interdoping_yield_pmf(lam, 50).probs[1:51]
        assert np.max(np.abs(by_matrix - by_closed_form)) < 1e-8


def walk_by_walk_stopping_times(lam, n_walks, t_cap, rng):
    """Reference sampler: every walk stepped on its own, one Poisson draw per
    live walk per step, stall times in walk order."""
    times = np.full(n_walks, t_cap, dtype=np.int64)
    ripple = np.full(n_walks, 2, dtype=np.int64)
    alive = np.arange(n_walks)
    for t in range(1, t_cap + 1):
        ripple[alive] += rng.poisson(lam, size=len(alive)).astype(np.int64) - 1
        dead = ripple[alive] <= 0
        times[alive[dead]] = t
        alive = alive[~dead]
        if len(alive) == 0:
            break
    return times


WALK_ORACLE_SEED = 20260810


class TestWalkSimulation:
    @pytest.mark.parametrize("lam", [1.0, 1.05, 1.2])
    def test_tv_against_recursion(self, lam):
        times = an.simulate_walk_stopping_times(lam, 200_000, 51, np.random.default_rng(1))
        pmf = an.interdoping_yield_pmf(lam, 50)
        emp = np.bincount(times, minlength=52) / len(times)
        tv = 0.5 * (
            np.abs(emp[2:51] - pmf.probs[2:51]).sum() + abs(emp[51] - pmf.tail)
        )
        assert tv < 0.02

    @pytest.mark.parametrize("lam", [1.0, 1.2])
    def test_same_law_as_walk_by_walk(self, lam):
        # two-sample chi-square homogeneity of the stall-time histograms; cells
        # holding fewer than 20 pooled walks are merged into one
        n, t_cap = 50_000, 51
        counted = an.simulate_walk_stopping_times(
            lam, n, t_cap, np.random.default_rng([WALK_ORACLE_SEED, 0]))
        walked = walk_by_walk_stopping_times(
            lam, n, t_cap, np.random.default_rng([WALK_ORACLE_SEED, 1]))
        hists = np.stack([np.bincount(x, minlength=t_cap + 1) for x in (counted, walked)])
        pooled = hists.sum(axis=0)
        big = pooled >= 20
        table = np.column_stack([hists[:, big], hists[:, ~big].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        assert chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("t_cap", [1, 2, 3, 51])
    def test_shape_range_order_and_determinism(self, t_cap):
        times = an.simulate_walk_stopping_times(1.05, 3_000, t_cap, np.random.default_rng(4))
        again = an.simulate_walk_stopping_times(1.05, 3_000, t_cap, np.random.default_rng(4))
        assert times.dtype == np.int64 and len(times) == 3_000
        assert times.min() >= min(2, t_cap) and times.max() <= t_cap
        assert np.all(np.diff(times) >= 0)
        assert np.array_equal(times, again)
        if t_cap == 1:
            assert np.all(times == 1)

    def test_no_walks(self):
        times = an.simulate_walk_stopping_times(1.0, 0, 51, np.random.default_rng(5))
        assert times.dtype == np.int64 and times.shape == (0,)

    @pytest.mark.parametrize("lam, n_walks, t_cap", [
        (1.0, -1, 51), (1.0, 2.5, 51), (0.0, 10, 51), (-1.0, 10, 51),
        (math.nan, 10, 51), (math.inf, 10, 51), (1.0, 10, 0),
    ])
    def test_rejects_bad_args(self, lam, n_walks, t_cap):
        with pytest.raises(InvalidParameterError):
            an.simulate_walk_stopping_times(lam, n_walks, t_cap, np.random.default_rng(6))

    def test_expected_yield_against_walks(self):
        k = 1000
        pmf = an.interdoping_yield_pmf(1.0, k)
        predicted = an.expected_yield(pmf, k, 0.0)
        times = an.simulate_walk_stopping_times(1.0, 100_000, k, np.random.default_rng(2))
        assert abs(predicted - times.mean()) / times.mean() < 0.02

    def test_minimum_stall_time_is_two(self):
        times = an.simulate_walk_stopping_times(1.3, 50_000, 100, np.random.default_rng(3))
        assert times.min() >= 2


class TestExpectedYield:
    def test_point_mass(self):
        probs = np.zeros(6)
        probs[5] = 1.0
        pmf = an.YieldPmf(lam=1.0, probs=probs, tail=0.0)
        assert an.expected_yield(pmf, 105, 5.0) == pytest.approx(5.0)

    def test_all_tail_censors_to_horizon(self):
        probs = np.zeros(3)
        pmf = an.YieldPmf(lam=1.0, probs=probs, tail=1.0)
        assert an.expected_yield(pmf, 100, 60.0) == pytest.approx(40.0)

    def test_mean_yield_exceeds_two(self):
        for k in (100, 1000):
            pmf = an.interdoping_yield_pmf(1.0, k)
            assert an.expected_yield(pmf, k, 0.0) > 2.0


class TestUncovered:
    def test_delta0_approx_is_exactly_one(self):
        assert an.uncovered_count(1000, 0.0).approx == 1.0

    def test_reference_value(self):
        # k * exp(-(1+delta) ln k) at k=1000, delta=0.05 is 1000**-0.05
        assert an.uncovered_count(1000, 0.05).approx == pytest.approx(0.70794578, abs=1e-7)

    @pytest.mark.parametrize("k", [200, 1000, 10000])
    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.1])
    def test_exact_close_to_approx(self, k, delta):
        res = an.uncovered_count(k, delta)
        assert abs(res.exact - res.approx) / res.approx < 0.02

    def test_exact_vs_approx_boundary(self):
        # at k=100 the gap peaks at 2.29% (numeric sweep); it dips under 2%
        # from k ~= 150 onward
        res = an.uncovered_count(100, 0.0)
        assert abs(res.exact - res.approx) / res.approx == pytest.approx(0.0229, abs=5e-4)

    def test_rejects_more_symbols_than_int64_holds(self):
        # the bound NetworkConfig puts on k * h; far beyond it the schedule's
        # lam**2 overflowed into a bare OverflowError
        assert an.uncovered_count(1000, 2**62 / 1000 - 2).exact == 0.0
        for k, delta in [(1000, 2**62 / 1000), (1000, 1e17), (2000, 1e300)]:
            with pytest.raises(InvalidParameterError, match=r"k \* \(1 \+ delta\) must be below"):
                an.uncovered_count(k, delta)
        with pytest.raises(InvalidParameterError, match="below 2"):
            an.expected_dopings(2000, 1e300)


class TestExpectedDopings:
    def test_single_round_for_huge_surplus(self):
        # surplus so large the first censored mean reaches the full horizon
        pred = an.expected_dopings(100, 20.0)
        assert pred.rounds[0].expected_yield == pytest.approx(100.0)
        assert pred.stall_dopings == 1

    def test_monotone_in_delta(self):
        k = 2000
        grid = [round(0.01 * i, 2) for i in range(11)]
        values = [pred.p_d for pred in an.doping_table(k, grid).values()]
        inversions = [
            (a, b) for a, b in zip(values, values[1:]) if b > a + 0.05  # percent points
        ]
        assert not inversions, f"p_d increased along the grid: {inversions}"

    def test_components_add_up(self):
        pred = an.expected_dopings(1000, 0.0)
        assert pred.k_d == pytest.approx(pred.stall_dopings + pred.uncovered)
        assert pred.p_d == pytest.approx(100.0 * pred.k_d / 1000)
        assert len(pred.rounds) == pred.stall_dopings

    # at k=20000, delta=0.001 the oracle's own Poisson masses limit agreement to ~2e-12
    @pytest.mark.parametrize("k", [3, 4, 5, 100, 1000, 5000, 10000])
    @pytest.mark.parametrize("delta", [0.0, 0.001, 0.003, 0.01, 0.06, 0.5, 20.0])
    def test_matches_per_round_pmfs(self, k, delta):
        pred = an.expected_dopings(k, delta)
        want = per_round_schedule(k, delta)
        assert pred.stall_dopings == len(want)
        got = np.array([r.expected_yield for r in pred.rounds])
        assert np.max(np.abs(got / np.array(want) - 1.0)) <= 1e-12
        assert pred.k_d == pytest.approx(len(want) + pred.uncovered, rel=1e-12)

    @pytest.mark.parametrize("k", [3, 100, 2000])
    def test_table_matches_single_points(self, k):
        grid = [0.0, 0.005, 0.01, 0.03, 0.06, 0.5]
        table = an.doping_table(k, grid)
        assert list(table) == grid
        for delta in grid:
            assert table[delta] == an.expected_dopings(k, delta)  # every field

    def test_one_pmf_per_table(self, monkeypatch, tmp_path):
        # every schedule of a table tilts one lambda = 1 pmf
        grid = [0.0, 0.005, 0.01, 0.02, 0.03, 0.06, 0.5]
        real, calls = an.interdoping_yield_pmf, []

        def counted(lam, t_max):
            calls.append((lam, t_max))
            return real(lam, t_max)

        monkeypatch.setattr(an, "interdoping_yield_pmf", counted)
        an.doping_table(2000, grid)
        costs.minimize_cost(2000, 15, grid)
        out = str(tmp_path / "grid.csv")
        assert cli.main(["analyze", "--k", "2000", "--delta-grid", "0:0.06:0.01",
                         "--seed", "1", "--out", out]) == 0
        assert calls == [(1.0, 2000)] * 3

    def test_table_rejects_small_k(self):
        with pytest.raises(InvalidParameterError, match="k must be >= 3"):
            an.doping_table(2, [0.0])

    @pytest.mark.parametrize("lam", [1.001, 1.05, 1.2, 2.0, 30.0])
    def test_tilt_of_unit_intensity_law(self, lam):
        t_max = 2000
        t = np.arange(t_max + 1)
        eps = lam - 1.0
        base = an.interdoping_yield_pmf(1.0, t_max).probs
        tilted = base * np.exp(t * (math.log1p(eps) - eps)) / lam**2
        # both routes round exponents of size ~t, so agreement loosens with t
        np.testing.assert_allclose(
            tilted, an.interdoping_yield_pmf(lam, t_max).probs, rtol=1e-11, atol=0.0
        )

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(InvalidParameterError):
            an.expected_dopings(1000, delta)
        with pytest.raises(InvalidParameterError):
            an.uncovered_count(1000, delta)

    def test_wald_form(self):
        k = 500
        pmf = an.interdoping_yield_pmf(1.0, k)
        assert an.wald_dopings(k) == pytest.approx(k / an.expected_yield(pmf, k, 0.0))


class TestWalkParams:
    def test_unit_intensity_iff_zero_surplus(self):
        assert an.walk_intensity(1000, 0.0, 500) == 1.0
        assert an.walk_intensity(1000, 0.01, 0) == pytest.approx(1.01)
        assert an.walk_intensity(1000, 0.02, 500) == pytest.approx(1.04)

    def test_rejects_negative_surplus(self):
        with pytest.raises(InvalidParameterError):
            an.expected_dopings(100, -0.1)


# Bit pins: every round's expected yield and the walks' stall-time counts,
# exactly as the code gave them when pinned.  The analytic golden CSVs and
# benchmarks/reference.json see only integer stall counts, so these are what
# catch a change of a last bit.  A deliberate change rewrites the file with
# python tests/golden/rewrite.py.
PINS_FILE = Path(__file__).resolve().parent / "golden" / "analytic_pins.json"
PIN_SCHEDULES = [(2000, [0.0, 0.01, 0.03, 0.06]), (5000, [0.02])]
# (lam, n_walks, t_cap); case i draws from trial_rng(1, i)
PIN_WALKS = [(lam, n, t_cap) for lam in (0.7, 1.0, 1.2, 3.0)
             for n, t_cap in ((100_000, 51), (1000, 300), (0, 5), (5, 1))]
# subcritical, so the walks die early and the case stays fast under tracemalloc
LONG_WALK = (0.7, 100, 100_000)
# one int64 per (t, cell) of the walk's 16 cells, a table sized by t_cap, is 12.8 MB
LONG_WALK_PEAK_BYTES = 4_000_000


def walk_pin(case: int, lam: float, n_walks: int, t_cap: int) -> dict[str, int]:
    """The nonzero entries of np.bincount of the case's stall times."""
    times = an.simulate_walk_stopping_times(lam, n_walks, t_cap, trial_rng(1, case))
    return {str(t): int(c) for t, c in enumerate(np.bincount(times)) if c}


def schedule_pins() -> dict[str, dict[str, list[str]]]:
    return {str(k): {str(d): [float.hex(r.expected_yield) for r in pred.rounds]
                     for d, pred in an.doping_table(k, deltas).items()}
            for k, deltas in PIN_SCHEDULES}


def analytic_pins() -> dict:
    """What PINS_FILE holds, computed by the current code."""
    walks = [walk_pin(i, *case) for i, case in enumerate(PIN_WALKS + [LONG_WALK])]
    return {"schedules": schedule_pins(), "walks": walks}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_FILE.read_text())


class TestBitPins:
    def test_schedule_rounds(self, pins):
        assert schedule_pins() == pins["schedules"]
        pred = an.expected_dopings(5000, 0.02)
        assert [float.hex(r.expected_yield) for r in pred.rounds] == \
            pins["schedules"]["5000"]["0.02"]

    @pytest.mark.parametrize("case", range(len(PIN_WALKS)))
    def test_walk_counts(self, pins, case):
        assert walk_pin(case, *PIN_WALKS[case]) == pins["walks"][case]

    def test_long_walk_counts_and_memory(self, pins):
        # the walks' working arrays grow with the ripple sizes alive, never
        # with t_cap
        tracemalloc.start()
        try:
            got = walk_pin(len(PIN_WALKS), *LONG_WALK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pins["walks"][len(PIN_WALKS)]
        assert peak < LONG_WALK_PEAK_BYTES


class TestSizeArguments:
    @pytest.mark.parametrize("call", [
        lambda: an.interdoping_yield_pmf(1.0, 2.5),
        lambda: an.simulate_walk_stopping_times(1.0, 10, 5.5, np.random.default_rng(0)),
        lambda: an.expected_dopings(1000.0, 0.0),
        lambda: an.ripple_transition_matrix(1.0, 500.5),
        lambda: an.trapping_probabilities(an.ripple_transition_matrix(1.0, 10), 2.5),
        lambda: an.unreleased_degree_dist(100, 2.5),
        lambda: an.expected_yield(an.interdoping_yield_pmf(1.0, 100), 100, math.nan),
    ], ids=["yield_pmf", "walks", "expected_dopings", "matrix", "trapping", "unreleased",
            "expected_yield_nan"])
    def test_rejected_as_invalid_parameter(self, call):
        with pytest.raises(InvalidParameterError):
            call()
