import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from squadfountain import analytics as an
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


class TestDegreeEvolution:
    def test_start_is_ideal_soliton(self):
        for d in (2, 3, 10, 50):
            assert an.degree_evolution_pmf(50, 0, d) == pytest.approx(
                1.0 / (d * (d - 1)), abs=1e-15
            )

    def test_halfway_value(self):
        assert an.degree_evolution_pmf(1000, 500, 2) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("ell", [1, 10, 30, 47])
    def test_matches_recursion_iteration(self, ell):
        k = 50
        oracle = iterate_column_degree_law(k, ell)
        for d in range(2, k - ell + 1):
            assert an.degree_evolution_pmf(k, ell, d) == pytest.approx(
                oracle[d], abs=1e-12
            )
        for d in range(k - ell + 1, k + 1):
            assert an.degree_evolution_pmf(k, ell, d) == 0.0

    def test_domain_checks(self):
        with pytest.raises(InvalidParameterError):
            an.degree_evolution_pmf(50, 48, 2)
        with pytest.raises(InvalidParameterError):
            an.degree_evolution_pmf(50, 0, 1)


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


class TestTransitionMatrixValidator:
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


class TestWalkSimulation:
    def test_tv_against_recursion(self):
        times = an.simulate_walk_stopping_times(1.0, 200_000, 51, np.random.default_rng(1))
        pmf = an.interdoping_yield_pmf(1.0, 50)
        emp = np.bincount(times, minlength=52) / len(times)
        tv = 0.5 * (
            np.abs(emp[2:51] - pmf.probs[2:51]).sum() + abs(emp[51] - pmf.tail)
        )
        assert tv < 0.02

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


class TestExpectedDopings:
    def test_single_round_for_huge_surplus(self):
        # surplus so large the first censored mean reaches the full horizon
        pred = an.expected_dopings(100, 20.0)
        assert pred.rounds[0].expected_yield == pytest.approx(100.0)
        assert pred.stall_dopings == 1

    def test_monotone_in_delta(self):
        k = 2000
        values = [an.expected_dopings(k, round(0.01 * i, 2)).p_d for i in range(11)]
        inversions = [
            (a, b) for a, b in zip(values, values[1:]) if b > a + 0.05  # percent points
        ]
        assert not inversions, f"p_d increased along the grid: {inversions}"

    def test_components_add_up(self):
        pred = an.expected_dopings(1000, 0.0)
        assert pred.k_d == pytest.approx(pred.stall_dopings + pred.uncovered)
        assert pred.p_d == pytest.approx(100.0 * pred.k_d / 1000)
        assert len(pred.rounds) == pred.stall_dopings

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
