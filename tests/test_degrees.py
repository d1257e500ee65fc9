import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squadfountain.degrees import (
    DegreeDistribution,
    ideal_soliton,
    robust_soliton,
    robust_soliton_params,
    sample_degrees,
)
from squadfountain.errors import InvalidParameterError


class TestIdealSoliton:
    def test_mass_at_two_is_half(self):
        assert ideal_soliton(1000).pmf[2] == pytest.approx(0.5, abs=1e-15)

    def test_k2_splits_evenly(self):
        dist = ideal_soliton(2)
        assert dist.pmf[1] == pytest.approx(0.5)
        assert dist.pmf[2] == pytest.approx(0.5)

    def test_telescoping_sum(self):
        assert abs(ideal_soliton(10).pmf.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("k", [2, 5, 37, 1000])
    def test_product_identity(self, k):
        dist = ideal_soliton(k)
        for d in range(2, k + 1):
            assert dist.pmf[d] * d * (d - 1) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_k(self):
        with pytest.raises(InvalidParameterError):
            ideal_soliton(1)


class TestRobustSoliton:
    @given(
        k=st.integers(min_value=10, max_value=3000),
        c=st.floats(min_value=0.01, max_value=0.3),
        delta_rs=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_normalized(self, k, c, delta_rs):
        R, _ = robust_soliton_params(k, c, delta_rs)
        if R >= k:
            return
        assert abs(robust_soliton(k, c, delta_rs).pmf.sum() - 1.0) < 1e-12

    def test_degree_one_boosted_over_ideal(self):
        rs = robust_soliton(1000, 0.1, 0.5)
        assert rs.pmf[1] > ideal_soliton(1000).pmf[1]

    def test_spike_location(self):
        k, c, delta_rs = 1000, 0.1, 0.5
        R = c * math.log(k / delta_rs) * math.sqrt(k)  # independent evaluation
        spike = math.ceil(k / R)
        rs = robust_soliton(k, c, delta_rs)
        assert rs.pmf[spike] > rs.pmf[spike - 1]
        assert rs.pmf[spike] > rs.pmf[spike + 1]

    def test_rejects_r_at_least_k(self):
        with pytest.raises(InvalidParameterError):
            robust_soliton(4, c=10.0, delta_rs=0.5)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParameterError):
            robust_soliton(100, c=-1.0)
        with pytest.raises(InvalidParameterError):
            robust_soliton(100, delta_rs=1.5)

    def test_rejects_nan_c(self):
        with pytest.raises(InvalidParameterError):
            robust_soliton(100, c=math.nan)


class TestSampling:
    def test_point_mass_always_two(self):
        dist = DegreeDistribution.from_weights(np.eye(11)[2])
        rng = np.random.default_rng(0)
        assert np.all(sample_degrees(dist, rng, 200) == 2)

    def test_law_of_large_numbers_at_two(self):
        dist = ideal_soliton(1000)
        draws = sample_degrees(dist, np.random.default_rng(42), 1_000_000)
        freq = np.mean(draws == 2)
        assert abs(freq - 0.5) < 0.005

    def test_same_seed_same_sequence(self):
        dist = ideal_soliton(50)
        seq1 = sample_degrees(dist, np.random.default_rng(7), 100)
        seq2 = sample_degrees(dist, np.random.default_rng(7), 100)
        assert np.array_equal(seq1, seq2)

    def test_histogram_tracks_pmf(self):
        dist = ideal_soliton(100)
        n = 1_000_000
        draws = sample_degrees(dist, np.random.default_rng(3), n)
        counts = np.bincount(draws, minlength=101) / n
        bound = 5.0 * np.sqrt(dist.pmf / n) + 1e-4
        assert np.all(np.abs(counts - dist.pmf) < bound)

    def test_samples_stay_in_support(self):
        dist = robust_soliton(40, 0.2, 0.2)
        draws = sample_degrees(dist, np.random.default_rng(5), 10_000)
        assert draws.min() >= 1 and draws.max() <= 40


class TestDegreeDistributionType:
    def test_rejects_negative_mass(self):
        pmf = np.zeros(4)
        pmf[1], pmf[2], pmf[3] = 0.6, 0.6, -0.2
        with pytest.raises(InvalidParameterError):
            DegreeDistribution(k=3, pmf=pmf)

    def test_rejects_unnormalized(self):
        pmf = np.zeros(4)
        pmf[1] = 0.5
        with pytest.raises(InvalidParameterError):
            DegreeDistribution(k=3, pmf=pmf)

    def test_rejects_nan_mass(self):
        # a NaN total compares false against the tolerance either way; built,
        # it would sample degree 1 for every draw
        with pytest.raises(InvalidParameterError):
            DegreeDistribution(k=2, pmf=[0, math.nan, math.nan])

    @given(k=st.integers(min_value=2, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_ideal_soliton_cdf_monotone(self, k):
        dist = ideal_soliton(k)
        assert np.all(np.diff(dist.cdf) >= 0)
        assert dist.cdf[-1] == pytest.approx(1.0, abs=1e-12)
