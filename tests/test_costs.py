import math

import numpy as np
import pytest

from squadfountain import analytics, costs
from squadfountain.errors import InvalidParameterError


class TestSupersquadSquads:
    def test_reference_points(self):
        assert costs.supersquad_squads(1000, 200) == 5
        assert costs.supersquad_squads(0, 50) == 0
        assert costs.supersquad_squads(201, 100) == 3

    def test_rejects_tiny_h(self):
        with pytest.raises(InvalidParameterError):
            costs.supersquad_squads(10, 0.5)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_rejects_non_finite_h(self, h):
        with pytest.raises(InvalidParameterError):
            costs.supersquad_squads(10, h)

    @pytest.mark.parametrize("k_s", [math.nan, -1.0])
    def test_rejects_nan_or_negative_k_s(self, k_s):
        # NaN used to reach math.ceil and raise its bare ValueError
        with pytest.raises(InvalidParameterError, match="k_s"):
            costs.supersquad_squads(k_s, 10)

    def test_rejects_infinite_k_s(self):
        # infinity used to reach math.ceil and raise its bare OverflowError
        with pytest.raises(InvalidParameterError, match="k_s must be finite"):
            costs.supersquad_squads(math.inf, 10)


class TestCollectionCost:
    def test_pure_polling(self):
        k = 2000
        assert costs.collection_cost(k, 0, k, 50) == math.ceil(k / 4)

    def test_single_squad_plugin(self):
        assert costs.collection_cost(2000, 2000, 0, 2000) == pytest.approx(1.5)

    @pytest.mark.parametrize("h", [10, 100, 1000])
    def test_hop_models_differ_by_half_ks_over_k(self, h):
        k, k_s = 2000, 2400
        gap = costs.collection_cost(k, k_s, 7, h, "eq_costeq") - costs.collection_cost(
            k, k_s, 7, h, "sec2"
        )
        assert gap == pytest.approx(k_s / (2 * k))

    @pytest.mark.parametrize("k", [0, -5])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(InvalidParameterError, match="k must be at least 1"):
            costs.collection_cost(k, 10.0, 1.0, 10)

    @pytest.mark.parametrize("k_s, k_d, h", [(math.nan, 10, 10), (100, math.nan, 10),
                                             (100, 110, math.nan)], ids=["k_s", "k_d", "h"])
    def test_nan_input_rejected(self, k_s, k_d, h):
        # a NaN k_d used to come back as a NaN cost
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            costs.collection_cost(100, k_s, k_d, h)

    def test_nonincreasing_in_h(self):
        values = [costs.collection_cost(2000, 2400, 10, h) for h in (10, 20, 50, 100, 1000)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestStrategyCost:
    def test_polling_reference(self):
        point = costs.strategy_cost("polling", 2000, 100)
        assert point.c_T == 500
        assert point.normalized == pytest.approx(1.0)

    def test_coupon_uses_harmonic_requirement(self):
        point = costs.strategy_cost("coupon", 2000, 100)
        assert point.k_s == pytest.approx(2000 * sum(1 / i for i in range(1, 2001)))
        assert 0 < point.k_d < 1

    def test_rs_requirement(self):
        point = costs.strategy_cost("rs_no_doping", 2000, 100)
        assert point.k_s == pytest.approx(2000 + math.sqrt(2000) * math.log(4000) ** 2)
        assert point.k_d == 0

    @pytest.mark.parametrize("eps_rs", [0.0, -1.0, 1.0, math.nan])
    def test_rs_requirement_needs_eps_in_unit_interval(self, eps_rs):
        with pytest.raises(InvalidParameterError):
            costs.rs_symbol_requirement(2000, eps_rs)

    def test_is_doping_takes_caller_k_d(self):
        point = costs.strategy_cost("is_doping", 2000, 100, delta=0.02, k_d=12.5)
        assert point.k_d == 12.5
        assert point.k_s == pytest.approx(2040)
        assert point.delta == 0.02

    def test_is_doping_without_k_d_rejected(self):
        with pytest.raises(InvalidParameterError, match="k_d"):
            costs.strategy_cost("is_doping", 2000, 100, delta=0.02)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            costs.strategy_cost("gossip", 100, 10)

    @pytest.mark.parametrize("strategy", ["polling", "coupon", "rs_no_doping", "is_doping"])
    @pytest.mark.parametrize("k", [0, -5])
    def test_k_below_one_rejected(self, strategy, k):
        # checked before any strategy's formula, which would divide by k
        with pytest.raises(InvalidParameterError, match="k must be at least 1"):
            costs.strategy_cost(strategy, k, 10, k_d=1.0)


class TestMinimizeCost:
    def test_degenerate_grid(self):
        kd = {0.03: 9.0}
        delta, point = costs.minimize_cost(2000, 15, [0.03], kd_by_delta=kd)
        assert delta == 0.03 and point.k_d == 9.0

    def test_argmin_no_larger_than_grid(self):
        k, h = 2000, 15
        grid = [round(0.01 * i, 2) for i in range(7)]
        kd = {d: pred.k_d for d, pred in analytics.doping_table(k, grid).items()}
        best_delta, best = costs.minimize_cost(k, h, grid, kd_by_delta=kd)
        for d in grid:
            point = costs.strategy_cost("is_doping", k, h, delta=d, k_d=kd[d])
            assert best.c_T <= point.c_T + 1e-12
        assert costs.minimize_cost(k, h, grid) == (best_delta, best)  # default table

    def test_partial_table_rejected(self):
        # a missing grid point must not fall back to the analytic k_d
        with pytest.raises(InvalidParameterError, match=r"\[0\.02\]"):
            costs.minimize_cost(2000, 15, [0.01, 0.02], kd_by_delta={0.01: 8.0})

    def test_tie_prefers_smaller_delta(self):
        kd = {0.01: 8.0, 0.02: 8.0}
        delta, _ = costs.minimize_cost(4000, 4000, [0.02, 0.01], kd_by_delta=kd)
        assert delta in (0.01, 0.02)
        cost1 = costs.strategy_cost("is_doping", 4000, 4000, delta=0.01, k_d=8.0).c_T
        cost2 = costs.strategy_cost("is_doping", 4000, 4000, delta=0.02, k_d=8.0).c_T
        if cost1 == cost2:
            assert delta == 0.01

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            costs.minimize_cost(100, 10, [])


class TestStrategyOrdering:
    def test_polling_comparisons(self):
        # the coded strategies undercut polling on moderate squads; coupon
        # needs h >= ~70 before it beats polling at k=2000
        k = 2000
        kd0 = analytics.doping_table(k, [0.0])[0.0].k_d
        for h in (20, 50, 100, 500):
            is_point = costs.strategy_cost("is_doping", k, h, delta=0.0, k_d=kd0)
            rs_point = costs.strategy_cost("rs_no_doping", k, h)
            assert is_point.normalized < 1.0
            assert rs_point.normalized < 1.0
        for h in (100, 200, 500):
            assert costs.strategy_cost("coupon", k, h).normalized < 1.0
        assert costs.strategy_cost("coupon", k, 20).normalized > 1.0

    def test_coupon_an_order_of_magnitude_above_rs(self):
        k = 2000
        for h in (20, 50, 100, 500):
            ratio = (
                costs.strategy_cost("coupon", k, h).c_T
                / costs.strategy_cost("rs_no_doping", k, h).c_T
            )
            assert ratio > 5.0
