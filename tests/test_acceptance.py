"""Acceptance battery: every criterion at its stated tolerance, one line each.

Thirteen of the fourteen checks pass.  doping_prediction compares the
iterative doping schedule with a 200-trial network simulation; the
decoder dopes the input of a uniformly drawn (degree-two output, neighbor)
pair, whose 1 + Poisson(lambda) releases are the restart at two that the
analytic ripple walk assumes.

wald fails at its 15% bound, and the fault lies in the shortcut, not in
the decoder.  At delta=0 the walk is critical and the yield Y has no
finite mean: the censored mean E[min(Y, h)] grows like 3.1*sqrt(h) (47.2,
97.6, 198.5 at h = 250, 1000, 4000).  Integrating the schedule over the
shrinking horizon gives about 2k/E[min(Y, k)] = 20.5 dopings, so the
shortcut k/E[min(Y, k)] = 10.24 is half of the model it shortcuts, and
its band (8.9 to 12.05) cannot meet the 16.8 to 28.0 that
doping_prediction needs.  The measured numbers are printed; the check is
asserted as stated rather than loosened.
"""

import csv
import inspect

import pytest

from squadfountain import validation
from squadfountain.cli import main as cli_main

SEED = validation.DEFAULT_SEED


@pytest.mark.parametrize("name", list(validation.CRITERIA))
def test_criterion(name):
    result = validation.run_criterion(name, seed=SEED)
    print(result.summary_line())
    assert result.passed, result.summary_line()


def test_criteria_streams_disjoint():
    ranges = list(validation.STREAM_RANGES.values())
    for i, a in enumerate(ranges):
        for b in ranges[i + 1:]:
            assert a.stop <= b.start or b.stop <= a.start, (a, b)


def test_criteria_take_seed_alone():
    # each criterion tests the bound its threshold text states; nothing scales it
    for name, (criterion, _) in validation.CRITERIA.items():
        assert list(inspect.signature(criterion).parameters) == ["seed"], name


def test_doping_prediction_bound_reads_draw_time(monkeypatch):
    # the 2-minute bound is judged on the shared sample's draw, even when
    # another criterion drew it first
    sample, _ = validation.network_doping_sample(SEED)
    results = {}
    for draw_seconds in (121.0, 1.0):
        monkeypatch.setattr(validation, "network_doping_sample",
                            lambda seed, s=draw_seconds: (sample, s))
        results[draw_seconds] = validation.run_criterion("doping_prediction", seed=SEED)
    assert not results[121.0].passed
    assert results[1.0].passed
    assert results[121.0].measured == results[1.0].measured


# measured column of `validate --seed 1 --out` for the criteria that draw
# streams and run fast; a moved stream changes these
SEED1_MEASURED = {
    "decoder_bitexact": "bit_exact_trials=100/100",
    "walk_mc": "tv_distance=0.00206339 walks=1000000",
    "degree_evolution": "tv_distance=0.0208891 pooled_outputs=24879",
    "dissemination": "failures=none",
    "coupon_coverage": "sim_mean_nodes=3341.85 k_harmonic=3396.41 "
                       "klogk_estimate=3107.3 rel_error=0.0160638",
    "uncovered": "approx_at_delta0=1 formula=0.996306 sim_mean=1.024 z_score=0.627674",
    # a Python bool is spelled as the passed column spells it
    "strategy_order": "ordering_20_500=true is_ge_rs_at_h=1100 is_kd_delta0=28.9981",
}


def test_measured_values_pinned_at_seed_1(tmp_path):
    out = tmp_path / "v.csv"
    code = cli_main(["validate", "--seed", "1", "--criterion", ",".join(SEED1_MEASURED),
                     "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(line for line in out.read_text().splitlines()
                           if not line.startswith("#")))
    # criterion,passed,measured,threshold
    measured = {row[0]: row[2] for row in rows[1:]}
    assert measured == SEED1_MEASURED
