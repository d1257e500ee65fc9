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

import pytest

from squadfountain import validation

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
