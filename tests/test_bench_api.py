"""The benchmark's workloads run against the package as it stands.

``benchmarks/workloads.py`` is imported as it is.  Op 0 of each workload
runs plain and traced; both must pass the workload's own check and give
the same k_d, so a change the benchmark cannot consume fails here.  Every
op of the analytic cycle is checked against ``reference.json`` once.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_zero_plain_and_traced(name):
    tr = Tracer()
    wl = workloads.WORKLOADS[name](1, tr)
    plain, traced = wl.run(0), wl.run_traced(0, tr)
    assert wl.check(plain) and wl.check(traced)
    assert wl.kd(traced) == wl.kd(plain)


def test_every_analytic_op_matches_reference():
    wl = workloads.AnalyticSweep(1, Tracer())
    failed = [wl.ops[i][1] for i in range(len(wl.ops)) if not wl.check(wl.run(i))]
    assert not failed
