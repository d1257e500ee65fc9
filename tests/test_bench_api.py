"""The benchmark's workloads run against the package as it stands.

``benchmarks/workloads.py`` is imported as it is.  Op 0 of each workload
runs plain and traced; both must pass the workload's own check and give
the same k_d, so a change the benchmark cannot consume fails here.
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
