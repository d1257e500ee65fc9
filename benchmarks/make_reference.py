"""Rewrite reference.json from the analytic results of the current code.

    python3 benchmarks/make_reference.py

Run it only when an analytic result is meant to change, and say so where
the change is recorded: the analytic_sweep check compares against this file.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import REFERENCE_PATH, SUMMARIES, analytic_ops  # noqa: E402

reference = {}
for span, key, fn, args in analytic_ops():
    if span in SUMMARIES:
        reference[key] = SUMMARIES[span](fn(*args))
REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
print(f"wrote {len(reference)} reference values to {REFERENCE_PATH}")
