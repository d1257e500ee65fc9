"""Rewrite the golden CSVs and the analytic bit pins from the current code:
python tests/golden/rewrite.py"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from squadfountain import cli  # noqa: E402
from test_analytics import PINS_FILE, analytic_pins  # noqa: E402
from test_golden import GOLDEN, GOLDEN_DIR  # noqa: E402

for name, argv in GOLDEN.items():
    if cli.main(argv + ["--out", str(GOLDEN_DIR / name)]):
        raise SystemExit(f"{name}: {' '.join(argv)} failed")
    print(f"wrote {name}")
PINS_FILE.write_text(json.dumps(analytic_pins(), indent=1) + "\n")
print(f"wrote {PINS_FILE.name}")
