"""Write golden.json: the exact oracle_desk report values for the default seed.

    python3 perfbench/golden.py

Run it only on a commit whose oracles are trusted; every later run of
oracle_desk on the default seed must reproduce these Fractions exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gridmono  # noqa: E402

from workloads import DEFAULT_SEED, GOLDEN_PATH, desk_inputs, report_values  # noqa: E402


def main() -> None:
    golden = {}
    for label, _, f in desk_inputs(DEFAULT_SEED):
        values = report_values(gridmono.isoperimetry_report(f))
        golden[label] = {k: str(v) for k, v in values.items()}
    with open(GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
