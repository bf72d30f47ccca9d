"""Regenerate pins.json: every workload part's outputs at J = 1, for both sizes.

    python3 bench/pin.py        (from the repository root)

Pins are taken once from a commit whose results are trusted; a later commit
is checked against them, so rerun this only when the expected physics changes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402


def main() -> int:
    pins = {size: {part: workloads.pins_from(part, observed)
                   for name in workloads.WORKLOADS
                   for part, observed in workloads.run(name, 1.0, size).items()}
            for size in workloads.SIZES}
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
