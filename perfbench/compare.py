#!/usr/bin/env python3
"""Compares two benchmark results written by `run.py --out FILE`.

    python3 perfbench/compare.py BASE.json NEW.json

Exits 3 (and prints why) when the two host records differ, because host
timings from different machines or mitigation states are not comparable;
exits 1 when an end-to-end metric got worse than its bound in BENCHMARK.json.
"""

import json
import sys
from pathlib import Path

import ledger


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    comparable, lines = ledger.compare(base, new, bounds, better)
    print("\n".join(lines))
    if not comparable:
        return 3
    return 1 if any(line.endswith("REGRESSED") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
