"""Record reference fingerprints for the benchmark's output check.

Usage (from the repository root)::

    python3 perfbench/record.py --workload serve-50k --seeds 0-23

For each seed not yet recorded (each sub-run seed, on a workload that
serves several gateways per run), this serves the workload's
fingerprint prefix (warm-up plus one snapshot period) on the workload's
*reference* runtime —
``shards=0`` for the sharded workload, ``shards=2`` for the others — and
stores the fingerprint in ``perfbench/fingerprints.json`` under the
workload's behaviour key.  ``run.py`` checks its measured prefix against
these values; for a seed with no recorded value it computes the same
reference in the run instead.  Re-record only when the gateway's
behaviour is meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

from checks import IDENTITIES, RECORDED_PATH, load_recorded  # noqa: E402
from workloads import WORKLOADS, base_workload, reference_fingerprint  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-23 or 1,5,9")
    args = parser.parse_args()

    shape = WORKLOADS[args.workload]
    table = load_recorded()
    entry = table.get(shape.name)
    if not entry or entry.get("behaviour_key") != shape.behaviour_key():
        entry = {
            "behaviour_key": shape.behaviour_key(),
            "reference_shards": shape.reference_shards,
            "prefix_fingerprints": {},
        }
    sub_seeds = [
        sub_seed
        for seed in parse_seeds(args.seeds)
        for sub_seed in shape.sub_seeds(seed)
        if str(sub_seed) not in entry["prefix_fingerprints"]
    ]
    for seed in sub_seeds:
        reference = reference_fingerprint(shape, seed, base_workload(seed))
        broken = [name for name, holds in IDENTITIES if not holds(reference["final"])]
        if broken:
            print(f"seed {seed}: identities fail: {broken}", file=sys.stderr)
            return 1
        entry["prefix_fingerprints"][str(seed)] = reference["fingerprint"]
        print(f"{shape.name} seed {seed}: {reference['fingerprint']}", flush=True)
        table[shape.name] = entry
        RECORDED_PATH.write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
