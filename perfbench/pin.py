"""Regenerate digests.json: the SHA-256 of every input file of every
workload for the pinned seeds, and of the generator canary.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only when a workload's definition changes on purpose; the harness
refuses inputs that differ from the file.
"""

import json
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# Seeds 0 .. SEEDS-1 are pinned; the canary covers every other seed.
SEEDS = 10


def main() -> None:
    pinned = {"canary": {}, "workloads": {}}
    for name, content in workloads.build(workloads.CANARY, 0).items():
        pinned["canary"][name] = workloads.digest(content)
    for workload in workloads.WORKLOADS.values():
        pinned["workloads"][workload.name] = {
            str(seed): {name: workloads.digest(content) for name, content
                        in workloads.build(workload, seed).items()}
            for seed in range(SEEDS)
        }
    (HERE / "digests.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
