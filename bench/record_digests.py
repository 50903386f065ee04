"""Record the sha256 of every op's stdout for the default seeds.

    python3 bench/record_digests.py

Runs each op of each workload once for seeds 0-9, checks it, and writes
bench/digests.json ({argv: sha256}).  The benchmark then fails any op whose
stdout differs from the recorded bytes, which enforces that payloads stay
byte-identical.  Re-record only when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from worker import DIGESTS, call

DEFAULT_SEEDS = range(10)


def main():
    digests, bad = {}, 0
    for workload in workloads.WORKLOADS:
        ops = {workloads.WARMUP[workload]}
        for seed in DEFAULT_SEEDS:
            ops.update(workloads.generate(workload, seed))
        for op_class, argv in sorted(ops):
            _, outcome, stdout = call(argv)
            try:
                if outcome != 0:
                    raise workloads.CheckError(f"exit {outcome!r}")
                workloads.check(op_class, argv, stdout)
            except workloads.CheckError as exc:
                bad += 1
                print(f"FAILED {' '.join(argv)}: {exc}", file=sys.stderr)
                continue
            digests[" ".join(argv)] = hashlib.sha256(stdout.encode()).hexdigest()
        print(f"{workload}: {len(ops)} distinct ops")
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
