"""Records the verdict fields of every benchmark input into expected.json.

Run from the repository root:

    python3 perfbench/record.py

Each recorded field is part of the benchmark's correctness gate, so record
again only after an intentional behaviour change, and review the diff. An
input whose known answer (exit 0, every check passed) does not hold is
recorded too, and listed on stderr: the gate counts it as a wrong verdict
whatever its recorded fields say.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    EXPECTED,
    RECORDED_SEEDS,
    SRC,
    WORKLOADS,
    run_process,
    verdict_fields,
    wrong_verdict,
    write_input,
)


def main() -> int:
    sys.path.insert(0, str(SRC))
    recorded = {}
    for name, workload in sorted(WORKLOADS.items()):
        fields = {}
        for seed in range(RECORDED_SEEDS):
            write_input(workload, seed)
            result = run_process(["-m", "flowreject.cli", *workload.cli_args(seed)])
            fields[str(seed)] = verdict_fields(json.loads(result.stdout))
            print(f"{name} seed {seed}: {result.wall_s:.2f} s", flush=True)
            if wrong_verdict(result.returncode, result.stdout, None):
                print(f"{name} seed {seed}: known answer does not hold", file=sys.stderr)
        recorded[name] = fields
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
