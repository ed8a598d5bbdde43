"""Record reference.json: sampled outputs of every job at the default seed.

    python3 perfbench/record_reference.py

Run it on the library version whose outputs are the reference; the
benchmark then checks later versions against it (see checks.py). Every
job must first pass the invariant checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from worker import REFERENCE, ROOT, Bench


def main() -> int:
    reference = {}
    work = tempfile.mkdtemp(prefix="reference-", dir=ROOT)
    try:
        for name in workloads.WORKLOADS:
            bench = Bench(name, workloads.DEFAULT_SEED, work=Path(work) / name)
            bench.run_pass()
            if bench.failed:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            for job in bench.jobs:
                reference[job.id] = checks.sample_outputs(Path(bench.configs[job.id].out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} jobs to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
