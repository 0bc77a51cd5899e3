"""Record the reference outputs of every pool instance from the current program.

    python3 perfbench/record.py

Rewrites ``reference.json`` for every workload.  The benchmark's output
checks compare against these values, so record them only from a commit
whose outputs are trusted, and say so when they change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, child_env

os.environ.update(child_env())  # before numpy is imported, so BLAS matches the benchmark

from process import WORKLOADS  # noqa: E402
from workloads import REFERENCE_PATH  # noqa: E402


def main() -> int:
    reference = {}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=out)
    try:
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name](0, Path(workdir), None)
            for key in workload.pool_keys():
                reference[key] = workload.observe(key)
                print(key, file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
