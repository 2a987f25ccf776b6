"""Record the reference outputs of every ensemble and feedback pool entry.

    python3 benchmarks/reference.py [ensemble] [feedback]

Runs each pool entry twice: once to record it and once through the
workload's gates, which must then pass. Writes ``reference.json`` next to
this file. Re-record only when a change is meant to alter detector-outcome
streams or mean-fidelity curves, and say so in that change. The verify
gate needs no reference: every suite must pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import child

child.use_checkout_source()
os.environ.update(child.BLAS_ENV)

import inputs  # noqa: E402
import workloads  # noqa: E402


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=child.ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(names) -> None:
    path = child.REFERENCE
    data = json.loads(path.read_text()) if path.exists() else {}
    if data.get("parameters") != workloads.reference_parameters():
        data = {}
    data["parameters"] = workloads.reference_parameters()
    data["commit"] = _commit()
    work_dir = Path(tempfile.mkdtemp(prefix="record-", dir=child.ROOT / ".bench_out"))
    try:
        for name in names:
            workload = workloads.WORKLOAD_CLASSES[name](work_dir, {})
            data[name] = {
                str(i): workload.record(i) for i in range(inputs.POOLS[name])
            }
            path.write_text(json.dumps(data, indent=1) + "\n")
            print(f"{name}: {inputs.POOLS[name]} pool entries recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    os.makedirs(child.ROOT / ".bench_out", exist_ok=True)
    main(sys.argv[1:] or ["ensemble", "feedback"])
