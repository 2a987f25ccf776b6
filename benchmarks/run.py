"""qfilter benchmark: one workload run, printed as metrics plus one JSON line.

    python3 benchmarks/run.py --workload ensemble|feedback|verify \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports qfilter from ``src/``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced; ``--trace 1`` reports the per-layer metrics from a traced pass
that follows an untraced one (see README.md). The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.

BENCHMARK.json declares ``ensemble`` and ``feedback``. ``verify`` runs the
same way but is not declared, because the current code fails one of its
suites at some seeds (README.md, Known failure); its verify-only layers are
printed as ``#`` lines.

This process imports neither numpy nor qfilter. Set-up is timed in
SETUP_PROBES fresh processes and the workload runs in one more, each with
one BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import child
import inputs

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=child.ROOT, capture_output=True,
            text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((child.SRC / "qfilter").rglob("*.py")):
        h.update(path.relative_to(child.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _python(*args: str) -> list:
    return [sys.executable, str(Path(child.__file__)), *args]


def _run_child(argv: list, env: dict, timeout: float) -> dict:
    """Run a child process; return the JSON object on its last stdout line."""
    proc = subprocess.run(
        argv, cwd=child.ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{argv[2]} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (child.SRC / "qfilter" / "__init__.py").is_file():
        return _fail(f"no qfilter source under {child.SRC}; run from a checkout")
    spec_path = child.ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not child.REFERENCE.is_file():
        return _fail("BENCHMARK.json or the reference file is missing")
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ, **child.BLAS_ENV)
    work_root = child.ROOT / ".bench_out"
    work_dir = work_root / f"run-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_values, setup_walls = [], []
        if not args.trace:
            config = inputs.write_config(
                args.workload, inputs.instance(args.workload, args.seed, 0), work_dir
            )
            for _ in range(SETUP_PROBES):
                probe = _run_child(
                    _python("setup", "--workload", args.workload, "--config", str(config)),
                    env, PROBE_TIMEOUT_S,
                )
                setup_values.append(probe["setup_s"])
                setup_walls.append(probe["wall_s"])
        out = _run_child(
            _python(
                "run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work", str(work_dir),
            ),
            env, CHILD_TIMEOUT_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        return _fail(str(err))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        values = out["per_layer"]
    else:
        values = dict(out["end_to_end"], setup_s=statistics.median(setup_values))
    missing = sorted(set(declared) - set(values))
    if missing:
        return _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    # Layers only the verify workload reaches are measured but not declared.
    undeclared = [name for name in values if name not in declared]

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **out["header"],
        "calls_timed": out["calls"],
        "requests_timed": out["requests"],
    }
    print("# run " + json.dumps(header))
    if "tail" in out:
        print(
            f"# request latency p{out['tail']['percentile']:g}: "
            f"{out['tail']['ms']:.6g} ms over {out['requests']} requests"
        )
    if setup_values:
        print(f"# setup_s probes (normalized): {setup_values}")
        print(f"# setup wall seconds: {setup_walls}")
    print("# wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in out["wall"].items()))
    if "spans" in out:
        print(f"# spans written to {out['spans']}")
    failed_frac = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"# attempted {out['attempted']} failed {out['failed']} failed_frac {failed_frac:g}")
    for problem in out["problems"][:20]:
        print(f"# problem: {problem}")
    for name in declared:
        print(f"{name:<48} {values[name]:>16.6f} {declared[name]}")
    for name in undeclared:
        print(f"# {name:<46} {values[name]:>16.6f}")

    result = {
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": values[name], "unit": declared[name]} for name in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
