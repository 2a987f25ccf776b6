"""Fresh-process side of the benchmark; started by ``run.py``.

    python3 benchmarks/child.py setup --workload W --config PATH
    python3 benchmarks/child.py run --workload W --seed N --seconds S --trace 0|1 --work DIR

``setup`` times ``import qfilter`` plus the workload's set-up calls.
``run`` measures the workload and prints one JSON object as its last line.
qfilter is imported from the ``src/`` directory next to this benchmark and
nowhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# One BLAS thread in every process that runs the workloads, on every commit.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def use_checkout_source() -> None:
    if not (SRC / "qfilter" / "__init__.py").is_file():
        sys.exit(f"qfilter source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _check_imported_from_checkout() -> None:
    import qfilter

    if Path(qfilter.__file__).resolve().parent != SRC / "qfilter":
        sys.exit(f"qfilter was imported from {qfilter.__file__}, not {SRC}")


def cmd_setup(args) -> None:
    started = time.perf_counter()
    import qfilter  # noqa: F401  (timed: the import is part of set-up)

    imported = time.perf_counter()
    _check_imported_from_checkout()
    import workloads

    resumed = time.perf_counter()
    workloads.setup_inputs(args.workload, Path(args.config))
    done = time.perf_counter()
    wall = (imported - started) + (done - resumed)
    scale = workloads.ReferenceClock().lap()
    print(json.dumps({"setup_s": wall * scale, "wall_s": wall}))


def runtime_header() -> dict:
    """Interpreter, numpy, scipy and OpenBLAS versions and BLAS threads."""
    import ctypes
    import importlib.metadata
    import platform

    import numpy as np

    header = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        header["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        header["scipy"] = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    header["blas"] = f"{blas.get('name')} {blas.get('version')}"
    header["blas_threads"] = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        suffix = "64_" if "openblas64" in lib_path.name else ""
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        if get_threads is not None:
            header["blas_threads"] = int(get_threads())
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            header["blas"] = get_config().decode()
    return header


def cmd_run(args) -> None:
    import resource
    import statistics

    _check_imported_from_checkout()
    import tracing
    import workloads

    work_dir = Path(args.work)
    references = workloads.load_references(REFERENCE, args.workload)
    workload = workloads.WORKLOAD_CLASSES[args.workload](
        work_dir, references, workloads.ReferenceClock()
    )

    results = workloads.timed_calls(workload, args.seed, args.seconds)
    timed = results[1:]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [x for r in timed for x in r.normalized_latencies()]
    wall_latencies = [x for r in timed for x in r.latencies_s]
    out = {
        "header": runtime_header(),
        "calls": len(timed),
        "requests": len(latencies),
        "end_to_end": {
            "ops_per_s": workloads.rate(timed),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        },
        "wall": {
            "wall.ops_per_s": workloads.rate(timed, normalized=False),
            "wall.latency_p50_ms": statistics.median(wall_latencies) * 1e3,
            "wall.ref_kernel_ms": statistics.median(
                workloads.REF_NOMINAL_S / r.scale for r in timed
            ) * 1e3,
        },
    }
    tail = tracing.tail_percentile(latencies)
    if tail is not None:
        out["tail"] = {"percentile": tail[0], "ms": tail[1] * 1e3}

    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
        traced, layers = workloads.traced_calls(workload, args.seed, spans_path)
        results += traced
        leftover = tracing.wrapped_bindings()
        if leftover:
            out.setdefault("problems", []).append(f"wrappers not restored: {leftover}")
        # Traced call i had the same inputs as untraced timed call i.
        pairs = list(zip(traced, timed))
        layers["trace.overhead_pct"] = (
            sum(t.wall_s * t.scale for t, _ in pairs)
            / sum(u.wall_s * u.scale for _, u in pairs)
            - 1.0
        ) * 100.0
        layers["feedback.step_p99_us"] = (
            tracing.percentile(latencies, 99.0) * 1e6 if args.workload == "feedback" else 0.0
        )
        layers.update(out["wall"])
        out["per_layer"] = layers
        out["spans"] = str(spans_path.relative_to(ROOT))

    out["attempted"] = sum(r.attempted for r in results)
    out["failed"] = sum(r.failed for r in results)
    out.setdefault("problems", []).extend(p for r in results for p in r.problems)
    print(json.dumps(out))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="role", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True)
    p_setup.add_argument("--config", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_run.add_argument("--work", required=True)
    args = parser.parse_args()
    use_checkout_source()
    if args.role == "setup":
        cmd_setup(args)
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
