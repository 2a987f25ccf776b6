"""Span tracing of the qfilter layers from outside the package.

``install`` wraps the public functions listed in ``TARGETS`` at every
binding a caller uses: modules import names with ``from .x import y``, so
``qfilter.simulate.filter_update`` is a binding of its own, separate from
``qfilter.filtering.filter_update``. ``DensityOperator.__init__`` is
wrapped on the class and the verify suites in ``verify.ALL_SUITES``.
``Patches.restore`` puts every original back, so code run afterwards is
unwrapped.

Spans stay in memory (parallel lists) and are written out once, after the
traced pass. A span records name, start, end, parent span and request id;
the workload names which span starts a new request.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (module, function) pairs wrapped wherever the function object is bound.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("kraus", "weighted_image"),
    ("kraus", "raw_jump_probabilities"),
    ("kraus", "apply_jump"),
    ("density", "fidelity"),
    ("filtering", "filter_update"),
    ("filtering", "outcome_probabilities"),
    ("filtering", "regularized_image"),
    ("simulate", "step_truth"),
    ("simulate", "run_trajectory"),
    ("simulate", "run_ensemble"),
    ("errormodel", "inverse_cdf_index"),
    ("photonbox", "composite_kraus"),
    ("oracle", "direct_estimate"),
    ("oracle", "marginal_evidence"),
    ("stability", "exact_one_step_submartingale"),
    ("stability", "check_fidelity_inequality"),
    ("stability", "ensemble_submartingale"),
    ("serialize", "record_to_dict"),
    ("serialize", "dumps"),
    ("config", "load_config"),
    ("config", "build_steps"),
    ("config", "resolve_states"),
    ("cli", "main"),
)

# Stats reported per span name; every name is reported on every workload.
SPAN_STATS: Dict[str, Tuple[str, ...]] = {
    "kraus.weighted_image": ("calls", "self_s", "p50_us"),
    "kraus.raw_jump_probabilities": ("calls", "self_s"),
    "kraus.apply_jump": ("calls", "self_s"),
    "density.DensityOperator": ("calls", "self_s"),
    "density.fidelity": ("calls", "self_s", "p50_us"),
    "filtering.filter_update": ("calls", "self_s", "p50_us"),
    "filtering.outcome_probabilities": ("calls", "self_s"),
    "simulate.step_truth": ("calls", "self_s", "p50_us"),
    "simulate.run_trajectory": ("self_s",),
    "simulate.run_ensemble": ("self_s",),
    "errormodel.inverse_cdf_index": ("calls", "self_s"),
    "photonbox.composite_kraus": ("calls", "self_s", "p50_us"),
    "oracle.direct_estimate": ("calls", "self_s"),
    "oracle.marginal_evidence": ("calls", "self_s"),
    "stability.exact_one_step_submartingale": ("calls", "self_s"),
    "stability.check_fidelity_inequality": ("calls", "self_s"),
    "stability.ensemble_submartingale": ("self_s",),
    "serialize.record_to_dict": ("calls", "self_s"),
    "serialize.dumps": ("calls", "self_s"),
    "config.load_config": ("self_s",),
    "config.build_steps": ("self_s",),
    "config.resolve_states": ("self_s",),
    "cli.main": ("self_s",),
}


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """Highest percentile in TAIL_CANDIDATES with at least 10 samples beyond it.

    Returns (percentile, value), or None when fewer than 20 samples exist.
    """
    best = None
    for pct in TAIL_CANDIDATES:
        if len(values) * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            best = pct
    if best is None:
        return None
    return best, percentile(values, best)


class Tracer:
    """In-memory span recorder."""

    def __init__(self, request_roots: Iterable[str] = ()):
        self.request_roots = frozenset(request_roots)
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request = 0
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call; ``count(counters,
        args, result)`` runs after each call that returned."""
        tracer = self
        starts_request = name in self.request_roots
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_request:
                tracer.request += 1
            index = len(tracer.starts)
            stack = tracer._stack
            tracer.names.append(name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.requests.append(tracer.request)
            tracer.ends.append(0)
            stack.append(index)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                stack.pop()
            if count is not None:
                count(tracer.counters, args, result)
            return result

        traced.__traced__ = True
        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, parent, request, name, start, end."""
        with path.open("w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        [i, self.parents[i], self.requests[i], name,
                         self.starts[i], self.ends[i]]
                    )
                    + "\n"
                )


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


@dataclass
class Patches:
    """Originals replaced by ``install``, for ``restore``."""

    bindings: List[Tuple[object, str, object]] = field(default_factory=list)
    suites: List[Tuple[dict, str, object]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)
        for table, key, original in reversed(self.suites):
            table[key] = original
        self.bindings.clear()
        self.suites.clear()


def _count_weighted_image(counters, args, result):
    family = args[0]
    counters["weighted_image_flop"] += 16.0 * family.count * family.dim ** 3


def _count_sequences(counters, args, result):
    counters["oracle_sequences"] += math.prod(step.m_ideal for step in args[1])


def _count_bytes(counters, args, result):
    counters["serialize_bytes"] += len(result)


_COUNTERS = {
    "kraus.weighted_image": _count_weighted_image,
    "oracle.direct_estimate": _count_sequences,
    "oracle.marginal_evidence": _count_sequences,
    "serialize.dumps": _count_bytes,
}


def qfilter_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "qfilter" or name.startswith("qfilter."))
    ]


def install(tracer: Tracer) -> Patches:
    """Wrap every target at every binding in the loaded qfilter modules."""
    from qfilter import density, verify

    for mod_name, _ in TARGETS:
        importlib.import_module(f"qfilter.{mod_name}")
    modules = qfilter_modules()
    patches = Patches()
    for mod_name, fn_name in TARGETS:
        original = getattr(sys.modules[f"qfilter.{mod_name}"], fn_name)
        span = f"{mod_name}.{fn_name}"
        wrapper = tracer.wrap(span, original, _COUNTERS.get(span))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.bindings.append((module, attr, original))
                    setattr(module, attr, wrapper)

    cls = density.DensityOperator
    original_init = cls.__dict__["__init__"]
    patches.bindings.append((cls, "__init__", original_init))
    cls.__init__ = tracer.wrap("density.DensityOperator", original_init)

    for name, suite in list(verify.ALL_SUITES.items()):
        patches.suites.append((verify.ALL_SUITES, name, suite))
        verify.ALL_SUITES[name] = tracer.wrap(f"verify.{name}", suite)
    return patches


def wrapped_bindings() -> List[str]:
    """Names of qfilter bindings that still hold a tracing wrapper."""
    from qfilter import density, verify

    found = []
    for module in qfilter_modules():
        for attr, value in vars(module).items():
            if getattr(value, "__traced__", False):
                found.append(f"{module.__name__}.{attr}")
    if getattr(density.DensityOperator.__dict__["__init__"], "__traced__", False):
        found.append("DensityOperator.__init__")
    for name, suite in verify.ALL_SUITES.items():
        if getattr(suite, "__traced__", False):
            found.append(f"verify.ALL_SUITES[{name!r}]")
    return found


def layer_metrics(
    tracer: Tracer, suite_names: Sequence[str], cache_hits: int, cache_misses: int
) -> Dict[str, float]:
    """Per-layer metrics named ``<module>.<function>.<stat>``.

    ``calls`` counts spans, ``self_s`` sums self time, ``p50_us`` is the
    median inclusive duration. Names that never ran report 0.
    """
    self_ns = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: Dict[str, int] = defaultdict(int)
    self_total: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[int]] = defaultdict(list)
    regularized_in_update = 0
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        self_total[name] += self_ns[i]
        durations[name].append(tracer.ends[i] - tracer.starts[i])
        parent = tracer.parents[i]
        if (
            name == "filtering.regularized_image"
            and parent >= 0
            and tracer.names[parent] == "filtering.filter_update"
        ):
            regularized_in_update += 1

    metrics: Dict[str, float] = {}
    for name, stats in SPAN_STATS.items():
        for stat in stats:
            if stat == "calls":
                value = float(calls[name])
            elif stat == "self_s":
                value = self_total[name] / 1e9
            else:
                value = percentile(durations[name], 50.0) / 1e3
            metrics[f"{name}.{stat}"] = value

    gflop = tracer.counters["weighted_image_flop"] / 1e9
    wi_self = metrics["kraus.weighted_image.self_s"]
    metrics["kraus.weighted_image.gflop_computed"] = gflop
    metrics["kraus.weighted_image.gflop_per_s"] = gflop / wi_self if wi_self else 0.0
    updates = calls["filtering.filter_update"]
    metrics["filtering.regularized_frac"] = regularized_in_update / updates if updates else 0.0
    lookups = cache_hits + cache_misses
    metrics["photonbox.composite_kraus.hit_ratio"] = cache_hits / lookups if lookups else 0.0
    metrics["oracle.sequences"] = tracer.counters["oracle_sequences"]
    metrics["serialize.bytes_written"] = tracer.counters["serialize_bytes"]
    for suite in suite_names:
        span = f"verify.{suite}"
        metrics[f"{span}.wall_s"] = sum(durations[span]) / 1e9
    return metrics
