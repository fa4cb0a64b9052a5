"""Span tracing applied from outside the program, and the layer ledger.

The traced run wraps public functions and methods of ``repro`` at run
time.  A wrapper records one span per call: layer name, start, end,
parent span, process id, op id and optional counts.  Functions that
other modules import by name are replaced in every loaded ``repro``
module that holds them, so the wrapper sits where the caller looks the
name up; methods are replaced on their class.  :func:`uninstall` puts
every original back.

Spans of the benchmark process stay in memory.  A process-pool worker
forked while the wrappers are installed records into the same tracer,
but appends each span to ``spans-<pid>.jsonl`` in the spool directory
as it ends, because pool workers never run ``atexit``;
:func:`read_worker_spans` merges those files afterwards.

The ledger functions at the bottom are pure: they turn spans and op
windows into per-layer self time, coverage and worker busy time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: One span: name of the layer, interval, parent span id (None at top
#: level of its process), op id (None for worker spans, assigned by
#: time window later) and counts gathered from arguments or results.
Span = Dict[str, object]


def _size_of_input(args, kwargs, result) -> Dict[str, float]:
    return {"samples": float(np.size(args[1]))}


def _size_of_result(args, kwargs, result) -> Dict[str, float]:
    return {"samples": float(np.size(result))}


def _is_estimate_counts(args, kwargs, result) -> Dict[str, float]:
    ess = float(getattr(result, "ess", float("nan")))
    return {
        "hits": float(result.hits),
        "replications": float(result.replications),
        "ess": ess if ess == ess else 0.0,
    }


#: (layer, module, qualified attribute, counts function).  The layer
#: names follow the package's module names.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("video.io", "repro.video.io", "load_trace", None),
    ("video.io", "repro.video.io", "save_trace", None),
    ("marginals.fit", "repro.marginals.empirical",
     "EmpiricalDistribution.__init__", None),
    ("marginals.transform", "repro.marginals.transform",
     "MarginalTransform.__call__", _size_of_input),
    ("estimators.hurst", "repro.estimators.variance_time",
     "variance_time_estimate", None),
    ("estimators.hurst", "repro.estimators.rs_analysis", "rs_estimate", None),
    ("estimators.acf", "repro.estimators.acf", "sample_acf", None),
    ("estimators.acf", "repro.estimators.acf_fit", "fit_composite_acf", None),
    ("core.calibration", "repro.core.calibration",
     "measure_attenuation_pilot", None),
    ("core.calibration", "repro.core.calibration",
     "measure_attenuation_analytic", None),
    ("core.multiplex", "repro.core.multiplex", "aggregate_marginal", None),
    ("core.aggregate", "repro.core.aggregate",
     "ShardedAggregateModel.generate", None),
    ("processes.davies_harte", "repro.processes.source",
     "DaviesHarteSource.sample", _size_of_result),
    ("processes.davies_harte", "repro.processes.davies_harte",
     "davies_harte_generate", None),
    ("processes.hosking", "repro.processes.hosking", "HoskingProcess.step",
     None),
    ("simulation.importance", "repro.simulation.importance",
     "is_overflow_probability", _is_estimate_counts),
    ("simulation.twist_search", "repro.simulation.twist_search",
     "search_twisted_mean", None),
    ("simulation.parallel", "repro.simulation.parallel", "reduce_tasks", None),
    ("simulation.parallel", "repro.simulation.parallel", "run_tasks", None),
    ("queueing.capacity", "repro.queueing.capacity",
     "effective_bandwidth_vs_n", None),
    ("queueing.capacity", "repro.queueing.capacity", "admissible_sources",
     None),
    ("queueing.capacity", "repro.queueing.capacity",
     "bufferless_loss_gaussian", None),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


def cache_counters() -> Dict[str, float]:
    """Cumulative cache counters of this process (read at top-level spans)."""
    from repro.processes.coeff_table import coefficient_cache_info
    from repro.processes.spectral_cache import spectral_cache_info

    spectral = spectral_cache_info()
    coeff = coefficient_cache_info()
    return {
        "spectral_hits": float(spectral.hits + spectral.eigenvalue_hits),
        "spectral_lookups": float(
            spectral.hits + spectral.misses + spectral.extensions
            + spectral.eigenvalue_hits + spectral.eigenvalue_builds
        ),
        "coeff_hits": float(coeff.hits),
        "coeff_lookups": float(coeff.hits + coeff.misses + coeff.extensions),
    }


class Tracer:
    """Collects spans; one instance is active while wrappers are installed.

    ``counters`` is read at the start and end of every top-level span of
    a process and the difference is added to that span's counts, so
    cache statistics are measured where the work happens, workers
    included.
    """

    def __init__(
        self,
        spool_dir: Path,
        counters: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        self.spool_dir = Path(spool_dir)
        self.counters = counters
        self.owner_pid = os.getpid()
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._spool = None
        self._spool_pid = None

    def _stack(self) -> list:
        pid = os.getpid()
        if getattr(self._local, "pid", None) != pid:
            # A forked worker inherits the parent's open spans; its own
            # spans start a fresh tree.
            self._local.pid = pid
            self._local.stack = []
        return self._local.stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def call(self, layer, counts_fn, fn, args, kwargs):
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        before = self.counters() if (parent is None and self.counters) else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts: Dict[str, float] = {}
            if counts_fn is not None and result is not None:
                counts.update(counts_fn(args, kwargs, result))
            if before is not None:
                after = self.counters()
                for key, value in after.items():
                    delta = value - before.get(key, 0.0)
                    if delta:
                        counts[key] = delta
            self._record({
                "id": span_id, "parent": parent, "layer": layer,
                "start": start, "end": end, "pid": os.getpid(),
                "op": self.op if os.getpid() == self.owner_pid else None,
                "counts": counts,
            })

    def _record(self, span: Span) -> None:
        pid = span["pid"]
        if pid == self.owner_pid:
            self.spans.append(span)
            return
        if self._spool_pid != pid:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            self._spool = open(self.spool_dir / f"spans-{pid}.jsonl", "a")
            self._spool_pid = pid
        self._spool.write(json.dumps(span) + "\n")
        self._spool.flush()


#: The tracer the installed wrappers report to (None: pass straight on).
_ACTIVE: Optional[Tracer] = None
#: (owner object, attribute, original value, had own attribute).
_PATCHES: List[Tuple[object, str, object, bool]] = []


def _make_wrapper(fn, layer, counts_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(layer, counts_fn, fn, args, kwargs)

    wrapper.__perfbench_original__ = fn
    return wrapper


def installed() -> bool:
    return bool(_PATCHES)


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Wrap every target, at its definition and in every consumer module."""
    global _ACTIVE
    if _PATCHES:
        raise RuntimeError("wrappers are already installed")
    for layer, module_name, qualname, counts_fn in targets:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, _make_wrapper(original, layer, counts_fn))
            _PATCHES.append((owner, attr, original, own))
            continue
        original = getattr(module, qualname)
        wrapper = _make_wrapper(original, layer, counts_fn)
        for name, consumer in list(sys.modules.items()):
            if consumer is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(consumer).items()):
                if value is original:
                    setattr(consumer, attr, wrapper)
                    _PATCHES.append((consumer, attr, original, True))
    _ACTIVE = tracer


def uninstall() -> None:
    """Restore every wrapped name; safe to call when nothing is installed."""
    global _ACTIVE
    _ACTIVE = None
    while _PATCHES:
        owner, attr, original, own = _PATCHES.pop()
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
    # A module first imported while the wrappers were installed copied
    # a wrapper by name; give it the original too.
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            original = getattr(value, "__perfbench_original__", None)
            if original is not None:
                setattr(module, attr, original)


def read_worker_spans(spool_dir: Path) -> List[Span]:
    """Merge the per-pid span files written by pool workers."""
    spans: List[Span] = []
    for path in sorted(Path(spool_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return spans


# ----------------------------------------------------------------------
# Ledger arithmetic


def union_length(
    intervals: Iterable[Tuple[float, float]],
    low: float = float("-inf"),
    high: float = float("inf"),
) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(a, low), min(b, high)) for a, b in intervals
        if min(b, high) > max(a, low)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``.

    A span's self time is its duration minus the part of its interval
    that its child spans (same process, ``parent`` = its id) cover.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        key = (span["pid"], span["id"])
        covered = union_length(
            children.get(key, ()), span["start"], span["end"]
        )
        out[key] = (span["end"] - span["start"]) - covered
    return out


def assign_ops(
    spans: Sequence[Span], ops: Sequence[Dict[str, float]]
) -> None:
    """Give worker spans (``op`` None) the op whose window holds their start."""
    for span in spans:
        if span["op"] is not None:
            continue
        for op in ops:
            if op["start"] <= span["start"] <= op["end"]:
                span["op"] = op["id"]
                break


def op_ledger(
    spans: Sequence[Span],
    op: Dict[str, float],
    owner_pid: int,
) -> Dict[str, float]:
    """Per-layer accounting of one op.

    Returns ``<layer>.self_s`` for every layer seen, summed counts as
    ``<layer>.<count>``, ``covered_s`` (union of the op process's
    top-level spans), ``other_s`` (wall minus that) and
    ``worker_busy_s`` (per worker pid, the union of its top-level spans
    inside the op window, summed over pids).
    """
    mine = [s for s in spans if s["op"] == op["id"]]
    selfs = self_times(mine)
    out: Dict[str, float] = {"wall_s": op["end"] - op["start"]}
    for span in mine:
        layer = span["layer"]
        key = f"{layer}.self_s"
        out[key] = out.get(key, 0.0) + selfs[(span["pid"], span["id"])]
        calls = f"{layer}.calls"
        out[calls] = out.get(calls, 0.0) + 1.0
        for name, value in span["counts"].items():
            ckey = f"{layer}.{name}"
            out[ckey] = out.get(ckey, 0.0) + value
    top_own = [
        (s["start"], s["end"]) for s in mine
        if s["pid"] == owner_pid and s["parent"] is None
    ]
    out["covered_s"] = union_length(top_own, op["start"], op["end"])
    out["other_s"] = out["wall_s"] - out["covered_s"]
    busy = 0.0
    for pid in {s["pid"] for s in mine if s["pid"] != owner_pid}:
        busy += union_length(
            [(s["start"], s["end"]) for s in mine
             if s["pid"] == pid and s["parent"] is None],
            op["start"], op["end"],
        )
    out["worker_busy_s"] = busy
    return out
