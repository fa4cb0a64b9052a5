"""The benchmark's three closed-loop workloads.

Each workload prepares its inputs from the run seed, then runs one op
at a time; the next op starts when the previous one returns.  An op
returns its timed wall, a sha256 digest of its output and, when its
output fails the check, the reason.  See ``NOTES.md`` for why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregate import (
    ShardedAggregateModel,
    SourceClass,
    SourcePopulation,
)
from repro.core.unified import UnifiedVBRModel
from repro.estimators.variance_time import variance_time_estimate
from repro.marginals.parametric import GammaDistribution, NormalDistribution
from repro.observability import RunContext
from repro.queueing.multiplexer import service_rate_for_utilization
from repro import simulation
from repro.simulation.parallel import shutdown_shared_pool
from repro.stats.random import spawn_rngs
from repro.video.synthetic import SyntheticCodecConfig, SyntheticMPEGCodec

#: The paper's trace length (intraframe synthetic codec).
TRACE_FRAMES = 238_626
MAX_LAG = 500
#: ``repro fit --generate`` length on the cli workload.
FIT_FRAMES = 1_048_576
#: In-process set-ups fit the input trace this many times (median
#: reported as fit_s; one fit takes about 0.15 s).
FIT_REPEATS = 10

#: Output-check tolerances (stated here, reported in NOTES.md).
#: Sample means of a long-range-dependent series converge as n^(H-1);
#: the fit check allows this many such standard errors.
MEAN_SIGMAS = 4.0
#: |variance-time H of the synthetic trace - fitted H|.
HURST_TOLERANCE = 0.15
#: Allowed rise of log10 P between successive buffers, in combined
#: standard errors (converted to decades).
MONOTONE_SIGMAS = 3.0


@dataclass
class OpResult:
    kind: str
    seed: int
    start: float
    end: float
    digest: str = ""
    problem: Optional[str] = None
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.problem is None


def seconds_per_1pct(wall: float, relative_errors: Sequence[float]) -> float:
    """Time to reach 1% relative error: wall x (worst error / 0.01)^2.

    The variance of an unbiased estimator falls as 1/work, so a run
    that took ``wall`` seconds to reach relative error ``r`` needs
    ``wall * (r / 0.01)**2`` seconds to reach 1%.
    """
    worst = max(relative_errors)
    if not math.isfinite(worst):
        return float("inf")
    return wall * (worst / 0.01) ** 2


def pooled_seconds_per_1pct(
    walls: Sequence[float], relative_errors: Sequence[Sequence[float]]
) -> float:
    """Time to 1% relative error on every curve point, from a run's ops.

    ``relative_errors`` holds one row per op, one column per point.
    Averaging n ops' estimates of a point divides its squared relative
    error by n and costs n op walls, so reaching 1% on the worst point
    takes mean wall x max over points of mean (error / 0.01)^2.
    """
    squares = np.asarray(relative_errors, dtype=np.float64) ** 2
    if not squares.size or not np.isfinite(squares).all():
        return float("inf")
    return float(np.mean(walls) * squares.mean(axis=0).max() / 0.01 ** 2)


def lrd_mean_tolerance(cv: float, n: int, hurst: float) -> float:
    """MEAN_SIGMAS standard errors of the relative mean of n LRD samples."""
    return MEAN_SIGMAS * cv * n ** (min(hurst, 0.99) - 1.0)


def process_age() -> float:
    """Seconds since this process started (kernel clock, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_trace(trace_seed: int):
    config = SyntheticCodecConfig.intraframe_paper_like(num_frames=TRACE_FRAMES)
    return SyntheticMPEGCodec(config).generate(random_state=trace_seed)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Workload:
    """One closed-loop workload.

    ``kinds`` is one cycle of op kinds; the harness runs whole cycles.
    ``prepare`` does the set-up and returns set-up samples, each with
    ``setup_s`` and, in process, ``fit_s``.
    """

    name = ""
    kinds: Tuple[str, ...] = ("op",)

    def __init__(self, root: Path, work_dir: Path, seed: int) -> None:
        self.root = root
        self.work_dir = work_dir
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.trace_seed = int(rng.integers(2**31))
        self.fit_seed = int(rng.integers(2**31))
        self.op_seeds = [int(s) for s in rng.integers(2**31, size=4096)]

    def prepare(self, samples: int) -> List[Dict[str, float]]:
        raise NotImplementedError

    def op(self, kind: str, seed: int) -> OpResult:
        raise NotImplementedError

    def end_to_end(
        self, ops: List[OpResult], samples: List[Dict[str, float]]
    ) -> Dict[str, float]:
        raise NotImplementedError

    def cycle_walls(self, ops: List[OpResult]) -> List[float]:
        """Wall of each whole cycle of ops (the harness runs whole cycles)."""
        n = len(self.kinds)
        return [sum(o.wall for o in ops[i:i + n])
                for i in range(0, len(ops) - n + 1, n)]

    @contextlib.contextmanager
    def tracing(self):
        """Scope of the traced ops (hook for workload-specific counters)."""
        yield

    def trace_extras(self, untraced: List[OpResult]) -> Dict[str, object]:
        """Numbers a traced run adds after its traced ops."""
        return {}

    def close(self) -> None:
        shutdown_shared_pool()


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _good(ops: List[OpResult], kind: Optional[str] = None) -> List[OpResult]:
    chosen = [o for o in ops if kind is None or o.kind == kind]
    good = [o for o in chosen if o.ok]
    return good or chosen


# ----------------------------------------------------------------------
# cli


def subprocess_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


_SWEEP_ROW = re.compile(
    r"^\s*([0-9.eE+-]+)\s+(-?[0-9.]+|-inf)\s+([0-9.]+|inf)\s+(\d+)\s+([0-9.]+)\s*$"
)


def check_simulate_stdout(text: str) -> Tuple[Optional[str], float]:
    """Check ``repro simulate`` output; return (problem, worst rel err)."""
    if "favorable twist: m* =" not in text:
        return "no favorable twist printed", float("inf")
    tail = text.split("overflow sweep at m*=", 1)
    if len(tail) < 2:
        return "no overflow sweep printed", float("inf")
    rows = []
    for line in tail[1].splitlines()[2:]:
        match = _SWEEP_ROW.match(line)
        if not match:
            break
        rows.append((float(match.group(2)), float(match.group(3))))
    if not rows:
        return "overflow sweep has no rows", float("inf")
    for log_p, rel in rows:
        if not (math.isfinite(log_p) and math.isfinite(rel)):
            return f"non-finite sweep row log10 P={log_p} rel err={rel}", float("inf")
    for (p0, r0), (p1, r1) in zip(rows, rows[1:]):
        slack = MONOTONE_SIGMAS * (r0 + r1) / math.log(10.0)
        if p1 > p0 + slack:
            return f"log10 P rises with b: {p0} -> {p1}", max(r for _, r in rows)
    return None, max(r for _, r in rows)


def check_fit_output(
    path: Path, stdout: str, input_mean: float, input_cv: float
) -> Tuple[Optional[str], Dict[str, float]]:
    """Check the synthetic trace written by ``repro fit --generate``."""
    match = re.search(r"Hurst \(adopted\)\s+([0-9.]+)", stdout)
    if not match:
        return "no adopted Hurst in the fit report", {}
    fitted_h = float(match.group(1))
    sizes = np.loadtxt(path, comments="#", ndmin=1)
    info = {"fitted_h": fitted_h, "frames": float(sizes.size)}
    if sizes.size != FIT_FRAMES:
        return f"{sizes.size} frames written, expected {FIT_FRAMES}", info
    ratio = float(sizes.mean()) / input_mean
    vt_h = float(variance_time_estimate(sizes).hurst)
    info.update(mean_ratio=ratio, vt_h=vt_h)
    tolerance = lrd_mean_tolerance(input_cv, sizes.size, fitted_h)
    if abs(ratio - 1.0) > tolerance:
        return f"mean ratio {ratio:.3f} outside 1 +- {tolerance:.3f}", info
    if abs(vt_h - fitted_h) > HURST_TOLERANCE:
        return f"variance-time H {vt_h:.3f} vs fitted {fitted_h:.3f}", info
    return None, info


class CliWorkload(Workload):
    """``repro fit`` and ``repro simulate`` as subprocesses, alternating."""

    name = "cli"
    kinds = ("fit", "simulate")

    def __init__(self, root, work_dir, seed, in_process: bool = False):
        super().__init__(root, work_dir, seed)
        self.in_process = in_process
        self.trace_path = work_dir / "input.trace"
        self.out_path = work_dir / "synthetic.trace"
        self.env = subprocess_env(root)

    def _repro(self, args: List[str]) -> Tuple[int, str, str]:
        if self.in_process:
            from repro.cli import main

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=self.env, capture_output=True, text=True, timeout=170,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def prepare(self, samples: int) -> List[Dict[str, float]]:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        out = []
        for _ in range(samples):
            start = time.perf_counter()
            code, _, err = self._repro([
                "synthesize", str(self.trace_path),
                "--frames", str(TRACE_FRAMES), "--seed", str(self.trace_seed),
            ])
            out.append({"setup_s": time.perf_counter() - start})
            if code != 0:
                raise RuntimeError(f"repro synthesize failed: {err[-400:]}")
        sizes = np.loadtxt(self.trace_path, comments="#")
        self.input_mean = float(sizes.mean())
        self.input_cv = float(sizes.std() / sizes.mean())
        return out

    def op(self, kind: str, seed: int) -> OpResult:
        if kind == "fit":
            args = [
                "fit", str(self.trace_path), "--max-lag", str(MAX_LAG),
                "--generate", str(FIT_FRAMES), "--output", str(self.out_path),
                "--seed", str(seed),
            ]
        else:
            args = [
                "simulate", str(self.trace_path), "--max-lag", str(MAX_LAG),
                "--num-sources", "256", "--utilization", "0.9",
                "--buffers", "5", "10", "20", "--replications", "500",
                "--seed", str(seed),
            ]
        if self.out_path.exists() and kind == "fit":
            self.out_path.unlink()
        start = time.perf_counter()
        code, stdout, stderr = self._repro(args)
        end = time.perf_counter()
        result = OpResult(kind, seed, start, end)
        if code != 0:
            result.problem = f"exit {code}: {stderr.strip()[-300:]}"
            return result
        if kind == "fit":
            result.digest = digest_bytes(self.out_path.read_bytes())
            result.problem, result.info = check_fit_output(
                self.out_path, stdout, self.input_mean, self.input_cv
            )
        else:
            result.digest = digest_bytes(stdout.encode())
            result.problem, worst = check_simulate_stdout(stdout)
            result.info["worst_rel_err"] = worst
            result.info["s_per_1pct"] = seconds_per_1pct(result.wall, [worst])
        return result

    def end_to_end(self, ops, samples):
        fits = _good(ops, "fit")
        sims = _good(ops, "simulate")
        return {
            "setup_s": _median([s["setup_s"] for s in samples]),
            "fit_s": _median([o.wall for o in fits]),
            "simulate_s": _median([o.wall for o in sims]),
            "op_s": _median(self.cycle_walls(ops)),
            # Accuracy factor 1: the sweep's relative error at 500
            # replications moves too much between ops to scale by (its
            # per-op time to 1% is kept in the op records).
            "s_per_1pct": _median([o.wall for o in sims]),
            "source_slots_per_s": _median([FIT_FRAMES / o.wall for o in fits]),
        }


# ----------------------------------------------------------------------
# in-process workloads


class InProcessWorkload(Workload):
    """Set-up synthesizes and fits in this process; ops run in process."""

    def prepare(self, samples: int) -> List[Dict[str, float]]:
        out = [self._setup()]
        for _ in range(samples - 1):
            out.append(self._probe_setup())
        return out

    def _setup(self) -> Dict[str, float]:
        trace = input_trace(self.trace_seed)
        self.model, first = self._timed_fit(trace)
        self.warm_up()
        setup_s = process_age()
        # More fits after the set-up is timed, for a steadier fit_s.
        fits = [first] + [
            self._timed_fit(trace)[1] for _ in range(FIT_REPEATS - 1)
        ]
        return {"setup_s": setup_s, "fit_s": _median(fits)}

    def _timed_fit(self, trace) -> Tuple[UnifiedVBRModel, float]:
        start = time.perf_counter()
        model = UnifiedVBRModel(max_lag=MAX_LAG).fit(
            trace, random_state=self.fit_seed
        )
        return model, time.perf_counter() - start

    def _probe_setup(self) -> Dict[str, float]:
        """One more set-up, in a fresh interpreter, timed the same way."""
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", self.name, "--seed", str(self.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-400:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def warm_up(self) -> None:
        """Build the op's state from the fitted model and fill caches."""


#: Fig. 14 scan and Fig. 16 curve settings (Appendix B).
RARE_UTILIZATION = 0.4
RARE_SCAN_BUFFER = 25.0
RARE_SCAN_HORIZON = 250
RARE_TWISTS = tuple(np.arange(0.0, 3.01, 0.5))
RARE_BUFFERS = (25.0, 50.0, 100.0, 200.0)
RARE_REPLICATIONS = 1000

#: Half the 5e4 sources and 16 shards first planned: each shard still
#: holds about 3.5 blocks and so ships several tasks to the pool (a
#: one-block shard runs in the parent), and the op is short enough
#: that a run holds three cycles.
AGG_SOURCES = 25_000
AGG_HORIZON = 2048
AGG_SHARDS = 8
AGG_BATCH = 1024


def heterogeneous_classes(model: UnifiedVBRModel) -> List[SourceClass]:
    """The mixed-H, mixed-marginal mix of the aggregate ablation, plus a
    class built from the fitted model (empirical marginal)."""
    return [
        SourceClass("studio", correlation=0.88,
                    marginal=NormalDistribution(12.0, 2.5), count=5),
        SourceClass("sport", correlation=0.80,
                    marginal=NormalDistribution(8.0, 2.0), count=3,
                    gop_pattern=[2.2, 0.7, 0.7, 0.7, 0.85, 0.85]),
        SourceClass("news", correlation=0.74,
                    marginal=GammaDistribution(6.0, 1.0), count=2),
        SourceClass("fitted", correlation=model.background_,
                    marginal=model.marginal_, count=2),
    ]


class LibraryWorkload(InProcessWorkload):
    """The library path in one process: a cycle of two op kinds.

    ``rare-event``: a Fig. 14 twist scan, then a Fig. 16 curve at the
    chosen twist (serial).  ``aggregate``: one pooled
    ``ShardedAggregateModel.generate`` of a mixed population.
    """

    name = "in-process"
    # Two rare-event ops a cycle: an aggregate op takes about three
    # times as long, and the rare-event metrics need the samples.
    kinds = ("rare-event", "aggregate", "rare-event")

    def warm_up(self) -> None:
        # Builds the coefficient tables up to the longest horizon.
        self._rare_event(self.fit_seed, 16)
        self.processes = nproc()
        self.population = SourcePopulation(
            heterogeneous_classes(self.model)
        ).scaled_to(AGG_SOURCES)
        self.engine = ShardedAggregateModel(
            self.population, batch_size=AGG_BATCH
        )
        # The pooled-equals-serial probe also builds the pool and fills
        # the parent's and the workers' spectral caches.
        self.probe_equal = self.probe_pooled_equals_serial()
        pop = self.population
        # Relative standard error of one feed's mean rate, from the
        # population's own variance and (largest) Hurst exponent.
        self.mean_rel_err = (
            math.sqrt(pop.slot_variance) / pop.mean_rate
            * AGG_HORIZON ** (pop.hurst - 1.0)
        )

    def op(self, kind: str, seed: int) -> OpResult:
        if kind == "rare-event":
            return self._rare_event_op(seed)
        return self._aggregate_op(seed)

    def _rare_event(self, seed, replications):
        correlation = self.model.background_correlation
        transform = self.model.arrival_transform()
        rng_scan, rng_curve = spawn_rngs(seed, 2)
        start = time.perf_counter()
        # Looked up on the package at call time, so a traced run sees
        # the wrapped function.
        scan = simulation.search_twisted_mean(
            correlation, transform,
            service_rate=service_rate_for_utilization(1.0, RARE_UTILIZATION),
            buffer_size=RARE_SCAN_BUFFER, horizon=RARE_SCAN_HORIZON,
            twist_values=RARE_TWISTS, replications=replications,
            random_state=rng_scan,
        )
        middle = time.perf_counter()
        curve = simulation.overflow_vs_buffer_curve(
            correlation, transform, utilization=RARE_UTILIZATION,
            buffer_sizes=RARE_BUFFERS, replications=replications,
            twisted_mean=scan.best_twist, horizon_factor=10,
            random_state=rng_curve,
        )
        end = time.perf_counter()
        return start, middle, end, scan, curve

    def _rare_event_op(self, seed: int) -> OpResult:
        start, middle, end, scan, curve = self._rare_event(
            seed, RARE_REPLICATIONS
        )
        estimates = list(scan.estimates) + list(curve.estimates)
        fields = np.array(
            [[e.probability, e.variance, e.hits, e.ess] for e in estimates]
            + [[scan.best_twist, 0.0, 0.0, 0.0]],
            dtype=np.float64,
        )
        result = OpResult(
            "rare-event", seed, start, end, digest_bytes(fields.tobytes())
        )
        rel = [e.relative_error for e in curve.estimates]
        result.info = {
            "curve_s": end - middle,
            "best_twist": float(scan.best_twist),
            "worst_rel_err": max(rel),
            "curve_rel_errs": rel,
        }
        for e in estimates:
            if e.hits <= 0 or not math.isfinite(e.relative_error):
                result.problem = (
                    f"estimate at m*={e.twisted_mean:g} has {e.hits} hits, "
                    f"relative error {e.relative_error}"
                )
                break
        return result

    def probe_pooled_equals_serial(self) -> bool:
        probe = ShardedAggregateModel(
            self.population.scaled_to(96), batch_size=16
        )
        serial = probe.generate(AGG_HORIZON, processes=1, random_state=self.seed)
        pooled = probe.generate(
            AGG_HORIZON, shards=4, processes=max(2, self.processes),
            random_state=self.seed,
        )
        return serial.arrivals.tobytes() == pooled.arrivals.tobytes()

    def generate(self, seed: int, processes: int):
        return self.engine.generate(
            AGG_HORIZON, shards=AGG_SHARDS, processes=processes,
            random_state=seed,
        )

    def _aggregate_op(self, seed: int) -> OpResult:
        start = time.perf_counter()
        feed = self.generate(seed, self.processes)
        generated = time.perf_counter()
        digest = digest_bytes(feed.arrivals.tobytes())
        ratio = float(feed.arrivals.mean()) / feed.mean_rate
        end = time.perf_counter()
        result = OpResult("aggregate", seed, start, end, digest)
        result.info = {"generate_s": generated - start, "mean_ratio": ratio}
        tolerance = MEAN_SIGMAS * self.mean_rel_err
        if abs(ratio - 1.0) > tolerance:
            result.problem = (
                f"feed mean / population mean = {ratio:.5f}, "
                f"outside 1 +- {tolerance:.5f}"
            )
        return result

    @contextlib.contextmanager
    def tracing(self):
        # Traced ops read the shm and pool counters from a context.
        untraced = self.engine
        self.trace_context = RunContext()
        self.engine = ShardedAggregateModel(
            self.population, batch_size=AGG_BATCH, metrics=self.trace_context
        )
        try:
            yield
        finally:
            self.engine = untraced

    def trace_extras(self, untraced):
        """Serial feed of the first aggregate op: scaling and identity."""
        first = next(o for o in untraced if o.kind == "aggregate")
        start = time.perf_counter()
        serial = self.generate(first.seed, 1)
        serial_s = time.perf_counter() - start
        shm = {"shm.bytes_zero_copy": 0.0, "shm.bytes_pickled": 0.0}
        for record in self.trace_context.snapshot():
            if record["name"] in shm:
                shm[record["name"]] += record["value"]
        return {
            "serial_s": serial_s,
            "scaling_eff": serial_s / (
                self.processes * first.info["generate_s"]
            ),
            "identity_serial_feed": (
                digest_bytes(serial.arrivals.tobytes()) == first.digest
            ),
            "shm": {"zero_copy": shm["shm.bytes_zero_copy"],
                    "pickled": shm["shm.bytes_pickled"]},
        }

    def end_to_end(self, ops, samples):
        rare = _good(ops, "rare-event")
        agg = _good(ops, "aggregate")
        return {
            "setup_s": _median([s["setup_s"] for s in samples]),
            "fit_s": _median([s["fit_s"] for s in samples]),
            "simulate_s": _median([o.wall for o in rare]),
            "op_s": _median(self.cycle_walls(ops)),
            "s_per_1pct": pooled_seconds_per_1pct(
                [o.wall for o in rare],
                [o.info.get("curve_rel_errs", [math.inf] * len(RARE_BUFFERS))
                 for o in rare],
            ),
            "source_slots_per_s": _median(
                [AGG_SOURCES * AGG_HORIZON / o.wall for o in agg]
            ),
        }


WORKLOADS = {
    "cli": CliWorkload,
    "in-process": LibraryWorkload,
}
