"""Repository benchmark: the ``cli`` and ``in-process`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload in-process --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  A
host-speed probe runs before every op, and the times and rates are
scaled to a host on which the probe takes a nominal time, so that the
shared host's drift does not read as a change of the program (see
``hostspeed.py``).
``--trace 1`` is a separate run that reports the per-layer ledger: it
times one untraced op, installs span wrappers on the program's public
functions, runs traced ops for ``--seconds``, then removes the
wrappers.  Either way a human-readable table goes to stdout, the full
record (manifest, every op with its digest, the ledger) goes to
``perfbench/out/``, and the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: BLAS pools pinned to one thread on every workload: two BLAS threads
#: per process on a small box make timings depend on the neighbours.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
#: The program runs its defaults: these knobs are removed.
REPRO_VARS = ("REPRO_WORKERS", "REPRO_PROCESSES", "REPRO_SHM_MIN_BYTES")

#: Set-up samples per run (median reported as setup_s).
SETUP_SAMPLES = 3
#: Fresh-interpreter ``import repro.cli`` samples in a traced run.
IMPORT_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "in-process"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Pin BLAS threads and drop REPRO_* knobs before numpy is imported."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    for name in REPRO_VARS:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------
# manifest


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> object:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None


def manifest(args, argv, started: float, load_start) -> dict:
    import numpy
    import scipy

    from workloads import nproc

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "argv": list(argv),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_") or k in BLAS_THREAD_VARS
        },
        "started_unix": started,
        "wall_s": time.time() - started,
    }


# ----------------------------------------------------------------------
# measurement


def closed_loop(workload, seconds: float, seeds, before_op=None):
    """Run whole cycles of ops for about ``seconds``.

    A new cycle starts while at least half of a mean cycle fits before
    the deadline, so a run lasts ``seconds`` give or take half a cycle;
    there is always at least one cycle.  ``before_op(i)`` is called
    before the i-th op (the tracer's op id).
    """
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    cycles = 0
    while True:
        for kind in workload.kinds:
            if before_op is not None:
                before_op(len(ops))
            ops.append(run_one(workload, kind, seeds[len(ops) % len(seeds)]))
        cycles += 1
        now = time.perf_counter()
        if now + (now - start) / cycles / 2 >= deadline:
            return ops


def run_one(workload, kind, seed):
    """One op; an exception counts as a failed op, not a failed run."""
    from workloads import OpResult

    start = time.perf_counter()
    try:
        return workload.op(kind, seed)
    except Exception as exc:  # the op's failure is data, not a crash
        return OpResult(kind, seed, start, time.perf_counter(),
                        problem=f"{type(exc).__name__}: {exc}")


def failure_counts(ops) -> tuple:
    """(attempted, failed, failed_share) of a run's ops."""
    failed = sum(not o.ok for o in ops)
    return len(ops), failed, failed / max(len(ops), 1)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_seconds() -> float:
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    from workloads import subprocess_env

    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(ROOT),
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def end_to_end_run(workload, args, units):
    """Set-up, then ops with a host probe before each; scaled metrics."""
    import hostspeed

    samples = workload.prepare(SETUP_SAMPLES)
    probes = []
    ops = closed_loop(workload, args.seconds, workload.op_seeds,
                      lambda index: probes.append(hostspeed.host_probe()))
    raw = workload.end_to_end(ops, samples)
    raw["peak_rss_mib"] = peak_rss_mib()
    metrics = hostspeed.host_scaled(raw, units, probes)
    return ops, samples, metrics, {"raw_metrics": raw, "probes_s": probes}


def traced_run(workload, args, spool: Path):
    """Untraced op(s), then traced ops, then identity and pool checks."""
    import tracing
    from repro.simulation.parallel import shutdown_shared_pool

    samples = workload.prepare(1)
    extra = {"import_s": import_seconds()}
    untraced = closed_loop(workload, 0.0, workload.op_seeds)
    # Workers fork from wrapped code: the next pool is built after install.
    shutdown_shared_pool()
    tracer = tracing.Tracer(spool, counters=tracing.cache_counters)

    def before_op(index):
        tracer.op = index

    with workload.tracing():
        tracing.install(tracer)
        try:
            traced = closed_loop(
                workload, args.seconds, workload.op_seeds, before_op
            )
        finally:
            tracing.uninstall()
            shutdown_shared_pool()
    extra["identity_traced"] = all(
        a.digest == b.digest for a, b in zip(untraced, traced)
    )
    extra.update(workload.trace_extras(untraced))
    spans = tracer.spans + tracing.read_worker_spans(spool)
    ledger = build_ledger(spans, traced, tracer.owner_pid)
    metrics = layer_metrics(workload, ledger, untraced, traced, extra)
    return untraced + traced, samples, metrics, {
        "extra": extra, "ledger": ledger, "spans": spans,
    }


def build_ledger(spans, ops, owner_pid):
    import tracing

    windows = [
        {"id": i, "start": op.start, "end": op.end} for i, op in enumerate(ops)
    ]
    tracing.assign_ops(spans, windows)
    ledger = []
    for window, op in zip(windows, ops):
        row = tracing.op_ledger(spans, window, owner_pid)
        row["kind"] = op.kind
        ledger.append(row)
    return ledger


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(workload, ledger, untraced, traced, extra) -> dict:
    """The per_layer metrics of BENCHMARK.json from the op ledger."""
    import tracing

    cycles = max(len(ledger) / len(workload.kinds), 1.0)
    wall = sum(row["wall_s"] for row in ledger)

    def total(key):
        return sum(row.get(key, 0.0) for row in ledger)

    def total_suffix(suffix):
        return sum(
            value for row in ledger for key, value in row.items()
            if key.endswith(suffix)
        )

    out = {"import.s": extra["import_s"]}
    for layer in tracing.LAYERS:
        self_s = total(f"{layer}.self_s")
        if layer == "simulation.parallel":
            out["simulation.parallel.wait_s"] = self_s / cycles
            continue
        out[f"{layer}.self_s"] = self_s / cycles
        out[f"{layer}.share"] = _ratio(self_s, wall)
    out["marginals.transform.ns_per_sample"] = 1e9 * _ratio(
        total("marginals.transform.self_s"),
        total("marginals.transform.samples"),
    )
    out["marginals.transform.calls"] = total("marginals.transform.calls") / cycles
    out["processes.davies_harte.ns_per_sample"] = 1e9 * _ratio(
        total("processes.davies_harte.self_s"),
        total("processes.davies_harte.samples"),
    )
    out["processes.hosking.calls"] = total("processes.hosking.calls") / cycles
    out["processes.spectral_cache.hit_ratio"] = _ratio(
        total_suffix(".spectral_hits"), total_suffix(".spectral_lookups")
    )
    out["processes.coeff_table.hit_ratio"] = _ratio(
        total_suffix(".coeff_hits"), total_suffix(".coeff_lookups")
    )
    replications = total("simulation.importance.replications")
    out["simulation.importance.hit_ratio"] = _ratio(
        total("simulation.importance.hits"), replications
    )
    out["simulation.importance.ess_ratio"] = _ratio(
        total("simulation.importance.ess"), replications
    )
    busy = total("worker_busy_s")
    pooled_wall = sum(r["wall_s"] for r in ledger if r["worker_busy_s"] > 0)
    processes = getattr(workload, "processes", 1)
    out["simulation.parallel.worker_busy_s"] = busy / cycles
    out["simulation.parallel.occupancy"] = _ratio(
        busy, processes * pooled_wall
    )
    out["simulation.parallel.scaling_eff"] = extra.get("scaling_eff", 0.0)
    shm = extra.get("shm", {"zero_copy": 0.0, "pickled": 0.0})
    out["simulation.shm.zero_copy_ratio"] = _ratio(
        shm["zero_copy"], shm["zero_copy"] + shm["pickled"]
    )
    out["other.self_s"] = total("other_s") / cycles
    out["other.share"] = _ratio(total("other_s"), wall)
    # The first traced cycle repeats the untraced cycle's seeds.
    out["trace.overhead"] = (
        sum(o.wall for o in traced[:len(untraced)])
        / sum(o.wall for o in untraced) - 1.0
    )
    return out


# ----------------------------------------------------------------------
# reporting


def kind_ledgers(ledger) -> dict:
    """Mean seconds per op of every layer, by op kind (cli: fit, simulate)."""
    out = {}
    for kind in dict.fromkeys(row["kind"] for row in ledger):
        rows = [row for row in ledger if row["kind"] == kind]
        wall = sum(row["wall_s"] for row in rows)
        keys = sorted({
            k for row in rows for k in row
            if k.endswith(".self_s") or k in ("other_s", "worker_busy_s")
        })
        out[kind] = {
            "ops": len(rows),
            "wall_s": wall / len(rows),
            "layers": {
                k: {"s": sum(r.get(k, 0.0) for r in rows) / len(rows),
                    "share": _ratio(sum(r.get(k, 0.0) for r in rows), wall)}
                for k in keys
            },
        }
    return out


def print_table(units, args, metrics, ops, record) -> None:
    attempted, failed, share = failure_counts(ops)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}  failed_share {share:.4g} ratio")
    for op in ops:
        if not op.ok:
            print(f"  failed {op.kind} seed {op.seed}: {op.problem}")
    counts = {k: sum(o.kind == k for o in ops) for k in dict.fromkeys(
        o.kind for o in ops)}
    print("  op counts: " + ", ".join(f"{k}={n}" for k, n in counts.items()))
    raw = record.get("raw_metrics")
    if raw is not None:
        from hostspeed import PROBE_NOMINAL_S, typical

        print(f"  host probe: {typical(record['probes_s']):.4f} s over "
              f"{len(record['probes_s'])}, scaled to {PROBE_NOMINAL_S} s "
              f"(as measured in brackets)")
    for name in units:
        measured = f"  ({raw[name]:.6g})" if raw is not None else ""
        print(f"  {name:40s} {metrics[name]:>14.6g} {units[name]}{measured}")
    for op_kind, table in record.get("kinds", {}).items():
        print(f"  ledger per {op_kind!r} op ({table['ops']} ops, "
              f"{table['wall_s']:.3f} s each):")
        layers = sorted(table["layers"].items(), key=lambda kv: -kv[1]["s"])
        for name, row in layers:
            print(f"    {name:40s} {row['s']:>10.4f} s  {row['share']:>7.3f}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.time()
    load_start = list(os.getloadavg())
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    prepare_environment()
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](ROOT, work_dir, args.seed)
    if args.workload == "cli" and args.trace == 1:
        workload.in_process = True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    try:
        if args.setup_probe:
            sample = workload.prepare(1)[0]
            print(json.dumps(sample))
            return 0
        if args.trace == 0:
            ops, samples, metrics, detail = end_to_end_run(
                workload, args, units
            )
        else:
            spool = work_dir / "spool"
            ops, samples, metrics, detail = traced_run(workload, args, spool)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    identity = {k: v for k, v in detail.get("extra", {}).items()
                if k.startswith("identity")}
    if getattr(workload, "probe_equal", None) is not None:
        identity["pooled_probe_equals_serial"] = workload.probe_equal
    attempted, failed, _ = failure_counts(ops)
    correct = failed == 0 and all(identity.values())
    record = {
        "manifest": manifest(args, argv, started, load_start),
        "setup_samples": samples,
        "ops": [dict(kind=o.kind, seed=o.seed, wall_s=o.wall, ok=o.ok,
                     problem=o.problem, digest=o.digest, info=o.info)
                for o in ops],
        "identity": identity,
        "metrics": metrics,
    }
    if args.trace == 0:
        for key in ("raw_metrics", "probes_s"):
            record[key] = detail[key]
    if args.trace == 1:
        record["extra"] = detail["extra"]
        record["kinds"] = kind_ledgers(detail["ledger"])
        record["ledger"] = detail["ledger"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace == 1:
        with open(OUT / f"{run_id}.spans.jsonl", "w") as fh:
            for span in detail["spans"]:
                fh.write(json.dumps(span) + "\n")
    print_table(units, args, metrics, ops, record)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
