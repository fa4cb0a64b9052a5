"""Ablation — the eq. 7 marginal transform: exact evaluation vs the table.

``MarginalTransform`` serves every non-normal target from one cubic
Hermite table of ``h(x) = F_Y^{-1}(Phi(x))`` (2^14 cells on [-6, 6]).
This bench times, per marginal family, ns/sample of three paths:

- **seed**: the formulas the transform used before the table —
  ``gammaincinv(shape, ndtr(x)) * scale`` for the Gamma family and
  ``ppf(clip(norm.cdf(x)))`` for every other family;
- **exact**: :meth:`MarginalTransform.exact`, the accurate ``h`` the
  table is built from and falls back to;
- **table**: ``MarginalTransform.__call__``.

Two shapes are measured: one 1024 x 2048 block (the aggregate engine's
generation block) and repeated calls on 1000-vectors (the per-step shape
of the importance-sampling legs).  The seed and exact paths are scalar
ufunc loops whose cost per sample does not depend on the block, so they
are timed on its first 128 rows (and on 200 vector calls) to keep the
bench short; the table is timed on the whole block and 1000 calls.

Asserted: the table is >= 10x the seed path on the Gamma block and
>= 3x on the empirical-histogram block, and its largest relative error
against the exact ``h`` is <= 1e-9 on every family.  Results land in
``REPRO_BENCH_JSON``.

Timings are the minimum of three rounds, so a busy machine inflates
both sides rather than the ratio.  The shapes are not scaled by
``REPRO_BENCH_SCALE``: the ratio depends on them.
"""

import time

import numpy as np
from scipy import special, stats

from repro.marginals.empirical import EmpiricalDistribution
from repro.marginals.parametric import (
    GammaDistribution,
    GammaParetoDistribution,
    LognormalDistribution,
    ParetoDistribution,
)
from repro.marginals.transform import MarginalTransform, transform_table_info

from .conftest import format_series

BLOCK = (1024, 2048)
SLOW_ROWS = 128
VECTOR = 1000
VECTOR_CALLS = {"seed": 200, "exact": 200, "table": 1000}
ROUNDS = 3

GAMMA_BLOCK_SPEEDUP = 10.0
EMPIRICAL_BLOCK_SPEEDUP = 3.0
MAX_RELATIVE_ERROR = 1e-9


def _families():
    frames = np.random.default_rng(1995).gamma(2.0, 1000.0, size=238_626)
    return {
        "gamma": GammaDistribution(6.0, 1.0),
        "empirical": EmpiricalDistribution(frames, bins=200),
        "lognormal": LognormalDistribution(1.0, 1.0),
        "pareto": ParetoDistribution(1.5, 2.0),
        "gamma_pareto": GammaParetoDistribution(4.0, 1.0, 1.6),
    }


def _seed_path(target):
    """The transform's formula before the table (kept here as baseline)."""
    ceil = float(np.nextafter(1.0, 0.0))
    if isinstance(target, GammaDistribution):
        def seed(x):
            u = np.clip(special.ndtr(x), 1e-300, ceil)
            return special.gammaincinv(target.shape, u) * target.scale
    else:
        def seed(x):
            return target.ppf(np.clip(stats.norm.cdf(x), 1e-300, ceil))
    return seed


def _best(fn, x, calls=1):
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(calls):
            fn(x)
        best = min(best, time.perf_counter() - start)
    return best


def test_transform_table_ablation(emit, record_bench):
    rng = np.random.default_rng(7)
    block = rng.standard_normal(BLOCK)
    vector = rng.standard_normal(VECTOR)
    rows, results = [], {}
    for name, target in _families().items():
        tr = MarginalTransform(target)
        tr(vector)  # builds the table outside the timed region
        paths = {"seed": _seed_path(target), "exact": tr.exact, "table": tr}
        block_ns = {}
        for path, fn in paths.items():
            x = block if path == "table" else block[:SLOW_ROWS]
            block_ns[path] = 1e9 * _best(fn, x) / x.size
        vector_ns = {
            path: 1e9 * _best(fn, vector, VECTOR_CALLS[path])
            / (VECTOR * VECTOR_CALLS[path])
            for path, fn in paths.items()
        }
        exact = tr.exact(block)
        err = float(np.max(np.abs(tr(block) - exact) / np.abs(exact)))
        results[name] = {
            "block_ns_per_sample": block_ns,
            "vector_ns_per_sample": vector_ns,
            "block_speedup_vs_seed": block_ns["seed"] / block_ns["table"],
            "vector_speedup_vs_seed": vector_ns["seed"] / vector_ns["table"],
            "max_relative_error": err,
        }
        rows.append((
            name,
            f"{block_ns['seed']:.1f}",
            f"{block_ns['exact']:.1f}",
            f"{block_ns['table']:.1f}",
            f"{vector_ns['seed']:.1f}",
            f"{vector_ns['table']:.1f}",
            f"{err:.1e}",
        ))
    emit(
        "Transform ablation: ns/sample, 1024x2048 block and 1000-vectors",
        *format_series(
            ("family", "blk seed", "blk exact", "blk table",
             "vec seed", "vec table", "max rel err"),
            rows,
        ),
    )
    info = transform_table_info()
    record_bench(
        "transform_table",
        families=results,
        table_builds=info.builds,
        block_shape=list(BLOCK),
        vector_size=VECTOR,
    )
    for name, result in results.items():
        assert result["max_relative_error"] <= MAX_RELATIVE_ERROR, name
    assert results["gamma"]["block_speedup_vs_seed"] >= GAMMA_BLOCK_SPEEDUP
    assert (
        results["empirical"]["block_speedup_vs_seed"]
        >= EMPIRICAL_BLOCK_SPEEDUP
    )
