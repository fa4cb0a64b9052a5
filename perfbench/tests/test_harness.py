"""Tests of the benchmark's own logic (not of the program it measures)."""

import json
import multiprocessing
import types

import numpy as np
import pytest

import hostspeed
import run
import tracing
import workloads
from repro.simulation.estimators import ISEstimate


def span(pid, id_, parent, start, end, layer="x", op=0, counts=None):
    return {"pid": pid, "id": id_, "parent": parent, "start": start,
            "end": end, "layer": layer, "op": op, "counts": counts or {}}


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span(1, 1, None, 0.0, 10.0, "outer"),
            span(1, 2, 1, 1.0, 4.0, "mid"),
            span(1, 3, 2, 2.0, 3.0, "inner"),
            span(1, 4, 1, 3.5, 6.0, "mid"),  # overlaps span 2
        ]
        selfs = tracing.self_times(spans)
        assert selfs[(1, 1)] == pytest.approx(10.0 - 5.0)  # union [1, 6]
        assert selfs[(1, 2)] == pytest.approx(3.0 - 1.0)
        assert selfs[(1, 3)] == pytest.approx(1.0)
        assert selfs[(1, 4)] == pytest.approx(2.5)

    def test_same_ids_in_other_process_are_not_children(self):
        spans = [span(1, 1, None, 0.0, 4.0), span(2, 2, 1, 1.0, 3.0)]
        assert tracing.self_times(spans)[(1, 1)] == pytest.approx(4.0)

    def test_union_length_clips_to_window(self):
        assert tracing.union_length([(0, 2), (1, 3), (5, 9)], 1, 6) == 3.0

    def test_op_ledger_other_and_worker_busy(self):
        op = {"id": 0, "start": 0.0, "end": 10.0}
        spans = [
            span(1, 1, None, 1.0, 3.0, "a"),
            span(1, 2, 1, 1.5, 2.0, "b"),
            span(1, 3, None, 4.0, 5.0, "a"),
            span(7, 1, None, 2.0, 6.0, "w", op=None),
            span(7, 2, None, 5.0, 8.0, "w", op=None),
            span(8, 1, None, 20.0, 21.0, "w", op=None),  # outside the op
        ]
        tracing.assign_ops(spans, [op])
        row = tracing.op_ledger(spans, op, owner_pid=1)
        assert row["a.self_s"] == pytest.approx(2.5)
        assert row["b.self_s"] == pytest.approx(0.5)
        assert row["a.calls"] == 2
        assert row["other_s"] == pytest.approx(10.0 - 3.0)
        assert row["worker_busy_s"] == pytest.approx(6.0)


def _wrapped_call_in_child(values):
    from repro.estimators import variance_time

    variance_time.variance_time_estimate(values)


class TestWorkerSpans:
    def test_forked_worker_spans_are_spooled_and_merged(self, tmp_path):
        tracer = tracing.Tracer(tmp_path, counters=tracing.cache_counters)
        tracing.install(tracer)
        try:
            ctx = multiprocessing.get_context("fork")
            values = np.random.default_rng(0).normal(size=4096)
            children = [ctx.Process(target=_wrapped_call_in_child,
                                    args=(values,)) for _ in range(2)]
            for child in children:
                child.start()
            for child in children:
                child.join(timeout=60)
                assert not child.is_alive() and child.exitcode == 0
        finally:
            tracing.uninstall()
        files = sorted(tmp_path.glob("spans-*.jsonl"))
        assert {f.name for f in files} == {
            f"spans-{c.pid}.jsonl" for c in children
        }
        merged = tracing.read_worker_spans(tmp_path)
        assert {s["pid"] for s in merged} == {c.pid for c in children}
        assert all(s["layer"] == "estimators.hurst" for s in merged)
        assert all(s["parent"] is None and s["op"] is None for s in merged)
        assert tracer.spans == []  # nothing recorded in this process

    def test_spool_lines_are_json(self, tmp_path):
        (tmp_path / "spans-5.jsonl").write_text(
            json.dumps(span(5, 1, None, 0.0, 1.0)) + "\n\n"
        )
        assert tracing.read_worker_spans(tmp_path)[0]["pid"] == 5


class TestWrappers:
    def test_install_wraps_consumers_and_uninstall_restores(self, tmp_path):
        import repro.core.unified as unified
        import repro.estimators.variance_time as vt
        from repro.marginals.transform import MarginalTransform
        from repro.processes.source import DaviesHarteSource

        original = vt.variance_time_estimate
        original_call = MarginalTransform.__call__
        assert "sample" in vars(DaviesHarteSource)
        tracing.install(tracing.Tracer(tmp_path))
        try:
            assert unified.variance_time_estimate is not original
            assert vt.variance_time_estimate is unified.variance_time_estimate
            assert MarginalTransform.__call__ is not original_call
            with pytest.raises(RuntimeError):
                tracing.install(tracing.Tracer(tmp_path))
        finally:
            tracing.uninstall()
        assert not tracing.installed()
        assert unified.variance_time_estimate is original
        assert vt.variance_time_estimate is original
        assert MarginalTransform.__call__ is original_call
        for module in (unified, vt):
            assert not any(
                hasattr(v, "__perfbench_original__")
                for v in vars(module).values()
            )

    def test_traced_run_removes_wrappers_even_when_ops_fail(
        self, tmp_path, monkeypatch
    ):
        class Failing(workloads.Workload):
            name = "fake"

            def prepare(self, samples):
                return [{"setup_s": 1.0}]

            def op(self, kind, seed):
                raise RuntimeError("boom")

        args = types.SimpleNamespace(seconds=0.0)
        monkeypatch.setattr(run, "import_seconds", lambda: 1.0)
        ops, _, metrics, detail = run.traced_run(
            Failing(run.ROOT, tmp_path, seed=0), args, tmp_path
        )
        assert not tracing.installed()
        assert run.failure_counts(ops) == (2, 2, 1.0)
        assert "trace.overhead" in metrics


class FakeWorkload:
    name = "fake"
    kinds = ("a", "b")

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def op(self, kind, seed):
        outcome = self.outcomes.pop(0)
        if outcome == "raise":
            raise ValueError("bad input")
        return workloads.OpResult(kind, seed, 0.0, 1.0, problem=outcome)


class TestFailures:
    def test_failed_share_counts_raise_and_check(self):
        workload = FakeWorkload([None, "raise", "check failed", None])
        ops = run.closed_loop(workload, 0.0, [1])
        ops += run.closed_loop(workload, 0.0, [2])
        assert run.failure_counts(ops) == (4, 2, 0.5)
        assert ops[1].problem.startswith("ValueError")
        assert ops[2].problem == "check failed"

    def test_nonzero_exit_is_a_failed_op(self, tmp_path):
        cli = workloads.CliWorkload(
            run.ROOT, tmp_path, seed=0, in_process=True
        )
        result = run.run_one(cli, "fit", 1)  # the input trace is missing
        assert not result.ok and result.problem.startswith("exit 1")
        assert run.failure_counts([result]) == (1, 1, 1.0)

    def test_simulate_check(self):
        text = (
            "favorable twist: m* = 3 (variance reduction vs m*=0: 2x)\n\n"
            "overflow sweep at m*=3:\n"
            "  buffer b     log10 P   rel err    hits       ESS\n"
            "         5       -3.81      0.11     214      76.4\n"
            "        10       -4.38      0.18     218      29.4\n"
            "        20       {p}      0.15     215      40.7\n"
        )
        problem, worst = workloads.check_simulate_stdout(text.format(p="-5.31"))
        assert problem is None and worst == 0.18
        problem, _ = workloads.check_simulate_stdout(text.format(p="-3.00"))
        assert "rises" in problem
        problem, _ = workloads.check_simulate_stdout(text.format(p="-inf"))
        assert "non-finite" in problem
        problem, _ = workloads.check_simulate_stdout("no output")
        assert problem is not None


class TestAccuracyMetric:
    def test_s_per_1pct_on_hand_built_estimate(self):
        estimate = ISEstimate(probability=1e-4, variance=(2e-5) ** 2,
                              replications=1000, hits=300, twisted_mean=1.5)
        assert estimate.relative_error == pytest.approx(0.2)
        assert workloads.seconds_per_1pct(
            3.0, [0.05, estimate.relative_error]
        ) == pytest.approx(3.0 * 20.0 ** 2)

    def test_pooled_over_a_run_averages_before_the_worst_point(self):
        # Point 1: mean squared error (4e-4 + 16e-4) / 2 = 10e-4;
        # point 2: 25e-4, the worst.  Mean wall 3 s.
        assert workloads.pooled_seconds_per_1pct(
            [2.0, 4.0], [[0.02, 0.05], [0.04, 0.05]]
        ) == pytest.approx(3.0 * 25.0)
        assert workloads.pooled_seconds_per_1pct(
            [1.0], [[0.02, float("inf")]]
        ) == float("inf")

    def test_zero_estimate_never_reaches_accuracy(self):
        estimate = ISEstimate(probability=0.0, variance=0.0,
                              replications=10, hits=0, twisted_mean=0.0)
        assert workloads.seconds_per_1pct(
            1.0, [estimate.relative_error]
        ) == float("inf")


def test_process_age_is_positive_and_small():
    age = workloads.process_age()
    assert 0.0 < age < 24 * 3600


class TestHostScaling:
    def test_times_and_rates_scale_and_other_units_stay(self):
        units = {"op_s": "s", "rate": "1/s", "peak_rss_mib": "MiB"}
        raw = {"op_s": 3.0, "rate": 100.0, "peak_rss_mib": 200.0}
        # Typical probe 2x nominal: the host runs at half speed.
        probes = [2.0 * hostspeed.PROBE_NOMINAL_S] * 3
        scaled = hostspeed.host_scaled(raw, units, probes)
        factor = 0.5 ** hostspeed.PROBE_EXPONENT
        assert scaled["op_s"] == pytest.approx(3.0 * factor)
        assert scaled["rate"] == pytest.approx(100.0 / factor)
        assert scaled["peak_rss_mib"] == 200.0

    def test_typical_drops_the_fastest_and_slowest_fifth(self):
        assert hostspeed.typical([9.0, 1.0, 2.0, 3.0, 0.0]) == 2.0
        assert hostspeed.typical([1.0, 3.0]) == 2.0

    def test_a_probe_runs_before_every_op(self, monkeypatch):
        class Steady(FakeWorkload):
            op_seeds = [1]

            def prepare(self, samples):
                return [{"setup_s": 1.0}] * samples

            def end_to_end(self, ops, samples):
                return {"setup_s": 1.0, "op_s": 1.0}

        slow = 2.0 * hostspeed.PROBE_NOMINAL_S
        monkeypatch.setattr(hostspeed, "host_probe", lambda: slow)
        args = types.SimpleNamespace(seconds=0.0)
        ops, _, metrics, detail = run.end_to_end_run(
            Steady([None, None]), args, {"setup_s": "s", "op_s": "s"}
        )
        assert detail["probes_s"] == [slow] * len(ops) == [slow] * 2
        factor = 0.5 ** hostspeed.PROBE_EXPONENT
        assert metrics == {
            "setup_s": pytest.approx(factor), "op_s": pytest.approx(factor),
            "peak_rss_mib": detail["raw_metrics"]["peak_rss_mib"],
        }

    def test_probe_takes_time(self):
        assert 0.0 < hostspeed.host_probe() < 60.0


def test_cycle_walls_sum_whole_cycles(tmp_path):
    class ThreeKinds(workloads.Workload):
        kinds = ("a", "b", "a")

    ops = [workloads.OpResult(k, 0, 0.0, float(i + 1))
           for i, k in enumerate("aba" * 2)]
    walls = ThreeKinds(run.ROOT, tmp_path, seed=0).cycle_walls(ops)
    assert walls == [1.0 + 2.0 + 3.0, 4.0 + 5.0 + 6.0]
