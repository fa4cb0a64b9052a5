"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.video.io import load_trace, save_trace
from repro.video.trace import VideoTrace


@pytest.fixture()
def small_trace_file(tmp_path, intra_trace):
    path = tmp_path / "trace.txt"
    save_trace(intra_trace.slice(0, 30_000), path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize", "out.txt"])
        assert args.frames == 238_626
        assert args.mode == "intraframe"


class TestSynthesize:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "syn.txt"
        code = main([
            "synthesize", str(out), "--frames", "3000", "--seed", "1",
        ])
        assert code == 0
        trace = load_trace(out)
        assert trace.num_frames == 3000

    def test_ibp_mode_has_gop(self, tmp_path):
        out = tmp_path / "ibp.txt"
        code = main([
            "synthesize", str(out), "--frames", "1200",
            "--mode", "ibp", "--seed", "2",
        ])
        assert code == 0
        trace = load_trace(out)
        assert trace.gop is not None
        assert trace.gop.i_period == 12

    def test_reproducible_with_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["synthesize", str(a), "--frames", "500", "--seed", "9"])
        main(["synthesize", str(b), "--frames", "500", "--seed", "9"])
        np.testing.assert_array_equal(
            load_trace(a).sizes, load_trace(b).sizes
        )


class TestAnalyze:
    def test_prints_summary_and_hurst(self, small_trace_file, capsys):
        code = main(["analyze", str(small_trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Hurst estimates" in out
        assert "variance-time" in out
        assert "mean rate" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestFit:
    def test_fit_report_printed(self, small_trace_file, capsys):
        code = main([
            "fit", str(small_trace_file), "--max-lag", "120",
            "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Hurst (adopted)" in out
        assert "Attenuation a" in out

    def test_generate_requires_output(self, small_trace_file, capsys):
        code = main([
            "fit", str(small_trace_file), "--max-lag", "120",
            "--generate", "100",
        ])
        assert code == 2
        assert "--output" in capsys.readouterr().err

    def test_generate_writes_synthetic(self, small_trace_file,
                                       tmp_path, capsys):
        out = tmp_path / "synthetic.txt"
        code = main([
            "fit", str(small_trace_file), "--max-lag", "120",
            "--generate", "400", "--output", str(out), "--seed", "4",
        ])
        assert code == 0
        synthetic = load_trace(out)
        assert synthetic.num_frames == 400

    def test_generate_chunked_matches_any_process_count(
        self, small_trace_file, tmp_path, capsys
    ):
        # --processes only changes scheduling, never the trace bits.
        paths = [tmp_path / "one.txt", tmp_path / "two.txt"]
        for path, procs in zip(paths, ("1", "2")):
            code = main([
                "fit", str(small_trace_file), "--max-lag", "120",
                "--generate", "400", "--output", str(path),
                "--seed", "4", "--chunk-frames", "128",
                "--processes", procs,
            ])
            assert code == 0
        np.testing.assert_array_equal(
            load_trace(paths[0]).sizes, load_trace(paths[1]).sizes
        )


class TestOverflow:
    def test_table_printed(self, small_trace_file, capsys):
        code = main([
            "overflow", str(small_trace_file),
            "--utilization", "0.6",
            "--buffers", "10", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "buffer b" in out
        assert "util 0.6" in out
        assert "log10" in out


SIMULATE_ARGS = [
    "--max-lag", "100",
    "--buffers", "3", "6",
    "--twists", "0", "1.5", "3",
    "--replications", "50",
    "--seed", "11",
]


class TestSimulate:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate", "trace.txt"])
        assert args.utilization == 0.8
        assert args.twists == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert args.horizon_factor == 10
        assert args.metrics_out is None

    def test_tables_printed(self, small_trace_file, capsys):
        code = main(["simulate", str(small_trace_file)] + SIMULATE_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "twist scan" in out
        assert "favorable twist" in out
        assert "variance reduction" in out
        assert "overflow sweep" in out
        assert "ESS" in out

    def test_metrics_out_writes_json_lines(self, small_trace_file,
                                           tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        code = main(
            ["simulate", str(small_trace_file)]
            + SIMULATE_ARGS
            + ["--metrics-out", str(metrics_path)]
        )
        assert code == 0
        assert "wrote metrics" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        header = records[0]
        assert header["record"] == "header"
        assert header["command"] == "simulate"
        assert header["seed"] == 11
        assert "coefficient_cache" in header
        metrics = [r for r in records[1:]]
        assert all(r["record"] == "metric" for r in metrics)
        names = {r["name"] for r in metrics}
        # The acceptance triple: cache activity, per-leg wall time,
        # ESS per twist point.
        assert "coeff_table.tables" in names
        assert "is.leg_seconds" in names
        assert "is.ess" in names
        ess_twists = {
            r["labels"]["twist"] for r in metrics
            if r["name"] == "is.ess" and r["labels"].get("phase") == "search"
        }
        assert ess_twists == {"0", "1.5", "3"}
        phases = {
            r["labels"].get("phase") for r in metrics
        }
        assert {"fit", "search", "curve"} <= phases

    def test_metrics_do_not_change_results(self, small_trace_file,
                                           tmp_path, capsys):
        main(["simulate", str(small_trace_file)] + SIMULATE_ARGS)
        plain = capsys.readouterr().out
        main(
            ["simulate", str(small_trace_file)]
            + SIMULATE_ARGS
            + ["--metrics-out", str(tmp_path / "m.jsonl")]
        )
        instrumented = capsys.readouterr().out
        # Identical up to the trailing "wrote metrics" line.
        assert instrumented.startswith(plain)

    def test_aggregate_parser_defaults(self):
        args = build_parser().parse_args(["simulate", "trace.txt"])
        assert args.num_sources == 1
        assert args.shards == 1


BAKEOFF_ARGS = [
    "--hurst", "0.8",
    "--horizons", "1024",
    "--estimators", "mavar", "rs",
    "--replications", "2",
    "--seed", "13",
]


class TestBakeoff:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bakeoff"])
        assert args.hurst == [0.6, 0.7, 0.8, 0.9]
        assert args.horizons == [4096, 16384]
        assert args.backends == ["davies_harte"]
        assert args.estimators is None
        assert args.format == "table"

    def test_table_printed(self, capsys):
        code = main(["bakeoff"] + BAKEOFF_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "bake-off:" in out
        assert "mavar" in out and "rs" in out
        assert "winner (pooled RMSE):" in out

    def test_json_format(self, capsys):
        code = main(["bakeoff"] + BAKEOFF_ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimators"] == ["mavar", "rs"]
        assert payload["replications"] == 2
        assert len(payload["cells"]) == 2

    def test_metrics_out_writes_json_lines(self, tmp_path, capsys):
        metrics_path = tmp_path / "bakeoff.jsonl"
        code = main(
            ["bakeoff"] + BAKEOFF_ARGS
            + ["--metrics-out", str(metrics_path)]
        )
        assert code == 0
        assert "wrote metrics" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        header = records[0]
        assert header["record"] == "header"
        assert header["command"] == "bakeoff"
        assert header["trace"] is None
        assert header["winner"] in ("mavar", "rs")
        names = {r["name"] for r in records[1:]}
        assert {"bakeoff.cells", "bakeoff.rmse",
                "bakeoff.estimator_seconds"} <= names

    def test_seeded_runs_identical(self, capsys):
        def statistical_payload():
            main(["bakeoff"] + BAKEOFF_ARGS + ["--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            # Wall-clock fields legitimately vary between runs; every
            # statistical quantity must not.
            for cell in payload["cells"]:
                cell.pop("seconds")
            for row in payload["summary"].values():
                row.pop("seconds")
            return payload

        assert statistical_payload() == statistical_payload()

    def test_aggregate_capacity_panel(self, small_trace_file, capsys):
        code = main(
            ["simulate", str(small_trace_file)]
            + SIMULATE_ARGS
            + ["--num-sources", "3", "--shards", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregate:" in out
        assert "aggregate engine feed" in out
        assert "shards=2" in out
        assert "effective bandwidth vs N" in out
        assert "admissible sources" in out
        assert "bufferless Gaussian loss" in out

    def test_single_source_output_unchanged_by_new_flags(
        self, small_trace_file, capsys
    ):
        # The aggregate flags must not disturb the historical seeding
        # of the default path: explicit --num-sources 1 --shards 1 is
        # byte-identical to not passing the flags at all.
        main(["simulate", str(small_trace_file)] + SIMULATE_ARGS)
        plain = capsys.readouterr().out
        main(
            ["simulate", str(small_trace_file)]
            + SIMULATE_ARGS
            + ["--num-sources", "1", "--shards", "1"]
        )
        assert capsys.readouterr().out == plain

    def test_chunked_panel_printed(self, small_trace_file, capsys):
        code = main(
            ["simulate", str(small_trace_file)]
            + SIMULATE_ARGS
            + ["--chunk-frames", "30", "--processes", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chunked generation" in out
        assert "mode=bridge" in out
        assert "stitch" in out
        assert "peak chunk" in out

    def test_chunked_panel_leaves_sweeps_unchanged(
        self, small_trace_file, capsys
    ):
        # The chunked panel spawns its RNG child *after* the historical
        # phase streams, so the twist scan and buffer sweep above it
        # print byte-identically with or without the new flags.
        main(["simulate", str(small_trace_file)] + SIMULATE_ARGS)
        plain = capsys.readouterr().out
        main(
            ["simulate", str(small_trace_file)]
            + SIMULATE_ARGS
            + ["--chunk-frames", "30"]
        )
        chunked = capsys.readouterr().out
        assert chunked.startswith(plain)
        assert "chunked generation" in chunked

    def test_fit_metrics_out(self, small_trace_file, tmp_path):
        metrics_path = tmp_path / "fit_metrics.jsonl"
        code = main([
            "fit", str(small_trace_file), "--max-lag", "120",
            "--seed", "3", "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        records = [
            json.loads(line)
            for line in metrics_path.read_text().splitlines()
        ]
        assert records[0]["record"] == "header"
        names = {r["name"] for r in records[1:]}
        assert "model.fit_seconds" in names
        assert "model.hurst" in names


class TestSpectralCacheColdWarm:
    """CLI outputs are bit-identical with a cold and a warm cache."""

    def test_synthesize_cold_equals_warm(self, tmp_path):
        from repro.processes.spectral_cache import clear_spectral_cache

        cold_out = tmp_path / "cold.txt"
        warm_out = tmp_path / "warm.txt"
        clear_spectral_cache()
        assert main([
            "synthesize", str(cold_out), "--frames", "2000", "--seed", "5",
        ]) == 0
        # Second run reuses whatever the first left in the cache.
        assert main([
            "synthesize", str(warm_out), "--frames", "2000", "--seed", "5",
        ]) == 0
        np.testing.assert_array_equal(
            load_trace(cold_out).sizes, load_trace(warm_out).sizes
        )

    def test_fit_generate_cold_equals_warm(self, small_trace_file,
                                           tmp_path):
        from repro.processes.spectral_cache import clear_spectral_cache

        cold_out = tmp_path / "cold.txt"
        warm_out = tmp_path / "warm.txt"
        args = [
            "fit", str(small_trace_file), "--max-lag", "120",
            "--generate", "400", "--seed", "6",
        ]
        clear_spectral_cache()
        assert main(args + ["--output", str(cold_out)]) == 0
        assert main(args + ["--output", str(warm_out)]) == 0
        np.testing.assert_array_equal(
            load_trace(cold_out).sizes, load_trace(warm_out).sizes
        )

    def test_metrics_header_snapshots_spectral_cache(
        self, small_trace_file, tmp_path
    ):
        import json as _json

        metrics_path = tmp_path / "metrics.jsonl"
        code = main([
            "fit", str(small_trace_file), "--max-lag", "100",
            "--seed", "7", "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        header = _json.loads(
            metrics_path.read_text().splitlines()[0]
        )
        assert header["record"] == "header"
        snapshot = header["spectral_cache"]
        for key in ("hits", "misses", "extensions", "evictions",
                    "eigenvalue_builds", "tables"):
            assert key in snapshot
        # The fitted histogram marginal is served from an h table.
        tables = header["transform_tables"]
        assert set(tables) == {"tables", "builds", "hits", "evictions"}
        assert tables["tables"] >= 1


class TestSimulateAggregateProcesses:
    def test_processes_flag_leaves_capacity_panel_unchanged(
        self, small_trace_file, capsys
    ):
        # --processes only moves aggregate block generation onto a
        # pool; every printed number must be identical.
        args = (
            ["simulate", str(small_trace_file)]
            + SIMULATE_ARGS
            + ["--num-sources", "3", "--shards", "2"]
        )
        main(args)
        serial = capsys.readouterr().out
        main(args + ["--processes", "2"])
        pooled = capsys.readouterr().out
        assert pooled.replace(
            "processes=2", "processes=1"
        ) == serial
        assert "processes=2" in pooled


# A grid that cannot get hits: twisted far below the mean, the
# background never fills the buffer.
HOPELESS_ARGS = [
    "--max-lag", "100",
    "--buffers", "5",
    "--twists", "-8", "-6",
    "--replications", "20",
    "--seed", "3",
]


class TestTwistGridFailure:
    @pytest.mark.parametrize("num_sources", ["1", "64"])
    def test_hopeless_grid_names_twists_flag(
        self, small_trace_file, capsys, num_sources
    ):
        with pytest.warns(Warning):
            code = main(
                ["simulate", str(small_trace_file)] + HOPELESS_ARGS
                + ["--num-sources", num_sources]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert "--twists" in err
        assert "x* = " in err
        assert "e.g. --twists 0 " in err

    def test_python_m_repro_exit_code_and_warning_location(
        self, small_trace_file
    ):
        # Under ``python -m repro`` the SimulationWarning must name the
        # package's CLI frame, not the interpreter's ``<frozen runpy>``.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "simulate",
             str(small_trace_file)] + HOPELESS_ARGS,
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 1
        assert "--twists" in result.stderr
        warning_lines = [
            line for line in result.stderr.splitlines()
            if "SimulationWarning" in line
        ]
        assert warning_lines
        for line in warning_lines:
            assert os.path.join("repro", "cli.py") in line, line
            assert "<frozen" not in line
