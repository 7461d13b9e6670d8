"""The repro-bench CLI and bench harness plumbing."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.bench import EXPERIMENTS, format_table
from repro.cli import main


class TestFormatTable:
    def test_alignment_and_note(self):
        out = format_table("T", ["a", "bb"], [[1, 2.5], ["x", 0.001]], note="n.b.")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "n.b." in out
        assert "2.5" in out

    def test_float_formatting(self):
        out = format_table("T", ["v"], [[123456.0], [0.00012], [0.0]])
        assert "1.23e+05" in out
        assert "0.00012" in out


class TestImportFootprint:
    def test_serve_and_cli_load_no_scipy(self):
        """numpy is the only runtime dependency: a fresh interpreter that
        imports the collector and the CLI loads no scipy module."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        code = (
            "import sys, repro.serve, repro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3",
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        }

    def test_experiments_have_docstrings(self):
        for fn in EXPERIMENTS.values():
            assert fn.__doc__


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table3" in out

    def test_no_argument_lists(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["figZ"]) == 2

    def test_runs_cheap_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert (tmp_path / "table1.txt").exists()

    def test_seed_changes_nothing_for_closed_form(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["table2", "--seed", "9"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_list_mentions_stream(self, capsys):
        assert main(["--list"]) == 0
        assert "stream" in capsys.readouterr().out

    def test_stream_subcommand(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        artifact = tmp_path / "BENCH_stream.json"
        monkeypatch.setenv("REPRO_BENCH_STREAM_ARTIFACT", str(artifact))
        assert (
            main(
                ["stream", "--users", "20000", "--batch-size", "4096", "--shards", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reports/sec" in out
        assert (tmp_path / "stream.txt").exists()
        payload = json.loads(artifact.read_text())
        assert payload["total_reports"] == 4 * 20000
        assert payload["n_shards"] == 2
        assert set(payload["frameworks"]) == {"hec", "ptj", "pts", "pts-cp"}
        for stats in payload["frameworks"].values():
            assert stats["reports_per_sec"] > 0

    def test_stream_flags_rejected_for_other_experiments(self, capsys):
        assert main(["table1", "--users", "1000"]) == 2
        assert "--users" in capsys.readouterr().err

    def test_stream_only_flags_rejected_for_protocol(self, capsys):
        assert main(["protocol", "--shards", "2"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_list_mentions_protocol(self, capsys):
        assert main(["--list"]) == 0
        assert "protocol" in capsys.readouterr().out

    def test_protocol_subcommand(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        artifact = tmp_path / "BENCH_protocol.json"
        monkeypatch.setenv("REPRO_BENCH_PROTOCOL_ARTIFACT", str(artifact))
        assert main(["protocol", "--quick", "--users", "4000"]) == 0
        out = capsys.readouterr().out
        assert "users/sec" in out
        assert (tmp_path / "protocol.txt").exists()
        payload = json.loads(artifact.read_text())
        assert payload["n_users"] == 4000
        assert set(payload["frameworks"]) == {"hec", "ptj", "pts", "pts-cp"}
        for stats in payload["frameworks"].values():
            assert stats["users_per_sec"] > 0
            assert stats["baseline_users_per_sec"] > 0

    def test_list_mentions_serve(self, capsys):
        assert main(["--list"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_serve_subcommand(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        artifact = tmp_path / "BENCH_serve.json"
        monkeypatch.setenv("REPRO_BENCH_SERVE_ARTIFACT", str(artifact))
        assert (
            main(
                [
                    "serve", "--users", "12000", "--connections", "3",
                    "--batch-size", "1024", "--shards", "2", "--seed", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reports/sec" in out
        assert (tmp_path / "serve.txt").exists()
        payload = json.loads(artifact.read_text())
        assert payload["n_users"] == 12000
        assert payload["n_shards"] == 2
        assert len(payload["cells"]) == 1
        cell = payload["cells"][0]
        assert cell["connections"] == 3
        assert cell["reports"] == 12000
        assert cell["reports_per_sec"] > 0

    def test_serve_only_flags_rejected_elsewhere(self, capsys):
        assert main(["stream", "--connections", "2"]) == 2
        assert "--connections" in capsys.readouterr().err
        assert main(["table1", "--connections", "2"]) == 2

    @pytest.mark.parametrize("command", ["stream", "serve"])
    def test_shard_executor_flags_are_gone(self, capsys, command):
        """Shards always run on threads: neither command takes an
        executor or a transport."""
        for flag, value in (("--executor", "process"), ("--transport", "shm")):
            with pytest.raises(SystemExit) as exit_info:
                main([command, flag, value])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_list_mentions_drift(self, capsys):
        assert main(["--list"]) == 0
        assert "drift" in capsys.readouterr().out

    def test_drift_subcommand(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        artifact = tmp_path / "BENCH_drift.json"
        monkeypatch.setenv("REPRO_BENCH_DRIFT_ARTIFACT", str(artifact))
        assert main(["drift", "--quick", "--users", "600"]) == 0
        out = capsys.readouterr().out
        assert "staleness" in out and "recall" in out
        assert (tmp_path / "drift.txt").exists()
        payload = json.loads(artifact.read_text())
        assert payload["reports_per_step"] == 600
        # Every pattern runs under both advancement configs.
        expected = {
            f"{pattern}:{config}"
            for pattern in ("ramp", "flip", "burst")
            for config in ("fixed_window", "adaptive")
        }
        assert set(payload["frameworks"]) == expected
        for stats in payload["frameworks"].values():
            assert stats["reports_per_sec"] > 0
            assert 0.0 <= stats["staleness_mean"] <= 1.0
            assert 0.0 <= stats["recall_mean"] <= 1.0
        assert set(payload["cells_detail"]) == expected
        series = payload["cells_detail"]["ramp:adaptive"]["series"]
        assert len(series) == payload["n_steps"]
        assert all("drift_score" in row for row in series)

    def test_drift_rejects_bench_only_flags(self, capsys):
        assert main(["drift", "--connections", "2"]) == 2
        assert "--connections" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 9009
        assert args.shards == 1
        assert args.flush_reports == 65_536
        assert args.metrics_port is None
        assert args.log_json is None

    def test_bench_artifacts_carry_meta(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.bench.reporting import BENCH_META_SCHEMA

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        artifact = tmp_path / "BENCH_stream.json"
        monkeypatch.setenv("REPRO_BENCH_STREAM_ARTIFACT", str(artifact))
        assert (
            main(
                ["stream", "--users", "8000", "--batch-size", "4000", "--shards", "2"]
            )
            == 0
        )
        meta = json.loads(artifact.read_text())["meta"]
        assert meta["schema"] == BENCH_META_SCHEMA
        for key in ("host", "platform", "python", "numpy"):
            assert isinstance(meta[key], str)
        # spawned seeds make the run replayable from the JSON alone
        assert set(meta["shard_seeds"]) == {"hec", "ptj", "pts", "pts-cp"}
        assert all(len(seeds) == 2 for seeds in meta["shard_seeds"].values())
        # and the telemetry snapshot captured the instrumented run
        metrics = meta["metrics"]
        assert any(
            key.startswith("bench_stream_seconds") for key in metrics["histograms"]
        )
        assert any(
            key.startswith("stream_ingested_total") for key in metrics["counters"]
        )


class TestObsCLI:
    def test_dump_json_live_registry(self, capsys):
        import json

        assert main(["obs", "dump", "--format=json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema"] == 1
        assert set(snapshot) == {"schema", "counters", "gauges", "histograms"}

    def test_dump_prom_from_bench_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        artifact = tmp_path / "BENCH_protocol.json"
        monkeypatch.setenv("REPRO_BENCH_PROTOCOL_ARTIFACT", str(artifact))
        assert main(["protocol", "--quick", "--users", "2000"]) == 0
        capsys.readouterr()
        assert main(["obs", "dump", "--format=prom", "--input", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE bench_protocol_seconds histogram" in out
        assert "bench_protocol_seconds_count" in out

    def test_dump_json_from_raw_snapshot(self, capsys, tmp_path):
        import json

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        registry.counter("c").inc(5)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(registry.snapshot()))
        assert main(["obs", "dump", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["counters"]["c"] == 5

    def test_dump_rejects_unrecognised_input(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"tables": []}')
        assert main(["obs", "dump", "--input", str(path)]) == 2
        assert "neither" in capsys.readouterr().err

    def test_stream_honors_scale_env(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        artifact = tmp_path / "BENCH_stream.json"
        monkeypatch.setenv("REPRO_BENCH_STREAM_ARTIFACT", str(artifact))
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        # --users/--batch-size keep the run tiny; the scale must still
        # come from the environment like every other experiment.
        assert main(["stream", "--users", "1000", "--batch-size", "500"]) == 0
        payload = json.loads(artifact.read_text())
        assert payload["scale"] == "full"


class TestComplexityModel:
    def test_rows_cover_table2(self):
        from repro.analysis.complexity import table2_rows

        rows = table2_rows(c=5, d=28_000, n=9_000_000, k=20)
        assert [r.method for r in rows] == [
            "HEC/PTS (PEM)",
            "PTJ (PEM)",
            "PTJ† (Shuffling+VP)",
            "PTS† (Shuffling+VP+CP)",
        ]

    def test_optimized_user_cost_independent_of_d(self):
        from repro.analysis.complexity import pts_optimized_costs

        small = pts_optimized_costs(5, 1_000, 10_000, 20)
        large = pts_optimized_costs(5, 1_000_000, 10_000, 20)
        assert small.user_communication == large.user_communication

    def test_pem_user_cost_grows_with_d(self):
        from repro.analysis.complexity import hec_pts_pem_costs

        small = hec_pts_pem_costs(5, 1_000, 10_000, 20)
        large = hec_pts_pem_costs(5, 1_000_000, 10_000, 20)
        assert large.user_communication > small.user_communication

    def test_ptj_costs_factor_c_more(self):
        from repro.analysis.complexity import hec_pts_pem_costs, ptj_pem_costs

        pts = hec_pts_pem_costs(8, 10_000, 1_000_000, 20)
        ptj = ptj_pem_costs(8, 10_000, 1_000_000, 20)
        assert ptj.user_communication > 6 * pts.user_communication

    def test_measured_bits_shape(self):
        from repro.analysis.complexity import measured_report_bits

        bits = measured_report_bits(5, 28_000, 20)
        assert bits["PTJ (PEM)"] > bits["HEC/PTS (PEM)"]
        # Optimized PTS report: log2(c) label bits + 4k bucket bits + flag.
        assert bits["PTS† (Shuffling+VP+CP)"] == 3 + 81

    def test_validation(self):
        from repro.analysis.complexity import hec_pts_pem_costs
        from repro.exceptions import DomainError

        with pytest.raises(DomainError):
            hec_pts_pem_costs(0, 10, 10, 10)


class TestRngHelpers:
    def test_spawn_independence(self):
        from repro.rng import ensure_rng, spawn

        parent = ensure_rng(5)
        children = spawn(parent, 3)
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_spawn_rejects_negative(self):
        from repro.rng import ensure_rng, spawn

        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)

    def test_spawn_seeds_deterministic_and_distinct(self):
        from repro.rng import ensure_rng, spawn_seeds

        first = spawn_seeds(ensure_rng(7), 4)
        second = spawn_seeds(ensure_rng(7), 4)
        assert first == second
        assert len(set(first)) == 4
        assert all(isinstance(s, int) for s in first)

    def test_spawn_matches_spawn_seeds(self):
        from repro.rng import ensure_rng, spawn, spawn_seeds

        children = spawn(ensure_rng(3), 2)
        seeds = spawn_seeds(ensure_rng(3), 2)
        for child, seed in zip(children, seeds):
            assert child.random() == np.random.default_rng(seed).random()

    def test_ensure_rng_passthrough(self):
        from repro.rng import ensure_rng

        gen = np.random.default_rng(3)
        assert ensure_rng(gen) is gen

    def test_domain_spec_flatten_roundtrip(self):
        from repro.types import DomainSpec

        spec = DomainSpec(n_classes=3, n_items=7)
        for label in range(3):
            for item in range(7):
                assert spec.unflatten(spec.flatten(label, item)) == (label, item)

    def test_domain_spec_validation(self):
        from repro.exceptions import DomainError
        from repro.types import DomainSpec

        with pytest.raises(ValueError):
            DomainSpec(0, 5)
        spec = DomainSpec(2, 5)
        with pytest.raises(ValueError):
            spec.flatten(2, 0)
        with pytest.raises(ValueError):
            spec.unflatten(10)
