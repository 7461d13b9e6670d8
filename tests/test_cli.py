"""The repro-bench CLI and bench harness plumbing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench import EXPERIMENTS, format_table
from repro.cli import main

#: The legacy bench and ``obs`` commands' flags, each with a value it
#: once took.
REMOVED_FLAGS = (
    ("--users", "1000"),
    ("--shards", "2"),
    ("--batch-size", "512"),
    ("--backend", "numpy"),
    ("--threads", "2"),
    ("--connections", "2"),
    ("--flush-reports", "4096"),
    ("--high-water", "8192"),
    ("--coalesce", "8"),
    ("--flush-interval", "0.1"),
    ("--format", "prom"),
    ("--input", "snapshot.json"),
    ("--output", "trace.json"),
)


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

    def test_layers_below_the_collector_take_only_log_event_from_obs(self):
        """The collector owns the one metrics registry: ``mechanisms`` and
        ``stream`` record no telemetry and import nothing from
        ``repro.obs`` but the structured logger's ``log_event``."""
        package = Path(repro.__file__).parent
        imported = set()
        for layer in ("mechanisms", "stream"):
            for path in (package / layer).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.ImportFrom) and "obs" in (
                        node.module or ""
                    ).split("."):
                        imported.update(alias.name for alias in node.names)
                    elif isinstance(node, ast.Import):
                        imported.update(
                            alias.name for alias in node.names
                            if alias.name.startswith("repro.obs")
                        )
        assert imported == {"log_event"}


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

    @pytest.mark.parametrize(
        "command",
        ["stream", "protocol", "serve", "drift", "top", "obs dump", "obs trace"],
    )
    def test_legacy_bench_commands_and_flags_are_gone(self, capsys, command):
        """Throughput is perfbench's job: the legacy bench commands, the
        deleted ``top`` console and the deleted ``obs dump|trace`` are
        refused, and their flags are not options."""
        name, *action = command.split()
        assert main([name]) == 2
        assert f"unknown experiment {name!r}" in capsys.readouterr().err
        for flag, value in REMOVED_FLAGS:
            with pytest.raises(SystemExit) as exit_info:
                main([name, *action, flag, value])
            assert exit_info.value.code == 2
            unrecognized = " ".join([*action, flag])
            assert (
                f"unrecognized arguments: {unrecognized}"
                in capsys.readouterr().err
            )

    def test_list_names_exactly_the_paper_experiments(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Available experiments:"
        assert [line.split()[0] for line in lines[1:]] == sorted(EXPERIMENTS)

    @pytest.mark.parametrize(
        ("env", "argv", "scale"),
        [
            (None, [], "quick"),
            ("full", [], "full"),
            ("FULL", [], "full"),
            ("bogus", [], "quick"),
            ("full", ["--quick"], "quick"),
            ("quick", ["--scale", "full"], "full"),
        ],
        ids=["unset", "env-full", "env-case", "env-bogus", "flag-quick",
             "flag-full"],
    )
    def test_scale_comes_from_the_environment_unless_given(
        self, capsys, tmp_path, monkeypatch, env, argv, scale
    ):
        seen = []

        def probe(scale, seed):
            """Record the scale it runs at."""
            seen.append(scale)
            return "probe\n"

        monkeypatch.setitem(EXPERIMENTS, "table1", probe)
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        if env is None:
            monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        else:
            monkeypatch.setenv("REPRO_BENCH_SCALE", env)
        assert main(["table1", *argv]) == 0
        assert seen == [scale]
        assert (tmp_path / "table1.txt").read_text() == "probe\n"

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 9009
        assert args.shards == 1
        assert args.flush_reports == 65_536
        assert args.metrics_port is None
        assert args.log_json is None


    def test_serve_parser_takes_its_fast_lane_flags(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([
            "--shards", "4", "--flush-reports", "1024", "--high-water",
            "2048", "--flush-interval", "0.2",
        ])
        assert (args.shards, args.flush_reports, args.high_water) == (
            4, 1024, 2048,
        )
        assert args.flush_interval == 0.2

    def test_serve_parser_refuses_coalesce(self, capsys):
        """Frame coalescing is a constant: ``--coalesce`` is no flag."""
        from repro.cli import build_serve_parser

        with pytest.raises(SystemExit) as exit_info:
            build_serve_parser().parse_args(["--coalesce", "8"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --coalesce" in capsys.readouterr().err


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
