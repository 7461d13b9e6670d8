"""The bench-regression gate: artifact rate extraction, threshold
comparison, and the CLI exit codes CI keys off."""

import copy
import json

import pytest

from repro.bench.regression import (
    DEFAULT_THRESHOLD,
    compare,
    compare_artifacts,
    config_summary,
    extract_rates,
    main,
)

STREAM_PAYLOAD = {
    "scale": "quick",
    "frameworks": {
        "hec": {"reports_per_sec": 1_000_000.0, "rmse": 2.0},
        "pts": {"reports_per_sec": 2_000_000.0, "rmse": 1.0},
    },
}

PROTOCOL_PAYLOAD = {
    "frameworks": {
        "ptj": {"users_per_sec": 800_000.0, "baseline_users_per_sec": 9_000.0},
    },
}

SERVE_PAYLOAD = {
    "cells": [
        {"connections": 1, "batch_size": 4096, "reports_per_sec": 5_000_000.0},
        {"connections": 8, "batch_size": 4096, "reports_per_sec": 6_500_000.0},
    ],
    "max_reports_per_sec": 6_500_000.0,
}


class TestExtractRates:
    def test_stream_shape(self):
        rates = extract_rates(STREAM_PAYLOAD)
        assert rates == {
            "hec:reports_per_sec": 1_000_000.0,
            "pts:reports_per_sec": 2_000_000.0,
        }

    def test_protocol_shape(self):
        assert extract_rates(PROTOCOL_PAYLOAD) == {
            "ptj:users_per_sec": 800_000.0
        }

    def test_serve_cells_keyed_by_grid_point(self):
        rates = extract_rates(SERVE_PAYLOAD)
        assert rates == {
            "connections=1,batch=4096:reports_per_sec": 5_000_000.0,
            "connections=8,batch=4096:reports_per_sec": 6_500_000.0,
        }

    def test_max_aggregate_is_not_a_series(self):
        assert not any("max" in key for key in extract_rates(SERVE_PAYLOAD))

    def test_unknown_shape_yields_nothing(self):
        assert extract_rates({"tables": [1, 2, 3]}) == {}


class TestCompare:
    def test_within_threshold_passes(self):
        fresh = copy.deepcopy(STREAM_PAYLOAD)
        fresh["frameworks"]["hec"]["reports_per_sec"] *= 0.75  # -25% < 30%
        regressions, lines = compare(STREAM_PAYLOAD, fresh)
        assert regressions == []
        assert any("-25.0%" in line for line in lines)

    def test_regression_beyond_threshold_flagged(self):
        fresh = copy.deepcopy(STREAM_PAYLOAD)
        fresh["frameworks"]["pts"]["reports_per_sec"] *= 0.5  # -50%
        regressions, _ = compare(STREAM_PAYLOAD, fresh)
        assert regressions == ["pts:reports_per_sec"]

    def test_custom_threshold(self):
        fresh = copy.deepcopy(STREAM_PAYLOAD)
        fresh["frameworks"]["pts"]["reports_per_sec"] *= 0.85  # -15%
        assert compare(STREAM_PAYLOAD, fresh, threshold=0.10)[0] == [
            "pts:reports_per_sec"
        ]
        assert compare(STREAM_PAYLOAD, fresh, threshold=DEFAULT_THRESHOLD)[0] == []

    def test_improvements_never_flagged(self):
        fresh = copy.deepcopy(SERVE_PAYLOAD)
        for cell in fresh["cells"]:
            cell["reports_per_sec"] *= 10
        assert compare(SERVE_PAYLOAD, fresh)[0] == []

    def test_differing_grids_compare_shared_cells_only(self):
        fresh = copy.deepcopy(SERVE_PAYLOAD)
        fresh["cells"][1]["connections"] = 16  # grid changed
        fresh["cells"][0]["reports_per_sec"] *= 0.1  # shared cell regressed
        regressions, lines = compare(SERVE_PAYLOAD, fresh)
        assert regressions == ["connections=1,batch=4096:reports_per_sec"]
        assert any("only in baseline" in line for line in lines)
        assert any("only in fresh" in line for line in lines)

    def test_no_shared_series_is_not_a_failure(self):
        regressions, lines = compare({"cells": []}, {"cells": []})
        assert regressions == []
        assert any("no comparable" in line for line in lines)


class TestTracingMeta:
    def test_bench_meta_always_carries_the_tracing_block(self):
        from repro.bench.reporting import bench_meta

        meta = bench_meta()
        tracing = meta["tracing"]
        assert set(tracing) == {"enabled", "spans", "dropped"}
        assert tracing["enabled"] is False  # suite runs untraced

    def test_untraced_artifacts_carry_no_tracing_flag(self):
        """Baselines written before the tracing block existed must
        compare cleanly against fresh untraced runs."""
        untraced = dict(
            STREAM_PAYLOAD,
            meta={"tracing": {"enabled": False, "spans": 0, "dropped": 0}},
        )
        assert config_summary(untraced) is None
        _, lines = compare(STREAM_PAYLOAD, untraced)
        assert not any("configurations differ" in line for line in lines)

    def test_traced_run_flags_a_config_mismatch(self):
        traced = dict(
            STREAM_PAYLOAD,
            meta={"tracing": {"enabled": True, "spans": 512, "dropped": 0}},
        )
        assert config_summary(traced) == "tracing=on"
        _, lines = compare(STREAM_PAYLOAD, traced)
        assert any("configurations differ" in line for line in lines)

    def test_dropped_spans_surface_in_the_summary(self):
        lossy = dict(
            STREAM_PAYLOAD,
            meta={"tracing": {"enabled": True, "spans": 9000, "dropped": 808}},
        )
        assert config_summary(lossy) == "tracing=on spans_dropped=808"


class TestLegacyFields:
    def test_executor_fields_of_old_baselines_are_ignored(self):
        """Stream artifacts written while shards had an executor choice
        carry top-level ``executor``/``transport`` fields; they compare
        cleanly against fresh runs, which no longer write them."""
        old = dict(STREAM_PAYLOAD, executor="thread", transport=None)
        assert config_summary(old) is None
        _, lines = compare(old, STREAM_PAYLOAD)
        assert not any("configurations differ" in line for line in lines)


class TestCLI:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", STREAM_PAYLOAD)
        assert main([base, base]) == 0
        assert "no throughput regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        fresh_payload = copy.deepcopy(STREAM_PAYLOAD)
        fresh_payload["frameworks"]["hec"]["reports_per_sec"] *= 0.3
        base = self._write(tmp_path, "base.json", STREAM_PAYLOAD)
        fresh = self._write(tmp_path, "fresh.json", fresh_payload)
        assert main([base, fresh]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "hec:reports_per_sec" in out

    def test_multiple_pairs(self, tmp_path):
        stream = self._write(tmp_path, "s.json", STREAM_PAYLOAD)
        serve = self._write(tmp_path, "v.json", SERVE_PAYLOAD)
        assert main([stream, stream, serve, serve]) == 0

    def test_odd_arguments_rejected(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", STREAM_PAYLOAD)
        with pytest.raises(SystemExit) as excinfo:
            main([base])
        assert excinfo.value.code == 2

    def test_compare_artifacts_header(self, tmp_path):
        base = self._write(tmp_path, "base.json", STREAM_PAYLOAD)
        regressions, lines = compare_artifacts(base, base)
        assert regressions == []
        assert "threshold -30%" in lines[0]
