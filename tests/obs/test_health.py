"""Health verdicts: quantile math, per-check grading, drift windowing."""

import pytest

from repro.obs import series_key
from repro.obs.health import (
    HEALTH_SCHEMA,
    HealthMonitor,
    HealthPolicy,
    evaluate_health,
    histogram_quantile,
    worst,
)


class TestWorst:
    def test_empty_is_pass(self):
        assert worst([]) == "pass"

    def test_orders_verdicts(self):
        assert worst(["pass", "warn"]) == "warn"
        assert worst(["warn", "fail", "pass"]) == "fail"

    def test_unknown_verdicts_count_as_pass(self):
        assert worst(["bogus"]) == "pass"


class TestHistogramQuantile:
    def test_empty_histogram_is_zero(self):
        state = {"edges": [0.1, 1.0, float("inf")], "counts": [0, 0, 0]}
        assert histogram_quantile(state, 0.99) == 0.0

    def test_interpolates_inside_the_winning_bucket(self):
        # 10 observations in [0, 1): the median lands mid-bucket.
        state = {"edges": [1.0, float("inf")], "counts": [10, 0]}
        assert histogram_quantile(state, 0.5) == pytest.approx(0.5)

    def test_spans_buckets(self):
        state = {"edges": [1.0, 2.0, float("inf")], "counts": [5, 5, 0]}
        assert histogram_quantile(state, 0.75) == pytest.approx(1.5)

    def test_overflow_clamps_to_last_finite_edge(self):
        state = {"edges": [1.0, 2.0, float("inf")], "counts": [0, 0, 7]}
        # All mass beyond the finite edges: clamp, don't return inf.
        assert histogram_quantile(state, 0.99) == 2.0

    @pytest.mark.parametrize("q", [-0.1, 1.5])
    def test_quantile_domain_validated(self, q):
        state = {"edges": [1.0], "counts": [1]}
        with pytest.raises(ValueError):
            histogram_quantile(state, q)


def _session_stats(**overrides):
    stats = {
        "session": "cohort",
        "pending": 0,
        "high_water": 1000,
        "stalled": False,
        "stall_seconds": 0.0,
    }
    stats.update(overrides)
    return stats


def _checks(verdict, name):
    return [c for c in verdict["checks"] if c["check"] == name]


class TestEvaluateHealth:
    def test_healthy_session_passes(self):
        verdict = evaluate_health([_session_stats()])
        assert verdict["schema"] == HEALTH_SCHEMA
        assert verdict["status"] == "pass"
        assert {c["status"] for c in verdict["checks"]} == {"pass"}

    def test_ingest_lag_warns_then_fails(self):
        warn = evaluate_health([_session_stats(pending=600)])
        [lag] = _checks(warn, "ingest_lag")
        assert lag["status"] == "warn"
        assert lag["session"] == "cohort"
        assert "600 pending of 1000" in lag["reason"]

        fail = evaluate_health([_session_stats(pending=1500)])
        [lag] = _checks(fail, "ingest_lag")
        assert lag["status"] == "fail"
        assert fail["status"] == "fail"

    def test_lag_check_skipped_without_high_water(self):
        verdict = evaluate_health([_session_stats(high_water=0, pending=99)])
        assert _checks(verdict, "ingest_lag") == []

    def test_stall_grading_and_in_progress_marker(self):
        verdict = evaluate_health(
            [_session_stats(stall_seconds=2.0, stalled=True)]
        )
        [stall] = _checks(verdict, "backpressure_stall")
        assert stall["status"] == "warn"
        assert "stall in progress" in stall["reason"]

        verdict = evaluate_health([_session_stats(stall_seconds=45.0)])
        [stall] = _checks(verdict, "backpressure_stall")
        assert stall["status"] == "fail"
        assert "in progress" not in stall["reason"]

    def test_drift_rate_judged_against_baseline(self):
        snapshot = {
            "counters": {'serve_drift_events_total{session="cohort"}': 12}
        }
        cumulative = evaluate_health([_session_stats()], snapshot)
        [drift] = _checks(cumulative, "drift_rate")
        assert drift["status"] == "fail"  # 12 fresh events >= drift_fail

        windowed = evaluate_health(
            [_session_stats()], snapshot, drift_baseline={"cohort": 12}
        )
        [drift] = _checks(windowed, "drift_rate")
        assert drift["status"] == "pass"
        assert drift["value"] == 0

    @pytest.mark.parametrize(
        "check,family",
        [
            ("flush_latency", "serve_flush_seconds"),
            ("query_latency", "serve_query_seconds"),
        ],
    )
    def test_latency_from_histogram(self, check, family):
        snapshot = {
            "histograms": {
                f'{family}{{session="cohort"}}': {
                    "edges": [5.0, float("inf")],
                    "counts": [100, 0],
                }
            }
        }
        verdict = evaluate_health([_session_stats()], snapshot)
        [latency] = _checks(verdict, check)
        # p99 of a [0, 5) bucket interpolates to ~4.95s: warn territory.
        assert latency["status"] == "warn"
        assert latency["session"] == "cohort"
        assert latency["reason"].startswith(f"{family} p99")

    def test_empty_histograms_skipped(self):
        snapshot = {
            "histograms": {
                'serve_flush_seconds{session="cohort"}': {
                    "edges": [1.0, float("inf")],
                    "counts": [0, 0],
                }
            }
        }
        verdict = evaluate_health([_session_stats()], snapshot)
        assert _checks(verdict, "flush_latency") == []

    def test_only_the_sessions_passed_in_are_graded(self):
        snapshot = {
            "counters": {'serve_drift_events_total{session="gone"}': 4},
            "histograms": {
                'serve_query_seconds{session="gone"}': {
                    "edges": [5.0, float("inf")],
                    "counts": [100, 0],
                }
            },
        }
        verdict = evaluate_health([_session_stats()], snapshot)
        assert {c["session"] for c in verdict["checks"]} == {"cohort"}

    def test_policy_thresholds_can_be_disabled(self):
        policy = HealthPolicy(stall_warn=None, stall_fail=None)
        verdict = evaluate_health(
            [_session_stats(stall_seconds=9999.0)], policy=policy
        )
        [stall] = _checks(verdict, "backpressure_stall")
        assert stall["status"] == "pass"


class TestHealthMonitor:
    def test_drift_window_resets_between_evaluations(self):
        monitor = HealthMonitor()
        snapshot = {
            "counters": {'serve_drift_events_total{session="cohort"}': 3}
        }
        first = monitor.evaluate([_session_stats()], snapshot)
        [drift] = _checks(first, "drift_rate")
        assert drift["status"] == "warn"
        assert drift["value"] == 3

        # Same cumulative count again: no new events, back to pass.
        second = monitor.evaluate([_session_stats()], snapshot)
        [drift] = _checks(second, "drift_rate")
        assert drift["status"] == "pass"
        assert monitor.last is second

    def test_custom_policy_threads_through(self):
        monitor = HealthMonitor(policy=HealthPolicy(stall_warn=0.001))
        verdict = monitor.evaluate([_session_stats(stall_seconds=0.01)])
        [stall] = _checks(verdict, "backpressure_stall")
        assert stall["status"] == "warn"

    def test_session_ids_with_commas_and_quotes_attribute_exactly(self):
        """Session ids are any string a HELLO names.  Each session's
        series are looked up by its exact series key, so ids that a label
        parser would split (commas) or unescape (quotes) grade as
        themselves and keep separate drift windows."""
        ids = ("a,b", "a,c", 'x"y')
        drift = dict(zip(ids, (3, 5, 1)))
        latency = {"edges": [5.0, float("inf")], "counts": [100, 0]}
        snapshot = {
            "counters": {
                series_key("serve_drift_events_total", {"session": sid}): n
                for sid, n in drift.items()
            },
            "histograms": {
                series_key(family, {"session": sid}): latency
                for sid in ids
                for family in ("serve_flush_seconds", "serve_query_seconds")
            },
        }
        sessions = [_session_stats(session=sid) for sid in ids]
        monitor = HealthMonitor()
        first = monitor.evaluate(sessions, snapshot)
        for check in ("drift_rate", "flush_latency", "query_latency"):
            assert sorted(c["session"] for c in _checks(first, check)) == sorted(ids)
        assert {c["session"]: c["value"] for c in _checks(first, "drift_rate")} == drift

        # Each window closed on its own count: nothing fresh anywhere.
        second = monitor.evaluate(sessions, snapshot)
        assert {c["session"]: c["value"] for c in _checks(second, "drift_rate")} == {
            sid: 0 for sid in ids
        }
