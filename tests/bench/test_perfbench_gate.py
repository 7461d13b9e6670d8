"""The perfbench gate's comparison rule (``benchmarks/perfbench_gate.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "perfbench_gate", ROOT / "benchmarks" / "perfbench_gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

SPEC = {
    "run_seconds": 50,
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "users_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ],
}


def _run(users_per_s=100.0, setup_s=2.0, correct=True, attempted=1000,
         failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "users_per_s": {"value": users_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


def _failures(base_runs, head_runs, spec=SPEC):
    return gate.compare(spec, {"w": base_runs}, {"w": head_runs})[1]


def test_identical_runs_pass_on_the_repository_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [
        {
            "correct": True, "attempted": 500, "failed": 0,
            "metrics": {
                metric["name"]: {"value": 1.0 + index, "unit": metric["unit"]}
                for metric in spec["end_to_end"]
            },
        }
        for index in range(3)
    ]
    results = {workload["name"]: runs for workload in spec["workloads"]}
    tables, failures = gate.compare(spec, results, results)
    assert failures == []
    assert set(tables) == {workload["name"] for workload in spec["workloads"]}
    for rows in tables.values():
        assert [row[0] for row in rows] == [m["name"] for m in spec["end_to_end"]]
        assert all(row[3] == "1.000" and row[5] == "ok" for row in rows)


def test_higher_is_better_loss_at_the_bound_passes_beyond_it_fails():
    base = [_run(users_per_s=100.0)]
    assert _failures(base, [_run(users_per_s=75.0)]) == []
    failures = _failures(base, [_run(users_per_s=74.99)])
    assert len(failures) == 1 and "users_per_s" in failures[0]


def test_lower_is_better_loss_at_the_bound_passes_beyond_it_fails():
    base = [_run(setup_s=2.0)]
    assert _failures(base, [_run(setup_s=2.5)]) == []
    failures = _failures(base, [_run(setup_s=2.51)])
    assert len(failures) == 1 and "setup_s" in failures[0]


def test_gains_in_either_direction_pass():
    assert _failures([_run()], [_run(users_per_s=500.0, setup_s=0.1)]) == []


def test_medians_decide_not_single_runs():
    base = [_run(users_per_s=value) for value in (100.0, 100.0, 100.0)]
    head = [_run(users_per_s=value) for value in (10.0, 100.0, 100.0)]
    assert _failures(base, head) == []
    head = [_run(users_per_s=value) for value in (10.0, 10.0, 100.0)]
    assert _failures(base, head) != []


@pytest.mark.parametrize("side", ["base", "head"])
def test_an_incorrect_run_on_either_side_fails(side):
    runs = {"base": [_run(), _run()], "head": [_run(), _run()]}
    runs[side][1] = _run(correct=False)
    failures = _failures(runs["base"], runs["head"])
    assert len(failures) == 1
    assert f"1 of 2 {side} runs not correct" in failures[0]


def test_a_higher_failed_share_at_the_head_fails():
    base = [_run(attempted=1000, failed=1)]
    assert _failures(base, [_run(attempted=1000, failed=1)]) == []
    assert _failures(base, [_run(attempted=2000, failed=1)]) == []
    failures = _failures(base, [_run(attempted=1000, failed=2)])
    assert len(failures) == 1 and "failed" in failures[0]


@pytest.mark.parametrize("side", ["base", "head"])
def test_a_metric_missing_on_one_side_fails_by_name(side):
    runs = {"base": [_run()], "head": [_run()]}
    del runs[side][0]["metrics"]["setup_s"]
    tables, failures = gate.compare(
        SPEC, {"w": runs["base"]}, {"w": runs["head"]}
    )
    assert failures == [f"w: setup_s missing from {side} runs"]
    assert tables["w"][1][5] == f"MISSING ({side})"


def test_a_workload_without_runs_fails():
    assert _failures([_run()], []) == [
        "w: no head runs", "w: users_per_s missing from head runs",
        "w: setup_s missing from head runs",
    ]


def test_render_prints_every_column():
    tables, _ = gate.compare(SPEC, {"w": [_run()]}, {"w": [_run(setup_s=3.0)]})
    text = gate.render(tables)
    lines = text.splitlines()
    assert lines[0] == "w"
    for header in gate.HEADERS:
        assert header in lines[1]
    assert "WORSE" in lines[3] and "setup_s" in lines[3]


def test_one_checkout_for_both_sides_is_refused(tmp_path):
    (tmp_path / "perfbench").mkdir()
    assert gate.main([str(tmp_path), str(tmp_path / ".")]) == 2
    assert (tmp_path / "perfbench").is_dir()


@pytest.mark.parametrize(
    "argv", [[], ["base"], ["base", "head", "extra"]],
    ids=["none", "one", "three"],
)
def test_anything_but_two_checkouts_is_a_usage_error(capsys, argv):
    assert gate.main(argv) == 2
    assert "BASE_CHECKOUT HEAD_CHECKOUT" in capsys.readouterr().err


def test_the_ratio_reads_a_dash_when_the_base_median_is_zero():
    tables, failures = gate.compare(
        SPEC, {"w": [_run(setup_s=0.0)]}, {"w": [_run(setup_s=0.0)]}
    )
    assert failures == []
    assert tables["w"][1][3] == "-"


def test_failures_name_the_workload_that_lost():
    spec = dict(SPEC, workloads=[{"name": "a"}, {"name": "b"}])
    base = {"a": [_run()], "b": [_run()]}
    head = {"a": [_run()], "b": [_run(users_per_s=10.0)]}
    tables, failures = gate.compare(spec, base, head)
    assert len(failures) == 1 and failures[0].startswith("b: users_per_s")
    assert [row[5] for row in tables["a"]] == ["ok", "ok"]
    assert [row[5] for row in tables["b"]] == ["WORSE", "ok"]


def test_the_table_shows_medians_and_interquartile_ranges():
    base = [_run(users_per_s=value) for value in (1.0, 2.0, 3.0, 4.0, 5.0)]
    tables, _ = gate.compare(SPEC, {"w": base}, {"w": [_run(users_per_s=3.0)]})
    assert tables["w"][0][1:4] == ("3 [2]", "3 [0]", "1.000")


# A stand-in for ``perfbench/run.py``: it echoes its command line and the
# checkout's ``src/speed`` in the JSON verdict, after a line of other
# output, so a test can tell which checkout ran which run.
FAKE_RUN = """\
import json, sys
from pathlib import Path
print("provenance: fake")
speed = float(Path("src/speed").read_text())
print(json.dumps({
    "correct": True, "attempted": 10, "failed": 0, "argv": sys.argv[1:],
    "metrics": {"users_per_s": {"value": speed, "unit": "1/s"}},
}))
"""


def _checkout(path, run_py=FAKE_RUN, speed=100.0, workloads=("w",)):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(run_py)
    (path / "src").mkdir()
    (path / "src" / "speed").write_text(str(speed))
    (path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "workloads": [{"name": name} for name in workloads],
        "end_to_end": [
            {"name": "users_per_s", "better": "higher", "bound": 0.25}
        ],
    }))
    return path


def test_run_once_keeps_the_last_json_line_of_the_run(tmp_path):
    result = gate.run_once(_checkout(tmp_path), "w", 5, 7)
    assert result["correct"] is True
    assert result["argv"] == [
        "--workload", "w", "--seed", "5", "--seconds", "7", "--trace", "0",
    ]
    assert result["metrics"]["users_per_s"]["value"] == 100.0


def test_run_once_records_a_crash_as_a_failed_run(tmp_path):
    crash = "import sys\nprint('{}')\nsys.exit('collector died')\n"
    result = gate.run_once(_checkout(tmp_path, run_py=crash), "w", 1, 7)
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 1, 1,
    )
    assert result["metrics"] == {}
    assert result["error"].startswith("exit 1:")
    assert "collector died" in result["error"]


def test_run_once_records_a_run_without_a_json_verdict_as_failed(tmp_path):
    result = gate.run_once(
        _checkout(tmp_path, run_py="print('no verdict')\n"), "w", 1, 7
    )
    assert result["correct"] is False
    assert result["error"].startswith("exit 0:")


def test_both_sides_run_the_heads_perfbench(tmp_path, capsys):
    base = _checkout(tmp_path / "base", run_py="raise SystemExit(3)\n")
    (base / "perfbench" / "stale.py").write_text("")
    head = _checkout(tmp_path / "head", speed=90.0)
    (head / "perfbench" / "__pycache__").mkdir()
    assert gate.main([str(base), str(head)]) == 0
    assert sorted(p.name for p in (base / "perfbench").iterdir()) == ["run.py"]
    lines = (head / gate.OUTPUT_DIR / "runs.jsonl").read_text().splitlines()
    speeds = {
        entry["side"]: entry["result"]["metrics"]["users_per_s"]["value"]
        for entry in map(json.loads, lines)
    }
    # Same script on both sides; only the program under src/ differs.
    assert speeds == {"base": 100.0, "head": 90.0}
    assert "perfbench gate: pass" in capsys.readouterr().out


def test_the_heads_spec_decides_workloads_and_run_length(tmp_path, monkeypatch):
    base = _checkout(tmp_path / "base", workloads=("old",))
    head = _checkout(tmp_path / "head", workloads=("a", "b"))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((workload, seconds))
        return _run()

    monkeypatch.setattr(gate, "run_once", fake_run_once)
    gate.main([str(base), str(head)])
    assert sorted(set(calls)) == [("a", 7), ("b", 7)]


def test_pairs_share_a_seed_and_alternate_the_first_side(tmp_path, monkeypatch):
    base = _checkout(tmp_path / "base")
    head = _checkout(tmp_path / "head")
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((seed, "base" if checkout == base else "head"))
        return _run()

    monkeypatch.setattr(gate, "SEEDS", (11, 12, 13))
    monkeypatch.setattr(gate, "run_once", fake_run_once)
    assert gate.main([str(base), str(head)]) == 0
    assert calls == [
        (11, "base"), (11, "head"),
        (12, "head"), (12, "base"),
        (13, "base"), (13, "head"),
    ]
    logged = (head / gate.OUTPUT_DIR / "runs.jsonl").read_text().splitlines()
    assert [(e["seed"], e["side"]) for e in map(json.loads, logged)] == calls


@pytest.mark.parametrize(
    ("head_speed", "code", "verdict"),
    [(80.0, 0, "pass"), (70.0, 1, "fail")],
    ids=["within-bound", "beyond-bound"],
)
def test_the_exit_code_follows_the_verdict(tmp_path, capsys, head_speed, code,
                                           verdict):
    base = _checkout(tmp_path / "base", speed=100.0)
    head = _checkout(tmp_path / "head", speed=head_speed)
    assert gate.main([str(base), str(head)]) == code
    out = capsys.readouterr().out
    assert f"perfbench gate: {verdict}" in out
    assert ("FAIL w: users_per_s" in out) == (code == 1)
