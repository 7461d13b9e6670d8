"""Gate a change on the repository benchmark: base against head.

    python3 benchmarks/perfbench_gate.py BASE_CHECKOUT HEAD_CHECKOUT

Each argument is a checkout of the repository (CI passes a worktree of
the pull request's base commit and its own checkout).  The head's
``BENCHMARK.json`` names the gated workloads, the run length and each
end-to-end metric's direction and bound.  The head's ``perfbench/`` is
copied into the base checkout first, so the two sides differ only in the
program under ``src/``.

Every workload runs once per side for each seed in :data:`SEEDS`, with
the same seed on both sides of a pair and the side that runs first
alternating between pairs.  Each run is::

    python3 perfbench/run.py --workload W --seed S --seconds RUN_SECONDS --trace 0

and its last JSON line is kept in ``perfbench-gate/runs.jsonl`` under
the head checkout.  The gate fails when any run is not correct, when the
head fails a larger share of its attempted operations than the base, or
when an end-to-end metric's head median is worse than the base median by
more than the metric's bound.  It prints one table per workload and
exits 1 on failure, 0 on a pass.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

#: One seed per pair of base and head runs.  One pair is the fewest that
#: passed two parent-against-parent runs of this gate on a shared 2-vCPU
#: host, where a pair of both gated workloads takes ~224 s.
SEEDS = (301,)

#: Directory, under the head checkout, that receives the per-run results.
OUTPUT_DIR = "perfbench-gate"

SIDES = ("base", "head")

HEADERS = ("metric", "base median [IQR]", "head median [IQR]", "ratio", "bound",
           "verdict")


def _iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def _failed_share(runs: Sequence[dict]) -> float:
    attempted = sum(run.get("attempted", 0) for run in runs)
    return sum(run.get("failed", 0) for run in runs) / max(1, attempted)


def compare(spec: dict, base: dict, head: dict) -> tuple[dict, list]:
    """Apply the gate's rule to finished runs.

    ``spec`` is a parsed ``BENCHMARK.json``; ``base`` and ``head`` map
    each workload name to the list of its runs' result objects (the last
    JSON line of ``perfbench/run.py``).  Returns ``(tables, failures)``:
    per workload, one row per end-to-end metric with the columns of
    :data:`HEADERS`, and one line per reason the gate fails, which is
    empty exactly when the gate passes.
    """
    tables: dict[str, list[tuple]] = {}
    failures: list[str] = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = {"base": base.get(workload, []), "head": head.get(workload, [])}
        for side in SIDES:
            if not runs[side]:
                failures.append(f"{workload}: no {side} runs")
            wrong = sum(run.get("correct") is not True for run in runs[side])
            if wrong:
                failures.append(
                    f"{workload}: {wrong} of {len(runs[side])} {side} runs "
                    "not correct"
                )
        shares = {side: _failed_share(runs[side]) for side in SIDES}
        if shares["head"] > shares["base"]:
            failures.append(
                f"{workload}: head failed {shares['head']:.6f} of attempted "
                f"operations, base {shares['base']:.6f}"
            )
        rows = tables[workload] = []
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], float(metric["bound"])
            values = {
                side: [
                    run["metrics"][name]["value"]
                    for run in runs[side]
                    if name in run.get("metrics", {})
                ]
                for side in SIDES
            }
            missing = [
                side for side in SIDES
                if not runs[side] or len(values[side]) < len(runs[side])
            ]
            if missing:
                verdict = f"MISSING ({', '.join(missing)})"
                failures.append(
                    f"{workload}: {name} missing from {' and '.join(missing)} "
                    "runs"
                )
                rows.append((name, "-", "-", "-", f"{bound:g}", verdict))
                continue
            medians = {
                side: statistics.median(values[side]) for side in SIDES
            }
            if metric["better"] == "higher":
                worse = medians["head"] < medians["base"] * (1 - bound)
            else:
                worse = medians["head"] > medians["base"] * (1 + bound)
            if worse:
                failures.append(
                    f"{workload}: {name} head median {medians['head']:.6g} "
                    f"vs base {medians['base']:.6g} ({metric['better']} is "
                    f"better, bound {bound:g})"
                )
            ratio = (
                f"{medians['head'] / medians['base']:.3f}"
                if medians["base"] else "-"
            )
            rows.append((
                name,
                *(
                    f"{medians[side]:.4g} [{_iqr(values[side]):.3g}]"
                    for side in SIDES
                ),
                ratio,
                f"{bound:g}",
                "WORSE" if worse else "ok",
            ))
    return tables, failures


def render(tables: dict) -> str:
    """The per-workload tables as aligned text.

    The gate imports nothing from the program it measures (a broken head
    must still get its verdict), so it does not borrow
    ``repro.bench.format_table``.
    """
    blocks = []
    for workload, rows in tables.items():
        cells = [HEADERS, *rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(HEADERS))]
        lines = [workload]
        lines += [
            "  ".join(
                value.ljust(width) for value, width in zip(row, widths)
            ).rstrip()
            for row in cells
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One end-to-end perfbench run; its last JSON line, or a failed
    result that records why no such line came."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=checkout, capture_output=True,
                               text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        "error": f"exit {completed.returncode}: {completed.stderr[-2000:]}",
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    checkouts = dict(zip(SIDES, (Path(arg).resolve() for arg in args)))
    if checkouts["base"] == checkouts["head"]:
        # Copying the head's perfbench/ over itself would delete it.
        print("BASE_CHECKOUT and HEAD_CHECKOUT must differ", file=sys.stderr)
        return 2
    spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    shutil.rmtree(checkouts["base"] / "perfbench", ignore_errors=True)
    shutil.copytree(
        checkouts["head"] / "perfbench", checkouts["base"] / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out_dir = checkouts["head"] / OUTPUT_DIR
    out_dir.mkdir(exist_ok=True)
    results: dict[str, dict[str, list]] = {side: {} for side in SIDES}
    with open(out_dir / "runs.jsonl", "w", encoding="utf-8") as log:
        for pair, seed in enumerate(SEEDS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in (entry["name"] for entry in spec["workloads"]):
                for side in order:
                    result = run_once(
                        checkouts[side], workload, seed, spec["run_seconds"]
                    )
                    results[side].setdefault(workload, []).append(result)
                    log.write(json.dumps({
                        "workload": workload, "side": side, "seed": seed,
                        "result": result,
                    }) + "\n")
                    log.flush()
                    value = result["metrics"].get("users_per_s", {}).get("value")
                    print(f"{workload} seed={seed} {side}: "
                          f"correct={result['correct']} users_per_s={value}",
                          flush=True)
                    if "error" in result:
                        print(result["error"], file=sys.stderr)
    tables, failures = compare(spec, results["base"], results["head"])
    print()
    print(render(tables))
    print()
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"perfbench gate: {'fail' if failures else 'pass'} "
          f"(base/head pairs per workload: {len(SEEDS)})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
