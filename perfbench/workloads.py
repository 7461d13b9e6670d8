"""The benchmark's four workloads, driven only through public APIs.

``estimate-protocol`` and ``topk-protocol`` run in this process: the
paper's two multi-class queries in protocol mode, where every user's
report is privatised and aggregated.  ``serve-simulate`` and
``serve-protocol`` start the collector as its own process and drive it
from this one over TCP: a closed-loop ingest connection under TCP
backpressure plus an open-loop query connection.

Each workload function returns a :class:`Result`; ``run.py`` turns it
into the printed metrics.  ``run.py`` puts this checkout's ``src`` on the
import path before importing this module.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from repro.core.frameworks import make_framework
from repro.core.topk.scheme import MultiClassTopK
from repro.core.variance import (
    cp_variance_matrix,
    hec_variance_matrix,
    ldp_variance_matrix,
    pts_variance_matrix,
)
from repro.datasets import zipf_multiclass
from repro.mechanisms.adaptive import make_adaptive
from repro.serve import ReportClient

import layers
from loadstats import (
    Outcomes,
    highest_supported_percentile,
    latencies_from_due,
    lateness,
    median,
    nearest_rank,
    schedule,
)
from spans import Recorder, Span

clock = time.monotonic

#: Shared population: Zipf(1.05) item popularity per class (independent
#: per-class item orders) and class weights drawn from Dirichlet(5).
N_CLASSES = 5
ZIPF_S = 1.05
CLASS_DIRICHLET = 5.0

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

ESTIMATE = dict(
    frameworks=("hec", "ptj", "pts", "pts-cp"),
    n_users=200_000,
    n_items=256,
    epsilon=1.0,
    warmup_users=10_000,
)

TOPK = dict(
    # (framework, optimized): HEC, PTS, PTJ-Shuffling+VP,
    # PTS-Shuffling+VP+CP+Global.
    schemes=(("hec", False), ("pts", False), ("ptj", True), ("pts", True)),
    n_users=1_000_000,
    n_items=4096,
    epsilon=4.0,
    k=20,
    warmup_users=20_000,
)

SERVE = dict(
    framework="pts",
    n_items=256,
    epsilon=1.0,
    # Protocol mode privatises on the shard threads, so two shards use
    # both cores.  Simulate mode's critical path is the event loop, and
    # one shard keeps up with it; a second shard thread only adds a
    # runnable thread to two cores already shared by the loop and the
    # load generator, and the run then measures the scheduler.
    shards={"simulate": 1, "protocol": 2},
    # The ingest stream replays a 1M-user population in 64k-user sends
    # of 8k-report frames: simulate mode ingests ~20M reports/s, so no
    # fresh population could fill a run.
    n_users=1 << 20,
    send_users=1 << 16,
    frame_reports=1 << 13,
    # Before timing, each set-up streams for this long, so that socket
    # buffers, the ring and the sort arena reach their working sizes.
    warmup_seconds=1.0,
    # Open-loop estimate queries, one per interval.  A simulate-mode
    # query answers in ~10 ms, so a few milliseconds of scheduling delay
    # move any one sample a lot; ten a second give ~500 samples in a
    # 50 s run.  A protocol-mode query waits ~0.1 s for the drain, so
    # one per 0.3 s keeps the collector out of queries most of the time
    # and still gives ~166, above the 100 that a p90 with ten samples
    # beyond it needs.
    query_interval={"simulate": 0.1, "protocol": 0.3},
    # A query waits until every pending report has drained.  Simulate
    # mode drains a default-sized backlog (high water 262,144) in
    # milliseconds, so it runs the collector's defaults.  Protocol mode
    # drains ~0.3M reports/s, so a default backlog holds each query for
    # about a second and the open-loop schedule would fall ever further
    # behind; its collector caps the backlog so that a query finishes
    # well inside one interval.
    collector_args={
        "simulate": (),
        "protocol": ("--flush-reports", "8192", "--high-water", "16384"),
    },
)

#: Correctness limits, checked on each run's mean per framework or
#: scheme.  rmse_ratio is observed RMSE over the RMSE the core.variance
#: closed forms predict at the true counts: about 1 for PTJ, below 1 where
#: the closed form is an upper bound (PTS, PTS-CP), above 1 for HEC
#: (Theorem 4's bias from deniability reports).
RMSE_RATIO_CEILING = {"hec": 1.5, "ptj": 1.3, "pts": 1.3, "pts-cp": 1.3}
#: Floor on each scheme's mean per-class F1 of the mined top-k, about
#: half of what a healthy run reads.
TOPK_F1_FLOOR = 0.15

SRC = Path(__file__).resolve().parent.parent / "src"
HERE = Path(__file__).resolve().parent


@dataclass
class Result:
    """Everything one run measured."""

    outcomes: Outcomes = field(default_factory=Outcomes)
    users_per_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    rmse_ratio: dict = field(default_factory=dict)
    topk_f1: Optional[float] = None
    query_p50_ms: Optional[float] = None
    query_p90_ms: Optional[float] = None
    generate_s: float = 0.0
    layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# population and scoring (computed here, independent of the program)
# ----------------------------------------------------------------------
def population(seed: int, n_users: int, n_items: int):
    """The seeded population as a ``LabelItemDataset``."""
    rng = np.random.default_rng([seed, n_items])
    sizes = rng.multinomial(
        n_users, rng.dirichlet(np.full(N_CLASSES, CLASS_DIRICHLET))
    )
    return zipf_multiclass(
        n_users, N_CLASSES, n_items, zipf_s=ZIPF_S, class_sizes=sizes, rng=rng
    )


def pair_counts(labels: np.ndarray, items: np.ndarray, n_items: int) -> np.ndarray:
    flat = np.bincount(
        labels.astype(np.int64) * n_items + items, minlength=N_CLASSES * n_items
    )
    return flat.reshape(N_CLASSES, n_items)


def true_topk(counts: np.ndarray, k: int) -> list[list[int]]:
    """Per-class top-k, most frequent first, ties toward the smaller id."""
    ids = np.arange(counts.shape[1])
    return [
        [int(i) for i in np.lexsort((ids, -row))[:k]] for row in counts
    ]


def mean_f1(mined: dict, truth: list[list[int]]) -> float:
    """Mean over classes of |mined ∩ true| / k (the paper's top-k F1)."""
    scores = [
        len(set(mined.get(label, [])) & set(top)) / len(top)
        for label, top in enumerate(truth)
    ]
    return float(np.mean(scores))


def rmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    diff = np.asarray(estimate, dtype=np.float64) - truth
    return float(np.sqrt(np.mean(diff * diff)))


def predicted_rmse(name: str, truth: np.ndarray, epsilon: float) -> float:
    """RMSE the core.variance closed forms predict at the true counts."""
    c, d = truth.shape
    n = float(truth.sum())
    class_sizes = truth.sum(axis=1)
    if name == "ptj":
        oracle = make_adaptive(epsilon, c * d)
        variance = ldp_variance_matrix(truth, n, oracle.p, oracle.q)
    elif name == "hec":
        oracle = make_adaptive(epsilon, d)
        variance = hec_variance_matrix(
            truth, np.full(c, n / c), n, oracle.p, oracle.q
        )
    elif name == "pts":
        fw = make_framework("pts", epsilon, c, d)
        variance = pts_variance_matrix(
            truth, class_sizes, n, fw.p1, fw.q1, fw.p2, fw.q2
        )
    else:
        cp = make_framework("pts-cp", epsilon, c, d).mechanism
        variance = cp_variance_matrix(
            truth, class_sizes, n, cp.p1, cp.q1, cp.p2, cp.q2
        )
    return float(np.sqrt(np.mean(variance)))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a whole process, read from outside."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One call into the program, timed, then scored."""

    name: str
    call: Callable
    score: Callable


def _run_calls(ops: list[Op], seconds: float, outcomes: Outcomes, seed: int):
    """Call every op in turn, round after round, until ``seconds`` pass.

    Returns each op's call latencies.  Ops are scored after their call,
    outside its timing; a failed call counts in ``outcomes``.
    """
    latencies: dict[str, list[float]] = {op.name: [] for op in ops}
    start = clock()
    turn = 0
    while turn == 0 or clock() - start < seconds:
        for op in ops:
            outcomes.attempt()
            rng = np.random.default_rng([seed, turn, len(latencies[op.name])])
            begin = clock()
            try:
                answer = op.call(rng)
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                outcomes.fail(f"{op.name}: {type(error).__name__}: {error}")
                continue
            latencies[op.name].append(clock() - begin)
            op.score(answer)
        turn += 1
    return latencies


def _throughput(users: int, latencies: dict) -> float:
    """Users carried per second of call time, over every call of the run.

    A time-weighted mean rather than a median of rounds: on a shared
    host whose cores slow ~1.5x in phases of 5-20 s, a median of a
    handful of rounds jumps between the fast and the slow speed."""
    calls = sum(len(v) for v in latencies.values())
    return users * calls / sum(sum(v) for v in latencies.values())


def _estimate_ops(dataset, truth, spec, scores) -> list[Op]:
    ops = []
    for name in spec["frameworks"]:
        predicted = predicted_rmse(name, truth, spec["epsilon"])

        def call(rng, name=name):
            framework = make_framework(
                name, spec["epsilon"], N_CLASSES, spec["n_items"],
                mode="protocol", rng=rng,
            )
            return framework.estimate_frequencies(dataset)

        def score(estimate, name=name, predicted=predicted):
            scores.setdefault(name, []).append(rmse(estimate, truth) / predicted)

        ops.append(Op(name, call, score))
    return ops


def _topk_ops(dataset, truth, spec, scores) -> list[Op]:
    true_top = true_topk(truth, spec["k"])
    ops = []
    for framework, optimized in spec["schemes"]:
        describe = MultiClassTopK.for_framework(
            framework, spec["k"], spec["epsilon"], N_CLASSES, spec["n_items"],
            optimized=optimized,
        ).describe()

        def call(rng, framework=framework, optimized=optimized):
            scheme = MultiClassTopK.for_framework(
                framework, spec["k"], spec["epsilon"], N_CLASSES,
                spec["n_items"], optimized=optimized, mode="protocol", rng=rng,
            )
            return scheme.mine(dataset)

        def score(mined, describe=describe):
            scores.setdefault(describe, []).append(mean_f1(mined, true_top))

        ops.append(Op(describe, call, score))
    return ops


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    """``estimate-protocol`` or ``topk-protocol``."""
    result = Result()
    outcomes = result.outcomes
    spec = ESTIMATE if workload == "estimate-protocol" else TOPK
    make_ops = _estimate_ops if workload == "estimate-protocol" else _topk_ops

    setups, generates = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        began = clock()
        dataset = population(seed, spec["n_users"], spec["n_items"])
        generates.append(clock() - began)
        # First calls pay lazy set-up (kernel backend resolution, JIT
        # compilation when numba is present) on a small population.
        warm = population(seed + 1, spec["warmup_users"], spec["n_items"])
        warm_truth = pair_counts(warm.labels, warm.items, spec["n_items"])
        for op in make_ops(warm, warm_truth, spec, {}):
            op.call(np.random.default_rng(seed))
        setups.append(clock() - began)
    result.setup_s = median(setups)
    result.generate_s = median(generates)
    truth = pair_counts(dataset.labels, dataset.items, spec["n_items"])
    users = spec["n_users"]

    scores: dict = {}
    ops = make_ops(dataset, truth, spec, scores)
    recorder = None
    if trace:
        # Untraced reference half first: the wrappers stay once installed.
        cpu0 = time.process_time()
        reference = _run_calls(ops, seconds / 2, outcomes, seed)
        cpu = time.process_time() - cpu0
        reference_rate = _throughput(users, reference)
        calls = sum(len(v) for v in reference.values())
        result.layer["process.cpu_s_per_muser"] = cpu / (users * calls) * 1e6
        recorder = Recorder(clock)
        layers.install_engine(recorder)
        window_start = clock()
        latencies = _run_calls(ops, seconds / 2, outcomes, seed + 1)
        window_end = clock()
    else:
        latencies = _run_calls(ops, seconds, outcomes, seed)
    result.users_per_s = _throughput(users, latencies)
    result.notes["calls"] = sum(len(v) for v in latencies.values())
    result.peak_rss_mb = peak_rss_mb()

    for name, values in scores.items():
        mean = float(np.mean(values))
        if workload == "estimate-protocol":
            result.rmse_ratio[name] = mean
            outcomes.check(
                mean < RMSE_RATIO_CEILING[name],
                f"{name} rmse_ratio above {RMSE_RATIO_CEILING[name]}",
            )
        else:
            result.notes[f"f1[{name}]"] = round(mean, 4)
            outcomes.check(
                mean > TOPK_F1_FLOOR, f"{name} top-k F1 below {TOPK_F1_FLOOR}"
            )
    if workload == "topk-protocol":
        result.topk_f1 = float(np.mean([f1 for v in scores.values() for f1 in v]))

    if recorder is not None:
        summary = layers.summarize(
            recorder.spans, window_start, window_end, threading.get_ident()
        )
        result.layer.update(summary["metrics"])
        result.layer["trace.overhead_frac"] = (
            reference_rate / result.users_per_s - 1.0
        )
        result.notes["layer_self_share_of_wall"] = {
            layer: round(total / (window_end - window_start), 4)
            for layer, total in sorted(summary["layer_self_s"].items())
        }
        if workload == "topk-protocol":
            result.layer["core.topk.candidate_recall"] = _candidate_recall(
                recorder, window_start, window_end, truth, spec["k"]
            )
    return result


def _candidate_recall(recorder, start, end, truth, k) -> float:
    """Share of the true per-class top-k still among the candidates the
    per-class miners hold before their final round (HEC and PTS
    pipelines; the joint PTJ pipeline hands out no per-class set)."""
    true_top = true_topk(truth, k)
    kept = found = 0
    spans = [s for s in recorder.spans if start <= s.start and s.end <= end]
    for classes in layers.classwise_candidates(spans):
        if len(classes) != N_CLASSES:
            continue
        for label, candidates in enumerate(classes):
            if candidates is None:
                continue
            kept += len(true_top[label])
            found += len(set(true_top[label]) & set(np.asarray(candidates).tolist()))
    return found / kept if kept else 0.0


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
def _default_sigint() -> None:
    # A shell starts background jobs with SIGINT ignored, and the child
    # would inherit that; the collector settles and exits on SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Collector:
    """The collector process: ``python -m repro.serve`` or, traced, the
    benchmark's launcher that wraps it."""

    def __init__(self, mode: str, traced: bool, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.spans_path = workdir / f"spans-{id(self)}.json" if traced else None
        if traced:
            command = [sys.executable, "-u", str(HERE / "collector_launcher.py"),
                       str(self.spans_path)]
        else:
            command = [sys.executable, "-u", "-m", "repro.serve"]
        command += ["--port", "0", "--shards", str(SERVE["shards"][mode]),
                    *SERVE["collector_args"][mode]]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, text=True,
            preexec_fn=_default_sigint,
        )
        line = self.process.stdout.readline()
        if "collecting reports on" not in line:
            self.stop()
            raise RuntimeError(f"collector did not start: {line!r}")
        host, port = line.strip().rsplit(" ", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGINT (the collector settles and exits), then wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def spans(self):
        document = json.loads(self.spans_path.read_text())
        return document["loop_thread"], [Span(*row) for row in document["spans"]]


@dataclass
class Stream:
    """The replayed population, cut into equal sends with their counts."""

    labels: list
    items: list
    counts: list

    @classmethod
    def build(cls, dataset) -> "Stream":
        step = SERVE["send_users"]
        labels = dataset.labels.astype(np.int32)
        items = dataset.items.astype(np.int32)
        out = cls([], [], [])
        for start in range(0, labels.size, step):
            out.labels.append(labels[start:start + step])
            out.items.append(items[start:start + step])
            out.counts.append(
                pair_counts(out.labels[-1], out.items[-1], SERVE["n_items"])
            )
        return out


def _session_config(mode: str, seed: int) -> dict:
    return dict(
        session="perfbench", framework=SERVE["framework"],
        epsilon=SERVE["epsilon"], n_classes=N_CLASSES,
        n_items=SERVE["n_items"], mode=mode, seed=seed,
    )


async def _warm(ingest, query, stream: Stream, outcomes: Outcomes):
    """Stream for ``warmup_seconds``, wait until the collector holds
    every report, query once.

    Returns the pair counts of the reports sent and the index of the
    next send.
    """
    truth = np.zeros((N_CLASSES, SERVE["n_items"]), dtype=np.int64)
    deadline = clock() + SERVE["warmup_seconds"]
    turn = 0
    while turn == 0 or clock() < deadline:
        index = turn % len(stream.labels)
        outcomes.attempt()
        await ingest.send(stream.labels[index], stream.items[index],
                          chunk_size=SERVE["frame_reports"])
        truth += stream.counts[index]
        turn += 1
    sent = int(truth.sum())
    while (await query.server_stats())["collector"]["reports_ingested"] < sent:
        await asyncio.sleep(0.005)
    outcomes.attempt()
    await query.estimate()
    return truth, turn


async def _warm_only(collector: Collector, config: dict, stream: Stream) -> None:
    ingest = await ReportClient.connect(collector.host, collector.port, **config)
    query = await ReportClient.connect(collector.host, collector.port, **config)
    await _warm(ingest, query, stream, Outcomes())
    await ingest.close()
    await query.close()


async def _drive(collector, config, stream, seconds, outcomes):
    """Warm up, then the timed section: closed-loop ingest plus open-loop
    queries, then BYE and the final checks."""
    ingest = await ReportClient.connect(collector.host, collector.port, **config)
    query = await ReportClient.connect(collector.host, collector.port, **config)
    truth, first_turn = await _warm(ingest, query, stream, outcomes)
    sent = int(truth.sum())
    before = await query.server_stats()
    out: dict = {
        "setup_end": clock(),
        "pending": [],
        "stall0": sum(s["stall_seconds"] for s in before["sessions"]),
        "cpu0": process_cpu_s(collector.pid),
    }
    start = out["start"] = clock()
    deadline = start + seconds
    due = schedule(start, SERVE["query_interval"][config["mode"]], seconds)
    issued, done, failed_queries = [], [], 0
    window_sent = 0

    async def ingest_loop():
        nonlocal sent, truth, window_sent
        turn = first_turn
        while clock() < deadline:
            index = turn % len(stream.labels)
            outcomes.attempt()
            try:
                await ingest.send(stream.labels[index], stream.items[index],
                                  chunk_size=SERVE["frame_reports"])
            except (ConnectionError, OSError) as error:
                outcomes.fail(f"send: {type(error).__name__}: {error}")
                break
            n = int(stream.labels[index].size)
            sent += n
            window_sent += n
            truth = truth + stream.counts[index]
            turn += 1
        outcomes.attempt()
        out["confirmed"] = await ingest.close()
        out["end"] = clock()
        out["cpu1"] = process_cpu_s(collector.pid)

    async def query_loop():
        nonlocal failed_queries
        for when in due:
            wait = when - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            issued.append(clock())
            outcomes.attempt()
            try:
                await query.estimate()
            except Exception as error:  # noqa: BLE001 - counted, schedule goes on
                outcomes.fail(f"query: {type(error).__name__}: {error}")
                failed_queries += 1
            done.append(clock())
            stats = await query.server_stats()
            out["pending"].extend(s["pending"] for s in stats["sessions"])

    ingest_task = asyncio.create_task(ingest_loop(), name=layers.INGEST_TASK)
    query_task = asyncio.create_task(query_loop(), name="perfbench-query")
    await asyncio.gather(ingest_task, query_task)

    outcomes.attempt()
    estimate = await query.estimate()
    outcomes.attempt()
    session_stats = await query.stats()
    outcomes.attempt()
    server = await query.server_stats()
    await query.close()
    out.update(
        sent=sent, window_sent=window_sent, truth=truth, estimate=estimate,
        session=session_stats, server=server, due=due, issued=issued,
        done=done, failed_queries=failed_queries,
    )
    return out


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              workdir: Path) -> Result:
    """``serve-simulate`` or ``serve-protocol``."""
    result = Result()
    outcomes = result.outcomes
    mode = "simulate" if workload == "serve-simulate" else "protocol"
    config = _session_config(mode, seed)

    setups, generates = [], []
    collector = None
    stream = None
    repeats = 1 if trace else SETUP_REPEATS
    try:
        for repeat in range(repeats):
            began = clock()
            dataset = population(seed, SERVE["n_users"], SERVE["n_items"])
            generates.append(clock() - began)
            stream = Stream.build(dataset)
            collector = Collector(mode, traced=False, workdir=workdir)
            if repeat < repeats - 1:
                asyncio.run(_warm_only(collector, config, stream))
                setups.append(clock() - began)
                collector.stop()
                collector = None
        result.generate_s = median(generates)

        half = seconds / 2 if trace else seconds
        measured = asyncio.run(
            asyncio.wait_for(
                _drive(collector, config, stream, half, outcomes),
                timeout=half + 120,
            )
        )
        setups.append(measured["setup_end"] - began)
        result.setup_s = median(setups)
        result.peak_rss_mb = peak_rss_mb(collector.pid)
        collector.stop()
        collector = None
        _score_serve(result, measured, timed=not trace)
        cpu = measured["cpu1"] - measured["cpu0"]
        result.layer["process.cpu_s_per_muser"] = cpu / measured["window_sent"] * 1e6

        if trace:
            reference_rate = result.users_per_s
            client = Recorder(clock)
            layers.install_client(client)
            collector = Collector(mode, traced=True, workdir=workdir)
            traced = asyncio.run(
                asyncio.wait_for(
                    _drive(collector, config, stream, half, outcomes),
                    timeout=half + 120,
                )
            )
            collector.stop()
            loop_thread, spans = collector.spans()
            collector = None
            _score_serve(result, traced, timed=False)
            summary = layers.summarize(
                spans, traced["start"], traced["end"], loop_thread,
                shards=SERVE["shards"][mode],
            )
            result.layer.update(summary["metrics"])
            result.layer.update(
                layers.client_summary(client.spans, traced["start"], traced["end"])
            )
            result.layer["trace.overhead_frac"] = (
                reference_rate / result.users_per_s - 1.0
            )
            session = traced["server"]["sessions"][0]
            counters = traced["server"]["metrics"]["counters"]
            hits = sum(v for key, v in counters.items()
                       if key.startswith("serve_query_cache_hits_total"))
            misses = sum(v for key, v in counters.items()
                         if key.startswith("serve_query_cache_misses_total"))
            result.layer["serve.stall_s"] = (
                float(session["stall_seconds"]) - traced["stall0"]
            )
            result.layer["serve.pending_max"] = max(traced["pending"], default=0)
            result.layer["serve.cache_hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
            result.layer["serve.frames_rejected"] = int(
                traced["server"]["collector"]["frames_rejected"]
            )
            result.layer["loadgen.lag_ms_max"] = 1e3 * max(
                lateness(traced["due"], traced["issued"]), default=0.0
            )
            busy = sum(summary["layer_self_s"].values())
            result.notes["collector_busy_s"] = round(busy, 3)
            result.notes["collector_loop_busy_s"] = round(summary["busy_base_s"], 3)
            result.notes["layer_self_share_of_collector_busy"] = {
                layer: round(total / busy, 4)
                for layer, total in sorted(summary["layer_self_s"].items())
            }
    finally:
        if collector is not None:
            collector.stop()
    return result


def _score_serve(result: Result, measured: dict, timed: bool) -> None:
    """Correctness checks and end-to-end numbers of one driven segment."""
    outcomes = result.outcomes
    sent = measured["sent"]
    outcomes.check(measured["confirmed"] == sent,
                   "reports confirmed at BYE differ from reports sent")
    outcomes.check(
        measured["server"]["collector"]["reports_ingested"] == sent,
        "STATS reports_ingested differs from reports sent",
    )
    outcomes.check(
        int(measured["session"]["n_ingested"]) == sent,
        "session n_ingested differs from reports sent",
    )
    rejected = int(measured["server"]["collector"]["frames_rejected"])
    outcomes.check(rejected == 0, "collector rejected frames")
    if rejected:
        outcomes.fail("collector rejected frames", rejected - 1)
    truth = measured["truth"]
    estimate = np.asarray(measured["estimate"], dtype=np.float64)
    ratio = rmse(estimate, truth) / predicted_rmse(
        SERVE["framework"], truth, SERVE["epsilon"]
    )
    result.rmse_ratio[SERVE["framework"]] = ratio
    outcomes.check(
        ratio < RMSE_RATIO_CEILING[SERVE["framework"]],
        f"rmse_ratio above {RMSE_RATIO_CEILING[SERVE['framework']]}",
    )
    result.users_per_s = measured["window_sent"] / (measured["end"] - measured["start"])
    latencies = [
        1e3 * value
        for value in latencies_from_due(measured["due"], measured["done"])
    ]
    outcomes.check(
        measured["failed_queries"] == 0 and len(latencies) == len(measured["due"]),
        "a scheduled query did not complete",
    )
    supported = highest_supported_percentile(len(latencies))
    if timed:
        outcomes.check(supported is not None and supported >= 90,
                       "too few query samples for a p90")
    if latencies:
        result.query_p50_ms = nearest_rank(latencies, 50)
        result.query_p90_ms = nearest_rank(latencies, 90)
    result.notes["queries"] = len(latencies)
    result.notes["query_p90_supported"] = supported


def scratch_dir(root: Path) -> Path:
    """A private directory under the checkout for collector span dumps."""
    base = root / ".perfbench_run"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))
