"""Tracked performance microbenchmarks for the simulation hot paths.

Every paper-scale result this repo produces — the Fig. 7 scalability
sweep, the 64/128-worker model matrices, the PSSP ablation grid — is a
function of how fast :mod:`repro.sim` pushes events.  This module pins
that speed down as numbers a PR can be held to:

- **engine** — discrete-event throughput: processes yielding timeouts,
  the pattern every worker/server/transfer loop reduces to;
- **network** — incast messages/second: N senders draining through one
  receiver NIC (the §II-B bottleneck path);
- **sanitizer** — protocol-replay events/second through the
  :mod:`repro.analysis` vector-clock checker;
- **ml** — proxy-model training steps/second (the gradient math a
  co-simulated run interleaves with the event loop);
- **null telemetry** — the per-event cost of instrumentation when the
  null observability backend is active, reported as a percentage of one
  engine event's cost (the "zero-cost when off" contract);
- **macro** — one Fig-7-shaped timing-only run at 128 workers, wall
  clock plus sustained events/second;
- **sweep** — wall clock of a small experiment sweep (fig7 + fig9)
  through the :mod:`repro.bench.pool` executor at ``--jobs N`` vs
  ``--jobs 1``, cache disabled — the number the parallel harness is
  held to.

Usage::

    python -m repro.bench.perf --out BENCH_perf.json          # full scale
    python -m repro.bench.perf --quick                        # CI smoke
    python -m repro.bench.perf --quick --baseline BENCH_perf.json

With ``--baseline`` the run compares its engine events/sec against the
committed numbers and exits non-zero on a regression larger than
``--max-regress`` (default 30%).  ``BENCH_perf.json`` keeps a ``history``
list so the trajectory across PRs stays visible.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.driver import StepContext
from repro.core.models import ssp
from repro.core.server import ShardServer
from repro.obs import NULL_OBS, MetricsRegistry, Observability, observed
from repro.sim.cluster import cpu_cluster
from repro.sim.engine import Engine
from repro.sim.network import Network, NicSpec
from repro.sim.stragglers import cpu_cluster_compute

#: Schema version of the emitted JSON document.
SCHEMA = 1


@dataclass
class BenchResult:
    """One benchmark's headline rate plus supporting detail."""

    name: str
    value: float
    unit: str
    detail: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"value": self.value, "unit": self.unit}
        if self.detail:
            out["detail"] = {k: float(v) for k, v in sorted(self.detail.items())}
        return out


@dataclass(frozen=True)
class PerfScale:
    """Workload sizes for one suite run (quick keeps CI under ~30 s)."""

    name: str
    engine_procs: int
    engine_iters: int
    net_senders: int
    net_msgs: int
    sanitizer_iters: int
    ml_steps: int
    telemetry_ops: int
    macro_workers: int
    macro_iters: int
    macro10k_workers: int
    macro10k_iters: int
    macro10k_repeats: int
    macro100k_workers: int
    macro100k_iters: int
    macro100k_repeats: int
    repeats: int


QUICK = PerfScale(
    name="quick",
    engine_procs=32,
    engine_iters=400,
    net_senders=16,
    net_msgs=40,
    sanitizer_iters=60,
    ml_steps=60,
    telemetry_ops=50_000,
    macro_workers=64,
    macro_iters=4,
    macro10k_workers=1_000,
    macro10k_iters=1,
    macro10k_repeats=2,
    macro100k_workers=5_000,
    macro100k_iters=1,
    macro100k_repeats=1,
    repeats=2,
)

FULL = PerfScale(
    name="full",
    engine_procs=64,
    engine_iters=2_000,
    net_senders=32,
    net_msgs=150,
    sanitizer_iters=400,
    ml_steps=300,
    telemetry_ops=400_000,
    macro_workers=128,
    macro_iters=8,
    macro10k_workers=10_000,
    macro10k_iters=1,
    macro10k_repeats=2,
    macro100k_workers=100_000,
    macro100k_iters=1,
    macro100k_repeats=1,
    repeats=5,
)


def _peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MiB (0.0 where unavailable).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the unit is
    normalized here.  The counter is monotone over the process lifetime,
    so for a macro run it reports "the run fit in at most this much" —
    an upper bound, which is the honest direction for a capacity number.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _best(run_once: Callable[[], Tuple[float, float]], repeats: int) -> Tuple[float, float]:
    """Run ``run_once`` ``repeats`` times; return (best units/sec, best secs).

    ``run_once`` returns ``(units_of_work, elapsed_seconds)``.  Best-of-N
    damps scheduler noise the way timeit does.
    """
    best_rate, best_secs = 0.0, float("inf")
    for _ in range(max(1, repeats)):
        units, secs = run_once()
        secs = max(secs, 1e-9)
        rate = units / secs
        if rate > best_rate:
            best_rate, best_secs = rate, secs
    return best_rate, best_secs


# ---------------------------------------------------------------------------
# engine: process-yield-timeout event throughput
# ---------------------------------------------------------------------------


def bench_engine(scale: PerfScale) -> BenchResult:
    """Events/second through the canonical process loop: each process
    yields a bare delay (the zero-allocation timeout spelling used by the
    simulator's hot paths; before the fast path this was ``yield
    Timeout(delay)``, which the engine still accepts)."""

    def run_once() -> Tuple[float, float]:
        eng = Engine()

        def proc(delay: float):
            for _ in range(scale.engine_iters):
                yield delay

        for p in range(scale.engine_procs):
            eng.spawn(proc(1.0 + p * 1e-3), name=f"p{p}")
        t0 = time.perf_counter()
        eng.run()
        dt = time.perf_counter() - t0
        return float(eng.events_processed), dt

    rate, secs = _best(run_once, scale.repeats)
    return BenchResult(
        "engine_events_per_sec",
        rate,
        "events/s",
        {"events": scale.engine_procs * scale.engine_iters, "best_run_s": secs},
    )


# ---------------------------------------------------------------------------
# network: incast messages/second
# ---------------------------------------------------------------------------


def bench_network(scale: PerfScale) -> BenchResult:
    """Messages/second with N senders draining through one receiver NIC."""
    size = 64 * 1024

    counters: Dict[str, float] = {}

    def run_once() -> Tuple[float, float]:
        eng = Engine()
        net = Network(eng, latency_s=50e-6)
        nic = NicSpec(bandwidth_Bps=125e6)
        sink = net.add_node("sink", nic)
        for s in range(scale.net_senders):
            net.add_node(f"w{s}", nic)

        def sender(s: int):
            for _ in range(scale.net_msgs):
                yield net.send(f"w{s}", "sink", size, tag="push")

        for s in range(scale.net_senders):
            eng.spawn(sender(s), name=f"send{s}")
        t0 = time.perf_counter()
        eng.run()
        dt = time.perf_counter() - t0
        assert sink.messages_received == scale.net_senders * scale.net_msgs
        counters["fast_path_transfers"] = net.fast_path_transfers
        counters["fallback_transfers"] = net.fallback_transfers
        return float(net.total_messages), dt

    rate, secs = _best(run_once, scale.repeats)
    return BenchResult(
        "network_messages_per_sec",
        rate,
        "messages/s",
        {
            "messages": scale.net_senders * scale.net_msgs,
            "best_run_s": secs,
            **counters,
        },
    )


# ---------------------------------------------------------------------------
# sanitizer: protocol replay events/second
# ---------------------------------------------------------------------------


def _protocol_stream(iters: int, n_workers: int = 8):
    """A captured SSP push/pull event stream for replay benchmarking."""
    from repro.analysis import events_from_instants

    obs = Observability(MetricsRegistry("perf"))
    with observed(obs):
        clock = {"t": 0.0}

        def tick() -> float:
            clock["t"] += 1e-4
            return clock["t"]

        server = ShardServer(
            shard_id=0, n_workers=n_workers, model=ssp(2), obs=obs, clock=tick
        )
        replies = []
        for i in range(iters):
            for w in range(n_workers):
                server.handle_push(w, i)
                server.handle_pull(w, i, respond=replies.append)
    return events_from_instants(obs.instants)


def bench_sanitizer(scale: PerfScale) -> BenchResult:
    """Replay events/second through the vector-clock protocol checker."""
    from repro.analysis import sanitize_events

    events = _protocol_stream(scale.sanitizer_iters)

    def run_once() -> Tuple[float, float]:
        t0 = time.perf_counter()
        report = sanitize_events(events)
        dt = time.perf_counter() - t0
        assert report.ok, "perf stream must be violation-free"
        return float(len(events)), dt

    rate, secs = _best(run_once, scale.repeats)
    return BenchResult(
        "sanitizer_events_per_sec",
        rate,
        "events/s",
        {"events": len(events), "best_run_s": secs},
    )


# ---------------------------------------------------------------------------
# ml: proxy training steps/second
# ---------------------------------------------------------------------------


def bench_ml(scale: PerfScale) -> BenchResult:
    """Gradient-step throughput of the blobs proxy task (one worker)."""
    from repro.bench.workloads import blobs_task

    task = blobs_task(n_workers=1, n_train=1024, n_test=128, seed=7)
    rng = np.random.default_rng(11)

    def run_once() -> Tuple[float, float]:
        params = task.init_params.copy()
        t0 = time.perf_counter()
        for i in range(scale.ml_steps):
            update = task.step_fn(
                StepContext(worker=0, iteration=i, params=params, rng=rng)
            )
            params += update
        dt = time.perf_counter() - t0
        return float(scale.ml_steps), dt

    rate, secs = _best(run_once, scale.repeats)
    return BenchResult(
        "ml_steps_per_sec", rate, "steps/s", {"steps": scale.ml_steps, "best_run_s": secs}
    )


# ---------------------------------------------------------------------------
# null telemetry: instrumentation cost with observability off
# ---------------------------------------------------------------------------


class _TelemetryStandIn:
    """Mirrors the runtime's per-event null-telemetry guards for the cost
    probe: ShardServer's cached ``_obs_on`` bool and the ``causal is None``
    check the network's wire paths make before recording causal spans."""

    __slots__ = ("_obs_on", "_causal")

    def __init__(self) -> None:
        self._obs_on = NULL_OBS.enabled
        self._causal = None


def bench_null_telemetry(scale: PerfScale, engine_rate: float) -> BenchResult:
    """Per-event null-backend telemetry cost as % of one engine event.

    Emulates exactly the per-event instrumentation the runtime pays with
    observability disabled: the server's cached-bool ``_obs_on`` guard
    plus the network's ``causal is None`` guard, behind which every
    emission — instant-log record, causal-span record, and pre-bound
    metric updates alike — is skipped before any label formatting
    happens.  The headline number is that cost divided by the engine's
    per-event cost — the acceptance bar is <= 5%.
    """
    if NULL_OBS.enabled:
        raise AssertionError("null bundle must be disabled")
    srv = _TelemetryStandIn()
    n = scale.telemetry_ops

    def run_once() -> Tuple[float, float]:
        t0 = time.perf_counter()
        for _ in range(n):
            if srv._obs_on:
                raise AssertionError("stand-in must be disabled")
            if srv._causal is not None:
                raise AssertionError("stand-in must have no causal trace")
        dt = time.perf_counter() - t0
        return float(n), dt

    def run_empty() -> Tuple[float, float]:
        t0 = time.perf_counter()
        for _ in range(n):
            pass
        dt = time.perf_counter() - t0
        return float(n), dt

    rate, _secs = _best(run_once, scale.repeats)
    empty_rate, _ = _best(run_empty, scale.repeats)
    # Net telemetry time per event: instrumented loop minus loop overhead.
    per_op = max(0.0, 1.0 / rate - 1.0 / empty_rate)
    per_event = 1.0 / max(engine_rate, 1e-9)
    overhead_pct = 100.0 * per_op / per_event
    return BenchResult(
        "null_telemetry_overhead_pct",
        overhead_pct,
        "% of engine event cost",
        {"telemetry_ns_per_event": per_op * 1e9, "engine_ns_per_event": per_event * 1e9},
    )


# ---------------------------------------------------------------------------
# macro: Fig-7-shaped timing-only run at 128 workers
# ---------------------------------------------------------------------------


def _bench_macro_run(name: str, workers: int, iters: int, repeats: int) -> BenchResult:
    """Best-of-N wall clock of one Fig-7-shaped timing-only co-simulation
    at ``workers`` × ``iters`` (fresh runner each run, like the micro
    benchmarks: a single macro run is noisy on a loaded machine)."""
    from repro.ml.models_zoo import alexnet_cifar_workload
    from repro.sim.runner import FluentPSSimRunner, SimConfig

    wall = float("inf")
    events = 0
    result = None
    counters: Dict[str, float] = {}
    for _ in range(max(1, repeats)):
        cfg = SimConfig(
            cluster=cpu_cluster(workers, n_servers=8),
            max_iter=iters,
            sync=ssp(3),
            workload=alexnet_cifar_workload(),
            compute_model=cpu_cluster_compute(workers),
            seed=3,
        )
        runner = FluentPSSimRunner(cfg)
        t0 = time.perf_counter()
        run_result = runner.run()
        run_wall = time.perf_counter() - t0
        if run_wall < wall:
            wall = run_wall
            events = runner.engine.events_processed
            result = run_result
            counters = {
                "fast_path_transfers": runner.net.fast_path_transfers,
                "fallback_transfers": runner.net.fallback_transfers,
                "snapshot_copies": sum(s.snapshot_copies for s in runner.servers),
                "snapshot_copies_avoided": sum(
                    s.snapshot_copies_avoided for s in runner.servers
                ),
                "server_msgs_inline": runner.server_msgs_inline,
                "server_msgs_drained": runner.server_msgs_drained,
                "fused_deliveries": runner.net.fused_deliveries,
                "pending_event_hwm": runner.engine.pending_high_water,
                "rounds_collapsed": runner.engine.rounds_collapsed,
                "round_events_saved": runner.engine.round_events_saved,
            }
    return BenchResult(
        name,
        wall,
        "s",
        {
            "workers": workers,
            "iterations": iters,
            "events": events,
            "events_per_sec": events / max(wall, 1e-9),
            # Scale-independent throughput proxy that stays meaningful
            # when the closed-form round fast-forward leaves few (or
            # zero) events to process: the events the run *represents*
            # per wall second, processed plus analytically saved.
            "effective_events_per_sec": (
                events + counters.get("round_events_saved", 0.0)
            )
            / max(wall, 1e-9),
            "sim_duration_s": result.duration,
            "messages_on_wire": result.messages_on_wire,
            "peak_rss_mb": _peak_rss_mb(),
            **counters,
        },
    )


def bench_macro(scale: PerfScale) -> BenchResult:
    """Wall clock of one Fig-7-shaped timing-only run at 128 workers."""
    return _bench_macro_run(
        "macro_fig7_wall_s", scale.macro_workers, scale.macro_iters, scale.repeats
    )


def bench_macro_10k(scale: PerfScale) -> BenchResult:
    """Wall clock of the terminal round at 10k workers (fig7 shape).

    A single iteration: the round collapse commits the lone terminal
    round trivially (there is no next round to overlap), so this times
    set-up plus one closed-form round, not steady-state throughput —
    ``cosim_bench/`` holds the multi-round benchmarks.  The acceptance
    bar ties this to the 128-worker macro: < 10x its wall time despite
    78x the workers.
    """
    return _bench_macro_run(
        "macro_10k_wall_s",
        scale.macro10k_workers,
        scale.macro10k_iters,
        scale.macro10k_repeats,
    )


def bench_macro_100k(scale: PerfScale) -> BenchResult:
    """Wall clock of the terminal round at 100k workers (one iteration,
    like :func:`bench_macro_10k`): the largest population the grid
    documents (PSP/consistency-model claims only reveal their shape
    at this scale — see ISSUE 9 / ROADMAP).  Single repeat: the quantity
    under test is whether the box holds a 100k-worker event population at
    all (peak RSS and the pending-event high-water mark ride along in the
    detail), and the < 60 s acceptance bar has a wide enough margin that
    best-of-N buys nothing.
    """
    return _bench_macro_run(
        "macro_100k_wall_s",
        scale.macro100k_workers,
        scale.macro100k_iters,
        scale.macro100k_repeats,
    )


def bench_macro_100k_sanitized(scale: PerfScale) -> BenchResult:
    """The 100k-worker run with observability + protocol sanitation.

    Exercises the streaming instant log end to end: the run emits its
    multi-million-event protocol stream into a disk-spilling
    :class:`~repro.obs.export.InstantLog` (``causal=False`` keeps the
    closed-form round fast-forward eligible, ``span_capture=False``
    drops the per-span list a sanitize run never reads), then the
    vector-clock sanitizer replays the spilled stream from disk in
    chunks.  The quantity under test is peak RSS — the full-scale
    acceptance bar is < 1 GiB (:data:`SANITIZED_RSS_MAX_MB`) where the
    pre-streaming implementation held 3.5M event dicts in RAM — so a
    single repeat suffices and the wall time stays ungated.
    """
    from repro.analysis.sanitizer import sanitize_observability
    from repro.ml.models_zoo import alexnet_cifar_workload
    from repro.sim.runner import FluentPSSimRunner, SimConfig

    workers = scale.macro100k_workers
    obs = Observability(MetricsRegistry("perf-sanitized"), causal=False)
    cfg = SimConfig(
        cluster=cpu_cluster(workers, n_servers=8),
        max_iter=scale.macro100k_iters,
        sync=ssp(3),
        workload=alexnet_cifar_workload(),
        compute_model=cpu_cluster_compute(workers),
        seed=3,
        obs=obs,
        span_capture=False,
    )
    runner = FluentPSSimRunner(cfg)
    t0 = time.perf_counter()
    runner.run()
    run_wall = time.perf_counter() - t0
    cap = obs.last_run
    t0 = time.perf_counter()
    report = sanitize_observability(obs)
    sanitize_wall = time.perf_counter() - t0
    assert report.ok, "sanitized macro run must be violation-free"
    return BenchResult(
        "macro_100k_sanitized_wall_s",
        run_wall + sanitize_wall,
        "s",
        {
            "workers": workers,
            "iterations": scale.macro100k_iters,
            "run_wall_s": run_wall,
            "sanitize_wall_s": sanitize_wall,
            "events_checked": report.n_events,
            "instants": len(cap.instants),
            "instants_spilled": cap.instants.spilled_events,
            "rounds_collapsed": runner.engine.rounds_collapsed,
            "round_events_saved": runner.engine.round_events_saved,
            "peak_rss_mb": _peak_rss_mb(),
        },
    )


# ---------------------------------------------------------------------------
# sweep: parallel harness wall clock vs serial
# ---------------------------------------------------------------------------


def bench_sweep(scale: PerfScale) -> BenchResult:
    """Wall clock of a fig7+fig9 sweep through the pool executor.

    Runs the same experiment set once at ``jobs=1`` (inline) and once at
    ``jobs=min(4, cpus)`` with the cache disabled, and reports the
    parallel wall time with the serial time and speedup as detail.  On a
    single-core machine the speedup hovers around (or below, from pool
    overhead) 1x — ``cpus`` in the detail says which regime the number
    came from.
    """
    import os

    from repro.bench import figures
    from repro.bench.harness import QUICK as BENCH_QUICK
    from repro.bench.harness import TINY as BENCH_TINY
    from repro.bench.pool import SweepExecutor

    bench_scale = BENCH_QUICK if scale.name == "full" else BENCH_TINY
    jobs = min(4, os.cpu_count() or 1)

    def run_at(n_jobs: int) -> float:
        with SweepExecutor(jobs=n_jobs) as pool:
            t0 = time.perf_counter()
            figures.fig7_scalability(bench_scale, pool=pool)
            figures.fig9_dpr_pairs(bench_scale, pool=pool)
            return time.perf_counter() - t0

    serial = min(run_at(1) for _ in range(max(1, scale.repeats)))
    parallel = min(run_at(jobs) for _ in range(max(1, scale.repeats)))
    return BenchResult(
        "sweep_wall_s",
        parallel,
        "s",
        {
            "jobs": jobs,
            "jobs1_wall_s": serial,
            "speedup": serial / max(parallel, 1e-9),
            "cpus": os.cpu_count() or 1,
        },
    )


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------


def run_suite(scale: PerfScale) -> Dict[str, object]:
    """Run every benchmark at ``scale``; returns the JSON document body."""
    results: List[BenchResult] = []
    engine = bench_engine(scale)
    results.append(engine)
    results.append(bench_network(scale))
    results.append(bench_sanitizer(scale))
    results.append(bench_ml(scale))
    results.append(bench_null_telemetry(scale, engine.value))
    results.append(bench_macro(scale))
    results.append(bench_macro_10k(scale))
    results.append(bench_macro_100k(scale))
    results.append(bench_macro_100k_sanitized(scale))
    results.append(bench_sweep(scale))
    return {
        "schema": SCHEMA,
        "scale": scale.name,
        "python": platform.python_version(),
        "benchmarks": {r.name: r.to_dict() for r in results},
    }


def _bench_value(doc: Dict[str, object], name: str) -> Optional[float]:
    bench = doc.get("benchmarks", {}).get(name)
    return None if bench is None else float(bench["value"])


def _detail_value(doc: Dict[str, object], name: str, key: str) -> Optional[float]:
    bench = doc.get("benchmarks", {}).get(name)
    if bench is None:
        return None
    v = bench.get("detail", {}).get(key)
    return None if v is None else float(v)


#: (name, higher_is_better) pairs the baseline comparison gates on.  The
#: engine and network rates are hot-path numbers stable enough to gate;
#: ``macro_fig7_wall_s`` (lower is better) guards the end-to-end
#: co-simulation — it is the noisiest of the three, which is why the
#: default allowance is a generous 30%.  The NumPy/ML numbers stay
#: ungated: they track BLAS builds, not this repo's code.
GATED_BENCHMARKS: List[Tuple[str, bool]] = [
    ("engine_events_per_sec", True),
    ("network_messages_per_sec", True),
    ("macro_fig7_wall_s", False),
    ("macro_10k_wall_s", False),
    ("macro_100k_wall_s", False),
]

#: Wall-time benchmarks that fall back to the scale-independent
#: ``events_per_sec`` detail when current and baseline documents were
#: produced at different scales (CI runs ``--quick``, the committed
#: record is full scale).
CROSS_SCALE_BENCHMARKS = {
    "macro_fig7_wall_s",
    "macro_10k_wall_s",
    "macro_100k_wall_s",
}

#: (benchmark, detail key) pairs gated like wall times (lower is
#: better, +30% ceiling): memory regressions fail CI, not just
#: slowdowns.  Details are only comparable at equal scales — the gate is
#: noted as skipped (never silently dropped) across scales, and likewise
#: when a baseline detail is absent or zero (e.g. ``pending_event_hwm``
#: after a fully collapsed run schedules no per-worker events at all).
GATED_DETAILS: List[Tuple[str, str]] = [
    ("macro_100k_wall_s", "peak_rss_mb"),
    ("macro_100k_wall_s", "pending_event_hwm"),
    ("macro_100k_sanitized_wall_s", "peak_rss_mb"),
]

#: Absolute ceiling for ``null_telemetry_overhead_pct``.  A relative
#: gate is meaningless for a number that should sit near zero (a 30%
#: regression of 0.1% is still nothing), so the disabled-path contract
#: is enforced as an absolute bound instead.
NULL_TELEMETRY_MAX_PCT = 5.0

#: Absolute peak-RSS ceiling (MiB) for the full-scale sanitized 100k
#: macro run: the streaming instant log's contract is that a 100k-worker
#: observability + sanitize pass fits in under 1 GiB, where holding the
#: ~3.5M-event protocol stream in memory cost ~1.4 GiB.  Quick-scale
#: documents are not held to it (their run is 20x smaller, the bound
#: would be vacuous).
SANITIZED_RSS_MAX_MB = 1024.0


def check_regression(
    current: Dict[str, object],
    baseline: Dict[str, object],
    max_regress: float = 0.30,
    notes: Optional[List[str]] = None,
) -> List[str]:
    """Compare against a committed baseline document.

    Returns failure messages for every entry in :data:`GATED_BENCHMARKS`
    that regressed more than ``max_regress``: a rate that dropped below
    ``(1 - max_regress) * baseline``, or a wall time that grew past
    ``(1 + max_regress) * baseline``.  The null-telemetry overhead is
    additionally held to the absolute :data:`NULL_TELEMETRY_MAX_PCT`
    ceiling regardless of the baseline, the full-scale sanitized macro
    run to the absolute :data:`SANITIZED_RSS_MAX_MB` memory ceiling, and
    the :data:`GATED_DETAILS` memory/backlog details to the same +30%
    rule as the wall times (same-scale documents only).

    Wall-time benchmarks are only directly comparable at equal scales
    (CI runs ``--quick``, the committed record is full scale), so when
    the two documents disagree on ``scale`` the gates in
    :data:`CROSS_SCALE_BENCHMARKS` compare the scale-independent
    ``events_per_sec`` detail instead of the wall time.  A benchmark
    that cannot be compared at all (detail missing from either side) is
    reported by name into ``notes`` rather than silently skipped.
    """
    same_scale = current.get("scale") == baseline.get("scale")
    failures: List[str] = []
    if notes is None:
        notes = []
    cur_null = _bench_value(current, "null_telemetry_overhead_pct")
    if cur_null is not None and cur_null > NULL_TELEMETRY_MAX_PCT:
        failures.append(
            f"null_telemetry_overhead_pct: {cur_null:.2f}% exceeds the "
            f"absolute {NULL_TELEMETRY_MAX_PCT:.0f}% disabled-path ceiling"
        )
    cur_rss = _detail_value(current, "macro_100k_sanitized_wall_s", "peak_rss_mb")
    if (
        current.get("scale") == "full"
        and cur_rss is not None
        and cur_rss > SANITIZED_RSS_MAX_MB
    ):
        failures.append(
            f"macro_100k_sanitized_wall_s: peak_rss_mb {cur_rss:,.0f} exceeds "
            f"the absolute {SANITIZED_RSS_MAX_MB:,.0f} MiB streaming-log ceiling"
        )
    for name, key in GATED_DETAILS:
        if not same_scale:
            notes.append(
                f"{name}.{key}: detail gate skipped — documents are at "
                f"different scales"
            )
            continue
        base = _detail_value(baseline, name, key)
        cur = _detail_value(current, name, key)
        if base is None or base <= 0 or cur is None:
            missing = "baseline" if base is None or base <= 0 else "current"
            notes.append(
                f"{name}.{key}: detail gate skipped — no usable value in "
                f"the {missing} document"
            )
            continue
        growth = (cur - base) / base
        if growth > max_regress:
            failures.append(
                f"{name}.{key}: {cur:,.4g} is {growth:.0%} above baseline "
                f"{base:,.4g} (limit {max_regress:.0%})"
            )
    for name, higher_is_better in GATED_BENCHMARKS:
        if name in CROSS_SCALE_BENCHMARKS and not same_scale:
            # Prefer the collapse-aware throughput proxy; fall back to
            # raw events_per_sec for baselines that predate it.
            key = "effective_events_per_sec"
            base = _detail_value(baseline, name, key)
            cur = _detail_value(current, name, key)
            if base is None or cur is None:
                key = "events_per_sec"
                base = _detail_value(baseline, name, key)
                cur = _detail_value(current, name, key)
            if base is None or cur is None or base <= 0:
                missing = "baseline" if base is None or base <= 0 else "current"
                notes.append(
                    f"{name}: cross-scale gate skipped — no {key} "
                    f"detail in the {missing} document"
                )
                continue
            drop = (base - cur) / base
            if drop > max_regress:
                failures.append(
                    f"{name} ({key}, cross-scale): {cur:,.0f} is "
                    f"{drop:.0%} below baseline {base:,.0f} "
                    f"(limit {max_regress:.0%})"
                )
            continue
        base, cur = _bench_value(baseline, name), _bench_value(current, name)
        if base is None or cur is None or base <= 0:
            missing = "baseline" if base is None or base <= 0 else "current"
            notes.append(
                f"{name}: gate skipped — benchmark missing from the "
                f"{missing} document"
            )
            continue
        if higher_is_better:
            drop = (base - cur) / base
            if drop > max_regress:
                failures.append(
                    f"{name}: {cur:,.0f} is {drop:.0%} below baseline "
                    f"{base:,.0f} (limit {max_regress:.0%})"
                )
        else:
            growth = (cur - base) / base
            if growth > max_regress:
                failures.append(
                    f"{name}: {cur:,.4g} is {growth:.0%} above baseline "
                    f"{base:,.4g} (limit {max_regress:.0%})"
                )
    return failures


def render(doc: Dict[str, object]) -> str:
    """Human-readable one-line-per-benchmark summary."""
    lines = [f"== repro.bench.perf ({doc['scale']}, py{doc['python']}) =="]
    for name, bench in doc["benchmarks"].items():
        lines.append(f"{name:32s} {bench['value']:>14,.1f} {bench['unit']}")
        detail = bench.get("detail", {})
        if detail:
            bits = ", ".join(f"{k}={v:,.4g}" for k, v in detail.items())
            lines.append(f"{'':32s}   ({bits})")
    return "\n".join(lines)


def _rolled_history(out: Path) -> List[Dict[str, object]]:
    """The history for a new document at ``out``: the previous document's
    history plus the previous document itself (its own history stripped),
    so every ``--out`` run extends the perf trajectory by one entry."""
    if not out.exists():
        return []
    try:
        prev = json.loads(out.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(prev, dict) or "benchmarks" not in prev:
        return []
    history = prev.get("history", [])
    if not isinstance(history, list):
        history = []
    entry = {k: v for k, v in prev.items() if k != "history"}
    return history + [entry]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf",
        description="Run the tracked hot-path performance benchmarks.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized runs (default: full scale)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write results JSON (e.g. BENCH_perf.json)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="committed baseline to compare against")
    parser.add_argument("--max-regress", type=float, default=0.30,
                        help="fail when engine events/sec drops more than "
                             "this fraction below the baseline (default 0.30)")
    args = parser.parse_args(argv)

    scale = QUICK if args.quick else FULL
    # The baseline is read BEFORE --out writes: refreshing the committed
    # record in place (--baseline X --out X) must gate against the previous
    # document, not the one this run just wrote.
    baseline = None
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())

    doc = run_suite(scale)
    print(render(doc))

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        doc["history"] = _rolled_history(out)
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"[perf: wrote {out}]")

    if baseline is not None:
        notes: List[str] = []
        failures = check_regression(doc, baseline, args.max_regress, notes=notes)
        for name, _higher in GATED_BENCHMARKS:
            base_v = _bench_value(baseline, name)
            cur_v = _bench_value(doc, name)
            if base_v and cur_v:
                print(
                    f"[perf: {name} {cur_v:,.4g} vs baseline "
                    f"{base_v:,.4g} ({cur_v / base_v:.2f}x)]"
                )
        for msg in notes:
            print(f"[perf: {msg}]")
        for msg in failures:
            print(f"PERF REGRESSION: {msg}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
