"""One measured repetition of a workload, in a process of its own.

``run.py`` starts this script once per repetition so that each gets its
own peak RSS (``ru_maxrss`` only grows over a process's life).  It sets
the workload up, runs it, checks the outputs and prints one JSON object
as its last line of standard output.

    python3 cosim_bench/rep.py --workload cosim_checked_64 --seed 1 [--trace] [--tiny]

With ``--trace`` the run and the sanitizer replay execute under
:mod:`cProfile`, and the record carries the host self-time per layer.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import pstats
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerMap, call_count, fold_profile  # noqa: E402
from workloads import WORKLOADS, Built, Size, Spans  # noqa: E402

from repro.analysis.sanitizer import sanitize_observability  # noqa: E402
from repro.obs.causal import aggregate_blame, iteration_blames  # noqa: E402

#: Set-up repeats until this many samples or this much set-up time.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 1.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _set_up(name: str, size: Size, seed: int) -> Tuple[Built, Spans, List[float]]:
    """Build the workload repeatedly; keep the last build and every set-up time."""
    samples: List[float] = []
    while True:
        spans = Spans()
        t0 = time.perf_counter()
        built = WORKLOADS[name].build(size, seed, spans)
        samples.append(time.perf_counter() - t0)
        if len(samples) >= SETUP_SAMPLES or sum(samples) >= SETUP_BUDGET_S:
            return built, spans, samples
        del built
        gc.collect()


def _check(built: Built, result, size: Size, sanitize_ok: Optional[bool], accuracy: float) -> List[str]:
    """The per-run output checks; returns what failed."""
    errors: List[str] = []
    cluster = built.runner.cfg.cluster
    if built.runner.cfg.task is None:
        expect = 3 * cluster.n_workers * cluster.n_servers * size.iterations
        if result.messages_on_wire != expect:
            errors.append(f"messages_on_wire {result.messages_on_wire} != {expect}")
    finish = result.worker_finish_times
    if len(finish) != cluster.n_workers:
        errors.append(f"{len(finish)} finish times for {cluster.n_workers} workers")
    if not all(math.isfinite(t) for t in finish):
        errors.append("non-finite worker finish time")
    if sanitize_ok is False:
        errors.append("sanitizer reported violations")
    if built.runner.cfg.task is not None:
        chance = 1.0 / built.runner.cfg.task.dataset.n_classes
        if not accuracy > chance:
            errors.append(f"accuracy {accuracy} not above chance {chance}")
    return errors


def _counts(built: Built, result, size: Size, sanitize_events: int) -> Dict[str, float]:
    runner = built.runner
    engine, net = runner.engine, runner.net
    copies = sum(s.snapshot_copies for s in runner.servers)
    avoided = sum(s.snapshot_copies_avoided for s in runner.servers)
    transfers = net.fast_path_transfers + net.fallback_transfers
    instants = spilled = 0
    if built.obs is not None and built.obs.last_run is not None:
        instants = len(built.obs.last_run.instants)
        spilled = built.obs.last_run.instants.spilled_events
    return {
        "engine.events": engine.events_processed,
        "engine.events_skipped": engine.events_skipped,
        "engine.events_elided": engine.events_elided,
        "engine.calendar_sweeps": engine.calendar_sweeps,
        "engine.pending_hwm": engine.pending_high_water,
        "wire.messages": net.total_messages,
        "wire.bytes": net.total_bytes,
        "wire.fast_path_share": _share(net.fast_path_transfers, transfers),
        "wire.fused_share": _share(net.fused_deliveries, net.total_messages),
        "server.msgs_inline": runner.server_msgs_inline,
        "server.msgs_drained": runner.server_msgs_drained,
        "server.dprs": result.metrics.dprs,
        "server.snapshot_copies": copies,
        "server.copies_avoided_share": _share(avoided, copies + avoided),
        "runner.rounds_collapsed": engine.rounds_collapsed,
        "runner.collapse_share": engine.rounds_collapsed / size.iterations,
        "runner.round_events_saved": engine.round_events_saved,
        "obs.instants": instants,
        "obs.instants_spilled": spilled,
        "sanitizer.events_checked": sanitize_events,
    }


def _blame(built: Built) -> Dict[str, float]:
    fractions: Dict[str, float] = {}
    if built.obs is not None and built.obs.last_run is not None and built.obs.last_run.causal:
        fractions = aggregate_blame(iteration_blames(built.obs.last_run.causal.spans))
    return {
        f"blame.{group}": fractions.get(group, 0.0)
        for group in ("compute", "network", "server", "sync_wait")
    }


def measure(name: str, seed: int, tiny: bool, trace: bool) -> Dict[str, object]:
    size = WORKLOADS[name].sizes["tiny" if tiny else "full"]
    built, spans, setup_samples = _set_up(name, size, seed)
    profiler = cProfile.Profile() if trace else None
    errors: List[str] = []
    sanitize_ok: Optional[bool] = None
    sanitize_s = 0.0
    sanitize_events = 0
    result = None
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = built.runner.run()
    except RuntimeError as exc:  # the runner's synchronization-deadlock error
        errors.append(f"run failed: {exc}")
    run_s = time.perf_counter() - t0
    if result is not None and built.obs is not None:
        t1 = time.perf_counter()
        report = sanitize_observability(built.obs)
        sanitize_s = time.perf_counter() - t1
        sanitize_ok, sanitize_events = report.ok, report.n_events
    if profiler is not None:
        profiler.disable()
    record: Dict[str, object] = {
        "workers": size.workers,
        "iterations": size.iterations,
        "setup_s": setup_samples,
        "setup_spans": spans.seconds,
        "run_s": run_s,
        "sanitize_s": sanitize_s,
    }
    if result is None:
        record["errors"] = errors
        return record
    accuracy = result.eval_by_iteration.final() if built.runner.cfg.task is not None else 0.0
    errors += _check(built, result, size, sanitize_ok, accuracy)
    record.update(
        errors=errors,
        sim={
            "sim_s_per_iter": result.duration / size.iterations,
            "wire_bytes_per_worker_iter": result.bytes_on_wire / (size.workers * size.iterations),
            "dprs_per_100_iter": result.dprs_per_100_iterations(),
            "test_accuracy": accuracy,
        },
        counts={**_counts(built, result, size, sanitize_events), **_blame(built)},
    )
    if profiler is not None:
        layers = LayerMap(PACKAGE_DIR)
        stats = pstats.Stats(profiler).stats
        record["layers"], _unattributed = fold_profile(stats, layers)
        record["counts"]["ml.steps"] = call_count(stats, layers, "ml", "step_fn")
    # Peak RSS last, after everything the run allocated.
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.tiny, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
