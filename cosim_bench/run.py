"""Steady-state benchmark of the FluentPS co-simulator.

    python3 cosim_bench/run.py --workload comm_alexnet_10k --seed 1 --seconds 40 --trace 0

Run from the root of the repository.  Each measured repetition runs in a
fresh process (``rep.py``), one at a time, so every repetition reports
its own peak RSS.  With ``--trace 0`` the workload repeats until
``--seconds`` is spent and the end-to-end metrics are medians over the
repetitions.  With ``--trace 1`` one untraced and one profiled
repetition give the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``METRICS.md`` describes every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("comm_alexnet_10k", "collapse_resnet56_100k", "cosim_checked_64")

#: End-to-end metric name -> unit.
END_TO_END: Dict[str, str] = {
    "worker_iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_s_per_iter": "s",
    "wire_bytes_per_worker_iter": "B",
}

#: Per-layer metric name -> unit.
PER_LAYER: Dict[str, str] = {
    "setup.cluster_s": "s",
    "setup.task_s": "s",
    "setup.runner_init_s": "s",
    **{f"{layer}.{suffix}": unit for layer in LAYERS
       for suffix, unit in (("self_s", "s"), ("share", "fraction"))},
    "engine.events": "count",
    "engine.events_skipped": "count",
    "engine.events_elided": "count",
    "engine.calendar_sweeps": "count",
    "engine.pending_hwm": "count",
    "wire.messages": "count",
    "wire.bytes": "B",
    "wire.fast_path_share": "fraction",
    "wire.fused_share": "fraction",
    "server.msgs_inline": "count",
    "server.msgs_drained": "count",
    "server.dprs": "count",
    "server.snapshot_copies": "count",
    "server.copies_avoided_share": "fraction",
    "runner.rounds_collapsed": "count",
    "runner.collapse_share": "fraction",
    "runner.round_events_saved": "count",
    "obs.instants": "count",
    "obs.instants_spilled": "count",
    "sanitizer.events_checked": "count",
    "sanitizer.events_per_s": "1/s",
    "ml.steps": "count",
    "blame.compute": "fraction",
    "blame.network": "fraction",
    "blame.server": "fraction",
    "blame.sync_wait": "fraction",
    "other.self_s": "s",
    "trace_overhead_x": "x",
    "sanitize_s": "s",
    "test_accuracy": "fraction",
    "dprs_per_100_iter": "count",
}

#: A run must end within this many seconds.
RUN_LIMIT_S = 175.0


class Reps:
    """Runs ``rep.py`` repetitions in fresh processes and keeps their records."""

    def __init__(self, workload: str, seed: int, tiny: bool, tmpdir: str) -> None:
        self.args = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        # One thread: NumPy's BLAS pool would otherwise add a second one.
        self.env = {**os.environ, "TMPDIR": tmpdir, "OPENBLAS_NUM_THREADS": "1",
                    "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        #: Records of repetitions that completed, whether or not they passed their checks.
        self.records: List[dict] = []
        self.errors: List[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def run(self, trace: bool) -> Optional[dict]:
        """One repetition; its record, or None when it did not complete."""
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "rep.py"), *self.args] + (["--trace"] if trace else [])
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failed += 1
            self.errors.append(f"repetition exceeded {timeout:.0f}s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failed += 1
            self.errors.append(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        record = json.loads(lines[-1])
        if record["errors"]:
            self.failed += 1
            self.errors.extend(record["errors"])
        if "sim" not in record:
            return None
        self.records.append(record)
        return record

    def simulated_agree(self) -> bool:
        first = self.records[0]["sim"]
        return all(r["sim"] == first for r in self.records[1:])


def end_to_end(reps: Reps, seconds: float) -> Dict[str, float]:
    """Repeat until ``seconds`` is spent; medians over the repetitions."""
    budget = min(seconds, RUN_LIMIT_S)
    while reps.run(trace=False) is not None:
        if reps.elapsed() * (reps.attempted + 1) / reps.attempted > budget:
            break
    if not reps.records:
        return {}
    records = reps.records
    for i, r in enumerate(records):
        print(f"repetition {i}: run_s={r['run_s']:.4f} setup_s={r['setup_s']} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f}")
    sim = records[0]["sim"]
    return {
        "worker_iters_per_s": median(r["workers"] * r["iterations"] / r["run_s"] for r in records),
        "setup_s": median(s for r in records for s in r["setup_s"]),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in records),
        "sim_s_per_iter": sim["sim_s_per_iter"],
        "wire_bytes_per_worker_iter": sim["wire_bytes_per_worker_iter"],
    }


def per_layer(reps: Reps) -> Dict[str, float]:
    """One untraced and one profiled repetition."""
    reference = reps.run(trace=False)
    traced = reps.run(trace=True) if reference is not None else None
    if traced is None:
        return {}
    traced_wall = traced["run_s"] + traced["sanitize_s"]
    layers = traced["layers"]
    out: Dict[str, float] = dict(reference["setup_spans"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer]
        out[f"{layer}.share"] = layers[layer] / traced_wall
    out.update(traced["counts"])
    events = out["sanitizer.events_checked"]
    out["sanitizer.events_per_s"] = events / reference["sanitize_s"] if events else 0.0
    out["other.self_s"] = traced_wall - sum(layers[layer] for layer in LAYERS)
    out["trace_overhead_x"] = traced_wall / (reference["run_s"] + reference["sanitize_s"])
    out["sanitize_s"] = reference["sanitize_s"]
    out["test_accuracy"] = traced["sim"]["test_accuracy"]
    out["dprs_per_100_iter"] = traced["sim"]["dprs_per_100_iter"]
    return out


def report(values: Dict[str, float], units: Dict[str, str]) -> Tuple[bool, Dict[str, dict]]:
    """Print every metric by name and unit; False when one is missing or not finite."""
    complete = True
    metrics: Dict[str, dict] = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None or not math.isfinite(value):
            complete = False
            print(f"  {name:32s} missing")
            continue
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:>16.6g} {unit}")
    return complete, metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="Steady-state benchmark of the FluentPS co-simulator.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (selftest.py)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # repetition, and the temp directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmpdir = tempfile.mkdtemp(prefix=".cosim_bench_tmp", dir=ROOT)
    try:
        reps = Reps(args.workload, args.seed, args.tiny, tmpdir)
        if args.trace:
            values, units = per_layer(reps), PER_LAYER
        else:
            values, units = end_to_end(reps, args.seconds), END_TO_END
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for error in reps.errors:
        print(f"failed: {error}", file=sys.stderr)
    if not values:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={reps.attempted} wall={reps.elapsed():.1f}s")
    complete, metrics = report(values, units)
    deterministic = reps.simulated_agree()
    if not deterministic:
        print("failed: repetitions of one seed disagree on simulated outputs", file=sys.stderr)
    correct = complete and deterministic and reps.failed == 0
    print(json.dumps({"correct": correct, "attempted": reps.attempted,
                      "failed": reps.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
