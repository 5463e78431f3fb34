"""Self-test of the benchmark itself.

    python3 cosim_bench/selftest.py

Checks that every module under ``src/repro`` maps to exactly one layer,
that the profile fold charges time to the right layer and conserves it,
that ``run.py`` and ``BENCHMARK.json`` agree on workloads, metric names
and units, and runs each workload at tiny size in both modes: every
metric is printed with its unit, the outputs pass their checks, and the
layer self-times plus ``other.self_s`` add up to the traced wall.
The functions are also collected by ``python3 -m pytest cosim_bench/selftest.py``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "repro"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import LAYER_OF_PATH, LAYERS, LayerMap, fold_profile, matching_entries  # noqa: E402


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_module_maps_to_exactly_one_layer():
    files = [p.relative_to(PACKAGE_DIR).as_posix() for p in sorted(PACKAGE_DIR.rglob("*.py"))]
    assert files
    for rel in files:
        entries = matching_entries(rel)
        assert len(entries) == 1, f"{rel} is covered by {entries or 'no layer'}"
    for entry in LAYER_OF_PATH:
        assert any(rel == entry or rel.startswith(entry) for rel in files), f"stale entry {entry}"
    assert set(LAYER_OF_PATH.values()) == set(LAYERS)


def test_fold_charges_callers_and_conserves_time():
    layers = LayerMap(PACKAGE_DIR)
    engine = (str(PACKAGE_DIR / "sim" / "engine.py"), 1, "step")
    server = (str(PACKAGE_DIR / "core" / "server.py"), 1, "handle")
    helper = ("/elsewhere/numpy/helper.py", 1, "helper")
    builtin = ("~", 0, "<built-in method sum>")
    root = ("/elsewhere/main.py", 1, "main")
    # cProfile rows: (primitive calls, calls, self s, cumulative s, callers);
    # each caller edge: (calls, primitive calls, self s, cumulative s).
    stats = {
        engine: (1, 1, 1.0, 2.0, {}),
        server: (1, 1, 0.5, 2.5, {}),
        # helper runs 1 s under engine and 3 s under server ...
        helper: (2, 2, 0.4, 4.0, {engine: (1, 1, 0.1, 1.0), server: (1, 1, 0.3, 3.0)}),
        # ... and the builtin's time under helper splits 1:3 between them.
        builtin: (3, 3, 2.0, 2.0, {helper: (2, 2, 1.6, 1.6), root: (1, 1, 0.4, 0.4)}),
        root: (1, 1, 0.25, 0.25, {}),
    }
    self_s, unattributed = fold_profile(stats, layers)
    assert math.isclose(self_s["engine"], 1.0 + 0.1 + 1.6 * 0.25)
    assert math.isclose(self_s["server"], 0.5 + 0.3 + 1.6 * 0.75)
    assert math.isclose(unattributed, 0.4 + 0.25)
    total = sum(row[2] for row in stats.values())
    assert math.isclose(sum(self_s.values()) + unattributed, total)


def test_benchmark_json_matches_run():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert set(WORKLOADS) == set(run.WORKLOADS)


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    assert printed == units
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_smoke_every_workload():
    for workload in run.WORKLOADS:
        _smoke(workload, trace=0)
        m = _smoke(workload, trace=1)
        wall = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["other.self_s"]
        assert m["other.self_s"] >= 0.0
        for layer in LAYERS:
            assert math.isclose(m[f"{layer}.share"] * wall, m[f"{layer}.self_s"],
                                rel_tol=1e-9, abs_tol=1e-12)
        assert m["trace_overhead_x"] > 1.0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
