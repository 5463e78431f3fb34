"""Map the simulator's host time onto its layers.

A layer is a set of source files under ``src/repro``; every file belongs
to exactly one layer (``selftest.py`` checks this against the tree).
:func:`fold_profile` turns a :mod:`cProfile` profile into self-seconds
per layer.  Time spent in code outside ``src/repro`` (the standard
library, NumPy, C builtins) is charged to the layer that called it: a
function's self-time along each caller edge goes to that caller's
layer, and when the caller is itself outside ``src/repro`` the share is
passed further up in proportion to the caller's cumulative time under
each of its own callers.  Time whose call chain never reaches
``src/repro`` is returned as unattributed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Entries are paths relative to ``src/repro``: a file, or a directory
#: ending in ``/`` that covers everything beneath it.  No two entries
#: may cover the same file.
LAYER_OF_PATH: Dict[str, str] = {
    "sim/engine.py": "engine",
    "sim/network.py": "wire",
    "sim/cluster.py": "wire",
    "core/": "server",
    "sim/runner.py": "runner",
    "sim/__init__.py": "runner",
    "baselines/": "runner",
    "parallel/": "runner",
    "utils/records.py": "runner",
    "sim/stragglers.py": "compute",
    "utils/rng.py": "compute",
    "sim/trace.py": "trace",
    "obs/": "obs",
    "analysis/": "sanitizer",
    "ml/": "ml",
    "bench/": "harness",
    "theory/": "harness",
    "utils/__init__.py": "harness",
    "utils/plots.py": "harness",
    "utils/tables.py": "harness",
    "__init__.py": "harness",
}

#: Layers in report order.
LAYERS: Tuple[str, ...] = (
    "engine", "wire", "server", "runner", "compute", "trace",
    "obs", "sanitizer", "ml", "harness",
)

#: cProfile's key for one function: (filename, first line, name).
FuncKey = Tuple[str, int, str]


def matching_entries(rel_path: str) -> List[str]:
    """Every :data:`LAYER_OF_PATH` entry that covers ``rel_path``."""
    return [
        entry for entry in LAYER_OF_PATH
        if rel_path == entry or (entry.endswith("/") and rel_path.startswith(entry))
    ]


class LayerMap:
    """Resolves source filenames to layers for one ``src/repro`` tree."""

    def __init__(self, package_dir: Path) -> None:
        self._prefix = str(package_dir.resolve()) + "/"
        self._cache: Dict[str, Optional[str]] = {}

    def layer_of(self, filename: str) -> Optional[str]:
        """The layer of a source file, or None when it is not under the package."""
        try:
            return self._cache[filename]
        except KeyError:
            pass
        layer = None
        if filename.startswith(self._prefix):
            entries = matching_entries(filename[len(self._prefix):])
            if len(entries) == 1:
                layer = LAYER_OF_PATH[entries[0]]
        self._cache[filename] = layer
        return layer


def fold_profile(stats: Dict[FuncKey, tuple], layers: LayerMap) -> Tuple[Dict[str, float], float]:
    """Fold ``pstats.Stats(...).stats`` into ``({layer: self_s}, unattributed_s)``.

    The fold conserves time: the returned seconds sum to the total self
    time in ``stats``.
    """
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def responsibility(func: FuncKey, active: set) -> Dict[str, float]:
        """How a call into ``func`` splits across layers (weights sum to <= 1)."""
        layer = layers.layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = {c: edge for c, edge in stats[func][4].items() if c != func and c not in active}
        weights = {c: edge[3] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: float(edge[0]) for c, edge in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total > 0.0:
            active.add(func)
            for caller, weight in weights.items():
                for lay, p in responsibility(caller, active).items():
                    out[lay] = out.get(lay, 0.0) + p * weight / total
            active.discard(func)
        shares[func] = out
        return out

    self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
    unattributed = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layers.layer_of(func[0])
        if layer is not None:
            self_s[layer] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            for lay, p in responsibility(caller, {func}).items():
                self_s[lay] += edge[2] * p
                charged += edge[2] * p
        unattributed += tt - charged
    return self_s, unattributed


def call_count(stats: Dict[FuncKey, tuple], layers: LayerMap, layer: str, name: str) -> int:
    """Total calls to functions called ``name`` in ``layer``."""
    return sum(
        int(row[1]) for func, row in stats.items()
        if func[2] == name and layers.layer_of(func[0]) == layer
    )
