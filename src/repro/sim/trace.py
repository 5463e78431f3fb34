"""Timeline tracing: spans, counters and the Fig 3/5-style summaries.

Each actor (worker/server) records spans — compute, push wait, pull wait,
blocked-in-barrier — from which the benches derive exactly the quantities
the paper reports: computation vs. communication time (Fig 6), DPR counts
(Fig 9, Table IV), and the timeline diagrams (Fig 3, Fig 5).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class SpanKind(enum.Enum):
    """What a span's time was spent on (Fig-6 categories)."""

    COMPUTE = "compute"
    PUSH = "push"  # time from issuing a push until server ack received
    PULL = "pull"  # time from issuing a pull until parameters received
    BLOCKED = "blocked"  # extra wait inside a barrier/DPR buffer
    SERVER_APPLY = "server_apply"
    OTHER = "other"


#: Span kinds counted as "communication" in Fig-6-style breakdowns.
COMM_KINDS = (SpanKind.PUSH, SpanKind.PULL, SpanKind.BLOCKED)

#: Row of each span kind in the columnar track table.
_KIND_ROW: Dict[SpanKind, int] = {k: i for i, k in enumerate(SpanKind)}


@dataclass(frozen=True)
class Span:
    """One ``[t0, t1]`` interval of ``kind`` work on an actor's track."""

    actor: str
    kind: SpanKind
    t0: float
    t1: float
    iteration: int = -1
    note: str = ""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class TraceRecorder:
    """Accumulates spans and named counters for one simulated run.

    Actors named in ``tracks`` (the simulator's workers) live in a
    columnar *track table*: one float64 total, one count and one
    first-record sequence number per (span kind, track), so a whole
    cohort's spans commit with one vector add per kind
    (:meth:`record_tracks`) while single spans still record one at a
    time (:meth:`record_track`, or :meth:`record_span` by name).  Every
    other actor keeps a per-(actor, kind) dict entry.  A track actor's
    spans always land in the table — however they were recorded — so
    its totals are one left fold in recording order, and every query
    returns the same floats a plain per-span dict would.
    """

    #: Tolerated clock jitter: a span whose end precedes its start by at
    #: most ``NEGATIVE_EPS * max(1, |t0|)`` seconds is clipped to zero
    #: duration (float rounding in clock sources); anything larger is a
    #: recording bug and raises, so Fig-6-style breakdowns can never
    #: accumulate negative time.
    NEGATIVE_EPS = 1e-9

    def __init__(self, keep_spans: bool = True, tracks: Sequence[str] = ()):
        self.keep_spans = keep_spans
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._totals: Dict[Tuple[str, SpanKind], float] = defaultdict(float)
        self._span_counts: Dict[Tuple[str, SpanKind], int] = defaultdict(int)
        #: First-record sequence number of each (actor, kind) pair outside
        #: the track table; ``total_by_kind`` sums in this order.
        self._first: Dict[Tuple[str, SpanKind], int] = {}
        self._n_pairs = 0
        self.end_time: float = 0.0
        self.tracks: List[str] = list(tracks)
        self._track_index: Dict[str, int] = {a: i for i, a in enumerate(self.tracks)}
        if len(self._track_index) != len(self.tracks):
            raise ValueError("track names must be unique")
        shape = (len(_KIND_ROW), len(self.tracks))
        self._track_totals = np.zeros(shape)
        self._track_counts = np.zeros(shape, dtype=np.int64)
        # -1 until the track records its first span of that kind.
        self._track_first = np.full(shape, -1, dtype=np.int64)

    def _clip(self, t0: float, t1: float) -> float:
        """End time of an inverted span: ``t0`` for jitter, else raise."""
        if t0 - t1 > self.NEGATIVE_EPS * max(1.0, abs(t0)):
            raise ValueError(f"span ends before it starts: [{t0}, {t1}]")
        return t0  # clock jitter: clip to an empty span

    def record_span(
        self,
        actor: str,
        kind: SpanKind,
        t0: float,
        t1: float,
        iteration: int = -1,
        note: str = "",
    ) -> None:
        """Record one ``[t0, t1]`` span of ``kind`` for ``actor``."""
        track = self._track_index.get(actor)
        if track is not None:
            self.record_track(track, kind, t0, t1, iteration, note)
            return
        if t1 < t0:
            t1 = self._clip(t0, t1)
        if self.keep_spans:
            self.spans.append(Span(actor, kind, t0, t1, iteration, note))
        key = (actor, kind)
        if key not in self._first:
            self._first[key] = self._n_pairs
            self._n_pairs += 1
        self._totals[key] += t1 - t0
        self._span_counts[key] += 1
        self.end_time = max(self.end_time, t1)

    def record_track(
        self,
        track: int,
        kind: SpanKind,
        t0: float,
        t1: float,
        iteration: int = -1,
        note: str = "",
    ) -> None:
        """Record one span for track number ``track`` (``tracks[track]``)."""
        if t1 < t0:
            t1 = self._clip(t0, t1)
        if self.keep_spans:
            self.spans.append(Span(self.tracks[track], kind, t0, t1, iteration, note))
        row = _KIND_ROW[kind]
        if self._track_first[row, track] < 0:
            self._track_first[row, track] = self._n_pairs
            self._n_pairs += 1
        self._track_totals[row, track] += t1 - t0
        self._track_counts[row, track] += 1
        self.end_time = max(self.end_time, t1)

    def record_tracks(
        self,
        kind: SpanKind,
        t0: np.ndarray,
        t1: np.ndarray,
        iteration: int = -1,
        order: Optional[np.ndarray] = None,
    ) -> None:
        """Record one ``[t0[i], t1[i]]`` span of ``kind`` for every track.

        Equivalent to calling :meth:`record_track` once per track in
        ``order`` (a permutation of the track numbers, default ascending):
        the same totals, counts, ``end_time``, first-record order and —
        when spans are kept — the same span list.  Jitter inversions clip
        and larger inversions raise the same ``ValueError`` as the first
        offending span in ``order`` would; a raising batch records
        nothing.
        """
        t0 = np.asarray(t0, dtype=np.float64)
        t1 = np.asarray(t1, dtype=np.float64)
        if t0.shape != (len(self.tracks),) or t1.shape != t0.shape:
            raise ValueError(
                f"need one span per track ({len(self.tracks)}), "
                f"got {t0.shape} and {t1.shape}"
            )
        if not t0.size:
            return
        order = np.arange(t0.size) if order is None else np.asarray(order)
        dur = t1 - t0
        if dur.min() < 0:
            inverted = dur < 0
            bad = inverted & (t0 - t1 > self.NEGATIVE_EPS * np.maximum(1.0, np.abs(t0)))
            if bad.any():
                first = int(order[np.flatnonzero(bad[order])[0]])
                raise ValueError(
                    f"span ends before it starts: [{float(t0[first])}, {float(t1[first])}]"
                )
            t1 = np.where(inverted, t0, t1)
            dur = t1 - t0
        row = _KIND_ROW[kind]
        self._track_totals[row] += dur
        self._track_counts[row] += 1
        first = self._track_first[row]
        if first.min() < 0:
            new = order[first[order] < 0]
            first[new] = np.arange(self._n_pairs, self._n_pairs + new.size)
            self._n_pairs += new.size
        if self.keep_spans:
            names = self.tracks
            starts = t0.tolist()
            ends = t1.tolist()
            self.spans.extend(
                Span(names[i], kind, starts[i], ends[i], iteration)
                for i in order.tolist()
            )
        self.end_time = max(self.end_time, float(t1.max()))

    def incr(self, counter: str, by: float = 1.0) -> None:
        """Increment a named counter."""
        self.counters[counter] += by

    # -- aggregation ----------------------------------------------------

    def totals(self) -> Dict[Tuple[str, SpanKind], float]:
        """Seconds per recorded ``(actor, kind)`` pair, in first-record order."""
        pairs = [(self._first[key], key, v) for key, v in self._totals.items()]
        rows, cols = np.nonzero(self._track_first >= 0)
        kinds = list(_KIND_ROW)
        pairs.extend(
            zip(
                self._track_first[rows, cols].tolist(),
                [(self.tracks[c], kinds[r]) for r, c in zip(rows.tolist(), cols.tolist())],
                self._track_totals[rows, cols].tolist(),
            )
        )
        pairs.sort(key=lambda p: p[0])
        return {key: v for _seq, key, v in pairs}

    def actors(self) -> List[str]:
        """All actor names seen so far, sorted."""
        seen = {a for (a, _k) in self._totals}
        recorded = np.flatnonzero((self._track_counts > 0).any(axis=0))
        seen.update(self.tracks[i] for i in recorded.tolist())
        return sorted(seen)

    def total(self, actor: str, kind: SpanKind) -> float:
        """Total seconds of ``kind`` recorded for ``actor``."""
        track = self._track_index.get(actor)
        if track is not None:
            return float(self._track_totals[_KIND_ROW[kind], track])
        return self._totals.get((actor, kind), 0.0)

    def count(self, actor: str, kind: SpanKind) -> int:
        """Number of ``kind`` spans recorded for ``actor``."""
        track = self._track_index.get(actor)
        if track is not None:
            return int(self._track_counts[_KIND_ROW[kind], track])
        return self._span_counts.get((actor, kind), 0)

    def total_by_kind(self, kind: SpanKind, actors: Optional[Iterable[str]] = None) -> float:
        """Total seconds of ``kind`` across ``actors`` (all if None).

        Sums one actor at a time in first-record order, so the float
        result does not depend on which store holds an actor.
        """
        wanted = None if actors is None else set(actors)
        seqs: List[int] = []
        values: List[float] = []
        for key, v in self._totals.items():
            if key[1] is kind and (wanted is None or key[0] in wanted):
                seqs.append(self._first[key])
                values.append(v)
        row = _KIND_ROW[kind]
        recorded = self._track_first[row] >= 0
        if wanted is not None and not wanted.issuperset(self.tracks):
            recorded &= np.fromiter(
                (a in wanted for a in self.tracks), dtype=bool, count=len(self.tracks)
            )
        picked = np.flatnonzero(recorded)
        if picked.size:
            order = np.argsort(
                np.concatenate((np.asarray(seqs, dtype=np.int64), self._track_first[row, picked])),
                kind="stable",
            )
            merged = np.concatenate(
                (np.asarray(values, dtype=np.float64), self._track_totals[row, picked])
            )
            values = merged[order].tolist()
        return sum(values)

    def compute_time(self, actors: Optional[Iterable[str]] = None) -> float:
        """Aggregate compute seconds across (worker) actors."""
        return self.total_by_kind(SpanKind.COMPUTE, actors)

    def comm_time(self, actors: Optional[Iterable[str]] = None) -> float:
        """Aggregate communication+wait seconds across (worker) actors."""
        return sum(self.total_by_kind(k, actors) for k in COMM_KINDS)

    def breakdown(self, actor: str) -> Dict[str, float]:
        """Seconds per span kind for one actor."""
        return {k.value: self.total(actor, k) for k in SpanKind}

    def mean_breakdown(self, actors: Iterable[str]) -> Dict[str, float]:
        """Per-kind seconds averaged over ``actors``."""
        actors = list(actors)
        if not actors:
            raise ValueError("need at least one actor")
        out: Dict[str, float] = {k.value: 0.0 for k in SpanKind}
        for a in actors:
            for k in SpanKind:
                out[k.value] += self.total(a, k)
        return {k: v / len(actors) for k, v in out.items()}

    # -- rendering (examples / figure 3&5 demos) -------------------------

    def render_timeline(
        self,
        actors: Optional[List[str]] = None,
        width: int = 80,
        t_max: Optional[float] = None,
    ) -> str:
        """ASCII Gantt: one row per actor; '#'=compute, '>'=push, '<'=pull,
        '.'=blocked.  Resolution is t_max/width per character."""
        if not self.keep_spans:
            raise ValueError("timeline rendering needs keep_spans=True")
        if width < 10:
            raise ValueError(f"timeline width must be >= 10 columns, got {width}")
        if actors is None:
            actors = self.actors()
        t_max = t_max if t_max is not None else (self.end_time or 1.0)
        glyph = {
            SpanKind.COMPUTE: "#",
            SpanKind.PUSH: ">",
            SpanKind.PULL: "<",
            SpanKind.BLOCKED: ".",
            SpanKind.SERVER_APPLY: "*",
            SpanKind.OTHER: "~",
        }
        rows = []
        label_w = max((len(a) for a in actors), default=4) + 1
        for actor in actors:
            cells = [" "] * width
            for s in self.spans:
                if s.actor != actor or s.t0 >= t_max:
                    continue
                c0 = int(s.t0 / t_max * width)
                c1 = max(c0 + 1, int(min(s.t1, t_max) / t_max * width))
                for c in range(c0, min(c1, width)):
                    cells[c] = glyph[s.kind]
            rows.append(actor.ljust(label_w) + "|" + "".join(cells) + "|")
        # Axis: t=0 under the first cell, t_max right-aligned to the row end.
        header = " " * (label_w + 1) + "0" + f"{t_max:.3g}s".rjust(width - 1)
        legend = "legend: #=compute  >=push  <=pull  .=blocked/barrier  *=apply"
        return "\n".join([header] + rows + [legend])
