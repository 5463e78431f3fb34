"""Tests for the span/counter trace recorder."""

import numpy as np
import pytest

from repro.sim.trace import COMM_KINDS, Span, SpanKind, TraceRecorder


class TestSpans:
    def test_record_and_total(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0.0, 2.0)
        tr.record_span("w0", SpanKind.COMPUTE, 3.0, 4.0)
        tr.record_span("w0", SpanKind.PULL, 2.0, 3.0)
        assert tr.total("w0", SpanKind.COMPUTE) == pytest.approx(3.0)
        assert tr.count("w0", SpanKind.COMPUTE) == 2
        assert tr.end_time == 4.0

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().record_span("w", SpanKind.PUSH, 2.0, 1.0)

    def test_jitter_inversion_clipped_to_empty(self):
        # A sub-epsilon inversion is float clock jitter, not a bug: the
        # span is clipped to zero duration instead of raising.
        tr = TraceRecorder()
        t0 = 100.0
        tr.record_span("w", SpanKind.PUSH, t0, t0 - 1e-12 * t0)
        assert tr.total("w", SpanKind.PUSH) == 0.0
        assert tr.spans[0].t1 == tr.spans[0].t0 == t0
        assert tr.end_time == t0

    def test_real_inversion_still_raises(self):
        tr = TraceRecorder()
        with pytest.raises(ValueError, match="ends before"):
            tr.record_span("w", SpanKind.PUSH, 100.0, 99.9)

    def test_comm_vs_compute_split(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 5)
        tr.record_span("w0", SpanKind.PUSH, 5, 6)
        tr.record_span("w0", SpanKind.PULL, 6, 8)
        tr.record_span("w0", SpanKind.BLOCKED, 8, 9)
        assert tr.compute_time() == pytest.approx(5.0)
        assert tr.comm_time() == pytest.approx(4.0)
        assert set(COMM_KINDS) == {SpanKind.PUSH, SpanKind.PULL, SpanKind.BLOCKED}

    def test_actor_filtering(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 1)
        tr.record_span("w1", SpanKind.COMPUTE, 0, 2)
        tr.record_span("server0", SpanKind.SERVER_APPLY, 0, 3)
        assert tr.compute_time(["w0"]) == pytest.approx(1.0)
        assert tr.compute_time(["w0", "w1"]) == pytest.approx(3.0)
        assert tr.actors() == ["server0", "w0", "w1"]

    def test_breakdown(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 1)
        b = tr.breakdown("w0")
        assert b["compute"] == pytest.approx(1.0)
        assert b["pull"] == 0.0

    def test_mean_breakdown(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 2)
        tr.record_span("w1", SpanKind.COMPUTE, 0, 4)
        mb = tr.mean_breakdown(["w0", "w1"])
        assert mb["compute"] == pytest.approx(3.0)
        with pytest.raises(ValueError):
            tr.mean_breakdown([])

    def test_counters(self):
        tr = TraceRecorder()
        tr.incr("dprs")
        tr.incr("dprs", 2)
        assert tr.counters["dprs"] == 3

    def test_span_duration(self):
        assert Span("w", SpanKind.PULL, 1.0, 3.5).duration == pytest.approx(2.5)


class TestLeanMode:
    def test_totals_without_spans(self):
        tr = TraceRecorder(keep_spans=False)
        tr.record_span("w0", SpanKind.COMPUTE, 0, 2)
        assert tr.total("w0", SpanKind.COMPUTE) == pytest.approx(2.0)
        assert tr.spans == []
        with pytest.raises(ValueError):
            tr.render_timeline()


class TestTimeline:
    def test_render_contains_glyphs(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 5)
        tr.record_span("w0", SpanKind.PULL, 5, 10)
        out = tr.render_timeline(width=20)
        assert "#" in out and "<" in out
        assert "w0" in out
        assert "legend" in out

    def test_render_respects_actor_order(self):
        tr = TraceRecorder()
        tr.record_span("b", SpanKind.COMPUTE, 0, 1)
        tr.record_span("a", SpanKind.COMPUTE, 0, 1)
        out = tr.render_timeline(actors=["b", "a"], width=10)
        lines = out.splitlines()
        assert lines[1].startswith("b")
        assert lines[2].startswith("a")


class TestTimelineHeader:
    def test_header_right_aligns_t_max(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 8.0)
        out = tr.render_timeline(width=40)
        header, row = out.splitlines()[0], out.splitlines()[1]
        # rows are label + '|' + width cells + '|'; the t_max label must
        # end at the last cell column, and '0' sits over the first cell
        assert len(header) == len(row) - 1
        assert header.endswith("8s")
        label_w = row.index("|")
        assert header[label_w + 1] == "0"

    def test_narrow_width_rejected(self):
        tr = TraceRecorder()
        tr.record_span("w0", SpanKind.COMPUTE, 0, 1)
        with pytest.raises(ValueError, match="width"):
            tr.render_timeline(width=9)


def _snapshot(tr, names):
    """Every aggregate query, with floats as exact hex strings."""
    def bits(v):
        return float(v).hex()

    return {
        "totals": [(a, k.value, bits(v)) for (a, k), v in tr.totals().items()],
        "total": [(a, k.value, bits(tr.total(a, k))) for a in names for k in SpanKind],
        "count": [(a, k.value, tr.count(a, k)) for a in names for k in SpanKind],
        "by_kind": [bits(tr.total_by_kind(k)) for k in SpanKind],
        "by_kind_subset": [bits(tr.total_by_kind(k, names[::2])) for k in SpanKind],
        "compute": bits(tr.compute_time()),
        "comm": bits(tr.comm_time(names)),
        "actors": tr.actors(),
        "breakdown": [tr.breakdown(a) for a in names],
        "mean": tr.mean_breakdown(names),
        "end": bits(tr.end_time),
        "spans": [(s.actor, s.kind, s.t0, s.t1, s.iteration) for s in tr.spans],
    }


class TestTrackTable:
    """Columnar worker tracks answer every query like per-span dicts."""

    N = 40
    NAMES = [f"worker{w}" for w in range(N)]

    def _rounds(self, seed=0, rounds=4):
        rng = np.random.default_rng(seed)
        c = np.zeros(self.N)
        for r in range(rounds):
            e = c + rng.lognormal(0.0, 0.3, self.N)
            f = e + rng.uniform(0.0, 0.5, self.N)
            yield r, c, e, f, rng.permutation(self.N), rng.permutation(self.N)
            c = f

    def _record_batch(self, tr, r, c, e, f, o1, o2):
        tr.record_tracks(SpanKind.COMPUTE, c, e, r, o1)
        tr.record_span("server0", SpanKind.SERVER_APPLY, float(e.min()), float(f.max()))
        tr.record_tracks(SpanKind.PULL, e, f, r, o2)

    def _record_each(self, tr, r, c, e, f, o1, o2):
        for w in o1.tolist():
            tr.record_span(self.NAMES[w], SpanKind.COMPUTE, float(c[w]), float(e[w]), r)
        tr.record_span("server0", SpanKind.SERVER_APPLY, float(e.min()), float(f.max()))
        for w in o2.tolist():
            tr.record_span(self.NAMES[w], SpanKind.PULL, float(e[w]), float(f[w]), r)

    @pytest.mark.parametrize("keep", [True, False])
    def test_batch_commit_matches_per_span_dicts(self, keep):
        batch = TraceRecorder(keep_spans=keep, tracks=self.NAMES)
        tracked = TraceRecorder(keep_spans=keep, tracks=self.NAMES)
        plain = TraceRecorder(keep_spans=keep)  # no tracks: dict store only
        # A non-track actor first, so the first-record order interleaves
        # both stores inside total_by_kind's sum.
        for tr in (batch, tracked, plain):
            tr.record_span("driver", SpanKind.COMPUTE, 0.0, 0.125)
        for r, c, e, f, o1, o2 in self._rounds():
            self._record_batch(batch, r, c, e, f, o1, o2)
            self._record_each(tracked, r, c, e, f, o1, o2)
            self._record_each(plain, r, c, e, f, o1, o2)
        names = self.NAMES + ["driver", "server0"]
        ref = _snapshot(plain, names)
        assert _snapshot(tracked, names) == ref
        assert _snapshot(batch, names) == ref
        assert list(batch.totals()) == list(plain._totals)  # first-record order

    def test_collapsed_then_event_rounds_match_all_event(self):
        mixed = TraceRecorder(keep_spans=False, tracks=self.NAMES)
        event = TraceRecorder(keep_spans=False)
        for r, c, e, f, o1, o2 in self._rounds(seed=3, rounds=6):
            self._record_each(event, r, c, e, f, o1, o2)
            if r < 3:
                self._record_batch(mixed, r, c, e, f, o1, o2)
            else:
                for w in o1.tolist():
                    mixed.record_track(w, SpanKind.COMPUTE, float(c[w]), float(e[w]), r)
                mixed.record_span(
                    "server0", SpanKind.SERVER_APPLY, float(e.min()), float(f.max())
                )
                for w in o2.tolist():
                    mixed.record_track(w, SpanKind.PULL, float(e[w]), float(f[w]), r)
        names = self.NAMES + ["server0"]
        assert _snapshot(mixed, names) == _snapshot(event, names)
        assert mixed.count("worker5", SpanKind.COMPUTE) == 6

    def test_batch_clips_jitter_like_record_span(self):
        t0 = np.array([100.0, 5.0, 0.0])
        t1 = np.array([100.0 - 1e-12 * 100.0, 6.0, 0.5])
        batch = TraceRecorder(tracks=["a", "b", "c"])
        plain = TraceRecorder()
        batch.record_tracks(SpanKind.PUSH, t0, t1, 2, np.array([2, 0, 1]))
        for i in (2, 0, 1):
            plain.record_span("abc"[i], SpanKind.PUSH, float(t0[i]), float(t1[i]), 2)
        assert _snapshot(batch, list("abc")) == _snapshot(plain, list("abc"))
        assert batch.total("a", SpanKind.PUSH) == 0.0
        assert batch.spans[1].t1 == batch.spans[1].t0 == 100.0

    def test_batch_raises_like_record_span(self):
        t0 = np.array([5.0, 100.0, 3.0])
        t1 = np.array([6.0, 99.9, 1.0])
        order = np.array([0, 2, 1])
        with pytest.raises(ValueError) as single:
            plain = TraceRecorder()
            for i in order.tolist():
                plain.record_span("abc"[i], SpanKind.PUSH, float(t0[i]), float(t1[i]))
        batch = TraceRecorder(tracks=["a", "b", "c"])
        with pytest.raises(ValueError) as batched:
            batch.record_tracks(SpanKind.PUSH, t0, t1, order=order)
        assert str(batched.value) == str(single.value) == "span ends before it starts: [3.0, 1.0]"
        # A raising batch records nothing.
        assert batch.actors() == [] and batch.spans == [] and batch.end_time == 0.0

    def test_batch_needs_one_span_per_track(self):
        tr = TraceRecorder(tracks=["a", "b"])
        with pytest.raises(ValueError, match="one span per track"):
            tr.record_tracks(SpanKind.COMPUTE, np.zeros(3), np.ones(3))

    def test_track_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            TraceRecorder(tracks=["a", "a"])

    def test_unrecorded_tracks_are_not_actors(self):
        tr = TraceRecorder(tracks=self.NAMES)
        tr.record_track(3, SpanKind.COMPUTE, 0.0, 1.0)
        assert tr.actors() == ["worker3"]
        assert tr.total("worker4", SpanKind.COMPUTE) == 0.0
        assert tr.count("worker4", SpanKind.COMPUTE) == 0
        assert tr.total_by_kind(SpanKind.PULL) == 0
