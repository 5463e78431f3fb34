"""Unit + property tests for the discrete-event engine."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    _HWM_STRIDE,
    AllOf,
    Engine,
    Resource,
    SimulationError,
    Store,
    Timeout,
)


class TestScheduling:
    def test_call_in_runs_at_right_time(self):
        eng = Engine()
        seen = []
        eng.call_in(2.0, lambda: seen.append(eng.now))
        eng.call_in(1.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [1.0, 2.0]

    def test_fifo_at_equal_times(self):
        eng = Engine()
        seen = []
        for i in range(10):
            eng.call_in(1.0, lambda i=i: seen.append(i))
        eng.run()
        assert seen == list(range(10))

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_in(-0.1, lambda: None)

    def test_call_at_past_rejected(self):
        eng = Engine()
        eng.call_in(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(1.0, lambda: None)

    def test_run_until_stops_clock_at_until(self):
        eng = Engine()
        eng.call_in(10.0, lambda: None)
        eng.run(until=3.0)
        assert eng.now == 3.0
        assert eng.pending_events == 1
        eng.run()
        assert eng.now == 10.0

    def test_run_until_beyond_last_event_advances_clock(self):
        eng = Engine()
        eng.call_in(1.0, lambda: None)
        eng.run(until=7.5)
        assert eng.now == 7.5

    def test_run_until_past_rejected(self):
        eng = Engine()
        eng.call_in(20.0, lambda: None)
        eng.run(until=15.0)
        with pytest.raises(SimulationError, match="past"):
            eng.run(until=5.0)
        assert eng.now == 15.0  # the clock never rewinds
        assert eng.run(until=15.0) == 15.0  # until == now is allowed
        seen = []
        eng.call_in(1.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [16.0]

    def test_max_events_budget(self):
        eng = Engine()
        for _ in range(5):
            eng.call_in(1.0, lambda: None)
        eng.run(max_events=3)
        assert eng.events_processed == 3
        assert eng.pending_events == 2

    def test_nested_scheduling(self):
        eng = Engine()
        seen = []

        def outer():
            seen.append(("outer", eng.now))
            eng.call_in(1.5, lambda: seen.append(("inner", eng.now)))

        eng.call_in(1.0, outer)
        eng.run()
        assert seen == [("outer", 1.0), ("inner", 2.5)]


class TestSignal:
    def test_fire_resumes_waiters_with_payload(self):
        eng = Engine()
        sig = eng.signal("s")
        got = []
        sig.subscribe(got.append)
        sig.subscribe(got.append)
        sig.fire(42)
        eng.run()
        assert got == [42, 42]

    def test_subscribe_after_fire_immediate(self):
        eng = Engine()
        sig = eng.signal()
        sig.fire("x")
        got = []
        sig.subscribe(got.append)
        eng.run()
        assert got == ["x"]

    def test_double_fire_rejected(self):
        eng = Engine()
        sig = eng.signal("dup")
        sig.fire()
        with pytest.raises(SimulationError):
            sig.fire()

    def test_payload_before_fire_rejected(self):
        eng = Engine()
        sig = eng.signal()
        with pytest.raises(SimulationError):
            _ = sig.payload

    def test_foreign_engine_rejected(self):
        a, b = Engine(), Engine()
        sig = a.signal()
        with pytest.raises(SimulationError):
            sig._subscribe(b, lambda _: None)


class TestProcess:
    def test_simple_timeout_process(self):
        eng = Engine()
        log = []

        def proc():
            log.append(eng.now)
            yield Timeout(2.0)
            log.append(eng.now)
            yield Timeout(3.0)
            log.append(eng.now)
            return "done"

        p = eng.spawn(proc())
        eng.run()
        assert log == [0.0, 2.0, 5.0]
        assert p.finished and p.result == "done"

    def test_process_waits_on_signal(self):
        eng = Engine()
        sig = eng.signal()
        got = []

        def waiter():
            value = yield sig
            got.append((eng.now, value))

        eng.spawn(waiter())
        eng.call_in(4.0, lambda: sig.fire("hello"))
        eng.run()
        assert got == [(4.0, "hello")]

    def test_process_join(self):
        eng = Engine()

        def child():
            yield Timeout(1.0)
            return 99

        def parent():
            result = yield eng.spawn(child())
            return result + 1

        p = eng.spawn(parent())
        eng.run()
        assert p.result == 100

    def test_yield_non_waitable_raises(self):
        eng = Engine()

        def bad():
            yield "not a waitable"

        eng.spawn(bad())
        with pytest.raises(SimulationError):
            eng.run()

    def test_yield_bare_number_is_timeout(self):
        eng = Engine()
        seen = []

        def proc():
            got = yield 1.5
            seen.append((eng.now, got))
            got = yield 2  # ints work too
            seen.append((eng.now, got))

        eng.spawn(proc())
        eng.run()
        assert seen == [(1.5, None), (3.5, None)]

    def test_yield_negative_number_raises(self):
        eng = Engine()

        def bad():
            yield -0.5

        eng.spawn(bad())
        with pytest.raises(SimulationError):
            eng.run()

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_all_of_collects_in_order(self):
        eng = Engine()
        s1, s2 = eng.signal(), eng.signal()
        got = []

        def waiter():
            values = yield AllOf(eng, [s1, s2, Timeout(1.0, "t")])
            got.append((eng.now, values))

        eng.spawn(waiter())
        eng.call_in(5.0, lambda: s1.fire("a"))
        eng.call_in(2.0, lambda: s2.fire("b"))
        eng.run()
        assert got == [(5.0, ["a", "b", "t"])]

    def test_all_of_empty(self):
        eng = Engine()
        got = []

        def waiter():
            values = yield eng.all_of([])
            got.append(values)

        eng.spawn(waiter())
        eng.run()
        assert got == [[]]


class TestResource:
    def test_fifo_serialization(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def user(i, hold):
            yield res.acquire()
            yield Timeout(hold)
            order.append((i, eng.now))
            res.release()

        for i in range(3):
            eng.spawn(user(i, 2.0))
        eng.run()
        assert order == [(0, 2.0), (1, 4.0), (2, 6.0)]

    def test_capacity_two_overlaps(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        order = []

        def user(i):
            yield res.acquire()
            yield Timeout(2.0)
            order.append((i, eng.now))
            res.release()

        for i in range(4):
            eng.spawn(user(i))
        eng.run()
        assert [t for _i, t in order] == [2.0, 2.0, 4.0, 4.0]

    def test_release_idle_rejected(self):
        eng = Engine()
        res = Resource(eng)
        with pytest.raises(SimulationError):
            res.release()

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)

    def test_queue_length_tracking(self):
        eng = Engine()
        res = Resource(eng)
        res.acquire()
        res.acquire()
        res.acquire()
        assert res.in_use == 1
        assert res.queue_length == 2


class TestStore:
    def test_put_then_get(self):
        eng = Engine()
        store = Store(eng)
        store.put("a")
        store.put("b")
        got = []
        store.get().subscribe(got.append)
        store.get().subscribe(got.append)
        eng.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            item = yield store.get()
            got.append((eng.now, item))

        eng.spawn(consumer())
        eng.call_in(3.0, lambda: store.put("late"))
        eng.run()
        assert got == [(3.0, "late")]

    def test_len(self):
        eng = Engine()
        store = Store(eng)
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestDeterminism:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_time_monotonic_and_repeatable(self, delays):
        def run():
            eng = Engine()
            seen = []
            for i, d in enumerate(delays):
                eng.call_in(d, lambda i=i: seen.append((eng.now, i)))
            eng.run()
            return seen

        a, b = run(), run()
        assert a == b
        times = [t for t, _ in a]
        assert times == sorted(times)

    @given(
        holds=st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False), min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_resource_conserves_total_hold(self, holds):
        eng = Engine()
        res = Resource(eng, capacity=1)
        done = []

        def user(hold):
            yield res.acquire()
            yield Timeout(hold)
            res.release()
            done.append(eng.now)

        for h in holds:
            eng.spawn(user(h))
        eng.run()
        assert len(done) == len(holds)
        assert done[-1] == pytest.approx(sum(holds))


class TestCallEvery:
    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            Engine().call_every(0.0, lambda: None)

    def test_daemon_ticks_stop_with_workload(self):
        eng = Engine()
        ticks = []

        def work():
            yield Timeout(5.0)

        eng.spawn(work())
        eng.call_every(1.0, lambda: ticks.append(eng.now))
        end = eng.run()
        # the sampler never keeps the drained simulation alive
        assert end == pytest.approx(5.0)
        assert ticks == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0])

    def test_two_daemons_drain_together(self):
        eng = Engine()
        eng.call_every(1.0, lambda: None)
        eng.call_every(2.0, lambda: None)
        end = eng.run(max_events=100)
        # with no real work both samplers die after their first tick
        assert end <= 2.0
        assert eng.pending_events == 0


class TestCancellation:
    def test_cancel_prevents_execution(self):
        eng = Engine()
        seen = []
        handle = eng.schedule(1.0, seen.append, "cancelled")
        eng.schedule(2.0, seen.append, "kept")
        assert handle.cancel()
        eng.run()
        assert seen == ["kept"]

    def test_cancel_is_idempotent(self):
        eng = Engine()
        handle = eng.schedule(1.0, lambda: None)
        assert handle.cancel()
        assert not handle.cancel()
        assert handle.cancelled

    def test_cancel_after_run_returns_false(self):
        eng = Engine()
        seen = []
        handle = eng.schedule(1.0, seen.append, "ran")
        eng.run()
        assert seen == ["ran"]
        assert not handle.cancel()

    def test_pending_events_excludes_tombstones(self):
        eng = Engine()
        handles = [eng.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert eng.pending_events == 4
        handles[1].cancel()
        handles[2].cancel()
        assert eng.pending_events == 2
        eng.run()
        assert eng.pending_events == 0
        assert eng.events_processed == 2

    def test_cancelled_event_skipped_with_until(self):
        eng = Engine()
        seen = []
        handle = eng.schedule(1.0, seen.append, "dead")
        eng.schedule(3.0, seen.append, "alive")
        handle.cancel()
        eng.run(until=2.0)
        assert seen == []
        assert eng.now == pytest.approx(2.0)
        eng.run()
        assert seen == ["alive"]

    def test_schedule_multi_arg_callback(self):
        eng = Engine()
        seen = []
        eng.schedule(0.5, lambda a, b: seen.append((a, b)), 1, 2)
        eng.call_in(0.5, lambda a, b, c: seen.append((a, b, c)), 3, 4, 5)
        eng.run()
        assert seen == [(1, 2), (3, 4, 5)]


class TestTieOrderUnderCancellation:
    """Tombstone cancellation must never reorder surviving same-time events.

    Satellite property for the schedule explorer: its FIFO-default choice
    hook assumes tie groups present candidates in seq (schedule) order
    even after cancel + re-post churn at the same timestamp.
    """

    @given(
        n=st.integers(min_value=3, max_value=8),
        cancel_mask=st.lists(st.booleans(), min_size=3, max_size=8),
        n_repost=st.integers(min_value=0, max_value=4),
        use_hook=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_survivors_run_in_schedule_order(self, n, cancel_mask, n_repost, use_hook):
        eng = Engine()
        if use_hook:
            # A hook that always takes the default must be a no-op.
            eng.set_choice_hook(lambda when, group: 0)
        seen = []
        handles = [eng.schedule(1.0, seen.append, i) for i in range(n)]
        mask = (cancel_mask * n)[:n]
        for h, dead in zip(handles, mask):
            if dead:
                h.cancel()
        # Re-post at the *same* timestamp after cancelling: the new events
        # take fresh seqs, so they run after every original survivor.
        for j in range(n_repost):
            eng.schedule(1.0, seen.append, n + j)
        eng.run()
        survivors = [i for i, dead in enumerate(mask) if not dead]
        assert seen == survivors + [n + j for j in range(n_repost)]

    @given(
        cancel_idx=st.integers(min_value=0, max_value=5),
        use_hook=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_cancel_then_repost_same_slot(self, cancel_idx, use_hook):
        eng = Engine()
        if use_hook:
            eng.set_choice_hook(lambda when, group: 0)
        seen = []
        handles = [eng.schedule(2.0, seen.append, i) for i in range(6)]
        handles[cancel_idx].cancel()
        eng.schedule(2.0, seen.append, "repost")
        eng.run()
        expected = [i for i in range(6) if i != cancel_idx] + ["repost"]
        assert seen == expected


def _seeded_program(n, seed, horizon):
    """Build-callable: ``n`` events at seeded-uniform times, a tenth of
    them cancelled and a few re-posted at exactly the cancelled instants
    (the tombstone-collision case).  Callbacks record ``(now, tag)``."""
    rng = np.random.default_rng(seed)
    times = [float(t) for t in rng.uniform(0.0, horizon, size=n)]
    dead = rng.random(n) < 0.1
    reposted = [int(i) for i in np.flatnonzero(dead)[:25]]

    def build(eng, seen):
        handles = [
            eng.schedule(t, lambda i=i: seen.append((eng.now, i)))
            for i, t in enumerate(times)
        ]
        for i, is_dead in enumerate(dead):
            if is_dead:
                handles[i].cancel()
        for i in reposted:
            eng.schedule(times[i], lambda i=i: seen.append((eng.now, ["re", i])))

    return build


class TestRunControls:
    """Bounded runs (``until``/``max_events``) are exact slices of the
    full drain, and the engine's counters stay consistent across them."""

    def _pair(self, build):
        whole, sliced = Engine(), Engine()
        seen_whole, seen_sliced = [], []
        build(whole, seen_whole)
        build(sliced, seen_sliced)
        whole.run()
        return whole, sliced, seen_whole, seen_sliced

    def test_until_slices_match_full_drain(self):
        whole, sliced, seen_whole, seen_sliced = self._pair(
            _seeded_program(2_000, seed=6, horizon=10.0)
        )
        for until in (2.5, 5.0, 7.5):
            sliced.run(until=until)
            assert sliced.now == until
            assert all(t <= until for t, _ in seen_sliced)
        sliced.run()
        assert json.dumps(seen_sliced) == json.dumps(seen_whole)
        assert sliced.now == whole.now
        assert sliced.events_processed == whole.events_processed

    def test_max_events_slices_match_full_drain(self):
        whole, sliced, seen_whole, seen_sliced = self._pair(
            _seeded_program(2_000, seed=7, horizon=50.0)
        )
        for budget in (300, 700):
            before = sliced.events_processed
            sliced.run(max_events=budget)
            assert sliced.events_processed == before + budget
            assert seen_sliced == seen_whole[: len(seen_sliced)]
        sliced.run()
        assert json.dumps(seen_sliced) == json.dumps(seen_whole)
        assert sliced.now == whole.now

    def test_pending_events_accounting(self):
        eng = Engine()
        handles = [eng.schedule(float(i + 1), lambda: None) for i in range(2_000)]
        for h in handles[::10]:
            h.cancel()
        live = 2_000 - len(handles[::10])
        assert eng.pending_events == live
        eng.run(max_events=300)
        assert eng.pending_events == live - 300
        eng.run()
        assert eng.pending_events == 0
        assert eng.events_processed == live


class TestPendingHighWater:
    def test_fan_out_after_small_drain_entry(self):
        """One event pending at drain entry fans out thousands more: the
        in-drain samples must still see (within one stride) the peak."""
        eng = Engine()
        n = 10 * _HWM_STRIDE  # the true peak: every fanned-out event pending

        def fan_out():
            for i in range(n):
                eng.call_in(1.0 + 1e-3 * i, lambda: None)

        eng.call_in(1.0, fan_out)
        eng.run()
        assert eng.pending_events == 0
        assert n - _HWM_STRIDE <= eng.pending_high_water <= n
