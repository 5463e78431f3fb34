"""Deterministic discrete-event engine with generator-based processes.

The engine is a priority queue of ``(time, seq)``-ordered callbacks plus a
small process runtime: a *process* is a Python generator that ``yield``\\ s
waitables (:class:`Timeout`, :class:`Signal`, :class:`AllOf`, another
:class:`Process`) and is resumed with the waitable's payload.  Ties at the
same timestamp resolve in scheduling order (``seq``), so a run is a pure
function of its inputs — required for reproducible co-simulation.

This is intentionally simpy-shaped but self-contained (no network access
for dependencies) and small enough to property-test exhaustively.

Hot-path design (measured by :mod:`repro.bench.perf`):

- heap entries are flat ``(when, seq, fn, arg)`` tuples — no per-event
  closure or argument tuple (every internal resume callback takes
  exactly one payload argument), and ordering never compares past
  ``seq`` (unique), so the heap stays on C-level tuple comparison;
- cancellation is tombstone-based: :meth:`Engine.schedule` returns a
  ``__slots__`` :class:`EventHandle`; cancelling marks the seq dead and
  the drain loop discards it on pop — the heap is never rebuilt;
- :class:`Process` resumption type-dispatches on the yielded waitable:
  the overwhelmingly common ``yield Timeout(...)`` and ``yield Signal``
  cases schedule directly on the heap, skipping the generic
  ``Waitable._subscribe`` double dispatch; a bare ``yield <number>`` is
  the zero-allocation spelling of ``yield Timeout(number)`` used by the
  simulator's hottest loops;
- :meth:`Engine.run` drains with an inlined loop over local references
  rather than calling :meth:`step` per event, and raises the cyclic-GC
  gen-0 threshold for the duration of a full drain (restored on exit):
  the loop allocates short-lived tracked objects (messages, signals,
  heap tuples) at MHz rates, and the interpreter default of ~700
  allocations per collection costs ~15% of wall time in collector
  sweeps over objects that refcounting alone reclaims.  Large drains
  (>= ``_GC_FREEZE_PENDING`` pending events, i.e. 10k-worker-scale
  topologies) additionally ``gc.freeze()`` the long-lived object graph
  (processes, endpoints, parameter shards) so the collections that do
  happen stop re-traversing it; ``gc.unfreeze()`` restores it on exit;
- the full drain samples the heap depth every ``_HWM_STRIDE`` events,
  so :attr:`Engine.pending_high_water` is the memory footprint signal
  (within one stride of the true peak) without a per-push counter.

One binary heap serves every event at every scale: bucketed (calendar)
and batched drains measured no faster than this loop at 10k workers
(docs/PERFORMANCE.md, "Retired engine fast paths").
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Set, Tuple

ProcessGen = Generator["Waitable", Any, Any]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Gen-0 allocation threshold while :meth:`Engine.run` drains the heap.
#: Collections still happen (memory stays bounded, unlike ``gc.disable``),
#: just ~140x less often; ~100k small tracked objects is a few MB of arena.
_GC_DRAIN_GEN0 = 100_000

#: Pending-event count above which a full drain freezes the long-lived
#: object graph (``gc.freeze``/``gc.unfreeze``) for the duration: at
#: 10k-worker scale the resident processes/endpoints/shards cost ~30% of
#: wall time in collector traversals that can never free them.  Small
#: drains (every micro benchmark, the 128-worker macro) stay below this
#: and pay nothing.
_GC_FREEZE_PENDING = 5_000

#: Full-drain events between two samples of the heap depth for
#: :attr:`Engine.pending_high_water`.
_HWM_STRIDE = 1024


def _invoke0(fn: Callable[[], None]) -> None:
    """Adapter: run a zero-argument callback under the one-arg protocol."""
    fn()


def _invoke_n(packed: Tuple[Callable[..., None], Tuple[Any, ...]]) -> None:
    """Adapter: run a multi-argument callback under the one-arg protocol."""
    fn, args = packed
    fn(*args)


class SimulationError(RuntimeError):
    """Raised for engine misuse (double fire, yield of a non-waitable...)."""


class Waitable:
    """Base class for things a process may ``yield``."""

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the waiting process after ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        engine._schedule(engine.now + self.delay, callback, self.value)


class Signal(Waitable):
    """One-shot event.  ``fire(payload)`` resumes every waiter with payload.

    Subscribing after the signal has fired resumes immediately (at the
    current simulated time), so there is no lost-wakeup hazard.
    """

    __slots__ = ("_engine", "_fired", "_payload", "_waiters", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        # NOTE: repro.sim.network.Network.send fills these slots manually
        # (skipping this frame) — keep the two in sync.
        self._engine = engine
        self._fired = False
        self._payload: Any = None
        # Lazily allocated: most signals fire with zero or one waiter, and
        # the network fast path creates one signal per message.
        self._waiters: Optional[List[Callable[[Any], None]]] = None
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def payload(self) -> Any:
        if not self._fired:
            raise SimulationError(f"signal {self.name!r} has not fired")
        return self._payload

    def fire(self, payload: Any = None) -> None:
        """Fire the signal once, resuming every current waiter with ``payload``."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._payload = payload
        waiters = self._waiters
        if waiters:
            # Inlined _schedule: one fire per delivered message makes this
            # loop hot (repro.bench.perf network/macro numbers).
            self._waiters = None
            eng = self._engine
            now = eng.now
            heap = eng._heap
            seq = eng._seq
            for cb in waiters:
                seq += 1
                _heappush(heap, (now, seq, cb, payload))
            eng._seq = seq

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        if engine is not self._engine:
            raise SimulationError("signal subscribed from a foreign engine")
        if self._fired:
            engine._schedule(engine.now, callback, self._payload)
        elif self._waiters is None:
            self._waiters = [callback]
        else:
            self._waiters.append(callback)

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Public hook: run ``callback(payload)`` when the signal fires
        (immediately, at the current sim time, if it already has)."""
        self._subscribe(self._engine, callback)


class AllOf(Waitable):
    """Resume when every child waitable has completed; payload is the list
    of child payloads in the original order."""

    __slots__ = ("_engine", "_children")

    def __init__(self, engine: "Engine", children: Iterable[Waitable]):
        self._engine = engine
        self._children = list(children)

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        n = len(self._children)
        if n == 0:
            engine._schedule(engine.now, callback, [])
            return
        results: List[Any] = [None] * n
        remaining = [n]

        def make_cb(i: int) -> Callable[[Any], None]:
            def _cb(value: Any) -> None:
                results[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    callback(results)

            return _cb

        for i, child in enumerate(self._children):
            child._subscribe(engine, make_cb(i))


class Process(Waitable):
    """A running generator.  Waitable: joiners get the generator's return.

    The completion :class:`Signal` is created lazily — a process nobody
    joins (e.g. one network transfer) never allocates it.
    """

    __slots__ = ("_engine", "_gen", "_done", "_finished", "_result", "_step_cb", "name")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = ""):
        self._engine = engine
        self._gen = gen
        self._done: Optional[Signal] = None
        self._finished = False
        self._result: Any = None
        #: One closure per process (not per event): resolves gen.send, the
        #: engine, and its heap once, so each resume runs on fast locals
        #: instead of repeated attribute loads and bound-method binding.
        self._step_cb = self._make_step()
        self.name = name

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        if not self._finished:
            raise SimulationError(f"process {self.name!r} has not finished")
        return self._result

    def _start(self, start_at: Optional[float] = None) -> None:
        eng = self._engine
        when = eng.now if start_at is None else start_at
        if when < eng.now:
            raise SimulationError(
                f"process {self.name!r} cannot start in the past "
                f"(start_at={when} < now={eng.now})"
            )
        eng._schedule(when, self._step_cb, None)

    def _make_step(self) -> Callable[[Any], None]:
        send = self._gen.send
        eng = self._engine
        heap = eng._heap  # never reassigned (tombstones avoid heap rebuilds)
        push = _heappush

        def step(value: Any) -> None:
            try:
                yielded = send(value)
            except StopIteration as stop:
                self._finished = True
                self._result = stop.value
                if self._done is not None:
                    self._done.fire(stop.value)
                return
            # Type dispatch, commonest waitables first (bare-number delays,
            # then signal waits — the network fast path resolves every send
            # through a Signal): Timeout and Signal resume straight through
            # the heap (inlined _schedule), skipping the generic _subscribe
            # double dispatch.
            cls = yielded.__class__
            if cls is float or cls is int:
                # Zero-allocation timeout: `yield d` == `yield Timeout(d)`
                # with a None payload.  Negative delays land in the past and
                # are rejected by the drain loop's monotonicity check.
                eng._seq = seq = eng._seq + 1
                push(heap, (eng.now + yielded, seq, step, None))
            elif cls is Signal:
                if eng is not yielded._engine:
                    raise SimulationError("signal subscribed from a foreign engine")
                if yielded._fired:
                    eng._seq = seq = eng._seq + 1
                    push(heap, (eng.now, seq, step, yielded._payload))
                elif yielded._waiters is None:
                    yielded._waiters = [step]
                else:
                    yielded._waiters.append(step)
            elif cls is Timeout:
                eng._seq = seq = eng._seq + 1
                push(heap, (eng.now + yielded.delay, seq, step, yielded.value))
            elif isinstance(yielded, Waitable):
                yielded._subscribe(eng, step)
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded {type(yielded).__name__}; "
                    "processes must yield a delay number or "
                    "Timeout/Signal/AllOf/Process"
                )

        return step

    def _join_signal(self) -> Signal:
        if self._done is None:
            self._done = Signal(self._engine, name=self.name + ".done")
            if self._finished:
                # Late subscriber to an already-finished process: fire now
                # so _subscribe resumes it at the current sim time.
                self._done.fire(self._result)
        return self._done

    def _subscribe(self, engine: "Engine", callback: Callable[[Any], None]) -> None:
        self._join_signal()._subscribe(engine, callback)


class EventHandle:
    """A cancellable scheduled event (returned by :meth:`Engine.schedule`).

    ``cancel()`` tombstones the event: the heap entry stays in place and
    the drain loop discards it when popped — O(1) cancellation with no
    heap rebuild.
    """

    __slots__ = ("_engine", "seq", "when", "_cancelled")

    def __init__(self, engine: "Engine", seq: int, when: float):
        self._engine = engine
        self.seq = seq
        self.when = when
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> bool:
        """Cancel the event; returns False if it already ran or was
        already cancelled (cancellation is idempotent)."""
        if self._cancelled:
            return False
        self._cancelled = True
        return self._engine._tombstone(self.seq, self.when)


class Engine:
    """The event loop.  All times are simulated seconds, starting at 0.

    ``collapse=False`` disables the runner's closed-form round
    fast-forward (the engine only carries the flag and its credit
    counters; see :meth:`credit_collapsed_round`).
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_events_processed",
        "_daemon_pending",
        "_tombstones",
        "_choice_hook",
        "_pending_hwm",
        "_collapse_enabled",
        "_rounds_collapsed",
        "_round_events_saved",
    )

    # Counters of the retired calendar queue, fast-forward window and
    # quiet elision, fixed at 0: the steady-state benchmark still reports
    # them under their old names.
    events_skipped = 0
    events_elided = 0
    calendar_sweeps = 0

    def __init__(self, collapse: Optional[bool] = None) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self._events_processed = 0
        self._daemon_pending = 0  # scheduled call_every ticks (see below)
        #: Tombstoned seqs: cancelled events awaiting discard-on-pop.
        self._tombstones: Set[int] = set()
        #: Optional scheduling choice hook (see :meth:`set_choice_hook`).
        self._choice_hook: Optional[Callable[[float, List[Tuple]], int]] = None
        #: Pending-event high-water mark, sampled at drain entry and every
        #: ``_HWM_STRIDE`` full-drain events — not per push.
        self._pending_hwm = 0
        #: Closed-form round fast-forward (``collapse=False`` keeps the
        #: event-by-event protocol rounds as the differential oracle).
        #: The round analytics live in the runner; the engine only
        #: carries the opt-out flag and the credit counters.
        self._collapse_enabled = collapse is not False
        self._rounds_collapsed = 0
        self._round_events_saved = 0

    # -- raw callback scheduling --------------------------------------

    def _schedule(self, when: float, fn: Callable[[Any], None], arg: Any) -> int:
        """Hot-path scheduling (one-arg callback protocol, no validation);
        returns the event seq."""
        self._seq = seq = self._seq + 1
        _heappush(self._heap, (when, seq, fn, arg))
        return seq

    def _tombstone(self, seq: int, when: float) -> bool:
        """Mark a scheduled seq dead; returns False if it already ran
        (events in the past are gone from the heap, so adding a tombstone
        for them would leave it stale forever).  An event scheduled for
        the *current* timestamp may or may not have run yet, so that rare
        boundary pays an O(n) liveness scan; future events are always
        still in the heap and tombstone in O(1)."""
        if when < self.now or seq > self._seq:
            return False
        if when > self.now:
            self._tombstones.add(seq)
            return True
        for entry in self._heap:
            if entry[1] == seq:
                self._tombstones.add(seq)
                return True
        return False

    @property
    def pending_high_water(self) -> int:
        """Largest pending-event population observed, sampled at drain
        entry, every ``_HWM_STRIDE`` full-drain events and on read."""
        pend = len(self._heap)
        if pend > self._pending_hwm:
            self._pending_hwm = pend
        return self._pending_hwm

    @property
    def collapse_enabled(self) -> bool:
        """Whether closed-form round fast-forward may engage."""
        return self._collapse_enabled

    @property
    def rounds_collapsed(self) -> int:
        """Whole protocol rounds advanced in closed form (no events)."""
        return self._rounds_collapsed

    @property
    def round_events_saved(self) -> int:
        """Events the collapsed rounds would have scheduled and served."""
        return self._round_events_saved

    def credit_collapsed_round(self, events_saved: int) -> None:
        """Account one analytically committed protocol round.

        ``events_saved`` is the exact event census the oracle would have
        scheduled and served for the round.  The clock is *not* advanced
        here: a partial collapse de-vectorizes the first non-quiet round
        at instants that precede the committed rounds' last event, so the
        drain must still be allowed to start from the earlier time.  A
        fully collapsed run (no events left) sets ``now`` to the final
        instant itself before :meth:`run` returns on the empty queue."""
        self._rounds_collapsed += 1
        self._round_events_saved += events_saved

    def _pack(self, fn: Callable[..., None], args: Tuple[Any, ...]):
        """Adapt an external ``fn(*args)`` callback to the one-arg protocol."""
        if not args:
            return _invoke0, fn
        if len(args) == 1:
            return fn, args[0]
        return _invoke_n, (fn, args)

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` seconds (FIFO at ties)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        cb, arg = self._pack(fn, args)
        self._schedule(self.now + delay, cb, arg)

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past: {when} < {self.now}")
        cb, arg = self._pack(fn, args)
        self._schedule(when, cb, arg)

    def post(self, when: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute time ``when`` on the internal
        one-argument callback protocol.

        This is the public spelling of the hot path that :meth:`call_at`
        wraps: no adapter tuple is allocated and no handle is returned, so
        per-event cost stays at one heap push.  ``fn`` *must* accept exactly
        one positional argument (pack multiple values into a tuple).  The
        network's analytic lane scheduler uses this protocol to post two
        events per message instead of running a transfer process (it binds
        the internal ``_schedule`` directly, which is this method minus the
        past-check — only safe when the timestamp is provably ``>= now``).
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past: {when} < {self.now}")
        self._schedule(when, fn, arg)

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Like :meth:`call_in`, but returns a cancellable handle whose
        ``cancel()`` tombstones the pending event in O(1)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self.now + delay
        cb, arg = self._pack(fn, args)
        return EventHandle(self, self._schedule(when, cb, arg), when)

    def call_every(self, interval: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` every ``interval`` seconds as a *daemon*: the tick
        reschedules itself only while non-daemon events remain pending, so
        periodic samplers (metric snapshots) never keep a drained
        simulation alive.  The first tick fires after ``interval``."""
        if interval <= 0:
            raise SimulationError(f"call_every interval must be positive, got {interval}")

        def tick() -> None:
            self._daemon_pending -= 1
            fn()
            # Reschedule only if real work remains beyond other daemon ticks.
            if self.pending_events > self._daemon_pending:
                self._daemon_pending += 1
                self.call_in(interval, tick)

        self._daemon_pending += 1
        self.call_in(interval, tick)

    # -- process/waitable API ------------------------------------------

    def spawn(
        self,
        gen: ProcessGen,
        name: str = "",
        start_at: Optional[float] = None,
    ) -> Process:
        """Start a generator as a process; returns a joinable Process.

        ``start_at`` schedules the first resume at an absolute instant at
        or after ``now`` instead of immediately — the round-collapse
        runner uses it to re-materialize workers mid-run at their
        per-worker analytic clocks.  Spawn order still decides seq order
        at equal instants.
        """
        proc = Process(self, gen, name=name)
        proc._start(start_at)
        return proc

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A waitable that resumes after ``delay`` seconds."""
        return Timeout(delay, value)

    def signal(self, name: str = "") -> Signal:
        """A fresh one-shot signal bound to this engine."""
        return Signal(self, name=name)

    def all_of(self, children: Iterable[Waitable]) -> AllOf:
        """A waitable that completes when every child completes."""
        return AllOf(self, children)

    # -- running --------------------------------------------------------

    def set_choice_hook(
        self, hook: Optional[Callable[[float, List[Tuple]], int]]
    ) -> None:
        """Install (or clear, with ``None``) a scheduling choice hook.

        The default drain resolves same-timestamp ties in scheduling order
        (``seq``).  With a hook installed, every group of two or more live
        events tied at the next timestamp is handed to
        ``hook(when, group)`` — ``group`` is the list of ``(when, seq, fn,
        arg)`` heap entries in seq order — and the returned index picks
        which one runs first; the rest go back on the heap (keeping their
        seqs, so the default FIFO order among them is preserved until the
        hook is consulted again).  Index 0 reproduces the default
        schedule exactly.

        This is the model checker's commutation point
        (:mod:`repro.analysis.explore`): it only affects the slow
        per-event path, never the inlined fast drain, so hookless runs
        pay nothing.
        """
        self._choice_hook = hook

    def _step_choice(self) -> bool:
        """One event via the choice hook: collect the live tie group at
        the next timestamp, let the hook pick, push the rest back."""
        heap = self._heap
        tombstones = self._tombstones
        group: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        # Pop every live entry tied at the next timestamp (seq order).
        while heap:
            entry = _heappop(heap)
            if tombstones and entry[1] in tombstones:
                tombstones.discard(entry[1])
                continue
            if not group:
                group.append(entry)
            elif entry[0] <= group[0][0]:
                group.append(entry)
            else:
                _heappush(heap, entry)
                break
        if not group:
            return False
        choice = 0
        if len(group) > 1:
            choice = self._choice_hook(group[0][0], group)
            if not 0 <= choice < len(group):
                raise SimulationError(
                    f"choice hook returned {choice} for a group of {len(group)}"
                )
            for i, entry in enumerate(group):
                if i != choice:
                    _heappush(heap, entry)
        when, _seq, fn, arg = group[choice]
        if when < self.now:
            raise SimulationError("event heap corrupted: time went backwards")
        self.now = when
        self._events_processed += 1
        fn(arg)
        return True

    def step(self) -> bool:
        """Run one event; returns False when the queue is empty."""
        if self._choice_hook is not None:
            return self._step_choice()
        heap = self._heap
        tombstones = self._tombstones
        while heap:
            when, seq, fn, arg = _heappop(heap)
            if tombstones and seq in tombstones:
                tombstones.discard(seq)
                continue
            if when < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = when
            self._events_processed += 1
            fn(arg)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain events (optionally only up to time ``until``); returns now."""
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until the past: {until} < {self.now}")
        if until is None and max_events is None:
            if self._choice_hook is not None:
                # Choice-hook runs route through the per-event slow path:
                # correctness tooling, not a perf surface.
                while self._step_choice():
                    pass
                return self.now
            # Fast drain: the inlined loop over local refs is what every
            # full simulation pays per event (see repro.bench.perf).  The
            # gen-0 GC threshold is raised for the drain (see module
            # docstring) and restored even if a callback raises; drains
            # starting at 10k-worker-scale pending counts also freeze the
            # long-lived object graph for the duration.
            heap = self._heap
            tombstones = self._tombstones
            pop = _heappop
            stride = range(_HWM_STRIDE)
            processed = 0
            hwm = self._pending_hwm
            saved_thresholds = gc.get_threshold()
            gc.set_threshold(
                max(saved_thresholds[0], _GC_DRAIN_GEN0), *saved_thresholds[1:]
            )
            frozen = len(heap) >= _GC_FREEZE_PENDING
            if frozen:
                gc.collect()
                gc.freeze()
            try:
                while heap:
                    if len(heap) > hwm:
                        hwm = len(heap)
                    for _ in stride:
                        if not heap:
                            break
                        when, seq, fn, arg = pop(heap)
                        if tombstones and seq in tombstones:
                            tombstones.discard(seq)
                            continue
                        if when < self.now:
                            raise SimulationError(
                                "event heap corrupted: time went backwards"
                            )
                        self.now = when
                        processed += 1
                        fn(arg)
            finally:
                self._events_processed += processed
                # A callback may have read (and raised) the mark mid-drain.
                if hwm > self._pending_hwm:
                    self._pending_hwm = hwm
                gc.set_threshold(*saved_thresholds)
                if frozen:
                    gc.unfreeze()
            return self.now
        budget = max_events if max_events is not None else float("inf")
        while budget > 0 and self._heap:
            if until is not None and self._next_live_when() > until:
                self.now = until
                return self.now
            if self.step():
                budget -= 1
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _next_live_when(self) -> float:
        """Timestamp of the next non-tombstoned event (inf if none)."""
        heap = self._heap
        tombstones = self._tombstones
        while heap:
            top = heap[0]
            if tombstones and top[1] in tombstones:
                _heappop(heap)
                tombstones.discard(top[1])
                continue
            return top[0]
        return float("inf")

    @property
    def pending_events(self) -> int:
        return len(self._heap) - len(self._tombstones)

    @property
    def events_processed(self) -> int:
        return self._events_processed


class Resource:
    """FIFO resource with integer capacity (models a NIC lane, a GPU...).

    ``acquire()`` returns a :class:`Signal` the caller yields on; the
    payload is an opaque grant token that must be passed to ``release``.
    Uncontended acquires reuse one shared pre-fired grant signal, so the
    fast path allocates nothing (the incast hot loop acquires and
    releases one lane per message).
    """

    __slots__ = ("_engine", "_capacity", "_in_use", "_queue", "_granted", "name")

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self._engine = engine
        self._capacity = capacity
        self._in_use = 0
        self._queue: List[Signal] = []
        self.name = name
        # Shared immediate-grant signal: fired signals are immutable, so
        # every uncontended acquire can hand back the same one.
        self._granted = Signal(engine, name=name + ".grant")
        self._granted._fired = True
        self._granted._payload = self

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def acquire(self) -> Signal:
        """Request the resource; yield the returned signal to wait for grant."""
        if self._in_use < self._capacity:
            self._in_use += 1
            return self._granted
        sig = Signal(self._engine, name=self.name + ".grant")
        self._queue.append(sig)
        return sig

    def release(self) -> None:
        """Release one grant, waking the next FIFO waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            nxt = self._queue.pop(0)
            nxt.fire(self)
        else:
            self._in_use -= 1

    def use(self, hold: float) -> ProcessGen:
        """Process body: acquire, hold for ``hold`` seconds, release."""
        yield self.acquire()
        yield Timeout(hold)
        self.release()


class Store:
    """Unbounded FIFO message queue with blocking ``get``."""

    __slots__ = ("_engine", "_items", "_getters", "name")

    def __init__(self, engine: Engine, name: str = ""):
        self._engine = engine
        self._items: List[Any] = []
        self._getters: List[Signal] = []
        self.name = name

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append an item, waking the oldest blocked getter if any."""
        if self._getters:
            sig = self._getters.pop(0)
            sig.fire(item)
        else:
            self._items.append(item)

    def get(self) -> Signal:
        """A signal fired with the next item (immediately if one is queued)."""
        sig = Signal(self._engine, name=self.name)
        if self._items:
            sig._fired = True
            sig._payload = self._items.pop(0)
        else:
            self._getters.append(sig)
        return sig
