"""Co-simulation runner: FluentPS protocol × network model × real gradients.

This binds the three substrates together (DESIGN.md's centerpiece):

- worker processes compute for a sampled duration (straggler model), then
  sPush their update shards and sPull the next parameters over the
  simulated network;
- each :class:`~repro.core.server.ShardServer` applies real NumPy updates
  and runs its own pull/push conditions — **overlap synchronization**
  falls out of the architecture: a shard answers its pulls the moment its
  own condition allows, independent of the other M−1 shards (Figure 4b);
- when a :class:`~repro.ml.training.TrainingTask` is attached, gradient
  math is real and accuracy-vs-time curves come out; without one the run
  is timing-only against a :class:`~repro.ml.models_zoo.Workload` spec.

``wire_scale`` lets a small trainable proxy model carry the *paper
model's* wire footprint: message sizes are multiplied so the network sees
ResNet-56-sized transfers while the gradients stay cheap to compute.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.conditions import DSPSPull, PSSPPull, SSPPull
from repro.core.driver import StepContext
from repro.core.filters import NoFilter, PushFilter
from repro.core.keyspace import ElasticSlicer, ModelSpec, Slicer
from repro.core.layout import ShardLayout
from repro.core.metrics import SyncMetrics
from repro.core.models import SyncModel
from repro.core.server import (
    ExecutionMode,
    PullReply,
    ShardServer,
    flush_applies_across,
)
from repro.ml.models_zoo import Workload
from repro.ml.training import TrainingTask
from repro.obs import Observability, current_observability
from repro.obs.snapshot import ServerSnapshotter
from repro.sim.cluster import ClusterSpec
from repro.sim.engine import Engine, SimulationError, Timeout
from repro.sim.network import Message, Network
from repro.sim.stragglers import ComputeModel, LogNormalCompute
from repro.sim.trace import SpanKind, TraceRecorder
from repro.utils.records import SeriesRecord
from repro.utils.rng import derive_rng


@dataclass
class SimConfig:
    """Everything one co-simulated training run needs."""

    cluster: ClusterSpec
    max_iter: int
    sync: Union[SyncModel, Sequence[SyncModel]]
    execution: ExecutionMode = ExecutionMode.LAZY
    slicer: Optional[Slicer] = None
    compute_model: Optional[ComputeModel] = None
    base_compute_time: Optional[float] = None  # None → derive from workload
    batch_per_worker: int = 128
    task: Optional[TrainingTask] = None
    workload: Optional[Workload] = None
    wire_scale: Optional[float] = None  # None → auto from workload/task sizes
    seed: int = 0
    eval_every: int = 0
    keep_spans: bool = False
    #: Span-list capture override.  ``None`` → legacy behavior: spans are
    #: kept when ``keep_spans`` asks for them or observability is enabled
    #: (trace export needs the list).  ``False`` → never keep the span
    #: list even under observability: span *totals* (comm/compute time)
    #: still accumulate exactly, but per-span objects are dropped — at
    #: 100k workers the list alone costs hundreds of MB, and a
    #: sanitize-focused run only needs the protocol instant stream.
    #: ``True`` → always keep (same as ``keep_spans=True``).
    span_capture: Optional[bool] = None
    header_bytes: int = 256
    request_bytes: int = 128
    #: Server processing time per handled request (queue pop, dispatch).
    server_op_overhead_s: float = 20e-6
    #: Protocol cost per DPR event: server-side buffering/re-check work
    #: plus the blocked worker's share of the retry round-trip.  Frequent
    #: soft barriers pay this once per re-buffer — the per-event cost
    #: behind lazy execution's 1.2x speedup (Fig 8) and part of PSSP's
    #: time advantage over SSP under the soft barrier (Fig 9/10).
    dpr_overhead_s: float = 500e-6
    #: Optional per-worker push filter (PS-Lite programming filters /
    #: Gaia significance filter): called as ``push_filter_factory()`` once
    #: per worker; shrinks push wire bytes by the filtered fraction.
    push_filter_factory: Optional[Callable[[], "PushFilter"]] = None
    #: Observability sink; None → the ambient :func:`current_observability`.
    obs: Optional[Observability] = None
    #: Snapshot scrape period in sim seconds; None → half a base compute.
    snapshot_interval_s: Optional[float] = None
    #: Closed-form round fast-forward: ``None``/``True`` → when every
    #: shard's sync condition is provably quiet for a whole protocol
    #: round (SSP/PSSP with s > 0 and an all-pushed quorum, timing-only
    #: run, analytic drain lanes, no causal trace / delay hook / choice
    #: hook), the runner advances the entire round analytically — one
    #: vectorized pass over a cohort state table instead of O(workers)
    #: resume/deliver events per iteration.  The first round whose
    #: straggler draw breaks inter-round isolation de-vectorizes back to
    #: the event path with no drift.  ``False`` keeps event-by-event
    #: protocol rounds as the differential oracle, exactly like
    #: ``server_drain="event"`` / ``server_dispatch="proc"``.  Delivery
    #: traces, protocol instant streams, final params, and worker finish
    #: times are bit-identical either way.  See docs/PERFORMANCE.md,
    #: "Closed-form round fast-forward and the cohort state table".
    round_collapse: Optional[bool] = None
    #: Server request dispatch.  ``"direct"`` (default) handles each
    #: delivered request inside the delivery event via the endpoint sink:
    #: no inbox round-trip, no per-request resume event — a busy server
    #: parks arrivals and drains them FIFO when its busy window closes.
    #: ``"proc"`` runs the classic one-generator-per-server inbox loop
    #: and is the dispatch differential oracle.  Handle times and
    #: per-server FIFO order are bit-identical between the two; only the
    #: event structure differs.
    server_dispatch: str = "direct"
    #: Busy-server drain mode under direct dispatch.  ``"lane"``
    #: (default): each shard runs an analytic drain lane — a parked
    #: request's handle time is the cascade ``max(deliver_time, lane busy
    #: end)`` computed at arrival, served immediately on the per-shard
    #: virtual clock, so no per-message drain events exist and (on the
    #: analytic wire) request deliveries fuse into their TX-completion
    #: events.  ``"event"`` keeps the sequential busy-window drain (one
    #: engine event per parked request) as the differential oracle.
    #: Handle times, protocol event streams, and final params are
    #: bit-identical across modes; see docs/PERFORMANCE.md.
    server_drain: str = "lane"
    #: Per-worker observability series cap.  Below this worker count the
    #: runner keeps one ``pull_latency_seconds`` sketch series per worker
    #: (labels ``worker=<w>``); above it, all workers share a single
    #: aggregate series (``worker="all"``) so the metrics registry stays
    #: bounded at mesoscale — at 100k workers per-worker label sets would
    #: dominate run memory.  Sketches merge exactly, so the aggregate is
    #: byte-identical to merging the per-worker series after the fact.
    worker_series_threshold: int = 4096

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.server_dispatch not in ("direct", "proc"):
            raise ValueError(
                f"server_dispatch must be 'direct' or 'proc', "
                f"got {self.server_dispatch!r}"
            )
        if self.server_drain not in ("lane", "event"):
            raise ValueError(
                f"server_drain must be 'lane' or 'event', "
                f"got {self.server_drain!r}"
            )
        if self.worker_series_threshold < 1:
            raise ValueError(
                f"worker_series_threshold must be >= 1, "
                f"got {self.worker_series_threshold}"
            )
        if self.task is None and self.workload is None:
            raise ValueError("need a TrainingTask and/or a Workload")
        if self.task is not None and self.task.n_workers != self.cluster.n_workers:
            raise ValueError(
                f"task built for {self.task.n_workers} workers, cluster has "
                f"{self.cluster.n_workers}"
            )

    @property
    def spec(self) -> ModelSpec:
        return self.task.spec if self.task is not None else self.workload.spec

    def resolved_wire_scale(self) -> float:
        if self.wire_scale is not None:
            if self.wire_scale <= 0:
                raise ValueError("wire_scale must be positive")
            return self.wire_scale
        if self.task is not None and self.workload is not None:
            return self.workload.wire_bytes / self.spec.total_bytes
        return 1.0

    def resolved_base_compute(self, node_flops: float) -> float:
        if self.base_compute_time is not None:
            if self.base_compute_time <= 0:
                raise ValueError("base_compute_time must be positive")
            return self.base_compute_time
        if self.workload is not None:
            return self.workload.train_flops_per_sample * self.batch_per_worker / node_flops
        # No workload: a nominal per-iteration second keeps ratios readable.
        return 1.0


@dataclass
class SimRunResult:
    """Outcome of one co-simulated run."""

    duration: float
    iterations: int
    n_workers: int
    metrics: SyncMetrics
    trace: TraceRecorder
    total_compute_time: float
    total_comm_time: float
    bytes_on_wire: int
    messages_on_wire: int
    final_params: Optional[np.ndarray] = None
    eval_by_time: SeriesRecord = field(default_factory=lambda: SeriesRecord("eval"))
    eval_by_iteration: SeriesRecord = field(default_factory=lambda: SeriesRecord("eval"))
    worker_finish_times: List[float] = field(default_factory=list)

    @property
    def mean_compute_time(self) -> float:
        return self.total_compute_time / self.n_workers

    @property
    def mean_comm_time(self) -> float:
        return self.total_comm_time / self.n_workers

    def dprs_per_100_iterations(self) -> float:
        return self.metrics.dprs_per_100_iterations(self.iterations)


@dataclass(slots=True)
class _PushMsg:
    worker: int
    progress: int
    shard: Optional[np.ndarray]


@dataclass(slots=True)
class _PullMsg:
    worker: int
    progress: int


@dataclass(slots=True)
class _ReplyMsg:
    server: int
    reply: PullReply


class _PendingPull:
    __slots__ = ("flat", "remaining", "signal", "max_missing", "last_cause")

    def __init__(self, engine: Engine, n_servers: int, n_elements: Optional[int]):
        self.flat = np.empty(n_elements) if n_elements is not None else None
        self.remaining = n_servers
        self.signal = engine.signal("pull-complete")
        self.max_missing = 0
        #: Causal span id of the last reply to land (-1 when tracing is
        #: off) — the cause that actually released the worker's sync wait.
        self.last_cause = -1


def _discard_reply(reply: PullReply) -> None:
    """Pull responder for analytically committed rounds: the wire reply
    is synthesized in closed form, so the server-side callback has
    nothing left to do (the real responder only sends the message)."""


#: Busy periods of at most this many items fold position-parallel (one
#: vector add per position across all of them at once); longer periods
#: fold with one seeded ``np.add.accumulate`` each.
_PARALLEL_PERIOD_MAX = 64

#: Closed-form passes ``_seq_cascade`` makes before it finishes a lane
#: with the scalar recurrence.  Each pass after the first resumes at a
#: near-tie the busy-period guess got wrong, so the bound keeps a
#: near-tie-dense lane at O(passes * n) vector work plus one O(n) loop.
_CASCADE_MAX_PASSES = 8


def _fold_busy_periods(
    arrivals: np.ndarray, holds: np.ndarray, cursor: float, out: np.ndarray
) -> None:
    """One closed-form pass of the FIFO-lane cascade into ``out``.

    In exact arithmetic ``end_i = max(cursor, max_{j<=i}(a_j - H_{j-1}))
    + H_i`` with ``H`` the prefix sums of the holds (max-plus algebra),
    so item ``i`` opens a busy period exactly when ``a_i - H_{i-1}``
    beats the cursor and every earlier key.  Those starts are only a
    *guess* in floats; the ends themselves are computed as the event
    path does — one seeded left fold per busy period (seed ``a_s`` for
    a period opened by an arrival, ``cursor`` for a leading saturated
    stretch), adding the holds in item order — so every end is exact
    wherever the guess is.  The caller verifies.
    """
    n = arrivals.shape[0]
    key = np.empty(n)
    key[0] = 0.0
    np.cumsum(holds[:-1], out=key[1:])
    np.subtract(arrivals, key, out=key)
    prior = np.empty(n)
    prior[0] = cursor
    np.maximum(np.maximum.accumulate(key[:-1]), cursor, out=prior[1:])
    opens = np.flatnonzero(key > prior)
    if opens.size == n:  # every item finds the lane idle
        np.add(arrivals, holds, out=out)
        return
    if opens.size and opens[0] == 0:
        starts = opens
        seeds = arrivals[opens]
    else:
        starts = np.concatenate(((0,), opens))
        seeds = np.concatenate(((cursor,), arrivals[opens]))
    lengths = np.empty(starts.shape[0], dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = n - starts[-1]
    long_periods = lengths > _PARALLEL_PERIOD_MAX
    if long_periods.any():
        for s, length, seed in zip(
            starts[long_periods].tolist(),
            lengths[long_periods].tolist(),
            seeds[long_periods].tolist(),
        ):
            seg = out[s : s + length]
            seg[:] = holds[s : s + length]
            seg[0] += seed
            np.add.accumulate(seg, out=seg)
        short = ~long_periods
        starts = starts[short]
        seeds = seeds[short]
        lengths = lengths[short]
        if not starts.size:
            return
    # Short periods: every first item at once, then the rest longest
    # first — at position k the periods still open are a prefix, so each
    # position is one gather-add-scatter over it.
    cur = seeds + holds[starts]
    out[starts] = cur
    more = np.flatnonzero(lengths > 1)
    if not more.size:
        return
    # Lengths fit in one byte, so this is a linear-time radix sort.
    more = more[
        np.argsort((_PARALLEL_PERIOD_MAX - lengths[more]).astype(np.uint8), kind="stable")
    ]
    pos = starts[more]
    cur = cur[more]
    still_open = more.size - np.cumsum(np.bincount(lengths[more]))
    for k in range(1, int(lengths[more[0]])):
        live = int(still_open[k])
        at = pos[:live]
        at += 1
        run = cur[:live]
        run += holds[at]
        out[at] = run


def _seq_cascade(
    arrivals: np.ndarray, holds: np.ndarray, cursor: float
) -> Tuple[np.ndarray, float]:
    """Exact capacity-1 FIFO-lane cascade over a sorted arrival stream.

    Computes ``end_i = max(cursor_i, a_i) + h_i`` with
    ``cursor_{i+1} = end_i`` — the same float sequence the event path
    produces one message at a time — and returns ``(ends,
    final_cursor)``.  Each pass folds every busy period in closed form
    (:func:`_fold_busy_periods`) and then checks ``end_i == max(end_{i-1},
    a_i) + h_i`` for all items in one vector pass.  Everything before the
    first mismatch is the true recurrence by induction, so the next pass
    resumes exactly there; a pass's first item is always exact, so every
    pass makes progress.  After ``_CASCADE_MAX_PASSES`` passes the rest
    of the lane runs the scalar recurrence, so no input costs more than
    O(n) per pass.
    """
    n_items = arrivals.shape[0]
    out = np.empty(n_items)
    if not n_items:
        return out, cursor
    i = 0
    for _ in range(_CASCADE_MAX_PASSES):
        a = arrivals[i:]
        h = holds[i:]
        ends = out[i:]
        _fold_busy_periods(a, h, cursor, ends)
        expect = np.empty(ends.shape[0])
        expect[0] = cursor
        expect[1:] = ends[:-1]
        np.maximum(expect, a, out=expect)
        expect += h
        wrong = expect != ends
        if not wrong.any():
            return out, float(ends[-1])
        j = int(wrong.argmax())
        if j:
            cursor = float(ends[j - 1])
            i += j
    for k, (a_k, h_k) in enumerate(
        zip(arrivals[i:].tolist(), holds[i:].tolist()), start=i
    ):
        cursor = (a_k if a_k > cursor else cursor) + h_k
        out[k] = cursor
    return out, cursor


class FluentPSSimRunner:
    """Run one FluentPS training job on the simulated cluster."""

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.engine = Engine(collapse=config.round_collapse)
        self.net: Network = config.cluster.make_network(self.engine)
        self.obs = config.obs or current_observability()
        # Observability implies a full span capture for trace export,
        # unless span_capture=False opts out (sanitize-focused runs).
        keep = (
            config.span_capture
            if config.span_capture is not None
            else (config.keep_spans or self.obs.enabled)
        )
        n, m = config.cluster.n_workers, config.cluster.n_servers
        self._worker_names = [f"worker{w}" for w in range(n)]
        # Workers are the trace's columnar tracks: the event path records
        # one span per call, the round collapse a whole cohort per kind.
        self.trace = TraceRecorder(keep_spans=keep, tracks=self._worker_names)
        self.spec = config.spec
        slicer = config.slicer or ElasticSlicer()
        self.layout = ShardLayout(self.spec, slicer.slice(self.spec, config.cluster.n_servers))
        self.wire_scale = config.resolved_wire_scale()
        self.compute_model = config.compute_model or LogNormalCompute(0.2)

        models = self._normalize_models(config.sync, m)
        training = config.task is not None
        if training:
            shard_vectors = self.layout.scatter(config.task.init_params.astype(np.float64))
        self.servers: List[ShardServer] = [
            ShardServer(
                shard_id=j,
                n_workers=n,
                model=models[j],
                execution=config.execution,
                params=shard_vectors[j] if training else None,
                # Per-shard drain-lane clock: equals ``engine.now`` inside
                # real handle events, and the cascaded virtual handle time
                # when the analytic lane serves a parked request — so
                # waited times and protocol instants are bit-identical
                # across drain modes.
                clock=lambda j=j: self._srv_now[j],
                rng=derive_rng(config.seed, "server", j),
                obs=self.obs,
            )
            for j in range(m)
        ]
        self._capture = None
        self.causal = None
        self._pull_sketches = None
        #: Worker whose push is currently being applied (drives straggler
        #: blame on DPR releases; only read when causal tracing is on).
        self._current_push_worker = -1
        if self.obs.enabled:
            self.obs.registry.set_clock(lambda: self.engine.now)
            self._capture = self.obs.begin_run(
                f"sim-run{len(self.obs.runs)}-n{n}x{m}", self.trace
            )
            self.causal = self._capture.causal
            self.net.causal = self.causal
            pull_sketch = self.obs.registry.sketch(
                "pull_latency_seconds",
                "sync-wait seconds per sPull round (mergeable sketch)",
            )
            if n > config.worker_series_threshold:
                # Mesoscale: one shared aggregate series instead of one
                # label set per worker keeps the registry bounded (the
                # sketch merge is exact, so nothing is lost but the
                # per-worker split — see SimConfig.worker_series_threshold).
                agg = pull_sketch.labels(worker="all")
                self._pull_sketches = [agg] * n
            else:
                self._pull_sketches = [
                    pull_sketch.labels(worker=w) for w in range(n)
                ]
            self.obs.instants.record(
                "run_config", 0.0, actor="runner",
                runner="sim", n_workers=n, n_servers=m,
                models=[mod.name for mod in models],
                execution=config.execution.value,
            )
        self._pending: Dict[Tuple[int, int], _PendingPull] = {}
        self._filters: List[PushFilter] = [
            config.push_filter_factory() if config.push_filter_factory else NoFilter()
            for _ in range(n)
        ]
        self._compute_rngs = [derive_rng(config.seed, "compute", w) for w in range(n)]
        # Step streams feed only gradient steps; timing-only runs never
        # draw from them (streams are keyed, so skipping them moves none).
        self._step_rngs = (
            [derive_rng(config.seed, "step", w) for w in range(n)] if training else []
        )
        self.eval_by_time = SeriesRecord("eval", x_label="time_s", y_label="metric")
        self.eval_by_iteration = SeriesRecord("eval", x_label="iteration", y_label="metric")
        self._finish_times: List[float] = [0.0] * n
        # Direct-dispatch state (also read by the proc loop): per-server
        # busy-window close time, parked arrivals, and whether a drain
        # event is already on the calendar for that server.
        self._direct = config.server_dispatch == "direct"
        # Analytic drain lanes need cursor-scheduled (analytic) wire
        # timing; the process-path wire falls back to the event drain.
        self._lane = (
            self._direct and config.server_drain == "lane" and self.net.analytic
        )
        self._srv_names = [f"server{j}" for j in range(m)]
        self._srv_busy = [0.0] * m
        # Per-shard virtual clock: the handle time of the request this
        # shard is currently serving (== engine.now inside real handle
        # events).  ShardServer.clock reads it, so DPR waits and protocol
        # instants see identical times in lane and event drain modes.
        self._srv_now = [0.0] * m
        self._srv_queue: List[Deque[Message]] = [deque() for _ in range(m)]
        self._srv_drain_pending = [False] * m
        # Hot-path memos: node-id strings, per-shard wire sizes, and (when
        # causal tracing is off) one prebound pull responder per server —
        # all pure functions of the config, resolved once instead of per
        # request at incast rates.
        self._srv_node_ids = [config.cluster.server_id(j) for j in range(m)]
        self._wkr_node_ids = [config.cluster.worker_id(w) for w in range(n)]
        # Endpoint objects resolved once: Network.send accepts them in
        # place of node ids, skipping two registry lookups per message
        # (cache misses once the registry holds 100k entries).
        self._srv_eps = [self.net.endpoints[i] for i in self._srv_node_ids]
        self._wkr_eps = [self.net.endpoints[i] for i in self._wkr_node_ids]
        self._shard_bytes = [self._payload_bytes(j) for j in range(m)]
        self._responders = [
            partial(self._send_reply, j) for j in range(m)
        ]
        #: Dispatch counters (perf detail): requests handled inline in
        #: the delivery event vs. parked behind a busy server and drained.
        self.server_msgs_inline = 0
        self.server_msgs_drained = 0

    @staticmethod
    def _normalize_models(
        sync: Union[SyncModel, Sequence[SyncModel]], m: int
    ) -> List[SyncModel]:
        if isinstance(sync, SyncModel):
            return [sync] * m
        models = list(sync)
        if len(models) != m:
            raise ValueError(f"need one sync model per server, got {len(models)} for {m}")
        return models

    # -- sizing ---------------------------------------------------------------

    def _payload_bytes(self, server: int) -> int:
        return int(self.layout.shard_bytes(server) * self.wire_scale) + self.cfg.header_bytes

    # -- server side ----------------------------------------------------------

    def _server_proc(self, m: int):
        """Classic inbox loop (``server_dispatch="proc"``): one generator
        per server, resumed once per request plus once per busy window.
        The dispatch differential oracle — both paths share
        :meth:`_handle_server_msg`, so handle times and per-server FIFO
        order match the direct dispatcher bit-for-bit; only the event
        structure (inbox resume + timeout vs. inline + drain) differs."""
        ep = self.net.endpoint(self.cfg.cluster.server_id(m))
        while True:
            msg: Message = yield ep.inbox.get()
            cost = self._handle_server_msg(m, msg, self.engine.now)
            if cost > 0:
                yield Timeout(cost)

    def _dispatch_server(self, m: int, msg: Message) -> None:
        """Endpoint sink (``server_dispatch="direct"``): handle the
        request inside the delivery event while the server is free;
        otherwise the drain mode decides.  ``"lane"``: serve it *now* at
        the cascaded virtual handle time ``max(deliver_time, lane busy
        end)`` — arrival order equals handle order per shard, so the
        cascade reproduces the busy-window FIFO with zero extra events.
        ``"event"``: park it and drain FIFO when the busy window closes
        (one engine event per parked request, the differential oracle).
        Handle times are bit-identical across modes and to the proc
        loop."""
        now = msg.deliver_time
        busy = self._srv_busy[m]
        if self._lane:
            if now >= busy:
                self.server_msgs_inline += 1
                self._handle_server_msg(m, msg, now)
            else:
                self.server_msgs_drained += 1
                self._handle_server_msg(m, msg, busy)
            return
        if now >= busy and not self._srv_queue[m]:
            self.server_msgs_inline += 1
            self._handle_server_msg(m, msg, now)
        else:
            self._srv_queue[m].append(msg)
            if not self._srv_drain_pending[m]:
                self._srv_drain_pending[m] = True
                self.engine._schedule(busy, self._drain_server, m)

    def _drain_server(self, m: int) -> None:
        self._srv_drain_pending[m] = False
        self.server_msgs_drained += 1
        self._handle_server_msg(m, self._srv_queue[m].popleft(), self.engine.now)
        if self._srv_queue[m]:
            self._srv_drain_pending[m] = True
            self.engine._schedule(self._srv_busy[m], self._drain_server, m)

    def _handle_server_msg(self, m: int, msg: Message, now: float) -> float:
        server = self.servers[m]
        causal = self.causal
        actor = self._srv_names[m]
        self._srv_now[m] = now
        payload = msg.payload
        # ``tip`` tracks the request's causal frontier through the
        # server: delivery rx -> backlog wait -> apply/DPR wait.
        tip = msg.cause_id
        if causal is not None and now > msg.deliver_time:
            tip = causal.record(
                tip, actor, "server_queue", msg.deliver_time, now,
                shard=m, tag=msg.tag,
            )
        dprs_before = server.metrics.dprs
        cls = payload.__class__
        if cls is _PushMsg:
            self._current_push_worker = payload.worker
            server.handle_push(payload.worker, payload.progress, grad=payload.shard)
            self._current_push_worker = -1
        elif cls is _PullMsg:
            server.handle_pull(
                payload.worker,
                payload.progress,
                # Causal tracing threads the request's span id through the
                # responder; with tracing off the prebound per-server
                # responder avoids one closure per pull.
                respond=self._responders[m]
                if causal is None
                else lambda reply, j=m, cid=tip: self._send_reply(j, reply, cid),
            )
        else:
            raise TypeError(f"server {m}: unexpected message payload {payload!r}")
        # Charge server processing time: fixed per request plus per
        # DPR event this request caused (buffer/re-check bookkeeping).
        # The busy window serializes the server; later arrivals wait
        # for it to close before they are handled.
        cost = self.cfg.server_op_overhead_s
        cost += (server.metrics.dprs - dprs_before) * self.cfg.dpr_overhead_s
        end = now + cost
        self._srv_busy[m] = end
        if cost > 0 and self.obs.enabled:
            # Server-side apply spans are an observability feature;
            # the plain timing path skips the per-request recording.
            self.trace.record_span(actor, SpanKind.SERVER_APPLY, now, end)
            if causal is not None:
                causal.record(
                    tip, actor, "server_apply", now, end,
                    shard=m, tag=msg.tag,
                )
        return cost

    def _send_reply(self, server: int, reply: PullReply, cause: int = -1) -> None:
        causal = self.causal
        if causal is not None and reply.waited > 0:
            # The pull sat in the DPR buffer from enqueue until this very
            # instant; the release happens inside the straggler's push, so
            # ``_current_push_worker`` names who to blame for the wait.
            now = self._srv_now[server]
            cause = causal.record(
                cause, f"server{server}", "server_queue", now - reply.waited, now,
                worker=reply.worker, iteration=reply.progress, shard=server,
                tag="dpr", blocked_on=self._current_push_worker,
            )
        self.net.send(
            self._srv_eps[server],
            self._wkr_eps[reply.worker],
            self._shard_bytes[server],
            payload=_ReplyMsg(server, reply),
            tag="reply",
            cause=cause,
            # Workers consume replies via this subscription, never the
            # inbox (the waiter event also keeps the worker-resume seq
            # allocation where the golden schedules expect it; an inline
            # sink moves it and reorders same-instant ties).  Skipping
            # the inbox append keeps 10k-worker runs from pinning every
            # reply Message (and its COW snapshot) alive in an unread
            # queue.
            deliver_to_inbox=False,
            # Replies issued from a cascaded lane handle must serialize
            # at the virtual handle time, not the (earlier) engine clock.
            at=self._srv_now[server],
            # Inline delivery callback: skips the Signal allocation and
            # the subscriber resume event per reply (the gather happens
            # inside the delivery event itself).
            on_deliver=self._on_reply_delivered,
        )

    def _on_reply_delivered(self, msg: Message) -> None:
        payload: _ReplyMsg = msg.payload
        reply = payload.reply
        pending = self._pending[(reply.worker, reply.progress)]
        if pending.flat is not None and reply.params is not None:
            self.layout.gather_into(pending.flat, payload.server, reply.params)
        pending.max_missing = max(pending.max_missing, reply.missing)
        pending.last_cause = msg.cause_id
        pending.remaining -= 1
        if pending.remaining == 0:
            del self._pending[(reply.worker, reply.progress)]
            pending.signal.fire(pending)

    # -- worker side ---------------------------------------------------------------

    def _worker_proc(
        self,
        w: int,
        start_iter: int = 0,
        presampled: Optional[Dict[int, float]] = None,
    ):
        """One worker's event-path life.  ``start_iter``/``presampled``
        re-materialize a worker mid-run after a partial round collapse:
        the process resumes at iteration ``start_iter`` (spawned with
        ``start_at=`` its analytic clock) and uses the compute durations
        the collapse driver already drew from its RNG stream, so the RNG
        state and every downstream timestamp match the pure event path
        bit for bit."""
        cfg = self.cfg
        engine = self.engine
        send = self.net.send
        node = self._wkr_eps[w]
        srv_ids = self._srv_eps
        n_servers = cfg.cluster.n_servers
        push_bytes = self._shard_bytes  # exact when wire_factor == 1.0
        request_bytes = cfg.request_bytes
        header_bytes = cfg.header_bytes
        record_track = self.trace.record_track
        compute_rng = self._compute_rngs[w]
        sample = self.compute_model.sample
        name = self._worker_names[w]
        base = cfg.resolved_base_compute(cfg.cluster.workers[w].flops)
        params = cfg.task.init_params.copy() if cfg.task is not None else None
        causal = self.causal
        sketch = self._pull_sketches[w] if self._pull_sketches is not None else None
        for i in range(start_iter, cfg.max_iter):
            pre = None if presampled is None else presampled.get(i)
            dur = sample(w, i, base, compute_rng) if pre is None else pre
            t0 = engine.now
            yield dur  # zero-allocation spelling of Timeout(dur)
            record_track(w, SpanKind.COMPUTE, t0, engine.now, i)
            cause = -1
            if causal is not None:
                cause = causal.record(
                    -1, name, "compute", t0, engine.now, worker=w, iteration=i
                )
            wire_factor = 1.0
            if cfg.task is not None:
                update = cfg.task.step_fn(
                    StepContext(worker=w, iteration=i, params=params, rng=self._step_rngs[w])
                )
                filtered = self._filters[w].apply(update, params, i)
                wire_factor = filtered.wire_bytes_factor
                shards = self.layout.scatter(filtered.update)
            else:
                shards = [None] * n_servers
            # sPush to every shard server (async — Algorithm 1 line 4).
            # Neither pushes nor pulls subscribe to the delivery signal,
            # so both ride the signal-free send path (notify=False).
            t_sync = engine.now
            for m in range(n_servers):
                send(
                    node,
                    srv_ids[m],
                    push_bytes[m]
                    if wire_factor == 1.0
                    else max(header_bytes, int(self._payload_bytes(m) * wire_factor)),
                    payload=_PushMsg(w, i, shards[m]),
                    tag="push",
                    cause=cause,
                    notify=False,
                )
            # sPull from every shard server, then wait (lines 5-6).  The
            # push/pull messages share the worker's FIFO TX lane, so each
            # server sees this iteration's push before its pull.
            pending = _PendingPull(
                engine,
                n_servers,
                self.spec.total_elements if cfg.task is not None else None,
            )
            self._pending[(w, i)] = pending
            for m in range(n_servers):
                send(
                    node,
                    srv_ids[m],
                    request_bytes,
                    payload=_PullMsg(w, i),
                    tag="pull",
                    cause=cause,
                    notify=False,
                )
            yield pending.signal
            record_track(w, SpanKind.PULL, t_sync, engine.now, i)
            if causal is not None:
                # Terminal span of the iteration's DAG: parented on the
                # last reply to land (the cause that released the wait).
                parent = pending.last_cause if pending.last_cause >= 0 else cause
                causal.record(
                    parent, name, "sync_wait", t_sync, engine.now,
                    worker=w, iteration=i,
                )
            if sketch is not None:
                sketch.observe(engine.now - t_sync)
            if params is not None:
                params = pending.flat
            if w == 0 and cfg.task is not None and cfg.eval_every > 0:
                if (i + 1) % cfg.eval_every == 0 or i + 1 == cfg.max_iter:
                    value = cfg.task.eval_fn(self._global_params())
                    self.eval_by_time.append(engine.now, value)
                    self.eval_by_iteration.append(i + 1, value)
        self._finish_times[w] = engine.now

    def _global_params(self) -> np.ndarray:
        # One vectorized apply pass across shards before gathering (falls
        # back to per-shard flushes for odd shapes; bit-identical).
        flush_applies_across(self.servers)
        return self.layout.gather([s.params for s in self.servers])

    # -- closed-form round fast-forward ------------------------------------------------

    def _collapse_eligible(self) -> bool:
        """True when whole protocol rounds can be committed analytically.

        The closed form models exactly one behavior: timing-only workers
        that push then pull every shard each iteration over analytic
        drain lanes, with every shard's sync condition provably quiet
        (every pull immediate, one frontier advance per round, no DPRs,
        no PSSP coin flips).  Anything outside that — real gradients,
        quorums below n, BSP's s=0 soft barrier, DSPS's self-mutating
        staleness, event-mode drains, DPOR choice/delay hooks, causal
        tracing, span capture without obs — keeps the per-event path,
        which stays bit-identical by construction.
        """
        cfg = self.cfg
        if type(self) is not FluentPSSimRunner:
            # Baseline runners (PS-Lite's scheduler-gated workers,
            # SpecSync) subclass this runner with their own protocols;
            # the cohort closed form models only the stock one.
            return False
        if not self.engine.collapse_enabled:
            return False
        if not self._lane or not self.net.analytic:
            return False
        if cfg.task is not None:
            return False
        if self.causal is not None or self.engine._choice_hook is not None:
            return False
        if self.net.delay_hook is not None:
            return False
        if self.trace.keep_spans and not self.obs.enabled:
            # The vector commit folds spans into totals; a kept span
            # *list* can only be reproduced by the obs handler replay.
            return False
        n = cfg.cluster.n_workers
        for s in self.servers:
            pc = s.pull_con
            # DSPS adapts ``s`` inside ``__call__`` — never provably quiet.
            if type(pc) is DSPSPull or not isinstance(pc, (SSPPull, PSSPPull)):
                return False
            if not pc.s > 0:  # BSP (s=0) blocks pulls until the frontier moves
                return False
            if s.push_con.quorum(n) != n:
                return False
            if s.callbacks or s.v_train != 0:
                return False
            if s.worker_progress.count(-1) != n:
                return False
        return True

    def _collapse_rounds(self) -> bool:
        """Advance whole protocol rounds in closed form.

        One vectorized pass per round over the cohort state table
        (per-worker clocks, NIC lane cursors, busy accumulators, resume
        ranks) reproduces the exact float recurrences the event path
        would execute: resume order, worker TX cascades, per-server RX
        claim/serve cascades, reply TX/RX cascades, and the next round's
        resume ranks.  A round commits only when the next round is
        provably isolated (its earliest send lands strictly after this
        round's last reply), so serve orders and staleness splits cannot
        shift; the first round that fails the check — a straggler draw
        overlapping the tail — commits *nothing* and de-vectorizes the
        cohort back to per-worker event processes at their analytic
        clocks with their compute durations pre-drawn, keeping RNG
        streams and all downstream timestamps aligned with the pure
        event path bit for bit.

        Returns True when every iteration committed analytically (the
        event heap stays empty and ``engine.now`` is set directly),
        False after de-vectorizing.
        """
        cfg = self.cfg
        net = self.net
        eng = self.engine
        record_tracks = self.trace.record_tracks
        observed = self.obs.enabled
        n = cfg.cluster.n_workers
        M = cfg.cluster.n_servers
        K = 2 * M
        latency = net.latency_s
        cost = cfg.server_op_overhead_s
        hooks = net._delivery_hooks
        fused = not hooks
        sample = self.compute_model.sample
        rngs = self._compute_rngs
        push_bytes = self._shard_bytes
        req_bytes = cfg.request_bytes
        # Base compute is a pure function of node FLOPs: one call per
        # distinct node type, not per worker.
        base_memo: Dict[float, float] = {}
        for node in cfg.cluster.workers:
            if node.flops not in base_memo:
                base_memo[node.flops] = cfg.resolved_base_compute(node.flops)
        base_l = [base_memo[node.flops] for node in cfg.cluster.workers]

        # Serialization holds are pure functions of (NIC, size): one
        # vector per distinct NIC spec covers the whole cohort.
        sizes = list(push_bytes) + [req_bytes]
        nic_memo: Dict[Tuple[float, float], np.ndarray] = {}
        wh = np.empty((n, M + 1))
        for w, ep in enumerate(self._wkr_eps):
            nic_key = (ep.nic.bandwidth_Bps, ep.nic.overhead_s)
            hv = nic_memo.get(nic_key)
            if hv is None:
                hv = nic_memo[nic_key] = np.array(
                    [ep.nic.serialize_time(s) for s in sizes]
                )
            wh[w] = hv
        wtx_holds = np.empty((n, K))
        wtx_holds[:, :M] = wh[:, :M]
        wtx_holds[:, M:] = wh[:, M:]  # pull-request hold, broadcast M wide
        wrx_holds = np.ascontiguousarray(wh[:, :M])  # replies carry shard bytes
        s_push_hold = [
            self._srv_eps[m].nic.serialize_time(push_bytes[m]) for m in range(M)
        ]
        s_pull_hold = [
            self._srv_eps[m].nic.serialize_time(req_bytes) for m in range(M)
        ]
        s_reply_hold = s_push_hold  # same NIC, same payload size

        # Cohort state table: endpoint cursors and busy accumulators,
        # loaded once and written back only for committed rounds.
        wtx_free = np.array([ep.tx_free_at for ep in self._wkr_eps])
        wrx_free = np.array([ep.rx_free_at for ep in self._wkr_eps])
        wtx_busy = np.array([ep.tx_busy_s for ep in self._wkr_eps])
        wrx_busy = np.array([ep.rx_busy_s for ep in self._wkr_eps])
        stx_free = [ep.tx_free_at for ep in self._srv_eps]
        srx_free = [ep.rx_free_at for ep in self._srv_eps]
        stx_busy = [ep.tx_busy_s for ep in self._srv_eps]
        srx_busy = [ep.rx_busy_s for ep in self._srv_eps]
        sbusy = list(self._srv_busy)
        snow = list(self._srv_now)
        rounds = 0
        inline_total = 0
        drained_total = 0
        # Event census per worker per round: 2 resume events, 2M request
        # TX completions, M reply TX completions, M reply deliveries —
        # plus 2M request deliveries when they do not fuse.
        saved_per_round = n * (2 + (4 if fused else 6) * M)
        sum_push = sum(push_bytes)

        def _flush() -> None:
            # Write the committed-round cursor/counter state back to the
            # live endpoints, network totals, and dispatch counters.
            # Must run before any de-vectorized worker spawns so their
            # sends observe the post-collapse cursors.
            for ep, tx_free, rx_free, tx_busy, rx_busy in zip(
                self._wkr_eps,
                wtx_free.tolist(),
                wrx_free.tolist(),
                wtx_busy.tolist(),
                wrx_busy.tolist(),
            ):
                ep.tx_free_at = tx_free
                ep.rx_free_at = rx_free
                ep.tx_busy_s = tx_busy
                ep.rx_busy_s = rx_busy
                ep.bytes_sent += rounds * (sum_push + M * req_bytes)
                ep.messages_sent += rounds * K
                ep.bytes_received += rounds * sum_push
                ep.messages_received += rounds * M
            for m, ep in enumerate(self._srv_eps):
                ep.tx_free_at = stx_free[m]
                ep.rx_free_at = srx_free[m]
                ep.tx_busy_s = stx_busy[m]
                ep.rx_busy_s = srx_busy[m]
                ep.bytes_sent += rounds * n * push_bytes[m]
                ep.messages_sent += rounds * n
                ep.bytes_received += rounds * n * (push_bytes[m] + req_bytes)
                ep.messages_received += rounds * 2 * n
                self._srv_busy[m] = sbusy[m]
                self._srv_now[m] = snow[m]
            nmsg = rounds * 3 * M * n
            net.total_messages += nmsg
            net.total_bytes += rounds * n * (2 * sum_push + M * req_bytes)
            net.fast_path_transfers += nmsg
            net._next_msg_id += nmsg
            if fused:
                net.fused_deliveries += rounds * K * n
            self.server_msgs_inline += inline_total
            self.server_msgs_drained += drained_total

        r = 0
        c = np.zeros(n)
        arange_n = np.arange(n)
        # Workers in resume-rank order (the tie-break among equal clocks).
        by_rank = arange_n
        dur_l = [sample(w, 0, base_l[w], rngs[w]) for w in range(n)]
        cost2n = np.full(2 * n, cost)
        while True:
            # -- resume order and the worker TX cascade -------------------
            # Sorting on (clock, rank) is a stable sort on the clock over
            # workers laid out in rank order; every ``(time, seq)`` order
            # below is built the same way.
            e = c + np.asarray(dur_l)
            order_w = by_rank[np.argsort(e[by_rank], kind="stable")]
            wrank = np.empty(n, dtype=np.int64)
            wrank[order_w] = arange_n
            cur = np.maximum(wtx_free, e)
            T = np.empty((n, K))
            for k in range(K):
                cur = cur + wtx_holds[:, k]
                T[:, k] = cur
            new_wtx_free = cur
            # Send seqs follow resume rank, then column order (pushes
            # 0..M-1, then pulls): rows of ``T_seq`` are in send-seq order.
            T_seq = T[order_w]

            # -- per-server request claim, RX lane, serve cascade ---------
            # RX cursors are claimed at TX-completion events, so per-server
            # claim order is the global TX order (tx_end, send seq)
            # restricted to that server — in both fused and unfused
            # regimes (unfused delivery order is (rx_end, tx rank), whose
            # per-server restriction is the same claim order).
            pull_serve = np.empty((n, M))
            pull_rxend = np.empty((n, M))
            x_early = [0] * M
            new_srx_free = [0.0] * M
            new_srx_busy = [0.0] * M
            new_sbusy = [0.0] * M
            new_snow = [0.0] * M
            inline_round = 0
            srv_claims: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            for m in range(M):
                # Claims indexed ``w`` (push) and ``n + w`` (pull); in send
                # order each worker's push precedes its pull.
                t2 = T_seq[:, (m, M + m)].ravel()
                j = np.argsort(t2, kind="stable")
                o = order_w[j >> 1] + n * (j & 1)
                at = t2[j] + latency
                is_pull = o >= n
                h2 = np.where(is_pull, s_pull_hold[m], s_push_hold[m])
                rx_ends, new_srx_free[m] = _seq_cascade(at, h2, srx_free[m])
                new_srx_busy[m] = float(
                    np.add.accumulate(np.concatenate(((srx_busy[m],), h2)))[-1]
                )
                busy_ends, new_sbusy[m] = _seq_cascade(rx_ends, cost2n, sbusy[m])
                busy_prev = np.empty(2 * n)
                busy_prev[0] = sbusy[m]
                busy_prev[1:] = busy_ends[:-1]
                serve = np.maximum(busy_prev, rx_ends)
                new_snow[m] = float(serve[-1])
                inline_round += int(np.count_nonzero(rx_ends >= busy_prev))
                # Pulls served before this shard's last push see the
                # pre-advance frontier: one missing iteration.
                last_push = int(np.nonzero(~is_pull)[0][-1])
                x_early[m] = int(np.count_nonzero(is_pull[:last_push]))
                pw = o[is_pull] - n
                pull_serve[pw, m] = serve[is_pull]
                pull_rxend[pw, m] = rx_ends[is_pull]
                srv_claims.append((o, rx_ends, serve))

            # -- global reply send seq = global pull handle order ---------
            ptx_seq = np.empty(n * M, dtype=np.int64)
            ptx_seq[np.argsort(T_seq[:, M:].ravel(), kind="stable")] = np.arange(n * M)
            ptx_rank = ptx_seq.reshape(n, M)[wrank].ravel()
            if fused:
                reply_rank = ptx_rank.reshape(n, M)
            else:
                go2 = np.lexsort((ptx_rank, pull_rxend.ravel()))
                rr = np.empty(n * M, dtype=np.int64)
                rr[go2] = np.arange(n * M)
                reply_rank = rr.reshape(n, M)

            # -- per-server reply TX cascade (send order = claim order) ---
            rtx = np.empty((n, M))
            new_stx_free = [0.0] * M
            new_stx_busy = [0.0] * M
            for m in range(M):
                o, _rx, serve = srv_claims[m]
                sel = o >= n
                holds_m = np.full(n, s_reply_hold[m])
                ends, new_stx_free[m] = _seq_cascade(
                    serve[sel], holds_m, stx_free[m]
                )
                new_stx_busy[m] = float(
                    np.add.accumulate(
                        np.concatenate(((stx_busy[m],), holds_m))
                    )[-1]
                )
                rtx[o[sel] - n, m] = ends

            # -- per-worker reply RX claim order and cascade --------------
            # A worker's RX cursor is claimed at reply TX completions:
            # order by (reply tx_end, reply send seq), stable two-pass.
            o1 = np.argsort(reply_rank, axis=1, kind="stable")
            rtx_s = np.take_along_axis(rtx, o1, axis=1)
            o2 = np.argsort(rtx_s, axis=1, kind="stable")
            perm = np.take_along_axis(o1, o2, axis=1)
            rtx_s = np.take_along_axis(rtx_s, o2, axis=1)
            rr_s = np.take_along_axis(reply_rank, perm, axis=1)
            hold_s = np.take_along_axis(wrx_holds, perm, axis=1)
            rrx = np.empty((n, M))
            cur = wrx_free
            new_wrx_busy = wrx_busy
            for j in range(M):
                cur = np.maximum(cur, rtx_s[:, j] + latency) + hold_s[:, j]
                rrx[:, j] = cur
                new_wrx_busy = new_wrx_busy + hold_s[:, j]
            f = cur
            # The sync wait releases inside the last reply's delivery
            # event; resume seqs are allocated there, so next round's
            # resume rank is this fire order.
            fire_order = np.lexsort((rr_s[:, -1], rtx_s[:, -1], f))

            # -- inter-round isolation check ------------------------------
            last_round = r + 1 >= cfg.max_iter
            dur_next: List[float] = []
            if not last_round:
                dur_next = [
                    sample(w, r + 1, base_l[w], rngs[w]) for w in range(n)
                ]
                if not float(np.min(f + np.asarray(dur_next))) > float(np.max(f)):
                    # Round r+1's earliest send would overlap round r's
                    # tail (serve orders and reply times could shift), so
                    # nothing about round r is committed: the cohort
                    # de-vectorizes here, durations pre-drawn so the RNG
                    # streams stay aligned with the pure event path.
                    _flush()
                    for w in by_rank.tolist():
                        eng.spawn(
                            self._worker_proc(
                                w, r, {r: dur_l[w], r + 1: dur_next[w]}
                            ),
                            name=self._worker_names[w],
                            start_at=float(c[w]),
                        )
                    return False

            # -- commit round r -------------------------------------------
            if observed:
                self._observed_round_commit(
                    r, c, e, f, order_w, fire_order, T, wrank, pull_rxend,
                    srv_claims, rtx_s, rr_s, rrx, perm, pull_serve,
                )
            else:
                for m in range(M):
                    self.servers[m].handle_quiet_round(r, x_early[m])
                if hooks:
                    self._emit_collapsed_hooks(
                        r, e, T, wrank, pull_rxend, srv_claims, rtx_s, rr_s,
                        rrx, perm, pull_serve,
                    )
                record_tracks(SpanKind.COMPUTE, c, e, r, order_w)
                record_tracks(SpanKind.PULL, e, f, r, fire_order)
            wtx_free = new_wtx_free
            wrx_free = f
            wrx_busy = new_wrx_busy
            for k in range(K):
                wtx_busy = wtx_busy + wtx_holds[:, k]
            srx_free = new_srx_free
            srx_busy = new_srx_busy
            stx_free = new_stx_free
            stx_busy = new_stx_busy
            sbusy = new_sbusy
            snow = new_snow
            inline_total += inline_round
            drained_total += 2 * n * M - inline_round
            # The initial spawn-step wave is only truly saved when the
            # whole run collapses — a de-vectorization re-spawns one step
            # event per worker, cancelling the round-0 saving.
            eng.credit_collapsed_round(saved_per_round + (n if last_round else 0))
            rounds += 1
            if last_round:
                _flush()
                eng.now = float(np.max(f))
                self._finish_times = [float(x) for x in f]
                return True
            r += 1
            c = f
            by_rank = fire_order
            dur_l = dur_next

    def _observed_round_commit(
        self, r, c, e, f, order_w, fire_order, T, wrank, pull_rxend,
        srv_claims, rtx_s, rr_s, rrx, perm, pull_serve,
    ) -> None:
        """Replay one certified-quiet round through the real protocol
        handlers so the S001–S016 instant stream is byte-identical to the
        event path: COMPUTE spans in resume order, pushes/pulls via
        ``handle_push``/``handle_pull`` in global handle order (TX order
        when request deliveries fuse, delivery order otherwise) with the
        per-shard virtual clock set to each request's serve time, then
        delivery-hook synthesis, then PULL spans and latency-sketch
        observations in fire order.  Only the global span-*list* order
        differs from the event path (per-actor subsequences are
        identical); every protocol instant carries the same name, time,
        actor, and args in the same order."""
        cfg = self.cfg
        n = cfg.cluster.n_workers
        M = cfg.cluster.n_servers
        K = 2 * M
        cost = cfg.server_op_overhead_s
        record_span = self.trace.record_span
        servers = self.servers
        srv_names = self._srv_names
        hooks = self.net._delivery_hooks
        self.trace.record_tracks(SpanKind.COMPUTE, c, e, r, order_w)
        serve_flat = np.empty(n * K)
        for m in range(M):
            o, _rx, serve = srv_claims[m]
            sel = o >= n
            wkr = np.where(sel, o - n, o)
            col = np.where(sel, M + m, m)
            serve_flat[wkr * K + col] = serve
        keyflat = (wrank[:, None] * K + np.arange(K)[None, :]).ravel()
        if not hooks:
            gro = np.lexsort((keyflat, T.ravel()))
        else:
            txrank = np.empty(n * K, dtype=np.int64)
            txrank[np.lexsort((keyflat, T.ravel()))] = np.arange(n * K)
            rx_flat = np.empty(n * K)
            for m in range(M):
                o, rx_ends, _serve = srv_claims[m]
                sel = o >= n
                wkr = np.where(sel, o - n, o)
                col = np.where(sel, M + m, m)
                rx_flat[wkr * K + col] = rx_ends
            gro = np.lexsort((txrank, rx_flat))
        for idx in gro:
            i = int(idx)
            w, k = divmod(i, K)
            pull = k >= M
            m = k - M if pull else k
            st = float(serve_flat[i])
            self._srv_now[m] = st
            server = servers[m]
            dprs0 = server.metrics.dprs
            if pull:
                server.handle_pull(w, r, respond=_discard_reply)
            else:
                server.handle_push(w, r, grad=None)
            if server.metrics.dprs != dprs0:
                raise SimulationError(
                    f"collapsed round {r}: shard {m} buffered a DPR in a "
                    "round certified quiet"
                )
            end = st + cost
            self._srv_busy[m] = end
            if cost > 0:
                record_span(srv_names[m], SpanKind.SERVER_APPLY, st, end)
        if hooks:
            self._emit_collapsed_hooks(
                r, e, T, wrank, pull_rxend, srv_claims, rtx_s, rr_s, rrx,
                perm, pull_serve,
            )
        self.trace.record_tracks(SpanKind.PULL, e, f, r, fire_order)
        sketches = self._pull_sketches
        if sketches is not None:
            for w, t0, t1 in zip(
                fire_order.tolist(), e[fire_order].tolist(), f[fire_order].tolist()
            ):
                sketches[w].observe(t1 - t0)

    def _emit_collapsed_hooks(
        self, r, e, T, wrank, pull_rxend, srv_claims, rtx_s, rr_s, rrx,
        perm, pull_serve,
    ) -> None:
        """Feed delivery hooks one collapsed round's wire traffic.

        Hooks observe one synthesized :class:`Message` per transfer with
        the exact (src, dst, size, tag, send_time, deliver_time) the
        event path produces.  Requests are emitted in delivery order,
        then replies in delivery order; cross-class interleaving, msg/
        cause ids (-1 here), and reply payloads (None here) are not
        reproduced — trace comparisons sort on the stable wire fields
        (see tests/test_round_collapse.py)."""
        cfg = self.cfg
        n = cfg.cluster.n_workers
        M = cfg.cluster.n_servers
        K = 2 * M
        hooks = self.net._delivery_hooks
        push_bytes = self._shard_bytes
        req_bytes = cfg.request_bytes
        wkr_ids = self._wkr_node_ids
        srv_ids = self._srv_node_ids
        keyflat = (wrank[:, None] * K + np.arange(K)[None, :]).ravel()
        txrank = np.empty(n * K, dtype=np.int64)
        txrank[np.lexsort((keyflat, T.ravel()))] = np.arange(n * K)
        rx_flat = np.empty(n * K)
        for m in range(M):
            o, rx_ends, _serve = srv_claims[m]
            sel = o >= n
            wkr = np.where(sel, o - n, o)
            col = np.where(sel, M + m, m)
            rx_flat[wkr * K + col] = rx_ends
        for idx in np.lexsort((txrank, rx_flat)):
            i = int(idx)
            w, k = divmod(i, K)
            pull = k >= M
            m = k - M if pull else k
            msg = Message(
                src=wkr_ids[w],
                dst=srv_ids[m],
                size_bytes=req_bytes if pull else push_bytes[m],
                tag="pull" if pull else "push",
                payload=_PullMsg(w, r) if pull else _PushMsg(w, r, None),
                send_time=float(e[w]),
                deliver_time=float(rx_flat[i]),
            )
            for hook in hooks:
                hook(msg)
        ps_sorted = np.take_along_axis(pull_serve, perm, axis=1).ravel()
        perm_flat = perm.ravel()
        rrx_flat = rrx.ravel()
        for idx in np.lexsort((rr_s.ravel(), rtx_s.ravel(), rrx_flat)):
            i = int(idx)
            w = i // M
            m = int(perm_flat[i])
            msg = Message(
                src=srv_ids[m],
                dst=wkr_ids[w],
                size_bytes=push_bytes[m],
                tag="reply",
                send_time=float(ps_sorted[i]),
                deliver_time=float(rrx_flat[i]),
            )
            for hook in hooks:
                hook(msg)

    # -- run ---------------------------------------------------------------------------

    def run(self) -> SimRunResult:
        """Execute the co-simulation to completion and aggregate results."""
        if not self._direct:
            for m in range(self.cfg.cluster.n_servers):
                self.engine.spawn(self._server_proc(m), name=f"server{m}")
        else:
            for m in range(self.cfg.cluster.n_servers):
                ep = self.net.endpoint(self.cfg.cluster.server_id(m))
                ep.sink = partial(self._dispatch_server, m)
            if self._lane:
                # Analytic drain lanes time themselves off
                # ``msg.deliver_time``, so signal-free request deliveries
                # can fold into their TX-completion events.
                self.net.fuse_delivery = True
        # Closed-form round fast-forward: when every shard is provably
        # quiet for whole rounds, the collapse driver commits them
        # analytically and only spawns worker processes if (and from the
        # round where) it de-vectorizes.  Otherwise the classic path: one
        # worker process each.
        collapsed_all = False
        if self._collapse_eligible():
            collapsed_all = self._collapse_rounds()
        else:
            for w in range(self.cfg.cluster.n_workers):
                self.engine.spawn(self._worker_proc(w), name=self._worker_names[w])
        snapshotter = None
        if self.obs.enabled:
            snapshotter = ServerSnapshotter(
                self.obs.registry,
                self.servers,
                network=self.net,
                nodes=[self.cfg.cluster.server_id(j) for j in range(self.cfg.cluster.n_servers)],
                engine=self.engine,
                dispatch=self,
            )
            if not collapsed_all:
                # A fully collapsed run has no events to scrape between;
                # the finalize() below still records the end-state sample
                # (engine counters included).
                interval = self.cfg.snapshot_interval_s
                if interval is None:
                    interval = (
                        self.cfg.resolved_base_compute(self.cfg.cluster.workers[0].flops) / 2.0
                    )
                snapshotter.install(self.engine, interval)
        self.engine.run()
        if snapshotter is not None:
            # Final snapshot so the last partial period is never dropped
            # (a no-op when the periodic scrape already landed at end time).
            snapshotter.finalize(self.engine.now)
        if self._pending:
            raise RuntimeError(
                f"simulation drained with {len(self._pending)} unanswered pulls "
                "(synchronization deadlock)"
            )
        if self._capture is not None:
            self._capture.complete = True
        total_compute = self.trace.compute_time(self._worker_names)
        total_wall = sum(self._finish_times)
        metrics = SyncMetrics.merge_all(s.metrics for s in self.servers)
        if self.obs.enabled:
            metrics.publish(self.obs.registry)
        return SimRunResult(
            duration=max(self._finish_times),
            iterations=self.cfg.max_iter,
            n_workers=self.cfg.cluster.n_workers,
            metrics=metrics,
            trace=self.trace,
            total_compute_time=total_compute,
            total_comm_time=max(0.0, total_wall - total_compute),
            bytes_on_wire=self.net.total_bytes,
            messages_on_wire=self.net.total_messages,
            final_params=self._global_params() if self.cfg.task is not None else None,
            eval_by_time=self.eval_by_time,
            eval_by_iteration=self.eval_by_iteration,
            worker_finish_times=list(self._finish_times),
        )


def run_fluentps(config: SimConfig) -> SimRunResult:
    """One-call convenience wrapper."""
    return FluentPSSimRunner(config).run()
