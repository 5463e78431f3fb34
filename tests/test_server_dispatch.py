"""Differential tests: direct server dispatch vs the inbox-loop oracle.

``server_dispatch="direct"`` hands each delivered request to its
shard's analytic drain lane inside the delivery event via the endpoint
sink: a request is served at ``max(deliver_time, lane busy end)`` at
once, with no inbox round-trip, no per-request resume + timeout events
and no drain events.  The oracle is the classic one-generator-per-server
inbox loop (``server_dispatch="proc"``).  The contract, on the analytic
wire and the process wire alike: every message crosses the wire with
bit-identical ``send_time``/``deliver_time``, and every run ends at the
same simulated instant with the same trained parameters.

On the preset cells nothing parks, so full traces match msg id for msg
id.  Once requests park, message *ids* may legally differ: the lane
issues a parked request's replies inside its arrival event, the proc
loop only after its busy window closes.  The congested cells therefore
compare msg-id-free sorted traces.

Also covers :func:`repro.core.server.flush_applies_across` — the
cross-shard vectorized apply flush the runner uses — against each
shard's own ``_flush_applies``, bit for bit.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.bench.workloads import blobs_task
from repro.core.models import ssp
from repro.core.server import (
    ExecutionMode,
    ShardServer,
    flush_applies_across,
)
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import DeterministicCompute, LogNormalCompute

from tests.presets import preset_configs


def _run_dispatch(cfg_kwargs, dispatch, analytic=None):
    """One full run with a delivery trace, on the chosen dispatcher.
    ``analytic=False`` moves an analytic-wire cluster onto the process
    wire after construction; ``None`` keeps the cluster's own wire."""
    runner = FluentPSSimRunner(SimConfig(server_dispatch=dispatch, **cfg_kwargs))
    if analytic is not None:
        runner.net.analytic = analytic
    trace = []
    runner.net.on_delivery(
        lambda m: trace.append(
            (m.msg_id, m.src, m.dst, m.tag, m.size_bytes, m.send_time, m.deliver_time)
        )
    )
    result = runner.run()
    return trace, result, runner


def _sorted_wire(trace):
    """Msg-id-free multiset of a trace, serialized through JSON so the
    check is on bytes, not floats that compare equal after rounding."""
    return json.dumps(sorted(t[1:] for t in trace))


class TestPresetDifferential:
    """Entire co-simulated runs on each preset: byte-identical traces."""

    @pytest.mark.parametrize("cfg_kwargs", preset_configs())
    def test_run_traces_identical(self, cfg_kwargs):
        d_trace, d_result, d_runner = _run_dispatch(cfg_kwargs, "direct")
        p_trace, p_result, p_runner = _run_dispatch(cfg_kwargs, "proc")
        # Serialize through JSON so the comparison is on bytes, not on
        # float objects that might compare equal after rounding.
        assert json.dumps(d_trace) == json.dumps(p_trace)
        assert d_trace  # the run actually produced traffic
        assert d_result.duration == p_result.duration
        assert d_result.messages_on_wire == p_result.messages_on_wire
        assert d_result.bytes_on_wire == p_result.bytes_on_wire
        assert d_result.total_comm_time == p_result.total_comm_time
        # Every server-bound request went through the sink dispatcher,
        # and dropping the per-request resume + timeout events is
        # visible in the engine's event count.
        requests = sum(1 for t in d_trace if t[3] in ("push", "pull"))
        assert d_runner.server_msgs_inline + d_runner.server_msgs_drained == requests
        assert p_runner.server_msgs_inline == p_runner.server_msgs_drained == 0
        assert d_runner.engine.events_processed < p_runner.engine.events_processed

    def test_training_run_params_identical(self):
        """A real (non-timing-only) run under the soft barrier: DPR
        costs stretch the busy windows and the final parameters must
        still be bit-equal.  The task is built fresh per run — training
        mutates it in place."""

        def kwargs():
            return dict(
                cluster=cpu_cluster(3, n_servers=2),
                max_iter=8,
                sync=ssp(2),
                task=blobs_task(3, n_train=120, n_test=60),
                execution=ExecutionMode.SOFT_BARRIER,
                compute_model=LogNormalCompute(0.2),
                seed=11,
            )

        _, d_result, _ = _run_dispatch(kwargs(), "direct")
        _, p_result, _ = _run_dispatch(kwargs(), "proc")
        assert d_result.final_params is not None
        assert np.array_equal(d_result.final_params, p_result.final_params)
        assert d_result.duration == p_result.duration


#: Congested wires: (fabric_concurrency, analytic override) per cell.
#: The fabric cap and the forced process wire both run on the process
#: fallback, where parked requests' replies are sent from a future
#: ``at=``.
_WIRES = [
    pytest.param(None, None, id="analytic"),
    pytest.param(1, None, id="fabric_cap1"),
    pytest.param(None, False, id="process_wire"),
]


def _cluster(n, fabric):
    return replace(cpu_cluster(n, n_servers=2), fabric_concurrency=fabric)


class TestCongestedDrain:
    """A server op cost far wider than the incast spacing: every burst
    after the first request parks behind the shard's drain lane."""

    @pytest.mark.parametrize("fabric, analytic", _WIRES)
    def test_parked_requests_retire_at_identical_times(self, fabric, analytic):
        kwargs = dict(
            cluster=_cluster(6, fabric),
            max_iter=4,
            sync=ssp(2),
            workload=alexnet_cifar_workload(),
            batch_per_worker=64,
            compute_model=DeterministicCompute(),
            seed=5,
            server_op_overhead_s=0.05,
        )
        d_trace, d_result, d_runner = _run_dispatch(kwargs, "direct", analytic)
        p_trace, p_result, _ = _run_dispatch(kwargs, "proc", analytic)
        assert d_runner.server_msgs_drained > 0  # requests actually parked
        assert (d_runner.net.fallback_transfers == 0) == d_runner.net.analytic
        assert _sorted_wire(d_trace) == _sorted_wire(p_trace)
        assert d_result.duration == p_result.duration
        assert d_result.total_comm_time == p_result.total_comm_time

    @pytest.mark.parametrize("fabric, analytic", _WIRES)
    def test_training_run_params_identical(self, fabric, analytic):
        """A real (non-timing-only) soft-barrier run: DPR costs stretch
        the busy lanes and the final parameters must still be bit-equal.
        The task is built fresh per run — training mutates it in place."""

        def kwargs():
            return dict(
                cluster=_cluster(3, fabric),
                max_iter=8,
                sync=ssp(2),
                task=blobs_task(3, n_train=120, n_test=60),
                execution=ExecutionMode.SOFT_BARRIER,
                compute_model=LogNormalCompute(0.2),
                seed=11,
                server_op_overhead_s=0.02,
            )

        d_trace, d_result, d_runner = _run_dispatch(kwargs(), "direct", analytic)
        p_trace, p_result, _ = _run_dispatch(kwargs(), "proc", analytic)
        assert d_runner.server_msgs_drained > 0
        assert d_result.final_params is not None
        assert np.array_equal(d_result.final_params, p_result.final_params)
        assert _sorted_wire(d_trace) == _sorted_wire(p_trace)
        assert d_result.duration == p_result.duration


class TestCrossShardFlush:
    """flush_applies_across == per-shard _flush_applies, bit for bit."""

    def _fleet(self, shapes, seed=0):
        """Shard servers with synthetic deferred gradients; ``shapes`` is
        a list of (n_pending_rows, param_length) per shard."""
        rng = np.random.default_rng(seed)
        servers = []
        for shard, (k, length) in enumerate(shapes):
            s = ShardServer(
                shard_id=shard,
                n_workers=4,
                model=ssp(3),
                params=rng.standard_normal(length),
            )
            s._pending_grads = [rng.standard_normal(length) for _ in range(k)]
            servers.append(s)
        return servers

    @pytest.mark.parametrize(
        "shapes",
        [
            [(3, 64)] * 4,  # homogeneous: the vectorized group path
            [(3, 64), (3, 64), (2, 64), (3, 32)],  # mixed groups + fallbacks
            [(1, 16), (0, 16), (5, 16)],  # single-row and empty shards
            [(4, 128)],  # lone member falls back
        ],
    )
    def test_bit_identical_to_per_shard_flush(self, shapes):
        grouped = self._fleet(shapes, seed=7)
        solo = self._fleet(shapes, seed=7)
        flush_applies_across(grouped)
        for s in solo:
            s._flush_applies()
        for g, s in zip(grouped, solo):
            assert np.array_equal(g.params, s.params)
            assert g._pending_grads == [] == s._pending_grads
            assert g._last_significance == s._last_significance
            assert g.apply_flushes == s.apply_flushes

    def test_lane_runner_uses_cross_shard_flush(self):
        """The lane runner's final parameter assembly goes through the
        cross-shard flush; the result must match the proc oracle's.
        The task is built fresh per run — training mutates it in place."""

        def kwargs():
            return dict(
                cluster=cpu_cluster(4, n_servers=2),
                max_iter=6,
                sync=ssp(2),
                task=blobs_task(4, n_train=160, n_test=40),
                compute_model=DeterministicCompute(),
                seed=3,
            )

        _, d_result, _ = _run_dispatch(kwargs(), "direct")
        _, p_result, _ = _run_dispatch(kwargs(), "proc")
        assert d_result.final_params is not None
        assert np.array_equal(d_result.final_params, p_result.final_params)


class TestConfigAndHousekeeping:
    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="server_dispatch"):
            SimConfig(
                cluster=cpu_cluster(2, n_servers=1),
                max_iter=1,
                sync=ssp(1),
                workload=alexnet_cifar_workload(),
                server_dispatch="inline",
            )

    @pytest.mark.parametrize("dispatch", ["direct", "proc"])
    def test_no_messages_pinned_in_inboxes(self, dispatch):
        """Neither dispatcher leaves delivered messages rotting in an
        unread inbox (replies skip the append; direct mode consumes
        server requests in the sink) — at 10k workers a pinned reply
        keeps its COW parameter snapshot alive too."""
        cfg_kwargs = dict(
            cluster=cpu_cluster(4, n_servers=2),
            max_iter=3,
            sync=ssp(2),
            workload=alexnet_cifar_workload(),
            compute_model=DeterministicCompute(),
            seed=2,
        )
        _, _, runner = _run_dispatch(cfg_kwargs, dispatch)
        for ep in runner.net.endpoints.values():
            assert len(ep.inbox) == 0, f"{ep.node_id} pinned {len(ep.inbox)} messages"
