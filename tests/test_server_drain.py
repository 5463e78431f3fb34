"""Differential tests: parallel shard drain lanes vs the event drain.

``server_drain="lane"`` retires each parked request analytically at
``max(deliver_time, shard busy-lane end)`` inside the delivery event —
no busy-window deque, no per-request drain events.  The oracle is
``server_drain="event"``, the original single-deque busy-window drain.
The contract is *timestamp* equivalence: every message crosses the wire
with bit-identical ``send_time``/``deliver_time`` and every run ends at
the same simulated instant with the same trained parameters.  Message
*ids* may legally differ once requests park (the lane issues replies
immediately, the event drain after a wakeup), so traces are compared
msg-id-free as sorted multisets.

Also covers :func:`repro.core.server.flush_applies_across` — the
cross-shard vectorized apply flush the lane runner uses — against each
shard's own ``_flush_applies``, bit for bit.
"""

import json

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


def _run_drain(cfg_kwargs, drain, **extra):
    """One full run with a delivery trace, on the chosen drain mode."""
    cfg = SimConfig(server_drain=drain, **extra, **cfg_kwargs)
    runner = FluentPSSimRunner(cfg)
    trace = []
    runner.net.on_delivery(
        lambda m: trace.append(
            (m.src, m.dst, m.tag, m.size_bytes, m.send_time, m.deliver_time)
        )
    )
    result = runner.run()
    return trace, result, runner


def _sorted(trace):
    return json.dumps(sorted(trace))


class TestPresetDifferential:
    """Entire co-simulated runs on each preset: identical wire timing."""

    @pytest.mark.parametrize("cfg_kwargs", preset_configs())
    def test_run_traces_identical(self, cfg_kwargs):
        l_trace, l_result, l_runner = _run_drain(cfg_kwargs, "lane")
        e_trace, e_result, e_runner = _run_drain(cfg_kwargs, "event")
        # Msg-id-free multiset comparison, serialized through JSON so the
        # check is on bytes, not floats that compare equal after rounding.
        assert _sorted(l_trace) == _sorted(e_trace)
        assert l_trace  # the run actually produced traffic
        assert l_result.duration == e_result.duration
        assert l_result.messages_on_wire == e_result.messages_on_wire
        assert l_result.bytes_on_wire == e_result.bytes_on_wire
        assert l_result.total_comm_time == e_result.total_comm_time
        # Both modes agree on which requests parked (the lane cascades
        # them inline, the oracle schedules a drain wakeup each), and
        # dropping those wakeups is visible in the engine's event count.
        assert l_runner.server_msgs_inline == e_runner.server_msgs_inline
        assert l_runner.server_msgs_drained == e_runner.server_msgs_drained
        assert l_runner.engine.events_processed <= e_runner.engine.events_processed


class TestCongestedDrain:
    """A server op cost far wider than the incast spacing: every burst
    after the first request parks behind the shard lane."""

    def _kwargs(self):
        return dict(
            cluster=cpu_cluster(6, n_servers=2),
            max_iter=4,
            sync=ssp(2),
            workload=alexnet_cifar_workload(),
            batch_per_worker=64,
            compute_model=DeterministicCompute(),
            seed=5,
            server_op_overhead_s=0.05,
        )

    def test_parked_requests_retire_at_identical_times(self):
        l_trace, l_result, l_runner = _run_drain(self._kwargs(), "lane")
        e_trace, e_result, e_runner = _run_drain(self._kwargs(), "event")
        assert e_runner.server_msgs_drained > 0  # requests actually parked
        assert l_runner.server_msgs_drained == e_runner.server_msgs_drained
        assert _sorted(l_trace) == _sorted(e_trace)
        assert l_result.duration == e_result.duration
        assert l_result.total_comm_time == e_result.total_comm_time

    def test_congested_drain_under_calendar_engine(self):
        """Lane replies are posted at analytic (future) instants and must
        merge into the engine's one event heap in exact time order."""
        l_trace, l_result, _ = _run_drain(self._kwargs(), "lane")
        e_trace, e_result, _ = _run_drain(self._kwargs(), "event")
        assert _sorted(l_trace) == _sorted(e_trace)
        assert l_result.duration == e_result.duration

    def test_training_run_params_identical(self):
        """A real (non-timing-only) soft-barrier run: DPR costs stretch
        the busy lanes and the final parameters must still be bit-equal.
        The task is built fresh per run — training mutates it in place."""

        def kwargs():
            return dict(
                cluster=cpu_cluster(3, n_servers=2),
                max_iter=8,
                sync=ssp(2),
                task=blobs_task(3, n_train=120, n_test=60),
                execution=ExecutionMode.SOFT_BARRIER,
                compute_model=LogNormalCompute(0.2),
                seed=11,
                server_op_overhead_s=0.02,
            )

        _, l_result, _ = _run_drain(kwargs(), "lane")
        _, e_result, _ = _run_drain(kwargs(), "event")
        assert l_result.final_params is not None
        assert np.array_equal(l_result.final_params, e_result.final_params)
        assert l_result.duration == e_result.duration

    def test_unknown_drain_rejected(self):
        with pytest.raises(ValueError, match="server_drain"):
            SimConfig(
                cluster=cpu_cluster(2, n_servers=1),
                max_iter=1,
                sync=ssp(1),
                workload=alexnet_cifar_workload(),
                server_drain="deque",
            )


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
        cross-shard flush; the result must match the event oracle's.
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

        _, l_result, _ = _run_drain(kwargs(), "lane")
        _, e_result, _ = _run_drain(kwargs(), "event")
        assert l_result.final_params is not None
        assert np.array_equal(l_result.final_params, e_result.final_params)
