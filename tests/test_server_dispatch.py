"""Differential tests: direct server dispatch vs the inbox-loop oracle.

``server_dispatch="direct"`` hands each delivered request to the server
inside the delivery event via the endpoint sink — no inbox round-trip
and no per-request resume + timeout events.  The contract is exact
semantic equivalence with the classic one-generator-per-server inbox
loop (``server_dispatch="proc"``): a request's handle time is
``max(deliver_time, previous handle end)`` and per-server order is the
delivery FIFO, bit-identical across the two dispatchers — only the
event structure differs.  These tests run entire co-simulated training
runs on every cluster preset × sync model × compute model cell and
compare full delivery traces and trained parameters, and force a
congested server through the busy-window drain path.
"""

import json

import numpy as np
import pytest

from repro.bench.workloads import blobs_task
from repro.core.models import ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.sim.cluster import cpu_cluster
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import DeterministicCompute, LogNormalCompute

from tests.presets import preset_configs


def _run_dispatch(cfg_kwargs, dispatch, **extra):
    """One full run with a delivery trace, on the chosen dispatcher."""
    cfg = SimConfig(server_dispatch=dispatch, **extra, **cfg_kwargs)
    runner = FluentPSSimRunner(cfg)
    trace = []
    runner.net.on_delivery(
        lambda m: trace.append(
            (m.msg_id, m.src, m.dst, m.tag, m.size_bytes, m.send_time, m.deliver_time)
        )
    )
    result = runner.run()
    return trace, result, runner


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


class TestBusyWindowDrain:
    """Congested servers: arrivals inside the busy window park and drain."""

    def _kwargs(self):
        return dict(
            cluster=cpu_cluster(6, n_servers=2),
            max_iter=4,
            sync=ssp(2),
            workload=alexnet_cifar_workload(),
            batch_per_worker=64,
            compute_model=DeterministicCompute(),
            seed=5,
            # A busy window far wider than the inter-arrival spacing:
            # every incast burst after the first request parks.
            server_op_overhead_s=0.05,
        )

    def test_drain_path_matches_proc(self):
        # The event drain is the sequential oracle here: lane mode issues
        # replies from cascaded handle times (identical timestamps, but a
        # different msg-id allocation order once requests park), and its
        # own differential suite lives in tests/test_server_drain.py.
        d_trace, d_result, d_runner = _run_dispatch(
            self._kwargs(), "direct", server_drain="event"
        )
        p_trace, p_result, _ = _run_dispatch(self._kwargs(), "proc")
        assert d_runner.server_msgs_drained > 0  # the drain path actually ran
        assert json.dumps(d_trace) == json.dumps(p_trace)
        assert d_result.duration == p_result.duration

    def test_drain_path_under_calendar_engine(self):
        """Drain events are scheduled mid-run and must merge into the
        engine's one event heap in exact ``(when, seq)`` order."""
        d_trace, d_result, d_runner = _run_dispatch(
            self._kwargs(), "direct", server_drain="event"
        )
        p_trace, p_result, _ = _run_dispatch(self._kwargs(), "proc")
        assert d_runner.server_msgs_drained > 0
        assert json.dumps(d_trace) == json.dumps(p_trace)
        assert d_result.duration == p_result.duration


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
