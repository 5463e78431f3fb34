"""Differential tests: the analytic lane scheduler vs the process path.

The fast path's correctness claim is *exact* timing equivalence — not a
single delivered timestamp may differ from the process-based fallback,
at any preset, under any seeded schedule.  These tests run identical
traffic through both scheduling paths and compare the full delivery
traces (and NIC accounting) for byte-identical equality, including
entire co-simulated training runs on every cluster preset.
"""

import json

import numpy as np
import pytest

from repro.bench.workloads import blobs_task
from repro.core.models import bsp, ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.sim.cluster import cpu_cluster
from repro.sim.engine import Engine, SimulationError
from repro.sim.network import Network, NicSpec
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import DeterministicCompute, LogNormalCompute

from tests.presets import preset_configs


def _run_schedule(schedule, analytic, latency_s, nics):
    """Replay ``schedule`` (time, src, dst, size) on a fresh network.

    Returns the delivery trace plus the per-endpoint accounting, so the
    comparison covers both *when* messages land and *what* the lanes
    booked while carrying them.
    """
    eng = Engine()
    net = Network(eng, latency_s=latency_s, analytic=analytic)
    for node, nic in nics.items():
        net.add_node(node, nic)
    trace = []
    net.on_delivery(
        lambda m: trace.append((m.msg_id, m.src, m.dst, m.send_time, m.deliver_time))
    )
    for when, src, dst, size in schedule:
        eng.call_at(when, net.send, src, dst, size)
    eng.run()
    stats = {
        node: (ep.tx_busy_s, ep.rx_busy_s, ep.bytes_sent, ep.bytes_received,
               ep.messages_sent, ep.messages_received)
        for node, ep in net.endpoints.items()
    }
    return trace, stats, net


def _random_schedule(rng, nodes, n_msgs, spread_s):
    sched = []
    for _ in range(n_msgs):
        src, dst = rng.choice(nodes, size=2, replace=False)
        size = int(rng.choice([0, 1, 1024, 64 * 1024, 1024 * 1024]))
        sched.append((float(rng.uniform(0, spread_s)), str(src), str(dst), size))
    # Deterministic issue order at equal times: sort by time, then insertion.
    sched.sort(key=lambda s: s[0])
    return sched


class TestMicroDifferential:
    """Seeded random schedules over the parameter grid, both paths."""

    @pytest.mark.parametrize("latency_s", [0.0, 50e-6])
    @pytest.mark.parametrize("overhead_s", [0.0, 30e-6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_schedules_identical(self, latency_s, overhead_s, seed):
        """Every message's full record is exact, and every destination sees
        deliveries in exactly the process path's order.

        The global interleaving of *simultaneous* deliveries on different
        destinations is compared per message and per destination rather
        than as one sequence: these degenerate schedules (zero overhead,
        zero-byte messages, a handful of repeated sizes) manufacture
        cross-destination float ties, where the two paths may allocate
        event seqs differently.  Per-destination order — the inbox FIFO a
        consumer can observe — must still match exactly; the preset-level
        tests below compare full global traces.
        """
        rng = np.random.default_rng(seed)
        nodes = [f"n{i}" for i in range(5)]
        nics = {n: NicSpec(bandwidth_Bps=1e8, overhead_s=overhead_s) for n in nodes}
        sched = _random_schedule(rng, nodes, n_msgs=60, spread_s=2e-3)
        fast, fast_stats, fast_net = _run_schedule(sched, True, latency_s, nics)
        slow, slow_stats, slow_net = _run_schedule(sched, False, latency_s, nics)
        # Per-message: identical (src, dst, send_time, deliver_time) floats.
        assert sorted(fast) == sorted(slow)
        # Per-destination: identical delivery order (the observable FIFO).
        for dst in nodes:
            fast_dst = [t for t in fast if t[2] == dst]
            slow_dst = [t for t in slow if t[2] == dst]
            assert fast_dst == slow_dst
        assert fast_stats == slow_stats
        assert fast_net.total_bytes == slow_net.total_bytes
        assert fast_net.fast_path_transfers == len(sched)
        assert slow_net.fallback_transfers == len(sched)

    def test_incast_burst_identical(self):
        """The paper's §II-B hot case: N senders, one receiver, same instant."""
        nodes = ["sink"] + [f"w{i}" for i in range(16)]
        nics = {n: NicSpec(bandwidth_Bps=125e6, overhead_s=20e-6) for n in nodes}
        sched = [(0.0, f"w{i}", "sink", 64 * 1024) for i in range(16)]
        sched += [(1e-5, f"w{i}", "sink", 1024) for i in range(16)]
        fast, fast_stats, _ = _run_schedule(sched, True, 50e-6, nics)
        slow, slow_stats, _ = _run_schedule(sched, False, 50e-6, nics)
        assert fast == slow
        assert fast_stats == slow_stats

    def test_same_source_burst_fifo(self):
        """Back-to-back sends from one node serialize on the TX lane."""
        nics = {n: NicSpec(bandwidth_Bps=1e8, overhead_s=10e-6) for n in ("a", "b")}
        sched = [(0.0, "a", "b", 4096)] * 8
        fast, _, _ = _run_schedule(sched, True, 50e-6, nics)
        slow, _, _ = _run_schedule(sched, False, 50e-6, nics)
        assert fast == slow
        delivers = [t[4] for t in fast]
        assert delivers == sorted(delivers)

    def test_send_from_future_instant_identical(self):
        """``send(at=)`` serializes from the virtual instant on both paths:
        the process fallback must not start the transfer at ``engine.now``
        and deliver before the message's own send time."""
        nic = NicSpec(bandwidth_Bps=1e8, overhead_s=10e-6)
        records = []
        for analytic in (True, False):
            eng = Engine()
            net = Network(eng, latency_s=50e-6, analytic=analytic)
            for n in ("a", "b"):
                net.add_node(n, nic)
            done = net.send("a", "b", 4096, at=0.5)
            eng.run()
            msg = done.payload
            records.append((msg.send_time, msg.deliver_time))
        assert records[0] == records[1]
        hold = nic.serialize_time(4096)
        assert records[0] == (0.5, 0.5 + hold + 50e-6 + hold)

    def test_inflight_gauges_return_to_zero(self):
        nics = {n: NicSpec(bandwidth_Bps=1e8) for n in ("a", "b")}
        for analytic in (True, False):
            _, _, net = _run_schedule([(0.0, "a", "b", 1024)] * 4, analytic, 1e-5, nics)
            assert net.bytes_in_flight == 0
            assert net.messages_in_flight == 0


def _run_traced(cfg_kwargs, analytic):
    runner = FluentPSSimRunner(SimConfig(**cfg_kwargs))
    runner.net.analytic = analytic
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
        fast_trace, fast_result, fast_runner = _run_traced(cfg_kwargs, True)
        slow_trace, slow_result, slow_runner = _run_traced(cfg_kwargs, False)
        # Serialize through JSON so the comparison is on bytes, not on
        # float objects that might compare equal after rounding.
        assert json.dumps(fast_trace) == json.dumps(slow_trace)
        assert fast_trace  # the run actually produced traffic
        assert fast_result.duration == slow_result.duration
        assert fast_result.messages_on_wire == slow_result.messages_on_wire
        assert fast_result.bytes_on_wire == slow_result.bytes_on_wire
        assert fast_result.total_comm_time == slow_result.total_comm_time
        assert fast_runner.net.fast_path_transfers == len(fast_trace)
        assert fast_runner.net.fallback_transfers == 0
        assert slow_runner.net.fallback_transfers == len(slow_trace)
        assert slow_runner.net.fast_path_transfers == 0

    def test_training_run_params_identical(self):
        """A real (non-timing-only) run: final parameters are bit-equal.

        The task is built fresh per run — training mutates it in place,
        so sharing one instance would compare run 2 against run 1's
        trained state instead of path A against path B.
        """

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

        _, fast_result, _ = _run_traced(kwargs(), True)
        _, slow_result, _ = _run_traced(kwargs(), False)
        assert fast_result.final_params is not None
        assert np.array_equal(fast_result.final_params, slow_result.final_params)
        assert fast_result.duration == slow_result.duration


class TestPathSelection:
    def test_default_is_analytic(self):
        net = Network(Engine())
        assert net.analytic is True

    def test_fabric_cap_forces_fallback(self):
        eng = Engine()
        net = Network(eng, fabric_concurrency=2)
        assert net.analytic is False
        for n in ("a", "b"):
            net.add_node(n, NicSpec(bandwidth_Bps=1e8))
        net.send("a", "b", 1024)
        eng.run()
        assert net.fallback_transfers == 1
        assert net.fast_path_transfers == 0

    def test_analytic_with_fabric_rejected(self):
        with pytest.raises(ValueError):
            Network(Engine(), fabric_concurrency=2, analytic=True)

    def test_fabric_preset_runs_through_fallback(self):
        cluster = cpu_cluster(2, n_servers=1)
        cluster.fabric_concurrency = 1
        runner = FluentPSSimRunner(
            SimConfig(
                cluster=cluster,
                max_iter=3,
                sync=bsp(),
                workload=alexnet_cifar_workload(),
                compute_model=DeterministicCompute(),
            )
        )
        assert runner.net.analytic is False
        runner.run()
        assert runner.net.fallback_transfers > 0
        assert runner.net.fast_path_transfers == 0


class _RecordingEngine(Engine):
    """Engine that remembers spawned processes (for cancellation tests)."""

    def __init__(self):
        super().__init__()
        self.spawned = []

    def spawn(self, gen, name="", start_at=None):
        proc = super().spawn(gen, name, start_at)
        self.spawned.append(proc)
        return proc


class TestInFlightAccounting:
    """Satellite: the gauges must survive cancelled or failing transfers."""

    def _net(self, eng, **kw):
        net = Network(eng, latency_s=50e-6, analytic=False, **kw)
        for n in ("a", "b"):
            net.add_node(n, NicSpec(bandwidth_Bps=1e6, overhead_s=10e-6))
        return net

    def test_cancelled_transfer_releases_gauges(self):
        eng = _RecordingEngine()
        net = self._net(eng)
        net.send("a", "b", 500_000)  # ~0.5 s on the wire
        eng.run(until=1e-3)
        assert net.messages_in_flight == 1
        xfer = next(p for p in eng.spawned if p.name == "xfer")
        xfer._gen.close()  # cancellation: GeneratorExit inside the process
        assert net.messages_in_flight == 0
        assert net.bytes_in_flight == 0
        assert net.total_messages == 0  # never delivered

    def test_failing_transfer_releases_gauges(self):
        eng = Engine()
        net = self._net(eng)

        # Endpoint is slotted, so poison the serialize-time memo instead of
        # monkeypatching the method: serialize_time consults this dict first.
        class _BoomMemo(dict):
            def get(self, key, default=None):
                raise RuntimeError("injected serialize failure")

        net.endpoint("b")._ser_times = _BoomMemo()
        net.send("a", "b", 1024)
        with pytest.raises(RuntimeError, match="injected"):
            eng.run()
        assert net.messages_in_flight == 0
        assert net.bytes_in_flight == 0


class TestTransferTimeEstimate:
    """Satellite: the documented uncontended contract."""

    def test_exact_for_lone_transfer_both_paths(self):
        for analytic in (True, False):
            eng = Engine()
            net = Network(eng, latency_s=75e-6, analytic=analytic)
            net.add_node("a", NicSpec(bandwidth_Bps=1e8, overhead_s=15e-6))
            net.add_node("b", NicSpec(bandwidth_Bps=2e8, overhead_s=25e-6))
            est = net.transfer_time_estimate("a", "b", 4096)
            done = net.send("a", "b", 4096)
            eng.run()
            assert done.payload.deliver_time == est

    def test_lower_bound_under_contention(self):
        eng = Engine()
        net = Network(eng, latency_s=50e-6)
        nic = NicSpec(bandwidth_Bps=1e8, overhead_s=10e-6)
        net.add_node("sink", nic)
        for i in range(4):
            net.add_node(f"w{i}", nic)
        est = net.transfer_time_estimate("w0", "sink", 64 * 1024)
        signals = [net.send(f"w{i}", "sink", 64 * 1024) for i in range(4)]
        eng.run()
        delivers = sorted(s.payload.deliver_time for s in signals)
        assert delivers[0] == est  # first one through is uncontended
        assert all(d >= est for d in delivers[1:])
        assert delivers[-1] > est  # the incast queue actually bit

    def test_lower_bound_with_fabric_cap(self):
        eng = Engine()
        net = Network(eng, latency_s=50e-6, fabric_concurrency=1)
        nic = NicSpec(bandwidth_Bps=1e8, overhead_s=10e-6)
        for n in ("a", "b", "c", "d"):
            net.add_node(n, nic)
        est_ab = net.transfer_time_estimate("a", "b", 8192)
        s1 = net.send("a", "b", 8192)
        s2 = net.send("c", "d", 8192)  # distinct lanes, shared fabric slot
        eng.run()
        assert s1.payload.deliver_time == est_ab
        # The second pair's lanes were free; only the fabric cap delayed
        # it — precisely the queueing the estimate does not model.
        assert s2.payload.deliver_time > net.transfer_time_estimate("c", "d", 8192)


class TestEnginePost:
    def test_post_runs_at_absolute_time(self):
        eng = Engine()
        seen = []
        eng.post(0.5, seen.append)
        eng.post(0.25, seen.append, "first")
        eng.run()
        assert seen == ["first", None]
        assert eng.now == 0.5

    def test_post_into_past_rejected(self):
        eng = Engine()
        eng.post(1.0, lambda _: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.post(0.5, lambda _: None)

    def test_post_fifo_at_ties(self):
        eng = Engine()
        seen = []
        for i in range(5):
            eng.post(1e-3, seen.append, i)
        eng.run()
        assert seen == list(range(5))
