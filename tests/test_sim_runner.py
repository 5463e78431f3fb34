"""Tests for the discrete-event co-simulation runner."""

import pytest

from repro.analysis import sanitize_observability
from repro.bench.workloads import blobs_task
from repro.core.models import asp, bsp, drop_stragglers, pssp, ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.obs import MetricsRegistry, Observability
from repro.sim.runner import FluentPSSimRunner, SimConfig, run_fluentps
from repro.sim.stragglers import (
    DeterministicCompute,
    ExponentialTailCompute,
    cpu_cluster_compute,
)


def timing_config(n=4, servers=2, iters=10, sync=None, **kw):
    return SimConfig(
        cluster=gpu_cluster_p2(n, servers),
        max_iter=iters,
        sync=sync or bsp(),
        workload=alexnet_cifar_workload(),
        batch_per_worker=64,
        compute_model=kw.pop("compute_model", DeterministicCompute()),
        seed=kw.pop("seed", 0),
        **kw,
    )


class TestConfig:
    def test_requires_task_or_workload(self):
        with pytest.raises(ValueError):
            SimConfig(cluster=gpu_cluster_p2(2), max_iter=5, sync=bsp())

    def test_task_worker_mismatch(self):
        task = blobs_task(4, n_train=100, n_test=50)
        with pytest.raises(ValueError):
            SimConfig(cluster=gpu_cluster_p2(2), max_iter=5, sync=bsp(), task=task)

    def test_wire_scale_auto(self):
        task = blobs_task(2, n_train=100, n_test=50)
        cfg = SimConfig(
            cluster=gpu_cluster_p2(2), max_iter=5, sync=bsp(), task=task,
            workload=alexnet_cifar_workload(),
        )
        expected = cfg.workload.wire_bytes / task.spec.total_bytes
        assert cfg.resolved_wire_scale() == pytest.approx(expected)

    def test_wire_scale_explicit(self):
        cfg = timing_config(wire_scale=3.0)
        assert cfg.resolved_wire_scale() == 3.0
        with pytest.raises(ValueError):
            timing_config(wire_scale=-1.0).resolved_wire_scale()

    def test_base_compute_from_workload(self):
        cfg = timing_config()
        node_flops = cfg.cluster.workers[0].flops
        expected = cfg.workload.train_flops_per_sample * 64 / node_flops
        assert cfg.resolved_base_compute(node_flops) == pytest.approx(expected)

    def test_invalid_iters(self):
        with pytest.raises(ValueError):
            timing_config(iters=0)


class TestTimingRuns:
    def test_completes_and_accounts(self):
        r = run_fluentps(timing_config(iters=8))
        assert r.iterations == 8
        assert r.duration > 0
        assert r.bytes_on_wire > 0
        assert r.metrics.pushes == 8 * 4 * 2
        assert r.metrics.pulls >= 8 * 4 * 2
        assert len(r.worker_finish_times) == 4

    def test_deterministic(self):
        a = run_fluentps(timing_config(sync=pssp(2, 0.5), seed=5,
                                       compute_model=ExponentialTailCompute(0.1, 2.0)))
        b = run_fluentps(timing_config(sync=pssp(2, 0.5), seed=5,
                                       compute_model=ExponentialTailCompute(0.1, 2.0)))
        assert a.duration == b.duration
        assert a.metrics.dprs == b.metrics.dprs

    def test_comm_time_positive_and_consistent(self):
        r = run_fluentps(timing_config())
        assert r.total_comm_time > 0
        assert r.mean_comm_time == pytest.approx(r.total_comm_time / 4)
        # total wall across workers = compute + comm
        assert r.total_compute_time + r.total_comm_time == pytest.approx(
            sum(r.worker_finish_times), rel=1e-9
        )

    def test_more_workers_more_comm(self):
        small = run_fluentps(timing_config(n=2, iters=6))
        big = run_fluentps(timing_config(n=8, iters=6))
        assert big.mean_comm_time > small.mean_comm_time

    def test_wire_scale_scales_bytes(self):
        a = run_fluentps(timing_config(iters=4, wire_scale=1.0))
        b = run_fluentps(timing_config(iters=4, wire_scale=2.0))
        assert b.bytes_on_wire > 1.5 * a.bytes_on_wire

    def test_per_server_models(self):
        cfg = timing_config(servers=2, sync=[ssp(2), asp()])
        r = run_fluentps(cfg)
        assert r.duration > 0

    def test_drop_stragglers_runs(self):
        cfg = timing_config(sync=drop_stragglers(4, n_t=3),
                            compute_model=ExponentialTailCompute(0.2, 3.0))
        r = run_fluentps(cfg)
        assert r.iterations == 10


class TestTrainingRuns:
    def test_training_converges(self):
        n = 4
        task = blobs_task(n, n_train=600, n_test=200, seed=7)
        cfg = SimConfig(
            cluster=cpu_cluster(n, 1),
            max_iter=120,
            sync=ssp(2),
            task=task,
            seed=1,
            base_compute_time=0.5,
            eval_every=40,
        )
        r = run_fluentps(cfg)
        assert r.final_params is not None
        assert r.eval_by_iteration.final() > 0.55
        assert len(r.eval_by_iteration) == 3

    def test_training_workers_use_stale_params(self):
        """With ASP, some answered pulls must be missing iterations when
        compute times vary (sanity on staleness plumbing)."""
        n = 4
        task = blobs_task(n, n_train=200, n_test=50, seed=3)
        cfg = SimConfig(
            cluster=cpu_cluster(n, 1),
            max_iter=60,
            sync=asp(),
            task=task,
            seed=2,
            base_compute_time=0.5,
            compute_model=ExponentialTailCompute(0.3, 3.0),
        )
        r = run_fluentps(cfg)
        assert r.metrics.mean_staleness() > 0

    def test_soft_barrier_run(self):
        n = 4
        task = blobs_task(n, n_train=200, n_test=50, seed=3)
        cfg = SimConfig(
            cluster=cpu_cluster(n, 1),
            max_iter=40,
            sync=ssp(1),
            execution=ExecutionMode.SOFT_BARRIER,
            task=task,
            seed=2,
            base_compute_time=0.5,
            compute_model=ExponentialTailCompute(0.3, 3.0),
        )
        r = run_fluentps(cfg)
        assert r.final_params is not None


class TestOverheads:
    def test_dpr_overhead_slows_soft_barrier(self):
        common = dict(
            n=6, iters=25, sync=ssp(1),
            compute_model=ExponentialTailCompute(0.2, 4.0),
        )
        cheap = run_fluentps(timing_config(
            execution=ExecutionMode.SOFT_BARRIER, dpr_overhead_s=0.0, **common))
        costly = run_fluentps(timing_config(
            execution=ExecutionMode.SOFT_BARRIER, dpr_overhead_s=0.05, **common))
        assert costly.duration > cheap.duration


class TestWorkerSeriesCap:
    """Per-worker sketch series collapse to one aggregate at mesoscale."""

    def _run(self, n, threshold):
        obs = Observability(MetricsRegistry("cap"))
        run_fluentps(
            timing_config(
                n=n, iters=3, obs=obs, worker_series_threshold=threshold
            )
        )
        return obs.registry.sketch(
            "pull_latency_seconds",
            "sync-wait seconds per sPull round (mergeable sketch)",
        )

    def test_below_threshold_keeps_per_worker_series(self):
        sketch = self._run(n=6, threshold=6)
        assert len(sketch.label_sets()) == 6
        for w in range(6):
            assert sketch.count(worker=w) == 3

    def test_above_threshold_registry_stays_bounded(self):
        sketch = self._run(n=6, threshold=4)
        # One aggregate series regardless of worker count: the registry
        # no longer grows with N.
        assert len(sketch.label_sets()) == 1
        assert sketch.count(worker="all") == 6 * 3
        # The aggregate is exactly the merge of what per-worker series
        # would have held (same total population).
        merged = sketch.merged()
        assert merged is not None and merged.count == 6 * 3

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="worker_series_threshold"):
            timing_config(worker_series_threshold=0)


class TestSnapshotGauges:
    def test_engine_and_dispatch_gauges_match_runner(self):
        obs = Observability(MetricsRegistry("gauges"))
        runner = FluentPSSimRunner(timing_config(n=4, iters=4, sync=ssp(3), obs=obs))
        runner.run()
        reg = obs.registry
        # finalize() lands the post-drain totals in the last sample.
        assert (
            reg.gauge("engine_pending_event_hwm").value()
            == runner.engine.pending_high_water
            > 0
        )
        assert reg.gauge("ps_dispatch_inline").value() == runner.server_msgs_inline
        assert reg.gauge("ps_dispatch_drained").value() == runner.server_msgs_drained
        assert reg.gauge("net_fused_deliveries").value() == runner.net.fused_deliveries


class TestMesoscaleSanitized:
    """A 1k-worker point through the protocol sanitizer."""

    # Explicit Observability below; the ambient conftest bundle would
    # double-report the same stream.
    pytestmark = pytest.mark.no_sanitize

    def test_1k_worker_trace_is_clean(self):
        n = 1_000
        obs = Observability(MetricsRegistry("meso"))
        cfg = SimConfig(
            cluster=cpu_cluster(n, n_servers=8),
            max_iter=1,
            sync=ssp(3),
            workload=alexnet_cifar_workload(),
            compute_model=cpu_cluster_compute(n),
            seed=3,
            obs=obs,
        )
        FluentPSSimRunner(cfg).run()
        report = sanitize_observability(obs)
        assert report.ok, report.describe()
        assert report.n_events > 0
