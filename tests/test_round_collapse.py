"""Differential tests for the closed-form round fast-forward.

The round collapse (docs/PERFORMANCE.md, "Closed-form round fast-forward
and the cohort state table") must be *bit-identical* to the event path
it replaces: same delivery traces, same protocol instant streams, same
metrics, same finish times — in both vector mode (no observability) and
handler mode (observability without a causal trace).  Every test here
runs the same configuration twice — fast path vs ``round_collapse=False``
oracle — and compares exhaustively.
"""

import json
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import bsp, pssp, ssp
from repro.ml.models_zoo import alexnet_cifar_workload, resnet56_cifar_workload
from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.sim import runner as runner_mod
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import FluentPSSimRunner, SimConfig, _seq_cascade
from repro.sim.stragglers import (
    ComputeModel,
    DeterministicCompute,
    LogNormalCompute,
    cpu_cluster_compute,
)


class _InjectedStraggler(ComputeModel):
    """Compute with one straggler draw at (worker, iter): deterministic,
    or ``jitter``'s draw when given."""

    def __init__(
        self,
        worker: int,
        iteration: int,
        slow_factor: float = 6.0,
        jitter: Optional[ComputeModel] = None,
    ):
        self.worker = worker
        self.iteration = iteration
        self.slow_factor = slow_factor
        self.jitter = jitter

    def sample(self, worker, iteration, base_time, rng):
        t = base_time
        if self.jitter is not None:
            t = self.jitter.sample(worker, iteration, base_time, rng)
        if worker == self.worker and iteration == self.iteration:
            t *= self.slow_factor
        return t

    def mean_factor(self) -> float:
        return 1.0


def _wire_trace_key(msg):
    # Stable wire fields only: collapsed-round hook messages carry
    # synthesized ids (msg_id/cause_id = -1), so identity must rest on
    # src/dst/tag/size and the two analytic times.
    return (msg.src, msg.dst, msg.tag, msg.size_bytes, msg.send_time, msg.deliver_time)


def _run(cfg_kwargs, collapse, obs=None, hooks=True):
    cfg = SimConfig(
        **cfg_kwargs,
        round_collapse=collapse,
        obs=obs if obs is not None else NULL_OBS,
    )
    runner = FluentPSSimRunner(cfg)
    rec = []
    if hooks:
        runner.net.on_delivery(lambda m: rec.append(_wire_trace_key(m)))
    result = runner.run()
    return runner, result, sorted(rec)


def _fingerprint(runner, result, rec):
    """Everything the oracle comparison cares about, as one JSON string."""
    return json.dumps(
        {
            "trace": rec,
            "duration": result.duration,
            "finish": runner._finish_times,
            "metrics": [
                {
                    **s.metrics.summary(),
                    "staleness": sorted(s.metrics.staleness_hist.items()),
                }
                for s in runner.servers
            ],
            "net": [runner.net.total_messages, runner.net.total_bytes],
            "dispatch": [runner.server_msgs_inline, runner.server_msgs_drained],
            "spans": sorted(
                (a, k.value, v) for (a, k), v in runner.trace.totals().items()
            ),
        },
        sort_keys=True,
    )


def _assert_differential(cfg_kwargs, obs_factory=None, hooks=True):
    """Fast path vs oracle: bit-identical results, exact event census."""
    obs_a = obs_factory() if obs_factory else None
    obs_b = obs_factory() if obs_factory else None
    ra, resa, ta = _run(cfg_kwargs, True, obs=obs_a, hooks=hooks)
    rb, resb, tb = _run(cfg_kwargs, False, obs=obs_b, hooks=hooks)
    assert rb.engine.rounds_collapsed == 0
    assert _fingerprint(ra, resa, ta) == _fingerprint(rb, resb, tb)
    # The saved-event census is exact: fast-path events + credited
    # savings reproduce the oracle's event count to the event.
    assert (
        rb.engine.events_processed - ra.engine.events_processed
        == ra.engine.round_events_saved
    )
    if obs_a is not None:
        assert _instant_stream(obs_a) == _instant_stream(obs_b)
    return ra, rb


def _instant_stream(obs):
    # uid is a process-global server incarnation counter — it differs
    # between any two runner constructions in one process by design, so
    # it is the one argument stripped before comparing streams.
    return json.dumps(
        [
            [i.name, i.t, i.actor, {k: v for k, v in sorted(i.args.items()) if k != "uid"}]
            for i in obs.last_run.instants
        ]
    )


def _cell(preset, sync_name, compute_name, n=12, m=3, iters=4, seed=7):
    cluster = cpu_cluster(n, n_servers=m) if preset == "cpu" else gpu_cluster_p2(n, m)
    sync = {"ssp3": ssp(3), "pssp": pssp(2, 0.5), "bsp": bsp()}[sync_name]
    compute = {
        "det": DeterministicCompute(),
        "lognorm": cpu_cluster_compute(n),
    }[compute_name]
    return dict(
        cluster=cluster,
        max_iter=iters,
        sync=sync,
        workload=alexnet_cifar_workload(),
        compute_model=compute,
        seed=seed,
    )


class TestVectorModeDifferential:
    """No observability: the collapse commits cohort analytics directly."""

    @given(
        preset=st.sampled_from(["cpu", "gpu_p2"]),
        sync_name=st.sampled_from(["ssp3", "pssp"]),
        compute_name=st.sampled_from(["det", "lognorm"]),
        hooks=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=16, deadline=None)
    def test_bit_identical_vs_oracle(self, preset, sync_name, compute_name, hooks, seed):
        kwargs = _cell(preset, sync_name, compute_name, seed=seed)
        _assert_differential(kwargs, hooks=hooks)

    def test_collapse_engages_on_homogeneous_cohort(self):
        kwargs = _cell("cpu", "ssp3", "lognorm", n=20, m=4, iters=6)
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed > 0
        assert ra.engine.round_events_saved > 0

    def test_full_collapse_leaves_no_events(self):
        kwargs = _cell("cpu", "ssp3", "det", iters=3)
        kwargs["base_compute_time"] = 5.0  # comm spread << compute: isolated
        ra, rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 3
        assert ra.engine.events_processed == 0
        assert rb.engine.events_processed == ra.engine.round_events_saved


def _resnet56_scale_cell(n=2048, iters=3, compute=None, seed=5):
    """The compute-bound regime where the collapse engages at scale:
    ResNet-56 on the GPU preset with the per-worker batch grown with the
    cohort (5 samples per worker), so each round's compute outlasts the
    round's server traffic, which also grows with the cohort."""
    return dict(
        cluster=gpu_cluster_p2(n, 8),
        max_iter=iters,
        sync=ssp(3),
        workload=resnet56_cifar_workload(),
        compute_model=compute or LogNormalCompute(sigma=0.01),
        batch_per_worker=5 * n,
        seed=seed,
    )


class TestScaleDifferential:
    """Collapse vs oracle where the collapse actually engages: thousands
    of workers, every round committed in closed form (or de-vectorized
    mid-run), no observability."""

    @pytest.mark.parametrize("hooks", [False, True])
    def test_every_round_collapses(self, hooks):
        ra, _rb = _assert_differential(_resnet56_scale_cell(), hooks=hooks)
        assert ra.engine.rounds_collapsed == 3
        assert ra.engine.events_processed == 0

    def test_straggler_devectorizes_midrun(self):
        compute = _InjectedStraggler(
            worker=1234, iteration=1, jitter=LogNormalCompute(sigma=0.01)
        )
        ra, _rb = _assert_differential(_resnet56_scale_cell(compute=compute))
        assert ra.engine.rounds_collapsed == 1
        assert ra.engine.events_processed > 0


class TestDevectorization:
    def test_single_midrun_straggler_exits_without_drift(self):
        """One straggler draw mid-run de-vectorizes back to the event
        path: earlier rounds stay collapsed, the straggler's round and
        everything after run event-by-event, and nothing drifts."""
        kwargs = _cell("cpu", "ssp3", "det", n=10, m=3, iters=6)
        kwargs["base_compute_time"] = 5.0
        kwargs["compute_model"] = _InjectedStraggler(worker=3, iteration=2)
        ra, _rb = _assert_differential(kwargs)
        assert 0 < ra.engine.rounds_collapsed < 6
        assert ra.engine.events_processed > 0  # the de-vectorized tail

    def test_straggler_in_round_zero_collapses_nothing(self):
        kwargs = _cell("cpu", "ssp3", "det", n=10, m=3, iters=3)
        kwargs["base_compute_time"] = 5.0
        kwargs["compute_model"] = _InjectedStraggler(worker=0, iteration=0)
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 0


class TestHandlerModeDifferential:
    """Observability without a causal trace: the collapse replays real
    server handlers in the analytic handle order, so protocol instants
    (S001-S016 replay), spans, and metrics all still come from the
    servers themselves."""

    @pytest.mark.parametrize("sync_name", ["ssp3", "pssp"])
    @pytest.mark.parametrize("span_capture", [None, False])
    def test_instant_streams_identical(self, sync_name, span_capture):
        # span_capture=None keeps the per-span list under observability;
        # False drops it.  Either way the collapsed rounds must replay the
        # same instants and the same span totals as the oracle.
        kwargs = _cell("cpu", sync_name, "lognorm", n=14, m=3, iters=5)
        kwargs["span_capture"] = span_capture
        obs_factory = lambda: Observability(  # noqa: E731
            MetricsRegistry("collapse-test"), causal=False
        )
        ra, rb = _assert_differential(kwargs, obs_factory=obs_factory)
        assert ra.engine.rounds_collapsed > 0
        assert len(ra.trace.spans) == len(rb.trace.spans)
        assert bool(ra.trace.spans) == (span_capture is None)

    def test_spans_identical(self):
        kwargs = _cell("cpu", "ssp3", "lognorm", n=14, m=3, iters=5)
        runs = []
        for collapse in (True, False):
            obs = Observability(MetricsRegistry("span-test"), causal=False)
            runner, _res, _t = _run(kwargs, collapse, obs=obs, hooks=False)
            runs.append(
                sorted(
                    (s.actor, s.kind.value, s.t0, s.t1, s.iteration)
                    for s in runner.trace.spans
                )
            )
        assert runs[0] == runs[1]


class TestEligibilityGates:
    def test_causal_observability_gates_collapse_off(self):
        # The ambient pytest fixture installs an Observability whose
        # captures carry a causal trace; collapse must stand down (the
        # vectorized commit cannot reproduce per-message causal spans).
        cfg = SimConfig(**_cell("cpu", "ssp3", "det"))
        runner = FluentPSSimRunner(cfg)
        runner.run()
        assert runner.causal is not None
        assert runner.engine.rounds_collapsed == 0

    def test_bsp_is_ineligible(self):
        kwargs = _cell("cpu", "bsp", "det")
        kwargs["base_compute_time"] = 5.0
        ra, _rb = _assert_differential(kwargs)
        assert ra.engine.rounds_collapsed == 0

    def test_subclassed_runners_are_ineligible(self):
        # PS-Lite overrides the worker protocol (scheduler-gated grants)
        # but inherits run(); the cohort closed form models only the
        # stock protocol, so subclasses must keep the event path.
        from repro.baselines.pslite import PSLiteSimRunner

        kwargs = _cell("cpu", "ssp3", "det")
        kwargs["base_compute_time"] = 5.0
        cfg = SimConfig(**kwargs, obs=NULL_OBS)
        runner = PSLiteSimRunner(cfg)
        runner.run()
        assert runner.engine.rounds_collapsed == 0

    def test_oracle_flag_disables_engine_credit(self):
        kwargs = _cell("cpu", "ssp3", "det", iters=2)
        kwargs["base_compute_time"] = 5.0
        runner, _res, _t = _run(kwargs, False)
        assert runner.engine.rounds_collapsed == 0
        assert runner.engine.round_events_saved == 0


def _scalar_cascade(arrivals, holds, cursor):
    """The event path's one-message-at-a-time lane recurrence."""
    ends = []
    c = cursor
    for a, h in zip(arrivals.tolist(), holds.tolist()):
        c = (a if a > c else c) + h
        ends.append(c)
    return np.array(ends, dtype=np.float64), c


def _assert_cascade_exact(arrivals, holds, cursor):
    ends, final = _seq_cascade(arrivals, holds, cursor)
    ref, ref_final = _scalar_cascade(arrivals, holds, cursor)
    assert ends.shape == ref.shape
    assert ends.tobytes() == ref.tobytes()  # bit-identical, not approx
    assert final == ref_final


@pytest.fixture
def fold_passes(monkeypatch):
    """Count the closed-form passes each ``_seq_cascade`` call makes."""
    calls = []
    fold = runner_mod._fold_busy_periods

    def counting(*args):
        calls.append(args[0].shape[0])
        return fold(*args)

    monkeypatch.setattr(runner_mod, "_fold_busy_periods", counting)
    return calls


def _near_tie_lane(rng, n, every=1):
    """Arrivals one ulp either side of the running lane end at every
    ``every``-th item (idle gaps elsewhere), so the closed-form busy
    period guess has to call floating-point coin flips."""
    holds = rng.uniform(0.1, 10.0, n)
    arrivals = np.empty(n)
    c = 0.0
    for i in range(n):
        if i % every == 0:
            arrivals[i] = np.nextafter(c, np.inf if rng.random() < 0.5 else -np.inf)
        else:
            arrivals[i] = c + 20.0
        c = max(c, arrivals[i]) + holds[i]
    return np.maximum.accumulate(arrivals), holds


class TestSeqCascade:
    """``_seq_cascade`` against the scalar recurrence, bit for bit."""

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=300,
        ),
        cursor=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_vs_scalar_recurrence(self, data, cursor):
        arrivals = np.sort(np.array([a for a, _h in data]))
        holds = np.array([h for _a, h in data])
        _assert_cascade_exact(arrivals, holds, cursor)

    def test_empty_lane_keeps_cursor(self):
        ends, final = _seq_cascade(np.empty(0), np.empty(0), 3.5)
        assert ends.shape == (0,)
        assert final == 3.5

    @pytest.mark.parametrize("n", [1, 2, 17, 1000, 10_000])
    @pytest.mark.parametrize("load", [0.2, 1.0, 5.0])
    def test_long_mixed_lanes(self, n, load):
        # ``load`` scales holds against the mean arrival spacing: below 1
        # the lane is mostly idle, above 1 mostly saturated, at 1 it mixes
        # short and long busy periods.
        rng = np.random.default_rng(n)
        arrivals = np.sort(rng.uniform(0.0, float(n), n))
        holds = rng.exponential(load, n)
        _assert_cascade_exact(arrivals, holds, float(rng.uniform(0.0, 2.0)))

    def test_all_idle_lane(self):
        arrivals = np.arange(5000, dtype=np.float64) * 3.0
        holds = np.full(5000, 1.25)
        ends, _final = _seq_cascade(arrivals, holds, -1.0)
        assert ends.tobytes() == (arrivals + holds).tobytes()
        _assert_cascade_exact(arrivals, holds, -1.0)

    def test_all_saturated_lane(self):
        rng = np.random.default_rng(5)
        holds = rng.uniform(0.0, 1.0, 5000)
        arrivals = np.zeros(5000)
        ends, _final = _seq_cascade(arrivals, holds, 7.0)
        assert ends.tobytes() == np.add.accumulate(np.concatenate(([7.0], holds)))[1:].tobytes()
        _assert_cascade_exact(arrivals, holds, 7.0)

    @pytest.mark.parametrize(
        "length",
        [runner_mod._PARALLEL_PERIOD_MAX - 1, runner_mod._PARALLEL_PERIOD_MAX,
         runner_mod._PARALLEL_PERIOD_MAX + 1],
    )
    def test_busy_periods_around_parallel_threshold(self, length, fold_passes):
        # Groups of ``length`` simultaneous arrivals, each group far
        # after the previous one drains: every busy period has exactly
        # ``length`` items, next to short and long neighbours.
        rng = np.random.default_rng(length)
        sizes = [length, 1, length, 3, length]
        arrivals = np.concatenate(
            [np.full(k, 1000.0 * g) for g, k in enumerate(sizes)]
        )
        holds = rng.uniform(0.5, 1.5, arrivals.shape[0])
        _assert_cascade_exact(arrivals, holds, 0.0)
        assert len(fold_passes) == 1  # no near ties: one closed-form pass

    def test_exact_ties_are_harmless(self, fold_passes):
        # a_i == end_{i-1}: opening a period or continuing one is the
        # same float add, so the closed form may guess either way.
        rng = np.random.default_rng(11)
        holds = rng.uniform(0.01, 3.0, 4000)
        arrivals = np.empty(4000)
        c = 2.0
        for i in range(4000):
            arrivals[i] = c if i % 3 else c + 1.0
            c = max(c, arrivals[i]) + holds[i]
        _assert_cascade_exact(arrivals, holds, 2.0)
        assert len(fold_passes) == 1

    def test_sparse_near_ties_resume_from_mismatch(self, fold_passes):
        rng = np.random.default_rng(2)
        arrivals, holds = _near_tie_lane(rng, 4000, every=97)
        _assert_cascade_exact(arrivals, holds, 0.0)
        # The verify-and-resume path ran: at least one pass restarted at
        # a mismatch, on a strictly shorter suffix.
        assert len(fold_passes) > 1
        assert fold_passes == sorted(fold_passes, reverse=True)
        assert len(set(fold_passes)) == len(fold_passes)

    def test_dense_near_ties_stay_bounded(self, fold_passes):
        rng = np.random.default_rng(4)
        arrivals, holds = _near_tie_lane(rng, 3000)
        _assert_cascade_exact(arrivals, holds, 0.0)
        # Passes are capped; the scalar recurrence finishes the lane.
        assert 1 < len(fold_passes) <= runner_mod._CASCADE_MAX_PASSES
