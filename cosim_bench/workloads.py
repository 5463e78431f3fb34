"""The benchmark's three workloads, built from the seed alone.

Each workload loads a different part of the simulator:

- ``comm_alexnet_10k`` — timing-only AlexNet on the 10k-worker CPU
  preset.  Every message takes the per-message path (engine calendar and
  fast-forward, analytic wire, direct-dispatch server handlers, worker
  loops); the round collapse refuses every round.
- ``collapse_resnet56_100k`` — timing-only ResNet-56 on the 100k-worker
  GPU preset with a batch large enough that compute outlasts each
  round's server traffic, so the closed-form round collapse commits
  every round and the engine processes no events.  The runner's cohort
  arithmetic, set-up and memory carry the run.  The compute jitter must
  stay non-zero: with zero jitter the collapse's tie path dominates.
- ``cosim_checked_64`` — the Fig-10 PSSP arm at paper scale: real NumPy
  gradients, periodic evaluation, causal observability and a sanitizer
  replay, so ``repro.ml``, server apply, DPR re-buffering, obs emission
  and ``repro.analysis`` all do work.

``tiny`` sizes exist for the self-test's smoke runs only.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.bench.workloads import blobs_task
from repro.core.models import pssp, ssp
from repro.core.server import ExecutionMode
from repro.ml.models_zoo import alexnet_cifar_workload, resnet56_cifar_workload
from repro.obs import MetricsRegistry, Observability
from repro.sim.cluster import cpu_cluster, gpu_cluster_p2
from repro.sim.runner import FluentPSSimRunner, SimConfig
from repro.sim.stragglers import LogNormalCompute, cpu_cluster_compute


class Spans:
    """Wall-clock spans the benchmark records around its own calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0


@dataclass(frozen=True)
class Size:
    workers: int
    iterations: int
    batch_per_worker: int = 128


@dataclass
class Built:
    """A ready-to-run workload: the runner and, when captured, its obs bundle."""

    runner: FluentPSSimRunner
    obs: Optional[Observability]


def _comm_alexnet(size: Size, seed: int, span: Spans) -> Built:
    with span("setup.cluster_s"):
        cluster = cpu_cluster(size.workers, n_servers=8)
    with span("setup.task_s"):
        workload = alexnet_cifar_workload()
        compute = cpu_cluster_compute(size.workers)
    with span("setup.runner_init_s"):
        runner = FluentPSSimRunner(SimConfig(
            cluster=cluster,
            max_iter=size.iterations,
            sync=ssp(3),
            execution=ExecutionMode.LAZY,
            workload=workload,
            compute_model=compute,
            seed=seed,
        ))
    return Built(runner, None)


def _collapse_resnet56(size: Size, seed: int, span: Spans) -> Built:
    with span("setup.cluster_s"):
        cluster = gpu_cluster_p2(size.workers, n_servers=8)
    with span("setup.task_s"):
        workload = resnet56_cifar_workload()
        compute = LogNormalCompute(sigma=0.01)
    with span("setup.runner_init_s"):
        runner = FluentPSSimRunner(SimConfig(
            cluster=cluster,
            max_iter=size.iterations,
            sync=ssp(3),
            workload=workload,
            compute_model=compute,
            batch_per_worker=size.batch_per_worker,
            seed=seed,
        ))
    return Built(runner, None)


def _cosim_checked(size: Size, seed: int, span: Spans) -> Built:
    with span("setup.cluster_s"):
        cluster = cpu_cluster(size.workers, n_servers=1)
    with span("setup.task_s"):
        workload = alexnet_cifar_workload()
        task = blobs_task(size.workers, n_train=8000, n_test=2000, seed=seed)
    with span("setup.runner_init_s"):
        obs = Observability(MetricsRegistry("cosim_bench"), causal=True)
        runner = FluentPSSimRunner(SimConfig(
            cluster=cluster,
            max_iter=size.iterations,
            sync=pssp(3, 0.3),
            execution=ExecutionMode.SOFT_BARRIER,
            task=task,
            workload=workload,
            # The calibrated 128 KB per worker-iteration sync payload of
            # the Fig-10 experiment (see repro.bench.figures).
            wire_scale=128e3 / task.spec.total_bytes,
            batch_per_worker=max(1, 6400 // size.workers),
            compute_model=cpu_cluster_compute(size.workers),
            seed=seed + 1,
            eval_every=max(1, size.iterations // 3),
            obs=obs,
        ))
    return Built(runner, obs)


@dataclass(frozen=True)
class WorkloadDef:
    build: Callable[[Size, int, Spans], Built]
    sizes: Dict[str, Size]


WORKLOADS: Dict[str, WorkloadDef] = {
    "comm_alexnet_10k": WorkloadDef(
        _comm_alexnet,
        {"full": Size(10_000, 2), "tiny": Size(200, 2)},
    ),
    "collapse_resnet56_100k": WorkloadDef(
        _collapse_resnet56,
        {"full": Size(100_000, 2, 327_680), "tiny": Size(400, 2, 4_096)},
    ),
    "cosim_checked_64": WorkloadDef(
        _cosim_checked,
        {"full": Size(64, 300), "tiny": Size(8, 30)},
    ),
}
