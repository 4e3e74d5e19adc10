"""The benchmark's workloads, built from ``repro.experiments.registry``.

Every workload is a closed loop with one caller: a round starts only when
the previous one has returned.  A workload runs in *passes* of fixed work
(a fixed number of rounds, or one whole grid), so a pass's counts depend only
on the seed and repeated passes must agree on them.  Set-up builds
everything a pass needs, including any lazy first-call work; the pass is the
measured part.  No workload picks an execution engine, a dtype or a BLAS
thread count: each runs with the program's defaults and reports what ran.
"""

from __future__ import annotations

import functools
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

from perfbench import checks


# ---------------------------------------------------------------------------
# Hooks that every run installs (traced or not)
# ---------------------------------------------------------------------------


class RoundLog:
    """Times every ``Strategy.run_round`` and keeps its byte delta and loss."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.bytes: List[int] = []
        self.losses: List[float] = []

    def install(self, patcher) -> None:
        from repro.strategies.base import Strategy

        def make(original):
            def timed(strategy):
                start = time.perf_counter()
                result = original(strategy)
                self.seconds.append(time.perf_counter() - start)
                self.bytes.append(result.communication_bytes)
                self.losses.append(result.mean_loss)
                return result

            return timed

        patcher.replace(Strategy, "run_round", make)

    def mark(self) -> int:
        return len(self.seconds)

    def nonfinite_since(self, mark: int) -> int:
        return sum(not math.isfinite(loss) for loss in self.losses[mark:])

    def bytes_since(self, mark: int) -> int:
        return sum(self.bytes[mark:])


class CellLog:
    """Keeps the tracker's per-category bytes of every ``TrainingRun.execute``.

    The executor runs cells in this process (``jobs=1``), so the hook sees
    each cell's cluster before it is dropped.
    """

    def __init__(self) -> None:
        self.categories: List[Dict[str, int]] = []

    def install(self, patcher) -> None:
        from repro.experiments.run import TrainingRun

        def make(original):
            def logged(run, strategy, cluster, *args, **kwargs):
                result = original(run, strategy, cluster, *args, **kwargs)
                self.categories.append(dict(cluster.tracker.bytes_by_category))
                return result

            return logged

        patcher.replace(TrainingRun, "execute", make)

    def merged_since(self, mark: int) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for categories in self.categories[mark:]:
            for name, count in categories.items():
                merged[name] = merged.get(name, 0) + count
        return merged


@dataclass
class Logs:
    rounds: RoundLog = field(default_factory=RoundLog)
    cells: CellLog = field(default_factory=CellLog)

    def install(self, patcher) -> None:
        self.rounds.install(patcher)
        self.cells.install(patcher)

    def mark(self):
        return (self.rounds.mark(), len(self.cells.categories))


@dataclass
class Pass:
    """What one pass measured and counted."""

    wall_s: float
    samples: int
    round_s: List[float]
    operations: int
    #: Deterministic counts that repeated passes of one seed must reproduce.
    counts: Dict[str, int]
    accuracy: float
    engines: List[str]
    dtypes: List[str]
    #: Per-layer values read from the program's own counters after the pass.
    layer: Dict[str, float]
    problems: List[str]


# ---------------------------------------------------------------------------
# vgg-fda and densenet-fda: rounds driven one at a time in this process
# ---------------------------------------------------------------------------


@dataclass
class _RoundState:
    workload: object
    cluster: object
    test: object
    strategy: object


class RoundWorkload:
    """A paper-figure cell driven by ``strategy.run_round()`` for fixed rounds.

    The first round runs in set-up, so lazy first-call work (engine and
    monitor initialisation) is set-up time; the other ``rounds - 1`` are
    timed one by one.  ``cluster.evaluate_global`` runs whenever the step
    count is a multiple of ``eval_every``; there is no early stop.
    """

    jobs = 1

    def __init__(self, name, build_workload, strategy_name, theta, fedopt,
                 rounds, eval_every, accuracy_floor) -> None:
        self.name = name
        self.build_workload = build_workload
        self.strategy_name = strategy_name
        self.theta = theta
        self.fedopt = fedopt
        self.rounds = rounds
        self.eval_every = eval_every
        self.accuracy_floor = accuracy_floor

    def setup(self, seed: int, scratch: str) -> _RoundState:
        from repro.experiments import setup
        from repro.experiments.registry import default_strategies

        workload = self.build_workload(seed)
        # Looked up on the module at call time, so a traced run's wrapper applies.
        cluster, test = setup.build_cluster(workload)
        factory = default_strategies(self.theta, fedopt=self.fedopt, seed=seed)[self.strategy_name]
        strategy = factory()
        strategy.attach(cluster)
        strategy.run_round()
        return _RoundState(workload, cluster, test, strategy)

    def discard(self, state: _RoundState) -> None:
        pass

    def run(self, state: _RoundState, logs: Logs, mark) -> Pass:
        from repro.distributed.cluster import CATEGORY_MODEL, CATEGORY_STATE

        cluster, strategy = state.cluster, state.strategy
        round_mark = mark[0]
        accuracy = float("nan")
        start = time.perf_counter()
        while cluster.parallel_steps < self.rounds:
            strategy.run_round()
            if cluster.parallel_steps % self.eval_every == 0:
                accuracy = cluster.evaluate_global(state.test)[1]
        wall = time.perf_counter() - start

        trainer = strategy.trainer
        timed_rounds = strategy.rounds_completed - 1
        counts = {
            "comm_bytes": cluster.total_bytes,
            "rounds": strategy.rounds_completed,
            "fda_steps": trainer.step_count,
            "fda_syncs": trainer.synchronization_count,
        }
        problems = checks.failures(
            checks.losses_finite(logs.rounds.nonfinite_since(round_mark)),
            checks.ledger_conserved(
                cluster.total_bytes,
                cluster.tracker.bytes_by_category,
                logs.rounds.bytes_since(round_mark),
            ),
            checks.syncs_within_steps(trainer.synchronization_count, trainer.step_count),
            checks.accuracy_floor(accuracy, self.accuracy_floor),
        )
        return Pass(
            wall_s=wall,
            samples=state.workload.num_workers * state.workload.batch_size * timed_rounds,
            round_s=logs.rounds.seconds[round_mark + 1:],
            operations=strategy.rounds_completed,
            counts=counts,
            accuracy=accuracy,
            engines=[cluster.execution],
            dtypes=[cluster.dtype_name],
            layer={
                "fda.steps": trainer.step_count,
                "fda.syncs": trainer.synchronization_count,
                "fabric.model_bytes": cluster.tracker.bytes_for(CATEGORY_MODEL),
                "fabric.state_bytes": cluster.tracker.bytes_for(CATEGORY_STATE),
                "timeline.virtual_s": cluster.virtual_time,
                "timeline.comm_virtual_s": cluster.timeline.comm_seconds,
                "executor.cells": 0,
                "executor.cache_hits": 0,
                "executor.failed": 0,
            },
            problems=problems,
        )


def vgg_fda() -> RoundWorkload:
    """Figure 4, IID cell: VGG16* mini, K=5, Adam, LinearFDA at Θ=8."""
    from repro.experiments.registry import vgg_mnist_workload

    return RoundWorkload(
        "vgg-fda",
        lambda seed: vgg_mnist_workload(num_workers=5, seed=seed),
        "LinearFDA", theta=8.0, fedopt="fedadam",
        rounds=240, eval_every=20, accuracy_floor=0.9,
    )


def densenet_fda() -> RoundWorkload:
    """Figure 5 cell: DenseNet121 mini, K=4, SGD-NM, SketchFDA 5x64 at Θ=6."""
    from repro.experiments.registry import densenet_cifar_workload

    return RoundWorkload(
        "densenet-fda",
        lambda seed: densenet_cifar_workload("small", num_workers=4, seed=seed),
        "SketchFDA", theta=6.0, fedopt="fedavgm",
        rounds=160, eval_every=20, accuracy_floor=0.9,
    )


# ---------------------------------------------------------------------------
# fig13-serial: the Figure 13 quick grid through the sweep executor
# ---------------------------------------------------------------------------


@dataclass
class _GridState:
    cells: list
    fda_cells: List[bool]
    executor: object
    cache_dir: str


class GridWorkload:
    """The 14-cell Figure 13 quick grid as one ``SweepExecutor.execute`` call.

    Both ``figure13(quick=True)`` worker counts cross {LinearFDA, SketchFDA
    5x64} x the spec's Θ grid, plus Synchronous.  Each pass gets a fresh,
    empty cache directory, so every cell executes.

    Every cell trains a fixed 80 steps (two of the spec's evaluation blocks):
    the spec's target of 0.55 sits where cells cross it at step 80 for some
    seeds and step 120 or 160 for others, which moves the grid's bytes by up
    to 45% from seed to seed.  The target is lifted to 1.0 so no cell stops
    early.

    ``jobs`` is 1.  At ``jobs = nproc`` the forked cells oversubscribe BLAS
    threads and one grid takes anywhere from 1.6x to 3.8x the serial time, too
    wide a spread for any bound this benchmark may set (see README.md).
    """

    name = "fig13-serial"
    jobs = 1

    def __init__(self) -> None:
        from repro.experiments.registry import figure13
        from repro.experiments.run import TrainingRun

        self.spec = figure13(quick=True)
        self.training = TrainingRun(
            accuracy_target=1.0,
            max_steps=2 * self.spec.run.eval_every_steps,
            eval_every_steps=self.spec.run.eval_every_steps,
        )
        # Seeds 0-50 read 0.4998-0.622 (chance is 0.01): the grid mean after
        # 80 steps swings with the seed, so the floor sits well below it.
        self.accuracy_floor = 0.4

    def setup(self, seed: int, scratch: str) -> _GridState:
        from repro.experiments.executor import SweepCell, SweepExecutor
        from repro.experiments.registry import (
            REGISTRY_SKETCH_DEPTH,
            REGISTRY_SKETCH_WIDTH,
            transfer_learning_workload,
        )
        from repro.strategies.fda_strategy import FDAStrategy
        from repro.strategies.synchronous import SynchronousStrategy

        cells, fda_cells = [], []
        for label, template in self.spec.workloads.items():
            workload = transfer_learning_workload(num_workers=template.num_workers, seed=seed)
            for variant in ("linear", "sketch"):
                for theta in self.spec.fda_thetas:
                    factory = functools.partial(
                        FDAStrategy, threshold=theta, variant=variant,
                        sketch_depth=REGISTRY_SKETCH_DEPTH, sketch_width=REGISTRY_SKETCH_WIDTH,
                    )
                    cells.append(SweepCell(workload, factory, self.training,
                                           label=f"{label} {variant} theta={theta}"))
                    fda_cells.append(True)
            cells.append(SweepCell(workload, SynchronousStrategy, self.training,
                                   label=f"{label} synchronous"))
            fda_cells.append(False)
        cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=scratch)
        executor = SweepExecutor(cache_dir=cache_dir, jobs=self.jobs)
        return _GridState(cells, fda_cells, executor, cache_dir)

    def discard(self, state: _GridState) -> None:
        shutil.rmtree(state.cache_dir, ignore_errors=True)

    def run(self, state: _GridState, logs: Logs, mark) -> Pass:
        round_mark, cell_mark = mark
        start = time.perf_counter()
        try:
            results = state.executor.execute(state.cells)
            wall = time.perf_counter() - start
        finally:
            self.discard(state)

        stats = state.executor.stats
        fda = [r for r, is_fda in zip(results, state.fda_cells) if is_fda]
        comm_bytes = sum(r.communication_bytes for r in results)
        steps = sum(r.parallel_steps for r in fda)
        syncs = sum(r.synchronizations for r in fda)
        accuracy = statistics.fmean(r.final_accuracy for r in results)
        problems = checks.failures(
            checks.losses_finite(logs.rounds.nonfinite_since(round_mark)),
            checks.ledger_conserved(
                comm_bytes,
                logs.cells.merged_since(cell_mark),
                logs.rounds.bytes_since(round_mark),
            ),
            checks.syncs_within_steps(syncs, steps),
            checks.accuracy_floor(accuracy, self.accuracy_floor),
            checks.no_failed_cells(stats.failed),
        )
        return Pass(
            wall_s=wall,
            samples=sum(
                cell.workload.num_workers * cell.workload.batch_size * r.parallel_steps
                for cell, r in zip(state.cells, results)
            ),
            round_s=logs.rounds.seconds[round_mark:],
            operations=len(results),
            counts={
                "comm_bytes": comm_bytes,
                "rounds": sum(r.parallel_steps for r in results),
                "fda_steps": steps,
                "fda_syncs": syncs,
            },
            accuracy=accuracy,
            engines=sorted({r.execution for r in results}),
            dtypes=sorted({r.dtype for r in results}),
            layer={
                "fda.steps": steps,
                "fda.syncs": syncs,
                "fabric.model_bytes": sum(r.model_bytes for r in results),
                "fabric.state_bytes": sum(r.state_bytes for r in results),
                "timeline.virtual_s": sum(r.virtual_seconds for r in results),
                "timeline.comm_virtual_s": sum(r.comm_seconds for r in results),
                "executor.cells": stats.cells,
                "executor.cache_hits": stats.cache_hits,
                "executor.failed": stats.failed,
            },
            problems=problems,
        )


WORKLOADS = {
    "vgg-fda": vgg_fda,
    "densenet-fda": densenet_fda,
    "fig13-serial": GridWorkload,
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

