"""The public calls the traced run wraps, and the per-layer metrics they give.

Every probe is ``(owner, attribute, span name)``.  Layer kernels are wrapped
at class level (each ``Layer`` and ``BatchedKernel`` subclass's own
``forward``/``backward``), so both execution engines report under one
kernel name; ``im2col``/``col2im`` are wrapped as bound in ``nn.layers`` and
``nn.batched``, the modules whose kernels call them.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Tuple

from perfbench.spans import Patcher, Tracer

#: Kernel names that are not simply the lower-cased class name.
KERNEL_NAMES = {
    "MaxPool2D": "maxpool",
    "AvgPool2D": "avgpool",
    "GlobalAvgPool2D": "gap",
    "TransitionDown": "transition",
}


def kernel_name(cls: type) -> str:
    """``Conv2D`` and ``BatchedConv2D`` -> ``conv2d``; both engines share names."""
    base = cls.__name__[len("Batched"):] if cls.__name__.startswith("Batched") else cls.__name__
    return KERNEL_NAMES.get(base, base.lower())


def probes() -> List[Tuple[object, str, str]]:
    """Every wrapped call, imported lazily so the module loads without ``repro``."""
    from repro.core import monitor
    from repro.data import loaders
    from repro.distributed.cluster import SimulatedCluster
    from repro.experiments import cache, executor, setup
    from repro.experiments.run import TrainingRun
    from repro.nn import batched, layers, losses
    from repro.optim.base import Optimizer, StackedOptimizer
    from repro.sketch.ams import AmsSketch
    from repro.strategies.base import Strategy

    found: List[Tuple[object, str, str]] = []

    def own_methods(module, base, names, span):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, base) and cls.__module__ == module.__name__:
                for attribute in names:
                    if attribute in cls.__dict__:
                        found.append((cls, attribute, span(cls, attribute)))

    for module, base in ((layers, layers.Layer), (batched, batched.BatchedKernel)):
        own_methods(
            module, base, ("forward", "backward"),
            lambda cls, attribute: f"nn.{kernel_name(cls)}.{attribute}",
        )
        found += [(module, "im2col", "nn.im2col"), (module, "col2im", "nn.col2im")]
    own_methods(losses, losses.Loss, ("value", "gradient", "batched_gradient"),
                lambda cls, attribute: "nn.loss")
    own_methods(monitor, monitor.VarianceMonitor, ("local_states",),
                lambda cls, attribute: "monitor.local_states")
    own_methods(monitor, monitor.VarianceMonitor, ("estimate",),
                lambda cls, attribute: "monitor.estimate")
    found += [
        (loaders.BatchSampler, "sample", "data.sample"),
        (loaders.StackedSampler, "sample", "data.sample"),
        (Optimizer, "step_inplace", "optim.step"),
        (StackedOptimizer, "step_rows", "optim.step"),
        (SimulatedCluster, "step_all", "engine.step_all"),
        (SimulatedCluster, "drift_matrix", "cluster.drift_matrix"),
        (SimulatedCluster, "synchronize", "cluster.synchronize"),
        (SimulatedCluster, "evaluate_global", "cluster.evaluate_global"),
        (SimulatedCluster, "charge_allreduce", "fabric.charge"),
        (SimulatedCluster, "charge_broadcast", "fabric.charge"),
        (SimulatedCluster, "charge_upload", "fabric.charge"),
        (AmsSketch, "sketch_rows", "sketch.sketch_rows"),
        (setup, "build_cluster", "experiments.build_cluster"),
        (executor, "build_cluster", "experiments.build_cluster"),
        (executor.SweepExecutor, "execute", "executor.execute"),
        (TrainingRun, "execute", "executor.cell"),
        (cache.RunStore, "append", "store.append"),
        (Strategy, "run_round", "strategy.round"),
    ]
    return found


def install(patcher: Patcher, tracer: Tracer) -> None:
    for owner, attribute, name in probes():
        patcher.replace(owner, attribute, tracer.span_wrapper(name))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Metric -> span names whose self times it sums.  These layers run in every
#: workload, so they are reported in seconds per traced pass.
SELF_SECONDS: Dict[str, Tuple[str, ...]] = {
    "nn.dense.forward_s": ("nn.dense.forward",),
    "nn.dense.backward_s": ("nn.dense.backward",),
    "nn.loss_s": ("nn.loss",),
    "data.sample_s": ("data.sample",),
    "optim.step_s": ("optim.step",),
    "monitor.local_states_s": ("monitor.local_states",),
    "monitor.estimate_s": ("monitor.estimate",),
    "cluster.drift_matrix_s": ("cluster.drift_matrix",),
    "cluster.synchronize_s": ("cluster.synchronize",),
    "cluster.evaluate_global_s": ("cluster.evaluate_global",),
    "fabric.charge_s": ("fabric.charge",),
    "experiments.build_cluster_s": ("experiments.build_cluster",),
    "strategy.round_self_s": ("strategy.round",),
}

#: Metric -> span name whose inclusive time it sums, in seconds per pass.
TOTAL_SECONDS: Dict[str, str] = {
    "engine.step_all_s": "engine.step_all",
    "strategy.round_s": "strategy.round",
}

#: Metric -> span names whose self times it sums, as a share of the traced
#: pass's wall time.  These layers are absent from some workload, where the
#: share is exactly 0 (a fraction, not a time that reads 0 on every run).
SELF_SHARES: Dict[str, Tuple[str, ...]] = {
    "nn.conv2d.forward_share": ("nn.conv2d.forward",),
    "nn.conv2d.backward_share": ("nn.conv2d.backward",),
    "nn.im2col_share": ("nn.im2col",),
    "nn.col2im_share": ("nn.col2im",),
    "nn.maxpool.forward_share": ("nn.maxpool.forward",),
    "nn.maxpool.backward_share": ("nn.maxpool.backward",),
    "nn.batchnorm.forward_share": ("nn.batchnorm.forward",),
    "nn.batchnorm.backward_share": ("nn.batchnorm.backward",),
    "nn.denseblock.self_share": ("nn.denseblock.forward", "nn.denseblock.backward"),
    "nn.transition.self_share": ("nn.transition.forward", "nn.transition.backward"),
    "nn.dropout.self_share": ("nn.dropout.forward", "nn.dropout.backward"),
    "sketch.sketch_rows_share": ("sketch.sketch_rows",),
    "store.append_share": ("store.append",),
}

#: Metric -> span name whose calls per pass it reports.
CALLS: Dict[str, str] = {
    "engine.step_all_calls": "engine.step_all",
    "cluster.synchronize_calls": "cluster.synchronize",
    "fabric.collectives": "fabric.charge",
}

#: Units of the values a pass reads from the program's own counters.
COUNTER_UNITS = {
    "fda.steps": "count",
    "fda.syncs": "count",
    "fabric.model_bytes": "B",
    "fabric.state_bytes": "B",
    "timeline.virtual_s": "vsec",
    "timeline.comm_virtual_s": "vsec",
    "executor.cells": "count",
    "executor.cache_hits": "count",
    "executor.failed": "count",
}


def add_summaries(summaries: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Field-wise sum of several :func:`perfbench.spans.summarize` tables."""
    total: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = total.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value
    return total


def per_layer(summary, passes: int, jobs: int, untraced_wall_s: float,
              traced_wall_s: float, counters: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics per traced pass, as ``name -> (value, unit)``.

    ``summary`` sums ``passes`` traced passes; ``counters`` are the
    program's own counts from one pass (they repeat exactly across passes).
    """

    def per_pass(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0) / passes

    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, names in SELF_SECONDS.items():
        metrics[metric] = (sum(per_pass(name, "self_s") for name in names), "s")
    for metric, name in TOTAL_SECONDS.items():
        metrics[metric] = (per_pass(name, "total_s"), "s")
    for metric, names in SELF_SHARES.items():
        metrics[metric] = (sum(per_pass(name, "self_s") for name in names) / traced_wall_s, "fraction")
    for metric, name in CALLS.items():
        metrics[metric] = (summary.get(name, {}).get("calls", 0) // passes, "count")
    for metric, unit in COUNTER_UNITS.items():
        metrics[metric] = (counters[metric], unit)
    steps = counters["fda.steps"]
    metrics["fda.sync_rate"] = (counters["fda.syncs"] / steps if steps else 0.0, "fraction")
    execute = per_pass("executor.execute", "total_s")
    metrics["executor.parallel_efficiency"] = (
        per_pass("executor.cell", "total_s") / (execute * jobs) if execute else 0.0, "fraction"
    )
    overhead = traced_wall_s - untraced_wall_s
    metrics["trace.wall_s"] = (traced_wall_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced_wall_s, "fraction")
    return metrics


def kernel_table(summary: Dict[str, Dict[str, float]], passes: int) -> List[Dict[str, object]]:
    """Calls and self time per ``nn`` kernel and direction, per traced pass."""
    rows = []
    for name in sorted(name for name in summary if name.startswith("nn.")):
        kernel, _, direction = name[3:].partition(".")
        if not rows or rows[-1]["kernel"] != kernel:
            rows.append({"kernel": kernel, "forward_calls": 0, "forward_self_s": 0.0,
                         "backward_calls": 0, "backward_self_s": 0.0})
        side = "backward" if direction == "backward" else "forward"
        rows[-1][f"{side}_calls"] += summary[name]["calls"] // passes
        rows[-1][f"{side}_self_s"] += summary[name]["self_s"] / passes
    return rows
