"""Tests of the benchmark's own logic: spans, fork hand-off, checks, patching."""

import json
import os
import types

import pytest

from perfbench import checks, probes
from perfbench.run import ROOT, end_to_end
from perfbench.spans import Patcher, Tracer, round_coverage, self_times, summarize
from perfbench.workloads import WORKLOADS, Pass, percentile


def scripted_clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_nested_children():
    # round [0, 10] > step [1, 7] > conv [2, 5]; round > sync [8, 9]
    tracer = Tracer(clock=scripted_clock(0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0))
    round_ = tracer.open("strategy.round")
    step = tracer.open("engine.step_all")
    conv = tracer.open("nn.conv2d.forward")
    tracer.close(conv)
    tracer.close(step)
    sync = tracer.open("cluster.synchronize")
    tracer.close(sync)
    tracer.close(round_)

    assert self_times(tracer.spans) == [10.0 - 6.0 - 1.0, 6.0 - 3.0, 3.0, 1.0]
    summary = summarize(tracer.spans)
    assert summary["engine.step_all"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0}
    assert [span[4] for span in tracer.spans] == [0, 0, 0, 0]
    assert round_coverage(tracer.spans) == {
        "round_wall_s": 10.0, "covered_s": 7.0, "uncovered_s": 3.0,
    }


def test_spans_outside_rounds_have_no_round_id():
    tracer = Tracer(clock=scripted_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0))
    first = tracer.open("strategy.round")
    tracer.close(first)
    evaluation = tracer.open("cluster.evaluate_global")
    tracer.close(evaluation)
    second = tracer.open("strategy.round")
    tracer.close(second)
    assert [span[4] for span in tracer.spans] == [0, -1, 2]
    assert round_coverage(tracer.spans)["round_wall_s"] == 2.0


def test_out_of_order_close_is_an_error():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_spans_of_forked_cells_merge_into_the_parent(tmp_path):
    tracer = Tracer()
    execute = tracer.open("executor.execute")
    paths = []
    for cell in range(2):
        path = str(tmp_path / f"cell{cell}.json")
        paths.append(path)
        pid = os.fork()
        if pid == 0:  # child: record one cell with a round inside, export, leave
            try:
                mark = tracer.mark()
                cell_span = tracer.open("executor.cell")
                round_span = tracer.open("strategy.round")
                tracer.close(tracer.open("nn.dense.forward"))
                tracer.close(round_span)
                tracer.close(cell_span)
                tracer.export(mark, path)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert status == 0
    tracer.close(execute)
    for path in paths:
        tracer.merge(path)

    names = [span[0] for span in tracer.spans]
    assert names == ["executor.execute"] + ["executor.cell", "strategy.round", "nn.dense.forward"] * 2
    for cell_index in (1, 4):
        cell, round_, dense = tracer.spans[cell_index:cell_index + 3]
        assert cell[3] == execute
        assert round_[3] == cell_index and round_[4] == cell_index + 1
        assert dense[3] == cell_index + 1 and dense[4] == cell_index + 1
    summary = summarize(tracer.spans)
    assert summary["executor.cell"]["calls"] == 2
    assert summary["nn.dense.forward"]["calls"] == 2
    assert round_coverage(tracer.spans)["covered_s"] == pytest.approx(
        summary["nn.dense.forward"]["total_s"]
    )


def test_ledger_check_catches_a_broken_ledger():
    categories = {"model-sync": 1000, "fda-state": 24}
    assert checks.ledger_conserved(1024, categories, 1024) is None
    assert "ledger" in checks.ledger_conserved(1024, {"model-sync": 1000, "fda-state": 20}, 1024)
    assert "ledger" in checks.ledger_conserved(1024, categories, 1000)
    assert "ledger" in checks.ledger_conserved(1100, categories, 1100)


def test_other_checks():
    assert checks.syncs_within_steps(3, 3) is None
    assert checks.syncs_within_steps(4, 3)
    assert checks.accuracy_floor(0.9, 0.9) is None
    assert checks.accuracy_floor(float("nan"), 0.5)
    assert checks.losses_finite(0) is None and checks.losses_finite(2)
    assert checks.repeatable([{"rounds": 3}, {"rounds": 3}]) is None
    assert checks.repeatable([{"rounds": 3}, {"rounds": 4}])
    assert checks.no_failed_cells(0) is None and checks.no_failed_cells(1)
    assert checks.failures(None, "a", None, "b") == ["a", "b"]


def test_patcher_wraps_base_and_override_separately_and_restores():
    class Base:
        def forward(self):
            return "base"

    class Child(Base):
        def forward(self):
            return "child:" + super().forward()

    originals = (Base.__dict__["forward"], Child.__dict__["forward"])
    tracer = Tracer()
    with Patcher() as patcher:
        patcher.replace(Base, "forward", tracer.span_wrapper("base"))
        patcher.replace(Child, "forward", tracer.span_wrapper("child"))
        assert Child().forward() == "child:base"
        assert [span[0] for span in tracer.spans] == ["child", "base"]
        assert tracer.spans[1][3] == 0
    assert (Base.__dict__["forward"], Child.__dict__["forward"]) == originals


def test_per_layer_metrics_from_a_summary():
    summary = {
        "nn.conv2d.backward": {"calls": 8, "total_s": 6.0, "self_s": 4.0},
        "executor.execute": {"calls": 2, "total_s": 10.0, "self_s": 1.0},
        "executor.cell": {"calls": 28, "total_s": 9.0, "self_s": 0.5},
        "fabric.charge": {"calls": 6, "total_s": 0.2, "self_s": 0.2},
    }
    counters = {name: 0 for name in probes.COUNTER_UNITS}
    counters.update({"fda.steps": 40, "fda.syncs": 4})
    metrics = probes.per_layer(summary, passes=2, jobs=1, untraced_wall_s=4.0,
                               traced_wall_s=5.0, counters=counters)
    assert metrics["nn.conv2d.backward_share"] == (2.0 / 5.0, "fraction")
    assert metrics["nn.batchnorm.forward_share"] == (0.0, "fraction")
    assert metrics["fabric.collectives"] == (3, "count")
    assert metrics["fda.sync_rate"] == (0.1, "fraction")
    assert metrics["executor.parallel_efficiency"] == (0.9, "fraction")
    assert metrics["trace.overhead_share"] == (0.25, "fraction")
    rows = probes.kernel_table(summary, passes=2)
    assert rows == [{"kernel": "conv2d", "forward_calls": 0, "forward_self_s": 0.0,
                     "backward_calls": 4, "backward_self_s": 2.0}]


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 95) == pytest.approx(4.8)
    assert percentile([7.0], 95) == 7.0


def test_benchmark_json_names_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)

    counters = {name: 1 for name in probes.COUNTER_UNITS}
    layer = probes.per_layer({}, passes=1, jobs=1, untraced_wall_s=1.0,
                             traced_wall_s=1.0, counters=counters)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in layer.items()
    ]

    one_pass = Pass(wall_s=2.0, samples=640, round_s=[0.1, 0.2], operations=3,
                    counts={"comm_bytes": 10}, accuracy=0.9, engines=["sequential"],
                    dtypes=["float64"], layer=counters, problems=[])
    runner = types.SimpleNamespace(setup_s=[0.5, 0.7], passes=[one_pass])
    e2e = end_to_end(runner)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]
    assert e2e["samples_per_s"][0] == 320.0 and e2e["setup_s"][0] == 0.6
