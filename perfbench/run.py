"""Benchmark command: time one workload end to end, or trace it layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload vgg-fda --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object whose ``metrics``
are the end-to-end metrics; with ``--trace 1`` they are the per-layer
metrics of a traced pass.  Earlier lines starting with ``#`` carry the
environment block and, when traced, the per-kernel table.  The command
exits 1 when a correctness check fails and 2 when the program cannot be
imported.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench")

#: Set-ups made before the first pass: they give the set-up median enough
#: samples and warm the process, traced or not, before anything is timed.
EXTRA_SETUPS = 8

#: Passes an untraced run makes at least: two give every run the repeated-pass
#: check and at least 318 timed rounds for the 95th percentile.
MIN_PASSES = 2

#: Environment variables that set BLAS or OpenMP thread counts.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def blas_info() -> dict:
    """The BLAS numpy was built against and the thread count it runs with."""
    import numpy

    info = {"library": None, "version": None, "threads": None, "config": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:  # the shared libraries this process has loaded (Linux)
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "blas" in line.split()[-1]})
    except OSError:
        paths = []
    for path in paths:
        library = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(library, f"{prefix}_get_config{suffix}", None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                return info
    return info


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Runner:
    """Set-ups, passes and checks for one workload and one seed."""

    def __init__(self, workload, seed: int) -> None:
        from perfbench.spans import Patcher
        from perfbench.workloads import Logs

        self.workload = workload
        self.seed = seed
        self.logs = Logs()
        self.patcher = Patcher()
        self.logs.install(self.patcher)
        self.setup_s = []
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def close(self) -> None:
        self.patcher.restore()

    def setup(self):
        # Clusters hold reference cycles; free the previous set-up's before
        # building the next, so that peak memory is one set-up's, not a heap
        # of garbage that grows with the number of set-ups.
        gc.collect()
        mark = self.logs.mark()
        start = time.perf_counter()
        state = self.workload.setup(self.seed, SCRATCH)
        self.setup_s.append(time.perf_counter() - start)
        return state, mark

    def extra_setups(self) -> None:
        for _ in range(EXTRA_SETUPS):
            state, _ = self.setup()
            self.workload.discard(state)

    def one_pass(self):
        """Set up and run one pass; count its operations and failures."""
        state, mark = self.setup()
        try:
            result = self.workload.run(state, self.logs, mark)
        except Exception:  # the operation that raised fails; the run stops
            self.workload.discard(state)
            self.attempted += 1
            self.failed += 1
            raise
        self.passes.append(result)
        self.attempted += result.operations
        if result.problems:
            self.failed += result.operations
            self.problems.extend(result.problems)
        return result

    def finish_checks(self) -> None:
        from perfbench import checks

        problem = self.passes and checks.repeatable([p.counts for p in self.passes])
        if problem:
            self.problems.append(problem)
            self.failed = self.attempted

    @property
    def correct(self) -> bool:
        return not self.problems


def end_to_end(runner: Runner) -> dict:
    from perfbench.workloads import percentile

    passes = runner.passes
    rounds = [s for p in passes for s in p.round_s]
    return {
        "setup_s": (statistics.median(runner.setup_s), "s"),
        "samples_per_s": (statistics.median(p.samples / p.wall_s for p in passes), "samples/s"),
        "round_ms_p50": (1e3 * percentile(rounds, 50), "ms"),
        "round_ms_p95": (1e3 * percentile(rounds, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "comm_bytes": (passes[-1].counts["comm_bytes"], "B"),
        "test_accuracy": (passes[-1].accuracy, "fraction"),
    }


def untraced(runner: Runner, seconds: float):
    """Passes until ``seconds`` have gone by; end-to-end metrics."""
    start = time.perf_counter()
    while len(runner.passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        runner.one_pass()
    return end_to_end(runner), None


def traced(runner: Runner, seconds: float):
    """Alternate untraced and traced passes; return per-layer metrics."""
    from perfbench import probes
    from perfbench.spans import Patcher, Tracer, round_coverage, summarize, write_spans

    start = time.perf_counter()
    walls, traced_walls, summaries, tracer = [], [], [], None
    while not traced_walls or time.perf_counter() - start < seconds:
        walls.append(runner.one_pass().wall_s)
        tracer = Tracer()
        with Patcher() as patcher:
            probes.install(patcher, tracer)
            result = runner.one_pass()
        traced_walls.append(result.wall_s)
        summaries.append(summarize(tracer.spans))
        coverage = round_coverage(tracer.spans)
        gap = abs(coverage["covered_s"] + coverage["uncovered_s"] - coverage["round_wall_s"])
        if gap > 1e-9 * max(coverage["round_wall_s"], 1.0):
            runner.problems.append(f"round self times miss the round wall time by {gap:.3g} s")
            runner.failed += result.operations

    write_spans(tracer.spans, os.path.join(
        SCRATCH, f"spans-{runner.workload.name}-seed{runner.seed}.jsonl"))
    summary = probes.add_summaries(summaries)
    metrics = probes.per_layer(
        summary,
        passes=len(summaries),
        jobs=runner.workload.jobs,
        untraced_wall_s=statistics.median(walls),
        traced_wall_s=statistics.median(traced_walls),
        counters=runner.passes[-1].layer,
    )
    return metrics, probes.kernel_table(summary, len(summaries))


def environment(runner: Runner) -> dict:
    import numpy

    return {
        "workload": runner.workload.name,
        "seed": runner.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": runner.workload.jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "thread_variables": {name: os.environ[name] for name in THREAD_VARIABLES if name in os.environ},
        "engines": sorted({e for p in runner.passes for e in p.engines}),
        "dtypes": sorted({d for p in runner.passes for d in p.dtypes}),
        "passes": len(runner.passes),
        "pass_wall_s": [round(p.wall_s, 4) for p in runner.passes],
        "setups": len(runner.setup_s),
        "round_samples": sum(len(p.round_s) for p in runner.passes),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_share": runner.failed / max(runner.attempted, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(SCRATCH, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload](), args.seed)
    try:
        try:
            runner.extra_setups()
            metrics, kernels = (traced if args.trace else untraced)(runner, args.seconds)
        except Exception as error:
            traceback.print_exc()
            runner.problems.append(f"run stopped by {type(error).__name__}: {error}")
            metrics, kernels = {}, None
        runner.finish_checks()
    finally:
        runner.close()

    print("# env " + json.dumps(environment(runner)))
    for problem in runner.problems:
        print(f"# check failed: {problem}")
    if kernels:
        print("# kernel          fwd_calls  fwd_self_s  bwd_calls  bwd_self_s   (per traced pass)")
        for row in kernels:
            print(
                f"# {row['kernel']:<14} {row['forward_calls']:>10} {row['forward_self_s']:>11.4f} "
                f"{row['backward_calls']:>10} {row['backward_self_s']:>11.4f}"
            )
    print(json.dumps({
        "correct": runner.correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
