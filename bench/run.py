"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload cold-walk --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload several times, then times tasks for
``--seconds`` (and at least MIN_TASKS tasks) and prints the end-to-end
metrics.  ``--trace 1`` prints the per-layer metrics instead, from three
separate passes over the workload's fixed traced task list: a traced pass
(spans written to ``.bench_out/``), the same tasks untraced (the difference
in median task time is the tracing overhead), and a ``tracemalloc`` pass for
the memory a market retains.  ``--tasks N`` fixes the number of tasks in
either mode; the self-test uses it.

Every task's result is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

from tracer import Recorder  # noqa: E402
from workloads import WORKLOADS, CheckFailed, import_library  # noqa: E402

MIN_TASKS = 100  # so that ten tasks lie beyond the 90th percentile
HARD_LIMIT_S = 120.0  # stop starting tasks after this, whatever the run length says
MAX_REPORTED_FAILURES = 5


@dataclass
class TaskStats:
    seconds: list[float] = field(default_factory=list)
    failed: int = 0
    checks: int = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def p50_ms(self) -> float:
        return statistics.median(self.seconds) * 1000

    def p90_ms(self) -> float:
        return statistics.quantiles(self.seconds, n=10)[8] * 1000


def run_tasks(tasks, seconds: float | None = None, limit: int | None = None, rec=None) -> TaskStats:
    """Run tasks until ``limit`` tasks, or until ``seconds`` and MIN_TASKS."""
    stats = TaskStats()
    start = perf_counter()
    while True:
        n = stats.attempted
        elapsed = perf_counter() - start
        if elapsed >= HARD_LIMIT_S:
            break
        if limit is not None:
            if n >= limit:
                break
        elif n >= MIN_TASKS and elapsed >= seconds:
            break
        if rec is not None:
            rec.task = n  # input generation is traced too, outside the task span
        task = next(tasks)
        if rec is not None:
            frame = rec.begin_task(n)
        t0 = process_time()
        try:
            result = task.run()
            ok = True
        except Exception:  # a failing task is counted and reported, not fatal
            ok = False
            error = traceback.format_exc()
        stats.seconds.append(process_time() - t0)
        if rec is not None:
            rec.end_task(frame)
            rec.paused = True
        try:
            if ok:
                stats.checks += task.check(result)
        except CheckFailed as e:
            ok = False
            error = f"check failed: {e}\n"
        finally:
            if rec is not None:
                rec.paused = False
        if not ok:
            stats.failed += 1
            if stats.failed <= MAX_REPORTED_FAILURES:
                print(f"task {n} ({task.kind}) failed:\n{error}", file=sys.stderr)
    return stats


def timed_run(cls, seed: int, seconds: float, limit: int | None):
    setup = []
    for _ in range(cls.setup_repeats):
        t0 = process_time()
        workload = cls(import_library(), seed)
        setup.append(process_time() - t0)
    gc.collect()
    if limit is None:
        limit = workload.task_count(seconds)
    stats = run_tasks(workload.tasks(), seconds=seconds, limit=limit)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "tasks_per_s": (stats.attempted / sum(stats.seconds), "1/s", stats.attempted),
        "task_p50_ms": (stats.p50_ms(), "ms", stats.attempted),
        "task_p90_ms": (stats.p90_ms(), "ms", stats.attempted),
        "peak_rss_mb": (peak_kb / 1024, "MB", 1),
    }
    return stats, metrics


def retained_mb(workload) -> float:
    """Bytes still allocated after a market's tasks, with the market alive."""
    tasks = workload.fresh_tasks(workload.memory_tasks)
    gc.collect()
    tracemalloc.start()
    try:
        for task in tasks:
            task.run()
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current / 2**20


def traced_run(cls, seed: int, limit: int | None, spans_path: Path):
    n = limit if limit is not None else cls.trace_tasks
    rec = Recorder()
    lib = import_library()
    rec.install(lib)
    frame = rec.begin_task("setup")
    workload = cls(lib, seed, rec)
    rec.end_task(frame)
    traced = run_tasks(workload.tasks(), limit=n, rec=rec)
    rec.uninstall()

    workload = cls(import_library(), seed)
    gc.collect()
    plain = run_tasks(workload.tasks(), limit=n)
    retained = retained_mb(workload)
    rec.write(spans_path)

    metrics = {k: (v, unit, traced.attempted) for k, (v, unit) in rec.metrics().items()}
    metrics["market.retained_mb"] = (retained, "MB", workload.memory_tasks)
    overhead = traced.p50_ms() - plain.p50_ms()
    metrics["trace.overhead_p50_ms"] = (overhead, "ms", n)
    stats = TaskStats(traced.seconds + plain.seconds, traced.failed + plain.failed, traced.checks + plain.checks)
    print(
        f"tracing overhead: task_p50_ms {plain.p50_ms():.3f} untraced, {traced.p50_ms():.3f} traced; "
        f"{len(rec.spans)} spans kept, {rec.dropped} dropped, written to {spans_path}"
    )
    return stats, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="matchlattice benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tasks", type=int, default=None, help="run exactly this many tasks")
    args = p.parse_args(argv)
    if not (SRC / "matchlattice").is_dir():
        sys.exit(f"{SRC / 'matchlattice'} not found: run from the root of a matchlattice checkout")
    cls = WORKLOADS[args.workload]

    if args.trace:
        spans = BENCH.parent / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        stats, metrics = traced_run(cls, args.seed, args.tasks, spans)
    else:
        stats, metrics = timed_run(cls, args.seed, args.seconds, args.tasks)

    error_rate = stats.failed / stats.attempted
    print(
        f"{args.workload} seed {args.seed}: {stats.attempted} tasks, {stats.failed} failed "
        f"(error_rate {error_rate:g}), {stats.checks} checks passed"
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit:6s} ({samples} samples)")
    result = {
        "correct": stats.failed == 0 and stats.checks > 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
