"""End-to-end SQLite commit benchmark over three paper workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tpcc-write --seed 1 --seconds 8 --trace 0

A run sets the workload up from the seed, then measures one single-client
closed loop of a fixed number of commits: ``--seconds`` times the
workload's reference rate (its commits per second on the machine and
commit that defined the benchmark), and never fewer than 1,000 so that the
p99 has ten samples beyond it.  The same work in every run of a seed makes
the simulated metrics and counters repeat exactly, and lets two versions of
the program be compared on identical work.  After the loop, power is cut
inside one more transaction; the stack is remounted and reopened and the
workload's oracle checks every acknowledged commit.  The set-up is then
repeated once more, and ``setup_s`` is the median of the two set-ups.
Every wall time is corrected for the host's speed drift (see ``speed.py``);
the raw times are printed above the result.

With ``--trace 1`` the loop runs with every layer's entry points wrapped
(see ``tracing.py``) and is then replayed untraced on the second set-up:
per-layer metrics come from the traced copy, every count and simulated time
must be identical between the two copies, span counts must equal the
stack's own counters, and the wall-time ratio of the copies is the tracing
overhead.  The spans are written to ``.perfbench/spans/`` under the root.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A commit fails if it raised or
if the oracle finds its effects missing after recovery; any failure makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A percentile is reported only with at least ten samples beyond it.
MIN_COMMITS = 1000


def percentile(values: list[float], fraction: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def counters(workload) -> dict[str, float]:
    """Public counters of every layer, read as one flat snapshot."""
    stack = workload.stack
    snap: dict[str, float] = {}
    snap.update({f"flash.{k}": v for k, v in stack.chip.stats.as_dict().items()})
    snap.update({f"device.{k}": v for k, v in stack.device.counters.as_dict().items()})
    snap.update({f"fs.{k}": v for k, v in vars(stack.fs.stats).items()})
    snap["fs.cache_hits"] = stack.fs.cache.hits
    snap["fs.cache_misses"] = stack.fs.cache.misses
    snap["sqlite.statements"] = workload.db.statements_executed if workload.db else 0
    snap["flash.channel_busy_us"] = sum(stack.chip.channel_busy_us())
    snap["sim.now_us"] = stack.clock.now_us
    return snap


class Phase:
    """A closed loop of exactly ``commits`` commits.

    Counter deltas, simulated times and wall times all cover the same
    commits, so every simulated number depends on the seed alone.
    """

    def __init__(self, workload, commits: int, tracer=None, probe=None):
        clock = workload.stack.clock
        before = counters(workload)
        self.wall_s: list[float] = []  # raw, without time spent in the probe
        self.sim_us: list[float] = []
        self.raised = 0

        def now() -> float:
            """Wall clock that stands still while the speed probe runs."""
            return time.perf_counter() - (probe.spent_s if probe is not None else 0.0)

        start = now()
        for index in range(commits):
            if tracer is not None:
                tracer.current_commit = index
            sim0 = clock.now_us
            wall0 = now()
            try:
                workload.commit()
            except Exception:  # a failed commit is counted, and the loop goes on
                if not self.raised:
                    traceback.print_exc(file=sys.stderr)
                self.raised += 1
                workload.abandon()
            self.wall_s.append(now() - wall0)
            self.sim_us.append(clock.now_us - sim0)
        self.elapsed_s = now() - start
        after = counters(workload)
        self.delta = {key: after[key] - before[key] for key in after}
        self.channels = workload.stack.chip.num_channels

    @property
    def commits(self) -> int:
        return len(self.wall_s)

    def fingerprint(self) -> tuple:
        """Everything that must not depend on tracing or on wall time."""
        return tuple(sorted(self.delta.items())), tuple(self.sim_us), self.raised


def set_up(workload_cls, seed: int, tiny: bool) -> tuple[object, float, float]:
    """Build one workload; returns it with its raw and corrected set-up seconds."""
    from perfbench.speed import SpeedProbe

    workload = workload_cls(seed, tiny=tiny)
    with SpeedProbe() as probe:
        start = time.perf_counter() - probe.spent_s
        workload.setup()
        elapsed = time.perf_counter() - probe.spent_s - start
    workload.start_model()
    gc.collect()
    return workload, elapsed, elapsed * probe.factor


def finish(workload) -> tuple[float, list[str]]:
    """Power cut, recovery and oracle; returns (sim restart ms, problems)."""
    restart_ms = workload.crash_and_recover()
    return restart_ms, workload.check()


def per_commit(phase: Phase, key: str) -> float:
    return phase.delta[key] / phase.commits


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(phase: Phase, factor: float, setups: list[float]) -> dict:
    """End-to-end metrics; wall times are scaled by the speed probe's factor."""
    values = {
        "commits_per_s": (phase.commits - phase.raised) / (phase.elapsed_s * factor),
        "commit_mean_ms": statistics.fmean(phase.wall_s) * factor * 1e3,
        "commit_p99_ms": percentile(phase.wall_s, 0.99) * factor * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_commits_per_s": (phase.commits - phase.raised) / (sum(phase.sim_us) / 1e6),
        "sim_commit_mean_ms": statistics.fmean(phase.sim_us) / 1e3,
        "sim_commit_p99_ms": percentile(phase.sim_us, 0.99) / 1e3,
        "flash_programs_per_commit": per_commit(phase, "flash.page_programs"),
    }
    units = {
        "commits_per_s": "1/s",
        "commit_mean_ms": "ms",
        "commit_p99_ms": "ms",
        "setup_s": "s",
        "peak_rss_mb": "MB",
        "sim_commits_per_s": "1/s",
        "sim_commit_mean_ms": "ms",
        "sim_commit_p99_ms": "ms",
        "flash_programs_per_commit": "pages/commit",
    }
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def per_layer(traced: Phase, untraced: Phase, tracer, restart_ms: float) -> dict:
    delta = traced.delta
    wall_total = sum(traced.wall_s)
    sim_total = sum(traced.sim_us)
    metrics: dict[str, tuple[float, str]] = {}
    covered = 0.0
    for layer, total in tracer.layer_totals().items():
        covered += total["self_wall_s"]
        metrics[f"{layer}.calls"] = (total["calls"], "count")
        metrics[f"{layer}.self_wall_share"] = (total["self_wall_s"] / wall_total, "fraction")
        if layer != "sim":
            metrics[f"{layer}.self_sim_share"] = (total["self_sim_us"] / sim_total, "fraction")
    metrics["client.self_wall_share"] = ((wall_total - covered) / wall_total, "fraction")
    pager_gets = tracer.count("sqlite.pager:Pager.get")
    host_writes = (
        delta["fs.data_page_writes"] + delta["fs.journal_page_writes"]
        + delta["fs.meta_page_writes"]
    )
    lookups = delta["fs.cache_hits"] + delta["fs.cache_misses"]
    metrics.update(
        {
            "sqlite.statements_per_commit": (
                per_commit(traced, "sqlite.statements"), "1/commit"),
            "sqlite.pager.miss_ratio": (
                ratio(tracer.count_under("fs:FileHandle.read_page", "sqlite.pager:Pager.get"),
                      pager_gets),
                "fraction",
            ),
            "sqlite.pager.checkpoints": (
                tracer.count("sqlite.pager:Pager.checkpoint"), "count"),
            "fs.host_writes_per_commit": (host_writes / traced.commits, "pages/commit"),
            "fs.fsyncs_per_commit": (per_commit(traced, "fs.fsync_calls"), "1/commit"),
            "fs.cache_hit_ratio": (ratio(delta["fs.cache_hits"], lookups), "fraction"),
            "device.flushes_per_commit": (
                (delta["device.flushes"] + delta["device.barriers"]) / traced.commits,
                "1/commit",
            ),
            "ftl.write_amp": (
                ratio(delta["flash.page_programs"], delta["flash.host_page_writes"]), "ratio"),
            "ftl.map_writes_per_commit": (
                (delta["flash.map_page_writes"] + delta["flash.xl2p_page_writes"])
                / traced.commits,
                "pages/commit",
            ),
            "ftl.gc_copybacks_per_erase": (
                ratio(delta["flash.gc_copyback_writes"], delta["flash.block_erases"]),
                "pages/erase",
            ),
            "ftl.gc_invocations": (delta["flash.gc_invocations"], "count"),
            "flash.page_programs": (delta["flash.page_programs"], "count"),
            "flash.page_reads": (delta["flash.page_reads"], "count"),
            "flash.block_erases": (delta["flash.block_erases"], "count"),
            "flash.erases_per_commit": (per_commit(traced, "flash.block_erases"), "1/commit"),
            "flash.channel_utilization": (
                ratio(delta["flash.channel_busy_us"], traced.channels * delta["sim.now_us"]),
                "fraction",
            ),
            "restart.sim_ms": (restart_ms, "ms"),
            "trace.slowdown": (traced.elapsed_s / untraced.elapsed_s, "ratio"),
        }
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result dict, human-readable report lines).

    ``tiny`` shrinks every size and runs 20 commits, for the benchmark's own
    tests.
    """
    from perfbench.speed import SpeedProbe
    from perfbench.tracing import LayerTracer
    from perfbench.workloads import WORKLOADS

    workload_cls = WORKLOADS[workload_name]
    commits = 20 if tiny else max(MIN_COMMITS, round(seconds * workload_cls.reference_rate))
    problems: list[str] = []

    workload, first_raw, first_setup = set_up(workload_cls, seed, tiny)
    report = [f"{workload_name} seed={seed}: " + json.dumps(workload.describe())]
    if trace:
        tracer = LayerTracer(workload.stack)
        try:
            phase = Phase(workload, commits, tracer=tracer)
        finally:
            tracer.close()
    else:
        with SpeedProbe() as probe:
            phase = Phase(workload, commits, probe=probe)
    restart_ms, found = finish(workload)
    problems += found
    del workload
    gc.collect()

    # The second set-up is timed for the setup_s median; a traced run also
    # replays the loop on it untraced, which must reproduce every count.
    workload, second_raw, second_setup = set_up(workload_cls, seed, tiny)
    attempted, failed = phase.commits, phase.raised
    if trace:
        copy = Phase(workload, commits)
        copy_restart_ms, found = finish(workload)
        problems += found
        attempted += copy.commits
        failed += copy.raised
        problems += tracer.cross_check(phase.delta)
        if phase.fingerprint() != copy.fingerprint() or restart_ms != copy_restart_ms:
            problems.append("the traced and untraced copies of the loop differ")
        metrics = per_layer(phase, copy, tracer, restart_ms)
        spans_path = ROOT / ".perfbench" / "spans" / f"{workload_name}-seed{seed}.pickle"
        tracer.dump(spans_path)
        report.append(
            f"{commits} commits traced in {phase.elapsed_s:.2f} s, untraced in "
            f"{copy.elapsed_s:.2f} s; {len(tracer)} spans written to "
            f"{spans_path.relative_to(ROOT)}"
        )
    else:
        metrics = end_to_end(phase, probe.factor, [first_setup, second_setup])
        report.append(
            f"{commits} commits in {phase.elapsed_s:.2f} s raw, speed factor "
            f"{probe.factor:.3f}; simulated restart {restart_ms:.3f} ms"
        )
    del workload
    report.append(
        f"set-ups {first_raw:.2f} s and {second_raw:.2f} s raw, "
        f"{first_setup:.2f} s and {second_setup:.2f} s corrected"
    )

    failed += len(problems)
    report.extend(f"FAILED: {problem}" for problem in problems[:20])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
