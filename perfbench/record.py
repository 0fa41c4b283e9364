"""Re-measure the recorded anchors in ``perfbench/record.json``.

Run from the repository root::

    python3 perfbench/record.py

For every workload in ``BENCHMARK.json`` this runs the benchmark once
untraced and once traced at the default seed and the benchmark's
``run_seconds``, each in its own process, and rewrites three fields of that
workload's entry in ``record.json``:

- ``sizes``: the working set against each cache and the device set-up;
- ``anchors``: every simulated end-to-end metric and every per-layer count,
  which must repeat exactly at this seed until the program changes;
- ``self_shares``: each layer's measured wall and sim self-time share.

Every other field of ``record.json`` is written by hand and left alone.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "record.json"
DEFAULT_SEED = 1

# Metrics that depend on the seed alone (the rest are wall-clock or memory).
SIMULATED = (
    "sim_commits_per_s",
    "sim_commit_mean_ms",
    "sim_commit_p99_ms",
    "flash_programs_per_commit",
)


def run(workload: str, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (describe dict, metric values)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines()
    sizes = json.loads(lines[0].split(": ", 1)[1])
    result = json.loads(lines[-1])
    return sizes, {name: metric["value"] for name, metric in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(RECORD.read_text())
    for workload in bench["workloads"]:
        name = workload["name"]
        sizes, untraced = run(name, bench["run_seconds"], 0)
        _, traced = run(name, bench["run_seconds"], 1)
        entry = record["workloads"][name]
        entry["sizes"] = sizes
        entry["anchors"] = {
            "seed": DEFAULT_SEED,
            "seconds": bench["run_seconds"],
            **{metric: untraced[metric] for metric in SIMULATED},
            **{
                metric: value
                for metric, value in traced.items()
                if not metric.endswith("_share") and metric != "trace.slowdown"
            },
        }
        entry["self_shares"] = {
            metric: round(value, 4)
            for metric, value in traced.items()
            if metric.endswith("_share") or metric == "trace.slowdown"
        }
        print(f"{name}: recorded", file=sys.stderr)
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
