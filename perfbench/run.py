"""Run one spinorcalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lr-box --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics of untraced rounds.  ``--trace 1``
runs the same untraced rounds, then one traced round, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a readable summary and the run record.  ``--workload all`` runs each workload
in its own interpreter, one after the other.  Files written: the run record
and, for traced runs, the spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("lr-box", "bundle-queries", "paper-replay")

# A fresh interpreter importing the CLI and, through it, the five other layers,
# then timing the calibration kernel to scale that import to reference speed.
SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import spinorcalc.cli; t = time.perf_counter() - t; "
    "import statistics; from perfbench.harness import speed_factor; "
    "print(t, statistics.median(speed_factor() for _ in range(5)))"
)

WARM_CODE = "import sys; sys.path[:0] = sys.argv[1:]; import perfbench.harness, perfbench.workloads"


def _setup_sample() -> tuple[float, float]:
    """(import time at reference speed, raw import time) from one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src"), str(ROOT)],
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, factor = (float(x) for x in proc.stdout.split())
    return seconds * factor, seconds


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    missing = [p for p in ("src/spinorcalc/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a spinorcalc checkout",
              file=sys.stderr)
        return 2
    # Import everything once in a child first: bytecode is written there, so this
    # process never compiles, which would raise its peak memory on a first run.
    subprocess.run([sys.executable, "-I", "-c", WARM_CODE, str(ROOT / "src"), str(ROOT)],
                   check=True, timeout=120)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness
    from perfbench.layers import CacheSet, load_modules
    from perfbench.workloads import WORKLOADS

    mods = load_modules()
    caches = CacheSet(mods)
    workload = WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    setup: list[tuple[float, float]] = []
    m = harness.measure(workload, inputs, caches, args.seconds,
                        None if args.trace else lambda: setup.append(_setup_sample()))
    per_op = m.per_op()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "git_sha": _git_sha(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "run_seconds": args.seconds, "rounds": len(m.rounds), "ops_per_round": m.ops_per_round,
        "op_executions": len(m.rounds) * m.ops_per_round,
        "setup_samples": len(setup), **harness.percentile_counts(per_op),
    }
    if args.trace:
        recorder, traced = harness.traced_round(workload, inputs, caches, mods, m)
        metrics = harness.per_layer(recorder, caches, traced, sum(per_op))
        record["spans"] = len(recorder.names)
        recorder.write(OUT / f"{args.workload}.spans.tsv")
    else:
        metrics = harness.end_to_end(m, statistics.median(s for s, _ in setup))
        raw = harness.end_to_end(m, statistics.median(r for _, r in setup), raw=True)
        record["raw_wall_time"] = {k: v for k, (v, _) in raw.items() if k != "peak_rss_mb"}
    fail_ratio = harness.fail_ratio(m)
    record.update(attempted=m.attempted, failed=m.failed, fail_ratio=fail_ratio,
                  first_failures=m.first_failures, metrics={k: v for k, (v, _) in metrics.items()})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  rounds {len(m.rounds)} x {m.ops_per_round} ops  "
          f"python {record['python']}  nproc {record['nproc']}  git {record['git_sha'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {_format(value):>14s} {unit}")
    print(f"  {'fail_ratio':36s} {_format(fail_ratio):>14s} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    line = harness.result(m, metrics)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="op time to measure per run (at least three rounds run regardless)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
