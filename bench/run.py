"""skinlink benchmark: end-to-end and per-layer metrics for two workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep_design --seed 1 --seconds 50 --trace 0

Each workload runs in a fresh worker process (bench/worker.py) that imports
skinlink from ./src, generates its scenario files from the seed and drives
skinlink.cli.main for timed passes, timing each command of a pass on its own.
Set-up is repeated in further fresh processes, half before and half after the
timed run, and reported as a median. With --trace 1 the passes alternate
untraced and traced, and the per-layer figures come from spans recorded by
the benchmark's own wrappers (bench/spans.py).

best_wall_s and best_cpu_s are the seconds of one pass assembled from each
command's fastest run. Neighbours on a shared host only add time, and their
load comes and goes over tens of seconds; the fastest run is the figure they
disturb least. The median pass (wall_s, cpu_s) is printed above the result
with its quartiles and sample count.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the medians with
their quartiles and sample counts, the failure ratio, the reference error and
the host facts. Without ./src/skinlink the command exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_design", "field_cuts")
SETUP_PROCESSES = 12          # set-up-only processes, half before and half after the worker
WORKER_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 30.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; a lone value fills all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def best_pass(command_times):
    """Seconds of one pass from each command's fastest run (command_times[j]: runs of command j)."""
    return sum(min(times) for times in command_times)


UNITS = ((".ns_per_cell_point", "ns"), (".ns_per_cell", "ns"), (".self_s", "s"),
         (".p50_ms", "ms"), ("_bytes", "bytes"), ("_pct", "%"))


def _layer_unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def _digits(err: float) -> float:
    """Agreeing decimal digits, -log10 of a relative error (round-off gives ~14.6).

    Round-off errors differ by a factor of two between geometries; their
    logarithm is steady across seeds, so it can carry a regression bound.
    """
    return -math.log10(max(err, sys.float_info.epsilon))


def _run_worker(args, work: Path, tag: str, setup_only: bool) -> dict:
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work / tag), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=SETUP_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stderr.decode(errors="replace")[-4000:])
        raise SystemExit(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="ascii"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="skinlink benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skinlink" / "__init__.py").is_file():
        print(f"error: no skinlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    def setup_times(first, count):
        return [_run_worker(args, work, f"setup{i}", setup_only=True)["setup_s"]
                for i in range(first, first + count)]

    half = 0 if args.trace else SETUP_PROCESSES // 2
    try:
        setups = setup_times(0, half)
        run = _run_worker(args, work, "run", setup_only=False)
        setups += setup_times(half, half)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    setups.append(run["setup_s"])
    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {args.workload} seed {args.seed}: {run['passes']} passes "
          f"({len(run['walls'])} untraced timed)")
    print("host " + json.dumps(run["host"], sort_keys=True))
    for what in run["failures"]:
        print(f"FAILED {what}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"ref_rel_err {run['ref_rel_err']:.6g} (max relative difference from the direct sum)")

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in run["per_layer"].items()}
    else:
        metrics = {}
        for name, values in (("setup_s", setups), ("wall_s", run["walls"]),
                             ("cpu_s", run["cpus"])):
            q1, med, q3 = quartiles(values)
            print(f"{name} median {med:.6g} s (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["best_wall_s"] = {"value": best_pass(run["command_walls"]), "unit": "s"}
        metrics["best_cpu_s"] = {"value": best_pass(run["command_cpus"]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": run["peak_rss_mb"], "unit": "MB"}
        metrics["ref_digits"] = {"value": _digits(run["ref_rel_err"]), "unit": "digits"}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
