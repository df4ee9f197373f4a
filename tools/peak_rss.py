"""Where a benchmark workload's memory high-water mark is set.

Usage: python tools/peak_rss.py SRC WORKLOAD SEED PASSES

SRC is the directory that holds the skinlink package (a checkout's src/);
WORKLOAD is a name from bench/workloads.py (sweep_design or field_cuts).
In this process, the tool builds the workload from SEED in a temporary
directory, runs a warm-up pass and PASSES more with the benchmark's output
checks, then the benchmark's reference comparison. It prints the process's
RSS high-water mark (ru_maxrss) after the passes and again after the
reference check, with the minor page faults per pass, so the two sources of
bench/run.py's peak_rss_mb, the timed commands and the verification code,
read apart. What the commands print is discarded. bench/ is imported as it
is and no bytecode is written there.
"""

from __future__ import annotations

import contextlib
import os
import resource
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def main(argv: list[str]) -> int:
    if len(argv) != 4 or not argv[2].isdigit() or not argv[3].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    src, name, seed, passes = Path(argv[0]).resolve(), argv[1], int(argv[2]), int(argv[3])
    if not (src / "skinlink" / "__init__.py").is_file():
        print(f"error: no skinlink package in {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(BENCH)]
    from workloads import WORKLOADS, Outcome

    if name not in WORKLOADS:
        print(f"error: unknown workload {name!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    outcome = Outcome()
    with (tempfile.TemporaryDirectory() as work, open(os.devnull, "w") as null,
          contextlib.redirect_stdout(null)):
        workload = WORKLOADS[name](seed, Path(work))
        workload.run_pass()
        workload.check_pass(outcome)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(passes):
            workload.run_pass()
            workload.check_pass(outcome)
        after_passes = resource.getrusage(resource.RUSAGE_SELF)
        ref_err = workload.reference_error(outcome)
        after_check = resource.getrusage(resource.RUSAGE_SELF)
    print(f"peak_rss_mb after the warm-up and {passes} passes: "
          f"{after_passes.ru_maxrss / 1024.0:.1f}")
    print(f"minor faults per pass: {(after_passes.ru_minflt - faults) / max(1, passes):.0f}")
    print(f"peak_rss_mb after the reference check: {after_check.ru_maxrss / 1024.0:.1f}")
    print(f"reference relative error: {ref_err:.3g}")
    print(f"failed operations: {outcome.failed} of {outcome.attempted}")
    return 1 if outcome.failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
