"""Write every file that one pass of each benchmark workload produces.

Usage: python tools/bench_outputs.py SRC OUT

SRC is the directory that holds the skinlink package (a checkout's src/), and
OUT a directory that does not exist yet. For seeds 1-3 and each workload in
bench/workloads.py, the tool builds the workload in OUT/<workload>/<seed>/
and runs one untimed pass there, with paths relative to it and what the
commands print discarded. The files the benchmark's output and reference
checks read are the same bytes for two checkouts exactly when `diff -r` of
their OUT directories prints nothing. bench/ is imported as it is and no
bytecode is written there.
"""

from __future__ import annotations

import contextlib
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2, 3)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "skinlink" / "__init__.py").is_file() or out.exists():
        print(f"error: no skinlink package in {src}, or {out} exists", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(BENCH)]
    from workloads import WORKLOADS

    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                work = out / name / str(seed)
                work.mkdir(parents=True)
                os.chdir(work)
                workload(seed, Path(".")).run_pass()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
