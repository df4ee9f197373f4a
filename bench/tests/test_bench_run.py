"""The command's contract outside a checkout with sources."""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_design",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench"]


def test_best_pass_sums_each_commands_fastest_run():
    import run

    assert run.best_pass([[3.0, 1.0, 2.0], [5.0, 4.0]]) == 5.0
