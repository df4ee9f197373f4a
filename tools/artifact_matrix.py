"""Run a fixed matrix of skinlink CLI commands and keep everything they produce.

Usage: python tools/artifact_matrix.py SRC OUT

SRC is the directory that holds the skinlink package (a checkout's src/).
Every command runs as `python -m skinlink.cli` with PYTHONPATH=SRC, in its
own directory OUT/<scenario>/<command>/, which receives the command's
artifacts plus stdout.txt, stderr.txt and exit_code.txt. The far link,
with arms of 1e-155 m and 1e155 m, runs every command too: its L_TH lies
below 1e-6 m and prints in exponent form, and its nearer arm lies below ten
wavelengths, so its L_FR is 0 and its thresholds exits 2 on the empty
interval; its received power underflows to 0 and its cut points lie past
float range, so its designs, side and theta0 sweep rows and cuts end in
library errors.
The inputs are written under OUT as well and passed by relative path, so no
absolute path reaches an output: four scenario files and five reflection
tables, a 22-row subsample of the synthetic table, the same subsample with
bare-CR line ends (its design writes the bytes the first one's does), a
2-row table whose reflection phases straddle +-pi (its candidates'
wrap-around midpoint lies at +-pi), a table narrower than the 1 um
synthesis step (a single candidate) and a 4-row table with gamma_xx != gamma_yy on every row (the
others mirror the two columns, so only this one tells the gamma_xx pairing
apart). Then, in this process, it builds each workload of bench/workloads.py
for seeds 1-3 in OUT/bench/<workload>/<seed>/ and runs one untimed pass
there, so the files the benchmark's checks read are kept too (what the passes
print is discarded, and no bytecode is written under bench/). Two OUT
directories made from two checkouts hold the same bytes exactly when
`diff -r OUT1 OUT2` prints nothing.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2, 3)
SCENARIOS = {
    "27ghz_33deg_14_17m": {"f_hz": "27e9", "p_tx_w": "0.1", "g_tx_dbi": "15.4",
                           "g_rx_dbi": "15.4", "r_tx_m": "14", "r_rx_m": "17",
                           "theta0_deg": "33"},
    "3p5ghz_52deg_20_25m": {"f_hz": "3.5e9", "p_tx_w": "0.1", "g_tx_dbi": "15.4",
                            "g_rx_dbi": "15.4", "r_tx_m": "20", "r_rx_m": "25",
                            "theta0_deg": "52", "delta_m": "0.03"},
    "27ghz_30deg_15_15m": {"f_hz": "27e9", "p_tx_w": "0.1", "g_tx_dbi": "15.4",
                           "g_rx_dbi": "15.4", "r_tx_m": "15", "r_rx_m": "15",
                           "theta0_deg": "30"},
    "27ghz_30deg_far_link": {"f_hz": "27e9", "p_tx_w": "0.1", "g_tx_dbi": "15.4",
                             "g_rx_dbi": "15.4", "r_tx_m": "1e-155", "r_rx_m": "1e155",
                             "theta0_deg": "30"},
}

TABLE = "../../table.csv"     # relative to a command's directory
CR_TABLE = "../../cr_table.csv"
WRAP_TABLE = "../../wrap_table.csv"
NARROW_TABLE = "../../narrow_table.csv"
ANISO_TABLE = "../../aniso_table.csv"
TABLE_HEADER = "g_m,re_gamma_xx,im_gamma_xx,re_gamma_yy,im_gamma_yy"
FIXED_TABLES = {
    # gamma = -0.8 +- 0.6j: unit magnitude, phase pi - 0.64 to -pi + 0.64
    "wrap_table.csv": ["1e-3,-0.8,0.6,-0.8,0.6", "2e-3,-0.8,-0.6,-0.8,-0.6"],
    # a 0.1 um span: the synthesis grid holds its first geometry only
    "narrow_table.csv": ["1e-3,0,1,0,1", "1.0001e-3,0,-1,0,-1"],
    # unit-magnitude gamma_yy over three quadrants, and a gamma_xx that differs
    # from it on every row, so jm_y = (1 + gamma_xx) E_x differs from a mirror's
    "aniso_table.csv": ["1e-3,0.6,0.8,-0.8,0.6", "2e-3,0,1,0.6,0.8",
                        "3e-3,-0.6,0.8,0.6,-0.8", "4e-3,-0.8,-0.6,-0.8,0.6"],
}

COMMANDS = {
    "thresholds": ["thresholds"],
    "design_0.8": ["design", "--side-l", "0.8"],
    "design_1.3": ["design", "--side-l", "1.3"],
    "design_0.6_table": ["design", "--side-l", "0.6", "--table", TABLE],
    "design_0.6_cr_table": ["design", "--side-l", "0.6", "--table", CR_TABLE],
    "sweep_side": ["sweep", "--values", "0.1:1.0:19"],
    "sweep_side_table": ["sweep", "--values", "0.1:1.0:19", "--table", TABLE],
    "sweep_theta0": ["sweep", "--variable", "theta0", "--values", "10,20,30,45",
                     "--side-l", "0.3"],
    "sweep_r_rx": ["sweep", "--variable", "r_rx", "--values", "10,20,30", "--side-l", "0.3"],
    "sweep_rho": ["sweep", "--variable", "rho", "--values", "20,30,40", "--side-l", "0.3"],
    "sweep_sub_cell_row": ["sweep", "--values", "0.001,0.1,0.2,0.4"],
    "sweep_two_rows": ["sweep", "--values", "0.2,0.6"],
    "cuts": ["cuts", "--side-l", "0.5", "--points", "21"],
    "design_0.3_wrap_table": ["design", "--side-l", "0.3", "--table", WRAP_TABLE],
    "sweep_side_wrap_table": ["sweep", "--values", "0.1:0.5:5", "--table", WRAP_TABLE],
    "design_0.3_narrow_table": ["design", "--side-l", "0.3", "--table", NARROW_TABLE],
    "sweep_side_narrow_table": ["sweep", "--values", "0.1:0.5:5", "--table", NARROW_TABLE],
    "design_0.3_aniso_table": ["design", "--side-l", "0.3", "--table", ANISO_TABLE],
    "cuts_aniso_table": ["cuts", "--side-l", "0.3", "--points", "21", "--table", ANISO_TABLE],
}


def write_tables(out: Path) -> None:
    """Every third entry of synthetic_table() (22 rows) as a table CSV, in
    OUT/table.csv with newline line ends and in OUT/cr_table.csv with bare CRs."""
    from skinlink import synthetic_table

    full = synthetic_table()
    lines = [TABLE_HEADER]
    for g, gxx, gyy in zip(full.g[::3], full.gamma_xx[::3], full.gamma_yy[::3]):
        lines.append(",".join(repr(float(v)) for v in (g, gxx.real, gxx.imag,
                                                       gyy.real, gyy.imag)))
    for name, line_end in [("table.csv", "\n"), ("cr_table.csv", "\r")]:
        (out / name).write_bytes((line_end.join(lines) + line_end).encode("ascii"))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()   # before any chdir
    if not (src / "skinlink" / "__init__.py").is_file():
        print(f"error: no skinlink package in {src}", file=sys.stderr)
        return 2
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))
    write_tables(out)
    for name, rows in FIXED_TABLES.items():
        (out / name).write_text("\n".join([TABLE_HEADER, *rows]) + "\n", encoding="ascii")
    env = dict(os.environ, PYTHONPATH=str(src))
    for scenario, keys in SCENARIOS.items():
        (out / scenario).mkdir()
        (out / scenario / "scenario.cfg").write_text(
            "".join(f"{key} = {value}\n" for key, value in keys.items()), encoding="ascii")
        for name, args in COMMANDS.items():
            run_dir = out / scenario / name
            run_dir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "skinlink.cli", *args,
                 "--scenario", "../scenario.cfg", "--out", "."],
                cwd=run_dir, env=env, capture_output=True, check=False)
            (run_dir / "stdout.txt").write_bytes(proc.stdout)
            (run_dir / "stderr.txt").write_bytes(proc.stderr)
            (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n", encoding="ascii")
            print(f"{scenario}/{name}: exit {proc.returncode}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                work = out / "bench" / name / str(seed)
                work.mkdir(parents=True)
                os.chdir(work)
                workload(seed, Path(".")).run_pass()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
