"""The benchmark's workloads: seeded inputs, one timed pass, output checks and
the reference comparison.

Each workload drives the public command-line entry point ``skinlink.cli.main``
in-process, on scenario files generated from the seed. The carrier stays at
27 GHz and the panel sides are fixed, so cell counts, and therefore the work
per pass, do not depend on the seed; the seed only moves the geometry.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skinlink import aperture, cli, ems, scenario as scenario_mod
from skinlink.errors import SkinlinkError
from skinlink.pcs import PcsPanel, pcs_currents

import reference

F_HZ = 27e9
P_TX_W = 0.1
GAIN_DBI = 15.4
SWEEP_VALUES = "0.1:1.0:19"
SWEEP_RANGE = (0.1, 1.0)
A_EMS_SLACK_DB = 0.5          # a_ems_db may exceed a_opt_db by this much


@dataclass(frozen=True)
class Geometry:
    r_tx: float
    r_rx: float
    theta0_deg: float

    def text(self) -> str:
        return (f"f_hz = {F_HZ!r}\np_tx_w = {P_TX_W!r}\n"
                f"g_tx_dbi = {GAIN_DBI!r}\ng_rx_dbi = {GAIN_DBI!r}\n"
                f"r_tx_m = {self.r_tx!r}\nr_rx_m = {self.r_rx!r}\n"
                f"theta0_deg = {self.theta0_deg!r}\n")


class Outcome:
    """Counts attempted and failed operations; keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _call_cli(argv) -> int | str:
    """Run one command; return its exit code, or the exception text if it raised."""
    try:
        return cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, the run goes on
        return f"{type(exc).__name__}: {exc}"


def _tree_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def _geometries(rng: random.Random, count: int, r_lo: float, r_hi: float):
    return [Geometry(r_tx=rng.uniform(r_lo, r_hi), r_rx=rng.uniform(r_lo, r_hi),
                     theta0_deg=rng.uniform(15.0, 45.0)) for _ in range(count)]


class Workload:
    """Base: writes one scenario file and one output directory per geometry."""

    name = ""
    why = ""

    def __init__(self, seed: int | str, workdir: Path):
        self.rng = random.Random(seed)
        self.geometries = self.make_geometries(self.rng)
        self.table = ems.synthetic_table()
        self.cases = []
        for i, geo in enumerate(self.geometries):
            scn_path = workdir / f"scenario_{i}.cfg"
            scn_path.write_text(geo.text(), encoding="ascii")
            out = workdir / f"out_{i}"
            out.mkdir(parents=True, exist_ok=True)
            self.cases.append((scn_path, out))
        self.first_outputs: list[dict[str, bytes]] | None = None
        self.codes: list = [None] * self.command_count()
        self.artifact_bytes = 0
        self.failed_rows = 0
        self.passes = 0

    def make_geometries(self, rng):
        raise NotImplementedError

    def command_count(self) -> int:
        """Commands in one pass; by default one per geometry."""
        return len(self.cases)

    def run_pass(self) -> None:
        for k in range(self.command_count()):
            self.run_command(k)

    def run_command(self, k: int) -> None:
        """The timed unit: command k of a pass; sets self.codes[k]."""
        raise NotImplementedError

    def check_pass(self, outcome: Outcome) -> None:
        """Exit codes, byte-identical artifacts across passes, then workload checks."""
        self.passes += 1
        outputs = [_tree_bytes(out) for _, out in self.cases]
        for k, code in enumerate(self.codes):
            outcome.check(code == 0, f"{self.name} command {k}: exit {code!r}")
        if self.first_outputs is None:
            self.first_outputs = outputs
        for i, (now, first) in enumerate(zip(outputs, self.first_outputs)):
            outcome.check(now == first, f"{self.name} case {i}: artifacts differ across passes")
        self.artifact_bytes = sum(len(b) for files in outputs for b in files.values())
        self.check_outputs(outcome, outputs)

    def check_outputs(self, outcome: Outcome, outputs) -> None:
        raise NotImplementedError

    def reference_error(self, outcome: Outcome) -> float:
        """Largest relative difference of sampled outputs from reference.py."""
        raise NotImplementedError

    def scenario(self, i: int):
        return scenario_mod.load_scenario(self.cases[i][0])


def _rows(csv_bytes: bytes):
    return list(csv.DictReader(io.StringIO(csv_bytes.decode("ascii"))))


class SideSweep(Workload):
    name = "side_sweep"
    why = ("The paper's sizing figure: 19 sides from 36 to 32,400 cells plus "
           "marker probes, so small panels, per-call overhead, the analysis "
           "thread pool and bisection dominate; the multi-point kernel is unused.")

    def make_geometries(self, rng):
        return _geometries(rng, 4, 12.0, 20.0)

    def run_command(self, k):
        scn, out = self.cases[k]
        self.codes[k] = _call_cli(["sweep", "--scenario", str(scn), "--values", SWEEP_VALUES,
                                   "--out", str(out)])

    def check_outputs(self, outcome, outputs):
        lo, hi = SWEEP_RANGE
        for i, files in enumerate(outputs):
            rows = _rows(files.get("sweep.csv", b""))
            outcome.check(len(rows) == 19, f"side_sweep case {i}: {len(rows)} rows")
            for row in rows:
                vals = [float(row[k]) for k in ("a_pcs_db", "a_ems_db", "a_opt_db", "a_inf_db")]
                good = all(math.isfinite(v) for v in vals)
                self.failed_rows += not good
                outcome.check(good and vals[1] <= vals[2] + A_EMS_SLACK_DB,
                              f"side_sweep case {i} side {row['value']}: {vals}")
            marks = _json(files.get("markers.json", b"{}"))
            inside = all(marks.get(key) is None or lo <= marks[key] <= hi
                         for key in ("l_th_ems_m", "l_pcs_ems_m"))
            outcome.check(inside and "l_th_ems_m" in marks,
                          f"side_sweep case {i}: markers {marks}")

    def reference_error(self, outcome):
        worst = 0.0
        for i in range(len(self.cases)):
            scn = self.scenario(i)
            rows = _rows(self.first_outputs[i]["sweep.csv"])
            for row in (rows[0], rows[9], rows[18]):
                side = float(row["value"])
                panel, _ = ems.design_panel(scn, side, self.table)
                grid = aperture.discretize(side, scn.pitch)
                for col, currents in (("a_ems_db", ems.gstc_currents(panel, scn)),
                                      ("a_pcs_db", pcs_currents(PcsPanel(grid), scn))):
                    ref = reference.path_attenuation(currents, scn)
                    worst = max(worst, reference.rel_diff(10.0 ** (float(row[col]) / 10.0), ref))
        return worst


class FieldCuts(Workload):
    name = "field_cuts"
    why = ("Field maps around the receiver: 4 maps x 225 points x 32,400 cells, "
           "where the multi-point kernel takes nearly all the time, so a kernel "
           "change shows here and nowhere else.")
    side_l = 1.0
    points = 15
    planes = ("transversal", "longitudinal")   # one command each, into one directory
    samples = 16                  # per map; the map centre is always one

    def make_geometries(self, rng):
        # r >= 15 m keeps the receiver Fresnel-valid for a 1.0 m panel.
        return _geometries(rng, 1, 15.0, 20.0)

    def command_count(self):
        return len(self.cases) * len(self.planes)

    def run_command(self, k):
        i, plane = divmod(k, len(self.planes))
        scn, out = self.cases[i]
        self.codes[k] = _call_cli(["cuts", "--scenario", str(scn), "--side-l", str(self.side_l),
                                   "--points", str(self.points), "--plane", self.planes[plane],
                                   "--out", str(out)])

    @staticmethod
    def _map(files, screen, plane):
        rows = _rows(files.get(f"cuts_{screen}_{plane}.csv", b""))
        return [(float(r["u_m"]), float(r["v_m"]), float(r["e_total_abs_v_per_m"]))
                for r in rows]

    def check_outputs(self, outcome, outputs):
        for i, files in enumerate(outputs):
            ems_map = self._map(files, "ems", "transversal")
            pcs_map = self._map(files, "pcs", "transversal")
            ok = bool(ems_map) and bool(pcs_map)
            ems_peak = max(v for *_, v in ems_map) if ok else 0.0
            pcs_peak = max(v for *_, v in pcs_map) if ok else math.inf
            outcome.check(ok and ems_peak >= pcs_peak,
                          f"field_cuts case {i}: EMS peak {ems_peak} < PCS peak {pcs_peak}")

    def reference_error(self, outcome):
        worst = 0.0
        for i in range(len(self.cases)):
            scn = self.scenario(i)
            panel, _ = ems.design_panel(scn, self.side_l, self.table)
            screens = {"ems": ems.gstc_currents(panel, scn),
                       "pcs": pcs_currents(PcsPanel(panel.grid), scn)}
            for screen, currents in screens.items():
                for plane in self.planes:
                    samples = self._map(self.first_outputs[i], screen, plane)
                    centre = len(samples) // 2
                    others = [j for j in range(len(samples)) if j != centre]
                    picks = [centre] + self.rng.sample(others, self.samples - 1)
                    refs = []
                    for j in picks:
                        u, v, value = samples[j]
                        point = reference.cut_point(scn, plane, u, v)
                        e_t, e_p = reference.field_at_point(currents, point, scn.wavelength)
                        refs.append((value, math.hypot(abs(e_t), abs(e_p))))
                    scale = max(ref for _, ref in refs)
                    worst = max(worst, *(reference.rel_diff(v, r, scale) for v, r in refs))
        return worst


class LargePanel(Workload):
    name = "large_panel"
    why = ("Realized 2.0 m layouts (129,600 cells, above the 100,000-cell "
           "compensated-sum threshold) written and read back: export_layout, "
           "import_layout and the incident field dominate.")
    side_l = 2.0

    def make_geometries(self, rng):
        # r >= 30 m keeps the receiver Fresnel-valid for a 2.0 m panel.
        return _geometries(rng, 2, 30.0, 60.0)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.layouts = [None] * len(self.cases)

    def run_command(self, i):
        scn, out = self.cases[i]
        code = _call_cli(["design", "--scenario", str(scn), "--side-l", str(self.side_l),
                          "--out", str(out)])
        layout = None
        if code == 0:
            text = (out / "layout.json").read_text(encoding="ascii")
            try:
                layout = aperture.import_layout(text)
            except SkinlinkError as exc:
                code = f"import_layout: {exc}"
        self.codes[i] = code
        self.layouts[i] = layout

    def check_outputs(self, outcome, outputs):
        for i, files in enumerate(outputs):
            report = _json(files.get("design_report.json", b"{}"))
            ok = "a_ems_db" in report and "a_opt_db" in report
            outcome.check(ok and report["a_ems_db"] <= report["a_opt_db"] + A_EMS_SLACK_DB,
                          f"large_panel case {i}: report {report}")

    def reference_error(self, outcome):
        worst = 0.0
        for i in range(len(self.cases)):
            scn = self.scenario(i)
            panel, _ = ems.design_panel(scn, self.side_l, self.table)
            imported = self.layouts[i]
            ok = (imported is not None
                  and np.array_equal(imported[0].values, panel.d.values)
                  and imported[1]["L_m"] == panel.grid.side_l)
            if not outcome.check(ok, f"large_panel case {i}: layout does not round-trip"):
                continue
            report = _json(self.first_outputs[i]["design_report.json"])
            read_back = ems.EmsPanel(grid=panel.grid, d=imported[0], table=self.table)
            for col, currents in (("a_ems_db", ems.gstc_currents(read_back, scn)),
                                  ("a_pcs_db", pcs_currents(PcsPanel(panel.grid), scn))):
                ref = reference.path_attenuation(currents, scn)
                worst = max(worst, reference.rel_diff(10.0 ** (report[col] / 10.0), ref))
        return worst


def _json(raw: bytes) -> dict:
    try:
        return json.loads(raw.decode("ascii"))
    except ValueError:
        return {}


class SweepDesign:
    """The side_sweep pass followed by the large_panel pass, on one process.

    Both are Python-heavy and share the incident-field and synthesis paths.
    On a shared host their pass times drift with the neighbours' load over
    tens of seconds, so they run as one workload, which leaves each run
    long enough to average the drift out.
    """

    name = "sweep_design"
    why = ("The paper's sizing sweep on 4 geometries, then 2.0 m layouts "
           "written and read back on 2: analysis, synthesis, incident fields and "
           "layout export/import dominate; the multi-point kernel is unused.")
    parts = (SideSweep, LargePanel)

    def __init__(self, seed: int, workdir: Path):
        self.workloads = []
        for part in self.parts:
            (workdir / part.name).mkdir(parents=True, exist_ok=True)
            self.workloads.append(part(f"{seed}/{part.name}", workdir / part.name))
        self.commands = [(w, k) for w in self.workloads for k in range(w.command_count())]

    def command_count(self) -> int:
        return len(self.commands)

    def run_command(self, k: int) -> None:
        workload, j = self.commands[k]
        workload.run_command(j)

    def run_pass(self) -> None:
        for w in self.workloads:
            w.run_pass()

    def check_pass(self, outcome: Outcome) -> None:
        for w in self.workloads:
            w.check_pass(outcome)

    def reference_error(self, outcome: Outcome) -> float:
        return max(w.reference_error(outcome) for w in self.workloads)

    @property
    def passes(self) -> int:
        return self.workloads[0].passes

    @property
    def failed_rows(self) -> int:
        return sum(w.failed_rows for w in self.workloads)

    @property
    def artifact_bytes(self) -> int:
        return sum(w.artifact_bytes for w in self.workloads)


WORKLOADS = {w.name: w for w in (SweepDesign, FieldCuts)}
