"""Command-line front end: thresholds, design, sweep and cuts subcommands.

All file artifacts are deterministic: identical configs and inputs produce
byte-identical outputs (no timestamps inside data files). The library returns
linear ratios; the writers here put them in dB.

The Fresnel rule is field_engine's (the nearer arm sets L_FR, fresnel_ok and
this check): design and cuts check once, after building the panel, and only
pick a warning or an error. The library's attenuation functions only evaluate.
Each subcommand accepts only the flags it reads; a usage error exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, ems
from .aperture import export_layout, scenario_fingerprint
from .errors import ConfigError, SkinlinkError
from .field_engine import (FieldCut, field_cut_maps, format_length, fresnel_error, nearer_arm,
                           receiver_tpa)
from .pcs import PcsPanel, pcs_currents, pcs_tpa
from .scenario import LinkScenario, db, load_scenario, shared_incident_fields

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY_INTERVAL = 2

_NEAR_GRAZING = math.radians(85.0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1 through main, not 2 from argparse
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, so every call of main reads the same tree."""
    parser = _Parser(
        prog="skinlink",
        description="NLOS specular link analysis with passive reflective screens")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, text, run in [
            ("thresholds", "closed-form panel sizing interval", cmd_thresholds),
            ("design", "synthesize a skin layout", cmd_design),
            ("sweep", "sweep a scenario variable and tabulate TPA", cmd_sweep),
            ("cuts", "field-magnitude maps around the receiver", cmd_cuts)]:
        cmd[name] = sub.add_parser(name, help=text)
        cmd[name].set_defaults(run=run)
    for p in cmd.values():
        p.add_argument("--scenario", required=True, help="scenario config file")
        p.add_argument("--out", default=".", help="output directory")
    for name in ("design", "sweep", "cuts"):    # the commands that synthesize skins
        cmd[name].add_argument("--table", default="synthetic",
                               help="reflection table CSV path, or 'synthetic' (default)")
    for name in ("design", "cuts"):             # one panel, one receiver check
        cmd[name].add_argument("--side-l", type=float, required=True, help="panel side [m]")
        cmd[name].add_argument("--strict-fresnel", action="store_true",
                               help="reject Fresnel-invalid geometry instead of warning")

    p = cmd["sweep"]
    p.add_argument("--variable", default="side_l",
                   help=f"one of {', '.join(analysis.SWEEP_VARIABLES)}")
    p.add_argument("--values", required=True,
                   help="comma list or start:stop:count (SI units; degrees for theta0)")
    p.add_argument("--side-l", type=float, default=None,
                   help="fixed panel side [m] (required for r_rx, theta0 and rho "
                        "sweeps, rejected for side_l)")

    p = cmd["cuts"]
    p.add_argument("--plane", default="both",
                   help="transversal, longitudinal or both")
    p.add_argument("--extent", type=float, default=3.0,
                   help="half extent of the cut around the receiver [m]")
    p.add_argument("--points", type=int, default=61, help="samples per cut axis")
    return parser


def _parse_values(spec: str, variable: str) -> list[float]:
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            values = list(np.linspace(float(start), float(stop), int(count)))
        else:
            values = [float(v) for v in spec.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {spec!r}, expected a comma list or "
                          f"start:stop:count ({exc})") from exc
    if not values:
        raise ConfigError("empty sweep values")
    if variable == "theta0":
        values = [math.radians(v) for v in values]
    return values


def _load_table(arg: str) -> ems.ReflectionLookupTable:
    if arg == "synthetic":
        return ems.synthetic_table()
    return ems.load_reflection_table(arg)


def _check_arms(args, scenario: LinkScenario, panel: ems.EmsPanel) -> None:
    """The command's one Fresnel check, field_engine's nearer-arm rule, named in
    the message: strict raises its error, else one stderr warning line."""
    exc = fresnel_error(panel.grid.side_l, scenario.wavelength, *nearer_arm(scenario))
    if exc is None:
        return
    if args.strict_fresnel:
        raise exc
    print(f"warning: {exc}", file=sys.stderr)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict) -> None:
    """The one JSON artifact format: indent 1, sorted keys, ASCII, trailing newline."""
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")


def _write_markers(path: Path, interval, marker_set=None) -> None:
    l_th_ems = marker_set.l_th_ems if marker_set else None
    l_pcs_ems = marker_set.l_pcs_ems if marker_set else None
    _write_json(path, {
        "l_th_m": interval.l_th,
        "l_fr_m": interval.l_fr,
        "nonempty": interval.nonempty,
        "l_th_ems_m": l_th_ems,
        "l_th_ems_present": l_th_ems is not None,
        "l_pcs_ems_m": l_pcs_ems,
        "l_pcs_ems_present": l_pcs_ems is not None,
    })


def cmd_thresholds(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.theta0 > _NEAR_GRAZING:
        print("warning: near-grazing incidence, the threshold side grows without bound",
              file=sys.stderr)
    interval = analysis.optimality_interval(scenario)
    print(f"L_TH = {format_length(interval.l_th, 6)} m")
    print(f"L_FR = {format_length(interval.l_fr, 6)} m")
    print(f"interval {'nonempty' if interval.nonempty else 'empty'}")
    _write_markers(_outdir(args) / "markers.json", interval)
    return EXIT_OK if interval.nonempty else EXIT_EMPTY_INTERVAL


def _ring_count(matrix: np.ndarray, g_lo: float, g_hi: float) -> int:
    """Concentric-band count: 1 + geometry resets along the center-to-corner diagonal."""
    diag = np.diagonal(matrix)[matrix.shape[0] // 2:]
    jumps = np.abs(np.diff(diag)) > 0.5 * (g_hi - g_lo)
    return 1 + int(jumps.sum())


def cmd_design(args) -> int:
    scenario = load_scenario(args.scenario)
    table = _load_table(args.table)
    with shared_incident_fields():    # synthesis and both screens read one field
        panel, targets = ems.design_panel(scenario, args.side_l, table)
        _check_arms(args, scenario, panel)
        a_pcs = pcs_tpa(scenario, args.side_l)    # before the skin's, so one current set is held
        currents = ems.gstc_currents(panel, scenario)   # one current set for both figures
        phi = ems.synthesis_mismatch(panel.grid, currents, targets)
        a_ems = receiver_tpa(currents, scenario)
        del currents
    a_opt = ems.ems_upper_bound_tpa(scenario, panel.grid.side_l)
    rings = _ring_count(panel.d.values, *table.g_range)

    out = _outdir(args)
    (out / "layout.json").write_text(export_layout(panel.d, panel.grid, scenario),
                                     encoding="ascii")
    _write_json(out / "design_report.json", {
        "cell_count": panel.grid.cell_count,
        "side_l_m": panel.grid.side_l,
        "pitch_m": panel.grid.pitch,
        "phi_total_rad2": phi,
        "ring_count": rings,
        "a_ems_db": db(a_ems),
        "a_opt_db": db(a_opt),
        "a_pcs_db": db(a_pcs),
    })
    print(f"cells: {panel.grid.p_count} x {panel.grid.p_count}")
    print(f"residual phase mismatch: {phi:.6g} rad^2")
    print(f"ring count: {rings}")
    print(f"TPA achieved {db(a_ems):.2f} dB vs ideal {db(a_opt):.2f} dB")
    return EXIT_OK


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    table = _load_table(args.table)
    values = _parse_values(args.values, args.variable)
    rows = analysis.sweep(scenario, args.variable, values, table, side_l=args.side_l)
    out = _outdir(args)
    lines = ["var,value,a_pcs_db,a_ems_db,a_opt_db,a_inf_db,fresnel_ok"]
    for row in rows:    # a failed row's nan figures print as nan, its flag as false
        figures = [_fmt(db(a)) for a in (row.a_pcs, row.a_ems, row.a_opt, row.a_inf)]
        lines.append(",".join([row.variable, _fmt(row.value), *figures,
                               str(row.fresnel_ok).lower()]))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    interval = analysis.optimality_interval(scenario)
    marker_set = analysis.markers(rows, scenario, table) if args.variable == "side_l" else None
    _write_markers(out / "markers.json", interval, marker_set)
    for row in rows:
        if row.error is not None:
            print(f"row {row.value}: {row.error}", file=sys.stderr)
    print(f"wrote {len(rows)} sweep rows")
    return EXIT_OK if any(row.error is None for row in rows) else EXIT_ERROR


def _write_cut(out: Path, name: str, cut_map, scenario) -> None:
    lines = ["u_m,v_m,e_phi_abs_v_per_m,e_total_abs_v_per_m"]
    # Python floats from tolist() print as _fmt prints the numpy scalars
    vs = cut_map.v.tolist()
    for u, phi_row, total_row in zip(cut_map.u.tolist(), cut_map.e_phi_abs.tolist(),
                                     cut_map.e_total_abs.tolist()):
        lines += [f"{u!r},{v!r},{e_phi!r},{e_total!r}"
                  for v, e_phi, e_total in zip(vs, phi_row, total_row)]
    (out / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    _write_json(out / f"{name}.meta.json", {
        "plane": cut_map.cut.plane,
        "half_extent_m": cut_map.cut.half_extent,
        "points": int(cut_map.u.size),
        "receiver_r_m": scenario.r_rx,
        "theta0_rad": scenario.theta0,
        "scenario_hash": scenario_fingerprint(scenario),
    })


def cmd_cuts(args) -> int:
    """The PCS and EMS field maps of each cut plane. Both screens of a cut go
    through one field_cut_maps call: they share its phasors, and each
    contracts only its own live components."""
    planes = ["transversal", "longitudinal"] if args.plane == "both" else [args.plane]
    cuts = [FieldCut(plane=plane, half_extent=args.extent, points=args.points)
            for plane in planes]
    scenario = load_scenario(args.scenario)
    table = _load_table(args.table)
    with shared_incident_fields():    # synthesis and both screens read one field
        panel, _ = ems.design_panel(scenario, args.side_l, table)
        # every map shares the panel and the link, so one Fresnel check covers all
        _check_arms(args, scenario, panel)
        screens = {
            "pcs": pcs_currents(PcsPanel(grid=panel.grid), scenario),
            "ems": ems.gstc_currents(panel, scenario),
        }
    maps = [(f"cuts_{screen}_{cut.plane}", cut_map) for cut in cuts
            for screen, cut_map in zip(screens, field_cut_maps(screens.values(), cut, scenario))]
    out = _outdir(args)
    for name, cut_map in maps:
        _write_cut(out, name, cut_map, scenario)
    print(f"wrote {len(maps)} cut maps")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (SkinlinkError, OSError, MemoryError) as exc:   # MemoryError: a panel too large
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
