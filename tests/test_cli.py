"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skinlink as sk
from skinlink.cli import build_parser, main

from helpers import count_incident_fields, subsampled_table, table_csv

BASE_CONFIG = """\
f_hz = 27e9
p_tx_w = 0.1
g_tx_dbi = 15.4
g_rx_dbi = 15.4
r_tx_m = 15
r_rx_m = 15
theta0_deg = 30
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE_CONFIG)
    return str(path)


def test_thresholds_outputs(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["thresholds", "--scenario", scenario_file, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "L_TH = 0.310" in printed
    assert "L_FR = 1.060" in printed
    doc = json.loads((out / "markers.json").read_text())
    assert doc["l_th_m"] == pytest.approx(0.310, abs=0.002)
    assert doc["l_fr_m"] == pytest.approx(1.060, abs=0.002)
    assert doc["nonempty"] is True
    assert doc["l_th_ems_m"] is None


def test_thresholds_empty_interval_exit_code(tmp_path):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(BASE_CONFIG.replace("r_tx_m = 15", "r_tx_m = 1000")
                   .replace("r_rx_m = 15", "r_rx_m = 1"))
    code = main(["thresholds", "--scenario", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_thresholds_near_grazing_warning(tmp_path, capsys):
    cfg = tmp_path / "graze.cfg"
    cfg.write_text(BASE_CONFIG.replace("theta0_deg = 30", "theta0_deg = 89.9"))
    code = main(["thresholds", "--scenario", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    # the threshold side blows up near grazing, so the interval is empty here
    assert code == 2
    assert "near-grazing" in captured.err
    assert "L_TH" in captured.out


def test_bad_config_exit_and_message(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CONFIG + "mystery_knob = 3\n")
    code = main(["thresholds", "--scenario", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "line 8" in capsys.readouterr().err


def test_missing_scenario_file(tmp_path, capsys):
    code = main(["thresholds", "--scenario", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)])
    assert code == 1


def test_undecodable_scenario_exit(tmp_path, capsys):
    cfg = tmp_path / "micro.cfg"
    cfg.write_bytes(BASE_CONFIG.encode("ascii") + b"# 30 \xb5m\n")   # latin-1 micro sign
    out = tmp_path / "o"
    code = main(["thresholds", "--scenario", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8 text" in err
    assert not out.exists()


def test_undecodable_table_exit(scenario_file, tmp_path, capsys):
    table_path = tmp_path / "bom.csv"
    table_path.write_bytes(b"\xef\xbb\xbf" + table_csv(sk.synthetic_table()).encode("ascii"))
    out = tmp_path / "o"
    code = main(["design", "--scenario", scenario_file, "--side-l", "0.1",
                 "--table", str(table_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not ASCII text" in err
    assert not out.exists()


def test_design_artifacts_and_determinism(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["design", "--scenario", scenario_file, "--side-l", "0.2",
                     "--out", str(out)])
        assert code == 0
    layout1 = (out1 / "layout.json").read_bytes()
    assert layout1 == (out2 / "layout.json").read_bytes()
    report = json.loads((out1 / "design_report.json").read_text())
    assert report["cell_count"] == 36 ** 2
    assert report["phi_total_rad2"] >= 0.0
    assert report["a_ems_db"] <= report["a_opt_db"]
    d, meta = sk.import_layout(layout1.decode("ascii"))
    scenario = sk.load_scenario(scenario_file)
    assert meta["f_hz"] == scenario.f == 27e9
    assert meta["scenario_hash"] == sk.scenario_fingerprint(scenario)
    assert d.values.shape == (36, 36)


def test_design_baseline_panel_report(scenario_file, tmp_path):
    out = tmp_path / "design08"
    code = main(["design", "--scenario", scenario_file, "--side-l", "0.8",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "design_report.json").read_text())
    assert report["cell_count"] == 144 ** 2
    assert report["ring_count"] > 1


def test_design_single_cell_panel(tmp_path, scenario_file):
    out = tmp_path / "single"
    pitch = sk.wavelength(27e9) / 2.0
    code = main(["design", "--scenario", scenario_file, "--side-l", str(pitch),
                 "--out", str(out)])
    assert code == 0
    d, _ = sk.import_layout((out / "layout.json").read_text())
    assert d.values.shape == (1, 1)
    report = json.loads((out / "design_report.json").read_text())
    assert report["phi_total_rad2"] >= 0.0


@pytest.mark.parametrize("cells", [1, 2])
def test_design_one_and_two_cell_panels_have_one_ring(tmp_path, scenario_file, cells):
    # the center-to-corner diagonal holds one cell, so it has no geometry reset
    out = tmp_path / "o"
    pitch = sk.wavelength(27e9) / 2.0
    assert main(["design", "--scenario", scenario_file, "--side-l", repr(cells * pitch),
                 "--out", str(out)]) == 0
    report = json.loads((out / "design_report.json").read_text())
    assert report["cell_count"] == cells ** 2
    assert report["ring_count"] == 1


def test_design_with_table_csv(scenario_file, tmp_path):
    table_path = tmp_path / "cells.csv"
    table_path.write_text(table_csv(subsampled_table(4)))
    out = tmp_path / "ext"
    code = main(["design", "--scenario", scenario_file, "--side-l", "0.1",
                 "--table", str(table_path), "--out", str(out)])
    assert code == 0
    assert (out / "layout.json").exists()


def test_design_reads_a_bare_cr_table_as_its_newline_copy(scenario_file, tmp_path, capsys):
    text = table_csv(subsampled_table(4))
    for name, line_end in [("lf", "\n"), ("cr", "\r")]:
        (tmp_path / f"{name}.csv").write_bytes(text.replace("\n", line_end).encode("ascii"))
        code = main(["design", "--scenario", scenario_file, "--side-l", "0.1",
                     "--table", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)])
        assert code == 0
    assert capsys.readouterr().err == ""
    assert _tree(tmp_path / "cr") == _tree(tmp_path / "lf")


def test_design_quoted_table_field_exit(scenario_file, tmp_path, capsys):
    lines = table_csv(subsampled_table(4)).splitlines()
    lines[1] = ",".join(f'"{v}"' for v in lines[1].split(","))
    table_path = tmp_path / "quoted.csv"
    table_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "q"
    code = main(["design", "--scenario", scenario_file, "--side-l", "0.1",
                 "--table", str(table_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: cannot parse value for 'g_m'\n"
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_sweep_csv_and_markers(scenario_file, tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", "--scenario", scenario_file, "--variable", "side_l",
                 "--values", "0.2:0.5:4", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "var,value,a_pcs_db,a_ems_db,a_opt_db,a_inf_db,fresnel_ok"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "side_l"
    assert first[6] in ("true", "false")
    doc = json.loads((out / "markers.json").read_text())
    assert "l_th_ems_m" in doc and "l_pcs_ems_present" in doc


def test_sweep_failed_row_line(scenario_file, tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", "--scenario", scenario_file, "--values", "0.001,0.1,0.2",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "side_l,0.001,nan,nan,nan,nan,false"
    assert "row 0.001: GeometryError: " in capsys.readouterr().err
    # each dB column is the writer's dB of the library's linear figure
    rows = sk.sweep(sk.load_scenario(scenario_file), "side_l", [0.001, 0.1, 0.2],
                    sk.synthetic_table())
    for line, row in zip(lines[1:], rows, strict=True):
        figures = (row.a_pcs, row.a_ems, row.a_opt, row.a_inf)
        assert line.split(",")[2:6] == [repr(sk.db(a)) for a in figures]


@pytest.mark.parametrize("argv", [["design", "--side-l", "0.2"],
                                  ["sweep", "--values", "0.1,0.2,0.3"]])
def test_unallocatable_panel_exit(scenario_file, tmp_path, capsys, monkeypatch, argv):
    # stands in for numpy's allocation failure on a huge panel, which a test
    # must not provoke: with overcommit the allocation can succeed and be killed
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.31 TiB for an array")

    monkeypatch.setattr(sk.ems, "synthesize_layout", too_large)
    code = main([*argv, "--scenario", scenario_file, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error: Unable to allocate 1.31 TiB for an array\n"


_BOUND_ERROR = "antenna distances put the ideal-skin bound out of float range"


@pytest.fixture
def tiny_arm_file(tmp_path):
    # (4 pi r_tx r_rx)^2 underflows to 0, the divisor of the ideal-skin bound
    path = tmp_path / "tiny.cfg"
    path.write_text(BASE_CONFIG.replace("r_tx_m = 15", "r_tx_m = 1e-300"))
    return str(path)


def test_design_tiny_arm_exit(tiny_arm_file, tmp_path, capsys):
    code = main(["design", "--scenario", tiny_arm_file, "--side-l", "0.01",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {_BOUND_ERROR}\n"


def test_sweep_tiny_arm_rejected_at_load(tiny_arm_file, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", tiny_arm_file, "--values", "0.01,0.02,0.03",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {_BOUND_ERROR}\n"
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("variable, errors", [
    ("r_rx", [_BOUND_ERROR, "received power is out of float range"]),
    ("rho", [_BOUND_ERROR, _BOUND_ERROR]),
])
def test_sweep_tiny_swept_arm_records_every_row(scenario_file, tmp_path, capsys,
                                                variable, errors):
    # a 1e-300 m arm underflows (4 pi r_tx r_rx)^2; at 1e-160 m the receiver
    # sits so close to the panel that the received power overflows
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", scenario_file, "--variable", variable,
                 "--values", "1e-300,1e-160,1", "--side-l", "0.1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == "".join(
        f"row {v}: DomainError: {e}\n" for v, e in zip(("1e-300", "1e-160"), errors))
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1:3] == [f"{variable},{v},nan,nan,nan,nan,false" for v in ("1e-300", "1e-160")]
    assert lines[3].startswith(f"{variable},1.0,") and "nan" not in lines[3]


def _config_file(tmp_path, **values):
    """BASE_CONFIG with the given keys set, appended where it lacks them."""
    lines = [line for line in BASE_CONFIG.splitlines() if line.split(" =")[0] not in values]
    path = tmp_path / "edge.cfg"
    path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in values.items()]) + "\n")
    return str(path)


_INDEX_ERROR = "panel side {} m has too many cells of {} m for an array"


# 1e-19 m cells: 2e18 per axis, 1.6e19 bytes of float64, more than numpy can describe
@pytest.mark.parametrize("side, delta", [("0.1", "1e-300"), ("1e300", "1e-10"),
                                         ("0.2", "1e-19")])
def test_design_uncountable_cells_exit(tmp_path, capsys, side, delta):
    cfg = _config_file(tmp_path, delta_m=delta)
    out = tmp_path / "o"
    code = main(["design", "--scenario", cfg, "--side-l", side, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {_INDEX_ERROR.format(float(side), float(delta))}\n"
    assert not out.exists()


def test_sweep_uncountable_cells_records_every_row(tmp_path, capsys):
    cfg = _config_file(tmp_path, delta_m="1e-300")
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", cfg, "--values", "0.1,0.2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "".join(
        f"row {v}: GeometryError: {_INDEX_ERROR.format(v, 1e-300)}\n" for v in (0.1, 0.2))
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1:] == [f"side_l,{v},nan,nan,nan,nan,false" for v in (0.1, 0.2)]


_LIMIT_ERROR = "the link puts the infinite-screen limit out of float range"


@pytest.mark.parametrize("argv, replace, message", [
    (["thresholds"], {"r_tx_m": "1e200", "r_rx_m": "1e200"}, _BOUND_ERROR),
    (["design", "--side-l", "0.1"], {"r_tx_m": "1e200", "r_rx_m": "1e200"}, _BOUND_ERROR),
    # L_TH is about 11 km here, but (4 pi r_tx r_rx)^2 overflows
    (["thresholds"], {"r_tx_m": "1e305", "r_rx_m": "1e10"}, _BOUND_ERROR),
    (["thresholds"], {"f_hz": "1e300"}, _LIMIT_ERROR),
], ids=["thresholds-1e200-arms", "design-1e200-arms", "thresholds-1e305-arm",
        "thresholds-1e300-hz"])
def test_link_out_of_float_range_exit(tmp_path, capsys, argv, replace, message):
    out = tmp_path / "o"
    code = main([*argv, "--scenario", _config_file(tmp_path, **replace), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "markers.json").exists()


_AREA_ERROR = "cell pitch 1e+200 m has an area out of float range"


def test_design_single_cell_beyond_float_area_exit(tmp_path, capsys):
    # one 1e200 m cell: its area, and the cube in the Fresnel bound, overflow
    cfg = _config_file(tmp_path, delta_m="1e200")
    out = tmp_path / "o"
    code = main(["design", "--scenario", cfg, "--side-l", "1e200", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {_AREA_ERROR}\n"
    assert not out.exists()
    code = main(["sweep", "--scenario", cfg, "--values", "1e200", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"row 1e+200: GeometryError: {_AREA_ERROR}\n"
    assert (out / "sweep.csv").read_text().splitlines()[1:] == [
        "side_l,1e+200,nan,nan,nan,nan,false"]


def test_design_single_cell_beyond_fresnel_cube_exit(tmp_path, capsys):
    # side_l**3 overflows in the Fresnel bound, and side_l**4 in the ideal-skin bound
    cfg = _config_file(tmp_path, delta_m="1e103")
    code = main(["design", "--scenario", cfg, "--side-l", "1e103",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    warning, error = capsys.readouterr().err.splitlines()
    assert warning == ("warning: receiver at r = 15.000 m is inside the "
                       "Fresnel bound 3.129e+155 m for L = 1.000e+103 m")
    assert error == "error: ideal-skin bound of a 1e+103 m panel is out of float range"


def test_thresholds_fresnel_side_past_float_square(tmp_path, capsys):
    # L_FR inverts the Fresnel bound at the nearer arm. A valid link keeps that
    # arm below about 3.3e76 m, so (r / 0.62)^2 stays finite; on a huge
    # symmetric link L_FR, its cube root, is about 1.0e46 m
    cfg = _config_file(tmp_path, r_tx_m="1e70", r_rx_m="1e70")
    out = tmp_path / "o"
    code = main(["thresholds", "--scenario", cfg, "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    # lengths of 1e6 m and more print in exponent form
    assert printed.out.splitlines()[:2] == ["L_TH = 8.006600e+33 m", "L_FR = 1.007031e+46 m"]
    l_fr = json.loads((out / "markers.json").read_text())["l_fr_m"]
    wavelength = sk.load_scenario(cfg).wavelength
    log_l_fr = (math.log(wavelength / (2.0 * math.sqrt(2.0)))
                + 2.0 * math.log(1e70 / 0.62)) / 3.0
    assert l_fr == pytest.approx(math.exp(log_l_fr), rel=1e-12)
    # on the far link the nearer arm, 1e-155 m, is below ten wavelengths, so no
    # side is valid: L_FR is 0 and the interval empty; lengths below 1e-6 m
    # print in exponent form
    cfg = _config_file(tmp_path, r_tx_m="1e-155", r_rx_m="1e155")
    code = main(["thresholds", "--scenario", cfg, "--out", str(tmp_path / "far")])
    assert code == 2
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed.out.splitlines() == ["L_TH = 3.580661e-79 m", "L_FR = 0.000000 m",
                                        "interval empty"]


_UNDERFLOW_ERROR = "path attenuation P_rx/P_tx underflows to 0"


def test_design_underflowed_received_power_exit(tmp_path, capsys):
    # a receiver 1e155 m away: P_rx/P_tx underflows to 0, which has no dB figure
    cfg = _config_file(tmp_path, r_tx_m="1e-155", r_rx_m="1e155")
    out = tmp_path / "o"
    code = main(["design", "--scenario", cfg, "--side-l", "0.8", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "warning: transmitter at r = 1.000e-155 m is inside the Fresnel bound 11.306 m "
        f"for L = 0.799 m\nerror: {_UNDERFLOW_ERROR}\n")
    assert not out.exists()


def test_sweep_underflowed_received_power_records_every_row(tmp_path, capsys):
    cfg = _config_file(tmp_path, r_tx_m="1e-155", r_rx_m="1e155")
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", cfg, "--values", "0.1,0.2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "".join(
        f"row {v}: DomainError: {_UNDERFLOW_ERROR}\n" for v in (0.1, 0.2))
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1:] == [f"side_l,{v},nan,nan,nan,nan,false" for v in (0.1, 0.2)]
    doc = json.loads((out / "markers.json").read_text())
    assert doc["l_th_ems_present"] is False and doc["l_pcs_ems_present"] is False


def test_sweep_far_link_rows_flag_the_transmitter_arm(tmp_path, capsys):
    # the transmitter 1e-155 m from the panel is inside any panel's Fresnel bound,
    # so every row is flagged although the receiver arm is valid
    cfg = _config_file(tmp_path, r_tx_m="1e-155", r_rx_m="1e155")
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", cfg, "--variable", "r_rx", "--values", "10,20,30",
                 "--side-l", "0.3", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["r_rx", v] for v in ("10.0", "20.0", "30.0")]
    assert all(row.endswith(",false") for row in rows)


# (r_tx, r_rx) in m, and the arm a 0.2 m panel's 2.826 m Fresnel bound warns about
_ARM_LINKS = [((2.0, 15.0), "transmitter"), ((15.0, 2.0), "receiver"),
              ((2.0, 2.0), "receiver"), ((15.0, 15.0), None)]


@pytest.mark.parametrize("arms, arm", _ARM_LINKS)
def test_design_warns_exactly_when_the_row_is_fresnel_invalid(tmp_path, capsys, arms, arm):
    cfg = _config_file(tmp_path, r_tx_m=str(arms[0]), r_rx_m=str(arms[1]))
    row = sk.analysis.evaluate_point(sk.load_scenario(cfg), 0.2, sk.synthetic_table())
    assert main(["design", "--scenario", cfg, "--side-l", "0.2",
                 "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err
    assert (err != "") == (not row.fresnel_ok) == (arm is not None)
    if arm:
        r = format(min(arms), ".3f")
        assert err == (f"warning: {arm} at r = {r} m is inside the Fresnel bound "
                       "2.826 m for L = 0.200 m\n")


def test_design_warns_from_the_first_whole_cell_side_past_thresholds_l_fr(tmp_path, capsys):
    # thresholds' L_FR is the nearer arm's, so on a 14/17 m link the whole-cell
    # side just below it is Fresnel-valid and the one just above it warns about
    # the 14 m transmitter
    cfg = _config_file(tmp_path, r_tx_m="14", r_rx_m="17", theta0_deg="33")
    assert main(["thresholds", "--scenario", cfg, "--out", str(tmp_path / "t")]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "L_FR = 0.989949 m"
    l_fr = json.loads((tmp_path / "t" / "markers.json").read_text())["l_fr_m"]
    pitch = sk.load_scenario(cfg).pitch
    cells = math.floor(l_fr / pitch)
    for p, err in ((cells, ""),
                   (cells + 1, "warning: transmitter at r = 14.000 m is inside the Fresnel "
                               "bound 14.054 m for L = 0.994 m\n")):
        assert main(["design", "--scenario", cfg, "--side-l", repr(p * pitch),
                     "--out", str(tmp_path / str(p))]) == 0
        assert capsys.readouterr().err == err


def test_cuts_distance_past_float_range_exit(tmp_path, capsys):
    # the cut points lie 1e155 m away, where the squares in their distance overflow
    cfg = _config_file(tmp_path, r_tx_m="1e-155", r_rx_m="1e155")
    out = tmp_path / "o"
    code = main(["cuts", "--scenario", cfg, "--side-l", "0.5", "--points", "21",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "warning: transmitter at r = 1.000e-155 m is inside the Fresnel bound 7.066 m "
        "for L = 0.500 m\nerror: observation distance is out of float range\n")
    assert not out.exists()


def test_sweep_overflowing_field_prints_only_the_row_error(tmp_path, capsys):
    # 1e300 W and a receiver 1e-160 m away: the field itself leaves float range
    cfg = _config_file(tmp_path, p_tx_w="1e300")
    code = main(["sweep", "--scenario", cfg, "--variable", "r_rx", "--values", "1e-160,1",
                 "--side-l", "0.1", "--out", str(tmp_path / "o")])
    assert code == 0
    assert capsys.readouterr().err == (
        "row 1e-160: DomainError: received power is out of float range\n")


def test_sweep_rerun_byte_identical(scenario_file, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["sweep", "--scenario", scenario_file, "--values",
                     "0.2:0.4:3", "--out", str(out)]) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_empty_values_exit(scenario_file, tmp_path, capsys):
    code = main(["sweep", "--scenario", scenario_file, "--values", "",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["abc", "0.1:1.0:x", "0.1:y:3", "0.2,nan"])
def test_sweep_malformed_values_exit(scenario_file, tmp_path, capsys, values):
    code = main(["sweep", "--scenario", scenario_file, "--values", values,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_thresholds_non_finite_config_exit(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(BASE_CONFIG.replace("f_hz = 27e9", "f_hz = nan"))
    code = main(["thresholds", "--scenario", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err
    assert "L_TH" not in captured.out


def test_thresholds_gain_overflow_exit(tmp_path, capsys):
    cfg = tmp_path / "loud.cfg"
    cfg.write_text(BASE_CONFIG.replace("g_tx_dbi = 15.4", "g_tx_dbi = 4000"))
    code = main(["thresholds", "--scenario", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_side_l_with_fixed_side_exit(scenario_file, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", scenario_file, "--values", "0.1,0.2",
                 "--side-l", "0.5", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a fixed panel side is not used by a side_l sweep"]
    assert not out.exists()


def test_sweep_bad_variable_exit(scenario_file, tmp_path):
    code = main(["sweep", "--scenario", scenario_file, "--variable", "frequency",
                 "--values", "1,2", "--out", str(tmp_path / "o")])
    assert code == 1


def test_sweep_rho_rows(scenario_file, tmp_path):
    out = tmp_path / "rho"
    code = main(["sweep", "--scenario", scenario_file, "--variable", "rho",
                 "--values", "40,60", "--side-l", "0.3", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("rho,")


def test_sweep_theta0_from_normal_incidence(scenario_file, tmp_path):
    out = tmp_path / "th"
    code = main(["sweep", "--scenario", scenario_file, "--variable", "theta0",
                 "--values", "0,10,20", "--side-l", "0.3", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("theta0,0.0,") and lines[1].endswith(",true")


@pytest.mark.parametrize("values", ["-5,10", "10,90", "10,95"])
def test_sweep_theta0_out_of_range_exit(scenario_file, tmp_path, capsys, values):
    out = tmp_path / "o"
    code = main(["sweep", "--scenario", scenario_file, "--variable", "theta0",
                 f"--values={values}", "--side-l", "0.3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: theta0 sweep values must lie in [0, pi/2)"]
    assert not out.exists()


def test_cuts_artifacts(scenario_file, tmp_path):
    out = tmp_path / "cuts"
    code = main(["cuts", "--scenario", scenario_file, "--side-l", "0.2",
                 "--plane", "transversal", "--extent", "1.0", "--points", "11",
                 "--out", str(out)])
    assert code == 0
    for screen in ("pcs", "ems"):
        csv_path = out / f"cuts_{screen}_transversal.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "u_m,v_m,e_phi_abs_v_per_m,e_total_abs_v_per_m"
        assert len(lines) == 1 + 11 * 11
        meta = json.loads((out / f"cuts_{screen}_transversal.meta.json").read_text())
        assert meta["plane"] == "transversal"
        assert meta["points"] == 11


def test_cut_csv_reads_back_as_the_map_arrays(scenario_file, tmp_path):
    out = tmp_path / "cuts"
    code = main(["cuts", "--scenario", scenario_file, "--side-l", "0.2",
                 "--extent", "0.5", "--points", "5", "--out", str(out)])
    assert code == 0
    scenario = sk.load_scenario(scenario_file)
    panel, _ = sk.design_panel(scenario, 0.2, sk.synthetic_table())
    screens = {"pcs": sk.pcs_currents(sk.PcsPanel(grid=panel.grid), scenario),
               "ems": sk.gstc_currents(panel, scenario)}
    for plane in ("transversal", "longitudinal"):
        cut = sk.FieldCut(plane=plane, half_extent=0.5, points=5)
        for screen, currents in screens.items():
            cut_map = sk.field_cut_map(currents, cut, scenario)
            lines = (out / f"cuts_{screen}_{plane}.csv").read_text().splitlines()[1:]
            cols = np.array([[float(v) for v in line.split(",")] for line in lines]).T
            # rows run over v within each u
            assert np.array_equal(cols[0], np.repeat(cut_map.u, cut_map.v.size))
            assert np.array_equal(cols[1], np.tile(cut_map.v, cut_map.u.size))
            assert np.array_equal(cols[2], cut_map.e_phi_abs.reshape(-1))
            assert np.array_equal(cols[3], cut_map.e_total_abs.reshape(-1))


def test_cuts_zero_extent_single_point(scenario_file, tmp_path):
    out = tmp_path / "point"
    code = main(["cuts", "--scenario", scenario_file, "--side-l", "0.2",
                 "--plane", "longitudinal", "--extent", "0", "--points", "11",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "cuts_ems_longitudinal.csv").read_text().splitlines()
    assert len(lines) == 2


def test_cuts_bad_plane_exit(scenario_file, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["cuts", "--scenario", scenario_file, "--side-l", "0.2",
                 "--plane", "diagonal", "--out", str(out)])
    assert code == 1
    assert "error: unknown cut plane 'diagonal'" in capsys.readouterr().err
    assert not out.exists()


def test_cuts_out_of_range_extent_exit(scenario_file, tmp_path):
    # a cut larger than the receiver distance dips under the panel plane
    out = tmp_path / "o"
    code = main(["cuts", "--scenario", scenario_file, "--side-l", "0.2",
                 "--plane", "longitudinal", "--extent", "40", "--points", "5",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


_SIDE_ERROR = "panel side and pitch must be finite"


@pytest.mark.parametrize("argv, message", [
    (["design", "--side-l", "nan"], "error: " + _SIDE_ERROR),
    (["design", "--side-l", "inf"], "error: " + _SIDE_ERROR),
    (["cuts", "--side-l", "nan"], "error: " + _SIDE_ERROR),
    (["cuts", "--side-l", "0.2", "--extent", "nan", "--points", "3"],
     "error: cut extent must be finite"),
    (["sweep", "--variable", "r_rx", "--values", "20", "--side-l", "inf"],
     "error: a finite, positive fixed panel side is required for a r_rx sweep"),
    (["sweep", "--variable", "r_rx", "--values", "20,30", "--side-l", "0.001"],
     "error: fixed panel side 0.001 m is smaller than one cell"),
], ids=["design-nan-side", "design-inf-side", "cuts-nan-side", "cuts-nan-extent",
        "sweep-inf-side", "sweep-subcell-side"])
def test_non_finite_geometry_exit(scenario_file, tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    code = main(argv[:1] + ["--scenario", scenario_file, "--out", str(out)] + argv[1:])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["design", "--scenario", "SCN", "--side-l", "abc"],
    ["design", "--side-l", "0.2"],
    ["design", "--scenario", "SCN", "--side-l", "0.2", "--no-such-flag"],
    ["thresholds", "--scenario", "SCN", "--table", "x.csv"],
    ["thresholds", "--scenario", "SCN", "--strict-fresnel"],
    ["thresholds", "--scenario", "SCN", "--centered-cells"],
    ["design", "--scenario", "SCN", "--side-l", "0.2", "--centered-cells"],
    ["sweep", "--scenario", "SCN", "--values", "0.2,0.3", "--centered-cells"],
    ["cuts", "--scenario", "SCN", "--side-l", "0.2", "--centered-cells"],
    ["sweep", "--scenario", "SCN", "--values", "0.2,0.3", "--strict-fresnel"],
    ["cuts", "--scenario", "SCN", "--side-l", "0.2", "--points", "many"],
    [],
], ids=["design-bad-float", "design-no-scenario", "design-unknown-flag",
        "thresholds-table", "thresholds-strict-fresnel", "thresholds-centered-cells",
        "design-centered-cells", "sweep-centered-cells", "cuts-centered-cells",
        "sweep-strict-fresnel", "cuts-bad-int", "no-command"])
def test_usage_error_exit(scenario_file, tmp_path, capsys, argv):
    # exit 1 like any bad input; for thresholds, 2 would read as an empty interval
    out = tmp_path / "o"
    code = main([scenario_file if a == "SCN" else a for a in argv] + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["thresholds", "--help"])
    assert stop.value.code == 0
    usage = capsys.readouterr().out
    assert "--scenario" in usage and "--table" not in usage


def test_parser_is_built_once_and_keeps_no_state(scenario_file, tmp_path, capsys):
    """One parser serves every call of main in a process: a usage error, then
    design, then sweep give the exit codes, output and artifacts of calls that
    each build a fresh parser."""
    assert build_parser() is build_parser()
    commands = [
        ["design", "--scenario", scenario_file, "--side-l", "0.1", "--points", "5"],
        ["design", "--scenario", scenario_file, "--side-l", "0.1"],
        ["sweep", "--scenario", scenario_file, "--values", "0.1,0.15"],
    ]

    def run(tag, fresh):
        results = []
        for i, argv in enumerate(commands):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / tag / str(i)
            code = main(argv + ["--out", str(out)])
            captured = capsys.readouterr()
            artifacts = {path.name: path.read_bytes() for path in sorted(out.glob("*"))}
            results.append((code, captured.out, captured.err, artifacts))
        return results

    cached = run("cached", fresh=False)
    assert [code for code, *_ in cached] == [1, 0, 0]
    assert sorted(cached[1][3]) == ["design_report.json", "layout.json"]
    assert sorted(cached[2][3]) == ["markers.json", "sweep.csv"]
    assert run("fresh", fresh=True) == cached


_NEAR_FIELD = ("receiver at r = 2.000 m is inside the Fresnel bound 2.826 m "
               "for L = 0.200 m")
_FRESNEL_ARGV = {
    "design": ["design", "--side-l", "0.2"],
    "cuts": ["cuts", "--side-l", "0.2", "--extent", "0.5", "--points", "3"],
}


@pytest.fixture
def near_scenario_file(tmp_path):
    path = tmp_path / "near.cfg"
    path.write_text(BASE_CONFIG.replace("r_rx_m = 15", "r_rx_m = 2"))
    return str(path)


@pytest.mark.parametrize("command", sorted(_FRESNEL_ARGV))
def test_strict_fresnel_rejects_near_receiver(near_scenario_file, tmp_path, capsys,
                                              command):
    out = tmp_path / "o"
    argv = _FRESNEL_ARGV[command]
    code = main(argv[:1] + ["--scenario", near_scenario_file, "--out", str(out),
                            "--strict-fresnel"] + argv[1:])
    assert code == 1
    assert "error: " + _NEAR_FIELD in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_FRESNEL_ARGV))
def test_near_receiver_warns_once(near_scenario_file, tmp_path, capsys, command):
    # one plain stderr line; filterwarnings = error proves no Python warning too
    out = tmp_path / "o"
    argv = _FRESNEL_ARGV[command]
    code = main(argv[:1] + ["--scenario", near_scenario_file, "--out", str(out)]
                + argv[1:])
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: ") and _NEAR_FIELD in lines[0]
    assert out.exists()


def test_sweep_and_design_agree_on_fresnel(scenario_file, tmp_path):
    # 1.0625 m lies beyond L_FR = 1.0607 m, but snaps to 191 cells, 1.0604 m,
    # which is the panel both commands evaluate and check
    out = tmp_path / "sw"
    assert main(["sweep", "--scenario", scenario_file, "--values", "1.0625",
                 "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("side_l,1.0625,") and lines[1].endswith(",true")
    assert main(["design", "--scenario", scenario_file, "--side-l", "1.0625",
                 "--strict-fresnel", "--out", str(tmp_path / "d")]) == 0


def test_cuts_ems_peak_dominates(scenario_file, tmp_path):
    out = tmp_path / "peaks"
    code = main(["cuts", "--scenario", scenario_file, "--side-l", "1.0",
                 "--plane", "transversal", "--extent", "1.5", "--points", "31",
                 "--out", str(out)])
    assert code == 0

    def peak(screen):
        rows = (out / f"cuts_{screen}_transversal.csv").read_text().splitlines()[1:]
        return max(float(r.split(",")[3]) for r in rows)

    assert peak("ems") >= peak("pcs")


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("argv", [
    ["design", "--side-l", "0.3"],
    ["cuts", "--side-l", "0.2", "--plane", "transversal", "--points", "5"],
], ids=["design", "cuts"])
def test_command_computes_its_incident_field_once(scenario_file, tmp_path, monkeypatch,
                                                  argv):
    calls, computed = count_incident_fields(monkeypatch)
    assert main([*argv, "--scenario", scenario_file, "--out", str(tmp_path)]) == 0
    assert (len(calls), len(computed)) == (3, 1)


def test_in_process_commands_write_what_fresh_processes_write(scenario_file, tmp_path,
                                                             capsys):
    """No state carried between commands in one process (the synthetic table is
    one shared instance, the incident field is shared within a command) can make
    a later command write other bytes than a fresh process does."""
    other = tmp_path / "other.cfg"
    other.write_text(BASE_CONFIG.replace("r_rx_m = 15", "r_rx_m = 18")
                     .replace("theta0_deg = 30", "theta0_deg = 40"))
    design_a = ["design", "--scenario", scenario_file, "--side-l", "0.3"]
    sweep_a = ["sweep", "--scenario", scenario_file, "--values", "0.1:0.3:5"]
    design_b = ["design", "--scenario", str(other), "--side-l", "0.3"]
    printed = {}
    for name, argv in [("a1", design_a), ("b", design_b), ("a2", design_a), ("s", sweep_a)]:
        assert main([*argv, "--out", str(tmp_path / "in" / name)]) == 0
        printed[name] = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(sk.__file__).resolve().parents[1]))
    for name, argv in [("a", design_a), ("s", sweep_a)]:
        run = subprocess.run([sys.executable, "-m", "skinlink.cli", *argv,
                              "--out", str(tmp_path / "fresh" / name)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0
        printed[f"fresh_{name}"] = (run.stdout, run.stderr)
    fresh_a = _tree(tmp_path / "fresh" / "a")
    assert _tree(tmp_path / "in" / "a1") == fresh_a == _tree(tmp_path / "in" / "a2")
    assert _tree(tmp_path / "in" / "s") == _tree(tmp_path / "fresh" / "s")
    for name in ("a1", "a2"):
        assert (printed[name].out, printed[name].err) == printed["fresh_a"]
    assert (printed["s"].out, printed["s"].err) == printed["fresh_s"]
