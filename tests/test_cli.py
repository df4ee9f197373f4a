"""Command-line interface: subcommands, artifacts, exit codes, determinism."""

import json

import pytest

import skinlink as sk
from skinlink.cli import main

from helpers import subsampled_table, table_csv

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
    assert meta["f_hz"] == 27e9
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


def test_design_with_table_csv(scenario_file, tmp_path):
    table_path = tmp_path / "cells.csv"
    table_path.write_text(table_csv(subsampled_table(4)))
    out = tmp_path / "ext"
    code = main(["design", "--scenario", scenario_file, "--side-l", "0.1",
                 "--table", str(table_path), "--out", str(out)])
    assert code == 0
    assert (out / "layout.json").exists()


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


_NEAR_FIELD = ("observation at r = 2.000 m is inside the Fresnel bound 2.826 m "
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
