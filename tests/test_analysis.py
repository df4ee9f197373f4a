"""Sizing thresholds, sweeps, crossing markers and margin metrics."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import skinlink as sk
from skinlink import analysis

from helpers import make_scenario


def test_threshold_side_values(baseline, baseline_50m):
    assert sk.l_threshold(baseline) == pytest.approx(0.310, abs=0.002)
    assert sk.l_threshold(baseline_50m) == pytest.approx(0.566, abs=0.002)


def test_threshold_side_normal_incidence():
    s = make_scenario(theta0_deg=0.0, r_tx=12.0, r_rx=12.0)
    assert sk.l_threshold(s) == pytest.approx(
        math.sqrt(s.wavelength * 12.0 / 2.0), rel=1e-12)


def test_grazing_is_rejected_at_construction():
    with pytest.raises(sk.DomainError):
        make_scenario(theta0_deg=90.0)


def test_fresnel_side_values(baseline, baseline_50m):
    assert sk.l_fresnel(baseline) == pytest.approx(1.060, abs=0.002)
    assert sk.l_fresnel(baseline_50m) == pytest.approx(2.945, abs=0.002)


def test_fresnel_side_small_receiver_distance():
    lam = sk.wavelength(27e9)
    s = make_scenario(r_rx=10.0 * lam)
    # at ten wavelengths the linear branch is the binding one
    assert sk.l_fresnel(s) == pytest.approx(s.r_rx / (10.0 * math.sqrt(2.0)), rel=1e-12)
    with pytest.raises(sk.FresnelValidityError):
        sk.l_fresnel(make_scenario(r_rx=9.0 * lam))


def test_optimality_interval_baseline(baseline):
    interval = sk.optimality_interval(baseline)
    assert interval.nonempty
    assert interval.l_th == pytest.approx(0.310, abs=0.002)
    assert interval.l_fr == pytest.approx(1.060, abs=0.002)


def test_optimality_interval_long_link():
    s = make_scenario(r_tx=1000.0, r_rx=1000.0)
    assert sk.l_threshold(s) == pytest.approx(2.532, abs=0.005)


def test_empty_interval_and_its_crossing():
    # with a remote transmitter the threshold outgrows the Fresnel side at
    # short receiver distances; locate the crossing numerically and check
    # emptiness flips around it
    def gap(r_rx):
        s = make_scenario(r_tx=1000.0, r_rx=r_rx)
        return sk.l_threshold(s) - sk.l_fresnel(s)

    lo, hi = 0.2, 30.0
    assert gap(lo) > 0.0 > gap(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    below = sk.optimality_interval(make_scenario(r_tx=1000.0, r_rx=0.8 * crossing))
    above = sk.optimality_interval(make_scenario(r_tx=1000.0, r_rx=1.2 * crossing))
    assert not below.nonempty
    assert above.nonempty


def test_threshold_scaling_with_link_length(baseline):
    for rho in (400.0, 2000.0):
        s = make_scenario(r_tx=rho / 2.0, r_rx=rho / 2.0)
        exact = math.sqrt(s.wavelength * rho / (4.0 * math.cos(s.theta0)))
        assert sk.l_threshold(s) == pytest.approx(exact, rel=1e-12)
        assert sk.l_threshold(s) / math.sqrt(rho) == pytest.approx(0.056, abs=0.002)
    s400 = make_scenario(r_tx=200.0, r_rx=200.0)
    s2000 = make_scenario(r_tx=1000.0, r_rx=1000.0)
    assert sk.l_threshold(s400) == pytest.approx(1.132, abs=0.005)
    assert sk.l_threshold(s2000) == pytest.approx(2.532, abs=0.005)


def test_sweep_asymptote_constant(sweep19):
    ref = sweep19[0].a_inf
    for row in sweep19:
        assert row.a_inf == pytest.approx(ref, rel=1e-14)


def test_sweep_small_panels_track_the_bound(baseline, sweep19):
    # in the quadratic-growth regime all three finite figures stay within 1 dB
    half_th = sk.l_threshold(baseline) / 2.0
    rows = [r for r in sweep19 if r.value <= half_th]
    assert rows
    for row in rows:
        trio = [row.a_pcs_db, row.a_ems_db, row.a_opt_db]
        assert max(trio) - min(trio) <= 1.0


def test_sweep_flags_fresnel_invalid_rows(baseline, table):
    rows = sk.sweep(baseline, "side_l", [0.8, 1.0625, 1.2, 1.4], table)
    by_value = {round(r.value, 4): r for r in rows}
    assert by_value[0.8].fresnel_ok
    # 1.0625 m snaps to 191 cells, 1.0604 m, inside the 1.0607 m Fresnel side:
    # the flag checks the snapped side that was evaluated, not the requested one
    assert by_value[1.0625].fresnel_ok
    for row in rows:
        side = sk.discretize(row.value, baseline.pitch).side_l
        assert row.fresnel_ok == (
            baseline.r_rx >= sk.fresnel_min_distance(side, baseline.wavelength))
    assert not by_value[1.4].fresnel_ok       # needs r >= 19.8 m, have 15 m
    assert by_value[1.4].error is None        # flagged, not dropped


def test_sweep_validation(baseline, table):
    with pytest.raises(sk.DomainError):
        sk.sweep(baseline, "side_l", [], table)
    with pytest.raises(sk.DomainError):
        sk.sweep(baseline, "side_l", [0.5, 0.3], table)
    with pytest.raises(sk.DomainError):
        sk.sweep(baseline, "side_l", [-0.1, 0.5], table)
    with pytest.raises(sk.DomainError):
        sk.sweep(baseline, "side_l", [0.2, math.nan], table)
    with pytest.raises(sk.DomainError, match="not used by a side_l sweep"):
        sk.sweep(baseline, "side_l", [0.2, 0.3], table, side_l=0.5)
    with pytest.raises(sk.DomainError):
        sk.sweep(baseline, "r_rx", [20.0], table)          # missing side
    for side in (math.nan, math.inf, 0.0):
        with pytest.raises(sk.DomainError, match="fixed panel side"):
            sk.sweep(baseline, "r_rx", [20.0], table, side_l=side)
    for variable, value in (("r_rx", 20.0), ("theta0", 0.5), ("rho", 30.0)):
        with pytest.raises(sk.DomainError, match="smaller than one cell"):
            sk.sweep(baseline, variable, [value], table, side_l=0.5 * baseline.pitch)
    with pytest.raises(sk.DomainError):
        sk.sweep(baseline, "frequency", [1.0], table, side_l=0.5)


def test_sweep_propagates_programming_errors(baseline, table, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(analysis, "evaluate_point", broken)
    with pytest.raises(RuntimeError):
        sk.sweep(baseline, "side_l", [0.2, 0.3], table, workers=1)


def test_sweep_records_library_error_type(baseline, table, monkeypatch):
    def degenerate(*args, **kwargs):
        raise sk.GeometryError("degenerate panel")

    monkeypatch.setattr(analysis, "evaluate_point", degenerate)
    rows = sk.sweep(baseline, "side_l", [0.2], table, workers=1)
    assert rows[0].error == "GeometryError: degenerate panel"
    assert math.isnan(rows[0].a_ems)


def test_threaded_sweep_leaves_warning_filters_alone(baseline, table):
    # warnings.catch_warnings saves and restores the process-wide filter list,
    # so worker threads that enter and leave it concurrently can leak filters
    before = list(warnings.filters)
    for _ in range(10):
        sk.sweep(baseline, "side_l", [0.05, 0.06, 0.07, 0.08], table, workers=2)
    assert warnings.filters == before


def test_rho_sweep_splits_the_link(baseline, table):
    rows = sk.sweep(baseline, "rho", [60.0], table, side_l=0.4)
    split = dataclasses.replace(baseline, r_tx=30.0, r_rx=30.0)
    assert rows[0].a_inf == pytest.approx(sk.pcs_asymptotic_tpa(split), rel=1e-12)
    assert rows[0].a_opt == pytest.approx(
        sk.ems_upper_bound_tpa(split, sk.discretize(0.4, split.pitch).side_l),
        rel=1e-12)


def test_receiver_distance_sweep_beats_asymptote(table):
    s = make_scenario(g_dbi=25.5)
    s = dataclasses.replace(s, r_tx=15.0)
    rows = sk.sweep(s, "r_rx", [300.0], table, side_l=1.2)
    row = rows[0]
    assert row.error is None
    assert row.a_ems > row.a_inf
    assert row.a_ems <= row.a_opt


def test_sweep_parallel_matches_serial(baseline, table):
    values = [0.2, 0.4, 0.6]
    serial = sk.sweep(baseline, "side_l", values, table, workers=1)
    parallel = sk.sweep(baseline, "side_l", values, table, workers=3)
    for a, b in zip(serial, parallel):
        assert a.a_pcs == b.a_pcs
        assert a.a_ems == b.a_ems
        assert a.a_opt == b.a_opt
        assert a.a_inf == b.a_inf


def test_markers_located(baseline, markers19):
    assert markers19.l_th_ems is not None
    assert 0.310 <= markers19.l_th_ems <= 0.388
    # any realizable screen crosses at or after the ideal threshold side
    assert markers19.l_th_ems >= sk.l_threshold(baseline) - 1e-3
    assert markers19.l_pcs_ems is not None
    assert markers19.l_pcs_ems <= markers19.l_th_ems + 0.2


def test_markers_are_exact_panel_sides(baseline, table, markers19):
    # each marker is the side of a whole panel that wins while one cell fewer
    # does not; bisection does not promise the smallest such count
    pitch = baseline.pitch
    diffs = {"l_th_ems": lambda r: r.a_ems - r.a_inf,
             "l_pcs_ems": lambda r: r.a_ems - r.a_pcs}
    for name, diff in diffs.items():
        side = getattr(markers19, name)
        p = round(side / pitch)
        assert side == p * pitch
        assert sk.discretize(side, pitch).p_count == p
        assert diff(analysis.evaluate_point(baseline, (p - 1) * pitch, table)) <= 0.0
        assert diff(analysis.evaluate_point(baseline, side, table)) > 0.0


def test_markers_evaluate_each_cell_count_once(baseline, table, sweep19, monkeypatch):
    probed = []
    evaluate = analysis.evaluate_point

    def counting(scenario, side_l, *args, **kwargs):
        probed.append(sk.discretize(side_l, scenario.pitch).p_count)
        return evaluate(scenario, side_l, *args, **kwargs)

    monkeypatch.setattr(analysis, "evaluate_point", counting)
    found = sk.markers(sweep19, baseline, table)
    assert found.l_th_ems is not None and found.l_pcs_ems is not None
    assert probed
    assert len(set(probed)) == len(probed)
    rows = {sk.discretize(r.value, baseline.pitch).p_count for r in sweep19}
    assert rows.isdisjoint(probed)


def test_markers_absent_without_crossing(baseline, table):
    rows = sk.sweep(baseline, "side_l", [0.1, 0.15, 0.2], table)
    found = sk.markers(rows, baseline, table)
    assert found.l_th_ems is None


def test_markers_degenerate_table(pec_table):
    # a gamma = -1 skin is the screen, so A_ems - A_pcs is rounding noise of
    # either sign (about 4e-16 relative at 20 degrees, 10/15 m) and never a win
    for geometry, sides in [(dict(), [0.2, 0.4, 0.6, 0.8]),
                            (dict(r_tx=10.0, r_rx=15.0, theta0_deg=20.0),
                             [0.1, 0.2, 0.3, 0.4, 0.5])]:
        scenario = make_scenario(**geometry)
        rows = sk.sweep(scenario, "side_l", sides, pec_table)
        found = sk.markers(rows, scenario, pec_table)
        assert found.l_pcs_ems is None, geometry


def test_markers_needs_rows(baseline, table):
    with pytest.raises(sk.DomainError):
        sk.markers([], baseline, table)


def test_delta_metrics_arithmetic(sweep19):
    # the dB margins between a row's figures are the dB of their ratios
    row = sweep19[-1]
    assert row.a_ems_db - row.a_pcs_db == pytest.approx(
        10.0 * math.log10(row.a_ems / row.a_pcs), abs=1e-12)
    assert row.a_ems_db - row.a_inf_db == pytest.approx(
        10.0 * math.log10(row.a_ems / row.a_inf), abs=1e-12)
    assert row.a_ems_db - row.a_opt_db == pytest.approx(
        10.0 * math.log10(row.a_ems / row.a_opt), abs=1e-12)


def test_delta_metrics_identical_screens():
    row = sk.TpaSweepRow(variable="side_l", value=0.4, a_pcs=1e-6, a_ems=1e-6,
                         a_opt=2e-6, a_inf=5e-7, fresnel_ok=True)
    assert row.a_ems_db - row.a_pcs_db == 0.0


def test_delta_metrics_baseline_margins(sweep19):
    # margins of the lossless ideal-table skin at the 0.8 m point; bands are
    # the realized-cell figures widened by the allowed ideal-table headroom
    # (see decisions ledger)
    row = next(r for r in sweep19 if abs(r.value - 0.8) < 1e-9)
    assert 12.0 <= row.a_ems_db - row.a_pcs_db <= 21.6
    assert 9.8 <= row.a_ems_db - row.a_inf_db <= 16.4
    assert -6.6 <= row.a_ems_db - row.a_opt_db <= 0.0


def test_delta_opt_capped_over_sweep(sweep19):
    for row in sweep19:
        assert row.a_ems_db - row.a_opt_db <= 0.5


def test_margin_growth_with_ripple(markers19, sweep19):
    # the screen-vs-skin margin keeps growing beyond the crossing side, up to
    # the finite-panel diffraction ripple of the plain screen (<= 1 dB)
    start = markers19.l_pcs_ems
    tail = [r.a_ems_db - r.a_pcs_db for r in sweep19 if r.value >= start]
    assert len(tail) >= 3
    running_max = -math.inf
    for margin in tail:
        assert margin >= running_max - 1.0
        running_max = max(running_max, margin)
