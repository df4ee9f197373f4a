"""Conducting-screen currents, finite-panel attenuation and the asymptote."""

import math

import numpy as np
import pytest

import skinlink as sk

from helpers import make_scenario, spherical_wave_fields


def test_magnetic_current_vanishes(baseline):
    grid = sk.discretize(0.1, baseline.pitch)
    currents = sk.pcs_currents(sk.PcsPanel(grid=grid), baseline)
    assert np.all(currents.jm_x == 0.0)
    assert np.all(currents.jm_y == 0.0)


def test_normal_incidence_current_magnitude():
    scenario = make_scenario(theta0_deg=0.0)
    grid = sk.discretize(5 * scenario.pitch, scenario.pitch)
    currents = sk.pcs_currents(sk.PcsPanel(grid=grid), scenario)
    e, _ = spherical_wave_fields(scenario, *grid.cell_grid())
    je_mag = np.sqrt(np.abs(currents.je_x) ** 2 + np.abs(currents.je_y) ** 2)
    expected = 2.0 * np.linalg.norm(e, axis=-1) / sk.ETA0
    # exact on boresight (center cell), within the wavefront tilt elsewhere
    center = grid.p_count // 2
    assert je_mag[center, center] == pytest.approx(expected[center, center], rel=1e-12)
    np.testing.assert_allclose(je_mag, expected, rtol=1e-3)


def test_current_phase_tracks_incident_spherical_wave(baseline):
    grid = sk.discretize(0.2, baseline.pitch)
    currents = sk.pcs_currents(sk.PcsPanel(grid=grid), baseline)
    X, Y = grid.cell_grid()
    tx = baseline.tx_position
    d = np.sqrt((X - tx[0]) ** 2 + (Y - tx[1]) ** 2 + tx[2] ** 2)
    k = 2.0 * math.pi / baseline.wavelength
    ref = (0, 0)
    dphi = np.angle(currents.je_y) - np.angle(currents.je_y[ref])
    expected = -k * (d - d[ref])
    err = np.angle(np.exp(1j * (dphi - expected)))
    assert np.max(np.abs(err)) < 1e-9


def test_tpa_independent_of_transmit_power(baseline):
    low = sk.pcs_tpa(baseline, 0.4)
    high = sk.pcs_tpa(make_scenario(p_tx=10.0), 0.4)
    assert abs(low - high) <= 1e-12 * low


def test_tpa_matches_reported_value(baseline):
    a = sk.db(sk.pcs_tpa(baseline, 0.8))
    assert abs(a - (-63.5)) <= 1.5


def test_small_panel_reaches_ideal_bound(baseline):
    a = sk.db(sk.pcs_tpa(baseline, 0.15))
    bound = sk.db(sk.ems_upper_bound_tpa(baseline, sk.discretize(
        0.15, baseline.pitch).side_l))
    assert abs(a - bound) <= 1.0


def test_asymptote_value(baseline):
    a_inf = sk.db(sk.pcs_asymptotic_tpa(baseline))
    assert abs(a_inf - (-59.8)) <= 0.05


def test_asymptote_ignores_incidence_angle(baseline):
    for deg in (0.0, 20.0, 45.0, 80.0):
        assert sk.pcs_asymptotic_tpa(make_scenario(theta0_deg=deg)) == \
            sk.pcs_asymptotic_tpa(baseline)


def test_asymptote_gain_scaling(baseline):
    import dataclasses
    halved = dataclasses.replace(baseline, g_tx=baseline.g_tx / 2.0,
                                 g_rx=baseline.g_rx / 2.0)
    drop = sk.db(sk.pcs_asymptotic_tpa(baseline)) - sk.db(sk.pcs_asymptotic_tpa(halved))
    assert drop == pytest.approx(6.0206, abs=1e-3)


def test_specular_peaking(baseline):
    grid = sk.discretize(32 * baseline.pitch, baseline.pitch)
    currents = sk.pcs_currents(sk.PcsPanel(grid=grid), baseline)
    r = 100.0 * grid.side_l
    thetas = np.radians(np.arange(0.0, 89.5, 0.5))
    pts = np.stack([r * np.sin(thetas), np.zeros_like(thetas),
                    r * np.cos(thetas)], axis=1)
    e_theta, e_phi = sk.scattered_field_at_points(currents, pts, baseline.wavelength)
    mag = np.hypot(np.abs(e_theta), np.abs(e_phi))
    peak = math.degrees(thetas[int(np.argmax(mag))])
    assert abs(peak - 30.0) <= 2.0


def test_finite_panel_can_beat_asymptote(sweep19):
    a_inf = sweep19[0].a_inf
    assert any(row.a_pcs > a_inf for row in sweep19)


def test_small_aperture_growth(baseline, sweep19):
    l_th = sk.l_threshold(baseline)
    small = [r.a_pcs for r in sweep19 if r.value <= l_th / 2.0]
    values = [sk.pcs_tpa(baseline, 0.05)] + small
    assert len(values) >= 3
    assert all(a < b for a, b in zip(values, values[1:]))


def test_scenario_delta_sets_the_cell_pitch(table):
    scenario = make_scenario(delta=4e-3)      # half a wavelength is 5.55 mm
    panel, _ = sk.design_panel(scenario, 0.1, table)
    assert (panel.grid.pitch, panel.grid.p_count) == (4e-3, 25)
    grid = sk.discretize(0.1, 4e-3)
    currents = sk.pcs_currents(sk.PcsPanel(grid=grid), scenario)
    at_delta = sk.receiver_tpa(currents, scenario)
    assert sk.pcs_tpa(scenario, 0.1) == at_delta
    assert sk.pcs_tpa(make_scenario(), 0.1) != at_delta
