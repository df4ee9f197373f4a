"""Radiation sum, received power, Fresnel bound, oracle and field cuts."""

import math

import numpy as np
import pytest

import skinlink as sk

from helpers import make_scenario

LAMBDA = sk.wavelength(27e9)
DELTA = LAMBDA / 2.0


def random_currents(grid, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid.p_count, grid.q_count)

    def draw():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return sk.SurfaceCurrents(je_x=draw(), je_y=draw(), jm_x=draw(), jm_y=draw(),
                              grid=grid)


def zero_currents(grid):
    shape = (grid.p_count, grid.q_count)
    z = np.zeros(shape, dtype=complex)
    return sk.SurfaceCurrents(je_x=z, je_y=z.copy(), jm_x=z.copy(), jm_y=z.copy(),
                              grid=grid)


def test_beta_center_cell_vanishes():
    obs = sk.ObservationPoint(r=12.0, theta=0.7, phi=1.1)
    assert sk.beta((0.0, 0.0), obs) == 0.0


def test_beta_hand_value():
    obs = sk.ObservationPoint(r=15.0, theta=math.radians(30.0), phi=0.0)
    expected = 0.1 * 0.5 - 0.75 * 0.01 / 30.0
    assert sk.beta((0.1, 0.0), obs) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(4.975e-2, abs=1e-9)


def test_beta_far_field_limit():
    obs = sk.ObservationPoint(r=1e12, theta=math.radians(40.0), phi=math.radians(25.0))
    s = math.sin(obs.theta)
    xs = np.linspace(-3.0, 3.0, 13)
    for x in xs:
        for y in xs:
            linear = x * s * math.cos(obs.phi) + y * s * math.sin(obs.phi)
            assert abs(sk.beta((x, y), obs) - linear) < 1e-9


def test_observation_point_validation():
    with pytest.raises(sk.GeometryError):
        sk.ObservationPoint(r=0.0, theta=0.3, phi=0.0)
    with pytest.raises(sk.GeometryError):
        sk.ObservationPoint(r=1.0, theta=2.0, phi=0.0)


def test_scattered_zero_currents():
    grid = sk.discretize(8 * DELTA, DELTA)
    field = sk.scattered_field(zero_currents(grid),
                               sk.ObservationPoint(r=50.0, theta=0.4, phi=0.1),
                               LAMBDA)
    assert field.e_theta == 0.0
    assert field.e_phi == 0.0


def test_scattered_single_cell_broadside_closed_form():
    grid = sk.discretize(DELTA, DELTA, centered=True)
    shape = (1, 1)
    currents = sk.SurfaceCurrents(
        je_x=np.zeros(shape, complex), je_y=np.ones(shape, complex),
        jm_x=np.zeros(shape, complex), jm_y=np.zeros(shape, complex), grid=grid)
    r = 5.0
    field = sk.scattered_field(currents, sk.ObservationPoint(r=r, theta=0.0, phi=0.0),
                               LAMBDA, fresnel="off")
    k = 2.0 * math.pi / LAMBDA
    expected = -1j * np.exp(-1j * k * r) / (2.0 * LAMBDA * r) * DELTA**2 * sk.ETA0
    assert field.e_theta == pytest.approx(0.0, abs=1e-12)
    assert field.e_phi == pytest.approx(expected, rel=1e-12)


def test_scattered_linearity():
    grid = sk.discretize(8 * DELTA, DELTA)
    a = random_currents(grid, seed=1)
    b = random_currents(grid, seed=2)
    both = sk.SurfaceCurrents(je_x=a.je_x + b.je_x, je_y=a.je_y + b.je_y,
                              jm_x=a.jm_x + b.jm_x, jm_y=a.jm_y + b.jm_y, grid=grid)
    double = sk.SurfaceCurrents(je_x=2 * a.je_x, je_y=2 * a.je_y,
                                jm_x=2 * a.jm_x, jm_y=2 * a.jm_y, grid=grid)
    obs = sk.ObservationPoint(r=40.0, theta=0.5, phi=0.3)
    fa = sk.scattered_field(a, obs, LAMBDA)
    fb = sk.scattered_field(b, obs, LAMBDA)
    fab = sk.scattered_field(both, obs, LAMBDA)
    f2a = sk.scattered_field(double, obs, LAMBDA)
    scale = abs(fab.e_phi) + abs(fab.e_theta)
    assert abs(fab.e_theta - (fa.e_theta + fb.e_theta)) < 1e-12 * scale
    assert abs(fab.e_phi - (fa.e_phi + fb.e_phi)) < 1e-12 * scale
    assert abs(f2a.e_theta - 2 * fa.e_theta) < 1e-12 * scale
    assert abs(f2a.e_phi - 2 * fa.e_phi) < 1e-12 * scale


def test_received_power_values():
    assert sk.received_power(sk.ScatteredField(0.0, 0.0), 1.0, LAMBDA) == 0.0
    one = sk.received_power(sk.ScatteredField(e_theta=1.0, e_phi=0.0), 1.0, LAMBDA)
    expected = LAMBDA**2 / (8.0 * math.pi * sk.ETA0)
    assert one == pytest.approx(expected, rel=1e-15)
    assert one == pytest.approx(1.3020973376031308e-08, rel=1e-12)
    four = sk.received_power(sk.ScatteredField(e_theta=2.0, e_phi=0.0), 1.0, LAMBDA)
    assert four == pytest.approx(4.0 * one, rel=1e-15)
    assert sk.received_power(sk.ScatteredField(0.3 + 1j, -2.1j), 7.0, LAMBDA) >= 0.0


def test_fresnel_min_distance_values():
    d = sk.fresnel_min_distance(0.8, LAMBDA)
    assert d == pytest.approx(11.3137, abs=2e-4)
    mid = 0.62 * math.sqrt(2.0 * 0.8**3 * math.sqrt(2.0) / LAMBDA)
    assert mid == pytest.approx(7.08, abs=0.01)
    assert d == pytest.approx(max(10.0 * 0.8 * math.sqrt(2.0), mid, 10.0 * LAMBDA),
                              rel=1e-14)
    assert sk.fresnel_min_distance(1e-6, LAMBDA) == pytest.approx(10.0 * LAMBDA, rel=1e-12)
    assert sk.fresnel_min_distance(2.9, LAMBDA) == pytest.approx(48.869, abs=1e-3)


def test_fresnel_modes():
    grid = sk.discretize(8 * DELTA, DELTA)
    currents = random_currents(grid)
    near = sk.ObservationPoint(r=0.3, theta=0.2, phi=0.0)
    with pytest.warns(sk.FresnelValidityWarning):
        sk.scattered_field(currents, near, LAMBDA, fresnel="warn")
    with pytest.raises(sk.FresnelValidityError):
        sk.scattered_field(currents, near, LAMBDA, fresnel="strict")
    sk.scattered_field(currents, near, LAMBDA, fresnel="off")
    with pytest.raises(sk.ConfigError):
        sk.scattered_field(currents, near, LAMBDA, fresnel="quiet")


def relative_error(a, b):
    num = math.hypot(abs(a.e_theta - b.e_theta), abs(a.e_phi - b.e_phi))
    den = math.hypot(abs(b.e_theta), abs(b.e_phi))
    return num / den


def test_oracle_single_cell_far_field():
    grid = sk.discretize(DELTA, DELTA, centered=True)
    shape = (1, 1)
    currents = sk.SurfaceCurrents(
        je_x=np.zeros(shape, complex), je_y=np.ones(shape, complex),
        jm_x=np.zeros(shape, complex), jm_y=np.zeros(shape, complex), grid=grid)
    obs = sk.ObservationPoint(r=1e7 * DELTA, theta=math.radians(25.0),
                              phi=math.radians(10.0))
    closed = sk.scattered_field(currents, obs, LAMBDA)
    oracle = sk.quadrature_oracle(currents, obs, LAMBDA, subdivisions=1)
    assert relative_error(closed, oracle) < 1e-6


def test_oracle_zero_currents():
    grid = sk.discretize(4 * DELTA, DELTA)
    obs = sk.ObservationPoint(r=10.0, theta=0.4, phi=0.0)
    oracle = sk.quadrature_oracle(zero_currents(grid), obs, LAMBDA, subdivisions=3)
    assert oracle.e_theta == 0.0
    assert oracle.e_phi == 0.0


def test_oracle_rejects_bad_subdivisions():
    grid = sk.discretize(4 * DELTA, DELTA)
    obs = sk.ObservationPoint(r=10.0, theta=0.4, phi=0.0)
    with pytest.raises(sk.DomainError):
        sk.quadrature_oracle(zero_currents(grid), obs, LAMBDA, subdivisions=0)


def test_oracle_coherent_currents_converged():
    # pre-build convergence study: the closed form holds 1e-3 accuracy from
    # about 100 panel sides outward (at the Fresnel edge it measures ~3e-3)
    scenario = make_scenario()
    grid = sk.discretize(8 * DELTA, DELTA)
    currents = sk.pcs_currents(sk.PcsPanel(grid=grid), scenario)
    obs = sk.ObservationPoint(r=100.0 * grid.side_l, theta=scenario.theta0, phi=0.0)
    closed = sk.scattered_field(currents, obs, LAMBDA)
    oracle = sk.quadrature_oracle(currents, obs, LAMBDA, subdivisions=8)
    assert relative_error(closed, oracle) < 1e-3


def test_oracle_agreement_random_currents():
    rng = np.random.default_rng(42)
    for i, p in enumerate((4, 8, 16, 32)):
        grid = sk.discretize(p * DELTA, DELTA)
        currents = random_currents(grid, seed=100 + i)
        r = float(rng.uniform(1500.0, 2500.0)) * grid.side_l
        theta = float(rng.uniform(0.05, math.radians(45.0)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        obs = sk.ObservationPoint(r=r, theta=theta, phi=phi)
        assert r >= sk.fresnel_min_distance(grid.side_l, LAMBDA)
        closed = sk.scattered_field(currents, obs, LAMBDA)
        oracle = sk.quadrature_oracle(currents, obs, LAMBDA, subdivisions=8)
        assert relative_error(closed, oracle) < 1e-3


def test_far_field_linear_phase_reduction():
    grid = sk.discretize(8 * DELTA, DELTA)
    currents = random_currents(grid, seed=5)
    obs = sk.ObservationPoint(r=1e6 * grid.side_l, theta=0.6, phi=0.9)
    full = sk.scattered_field(currents, obs, LAMBDA)

    # independent sum with the phase term truncated to its linear part
    X, Y = grid.cell_grid()
    s = math.sin(obs.theta)
    lin = X * s * math.cos(obs.phi) + Y * s * math.sin(obs.phi)
    k = 2.0 * math.pi / LAMBDA
    ct = math.cos(obs.theta)
    sp, cp = math.sin(obs.phi), math.cos(obs.phi)
    pre = (-1j * np.exp(-1j * k * obs.r) / (2.0 * LAMBDA * obs.r) * grid.pitch**2
           * sk.sinc(math.pi * grid.pitch * s * cp / LAMBDA)
           * sk.sinc(math.pi * grid.pitch * s * sp / LAMBDA))
    phase = np.exp(1j * k * lin)
    bth = (sk.ETA0 * ct * cp * currents.je_x + sk.ETA0 * ct * sp * currents.je_y
           - sp * currents.jm_x + cp * currents.jm_y)
    bph = (-sk.ETA0 * sp * currents.je_x + sk.ETA0 * cp * currents.je_y
           + ct * cp * currents.jm_x + ct * sp * currents.jm_y)
    linear = sk.ScatteredField(e_theta=pre * (phase * bth).sum(),
                               e_phi=pre * (phase * bph).sum())
    full_mag = math.hypot(abs(full.e_theta), abs(full.e_phi))
    lin_mag = math.hypot(abs(linear.e_theta), abs(linear.e_phi))
    assert abs(full_mag - lin_mag) < 1e-6 * full_mag


def test_cut_map_zero_currents(baseline):
    grid = sk.discretize(8 * DELTA, DELTA)
    cut = sk.FieldCut(plane="transversal", half_extent=0.5, points=5)
    cut_map = sk.field_cut_map(zero_currents(grid), cut, baseline, fresnel="off")
    assert np.all(cut_map.e_phi_abs == 0.0)
    assert np.all(cut_map.e_total_abs == 0.0)


def test_cut_validation():
    with pytest.raises(sk.ConfigError):
        sk.FieldCut(plane="diagonal", half_extent=1.0)
    for extent in (-1.0, math.nan, math.inf):
        with pytest.raises(sk.ConfigError):
            sk.FieldCut(plane="transversal", half_extent=extent)
    with pytest.raises(sk.ConfigError):
        sk.FieldCut(plane="transversal", half_extent=1.0, points=0)


def test_cut_zero_extent_single_point(baseline, panel08):
    panel, _ = panel08
    currents = sk.gstc_currents(panel, baseline)
    cut = sk.FieldCut(plane="transversal", half_extent=0.0, points=41)
    cut_map = sk.field_cut_map(currents, cut, baseline)
    assert cut_map.e_phi_abs.shape == (1, 1)
    assert cut_map.u.size == 1 and cut_map.u[0] == 0.0


def test_cut_focus_and_screen_comparison(baseline, panel10):
    panel, _ = panel10
    ems_currents = sk.gstc_currents(panel, baseline)
    pcs_currents = sk.pcs_currents(sk.PcsPanel(grid=panel.grid), baseline)
    cut = sk.FieldCut(plane="transversal", half_extent=2.0, points=41)
    ems_map = sk.field_cut_map(ems_currents, cut, baseline, fresnel="off")
    pcs_map = sk.field_cut_map(pcs_currents, cut, baseline, fresnel="off")
    # the synthesized skin focuses on the receiver: peak within one cell of it
    i, j = np.unravel_index(np.argmax(ems_map.e_total_abs), ems_map.e_total_abs.shape)
    step = cut.half_extent * 2 / (cut.points - 1)
    assert abs(ems_map.u[i]) <= step + 1e-12
    assert abs(ems_map.v[j]) <= step + 1e-12
    # and it outshines the plain screen at the receiver
    center = (cut.points - 1) // 2
    assert ems_map.e_phi_abs[center, center] > pcs_map.e_phi_abs.max()


def test_longitudinal_cut_runs(baseline, panel08):
    panel, _ = panel08
    currents = sk.gstc_currents(panel, baseline)
    cut = sk.FieldCut(plane="longitudinal", half_extent=1.0, points=11)
    cut_map = sk.field_cut_map(currents, cut, baseline, fresnel="off")
    assert cut_map.e_total_abs.shape == (11, 11)
    assert np.all(np.isfinite(cut_map.e_total_abs))


def test_batch_points_match_single_point_sums(baseline, panel08):
    panel, _ = panel08
    currents = sk.gstc_currents(panel, baseline)
    rng = np.random.default_rng(7)
    # more than one point chunk, on and off the focus
    pts = baseline.rx_position + rng.uniform(-2.0, 2.0, size=(300, 3))
    e_theta, e_phi = sk.scattered_field_at_points(currents, pts, LAMBDA)
    # the same spherical coordinates the batch derives from each point, so
    # both paths sum identical phasors
    r = np.linalg.norm(pts, axis=1)
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    for i in range(pts.shape[0]):
        obs = sk.ObservationPoint(r=float(r[i]), theta=float(theta[i]), phi=float(phi[i]))
        single = sk.scattered_field(currents, obs, LAMBDA, fresnel="off")
        scale = math.hypot(abs(single.e_theta), abs(single.e_phi))
        assert abs(e_theta[i] - single.e_theta) <= 1e-12 * scale
        assert abs(e_phi[i] - single.e_phi) <= 1e-12 * scale


def test_large_panel_single_point_matches_exact_sum(table):
    # 2.0 m at 27 GHz: 129,600 cells, the size where a compensated sum once ran
    scenario = make_scenario(r_tx=40.0, r_rx=40.0)
    panel, _ = sk.design_panel(scenario, 2.0, table)
    assert panel.grid.cell_count == 129_600
    currents = sk.gstc_currents(panel, scenario)
    obs = sk.ObservationPoint(r=scenario.r_rx, theta=scenario.theta0, phi=0.0)
    field = sk.scattered_field(currents, obs, LAMBDA, fresnel="off")

    X, Y = panel.grid.cell_grid()
    k = 2.0 * math.pi / LAMBDA
    s, ct = math.sin(obs.theta), math.cos(obs.theta)
    phase = np.exp(1j * k * (X * s - ct * ct * (X * X + Y * Y) / (2.0 * obs.r)
                             - (Y * s) ** 2 / (2.0 * obs.r)))
    pre = (-1j * np.exp(-1j * k * obs.r) / (2.0 * LAMBDA * obs.r) * panel.grid.pitch**2
           * sk.sinc(math.pi * panel.grid.pitch * s / LAMBDA))

    def fsum(terms):
        flat = terms.reshape(-1)
        return complex(math.fsum(flat.real), math.fsum(flat.imag))

    # at phi = 0 the theta-hat bracket is eta*cos(theta)*je_x + jm_y and the
    # phi-hat bracket is eta*je_y + cos(theta)*jm_x
    e_theta = pre * fsum(phase * (sk.ETA0 * ct * currents.je_x + currents.jm_y))
    e_phi = pre * fsum(phase * (sk.ETA0 * currents.je_y + ct * currents.jm_x))
    assert abs(field.e_theta - e_theta) <= 1e-12 * abs(e_theta)
    assert abs(field.e_phi - e_phi) <= 1e-12 * abs(e_phi)
