"""Lookup table, sheet currents, phase-conjugation synthesis and skin TPA."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinlink as sk
from skinlink.ems import _nearest_candidate

from helpers import make_scenario, subsampled_table, table_csv


# --- phase wrapping -------------------------------------------------------

def test_wrap_range_and_periodicity():
    assert sk.wrap_phase(0.0) == 0.0
    assert sk.wrap_phase(math.pi) == pytest.approx(math.pi, abs=1e-15)
    assert sk.wrap_phase(-math.pi) == pytest.approx(math.pi, abs=1e-15)
    rng = np.random.default_rng(1)
    x = rng.uniform(-10.0, 10.0, size=200)
    k = rng.integers(-5, 6, size=200)
    np.testing.assert_allclose(sk.wrap_phase(x + 2.0 * math.pi * k),
                               sk.wrap_phase(x), atol=1e-9)
    w = sk.wrap_phase(x)
    assert np.all(w > -math.pi) and np.all(w <= math.pi + 1e-15)


# --- lookup table ---------------------------------------------------------

def test_synthetic_table_defaults(table):
    assert table.g.size == 64
    np.testing.assert_allclose(np.abs(table.gamma_yy), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(table.gamma_xx, table.gamma_yy)
    phase = np.unwrap(np.angle(table.gamma_yy))
    assert np.all(np.diff(phase) < 0.0)          # strictly monotone in g
    assert phase.max() - phase.min() >= math.radians(300.0) - 1e-9
    assert np.max(np.abs(np.diff(phase))) <= 0.12


def test_table_validation():
    g = np.array([1e-3, 2e-3])
    ok = np.array([1.0 + 0j, 1j])
    with pytest.raises(sk.ConfigError):
        sk.ReflectionLookupTable(g=g[::-1].copy(), gamma_xx=ok, gamma_yy=ok)
    with pytest.raises(sk.ConfigError):
        sk.ReflectionLookupTable(g=g, gamma_xx=2.0 * ok, gamma_yy=ok)
    with pytest.raises(sk.ConfigError):
        sk.ReflectionLookupTable(g=g[:1], gamma_xx=ok[:1], gamma_yy=ok[:1])


def test_table_csv_roundtrip(tmp_path, table):
    path = tmp_path / "table.csv"
    path.write_text(table_csv(table))
    back = sk.load_reflection_table(path)
    np.testing.assert_array_equal(back.g, table.g)
    np.testing.assert_array_equal(back.gamma_xx, table.gamma_xx)
    np.testing.assert_array_equal(back.gamma_yy, table.gamma_yy)


def test_table_csv_validation(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("g,re,im,re,im\n1e-3,1,0,1,0\n")
    with pytest.raises(sk.ConfigError):
        sk.load_reflection_table(bad_header)
    active = tmp_path / "active.csv"
    active.write_text("g_m,re_gamma_xx,im_gamma_xx,re_gamma_yy,im_gamma_yy\n"
                      "1e-3,1,0,1,0\n2e-3,2,0,2,0\n")
    with pytest.raises(sk.ConfigError):
        sk.load_reflection_table(active)
    for bad in ("nan", "inf"):
        non_finite = tmp_path / f"{bad}.csv"
        non_finite.write_text("g_m,re_gamma_xx,im_gamma_xx,re_gamma_yy,im_gamma_yy\n"
                              f"1e-3,1,0,1,0\n2e-3,1,0,{bad},0\n")
        with pytest.raises(sk.ConfigError):
            sk.load_reflection_table(non_finite)


def test_gamma_lookup_range(table):
    lo, hi = table.g_range
    with pytest.raises(sk.LayoutError):
        table.gamma_at(hi + 1e-4)
    with pytest.raises(sk.LayoutError):
        table.gamma_at(lo - 1e-4)
    with pytest.raises(sk.LayoutError):
        table.gamma_at(np.array([lo, math.nan]))
    gxx, gyy = table.gamma_at(np.array([lo, hi]))
    np.testing.assert_allclose(gxx, table.gamma_xx[[0, -1]], rtol=1e-12)
    np.testing.assert_allclose(gyy, table.gamma_yy[[0, -1]], rtol=1e-12)


# --- ideal phases ---------------------------------------------------------

def test_ideal_phases_center_cell(baseline):
    grid = sk.discretize(5 * baseline.pitch, baseline.pitch)
    targets = sk.ideal_current_phases(grid, baseline)
    center = grid.p_count // 2
    assert targets[center, center] == pytest.approx(0.0, abs=1e-12)


def test_ideal_phases_mirror_symmetry(baseline):
    grid = sk.discretize(7 * baseline.pitch, baseline.pitch)
    targets = sk.ideal_current_phases(grid, baseline)
    np.testing.assert_allclose(targets, targets[:, ::-1], atol=1e-12)


def test_ideal_phase_hand_value(baseline):
    obs = sk.ObservationPoint(r=15.0, theta=math.radians(30.0), phi=0.0)
    b = sk.beta((0.1, 0.0), obs)
    got = sk.wrap_phase(-2.0 * math.pi / baseline.wavelength * b)
    assert got == pytest.approx(-3.0196970286476237, abs=1e-12)


# --- sheet currents -------------------------------------------------------

def test_pec_gamma_reproduces_screen_currents(baseline):
    grid = sk.discretize(0.1, baseline.pitch)
    screen = sk.pcs_currents(sk.PcsPanel(grid=grid), baseline)
    sheet = sk.reflection_currents(grid, baseline, -1.0, -1.0)
    np.testing.assert_array_equal(sheet.je_x, screen.je_x)
    np.testing.assert_array_equal(sheet.je_y, screen.je_y)
    np.testing.assert_array_equal(sheet.jm_x, screen.jm_x)
    np.testing.assert_array_equal(sheet.jm_y, screen.jm_y)
    assert np.all(sheet.jm_x == 0.0) and np.all(sheet.jm_y == 0.0)


def test_y_polarized_wave_drives_no_je_x(baseline, table):
    # H of a y-polarized wave is perpendicular to y, exactly, at every cell, so
    # neither the screen nor the skin carries an x-directed electric current
    grid = sk.discretize(1.0, baseline.pitch)
    _, h = sk.incident_fields(baseline, *grid.cell_grid())
    assert np.all(h[1] == 0.0)
    panel, _ = sk.design_panel(baseline, 1.0, table)
    for currents in (sk.pcs_currents(sk.PcsPanel(grid=grid), baseline),
                     sk.gstc_currents(panel, baseline)):
        assert currents.je_x.shape == (180, 180)
        assert np.all(currents.je_x == 0.0)


def test_magnetic_wall_gamma(baseline):
    grid = sk.discretize(0.1, baseline.pitch)
    sheet = sk.reflection_currents(grid, baseline, 1.0, 1.0)
    assert np.all(sheet.je_x == 0.0) and np.all(sheet.je_y == 0.0)
    assert np.abs(sheet.jm_x).max() > 0.0


def test_uniform_gamma_phase_does_not_steer():
    scenario = make_scenario(theta0_deg=0.0)
    grid = sk.discretize(16 * scenario.pitch, scenario.pitch)
    r = 1000.0 * grid.side_l
    thetas = np.radians(np.linspace(0.0, 45.0, 91))
    pts = np.stack([r * np.sin(thetas), np.zeros_like(thetas), r * np.cos(thetas)],
                   axis=1)
    for deg in (30.0, 120.0, 260.0):
        gamma = np.exp(1j * math.radians(deg))
        currents = sk.reflection_currents(grid, scenario, gamma, gamma)
        e_theta, e_phi = sk.scattered_field_at_points(currents, pts,
                                                      scenario.wavelength)
        mag = np.hypot(np.abs(e_theta), np.abs(e_phi))
        assert int(np.argmax(mag)) == 0


# --- synthesis ------------------------------------------------------------

def test_nearest_candidate_tie_prefers_smaller_geometry():
    cand = np.array([-0.5, 0.5])
    idx, dist = _nearest_candidate(cand, np.array([0.0]))
    assert idx[0] == 0
    assert dist[0] == pytest.approx(0.5)
    idx, _ = _nearest_candidate(cand[::-1].copy(), np.array([0.0]))
    assert idx[0] == 0


def test_nearest_candidate_wraparound():
    cand = np.array([-1.4, -0.2, 1.3])
    idx, _ = _nearest_candidate(cand, np.array([3.1]))  # close to pi: wraps to -1.4
    assert idx[0] == 0


def test_nearest_candidate_brute_path_matches_fast_path():
    rng = np.random.default_rng(9)
    mono = np.sort(rng.uniform(-1.2, 1.2, size=41))
    needs = rng.uniform(-math.pi, math.pi, size=300)
    fast_idx, fast_d = _nearest_candidate(mono, needs)
    shuffled = mono.copy()
    shuffled[5], shuffled[6] = shuffled[6], shuffled[5]  # break monotonicity
    brute_idx, brute_d = _nearest_candidate(shuffled, needs)
    distances = np.abs(sk.wrap_phase(mono[fast_idx] - needs))
    np.testing.assert_allclose(fast_d, distances, atol=1e-15)
    np.testing.assert_allclose(brute_d, fast_d, atol=1e-15)
    np.testing.assert_array_equal(shuffled[brute_idx], mono[fast_idx])


def lattice(step):
    """Multiples of step in [-pi, pi]."""
    top = int(math.pi / step)
    return st.integers(-top, top).map(lambda k: k * step)


# Candidates on a 2^-20 rad lattice and needs on its half-step lattice (so
# exact midpoint ties occur): distinct phases then lie much farther apart than
# the rounding of wrap_phase, and the scan ranks them by their true distance.
# Off the lattice the scan can tie distinct phases by rounding: for the need 0
# it finds the candidates 0.0 and 2e-247 both at distance 0.
@settings(max_examples=300, deadline=None)
@given(cand=st.lists(lattice(2.0 ** -20), min_size=1, max_size=60).flatmap(
           lambda c: st.sampled_from([c, sorted(c), sorted(c, reverse=True),
                                     c[: (len(c) + 1) // 2] * 2])),
       needs=st.lists(lattice(2.0 ** -21), min_size=1, max_size=20))
def test_nearest_candidate_matches_brute_force(cand, needs):
    cand, needs = np.array(cand), np.array(needs)
    idx, best = _nearest_candidate(cand, needs)
    dist = np.abs(sk.wrap_phase(cand[None, :] - needs[:, None]))
    brute = np.argmin(dist, axis=1)                   # first minimum: smaller index
    np.testing.assert_array_equal(idx, brute)
    np.testing.assert_array_equal(best, dist[np.arange(needs.size), brute])


def test_synthesis_on_single_candidate_table(baseline):
    # a 0.1 um geometry span is below the 1 um synthesis step: one candidate
    narrow = sk.ReflectionLookupTable(g=np.array([1.0e-3, 1.0e-3 + 1e-7]),
                                      gamma_xx=np.array([1j, -1j]),
                                      gamma_yy=np.array([1j, -1j]))
    panel, _ = sk.design_panel(baseline, 0.05, narrow)
    np.testing.assert_array_equal(panel.d.values, 1.0e-3)
    assert sk.ems_tpa(baseline, panel) > 0.0


def current_phase(table, g_values, scenario, grid):
    """Phase of the y-polarized electric cell current for the given geometry."""
    currents = sk.reflection_currents(grid, scenario, *table.gamma_at(g_values))
    return np.angle(currents.je_y)


def layout_currents(grid, table, d, scenario):
    return sk.gstc_currents(sk.EmsPanel(grid=grid, d=d, table=table), scenario)


def test_synthesis_exact_targets_give_constant_layout(baseline, table):
    grid = sk.discretize(12 * baseline.pitch, baseline.pitch)
    g_mid = 2.3e-3  # on the interpolation lattice
    pred = current_phase(table, g_mid, baseline, grid)
    targets = sk.wrap_phase(pred)
    d = sk.synthesize_layout(grid, table, targets, baseline)
    np.testing.assert_allclose(d.values, g_mid, atol=1e-12)
    currents = layout_currents(grid, table, d, baseline)
    phi = sk.synthesis_mismatch(grid, currents, targets)
    assert phi <= 1e-18
    with pytest.raises(sk.LayoutError, match="do not match the grid"):
        sk.synthesize_layout(grid, table, targets[:-1], baseline)
    with pytest.raises(sk.LayoutError, match="do not match the grid"):
        sk.synthesis_mismatch(grid, currents, targets[:-1])
    with pytest.raises(sk.LayoutError, match="do not match the grid"):
        sk.synthesis_mismatch(sk.discretize(13 * baseline.pitch, baseline.pitch),
                              currents, targets)


def test_synthesis_percell_error_bound(baseline):
    # coarse table, targets inside the covered arc: the per-cell error is at
    # most half the largest adjacent candidate-phase gap
    coarse = subsampled_table(7)
    grid = sk.discretize(10 * baseline.pitch, baseline.pitch)
    cand = np.angle(1.0 - coarse.gamma_yy)
    gap = np.max(np.abs(np.diff(np.sort(cand))))
    rng = np.random.default_rng(4)
    arc = rng.uniform(cand.min(), cand.max(), size=grid.cell_grid()[0].shape)
    base = current_phase(coarse, coarse.g[0], baseline, grid)
    targets = sk.wrap_phase(base - cand[0] + arc)
    d = sk.synthesize_layout(grid, coarse, targets, baseline)
    pred = current_phase(coarse, d.values, baseline, grid)
    err = np.abs(sk.wrap_phase(pred - targets))
    assert np.all(err <= gap / 2.0 + 1e-9)


def test_mismatch_equals_sum_of_percell_minima(baseline, table):
    grid = sk.discretize(16 * baseline.pitch, baseline.pitch)
    targets = sk.ideal_current_phases(grid, baseline)
    d = sk.synthesize_layout(grid, table, targets, baseline)
    phi = sk.synthesis_mismatch(grid, layout_currents(grid, table, d, baseline), targets)

    g_fine, gyy_fine = table.dense_grid()
    cand = np.angle(1.0 - gyy_fine)
    _, h = sk.incident_fields(baseline, *grid.cell_grid())
    need = sk.wrap_phase(targets - np.angle(h[0]))
    brute = np.abs(sk.wrap_phase(cand[None, None, :] - need[:, :, None]))
    per_cell_min = brute.min(axis=2) ** 2
    assert phi == pytest.approx(per_cell_min.sum(), rel=1e-12)


def test_panel_validation(baseline, table):
    grid = sk.discretize(0.05, baseline.pitch)
    shape = (grid.p_count, grid.p_count)
    good = sk.DescriptorVector(side_l=grid.side_l, values=np.full(shape, 2e-3))
    sk.EmsPanel(grid=grid, d=good, table=table)
    for g in (9e-3, math.nan):
        values = np.full(shape, 2e-3)
        values[1, 2] = g
        with pytest.raises(sk.LayoutError):
            sk.EmsPanel(grid=grid, d=sk.DescriptorVector(side_l=grid.side_l, values=values),
                        table=table)
    for side in (0.123, math.nan):
        with pytest.raises(sk.LayoutError):
            sk.EmsPanel(grid=grid, d=sk.DescriptorVector(side_l=side,
                                                         values=np.full(shape, 2e-3)),
                        table=table)


# --- skin attenuation -----------------------------------------------------

def test_ems_tpa_independent_of_transmit_power(table):
    low = make_scenario(p_tx=0.1)
    high = make_scenario(p_tx=10.0)
    panel_low, _ = sk.design_panel(low, 0.3, table)
    panel_high, _ = sk.design_panel(high, 0.3, table)
    a_low = sk.ems_tpa(low, panel_low)
    a_high = sk.ems_tpa(high, panel_high)
    assert abs(a_low - a_high) <= 1e-12 * a_low


def test_ems_tpa_desk_scale_band(baseline, panel08):
    panel, _ = panel08
    a = sk.db(sk.ems_tpa(baseline, panel))
    assert -50.0 <= a <= -43.4


def test_ems_beats_equal_screen_at_one_meter(baseline, panel10):
    # ideal lossless cells: the margin exceeds the realized-cell figure but
    # stays below the bound-implied cap (see decisions ledger)
    panel, _ = panel10
    d = sk.db(sk.ems_tpa(baseline, panel)) - sk.db(sk.pcs_tpa(baseline, 1.0))
    cap = sk.db(sk.ems_upper_bound_tpa(baseline, panel.grid.side_l)) \
        - sk.db(sk.pcs_tpa(baseline, 1.0))
    assert 13.0 <= d <= cap + 0.5


def test_upper_bound_values(baseline):
    assert sk.db(sk.ems_upper_bound_tpa(baseline, 0.8)) == pytest.approx(-43.4, abs=0.05)
    got = sk.ems_upper_bound_tpa(baseline, 1.0)
    expected = (baseline.g_tx * baseline.g_rx * math.cos(baseline.theta0) ** 2
                / (4.0 * math.pi * 15.0 * 15.0) ** 2)
    assert got == pytest.approx(expected, rel=1e-12)
    assert sk.db(got) == pytest.approx(-39.477235008752174, abs=1e-9)
    assert sk.db(got) == pytest.approx(-39.5, abs=0.05)


def test_upper_bound_grazing_limit(baseline):
    graze = make_scenario(theta0_deg=89.999999)
    assert sk.ems_upper_bound_tpa(graze, 0.8) < 1e-12 * sk.ems_upper_bound_tpa(baseline, 0.8)
    with pytest.raises(sk.DomainError):
        sk.ems_upper_bound_tpa(baseline, 0.0)


def test_bound_dominance_over_sweep(sweep19):
    for row in sweep19:
        assert row.a_ems <= row.a_opt * 1.12


def test_propagation_route_matches_coherent_closed_form(baseline):
    # phase-matched je_y cells add coherently at the receiver: with je_y = 1 A/m
    # each cell contributes eta*Delta^2*sinc(pi*Delta*sin(theta0)/lambda)/(2*lambda*r)
    # to E_phi (the sinc is the cell element factor along x), and nothing to E_theta
    grid = sk.discretize(32 * baseline.pitch, baseline.pitch)
    targets = sk.ideal_current_phases(grid, baseline)
    shape = (grid.p_count, grid.p_count)
    currents = sk.SurfaceCurrents(
        je_x=np.zeros(shape, complex),
        je_y=np.exp(1j * targets),
        jm_x=np.zeros(shape, complex),
        jm_y=np.zeros(shape, complex),
        grid=grid)
    obs = sk.ObservationPoint(r=baseline.r_rx, theta=baseline.theta0, phi=0.0)
    field = sk.scattered_field(currents, obs, baseline.wavelength, fresnel="off")
    lam, delta = baseline.wavelength, grid.pitch
    element = float(sk.sinc(math.pi * delta * math.sin(baseline.theta0) / lam))
    expected = (sk.ETA0 * grid.cell_count * delta**2 * element
                / (2.0 * lam * baseline.r_rx))
    assert abs(field.e_phi) == pytest.approx(expected, rel=1e-9)
    assert field.e_theta == 0.0


def test_phase_flip_strictly_reduces_focus(baseline, table):
    grid = sk.discretize(16 * baseline.pitch, baseline.pitch)
    targets = sk.ideal_current_phases(grid, baseline)
    d = sk.synthesize_layout(grid, table, targets, baseline)
    panel = sk.EmsPanel(grid=grid, d=d, table=table)
    currents = sk.gstc_currents(panel, baseline)
    obs = sk.ObservationPoint(r=baseline.r_rx, theta=baseline.theta0, phi=0.0)
    base = sk.scattered_field(currents, obs, baseline.wavelength, fresnel="off")
    base_mag = base.magnitude
    je_x, je_y = currents.je_x.copy(), currents.je_y.copy()
    jm_x, jm_y = currents.jm_x.copy(), currents.jm_y.copy()
    for p in range(grid.p_count):
        for q in range(grid.p_count):
            for arr in (je_x, je_y, jm_x, jm_y):
                arr[p, q] *= -1.0
            flipped = sk.SurfaceCurrents(je_x=je_x, je_y=je_y, jm_x=jm_x,
                                         jm_y=jm_y, grid=grid)
            mag = sk.scattered_field(flipped, obs, baseline.wavelength,
                                     fresnel="off").magnitude
            assert mag < base_mag
            for arr in (je_x, je_y, jm_x, jm_y):
                arr[p, q] *= -1.0


def test_phase_flip_sampled_on_larger_grid(baseline, table):
    grid = sk.discretize(32 * baseline.pitch, baseline.pitch)
    panel, _ = sk.design_panel(baseline, grid.side_l, table)
    currents = sk.gstc_currents(panel, baseline)
    obs = sk.ObservationPoint(r=baseline.r_rx, theta=baseline.theta0, phi=0.0)
    base_mag = sk.scattered_field(currents, obs, baseline.wavelength,
                                  fresnel="off").magnitude
    rng = np.random.default_rng(12)
    for _ in range(40):
        p = int(rng.integers(0, grid.p_count))
        q = int(rng.integers(0, grid.p_count))
        je_x, je_y = currents.je_x.copy(), currents.je_y.copy()
        jm_x, jm_y = currents.jm_x.copy(), currents.jm_y.copy()
        for arr in (je_x, je_y, jm_x, jm_y):
            arr[p, q] *= -1.0
        flipped = sk.SurfaceCurrents(je_x=je_x, je_y=je_y, jm_x=jm_x, jm_y=jm_y,
                                     grid=grid)
        mag = sk.scattered_field(flipped, obs, baseline.wavelength,
                                 fresnel="off").magnitude
        assert mag < base_mag


def test_pec_table_degenerates_to_screen(baseline, pec_table):
    panel, _ = sk.design_panel(baseline, 0.3, pec_table)
    a_ems = sk.ems_tpa(baseline, panel)
    a_pcs = sk.pcs_tpa(baseline, 0.3)
    assert abs(a_ems - a_pcs) <= 1e-12 * a_pcs
