"""Property tests over random link geometries, on panels of at most 900 cells
(one explicit example has 1,296), and how a failing property is reported."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skinlink as sk

from helpers import (exact_distance_sum, make_scenario, passive_bound, quadrature_oracle,
                     spherical_wave_fields)

TABLE = sk.synthetic_table()
PEC = sk.ReflectionLookupTable(g=np.array([1.0e-3, 2.0e-3]),
                               gamma_xx=np.array([-1.0 + 0.0j, -1.0 + 0.0j]),
                               gamma_yy=np.array([-1.0 + 0.0j, -1.0 + 0.0j]))

geometry = dict(f=st.floats(3e9, 60e9), r_tx=st.floats(1.0, 60.0),
                r_rx=st.floats(1.0, 60.0), theta0_deg=st.floats(0.0, 70.0),
                cells=st.integers(1, 20))


@settings(max_examples=40, deadline=None)
@given(**geometry)
# r_rx = 2 m is inside the 2.83 m Fresnel bound of L = 0.2 m: the TPA functions
# only evaluate there, and warn or raise nothing
@example(f=27e9, r_tx=15.0, r_rx=2.0, theta0_deg=30.0, cells=36)
def test_pec_skin_equals_screen_through_receiver_tpa(f, r_tx, r_rx, theta0_deg, cells):
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    side = cells * scenario.pitch
    a_pcs = sk.pcs_tpa(scenario, side)
    grid = sk.discretize(side, scenario.pitch)
    sheet = sk.reflection_currents(grid, scenario, -1.0, -1.0)
    assert sk.receiver_tpa(sheet, scenario) == a_pcs
    panel, _ = sk.design_panel(scenario, side, PEC)
    assert math.isclose(sk.receiver_tpa(sk.gstc_currents(panel, scenario), scenario), a_pcs,
                        rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), **geometry)
def test_sheet_currents_map_the_oracle_tangential_fields(f, r_tx, r_rx, theta0_deg, cells,
                                                         seed):
    """For a per-cell diagonal gamma with gamma_xx != gamma_yy, reflection_currents
    is the sheet mapping of the full-vector oracle's tangential fields, and je_x is
    exactly 0."""
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    grid = sk.discretize(cells * scenario.pitch, scenario.pitch)
    rng = np.random.default_rng(seed)
    shape = (grid.p_count, grid.p_count)
    gamma_xx, gamma_yy = (rng.uniform(0.0, 1.0, shape)
                          * np.exp(1j * rng.uniform(-math.pi, math.pi, shape))
                          for _ in range(2))
    assert np.all(gamma_xx != gamma_yy)
    currents = sk.reflection_currents(grid, scenario, gamma_xx, gamma_yy)
    e, h = spherical_wave_fields(scenario, *grid.cell_grid())
    e_mag, h_mag = np.linalg.norm(e, axis=-1), np.linalg.norm(h, axis=-1)
    assert np.all(currents.je_x == 0.0)
    for got, factor, field, mag in ((currents.je_y, 1.0 - gamma_yy, h[..., 0], h_mag),
                                    (currents.jm_x, -(1.0 + gamma_yy), e[..., 1], e_mag),
                                    (currents.jm_y, 1.0 + gamma_xx, e[..., 0], e_mag)):
        assert np.all(np.abs(got - factor * field) <= 1e-14 * np.abs(factor) * mag)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.1, 10.0), **geometry)
def test_tpa_invariant_under_joint_wavelength_and_length_scaling(
        scale, f, r_tx, r_rx, theta0_deg, cells):
    base = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    scaled = make_scenario(f=f / scale, r_tx=scale * r_tx, r_rx=scale * r_rx,
                           theta0_deg=theta0_deg)
    tpa = []
    for scenario in (base, scaled):
        length = cells * scenario.pitch          # scaled side, whole cells
        panel, _ = sk.design_panel(scenario, length, TABLE)
        assert panel.grid.p_count == cells
        tpa.append((sk.pcs_tpa(scenario, length),
                    sk.receiver_tpa(sk.gstc_currents(panel, scenario), scenario)))
    np.testing.assert_allclose(tpa[1], tpa[0], rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(**geometry)
def test_skin_stays_below_the_ideal_bound(f, r_tx, r_rx, theta0_deg, cells):
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    panel, _ = sk.design_panel(scenario, cells * scenario.pitch, TABLE)
    a_ems = sk.receiver_tpa(sk.gstc_currents(panel, scenario), scenario)
    a_opt = sk.ems_upper_bound_tpa(scenario, panel.grid.side_l)
    assert sk.db(a_ems) <= sk.db(a_opt) + 0.5


passive_link = dict(f=st.floats(3.5e9, 60e9), r_tx=st.floats(5.0, 50.0),
                    r_rx=st.floats(5.0, 50.0), theta0_deg=st.floats(0.0, 60.0),
                    cells=st.integers(1, 30))


def _passive(rng, shape):
    """Random reflection coefficients with |gamma| <= 1: random phases, about half
    of unit magnitude and the rest lossy, down to fully absorbing."""
    mag = np.where(rng.uniform(size=shape) < 0.5, 1.0, rng.uniform(0.0, 1.0, shape))
    return mag * np.exp(1j * rng.uniform(-math.pi, math.pi, shape))


@st.composite
def passive_tables(draw):
    """A random passive table of 2 to 8 entries spanning 0.1 to 1 mm of geometry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    lo = draw(st.floats(0.3e-3, 4.0e-3))
    g = np.linspace(lo, lo + draw(st.floats(0.1e-3, 1.0e-3)), n)
    return sk.ReflectionLookupTable(g=g, gamma_xx=_passive(rng, n), gamma_yy=_passive(rng, n))


@settings(max_examples=25, deadline=None)
@given(table=passive_tables(), **passive_link)
def test_skin_and_screen_stay_below_the_passive_bound(table, f, r_tx, r_rx, theta0_deg,
                                                      cells):
    # A_pass bounds every passive layout of the grid with no slack beyond rounding
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    side = cells * scenario.pitch
    panel, _ = sk.design_panel(scenario, side, table)
    bound = passive_bound(scenario, panel.grid)
    assert sk.receiver_tpa(sk.gstc_currents(panel, scenario), scenario) <= bound * (1 + 1e-12)
    assert sk.pcs_tpa(scenario, side) <= bound * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), **passive_link)
def test_per_cell_passive_gamma_stays_below_the_passive_bound(seed, f, r_tx, r_rx,
                                                              theta0_deg, cells):
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    grid = sk.discretize(cells * scenario.pitch, scenario.pitch)
    rng = np.random.default_rng(seed)
    gamma_xx, gamma_yy = (_passive(rng, (cells, cells)) for _ in range(2))
    currents = sk.reflection_currents(grid, scenario, gamma_xx, gamma_yy)
    assert sk.receiver_tpa(currents, scenario) <= passive_bound(scenario, grid) * (1 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(fraction=st.floats(0.0, 1.0), f=passive_link["f"], r_tx=passive_link["r_tx"],
       r_rx=passive_link["r_rx"], theta0_deg=passive_link["theta0_deg"])
def test_arm_swap_moves_screen_and_skin_tpa_by_at_most_a_hundredth_db(fraction, f, r_tx,
                                                                       r_rx, theta0_deg):
    """Swapping r_tx and r_rx moves the screen's TPA, and the TPA of one skin
    layout synthesized on the original link, by at most 0.01 dB wherever both
    arms are at least fresnel_min_distance of the panel."""
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    swapped = make_scenario(f=f, r_tx=r_rx, r_rx=r_tx, theta0_deg=theta0_deg)
    # whole cells, at most 30, below the Fresnel side of the nearer arm
    cells = max(1, int(fraction * min(30.0, sk.l_fresnel(scenario) / scenario.pitch)))
    side = cells * scenario.pitch
    assert sk.fresnel_min_distance(side, scenario.wavelength) <= min(r_tx, r_rx)
    a_pcs = [sk.db(sk.pcs_tpa(s, side)) for s in (scenario, swapped)]
    assert abs(a_pcs[1] - a_pcs[0]) <= 0.01
    panel, _ = sk.design_panel(scenario, side, TABLE)
    a_ems = [sk.db(sk.receiver_tpa(sk.gstc_currents(panel, s), s)) for s in (scenario, swapped)]
    assert abs(a_ems[1] - a_ems[0]) <= 0.01


_EXACT_CELLS = 64     # cells per side of the exact-distance property's panels


def _exact_gap_db(currents, scenario, tpa):
    """|tpa - the exact-distance sum's path attenuation| in dB."""
    exact = exact_distance_sum(currents, scenario)
    a_exact = sk.received_power(exact, scenario.g_rx, scenario.wavelength) / scenario.p_tx
    return abs(sk.db(tpa) - sk.db(a_exact))


@settings(max_examples=40, deadline=None)
@given(fraction=st.floats(0.0, 1.0), f=passive_link["f"], r_tx=passive_link["r_tx"],
       r_rx=passive_link["r_rx"], theta0_deg=passive_link["theta0_deg"])
# whole L_FRs of the nearer arm: 8 cells at 3.5 GHz and 60 degrees on 5 m arms,
# 63 cells at 27 GHz and 30 degrees with the transmitter the nearer arm
@example(fraction=1.0, f=3.5e9, r_tx=5.0, r_rx=5.0, theta0_deg=60.0)
@example(fraction=1.0, f=27e9, r_tx=5.0, r_rx=20.0, theta0_deg=30.0)
def test_fresnel_sum_matches_the_exact_distance_sum_up_to_l_fr(fraction, f, r_tx, r_rx,
                                                               theta0_deg):
    """On Fresnel-valid panels (fresnel_ok: both arms at least
    fresnel_min_distance, so the side is at most the nearer arm's L_FR) the
    receiver's Fresnel sum and the exact-distance sum give the screen's and
    the skin's TPA within 0.05 dB. The panels hold whole cells, at most
    _EXACT_CELLS per side."""
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    cells = max(1, int(min(fraction * sk.l_fresnel(scenario) / scenario.pitch, _EXACT_CELLS)))
    panel, _ = sk.design_panel(scenario, cells * scenario.pitch, TABLE)
    for currents in (sk.gstc_currents(panel, scenario),
                     sk.pcs_currents(sk.PcsPanel(grid=panel.grid), scenario)):
        assert _exact_gap_db(currents, scenario, sk.receiver_tpa(currents, scenario)) <= 0.05


def test_fresnel_valid_sweep_rows_match_the_exact_distance_sum(baseline, sweep19):
    # every row of 0.1 m to 1.0 m is inside the 1.06 m L_FR of the 15/15 m link
    rows = [row for row in sweep19 if row.fresnel_ok]
    assert len(rows) == 19
    for row in rows:
        panel, _ = sk.design_panel(baseline, row.value, TABLE)
        ems = sk.gstc_currents(panel, baseline)
        pcs = sk.pcs_currents(sk.PcsPanel(grid=panel.grid), baseline)
        assert _exact_gap_db(ems, baseline, row.a_ems) <= 0.05
        assert _exact_gap_db(pcs, baseline, row.a_pcs) <= 0.05


@settings(max_examples=40, deadline=None)
@given(**geometry)
def test_specular_field_has_no_cross_polarization(f, r_tx, r_rx, theta0_deg, cells):
    # the panel is centred on the specular point, so it is mirror-symmetric about
    # the plane of incidence and the theta-hat field cancels at the receiver
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    panel, _ = sk.design_panel(scenario, cells * scenario.pitch, TABLE)
    obs = sk.ObservationPoint(r=scenario.r_rx, theta=scenario.theta0, phi=0.0)
    for currents in (sk.gstc_currents(panel, scenario),
                     sk.pcs_currents(sk.PcsPanel(grid=panel.grid), scenario)):
        field = sk.scattered_field(currents, obs, scenario.wavelength, fresnel="off")
        magnitude = math.hypot(abs(field.e_theta), abs(field.e_phi))
        assert abs(field.e_theta) <= 1e-12 * magnitude


@settings(max_examples=200, deadline=None)
@given(f=geometry["f"], r_tx=geometry["r_tx"], r_rx=geometry["r_rx"],
       theta0_deg=geometry["theta0_deg"], g_tx_dbi=st.floats(0.0, 30.0),
       g_rx_dbi=st.floats(0.0, 30.0))
def test_threshold_side_meets_the_infinite_screen_limit(f, r_tx, r_rx, theta0_deg,
                                                        g_tx_dbi, g_rx_dbi):
    # L_TH is the side whose ideal-skin bound equals the infinite-screen limit
    scenario = sk.LinkScenario(f=f, p_tx=0.1, g_tx=10.0 ** (g_tx_dbi / 10.0),
                               g_rx=10.0 ** (g_rx_dbi / 10.0), r_tx=r_tx, r_rx=r_rx,
                               theta0=math.radians(theta0_deg))
    bound = sk.ems_upper_bound_tpa(scenario, sk.l_threshold(scenario))
    assert math.isclose(bound, sk.pcs_asymptotic_tpa(scenario), rel_tol=1e-12)


def _oracle_error(currents, r, theta, phi, wavelength):
    """|E_closed - E_oracle| at (r, theta, phi) over the closed form's RMS |E| on
    36 azimuths at the same r and theta, so that a pattern null at phi, where
    |E| itself is small, does not inflate the error."""
    obs = sk.ObservationPoint(r=r, theta=theta, phi=phi)
    closed = sk.scattered_field(currents, obs, wavelength, fresnel="off")
    oracle = quadrature_oracle(currents, obs, wavelength)
    azimuths = np.linspace(0.0, 2.0 * math.pi, 36, endpoint=False)
    ring = r * np.stack([math.sin(theta) * np.cos(azimuths), math.sin(theta) * np.sin(azimuths),
                         np.full(azimuths.shape, math.cos(theta))], axis=1)
    e_theta, e_phi = sk.scattered_field_at_points(currents, ring, wavelength)
    rms = math.sqrt(np.mean(np.abs(e_theta) ** 2 + np.abs(e_phi) ** 2))
    return math.hypot(abs(closed.e_theta - oracle.e_theta), abs(closed.e_phi - oracle.e_phi)) / rms


# theta starts at 0.05 rad, as in acceptance criterion 7: at the pole the
# oracle's sub-patch azimuths spread over every direction, and the magnetic
# term of the phi bracket does not give one field there for every azimuth.
@settings(max_examples=40, deadline=None)
@given(f=geometry["f"], theta=st.floats(0.05, math.radians(70.0)),
       cells=geometry["cells"], phi=st.floats(0.0, 2.0 * math.pi),
       seed=st.integers(0, 2**32 - 1))
# phi = 1.5 rad is near a null of this pattern: the far error there is 1.2e-3
# of |E| at that point but 5.8e-5 of the pattern's RMS
@example(f=3e9, theta=1.0, cells=8, phi=1.5, seed=8)
def test_closed_form_converges_to_the_oracle(f, theta, cells, phi, seed):
    # random (incoherent) currents keep every per-cell approximation visible
    lam = sk.wavelength(f)
    grid = sk.discretize(cells * lam / 2.0, lam / 2.0)
    rng = np.random.default_rng(seed)
    shape = (grid.p_count, grid.p_count)
    currents = sk.SurfaceCurrents(
        *(rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3)),
        grid=grid)
    r_min = sk.fresnel_min_distance(grid.side_l, lam)
    near, far = (_oracle_error(currents, m * r_min, theta, phi, lam) for m in (100, 1000))
    assert far < 1e-3
    # the Fresnel model's error falls as 1/r, to a tenth from 100 to 1000 bounds
    assert far <= 0.15 * near


def test_failing_property_prints_its_example(tmp_path):
    # On failure Hypothesis imports libcst, whose import raises a DeprecationWarning
    # that filterwarnings = ["error"] would turn into an INTERNALERROR; pyproject.toml
    # ignores that one message, and every other warning stays an error.
    (tmp_path / "test_falsified.py").write_text(
        "import warnings\n"
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_below_five(x):\n"
        "    assert x < 5\n\n"
        "def test_warning_fails():\n"
        "    warnings.warn('deprecated', DeprecationWarning)\n")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(pyproject),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                          "test_falsified.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_below_five(" in run.stdout
    assert "2 failed" in run.stdout
