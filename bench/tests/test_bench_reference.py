"""The benchmark's direct cell sum against the library on tiny panels."""

import math

import numpy as np
import pytest

import reference
import skinlink as sk


def _scenario(theta_deg=30.0, r_rx=3.0):
    g = 10.0 ** (15.4 / 10.0)
    return sk.LinkScenario(f=27e9, p_tx=0.1, g_tx=g, g_rx=g, r_tx=4.0, r_rx=r_rx,
                           theta0=math.radians(theta_deg))


@pytest.fixture(scope="module")
def tiny():
    scn = _scenario()
    panel, _ = sk.design_panel(scn, 0.05, sk.synthetic_table())
    grid = panel.grid
    return scn, {"ems": sk.gstc_currents(panel, scn),
                 "pcs": sk.pcs_currents(sk.PcsPanel(grid), scn)}


@pytest.mark.parametrize("screen", ["ems", "pcs"])
@pytest.mark.parametrize("theta,phi", [(0.5236, 0.0), (0.3, 0.4), (0.0, 0.0), (1.2, -2.0)])
def test_field_matches_scattered_field(tiny, screen, theta, phi):
    scn, currents = tiny
    currents = currents[screen]
    assert currents.grid.cell_count == 81
    obs = sk.ObservationPoint(r=3.0, theta=theta, phi=phi)
    lib = sk.scattered_field(currents, obs, scn.wavelength, fresnel="off")
    e_t, e_p = reference.field(currents, 3.0, theta, phi, scn.wavelength)
    scale = math.hypot(abs(lib.e_theta), abs(lib.e_phi))
    assert abs(e_t - lib.e_theta) <= 1e-12 * scale
    assert abs(e_p - lib.e_phi) <= 1e-12 * scale


def test_path_attenuation_matches_library(tiny):
    scn, currents = tiny
    obs = sk.ObservationPoint(r=scn.r_rx, theta=scn.theta0, phi=0.0)
    for screen in ("ems", "pcs"):
        field = sk.scattered_field(currents[screen], obs, scn.wavelength, fresnel="off")
        lib = sk.received_power(field, scn.g_rx, scn.wavelength) / scn.p_tx
        assert reference.path_attenuation(currents[screen], scn) == pytest.approx(lib, rel=1e-12)


@pytest.mark.parametrize("plane", ["transversal", "longitudinal"])
def test_cut_points_match_field_cut_map(tiny, plane):
    scn, currents = tiny
    cut = sk.FieldCut(plane=plane, half_extent=0.5, points=3)
    cut_map = sk.field_cut_map(currents["ems"], cut, scn, fresnel="off")
    for i, u in enumerate(cut_map.u):
        for j, v in enumerate(cut_map.v):
            point = reference.cut_point(scn, plane, u, v)
            e_t, e_p = reference.field_at_point(currents["ems"], point, scn.wavelength)
            assert math.hypot(abs(e_t), abs(e_p)) == pytest.approx(
                cut_map.e_total_abs[i, j], rel=1e-11)


def test_cell_sum_is_exactly_rounded():
    values = np.array([1e16 + 1e16j, 1.0 + 2.0j, -1e16 - 1e16j])
    assert reference._fsum_complex(values) == 1.0 + 2.0j
