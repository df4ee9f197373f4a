"""Property tests over random link geometries, on panels of at most 400 cells."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import skinlink as sk

from helpers import make_scenario

TABLE = sk.synthetic_table()
PEC = sk.ReflectionLookupTable(g=np.array([1.0e-3, 2.0e-3]),
                               gamma_xx=np.array([-1.0 + 0.0j, -1.0 + 0.0j]),
                               gamma_yy=np.array([-1.0 + 0.0j, -1.0 + 0.0j]))

geometry = dict(f=st.floats(3e9, 60e9), r_tx=st.floats(1.0, 60.0),
                r_rx=st.floats(1.0, 60.0), theta0_deg=st.floats(0.0, 70.0),
                cells=st.integers(1, 20))


@settings(max_examples=40, deadline=None)
@given(**geometry)
def test_pec_skin_equals_screen_through_receiver_tpa(f, r_tx, r_rx, theta0_deg, cells):
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    side = cells * scenario.pitch
    a_pcs = sk.pcs_tpa(scenario, side, fresnel="off")
    grid = sk.discretize(side, scenario.pitch)
    sheet = sk.reflection_currents(grid, scenario, -1.0, -1.0)
    assert sk.receiver_tpa(sheet, scenario, fresnel="off") == a_pcs
    panel, _ = sk.design_panel(scenario, side, PEC)
    assert math.isclose(sk.ems_tpa(scenario, panel, fresnel="off"), a_pcs, rel_tol=1e-12)


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
        tpa.append((sk.pcs_tpa(scenario, length, fresnel="off"),
                    sk.ems_tpa(scenario, panel, fresnel="off")))
    np.testing.assert_allclose(tpa[1], tpa[0], rtol=1e-9)
