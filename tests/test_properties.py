"""Property tests over random link geometries, on panels of at most 400 cells
(one explicit example has 1,296), and how a failing property is reported."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
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
    assert math.isclose(sk.ems_tpa(scenario, panel), a_pcs, rel_tol=1e-12)


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
        tpa.append((sk.pcs_tpa(scenario, length), sk.ems_tpa(scenario, panel)))
    np.testing.assert_allclose(tpa[1], tpa[0], rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(**geometry)
def test_skin_stays_below_the_ideal_bound(f, r_tx, r_rx, theta0_deg, cells):
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    panel, _ = sk.design_panel(scenario, cells * scenario.pitch, TABLE)
    a_ems = sk.ems_tpa(scenario, panel)
    a_opt = sk.ems_upper_bound_tpa(scenario, panel.grid.side_l)
    assert sk.db(a_ems) <= sk.db(a_opt) + 0.5


def _oracle_error(currents, obs, wavelength):
    closed = sk.scattered_field(currents, obs, wavelength, fresnel="off")
    oracle = sk.quadrature_oracle(currents, obs, wavelength)
    return (math.hypot(abs(closed.e_theta - oracle.e_theta),
                       abs(closed.e_phi - oracle.e_phi))
            / math.hypot(abs(oracle.e_theta), abs(oracle.e_phi)))


# theta starts at 0.05 rad, as in acceptance criterion 7: at the pole the
# oracle's sub-patch azimuths spread over every direction, and the magnetic
# term of the phi bracket does not give one field there for every azimuth.
@settings(max_examples=40, deadline=None)
@given(f=geometry["f"], theta=st.floats(0.05, math.radians(70.0)),
       cells=geometry["cells"], phi=st.floats(0.0, 2.0 * math.pi),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_converges_to_the_oracle(f, theta, cells, phi, seed):
    # random (incoherent) currents keep every per-cell approximation visible
    lam = sk.wavelength(f)
    grid = sk.discretize(cells * lam / 2.0, lam / 2.0)
    rng = np.random.default_rng(seed)
    shape = (grid.p_count, grid.q_count)
    currents = sk.SurfaceCurrents(
        *(rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(4)),
        grid=grid)
    r_min = sk.fresnel_min_distance(grid.side_l, lam)
    near, far = (_oracle_error(currents, sk.ObservationPoint(r=m * r_min, theta=theta,
                                                             phi=phi), lam)
                 for m in (100, 1000))
    assert far < 1e-3
    assert far < near


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
