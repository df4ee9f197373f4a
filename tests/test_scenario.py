"""Constants, link scenario, source model and config parsing."""

import math

import numpy as np
import pytest

import skinlink as sk

from helpers import make_scenario


def test_constants_consistency():
    assert sk.ETA0 == 4.0e-7 * math.pi * sk.C0


def test_wavelength_values():
    assert sk.wavelength(27e9) == sk.C0 / 27e9
    assert abs(sk.wavelength(27e9) - 1.1103e-2) < 1e-6
    assert sk.wavelength(sk.C0) == 1.0
    assert sk.wavelength(2.7e9) == sk.C0 / 2.7e9
    assert abs(sk.wavelength(2.7e9) - 0.111034) < 1e-6


@pytest.mark.parametrize("bad", [0.0, -1.0, -27e9])
def test_wavelength_rejects_nonpositive(bad):
    with pytest.raises(sk.DomainError):
        sk.wavelength(bad)


def test_db_values():
    assert sk.db(1.0) == 0.0
    assert abs(sk.db(1e-6) + 60.0) < 1e-12
    assert abs(sk.db(1.047e-6) - (-59.80053318321158)) < 1e-12
    assert abs(sk.db(1.047e-6) + 59.8) < 0.01


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_db_rejects_nonpositive(bad):
    with pytest.raises(sk.DomainError):
        sk.db(bad)


def test_scenario_validation():
    with pytest.raises(sk.DomainError):
        make_scenario(theta0_deg=90.0)
    with pytest.raises(sk.DomainError):
        make_scenario(r_tx=0.0)
    with pytest.raises(sk.DomainError):
        make_scenario(p_tx=-1.0)


@pytest.mark.parametrize("field", ["f", "p_tx", "g_tx", "g_rx", "r_tx", "r_rx",
                                   "theta0", "delta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite(field, bad):
    kwargs = dict(f=27e9, p_tx=0.1, g_tx=10.0, g_rx=10.0, r_tx=15.0, r_rx=15.0,
                  theta0=0.5, delta=None)
    kwargs[field] = bad
    with pytest.raises(sk.DomainError, match=field):
        sk.LinkScenario(**kwargs)


def test_frame_convention(baseline):
    s, c = math.sin(baseline.theta0), math.cos(baseline.theta0)
    np.testing.assert_allclose(baseline.tx_position, [-15.0 * s, 0.0, 15.0 * c],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(baseline.rx_position, [15.0 * s, 0.0, 15.0 * c],
                               rtol=0, atol=1e-15)


def test_incident_center_magnitude(baseline):
    e = sk.incident_fields(baseline, 0.0, 0.0)[0]
    expected = math.sqrt(2.0 * sk.ETA0 * baseline.g_tx * baseline.p_tx
                         / (4.0 * math.pi)) / 15.0
    assert abs(np.linalg.norm(e) - expected) < 1e-12 * expected
    # at the panel center the polarization is exactly the y axis
    assert abs(e[0]) < 1e-15 * expected
    assert abs(e[2]) < 1e-15 * expected


def test_incident_spherical_spreading():
    near = sk.incident_fields(make_scenario(r_tx=15.0), 0.0, 0.0)[0]
    far = sk.incident_fields(make_scenario(r_tx=30.0), 0.0, 0.0)[0]
    prod_near = np.linalg.norm(near) * 15.0
    prod_far = np.linalg.norm(far) * 30.0
    assert abs(prod_near - prod_far) < 1e-12 * prod_near


def test_incident_equal_distance_equal_phase(baseline):
    # mirror points about the incidence plane are equidistant from the source
    a = sk.incident_fields(baseline, 0.2, 0.3)[0]
    b = sk.incident_fields(baseline, 0.2, -0.3)[0]
    assert abs(np.angle(a[1]) - np.angle(b[1])) < 1e-12


def test_incident_impedance_everywhere(baseline):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(50, 2))
    e, h = sk.incident_fields(baseline, pts[:, 0], pts[:, 1])
    e_mag = np.linalg.norm(e, axis=0)
    h_mag = np.linalg.norm(h, axis=0)
    np.testing.assert_allclose(e_mag, sk.ETA0 * h_mag, rtol=1e-14)


@pytest.mark.parametrize("x, y, shape", [
    (0.1, -0.2, ()),
    (np.linspace(-0.5, 0.5, 7), 0.3, (7,)),
    (np.linspace(-0.5, 0.5, 4)[:, None], np.linspace(-0.4, 0.4, 5)[None, :], (4, 5)),
], ids=["0-d", "1-d", "broadcast"])
def test_incident_fields_shapes(baseline, x, y, shape):
    e, h = sk.incident_fields(baseline, x, y)
    assert e.shape == h.shape == (3,) + shape
    np.testing.assert_allclose(np.linalg.norm(e, axis=0),
                               sk.ETA0 * np.linalg.norm(h, axis=0), rtol=1e-14)
    # each point of a batch is the field of that point alone
    xs, ys = np.broadcast_arrays(x, y)
    for idx in np.ndindex(shape):
        e_pt, h_pt = sk.incident_fields(baseline, xs[idx], ys[idx])
        np.testing.assert_allclose(e[(slice(None),) + idx], e_pt, rtol=1e-14,
                                   atol=1e-14 * np.abs(e).max())
        np.testing.assert_allclose(h[(slice(None),) + idx], h_pt, rtol=1e-14,
                                   atol=1e-14 * np.abs(h).max())


def test_incident_power_density_boresight():
    for r_tx in (7.0, 15.0, 40.0):
        s = make_scenario(r_tx=r_tx)
        e = sk.incident_fields(s, 0.0, 0.0)[0]
        density = np.linalg.norm(e) ** 2 / (2.0 * sk.ETA0)
        expected = s.g_tx * s.p_tx / (4.0 * math.pi * r_tx**2)
        assert abs(density - expected) < 1e-10 * expected


GOOD_CONFIG = """\
# desk-scale reference link
f_hz = 27e9
p_tx_w = 0.1
g_tx_dbi = 15.4
g_rx_dbi = 15.4
r_tx_m = 15
r_rx_m = 15
theta0_deg = 30
"""


def test_parse_scenario_roundtrip():
    s = sk.parse_scenario(GOOD_CONFIG)
    assert s.f == 27e9
    assert abs(s.g_tx - 10 ** 1.54) < 1e-12 * s.g_tx
    assert s.theta0 == math.radians(30.0)
    assert s.delta is None
    assert s.pitch == s.wavelength / 2.0


def test_parse_scenario_pitch_override():
    s = sk.parse_scenario(GOOD_CONFIG + "delta_m = 5.556e-3\n")
    assert s.pitch == 5.556e-3


def test_parse_scenario_unknown_key_is_hard_error():
    with pytest.raises(sk.ConfigError, match="line 9"):
        sk.parse_scenario(GOOD_CONFIG + "g_tx_db = 15.4\n")


def test_parse_scenario_reports_bad_value_line():
    with pytest.raises(sk.ConfigError, match="line 2"):
        sk.parse_scenario("f_hz = 27e9\np_tx_w = lots\n")


def test_parse_scenario_gain_overflow():
    with pytest.raises(sk.ConfigError, match="g_tx_dbi"):
        sk.parse_scenario(GOOD_CONFIG.replace("g_tx_dbi = 15.4", "g_tx_dbi = 4000"))


def test_parse_scenario_missing_and_duplicate():
    with pytest.raises(sk.ConfigError, match="missing"):
        sk.parse_scenario("f_hz = 27e9\n")
    with pytest.raises(sk.ConfigError, match="duplicate"):
        sk.parse_scenario(GOOD_CONFIG + "f_hz = 28e9\n")
