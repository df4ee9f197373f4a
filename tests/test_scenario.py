"""Constants, link scenario, source model and config parsing."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinlink as sk
from skinlink.scenario import _SCENARIO_KEYS, shared_incident_fields

from helpers import (count_incident_fields, incident_reference, make_scenario,
                     spherical_wave_fields)


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
    with pytest.raises(sk.DomainError, match="carrier frequency must be positive"):
        make_scenario(f=0.0)
    with pytest.raises(sk.DomainError, match="cell pitch must be positive"):
        make_scenario(delta=0.0)
    # (4 pi r_tx r_rx)^2 overflows the float power
    with pytest.raises(sk.DomainError, match="ideal-skin bound out of float range"):
        make_scenario(r_tx=1e78, r_rx=1e78)


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


def assert_matches_oracle(scenario, x, y, fields):
    """(e_x, e_y, h_x) equal the oracle's tangential components within 1e-14 of
    the point's |E| (|H| for h_x); returns the oracle's (e, h)."""
    e, h = spherical_wave_fields(scenario, x, y)
    e_mag = np.linalg.norm(e, axis=-1)
    h_mag = np.linalg.norm(h, axis=-1)
    for got, want, mag in zip(fields, (e[..., 0], e[..., 1], h[..., 0]),
                              (e_mag, e_mag, h_mag)):
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-14 * mag)
    return e, h


def test_incident_center_magnitude(baseline):
    e_x, e_y, h_x = sk.incident_fields(baseline, 0.0, 0.0)
    e, _ = assert_matches_oracle(baseline, 0.0, 0.0, (e_x, e_y, h_x))
    expected = math.sqrt(2.0 * sk.ETA0 * baseline.g_tx * baseline.p_tx
                         / (4.0 * math.pi)) / 15.0
    assert abs(np.linalg.norm(e) - expected) < 1e-12 * expected
    assert abs(abs(e_y) - expected) < 1e-12 * expected
    # at the panel center the polarization is exactly the y axis
    assert e_x == 0.0
    assert abs(e[0]) < 1e-15 * expected
    assert abs(e[2]) < 1e-15 * expected
    # and H lies in the plane of incidence, tangential part cos(theta0) |H|
    assert abs(h_x - e_y * math.cos(baseline.theta0) / sk.ETA0) < 1e-14 * abs(h_x)
    # a transmitter 1e-170 m above the panel center at normal incidence: p_z^2
    # underflows, so rho = 0 and the polarization is undefined
    pinned = make_scenario(theta0_deg=0.0, r_tx=1e-170, r_rx=1e155)
    with pytest.raises(sk.GeometryError, match="polarization is undefined"):
        sk.incident_fields(pinned, 0.0, 0.0)


def test_incident_spherical_spreading():
    near = sk.incident_fields(make_scenario(r_tx=15.0), 0.0, 0.0)[1]
    far = sk.incident_fields(make_scenario(r_tx=30.0), 0.0, 0.0)[1]
    prod_near = abs(near) * 15.0
    prod_far = abs(far) * 30.0
    assert abs(prod_near - prod_far) < 1e-12 * prod_near


def test_incident_equal_distance_equal_phase(baseline):
    # mirror points about the incidence plane are equidistant from the source
    a = sk.incident_fields(baseline, 0.2, 0.3)[1]
    b = sk.incident_fields(baseline, 0.2, -0.3)[1]
    assert abs(np.angle(a) - np.angle(b)) < 1e-12


def test_incident_impedance_everywhere(baseline):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(50, 2))
    fields = sk.incident_fields(baseline, pts[:, 0], pts[:, 1])
    e, h = assert_matches_oracle(baseline, pts[:, 0], pts[:, 1], fields)
    e_mag = np.linalg.norm(e, axis=-1)
    h_mag = np.linalg.norm(h, axis=-1)
    np.testing.assert_allclose(e_mag, sk.ETA0 * h_mag, rtol=1e-14)
    # H is perpendicular to y, so the three returned components are all the
    # tangential field there is
    assert np.all(np.abs(h[:, 1]) <= 1e-15 * h_mag)


@pytest.mark.parametrize("x, y, shape", [
    (0.1, -0.2, ()),
    (np.linspace(-0.5, 0.5, 7), 0.3, (7,)),
    (np.linspace(-0.5, 0.5, 4)[:, None], np.linspace(-0.4, 0.4, 5)[None, :], (4, 5)),
], ids=["0-d", "1-d", "broadcast"])
def test_incident_fields_shapes(baseline, x, y, shape):
    fields = sk.incident_fields(baseline, x, y)
    assert len(fields) == 3
    assert all(np.shape(f) == shape for f in fields)
    e, h = assert_matches_oracle(baseline, x, y, fields)
    np.testing.assert_allclose(np.linalg.norm(e, axis=-1),
                               sk.ETA0 * np.linalg.norm(h, axis=-1), rtol=1e-14)
    # each point of a batch is the field of that point alone
    xs, ys = np.broadcast_arrays(x, y)
    for idx in np.ndindex(shape):
        for batch, point in zip(fields, sk.incident_fields(baseline, xs[idx], ys[idx])):
            np.testing.assert_allclose(np.asarray(batch)[idx], point, rtol=1e-14,
                                       atol=1e-14 * np.abs(batch).max())


def test_incident_power_density_boresight():
    for r_tx in (7.0, 15.0, 40.0):
        s = make_scenario(r_tx=r_tx)
        e_x, e_y, h_x = sk.incident_fields(s, 0.0, 0.0)
        e, _ = assert_matches_oracle(s, 0.0, 0.0, (e_x, e_y, h_x))
        expected = s.g_tx * s.p_tx / (4.0 * math.pi * r_tx**2)
        for e_mag in (np.linalg.norm(e), math.hypot(abs(e_x), abs(e_y))):
            density = e_mag ** 2 / (2.0 * sk.ETA0)
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


# --- the shared incident field: bit-exact arithmetic and the scoped memo ---

def same_bits(got, want) -> bool:
    """Equal type, shape and bytes: the same result, not merely a close one."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def lattice_points(scenario, cells: int, kind: str):
    """Cell barycentres of a cells x cells panel as 0-d, 1-d or broadcast (x, y)."""
    grid = sk.discretize(cells * scenario.pitch, scenario.pitch)
    if kind == "0-d":
        return float(grid.x_centers[0]), float(grid.y_centers[-1])
    if kind == "1-d":
        return grid.x_centers, float(grid.y_centers[0])
    return grid.cell_grid()


links = st.builds(
    lambda f, r_tx, r_rx, theta0_deg: make_scenario(f=f, r_tx=r_tx, r_rx=r_rx,
                                                    theta0_deg=theta0_deg),
    f=st.floats(3.5e9, 60e9), r_tx=st.floats(5.0, 50.0), r_rx=st.floats(5.0, 50.0),
    theta0_deg=st.just(-0.0) | st.floats(0.0, 60.0))
lattices = st.tuples(links, st.integers(1, 60), st.sampled_from(["0-d", "1-d", "broadcast"]))


@settings(max_examples=40, deadline=None)
@given(lattice=lattices)
def test_incident_fields_match_the_plain_expression_bit_for_bit(lattice):
    scenario, cells, kind = lattice
    x, y = lattice_points(scenario, cells, kind)
    got = sk.incident_fields(scenario, x, y)
    want = incident_reference(scenario, x, y)
    assert all(same_bits(g, w) for g, w in zip(got, want))
    assert all(g.flags.writeable for g in got if isinstance(g, np.ndarray))


@settings(max_examples=40, deadline=None)
@given(lattices=st.lists(lattices, min_size=2, max_size=3),
       order=st.lists(st.integers(0, 2), min_size=2, max_size=8))
def test_interleaved_calls_in_a_scope_match_the_plain_expression(lattices, order):
    points = [(scenario, *lattice_points(scenario, cells, kind))
              for scenario, cells, kind in lattices]
    with shared_incident_fields():
        for i in order:
            scenario, x, y = points[i % len(points)]
            got = sk.incident_fields(scenario, x, y)
            assert all(same_bits(g, w)
                       for g, w in zip(got, incident_reference(scenario, x, y)))
            assert not any(g.flags.writeable for g in got if isinstance(g, np.ndarray))


def test_scope_shares_what_the_field_does_not_read(baseline, monkeypatch):
    _, computed = count_incident_fields(monkeypatch)
    x, y = sk.discretize(0.2, baseline.pitch).cell_grid()
    with shared_incident_fields():
        first = sk.incident_fields(baseline, x, y)
        for variant in (dataclasses.replace(baseline, r_rx=40.0),
                        dataclasses.replace(baseline, g_rx=2.0),
                        dataclasses.replace(baseline, delta=1e-3)):
            again = sk.incident_fields(variant, x, y)
            assert all(a is b for a, b in zip(again, first))
        assert len(computed) == 1
        for field in first:
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0, 0] = 0.0
        # another lattice, or another field-defining quantity, is another entry
        sk.incident_fields(baseline, x, y[:, :-1])
        sk.incident_fields(dataclasses.replace(baseline, p_tx=0.2), x, y)
        assert len(computed) == 3
    # nothing outlives the scope: the next call computes, and writable arrays
    after = sk.incident_fields(baseline, x, y)
    assert len(computed) == 4
    assert all(f.flags.writeable for f in after)
    assert all(same_bits(a, b) for a, b in zip(after, first))


def test_scope_keeps_signed_zero_incidence_apart(monkeypatch):
    _, computed = count_incident_fields(monkeypatch)
    plus, minus = make_scenario(theta0_deg=0.0), make_scenario(theta0_deg=-0.0)
    assert plus == minus     # the dataclass compares 0.0 and -0.0 equal
    x, y = sk.discretize(0.1, plus.pitch).cell_grid()
    with shared_incident_fields():
        got = [sk.incident_fields(s, x, y) for s in (plus, minus, plus, minus)]
    assert len(computed) == 2
    for s, fields in zip((plus, minus, plus, minus), got):
        assert all(same_bits(g, w) for g, w in zip(fields, incident_reference(s, x, y)))


def test_a_thread_does_not_see_the_scope_that_started_it(baseline, monkeypatch):
    _, computed = count_incident_fields(monkeypatch)
    done = []

    def work():
        sk.incident_fields(baseline, 0.1, 0.2)
        sk.incident_fields(baseline, 0.1, 0.2)
        done.append(True)

    with shared_incident_fields():
        sk.incident_fields(baseline, 0.1, 0.2)
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive() and done
    assert len(computed) == 3


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
    with pytest.raises(sk.ConfigError, match="^line 2: expected 'key = value'$"):
        sk.parse_scenario("f_hz = 27e9\np_tx_w 0.1\n")


@pytest.mark.parametrize("line, message", [
    ("x" * 140_000, "line 2: expected 'key = value'"),
    ("k" * 140_000 + " = 1", "line 2: unknown key; expected one of f_hz, p_tx_w, "
                             "g_tx_dbi, g_rx_dbi, r_tx_m, r_rx_m, theta0_deg, delta_m"),
])
def test_parse_scenario_echoes_no_unbounded_line_or_key(line, message):
    """A huge line or key is not echoed: the error is one short line of fixed text."""
    with pytest.raises(sk.ConfigError) as info:
        sk.parse_scenario("f_hz = 27e9\n" + line + "\n")
    text = str(info.value)
    assert text == message
    assert "\n" not in text and len(text) < 200


def test_parse_scenario_gain_overflow():
    with pytest.raises(sk.ConfigError, match="g_tx_dbi"):
        sk.parse_scenario(GOOD_CONFIG.replace("g_tx_dbi = 15.4", "g_tx_dbi = 4000"))


def test_scenario_keys_name_every_field():
    fields = {field.name for field in dataclasses.fields(sk.LinkScenario)}
    assert set(_SCENARIO_KEYS.values()) == fields


def test_parse_scenario_missing_and_duplicate():
    with pytest.raises(sk.ConfigError, match="missing"):
        sk.parse_scenario("f_hz = 27e9\n")
    with pytest.raises(sk.ConfigError, match="duplicate"):
        sk.parse_scenario(GOOD_CONFIG + "f_hz = 28e9\n")
