"""Radiation sum, received power, Fresnel bound, oracle and field cuts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skinlink as sk
from skinlink.field_engine import _POINT_CHUNK, field_cut_maps, format_length, path_term

from helpers import beta, make_scenario, quadrature_oracle

LAMBDA = sk.wavelength(27e9)
DELTA = LAMBDA / 2.0


def random_currents(grid, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid.p_count, grid.p_count)

    def draw():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return sk.SurfaceCurrents(je_y=draw(), jm_x=draw(), jm_y=draw(), grid=grid)


def zero_currents(grid):
    shape = (grid.p_count, grid.p_count)
    z = np.zeros(shape, dtype=complex)
    return sk.SurfaceCurrents(je_y=z, jm_x=z.copy(), jm_y=z.copy(), grid=grid)


def split_beta(x, y, obs):
    """The path term as the kernel splits it: path_term of x and of y plus kappa*x*y."""
    s, c = math.sin(obs.theta), math.cos(obs.theta)
    sp, cp = math.sin(obs.phi), math.cos(obs.phi)
    return (path_term(x, obs.r, s, c, cp, sp) + path_term(y, obs.r, s, c, sp, cp)
            + s * s * sp * cp / obs.r * x * y)


def test_beta_center_cell_vanishes():
    obs = sk.ObservationPoint(r=12.0, theta=0.7, phi=1.1)
    assert split_beta(0.0, 0.0, obs) == 0.0


def test_beta_hand_value():
    obs = sk.ObservationPoint(r=15.0, theta=math.radians(30.0), phi=0.0)
    expected = 0.1 * 0.5 - 0.75 * 0.01 / 30.0
    assert split_beta(0.1, 0.0, obs) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(4.975e-2, abs=1e-9)


def test_beta_far_field_limit():
    obs = sk.ObservationPoint(r=1e12, theta=math.radians(40.0), phi=math.radians(25.0))
    s = math.sin(obs.theta)
    xs = np.linspace(-3.0, 3.0, 13)
    for x in xs:
        for y in xs:
            linear = x * s * math.cos(obs.phi) + y * s * math.sin(obs.phi)
            assert abs(split_beta(x, y, obs) - linear) < 1e-9


@settings(max_examples=300, deadline=None)
@given(r=st.floats(1.0, 100.0), theta=st.floats(0.0, math.pi / 2),
       phi=st.floats(-math.pi, math.pi, exclude_min=True),
       x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0))
def test_path_term_split_matches_unsplit_beta(r, theta, phi, x, y):
    obs = sk.ObservationPoint(r=r, theta=theta, phi=phi)
    assert abs(split_beta(x, y, obs) - beta((x, y), obs)) <= 1e-15


def test_observation_point_validation():
    with pytest.raises(sk.GeometryError):
        sk.ObservationPoint(r=0.0, theta=0.3, phi=0.0)
    with pytest.raises(sk.GeometryError):
        sk.ObservationPoint(r=1.0, theta=2.0, phi=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(sk.GeometryError):
            sk.ObservationPoint(r=bad, theta=0.3, phi=0.0)
        with pytest.raises(sk.GeometryError):
            sk.ObservationPoint(r=1.0, theta=bad, phi=0.0)
        with pytest.raises(sk.GeometryError, match="azimuth must be finite"):
            sk.ObservationPoint(r=1.0, theta=0.3, phi=bad)


def test_non_finite_points_rejected():
    currents = random_currents(sk.discretize(4 * DELTA, DELTA))
    for bad in (math.nan, math.inf, -math.inf):
        for axis in range(3):
            pts = np.array([[0.1, 0.2, 5.0], [0.0, 0.0, 4.0]])
            pts[1, axis] = bad
            with pytest.raises(sk.GeometryError, match="must be finite"):
                sk.scattered_field_at_points(currents, pts, LAMBDA)
    grid = currents.grid
    wide = np.zeros((grid.p_count, grid.p_count + 1), complex)
    with pytest.raises(sk.GeometryError, match=r"jm_x shape \(4, 5\) != grid shape \(4, 4\)"):
        dataclasses.replace(currents, jm_x=wide)
    nan_cell = currents.je_y.copy()
    nan_cell[2, 1] = math.nan
    with pytest.raises(sk.GeometryError, match="je_y contains non-finite values"):
        dataclasses.replace(currents, je_y=nan_cell)
    # an absent component is the scalar 0; any other scalar is rejected
    for bad in (1.5, math.nan, np.array(math.nan), np.zeros(grid.p_count)):
        with pytest.raises(sk.GeometryError, match="jm_y"):
            dataclasses.replace(currents, jm_y=bad)
    for zero in (0, 0.0, 0j, np.zeros(())):
        assert dataclasses.replace(currents, jm_y=zero).jm_y == 0.0
    with pytest.raises(TypeError):
        dataclasses.replace(currents, je_x=np.zeros((grid.p_count, grid.p_count)))
    assert currents.je_x == sk.SurfaceCurrents.je_x == 0.0


def test_scattered_zero_currents():
    grid = sk.discretize(8 * DELTA, DELTA)
    field = sk.scattered_field(zero_currents(grid),
                               sk.ObservationPoint(r=50.0, theta=0.4, phi=0.1),
                               LAMBDA)
    assert field.e_theta == 0.0
    assert field.e_phi == 0.0


def test_scattered_single_cell_broadside_closed_form():
    grid = sk.discretize(DELTA, DELTA)
    shape = (1, 1)
    currents = sk.SurfaceCurrents(
        je_y=np.ones(shape, complex), jm_x=np.zeros(shape, complex),
        jm_y=np.zeros(shape, complex), grid=grid)
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
    both = sk.SurfaceCurrents(je_y=a.je_y + b.je_y, jm_x=a.jm_x + b.jm_x,
                              jm_y=a.jm_y + b.jm_y, grid=grid)
    double = sk.SurfaceCurrents(je_y=2 * a.je_y, jm_x=2 * a.jm_x, jm_y=2 * a.jm_y,
                                grid=grid)
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


# |E|^2 overflows the float power; an infinite field, as an overflowing cell
# sum gives, makes no OverflowError, and infinities can cancel to NaN
@pytest.mark.parametrize("e_theta, e_phi", [(1e200, 0.0), (complex(math.inf, 0.0), 0.0),
                                            (complex(math.nan, 0.0), 0.0)])
def test_received_power_out_of_float_range(e_theta, e_phi):
    with pytest.raises(sk.DomainError, match="received power is out of float range"):
        sk.received_power(sk.ScatteredField(e_theta, e_phi), 1.0, LAMBDA)


def test_fresnel_min_distance_values():
    d = sk.fresnel_min_distance(0.8, LAMBDA)
    assert d == pytest.approx(11.3137, abs=2e-4)
    mid = 0.62 * math.sqrt(2.0 * 0.8**3 * math.sqrt(2.0) / LAMBDA)
    assert mid == pytest.approx(7.08, abs=0.01)
    assert d == pytest.approx(max(10.0 * 0.8 * math.sqrt(2.0), mid, 10.0 * LAMBDA),
                              rel=1e-14)
    assert sk.fresnel_min_distance(1e-6, LAMBDA) == pytest.approx(10.0 * LAMBDA, rel=1e-12)
    assert sk.fresnel_min_distance(2.9, LAMBDA) == pytest.approx(48.869, abs=1e-3)


def test_fresnel_check_off_skips_the_bound():
    # mode "off" returns before the bound, which rejects a zero side
    with pytest.raises(sk.DomainError):
        sk.fresnel_min_distance(0.0, LAMBDA)
    assert sk.check_fresnel(0.0, LAMBDA, 15.0, "off") is None
    with pytest.raises(sk.DomainError):
        sk.check_fresnel(0.0, LAMBDA, 15.0, "strict")
    with pytest.raises(sk.ConfigError, match="unknown Fresnel mode"):
        sk.check_fresnel(0.0, LAMBDA, 15.0, "loose")


def test_format_length_switches_to_exponent_form_at_1e6_m():
    assert format_length(0.310082, 6) == "0.310082"
    assert format_length(999999.99949, 3) == "999999.999"
    assert format_length(1e6, 3) == "1.000e+06"
    assert format_length(4.674224011907389e102, 6) == "4.674224e+102"
    assert format_length(math.inf, 3) == "inf"
    # and below 10^-decimals m, where fixed-point text would print zeros
    assert format_length(3.580660567314356e-79, 6) == "3.580661e-79"
    assert format_length(9.9999e-7, 6) == "9.999900e-07"
    assert format_length(1e-6, 6) == "0.000001"
    assert format_length(-4e-4, 3) == "-4.000e-04"
    assert format_length(1e-3, 3) == "0.001"
    assert format_length(0.0, 6) == "0.000000"


def test_fresnel_bounds_past_float_range():
    # each bound is one factored expression, which forms neither side_l^3 nor
    # (r / 0.62)^2, so it leaves float range only where the bound itself does:
    # at 1e103 m side_l^3 and at 1e102 m the product under the root would overflow
    for side in (1e102, 1e103):
        log_bound = math.log(0.62) + (math.log(2.0 * math.sqrt(2.0) / LAMBDA)
                                      + 3.0 * math.log(side)) / 2.0
        assert sk.fresnel_min_distance(side, LAMBDA) == pytest.approx(math.exp(log_bound),
                                                                      rel=1e-12)
    assert sk.fresnel_min_distance(1e250, LAMBDA) == math.inf
    for side in (0.8, 1e50, 1e100):
        bound = sk.fresnel_min_distance(side, LAMBDA)
        assert bound == max(
            10.0 * (side * math.sqrt(2.0)),
            0.62 * side * math.sqrt(side * 2.0 * math.sqrt(2.0) / LAMBDA), 10.0 * LAMBDA)
        # the unfactored expression agrees to rounding wherever it is finite
        assert bound == pytest.approx(max(
            10.0 * (side * math.sqrt(2.0)),
            0.62 * math.sqrt(2.0 * side**3 * math.sqrt(2.0) / LAMBDA), 10.0 * LAMBDA), rel=1e-15)
    scale = LAMBDA / (2.0 * math.sqrt(2.0))
    # l_fresnel inverts the bound at the nearer arm; a valid link keeps that arm
    # below about 3.3e76 m, so (r / 0.62)^2 stays finite and the factored form
    # agrees with the plain one to rounding
    for r_tx, r_rx in ((15.0, 15.0), (15.0, 1e100), (1e100, 15.0), (1e76, 1e76)):
        r = min(r_tx, r_rx)
        side = sk.l_fresnel(make_scenario(r_tx=r_tx, r_rx=r_rx))
        assert side == min(r / (10.0 * math.sqrt(2.0)),
                           scale ** (1.0 / 3.0) * (r ** (2.0 / 3.0) / 0.62 ** (2.0 / 3.0)))
        assert side == pytest.approx(min(r / (10.0 * math.sqrt(2.0)),
                                         (scale * (r / 0.62) ** 2) ** (1.0 / 3.0)), rel=1e-15)
        # the two bounds invert each other
        assert sk.fresnel_min_distance(side, LAMBDA) == pytest.approx(r, rel=1e-12)
    # on the far link the nearer arm, 1e-155 m, is below ten wavelengths: no side is valid
    assert sk.l_fresnel(make_scenario(r_tx=1e-155, r_rx=1e155)) == 0.0


def test_fresnel_modes():
    grid = sk.discretize(8 * DELTA, DELTA)
    currents = random_currents(grid)
    near = sk.ObservationPoint(r=0.3, theta=0.2, phi=0.0)
    with pytest.raises(sk.FresnelValidityError):
        sk.scattered_field(currents, near, LAMBDA, fresnel="strict")
    sk.scattered_field(currents, near, LAMBDA, fresnel="off")
    sk.scattered_field(currents, near, LAMBDA)
    for mode in ("warn", "quiet"):
        with pytest.raises(sk.ConfigError):
            sk.scattered_field(currents, near, LAMBDA, fresnel=mode)


@settings(max_examples=200, deadline=None)
@given(f=st.floats(1e9, 100e9), tx_wavelengths=st.floats(10.0, 1e5),
       rx_wavelengths=st.floats(10.0, 1e5))
@example(f=27e9, tx_wavelengths=1e5, rx_wavelengths=1000.0)     # 10 diagonals binds
@example(f=27e9, tx_wavelengths=1e4, rx_wavelengths=1e5)        # 0.62*sqrt(D^3/lambda) binds
@example(f=27e9, tx_wavelengths=1000.0 / 0.62**2,               # where the two cross,
         rx_wavelengths=1000.0 / 0.62**2)                       # on a tie
def test_fresnel_side_inverts_the_fresnel_bound(f, tx_wavelengths, rx_wavelengths):
    lam = sk.wavelength(f)
    scenario = make_scenario(f=f, r_tx=tx_wavelengths * lam, r_rx=rx_wavelengths * lam)
    side = sk.l_fresnel(scenario)
    assert sk.fresnel_min_distance(side, lam) == pytest.approx(
        min(scenario.r_tx, scenario.r_rx), rel=1e-12)


def relative_error(a, b):
    num = math.hypot(abs(a.e_theta - b.e_theta), abs(a.e_phi - b.e_phi))
    den = math.hypot(abs(b.e_theta), abs(b.e_phi))
    return num / den


def test_oracle_single_cell_far_field():
    grid = sk.discretize(DELTA, DELTA)
    shape = (1, 1)
    currents = sk.SurfaceCurrents(
        je_y=np.ones(shape, complex), jm_x=np.zeros(shape, complex),
        jm_y=np.zeros(shape, complex), grid=grid)
    obs = sk.ObservationPoint(r=1e7 * DELTA, theta=math.radians(25.0),
                              phi=math.radians(10.0))
    closed = sk.scattered_field(currents, obs, LAMBDA)
    oracle = quadrature_oracle(currents, obs, LAMBDA, subdivisions=1)
    assert relative_error(closed, oracle) < 1e-6


def test_oracle_zero_currents():
    grid = sk.discretize(4 * DELTA, DELTA)
    obs = sk.ObservationPoint(r=10.0, theta=0.4, phi=0.0)
    oracle = quadrature_oracle(zero_currents(grid), obs, LAMBDA, subdivisions=3)
    assert oracle.e_theta == 0.0
    assert oracle.e_phi == 0.0


def test_oracle_rejects_bad_subdivisions():
    grid = sk.discretize(4 * DELTA, DELTA)
    obs = sk.ObservationPoint(r=10.0, theta=0.4, phi=0.0)
    with pytest.raises(sk.DomainError):
        quadrature_oracle(zero_currents(grid), obs, LAMBDA, subdivisions=0)


def test_oracle_coherent_currents_converged():
    # pre-build convergence study: the closed form holds 1e-3 accuracy from
    # about 100 panel sides outward (at the Fresnel edge it measures ~3e-3)
    scenario = make_scenario()
    grid = sk.discretize(8 * DELTA, DELTA)
    currents = sk.pcs_currents(sk.PcsPanel(grid=grid), scenario)
    obs = sk.ObservationPoint(r=100.0 * grid.side_l, theta=scenario.theta0, phi=0.0)
    closed = sk.scattered_field(currents, obs, LAMBDA)
    oracle = quadrature_oracle(currents, obs, LAMBDA, subdivisions=8)
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
        oracle = quadrature_oracle(currents, obs, LAMBDA, subdivisions=8)
        assert relative_error(closed, oracle) < 1e-3


def dense_field(currents, obs, wavelength, path=beta, total=np.sum):
    """(e_theta, e_phi) with one exp(j k path) per cell: the cell sum written
    out, each bracket's terms added by total."""
    grid = currents.grid
    k = 2.0 * math.pi / wavelength
    s, ct = math.sin(obs.theta), math.cos(obs.theta)
    sp, cp = math.sin(obs.phi), math.cos(obs.phi)
    pre = (-1j * np.exp(-1j * k * obs.r) / (2.0 * wavelength * obs.r) * grid.pitch**2
           * sk.sinc(math.pi * grid.pitch * s * cp / wavelength)
           * sk.sinc(math.pi * grid.pitch * s * sp / wavelength))
    phase = np.exp(1j * k * path(grid.cell_grid(), obs))
    bth = (sk.ETA0 * ct * cp * currents.je_x + sk.ETA0 * ct * sp * currents.je_y
           - sp * currents.jm_x + cp * currents.jm_y)
    bph = (-sk.ETA0 * sp * currents.je_x + sk.ETA0 * cp * currents.je_y
           + ct * cp * currents.jm_x + ct * sp * currents.jm_y)
    return complex(pre * total(phase * bth)), complex(pre * total(phase * bph))


def test_far_field_linear_phase_reduction():
    grid = sk.discretize(8 * DELTA, DELTA)
    currents = random_currents(grid, seed=5)
    obs = sk.ObservationPoint(r=1e6 * grid.side_l, theta=0.6, phi=0.9)
    full = sk.scattered_field(currents, obs, LAMBDA)

    # independent sum with the phase term truncated to its linear part
    def linear_path(cell, o):
        s = math.sin(o.theta)
        return cell[0] * s * math.cos(o.phi) + cell[1] * s * math.sin(o.phi)

    linear = sk.ScatteredField(*dense_field(currents, obs, LAMBDA, path=linear_path))
    full_mag = math.hypot(abs(full.e_theta), abs(full.e_phi))
    lin_mag = math.hypot(abs(linear.e_theta), abs(linear.e_phi))
    assert abs(full_mag - lin_mag) < 1e-6 * full_mag


def cartesian(obs):
    """Cartesian position [m] of an observation point."""
    s, c = math.sin(obs.theta), math.cos(obs.theta)
    return obs.r * np.array([s * math.cos(obs.phi), s * math.sin(obs.phi), c])


def spherical(pts):
    """(r, theta, phi) rows of Cartesian points, derived as the batch kernel derives them."""
    return np.stack([np.linalg.norm(pts, axis=1),
                     np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2]),
                     np.arctan2(pts[:, 1], pts[:, 0])], axis=1)


_PHI = st.one_of(st.sampled_from([0.0, math.pi, math.pi / 2, -math.pi / 2]),
                 st.floats(-math.pi, math.pi, exclude_min=True))
# r from two panel sides, where the cross term needs several row blocks
_POINT = st.tuples(st.floats(2.0, 1e3), st.floats(0.0, math.pi / 2), _PHI)
_COMPONENTS = ("je_y", "jm_x", "jm_y")


@pytest.mark.parametrize("count", [0, 1, 7])
@settings(max_examples=25, deadline=None)
@given(cells=st.integers(1, 180), points=st.lists(_POINT, min_size=7, max_size=7),
       seed=st.integers(0, 2**32 - 1),
       zeroed=st.lists(st.booleans(), min_size=3, max_size=3))
@example(cells=1, points=[(2.0, 0.7, 0.4)] * 7, seed=0,  # x = y = 0
         zeroed=[False] * 3)
@example(cells=12, points=[(2.0, 0.7, 0.4)] * 7, seed=0, zeroed=[True] * 3)
@example(cells=12, points=[(2.0, 0.7, 0.4)] * 7, seed=0,  # a conducting screen's
         zeroed=[False, True, True])                      # components
@example(cells=60, seed=0, zeroed=[False] * 3,            # a rank-1 point (phi = 0)
         points=[(2.0, 0.9, 0.8), (2.0, 0.9, 0.0), (2.0, 1.2, -0.7), (3.0, 1.4, 2.3),
                 (2.0, 1.0, 0.0), (2.5, 1.3, -2.4), (2.0, 1.1, 0.9)])  # among full ranks
@example(cells=60, seed=1, zeroed=[False] * 3,            # two equal points tie in the
         points=[(3.0, 1.0, 0.5), (2.0, 1.2, 0.8), (3.0, 1.0, 0.5), (8.0, 0.4, 1.9),  # rank order
                 (2.0, 0.9, -0.8), (40.0, 0.3, 0.2), (2.0, 1.2, 0.8)])
def test_kernel_matches_dense_exponentials(count, cells, points, seed, zeroed):
    """The separable kernel matches one exp(j k beta) per cell, point by point and
    batched, with any set of all-zero current components; the same set absent,
    each the scalar 0, gives the same bits."""
    # 27 GHz: one cell is 5.6 mm, 180 cells are 1.0 m
    grid = sk.discretize(cells * DELTA, DELTA)
    currents = random_currents(grid, seed=seed)
    # signed zeros, as a conducting screen's -(1 + gamma) E carries them
    currents = dataclasses.replace(currents, **{
        name: -0.0 * getattr(currents, name)
        for name, zero in zip(_COMPONENTS, zeroed) if zero})
    observations = [sk.ObservationPoint(r=m * grid.side_l, theta=theta, phi=phi)
                    for m, theta, phi in points[:count]]
    pts = np.array([cartesian(obs) for obs in observations]).reshape(-1, 3)
    e_theta, e_phi = sk.scattered_field_at_points(currents, pts, LAMBDA)
    assert e_theta.shape == e_phi.shape == (count,)
    derived = [sk.ObservationPoint(*map(float, row)) for row in spherical(pts)]

    checks = []   # (kernel value, reference value) pairs of field components
    for obs in observations:
        single = sk.scattered_field(currents, obs, LAMBDA, fresnel="off")
        checks += zip((single.e_theta, single.e_phi), dense_field(currents, obs, LAMBDA))
    for i, obs in enumerate(derived):
        single = sk.scattered_field(currents, obs, LAMBDA, fresnel="off")
        checks += zip((e_theta[i], e_phi[i]), dense_field(currents, obs, LAMBDA))
        checks += [(e_theta[i], single.e_theta), (e_phi[i], single.e_phi)]
    scale = max((abs(ref) for _, ref in checks), default=0.0)
    for value, ref in checks:
        assert abs(value - ref) <= 1e-12 * scale
    if all(zeroed):
        assert all(value == 0.0 for value, _ in checks)

    def bits(values):
        return np.asarray(values, dtype=complex).view(np.int64)

    absent = dataclasses.replace(currents, **{
        name: 0.0 for name, zero in zip(_COMPONENTS, zeroed) if zero})
    assert np.array_equal(bits(sk.scattered_field_at_points(absent, pts, LAMBDA)),
                          bits((e_theta, e_phi)))
    for obs in observations:
        assert np.array_equal(bits(dataclasses.astuple(sk.scattered_field(absent, obs, LAMBDA))),
                              bits(dataclasses.astuple(sk.scattered_field(currents, obs, LAMBDA))))


def test_mixed_rank_batch_matches_single_points_in_any_order():
    """One batch of more than one chunk mixes Taylor ranks: large |kappa| near the
    panel, kappa = 0 at phi = 0 and duplicated points (ties in the rank order).
    Given in ascending, descending or shuffled |kappa| order, each value matches
    its own single-point sum, and a permuted batch gives the permuted values."""
    grid = sk.discretize(40 * DELTA, DELTA)
    currents = random_currents(grid, seed=11)
    rng = np.random.default_rng(11)
    n = _POINT_CHUNK + 60
    m = rng.uniform(2.0, 50.0, n)                # distance in panel sides
    theta = rng.uniform(0.2, math.pi / 2, n)
    phi = rng.uniform(-math.pi, math.pi, n)
    m[:80] = rng.uniform(2.0, 3.0, 80)           # near the panel, phi about +-pi/4
    phi[:80] = rng.uniform(0.6, 1.0, 80) * rng.choice([-1.0, 1.0], 80)
    phi[::5] = 0.0
    pts = np.array([cartesian(sk.ObservationPoint(r=mi * grid.side_l, theta=ti, phi=fi))
                    for mi, ti, fi in zip(m, theta, phi)])
    pts[1::9] = pts[0::9][:pts[1::9].shape[0]]
    derived = spherical(pts)
    r, theta, phi = derived.T
    kappa = np.abs(np.sin(theta) ** 2 * np.sin(phi) * np.cos(phi) / r)
    assert np.count_nonzero(kappa == 0.0) >= n // 5

    singles = []
    for row in derived:
        single = sk.scattered_field(currents, sk.ObservationPoint(*map(float, row)), LAMBDA,
                                    fresnel="off")
        singles.append((single.e_theta, single.e_phi))
    singles = np.array(singles)
    scale = np.abs(singles).max()
    ascending = np.argsort(kappa, kind="stable")
    results = []
    for order in (ascending, ascending[::-1], rng.permutation(n)):
        e_theta, e_phi = sk.scattered_field_at_points(currents, pts[order], LAMBDA)
        values = np.empty((n, 2), dtype=complex)
        values[order] = np.stack([e_theta, e_phi], axis=1)
        assert np.abs(values - singles).max() <= 1e-12 * scale
        results.append(values)
    for values in results[1:]:
        assert np.abs(values - results[0]).max() <= 1e-14 * scale


def test_cut_map_zero_currents(baseline):
    grid = sk.discretize(8 * DELTA, DELTA)
    cut = sk.FieldCut(plane="transversal", half_extent=0.5, points=5)
    cut_map = sk.field_cut_map(zero_currents(grid), cut, baseline, fresnel="off")
    assert np.all(cut_map.e_phi_abs == 0.0)
    assert np.all(cut_map.e_total_abs == 0.0)


def test_cut_validation():
    with pytest.raises(sk.ConfigError):
        sk.FieldCut(plane="diagonal", half_extent=1.0, points=61)
    for extent in (-1.0, math.nan, math.inf):
        with pytest.raises(sk.ConfigError):
            sk.FieldCut(plane="transversal", half_extent=extent, points=61)
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


@pytest.mark.parametrize("plane", ["transversal", "longitudinal"])
def test_cut_maps_of_screens_equal_their_single_maps(baseline, panel08, plane):
    """Screens on one grid share one pass, and each map has the bits that
    field_cut_map gives it alone: a skin (3 live components), a conducting
    screen (scalar-0 jm_x, jm_y) and a screen of scalar zeros, in either order,
    over more than one point chunk."""
    panel, _ = panel08
    screens = [sk.gstc_currents(panel, baseline),
               sk.pcs_currents(sk.PcsPanel(grid=panel.grid), baseline),
               sk.SurfaceCurrents(je_y=0.0, jm_x=0.0, jm_y=0.0, grid=panel.grid)]
    assert [sum(np.ndim(c) > 0 for c in (s.je_y, s.jm_x, s.jm_y)) for s in screens] == [3, 1, 0]
    cut = sk.FieldCut(plane=plane, half_extent=2.0, points=17)
    assert cut.points**2 > _POINT_CHUNK

    def bits(cut_map):
        return [cut_map.e_phi_abs.view(np.int64), cut_map.e_total_abs.view(np.int64)]

    singles = [sk.field_cut_map(currents, cut, baseline, fresnel="off") for currents in screens]
    assert np.any(singles[0].e_total_abs != singles[1].e_total_abs)
    assert np.all(singles[2].e_total_abs == 0.0)
    for order in ([0, 1, 2], [2, 1, 0]):
        maps = field_cut_maps([screens[i] for i in order], cut, baseline)
        assert len(maps) == len(order)
        for i, cut_map in zip(order, maps):
            assert cut_map.cut == cut
            assert np.array_equal(cut_map.u, singles[i].u)
            assert np.array_equal(cut_map.v, singles[i].v)
            for got, want in zip(bits(cut_map), bits(singles[i])):
                assert np.array_equal(got, want)


def test_cut_maps_need_screens_on_one_grid(baseline):
    cut = sk.FieldCut(plane="transversal", half_extent=0.5, points=3)
    small = zero_currents(sk.discretize(4 * DELTA, DELTA))
    large = zero_currents(sk.discretize(5 * DELTA, DELTA))
    with pytest.raises(sk.GeometryError, match="one grid"):
        field_cut_maps([small, large], cut, baseline)
    with pytest.raises(sk.GeometryError, match="at least one"):
        field_cut_maps([], cut, baseline)


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

    def fsum(terms):
        flat = terms.reshape(-1)
        return complex(math.fsum(flat.real), math.fsum(flat.imag))

    def exact(c):
        return dense_field(c, obs, LAMBDA, total=fsum)

    e_theta, e_phi = exact(currents)
    assert abs(field.e_phi - e_phi) <= 1e-12 * abs(e_phi)
    # the centred panel is mirror-symmetric about the plane of incidence, so
    # its cross-polarized field cancels to a rounding residue
    assert abs(field.e_theta) <= 1e-12 * abs(field.e_phi)
    assert abs(e_theta) <= 1e-12 * abs(e_phi)

    # a magnetic current along y gives the theta-hat bracket a field to compare
    mixed = dataclasses.replace(currents, jm_y=sk.ETA0 * currents.je_y)
    field = sk.scattered_field(mixed, obs, LAMBDA, fresnel="off")
    e_theta, e_phi = exact(mixed)
    assert abs(e_theta) >= 0.1 * abs(e_phi)
    assert abs(field.e_theta - e_theta) <= 1e-12 * abs(e_theta)
    assert abs(field.e_phi - e_phi) <= 1e-12 * abs(e_phi)
