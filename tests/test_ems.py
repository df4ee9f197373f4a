"""Lookup table, sheet currents, phase-conjugation synthesis and skin TPA."""

import math
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinlink as sk
from skinlink.ems import _PHASE_BINS, _binned_candidate, _nearest_candidate, _phase_bin_index
from skinlink.field_engine import path_term
from skinlink.scenario import shared_incident_fields

from helpers import (beta, currents_reference, make_scenario, passive_bound,
                     spherical_wave_fields, subsampled_table, table_csv)


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
    # one instance per process, shared by every caller; it is read-only
    # (test_synthesis_lookup_is_sorted_distinct_and_read_only, on this table)
    assert sk.synthetic_table() is table
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
    with pytest.raises(sk.ConfigError, match="columns must share one length"):
        sk.ReflectionLookupTable(g=g, gamma_xx=ok, gamma_yy=ok[:1])


def test_table_columns_are_read_only_copies():
    g = np.array([1e-3, 2e-3, 3e-3])
    gamma = np.exp(1j * np.array([2.0, 1.0, 0.0]))
    tab = sk.ReflectionLookupTable(g=g, gamma_xx=gamma, gamma_yy=gamma)
    before = tab.gamma_at(np.array([2e-3, 2.5e-3]))
    for column in (tab.g, tab.gamma_xx, tab.gamma_yy):
        with pytest.raises(ValueError):
            column[1] = column[0]
    g[1] = g[0]                      # the caller's own arrays stay the caller's
    gamma[:] = -1.0
    assert np.all(np.diff(tab.g) > 0)
    for got, want in zip(tab.gamma_at(np.array([2e-3, 2.5e-3])), before):
        np.testing.assert_array_equal(got, want)


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
    header = "g_m,re_gamma_xx,im_gamma_xx,re_gamma_yy,im_gamma_yy"
    for name, text, message in [
            ("empty", "", "empty reflection table"),
            ("header_only", f"{header}\n", "reflection table needs at least two entries"),
            ("one_row", f"{header}\n1e-3,1,0,1,0\n", "reflection table needs at least two entries"),
            ("four_columns", f"{header}\n1e-3,1,0,1,0\n2e-3,0,1,0\n", "line 3: expected 5 columns"),
            ("x_number", f"{header}\n1e-3,1,0,1,0\n2e-3,x,1,0,1\n",
             "line 3: cannot parse value for 're_gamma_xx'"),
            # nothing writes quotes: a quoted field is not a number
            ("quoted", f'{header}\n"1e-3",1,0,1,0\n2e-3,0,1,0,1\n',
             "line 2: cannot parse value for 'g_m'"),
            # the error names the column, not the field's text
            ("long_field", f"{header}\n1e-3,1,0,1,0\n2e-3,{'y' * 140_000},1,0,1\n",
             "line 3: cannot parse value for 're_gamma_xx'")]:
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(sk.ConfigError) as info:
            sk.load_reflection_table(path)
        assert str(info.value) == message
        assert "\n" not in message and len(message) < 100
    # a blank line between rows is skipped, and bare-CR line ends read as line ends
    for name, text in [("blank_line", f"{header}\n1e-3,1,0,1,0\n\n2e-3,0,1,0,1\n"),
                       ("bare_cr", f"{header}\r1e-3,1,0,1,0\r2e-3,0,1,0,1\r")]:
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("ascii"))
        tab = sk.load_reflection_table(path)
        assert tab.g.tolist() == [1e-3, 2e-3]
        assert tab.gamma_xx.tolist() == tab.gamma_yy.tolist() == [1 + 0j, 1j]


def test_gamma_lookup_range(table):
    lo, hi = table.g_range
    with pytest.raises(sk.LayoutError):
        table.gamma_at(hi + 1e-4)
    with pytest.raises(sk.LayoutError):
        table.gamma_at(lo - 1e-4)
    on_grid = table.synthesis_grid[0][5]
    for bad in (math.nan, math.inf, -math.inf, hi + 1e-9, lo - 1e-9):
        with pytest.raises(sk.LayoutError, match="outside table range"):
            table.gamma_at(np.array([[on_grid, on_grid], [bad, on_grid]]))
    gxx, gyy = table.gamma_at(np.array([lo, hi]))
    np.testing.assert_allclose(gxx, table.gamma_xx[[0, -1]], rtol=1e-12)
    np.testing.assert_allclose(gyy, table.gamma_yy[[0, -1]], rtol=1e-12)


def test_gamma_at_matches_per_element_interpolation(table):
    # the synthetic table, and two spans whose top lies off the 1 um synthesis
    # lattice: below its last step (10.4 um), and clipping it (10.6 um)
    spans = [sk.ReflectionLookupTable(g=np.array([1e-3, 1e-3 + span]),
                                      gamma_xx=np.array([0.5j, -0.9]),
                                      gamma_yy=np.array([-0.8 + 0.6j, 0.6 - 0.8j]))
             for span in (10.4e-6, 10.6e-6)]
    rng = np.random.default_rng(3)
    for tab in (table, *spans):
        lo, hi = tab.g_range
        g_fine = tab.synthesis_grid[0]
        # values gathered from the synthesis grid: grid points, both ends and
        # synthesized geometry; values interpolated one by one: table nodes,
        # points next to grid points, within the range slack and random values
        distinct = np.concatenate([rng.choice(g_fine, 16), g_fine[[0, -1]],
                                   tab.synthesis_lookup[1][:8], tab.g,
                                   np.nextafter(g_fine[1:5], 1.0), np.nextafter(g_fine[1:5], 0.0),
                                   [lo, hi, lo - 5e-13, hi + 5e-13], rng.uniform(lo, hi, 16)])
        # each repeated three times and shuffled into a 2-D query
        query = rng.permutation(np.repeat(distinct, 3)).reshape(3, -1)
        for gamma, got in zip((tab.gamma_xx, tab.gamma_yy), tab.gamma_at(query)):
            mag, phase = np.abs(gamma), np.unwrap(np.angle(gamma))
            one_by_one = [np.interp(g, tab.g, mag) * np.exp(1j * np.interp(g, tab.g, phase))
                          for g in np.clip(query.reshape(-1), lo, hi)]
            assert np.array_equal(got, np.reshape(one_by_one, query.shape))
    gxx, gyy = table.gamma_at(table.synthesis_grid[0][3])
    assert gxx.shape == gyy.shape == ()
    assert gyy == table.synthesis_grid[2][3]


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
    s, c = math.sin(math.radians(30.0)), math.cos(math.radians(30.0))
    b = path_term(0.1, 15.0, s, c, 1.0, 0.0) + path_term(0.0, 15.0, s, c, 0.0, 1.0)
    got = sk.wrap_phase(-2.0 * math.pi / baseline.wavelength * b)
    assert got == pytest.approx(-3.0196970286476237, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(f=st.floats(3.5e9, 60e9), theta0_deg=st.floats(0.0, 60.0),
       r_tx=st.floats(5.0, 50.0), r_rx=st.floats(5.0, 50.0), cells=st.integers(1, 40))
def test_ideal_phases_conjugate_the_unsplit_path_term(f, theta0_deg, r_tx, r_rx, cells):
    scenario = make_scenario(f=f, r_tx=r_tx, r_rx=r_rx, theta0_deg=theta0_deg)
    grid = sk.discretize(cells * scenario.pitch, scenario.pitch)
    obs = sk.ObservationPoint(r=r_rx, theta=scenario.theta0, phi=0.0)
    ref = -2.0 * math.pi / scenario.wavelength * beta(grid.cell_grid(), obs)
    got = sk.ideal_current_phases(grid, scenario)
    assert got.shape == (cells, cells)
    assert np.all(np.abs(sk.wrap_phase(got - ref)) <= 1e-12)


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
    # H of a y-polarized wave is perpendicular to y at every cell (the full-vector
    # oracle's H_y is rounding), so neither the screen nor the skin carries an
    # x-directed electric current, and reflection_currents builds it as exact zeros
    grid = sk.discretize(1.0, baseline.pitch)
    _, h = spherical_wave_fields(baseline, *grid.cell_grid())
    assert np.all(np.abs(h[..., 1]) <= 1e-15 * np.linalg.norm(h, axis=-1))
    panel, _ = sk.design_panel(baseline, 1.0, table)
    for currents in (sk.pcs_currents(sk.PcsPanel(grid=grid), baseline),
                     sk.gstc_currents(panel, baseline)):
        assert currents.je_x == 0.0


def _is_absent(component):
    """The scalar 0.0 that stands for a component the cells do not carry."""
    return type(component) is float and component == 0.0


_PASSIVE = st.builds(lambda mag, phase: mag * complex(math.cos(phase), math.sin(phase)),
                     st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
_SCALAR_GAMMA = st.one_of(
    st.sampled_from([-1.0, 1.0, 0.0, -1, -1.0 + 0.0j, complex(-1.0, -0.0)]),
    _PASSIVE, st.floats(-1.0, 1.0))


@st.composite
def _gamma(draw, cells):
    """A scalar gamma, or a (cells, cells) complex or float array with some
    cells exactly -1."""
    if draw(st.booleans()):
        return draw(_SCALAR_GAMMA)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = rng.uniform(0.0, 1.0, (cells, cells)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, (cells, cells)))
    if draw(st.booleans()):
        gamma = gamma.real.copy()
    gamma[rng.uniform(size=gamma.shape) < 0.3] = -1.0
    return gamma


@settings(max_examples=40, deadline=None)
@given(cells=st.integers(1, 12), data=st.data(), scoped=st.booleans())
def test_reflection_currents_match_the_plain_expressions(cells, data, scoped):
    # a component whose factor is a scalar 0 is the scalar 0.0, equal by value
    # (its sign is not kept); every other component matches bit for bit
    scenario = make_scenario()
    grid = sk.ApertureGrid(pitch=scenario.pitch, p_count=cells)
    gamma_xx, gamma_yy = data.draw(_gamma(cells)), data.draw(_gamma(cells))
    with shared_incident_fields() if scoped else nullcontext():
        currents = sk.reflection_currents(grid, scenario, gamma_xx, gamma_yy)
        reference = currents_reference(grid, scenario, gamma_xx, gamma_yy)
    components = (currents.je_y, currents.jm_x, currents.jm_y)
    factors = (1.0 - gamma_yy, -(1.0 + gamma_yy), 1.0 + gamma_xx)
    assert currents.je_x == 0.0
    for component, expected, factor in zip(components, reference, factors):
        assert expected.shape == (cells, cells)
        np.testing.assert_array_equal(np.broadcast_to(component, expected.shape), expected)
        assert _is_absent(component) == (np.ndim(factor) == 0 and factor == 0)
        if not _is_absent(component):
            assert np.array_equal(component.view(np.int64), expected.view(np.int64))


def test_zero_components_hold_no_cells(baseline):
    # on a 200 x 200 lattice whose field the scope memo already holds, building
    # a screen's currents allocates about its one array (je_y) and a skin's its
    # three; the components the cells do not carry are the scalar 0
    grid = sk.ApertureGrid(pitch=baseline.pitch, p_count=200)
    array_bytes = grid.cell_count * np.dtype(complex).itemsize
    rng = np.random.default_rng(3)
    gxx, gyy = (np.exp(1j * rng.uniform(-math.pi, math.pi, (200, 200))) for _ in range(2))
    builds = ((lambda: sk.pcs_currents(sk.PcsPanel(grid=grid), baseline), 1.1,
               ("jm_x", "jm_y")),
              (lambda: sk.reflection_currents(grid, baseline, gxx, gyy), 3.1, ()))
    with shared_incident_fields():
        sk.incident_fields(baseline, *grid.cell_grid())
        for build, arrays, zeros in builds:
            tracemalloc.start()
            try:
                currents = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= arrays * array_bytes
            for name in ("je_y", "jm_x", "jm_y"):
                assert _is_absent(getattr(currents, name)) == (name in zeros)


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

def nearest_index(cand, needs):
    """Index (per need) of the nearest candidate: the lookup over geometry 0, 1, ..."""
    phases, first = np.unique(cand, return_index=True)
    return _nearest_candidate(phases, first, needs)


def test_nearest_candidate_tie_prefers_smaller_geometry():
    cand = np.array([-0.5, 0.5])
    assert nearest_index(cand, np.array([0.0]))[0] == 0
    assert nearest_index(cand[::-1].copy(), np.array([0.0]))[0] == 0


def test_nearest_candidate_wraparound():
    cand = np.array([-1.4, -0.2, 1.3])
    idx = nearest_index(cand, np.array([3.1]))  # close to pi: wraps to -1.4
    assert idx[0] == 0


def test_nearest_candidate_brute_path_matches_fast_path():
    rng = np.random.default_rng(9)
    mono = np.sort(rng.uniform(-1.2, 1.2, size=41))
    needs = rng.uniform(-math.pi, math.pi, size=300)
    fast_idx = nearest_index(mono, needs)
    shuffled = mono.copy()
    shuffled[5], shuffled[6] = shuffled[6], shuffled[5]  # break monotonicity
    brute_idx = nearest_index(shuffled, needs)
    fast_d = np.abs(sk.wrap_phase(mono[fast_idx] - needs))
    brute_d = np.abs(sk.wrap_phase(shuffled[brute_idx] - needs))
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
    idx = nearest_index(cand, needs)
    dist = np.abs(sk.wrap_phase(cand[None, :] - needs[:, None]))
    brute = np.argmin(dist, axis=1)                   # first minimum: smaller index
    np.testing.assert_array_equal(idx, brute)


def step_ulps(x, n):
    """x moved by n units in the last place (toward +inf for n > 0)."""
    for _ in range(abs(n)):
        x = np.nextafter(x, math.copysign(math.inf, n))
    return float(x)


_PHASE = st.floats(-math.pi, math.pi, exclude_min=True)
_NEAR_PI = (st.floats(math.pi - 0.3, math.pi)
            | st.floats(-math.pi, -math.pi + 0.3, exclude_min=True))


@st.composite
def candidate_phases(draw):
    """Candidate phases in (-pi, pi], as np.angle gives them for 1 - gamma: spread
    out, straddling +-pi, one only, with near-duplicates a few ulps or under the
    bin margin apart, or all of them in one such cluster."""
    kind = draw(st.sampled_from(["spread", "straddle", "single", "near_duplicates",
                                 "cluster"]))
    if kind == "single":
        return [draw(_PHASE)]
    if kind == "cluster":
        base = draw(_PHASE)
        cand = [base] + draw(st.lists(st.integers(-4, 4).map(lambda n: step_ulps(base, n))
                                      | st.floats(-1e-9, 1e-9).map(lambda d: base + d),
                                      min_size=1, max_size=5))
        return [c for c in cand if -math.pi < c <= math.pi]
    cand = draw(st.lists(_NEAR_PI if kind == "straddle" else _PHASE,
                         min_size=1, max_size=30))
    if kind == "near_duplicates":
        for c in list(cand):
            cand.append(step_ulps(c, draw(st.integers(-4, 4))))
            cand.append(c + draw(st.floats(-2e-9, 2e-9)))
        cand = [c for c in cand if -math.pi < c <= math.pi]
    return cand


def bin_lookup(cand):
    """(phases, geometry, winners): the lookup over ascending geometry and its bin index."""
    phases, first = np.unique(np.array(cand), return_index=True)
    geometry = 1e-3 + 1e-6 * first
    return phases, geometry, _phase_bin_index(phases, geometry)


@settings(max_examples=300, deadline=None)
@given(cand=candidate_phases(), data=st.data())
def test_binned_lookup_equals_nearest_candidate(cand, data):
    phases, geometry, winners = bin_lookup(cand)
    width = 2.0 * math.pi / _PHASE_BINS
    wrap_mid = (phases[-1] + phases[0] + 2.0 * math.pi) / 2.0
    mids = sk.wrap_phase(np.append((phases[:-1] + phases[1:]) / 2.0, wrap_mid))
    special = st.one_of(
        st.integers(0, _PHASE_BINS).map(lambda b: -math.pi + b * width),   # bin edges
        st.sampled_from(list(mids)),                                       # midpoints
        st.sampled_from([math.pi, -math.pi]))
    near = st.tuples(special, st.integers(-4, 4), st.integers(-64, 64)).map(
        lambda t: step_ulps(t[0], t[1]) + 2.0 * math.pi * t[2])   # unwrapped by k turns
    anywhere = st.floats(-2.0 * math.pi - 400.0, 2.0 * math.pi + 400.0)
    need = np.array(data.draw(st.lists(near | anywhere, min_size=1, max_size=40)))
    direct = _nearest_candidate(phases, geometry, sk.wrap_phase(need))
    assert np.array_equal(_binned_candidate(phases, geometry, winners, need), direct)


# one candidate, wrap-around midpoints below and above pi, and one at the far end
@pytest.mark.parametrize("cand", [[0.25], [-1.0, 0.5], [-0.5, 1.0], [-3.0, 3.0, 0.1]])
def test_bin_index_holds_the_nearest_candidate(cand):
    phases, geometry, winners = bin_lookup(cand)
    centres = -math.pi + (np.arange(_PHASE_BINS) + 0.5) * (2.0 * math.pi / _PHASE_BINS)
    dist = np.abs(sk.wrap_phase(phases[None, :] - centres[:, None]))
    pure = ~np.isnan(winners)
    assert np.array_equal(winners[pure], geometry[np.argmin(dist, axis=1)][pure])
    # each midpoint (the antipode of a lone candidate) mixes the bin it lies in,
    # or two when it lies within the margin of their shared edge, and no other
    assert phases.size <= np.isnan(winners).sum() <= 2 * phases.size


@settings(max_examples=300, deadline=None)
@given(cand=candidate_phases(), needs=st.lists(_PHASE, min_size=1, max_size=20))
def test_nearest_candidate_is_nearest_off_the_lattice(cand, needs):
    cand, needs = np.array(cand), np.array(needs)
    picked = cand[nearest_index(cand, needs)]
    dist = np.abs(sk.wrap_phase(picked - needs))
    brute = np.abs(sk.wrap_phase(cand[None, :] - needs[:, None])).min(axis=1)
    assert np.all(dist <= brute + 2e-15)


def test_bin_index_of_two_candidates_a_few_ulps_apart():
    # the two midpoints sit near 0 and near +-pi, each on a bin edge; the far
    # candidate is nearer to every positive need, by 6e-173 rad
    phases, geometry, winners = bin_lookup([0.0, 6e-173])
    assert np.isnan(winners).sum() == 4
    need = np.array([2.0, -2.0])
    for pick in (_nearest_candidate(phases, geometry, need),
                 _binned_candidate(phases, geometry, winners, need)):
        np.testing.assert_array_equal(pick, geometry[[1, 0]])


def test_bin_index_of_the_synthetic_table_mixes_only_bins_at_midpoints(table):
    phases, _, winners = table.synthesis_lookup
    assert phases.size <= np.isnan(winners).sum() <= 2 * phases.size


@pytest.mark.parametrize("step", [1, 7])
def test_synthesis_gathers_what_the_direct_lookup_picks(baseline, step):
    table = subsampled_table(step)
    grid = sk.discretize(1.0, baseline.pitch)
    targets = sk.ideal_current_phases(grid, baseline)
    h_x = sk.incident_fields(baseline, *grid.cell_grid())[2]
    direct = _nearest_candidate(*table.synthesis_lookup[:2],
                                sk.wrap_phase(targets - np.angle(h_x)))
    assert np.array_equal(sk.synthesize_layout(grid, table, targets, baseline).values, direct)


def test_synthesis_lookup_is_sorted_distinct_and_read_only(table):
    phases, geometry, winners = table.synthesis_lookup
    assert np.all(np.diff(phases) > 0)
    assert geometry.shape == phases.shape
    lo, hi = table.g_range
    assert np.all((geometry >= lo) & (geometry <= hi))
    np.testing.assert_array_equal(np.angle(1.0 - table.gamma_at(geometry)[1]), phases)
    g_fine, gxx, gyy = table.synthesis_grid
    assert g_fine.shape == gxx.shape == gyy.shape
    assert np.all(np.diff(g_fine) > 0) and g_fine[0] == lo
    assert winners.shape == (_PHASE_BINS,)
    for array in (phases, geometry, winners, g_fine, gxx, gyy):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert table.synthesis_lookup is table.synthesis_lookup
    assert table.synthesis_grid is table.synthesis_grid
    # gamma_at hands out its own arrays, which leave the cache as it was
    got_xx, _ = table.gamma_at(g_fine[:3])
    got_xx[:] = 0.0
    assert np.all(gxx[:3] != 0.0)


def test_synthesis_on_single_candidate_table(baseline):
    # a 0.1 um geometry span is below the 1 um synthesis step: one candidate
    narrow = sk.ReflectionLookupTable(g=np.array([1.0e-3, 1.0e-3 + 1e-7]),
                                      gamma_xx=np.array([1j, -1j]),
                                      gamma_yy=np.array([1j, -1j]))
    panel, _ = sk.design_panel(baseline, 0.05, narrow)
    np.testing.assert_array_equal(panel.d.values, 1.0e-3)
    assert sk.receiver_tpa(sk.gstc_currents(panel, baseline), baseline) > 0.0


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
    for bad in (math.nan, math.inf):
        broken = targets.copy()
        broken[3, 4] = bad
        with pytest.raises(sk.LayoutError, match="target phases must be finite"):
            sk.synthesize_layout(grid, table, broken, baseline)
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
    arc = rng.uniform(cand.min(), cand.max(), size=(grid.p_count, grid.p_count))
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

    cand = table.synthesis_lookup[0]
    h_x = sk.incident_fields(baseline, *grid.cell_grid())[2]
    need = sk.wrap_phase(targets - np.angle(h_x))
    brute = np.abs(sk.wrap_phase(cand[None, None, :] - need[:, :, None]))
    per_cell_min = brute.min(axis=2) ** 2
    assert phi == pytest.approx(per_cell_min.sum(), rel=1e-12)


def test_panel_validation(baseline, table):
    grid = sk.discretize(0.05, baseline.pitch)
    shape = (grid.p_count, grid.p_count)
    good = sk.DescriptorVector(values=np.full(shape, 2e-3))
    sk.EmsPanel(grid=grid, d=good, table=table)
    for g in (9e-3, math.nan):
        values = np.full(shape, 2e-3)
        values[1, 2] = g
        with pytest.raises(sk.LayoutError):
            sk.EmsPanel(grid=grid, d=sk.DescriptorVector(values=values), table=table)
    with pytest.raises(sk.LayoutError):
        sk.EmsPanel(grid=grid, d=sk.DescriptorVector(values=np.full((3, 3), 2e-3)),
                    table=table)


# --- skin attenuation -----------------------------------------------------

def test_ems_tpa_independent_of_transmit_power(table):
    low = make_scenario(p_tx=0.1)
    high = make_scenario(p_tx=10.0)
    panel_low, _ = sk.design_panel(low, 0.3, table)
    panel_high, _ = sk.design_panel(high, 0.3, table)
    a_low = sk.receiver_tpa(sk.gstc_currents(panel_low, low), low)
    a_high = sk.receiver_tpa(sk.gstc_currents(panel_high, high), high)
    assert abs(a_low - a_high) <= 1e-12 * a_low


def test_ems_tpa_desk_scale_band(baseline, panel08):
    panel, _ = panel08
    a = sk.db(sk.receiver_tpa(sk.gstc_currents(panel, baseline), baseline))
    assert -50.0 <= a <= -43.4


def test_ems_beats_equal_screen_at_one_meter(baseline, panel10):
    # ideal lossless cells: the margin exceeds the realized-cell figure but
    # stays below the bound-implied cap (see decisions ledger)
    panel, _ = panel10
    d = sk.db(sk.receiver_tpa(sk.gstc_currents(panel, baseline), baseline)) \
        - sk.db(sk.pcs_tpa(baseline, 1.0))
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


def test_sweep_rows_stay_below_the_passive_bound(sweep19, baseline):
    for row in sweep19:
        bound = passive_bound(baseline, sk.discretize(row.value, baseline.pitch))
        assert row.a_ems <= bound * (1 + 1e-12) and row.a_pcs <= bound * (1 + 1e-12)


def test_propagation_route_matches_coherent_closed_form(baseline):
    # phase-matched je_y cells add coherently at the receiver: with je_y = 1 A/m
    # each cell contributes eta*Delta^2*sinc(pi*Delta*sin(theta0)/lambda)/(2*lambda*r)
    # to E_phi (the sinc is the cell element factor along x), and nothing to E_theta
    grid = sk.discretize(32 * baseline.pitch, baseline.pitch)
    targets = sk.ideal_current_phases(grid, baseline)
    shape = (grid.p_count, grid.p_count)
    currents = sk.SurfaceCurrents(
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


def magnitude(field) -> float:
    """|E| of a scattered field from its theta-hat and phi-hat components."""
    return math.hypot(abs(field.e_theta), abs(field.e_phi))


def test_phase_flip_strictly_reduces_focus(baseline, table):
    grid = sk.discretize(16 * baseline.pitch, baseline.pitch)
    targets = sk.ideal_current_phases(grid, baseline)
    d = sk.synthesize_layout(grid, table, targets, baseline)
    panel = sk.EmsPanel(grid=grid, d=d, table=table)
    currents = sk.gstc_currents(panel, baseline)
    obs = sk.ObservationPoint(r=baseline.r_rx, theta=baseline.theta0, phi=0.0)
    base = sk.scattered_field(currents, obs, baseline.wavelength, fresnel="off")
    base_mag = magnitude(base)
    je_y, jm_x, jm_y = currents.je_y.copy(), currents.jm_x.copy(), currents.jm_y.copy()
    for p in range(grid.p_count):
        for q in range(grid.p_count):
            for arr in (je_y, jm_x, jm_y):
                arr[p, q] *= -1.0
            flipped = sk.SurfaceCurrents(je_y=je_y, jm_x=jm_x, jm_y=jm_y, grid=grid)
            mag = magnitude(sk.scattered_field(flipped, obs, baseline.wavelength,
                                               fresnel="off"))
            assert mag < base_mag
            for arr in (je_y, jm_x, jm_y):
                arr[p, q] *= -1.0


def test_phase_flip_sampled_on_larger_grid(baseline, table):
    grid = sk.discretize(32 * baseline.pitch, baseline.pitch)
    panel, _ = sk.design_panel(baseline, grid.side_l, table)
    currents = sk.gstc_currents(panel, baseline)
    obs = sk.ObservationPoint(r=baseline.r_rx, theta=baseline.theta0, phi=0.0)
    base_mag = magnitude(sk.scattered_field(currents, obs, baseline.wavelength,
                                            fresnel="off"))
    rng = np.random.default_rng(12)
    for _ in range(40):
        p = int(rng.integers(0, grid.p_count))
        q = int(rng.integers(0, grid.p_count))
        je_y, jm_x, jm_y = currents.je_y.copy(), currents.jm_x.copy(), currents.jm_y.copy()
        for arr in (je_y, jm_x, jm_y):
            arr[p, q] *= -1.0
        flipped = sk.SurfaceCurrents(je_y=je_y, jm_x=jm_x, jm_y=jm_y, grid=grid)
        mag = magnitude(sk.scattered_field(flipped, obs, baseline.wavelength,
                                           fresnel="off"))
        assert mag < base_mag


def test_pec_table_degenerates_to_screen(baseline, pec_table):
    panel, _ = sk.design_panel(baseline, 0.3, pec_table)
    a_ems = sk.receiver_tpa(sk.gstc_currents(panel, baseline), baseline)
    a_pcs = sk.pcs_tpa(baseline, 0.3)
    assert abs(a_ems - a_pcs) <= 1e-12 * a_pcs
