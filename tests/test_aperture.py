"""Grid discretization, descriptor matrices and layout serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinlink as sk

from helpers import make_scenario

SCENARIO = make_scenario()


def test_cell_counts():
    assert sk.discretize(0.8, 5.556e-3).p_count == 144
    assert sk.discretize(1.0, 5.556e-3).p_count == 180
    assert sk.discretize(0.8, 5.556e-3).cell_count == 144 * 144


def test_single_cell_grid():
    delta = 5.556e-3
    grid = sk.discretize(delta, delta)
    assert grid.p_count == 1 and grid.cell_count == 1
    assert grid.x_centers[0] == 0.0
    assert grid.y_centers[0] == 0.0


def test_centered_cells_offset():
    # the middle cell of any odd lattice sits on the specular point
    delta = 5.556e-3
    grid5 = sk.discretize(5 * delta, delta)
    assert grid5.x_centers[2] == pytest.approx(0.0, abs=1e-15)
    assert grid5.y_centers[2] == pytest.approx(0.0, abs=1e-15)
    # and every cell is half a pitch off the panel edge
    assert grid5.x_centers[0] == pytest.approx(-2.5 * delta + 0.5 * delta, abs=1e-15)


def test_degenerate_aperture_rejected():
    for side_l, pitch in [(4e-3, 5.556e-3), (-1.0, 5.556e-3), (math.nan, 5.556e-3),
                          (math.inf, 5.556e-3), (0.5, math.nan), (0.5, math.inf)]:
        with pytest.raises(sk.GeometryError):
            sk.discretize(side_l, pitch)


def test_barycenter_formula_and_tiling():
    grid = sk.discretize(0.8, 5.556e-3)
    L, d = grid.side_l, grid.pitch
    for p in (0, 1, 71, 143):
        assert grid.x_centers[p] == pytest.approx(-L / 2.0 + (p + 0.5) * d, abs=1e-15)
    area = grid.cell_count * d * d
    assert abs(area - L * L) <= 1e-9 * L * L


def test_grid_symmetry():
    grid = sk.discretize(0.5, 5.556e-3)
    np.testing.assert_array_equal(grid.x_centers, grid.y_centers)
    X, Y = grid.cell_grid()
    np.testing.assert_array_equal(X, Y.T)


def test_descriptor_rejects_non_matrix_values():
    sk.DescriptorVector(values=np.zeros((3, 3)))
    for values in (np.zeros(9), np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(sk.LayoutError):
            sk.DescriptorVector(values=values)


def test_layout_roundtrip_single_cell():
    grid = sk.discretize(5.556e-3, 5.556e-3)
    d = sk.DescriptorVector(values=np.array([[3.0e-3]]))
    doc = sk.export_layout(d, grid, SCENARIO)
    d2, meta = sk.import_layout(doc)
    np.testing.assert_array_equal(d2.values, [[3.0e-3]])
    assert meta["f_hz"] == 27e9
    assert meta["delta_m"] == grid.pitch


def test_layout_roundtrip_bit_exact():
    rng = np.random.default_rng(11)
    grid = sk.discretize(0.05, 5.556e-3)
    m = rng.uniform(0.3e-3, 5e-3, size=(grid.p_count, grid.p_count))
    d = sk.DescriptorVector(values=m)
    doc = sk.export_layout(d, grid, SCENARIO)
    d2, meta = sk.import_layout(doc)
    assert meta["L_m"] == grid.side_l
    np.testing.assert_array_equal(d2.values, d.values)
    # a second export of the reimported layout is byte-identical
    assert sk.export_layout(d2, grid, SCENARIO) == doc


def test_layout_size_mismatch():
    grid = sk.discretize(0.05, 5.556e-3)
    d = sk.DescriptorVector(values=np.zeros((2, 2)))
    with pytest.raises(sk.LayoutError):
        sk.export_layout(d, grid, SCENARIO)
    with pytest.raises(sk.LayoutError):
        sk.import_layout("{\"meta\": {}}")
    doc = json.loads(sk.export_layout(
        sk.DescriptorVector(values=np.full((9, 9), 1e-3)), grid, SCENARIO))
    for bad in (float("nan"), float("inf")):
        doc["cells"][4][2] = bad
        with pytest.raises(sk.LayoutError):
            sk.import_layout(json.dumps(doc))


def test_export_layout_rejects_non_finite_cells():
    # json would write these as NaN / Infinity, which import_layout rejects
    one = sk.discretize(5.556e-3, 5.556e-3)
    nine = sk.discretize(0.05, 5.556e-3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(sk.LayoutError, match="finite"):
            sk.export_layout(sk.DescriptorVector(values=np.array([[bad]])), one, SCENARIO)
        values = np.full((9, 9), 1e-3)
        values[4, 2] = bad
        with pytest.raises(sk.LayoutError, match="finite"):
            sk.export_layout(sk.DescriptorVector(values=values), nine, SCENARIO)


def test_export_layout_rejects_empty_layout():
    grid = sk.ApertureGrid(pitch=5.556e-3, p_count=0)
    with pytest.raises(sk.LayoutError, match="at least one cell"):
        sk.export_layout(sk.DescriptorVector(values=np.zeros((0, 0))), grid, SCENARIO)


# values that json writes in every float form: signed zeros, subnormals, short
# and long decimals, exponents both ways
_LAYOUT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-309, 1e-3, 5e-3,
                     0.1, 1e16, 1.5e-7, 123456789.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), pool=st.lists(_LAYOUT_VALUES, min_size=1, max_size=6),
       data=st.data(), f_hz=st.floats(1e6, 1e12))
def test_export_layout_matches_json_encoder(n, pool, data, f_hz):
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * n,
                               max_size=n * n))
    values = np.array([pool[i] for i in picks]).reshape(n, n)
    grid = sk.ApertureGrid(pitch=0.01, p_count=n)
    d = sk.DescriptorVector(values=values)
    scenario = make_scenario(f=f_hz)
    doc = {"meta": {"f_hz": f_hz, "L_m": grid.side_l, "delta_m": grid.pitch, "B": 1,
                    "scenario_hash": sk.scenario_fingerprint(scenario)},
           "cells": values.tolist()}
    expected = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert sk.export_layout(d, grid, scenario) == expected


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 8), pool=st.lists(_LAYOUT_VALUES, min_size=1, max_size=6),
       data=st.data())
def test_layout_round_trip_is_bit_exact(n, pool, data):
    # cells repeat a few values, as a synthesized layout's do; each must read
    # back with its bits, -0.0 and subnormals included
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * n,
                               max_size=n * n))
    values = np.array([pool[i] for i in picks]).reshape(n, n)
    grid = sk.ApertureGrid(pitch=0.01, p_count=n)
    text = sk.export_layout(sk.DescriptorVector(values=values), grid, SCENARIO)
    d, meta = sk.import_layout(text)
    assert np.array_equal(d.values.view(np.int64), values.view(np.int64))
    assert meta == json.loads(text)["meta"]


def test_import_layout_reads_a_meta_string_true():
    # the text holds "true", so the boolean scan runs, and finds no boolean cell
    meta = {"f_hz": 27e9, "L_m": 9 * 0.005, "delta_m": 0.005, "B": 1, "scenario_hash": "true"}
    d, read = sk.import_layout(json.dumps({"meta": meta, "cells": [[1e-3] * 9] * 9}))
    assert read == meta
    assert d.values.shape == (9, 9) and np.all(d.values == 1e-3)


@pytest.mark.parametrize("meta", [
    {"f_hz": 27e9, "delta_m": 5.556e-3, "B": 1},                 # no L_m
    [0.05],                                                       # not an object
    {"f_hz": 27e9, "L_m": 0.05, "delta_m": 5.556e-3, "B": 2},    # two descriptors
    {"L_m": float("nan")},
    {"L_m": float("inf")},
    {"L_m": float("-inf")},
    {"L_m": 0.0},
    {"L_m": -1.0},
])
def test_import_layout_rejects_bad_meta(meta):
    doc = {"meta": meta, "cells": [[1e-3] * 9] * 9}
    with pytest.raises(sk.LayoutError):
        sk.import_layout(json.dumps(doc))


def flagged_cells(flag):
    """9 x 9 cells with cells[4][2] a JSON boolean, which np.asarray reads as a number."""
    cells = [[1e-3] * 9 for _ in range(9)]
    cells[4][2] = flag
    return cells


@pytest.mark.parametrize("meta, cells", [
    ({"B": 1.5}, None),
    ({"B": True}, None),
    ({"B": "1"}, None),
    ({"L_m": True, "delta_m": 1.0}, [[1e-3]]),      # would read as a 1 m side
    ({"L_m": "0.5", "delta_m": 0.5}, [[1e-3]]),
    ({"delta_m": "0.005"}, None),
    ({"delta_m": None}, None),
    ({"delta_m": -0.005}, None),
    ({"L_m": 0.5}, None),                            # not 9 cells of 5 mm
    ({"L_m": 0.045 * (1.0 + 1e-11)}, None),
    ({}, [["1e-3"] * 9] * 9),                        # cells as JSON strings
    ({}, [[True] * 9] * 9),
    ({}, flagged_cells(True)),                       # would read as 1.0 m
    ({}, flagged_cells(False)),
])
def test_import_layout_rejects_what_it_would_misread(meta, cells):
    good = {"meta": {"f_hz": 27e9, "L_m": 9 * 0.005, "delta_m": 0.005, "B": 1},
            "cells": [[1e-3] * 9] * 9}
    sk.import_layout(json.dumps(good))
    doc = {"meta": {**good["meta"], **meta}, "cells": cells or good["cells"]}
    with pytest.raises(sk.LayoutError):
        sk.import_layout(json.dumps(doc))


def test_import_layout_rejects_a_document_nested_past_the_decoder_depth():
    doc = '{"cells": ' + "[" * 100000 + "]" * 100000 + ', "meta": {}}'
    with pytest.raises(sk.LayoutError, match="malformed layout document: RecursionError"):
        sk.import_layout(doc)


def ring_count(matrix, g_lo, g_hi):
    n = matrix.shape[0]
    half = n - n // 2
    diag = np.array([matrix[n // 2 + i, n // 2 + i] for i in range(half)])
    return 1 + int((np.abs(np.diff(diag)) > 0.5 * (g_hi - g_lo)).sum())


def test_synthesized_layout_has_concentric_rings(panel08, table):
    panel, _ = panel08
    assert panel.grid.p_count == 144
    m = panel.d.values
    lo, hi = table.g_range
    assert ring_count(m, lo, hi) > 1
    # concentric structure: the pattern is mirror-symmetric about the y = 0 line
    assert np.array_equal(m, m[:, ::-1])
