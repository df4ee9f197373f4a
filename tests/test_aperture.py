"""Grid discretization, descriptor matrices and layout serialization."""

import json
import math

import numpy as np
import pytest

import skinlink as sk


def test_cell_counts():
    assert sk.discretize(0.8, 5.556e-3).p_count == 144
    assert sk.discretize(1.0, 5.556e-3).p_count == 180
    grid = sk.discretize(0.8, 5.556e-3)
    assert grid.q_count == grid.p_count


def test_single_cell_grid():
    delta = 5.556e-3
    grid = sk.discretize(delta, delta)
    assert grid.p_count == grid.q_count == 1
    assert grid.x_centers[0] == pytest.approx(-delta / 2.0, abs=0)
    assert grid.y_centers[0] == pytest.approx(-delta / 2.0, abs=0)


def test_centered_cells_offset():
    delta = 5.556e-3
    grid = sk.discretize(delta, delta, centered=True)
    assert grid.x_centers[0] == 0.0
    grid5 = sk.discretize(5 * delta, delta, centered=True)
    assert grid5.x_centers[2] == pytest.approx(0.0, abs=1e-15)


def test_degenerate_aperture_rejected():
    for side_l, pitch in [(4e-3, 5.556e-3), (-1.0, 5.556e-3), (math.nan, 5.556e-3),
                          (math.inf, 5.556e-3), (0.5, math.nan), (0.5, math.inf)]:
        with pytest.raises(sk.GeometryError):
            sk.discretize(side_l, pitch)


def test_barycenter_formula_and_tiling():
    grid = sk.discretize(0.8, 5.556e-3)
    L, d = grid.side_l, grid.pitch
    for p in (0, 1, 71, 143):
        assert grid.x_centers[p] == pytest.approx(-L / 2.0 + p * d, abs=1e-15)
    area = grid.p_count * grid.q_count * d * d
    assert abs(area - L * L) <= 1e-9 * L * L


def test_grid_symmetry():
    grid = sk.discretize(0.5, 5.556e-3)
    np.testing.assert_array_equal(grid.x_centers, grid.y_centers)
    X, Y = grid.cell_grid()
    np.testing.assert_array_equal(X, Y.T)


def test_descriptor_rejects_non_matrix_values():
    sk.DescriptorVector(side_l=0.1, values=np.zeros((3, 3)))
    for values in (np.zeros(9), np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(sk.LayoutError):
            sk.DescriptorVector(side_l=0.1, values=values)


def test_layout_roundtrip_single_cell():
    grid = sk.discretize(5.556e-3, 5.556e-3)
    d = sk.DescriptorVector(side_l=grid.side_l, values=np.array([[3.0e-3]]))
    doc = sk.export_layout(d, grid, f_hz=27e9, scenario_hash="demo")
    d2, meta = sk.import_layout(doc)
    np.testing.assert_array_equal(d2.values, [[3.0e-3]])
    assert meta["f_hz"] == 27e9
    assert meta["delta_m"] == grid.pitch


def test_layout_roundtrip_bit_exact():
    rng = np.random.default_rng(11)
    grid = sk.discretize(0.05, 5.556e-3)
    m = rng.uniform(0.3e-3, 5e-3, size=(grid.p_count, grid.q_count))
    d = sk.DescriptorVector(side_l=grid.side_l, values=m)
    doc = sk.export_layout(d, grid, f_hz=27e9)
    d2, _ = sk.import_layout(doc)
    assert d2.side_l == d.side_l
    np.testing.assert_array_equal(d2.values, d.values)
    # a second export of the reimported layout is byte-identical
    assert sk.export_layout(d2, grid, f_hz=27e9) == doc


def test_layout_size_mismatch():
    grid = sk.discretize(0.05, 5.556e-3)
    d = sk.DescriptorVector(side_l=grid.side_l, values=np.zeros((2, 2)))
    with pytest.raises(sk.LayoutError):
        sk.export_layout(d, grid, f_hz=27e9)
    with pytest.raises(sk.LayoutError):
        sk.import_layout("{\"meta\": {}}")
    doc = json.loads(sk.export_layout(
        sk.DescriptorVector(side_l=grid.side_l, values=np.full((9, 9), 1e-3)), grid,
        f_hz=27e9))
    for bad in (float("nan"), float("inf")):
        doc["cells"][4][2] = bad
        with pytest.raises(sk.LayoutError):
            sk.import_layout(json.dumps(doc))


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
    # concentric structure: the pattern is symmetric about the y = 0 row
    np.testing.assert_allclose(m[:, 1:], m[:, :0:-1], atol=1e-12)
