"""Grid discretization, descriptor indexing and layout serialization."""

import json

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
    with pytest.raises(sk.GeometryError):
        sk.discretize(4e-3, 5.556e-3)
    with pytest.raises(sk.GeometryError):
        sk.discretize(-1.0, 5.556e-3)


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


def test_descriptor_index_bijection():
    d = sk.DescriptorVector(side_l=0.1, values=np.zeros(3 * 3), p_count=3, q_count=3)
    assert d.length == 1 + 9
    seen = set()
    for q in range(3):
        for p in range(3):
            s = d.flat_index(p, q)
            assert 1 <= s < d.length
            assert d.unflatten_index(s) == (p, q)
            seen.add(s)
    assert seen == set(range(1, d.length))


def test_descriptor_bad_index():
    d = sk.DescriptorVector(side_l=0.1, values=np.zeros(4), p_count=2, q_count=2)
    with pytest.raises(sk.LayoutError):
        d.flat_index(2, 0)
    with pytest.raises(sk.LayoutError):
        d.unflatten_index(0)


def test_descriptor_matrix_roundtrip():
    rng = np.random.default_rng(3)
    m = rng.uniform(0.3e-3, 5e-3, size=(4, 4))
    d = sk.descriptor_from_matrix(0.1, m)
    np.testing.assert_array_equal(d.as_matrix(), m)
    for p in range(4):
        for q in range(4):
            assert d.g(p, q) == m[p, q]


def test_layout_roundtrip_single_cell():
    grid = sk.discretize(5.556e-3, 5.556e-3)
    d = sk.descriptor_from_matrix(grid.side_l, np.array([[3.0e-3]]))
    doc = sk.export_layout(d, grid, f_hz=27e9, scenario_hash="demo")
    d2, meta = sk.import_layout(doc)
    np.testing.assert_array_equal(d2.as_matrix(), [[3.0e-3]])
    assert meta["f_hz"] == 27e9
    assert meta["delta_m"] == grid.pitch


def test_layout_roundtrip_bit_exact():
    rng = np.random.default_rng(11)
    grid = sk.discretize(0.05, 5.556e-3)
    m = rng.uniform(0.3e-3, 5e-3, size=(grid.p_count, grid.q_count))
    d = sk.descriptor_from_matrix(grid.side_l, m)
    doc = sk.export_layout(d, grid, f_hz=27e9)
    d2, _ = sk.import_layout(doc)
    assert d2.side_l == d.side_l
    np.testing.assert_array_equal(d2.values, d.values)
    # a second export of the reimported layout is byte-identical
    assert sk.export_layout(d2, grid, f_hz=27e9) == doc


def test_layout_size_mismatch():
    grid = sk.discretize(0.05, 5.556e-3)
    d = sk.descriptor_from_matrix(grid.side_l, np.zeros((2, 2)))
    with pytest.raises(sk.LayoutError):
        sk.export_layout(d, grid, f_hz=27e9)
    with pytest.raises(sk.LayoutError):
        sk.import_layout("{\"meta\": {}}")


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
    m = panel.d.as_matrix()
    lo, hi = table.g_range
    assert ring_count(m, lo, hi) > 1
    # concentric structure: the pattern is symmetric about the y = 0 row
    np.testing.assert_allclose(m[:, 1:], m[:, :0:-1], atol=1e-12)
