"""Panel discretization into square cells and per-cell meta-atom descriptors."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, LayoutError


@dataclass(frozen=True)
class ApertureGrid:
    """P x P square-cell lattice over a square panel centred on the origin.

    The side is p_count*pitch, so the cells tile the panel exactly.
    Barycenters are the cell centres, x_p = -L/2 + (p + 1/2)*pitch, and the
    y_q are the same values.
    """

    pitch: float           # cell pitch [m]
    p_count: int

    @property
    def side_l(self) -> float:
        return self.p_count * self.pitch

    @property
    def cell_count(self) -> int:
        return self.p_count * self.p_count

    @functools.cached_property
    def x_centers(self) -> np.ndarray:
        """The barycenter abscissae, computed once per grid and read-only."""
        x = -self.side_l / 2.0 + np.arange(self.p_count) * self.pitch + self.pitch / 2.0
        x.flags.writeable = False
        return x

    @property
    def y_centers(self) -> np.ndarray:
        return self.x_centers

    def cell_grid(self):
        """Barycenter axes (X, Y) indexed [p, q], shaped (P, 1) and (1, P);
        they broadcast to the P x P lattice."""
        return np.meshgrid(self.x_centers, self.y_centers, indexing="ij", sparse=True)


def discretize(side_l: float, pitch: float) -> ApertureGrid:
    """Split a square panel of side side_l into cells of the given pitch.

    The cell count per axis is round(side_l/pitch) (half away from zero) and
    the side is snapped to an exact multiple of the pitch. A count too large
    for a numpy axis, or a pitch whose cell area leaves float range, is a
    GeometryError.
    """
    if not (math.isfinite(side_l) and math.isfinite(pitch) and side_l > 0 and pitch > 0):
        raise GeometryError("panel side and pitch must be finite and positive")
    if not pitch * pitch < math.inf:
        raise GeometryError(f"cell pitch {pitch} m has an area out of float range")
    if side_l < pitch:
        raise GeometryError(f"panel side {side_l} m is smaller than one cell ({pitch} m)")
    cells = side_l / pitch
    # numpy arrays span at most intp.max bytes, so no axis of 8-byte floats is longer
    if not cells < np.iinfo(np.intp).max / 8:     # inf too
        raise GeometryError(f"panel side {side_l} m has too many cells of {pitch} m for an array")
    p = int(math.floor(cells + 0.5))
    return ApertureGrid(pitch=pitch, p_count=p)


@dataclass(frozen=True)
class DescriptorVector:
    """Panel descriptors D = {L; g_pq}: one meta-atom geometry per cell.

    values is the (P, P) geometry matrix indexed [p, q], laid out like
    ApertureGrid.cell_grid() and a layout document's cells; L is the grid's side.
    """

    values: np.ndarray     # shape (P, P), geometry values [m]

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise LayoutError(
                f"descriptor values must form a square P x P matrix, got {self.values.shape}")


def scenario_fingerprint(scenario) -> str:
    """Short stable hash of the scenario fields, for layout provenance."""
    payload = json.dumps(dataclasses.asdict(scenario), sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def export_layout(d: DescriptorVector, grid: ApertureGrid, scenario) -> str:
    """Serialize a layout to a JSON document (decimal round-trip exact).

    The document carries meta {f_hz, L_m, delta_m, B, scenario_hash}, with the
    carrier and fingerprint of the scenario the layout was made for, and the
    cells as the descriptor matrix itself: P rows by Q columns of geometry
    values in meters, row p holding g_p0 ... g_p(Q-1). The text is that of
    json.dumps(doc, indent=1, sort_keys=True) plus a newline. Non-finite cells,
    which that would write as tokens JSON does not have, raise LayoutError.
    """
    if d.values.shape != (grid.p_count, grid.p_count):
        raise LayoutError("descriptor cell counts do not match the grid")
    if d.values.size == 0:
        raise LayoutError("a layout needs at least one cell")
    values = np.ascontiguousarray(d.values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise LayoutError("layout cells must be finite")
    meta = {
        "f_hz": scenario.f,
        "L_m": grid.side_l,
        "delta_m": grid.pitch,
        "B": 1,
        "scenario_hash": scenario_fingerprint(scenario),
    }
    # With an indent, json encodes through its pure-Python path, one float at
    # a time. A synthesized layout repeats a few thousand table geometries, so
    # each distinct value is formatted once with float.__repr__ (json's own
    # float format) and gathered back. Distinct means distinct bits: -0.0 and
    # 0.0 compare equal but are written differently.
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([float.__repr__(v) for v in bits.view(np.float64).tolist()],
                    dtype=object)[inverse.reshape(values.shape)]
    rows = ["[\n   " + ",\n   ".join(row) + "\n  ]" for row in text.tolist()]
    meta_text = json.dumps(meta, indent=1, sort_keys=True).replace("\n", "\n ")
    return ('{\n "cells": [\n  ' + ",\n  ".join(rows) + '\n ],\n "meta": '
            + meta_text + "\n}\n")


class _TokenFloats(dict):
    """float(token), json's own conversion, made once per distinct number token:
    a synthesized layout repeats a few thousand table geometries, and its cells
    share one float per geometry."""

    def __missing__(self, token):
        value = self[token] = float(token)
        return value


def import_layout(text: str):
    """Parse an export_layout document; returns (DescriptorVector, meta dict).

    The cells must be finite JSON numbers, L_m and delta_m finite, positive
    numbers with L_m = P*delta_m (to 1e-12 relative), and B, if present, 1.
    """
    try:
        doc = json.loads(text, parse_float=_TokenFloats().__getitem__)
        meta = doc["meta"]
        # np.asarray would promote a true among numbers to 1.0, so look first
        # wherever the text holds a JSON boolean
        has_bool = (("true" in text or "false" in text) and bool in set(
            map(type, itertools.chain.from_iterable(doc["cells"]))))
        cells = np.asarray(doc["cells"])
        sizes = meta["L_m"], meta["delta_m"]   # TypeError for a meta that is no object
        b_count = meta.get("B", 1)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise LayoutError(f"malformed layout document: {exc!r}") from exc
    # not bools; an exact comparison, so an int too large for a float fails too
    if not all(type(v) in (int, float) and 0.0 < v <= sys.float_info.max for v in sizes):
        raise LayoutError(f"layout L_m and delta_m must be finite and positive, got {sizes}")
    if type(b_count) is not int or b_count != 1:
        raise LayoutError("only single-descriptor (B = 1) layouts are supported")
    if has_bool or cells.dtype.kind not in "iuf" or not np.all(np.isfinite(cells)):
        raise LayoutError("layout cells must be finite numbers")
    d = DescriptorVector(values=np.asarray(cells, dtype=float))
    side_l, pitch = sizes
    if not abs(side_l - len(d.values) * pitch) <= 1e-12 * side_l:
        raise LayoutError(f"L_m = {side_l} m is not {len(d.values)} cells of delta_m = {pitch} m")
    return d, meta
