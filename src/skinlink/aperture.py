"""Panel discretization into square cells and per-cell meta-atom descriptors."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, LayoutError


@dataclass(frozen=True)
class ApertureGrid:
    """P x Q square-cell lattice over a square panel.

    side_l is snapped to p_count*pitch so the cells tile the panel exactly.
    Barycenters follow x_p = -L/2 + p*pitch (and likewise y_q); with
    centered=True they are shifted by +pitch/2 to sit in the cell middles.
    """

    side_l: float          # panel side after snapping [m]
    pitch: float           # cell pitch [m]
    p_count: int
    q_count: int
    centered: bool = False

    @property
    def cell_count(self) -> int:
        return self.p_count * self.q_count

    @property
    def x_centers(self) -> np.ndarray:
        off = self.pitch / 2.0 if self.centered else 0.0
        return -self.side_l / 2.0 + np.arange(self.p_count) * self.pitch + off

    @property
    def y_centers(self) -> np.ndarray:
        off = self.pitch / 2.0 if self.centered else 0.0
        return -self.side_l / 2.0 + np.arange(self.q_count) * self.pitch + off

    def cell_grid(self):
        """Meshgrids (X, Y) of barycenters, indexed [p, q]."""
        return np.meshgrid(self.x_centers, self.y_centers, indexing="ij")


def discretize(side_l: float, pitch: float, centered: bool = False) -> ApertureGrid:
    """Split a square panel of side side_l into cells of the given pitch.

    The cell count per axis is round(side_l/pitch) (half away from zero) and
    the side is snapped to an exact multiple of the pitch.
    """
    if not (math.isfinite(side_l) and math.isfinite(pitch) and side_l > 0 and pitch > 0):
        raise GeometryError("panel side and pitch must be finite and positive")
    if side_l < pitch:
        raise GeometryError(f"panel side {side_l} m is smaller than one cell ({pitch} m)")
    p = int(math.floor(side_l / pitch + 0.5))
    return ApertureGrid(side_l=p * pitch, pitch=pitch, p_count=p, q_count=p,
                        centered=centered)


@dataclass(frozen=True)
class DescriptorVector:
    """Panel descriptors D = {L; g_pq}: the side plus one meta-atom geometry per cell.

    values is the (P, Q) geometry matrix indexed [p, q], the same layout as
    ApertureGrid.cell_grid() and as the cells of a layout document.
    """

    side_l: float
    values: np.ndarray     # shape (P, Q), geometry values [m]

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise LayoutError(
                f"descriptor values must form a square P x Q matrix, got {self.values.shape}")


def scenario_fingerprint(scenario) -> str:
    """Short stable hash of the scenario fields, for layout provenance."""
    payload = json.dumps(
        {
            "f": scenario.f,
            "p_tx": scenario.p_tx,
            "g_tx": scenario.g_tx,
            "g_rx": scenario.g_rx,
            "r_tx": scenario.r_tx,
            "r_rx": scenario.r_rx,
            "theta0": scenario.theta0,
            "delta": scenario.delta,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def export_layout(d: DescriptorVector, grid: ApertureGrid, f_hz: float,
                  scenario_hash: str = "") -> str:
    """Serialize a layout to a JSON document (decimal round-trip exact).

    The document carries meta {f_hz, L_m, delta_m, B, scenario_hash} and the
    cells as the descriptor matrix itself: P rows by Q columns of geometry
    values in meters, row p holding g_p0 ... g_p(Q-1).
    """
    if d.values.shape != (grid.p_count, grid.q_count):
        raise LayoutError("descriptor cell counts do not match the grid")
    doc = {
        "meta": {
            "f_hz": f_hz,
            "L_m": grid.side_l,
            "delta_m": grid.pitch,
            "B": 1,
            "scenario_hash": scenario_hash,
        },
        "cells": d.values.tolist(),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def import_layout(text: str):
    """Parse an export_layout document; returns (DescriptorVector, meta dict)."""
    try:
        doc = json.loads(text)
        meta = doc["meta"]
        cells = np.asarray(doc["cells"], dtype=float)
        side_l = float(meta["L_m"])   # TypeError for a meta that is no object
        b_count = int(meta.get("B", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"malformed layout document: {exc!r}") from exc
    if not (math.isfinite(side_l) and side_l > 0):
        raise LayoutError(f"layout side L_m must be finite and positive, got {side_l!r}")
    if b_count != 1:
        raise LayoutError("only single-descriptor (B = 1) layouts are supported")
    if not np.all(np.isfinite(cells)):
        raise LayoutError("layout cells must be finite")
    return DescriptorVector(side_l=side_l, values=cells), meta
