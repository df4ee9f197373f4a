"""Patterned-skin model: reflection lookup table, phase-conjugation synthesis,
sheet-transition currents, realized and bound path attenuation.

Cells are parametrized by a diagonal reflection tensor (gamma_xx, gamma_yy).
The per-cell currents follow from the averaged tangential fields: the incident
field at the cell barycenter, weighted by (1 +/- gamma) brackets, and turned
into equivalent currents J_e = 2 n x H_av, J_m = 2 n x E_av. The reflection
tensor pairs cross-polarized with H (gamma_yy weights E_y and H_x), so a
gamma = -1 sheet degenerates exactly to the conducting-screen current model
and gamma = +1 to the magnetic-wall limit.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .aperture import ApertureGrid, DescriptorVector, discretize
from .errors import ConfigError, DomainError, LayoutError
from .field_engine import ObservationPoint, SurfaceCurrents, beta, receiver_tpa
from .scenario import LinkScenario, incident_fields

_GAMMA_MAG_TOL = 1e-9          # passivity slack on |gamma|
_SCURVE_SWING = 0.4            # S-curve slope modulation of the synthetic table
_SYNTHESIS_RESOLUTION = 1e-6   # geometry step [m] of the synthesis candidate grid
_SYNTHETIC_G_RANGE = (0.3e-3, 5.0e-3)  # patch geometry span [m] of the synthetic table
_SYNTHETIC_PHASE_SPAN = math.radians(300.0)  # reflection phase swing of the synthetic table


def wrap_phase(x):
    """Wrap angles [rad] to the interval (-pi, pi]."""
    wrapped = np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)
    return wrapped if wrapped.ndim else float(wrapped)


@dataclass(frozen=True)
class ReflectionLookupTable:
    """Meta-atom geometry to diagonal reflection tensor map.

    g holds U strictly increasing, finite geometry values [m]; gamma_xx and
    gamma_yy the matching finite complex reflection coefficients, passive
    (|gamma| <= 1).
    Lookups between entries interpolate magnitude and unwrapped phase linearly.
    """

    g: np.ndarray
    gamma_xx: np.ndarray
    gamma_yy: np.ndarray

    def __post_init__(self):
        if self.g.ndim != 1 or self.g.size < 2:
            raise ConfigError("reflection table needs at least two entries")
        if self.gamma_xx.shape != self.g.shape or self.gamma_yy.shape != self.g.shape:
            raise ConfigError("reflection table columns must share one length")
        if not all(np.all(np.isfinite(a)) for a in (self.g, self.gamma_xx, self.gamma_yy)):
            raise ConfigError("reflection table entries must be finite")
        if not np.all(np.diff(self.g) > 0):
            raise ConfigError("table geometry values must be strictly increasing")
        for name in ("gamma_xx", "gamma_yy"):
            mag = np.abs(getattr(self, name))
            if np.any(mag > 1.0 + _GAMMA_MAG_TOL):
                raise ConfigError(f"{name} violates passivity: |gamma| up to {mag.max():.6f}")

    @property
    def g_range(self):
        return float(self.g[0]), float(self.g[-1])

    def check_range(self, g_values) -> None:
        """Raise LayoutError unless every geometry value lies in the table range."""
        lo, hi = self.g_range
        q = np.asarray(g_values, dtype=float)
        if not np.all((q >= lo - 1e-12) & (q <= hi + 1e-12)):  # NaN fails too
            raise LayoutError(
                f"geometry value outside table range [{lo:.6g}, {hi:.6g}] m")

    def _interp_column(self, gamma: np.ndarray, g_query: np.ndarray) -> np.ndarray:
        phase = np.unwrap(np.angle(gamma))
        mag = np.abs(gamma)
        return (np.interp(g_query, self.g, mag)
                * np.exp(1j * np.interp(g_query, self.g, phase)))

    def gamma_at(self, g_query):
        """Interpolated (gamma_xx, gamma_yy) at geometry values g_query [m]."""
        self.check_range(g_query)
        qc = np.clip(np.asarray(g_query, dtype=float), *self.g_range)
        return self._interp_column(self.gamma_xx, qc), self._interp_column(self.gamma_yy, qc)

    def dense_grid(self):
        """Geometry values at the synthesis resolution plus interpolated gamma_yy."""
        lo, hi = self.g_range
        steps = int(math.floor((hi - lo) / _SYNTHESIS_RESOLUTION + 0.5))
        g_fine = lo + np.arange(steps + 1) * _SYNTHESIS_RESOLUTION
        g_fine[-1] = min(g_fine[-1], hi)
        return g_fine, self._interp_column(self.gamma_yy, g_fine)


def synthetic_table() -> ReflectionLookupTable:
    """Stand-in lookup table for a square-patch cell family.

    64 geometry values span 0.3 mm to 5.0 mm evenly. gamma_yy follows a
    smooth monotone S-curve of reflection phase over 300 degrees centered on
    180 degrees (phase decreasing as the patch grows), with unit magnitude;
    gamma_xx mirrors gamma_yy.
    """
    x = np.linspace(0.0, 1.0, 64)
    scurve = x - _SCURVE_SWING * np.sin(2.0 * math.pi * x) / (2.0 * math.pi)
    psi = math.pi + _SYNTHETIC_PHASE_SPAN / 2.0 - _SYNTHETIC_PHASE_SPAN * scurve
    gamma = np.exp(1j * psi)
    g = np.linspace(*_SYNTHETIC_G_RANGE, x.size)
    return ReflectionLookupTable(g=g, gamma_xx=gamma.copy(), gamma_yy=gamma)


_TABLE_HEADER = ["g_m", "re_gamma_xx", "im_gamma_xx", "re_gamma_yy", "im_gamma_yy"]


def load_reflection_table(path) -> ReflectionLookupTable:
    """Load an ASCII CSV table (header g_m,re_gamma_xx,im_gamma_xx,re_gamma_yy,im_gamma_yy)."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not ASCII text (byte {exc.start})") from None
    return parse_reflection_table(text)


def parse_reflection_table(text: str) -> ReflectionLookupTable:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("empty reflection table") from None
    if [h.strip() for h in header] != _TABLE_HEADER:
        raise ConfigError(f"bad table header, expected {','.join(_TABLE_HEADER)}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ConfigError(f"line {lineno}: expected 5 columns")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError("reflection table needs at least two entries")
    data = np.asarray(rows)
    return ReflectionLookupTable(
        g=data[:, 0],
        gamma_xx=data[:, 1] + 1j * data[:, 2],
        gamma_yy=data[:, 3] + 1j * data[:, 4])


@dataclass(frozen=True)
class EmsPanel:
    """A synthesized skin: grid, descriptor vector and the table it was built from."""

    grid: ApertureGrid
    d: DescriptorVector
    table: ReflectionLookupTable

    def __post_init__(self):
        if self.d.values.shape != (self.grid.p_count, self.grid.p_count):
            raise LayoutError("descriptor cell counts do not match the grid")
        if not abs(self.d.side_l - self.grid.side_l) <= 1e-12:  # NaN fails too
            raise LayoutError("descriptor side does not match the grid side")
        self.table.check_range(self.d.values)


def reflection_currents(grid: ApertureGrid, scenario: LinkScenario,
                        gamma_xx, gamma_yy) -> SurfaceCurrents:
    """Equivalent surface currents of cells with the given reflection tensor.

    This is the single point where the reflection tensor is mapped to currents
    (the bilinear susceptibility correspondence composed with the averaged-field
    brackets, so the gamma = -1 pole is removable): averaged tangential fields
    E_av = (1 + gamma)/2 * E_inc and H_av = (1 - gamma)/2 * H_inc with the
    cross-polarized pairing, then J_e = 2 n x H_av and J_m = 2 n x E_av.
    E_inc and H_inc are the incident field sampled at each cell barycenter.
    The radiation sum treats each cell as a patch of uniform-phase current and
    carries the phase variation inside the cell through its sinc element
    factor, so what a cell needs from the incident field is its envelope at the
    barycenter carrier phase, which the barycenter sample gives. Averaging the
    raw field over the cell instead would scale the currents by the average of
    the intra-cell phase ramp and count that phase twice.
    With n = +z the 1/2 and 2 cancel: je_x = (gamma_xx - 1) H_y, je_y = (1 - gamma_yy) H_x,
    jm_x = -(1 + gamma_yy) E_y, jm_y = (1 + gamma_xx) E_x, gamma broadcast over the cells.
    """
    e, h = incident_fields(scenario, *grid.cell_grid())
    return SurfaceCurrents(je_x=(gamma_xx - 1.0) * h[1], je_y=(1.0 - gamma_yy) * h[0],
                           jm_x=-(1.0 + gamma_yy) * e[1], jm_y=(1.0 + gamma_xx) * e[0],
                           grid=grid)


def ideal_current_phases(grid: ApertureGrid, scenario: LinkScenario) -> np.ndarray:
    """Phase-conjugation targets: minus the receiver-path phase of each cell,
    as (P, P) phases [rad] wrapped to (-pi, pi] and indexed [p, q]."""
    obs = ObservationPoint(r=scenario.r_rx, theta=scenario.theta0, phi=0.0)
    X, Y = grid.cell_grid()
    k = 2.0 * math.pi / scenario.wavelength
    return wrap_phase(-k * beta((X, Y), obs))


def _nearest_candidate(cand: np.ndarray, need: np.ndarray):
    """Index (per need) of the candidate phase at smallest wrapped distance.

    cand is ordered by ascending geometry value, in any phase order, with
    repeats allowed. On the circle the nearest candidate is always one of the
    two circular neighbours of the need among the sorted distinct phases, so
    only those two are compared. A repeated phase stands for its smallest
    geometry, and exact distance ties resolve to the smaller geometry.
    Returns the indices and the wrapped distances, both shaped like need.
    """
    phases, first = np.unique(cand, return_index=True)
    flat_need = need.reshape(-1)
    above = np.searchsorted(phases, flat_need)
    pair = np.stack([above - 1, above % phases.size])   # -1 wraps to the top
    dist = np.abs(wrap_phase(phases[pair] - flat_need))
    geom = first[pair]
    pick = (dist[1] < dist[0]) | ((dist[1] == dist[0]) & (geom[1] < geom[0]))
    idx = np.where(pick, geom[1], geom[0])
    return idx.reshape(need.shape), dist.min(axis=0).reshape(need.shape)


def synthesize_layout(grid: ApertureGrid, table: ReflectionLookupTable,
                      targets: np.ndarray, scenario: LinkScenario) -> DescriptorVector:
    """Pick each cell's geometry to best match its target current phase.

    The mismatch functional separates cell by cell, so the exact minimizer is
    a per-cell nearest-phase lookup over the table interpolated at a 1 um
    geometry resolution. Matching targets the y-polarized electric current.
    """
    if targets.shape != (grid.p_count, grid.p_count):
        raise LayoutError("target phases do not match the grid")
    g_fine, gyy_fine = table.dense_grid()
    cand = np.angle(1.0 - gyy_fine)
    _, h_inc = incident_fields(scenario, *grid.cell_grid())
    need = wrap_phase(targets - np.angle(h_inc[0]))
    idx, _ = _nearest_candidate(cand, need)
    return DescriptorVector(side_l=grid.side_l, values=g_fine[idx])


def synthesis_mismatch(grid: ApertureGrid, currents: SurfaceCurrents,
                       targets: np.ndarray) -> float:
    """Total squared wrapped phase error of a layout against its targets [rad^2].

    The phase compared is that of the y-polarized electric current je_y, the
    current synthesize_layout matches, read from the currents the layout
    carries (gstc_currents), so the figure describes the evaluated panel.
    currents and targets must both be shaped like the grid's (P, P) cells.
    """
    shape = (grid.p_count, grid.p_count)
    if targets.shape != shape or currents.je_y.shape != shape:
        raise LayoutError("currents or target phases do not match the grid")
    err = wrap_phase(np.angle(currents.je_y) - targets)
    return float(np.sum(err * err))


def design_panel(scenario: LinkScenario, side_l: float,
                 table: ReflectionLookupTable):
    """Discretize, target and synthesize a skin; returns (EmsPanel, target phases)."""
    grid = discretize(side_l, scenario.pitch)
    targets = ideal_current_phases(grid, scenario)
    d = synthesize_layout(grid, table, targets, scenario)
    return EmsPanel(grid=grid, d=d, table=table), targets


def gstc_currents(panel: EmsPanel, scenario: LinkScenario) -> SurfaceCurrents:
    """Surface currents of a synthesized panel under the scenario's illumination."""
    gxx, gyy = panel.table.gamma_at(panel.d.values)
    return reflection_currents(panel.grid, scenario, gxx, gyy)


def ems_tpa(scenario: LinkScenario, panel: EmsPanel) -> float:
    """Realized skin path attenuation P_rx/P_tx at the specular receiver;
    evaluates only, the Fresnel check is the command's (see receiver_tpa)."""
    return receiver_tpa(gstc_currents(panel, scenario), scenario)


def ems_upper_bound_tpa(scenario: LinkScenario, side_l: float) -> float:
    """Ideal-skin path attenuation bound for a square panel of the given side."""
    if side_l <= 0:
        raise DomainError("panel side must be positive")
    return (scenario.g_tx * scenario.g_rx * math.cos(scenario.theta0) ** 2
            * side_l**4 / (4.0 * math.pi * scenario.r_tx * scenario.r_rx) ** 2)
