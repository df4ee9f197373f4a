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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .aperture import ApertureGrid, DescriptorVector, discretize
from .errors import ConfigError, DomainError, LayoutError
from .field_engine import SurfaceCurrents, path_term
from .scenario import LinkScenario, incident_fields

_GAMMA_MAG_TOL = 1e-9          # passivity slack on |gamma|
_SCURVE_SWING = 0.4            # S-curve slope modulation of the synthetic table
_SYNTHESIS_RESOLUTION = 1e-6   # geometry step [m] of the synthesis candidate grid
_SYNTHETIC_G_RANGE = (0.3e-3, 5.0e-3)  # patch geometry span [m] of the synthetic table
_SYNTHETIC_PHASE_SPAN = math.radians(300.0)  # reflection phase swing of the synthetic table
_PHASE_BINS = 2**16            # uniform bins of need phase in the synthesis phase-bin index
_BIN_MARGIN = 1e-9             # [rad] a bin this close to a decision boundary is mixed


def wrap_phase(x):
    """Wrap angles [rad] to the interval (-pi, pi]."""
    wrapped = np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)
    return wrapped if wrapped.ndim else float(wrapped)


@dataclass(frozen=True)
class ReflectionLookupTable:
    """Meta-atom geometry to diagonal reflection tensor map.

    g holds U strictly increasing, finite geometry values [m]; gamma_xx and
    gamma_yy the matching finite complex reflection coefficients, passive
    (|gamma| <= 1). The table keeps read-only copies of the three columns.
    Lookups between entries interpolate magnitude and unwrapped phase linearly.
    """

    g: np.ndarray
    gamma_xx: np.ndarray
    gamma_yy: np.ndarray

    def __post_init__(self):
        for name in ("g", "gamma_xx", "gamma_yy"):   # read-only copies: one table, one answer
            column = np.array(getattr(self, name))
            column.flags.writeable = False
            object.__setattr__(self, name, column)
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
        """Interpolated (gamma_xx, gamma_yy) at geometry values g_query [m].

        A value that lies exactly on the synthesis grid, as every synthesized
        geometry does, is gathered from synthesis_grid; any other value is
        interpolated on its own. Both give the bits _interp_column gives.
        """
        q = np.asarray(g_query, dtype=float)
        self.check_range(q)
        qc = np.clip(q, *self.g_range).reshape(-1)
        g_fine, *cached = self.synthesis_grid
        idx = np.minimum(np.rint((qc - g_fine[0]) / _SYNTHESIS_RESOLUTION).astype(np.intp),
                         g_fine.size - 1)
        off = g_fine[idx] != qc
        values = []
        for gamma, fine in zip((self.gamma_xx, self.gamma_yy), cached):
            column = fine[idx]
            if off.any():
                column[off] = self._interp_column(gamma, qc[off])
            values.append(column.reshape(q.shape))
        return tuple(values)

    @functools.cached_property
    def synthesis_grid(self):
        """The synthesis candidate grid, geometry [m] in 1 um steps over the
        table range, and (gamma_xx, gamma_yy) interpolated on it; built once
        per table as read-only arrays (g, gamma_xx, gamma_yy)."""
        lo, hi = self.g_range
        steps = int(math.floor((hi - lo) / _SYNTHESIS_RESOLUTION + 0.5))
        g_fine = lo + np.arange(steps + 1) * _SYNTHESIS_RESOLUTION
        g_fine[-1] = min(g_fine[-1], hi)
        grid = (g_fine, *(self._interp_column(gamma, g_fine)
                          for gamma in (self.gamma_xx, self.gamma_yy)))
        for array in grid:
            array.flags.writeable = False
        return grid

    @functools.cached_property
    def synthesis_lookup(self):
        """(phases, geometry, winners): the sorted distinct phases of 1 - gamma_yy
        on the synthesis grid, the smallest geometry [m] reaching each and the
        _phase_bin_index of their _arc split, built once per table, read-only."""
        g_fine, _, gamma_yy = self.synthesis_grid
        phases, first = np.unique(np.angle(1.0 - gamma_yy), return_index=True)
        geometry = g_fine[first]
        lookup = (phases, geometry, _phase_bin_index(phases, geometry))
        for array in lookup:
            array.flags.writeable = False
        return lookup


@functools.cache
def synthetic_table() -> ReflectionLookupTable:
    """Stand-in lookup table for a square-patch cell family.

    64 geometry values span 0.3 mm to 5.0 mm evenly. gamma_yy follows a
    smooth monotone S-curve of reflection phase over 300 degrees centered on
    180 degrees (phase decreasing as the patch grows), with unit magnitude;
    gamma_xx mirrors gamma_yy. It is built once per process and the one
    instance is shared: its columns and its cached synthesis_grid and
    synthesis_lookup are read-only.
    """
    x = np.linspace(0.0, 1.0, 64)
    scurve = x - _SCURVE_SWING * np.sin(2.0 * math.pi * x) / (2.0 * math.pi)
    psi = math.pi + _SYNTHETIC_PHASE_SPAN / 2.0 - _SYNTHETIC_PHASE_SPAN * scurve
    gamma = np.exp(1j * psi)
    g = np.linspace(*_SYNTHETIC_G_RANGE, x.size)
    return ReflectionLookupTable(g=g, gamma_xx=gamma, gamma_yy=gamma)


_TABLE_HEADER = ["g_m", "re_gamma_xx", "im_gamma_xx", "re_gamma_yy", "im_gamma_yy"]


def load_reflection_table(path) -> ReflectionLookupTable:
    """Load an ASCII CSV table (header g_m,re_gamma_xx,im_gamma_xx,re_gamma_yy,im_gamma_yy)."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not ASCII text (byte {exc.start})") from None
    lines = text.splitlines()
    if not lines:
        raise ConfigError("empty reflection table")
    if [h.strip() for h in lines[0].split(",")] != _TABLE_HEADER:
        raise ConfigError(f"bad table header, expected {','.join(_TABLE_HEADER)}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        row = line.split(",")
        if len(row) != 5:
            raise ConfigError(f"line {lineno}: expected 5 columns")
        values = []
        for key, value in zip(_TABLE_HEADER, row):
            try:
                values.append(float(value))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: cannot parse value for {key!r}") from exc
        rows.append(values)
    data = np.array(rows, dtype=float).reshape(-1, 5)
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
        self.table.check_range(self.d.values)


def _is_scalar(gamma, value) -> bool:
    """True where gamma is a scalar equal to value, so 1 - gamma or 1 + gamma is 0."""
    return np.ndim(gamma) == 0 and gamma == value


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
    With n = +z the 1/2 and 2 cancel: je_y = (1 - gamma_yy) H_x,
    jm_x = -(1 + gamma_yy) E_y, jm_y = (1 + gamma_xx) E_x, gamma broadcast over the
    cells. je_x = (gamma_xx - 1) H_y is zero by construction: the incident H of a
    y-polarized source has no y component, so incident_fields does not return it,
    and SurfaceCurrents holds je_x as the constant 0, which the radiation kernel
    does not read. A product whose scalar factor is 0, such as 1 + gamma of a
    conducting screen's gamma = -1, is the scalar 0.0, a component the cells do
    not carry.
    """
    e_x, e_y, h_x = incident_fields(scenario, *grid.cell_grid())
    # each product is one expression, so numpy reuses its factor's temporary
    return SurfaceCurrents(
        je_y=0.0 if _is_scalar(gamma_yy, 1.0) else (1.0 - gamma_yy) * h_x,
        jm_x=0.0 if _is_scalar(gamma_yy, -1.0) else -(1.0 + gamma_yy) * e_y,
        jm_y=0.0 if _is_scalar(gamma_xx, -1.0) else (1.0 + gamma_xx) * e_x,
        grid=grid)


def ideal_current_phases(grid: ApertureGrid, scenario: LinkScenario) -> np.ndarray:
    """Phase-conjugation targets: minus k times the kernel's own path term
    (path_term) of each cell toward the receiver at phi = 0, where the cross
    term vanishes, as (P, P) phases [rad] wrapped to (-pi, pi] and indexed [p, q]."""
    r, st, ct = scenario.r_rx, math.sin(scenario.theta0), math.cos(scenario.theta0)
    f = path_term(grid.x_centers, r, st, ct, 1.0, 0.0)
    g = path_term(grid.y_centers, r, st, ct, 0.0, 1.0)
    phase = np.add.outer(f, g)
    phase *= -2.0 * math.pi / scenario.wavelength
    return wrap_phase(phase)


def _arc(phases: np.ndarray, phase: np.ndarray):
    """(index, margin) of each phase's arc. The sorted candidate phases in
    (-pi, pi] split the circle at the midpoints between neighbours, the
    wrap-around one as the seam; arc i, where candidate i is the nearest, runs
    from the midpoint below phases[i] up to the one above, and margin is the
    distance [rad] to the nearer end of the arc, 0 exactly at its start."""
    wrap_mid = (phases[-1] + phases[0] + 2.0 * math.pi) / 2.0   # in [top phase, phases[0] + 2 pi]
    bounds = np.concatenate([[wrap_mid - 2.0 * math.pi],
                             (phases[:-1] + phases[1:]) / 2.0, [wrap_mid]])
    phase = np.where(phase < bounds[0], phase + 2.0 * math.pi, phase)    # into the
    phase = np.where(phase >= bounds[-1], phase - 2.0 * math.pi, phase)  # bounds' turn
    index = np.clip(np.searchsorted(bounds, phase, side="right") - 1, 0, phases.size - 1)
    return index, np.minimum(phase - bounds[index], bounds[index + 1] - phase)


def _nearest_candidate(phases: np.ndarray, geometry: np.ndarray, need: np.ndarray):
    """Geometry (per need in (-pi, pi]) of the candidate whose _arc holds the need.

    phases and geometry are the first two of synthesis_lookup. A need exactly on
    a midpoint, at margin 0 at the start of the arc above, takes the smaller
    geometry of the two neighbours. Returns an array shaped like need.
    """
    arc, margin = _arc(phases, need.reshape(-1))
    tie = np.minimum(geometry[arc - 1], geometry[arc])   # -1 wraps to the top
    return np.where(margin == 0.0, tie, geometry[arc]).reshape(need.shape)


def _phase_bin_index(phases: np.ndarray, geometry: np.ndarray) -> np.ndarray:
    """The _nearest_candidate winner of each of _PHASE_BINS uniform bins of need.

    phases and geometry are the first two of synthesis_lookup. Bin b holds the
    needs [-pi + b w, -pi + (b + 1) w), w = 2 pi / _PHASE_BINS. A bin whose
    centre lies in an _arc with margin above w/2 + _BIN_MARGIN stays inside
    that arc when widened by _BIN_MARGIN on each side, and stores its geometry;
    every other bin stores NaN ("mixed").
    """
    width = 2.0 * math.pi / _PHASE_BINS
    arc, margin = _arc(phases, -math.pi + (np.arange(_PHASE_BINS) + 0.5) * width)
    return np.where(margin > width / 2.0 + _BIN_MARGIN, geometry[arc], np.nan)


def _binned_candidate(phases: np.ndarray, geometry: np.ndarray, winners: np.ndarray,
                      need: np.ndarray) -> np.ndarray:
    """_nearest_candidate(phases, geometry, wrap_phase(need)) through the bin index.

    need is any finite phase [rad], not yet wrapped; winners is
    _phase_bin_index(phases, geometry). Each need's bin comes from a floor
    and an integer modulo, which rounds like wrap_phase to about 1e-13 rad
    for |need| up to a few hundred. That is far inside _BIN_MARGIN, so a need
    whose bin lands one off lands in a neighbour holding the same winner, or
    in a mixed bin, whose needs go through _nearest_candidate. Both read one
    _arc split, so the result is the same array, bit for bit.
    """
    bins = np.floor((need + math.pi) * (_PHASE_BINS / (2.0 * math.pi))).astype(np.intp)
    picked = winners[bins & (_PHASE_BINS - 1)]    # modulo the power of two _PHASE_BINS
    mixed = np.isnan(picked)
    if mixed.any():
        picked[mixed] = _nearest_candidate(phases, geometry, wrap_phase(need[mixed]))
    return picked


def synthesize_layout(grid: ApertureGrid, table: ReflectionLookupTable,
                      targets: np.ndarray, scenario: LinkScenario) -> DescriptorVector:
    """Pick each cell's geometry to best match its target current phase.

    The mismatch functional separates cell by cell, so the exact minimizer is
    a per-cell nearest-phase lookup over the table interpolated at a 1 um
    geometry resolution. Matching targets the y-polarized electric current.
    The lookup goes through the table's phase-bin index (_binned_candidate).
    """
    if targets.shape != (grid.p_count, grid.p_count):
        raise LayoutError("target phases do not match the grid")
    if not np.all(np.isfinite(targets)):
        raise LayoutError("target phases must be finite")
    h_x = incident_fields(scenario, *grid.cell_grid())[2]
    need = targets - np.angle(h_x)
    return DescriptorVector(values=_binned_candidate(*table.synthesis_lookup, need))


def synthesis_mismatch(grid: ApertureGrid, currents: SurfaceCurrents,
                       targets: np.ndarray) -> float:
    """Total squared wrapped phase error of a layout against its targets [rad^2].

    The phase compared is that of the y-polarized electric current je_y, the
    current synthesize_layout matches, read from the currents the layout
    carries (gstc_currents), so the figure describes the evaluated panel.
    currents and targets must both be shaped like the grid's (P, P) cells.
    """
    shape = (grid.p_count, grid.p_count)
    if targets.shape != shape or np.shape(currents.je_y) != shape:
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


def ems_upper_bound_tpa(scenario: LinkScenario, side_l: float) -> float:
    """Ideal-skin path attenuation bound for a square panel of the given side."""
    if side_l <= 0:
        raise DomainError("panel side must be positive")
    try:
        quartic = side_l**4
    except OverflowError:
        raise DomainError(f"ideal-skin bound of a {side_l} m panel is out of float range") from None
    return (scenario.g_tx * scenario.g_rx * math.cos(scenario.theta0) ** 2
            * quartic / (4.0 * math.pi * scenario.r_tx * scenario.r_rx) ** 2)
