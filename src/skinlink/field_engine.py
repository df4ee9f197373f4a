"""Discretized Fresnel-zone radiation integral.

Evaluates the scattered field of piecewise-constant electric/magnetic surface
currents on the panel lattice, the received power and field-cut maps around
the receiver. It owns the whole Fresnel validity rule: the bound, its error
text, and the nearer arm, which sets L_FR and every check of a link's arms.

One kernel, _cell_sum, evaluates the cell sum at a batch of points for one
or more screens on one grid. scattered_field calls it for one point and one
screen; the chunked multi-point path behind scattered_field_at_points,
field_cut_map and field_cut_maps calls it for every screen of a cut at once,
so the screens share each chunk's phasors and each contracts only its own
live components. It never forms the (points x cells) phasor block. The
Fresnel path term splits exactly into a row part f(x), a column part g(y)
and a cross term kappa*x*y, so each point needs P + Q exponentials, and the
cross term is a short Taylor series over blocks of rows. The block count
comes from a batch's largest cross-term phase and each point's rank from its
own, so a point leaves the contractions after its last term. The cross term
vanishes at phi = 0, which covers every receiver_tpa call and the
longitudinal cut; there a point's sum is one outer product. A batch is
contracted with matrix products, a single point with numpy's pairwise sums,
so that one point never wakes the BLAS threads. The kernel reads je_y, jm_x
and jm_y; je_x, 0 for every y-polarized source, has no column. A component a
screen does not carry is the scalar 0, and only the array ones are contracted.
path_term is the one path-term expression: the kernel's row and column
parts, and the phase-conjugation targets that synthesis conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aperture import ApertureGrid
from .constants import ETA0
from .errors import ConfigError, DomainError, FresnelValidityError, GeometryError

_POINT_CHUNK = 256                 # observation points per vectorized chunk
_TAYLOR_TOL = 1e-16                # remainder bound of the cross-term series
_FRESNEL_DIAGONALS = 10.0          # the Fresnel bound is the largest of 10 panel diagonals D,
_FRESNEL_RADIATING = 0.62          # 0.62*sqrt(D^3/lambda)
_FRESNEL_WAVELENGTHS = 10.0        # and 10 wavelengths


@dataclass(frozen=True)
class SurfaceCurrents:
    """Per-cell complex current coefficients on an aperture grid.

    je_* are electric [A/m] and jm_* magnetic [V/m] surface-current expansion
    coefficients, shaped (P, P) and indexed [p, q]. A component the screen
    does not carry is the scalar 0. je_x is the class constant 0.0, since a
    y-polarized source drives no x-directed electric current (reflection_currents):
    readers of the full current vector use it, and the radiation kernel does not.
    """

    je_x = 0.0
    je_y: np.ndarray | float
    jm_x: np.ndarray | float
    jm_y: np.ndarray | float
    grid: ApertureGrid

    def __post_init__(self):
        shape = (self.grid.p_count, self.grid.p_count)
        for name in ("je_y", "jm_x", "jm_y"):
            arr = getattr(self, name)
            if np.ndim(arr) == 0:
                if arr != 0:  # NaN fails too
                    raise GeometryError(f"{name} must be 0 or an array of grid shape {shape}")
            elif arr.shape != shape:
                raise GeometryError(f"{name} shape {arr.shape} != grid shape {shape}")
            if not np.all(np.isfinite(arr)):
                raise GeometryError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class ObservationPoint:
    """Observation location in panel spherical coordinates (r [m], theta, phi [rad])."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.r < math.inf:  # NaN fails too
            raise GeometryError("observation distance must be finite and positive")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise GeometryError("observation polar angle must lie in the reflection half-space")
        if not math.isfinite(self.phi):
            raise GeometryError("observation azimuth must be finite")


@dataclass(frozen=True)
class ScatteredField:
    """Scattered E-field components [V/m] along theta-hat and phi-hat."""

    e_theta: complex
    e_phi: complex


def sinc(x):
    """sin(x)/x with the removable singularity at 0 evaluated as 1."""
    return np.sinc(np.asarray(x) / np.pi)


def path_term(u, r, st, ct, along, across):
    """The share of the Fresnel path-length term [m] that a cell coordinate u [m]
    carries toward a point at distance r, st, ct = sin, cos(theta). along, across
    are cos(phi), sin(phi) for u = x and sin(phi), cos(phi) for u = y; the term is
    path_term(x, ...) + path_term(y, ...) + kappa*x*y, kappa = st^2 sp cp / r."""
    return u * st * along - u * u * (ct * ct + (st * across) ** 2) / (2.0 * r)


def fresnel_min_distance(side_l: float, wavelength: float) -> float:
    """Smallest observation distance [m] where the Fresnel field model is trusted."""
    if side_l <= 0 or wavelength <= 0:
        raise DomainError("panel side and wavelength must be positive")
    diag = side_l * math.sqrt(2.0)
    # factored, with no side_l^3, so it overflows only where the bound itself does
    radiating = (_FRESNEL_RADIATING * side_l
                 * math.sqrt(side_l * 2.0 * math.sqrt(2.0) / wavelength))
    return max(_FRESNEL_DIAGONALS * diag, radiating, _FRESNEL_WAVELENGTHS * wavelength)


def nearer_arm(scenario) -> tuple[float, str]:
    """The shorter arm's distance [m] and name, the receiver on a tie."""
    return min((scenario.r_rx, "receiver"), (scenario.r_tx, "transmitter"))


def l_fresnel(scenario) -> float:
    """Largest panel side [m] keeping both arms Fresnel-valid; 0.0 where no side does."""
    lam, (r, _) = scenario.wavelength, nearer_arm(scenario)
    if r < _FRESNEL_WAVELENGTHS * lam:    # below the bound's 10-wavelength floor
        return 0.0
    scale = lam / (2.0 * math.sqrt(2.0))
    # factored for bit identity: a valid link's nearer arm (< 3.3e76 m) cannot overflow (r/0.62)^2
    radiating = scale ** (1.0 / 3.0) * (r ** (2.0 / 3.0) / _FRESNEL_RADIATING ** (2.0 / 3.0))
    return min(r / (_FRESNEL_DIAGONALS * math.sqrt(2.0)), radiating)


def format_length(value: float, decimals: int) -> str:
    """A length [m] as fixed-point text with the given decimals from 10^-decimals m
    up to 1e6 m and at zero, and in exponent form with as many decimals otherwise,
    which keeps huge links short and shows the digits of tiny ones."""
    fixed = value == 0 or 10.0**-decimals <= abs(value) < 1e6
    return f"{value:.{decimals}{'f' if fixed else 'e'}}"


def fresnel_error(side_l, wavelength, r, who="observation") -> FresnelValidityError | None:
    """The error of a point named who at r [m] inside the Fresnel bound of a side_l
    panel, else None: the one comparison with the bound and the one wording of it."""
    r_min = fresnel_min_distance(side_l, wavelength)
    if r >= r_min:
        return None
    return FresnelValidityError(
        f"{who} at r = {format_length(r, 3)} m is inside the Fresnel bound "
        f"{format_length(r_min, 3)} m for L = {format_length(side_l, 3)} m")


def check_fresnel(side_l: float, wavelength: float, r: float, mode: str) -> None:
    """In mode "strict", raise FresnelValidityError if r is inside the Fresnel bound;
    mode "off" returns without computing the bound."""
    if mode not in ("strict", "off"):
        raise ConfigError(f"unknown Fresnel mode {mode!r}")
    if mode == "strict" and (exc := fresnel_error(side_l, wavelength, r)) is not None:
        raise exc


def bracket_weights(theta, phi):
    """Weights of (je_y, jm_x, jm_y) in the theta-hat and phi-hat brackets.

    theta and phi are scalars or arrays of shape S; each returned array has
    shape S + (3,), so a bracket is the dot product of a weight row with the
    three current coefficients. je_x, always 0, has no column.
    """
    ct = np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    w_theta, w_phi = (np.empty(np.shape(ct) + (3,)) for _ in range(2))
    w_theta[..., 0], w_theta[..., 1], w_theta[..., 2] = ETA0 * ct * sp, -sp, cp
    w_phi[..., 0], w_phi[..., 1], w_phi[..., 2] = ETA0 * cp, ct * cp, ct * sp
    return w_theta, w_phi


def _contract(a, col, b):
    """sum_pq a[n, p] * col[p, q] * b[n, q] for each of N points, shape (N,).

    A batch of points is a matrix product. A single point uses numpy's
    pairwise sums instead: a BLAS call would spin up its threads for one
    point, which inside the sweep's thread pool costs more than the sum.
    """
    if a.shape[0] == 1:
        return ((col * b).sum(axis=1) * a[0]).sum(keepdims=True)
    return ((a @ col) * b).sum(axis=1)


def _cell_sum(screens, r, theta, phi, wavelength: float):
    """The radiation sums of a sequence of SurfaceCurrents on one grid at N
    points given by (r, theta, phi) arrays of shape (N,).

    The path term splits exactly as f(x) + g(y) + kappa*x*y with f and g
    the path_term of x and of y and kappa = sin^2(theta) sin(phi) cos(phi) / r,
    so its exponential is the product of a = exp(j k f(x)) over the P rows,
    b = exp(j k g(y)) over the Q columns and the cross term exp(j k kappa x y):
    P + Q exponentials per point instead of P*Q.

    The cross term is expanded in a Taylor series. The rows are split into
    blocks centred at x0; kappa*x0*y folds into each block's b, and the rest
    is sum_n (j k kappa hx hy)^n / n! * u^n v^n with u = (x - x0)/hx and
    v = y/hy in [-1, 1], where hx is the blocks' half-span and hy = L/2. The
    block count is ceil(t) of the whole panel at the batch's largest |kappa|,
    so that t = |k kappa| hx hy <= 1 rad in every block for every point of
    the batch. The rank is per point: the smallest R with t^R / R! <= 1e-16
    at that point's own t (R = 19 at 1 rad). The points are ordered by
    |kappa|, largest first, so term n is contracted over the prefix of points
    whose rank exceeds n: a point leaves the contractions after its last
    term, and the sums go back in input order. Where kappa is 0 (phi = 0: every
    receiver_tpa call and the longitudinal cut) a point has rank 1, and a
    batch of such points is one block, the outer product a b; where kappa is
    at rounding level (phi = pi or +-pi/2, whose sine or cosine is about
    1e-16) the rank is 1 or 2.

    The screens share every phasor: the row and column exponentials and each
    term's a_n and b_n are built once per batch, and each screen contracts
    only its own array components against them. An absent component, the
    scalar 0, leaves its column sum at +0, the bits that contracting zero
    cells gives.

    Each screen's (N, 3) sums of je_y, jm_x and jm_y are projected onto each
    point's theta-hat/phi-hat bracket weights under the prefactor with the
    per-cell sinc element factors. Returns one (e_theta, e_phi) pair per
    screen, each of shape (N,).
    """
    grid = screens[0].grid
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    k = 2.0 * math.pi / wavelength
    pre = (-1j * np.exp(-1j * k * r) / (2.0 * wavelength * r)
           * grid.pitch**2
           * sinc(math.pi * grid.pitch * st * cp / wavelength)
           * sinc(math.pi * grid.pitch * st * sp / wavelength))
    w_theta, w_phi = bracket_weights(theta, phi)

    x, y = grid.x_centers, grid.y_centers
    kappa = st * st * sp * cp / r

    p_count = grid.p_count
    hy = grid.side_l / 2.0
    k_kappa = k * float(np.abs(kappa).max())
    t_panel = k_kappa * (p_count - 1) * grid.pitch / 2.0 * hy
    # t_panel is not finite only for r near 0; blocks of one row are exact for any kappa
    blocks = min(p_count, max(1, math.ceil(t_panel))) if math.isfinite(t_panel) else p_count
    rows = -(-p_count // blocks)
    # largest |kappa| first (one point is in order already)
    order = np.argsort(-np.abs(kappa), kind="stable") if kappa.size > 1 else slice(None)
    r, st, ct, sp, cp, kappa = (v[order, None] for v in (r, st, ct, sp, cp, kappa))
    # kappa first: k |kappa| alone may overflow near r = 0, where rows = 1 and t = 0
    t = np.abs(kappa[:, 0]) * (k * (rows - 1) * grid.pitch / 2.0 * hy)
    # prefix[n] counts the points whose rank exceeds n; term = t^R / R! grows with t,
    # so those points lead the batch
    prefix, term = [t.size], t
    while m := np.count_nonzero(term > _TAYLOR_TOL):
        prefix.append(m)
        term = term[:m] * (t[:m] / len(prefix))
    a = np.exp(1j * k * path_term(x, r, st, ct, cp, sp))
    g = path_term(y, r, st, ct, sp, cp)
    # column 3*s + i of sums holds component i of screen s
    live = [(3 * s + i, col) for s, currents in enumerate(screens)
            for i, col in enumerate((currents.je_y, currents.jm_x, currents.jm_y)) if np.ndim(col)]

    sums = np.zeros((r.shape[0], 3 * len(screens)), dtype=complex)
    for start in range(0, p_count, rows):
        blk = slice(start, start + rows)
        x0 = (x[blk][0] + x[blk][-1]) / 2.0
        a_n = a[:, blk]
        b_n = np.exp(1j * k * (g + kappa * x0 * y))
        for n, m in enumerate(prefix):
            if n:  # term n of the series, split as (j k kappa hy (x - x0))^n / n! * (y/hy)^n
                a_n = a_n[:m] * (1j * k * hy / n) * kappa[:m] * (x[blk] - x0)
                b_n = b_n[:m] * (y / hy)
            for i, col in live:
                sums[:m, i] += _contract(a_n, col[blk], b_n)
    sums[order] = sums.copy()     # row j held point order[j]

    # a field past float range becomes inf or nan here, which received_power rejects
    with np.errstate(over="ignore", invalid="ignore"):
        # je_y + (jm_x + jm_y) has the bits of numpy's pairwise sum of the full row
        # (je_x, je_y, jm_x, jm_y), (je_x + je_y) + (jm_x + jm_y), whose je_x term is +0
        return [tuple(pre * (b[:, 0] + (b[:, 1] + b[:, 2]))
                      for b in (screen * w_theta, screen * w_phi))
                for screen in (sums[:, c:c + 3] for c in range(0, sums.shape[1], 3))]


def scattered_field(currents: SurfaceCurrents, obs: ObservationPoint,
                    wavelength: float, fresnel: str = "off") -> ScatteredField:
    """Scattered field at one observation point from the closed-form cell sum.

    Each cell contributes the phasor exp(j k beta_pq) of its path term (path_term)
    times the current brackets, under a common prefactor with the per-cell sinc
    element factors. fresnel="strict" rejects a point inside the Fresnel bound.
    """
    check_fresnel(currents.grid.side_l, wavelength, obs.r, fresnel)
    [(e_theta, e_phi)] = _cell_sum((currents,), np.array([obs.r]), np.array([obs.theta]),
                                   np.array([obs.phi]), wavelength)
    return ScatteredField(e_theta=complex(e_theta[0]), e_phi=complex(e_phi[0]))


def scattered_field_at_points(currents: SurfaceCurrents, points: np.ndarray,
                              wavelength: float):
    """Vectorized scattered field at Cartesian points of shape (N, 3).

    Returns (e_theta, e_phi) arrays of shape (N,). Points must be finite, lie
    in the reflection half-space z > 0 and have a distance from the panel
    centre inside float range; GeometryError otherwise. No Fresnel check is
    applied here; callers sampling maps validate their cut definition instead.
    Points are summed _POINT_CHUNK at a time, which bounds the per-point
    factor arrays; each chunk is ordered internally by the cross-term
    coefficient |kappa| (_cell_sum), and the results come back in input order.
    This is the one-screen call of the path that field_cut_maps runs for
    several screens, whose chunks share their phasors.
    """
    return _fields_at_points((currents,), points, wavelength)[0]


def _fields_at_points(screens, points, wavelength: float):
    """scattered_field_at_points for a sequence of SurfaceCurrents on one grid:
    one (e_theta, e_phi) pair per screen. Each chunk builds its phasors once
    for all the screens (_cell_sum), and each screen contracts its own live
    components."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(pts)):
        raise GeometryError("observation points must be finite")
    if np.any(pts[:, 2] <= 0.0):
        raise GeometryError("observation points must lie in the half-space z > 0")
    with np.errstate(over="ignore"):
        r = np.linalg.norm(pts, axis=1)
    if not np.all(np.isfinite(r)):
        raise GeometryError("observation distance is out of float range")
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])

    fields = [(np.empty(pts.shape[0], dtype=complex), np.empty(pts.shape[0], dtype=complex))
              for _ in screens]
    for start in range(0, pts.shape[0], _POINT_CHUNK):
        sl = slice(start, start + _POINT_CHUNK)
        for (e_theta, e_phi), chunk in zip(fields, _cell_sum(screens, r[sl], theta[sl],
                                                             phi[sl], wavelength)):
            e_theta[sl], e_phi[sl] = chunk
    return fields


def received_power(field: ScatteredField, g_rx: float, wavelength: float) -> float:
    """Power [W] collected by a matched receiver of gain g_rx from the field;
    DomainError if it leaves float range (a receiver almost on the panel)."""
    try:
        power = (wavelength**2 * g_rx
                 * (abs(field.e_theta) ** 2 + abs(field.e_phi) ** 2)
                 / (8.0 * math.pi * ETA0))
    except OverflowError:
        power = math.inf
    if not power < math.inf:    # NaN fails too
        raise DomainError("received power is out of float range")
    return power


def receiver_tpa(currents: SurfaceCurrents, scenario) -> float:
    """Path attenuation P_rx/P_tx of the currents at the scenario's specular receiver.

    Evaluates only. Both arms' Fresnel validity is fixed by the link, so
    the design and cuts commands check it once (cli) and sweep reports it per row.
    Raises DomainError where the received power leaves float range, and where
    P_rx/P_tx underflows to 0.0 (a receiver too far away), which has no dB figure.
    """
    obs = ObservationPoint(r=scenario.r_rx, theta=scenario.theta0, phi=0.0)
    field = scattered_field(currents, obs, scenario.wavelength)
    tpa = received_power(field, scenario.g_rx, scenario.wavelength) / scenario.p_tx
    if tpa == 0.0:
        raise DomainError("path attenuation P_rx/P_tx underflows to 0")
    return tpa


@dataclass(frozen=True)
class FieldCut:
    """A square field-map cut in the receiver-local frame.

    plane is "transversal" (perpendicular to the panel-to-receiver direction)
    or "longitudinal" (containing it); half_extent [m] and points set the
    sampling of each axis around the receiver.
    """

    plane: str
    half_extent: float
    points: int

    def __post_init__(self):
        if self.plane not in ("transversal", "longitudinal"):
            raise ConfigError(f"unknown cut plane {self.plane!r}")
        if not 0.0 <= self.half_extent < math.inf:  # NaN fails too
            raise ConfigError("cut extent must be finite and nonnegative")
        if self.points < 1:
            raise ConfigError("cut needs at least one sample point")


@dataclass(frozen=True)
class CutMap:
    """Sampled |E| magnitudes over a field cut; arrays indexed [u, v]."""

    cut: FieldCut
    u: np.ndarray            # receiver-local abscissa [m]
    v: np.ndarray            # receiver-local ordinate [m]
    e_phi_abs: np.ndarray    # dominant-component magnitude [V/m]
    e_total_abs: np.ndarray  # total field magnitude [V/m]


def field_cut_map(currents: SurfaceCurrents, cut: FieldCut, scenario,
                  fresnel: str = "off") -> CutMap:
    """Sample |E_sca| on a uniform grid in the receiver-local cut plane.

    The transversal cut spans (x'', y'') at z'' = 0 and the longitudinal cut
    spans (x'', z'') at y'' = 0, both centered on the receiver. fresnel="strict"
    checks the cut center; the map itself may sample the caustic region
    around it. This is field_cut_maps for one screen.
    """
    check_fresnel(currents.grid.side_l, scenario.wavelength, scenario.r_rx, fresnel)
    return field_cut_maps((currents,), cut, scenario)[0]


def field_cut_maps(screens, cut: FieldCut, scenario) -> list[CutMap]:
    """field_cut_map for each of a sequence of SurfaceCurrents on one grid,
    over one set of points: one CutMap per screen, in order.

    The screens share the kernel's phasors, built once per point chunk, and
    each contracts only its own live components, so every map has the bits
    that field_cut_map gives it alone. There is no Fresnel check: the cuts
    command checks the receiver once. GeometryError for an empty sequence or
    for screens on different grids.
    """
    screens = tuple(screens)
    if not screens:
        raise GeometryError("a cut needs at least one set of currents")
    if any(currents.grid != screens[0].grid for currents in screens):
        raise GeometryError("the currents of one cut must lie on one grid")
    n = cut.points if cut.half_extent > 0 else 1
    axis = np.linspace(-cut.half_extent, cut.half_extent, n) if n > 1 else np.zeros(1)
    # x'' = y'' x z'', with y'' the panel y axis and z'' pointing at the receiver
    s, c = math.sin(scenario.theta0), math.cos(scenario.theta0)
    x2 = np.array([c, 0.0, -s])
    second = np.array([0.0, 1.0, 0.0]) if cut.plane == "transversal" else np.array([s, 0.0, c])
    center = scenario.rx_position
    U, V = np.meshgrid(axis, axis, indexing="ij")
    pts = (center[None, :]
           + U.reshape(-1)[:, None] * x2[None, :]
           + V.reshape(-1)[:, None] * second[None, :])
    maps = []
    for e_theta, e_phi in _fields_at_points(screens, pts, scenario.wavelength):
        e_phi_abs = np.abs(e_phi).reshape(n, n)
        e_total_abs = np.sqrt(np.abs(e_theta) ** 2 + np.abs(e_phi) ** 2).reshape(n, n)
        maps.append(CutMap(cut=cut, u=axis.copy(), v=axis.copy(),
                           e_phi_abs=e_phi_abs, e_total_abs=e_total_abs))
    return maps
