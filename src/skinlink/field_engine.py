"""Discretized Fresnel-zone radiation integral and its independent oracle.

Evaluates the scattered field of piecewise-constant electric/magnetic surface
currents on the panel lattice, the received power, the Fresnel validity bound,
field-cut maps around the receiver, and a sub-patch quadrature oracle used to
cross-check the closed-form cell sum.

One kernel, _cell_sum, evaluates the cell sum at a batch of points; both
scattered_field (one point) and scattered_field_at_points (chunks) call it.
It never forms the (points x cells) phasor block. The Fresnel path term
splits exactly into a row part f(x), a column part g(y) and a cross term
kappa*x*y, so each point needs P + Q exponentials, and the cross term is a
short Taylor series over blocks of rows, sized from its phase. The cross term
vanishes at phi = 0, which covers every receiver_tpa call and the
longitudinal cut; there the sum is one outer product. A batch is contracted
with matrix products, a single point with numpy's pairwise sums, so that one
point never wakes the BLAS threads. beta keeps the unsplit path term that
synthesis uses. The oracle keeps its own transcription so that it stays an
independent check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aperture import ApertureGrid
from .constants import ETA0
from .errors import (ConfigError, DomainError, FresnelValidityError,
                     FresnelValidityWarning, GeometryError)

_POINT_CHUNK = 256                 # observation points per vectorized chunk
_TAYLOR_TOL = 1e-16                # remainder bound of the cross-term series


@dataclass(frozen=True)
class SurfaceCurrents:
    """Per-cell complex current coefficients on an aperture grid.

    je_* are electric [A/m] and jm_* magnetic [V/m] surface-current expansion
    coefficients, all shaped (P, Q) and indexed [p, q].
    """

    je_x: np.ndarray
    je_y: np.ndarray
    jm_x: np.ndarray
    jm_y: np.ndarray
    grid: ApertureGrid

    def __post_init__(self):
        shape = (self.grid.p_count, self.grid.q_count)
        for name in ("je_x", "je_y", "jm_x", "jm_y"):
            arr = getattr(self, name)
            if arr.shape != shape:
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

    @property
    def cartesian(self) -> np.ndarray:
        s, c = math.sin(self.theta), math.cos(self.theta)
        return self.r * np.array([s * math.cos(self.phi), s * math.sin(self.phi), c])


@dataclass(frozen=True)
class ScatteredField:
    """Scattered E-field components [V/m] along theta-hat and phi-hat."""

    e_theta: complex
    e_phi: complex

    @property
    def magnitude(self) -> float:
        return math.hypot(abs(self.e_theta), abs(self.e_phi))


def sinc(x):
    """sin(x)/x with the removable singularity at 0 evaluated as 1."""
    return np.sinc(np.asarray(x) / np.pi)


def beta(cell, obs: ObservationPoint):
    """Fresnel path-length term [m] of a cell barycenter toward an observation point.

    cell is (x_p, y_q) with scalar or array coordinates.
    """
    x = np.asarray(cell[0], dtype=float)
    y = np.asarray(cell[1], dtype=float)
    r = obs.r
    s, c = math.sin(obs.theta), math.cos(obs.theta)
    sp, cp = math.sin(obs.phi), math.cos(obs.phi)
    return (x * s * cp + y * s * sp
            - c * c * (x * x + y * y) / (2.0 * r)
            - (x * s * sp - y * s * cp) ** 2 / (2.0 * r))


def fresnel_min_distance(side_l: float, wavelength: float) -> float:
    """Smallest observation distance [m] where the Fresnel field model is trusted."""
    if side_l <= 0 or wavelength <= 0:
        raise DomainError("panel side and wavelength must be positive")
    diag = side_l * math.sqrt(2.0)
    return max(10.0 * diag,
               0.62 * math.sqrt(2.0 * side_l**3 * math.sqrt(2.0) / wavelength),
               10.0 * wavelength)


def check_fresnel(side_l: float, wavelength: float, r: float, mode: str = "warn") -> bool:
    """Check r against the Fresnel bound; warn, raise or stay silent per mode."""
    if mode not in ("warn", "strict", "off"):
        raise ConfigError(f"unknown Fresnel mode {mode!r}")
    ok = r >= fresnel_min_distance(side_l, wavelength)
    if not ok and mode == "strict":
        raise FresnelValidityError(
            f"observation at r = {r:.3f} m is inside the Fresnel bound "
            f"{fresnel_min_distance(side_l, wavelength):.3f} m for L = {side_l:.3f} m")
    if not ok and mode == "warn":
        warnings.warn(
            f"observation at r = {r:.3f} m is inside the Fresnel bound for "
            f"L = {side_l:.3f} m; field values there are approximate",
            FresnelValidityWarning, stacklevel=3)
    return ok


def bracket_weights(theta, phi):
    """Weights of (je_x, je_y, jm_x, jm_y) in the theta-hat and phi-hat brackets.

    theta and phi are scalars or arrays of shape S; each returned array has
    shape S + (4,), so a bracket is the dot product of a weight row with the
    four current coefficients.
    """
    ct = np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    w_theta = np.stack([ETA0 * ct * cp, ETA0 * ct * sp, -sp, cp], axis=-1)
    w_phi = np.stack([-ETA0 * sp, ETA0 * cp, ct * cp, ct * sp], axis=-1)
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


def _cell_sum(currents: SurfaceCurrents, r, theta, phi, wavelength: float):
    """The radiation sum at N points given by (r, theta, phi) arrays of shape (N,).

    The path term splits exactly as beta = f(x) + g(y) + kappa*x*y with
    kappa = sin^2(theta) sin(phi) cos(phi) / r, so exp(j k beta) is the
    product of a = exp(j k f(x)) over the P rows, b = exp(j k g(y)) over the
    Q columns and the cross term exp(j k kappa x y): P + Q exponentials per
    point instead of P*Q.

    The cross term is expanded in a Taylor series. The rows are split into
    blocks centred at x0; kappa*x0*y folds into each block's b, and the rest
    is sum_n (j k kappa hx hy)^n / n! * u^n v^n with u = (x - x0)/hx and
    v = y/hy in [-1, 1], where hx is the blocks' half-span and hy = L/2. The
    block count is ceil(t) of the whole panel, so that t = |k kappa| hx hy
    <= 1 rad in every block for every point of the batch, and the rank R is
    the smallest with t^R / R! <= 1e-16 (R = 19 at 1 rad). Where kappa is 0
    (phi = 0: every receiver_tpa call and the longitudinal cut) that is one
    block of rank 1, the outer product a b; where kappa is at rounding level
    (phi = pi or +-pi/2, whose sine or cosine is about 1e-16) it is one block
    of rank 1 or 2.

    The (N, 4) current-column sums are projected onto each point's
    theta-hat/phi-hat bracket weights under the prefactor with the per-cell
    sinc element factors. Returns (e_theta, e_phi), each of shape (N,).
    """
    grid = currents.grid
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    k = 2.0 * math.pi / wavelength
    pre = (-1j * np.exp(-1j * k * r) / (2.0 * wavelength * r)
           * grid.pitch**2
           * sinc(math.pi * grid.pitch * st * cp / wavelength)
           * sinc(math.pi * grid.pitch * st * sp / wavelength))
    w_theta, w_phi = bracket_weights(theta, phi)

    x, y = grid.x_centers, grid.y_centers
    r, st, ct, sp, cp = (v[:, None] for v in (r, st, ct, sp, cp))
    kappa = st * st * sp * cp / r
    a = np.exp(1j * k * (x * st * cp - x * x * (ct * ct + (st * sp) ** 2) / (2.0 * r)))
    g = y * st * sp - y * y * (ct * ct + (st * cp) ** 2) / (2.0 * r)
    cols = (currents.je_x, currents.je_y, currents.jm_x, currents.jm_y)

    p_count = grid.p_count
    hy = grid.side_l / 2.0
    k_kappa = k * float(np.abs(kappa).max())
    t_panel = k_kappa * (p_count - 1) * grid.pitch / 2.0 * hy
    # t_panel is not finite only for r near 0; blocks of one row are exact for any kappa
    blocks = min(p_count, max(1, math.ceil(t_panel))) if math.isfinite(t_panel) else p_count
    rows = -(-p_count // blocks)
    t = k_kappa * (rows - 1) * grid.pitch / 2.0 * hy
    rank, term = 1, t
    while term > _TAYLOR_TOL:
        rank += 1
        term *= t / rank

    sums = np.zeros((r.shape[0], 4), dtype=complex)
    for start in range(0, p_count, rows):
        blk = slice(start, start + rows)
        x0 = (x[blk][0] + x[blk][-1]) / 2.0
        a_n = a[:, blk]
        b_n = np.exp(1j * k * (g + kappa * x0 * y))
        for n in range(rank):
            if n:  # term n of the series, split as (j k kappa hy (x - x0))^n / n! * (y/hy)^n
                a_n = a_n * (1j * k * hy / n) * kappa * (x[blk] - x0)
                b_n = b_n * (y / hy)
            sums += np.stack([_contract(a_n, col[blk], b_n) for col in cols], axis=1)

    return pre * (sums * w_theta).sum(axis=1), pre * (sums * w_phi).sum(axis=1)


def scattered_field(currents: SurfaceCurrents, obs: ObservationPoint,
                    wavelength: float, fresnel: str = "warn") -> ScatteredField:
    """Scattered field at one observation point from the closed-form cell sum.

    Each cell contributes a phasor exp(j*2*pi/lambda * beta_pq) times the
    current brackets, under a common prefactor with the per-cell sinc element
    factors. fresnel selects the validity check mode: warn, strict or off.
    """
    check_fresnel(currents.grid.side_l, wavelength, obs.r, fresnel)
    e_theta, e_phi = _cell_sum(currents, np.array([obs.r]), np.array([obs.theta]),
                               np.array([obs.phi]), wavelength)
    return ScatteredField(e_theta=complex(e_theta[0]), e_phi=complex(e_phi[0]))


def scattered_field_at_points(currents: SurfaceCurrents, points: np.ndarray,
                              wavelength: float):
    """Vectorized scattered field at Cartesian points of shape (N, 3).

    Returns (e_theta, e_phi) arrays of shape (N,). Points must be finite and
    lie in the reflection half-space z > 0. No Fresnel check is applied here;
    callers sampling maps validate their cut definition instead. Points are
    summed _POINT_CHUNK at a time, which bounds the per-point factor arrays.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(pts)):
        raise GeometryError("observation points must be finite")
    if np.any(pts[:, 2] <= 0.0):
        raise GeometryError("observation points must lie in the half-space z > 0")
    r = np.linalg.norm(pts, axis=1)
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])

    e_theta = np.empty(pts.shape[0], dtype=complex)
    e_phi = np.empty(pts.shape[0], dtype=complex)
    for start in range(0, pts.shape[0], _POINT_CHUNK):
        sl = slice(start, start + _POINT_CHUNK)
        e_theta[sl], e_phi[sl] = _cell_sum(currents, r[sl], theta[sl], phi[sl],
                                           wavelength)
    return e_theta, e_phi


def received_power(field: ScatteredField, g_rx: float, wavelength: float) -> float:
    """Power [W] collected by a matched receiver of gain g_rx from the field."""
    return (wavelength**2 * g_rx
            * (abs(field.e_theta) ** 2 + abs(field.e_phi) ** 2)
            / (8.0 * math.pi * ETA0))


def receiver_tpa(currents: SurfaceCurrents, scenario) -> float:
    """Path attenuation P_rx/P_tx of the currents at the scenario's specular receiver.

    Evaluates only. The receiver's Fresnel validity is fixed by the link, so
    the design and cuts commands check it once (cli) and sweep reports it per row.
    """
    obs = ObservationPoint(r=scenario.r_rx, theta=scenario.theta0, phi=0.0)
    field = scattered_field(currents, obs, scenario.wavelength, fresnel="off")
    return received_power(field, scenario.g_rx, scenario.wavelength) / scenario.p_tx


def quadrature_oracle(currents: SurfaceCurrents, obs: ObservationPoint,
                      wavelength: float, subdivisions: int = 8) -> ScatteredField:
    """Independent field evaluation by sub-patch summation.

    Each cell is split into subdivisions^2 sub-patches; every sub-patch
    radiates with its exact spherical phase and 1/R spreading along its own
    direction to the observer, and the contributions are re-projected onto the
    observation point's spherical frame. Converges to the radiation integral
    of the piecewise-constant currents as subdivisions grows, so it checks the
    closed form's Fresnel phase expansion, uniform-amplitude approximation and
    per-cell sinc element factor at once.
    """
    if subdivisions < 1:
        raise DomainError("subdivisions must be at least 1")
    grid = currents.grid
    n = int(subdivisions)
    dsub = grid.pitch / n
    offsets = (np.arange(n) - (n - 1) / 2.0) * dsub
    ox, oy = np.meshgrid(offsets, offsets, indexing="ij")

    X, Y = grid.cell_grid()
    xs = (X[:, :, None] + ox.reshape(-1)[None, None, :]).reshape(-1)
    ys = (Y[:, :, None] + oy.reshape(-1)[None, None, :]).reshape(-1)
    rep = np.ones(n * n)
    je_x = (currents.je_x[:, :, None] * rep).reshape(-1)
    je_y = (currents.je_y[:, :, None] * rep).reshape(-1)
    jm_x = (currents.jm_x[:, :, None] * rep).reshape(-1)
    jm_y = (currents.jm_y[:, :, None] * rep).reshape(-1)

    robs = obs.cartesian
    dx = robs[0] - xs
    dy = robs[1] - ys
    dz = robs[2]
    R = np.sqrt(dx * dx + dy * dy + dz * dz)
    ct = dz / R
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    ph = np.arctan2(dy, dx)
    sp, cp = np.sin(ph), np.cos(ph)

    k = 2.0 * math.pi / wavelength
    pre = (-1j / (2.0 * wavelength * R) * dsub**2 * np.exp(-1j * k * R)
           * sinc(math.pi * dsub * st * cp / wavelength)
           * sinc(math.pi * dsub * st * sp / wavelength))
    bth = ETA0 * ct * cp * je_x + ETA0 * ct * sp * je_y - sp * jm_x + cp * jm_y
    bph = -ETA0 * sp * je_x + ETA0 * cp * je_y + ct * cp * jm_x + ct * sp * jm_y

    # local spherical unit vectors of each sub-patch direction, in Cartesian
    th_hat = np.stack([ct * cp, ct * sp, -st])
    ph_hat = np.stack([-sp, cp, np.zeros_like(sp)])
    e_cart = (pre * bth) * th_hat + (pre * bph) * ph_hat
    e_total = e_cart.sum(axis=1)

    s0, c0 = math.sin(obs.theta), math.cos(obs.theta)
    sp0, cp0 = math.sin(obs.phi), math.cos(obs.phi)
    th0 = np.array([c0 * cp0, c0 * sp0, -s0])
    ph0 = np.array([-sp0, cp0, 0.0])
    return ScatteredField(e_theta=complex(e_total @ th0), e_phi=complex(e_total @ ph0))


@dataclass(frozen=True)
class FieldCut:
    """A square field-map cut in the receiver-local frame.

    plane is "transversal" (perpendicular to the panel-to-receiver direction)
    or "longitudinal" (containing it); half_extent [m] and points set the
    sampling of each axis around the receiver.
    """

    plane: str
    half_extent: float
    points: int = 61

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


def receiver_frame(theta0: float):
    """Receiver-local orthonormal axes (x'', y'', z'') in panel Cartesian frame.

    z'' points from the panel center toward the receiver, y'' is the panel
    y axis, x'' completes the right-handed triple.
    """
    s, c = math.sin(theta0), math.cos(theta0)
    z2 = np.array([s, 0.0, c])
    x2 = np.array([c, 0.0, -s])
    y2 = np.array([0.0, 1.0, 0.0])
    return x2, y2, z2


def field_cut_map(currents: SurfaceCurrents, cut: FieldCut, scenario,
                  fresnel: str = "warn") -> CutMap:
    """Sample |E_sca| on a uniform grid in the receiver-local cut plane.

    The transversal cut spans (x'', y'') at z'' = 0 and the longitudinal cut
    spans (x'', z'') at y'' = 0, both centered on the receiver. The Fresnel
    check applies to the cut center; the map itself may sample the caustic
    region around it.
    """
    check_fresnel(currents.grid.side_l, scenario.wavelength, scenario.r_rx, fresnel)
    n = cut.points if cut.half_extent > 0 else 1
    axis = np.linspace(-cut.half_extent, cut.half_extent, n) if n > 1 else np.zeros(1)
    x2, y2, z2 = receiver_frame(scenario.theta0)
    center = scenario.rx_position
    U, V = np.meshgrid(axis, axis, indexing="ij")
    second = y2 if cut.plane == "transversal" else z2
    pts = (center[None, :]
           + U.reshape(-1)[:, None] * x2[None, :]
           + V.reshape(-1)[:, None] * second[None, :])
    e_theta, e_phi = scattered_field_at_points(currents, pts, scenario.wavelength)
    e_phi_abs = np.abs(e_phi).reshape(n, n)
    e_total_abs = np.sqrt(np.abs(e_theta) ** 2 + np.abs(e_phi) ** 2).reshape(n, n)
    return CutMap(cut=cut, u=axis, v=axis.copy(),
                  e_phi_abs=e_phi_abs, e_total_abs=e_total_abs)
