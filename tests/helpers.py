"""Scenario and table-file builders shared by the test modules and their fixtures,
the unsplit path term that cross-checks path_term, the full-vector incident-field
oracle that cross-checks incident_fields, the plain incident-field expression
that incident_fields must match bit for bit, a counter of its calls and
computations, the plain current expressions that reflection_currents must match,
the passive bound on a grid's path attenuation, the sub-patch quadrature
oracle that cross-checks the closed-form cell sum, and the exact-distance sum
that cross-checks its Fresnel path term at the receiver."""

import math

import numpy as np

import skinlink as sk
from skinlink import (ETA0, DomainError, ObservationPoint, ScatteredField,
                      SurfaceCurrents, sinc)


def make_scenario(f=27e9, p_tx=0.1, g_dbi=15.4, r_tx=15.0, r_rx=15.0,
                  theta0_deg=30.0, delta=None):
    g = 10.0 ** (g_dbi / 10.0)
    return sk.LinkScenario(f=f, p_tx=p_tx, g_tx=g, g_rx=g, r_tx=r_tx, r_rx=r_rx,
                           theta0=math.radians(theta0_deg), delta=delta)


def subsampled_table(step: int):
    """A coarse table: every step-th entry of the synthetic table."""
    full = sk.synthetic_table()
    return sk.ReflectionLookupTable(g=full.g[::step], gamma_xx=full.gamma_xx[::step],
                                    gamma_yy=full.gamma_yy[::step])


def table_csv(table) -> str:
    """CSV text of a reflection table in the format load_reflection_table reads."""
    lines = ["g_m,re_gamma_xx,im_gamma_xx,re_gamma_yy,im_gamma_yy"]
    for g, gxx, gyy in zip(table.g, table.gamma_xx, table.gamma_yy):
        lines.append(",".join(repr(float(v)) for v in (g, gxx.real, gxx.imag,
                                                       gyy.real, gyy.imag)))
    return "\n".join(lines) + "\n"


def beta(cell, obs: ObservationPoint):
    """Fresnel path-length term [m] of a cell barycenter toward an observation point.

    An independent transcription of the unsplit term, x s cp + y s sp
    - c^2 (x^2 + y^2) / 2r - (x s sp - y s cp)^2 / 2r, which the kernel and the
    phase-conjugation targets evaluate split into path_term parts. cell is
    (x_p, y_q) with scalar or array coordinates.
    """
    x = np.asarray(cell[0], dtype=float)
    y = np.asarray(cell[1], dtype=float)
    r = obs.r
    s, c = math.sin(obs.theta), math.cos(obs.theta)
    sp, cp = math.sin(obs.phi), math.cos(obs.phi)
    return (x * s * cp + y * s * sp
            - c * c * (x * x + y * y) / (2.0 * r)
            - (x * s * sp - y * s * cp) ** 2 / (2.0 * r))


def spherical_wave_fields(scenario, x, y):
    """Full incident E and H vectors of the y-polarized spherical-wave source.

    An independent transcription of the source that incident_fields models,
    built from the unit propagation vector k = p/|p| (p the panel point at
    z = 0 minus the transmitter) and the y axis: E has the amplitude
    sqrt(eta g_tx p_tx / 2 pi) / d, the phase exp(-j k0 d) and the direction
    of y with its projection on k removed, and H = k x E / eta. Returns
    (e, h), complex arrays of shape broadcast(x, y) + (3,).
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    p = np.stack([x, y, np.zeros_like(x)], axis=-1) - scenario.tx_position
    d = np.sqrt(np.sum(p * p, axis=-1, keepdims=True))
    k_hat = p / d
    pol = np.array([0.0, 1.0, 0.0]) - k_hat[..., 1:2] * k_hat
    pol = pol / np.sqrt(np.sum(pol * pol, axis=-1, keepdims=True))
    amp = math.sqrt(ETA0 * scenario.g_tx * scenario.p_tx / (2.0 * math.pi))
    e = amp * np.exp(-1j * (2.0 * math.pi / scenario.wavelength) * d) / d * pol
    return e, np.cross(k_hat, e) / ETA0


def incident_reference(scenario, x, y):
    """incident_fields as one plain expression per quantity, each operation
    allocating its result: the arithmetic, in its order, that the in-place
    incident_fields must reproduce bit for bit (it skips the rho = 0 check)."""
    tx = scenario.tx_position
    px = np.asarray(x, dtype=float) - tx[0]
    py = np.asarray(y, dtype=float) - tx[1]
    pz = -tx[2]
    d = np.sqrt(px * px + py * py + pz * pz)
    rho = np.sqrt(px * px + pz * pz)
    amp = math.sqrt(ETA0 * scenario.g_tx * scenario.p_tx / (2.0 * math.pi))
    u = amp * np.exp(-1j * (2.0 * math.pi / scenario.wavelength) * d) / (d * rho)
    u_d = u / d
    return u_d * (-py * px), u_d * (rho * rho), u * (-pz / ETA0)


def currents_reference(grid, scenario, gamma_xx, gamma_yy):
    """reflection_currents as three plain arrays: the products, each allocating
    its result, in the order reflection_currents must reproduce bit for bit
    wherever its component is an array and not the scalar 0.
    Returns (je_y, jm_x, jm_y)."""
    e_x, e_y, h_x = sk.incident_fields(scenario, *grid.cell_grid())
    return (1.0 - gamma_yy) * h_x, -(1.0 + gamma_yy) * e_y, (1.0 + gamma_xx) * e_x


def passive_bound(scenario, grid) -> float:
    """A_pass: a path attenuation that no layout of passive cells (|gamma| <= 1)
    on the grid can exceed at the scenario's receiver, for any table.

    At the receiver (phi = 0) each cell's phasor has unit magnitude under one
    prefactor of magnitude |K| = pitch^2 sinc(pi pitch sin(theta0)/lambda)
    / (2 lambda r_rx). The phi-hat bracket eta je_y + cos(theta0) jm_x
    = (eta h_x - cos e_y) - gamma_yy (eta h_x + cos e_y) is at most
    m = |eta h_x - cos e_y| + |eta h_x + cos e_y| in magnitude, and the
    theta-hat bracket jm_y = (1 + gamma_xx) e_x at most 2|e_x|, so the
    triangle inequality bounds |E_phi| by |K| sum m and |E_theta| by
    |K| sum 2|e_x|, and A_pass is received_power of those over p_tx.
    """
    e_x, e_y, h_x = sk.incident_fields(scenario, *grid.cell_grid())
    lam, ct = scenario.wavelength, math.cos(scenario.theta0)
    m = np.abs(ETA0 * h_x - ct * e_y) + np.abs(ETA0 * h_x + ct * e_y)
    k_abs = (grid.pitch**2 / (2.0 * lam * scenario.r_rx)
             * abs(float(sinc(math.pi * grid.pitch * math.sin(scenario.theta0) / lam))))
    e_sq = (k_abs * m.sum()) ** 2 + (k_abs * 2.0 * np.abs(e_x).sum()) ** 2
    return lam**2 * scenario.g_rx * e_sq / (8.0 * math.pi * ETA0 * scenario.p_tx)


def count_incident_fields(monkeypatch):
    """Record each incident_fields call the library makes (every caller reads
    ems's binding) and each field computation behind them; returns the two
    lists (calls, computed), which grow as the calls happen."""
    calls, computed = [], []
    fields, compute = sk.ems.incident_fields, sk.scenario._incident_fields

    def counting_calls(*args):
        calls.append(args)
        return fields(*args)

    def counting_computations(*args):
        computed.append(args)
        return compute(*args)

    monkeypatch.setattr(sk.ems, "incident_fields", counting_calls)
    monkeypatch.setattr(sk.scenario, "_incident_fields", counting_computations)
    return calls, computed


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

    X, Y = np.broadcast_arrays(*grid.cell_grid())
    xs = (X[:, :, None] + ox.reshape(-1)[None, None, :]).reshape(-1)
    ys = (Y[:, :, None] + oy.reshape(-1)[None, None, :]).reshape(-1)
    rep = np.ones(n * n)
    shape = (grid.p_count, grid.p_count)
    je_x, je_y, jm_x, jm_y = ((np.broadcast_to(c, shape)[:, :, None] * rep).reshape(-1)
                              for c in (currents.je_x, currents.je_y,
                                        currents.jm_x, currents.jm_y))

    s0, c0 = math.sin(obs.theta), math.cos(obs.theta)
    sp0, cp0 = math.sin(obs.phi), math.cos(obs.phi)
    robs = obs.r * np.array([s0 * cp0, s0 * sp0, c0])
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

    th0 = np.array([c0 * cp0, c0 * sp0, -s0])
    ph0 = np.array([-sp0, cp0, 0.0])
    return ScatteredField(e_theta=complex(e_total @ th0), e_phi=complex(e_total @ ph0))


def exact_distance_sum(currents: SurfaceCurrents, scenario) -> ScatteredField:
    """The field at the scenario's receiver as the phi = 0 bracket sum
    sum_pq c_pq exp(-j k R_pq) / R_pq, with R_pq the exact distance from cell
    (x_p, y_q, 0) to the receiver at r_rx (sin theta0, 0, cos theta0).

    c_pq is what the closed-form cell sum gives each cell at phi = 0: the
    theta-hat bracket eta cos(theta0) je_x + jm_y and the phi-hat bracket
    eta je_y + cos(theta0) jm_x of the receiver direction, under the factor
    -j pitch^2 sinc(pi pitch sin(theta0) / lambda) / (2 lambda). Only the
    kernel's Fresnel path term changes: R_pq replaces r_rx - beta_pq in each
    phase and r_rx in each amplitude, so the two sums agree where the Fresnel
    expansion holds. Cells are summed in one pass, so keep panels small.
    """
    grid = currents.grid
    lam, r, theta = scenario.wavelength, scenario.r_rx, scenario.theta0
    x, y = grid.cell_grid()
    dx = r * math.sin(theta) - x
    dz = r * math.cos(theta)
    dist = np.sqrt(dx * dx + y * y + dz * dz)
    phasor = np.exp(-1j * (2.0 * math.pi / lam) * dist) / dist   # (P, P)
    ct = math.cos(theta)
    pre = (-1j * grid.pitch**2 / (2.0 * lam)
           * float(sinc(math.pi * grid.pitch * math.sin(theta) / lam)))
    # a component the screen does not carry is the scalar 0, which broadcasts
    e_theta = pre * np.sum((ETA0 * ct * currents.je_x + currents.jm_y) * phasor)
    e_phi = pre * np.sum((ETA0 * currents.je_y + ct * currents.jm_x) * phasor)
    return ScatteredField(e_theta=complex(e_theta), e_phi=complex(e_phi))
