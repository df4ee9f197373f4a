"""Direct evaluation of the closed-form Fresnel cell sum, kept with the benchmark.

This is a short, plain transcription of the radiation formula the library
implements, so that a rewrite of the library's kernels (a matrix-product
form, a low-rank factorization) is checked against a fixed reference. Cell
contributions are summed with math.fsum, which is exact up to the final
rounding, so the reference does not depend on summation order.
"""

from __future__ import annotations

import math

import numpy as np

MU0 = 4.0e-7 * math.pi
C0 = 2.99792458e8
ETA0 = MU0 * C0          # sqrt(mu0/eps0) with eps0 = 1/(mu0 c^2)


def _fsum_complex(values: np.ndarray) -> complex:
    flat = values.reshape(-1)
    return complex(math.fsum(flat.real), math.fsum(flat.imag))


def _sinc(x: float) -> float:
    return 1.0 if x == 0.0 else math.sin(x) / x


def field(currents, r: float, theta: float, phi: float, wavelength: float):
    """Scattered (E_theta, E_phi) [V/m] at (r, theta, phi) from per-cell currents.

    E = pre * sum_pq exp(j k beta_pq) * bracket_pq, where
      pre  = -j exp(-j k r) / (2 lambda r) * delta^2
             * sinc(pi delta sin(theta) cos(phi) / lambda)
             * sinc(pi delta sin(theta) sin(phi) / lambda),
      beta = x s cp + y s sp - c^2 (x^2 + y^2) / (2 r)
             - (x s sp - y s cp)^2 / (2 r),
    with s, c = sin, cos(theta) and sp, cp = sin, cos(phi).
    """
    grid = currents.grid
    x, y = np.meshgrid(grid.x_centers, grid.y_centers, indexing="ij")
    k = 2.0 * math.pi / wavelength
    s, c = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    d = grid.pitch
    b = (x * s * cp + y * s * sp
         - c * c * (x * x + y * y) / (2.0 * r)
         - (x * s * sp - y * s * cp) ** 2 / (2.0 * r))
    phase = np.exp(1j * k * b)
    eta = ETA0
    b_theta = (eta * c * cp * currents.je_x + eta * c * sp * currents.je_y
               - sp * currents.jm_x + cp * currents.jm_y)
    b_phi = (-eta * sp * currents.je_x + eta * cp * currents.je_y
             + c * cp * currents.jm_x + c * sp * currents.jm_y)
    pre = (-1j * complex(math.cos(k * r), -math.sin(k * r)) / (2.0 * wavelength * r)
           * d * d
           * _sinc(math.pi * d * s * cp / wavelength)
           * _sinc(math.pi * d * s * sp / wavelength))
    return pre * _fsum_complex(phase * b_theta), pre * _fsum_complex(phase * b_phi)


def field_at_point(currents, point, wavelength: float):
    """field() at a Cartesian point (x, y, z > 0) in the panel frame."""
    px, py, pz = (float(v) for v in point)
    r = math.sqrt(px * px + py * py + pz * pz)
    return field(currents, r, math.acos(pz / r), math.atan2(py, px), wavelength)


def path_attenuation(currents, scenario) -> float:
    """P_rx / P_tx at the specular receiver of a matched antenna of gain g_rx."""
    e_theta, e_phi = field(currents, scenario.r_rx, scenario.theta0, 0.0,
                           scenario.wavelength)
    power = (scenario.wavelength ** 2 * scenario.g_rx
             * (abs(e_theta) ** 2 + abs(e_phi) ** 2) / (8.0 * math.pi * ETA0))
    return power / scenario.p_tx


def cut_point(scenario, plane: str, u: float, v: float) -> tuple[float, float, float]:
    """Panel-frame point at (u, v) in a receiver-centred cut plane.

    The transversal plane spans x'' = (cos t, 0, -sin t) and y'' = (0, 1, 0);
    the longitudinal plane spans x'' and z'' = (sin t, 0, cos t).
    """
    s, c = math.sin(scenario.theta0), math.cos(scenario.theta0)
    cx, cz = scenario.r_rx * s, scenario.r_rx * c
    if plane == "transversal":
        return cx + u * c, v, cz - u * s
    return cx + u * c + v * s, 0.0, cz - u * s + v * c


def rel_diff(value: float, ref: float, scale: float | None = None) -> float:
    """|value - ref| relative to scale (default |ref|)."""
    return abs(value - ref) / abs(scale if scale is not None else ref)
