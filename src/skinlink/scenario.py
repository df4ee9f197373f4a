"""Link geometry, source model and the incident field on the panel.

Conventions: the panel occupies z = 0 with normal +z. The transmitter sits at
azimuth phi = pi and the receiver at phi = 0, both at polar angle theta0 from
the normal (specular-plane convention). The incident electric field is linearly
polarized along the panel y axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0, ETA0
from .errors import ConfigError, DomainError, GeometryError


def wavelength(f: float) -> float:
    """Free-space wavelength c/f [m] for a carrier frequency f [Hz]."""
    if f <= 0:
        raise DomainError(f"frequency must be positive, got {f!r}")
    return C0 / f


def db(ratio: float) -> float:
    """Convert a positive power ratio to decibels, 10*log10(ratio)."""
    if ratio <= 0:
        raise DomainError(f"dB conversion needs a positive ratio, got {ratio!r}")
    return 10.0 * math.log10(ratio)


@dataclass(frozen=True)
class LinkScenario:
    """One specular NLOS link: carrier, powers, gains and bounce geometry.

    Gains are linear (dimensionless), angles in radians, SI units throughout.
    """

    f: float                      # carrier frequency [Hz]
    p_tx: float                   # transmit power [W]
    g_tx: float                   # transmit gain, linear
    g_rx: float                   # receive gain, linear
    r_tx: float                   # transmitter distance from panel center [m]
    r_rx: float                   # receiver distance from panel center [m]
    theta0: float                 # specular polar angle [rad]
    delta: float | None = None    # optional cell pitch override [m]

    def __post_init__(self):
        for name in ("f", "p_tx", "g_tx", "g_rx", "r_tx", "r_rx", "theta0", "delta"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.f <= 0:
            raise DomainError("carrier frequency must be positive")
        if self.p_tx <= 0 or self.g_tx <= 0 or self.g_rx <= 0:
            raise DomainError("powers and gains must be positive")
        if self.r_tx <= 0 or self.r_rx <= 0:
            raise DomainError("antenna distances must be positive")
        if not 0.0 <= self.theta0 < math.pi / 2:
            raise DomainError("theta0 must lie in [0, pi/2)")
        if self.delta is not None and self.delta <= 0:
            raise DomainError("cell pitch must be positive")

    @property
    def wavelength(self) -> float:
        return wavelength(self.f)

    @property
    def pitch(self) -> float:
        """Cell pitch: explicit override if set, half a wavelength otherwise."""
        return self.delta if self.delta is not None else self.wavelength / 2.0

    @property
    def tx_position(self) -> np.ndarray:
        s, c = math.sin(self.theta0), math.cos(self.theta0)
        return np.array([-self.r_tx * s, 0.0, self.r_tx * c])

    @property
    def rx_position(self) -> np.ndarray:
        s, c = math.sin(self.theta0), math.cos(self.theta0)
        return np.array([self.r_rx * s, 0.0, self.r_rx * c])


def incident_fields(scenario: LinkScenario, x, y):
    """Incident E and H of the gain-scaled spherical-wave source at panel points.

    x, y are broadcastable arrays of in-plane coordinates [m] (z = 0). Returns
    (e, h): complex arrays of shape (3,) + broadcast shape. The polarization is
    the y axis minus its projection on k = p/d, with p the panel point minus
    the transmitter and d = |p|. In closed form, with rho = sqrt(p_x^2 + p_z^2)
    and u = amp*exp(-j*k0*d)/(d*rho), e = u*(-p_y*p_x, rho^2, -p_y*p_z)/d and
    h = k x e/eta = u*(-p_z, 0, p_x)/eta: H is perpendicular to y (h[1] is
    exactly 0) and |e| = eta*|h|. rho = 0 (the transmitter, or a wave along y)
    leaves the polarization undefined.
    """
    tx = scenario.tx_position
    px = np.asarray(x, dtype=float) - tx[0]
    py = np.asarray(y, dtype=float) - tx[1]
    pz = -tx[2]
    d = np.sqrt(px * px + py * py + pz * pz)
    rho = np.sqrt(px * px + pz * pz)
    if np.any(rho == 0.0):
        raise GeometryError("incident polarization is undefined on the transmitter's y axis")

    amp = math.sqrt(ETA0 * scenario.g_tx * scenario.p_tx / (2.0 * math.pi))
    u = amp * np.exp(-1j * (2.0 * math.pi / scenario.wavelength) * d) / (d * rho)
    u_d = u / d
    # each component is written into its slot, not stacked from temporaries;
    # e[i, ...] stays an array view where e[i] of a 0-d input is a scalar
    e = np.empty((3,) + d.shape, dtype=complex)
    h = np.empty_like(e)
    np.multiply(u_d, -py * px, out=e[0, ...])
    np.multiply(u_d, rho * rho, out=e[1, ...])
    np.multiply(u_d, -py * pz, out=e[2, ...])
    np.multiply(u, -pz / ETA0, out=h[0, ...])
    h[1, ...] = 0.0
    np.multiply(u, px / ETA0, out=h[2, ...])
    return e, h


_SCENARIO_KEYS = {
    "f_hz": "f",
    "p_tx_w": "p_tx",
    "g_tx_dbi": "g_tx",
    "g_rx_dbi": "g_rx",
    "r_tx_m": "r_tx",
    "r_rx_m": "r_rx",
    "theta0_deg": "theta0",
    "delta_m": "delta",
}

_REQUIRED_KEYS = [k for k in _SCENARIO_KEYS if k != "delta_m"]


def parse_scenario(text: str) -> LinkScenario:
    """Parse a flat key-value scenario config (see load_scenario for the keys)."""
    raw: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = float(value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse value for {key!r}") from exc
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    try:
        g_tx, g_rx = (10.0 ** (raw[key] / 10.0) for key in ("g_tx_dbi", "g_rx_dbi"))
    except OverflowError:
        raise ConfigError("g_tx_dbi or g_rx_dbi overflows a linear gain") from None
    return LinkScenario(
        f=raw["f_hz"],
        p_tx=raw["p_tx_w"],
        g_tx=g_tx,
        g_rx=g_rx,
        r_tx=raw["r_tx_m"],
        r_rx=raw["r_rx_m"],
        theta0=math.radians(raw["theta0_deg"]),
        delta=raw.get("delta_m"),
    )


def load_scenario(path) -> LinkScenario:
    """Load a scenario config file.

    Keys: f_hz, p_tx_w, g_tx_dbi, g_rx_dbi, r_tx_m, r_rx_m, theta0_deg and the
    optional delta_m. '#' starts a comment. Unknown keys are a hard error, and
    so is a file that is not UTF-8 text.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_scenario(text)
