"""Link geometry, source model and the incident field on the panel.

Conventions: the panel occupies z = 0 with normal +z. The transmitter sits at
azimuth phi = pi and the receiver at phi = 0, both at polar angle theta0 from
the normal (specular-plane convention). The incident electric field is linearly
polarized along the panel y axis.
"""

from __future__ import annotations

import contextlib
import contextvars
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
    (4 pi r_tx r_rx)^2 and the infinite-screen limit must be finite and positive.
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
        # the closed forms divide by the first and compare against the second; each
        # square is a product, which overflows to inf where x ** 2 would raise
        spread = 4.0 * math.pi * self.r_tx * self.r_rx
        if not 0.0 < spread * spread < math.inf:
            raise DomainError("antenna distances put the ideal-skin bound out of float range")
        ratio = self.wavelength / (4.0 * math.pi * (self.r_rx + self.r_tx))
        if not 0.0 < ratio * ratio * self.g_rx * self.g_tx < math.inf:
            raise DomainError("the link puts the infinite-screen limit out of float range")

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


# The memo of the innermost open shared_incident_fields scope, None outside any.
_FIELD_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "skinlink_incident_fields_memo", default=None)


@contextlib.contextmanager
def shared_incident_fields():
    """Within the block, incident_fields computes each key it is given once.

    The memo belongs to the current context, so a thread (which starts with
    an empty context) sees only the scopes it opens itself, and it is dropped
    when the block ends, so nothing computed in one scope reaches another.
    """
    token = _FIELD_MEMO.set({})
    try:
        yield
    finally:
        _FIELD_MEMO.reset(token)


def incident_fields(scenario: LinkScenario, x, y):
    """Tangential incident E and H of the gain-scaled spherical-wave source at panel points.

    x, y are broadcastable arrays of in-plane coordinates [m] (z = 0). Returns
    (e_x, e_y, h_x): complex arrays of the broadcast shape. The polarization is
    the y axis minus its projection on k = p/d, with p the panel point minus
    the transmitter and d = |p|. In closed form, with rho = sqrt(p_x^2 + p_z^2)
    and u = amp*exp(-j*k0*d)/(d*rho), e = u*(-p_y*p_x, rho^2, -p_y*p_z)/d and
    h = k x e/eta = u*(-p_z, 0, p_x)/eta, so |e| = eta*|h|. The sheet model
    (J_e = 2 n x H_av, J_m = 2 n x E_av with n = +z) reads only the tangential
    components, and H_y is identically 0, so e_x, e_y and h_x are all it
    needs. rho = 0 (the transmitter, or a wave along y) leaves the
    polarization undefined.

    Inside a shared_incident_fields scope the fields are computed once per
    key and the stored arrays are returned, read-only, on every later call.
    The key is exactly what the field reads: the bytes of the transmitter
    position, the wavelength, g_tx, p_tx and the shape and bytes of x and y.
    So scenarios that differ only in r_rx, g_rx or delta share an entry, and
    theta0 = 0.0 and -0.0 (whose transmitter x differs in sign) do not.
    Outside any scope every call computes, and the arrays are writable.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    memo = _FIELD_MEMO.get()
    if memo is None:
        return _incident_fields(scenario, x, y)
    tx = scenario.tx_position
    key = (tx.tobytes(), scenario.wavelength, scenario.g_tx, scenario.p_tx,
           x.shape, x.tobytes(), y.shape, y.tobytes())
    fields = memo.get(key)
    if fields is None:
        fields = _incident_fields(scenario, x, y)
        for field in fields:
            if isinstance(field, np.ndarray):    # a 0-d result is an immutable scalar
                field.flags.writeable = False
        memo[key] = fields
    return fields


def _incident_fields(scenario: LinkScenario, x: np.ndarray, y: np.ndarray):
    """incident_fields' arithmetic on float arrays, in place where the
    operation order allows, so that every bit matches the plain expression."""
    scalar = not np.broadcast_shapes(x.shape, y.shape)
    if scalar:    # ufuncs return 0-d results as scalars, which out= cannot take
        x, y = x.reshape(1), y.reshape(1)
    tx = scenario.tx_position
    px = x - tx[0]
    py = y - tx[1]
    pz = -tx[2]
    d = px * px + py * py
    d += pz * pz
    np.sqrt(d, out=d)
    rho = np.sqrt(px * px + pz * pz)
    if np.any(rho == 0.0):
        raise GeometryError("incident polarization is undefined on the transmitter's y axis")

    amp = math.sqrt(ETA0 * scenario.g_tx * scenario.p_tx / (2.0 * math.pi))
    u = -1j * (2.0 * math.pi / scenario.wavelength) * d
    np.exp(u, out=u)
    u *= amp
    real = d * rho              # the one real (broadcast-shaped) scratch buffer
    u /= real
    u_d = u / d
    np.multiply(-py, px, out=real)
    e_x = u_d * real
    u_d *= rho * rho
    u *= -pz / ETA0
    return (e_x[0], u_d[0], u[0]) if scalar else (e_x, u_d, u)


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
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"line {lineno}: unknown key; expected one of "
                              f"{', '.join(_SCENARIO_KEYS)}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = float(value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse value for {key!r}") from exc
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    fields = {_SCENARIO_KEYS[key]: value for key, value in raw.items()}
    try:
        for name in ("g_tx", "g_rx"):
            fields[name] = 10.0 ** (fields[name] / 10.0)
    except OverflowError:
        raise ConfigError("g_tx_dbi or g_rx_dbi overflows a linear gain") from None
    fields["theta0"] = math.radians(fields["theta0"])
    return LinkScenario(**fields)


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
