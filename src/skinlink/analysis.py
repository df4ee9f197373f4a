"""Closed-form sizing thresholds, parameter sweeps, crossing markers and
improvement margins."""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .aperture import discretize
from .ems import ReflectionLookupTable, design_panel, ems_tpa, ems_upper_bound_tpa
from .errors import DomainError, FresnelValidityError, SkinlinkError
from .field_engine import fresnel_min_distance
from .pcs import pcs_asymptotic_tpa, pcs_tpa
from .scenario import LinkScenario, db

SWEEP_VARIABLES = ("side_l", "r_rx", "theta0", "rho")


def l_threshold(scenario: LinkScenario) -> float:
    """Smallest panel side [m] whose ideal-skin bound beats the infinite-screen limit."""
    c = math.cos(scenario.theta0)
    if c <= 0.0:
        raise DomainError("threshold side diverges at grazing incidence")
    return math.sqrt(scenario.wavelength / c
                     * scenario.r_tx * scenario.r_rx / (scenario.r_tx + scenario.r_rx))


def l_fresnel(scenario: LinkScenario) -> float:
    """Largest panel side [m] keeping the receiver inside the Fresnel-valid zone."""
    lam = scenario.wavelength
    if scenario.r_rx < 10.0 * lam:
        raise FresnelValidityError(
            f"receiver distance {scenario.r_rx} m is below 10 wavelengths")
    return min(scenario.r_rx / (10.0 * math.sqrt(2.0)),
               (lam / (2.0 * math.sqrt(2.0)) * (scenario.r_rx / 0.62) ** 2) ** (1.0 / 3.0))


@dataclass(frozen=True)
class OptimalityInterval:
    """Panel-side interval [l_th, l_fr] where a skin can beat an infinite screen."""

    l_th: float
    l_fr: float

    @property
    def nonempty(self) -> bool:
        return self.l_th <= self.l_fr


def optimality_interval(scenario: LinkScenario) -> OptimalityInterval:
    return OptimalityInterval(l_th=l_threshold(scenario), l_fr=l_fresnel(scenario))


@dataclass(frozen=True)
class TpaSweepRow:
    """One sweep point: the swept value plus all four attenuation ratios."""

    variable: str
    value: float
    a_pcs: float
    a_ems: float
    a_opt: float
    a_inf: float
    fresnel_ok: bool
    error: str | None = None

    @property
    def a_pcs_db(self) -> float:
        return db(self.a_pcs)

    @property
    def a_ems_db(self) -> float:
        return db(self.a_ems)

    @property
    def a_opt_db(self) -> float:
        return db(self.a_opt)

    @property
    def a_inf_db(self) -> float:
        return db(self.a_inf)


@dataclass(frozen=True)
class DeltaMetrics:
    """Skin improvement margins [dB] over the finite screen, the infinite-screen
    limit, and the ideal bound (the last is nonpositive up to numerics)."""

    d_pcs: float
    d_inf: float
    d_opt: float


def delta_metrics(row: TpaSweepRow) -> DeltaMetrics:
    return DeltaMetrics(d_pcs=row.a_ems_db - row.a_pcs_db,
                        d_inf=row.a_ems_db - row.a_inf_db,
                        d_opt=row.a_ems_db - row.a_opt_db)


def _scenario_for(scenario: LinkScenario, variable: str, value: float) -> LinkScenario:
    if variable == "side_l":
        return scenario
    if variable == "r_rx":
        return dataclasses.replace(scenario, r_rx=value)
    if variable == "theta0":
        return dataclasses.replace(scenario, theta0=value)
    if variable == "rho":
        return dataclasses.replace(scenario, r_tx=value / 2.0, r_rx=value / 2.0)
    raise DomainError(f"unknown sweep variable {variable!r}; "
                      f"expected one of {SWEEP_VARIABLES}")


def evaluate_point(scenario: LinkScenario, side_l: float,
                   table: ReflectionLookupTable,
                   centered: bool = False) -> tuple[float, float, float, float]:
    """(a_pcs, a_ems, a_opt, a_inf) for one geometry, with a fresh synthesis.

    Fresnel validity is left to the caller (sweep reports it as fresnel_ok).
    """
    panel, _ = design_panel(scenario, side_l, table, centered=centered)
    a_ems = ems_tpa(scenario, panel)
    a_pcs = pcs_tpa(scenario, side_l, centered=centered)
    return (a_pcs, a_ems,
            ems_upper_bound_tpa(scenario, panel.grid.side_l),
            pcs_asymptotic_tpa(scenario))


def worker_count(n_tasks: int) -> int:
    """Worker pool size: CPU count, capped by SKINLINK_THREADS when set."""
    workers = min(n_tasks, os.cpu_count() or 1)
    cap = os.environ.get("SKINLINK_THREADS")
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            pass
    return max(1, workers)


def sweep(scenario: LinkScenario, variable: str, values, table: ReflectionLookupTable,
          side_l: float | None = None, centered: bool = False,
          workers: int | None = None) -> list[TpaSweepRow]:
    """Evaluate all four attenuation figures across the swept values.

    The skin is re-synthesized (phase conjugation for the updated geometry) at
    every point. For a rho sweep both antenna distances are set to rho/2. For
    sweeps over anything but side_l a finite panel side of at least one cell
    must be given. Fresnel validity is reported in each row's fresnel_ok, not
    checked or warned about.
    Per-point library errors are recorded in the row, prefixed with their type,
    and the sweep continues; any other exception propagates. Points run in a
    thread pool with deterministic, input-ordered results.
    """
    values = list(values)
    if variable not in SWEEP_VARIABLES:
        raise DomainError(f"unknown sweep variable {variable!r}")
    if not values:
        raise DomainError("sweep needs at least one value")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise DomainError("sweep values must be finite and positive")
    if sorted(values) != values:
        raise DomainError("sweep values must be sorted ascending")
    if variable != "side_l":
        if not (side_l is not None and 0.0 < side_l < math.inf):
            raise DomainError(f"a finite, positive fixed panel side is required "
                              f"for a {variable} sweep")
        # the pitch does not change along the sweep, so every point would fail
        if side_l < scenario.pitch:
            raise DomainError(f"fixed panel side {side_l} m is smaller than one cell "
                              f"({scenario.pitch} m)")

    def one(value: float) -> TpaSweepRow:
        point_scenario = _scenario_for(scenario, variable, value)
        length = value if variable == "side_l" else side_l
        try:
            a_pcs, a_ems, a_opt, a_inf = evaluate_point(
                point_scenario, length, table, centered)
            ok = point_scenario.r_rx >= fresnel_min_distance(
                length, point_scenario.wavelength)
            return TpaSweepRow(variable=variable, value=value, a_pcs=a_pcs,
                               a_ems=a_ems, a_opt=a_opt, a_inf=a_inf, fresnel_ok=ok)
        except SkinlinkError as exc:  # recorded per row, sweep continues
            return TpaSweepRow(variable=variable, value=value,
                               a_pcs=math.nan, a_ems=math.nan, a_opt=math.nan,
                               a_inf=math.nan, fresnel_ok=False,
                               error=f"{type(exc).__name__}: {exc}")

    n = workers if workers is not None else worker_count(len(values))
    if n <= 1:
        return [one(v) for v in values]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(one, values))


@dataclass(frozen=True)
class MarkerSet:
    """Panel sides where the skin's attenuation crosses the reference curves.

    l_th_ems: smallest side where the skin reaches the infinite-screen limit;
    l_pcs_ems: smallest side beyond which the skin beats the equal-size screen.
    Each present marker is the side p*pitch of a whole panel of p cells, the
    smallest winning one in its bracket, not an interpolated crossing.
    None marks an absent crossing.
    """

    l_th_ems: float | None
    l_pcs_ems: float | None

    @property
    def l_th_ems_present(self) -> bool:
        return self.l_th_ems is not None

    @property
    def l_pcs_ems_present(self) -> bool:
        return self.l_pcs_ems is not None


def markers(rows: list[TpaSweepRow], scenario: LinkScenario,
            table: ReflectionLookupTable, centered: bool = False) -> MarkerSet:
    """Locate the crossing markers of a side_l sweep by an exact cell-count search.

    Every side snaps to a whole number p of cells, so the search bisects p
    between the first pair of adjacent rows that brackets an upward crossing.
    Each probe re-synthesizes the skin at side p*pitch; no cell count is
    evaluated twice, and the rows' own counts are never re-evaluated. A marker
    is the side p*pitch of the smallest winning panel, so diff(p - 1) <= 0 <
    diff(p), and `design --side-l` at that side reproduces it. A missing
    bracket yields an absent marker, not an error.
    """
    usable = [r for r in rows if r.error is None and r.variable == "side_l"]
    if len(usable) < 3:
        raise DomainError("marker location needs at least three valid sweep rows")

    pitch = scenario.pitch
    counts = [discretize(r.value, pitch).p_count for r in usable]
    cache = {p: (r.a_pcs, r.a_ems, r.a_opt, r.a_inf) for p, r in zip(counts, usable)}

    def point(p: int):
        if p not in cache:
            cache[p] = evaluate_point(scenario, p * pitch, table, centered)
        return cache[p]

    def locate(diff) -> float | None:
        for lo, hi in zip(counts, counts[1:]):
            if diff(cache[lo]) < 0.0 < diff(cache[hi]):
                while hi - lo > 1:    # invariant: diff(lo) <= 0 < diff(hi)
                    mid = (lo + hi) // 2
                    if diff(point(mid)) > 0.0:
                        hi = mid
                    else:
                        lo = mid
                return hi * pitch
        return None

    return MarkerSet(
        l_th_ems=locate(lambda p: p[1] - p[3]),
        l_pcs_ems=locate(lambda p: p[1] - p[0]),
    )
