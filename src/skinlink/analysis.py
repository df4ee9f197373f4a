"""Closed-form sizing thresholds, parameter sweeps and crossing markers."""

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
_WIN_MARGIN = 1.0 + 1e-12   # a win beats rounding: a gamma = -1 skin ties the screen


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


def _scenario_for(scenario: LinkScenario, variable: str, value: float) -> LinkScenario:
    if variable == "side_l":
        return scenario
    if variable == "r_rx":
        return dataclasses.replace(scenario, r_rx=value)
    if variable == "theta0":
        return dataclasses.replace(scenario, theta0=value)
    return dataclasses.replace(scenario, r_tx=value / 2.0, r_rx=value / 2.0)  # rho


def evaluate_point(scenario: LinkScenario, side_l: float,
                   table: ReflectionLookupTable) -> TpaSweepRow:
    """The side_l sweep row of one geometry, with a fresh synthesis.

    Every figure reads the one snapped panel that was synthesized: a_ems its
    layout, a_pcs a conducting screen of the same cells, a_opt its snapped
    side. fresnel_ok checks the receiver against that snapped side, the check
    that design and cuts apply. The row's variable is side_l and its value the
    requested side; sweep replaces both for its own variable.
    """
    panel, _ = design_panel(scenario, side_l, table)
    a_ems = ems_tpa(scenario, panel)
    a_pcs = pcs_tpa(scenario, side_l)
    side = panel.grid.side_l
    return TpaSweepRow(
        variable="side_l", value=side_l, a_pcs=a_pcs, a_ems=a_ems,
        a_opt=ems_upper_bound_tpa(scenario, side), a_inf=pcs_asymptotic_tpa(scenario),
        fresnel_ok=scenario.r_rx >= fresnel_min_distance(side, scenario.wavelength))


def worker_count(n_tasks: int) -> int:
    """Worker pool size: one thread per task, at most one per CPU."""
    return max(1, min(n_tasks, os.cpu_count() or 1))


def sweep(scenario: LinkScenario, variable: str, values, table: ReflectionLookupTable,
          side_l: float | None = None, workers: int | None = None) -> list[TpaSweepRow]:
    """Evaluate all four attenuation figures across the swept values.

    The skin is re-synthesized (phase conjugation for the updated geometry) at
    every point. For a rho sweep both antenna distances are set to rho/2.
    Swept values are positive, except theta0, which lies in [0, pi/2). For
    sweeps over anything but side_l a finite panel side of at least one cell
    must be given, and for a side_l sweep none. Each row is evaluate_point's
    row for its geometry with the swept variable and value put in, so its
    fresnel_ok checks the receiver against the snapped panel side, not the
    requested one; it is reported, not warned about.
    Per-point library errors are recorded in the row, prefixed with their type,
    and the sweep continues; any other exception propagates. Points run in a
    thread pool with deterministic, input-ordered results.
    """
    values = list(values)
    if variable not in SWEEP_VARIABLES:
        raise DomainError(f"unknown sweep variable {variable!r}")
    if not values:
        raise DomainError("sweep needs at least one value")
    if variable == "theta0":
        if not all(0.0 <= v < math.pi / 2 for v in values):   # NaN fails too
            raise DomainError("theta0 sweep values must lie in [0, pi/2)")
    elif not all(math.isfinite(v) and v > 0 for v in values):
        raise DomainError("sweep values must be finite and positive")
    if sorted(values) != values:
        raise DomainError("sweep values must be sorted ascending")
    if variable == "side_l" and side_l is not None:
        raise DomainError("a fixed panel side is not used by a side_l sweep")
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
            row = evaluate_point(point_scenario, length, table)
        except SkinlinkError as exc:  # recorded per row, sweep continues
            return TpaSweepRow(variable=variable, value=value,
                               a_pcs=math.nan, a_ems=math.nan, a_opt=math.nan,
                               a_inf=math.nan, fresnel_ok=False,
                               error=f"{type(exc).__name__}: {exc}")
        return dataclasses.replace(row, variable=variable, value=value)

    n = workers if workers is not None else worker_count(len(values))
    if n <= 1:
        return [one(v) for v in values]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(one, values))


@dataclass(frozen=True)
class MarkerSet:
    """Panel sides where the skin's attenuation crosses the reference curves.

    l_th_ems: where the skin overtakes the infinite-screen limit;
    l_pcs_ems: where the skin overtakes the equal-size screen.
    Each is the side p*pitch of a whole panel that wins while p - 1 cells do
    not (see markers; not always the smallest winner), or None if absent.
    """

    l_th_ems: float | None
    l_pcs_ems: float | None


def markers(rows: list[TpaSweepRow], scenario: LinkScenario,
            table: ReflectionLookupTable) -> MarkerSet:
    """Locate the crossing markers of a side_l sweep by an exact cell-count search.

    Every side snaps to a whole number p of cells, so the search bisects p
    between the first pair of adjacent rows that brackets an upward crossing.
    Each probe re-synthesizes the skin at side p*pitch; no cell count is
    evaluated twice, and the rows' own counts are never re-evaluated. A marker
    is the side p*pitch of a panel that wins (by more than 1e-12 relative)
    while p - 1 cells do not; the bisection does not promise the smallest such
    p in the bracket. `design --side-l` at that side reproduces it. A missing
    bracket yields an absent marker, not an error.
    """
    usable = [r for r in rows if r.error is None and r.variable == "side_l"]
    if len(usable) < 3:
        raise DomainError("marker location needs at least three valid sweep rows")

    pitch = scenario.pitch
    counts = [discretize(r.value, pitch).p_count for r in usable]
    cache = dict(zip(counts, usable))

    def row(p: int) -> TpaSweepRow:
        if p not in cache:
            cache[p] = evaluate_point(scenario, p * pitch, table)
        return cache[p]

    def locate(wins) -> float | None:
        for lo, hi in zip(counts, counts[1:]):
            if not wins(cache[lo]) and wins(cache[hi]):
                while hi - lo > 1:    # invariant: lo does not win, hi wins
                    mid = (lo + hi) // 2
                    if wins(row(mid)):
                        hi = mid
                    else:
                        lo = mid
                return hi * pitch
        return None

    return MarkerSet(
        l_th_ems=locate(lambda r: r.a_ems > r.a_inf * _WIN_MARGIN),
        l_pcs_ems=locate(lambda r: r.a_ems > r.a_pcs * _WIN_MARGIN),
    )
