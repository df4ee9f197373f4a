"""Conducting-screen model: physical-equivalent currents, finite-panel path
attenuation and the infinite-screen asymptote."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aperture import ApertureGrid, discretize
from .ems import reflection_currents
from .field_engine import SurfaceCurrents, receiver_tpa
from .scenario import LinkScenario


@dataclass(frozen=True)
class PcsPanel:
    """A bare conducting screen; its only descriptor is the grid geometry."""

    grid: ApertureGrid


def pcs_currents(panel: PcsPanel, scenario: LinkScenario) -> SurfaceCurrents:
    """Physical-equivalent currents of a perfect conductor: J_e = 2 n x H_av,
    J_m = 0, realized as the gamma = -1 limit of the shared sheet kernel. It
    carries je_y = 2 h_x alone; jm_x and jm_y are the scalar 0."""
    return reflection_currents(panel.grid, scenario, -1.0, -1.0)


def pcs_tpa(scenario: LinkScenario, side_l: float) -> float:
    """Path attenuation P_rx/P_tx of a conducting screen of the given side;
    evaluates only, the Fresnel check is the command's (see receiver_tpa)."""
    grid = discretize(side_l, scenario.pitch)
    currents = pcs_currents(PcsPanel(grid=grid), scenario)
    return receiver_tpa(currents, scenario)


def pcs_asymptotic_tpa(scenario: LinkScenario) -> float:
    """Infinite-screen limit: free-space loss of the unfolded end-to-end path."""
    lam = scenario.wavelength
    return ((lam / (4.0 * math.pi * (scenario.r_rx + scenario.r_tx))) ** 2
            * scenario.g_rx * scenario.g_tx)
