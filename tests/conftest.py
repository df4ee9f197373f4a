"""Shared fixtures: reference link scenarios and precomputed sweeps."""

import numpy as np
import pytest

import skinlink as sk

from helpers import make_scenario

GAIN_LOW = 10.0 ** (15.4 / 10.0)
GAIN_HIGH = 10.0 ** (25.5 / 10.0)


@pytest.fixture(scope="session")
def baseline():
    """Desk-scale link: 27 GHz, 20 dBm, 15.4 dBi horns, 15 m arms, 30 degrees."""
    return make_scenario()


@pytest.fixture(scope="session")
def baseline_50m():
    return make_scenario(r_tx=50.0, r_rx=50.0)


@pytest.fixture(scope="session")
def highgain():
    return make_scenario(g_dbi=25.5)


@pytest.fixture(scope="session")
def table():
    return sk.synthetic_table()


@pytest.fixture(scope="session")
def pec_table():
    g = np.array([1.0e-3, 2.0e-3])
    minus_one = np.array([-1.0 + 0.0j, -1.0 + 0.0j])
    return sk.ReflectionLookupTable(g=g, gamma_xx=minus_one.copy(), gamma_yy=minus_one)


@pytest.fixture(scope="session")
def panel08(baseline, table):
    panel, targets = sk.design_panel(baseline, 0.8, table)
    return panel, targets


@pytest.fixture(scope="session")
def panel10(baseline, table):
    panel, targets = sk.design_panel(baseline, 1.0, table)
    return panel, targets


@pytest.fixture(scope="session")
def sweep19(baseline, table):
    """The reference panel-side sweep, 0.1 m to 1.0 m in 19 points."""
    values = list(np.linspace(0.1, 1.0, 19))
    return sk.sweep(baseline, "side_l", values, table)


@pytest.fixture(scope="session")
def markers19(sweep19, baseline, table):
    return sk.markers(sweep19, baseline, table)
