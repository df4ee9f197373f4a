"""Scenario builder shared by the test modules and their fixtures."""

import math

import skinlink as sk


def make_scenario(f=27e9, p_tx=0.1, g_dbi=15.4, r_tx=15.0, r_rx=15.0,
                  theta0_deg=30.0, delta=None):
    g = 10.0 ** (g_dbi / 10.0)
    return sk.LinkScenario(f=f, p_tx=p_tx, g_tx=g, g_rx=g, r_tx=r_tx, r_rx=r_rx,
                           theta0=math.radians(theta0_deg), delta=delta)
