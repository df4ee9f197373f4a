"""Scenario and table-file builders shared by the test modules and their fixtures."""

import math

import skinlink as sk


def make_scenario(f=27e9, p_tx=0.1, g_dbi=15.4, r_tx=15.0, r_rx=15.0,
                  theta0_deg=30.0, delta=None):
    g = 10.0 ** (g_dbi / 10.0)
    return sk.LinkScenario(f=f, p_tx=p_tx, g_tx=g, g_rx=g, r_tx=r_tx, r_rx=r_rx,
                           theta0=math.radians(theta0_deg), delta=delta)


def table_csv(table) -> str:
    """CSV text of a reflection table in the format load_reflection_table reads."""
    lines = ["g_m,re_gamma_xx,im_gamma_xx,re_gamma_yy,im_gamma_yy"]
    for g, gxx, gyy in zip(table.g, table.gamma_xx, table.gamma_yy):
        lines.append(",".join(repr(float(v)) for v in (g, gxx.real, gxx.imag,
                                                       gyy.real, gyy.imag)))
    return "\n".join(lines) + "\n"
