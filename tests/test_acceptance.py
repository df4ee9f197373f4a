"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import math

import numpy as np
import pytest

import skinlink as sk

from helpers import make_scenario, quadrature_oracle


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"\nacceptance {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance criterion {number} failed: {text}"


def test_criterion_1_closed_form_thresholds(baseline, baseline_50m):
    pairs = {
        15.0: (sk.l_threshold(baseline), sk.l_fresnel(baseline), 0.310, 1.060),
        50.0: (sk.l_threshold(baseline_50m), sk.l_fresnel(baseline_50m), 0.566, 2.945),
    }
    ok = all(abs(th - eth) <= 0.002 and abs(fr - efr) <= 0.002
             for th, fr, eth, efr in pairs.values())
    got = {r: (round(v[0], 4), round(v[1], 4)) for r, v in pairs.items()}
    verdict(1, ok, f"threshold/Fresnel sides at 15 m and 50 m: {got}")


def test_criterion_2_asymptotic_limit(baseline):
    a_inf = sk.db(sk.pcs_asymptotic_tpa(baseline))
    verdict(2, abs(a_inf - (-59.8)) <= 0.05,
            f"infinite-screen limit {a_inf:.3f} dB vs -59.8 dB")


def test_criterion_3_ideal_bound(baseline):
    a_opt = sk.db(sk.ems_upper_bound_tpa(baseline, 0.8))
    verdict(3, abs(a_opt - (-43.4)) <= 0.05,
            f"ideal-skin bound {a_opt:.3f} dB vs -43.4 dB")


def test_criterion_4_link_length_scaling():
    sides = {}
    ok = True
    for rho, expected in ((400.0, 1.132), (2000.0, 2.532)):
        s = make_scenario(r_tx=rho / 2.0, r_rx=rho / 2.0)
        sides[rho] = sk.l_threshold(s)
        ok = ok and abs(sides[rho] - expected) <= 0.005
        ok = ok and abs(sides[rho] / math.sqrt(rho) - 0.056) <= 0.002
    verdict(4, ok, f"threshold sides over link length: {sides}")


def test_criterion_5_realized_skin_attenuation(baseline, panel08):
    panel, _ = panel08
    assert panel.grid.cell_count == 20736
    a_ems = sk.db(sk.receiver_tpa(sk.gstc_currents(panel, baseline), baseline))
    verdict(5, -50.0 <= a_ems <= -43.4,
            f"realized skin attenuation {a_ems:.2f} dB in [-50.0, -43.4]")


def test_criterion_6_crossing_structure(sweep19, markers19):
    ok = markers19.l_th_ems is not None and 0.310 <= markers19.l_th_ems <= 0.39
    threshold = (markers19.l_th_ems or 0.0) + 0.05
    beyond = [r for r in sweep19 if r.value >= threshold]
    ok = ok and beyond and all(r.a_ems > r.a_inf for r in beyond)
    verdict(6, bool(ok),
            f"skin crosses the asymptote at {markers19.l_th_ems:.3f} m "
            f"and stays above it afterwards")


def test_criterion_7_oracle_equivalence():
    lam = sk.wavelength(27e9)
    delta = lam / 2.0
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(50):
        p = int(rng.choice([4, 8, 12, 16, 24, 32]))
        grid = sk.discretize(p * delta, delta)
        shape = (grid.p_count, grid.p_count)

        def draw():
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        currents = sk.SurfaceCurrents(je_y=draw(), jm_x=draw(), jm_y=draw(), grid=grid)
        # random (incoherent) currents do not average out the closed form's
        # first-order per-cell approximations, so probe well beyond the
        # Fresnel bound where those shrink below the tolerance
        r = float(rng.uniform(1500.0, 2500.0)) * grid.side_l
        obs = sk.ObservationPoint(r=r,
                                  theta=float(rng.uniform(0.05, math.radians(45.0))),
                                  phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        assert r >= sk.fresnel_min_distance(grid.side_l, lam)
        closed = sk.scattered_field(currents, obs, lam)
        oracle = quadrature_oracle(currents, obs, lam, subdivisions=8)
        num = math.hypot(abs(closed.e_theta - oracle.e_theta),
                         abs(closed.e_phi - oracle.e_phi))
        den = math.hypot(abs(oracle.e_theta), abs(oracle.e_phi))
        worst = max(worst, num / den)
    verdict(7, worst <= 1e-3,
            f"closed form vs sub-patch oracle, worst of 50 cases: {worst:.2e}")


def test_criterion_8_pec_degeneration():
    rng = np.random.default_rng(88)
    g = np.array([1.0e-3, 2.0e-3])
    minus_one = np.array([-1.0 + 0.0j, -1.0 + 0.0j])
    pec = sk.ReflectionLookupTable(g=g, gamma_xx=minus_one.copy(),
                                   gamma_yy=minus_one)
    worst = 0.0
    for case in range(10):
        s = sk.LinkScenario(
            f=float(rng.uniform(10e9, 40e9)),
            p_tx=float(rng.uniform(0.01, 1.0)),
            g_tx=float(rng.uniform(1.0, 300.0)),
            g_rx=float(rng.uniform(1.0, 300.0)),
            r_tx=float(rng.uniform(8.0, 60.0)),
            r_rx=float(rng.uniform(8.0, 60.0)),
            theta0=float(rng.uniform(0.0, math.radians(55.0))))
        side = float(rng.uniform(0.1, 0.5))
        panel, _ = sk.design_panel(s, side, pec)
        a_ems = sk.receiver_tpa(sk.gstc_currents(panel, s), s)
        a_pcs = sk.pcs_tpa(s, side)
        worst = max(worst, abs(a_ems - a_pcs) / a_pcs)
    verdict(8, worst <= 1e-12,
            f"gamma = -1 skin equals the conducting screen, worst {worst:.2e}")


def test_criterion_9_bound_dominance_matrix(table):
    values = list(np.linspace(0.1, 1.0, 19))
    worst = -math.inf
    rows_checked = 0
    for r in (15.0, 50.0):
        for g_dbi in (15.4, 25.5):
            for theta_deg in (20.0, 30.0, 45.0):
                s = make_scenario(g_dbi=g_dbi, r_tx=r, r_rx=r, theta0_deg=theta_deg)
                for row in sk.sweep(s, "side_l", values, table):
                    assert row.error is None
                    worst = max(worst, sk.db(row.a_ems) - sk.db(row.a_opt))
                    rows_checked += 1
    verdict(9, rows_checked == 228 and worst <= 0.5,
            f"skin never beats its bound by more than 0.5 dB over "
            f"{rows_checked} rows (worst margin {worst:.3f} dB)")


def test_criterion_10_angle_ordering(table):
    tpa = {}
    for theta_deg in (20.0, 30.0, 45.0):
        s = make_scenario(g_dbi=25.5, theta0_deg=theta_deg)
        panel, _ = sk.design_panel(s, 1.0, table)
        tpa[theta_deg] = sk.db(sk.receiver_tpa(sk.gstc_currents(panel, s), s))
    ok = tpa[20.0] > tpa[30.0] > tpa[45.0]
    verdict(10, ok, f"attenuation ordering over incidence angle: {tpa}")


def test_criterion_11_excluded_reproductions():
    # realized-cell-specific markers and margins (threshold markers tied to a
    # full-wave-extracted patch cell, and exact margin tables) are out of
    # scope by design; their substitutes are criteria 5, 6, 9 and 10
    verdict(11, True, "meta-atom-specific markers excluded; substitutes in place")
