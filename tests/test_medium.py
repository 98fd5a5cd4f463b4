"""Tests for ripplon dispersion, surface statistics, and collective modes."""
import math

import numpy as np
import pytest

from helioq import medium
from helioq.units import G_ACC, HBAR, K_B, RHO_HE, SIGMA_HE


def test_ripplon_at_magnetic_length_scale():
    # hbar omega at k = 1/l for l = 210 angstrom is ~4e-3 K
    k = 1.0 / medium.magnetic_length(1.5)
    assert medium.ripplon_energy_K(k) == pytest.approx(4.024425e-3, rel=1e-6)
    assert medium.ripplon_energy_K(k) == pytest.approx(4e-3, rel=0.2)


def test_ripplon_gravity_branch():
    # capillary term vanishes at long wavelength
    k = 1e-3
    assert medium.ripplon_omega(k) == pytest.approx(
        math.sqrt(G_ACC * k), rel=1e-6
    )


def test_ripplon_crossover():
    # gk = (sigma/rho) k^3 at k_c = sqrt(g rho / sigma); bisection cross-check
    k_c = math.sqrt(G_ACC * RHO_HE / SIGMA_HE)
    assert k_c == pytest.approx(19.603945066291175, rel=1e-12)
    lo, hi = 1.0, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if G_ACC * mid > (SIGMA_HE / RHO_HE) * mid**3:
            lo = mid
        else:
            hi = mid
    assert lo == pytest.approx(k_c, rel=1e-10)


def test_ripplon_monotone():
    ks = np.geomspace(1e-2, 1e7, 200)
    assert np.all(np.diff(medium.ripplon_omega(ks)) > 0)


def test_thermal_amplitude_values():
    assert medium.thermal_amplitude(0.01) == pytest.approx(1.9317049e-9, rel=1e-6)
    assert medium.thermal_amplitude(0.1) == pytest.approx(6.1085872e-9, rel=1e-6)
    # square-root scaling
    a = medium.thermal_amplitude(0.02)
    b = medium.thermal_amplitude(0.08)
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_plasma_parameter_melting_anchor():
    sheet = medium.ElectronSheet(4.5e8)
    assert medium.plasma_parameter(sheet, 0.457) == pytest.approx(137.5, abs=1.0)
    # 1/T scaling
    assert medium.plasma_parameter(sheet, 0.2285) == pytest.approx(
        2 * medium.plasma_parameter(sheet, 0.457), rel=1e-12
    )
    # homogeneity Gamma(4n, 2T) = Gamma(n, T)
    assert medium.plasma_parameter(medium.ElectronSheet(4 * 4.5e8), 2 * 0.457) == (
        pytest.approx(medium.plasma_parameter(sheet, 0.457), rel=1e-12)
    )


def test_melting_boundary_anchor_within_3pc():
    t_melt = medium.melting_temperature(4.5e8, medium.GAMMA_MELT_PHASE_BOUNDARY)
    assert t_melt == pytest.approx(0.457, rel=0.03)
    # analytic inversion vs scalar root-find
    from scipy.optimize import brentq

    t_root = brentq(
        lambda t: medium.plasma_parameter(medium.ElectronSheet(1e8), t) - 137.0,
        1e-3, 10.0,
    )
    assert medium.melting_temperature(1e8, 137.0) == pytest.approx(t_root, rel=1e-10)
    assert medium.melting_temperature(1e8, 137.0) == pytest.approx(0.2161888, rel=1e-6)


def test_is_crystal_classification():
    sheet = medium.ElectronSheet(4.5e8)
    crystal, margin = medium.is_crystal(sheet, 0.4)
    assert crystal and margin > 1
    fluid, margin_f = medium.is_crystal(sheet, 1.2)
    assert not fluid and margin_f < 1
    # inclusive boundary: Gamma == threshold counts as crystal, margin 1
    gamma = medium.plasma_parameter(sheet, 0.4)
    on_edge, margin_e = medium.is_crystal(sheet, 0.4, gamma_melt=gamma)
    assert on_edge and margin_e == pytest.approx(1.0, rel=1e-12)


def test_longitudinal_mode_scale():
    sheet = medium.ElectronSheet(1e8)
    # omega_p cross-checked in SI: omega_p^2 = n^(3/2) e^2 / (2 eps0 m) * ...
    # Gaussian: omega_p = sqrt(2 pi e^2 n^(3/2) / m)
    e_si, m_si, eps0 = 1.602176634e-19, 9.1093837015e-31, 8.8541878128e-12
    n_si = 1e8 * 1e4  # m^-2
    k_si = math.sqrt(n_si)  # evaluate at k = sqrt(n)
    omega_si = math.sqrt(n_si**1.5 * e_si**2 / (2 * eps0 * m_si))
    omega_p = omega_si  # longitudinal mode at k = sqrt(n) equals omega_p
    assert medium._plasma_frequency(1e8) == pytest.approx(omega_p, rel=1e-6)
    assert medium._plasma_frequency(1e8) == pytest.approx(3.98911e10, rel=1e-5)
    # sqrt-k dispersion
    k = 0.1 * math.sqrt(1e8)
    expect = medium._plasma_frequency(1e8) * (k / math.sqrt(1e8)) ** 0.5
    assert medium.collective_mode(sheet, "longitudinal", k) == pytest.approx(
        expect, rel=1e-12
    )


def test_magnetoplasma_branches():
    sheet = medium.ElectronSheet(1e8, b_field=1.5)
    scales = medium.magnetic_quantities(1.5, 0.5e-4)
    omega_c = scales.omega_c_K * K_B / HBAR
    # upper branch starts exactly at the cyclotron frequency
    assert medium.collective_mode(sheet, "magnetoplasma-high", 0.0) == pytest.approx(
        omega_c, rel=1e-12
    )
    # low branch: k^(3/2) power law via log-log slope
    ks = np.geomspace(1e-4, 1e-2, 8) * math.sqrt(sheet.density)
    ws = np.array([medium.collective_mode(sheet, "magnetoplasma-low", k) for k in ks])
    slope = np.polyfit(np.log(ks), np.log(ws), 1)[0]
    assert slope == pytest.approx(1.5, abs=1e-9)
    assert medium.collective_mode(sheet, "magnetoplasma-low", ks[0]) < 1e-3 * omega_c


def test_shear_branch_needs_speed():
    sheet = medium.ElectronSheet(1e8)
    with pytest.raises(ValueError, match="shear_speed"):
        medium.collective_mode(sheet, "shear-acoustic", 100.0)
    assert medium.collective_mode(
        sheet, "shear-acoustic", 100.0, shear_speed=1e4
    ) == pytest.approx(1e6, rel=1e-12)


def test_long_wavelength_guard():
    sheet = medium.ElectronSheet(1e8)
    with pytest.raises(ValueError, match="long-wavelength"):
        medium.collective_mode(sheet, "longitudinal", 0.5 * math.sqrt(1e8))


def test_magnetoplasma_requires_field():
    sheet = medium.ElectronSheet(1e8, b_field=0.0)
    with pytest.raises(ValueError, match="magnetic field"):
        medium.collective_mode(sheet, "magnetoplasma-low", 10.0)


def test_magnetic_quantities_quoted_values():
    scales = medium.magnetic_quantities(1.5, 0.5e-4)
    assert scales.omega_c_K == pytest.approx(2.0151414, rel=1e-6)
    assert scales.length_cm * 1e8 == pytest.approx(209.47744, rel=1e-6)
    assert scales.omega_zb_K == pytest.approx(0.36857279, rel=1e-6)
    # paper-scale rounding
    assert scales.omega_c_K == pytest.approx(2.0, rel=0.05)
    assert scales.length_cm * 1e8 == pytest.approx(210.0, rel=0.02)
    assert scales.omega_zb_K == pytest.approx(0.4, rel=0.2)


def test_magnetic_length_scaling():
    assert medium.magnetic_length(6.0) == pytest.approx(
        medium.magnetic_length(1.5) / 2.0, rel=1e-12
    )


def test_bandwidth_cyclotron_identity():
    # omega_zb * omega_c = 2 pi e^2 / (d^3 m_e), independent of B
    from helioq.units import E_SQ, M_E

    d = 0.5e-4
    for b in (0.5, 1.5, 3.0):
        scales = medium.magnetic_quantities(b, d)
        product = (scales.omega_zb_K * K_B / HBAR) * (scales.omega_c_K * K_B / HBAR)
        assert product == pytest.approx(
            2 * math.pi * E_SQ / (d**3 * M_E), rel=1e-12
        )


def test_validation():
    with pytest.raises(ValueError):
        medium.thermal_amplitude(0.0)
    with pytest.raises(ValueError):
        medium.ElectronSheet(-1e8)
    with pytest.raises(ValueError):
        medium.ripplon_omega(-1.0)
