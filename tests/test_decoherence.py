"""Tests for the relaxation/dephasing channels and the assembled budget."""
import dataclasses
import json
import math

import numpy as np
import pytest

from helioq import decoherence, units
from helioq.cli import dump_json

LAM = units.image_strength(1.057)
OPERATING = dict(temperature=0.01, b_field=1.5, pitch=0.5e-4, lam=LAM)


def test_t1_free_magnitude():
    t1 = decoherence.t1_free(0.01, LAM)
    assert 1.0 / t1 == pytest.approx(6.3439023e6, rel=1e-6)
    # hbar/T1 versus the 1->2 transition energy: within an order of 1e-6
    rate_K = (1.0 / t1) * units.HBAR / units.K_B
    transition_K = 0.75 * 7.577203088557404
    assert 1e-7 < rate_K / transition_K < 1e-5


def test_t1_linear_in_temperature():
    r1 = 1.0 / decoherence.t1_free(0.01, LAM)
    r4 = 1.0 / decoherence.t1_free(0.04, LAM)
    assert r4 == pytest.approx(4 * r1, rel=1e-12)


def test_t2_confined_reaches_tenth_millisecond():
    t2 = decoherence.t2_confined(**OPERATING)
    assert t2 == pytest.approx(9.9074126e-5, rel=1e-6)
    assert 1e-4 / 3 < t2 < 3e-4


def test_t2_quadratic_in_temperature():
    r1 = 1.0 / decoherence.t2_confined(0.01, 1.5, 0.5e-4, LAM)
    r2 = 1.0 / decoherence.t2_confined(0.02, 1.5, 0.5e-4, LAM)
    assert r2 == pytest.approx(4 * r1, rel=1e-12)


def test_t2_direction_with_field():
    # the confined two-ripplon rate carries (r_B/l)^8 / omega_zb^2: stronger
    # field means shorter l and smaller omega_zb, so the rate grows ~B^5
    t_low = decoherence.t2_confined(0.01, 1.5, 0.5e-4, LAM)
    t_high = decoherence.t2_confined(0.01, 3.0, 0.5e-4, LAM)
    assert t_high == pytest.approx(2.6034712e-6, rel=1e-6)
    assert t_high < t_low


def test_t2_requires_field():
    with pytest.raises(ValueError, match="magnetic field"):
        decoherence.t2_confined(0.01, 0.0, 0.5e-4, LAM)


def test_working_frequency_to_relaxation_ratio():
    from helioq.hydrogenic import rydberg_scales

    # Omega = e E_RF r_B / hbar at 1 V/cm, the drive scale the bound refers to
    _, bohr = rydberg_scales(LAM)
    omega = units.EV_ERG * 1.0 * bohr / units.HBAR
    assert omega == pytest.approx(1.1605258e9, rel=1e-6)
    t2 = decoherence.t2_confined(**OPERATING)
    assert omega * t2 > 1e5


def test_sideband_weight():
    g = decoherence.sideband_weight(0.01, 1.5, LAM)
    assert g == pytest.approx(4.0085177e-3, rel=1e-6)
    assert g < 0.01
    assert decoherence.sideband_weight(0.01, 1.5, LAM, coupling_const=0.0) == 0.0


def test_mobility_rate_inverts_to_effective_field():
    # rate 1e7 s^-1 corresponds to ~80 V/cm, at the low end of the
    # 1e2-1e3 V/cm effective-field scale
    from scipy.optimize import brentq

    field = brentq(lambda e: decoherence.mobility_rate(e) - 1e7, 1.0, 1e4)
    assert field == pytest.approx(77.9755675, rel=1e-6)
    assert 50 < field < 1000
    assert decoherence.mobility_rate(0.0) == 0.0
    assert decoherence.mobility_rate(3.0) == pytest.approx(
        9 * decoherence.mobility_rate(1.0), rel=1e-12
    )


def test_voltage_noise_chain():
    s_nu, t_phi = decoherence.voltage_noise_dephasing(1e-10, 1.0)
    assert s_nu == pytest.approx(100.0, rel=1e-12)
    assert t_phi == pytest.approx(1e-4, rel=1e-12)
    # noiseless line: unbounded dephasing time
    _, t_inf = decoherence.voltage_noise_dephasing(0.0, 1.0)
    assert math.isinf(t_inf)


def test_inplane_suppression():
    from helioq.medium import magnetic_length

    ell = magnetic_length(1.5)
    ratio = decoherence.inplane_suppression(ell, 0.5e-4)
    assert ratio == pytest.approx(3.5104638e-3, rel=1e-6)
    assert ratio < 2 * 3e-3  # the quoted bound, at its order
    assert decoherence.inplane_suppression(ell, 1.0e-4) == pytest.approx(
        ratio / 4, rel=1e-12
    )


def test_budget_harmonic_combination():
    bud = decoherence.budget(**OPERATING, noise_density=1e-10, tuning=1.0)
    assert bud.t2_eff_s == pytest.approx(4.9767455e-5, rel=1e-6)
    expect = 1.0 / (1.0 / bud.t2_s + 1.0 / bud.t_phi_v_s)
    assert bud.t2_eff_s == pytest.approx(expect, rel=1e-12)
    # noiseless line: single channel
    bud0 = decoherence.budget(**OPERATING)
    assert bud0.t2_eff_s == bud0.t2_s


def test_rates_monotone_in_temperature():
    temps = np.linspace(1e-3, 0.1, 9)
    r_t1 = [1 / decoherence.t1_free(t, LAM) for t in temps]
    r_t2 = [1 / decoherence.t2_confined(t, 1.5, 0.5e-4, LAM) for t in temps]
    g = [decoherence.sideband_weight(t, 1.5, LAM) for t in temps]
    assert np.all(np.diff(r_t1) > 0)
    assert np.all(np.diff(r_t2) > 0)
    assert np.all(np.diff(g) > 0)
    assert min(r_t1 + r_t2) > 0


def test_budget_roundtrip_exact():
    bud = decoherence.budget(**OPERATING, noise_density=1e-10, tuning=1.0,
                             mobility_field=80.0)
    # every field survives the artifact's JSON bit for bit
    assert json.loads(dump_json(bud.to_dict())) == dataclasses.asdict(bud)
    # an infinite dephasing time is written as null
    bud0 = decoherence.budget(**OPERATING)
    doc0 = json.loads(dump_json(bud0.to_dict()))
    assert doc0 == {**dataclasses.asdict(bud0), "t_phi_v_s": None}
