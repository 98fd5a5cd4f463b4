"""Acceptance gate: every release criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to watch
them stream).  Criteria 1-12 are sub-second single-number regressions;
13-18 are oracle-equivalence and property suites.
"""
import math
from contextlib import contextmanager

import numpy as np
import pytest

from helioq import decoherence, dynamics, medium, pulses, qubits, readout, units
from helioq.dynamics import EvolutionSpec, RegisterState, TunnelingSpec, evolve
from helioq.hydrogenic import HydrogenicBasisSpec, levels, rydberg_scales, stark_rate

LAM = units.image_strength(1.057)
OPERATING = dict(temperature=0.01, b_field=1.5, pitch=0.5e-4, lam=LAM)
K_RAD = units.K_TO_RAD_PER_S


@contextmanager
def criterion(cid, description):
    try:
        yield
    except Exception:
        print(f"[acceptance] {cid} FAIL: {description}")
        raise
    print(f"[acceptance] {cid} PASS: {description}")


@pytest.fixture(scope="module")
def basis():
    return HydrogenicBasisSpec(lam=LAM)


@pytest.fixture(scope="module")
def ground_levels(basis):
    return levels(basis, 0.0)


@pytest.fixture(scope="module")
def zero_field_site(basis):
    """One site at zero pressing field: its dipoles are the unperturbed ones."""
    return qubits.build(qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0),)), basis=basis)


@pytest.fixture(scope="module")
def register_pair():
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    return qubits.build(geom)


def test_c01_rydberg_scales():
    with criterion("C01", "R in [7.2, 8.8] K, within 10% of 160 GHz; r_B within 2% of 76 A"):
        r, r_b = rydberg_scales(LAM)
        assert 7.2 <= r <= 8.8
        assert abs(r * units.K_TO_GHZ - 160.0) / 160.0 <= 0.10
        assert abs(r_b * 1e8 - 76.0) / 76.0 <= 0.02


def test_c02_stark_rates(basis):
    with criterion("C02", "Stark rates: m=1 within 10% of 0.28, m=2 within 10% of 1.10 GHz/(V/cm)"):
        r1, r2 = stark_rate(basis, 1), stark_rate(basis, 2)
        assert abs(r1 - 0.28) / 0.28 <= 0.10
        assert abs(r1 - 0.30) / 0.30 <= 0.10   # consistent with the rounded 0.3
        assert abs(r2 - 1.10) / 1.10 <= 0.10


def test_c03_dipole_heights(zero_field_site):
    with criterion("C03", "<1|z|1> = 11.4 nm +- 2%, <2|z|2> = 45.6 nm +- 2%"):
        z11_nm = zero_field_site.z11_cm[0] * 1e7
        z22_nm = zero_field_site.z22_cm[0] * 1e7
        assert abs(z11_nm - 11.4) / 11.4 <= 0.02
        assert abs(z22_nm - 45.6) / 45.6 <= 0.02


def test_c04_thermal_amplitude():
    with criterion("C04", "delta_T(10 mK) within 10% of 1.93e-9 cm"):
        val = medium.thermal_amplitude(0.01)
        assert abs(val - 1.93e-9) / 1.93e-9 <= 0.10


def test_c05_plasma_parameter():
    with criterion("C05", "Gamma(4.5e8 cm^-2, 0.457 K) = 137 +- 3"):
        gamma = medium.plasma_parameter(medium.ElectronSheet(4.5e8), 0.457)
        assert abs(gamma - 137.0) <= 3.0


def test_c06_magnetic_scales():
    with criterion("C06", "omega_c = 2 K +-5%, l = 210 A +-2%, omega_ZB = 0.4 K +-20%, ripplon at 1/l = 4e-3 K +-20%"):
        scales = medium.magnetic_quantities(1.5, 0.5e-4)
        assert abs(scales.omega_c_K - 2.0) / 2.0 <= 0.05
        assert abs(scales.length_cm * 1e8 - 210.0) / 210.0 <= 0.02
        assert abs(scales.omega_zb_K - 0.4) / 0.4 <= 0.20
        omega_l = medium.ripplon_energy_K(1.0 / scales.length_cm)
        assert abs(omega_l - 4e-3) / 4e-3 <= 0.20


def test_c07_confinement_scale():
    with criterion("C07", "in-plane confinement 0.3 K +- 20% at 0.5 um pitch"):
        geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0),))
        assert abs(qubits.confinement_scale(geom) - 0.3) / 0.3 <= 0.20


def test_c08_rabi_frequency(zero_field_site):
    with criterion("C08", "Rabi frequency at 1 V/cm within factor 2 of 1e9 s^-1"):
        omega = pulses.rabi_frequency(1.0, zero_field_site.z12_cm[0])
        assert 0.5e9 <= omega <= 2e9


def test_c09_exchange_rate(register_pair):
    with criterion("C09", "exchange (swap) rate at 0.5 um within factor 2 of 3e8 s^-1"):
        rate = register_pair.b_K[0, 1] * units.K_B / (2 * units.HBAR)
        assert 1.5e8 <= rate <= 6e8


def test_c10_confined_dephasing_time():
    with criterion("C10", "T2 within factor 3 of 1e-4 s and Omega*T2 > 1e5"):
        t2 = decoherence.t2_confined(**OPERATING)
        assert 1e-4 / 3 <= t2 <= 3e-4
        # Omega is the e E_RF r_B / hbar drive scale at 1 V/cm
        _, r_b = rydberg_scales(LAM)
        omega = units.EV_ERG * 1.0 * r_b / units.HBAR
        assert omega * t2 > 1e5


def test_c11_sideband_weight():
    with criterion("C11", "sideband weight G < 0.01 (computed ~4e-3)"):
        g = decoherence.sideband_weight(0.01, 1.5, LAM)
        assert g < 0.01
        assert g == pytest.approx(4.0085e-3, rel=1e-3)


def test_c12_voltage_noise_chain():
    with criterion("C12", "S_V = 1e-10 V/rtHz at 1 GHz/mV -> S_nu = 100 Hz/rtHz, T_phi = 1e-4 s"):
        s_nu, t_phi = decoherence.voltage_noise_dephasing(1e-10, 1.0)
        assert s_nu == pytest.approx(100.0, rel=1e-12)
        assert t_phi == pytest.approx(1e-4, rel=1e-12)


def _drive(duration, freq_GHz, omega_rad, coeff, envelope=()):
    return pulses.PulseSchedule(
        duration=duration,
        microwave=(pulses.MicrowaveChannel(freq_GHz, omega_rad / coeff, 0.0, envelope),),
    )


def test_c13_rabi_oracle_equivalence():
    with criterion("C13", "pi-pulse error < 1e-6; detuned peak = Omega^2/(Omega^2+Delta^2) to 1e-6"):
        ham = qubits.QubitArrayHamiltonian.from_parameters(
            eps_K=[10.0 / units.K_TO_GHZ], drive_coeff=1e9
        )
        omega = 1e9
        t_pi = math.pi / omega
        res = evolve(
            ham, _drive(t_pi, 10.0, omega, ham.drive_coeff),
            RegisterState.state_vector("d"),
            EvolutionSpec(sample_times=np.array([t_pi])),
        )
        assert abs(res.population("u")[-1] - 1.0) < 1e-6
        for ratio in (0.5, 1.0, 2.0, 5.0):
            delta = ratio * omega
            carrier = 10.0 - delta / (2 * math.pi * 1e9)
            gen = math.hypot(omega, delta)
            t_peak = math.pi / gen
            res = evolve(
                ham, _drive(t_peak, carrier, omega, ham.drive_coeff),
                RegisterState.state_vector("d"),
                EvolutionSpec(sample_times=np.array([t_peak])),
            )
            assert abs(res.population("u")[-1] - omega**2 / gen**2) < 1e-6


def test_c14_exchange_oracle_equivalence():
    with criterion("C14", "exchange trajectory matches 2x2 oracle to 1e-6 at 100 points; 10B detuning caps transfer at 0.04"):
        b_K = 4.87e-3
        b = np.array([[0.0, b_K], [b_K, 0.0]])
        ham = qubits.QubitArrayHamiltonian.from_parameters(eps_K=[1.0, 1.0], b_K=b)
        b_rad = b_K * K_RAD
        times = np.linspace(0.0, 3 * math.pi / b_rad, 100)
        res = evolve(
            ham, pulses.PulseSchedule(duration=times[-1]),
            RegisterState.state_vector("ud"),
            EvolutionSpec(sample_times=times),
        )
        expect = np.sin(0.5 * b_rad * times) ** 2
        assert np.abs(res.population("du") - expect).max() < 1e-6

        ham_det = qubits.QubitArrayHamiltonian.from_parameters(
            eps_K=[1.0, 1.0 + 10 * b_K], b_K=b
        )
        gen = math.hypot(b_rad, 10 * b_rad)
        times = np.linspace(0.0, 4 * math.pi / gen, 161)
        res = evolve(
            ham_det, pulses.PulseSchedule(duration=times[-1]),
            RegisterState.state_vector("ud"),
            EvolutionSpec(sample_times=times),
        )
        assert res.population("du").max() <= 0.04


def test_c15_tunneling_trace_decay():
    with criterion("C15", "readout trace decay exp(-t/t_up) to 1e-8 (excited), constant to 1e-10 (ground)"):
        ham = qubits.QubitArrayHamiltonian.from_parameters(eps_K=[5.68], drive_coeff=0.0)
        t_up = 2e-7
        times = np.linspace(0.0, 1e-6, 21)
        hold = pulses.PulseSchedule(duration=1e-6)
        spec = EvolutionSpec(sample_times=times, tunneling=TunnelingSpec(0.0, t_up))
        res_u = evolve(ham, hold, RegisterState.density_matrix("u"), spec)
        assert np.abs(res_u.trace - np.exp(-times / t_up)).max() < 1e-8
        res_d = evolve(ham, hold, RegisterState.density_matrix("d"), spec)
        assert np.abs(res_d.trace - 1.0).max() < 1e-10


def test_c16_norm_and_positivity():
    with criterion("C16", "norm drift < 1e-8 over 1e4 Rabi periods; density-matrix eigenvalue floor > -1e-8"):
        ham = qubits.QubitArrayHamiltonian.from_parameters(
            eps_K=[10.0 / units.K_TO_GHZ], drive_coeff=1e9
        )
        omega = 1e9
        t_end = 1e4 * 2 * math.pi / omega
        times = np.linspace(0.0, t_end, 101)
        res = evolve(
            ham, _drive(t_end, 10.0, omega, ham.drive_coeff),
            RegisterState.state_vector("d"),
            EvolutionSpec(sample_times=times),
        )
        assert np.abs(np.sqrt(res.trace) - 1.0).max() < 1e-8

        budget = decoherence.budget(**OPERATING, noise_density=1e-10, tuning=1.0)
        t_dm = 8 * math.pi / 3e8
        env = ((0.0, 0.0), (t_dm / 2, 1.0), (t_dm, 0.0))
        res_dm = evolve(
            ham, _drive(t_dm, 10.0, 3e8, ham.drive_coeff, env),
            RegisterState.density_matrix("d"),
            EvolutionSpec(sample_times=np.linspace(0.0, t_dm, 17), budget=budget),
        )
        floor = min(np.linalg.eigvalsh(s).min() for s in res_dm.states)
        assert floor > -1e-8


def test_c17_readout_window_and_shots(ground_levels):
    with criterion("C17", "selectivity window t_2 <= 1 us, t_1/t_2 >= 1e6; shots within 3 sigma; seeded reruns identical"):
        wait = 1e-6
        plan = readout.plan(LAM, ground_levels, wait, 1e6)
        assert plan.t_2 <= 1e-6
        assert plan.t_1 / plan.t_2 >= 1e6
        # independent view of the same window: the bound-state WKB oracle
        # (tanh-sinh) confirms both rates at the planned field
        import mpmath as mp

        for m, t_m in ((2, plan.t_2),):
            energy = ground_levels[m - 1] * units.K_B
            force = units.EV_ERG * plan.e_plus
            disc = energy**2 - 4 * LAM * units.E_SQ * force
            z1 = (-energy - math.sqrt(disc)) / (2 * force)
            z2 = (-energy + math.sqrt(disc)) / (2 * force)
            with mp.workdps(30):
                integral = mp.quad(
                    lambda z: mp.sqrt(2 * units.M_E * force * (z - z1) * (z2 - z) / z),
                    [z1, z2],
                )
            rate = abs(energy) / units.HBAR * math.exp(-2 * float(integral) / units.HBAR)
            assert 1.0 / rate == pytest.approx(t_m, rel=1e-6)

        survival = math.exp(-wait / plan.t_2)
        shots = 10_000
        escaped, image = readout.sample_shots([survival], plan, shots, seed=21)
        tunneled = escaped[:, 0].sum()
        sigma = math.sqrt(shots * survival * (1 - survival))
        assert abs(tunneled - shots * (1 - survival)) <= 3 * sigma
        again, image2 = readout.sample_shots([survival], plan, shots, seed=21)
        assert np.array_equal(escaped, again)
        assert image == image2


def test_c18_rwa_validated_against_lab_frame():
    with criterion("C18", "lab vs rotating frame populations agree to 1e-3 at Omega = 1e-3 carrier"):
        ham = qubits.QubitArrayHamiltonian.from_parameters(
            eps_K=[1.0 / units.K_TO_GHZ], drive_coeff=1e9
        )
        omega_carrier = ham.eps_K[0] * K_RAD
        omega = 1e-3 * omega_carrier
        t_pi = math.pi / omega
        times = np.linspace(0.0, t_pi, 9)
        sched = _drive(t_pi, 1.0, omega, ham.drive_coeff)
        pops = {}
        for frame in ("rwa", "lab"):
            res = evolve(
                ham, sched, RegisterState.state_vector("d"),
                EvolutionSpec(sample_times=times, frame=frame, rtol=1e-6),
            )
            pops[frame] = res.population("u")
        assert np.abs(pops["rwa"] - pops["lab"]).max() < 1e-3
