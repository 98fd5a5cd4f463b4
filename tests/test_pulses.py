"""Tests for schedules and gate calibration."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helioq import dynamics, hydrogenic, pulses, qubits, units
from helioq.cli import dump_json

B_PAIR = 4.869674443045692e-3  # K, exchange coupling at 0.5 um, zero field


@pytest.fixture(scope="module")
def register():
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    return qubits.build(geom)


def test_rabi_frequency_scale():
    z12 = 0.5587016542708524 * 7.638719453281663e-7  # cm
    omega = pulses.rabi_frequency(1.0, z12)
    assert omega == pytest.approx(6.4838767e8, rel=1e-6)
    assert 5e8 < omega < 2e9
    assert pulses.rabi_frequency(0.0, z12) == 0.0
    assert pulses.rabi_frequency(2.0, z12) == pytest.approx(2 * omega, rel=1e-12)


def test_pi_pulse_durations():
    assert pulses.pi_pulse(1e9) == pytest.approx(math.pi * 1e-9, rel=1e-12)
    assert pulses.pi_pulse(1e9, "pi/2") == pytest.approx(
        pulses.pi_pulse(1e9) / 2, rel=1e-12
    )
    with pytest.raises(ValueError):
        pulses.pi_pulse(0.0)
    with pytest.raises(ValueError):
        pulses.pi_pulse(1e9, "pi/3")


def test_triangular_ramp_shape():
    sched = pulses.triangular_ramp(0, 2e-3, rise=1e-9, dwell=0.0, fall=1e-9)
    assert sched.duration == pytest.approx(2e-9, rel=1e-12)
    assert sched.voltage_at(0, 0.5e-9) == pytest.approx(1e-3, rel=1e-12)
    assert sched.voltage_at(0, 1e-9) == pytest.approx(2e-3, rel=1e-12)
    assert sched.voltage_at(0, 2e-9) == pytest.approx(0.0, abs=1e-18)
    # zero peak is identically zero
    flat = pulses.triangular_ramp(0, 0.0, 1e-9, 1e-9, 1e-9)
    for t in np.linspace(0, flat.duration, 7):
        assert flat.voltage_at(0, t) == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError, match="sorted"):
        pulses.PulseSchedule(
            duration=1.0,
            voltage_channels=(pulses.VoltageChannel(0, ((0.5, 1.0), (0.2, 0.0))),),
        )
    with pytest.raises(ValueError, match="within"):
        pulses.PulseSchedule(
            duration=1.0,
            voltage_channels=(pulses.VoltageChannel(0, ((0.0, 1.0), (2.0, 0.0))),),
        )
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        pulses.PulseSchedule(
            duration=1.0,
            microwave=(pulses.MicrowaveChannel(1.0, 1.0, 0.0, ((0.0, 1.5),)),),
        )


def test_hold_outside_span():
    sched = pulses.PulseSchedule(
        duration=10.0,
        voltage_channels=(pulses.VoltageChannel(0, ((2.0, 1.0), (4.0, 3.0))),),
    )
    assert sched.voltage_at(0, 0.0) == 1.0   # first value held before
    assert sched.voltage_at(0, 9.0) == 3.0   # last value held after
    assert sched.voltage_at(0, 3.0) == pytest.approx(2.0, rel=1e-12)


def test_breakpoint_reads_equal_np_interp_bit_for_bit():
    # random breakpoints with jumps (repeated times), probed inside, outside,
    # at every breakpoint and one ulp either side of it
    rng = np.random.default_rng(20261019)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        times = np.sort(rng.uniform(0.0, 1e-8, n))
        for i in range(1, n):
            if rng.random() < 0.3:
                times[i] = times[i - 1]
        volts, levels = rng.uniform(-1e-2, 1e-2, n), rng.uniform(0.0, 1.0, n)
        channel = pulses.VoltageChannel(0, tuple(zip(times.tolist(), volts.tolist())))
        drive = pulses.MicrowaveChannel(1.0, 1.0, 0.0, tuple(zip(times.tolist(), levels.tolist())))
        probes = np.concatenate([
            rng.uniform(-2e-9, 1.2e-8, 64), times,
            np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
        ])
        for t in probes.tolist():
            assert channel.value_at(t) == float(np.interp(t, times, volts))
            assert drive.envelope_at(t) == float(np.interp(t, times, levels))
    assert pulses.VoltageChannel(0, ()).value_at(1e-9) == 0.0
    assert pulses.MicrowaveChannel(1.0, 1.0).envelope_at(1e-9) == 1.0


@st.composite
def schedule_blocks(draw):
    """A `schedule` config block of up to two voltage and two microwave channels
    on [0, duration], optional keys drawn present or absent, and its schedule."""
    duration = draw(st.floats(1e-10, 1e-7))

    def points(values):
        fracs = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=4)))
        return [[f * duration, draw(values)] for f in fracs]

    def microwave_channel():
        channel = {"freq_GHz": draw(st.floats(1.0, 200.0)),
                   "amp_V_per_cm": draw(st.floats(0.0, 2.0))}
        if draw(st.booleans()):
            channel["phase"] = draw(st.floats(-math.pi, math.pi))
        if draw(st.booleans()):
            channel["envelope"] = points(st.floats(0.0, 1.0))
        return channel

    voltages = [
        {"site": draw(st.integers(0, 2)), "points": points(st.floats(-1e-2, 1e-2))}
        for _ in range(draw(st.integers(0, 2)))
    ]
    microwave = [microwave_channel() for _ in range(draw(st.integers(0, 2)))]
    block = {"duration_s": duration}
    for key, channels in (("voltage_channels", voltages), ("microwave", microwave)):
        if channels or draw(st.booleans()):
            block[key] = channels
    sched = pulses.PulseSchedule(
        duration,
        tuple(pulses.VoltageChannel(c["site"], tuple(map(tuple, c["points"])))
              for c in voltages),
        tuple(pulses.MicrowaveChannel(c["freq_GHz"], c["amp_V_per_cm"], c.get("phase", 0.0),
                                      tuple(map(tuple, c.get("envelope", []))))
              for c in microwave),
    )
    return block, sched


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=schedule_blocks())
def test_schedule_from_dict_property(case):
    block, sched = case
    assert pulses.PulseSchedule.from_dict(block) == sched


def test_schedule_from_json_bit_exact():
    sched = pulses.PulseSchedule(
        duration=7.25e-9,
        voltage_channels=(
            pulses.VoltageChannel(0, ((0.0, 0.0), (1.3e-9, 2.0e-3), (7.25e-9, 0.0))),
        ),
        microwave=(
            pulses.MicrowaveChannel(
                118.412, 1.0, 0.25, ((0.0, 0.0), (1e-9, 1.0), (7.25e-9, 0.0))
            ),
        ),
    )
    block = {
        "duration_s": 7.25e-9,
        "voltage_channels": [
            {"site": 0, "points": [[0.0, 0.0], [1.3e-9, 2.0e-3], [7.25e-9, 0.0]]},
        ],
        "microwave": [
            {"freq_GHz": 118.412, "amp_V_per_cm": 1.0, "phase": 0.25,
             "envelope": [[0.0, 0.0], [1e-9, 1.0], [7.25e-9, 0.0]]},
        ],
    }
    back = pulses.PulseSchedule.from_dict(json.loads(dump_json(block)))
    assert back.duration == sched.duration
    assert back.voltage_channels == sched.voltage_channels
    assert back.microwave == sched.microwave


def test_calibrate_swap_dwell(register):
    dwell = pulses.calibrate_swap(register, (0, 1), math.pi / 2)
    expect = 2 * units.HBAR * (math.pi / 2) / (B_PAIR * units.K_B)
    assert dwell == pytest.approx(expect, rel=1e-9)
    assert dwell == pytest.approx(4.9276837e-9, rel=1e-6)
    assert pulses.calibrate_swap(register, (0, 1), 0.0) == 0.0
    # linear in the rotation angle
    assert pulses.calibrate_swap(register, (0, 1), math.pi / 4) == pytest.approx(
        dwell / 2, rel=1e-12
    )


def test_calibrate_swap_uncoupled_pair():
    ham = qubits.QubitArrayHamiltonian.from_parameters(eps_K=[1.0, 1.0])
    with pytest.raises(ValueError, match="uncoupled"):
        pulses.calibrate_swap(ham, (0, 1), math.pi / 2)


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 2])
def test_calibrated_swap_reaches_target_amplitudes(register, alpha):
    dwell = pulses.calibrate_swap(register, (0, 1), alpha)
    sched = pulses.swap_schedule(register, (0, 1), dwell)
    res = dynamics.evolve(
        register,
        sched,
        dynamics.RegisterState.state_vector("ud"),
        dynamics.EvolutionSpec(sample_times=np.array([dwell])),
    )
    final = res.final_state
    amp_src = final[dynamics.basis_index("ud")]
    amp_dst = final[dynamics.basis_index("du")]
    assert abs(amp_src) == pytest.approx(abs(math.cos(alpha)), abs=1e-6)
    assert abs(amp_dst) == pytest.approx(abs(math.sin(alpha)), abs=1e-6)


def test_refine_matches_analytic_for_instant_ramps(register):
    alpha = math.pi / 3
    plain = pulses.calibrate_swap(register, (0, 1), alpha)
    refined = pulses.calibrate_swap(register, (0, 1), alpha, refine=True)
    assert refined == pytest.approx(plain, rel=1e-5)


@pytest.mark.parametrize("alpha_over_pi", [0.42, 0.45, 0.455, 0.475, 0.49, 0.497])
def test_refine_avoids_mirror_root(register, alpha_over_pi):
    # past 0.4 pi the search window also holds 2 hbar (pi - alpha) / B, which
    # reaches the same populations; the refine must still return 2 hbar alpha / B
    alpha = alpha_over_pi * math.pi
    plain = pulses.calibrate_swap(register, (0, 1), alpha)
    refined = pulses.calibrate_swap(register, (0, 1), alpha, refine=True)
    assert refined == pytest.approx(plain, rel=1e-5)


@pytest.mark.parametrize("alpha_over_pi", [0.1, 0.25, 0.42, 0.4537, 0.49, 0.5, 0.6, 0.7])
def test_sudden_refine_is_the_analytic_dwell(register, alpha_over_pi):
    # a sudden swap rotates by theta = B t / (2 hbar) exactly, so the root of
    # the signed mismatch is 2 hbar alpha / B to rounding, pi / 2 included
    alpha = alpha_over_pi * math.pi
    plain = pulses.calibrate_swap(register, (0, 1), alpha)
    refined = pulses.calibrate_swap(register, (0, 1), alpha, refine=True)
    assert refined == pytest.approx(plain, rel=1e-12, abs=0)


def test_sudden_refine_never_returns_the_mirror_root(register):
    # 2 hbar (pi - alpha) / B reaches the same populations with the wrong
    # relative phase; over [0.4 pi, 0.5 pi] it lies inside the bracket
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(0.4 * math.pi, 0.5 * math.pi, 100):
        plain = pulses.calibrate_swap(register, (0, 1), alpha)
        refined = pulses.calibrate_swap(register, (0, 1), alpha, refine=True)
        assert refined == pytest.approx(plain, rel=1e-12, abs=0), alpha


@pytest.fixture(scope="module")
def detuned():
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    return qubits.build(geom, voltages=np.array([0.0, 5e-5]))


def swapped_population(ham, dwell, rise, fall):
    sched = pulses.swap_schedule(ham, (0, 1), dwell, rise, fall)
    res = dynamics.evolve(
        ham,
        sched,
        dynamics.RegisterState.state_vector("ud"),
        dynamics.EvolutionSpec(sample_times=np.array([sched.duration])),
    )
    return res.population("du")[-1]


@pytest.mark.parametrize("alpha_over_pi, ramp_fraction", [(0.32, 1 / 4), (0.42, 1 / 8)])
def test_ramped_refine_returns_the_first_root(detuned, alpha_over_pi, ramp_fraction):
    # the ramps swap part of the population, so the target is reached before
    # the sudden dwell; a later root that reaches it again on the way back
    # is not the gate
    alpha = alpha_over_pi * math.pi
    target = math.sin(alpha) ** 2
    dwell0 = pulses.calibrate_swap(detuned, (0, 1), alpha)
    ramp = ramp_fraction * dwell0
    refined = pulses.calibrate_swap(detuned, (0, 1), alpha, refine=True, rise=ramp, fall=ramp)
    assert refined < dwell0
    assert swapped_population(detuned, refined, ramp, ramp) == pytest.approx(target, abs=1e-9)
    for dwell in np.linspace(dwell0 / 4, refined, 50, endpoint=False):
        assert swapped_population(detuned, dwell, ramp, ramp) < target, dwell / dwell0


def test_refine_without_a_crossing_names_the_bracket(detuned):
    alpha = 0.9 * math.pi
    dwell0 = pulses.calibrate_swap(detuned, (0, 1), alpha)
    ramp = dwell0 / 8
    with pytest.raises(RuntimeError, match="dwell refinement failed") as info:
        pulses.calibrate_swap(detuned, (0, 1), alpha, refine=True, rise=ramp, fall=ramp)
    message = str(info.value)
    lo, hi = dwell0 / 4, dwell0 * (alpha + math.pi) / (2 * alpha)
    for value in (alpha, ramp, lo, hi):
        assert repr(float(value)) in message


def test_refine_reaches_alpha_while_a_third_site_takes_population():
    # a third site one pitch from both ends of the pair draws population out
    # of it, so |a_t|^2 falls short of sin^2(alpha) at the true root; the
    # reach check reads the target's share of the pair, which a root fixes
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0), (0.5, math.sqrt(3) / 2)))
    ham = qubits.build(geom, voltages=np.array([0.0, 5e-5, 2e-4]))
    alpha = 0.3 * math.pi
    dwell = pulses.calibrate_swap(ham, (0, 1), alpha, refine=True)
    sched = pulses.swap_schedule(ham, (0, 1), dwell)
    res = dynamics.evolve(
        ham,
        sched,
        dynamics.RegisterState.state_vector("udd"),
        dynamics.EvolutionSpec(sample_times=np.array([sched.duration])),
    )
    source, target = res.population("udd")[-1], res.population("dud")[-1]
    assert target / (source + target) == pytest.approx(math.sin(alpha) ** 2, abs=1e-12)
    assert math.sin(alpha) ** 2 - target > 1e-4


@pytest.mark.parametrize("alpha", [math.pi, 1.5 * math.pi])
def test_refine_past_a_half_turn_is_a_domain_error(register, alpha):
    with pytest.raises(ValueError, match=r"0 < alpha < pi"):
        pulses.calibrate_swap(register, (0, 1), alpha, refine=True)


def test_stark_hot_path_never_samples_wavefunctions(monkeypatch):
    # a ramped swap retunes site 0 through the Stark map on every
    # right-hand-side evaluation; past `build` none of it may run the full
    # solve, which computes the eigenvectors
    def forbidden(*args, **kwargs):
        raise AssertionError("eigenvectors computed on the Stark hot path")

    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    ham = qubits.build(geom, voltages=np.array([0.0, 5e-5]))
    monkeypatch.setattr(hydrogenic, "solve", forbidden)
    monkeypatch.setattr(qubits, "solve", forbidden)
    v_peak = pulses.resonance_voltage(ham, 0, 1)
    dwell = pulses.calibrate_swap(ham, (0, 1), math.pi / 2)
    sched = pulses.swap_schedule(ham, (0, 1), dwell, rise=dwell / 8, fall=dwell / 8)
    res = dynamics.evolve(
        ham,
        sched,
        dynamics.RegisterState.state_vector("ud"),
        dynamics.EvolutionSpec(sample_times=np.array([sched.duration])),
    )
    assert v_peak != 0.0
    assert res.population("du")[-1] > 0.5
    with pytest.raises(AssertionError, match="hot path"):
        hydrogenic.solve(ham.stark_map.basis, 0.0)


def test_ramped_swap_infidelity_grows_with_ramp_time():
    # a detuned pair ramped to resonance: the slower the ramp, the more the
    # exchange runs outside resonance, so the end-state error grows
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    ham = qubits.build(geom, voltages=np.array([0.0, 5e-5]))
    alpha = math.pi / 2
    dwell = pulses.calibrate_swap(ham, (0, 1), alpha)
    errors = []
    # the monotone regime reaches about a quarter dwell; past that the
    # off-resonant rotations picked up on the ramps interfere and the error
    # oscillates (measured: 0.21 at dwell/4 vs 0.21 at dwell/2)
    for ramp in (0.0, dwell / 64, dwell / 32, dwell / 16, dwell / 8, dwell / 4):
        sched = pulses.swap_schedule(ham, (0, 1), dwell, rise=ramp, fall=ramp)
        res = dynamics.evolve(
            ham,
            sched,
            dynamics.RegisterState.state_vector("ud"),
            dynamics.EvolutionSpec(sample_times=np.array([sched.duration])),
        )
        errors.append(1.0 - res.population("du")[-1])
    assert errors[0] < 1e-6
    assert all(b > a for a, b in zip(errors, errors[1:]))


def test_swap_schedule_without_device_map():
    ham = qubits.QubitArrayHamiltonian.from_parameters(
        eps_K=[1.0, 1.001], b_K=np.array([[0.0, 1e-4], [1e-4, 0.0]])
    )
    with pytest.raises(ValueError, match="Stark map"):
        pulses.swap_schedule(ham, (0, 1), 1e-9)
    # explicit peak voltage bypasses the device map
    sched = pulses.swap_schedule(ham, (0, 1), 1e-9, v_peak=0.0)
    assert sched.duration == pytest.approx(1e-9, rel=1e-12)


def test_refine_solves_the_resonance_once(monkeypatch):
    # the resonance voltage does not depend on the dwell, so one solve serves
    # every evaluation of the refinement and gives the dwell that re-solving
    # it inside each schedule gives; 0.3 pi is in reach of dwell/16 ramps
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    ham = qubits.build(geom, voltages=np.array([0.0, 5e-5]))
    alpha = 0.3 * math.pi
    ramp = pulses.calibrate_swap(ham, (0, 1), alpha) / 16
    swap_schedule = pulses.swap_schedule
    resonance_voltage = pulses.resonance_voltage
    calls = []

    def counted(*args):
        calls.append(args)
        return resonance_voltage(*args)

    def per_schedule(hamiltonian, pair, dwell, rise, fall, v_peak):
        return swap_schedule(hamiltonian, pair, dwell, rise, fall)

    monkeypatch.setattr(pulses, "resonance_voltage", counted)
    monkeypatch.setattr(pulses, "swap_schedule", per_schedule)
    re_solved = pulses.calibrate_swap(ham, (0, 1), alpha, refine=True, rise=ramp, fall=ramp)
    assert len(calls) > 5

    monkeypatch.setattr(pulses, "swap_schedule", swap_schedule)
    calls.clear()
    refined = pulses.calibrate_swap(ham, (0, 1), alpha, refine=True, rise=ramp, fall=ramp)
    assert calls == [(ham, 0, 1)]
    assert refined == re_solved


@pytest.mark.parametrize("volts", [(0.0, 5e-5), (5e-5, 0.0), (0.0, -5e-5), (-5e-5, 0.0)])
def test_resonance_voltage_searches_the_target_side_only(monkeypatch, volts):
    # the transition rises with field, so the root lies on one side of the
    # site's own field; no probe may cross to the other side
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    ham = qubits.build(geom, voltages=np.array(volts))
    base = qubits.site_field(geom, volts[0])
    side = np.sign(qubits.site_field(geom, volts[1]) - base)
    probes = []
    exact = ham.stark_map.exact

    def recorded(e_field):
        probes.append(e_field)
        return exact(e_field)

    monkeypatch.setattr(ham.stark_map, "exact", recorded)
    dv = pulses.resonance_voltage(ham, 0, 1)
    assert not probes  # the resonance is read off the voltages, not the map
    assert np.sign(dv) == side
    assert ham.stark_tuning(0)(dv) == pytest.approx(ham.eps_K[1], rel=1e-12)
    assert probes and all(side * (f - base) >= 0 for f in probes)


def test_resonance_beyond_the_electrode_swing():
    # at c_geom = 1e-3 the 2 V offset puts site 1 at 40 V/cm, which site 0
    # would need 2 V of swing to reach
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)), c_geom=1e-3)
    ham = qubits.build(geom, voltages=np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="no resonance within 1 V of electrode swing"):
        pulses.resonance_voltage(ham, 0, 1)


def bracketed_resonance(ham, n, m):
    """Independent oracle: the root of site n's Stark tuning at site m's
    transition, by a doubling bracket on the target's side and brentq."""
    from scipy.optimize import brentq

    tuning = ham.stark_tuning(n)

    def gap(dv):
        return tuning(dv) - ham.eps_K[m]

    side = 1.0 if gap(0.0) < 0 else -1.0
    dv = 1e-6
    while side * gap(side * dv) < 0:
        dv *= 2.0
        assert dv < 4.0, "no bracket within 4 V"
    return brentq(gap, 0.0, side * dv, xtol=1e-15)


@pytest.mark.parametrize("volts", [
    (0.0, 5e-5), (5e-5, 0.0), (0.0, -5e-5), (-5e-5, 0.0), (-3e-5, 2e-5),
    (2e-5, -3e-5), (1e-4, 3e-4), (-6e-5, -2e-5),
])
def test_resonance_voltage_matches_the_bracketed_root(volts):
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    ham = qubits.build(geom, voltages=np.array(volts))
    dv = pulses.resonance_voltage(ham, 0, 1)
    assert dv == pytest.approx(bracketed_resonance(ham, 0, 1), rel=0, abs=1e-15 + 1e-12 * abs(dv))


@pytest.mark.parametrize("v_partner", [0.6, 0.9])
def test_resonance_within_the_electrode_swing_past_half_a_volt(v_partner):
    # at c_geom = 1e-3 site 1 sits 12 or 18 V/cm above site 0; the resonance
    # needs that much of site 0's 1 V swing
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)), c_geom=1e-3)
    ham = qubits.build(geom, voltages=np.array([0.0, v_partner]))
    dv = pulses.resonance_voltage(ham, 0, 1)
    assert dv == v_partner
    assert dv == pytest.approx(bracketed_resonance(ham, 0, 1), rel=0, abs=1e-15 + 1e-12 * dv)
