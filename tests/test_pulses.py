"""Tests for schedules and gate calibration."""
import json
import math
import sys

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
    # right-hand-side evaluation; past `build` none of it may compute Stark
    # eigenvectors (the propagator's own `eigh` of the plateau stays allowed)
    eigh = np.linalg.eigh

    def forbidden(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == hydrogenic.__name__:
            raise AssertionError("eigenvectors computed on the Stark hot path")
        return eigh(*args, **kwargs)

    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    ham = qubits.build(geom, voltages=np.array([0.0, 5e-5]))
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
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
        qubits.build(geom, voltages=np.array([0.0, 5e-5]))


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
    # the refinement's schedules and gives the dwell that re-solving it inside
    # each schedule gives; 0.3 pi is in reach of dwell/16 ramps
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
    # one read of its own and one in each schedule: the longest and its time reversal
    assert len(calls) == 3

    monkeypatch.setattr(pulses, "swap_schedule", swap_schedule)
    calls.clear()
    refined = pulses.calibrate_swap(ham, (0, 1), alpha, refine=True, rise=ramp, fall=ramp)
    assert calls == [(ham, 0, 1)]
    assert refined == re_solved


@pytest.fixture(scope="module")
def triangle():
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0), (0.5, math.sqrt(3) / 2)))
    return qubits.build(geom, voltages=np.array([0.0, 5e-5, 2e-4]))


def full_evolve_amplitudes(ham, dwell, rise, fall, v_peak):
    """(a_src, a_dst) of pair (0, 1) after one full `evolve` of the swap schedule."""
    sched = pulses.swap_schedule(ham, (0, 1), dwell, rise, fall, v_peak)
    start = dynamics.RegisterState.state_vector("u" + "d" * (ham.n_qubits - 1))
    spec = dynamics.EvolutionSpec(sample_times=np.array([sched.duration]))
    psi = dynamics.evolve(ham, sched, start, spec).final_state
    return psi[0b01], psi[0b10]


def brentq_over_full_evolves(ham, alpha, rise, fall):
    """The refinement's signed mismatch root-found with one full `evolve` per trial dwell."""
    from scipy.optimize import brentq

    dwell0 = pulses.calibrate_swap(ham, (0, 1), alpha)
    v_peak = pulses.resonance_voltage(ham, 0, 1)
    lo, hi = 0.25 * dwell0, dwell0 * (alpha + math.pi) / (2.0 * alpha)

    def phase(dwell):
        a_s, a_t = full_evolve_amplitudes(ham, dwell, rise, fall, v_peak)
        return abs(a_s), abs(a_t), np.conj(a_s) * 1j * a_t

    turn = np.exp(-1j * np.angle(phase(lo)[2]))

    def mismatch(dwell):
        a_s, a_t, z = phase(dwell)
        return math.sin(alpha) * math.copysign(a_s, (z * turn).real) - math.cos(alpha) * a_t

    return brentq(mismatch, lo, hi, xtol=1e-12 * dwell0)


@pytest.fixture
def integrator_runs(monkeypatch):
    """Counts of `dynamics.evolve` calls and `dynamics.solve_ivp` runs."""
    runs = {"evolve": 0, "solve_ivp": 0}
    for name in runs:
        def counted(*args, _name=name, _fn=getattr(dynamics, name), **kwargs):
            runs[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    return runs


@pytest.mark.parametrize("device, rise_over, fall_over", [
    *(("detuned", *ramps) for ramps in [
        (1 / 8, 1 / 32), (1 / 32, 1 / 4), (1 / 16, 1 / 16), (0.0, 1 / 8), (1 / 8, 0.0),
    ]),
    ("triangle", 1 / 8, 1 / 32), ("triangle", 0.0, 1 / 8),
])
def test_time_reversed_amplitudes_match_full_evolves(request, device, rise_over, fall_over):
    # the fall's rows come from the fall run backwards, <k| U_fall = (U_rev |k>)^T,
    # which holds for the real symmetric H(t) of a swap; the oracle propagates
    # every dwell's whole schedule forwards (measured worst case 2.5e-11, on
    # the triangle at (1/32, 1/4), left out: a 3-site ramp takes ~50x the
    # right-hand-side evaluations of a 2-site one)
    ham = request.getfixturevalue(device)
    dwell0 = pulses.calibrate_swap(ham, (0, 1), math.pi / 2)
    rise, fall = rise_over * dwell0, fall_over * dwell0
    v_peak = pulses.resonance_voltage(ham, 0, 1)
    longest = 1.5 * dwell0
    amplitudes = pulses._swap_amplitudes(ham, (0, 1), v_peak, longest, rise, fall)
    for dwell in np.array([0.25, 0.7, 1.1, 1.5]) * dwell0:
        got = amplitudes(dwell)
        want = full_evolve_amplitudes(ham, dwell, rise, fall, v_peak)
        assert abs(got[0]) > 0.1 or abs(got[1]) > 0.1
        assert np.abs(np.subtract(got, want)).max() < 1e-9, dwell / dwell0


@pytest.mark.parametrize("device", ["register", "detuned", "triangle"])
@pytest.mark.parametrize("alpha_over_pi", [0.1, 0.3, 0.4, 0.7])
def test_sudden_refine_is_the_brentq_over_full_evolves(request, device, alpha_over_pi):
    # with no ramps the plateau propagator is the one each full evolve builds,
    # applied to the same start state, so every mismatch agrees bit for bit
    ham = request.getfixturevalue(device)
    alpha = alpha_over_pi * math.pi
    refined = pulses.calibrate_swap(ham, (0, 1), alpha, refine=True)
    assert refined == brentq_over_full_evolves(ham, alpha, 0.0, 0.0)


@pytest.mark.parametrize("alpha_over_pi, rise_over, fall_over", [
    (0.3, 1 / 16, 1 / 16), (0.32, 1 / 8, 1 / 32), (0.3, 1 / 32, 1 / 4), (0.42, 0.0, 1 / 8),
    (0.42, 1 / 8, 0.0),
])
def test_ramped_refine_is_the_brentq_over_full_evolves(detuned, alpha_over_pi, rise_over, fall_over):
    # the time-reversed fall moves the mismatch in its last bits only
    # (measured: dwells within 5.8e-12 relative)
    alpha = alpha_over_pi * math.pi
    dwell0 = pulses.calibrate_swap(detuned, (0, 1), alpha)
    rise, fall = rise_over * dwell0, fall_over * dwell0
    refined = pulses.calibrate_swap(detuned, (0, 1), alpha, refine=True, rise=rise, fall=fall)
    assert refined == pytest.approx(brentq_over_full_evolves(detuned, alpha, rise, fall), rel=1e-11)


@pytest.mark.parametrize("device", ["register", "detuned", "triangle"])
def test_sudden_refine_runs_no_integrator(request, integrator_runs, device):
    ham = request.getfixturevalue(device)
    pulses.calibrate_swap(ham, (0, 1), 0.3 * math.pi, refine=True)
    assert integrator_runs == {"evolve": 0, "solve_ivp": 0}


@pytest.mark.parametrize("alpha_over_pi, rise_over, fall_over, runs", [
    (0.3, 1 / 16, 1 / 16, 2), (0.32, 1 / 8, 1 / 32, 3), (0.3, 1 / 32, 1 / 4, 3),
    (0.42, 0.0, 1 / 8, 2), (0.42, 1 / 8, 0.0, 1),
])
def test_ramped_refine_runs_each_ramp_once(detuned, integrator_runs, alpha_over_pi, rise_over,
                                          fall_over, runs):
    # the rise from the source state, and the fall backwards from the source
    # (unless it is the rise) and from the target
    alpha = alpha_over_pi * math.pi
    dwell0 = pulses.calibrate_swap(detuned, (0, 1), alpha)
    pulses.calibrate_swap(detuned, (0, 1), alpha, refine=True,
                          rise=rise_over * dwell0, fall=fall_over * dwell0)
    assert integrator_runs == {"evolve": runs, "solve_ivp": runs}


@pytest.mark.parametrize("alpha_over_pi, ramp_over, share", [
    (0.5, 1 / 16, 0.997547), (0.4, 1 / 4, 0.888866),
])
def test_out_of_reach_refine_raises_after_the_ramps_alone(detuned, integrator_runs, alpha_over_pi,
                                                          ramp_over, share):
    # the shares are those of the refinement over full evolves, which took
    # 39 and 56 evolves to raise here
    alpha = alpha_over_pi * math.pi
    ramp = ramp_over * pulses.calibrate_swap(detuned, (0, 1), alpha)
    with pytest.raises(RuntimeError) as info:
        pulses.calibrate_swap(detuned, (0, 1), alpha, refine=True, rise=ramp, fall=ramp)
    assert str(info.value) == (
        f"dwell refinement failed: alpha = {alpha}, rise = {ramp} s, fall = {ramp} s: "
        f"sin^2(alpha) = {math.sin(alpha) ** 2:.6g} is out of reach; the swap angle jumps "
        f"past it where the target holds {share} of the pair's population"
    )
    assert integrator_runs == {"evolve": 2, "solve_ivp": 2}


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
