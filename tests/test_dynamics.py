"""Tests for the register evolution engine.

The oracles: the closed-form resonant/detuned Rabi solution, the analytic
two-level exchange (flip-flop) solution, scalar decay for the tunneling
anti-commutator, and exact coherence decay for the dephasing channel.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helioq import decoherence, dynamics, pulses, qubits, units
from helioq.dynamics import EvolutionSpec, RegisterState, TunnelingSpec, evolve

K_RAD = units.K_TO_RAD_PER_S


def drive_schedule(duration, freq_GHz, omega_rad, drive_coeff, phase=0.0, envelope=()):
    """Microwave schedule producing Rabi frequency omega_rad at full envelope."""
    amp = omega_rad / drive_coeff
    return pulses.PulseSchedule(
        duration=duration,
        microwave=(pulses.MicrowaveChannel(freq_GHz, amp, phase, envelope),),
    )


def single_qubit(freq_GHz=10.0, drive_coeff=1e9):
    eps_K = freq_GHz / units.K_TO_GHZ
    return qubits.QubitArrayHamiltonian.from_parameters(
        eps_K=[eps_K], drive_coeff=drive_coeff
    )


def exchange_pair(b_K=4.87e-3, detune_K=0.0):
    eps = [1.0, 1.0 + detune_K]
    b = np.array([[0.0, b_K], [b_K, 0.0]])
    return qubits.QubitArrayHamiltonian.from_parameters(eps_K=eps, b_K=b)


def test_resonant_pi_pulse_inverts():
    ham = single_qubit()
    omega = 1e9  # rad/s
    t_pi = math.pi / omega
    sched = drive_schedule(t_pi, 10.0, omega, ham.drive_coeff)
    res = evolve(
        ham, sched, RegisterState.state_vector("d"),
        EvolutionSpec(sample_times=np.array([t_pi])),
    )
    assert abs(res.population("u")[-1] - 1.0) < 1e-6


def test_rabi_oscillation_trajectory():
    ham = single_qubit()
    omega = 5e8
    t_end = 4 * math.pi / omega
    sched = drive_schedule(t_end, 10.0, omega, ham.drive_coeff)
    times = np.linspace(0.0, t_end, 41)
    res = evolve(
        ham, sched, RegisterState.state_vector("d"),
        EvolutionSpec(sample_times=times),
    )
    expect = np.sin(0.5 * omega * times) ** 2
    assert np.abs(res.population("u") - expect).max() < 1e-6


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 5.0])
def test_detuned_rabi_peak(ratio):
    ham = single_qubit()
    omega = 4e8
    delta = ratio * omega
    carrier_GHz = 10.0 - delta / (2 * math.pi * 1e9)  # detune the carrier
    gen = math.hypot(omega, delta)
    t_peak = math.pi / gen
    sched = drive_schedule(t_peak, carrier_GHz, omega, ham.drive_coeff)
    res = evolve(
        ham, sched, RegisterState.state_vector("d"),
        EvolutionSpec(sample_times=np.array([t_peak])),
    )
    expect = omega**2 / gen**2
    assert abs(res.population("u")[-1] - expect) < 1e-6


def test_exchange_oscillation_against_analytic():
    b_K = 4.87e-3
    ham = exchange_pair(b_K)
    b_rad = b_K * K_RAD
    t_end = 2 * math.pi / b_rad * 1.5
    times = np.linspace(0.0, t_end, 100)
    sched = pulses.PulseSchedule(duration=t_end)
    res = evolve(
        ham, sched, RegisterState.state_vector("ud"),
        EvolutionSpec(sample_times=times),
    )
    expect = np.sin(0.5 * b_rad * times) ** 2
    assert np.abs(res.population("du") - expect).max() < 1e-6
    assert np.abs(res.population("ud") - (1 - expect)).max() < 1e-6


def test_detuned_exchange_suppression():
    b_K = 4.87e-3
    ham = exchange_pair(b_K, detune_K=10 * b_K)
    b_rad, delta_rad = b_K * K_RAD, 10 * b_K * K_RAD
    gen = math.hypot(b_rad, delta_rad)
    t_peak = math.pi / gen
    times = np.linspace(0.0, 6 * t_peak, 200)
    sched = pulses.PulseSchedule(duration=times[-1])
    res = evolve(
        ham, sched, RegisterState.state_vector("ud"),
        EvolutionSpec(sample_times=times),
    )
    transfer = res.population("du")
    cap = b_rad**2 / gen**2
    assert transfer.max() <= 0.04
    assert transfer.max() == pytest.approx(cap, abs=1e-6)
    # pointwise match to the two-level formula
    expect = cap * np.sin(0.5 * gen * times) ** 2
    assert np.abs(transfer - expect).max() < 1e-6


def test_static_shift_term_only_phases():
    # the sz-sz coupling alone must not move any population
    a = np.array([[0.0, 0.05], [0.05, 0.0]])
    ham = qubits.QubitArrayHamiltonian.from_parameters(
        eps_K=[1.0, 1.1], a_K=a
    )
    t_end = 1e-6
    times = np.linspace(0.0, t_end, 11)
    res = evolve(
        ham, pulses.PulseSchedule(duration=t_end),
        RegisterState.state_vector("ud"),
        EvolutionSpec(sample_times=times),
    )
    assert np.abs(res.population("ud") - 1.0).max() < 1e-10
    assert np.abs(res.trace - 1.0).max() < 1e-10


def test_tunneling_trace_decay_excited():
    ham = single_qubit()
    t_up = 2e-7
    t_end = 5 * t_up
    times = np.linspace(0.0, t_end, 26)
    res = evolve(
        ham, pulses.PulseSchedule(duration=t_end),
        RegisterState.density_matrix("u"),
        EvolutionSpec(sample_times=times, tunneling=TunnelingSpec(t_f=0.0, t_up=t_up)),
    )
    expect = np.exp(-times / t_up)
    assert np.abs(res.trace - expect).max() < 1e-8


def test_tunneling_preserves_ground():
    ham = single_qubit()
    times = np.linspace(0.0, 1e-6, 11)
    res = evolve(
        ham, pulses.PulseSchedule(duration=1e-6),
        RegisterState.density_matrix("d"),
        EvolutionSpec(sample_times=times, tunneling=TunnelingSpec(t_f=0.0, t_up=1e-7)),
    )
    assert np.abs(res.trace - 1.0).max() < 1e-10


def test_tunneling_onset_time():
    ham = single_qubit()
    t_up, t_f = 1e-7, 3e-7
    times = np.array([0.0, 1e-7, 2e-7, 3e-7, 4e-7, 6e-7])
    res = evolve(
        ham, pulses.PulseSchedule(duration=1e-6),
        RegisterState.density_matrix("u"),
        EvolutionSpec(sample_times=times, tunneling=TunnelingSpec(t_f=t_f, t_up=t_up)),
    )
    expect = np.where(times < t_f, 1.0, np.exp(-(times - t_f) / t_up))
    assert np.abs(res.trace - expect).max() < 1e-8


def test_dephasing_channel_decays_coherence():
    # prepare (|d> + |u>)/sqrt(2); the dephasing channel alone gives
    # coherence exp(-t/T2_eff)
    ham = single_qubit()
    t2 = 5e-6
    budget = decoherence.DecoherenceBudget(
        temperature=0.01, b_field=1.5, pitch=0.5e-4, lam=0.007,
        t1_s=1e6, t2_s=t2, sideband_g=0.0, coupling_const=0.01,
        tau_inv_s=0.0, noise_density=0.0, tuning_ghz_per_mv=1.0,
        s_nu=0.0, t_phi_v_s=math.inf, inplane_ratio=0.0, t2_eff_s=t2,
    )
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    rho = np.outer(plus, plus.conj())
    init = RegisterState("density-matrix", 1, rho)
    times = np.linspace(0.0, 2 * t2, 9)
    res = evolve(
        ham, pulses.PulseSchedule(duration=times[-1]), init,
        EvolutionSpec(sample_times=times, budget=budget),
    )
    coherences = np.array([abs(s[0, 1]) for s in res.states])
    assert np.abs(coherences - 0.5 * np.exp(-times / t2)).max() < 1e-8
    # trace preserved without the tunneling term
    assert np.abs(res.trace - 1.0).max() < 1e-9


def test_relaxation_channel_decays_population():
    ham = single_qubit()
    t1 = 2e-6
    budget = decoherence.DecoherenceBudget(
        temperature=0.01, b_field=1.5, pitch=0.5e-4, lam=0.007,
        t1_s=t1, t2_s=1e6, sideband_g=0.0, coupling_const=0.01,
        tau_inv_s=0.0, noise_density=0.0, tuning_ghz_per_mv=1.0,
        s_nu=0.0, t_phi_v_s=math.inf, inplane_ratio=0.0, t2_eff_s=1e6,
    )
    times = np.linspace(0.0, 3 * t1, 10)
    res = evolve(
        ham, pulses.PulseSchedule(duration=times[-1]),
        RegisterState.density_matrix("u"),
        EvolutionSpec(sample_times=times, budget=budget),
    )
    assert np.abs(res.population("u") - np.exp(-times / t1)).max() < 1e-8
    assert np.abs(res.trace - 1.0).max() < 1e-9


def test_density_matrix_stays_positive_and_hermitian():
    ham = single_qubit()
    omega = 3e8
    budget = decoherence.budget(0.01, 1.5, 0.5e-4, 0.0069275644,
                                noise_density=1e-10, tuning=1.0)
    t_end = 4 * math.pi / omega
    # ramped envelope forces the adaptive integrator path
    env = ((0.0, 0.0), (t_end / 2, 1.0), (t_end, 0.0))
    sched = drive_schedule(t_end, 10.0, omega, ham.drive_coeff, envelope=env)
    times = np.linspace(0.0, t_end, 21)
    res = evolve(
        ham, sched, RegisterState.density_matrix("d"),
        EvolutionSpec(sample_times=times, budget=budget),
    )
    for state in res.states:
        assert np.abs(state - state.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(state).min() > -1e-8
    assert np.abs(res.trace - 1.0).max() < 1e-9


def test_norm_drift_constant_drive():
    # ten thousand Rabi periods on the exact constant-segment propagator
    ham = single_qubit()
    omega = 1e9
    t_end = 1e4 * 2 * math.pi / omega
    sched = drive_schedule(t_end, 10.0, omega, ham.drive_coeff)
    times = np.linspace(0.0, t_end, 101)
    res = evolve(
        ham, sched, RegisterState.state_vector("d"),
        EvolutionSpec(sample_times=times),
    )
    assert np.abs(np.sqrt(res.trace) - 1.0).max() < 1e-8


def test_norm_drift_adaptive_path():
    # time-varying envelope exercises the embedded stepper: a thousand
    # Rabi periods of slow amplitude modulation
    ham = single_qubit()
    omega = 1e9
    t_end = 1e3 * 2 * math.pi / omega
    env = ((0.0, 0.5), (t_end, 1.0))
    sched = drive_schedule(t_end, 10.0, omega, ham.drive_coeff, envelope=env)
    times = np.linspace(0.0, t_end, 11)
    res = evolve(
        ham, sched, RegisterState.state_vector("d"),
        EvolutionSpec(sample_times=times),
    )
    assert np.abs(np.sqrt(res.trace) - 1.0).max() < 1e-8


def test_self_convergence_in_tolerance():
    ham = single_qubit()
    omega = 4e8
    t_end = 3 * math.pi / omega
    env = ((0.0, 0.0), (t_end / 3, 1.0), (t_end, 0.2))
    sched = drive_schedule(t_end, 10.0, omega, ham.drive_coeff, envelope=env)
    samples = np.array([t_end])

    def final_pops(rtol):
        res = evolve(
            ham, sched, RegisterState.state_vector("d"),
            EvolutionSpec(sample_times=samples, rtol=rtol),
        )
        return res.populations[-1]

    coarse = final_pops(1e-8)
    fine = final_pops(5e-9)
    assert np.abs(coarse - fine).max() < 1e-8


def test_lab_frame_matches_rwa_at_weak_drive():
    # carrier-to-Rabi ratio 1e3: the desk-scale stand-in for the real
    # hundred-gigahertz carrier
    ham = single_qubit(freq_GHz=1.0)
    omega_carrier = ham.eps_K[0] * K_RAD
    omega = 1e-3 * omega_carrier
    t_pi = math.pi / omega
    sched = drive_schedule(t_pi, 1.0, omega, ham.drive_coeff)
    times = np.linspace(0.0, t_pi, 9)
    pops = {}
    for frame in ("rwa", "lab"):
        res = evolve(
            ham, sched, RegisterState.state_vector("d"),
            EvolutionSpec(sample_times=times, frame=frame, rtol=1e-6),
        )
        pops[frame] = res.population("u")
    assert np.abs(pops["rwa"] - pops["lab"]).max() < 1e-3


def test_mode_and_cap_validation():
    ham = single_qubit()
    sched = pulses.PulseSchedule(duration=1e-6)
    with pytest.raises(ValueError, match="density-matrix"):
        evolve(
            ham, sched, RegisterState.state_vector("d"),
            EvolutionSpec(sample_times=np.array([1e-7]),
                          tunneling=TunnelingSpec(0.0, 1e-7)),
        )
    with pytest.raises(ValueError, match="does not cover"):
        evolve(
            ham, sched, RegisterState.state_vector("d"),
            EvolutionSpec(sample_times=np.array([2e-6])),
        )
    big = qubits.QubitArrayHamiltonian.from_parameters(eps_K=[1.0] * 9)
    with pytest.raises(ValueError, match="at most 8"):
        evolve(
            big, sched, RegisterState.density_matrix("d" * 9),
            EvolutionSpec(sample_times=np.array([1e-7])),
        )


def test_budget_on_a_state_vector_is_an_error():
    # the loss channels act on a density matrix; a state vector would drop them
    with pytest.raises(ValueError, match="budget evolution requires density-matrix mode"):
        evolve(
            single_qubit(), pulses.PulseSchedule(duration=1e-6), RegisterState.state_vector("u"),
            EvolutionSpec(sample_times=np.array([1e-7]), budget=loss_budget(1e-6, 1e-6)),
        )


def test_rwa_requires_single_carrier():
    ham = single_qubit()
    sched = pulses.PulseSchedule(
        duration=1e-8,
        microwave=(
            pulses.MicrowaveChannel(10.0, 0.1),
            pulses.MicrowaveChannel(11.0, 0.1),
        ),
    )
    with pytest.raises(ValueError, match="single carrier"):
        evolve(
            ham, sched, RegisterState.state_vector("d"),
            EvolutionSpec(sample_times=np.array([1e-8])),
        )


def test_spectator_phase_accumulation_with_couplings():
    # three qubits, only static couplings: populations frozen, trace exact
    n = 3
    a = 0.01 * (1 - np.eye(n))
    b = 1e-3 * (1 - np.eye(n))
    ham = qubits.QubitArrayHamiltonian.from_parameters(
        eps_K=[1.0, 2.0, 3.0], a_K=a, b_K=b
    )
    times = np.linspace(0.0, 1e-7, 5)
    res = evolve(
        ham, pulses.PulseSchedule(duration=1e-7),
        RegisterState.state_vector("udd"),
        EvolutionSpec(sample_times=times),
    )
    # eps detunings are large versus b: transfer suppressed to (b/delta)^2
    assert res.population("udd").min() > 0.999
    assert np.abs(res.trace - 1.0).max() < 1e-10


# --- cross-path checks of the density-matrix propagators ---------------------

T_SEG = 2e-8  # one constant segment, s


def loss_budget(t1, t2_eff):
    return decoherence.DecoherenceBudget(
        temperature=0.01, b_field=1.5, pitch=0.5e-4, lam=0.007,
        t1_s=t1, t2_s=t2_eff, sideband_g=0.0, coupling_const=0.01,
        tau_inv_s=0.0, noise_density=0.0, tuning_ghz_per_mv=1.0,
        s_nu=0.0, t_phi_v_s=math.inf, inplane_ratio=0.0, t2_eff_s=t2_eff,
    )


def coupled_register(n, seed, eps_K=1.0, coupling=1.0):
    """n coupled qubits near eps_K with detunings of ~1/T_SEG, exchange and
    sz-sz shifts of ~coupling/T_SEG."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / (T_SEG * K_RAD)
    eps = eps_K + rng.uniform(-1.0, 1.0, n) * scale
    a = np.triu(rng.uniform(0.0, 1.0, (n, n)) * scale, 1) * coupling
    b = np.triu(rng.uniform(0.0, 2.0, (n, n)) * scale, 1) * coupling
    return qubits.QubitArrayHamiltonian.from_parameters(
        eps_K=eps, a_K=a + a.T, b_K=b + b.T, drive_coeff=1e9
    )


def random_density_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dense_lindblad_terms(n, budget, t_up):
    """Collapse operators and tunneling drain G as dense matrices.

    Relaxation sqrt(1/T1) s-, dephasing sqrt(2/T2_eff) sz/2 per qubit, and
    G = sum_n P_up_n / (2 t_up).
    """
    dim = 2**n
    idx = np.arange(dim)
    ops = []
    drain = np.zeros((dim, dim))
    for q in range(n):
        occ = (idx >> q) & 1
        lower = np.zeros((dim, dim))
        lower[idx[occ == 1] ^ (1 << q), idx[occ == 1]] = 1.0
        ops.append(math.sqrt(1.0 / budget.t1_s) * lower)
        ops.append(math.sqrt(2.0 / budget.t2_eff_s) * np.diag(occ - 0.5))
        if t_up is not None:
            drain += np.diag(occ / (2.0 * t_up))
    return ops, drain


def segment_setup(n, tunneling, drive, seed=0):
    ham = coupled_register(n, seed, eps_K=1.0 if drive else 0.05)
    microwave = ()
    if drive:
        carrier = ham.eps_K[0] * units.K_TO_GHZ
        microwave = (pulses.MicrowaveChannel(carrier, 0.15, 0.7),)
    sched = pulses.PulseSchedule(duration=T_SEG, microwave=microwave)
    spec = EvolutionSpec(
        sample_times=np.array([T_SEG]),
        budget=loss_budget(3 * T_SEG, 2 * T_SEG),
        tunneling=TunnelingSpec(0.0, 4 * T_SEG) if tunneling else None,
    )
    return ham, sched, spec


@pytest.mark.parametrize(
    "n,tunneling,drive",
    [(n, tun, True) for n in range(1, 6) for tun in (False, True)]
    + [(1, True, False), (3, True, False)],
)
def test_liouville_exponential_matches_dense_oracle(n, tunneling, drive):
    from scipy.linalg import expm

    ham, sched, spec = segment_setup(n, tunneling, drive)
    dim = 2**n
    rho0 = random_density_matrix(dim, seed=n)
    res = evolve(ham, sched, RegisterState("density-matrix", n, rho0), spec)

    h = dynamics._System(ham, sched, spec).dense_h(0.5 * T_SEG)
    ops, drain = dense_lindblad_terms(n, spec.budget, 4 * T_SEG if tunneling else None)
    eye = np.eye(dim)
    liou = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in ops:
        ld = op.conj().T @ op
        liou += np.kron(op, op.conj()) - 0.5 * (np.kron(ld, eye) + np.kron(eye, ld.T))
    liou -= np.kron(drain, eye) + np.kron(eye, drain)
    expect = (expm(liou * T_SEG) @ rho0.reshape(-1)).reshape(dim, dim)
    assert np.abs(res.final_state - expect).max() <= 1e-12


@pytest.mark.parametrize(
    "drive,n", [(True, 3), (False, 3), (True, 7)], ids=["True", "False", "True-n7"]
)
def test_lindblad_ivp_matches_exponential(drive, n):
    # n = 7 (Liouvillian dimension 16384) checks expm_multiply above 6 qubits
    ham, sched, spec = segment_setup(n, True, drive)
    sys = dynamics._System(ham, sched, spec)
    liou = dynamics._Liouvillian(sys, spec.budget, spec.tunneling)
    rho0 = random_density_matrix(2**n, seed=7)
    rtol = 1e-10
    exact = dynamics._propagator(sys, liou, 0.0, T_SEG, True, rtol)(rho0, [T_SEG])[-1]
    stepped = dynamics._propagate_ivp(
        lambda t, y: liou.apply(sys.dense_h(t), y, True), rho0, 0.0, [T_SEG], rtol, True
    )[-1]
    # rtol bounds each step's error; the global error is a small multiple of it
    assert np.abs(stepped - exact).max() <= 10 * rtol


@pytest.mark.parametrize("n,tunneling,drive", [
    # the n = 4 tunneling cases keep their original ids
    pytest.param(n, tun, drive, id=str(drive) if (n, tun) == (4, True)
                 else f"{drive}-n{n}-tunneling-{'on' if tun else 'off'}")
    for n in (1, 4, 6) for tun in (True, False) for drive in (True, False)
])
def test_sparse_generator_matches_explicit_lindblad(n, tunneling, drive):
    # the spec has tunneling; the flag says whether the piece is past t_f
    ham, sched, spec = segment_setup(n, True, drive, seed=3)
    sys = dynamics._System(ham, sched, spec)
    liou = dynamics._Liouvillian(sys, spec.budget, spec.tunneling)
    dim = 2**n
    rng = np.random.default_rng(11)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g + g.conj().T
    t = 0.3 * T_SEG

    h = sys.dense_h(t)
    ops, drain = dense_lindblad_terms(n, spec.budget, 4 * T_SEG if tunneling else None)
    expect = -1j * (h @ rho - rho @ h) - (drain @ rho + rho @ drain)
    for op in ops:
        ld = op.conj().T @ op
        expect += op @ rho @ op.conj().T - 0.5 * (ld @ rho + rho @ ld)
    scale = np.abs(expect).max()

    applied = liou.apply(h, rho.reshape(-1), tunneling).reshape(dim, dim)
    assert np.abs(applied - expect).max() <= 1e-13 * scale
    # the constant piece splits w N, N = sum_n sz_n/2, off H once the drive is off
    a, b, w = sys.linear_h(0.0, T_SEG)
    assert b is None and (w == 0.0) == drive
    e = 0.5 * sys.zpat.sum(axis=0)
    split = liou.apply(a, rho.reshape(-1), tunneling).reshape(dim, dim)
    split += -1j * w * (e[:, None] - e[None, :]) * rho
    assert np.abs(split - expect).max() <= 1e-13 * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    ramped=st.booleans(),
    t1=st.floats(0.3, 30.0),
    t2=st.floats(0.3, 30.0),
    t_up=st.one_of(st.none(), st.floats(0.3, 10.0)),
    t_f=st.floats(0.0, 1.0),
)
def test_density_matrix_properties_with_budget(n, seed, ramped, t1, t2, t_up, t_f):
    # constant pulses take the Liouvillian exponential, ramped ones DOP853
    # on the same generator; times are in units of T_SEG
    ham = coupled_register(n, seed)
    carrier = ham.eps_K[0] * units.K_TO_GHZ
    env = ((0.0, 0.0), (0.5 * T_SEG, 1.0), (T_SEG, 0.0)) if ramped else ()
    sched = pulses.PulseSchedule(
        duration=T_SEG,
        microwave=(pulses.MicrowaveChannel(carrier, 0.2, seed % 7, env),),
    )
    spec = EvolutionSpec(
        sample_times=np.linspace(0.0, T_SEG, 6),
        budget=loss_budget(t1 * T_SEG, t2 * T_SEG),
        tunneling=None if t_up is None else TunnelingSpec(t_f * T_SEG, t_up * T_SEG),
    )
    rho0 = random_density_matrix(2**n, seed)
    res = evolve(ham, sched, RegisterState("density-matrix", n, rho0), spec)
    for rho in res.states:
        assert np.abs(rho - rho.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
    if t_up is None:
        assert np.abs(res.trace - 1.0).max() <= 1e-10
    else:
        assert np.diff(res.trace).max() <= 1e-12


# --- one Hamiltonian, several read-outs ---------------------------------------

# single-qubit operators on (down, up) = (index bit 0, index bit 1), with
# s_z = +1 on the excited state and the standard Pauli algebra XY = iZ
PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, 1j], [-1j, 0.0]]),
    "Z": np.diag([-1.0, 1.0]),
}


def pauli_op(n, factors):
    """Kronecker product with PAULI[factors[q]] on qubit q (default I).

    Basis index bit q is qubit q, so qubit 0 is the rightmost factor.
    """
    out = np.eye(1)
    for q in reversed(range(n)):
        out = np.kron(out, PAULI[factors.get(q, "I")])
    return out


def kron_hamiltonian(ham, channel, frame, t):
    """H/hbar (rad/s) from the documented register Hamiltonian, term by term."""
    n = ham.n_qubits
    eps = ham.eps_K * K_RAD
    omega = ham.drive_coeff * channel.amp_V_per_cm * channel.envelope_at(t)
    carrier = 2 * math.pi * 1e9 * channel.freq_GHz
    if frame == "rwa":
        eps = eps - carrier
        fx, fy = 0.5 * omega * math.cos(channel.phase), 0.5 * omega * math.sin(channel.phase)
    else:
        fx, fy = omega * math.cos(carrier * t + channel.phase), 0.0
    h = np.zeros((2**n, 2**n), dtype=complex)
    for q in range(n):
        h += 0.5 * eps[q] * pauli_op(n, {q: "Z"})
        h += fx * pauli_op(n, {q: "X"}) + fy * pauli_op(n, {q: "Y"})
        for r in range(q + 1, n):
            a, b = ham.a_K[q, r] * K_RAD, ham.b_K[q, r] * K_RAD
            h += 0.25 * a * pauli_op(n, {q: "Z", r: "Z"})
            # b (s+ s- + s- s+)/2 = b (XX + YY)/4
            h += 0.25 * b * (pauli_op(n, {q: "X", r: "X"}) + pauli_op(n, {q: "Y", r: "Y"}))
    return h


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("frame", ["rwa", "lab"])
@pytest.mark.parametrize("exchange", [True, False])
@pytest.mark.parametrize("phase", [0.0, 0.5 * math.pi])
def test_hamiltonian_matches_pauli_kron_oracle(n, frame, exchange, phase):
    # every scale ~1e9 rad/s, so no term hides under another's rounding
    rng = np.random.default_rng(n)
    scale = 1e9 / K_RAD
    a = np.triu(rng.uniform(0.5, 1.5, (n, n)) * scale, 1)
    b = np.triu(rng.uniform(0.5, 1.5, (n, n)) * scale, 1) if exchange else np.zeros((n, n))
    ham = qubits.QubitArrayHamiltonian.from_parameters(
        eps_K=rng.uniform(0.5, 1.5, n) * scale, a_K=a + a.T, b_K=b + b.T, drive_coeff=1e9
    )
    channel = pulses.MicrowaveChannel(0.2, 0.8, phase, ((0.0, 0.3), (T_SEG, 1.0)))
    sched = pulses.PulseSchedule(duration=T_SEG, microwave=(channel,))
    sys = dynamics._System(ham, sched, EvolutionSpec(sample_times=[T_SEG], frame=frame))
    t = 0.37 * T_SEG
    expect = kron_hamiltonian(ham, channel, frame, t)
    scale_h = np.abs(expect).max()
    assert np.abs(sys.dense_h(t) - expect).max() <= 1e-13 * scale_h
    # no H_k stores a zero (uncoupled pairs and equal-bit rows add none)
    assert all(np.all(h_k.data != 0.0) for h_k in sys.h)
    # dense_h adds each H_k's stored entries by flat index: equal to the dense sum
    for w in (0.0, 1e9):
        dense = np.diag(sys.z(t, w))
        for c, h_k in zip((1.0, *sys.drive_xy(t)), sys.h):
            dense = dense + c * h_k.toarray()
        assert np.array_equal(sys.dense_h(t, w), dense)

    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    applied = sys.apply_h(t, psi)
    assert np.abs(applied - expect @ psi).max() <= 1e-13 * np.abs(expect @ psi).max()


def test_apply_h_matches_dense_h_at_nine_qubits():
    # the CSR product and the flat-index dense matrix, with the drive on;
    # every scale ~1e9 rad/s, as in the Pauli-kron oracle
    n = 9
    rng = np.random.default_rng(n)
    scale = 1e9 / K_RAD
    a = np.triu(rng.uniform(0.5, 1.5, (n, n)) * scale, 1)
    b = np.triu(rng.uniform(0.5, 1.5, (n, n)) * scale, 1)
    ham = qubits.QubitArrayHamiltonian.from_parameters(
        eps_K=rng.uniform(0.5, 1.5, n) * scale, a_K=a + a.T, b_K=b + b.T, drive_coeff=1e9
    )
    channel = pulses.MicrowaveChannel(0.2, 0.8, 0.3, ((0.0, 0.3), (T_SEG, 1.0)))
    sched = pulses.PulseSchedule(duration=T_SEG, microwave=(channel,))
    sys = dynamics._System(ham, sched, EvolutionSpec(sample_times=[T_SEG]))
    t = 0.37 * T_SEG
    assert all(sys.drive_xy(t))
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    expect = sys.dense_h(t) @ psi
    assert np.abs(sys.apply_h(t, psi) - expect).max() <= 1e-13 * np.abs(expect).max()


def test_unitary_eigh_matches_ivp_on_constant_segment():
    n = 3
    ham, sched, spec = segment_setup(n, False, True, seed=5)
    sys = dynamics._System(ham, sched, spec)
    rng = np.random.default_rng(2)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    rtol = 1e-10
    exact = dynamics._propagator(sys, None, 0.0, T_SEG, False, rtol)(psi, [T_SEG])[-1]
    stepped = dynamics._propagate_ivp(
        lambda t, y: -1j * sys.apply_h(t, y), psi, 0.0, [T_SEG], rtol, False
    )[-1]
    # rtol bounds each step's error; the global error is a small multiple of it
    assert np.abs(stepped - exact).max() <= 10 * rtol


def test_density_matrix_matches_state_vector_without_loss():
    # a ramped then a constant drive segment: the density matrix takes the
    # Liouvillian under DOP853 and the eigh conjugation, the state vector
    # apply_h under DOP853 and the eigh product
    n = 3
    ham = coupled_register(n, seed=4)
    carrier = ham.eps_K[0] * units.K_TO_GHZ
    env = ((0.0, 0.0), (0.5 * T_SEG, 1.0), (T_SEG, 1.0))
    sched = pulses.PulseSchedule(
        duration=T_SEG, microwave=(pulses.MicrowaveChannel(carrier, 0.15, 0.7, env),),
    )
    rtol = 1e-10
    spec = EvolutionSpec(sample_times=np.array([0.5 * T_SEG, T_SEG]), rtol=rtol)
    rng = np.random.default_rng(9)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    vec = evolve(ham, sched, RegisterState("state-vector", n, psi), spec)
    dm = evolve(ham, sched, RegisterState("density-matrix", n, np.outer(psi, psi.conj())), spec)
    for psi_t, rho_t in zip(vec.states, dm.states):
        assert np.abs(rho_t - np.outer(psi_t, psi_t.conj())).max() <= 10 * rtol


def test_retuning_without_device_map_raises_before_integrating(monkeypatch):
    def integrate(*args):
        raise AssertionError("a segment was integrated")

    monkeypatch.setattr(dynamics, "_propagator", integrate)
    monkeypatch.setattr(dynamics, "_propagate_ivp", integrate)
    ham = exchange_pair()
    # the electrode moves only in the second half
    sched = pulses.PulseSchedule(
        duration=T_SEG,
        voltage_channels=(pulses.VoltageChannel(0, ((0.5 * T_SEG, 0.0), (T_SEG, 1e-3))),),
    )
    with pytest.raises(ValueError, match="Stark map"):
        evolve(ham, sched, RegisterState.state_vector("ud"), EvolutionSpec(sample_times=[T_SEG]))


# --- the timeline: pieces, sample stops, one operator per piece -------------


@pytest.fixture(scope="module")
def device_pair():
    """Two device sites whose transitions differ until site 0 is retuned."""
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    return qubits.build(geom, voltages=np.array([0.0, 5e-5]))


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sudden_swap_integrates_no_segment(device_pair, monkeypatch):
    # a dwell whose 30-decimal rounding falls one ulp short of it: a cut at
    # the rounded time would leave a sliver that straddles the closing jump
    dwell = pulses.calibrate_swap(device_pair, (0, 1), math.pi / 2)
    dwell = next(d for d in dwell * (1 + 1e-6 * np.arange(1, 200)) if np.round(d, 30) < d)
    sched = pulses.swap_schedule(device_pair, (0, 1), dwell)
    ivp = count_calls(monkeypatch, dynamics, "_propagate_ivp")
    res = evolve(device_pair, sched, RegisterState.state_vector("ud"),
                 EvolutionSpec(sample_times=[dwell]))
    assert ivp == []
    assert res.population("du")[-1] > 0.99


@pytest.mark.parametrize("mode", ["state-vector", "density-matrix"])
def test_samples_at_a_jump_match_a_clean_cut(device_pair, mode):
    from scipy.linalg import expm

    # idle for t_jump, then site 0 jumps onto resonance until t_end
    t_jump = 1.3e-9
    dwell = pulses.calibrate_swap(device_pair, (0, 1), math.pi / 2)
    v = pulses.resonance_voltage(device_pair, 0, 1)
    points = ((t_jump, 0.0), (t_jump, v), (t_jump + dwell, v), (t_jump + dwell, 0.0))
    sched = pulses.PulseSchedule(t_jump + dwell, (pulses.VoltageChannel(0, points),))
    t_end = sched.duration
    before, after = np.nextafter(t_jump, 0.0), np.nextafter(t_jump, 1.0)
    times = [0.0, 0.0, before, after, after, t_end]
    spec = EvolutionSpec(sample_times=times)
    initial = getattr(RegisterState, mode.replace("-", "_"))("ud")
    res = evolve(device_pair, sched, initial, spec)

    # reference: one exponential per constant piece, cut exactly at the jump
    sys = dynamics._System(device_pair, sched, spec)
    psi0 = RegisterState.state_vector("ud").data
    psi_jump = expm(-1j * sys.dense_h(0.5 * t_jump) * t_jump) @ psi0
    psi_end = expm(-1j * sys.dense_h(0.5 * (t_jump + t_end)) * (t_end - t_jump)) @ psi_jump
    expect = [psi0, psi0, psi_jump, psi_jump, psi_jump, psi_end]
    if mode == "density-matrix":
        expect = [np.outer(psi, psi.conj()) for psi in expect]
    assert res.times.tolist() == times
    for got, ref in zip(res.states, expect):
        assert np.abs(got - ref).max() <= 1e-12
    assert res.population("du")[-1] > 0.99


def test_constant_piece_decomposes_once(monkeypatch):
    ham = exchange_pair()
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    res = evolve(ham, pulses.PulseSchedule(duration=T_SEG), RegisterState.state_vector("ud"),
                 EvolutionSpec(sample_times=np.linspace(0.0, T_SEG, 7)))
    assert len(eigh) == 1
    assert len(res.times) == 7


def test_dissipative_constant_piece_builds_one_generator(monkeypatch):
    ham, sched, spec = segment_setup(2, True, True)
    spec = EvolutionSpec(sample_times=np.linspace(0.0, T_SEG, 6), budget=spec.budget,
                         tunneling=spec.tunneling)
    setup = count_calls(monkeypatch, dynamics._Liouvillian, "taylor")
    evolve(ham, sched, RegisterState.density_matrix("ud"), spec)
    assert len(setup) == 1


def test_integrator_failure_names_segment_mode_and_rtol(monkeypatch):
    def failing(*args, **kwargs):
        return SimpleNamespace(success=False, message="Required step size is less than spacing")

    monkeypatch.setattr(dynamics, "solve_ivp", failing)
    ham = single_qubit()
    sched = drive_schedule(T_SEG, 10.0, 1e9, ham.drive_coeff, envelope=((0.0, 0.0), (T_SEG, 1.0)))
    # a lab-frame drive is not linear in t, so the density matrix runs DOP853
    spec = EvolutionSpec(sample_times=[0.5 * T_SEG, T_SEG], frame="lab", rtol=1e-12,
                         tunneling=TunnelingSpec(0.0, T_SEG))
    with pytest.raises(RuntimeError) as err:
        evolve(ham, sched, RegisterState.density_matrix("u"), spec)
    assert str(err.value) == (
        f"integrator failed on [0.0, {T_SEG}] in density-matrix mode with "
        "tunneling on at rtol=3e-14: Required step size is less than spacing"
    )
    with pytest.raises(RuntimeError, match=r"in state-vector mode with tunneling off"):
        evolve(ham, sched, RegisterState.state_vector("u"), EvolutionSpec(sample_times=[T_SEG]))


# --- samples are read from one propagation per piece -------------------------

TRIANGLE = ((0.0, 0.0), (0.5 * T_SEG, 1.0), (T_SEG, 0.0))


def driven_register(n, envelope, seed=None, coupling=1.0):
    """Coupled register (seed n by default) under one drive resonant with qubit 0."""
    ham = coupled_register(n, n if seed is None else seed, coupling=coupling)
    carrier = ham.eps_K[0] * units.K_TO_GHZ
    sched = pulses.PulseSchedule(
        duration=T_SEG, microwave=(pulses.MicrowaveChannel(carrier, 0.15, 0.4, envelope),),
    )
    return ham, sched


SAMPLE_GRID_CASES = {
    # one ramped piece under DOP853
    "ramp-state-vector": (3, ((0.0, 0.2), (T_SEG, 1.0)), None),
    # two DOP853 pieces on the Lindblad generator, draining from t = 0
    "triangle-density-matrix": (2, TRIANGLE, TunnelingSpec(0.0, 4 * T_SEG)),
    # one eigendecomposition
    "constant-state-vector": (3, (), None),
}


@pytest.mark.parametrize("case", SAMPLE_GRID_CASES)
def test_samples_do_not_change_the_final_state(case):
    n, envelope, tunneling = SAMPLE_GRID_CASES[case]
    ham, sched = driven_register(n, envelope)
    if tunneling is None:
        initial = RegisterState.state_vector("u" + "d" * (n - 1))
    else:
        initial = RegisterState("density-matrix", n, random_density_matrix(2**n, seed=3))
    finals = [
        evolve(ham, sched, initial,
               EvolutionSpec(sample_times=grid, rtol=1e-10, tunneling=tunneling)).final_state
        for grid in ([T_SEG], np.linspace(0.0, T_SEG, 4), np.linspace(0.0, T_SEG, 101))
    ]
    assert np.abs(finals[0] - initial.data).max() > 0.1
    assert np.array_equal(finals[0], finals[1])
    assert np.array_equal(finals[0], finals[2])


def test_one_integration_per_piece_matches_chained_restarts():
    n = 3
    ham, sched = driven_register(n, ((0.0, 0.2), (T_SEG, 1.0)))
    rtol = 1e-10
    sys = dynamics._System(ham, sched, EvolutionSpec(sample_times=[T_SEG], rtol=rtol))
    times = np.linspace(0.0, T_SEG, 9)[1:]
    psi = RegisterState.state_vector("udu").data
    once = dynamics._propagator(sys, None, 0.0, T_SEG, False, rtol)(psi, times)

    def rhs(t, y):
        return -1j * sys.apply_h(t, y)

    state, t0 = psi, 0.0
    for t1, got in zip(times, once):
        state, t0 = dynamics._propagate_ivp(rhs, state, t0, [t1], rtol, False)[-1], t1
        assert np.abs(got - state).max() <= 10 * rtol


@pytest.mark.parametrize("mode", ["state-vector", "density-matrix"])
def test_evaluations_do_not_track_the_sample_count(monkeypatch, mode):
    nfev = []
    original = dynamics.solve_ivp

    def counted(*args, **kwargs):
        sol = original(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    # density matrices: Taylor steps and terms, the grid fixed by the piece alone
    steps = count_calls(monkeypatch, dynamics._Liouvillian, "series")
    terms = count_calls(monkeypatch, dynamics._Liouvillian, "apply")
    dm = mode == "density-matrix"
    n = 2 if dm else 3
    ham, sched = driven_register(n, TRIANGLE)
    initial = getattr(RegisterState, mode.replace("-", "_"))("u" + "d" * (n - 1))
    counts = []
    for count in (4, 101):
        nfev.clear()
        steps.clear()
        terms.clear()
        evolve(ham, sched, initial, EvolutionSpec(
            sample_times=np.linspace(0.0, T_SEG, count),
            budget=loss_budget(3 * T_SEG, 2 * T_SEG) if dm else None,
            tunneling=TunnelingSpec(0.25 * T_SEG, 4 * T_SEG) if dm else None,
        ))
        counts.append((len(steps), len(terms)) if dm else sum(nfev))
    if dm:
        assert nfev == [] and counts[0][0] >= 3
        assert counts[1] == counts[0]
    else:
        assert len(nfev) == 2
        assert counts[1] <= 1.5 * counts[0]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    coupling=st.floats(0.0, 2.0),
    envelope=st.sampled_from([(), ((0.0, 0.3), (T_SEG, 1.0)), TRIANGLE]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_state_vector_norm_is_conserved(n, seed, coupling, envelope, fractions):
    # constant envelopes take the eigendecomposition, ramps one DOP853 run
    # per piece read at the samples inside it
    ham, sched = driven_register(n, envelope, seed, coupling)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    res = evolve(ham, sched, RegisterState("state-vector", n, psi / np.linalg.norm(psi)),
                 EvolutionSpec(sample_times=np.sort(fractions) * T_SEG))
    assert np.abs(np.sqrt(res.trace) - 1.0).max() < 1e-8


# --- relabeling sites --------------------------------------------------------

RELABEL_SITES = ((0.0, 0.0), (1.0, 0.0), (0.3, 1.2))
RELABEL_VOLTS = (0.0, 4e-6, 1e-5)
RELABEL_BITS = "udd"


def site_populations_after_drive(perm):
    """Per-site excited populations of the 3-site register with sites permuted.

    New site j is old site perm[j]: its position, voltage and initial bit.
    A global ramped drive at the mean transition frequency (so DOP853 runs)
    competes with the exchange between detuned sites.
    """
    geom = qubits.DeviceGeometry(
        pitch=0.5e-4, sites=tuple(RELABEL_SITES[p] for p in perm)
    )
    ham = qubits.build(geom, voltages=[RELABEL_VOLTS[p] for p in perm])
    t_end = 4e-9
    drive = pulses.MicrowaveChannel(
        float(np.mean(ham.eps_K)) * units.K_TO_GHZ, 1e9 / ham.drive_coeff, 0.3,
        ((0.0, 0.0), (t_end / 2, 1.0), (t_end, 0.0)),
    )
    res = evolve(
        ham, pulses.PulseSchedule(duration=t_end, microwave=(drive,)),
        RegisterState.state_vector("".join(RELABEL_BITS[p] for p in perm)),
        EvolutionSpec(sample_times=np.linspace(0.0, t_end, 5)),
    )
    excited = (np.arange(8)[:, None] >> np.arange(3)) & 1   # (basis, site)
    return res.populations @ excited


@pytest.fixture(scope="module")
def unpermuted_site_populations():
    pops = site_populations_after_drive((0, 1, 2))
    # the drive and the exchange both move population off the start
    assert np.abs(pops[-1] - [1.0, 0.0, 0.0]).max() > 0.1
    return pops


@pytest.mark.parametrize("perm", [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
def test_relabeling_sites_permutes_site_populations(perm, unpermuted_site_populations):
    pops = site_populations_after_drive(perm)
    rtol = EvolutionSpec(sample_times=[0.0]).rtol
    assert np.abs(pops - unpermuted_site_populations[:, list(perm)]).max() <= 10 * rtol


# --- density-matrix pieces linear in t: H(t) = A + (t - tm) B, one product ---


def ramped_drive(ham, phase):
    """TRIANGLE envelope on one drive resonant with qubit 0: two linear pieces."""
    carrier = ham.eps_K[0] * units.K_TO_GHZ
    return pulses.PulseSchedule(
        duration=T_SEG, microwave=(pulses.MicrowaveChannel(carrier, 0.15, phase, TRIANGLE),),
    )


@pytest.mark.parametrize("phase", [0.0, math.pi / 2], ids=["phase-0", "phase-pi/2"])
@pytest.mark.parametrize("tunneling", [False, True], ids=["tunneling-off", "tunneling-on"])
@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_linear_piece_rhs_matches_the_two_product_form(n, tunneling, phase):
    ham = coupled_register(n, seed=n)
    spec = EvolutionSpec(sample_times=[T_SEG], budget=loss_budget(3 * T_SEG, 2 * T_SEG),
                         tunneling=TunnelingSpec(0.0, 4 * T_SEG))
    sys = dynamics._System(ham, ramped_drive(ham, phase), spec)
    liou = dynamics._Liouvillian(sys, spec.budget, spec.tunneling)
    a, b, w = sys.linear_h(0.5 * T_SEG, T_SEG)
    assert b is not None and w == 0.0
    rho = random_density_matrix(2**n, seed=n)
    # a Taylor term adds -i[B, rho1] for the coefficient before it
    rho1 = random_density_matrix(2**n, seed=n + 1)
    for t in T_SEG * np.array([0.5, 0.57, 0.75, 0.93, 1.0]):
        h = sys.dense_h(t)
        expect = (-1j * (h @ rho - rho @ h)).reshape(-1)
        expect += liou.dissipator[tunneling] @ rho.reshape(-1)
        applied = liou.apply(a + (t - 0.75 * T_SEG) * b, rho.reshape(-1), tunneling)
        assert np.abs(applied - expect).max() <= 1e-13 * np.abs(expect).max()
        expect += (-1j * (b @ rho1 - rho1 @ b)).reshape(-1) * T_SEG
        applied = liou.apply(a + (t - 0.75 * T_SEG) * b, rho.reshape(-1), tunneling,
                             T_SEG * b, rho1.reshape(-1))
        assert np.abs(applied - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("tunneling", [False, True], ids=["tunneling-off", "tunneling-on"])
def test_density_matrix_rhs_is_a_fresh_array_and_leaves_y_alone(tunneling):
    # DOP853 keeps the last right-hand side as its f: a reused buffer would overwrite it
    n = 3
    ham = coupled_register(n, seed=n)
    spec = EvolutionSpec(sample_times=[T_SEG], budget=loss_budget(3 * T_SEG, 2 * T_SEG),
                         tunneling=TunnelingSpec(0.0, 4 * T_SEG))
    sys = dynamics._System(ham, ramped_drive(ham, 0.3), spec)
    liou = dynamics._Liouvillian(sys, spec.budget, spec.tunneling)
    h = sys.dense_h(0.6 * T_SEG)
    y = random_density_matrix(2**n, seed=1).reshape(-1)
    y_before, h_before = y.copy(), h.copy()
    first = liou.apply(h, y, tunneling)
    first_before = first.copy()
    second = liou.apply(h, y, tunneling)
    liou.apply(h, random_density_matrix(2**n, seed=2).reshape(-1), tunneling)
    assert np.array_equal(y, y_before) and np.array_equal(h, h_before)
    assert np.array_equal(first, first_before) and np.array_equal(first, second)
    assert first.shape == y.shape and first.flags.c_contiguous
    for a, b in ((first, second), (first, y), (second, y), (first, h)):
        assert not np.shares_memory(a, b)


def test_moving_voltages_and_lab_drives_read_dense_h(device_pair):
    v = pulses.resonance_voltage(device_pair, 0, 1)
    ramp = pulses.PulseSchedule(T_SEG, (pulses.VoltageChannel(0, ((0.0, 0.0), (T_SEG, v))),))
    held = pulses.PulseSchedule(T_SEG, (pulses.VoltageChannel(0, ((0.0, v), (T_SEG, v))),))
    for sched, frame, linear in ((ramp, "rwa", False), (held, "rwa", True),
                                 (ramped_drive(device_pair, 0.0), "lab", False)):
        sys = dynamics._System(device_pair, sched, EvolutionSpec([T_SEG], frame=frame))
        assert (sys.linear_h(0.0, T_SEG) is not None) == linear


@pytest.mark.parametrize("n,tunneling", [(3, False), (4, True)])
def test_ramped_density_matrix_matches_the_per_evaluation_path(monkeypatch, n, tunneling):
    ham = coupled_register(n, seed=2)
    spec = EvolutionSpec(
        sample_times=np.linspace(0.0, T_SEG, 5), rtol=1e-9,
        budget=loss_budget(3 * T_SEG, 2 * T_SEG),
        tunneling=TunnelingSpec(0.3 * T_SEG, 2 * T_SEG) if tunneling else None,
    )
    initial = RegisterState("density-matrix", n, random_density_matrix(2**n, seed=4))
    linear = evolve(ham, ramped_drive(ham, 0.4), initial, spec)
    monkeypatch.setattr(dynamics._System, "linear_h", lambda self, ta, tb: None)
    general = evolve(ham, ramped_drive(ham, 0.4), initial, spec)
    assert np.abs(linear.states - general.states).max() <= 10 * spec.rtol


@pytest.mark.parametrize("n", [3, 4, 5])
def test_taylor_pieces_match_dop853_at_its_floor(monkeypatch, n):
    # DOP853 at its floor, rtol 3e-14, is the reference; a drive detuned by
    # 30/T_SEG makes ||L T|| large, where DOP853 at rtol 1e-11 lands 2.5-3.5e-12 away
    ham = coupled_register(n, seed=5)
    carrier = ham.eps_K[0] * units.K_TO_GHZ + 30.0 / (2 * math.pi * 1e9 * T_SEG)
    sched = pulses.PulseSchedule(
        duration=T_SEG, microwave=(pulses.MicrowaveChannel(carrier, 0.6, 0.4, TRIANGLE),),
    )
    spec = EvolutionSpec(
        sample_times=np.linspace(0.0, T_SEG, 5), rtol=1e-11,
        budget=loss_budget(3 * T_SEG, 2 * T_SEG), tunneling=TunnelingSpec(0.5 * T_SEG, 2 * T_SEG),
    )
    initial = RegisterState.density_matrix("u" + "d" * (n - 1))
    taylor = evolve(ham, sched, initial, spec)
    monkeypatch.setattr(dynamics._System, "linear_h", lambda self, ta, tb: None)
    floor = evolve(ham, sched, initial, spec)
    assert np.abs(taylor.states[-1] - initial.data).max() > 0.1
    assert np.abs(taylor.states - floor.states).max() <= 1e-12


@pytest.mark.parametrize("envelope,tunneling", [((), True), (TRIANGLE, False)],
                         ids=["constant-tunneling-on", "triangle-tunneling-off"])
def test_taylor_terms_that_never_fall_off_raise(monkeypatch, envelope, tunneling):
    terms = count_calls(monkeypatch, dynamics._Liouvillian, "apply")
    ham, sched = driven_register(2, envelope)
    spec = EvolutionSpec(sample_times=[T_SEG], budget=loss_budget(3 * T_SEG, 2 * T_SEG),
                         tunneling=TunnelingSpec(0.0, 4 * T_SEG) if tunneling else None)
    rho = random_density_matrix(4, seed=1)
    rho[1, 2] = np.nan
    with pytest.raises(RuntimeError) as err:
        evolve(ham, sched, RegisterState("density-matrix", 2, rho), spec)
    end = 0.5 * T_SEG if envelope else T_SEG
    assert str(err.value) == (
        f"Taylor series did not converge on [0.0, {end}] in density-matrix mode "
        f"with tunneling {'on' if tunneling else 'off'}"
    )
    # one step's terms, then the raise
    assert len(terms) == dynamics._TAYLOR_TERMS_MAX - 1


def test_linear_pieces_build_h_a_fixed_number_of_times(monkeypatch):
    nfev = []
    original = dynamics.solve_ivp

    def counted(*args, **kwargs):
        sol = original(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    dense_h = count_calls(monkeypatch, dynamics._System, "dense_h")
    drive_xy = count_calls(monkeypatch, dynamics._System, "drive_xy")
    ham = coupled_register(3, seed=1)
    evolve(ham, ramped_drive(ham, 0.4), RegisterState.density_matrix("udd"), EvolutionSpec(
        sample_times=[T_SEG], budget=loss_budget(3 * T_SEG, 2 * T_SEG),
        tunneling=TunnelingSpec(0.5 * T_SEG, 2 * T_SEG),
    ))
    # two Taylor pieces, each reading H at its midpoint and two interior points
    assert nfev == []
    assert len(dense_h) == len(drive_xy) == 6
