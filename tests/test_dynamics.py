"""Tests for the register evolution engine.

The oracles: the closed-form resonant/detuned Rabi solution, the analytic
two-level exchange (flip-flop) solution, scalar decay for the tunneling
anti-commutator, and exact coherence decay for the dephasing channel.
"""
import math

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
    # a ramped envelope: Taylor steps on a slope
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
    # a time-varying envelope exercises the Taylor steps on a slope: a
    # thousand Rabi periods of slow amplitude modulation
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
    # two linear pieces, the Taylor steps against DOP853 at its floor
    ham = single_qubit()
    omega = 4e8
    t_end = 3 * math.pi / omega
    env = ((0.0, 0.0), (t_end / 3, 1.0), (t_end, 0.2))
    sched = drive_schedule(t_end, 10.0, omega, ham.drive_coeff, envelope=env)
    spec = EvolutionSpec(sample_times=np.array([t_end]))
    initial = RegisterState.state_vector("d")
    res = evolve(ham, sched, initial, spec)
    expect = np.abs(dop853_evolve(ham, sched, initial, spec)) ** 2
    assert np.abs(res.populations - expect).max() < 1e-8


@pytest.mark.parametrize("frame", ["rwa", "lab"])
@pytest.mark.parametrize("field, bad", [
    ("amp_V_per_cm", math.nan), ("freq_GHz", math.inf), ("phase", math.nan),
    ("envelope", ((0.0, 0.0), (math.nan, 1.0))), ("points", ((0.0, 0.0), (1e-9, math.nan))),
    ("eps_K", math.nan), ("drive_coeff", -math.inf),
])
def test_non_finite_channel_or_register_is_named_before_evolve(frame, field, bad):
    # a NaN drive once reached math.ceil in a linear piece's step count (rwa)
    # or an unnamed Taylor non-convergence (lab); construction now names it
    values = {"freq_GHz": 10.0, "amp_V_per_cm": 1.0, "phase": 0.0, "envelope": (),
              "points": ((0.0, 0.0), (1e-9, 0.0)), "eps_K": 10.0 / units.K_TO_GHZ, "drive_coeff": 1e9}
    values[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ham = qubits.QubitArrayHamiltonian.from_parameters(values["eps_K"], drive_coeff=values["drive_coeff"])
        sched = pulses.PulseSchedule(
            duration=1e-9,
            voltage_channels=(pulses.VoltageChannel(0, values["points"]),),
            microwave=(pulses.MicrowaveChannel(
                values["freq_GHz"], values["amp_V_per_cm"], values["phase"], values["envelope"]),),
        )
        evolve(ham, sched, RegisterState.state_vector("d"), EvolutionSpec(sample_times=[1e-9], frame=frame))


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
            EvolutionSpec(sample_times=times, frame=frame),
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


def test_nan_specs_fail_at_construction():
    # NaN passes every `<` and `<=`: it would never tunnel, or fail inside the Taylor
    # step count
    for field, make in (
        ("sample times", lambda x: EvolutionSpec(sample_times=[x])),
        ("t_f", lambda x: TunnelingSpec(t_f=x, t_up=1e-7)),
        ("t_up", lambda x: TunnelingSpec(t_f=0.0, t_up=x)),
    ):
        with pytest.raises(ValueError, match=field):
            make(math.nan)
    # an infinite escape time, no escape, stays allowed
    assert TunnelingSpec(t_f=0.0, t_up=math.inf).t_up == math.inf


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


def dense_h(sys, t, w=0.0):
    """H(t) - w N as a dense matrix."""
    return sys.dense(sys.coefficients(t, w))


def dop853(sys, state, ta, times, liou=None, tunneling=False, w=0.0):
    """DOP853 at its floor (rtol 3e-14) on H - w N from ta, read at `times`: the oracle for every
    Taylor path; a density matrix runs as its row-major vector, and w N returns as its exact phase."""
    from scipy.integrate import solve_ivp

    if liou is None:
        def rhs(t, y):
            return -1j * (dense_h(sys, t, w) @ y)
    else:
        def rhs(t, y):
            return liou.apply(dense_h(sys, t, w) @ y.reshape(state.shape), y, tunneling)
    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (ta, times[-1]), state.reshape(-1), method="DOP853",
                    rtol=3e-14, atol=3e-16, t_eval=times)
    assert sol.success, sol.message
    e = 0.5 * sys.zpat.sum(axis=0)
    rate = -1j * w * (e if liou is None else e[:, None] - e[None, :])
    return [y.reshape(state.shape) * np.exp((t - ta) * rate) for t, y in zip(times, sol.y.T)]


def dop853_evolve(ham, sched, initial, spec):
    """`evolve`'s samples from `dop853` piece by piece between the schedule's breakpoints, w the
    mean qubit frequency at each piece's midpoint wherever no drive is on (no loss channels)."""
    sys = dynamics._System(ham, sched, spec)
    liou = None if initial.mode == "state-vector" else dynamics._Liouvillian(sys, None, None)
    samples = spec.sample_times
    ends = sorted({0.0, float(samples[-1])} | {float(t) for t in sched.breakpoints() if 0 < t < samples[-1]})
    state, out = initial.data, [initial.data] * int(np.sum(samples == 0.0))
    for ta, tb in zip(ends[:-1], ends[1:]):
        now = samples[(ta < samples) & (samples <= tb)]
        times = np.unique(np.append(now, tb))
        idle = not any(ch.envelope_at(0.5 * (ta + tb)) for ch in sched.microwave)
        w = float(np.mean(sys.eps_rad(0.5 * (ta + tb)))) if idle else 0.0
        got = dop853(sys, state, ta, times, liou, w=w)
        out += [got[int(np.searchsorted(times, t))] for t in now]
        state = got[-1]
    return np.array(out)


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

    h = dense_h(dynamics._System(ham, sched, spec), 0.5 * T_SEG)
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
    # n = 7 (Liouvillian dimension 16384) checks the Taylor steps above 6 qubits
    ham, sched, spec = segment_setup(n, True, drive)
    sys = dynamics._System(ham, sched, spec)
    liou = dynamics._Liouvillian(sys, spec.budget, spec.tunneling)
    rho0 = random_density_matrix(2**n, seed=7)
    exact = dynamics._propagator(sys, liou, 0.0, T_SEG, True)(rho0, [T_SEG])[-1]
    stepped = dop853(sys, rho0, 0.0, [T_SEG], liou, True)[-1]
    assert np.abs(stepped - exact).max() <= 1e-12


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

    h = dense_h(sys, t)
    ops, drain = dense_lindblad_terms(n, spec.budget, 4 * T_SEG if tunneling else None)
    expect = -1j * (h @ rho - rho @ h) - (drain @ rho + rho @ drain)
    for op in ops:
        ld = op.conj().T @ op
        expect += op @ rho @ op.conj().T - 0.5 * (ld @ rho + rho @ ld)
    scale = np.abs(expect).max()

    applied = liou.apply(h @ rho, rho.reshape(-1), tunneling).reshape(dim, dim)
    assert np.abs(applied - expect).max() <= 1e-13 * scale
    # the constant piece splits w N, N = sum_n sz_n/2, off H once the drive is off
    a, b, w = sys.piece(0.0, T_SEG)
    assert b is None and (w == 0.0) == drive
    e = 0.5 * sys.zpat.sum(axis=0)
    split = liou.apply(sys.dense(a) @ rho, rho.reshape(-1), tunneling).reshape(dim, dim)
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
    # constant and ramped pulses take Taylor steps on the same generator;
    # times are in units of T_SEG
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
    assert np.abs(dense_h(sys, t) - expect).max() <= 1e-13 * scale_h
    # each H_k stores its nonzeros and no other value, but for pads after a row's last:
    # no level of pads alone, and as many stored nonzeros as the oracle's H_k holds
    oracles = [sum((0.25 * ham.a_K[q, r] * K_RAD * pauli_op(n, {q: "Z", r: "Z"})
                    + 0.25 * ham.b_K[q, r] * K_RAD * (pauli_op(n, {q: "X", r: "X"}) + pauli_op(n, {q: "Y", r: "Y"}))
                    for q in range(n) for r in range(q + 1, n)), np.zeros((2**n, 2**n))),
               sum(pauli_op(n, {q: "X"}) for q in range(n)), sum(pauli_op(n, {q: "Y"}) for q in range(n))]
    for h_k, oracle in zip(sys.h, oracles):
        live = h_k.vals != 0  # (block, level, row)
        assert np.all(live[:, :-1] >= live[:, 1:]) and np.all(live.any(axis=(0, 2)))
        assert live.sum() == np.count_nonzero(np.abs(oracle) > 1e-13 * scale_h)
        rows, cols, vals = h_k.nonzeros()
        stored = np.zeros((2**n, 2**n), complex)
        stored[rows, cols] = vals
        assert np.abs(stored - oracle).max() <= 1e-13 * max(1.0, np.abs(oracle).max())
    # dense_h adds each H_k's stored entries by flat index: equal to the dense sum
    for w in (0.0, 1e9):
        dense = np.diag(sys.coefficients(t, w)[:2**n])
        for c, h_k in zip((1.0, *sys.drive_xy(t)), sys.h):
            rows, cols, vals = h_k.nonzeros()
            h_k_dense = np.zeros((2**n, 2**n), complex)
            h_k_dense[rows, cols] = vals
            dense = dense + c * h_k_dense
        assert np.array_equal(dense_h(sys, t, w), dense)

    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    applied = sys.apply([sys.coefficients(t)], [psi])
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
    expect = dense_h(sys, t) @ psi
    assert np.abs(sys.apply([sys.coefficients(t)], [psi]) - expect).max() <= 1e-13 * np.abs(expect).max()
    # a density matrix's step, sum_j H_j c_j with three dense H_j, against the vector product
    # applied to each column of the matrices c_j
    hs = [sys.coefficients(t), sys.coefficients(0.8 * T_SEG), sys.coefficients(0.1 * T_SEG) - 1e9]
    cs = [rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n)) for _ in hs]
    expect = np.stack([sys.apply(hs, [c[:, col] for c in cs]) for col in range(2**n)], axis=1)
    dense = sum(sys.dense(h) @ c for h, c in zip(hs, cs))
    assert np.abs(dense - expect).max() <= 1e-13 * np.abs(expect).max()


def test_unitary_eigh_matches_ivp_on_constant_segment():
    n = 3
    ham, sched, spec = segment_setup(n, False, True, seed=5)
    sys = dynamics._System(ham, sched, spec)
    rng = np.random.default_rng(2)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    exact = dynamics._propagator(sys, None, 0.0, T_SEG, False)(psi, [T_SEG])[-1]
    stepped = dop853(sys, psi, 0.0, [T_SEG])[-1]
    assert np.abs(stepped - exact).max() <= 1e-12


def test_density_matrix_matches_state_vector_without_loss():
    # a ramped then a constant drive segment: the density matrix takes Taylor
    # steps on the commutator and the eigh conjugation, the state vector Taylor
    # steps on the CSR products and the eigh product
    n = 3
    ham = coupled_register(n, seed=4)
    carrier = ham.eps_K[0] * units.K_TO_GHZ
    env = ((0.0, 0.0), (0.5 * T_SEG, 1.0), (T_SEG, 1.0))
    sched = pulses.PulseSchedule(
        duration=T_SEG, microwave=(pulses.MicrowaveChannel(carrier, 0.15, 0.7, env),),
    )
    spec = EvolutionSpec(sample_times=np.array([0.5 * T_SEG, T_SEG]))
    rng = np.random.default_rng(9)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    vec = evolve(ham, sched, RegisterState("state-vector", n, psi), spec)
    dm = evolve(ham, sched, RegisterState("density-matrix", n, np.outer(psi, psi.conj())), spec)
    for psi_t, rho_t in zip(vec.states, dm.states):
        assert np.abs(rho_t - np.outer(psi_t, psi_t.conj())).max() <= 1e-9


def triangle_swap():
    """0.5 um sites on an equilateral triangle at [0, 0.05, 0.2] mV, pair (0, 1) swapped with dwell/8 ramps."""
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0), (0.5, math.sqrt(3) / 2)))
    ham = qubits.build(geom, voltages=np.array([0.0, 5e-5, 2e-4]))
    dwell = pulses.calibrate_swap(ham, (0, 1), math.pi / 2)
    sched = pulses.swap_schedule(ham, (0, 1), dwell, dwell / 8, dwell / 8)
    # a sample inside and at the end of the rise, the plateau and the fall
    ends = sched.breakpoints()
    return ham, sched, np.sort(np.concatenate([0.5 * (ends[:-1] + ends[1:]), ends[1:]]))


def counted_steps(monkeypatch):
    """Terms of each Taylor step `evolve` takes, one entry per step."""
    steps = []
    original = dynamics._series

    def counted(apply, *args):
        steps.append(0)

        def term(*a):
            steps[-1] += 1
            return apply(*a)
        return original(term, *args)

    monkeypatch.setattr(dynamics, "_series", counted)
    return steps


def test_idle_ramp_on_three_sites_splits_off_the_excitation_phase(monkeypatch):
    from scipy.linalg import expm

    ham, sched, times = triangle_swap()
    spec = EvolutionSpec(sample_times=times)
    psi = RegisterState.state_vector("udd").data
    steps = counted_steps(monkeypatch)
    res = evolve(ham, sched, RegisterState("state-vector", 3, psi), spec)
    # the ramps' steps are set by the detunings, not by w ~ 7.5e11 rad/s: unsplit,
    # DOP853 took 22276 evaluations there
    assert 0 < len(steps) <= 16 and sum(steps) < 1000

    # no split: DOP853 at its floor on the ramps, the exponential of H on the plateau
    sys = dynamics._System(ham, sched, spec)
    ends, expect = sched.breakpoints(), []
    for k, (ta, tb) in enumerate(zip(ends[:-1], ends[1:])):
        now = times[(ta < times) & (times <= tb)]
        if k == 1:
            h = dense_h(sys, 0.5 * (ta + tb))
            expect += [expm(-1j * h * (t - ta)) @ psi for t in now]
        else:
            expect += dop853(sys, psi, ta, now)
        psi = expect[-1]
    # DOP853 on H(t) itself, at its floor, is good to ~1e-11 over the ~1000 rad of w t
    assert np.abs(res.states - expect).max() <= 1e-10


def test_idle_ramp_density_matrix_matches_state_vector(monkeypatch):
    # Taylor steps on the moving voltage, split like the state vector; no loss
    ham, sched, times = triangle_swap()
    spec = EvolutionSpec(sample_times=times)
    rng = np.random.default_rng(9)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    vec = evolve(ham, sched, RegisterState("state-vector", 3, psi), spec)
    steps = counted_steps(monkeypatch)
    dm = evolve(ham, sched, RegisterState("density-matrix", 3, np.outer(psi, psi.conj())), spec)
    # unsplit, DOP853 took 187972 evaluations on the two ramps
    assert 0 < len(steps) <= 16 and sum(steps) < 1000
    for psi_t, rho_t in zip(vec.states, dm.states):
        assert np.abs(rho_t - np.outer(psi_t, psi_t.conj())).max() <= 1e-9


def test_retuning_without_device_map_raises_before_integrating(monkeypatch):
    def integrate(*args):
        raise AssertionError("a segment was integrated")

    monkeypatch.setattr(dynamics, "_propagator", integrate)
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
    taylor = count_calls(monkeypatch, dynamics, "_taylor")
    res = evolve(device_pair, sched, RegisterState.state_vector("ud"),
                 EvolutionSpec(sample_times=[dwell]))
    assert taylor == []
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
    psi_jump = expm(-1j * dense_h(sys, 0.5 * t_jump) * t_jump) @ psi0
    psi_end = expm(-1j * dense_h(sys, 0.5 * (t_jump + t_end)) * (t_end - t_jump)) @ psi_jump
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
    setup = count_calls(monkeypatch, dynamics, "_taylor")
    evolve(ham, sched, RegisterState.density_matrix("ud"), spec)
    assert len(setup) == 1


def test_taylor_failure_names_segment_and_mode():
    ham = single_qubit()
    sched = drive_schedule(T_SEG, 10.0, 1e9, ham.drive_coeff, envelope=((0.0, 0.0), (T_SEG, 1.0)))
    # a lab-frame drive is not linear in t: each step's fit, then its Taylor terms, which a
    # NaN in the start state never lets fall off
    spec = EvolutionSpec(sample_times=[0.5 * T_SEG, T_SEG], frame="lab",
                         tunneling=TunnelingSpec(0.0, T_SEG))
    rho = RegisterState.density_matrix("u").data
    rho[0, 1] = np.nan
    with pytest.raises(RuntimeError) as err:
        evolve(ham, sched, RegisterState("density-matrix", 1, rho), spec)
    assert str(err.value) == (
        f"Taylor series did not converge on [0.0, {T_SEG}] in density-matrix mode with tunneling on"
    )
    psi = np.array([np.nan, 1.0])
    with pytest.raises(RuntimeError) as err:
        evolve(ham, sched, RegisterState("state-vector", 1, psi), EvolutionSpec(sample_times=[T_SEG]))
    assert str(err.value) == (
        f"Taylor series did not converge on [0.0, {T_SEG}] in state-vector mode with tunneling off"
    )


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
    # one ramped piece under Taylor steps
    "ramp-state-vector": (3, ((0.0, 0.2), (T_SEG, 1.0)), None),
    # two Taylor pieces on the Lindblad generator, draining from t = 0
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
               EvolutionSpec(sample_times=grid, tunneling=tunneling)).final_state
        for grid in ([T_SEG], np.linspace(0.0, T_SEG, 4), np.linspace(0.0, T_SEG, 101))
    ]
    assert np.abs(finals[0] - initial.data).max() > 0.1
    assert np.array_equal(finals[0], finals[1])
    assert np.array_equal(finals[0], finals[2])


def test_one_integration_per_piece_matches_chained_restarts():
    n = 3
    ham, sched = driven_register(n, ((0.0, 0.2), (T_SEG, 1.0)))
    sys = dynamics._System(ham, sched, EvolutionSpec(sample_times=[T_SEG]))
    times = np.linspace(0.0, T_SEG, 9)[1:]
    psi = RegisterState.state_vector("udu").data
    once = dynamics._propagator(sys, None, 0.0, T_SEG, False)(psi, times)
    state, t0 = psi, 0.0
    for t1, got in zip(times, once):
        state, t0 = dop853(sys, state, t0, [t1])[-1], t1
        assert np.abs(got - state).max() <= 1e-12


@pytest.mark.parametrize("mode", ["state-vector", "density-matrix"])
def test_evaluations_do_not_track_the_sample_count(monkeypatch, mode):
    # Taylor steps and their terms, the grid fixed by the piece alone
    steps = counted_steps(monkeypatch)
    dm = mode == "density-matrix"
    n = 2 if dm else 3
    ham, sched = driven_register(n, TRIANGLE)
    initial = getattr(RegisterState, mode.replace("-", "_"))("u" + "d" * (n - 1))
    counts = []
    for count in (4, 101):
        steps.clear()
        evolve(ham, sched, initial, EvolutionSpec(
            sample_times=np.linspace(0.0, T_SEG, count),
            budget=loss_budget(3 * T_SEG, 2 * T_SEG) if dm else None,
            tunneling=TunnelingSpec(0.25 * T_SEG, 4 * T_SEG) if dm else None,
        ))
        counts.append(list(steps))
    assert len(counts[0]) >= 2 + dm
    assert counts[1] == counts[0]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    coupling=st.floats(0.0, 2.0),
    envelope=st.sampled_from([(), ((0.0, 0.3), (T_SEG, 1.0)), TRIANGLE]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_state_vector_norm_is_conserved(n, seed, coupling, envelope, fractions):
    # constant envelopes take the eigendecomposition, ramps Taylor steps
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
    A global ramped drive at the mean transition frequency (Taylor steps on a
    slope) competes with the exchange between detuned sites.
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
    assert np.abs(pops - unpermuted_site_populations[:, list(perm)]).max() <= 1e-7


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
    a, b, w = sys.piece(0.5 * T_SEG, T_SEG)
    assert b is not None and w == 0.0
    a, b = sys.dense(a), sys.dense(b)
    rho = random_density_matrix(2**n, seed=n)
    # a Taylor term adds -i[B, rho1] for the coefficient before it
    rho1 = random_density_matrix(2**n, seed=n + 1)
    # D rho in Lindblad form, from the dense collapse operators and drain
    ops, drain = dense_lindblad_terms(n, spec.budget, 4 * T_SEG if tunneling else None)
    dissipated = -(drain @ rho + rho @ drain)
    for op in ops:
        ld = op.conj().T @ op
        dissipated += op @ rho @ op.conj().T - 0.5 * (ld @ rho + rho @ ld)
    for t in T_SEG * np.array([0.5, 0.57, 0.75, 0.93, 1.0]):
        h = dense_h(sys, t)
        expect = (-1j * (h @ rho - rho @ h) + dissipated).reshape(-1)
        applied = liou.apply((a + (t - 0.75 * T_SEG) * b) @ rho, rho.reshape(-1), tunneling)
        assert np.abs(applied - expect).max() <= 1e-13 * np.abs(expect).max()
        expect += (-1j * (b @ rho1 - rho1 @ b)).reshape(-1) * T_SEG
        applied = liou.apply((a + (t - 0.75 * T_SEG) * b) @ rho + T_SEG * b @ rho1,
                             rho.reshape(-1), tunneling)
        assert np.abs(applied - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("tunneling", [False, True], ids=["tunneling-off", "tunneling-on"])
def test_density_matrix_rhs_is_a_fresh_array_and_leaves_y_alone(tunneling):
    # a Taylor step keeps the terms before the last: a reused buffer would overwrite them
    n = 3
    ham = coupled_register(n, seed=n)
    spec = EvolutionSpec(sample_times=[T_SEG], budget=loss_budget(3 * T_SEG, 2 * T_SEG),
                         tunneling=TunnelingSpec(0.0, 4 * T_SEG))
    sys = dynamics._System(ham, ramped_drive(ham, 0.3), spec)
    liou = dynamics._Liouvillian(sys, spec.budget, spec.tunneling)
    h = dense_h(sys, 0.6 * T_SEG)
    y = random_density_matrix(2**n, seed=1).reshape(-1)
    y_before, h_before = y.copy(), h.copy()
    first = liou.apply(h @ y.reshape(h.shape), y, tunneling)
    first_before = first.copy()
    second = liou.apply(h @ y.reshape(h.shape), y, tunneling)
    other = random_density_matrix(2**n, seed=2)
    liou.apply(h @ other, other.reshape(-1), tunneling)
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
        a, _, w = sys.piece(0.0, T_SEG)
        assert (a is not None) == linear
        # the mean qubit frequency splits off wherever no drive is on, a moving voltage too
        assert (w != 0.0) == (not sched.microwave)


def test_density_matrices_never_take_the_level_store(monkeypatch):
    # every density-matrix product multiplies dense matrices: fitted pieces, linear pieces and eigh
    ham, swap, times = triangle_swap()
    driven = coupled_register(3, seed=3)
    psi = RegisterState.state_vector("udd").data
    closed_sv = evolve(driven, pulses.PulseSchedule(duration=T_SEG), RegisterState("state-vector", 3, psi),
                       EvolutionSpec(sample_times=np.linspace(0.0, T_SEG, 5)))

    def level_store(*args):
        raise AssertionError("a density matrix took `_System.apply`")

    monkeypatch.setattr(dynamics._System, "apply", level_store)
    fits = count_calls(monkeypatch, dynamics, "_fit")
    taylor = count_calls(monkeypatch, dynamics, "_taylor")
    initial = RegisterState.density_matrix("udd")
    # a ramped swap with loss on: the ramps' fitted steps around a plateau linear in t
    res = evolve(ham, swap, initial, EvolutionSpec(
        sample_times=times, budget=loss_budget(30 * swap.duration, 20 * swap.duration)))
    assert len(taylor) == 3 and len(fits) > 0
    assert res.population("dud")[-1] > 0.5 and np.abs(res.trace - 1.0).max() <= 1e-12
    # a triangle-envelope pulse with tunneling from its apex: two pieces linear in t
    fits.clear()
    taylor.clear()
    res = evolve(driven, ramped_drive(driven, 0.4), initial, EvolutionSpec(
        sample_times=np.linspace(0.0, T_SEG, 5), budget=loss_budget(3 * T_SEG, 2 * T_SEG),
        tunneling=TunnelingSpec(0.5 * T_SEG, 2 * T_SEG)))
    assert len(taylor) == 2 and fits == []
    assert np.abs(res.trace[:3] - 1.0).max() <= 1e-12 and res.trace[-1] < 0.9  # drained after t_f
    # a closed constant piece: eigh, the state vector's outer product
    taylor.clear()
    res = evolve(driven, pulses.PulseSchedule(duration=T_SEG), initial,
                 EvolutionSpec(sample_times=np.linspace(0.0, T_SEG, 5)))
    assert taylor == []
    for psi_t, rho_t in zip(closed_sv.states, res.states):
        assert np.abs(rho_t - np.outer(psi_t, psi_t.conj())).max() <= 1e-12


@pytest.mark.parametrize("n,tunneling", [(3, False), (4, True)])
def test_ramped_density_matrix_matches_the_per_evaluation_path(monkeypatch, n, tunneling):
    ham = coupled_register(n, seed=2)
    spec = EvolutionSpec(
        sample_times=np.linspace(0.0, T_SEG, 5),
        budget=loss_budget(3 * T_SEG, 2 * T_SEG),
        tunneling=TunnelingSpec(0.3 * T_SEG, 2 * T_SEG) if tunneling else None,
    )
    initial = RegisterState("density-matrix", n, random_density_matrix(2**n, seed=4))
    linear = evolve(ham, ramped_drive(ham, 0.4), initial, spec)
    # the per-step Chebyshev fit of a piece not linear in t
    piece = dynamics._System.piece
    monkeypatch.setattr(dynamics._System, "piece", lambda self, ta, tb: (None, None, piece(self, ta, tb)[2]))
    general = evolve(ham, ramped_drive(ham, 0.4), initial, spec)
    assert np.abs(linear.states - general.states).max() <= 1e-8


@pytest.mark.parametrize("n", [3, 4, 5])
def test_taylor_pieces_match_dop853_at_its_floor(n):
    # DOP853 at its floor, rtol 3e-14, is the reference; a drive detuned by
    # 30/T_SEG makes ||L T|| large, where DOP853 at rtol 1e-11 lands 2.5-3.5e-12 away
    ham = coupled_register(n, seed=5)
    carrier = ham.eps_K[0] * units.K_TO_GHZ + 30.0 / (2 * math.pi * 1e9 * T_SEG)
    sched = pulses.PulseSchedule(
        duration=T_SEG, microwave=(pulses.MicrowaveChannel(carrier, 0.6, 0.4, TRIANGLE),),
    )
    spec = EvolutionSpec(
        sample_times=np.linspace(0.0, T_SEG, 5),
        budget=loss_budget(3 * T_SEG, 2 * T_SEG), tunneling=TunnelingSpec(0.5 * T_SEG, 2 * T_SEG),
    )
    initial = RegisterState.density_matrix("u" + "d" * (n - 1))
    taylor = evolve(ham, sched, initial, spec)
    sys = dynamics._System(ham, sched, spec)
    liou = dynamics._Liouvillian(sys, spec.budget, spec.tunneling)
    state, floor = initial.data, [initial.data]
    for ta, tb in ((0.0, 0.5 * T_SEG), (0.5 * T_SEG, T_SEG)):  # the apex, where tunneling starts
        floor += dop853(sys, state, ta, [ta + 0.5 * (tb - ta), tb], liou, ta > 0)
        state = floor[-1]
    assert np.abs(taylor.states[-1] - initial.data).max() > 0.1
    assert np.abs(taylor.states - np.array(floor)).max() <= 1e-12


def swap_case(sites, volts, over, mode="state-vector"):
    """A swap of sites 0 and 1 with ramps of dwell/over, sampled inside and at the end of each piece."""
    ham = qubits.build(qubits.DeviceGeometry(pitch=0.5e-4, sites=sites), voltages=np.array(volts))
    dwell = pulses.calibrate_swap(ham, (0, 1), math.pi / 2)
    sched = pulses.swap_schedule(ham, (0, 1), dwell, dwell / over, dwell / over)
    ends = sched.breakpoints()
    spec = EvolutionSpec(sample_times=np.sort(np.concatenate([0.5 * (ends[:-1] + ends[1:]), ends[1:]])))
    rng = np.random.default_rng(over)
    psi = rng.normal(size=2 ** len(sites)) + 1j * rng.normal(size=2 ** len(sites))
    psi /= np.linalg.norm(psi)
    initial = RegisterState("state-vector", len(sites), psi)
    if mode == "density-matrix":
        initial = RegisterState("density-matrix", len(sites), np.outer(psi, psi.conj()))
    return ham, sched, initial, spec


def driven_case(n, frame):
    """`driven_register` under its TRIANGLE drive; the lab frame at a 1 GHz-scale carrier."""
    ham, sched = driven_register(n, TRIANGLE)
    if frame == "lab":
        ham = coupled_register(n, seed=3, eps_K=0.05)
        carrier = ham.eps_K[0] * units.K_TO_GHZ
        sched = pulses.PulseSchedule(
            duration=T_SEG, microwave=(pulses.MicrowaveChannel(carrier, 0.05, 0.3, TRIANGLE),))
    return ham, sched, RegisterState.state_vector("u" + "d" * (n - 1)), EvolutionSpec(
        sample_times=np.linspace(0.0, T_SEG, 5), frame=frame)


PAIR = ((0, 0), (1, 0)), (0.0, 5e-5)
TRIPLE = ((0, 0), (1, 0), (0.5, math.sqrt(3) / 2)), (0.0, 5e-5, 2e-4)
CROSS_PATH_CASES = {
    # moving voltages: each step's Chebyshev fit, the plateau between them eigh
    **{f"ramp-n{len(sites)}-dwell-over-{over}": lambda sites=sites, volts=volts, over=over:
       swap_case(sites, volts, over) for sites, volts in (PAIR, TRIPLE) for over in (16, 8, 4)},
    # a triangle drive: two pieces linear in t
    "triangle-state-vector-n6": lambda: driven_case(6, "rwa"),
    "triangle-state-vector-n7": lambda: driven_case(7, "rwa"),
    # a lab-frame cosine, fitted step by step
    "lab-frame-drive": lambda: driven_case(2, "lab"),
    "density-matrix-moving-voltage": lambda: swap_case(*PAIR, 8, "density-matrix"),
}


@pytest.mark.parametrize("case", CROSS_PATH_CASES)
def test_every_taylor_path_matches_dop853_at_its_floor(case):
    ham, sched, initial, spec = CROSS_PATH_CASES[case]()
    res = evolve(ham, sched, initial, spec)
    assert np.abs(res.states[-1] - res.states[0]).max() > 0.1
    assert np.abs(res.states - dop853_evolve(ham, sched, initial, spec)).max() <= 1e-12


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


def test_eigh_keeps_closed_density_matrices_and_the_reread_plateau(monkeypatch, device_pair):
    # one closed constant piece of 7 qubits, past _EXACT_DIM_MAX: a state vector read once takes
    # Taylor steps, a density matrix and `piece_propagator` (read once per refine trial) take eigh
    swaps = []  # built before the spies: a device build takes eigh of the hydrogenic basis
    for ham in (device_pair, triangle_swap()[0]):
        dwell = pulses.calibrate_swap(ham, (0, 1), math.pi / 2)
        swaps.append((ham, pulses.swap_schedule(ham, (0, 1), dwell, dwell / 8, dwell / 8)))
    taylor = count_calls(monkeypatch, dynamics, "_taylor")
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    n = 7
    assert 2**n > dynamics._EXACT_DIM_MAX
    ham, sched = driven_register(n, ())
    spec = EvolutionSpec(sample_times=np.linspace(0.0, T_SEG, 3))
    by_vector = evolve(ham, sched, RegisterState.state_vector("u" + "d" * (n - 1)), spec)
    assert len(taylor) == 1
    by_matrix = evolve(ham, sched, RegisterState.density_matrix("u" + "d" * (n - 1)), spec)
    plateau = dynamics.piece_propagator(ham, sched, 0.0, T_SEG)(by_vector.states[0], spec.sample_times[1:])
    assert len(taylor) == 1
    psi = by_vector.states
    assert np.abs(by_matrix.states - np.einsum("ti,tj->tij", psi, psi.conj())).max() <= 1e-12
    assert np.abs(np.array(plateau) - psi[1:]).max() <= 1e-12
    # the drive's sin(phi) != 0 fills H_Y: H is complex Hermitian
    assert [h.dtype for h, in eigh] == [np.complex128] * 2
    # a swap plateau is real symmetric, through `evolve` and `piece_propagator`: the real solver
    for ham, sched in swaps:
        eigh.clear()
        _, rise, fall, end = sched.breakpoints()
        bits = "u" + "d" * (ham.n_qubits - 1)
        evolve(ham, sched, RegisterState.state_vector(bits), EvolutionSpec(sample_times=[end]))
        dynamics.piece_propagator(ham, sched, rise, fall)
        assert [h.dtype for h, in eigh] == [np.float64] * 2


def test_real_eigh_plateau_matches_taylor_steps_at_seven_sites(monkeypatch):
    # bench/layers.py's refine_ramped_n7 device: the triangle and a row of 4 sites 0.1 mV apart
    sites = ((0, 0), (1, 0), (0.5, math.sqrt(3) / 2), *((k, 3) for k in range(4)))
    ham = qubits.build(qubits.DeviceGeometry(pitch=0.5e-4, sites=sites),
                       voltages=np.array([0.0, 5e-5, *(2e-4 + 1e-4 * np.arange(5))]))
    dwell = pulses.calibrate_swap(ham, (0, 1), 0.3 * math.pi)
    sched = pulses.swap_schedule(ham, (0, 1), dwell, dwell / 16, dwell / 16)
    _, rise, fall, _ = sched.breakpoints()
    rng = np.random.default_rng(7)
    psi = rng.normal(size=2**7) + 1j * rng.normal(size=2**7)
    psi /= np.linalg.norm(psi)
    times = rise + np.array([0.25, 0.5, 1.0]) * (fall - rise)
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    exact = dynamics.piece_propagator(ham, sched, rise, fall)(psi, times)
    assert [h.dtype for h, in eigh] == [np.float64]
    monkeypatch.setattr(dynamics, "_REREAD_DIM_MAX", 0)
    taylor = count_calls(monkeypatch, dynamics, "_taylor")
    stepped = dynamics.piece_propagator(ham, sched, rise, fall)(psi, times)
    assert len(taylor) == 1 and len(eigh) == 1
    assert np.abs(np.array(exact) - np.array(stepped)).max() <= 1e-12


def test_linear_pieces_build_h_a_fixed_number_of_times(monkeypatch):
    dense = count_calls(monkeypatch, dynamics._System, "dense")
    drive_xy = count_calls(monkeypatch, dynamics._System, "drive_xy")
    piece = count_calls(monkeypatch, dynamics._System, "piece")
    ham = coupled_register(3, seed=1)
    for samples in ([T_SEG], np.linspace(0.0, T_SEG, 9)):
        evolve(ham, ramped_drive(ham, 0.4), RegisterState.density_matrix("udd"), EvolutionSpec(
            sample_times=samples, budget=loss_budget(3 * T_SEG, 2 * T_SEG),
            tunneling=TunnelingSpec(0.5 * T_SEG, 2 * T_SEG),
        ))
        # two Taylor pieces, each reading H at its midpoint and two interior points and making
        # A and B dense once, whatever the samples
        assert len(piece) == 2 and len(drive_xy) == 6 and len(dense) == 4
        del piece[:], dense[:], drive_xy[:]
    # a state vector takes Taylor steps on coefficient vectors there, and no piece builds it a dense H
    evolve(ham, ramped_drive(ham, 0.4), RegisterState.state_vector("udd"), EvolutionSpec([T_SEG]))
    assert len(piece) == len(drive_xy) // 3 == 2 and dense == []


# --- the flip-term products against scipy.sparse's CSR kernels, bit for bit ---


def csr_of_terms(terms, size):
    """SciPy CSR of sum of terms (m, vals), vals[i] at (i, i ^ m): zeros dropped, each row's
    entries in term order, as the kernels add them."""
    from scipy.sparse import csr_matrix

    idx = np.arange(size)
    data = np.concatenate([np.broadcast_to(v, (size,)).astype(complex) for _, v in terms])
    rows, cols = np.tile(idx, len(terms)), np.concatenate([idx ^ m for m, _ in terms])
    keep = np.flatnonzero(data != 0)
    order = keep[np.argsort(rows[keep], kind="stable")]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=size))))
    return csr_matrix((data[order], cols[order].astype(np.int32), indptr.astype(np.int32)),
                      shape=(size, size))


def register_terms(ham, drive):
    """(H_0, H_X, H_Y) as flip terms, from the documented register Hamiltonian."""
    n, dim = ham.n_qubits, 2**ham.n_qubits
    z = 2.0 * ((np.arange(dim)[None, :] >> np.arange(n)[:, None]) & 1) - 1.0
    szsz, hops = np.zeros(dim), []
    for i in range(n):
        for j in range(i + 1, n):
            szsz = szsz + 0.25 * ham.a_K[i, j] * K_RAD * z[i] * z[j]
            hops.append((1 << i | 1 << j, np.where(z[i] != z[j], 0.5 * ham.b_K[i, j] * K_RAD, 0.0)))
    ops = [[(0, szsz), *hops]]
    if drive:
        ops += [[(1 << q, 1.0) for q in range(n)], [(1 << q, -1j * z[q]) for q in range(n)]]
    return ops


def with_zeros(a, rng):
    """a with a fifth of its real and imaginary parts set to +0 or -0."""
    parts = a.view(float).copy()
    hit = rng.random(parts.shape) < 0.2
    parts[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return parts.view(complex)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# the operators' own row blocks, and blocks of 8 rows: several blocks from 4 qubits on
ROW_BLOCKS = pytest.mark.parametrize("row_block", [dynamics._ROW_BLOCK, 8], ids=["blocks", "blocks-of-8"])


@ROW_BLOCKS
@pytest.mark.parametrize("drive", [True, False], ids=["drive-on", "drive-off"])
@pytest.mark.parametrize("n", range(1, 10))
def test_flip_products_equal_csr_kernels(monkeypatch, n, drive, row_block):
    # SciPy's csr_matvec adds each row's entries in order, after the diagonal products einsum
    # sums from +0: the products must be the same bits, signed zeros included
    from scipy.sparse._sparsetools import csr_matvec

    monkeypatch.setattr(dynamics, "_ROW_BLOCK", row_block)
    dim = 2**n
    ham = coupled_register(n, seed=n)
    sched = ramped_drive(ham, 0.4) if drive else pulses.PulseSchedule(duration=T_SEG)
    sys = dynamics._System(ham, sched, EvolutionSpec(sample_times=[T_SEG]))
    csrs = [csr_of_terms(terms, dim) for terms in register_terms(ham, drive)]
    assert len(sys.h) == len(csrs)
    for m, norm in zip(csrs, sys.norms):
        assert norm == np.bincount(m.indices, abs(m.data), minlength=dim).max()
    rng = np.random.default_rng(n)
    coeffs = [sys.coefficients(t) for t in T_SEG * np.array([0.6, 0.7, 0.9])]
    # H_Y left out of the first coefficient vector, the drive out of the last; a slope's H_0 is 0
    coeffs[0][dim + 2:] = 0.0
    coeffs[-1][dim + 1:] = 0.0
    slope = [coeffs[1], coeffs[2] - coeffs[1]]
    for hs in ([coeffs[0]], coeffs[:2], coeffs, [coeffs[-1]], slope):
        cs = [with_zeros(rng.normal(size=dim) + 1j * rng.normal(size=dim), rng) for _ in hs]
        v, c = np.asarray(hs), np.array(cs)
        expect = np.einsum("jd,jde->de", v[:, :dim], c.reshape(len(c), dim, -1))
        for k, m in enumerate(csrs):
            if (f := v[:, dim + k]).any():
                csr_matvec(dim, dim, m.indptr, m.indices, m.data, f @ c, expect)
        assert same_bits(sys.apply(hs, cs), expect.reshape(-1))


@ROW_BLOCKS
@pytest.mark.parametrize("tunneling", [True, False], ids=["tunneling-on", "tunneling-off"])
@pytest.mark.parametrize("n", range(1, 7))
def test_dissipator_products_equal_csr_kernel(monkeypatch, n, tunneling, row_block):
    from scipy.sparse._sparsetools import csr_matvec

    monkeypatch.setattr(dynamics, "_ROW_BLOCK", row_block)
    dim = 2**n
    ham, sched, spec = segment_setup(n, True, True, seed=n)
    sys = dynamics._System(ham, sched, spec)
    liou = dynamics._Liouvillian(sys, spec.budget, spec.tunneling)
    # D from its documented channels: jumps at both indices, then decay and the drain
    idx = np.arange(dim)
    g1, gphi = 1.0 / spec.budget.t1_s, 1.0 / spec.budget.t2_eff_s
    occ = (idx[None, :] >> np.arange(n)[:, None]) & 1
    decay = sum(-0.5 * g1 * (o[:, None] + o[None, :]) - gphi * (o[:, None] != o[None, :]) for o in occ)
    drain = occ.sum(axis=0) / (2.0 * spec.tunneling.t_up) if tunneling else np.zeros(dim)
    terms = [(0, (decay - (drain[:, None] + drain[None, :])).reshape(-1)),
             *(((1 << q) * (dim + 1), (g1 * np.outer(1 - o, 1 - o)).reshape(-1)) for q, o in enumerate(occ))]
    d = csr_of_terms(terms, dim * dim)
    assert liou.norms[tunneling] == abs(d).sum(axis=0).max()
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = with_zeros(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), rng)
        y = with_zeros(rng.normal(size=dim * dim) + 1j * rng.normal(size=dim * dim), rng)
        expect = np.subtract(x, x.conj().T, order="C")
        expect *= -1j
        csr_matvec(dim * dim, dim * dim, d.indptr, d.indices, d.data, y, expect.reshape(-1))
        assert same_bits(liou.apply(x, y, tunneling), expect.reshape(-1))
