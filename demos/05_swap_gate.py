"""Two-qubit swap gate driven by the always-on dipole coupling.

Neighboring electrons exchange excitation through their vertical dipoles
(the B coupling, ~5 mK at half-micron spacing).  Detuned qubits barely
talk; ramping one electrode onto resonance for a calibrated dwell executes
cos(a)|du> - i sin(a)|ud> exactly like the two-level oracle predicts.
"""
import math

import numpy as np

from helioq import dynamics, pulses, qubits, units

geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
# a 0.05 mV static bias detunes the pair by ~8x the exchange coupling
ham = qubits.build(geom, voltages=np.array([0.0, 5e-5]))

b_K = ham.b_K[0, 1]
print(f"transitions: {ham.eps_GHz[0]:.4f} and {ham.eps_GHz[1]:.4f} GHz")
print(f"couplings:   A = {ham.a_K[0,1]:.4f} K,  B = {b_K*1e3:.4f} mK")
print(f"exchange rate B/(2 hbar) = {b_K*units.K_B/(2*units.HBAR):.3e} /s")
print()

for alpha, label in ((math.pi / 2, "full swap"), (math.pi / 4, "half swap")):
    dwell = pulses.calibrate_swap(ham, (0, 1), alpha)
    sched = pulses.swap_schedule(ham, (0, 1), dwell)   # instantaneous ramps
    res = dynamics.evolve(
        ham, sched, dynamics.RegisterState.state_vector("ud"),
        dynamics.EvolutionSpec(sample_times=np.array([dwell])),
    )
    final = res.final_state
    a_src = abs(final[dynamics.basis_index("ud")])
    a_dst = abs(final[dynamics.basis_index("du")])
    print(f"{label}: alpha = {alpha:.4f}, dwell = {dwell*1e9:.3f} ns")
    print(f"  |amp ud| = {a_src:.6f} (target {abs(math.cos(alpha)):.6f})")
    print(f"  |amp du| = {a_dst:.6f} (target {abs(math.sin(alpha)):.6f})")
print()

# the population exchange seen along the dwell
alpha = math.pi / 2
dwell = pulses.calibrate_swap(ham, (0, 1), alpha)
sched = pulses.swap_schedule(ham, (0, 1), dwell)
times = np.linspace(0.0, dwell, 11)
res = dynamics.evolve(
    ham, sched, dynamics.RegisterState.state_vector("ud"),
    dynamics.EvolutionSpec(sample_times=times),
)
print("population transfer during the resonant dwell:")
for t, p_ud, p_du in zip(times, res.population("ud"), res.population("du")):
    print(f"  t = {t*1e9:6.3f} ns   P(ud) = {p_ud:.4f}   P(du) = {p_du:.4f}")
