"""State-selective tunneling readout and the detector image.

Reversing the vertical field thins the barrier seen by the excited state
by far more than the ground state's, because the escape exponent scales
with the binding energy to the 3/2.  A few V/cm buys an astronomically
selective window: the excited electron leaves in a fraction of the wait,
the ground electron essentially never does.  Escaped electrons land on a
position-sensitive plate; the shot histogram is the computation's answer.
"""
import math

import numpy as np

from helioq import dynamics, pulses, qubits, readout, units
from helioq.hydrogenic import HydrogenicBasisSpec, levels

lam = units.image_strength(units.EPSILON_HE)
energies = levels(HydrogenicBasisSpec(lam=lam), 0.0)

print("escape rates versus reverse field:")
for e_plus in (2.0, 4.0, 6.0, 10.0, 20.0):
    r1 = readout.tunnel_rate(lam, energies[0], e_plus)
    r2 = readout.tunnel_rate(lam, energies[1], e_plus)
    print(f"  E+ = {e_plus:5.1f} V/cm   rate(ground) = {r1:9.3e} /s"
          f"   rate(excited) = {r2:9.3e} /s")
print()

wait = 1e-6
plan = readout.plan(lam, energies, wait, selectivity=1e6,
                    site_positions_cm=np.array([[0.0, 0.0], [0.5e-4, 0.0]]))
print(f"plan for a {wait*1e6:.1f} us wait:")
print(f"  reverse field   E+  = {plan.e_plus:.4f} V/cm")
print(f"  excited escape  t_2 = {plan.t_2:.3e} s")
t1 = "effectively never" if plan.t_1 > 1e30 else f"{plan.t_1:.3e} s"
print(f"  ground escape   t_1 = {t1}")
print()

# survival of each site from the trace of the tunneling evolution
ham = qubits.QubitArrayHamiltonian.from_parameters(eps_K=[energies[1] - energies[0]])
hold = pulses.PulseSchedule(duration=wait)
survival = []
for bits in ("u", "d"):
    res = dynamics.evolve(
        ham, hold, dynamics.RegisterState.density_matrix(bits),
        dynamics.EvolutionSpec(
            sample_times=np.array([wait]),
            tunneling=dynamics.TunnelingSpec(t_f=0.0, t_up=plan.t_2),
        ),
    )
    survival.append(res.trace[-1])
print(f"survival after the wait: excited site {survival[0]:.6f}, "
      f"ground site {survival[1]:.6f}")
print(f"(analytic: exp(-wait/t_2) = {math.exp(-wait/plan.t_2):.6f})")
print()

escaped, image = readout.sample_shots(survival, plan, shots=2000, seed=42)
total = sum(image.values())
print(f"2000 shots, {total} electrons detected; pixel histogram:")
for px, count in sorted(image.items()):
    print(f"  pixel {px}: {count}")
frac = escaped[:, 0].mean()
print(f"excited-site escape fraction: {frac:.4f} "
      f"(expected {1 - survival[0]:.4f})")
