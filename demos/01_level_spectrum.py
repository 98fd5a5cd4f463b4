"""Vertical level structure of a surface electron and its Stark tuning.

The electron floats in the image potential of the helium surface, a 1D
hydrogen-like well with a ~7.6 K Rydberg and a 76-angstrom Bohr radius.
A vertical pressing field moves every level; the two lowest states form
the qubit, and their splitting tunes at about 0.8 GHz per V/cm.
"""
import numpy as np

from helioq import hydrogenic, qubits, units

lam = units.image_strength(units.EPSILON_HE)
rydberg_K, bohr_cm = hydrogenic.rydberg_scales(lam)

print(f"image strength        Lambda = {lam:.6f}")
print(f"effective Rydberg     R   = {rydberg_K:.4f} K = {rydberg_K * units.K_TO_GHZ:.2f} GHz")
print(f"effective Bohr radius r_B = {bohr_cm * 1e8:.2f} angstrom")
print()

basis = hydrogenic.HydrogenicBasisSpec(lam=lam)
energies = hydrogenic.levels(basis, 0.0)
print("zero-field ladder (lowest five levels):")
for m in range(1, 6):
    line = f"  m={m}:  E = {energies[m-1]:+9.5f} K"
    if m > 1:
        nu = (energies[m - 1] - energies[0]) * units.K_TO_GHZ
        line += f"   1->{m} transition = {nu:8.3f} GHz"
    print(line)
print()
# the qubit dipoles of one electrode at zero pressing field
site = qubits.build(qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0),)), basis=basis)
print(f"dipole sizes:  <1|z|1> = {site.z11_cm[0]*1e7:.2f} nm,"
      f"  <2|z|2> = {site.z22_cm[0]*1e7:.2f} nm,"
      f"  |<1|z|2>| = {abs(site.z12_cm[0])*1e7:.3f} nm")
print()

print("Stark tuning at zero field:")
for m in (1, 2):
    rate = hydrogenic.stark_rate(basis, m)
    print(f"  level {m}: {rate:.4f} GHz per (V/cm)")
print()

print("transition versus pressing field:")
for field in np.linspace(0.0, 100.0, 6):
    nu = hydrogenic.transition_K(basis, field) * units.K_TO_GHZ
    print(f"  E_perp = {field:6.1f} V/cm   nu_12 = {nu:8.3f} GHz")
