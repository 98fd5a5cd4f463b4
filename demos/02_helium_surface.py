"""The helium surface as an environment: ripplons and the electron crystal.

Thermal capillary waves (ripplons) are the only significant coupling to
the outside world below ~0.7 K.  At 10 mK the surface roughness is only
~0.2 angstrom, which is why the qubit survives so long.  The electron
sheet itself crystallizes once the Coulomb coupling Gamma passes ~130.
"""
import numpy as np

from helioq import medium

temperature = 0.01  # K
print(f"thermal surface roughness at {temperature*1e3:.0f} mK: "
      f"{medium.thermal_amplitude(temperature):.3e} cm")
print()

print("ripplon dispersion (gravity branch -> capillary branch):")
for k in np.geomspace(1.0, 1e6, 7):
    omega = medium.ripplon_omega(k)
    print(f"  k = {k:9.2e} /cm   omega = {omega:9.3e} /s"
          f"   hbar omega = {medium.ripplon_energy_K(k):.3e} K")
print()

sheet = medium.ElectronSheet(density=4.5e8, b_field=1.5)
print("Wigner crystallization at n = 4.5e8 /cm^2:")
for t in (0.3, 0.457, 0.6, 1.2):
    crystal, margin = medium.is_crystal(sheet, t, medium.GAMMA_MELT_PHASE_BOUNDARY)
    state = "crystal" if crystal else "fluid"
    print(f"  T = {t:5.3f} K   Gamma = {medium.plasma_parameter(sheet, t):7.2f}"
          f"   {state} (margin {margin:.2f})")
print()

print("melting line T_m(n) on the Gamma = 137 boundary:")
for n in np.geomspace(1e7, 1e9, 5):
    print(f"  n = {n:8.2e} /cm^2   T_m = {medium.melting_temperature(n, 137.0):.4f} K")
print()

print("collective modes of the crystal (long wavelength):")
k = 0.01 * np.sqrt(sheet.density)
for branch in ("longitudinal", "magnetoplasma-low", "magnetoplasma-high"):
    omega = medium.collective_mode(sheet, branch, k)
    print(f"  {branch:18s} omega(k={k:.2e}) = {omega:.4e} /s")
scales = medium.magnetic_quantities(sheet.b_field, 0.5e-4)
print(f"\nmagnetic scales at B = {sheet.b_field} T, pitch 0.5 um:"
      f"  cyclotron {scales.omega_c_K:.3f} K,"
      f"  length {scales.length_cm*1e8:.1f} A,"
      f"  bandwidth {scales.omega_zb_K:.3f} K")
