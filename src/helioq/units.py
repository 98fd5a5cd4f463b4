"""Physical constants and fixed conversion factors for the electron-on-helium system.

Canonical internal units: energy in kelvin, length in centimeter, time in
second, electric field in V/cm, magnetic field in tesla, and the Gaussian
convention for the squared electron charge (e^2 in erg cm).  Energies and
ordinary frequencies interconvert through k_B and h (`K_TO_GHZ`), so "8 K"
and "167 GHz" are the same quantity up to the published constant ratio.

Constants are CODATA 2018 values at full published precision; the helium
material parameters are the standard low-temperature values for superfluid
He-4.
"""
from __future__ import annotations

# --- fundamental constants (CGS-Gaussian) ---
K_B = 1.380649e-16          # erg/K (exact)
H_PLANCK = 6.62607015e-27   # erg s (exact)
HBAR = 1.054571817e-27      # erg s
E_CHARGE = 4.80320471257e-10  # statC
E_SQ = E_CHARGE**2          # erg cm
M_E = 9.1093837015e-28      # g
C_LIGHT = 2.99792458e10     # cm/s (exact)
G_ACC = 980.665             # cm/s^2 (standard gravity)
EV_ERG = 1.602176634e-12    # erg per eV (exact); also e * (1 volt) in erg

# --- derived conversion factors ---
K_TO_GHZ = K_B / H_PLANCK / 1e9        # 20.8366... GHz per kelvin
K_TO_RAD_PER_S = K_B / HBAR            # angular frequency per kelvin
E_SQ_K_CM = E_SQ / K_B                 # e^2 in K cm (Gaussian)
# e * (1 V/cm) * (1 cm) as an energy, in kelvin
EVCM_K = EV_ERG / K_B                  # 11604.5... K per (V/cm * cm)

# --- liquid-helium material parameters ---
SIGMA_HE = 0.37             # erg/cm^2 surface tension
RHO_HE = 0.145              # g/cm^3 density
EPSILON_HE = 1.057          # dielectric constant


def image_strength(epsilon: float) -> float:
    """Dimensionless image-potential strength (eps - 1) / (4 (eps + 1)).

    For liquid helium (epsilon = 1.057) this is about 0.0069; the derived
    binding scales are R ~ 7.6 K (~158 GHz) and r_B ~ 76 angstrom.  The
    value is kept at formula precision rather than rounded to 0.01 because
    those derived scales are only consistent with the former.
    """
    if epsilon <= 1.0:
        raise ValueError(
            f"epsilon must exceed 1 for an attractive image potential, got {epsilon}"
        )
    return (epsilon - 1.0) / (4.0 * (epsilon + 1.0))
