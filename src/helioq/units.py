"""Physical constants and unit conversions for the electron-on-helium system.

Canonical internal units: energy in kelvin, length in centimeter, time in
second, electric field in V/cm, magnetic field in tesla, and the Gaussian
convention for the squared electron charge (e^2 in erg cm).  Energies and
ordinary frequencies interconvert through k_B and h, so "8 K" and "167 GHz"
are the same quantity up to the published constant ratio.

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
# e * (1 V/cm) as a force, in dyn
E_FORCE_PER_VCM = EV_ERG               # dyn per (V/cm)

# --- liquid-helium material parameters ---
SIGMA_HE = 0.37             # erg/cm^2 surface tension
RHO_HE = 0.145              # g/cm^3 density
EPSILON_HE = 1.057          # dielectric constant


class UnitError(ValueError):
    """Raised when a conversion is requested between incommensurable units."""


# unit name -> (dimension, factor to the canonical unit of that dimension).
# Energies and frequencies share a dimension: 1 GHz = h * 1e9 / k_B kelvin.
_UNITS = {
    # energy / frequency (canonical: K)
    "K": ("energy", 1.0),
    "mK": ("energy", 1e-3),
    "GHz": ("energy", 1.0 / K_TO_GHZ),
    "MHz": ("energy", 1e-3 / K_TO_GHZ),
    "Hz": ("energy", 1e-9 / K_TO_GHZ),
    "erg": ("energy", 1.0 / K_B),
    "eV": ("energy", EV_ERG / K_B),
    "J": ("energy", 1e7 / K_B),
    # length (canonical: cm)
    "cm": ("length", 1.0),
    "m": ("length", 1e2),
    "um": ("length", 1e-4),
    "nm": ("length", 1e-7),
    "angstrom": ("length", 1e-8),
    # time (canonical: s)
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    # electric field (canonical: V/cm)
    "V/cm": ("efield", 1.0),
    "V/m": ("efield", 1e-2),
    "statvolt/cm": ("efield", C_LIGHT / 1e8),
    # magnetic field (canonical: T)
    "T": ("bfield", 1.0),
    "G": ("bfield", 1e-4),
}


def convert(value: float, src: str, dst: str) -> float:
    """Convert `value` from unit `src` to unit `dst`.

    Energy and frequency units are commensurable (related by k_B and h);
    any other cross-dimension request raises UnitError naming both units.
    """
    try:
        dim_s, fac_s = _UNITS[src]
    except KeyError:
        raise UnitError(f"unknown unit {src!r}") from None
    try:
        dim_d, fac_d = _UNITS[dst]
    except KeyError:
        raise UnitError(f"unknown unit {dst!r}") from None
    if dim_s != dim_d:
        raise UnitError(f"cannot convert {src!r} ({dim_s}) to {dst!r} ({dim_d})")
    return value * fac_s / fac_d


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
