"""Ripplon dispersion, thermal surface statistics, and collective electron modes.

Capillary waves on the superfluid surface follow omega^2(k) = g k +
(sigma/rho) k^3, with the helium-4 constants of `units`; their thermal
occupation sets the rms surface displacement delta_T = sqrt(k_B T / sigma)
that drives qubit decoherence.  The electron sheet itself is characterized
by the Coulomb-to-thermal ratio Gamma = e^2 sqrt(pi n) / k_B T: above ~130
the electrons freeze into a triangular crystal whose long-wavelength
phonons (and their magnetic-field counterparts) are available in
`collective_mode`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import (
    C_LIGHT,
    E_CHARGE,
    E_SQ,
    G_ACC,
    HBAR,
    K_B,
    M_E,
    RHO_HE,
    SIGMA_HE,
)

__all__ = [
    "GAMMA_MELT_DEFAULT",
    "GAMMA_MELT_PHASE_BOUNDARY",
    "ElectronSheet",
    "MagneticScales",
    "collective_mode",
    "magnetic_length",
    "is_crystal",
    "magnetic_quantities",
    "melting_temperature",
    "plasma_parameter",
    "ripplon_energy_K",
    "ripplon_omega",
    "thermal_amplitude",
]

# Melting threshold of the classical 2D electron crystal.  The theoretical
# estimate is ~130; the measured phase boundary is fit by 137.
GAMMA_MELT_DEFAULT = 130.0
GAMMA_MELT_PHASE_BOUNDARY = 137.0


@dataclass(frozen=True)
class ElectronSheet:
    """Areal electron density (cm^-2) and perpendicular magnetic field (T)."""

    density: float
    b_field: float = 0.0

    def __post_init__(self):
        if self.density <= 0:
            raise ValueError(f"density must be positive, got {self.density}")
        if self.b_field < 0:
            raise ValueError(f"b_field must be nonnegative, got {self.b_field}")


def ripplon_omega(k):
    """Capillary-gravity angular frequency sqrt(g k + (sigma/rho) k^3), s^-1."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise ValueError("wavevector must be positive")
    out = np.sqrt(G_ACC * k + (SIGMA_HE / RHO_HE) * k**3)
    return float(out) if out.ndim == 0 else out


def ripplon_energy_K(k):
    """hbar omega(k) expressed in kelvin."""
    return ripplon_omega(k) * HBAR / K_B


def thermal_amplitude(temperature: float) -> float:
    """Root-mean-square thermal surface displacement sqrt(k_B T / sigma) at T (K), cm."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return math.sqrt(K_B * temperature / SIGMA_HE)


def plasma_parameter(sheet: ElectronSheet, temperature: float) -> float:
    """Coulomb-to-thermal ratio Gamma = e^2 sqrt(pi n) / k_B T."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return E_SQ * math.sqrt(math.pi * sheet.density) / (K_B * temperature)


def is_crystal(
    sheet: ElectronSheet,
    temperature: float,
    gamma_melt: float = GAMMA_MELT_DEFAULT,
) -> tuple[bool, float]:
    """Whether the sheet is a Wigner crystal, with margin Gamma / Gamma_melt.

    The boundary is inclusive: Gamma == gamma_melt counts as crystal.
    """
    margin = plasma_parameter(sheet, temperature) / gamma_melt
    return margin >= 1.0, margin


def melting_temperature(density: float, gamma_melt: float = GAMMA_MELT_DEFAULT) -> float:
    """Temperature (K) at which Gamma(n, T) crosses gamma_melt."""
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    return E_SQ * math.sqrt(math.pi * density) / (K_B * gamma_melt)


def _plasma_frequency(density: float) -> float:
    return math.sqrt(2.0 * math.pi * E_SQ * density**1.5 / M_E)


def collective_mode(
    sheet: ElectronSheet,
    branch: str,
    k,
    shear_speed: float | None = None,
):
    """Long-wavelength mode frequency (s^-1) of the electron sheet.

    Branches: "longitudinal" phonons omega_p (k/sqrt(n))^(1/2) with
    omega_p = sqrt(2 pi e^2 n^(3/2) / m_e); "shear-acoustic" c_t k with a
    caller-supplied speed (no universal coefficient exists at this level);
    in a perpendicular field the spectrum reorganizes into
    "magnetoplasma-high" sqrt(omega_c^2 + omega_p^2 k/sqrt(n)), starting
    from the cyclotron frequency at k = 0, and "magnetoplasma-low"
    (omega_p^2/omega_c) (k/sqrt(n))^(3/2).

    Only the long-wavelength regime k <= 0.2 sqrt(n) is served.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ValueError("wavevector must be nonnegative")
    sqrt_n = math.sqrt(sheet.density)
    if np.any(k > 0.2 * sqrt_n):
        raise ValueError(
            f"wavevector outside the long-wavelength regime k <= 0.2 sqrt(n) "
            f"= {0.2 * sqrt_n:.3e} cm^-1"
        )
    omega_p = _plasma_frequency(sheet.density)
    if branch == "longitudinal":
        out = omega_p * np.sqrt(k / sqrt_n)
    elif branch == "shear-acoustic":
        if shear_speed is None:
            raise ValueError("shear-acoustic branch requires an explicit shear_speed")
        out = shear_speed * k
    elif branch in ("magnetoplasma-low", "magnetoplasma-high"):
        if sheet.b_field <= 0:
            raise ValueError(f"{branch} requires a positive magnetic field")
        omega_c = E_CHARGE * (sheet.b_field * 1e4) / (M_E * C_LIGHT)
        if branch == "magnetoplasma-low":
            out = (omega_p**2 / omega_c) * (k / sqrt_n) ** 1.5
        else:
            out = np.sqrt(omega_c**2 + omega_p**2 * (k / sqrt_n))
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return float(out) if np.ndim(out) == 0 else out


def magnetic_length(b_field: float) -> float:
    """Magnetic length (hbar c / e B)^(1/2) in cm."""
    if b_field <= 0:
        raise ValueError(f"b_field must be positive, got {b_field}")
    return math.sqrt(HBAR * C_LIGHT / (E_CHARGE * b_field * 1e4))


@dataclass(frozen=True)
class MagneticScales:
    """Cyclotron energy, magnetic length, and interaction bandwidth."""

    omega_c_K: float     # hbar omega_c in kelvin
    length_cm: float     # magnetic length (hbar c / e B)^(1/2)
    omega_zb_K: float    # (2 pi e^2 / d^3 m_e) / omega_c in kelvin


def magnetic_quantities(b_field: float, pitch: float) -> MagneticScales:
    """Magnetic confinement scales for field b_field (T) and site pitch (cm).

    omega_zb is the interaction-induced bandwidth of the Landau ladder when
    every site of the lattice with spacing `pitch` is occupied; the identity
    omega_zb * omega_c = 2 pi e^2 / (pitch^3 m_e) holds exactly.
    """
    if b_field <= 0:
        raise ValueError(f"b_field must be positive, got {b_field}")
    if pitch <= 0:
        raise ValueError(f"pitch must be positive, got {pitch}")
    omega_c = E_CHARGE * (b_field * 1e4) / (M_E * C_LIGHT)  # s^-1
    length = magnetic_length(b_field)
    omega_zb = (2.0 * math.pi * E_SQ / (pitch**3 * M_E)) / omega_c
    to_K = HBAR / K_B
    return MagneticScales(
        omega_c_K=omega_c * to_K,
        length_cm=length,
        omega_zb_K=omega_zb * to_K,
    )
