"""Relaxation and dephasing estimates assembled into a per-device budget.

All rates are evaluated with energies in kelvin (the natural convention for
this system) and converted to s^-1 by a single factor k_B / hbar at the
end.  The channels:

- interband lifetime:    hbar/T1 = R (delta_T / r_B)^2, the one-ripplon
  decay of a free (unconfined) electron;
- confined dephasing:    1/T2 = R^4 (delta_T/r_B)^4 (r_B/l)^8 /
  (omega_ZB^2 omega_l), the two-ripplon rate of a magnetically confined
  electron (l is the magnetic length, omega_l the ripplon frequency at
  k = 1/l, omega_ZB the interaction bandwidth);
- ripplon sidebands:     G = C_G (R/omega_l)^2 delta_T^2 r_B^2 / l^4,
  relative spectral weight outside the zero-ripplon line (not a decay);
- electrode voltage noise: S_nu = (tuning) * S_V, with dephasing time
  1 / S_nu^2 under the back-of-envelope estimator (the rigorous white-noise
  rate would be 2 pi^2 S_nu^2);
- in-plane coupling suppression: 2 l^2 / d^2 for a neighboring pair.

The mobility scattering rate e^2 E_T^2 / (4 sigma hbar) is a diagnostic for
the unconfined sheet; the hbar is a dimensional restoration.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .hydrogenic import rydberg_scales
from .medium import magnetic_length, magnetic_quantities, ripplon_energy_K, thermal_amplitude
from .units import EV_ERG, HBAR, K_B, SIGMA_HE

__all__ = [
    "DecoherenceBudget",
    "budget",
    "inplane_suppression",
    "mobility_rate",
    "sideband_weight",
    "t1_free",
    "t2_confined",
    "voltage_noise_dephasing",
]

_K_TO_RATE = K_B / HBAR  # s^-1 per kelvin


def t1_free(temperature: float, lam: float) -> float:
    """Interband lifetime (s) of an unconfined electron at `temperature` (K)."""
    rydberg_K, bohr_cm = rydberg_scales(lam)
    delta_t = thermal_amplitude(temperature)
    rate = rydberg_K * (delta_t / bohr_cm) ** 2 * _K_TO_RATE
    return 1.0 / rate


def t2_confined(temperature: float, b_field: float, pitch: float, lam: float) -> float:
    """Two-ripplon dephasing time (s) of a magnetically confined electron.

    Requires b_field > 0: without the field the Landau ladder is absent and
    the confined two-ripplon channel does not apply; see t1_free for the
    unconfined regime.
    """
    if b_field <= 0:
        raise ValueError(
            "t2_confined requires a positive magnetic field; the zero-field "
            "dephasing is governed by the one-ripplon channel of t1_free"
        )
    rydberg_K, bohr_cm = rydberg_scales(lam)
    delta_t = thermal_amplitude(temperature)
    scales = magnetic_quantities(b_field, pitch)
    length = scales.length_cm
    omega_l_K = ripplon_energy_K(1.0 / length)
    rate_K = (
        rydberg_K**4
        * (delta_t / bohr_cm) ** 4
        * (bohr_cm / length) ** 8
        / (scales.omega_zb_K**2 * omega_l_K)
    )
    return 1.0 / (rate_K * _K_TO_RATE)


def sideband_weight(
    temperature: float, b_field: float, lam: float,
    coupling_const: float = 1e-2,
) -> float:
    """Relative ripplon-sideband intensity G (dimensionless)."""
    if b_field <= 0:
        raise ValueError(f"b_field must be positive, got {b_field}")
    rydberg_K, bohr_cm = rydberg_scales(lam)
    delta_t = thermal_amplitude(temperature)
    length = magnetic_length(b_field)
    omega_l_K = ripplon_energy_K(1.0 / length)
    return (
        coupling_const
        * (rydberg_K / omega_l_K) ** 2
        * delta_t**2 * bohr_cm**2 / length**4
    )


def mobility_rate(e_field: float) -> float:
    """Momentum relaxation rate (e E_T)^2 / (4 sigma hbar) in s^-1.

    e_field is the effective ripplon coupling field in V/cm (diagnostic for
    the unconfined sheet; not part of the confined-qubit budget).
    """
    if e_field < 0:
        raise ValueError(f"e_field must be nonnegative, got {e_field}")
    force = EV_ERG * e_field  # dyn
    return force**2 / (4.0 * SIGMA_HE * HBAR)


def voltage_noise_dephasing(noise_density: float, tuning: float) -> tuple[float, float]:
    """Frequency-noise density (Hz/sqrt(Hz)) and dephasing time (s).

    noise_density is the line's voltage noise in V/sqrt(Hz); tuning is the
    qubit-frequency lever arm in GHz/mV.  The estimator takes the rate to be
    the frequency-noise power density S_nu^2.  S_V = 0 returns an infinite
    dephasing time.
    """
    if noise_density < 0:
        raise ValueError(f"noise_density must be nonnegative, got {noise_density}")
    if tuning <= 0:
        raise ValueError(f"tuning must be positive, got {tuning}")
    tuning_hz_per_v = tuning * 1e9 / 1e-3
    s_nu = tuning_hz_per_v * noise_density  # Hz / sqrt(Hz)
    if s_nu == 0.0:
        return 0.0, math.inf
    return s_nu, 1.0 / s_nu**2


def inplane_suppression(length: float, pitch: float) -> float:
    """In-plane correction weight 2 l^2 / d^2 for two independent electrons.

    Each electron of a neighboring pair wanders over the magnetic length l
    in the lowest Landau level, so <(dr_1 - dr_2)^2> / d^2 = 2 l^2 / d^2.
    """
    if length <= 0 or pitch <= 0:
        raise ValueError("length and pitch must be positive")
    return 2.0 * length**2 / pitch**2


@dataclass(frozen=True)
class DecoherenceBudget:
    """Every channel evaluated at one operating point, plus the parameters.

    `t2_eff_s` combines the confined dephasing and voltage-noise channels
    harmonically; it is what the dynamics module consumes.  `tau_inv_s`
    is the unconfined mobility rate, recorded for diagnostics only.
    """

    temperature: float          # K
    b_field: float              # T
    pitch: float                # cm
    lam: float
    t1_s: float
    t2_s: float
    sideband_g: float
    coupling_const: float
    tau_inv_s: float
    noise_density: float        # V/sqrt(Hz)
    tuning_ghz_per_mv: float
    s_nu: float                 # Hz/sqrt(Hz)
    t_phi_v_s: float
    inplane_ratio: float
    t2_eff_s: float

    def __post_init__(self):
        if self.t1_s <= 0 or self.t2_s <= 0:
            raise ValueError("budget times must be positive")
        if self.sideband_g < 0:
            raise ValueError("sideband weight must be nonnegative")

    def to_dict(self) -> dict:
        d = asdict(self)
        if math.isinf(self.t_phi_v_s):
            d["t_phi_v_s"] = None  # unbounded: noiseless line
        return d


def budget(
    temperature: float,
    b_field: float,
    pitch: float,
    lam: float,
    noise_density: float = 0.0,
    tuning: float = 1.0,
    coupling_const: float = 1e-2,
    mobility_field: float = 0.0,
) -> DecoherenceBudget:
    """Evaluate every channel at one operating point and combine them.

    The effective dephasing time is 1/T2_eff = 1/T2 + 1/T_phi_V (harmonic
    combination of the ripplon and voltage-noise channels).
    """
    t1 = t1_free(temperature, lam)
    t2 = t2_confined(temperature, b_field, pitch, lam)
    g = sideband_weight(temperature, b_field, lam, coupling_const)
    s_nu, t_phi = voltage_noise_dephasing(noise_density, tuning)
    length = magnetic_quantities(b_field, pitch).length_cm
    rate_eff = 1.0 / t2 + (0.0 if math.isinf(t_phi) else 1.0 / t_phi)
    return DecoherenceBudget(
        temperature=temperature,
        b_field=b_field,
        pitch=pitch,
        lam=lam,
        t1_s=t1,
        t2_s=t2,
        sideband_g=g,
        coupling_const=coupling_const,
        tau_inv_s=mobility_rate(mobility_field),
        noise_density=noise_density,
        tuning_ghz_per_mv=tuning,
        s_nu=s_nu,
        t_phi_v_s=t_phi,
        inplane_ratio=inplane_suppression(length, pitch),
        t2_eff_s=1.0 / rate_eff,
    )
