"""State-selective tunneling readout and detector-image sampling.

Reversing the vertical field turns the binding potential into a barrier
-Lambda e^2/z - e E_+ z whose top sits at 2 sqrt(Lambda e^2 eE_+) below
vacuum.  A state of energy E_m escapes by tunneling at

    rate = nu_m exp(-2 Integral sqrt(2 m_e (V(z) - E_m)) / hbar dz)

over the classically forbidden region between the two (analytic) turning
points, with attempt frequency nu_m = |E_m| / hbar; states whose energy
clears the barrier escape at nu_m outright.  The exponent is the
load-bearing part: the excited state sees a barrier lower and thinner by
a factor ~4 in energy, so its escape is faster by many orders, and a
reverse field can be chosen where the excited electron leaves within the
wait window while the ground electron effectively never does.

Shot sampling is a per-site Bernoulli draw on 1 - survival(wait) using a
counter-based Philox stream: shot k draws from key = seed with a disjoint
counter block, so parallel and serial sampling are bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hydrogenic import HydrogenicSolution
from .units import EV_ERG, E_SQ, HBAR, K_B, M_E

__all__ = [
    "ReadoutPlan",
    "ShotRecord",
    "plan",
    "sample_shots",
    "tunnel_rate",
    "wkb_exponent",
]

RNG_ALGORITHM = "philox4x64 (numpy), key = seed, counter block = shot << 128"


def _turning_points(lam_esq: float, force: float, energy_erg: float):
    """Roots of V(z) = E for V = -lam_esq/z - force*z (both in erg, cm)."""
    disc = energy_erg**2 - 4.0 * lam_esq * force
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    z1 = (-energy_erg - root) / (2.0 * force)
    z2 = (-energy_erg + root) / (2.0 * force)
    return (z2, z1) if z2 < z1 else (z1, z2)


def wkb_exponent(
    solution: HydrogenicSolution, m: int, e_plus: float, order: int = 200,
) -> float:
    """Barrier-penetration exponent 2/hbar * Int sqrt(2 m_e (V - E_m)) dz.

    Returns 0.0 for an over-barrier state.  Gauss-Legendre in the angle
    variable that absorbs the square-root turning-point behavior; `order`
    nodes resolve log-rate to well below 1e-4.
    """
    if e_plus <= 0:
        raise ValueError(f"reverse field must be positive, got {e_plus}")
    if not 1 <= m <= solution.size:
        raise ValueError(f"state index {m} outside solution of size {solution.size}")
    energy = solution.energies[m - 1] * K_B      # erg
    if energy >= 0:
        raise ValueError(
            f"state {m} is unbound (E = {solution.energies[m-1]} K); "
            "the barrier model does not apply"
        )
    lam_esq = solution.lam * E_SQ
    force = EV_ERG * e_plus                      # dyn
    tp = _turning_points(lam_esq, force, energy)
    if tp is None:
        return 0.0
    z1, z2 = tp
    # z = zc + zr sin(theta) maps the sqrt endpoint behavior to a smooth
    # cos^2-weighted integrand
    zc, zr = 0.5 * (z1 + z2), 0.5 * (z2 - z1)
    theta, w = _angle_rule(order)
    z = zc + zr * np.sin(theta)
    v_minus_e = force * (z - z1) * (z2 - z) / z
    v_minus_e = np.clip(v_minus_e, 0.0, None)
    integrand = np.sqrt(2.0 * M_E * v_minus_e) * zr * np.cos(theta)
    return float(2.0 * np.dot(w, integrand) / HBAR)


@lru_cache(maxsize=8)
def _angle_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-pi/2, pi/2], shared read-only."""
    theta, w = np.polynomial.legendre.leggauss(order)
    theta, w = 0.5 * math.pi * theta, 0.5 * math.pi * w
    theta.flags.writeable = w.flags.writeable = False
    return theta, w


def tunnel_rate(
    solution: HydrogenicSolution, m: int, e_plus: float, order: int = 200,
) -> float:
    """Escape rate (s^-1) of state m under reverse field e_plus (V/cm).

    Attempt frequency |E_m|/hbar; over-barrier states escape at that
    frequency outright.  The prefactor is an order-of-magnitude choice;
    the exponent carries the state selectivity.
    """
    energy = solution.energies[m - 1] * K_B
    nu = abs(energy) / HBAR
    expo = wkb_exponent(solution, m, e_plus, order)
    return nu * math.exp(-expo)


@dataclass(frozen=True)
class ReadoutPlan:
    """Reverse-field choice with the resulting per-state escape times."""

    e_plus: float                 # V/cm
    wait: float                   # s
    t_1: float                    # s, ground-state escape time
    t_2: float                    # s, excited-state escape time
    pixel_size: float = 1e-4      # cm
    site_pixels: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.e_plus <= 0:
            raise ValueError(f"reverse field must be positive, got {self.e_plus}")
        if not self.t_2 < self.t_1:
            raise ValueError(
                f"excited state must escape faster: t_2 = {self.t_2}, t_1 = {self.t_1}"
            )


def plan(
    solution: HydrogenicSolution,
    wait: float,
    selectivity: float,
    pixel_size: float = 1e-4,
    site_positions_cm=None,
) -> ReadoutPlan:
    """Choose the reverse field: excited escape confident, ground retained.

    Solves rate_2(E_+) * wait = 5 at the smallest such field (five escape
    times inside the window), then requires rate_1 * wait <= 5/selectivity.
    Raises with the achievable frontier when no field satisfies both.
    """
    from scipy.optimize import brentq

    if selectivity <= 1:
        raise ValueError(f"selectivity must exceed 1, got {selectivity}")
    if wait <= 0:
        raise ValueError(f"wait must be positive, got {wait}")

    target = 5.0
    nu2 = abs(solution.energies[1]) * K_B / HBAR
    nu1 = abs(solution.energies[0]) * K_B / HBAR

    def excited_gap(e_plus):
        # log(rate_2 * wait / target), computed in log space: the exponent
        # reaches tens of thousands at weak fields
        return math.log(nu2 * wait / target) - wkb_exponent(solution, 2, e_plus)

    # bracket: grow the field until the excited state escapes fast enough
    lo, hi = 1e-3, 2e-3
    while excited_gap(lo) > 0:
        lo *= 0.5
        if lo < 1e-12:
            raise RuntimeError("excited state escapes even at vanishing field")
    while excited_gap(hi) < 0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("no reverse field drives the excited state out in time")
    e_plus = brentq(excited_gap, lo, hi, xtol=1e-12, rtol=1e-14)

    rate2 = tunnel_rate(solution, 2, e_plus)
    log_rate1 = math.log(nu1) - wkb_exponent(solution, 1, e_plus)
    if log_rate1 + math.log(wait) > math.log(target) - math.log(selectivity):
        rate1 = math.exp(log_rate1)
        raise RuntimeError(
            "no reverse field satisfies the selectivity request: at "
            f"E_+ = {e_plus:.6g} V/cm the achievable frontier is "
            f"t_1/t_2 = {rate2 / rate1:.3g} (requested {selectivity:.3g})"
        )
    rate1 = math.exp(log_rate1)  # may underflow to 0: the ground state never leaves

    t_1 = 1.0 / rate1 if rate1 > 0 else math.inf
    t_2 = 1.0 / rate2
    if not t_2 < wait < t_1:
        raise RuntimeError(
            f"planned window is inconsistent: t_2 = {t_2:.3g}, wait = {wait:.3g}, "
            f"t_1 = {t_1:.3g}"
        )
    pixels = ()
    if site_positions_cm is not None:
        pixels = tuple(
            (int(math.floor(x / pixel_size)), int(math.floor(y / pixel_size)))
            for x, y in site_positions_cm
        )
    return ReadoutPlan(
        e_plus=e_plus, wait=wait, t_1=t_1, t_2=t_2,
        pixel_size=pixel_size, site_pixels=pixels,
    )


@dataclass(frozen=True)
class ShotRecord:
    """One projective readout: per-site escape outcomes and the pixel image."""

    index: int
    tunneled: tuple[bool, ...]
    pixel_counts: dict
    seed: int

    def __post_init__(self):
        total = sum(self.pixel_counts.values())
        if total != sum(self.tunneled):
            raise ValueError("pixel histogram must total the tunneled count")


def _shot_rng(seed: int, shot: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=shot << 128))


def sample_shots(
    survival,
    readout_plan: ReadoutPlan,
    shots: int,
    seed: int,
) -> tuple[list[ShotRecord], dict]:
    """Draw detector images: site n escapes with probability 1 - survival[n].

    Returns the per-shot records and the aggregate pixel histogram.
    Deterministic in (seed, shot index); see RNG_ALGORITHM.
    """
    p_survive = np.asarray(survival, dtype=float)
    if np.any((p_survive < 0) | (p_survive > 1)):
        raise ValueError("survival probabilities must lie in [0, 1]")
    n_sites = p_survive.size
    pixels = readout_plan.site_pixels or tuple((0, 0) for _ in range(n_sites))
    if len(pixels) != n_sites:
        raise ValueError(
            f"plan maps {len(pixels)} sites, got {n_sites} survival probabilities"
        )
    records = []
    aggregate: dict = {}
    for k in range(shots):
        rng = _shot_rng(seed, k)
        escaped = rng.random(n_sites) >= p_survive
        counts: dict = {}
        for site, gone in enumerate(escaped):
            if gone:
                px = pixels[site]
                counts[px] = counts.get(px, 0) + 1
                aggregate[px] = aggregate.get(px, 0) + 1
        records.append(
            ShotRecord(
                index=k,
                tunneled=tuple(bool(x) for x in escaped),
                pixel_counts=counts,
                seed=seed,
            )
        )
    return records, aggregate
