"""State-selective tunneling readout and detector-image sampling.

Reversing the vertical field turns the binding potential into a barrier
-Lambda e^2/z - e E_+ z whose top sits at 2 sqrt(Lambda e^2 eE_+) below
vacuum.  A state of energy E_m escapes by tunneling at

    rate = nu_m exp(-2 Integral sqrt(2 m_e (V(z) - E_m)) / hbar dz)

over the classically forbidden region between the two (analytic) turning
points, with attempt frequency nu_m = |E_m| / hbar; states whose energy
clears the barrier escape at nu_m outright.  The integral is a complete
elliptic one in closed form, and it vanishes at the barrier-top field
E_m^2 / (4 Lambda e^2 e), where `plan` starts its bracket.  The exponent
is the load-bearing part: the excited state sees a barrier lower and
thinner by a factor ~4 in energy, so its escape is faster by many orders,
and a reverse field can be chosen where the excited electron leaves
within the wait window while the ground electron effectively never does.

Shot sampling is a per-site Bernoulli draw on 1 - survival(wait), done for
all shots at once: `sample_shots` returns a (shots, sites) bool array and
the pixel histogram.  Shot k reads doubles k * n_sites to k * n_sites +
n_sites - 1 of one stream of NumPy's Generator(Philox(key=seed)).random,
Philox4x64-10 (Salmon et al., SC'11) keyed by the 128-bit seed; site n
escapes when its double is >= survival[n].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import EV_ERG, E_SQ, HBAR, K_B, M_E

__all__ = [
    "ReadoutPlan",
    "plan",
    "sample_shots",
    "tunnel_rate",
    "wkb_exponent",
]

RNG_ALGORITHM = "philox4x64 (numpy), key = seed, one stream: shot k = doubles [k*sites, (k+1)*sites)"


def _turning_points(lam_esq: float, force: float, energy_erg: float):
    """Roots of V(z) = E for V = -lam_esq/z - force*z (both in erg, cm)."""
    disc = energy_erg**2 - 4.0 * lam_esq * force
    if disc <= 0.0:
        return None
    z2 = (-energy_erg + math.sqrt(disc)) / (2.0 * force)
    return lam_esq / (force * z2), z2     # z1 z2 = lam_esq / force: z1 without cancellation


def _ellipke(m1: float) -> tuple[float, float]:
    """K(m) and E(m) at m = 1 - m1, 0 < m1 <= 1, by the arithmetic-geometric mean
    (Abramowitz & Stegun 17.6).  The complementary m1 keeps the digits of an m near 1;
    the loop stops on the term c_n^2 that E takes off, as a - b can stall one ulp apart."""
    a, b, c2, w, e_over_k = 1.0, math.sqrt(m1), 1.0 - m1, 0.5, 0.5 + 0.5 * m1
    while c2 > 2.0**-53 * a * a:
        a, b, c2, w = 0.5 * (a + b), math.sqrt(a * b), 0.25 * (a - b) ** 2, 2.0 * w
        e_over_k -= w * c2
    return math.pi / (2.0 * a), math.pi / (2.0 * a) * e_over_k


def _brentq(f, xa: float, xb: float, xtol=2e-12, rtol=4 * 2.0**-52, maxiter=100) -> float:
    """Root of f on [xa, xb] by Brent's method (Brent 1973, ch. 4): the steps and tests of
    SciPy's brentq.c in its order of operations, so the roots are the same doubles."""
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f({xa}) = {fpre} and f({xb}) = {fcur} must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf   # bisect, unless an interpolated step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:   # inverse quadratic
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                if den := dblk * dpre * (fblk - fpre):
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations on [{xa}, {xb}]")


def wkb_exponent(lam: float, energy: float, e_plus: float) -> float:
    """Barrier-penetration exponent 2/hbar * Int sqrt(2 m_e (V - E_m)) dz.

    `lam` is the image strength and `energy` the level's E_m (K), for
    instance an entry of `hydrogenic.levels`.  Returns 0.0 for an
    over-barrier state.  V - E = F (z - z1)(z2 - z)/z gives
    W = (2/hbar) sqrt(2 m_e F z2) (2/3) [(z1 + z2) E(k) - 2 z1 K(k)], k^2 =
    1 - z1/z2 (Byrd & Friedman, Handbook of Elliptic Integrals).
    """
    if e_plus <= 0:
        raise ValueError(f"reverse field must be positive, got {e_plus}")
    if energy >= 0:
        raise ValueError(f"level is unbound (E = {energy} K); the barrier model does not apply")
    lam_esq = lam * E_SQ
    force = EV_ERG * e_plus                      # dyn
    if force == 0.0:   # underflows below ~1e-312 V/cm; the exponent overflows below ~6e-306
        return math.inf
    tp = _turning_points(lam_esq, force, float(energy) * K_B)  # a float: NumPy scalars slow the AGM
    if tp is None:
        return 0.0
    z1, z2 = tp
    ellipk, ellipe = _ellipke(z1 / z2)
    integral = (2.0 / 3.0) * ((z1 + z2) * ellipe - 2.0 * z1 * ellipk)
    return float(2.0 * math.sqrt(2.0 * M_E * (force * z2)) * integral / HBAR)  # F z2 ~ |E|: no underflow


def tunnel_rate(lam: float, energy: float, e_plus: float) -> float:
    """Escape rate (s^-1) of a level of energy E_m (K) under reverse field
    e_plus (V/cm), for image strength `lam`.

    Attempt frequency |E_m|/hbar; over-barrier states escape at that
    frequency outright.  The prefactor is an order-of-magnitude choice;
    the exponent carries the state selectivity.
    """
    nu = abs(energy * K_B) / HBAR
    return nu * math.exp(-wkb_exponent(lam, energy, e_plus))


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
    lam: float,
    energies: np.ndarray,
    wait: float,
    selectivity: float,
    pixel_size: float = 1e-4,
    site_positions_cm=None,
) -> ReadoutPlan:
    """Choose the reverse field: excited escape confident, ground retained.

    `lam` is the image strength and `energies` the levels (K) of
    `hydrogenic.levels`, of which states 1 and 2 are read.  Solves
    rate_2(E_+) * wait = 5 at the smallest such field (five escape times
    inside the window), then requires rate_1 * wait <= 5/selectivity.
    Raises with the achievable frontier when no field satisfies both.
    """
    if selectivity <= 1:
        raise ValueError(f"selectivity must exceed 1, got {selectivity}")
    if wait <= 0:
        raise ValueError(f"wait must be positive, got {wait}")

    if energies[1] >= 0:
        raise ValueError(
            f"state 2 is unbound (E = {energies[1]} K); the barrier model does not apply"
        )
    target = 5.0
    nu2 = abs(energies[1]) * K_B / HBAR
    nu1 = abs(energies[0]) * K_B / HBAR

    def excited_gap(e_plus):
        # log(rate_2 * wait / target), computed in log space: the exponent
        # reaches tens of thousands at weak fields
        return math.log(nu2 * wait / target) - wkb_exponent(lam, energies[1], e_plus)

    # bracket: the exponent falls with field to 0 at the barrier-top field
    hi = (energies[1] * K_B) ** 2 / (4.0 * lam * E_SQ * EV_ERG)
    if excited_gap(hi) < 0:
        raise RuntimeError("no reverse field drives the excited state out in time")
    lo = 0.5 * hi
    while excited_gap(lo) > 0:
        lo *= 0.5
    e_plus = _brentq(excited_gap, lo, hi, xtol=1e-12, rtol=1e-14)

    rate2 = tunnel_rate(lam, energies[1], e_plus)
    log_rate1 = math.log(nu1) - wkb_exponent(lam, energies[0], e_plus)
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


_SHOT_CHUNK = 1 << 16          # shots drawn per pass; bounds the temporaries


def sample_shots(
    survival,
    readout_plan: ReadoutPlan,
    shots: int,
    seed: int,
) -> tuple[np.ndarray, dict]:
    """Draw detector images: site n escapes with probability 1 - survival[n].

    Returns `(escaped, image)`: the (shots, n_sites) bool array of escapes
    and the aggregate pixel histogram {pixel: count}, without empty pixels.
    Deterministic in (seed, shot index, site count); see RNG_ALGORITHM.
    """
    p_survive = np.asarray(survival, dtype=float)
    if np.any((p_survive < 0) | (p_survive > 1)):
        raise ValueError("survival probabilities must lie in [0, 1]")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128 - 1], got {seed}")
    n_sites = p_survive.size
    pixels = readout_plan.site_pixels or tuple((0, 0) for _ in range(n_sites))
    if len(pixels) != n_sites:
        raise ValueError(
            f"plan maps {len(pixels)} sites, got {n_sites} survival probabilities"
        )
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    escaped = np.empty((shots, n_sites), dtype=bool)
    for first in range(0, shots, _SHOT_CHUNK):   # each draw continues the stream
        stop = min(first + _SHOT_CHUNK, shots)
        escaped[first:stop] = gen.random((stop - first, n_sites)) >= p_survive
    image: dict = {}
    for px, count in zip(pixels, escaped.sum(axis=0).tolist()):
        if count:
            image[px] = image.get(px, 0) + count
    return escaped, image
