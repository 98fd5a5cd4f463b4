"""Vertical-motion spectrum of an electron bound above a helium surface.

The image potential -Lambda e^2/z with a hard wall at z = 0 supports a 1D
hydrogen-like ladder E_m = -R/m^2 with effective Rydberg R = Lambda^2 e^4
m_e / 2 hbar^2 and Bohr radius r_B = hbar^2 / (m_e e^2 Lambda).  A vertical
pressing field E_perp adds e E_perp z, which Stark-shifts the levels; the
solver diagonalizes that term in a truncated basis of the analytic
zero-field eigenfunctions

    u_m(x) = (2 / m^{5/2}) x L^{(1)}_{m-1}(2x/m) exp(-x/m),   x = z / r_B,

the bound-state solutions of the hard-wall image problem.  Matrix elements
<m|z^p|n> are polynomials times a single exponential, so scaled
Gauss-Laguerre quadrature evaluates them exactly (up to rounding) once the
order exceeds half the polynomial degree.

Sign convention: E_perp > 0 presses the electron toward the surface and
raises every level, compact states least; the 1->2 spacing grows with
field.  The 1 eV penetration barrier of the liquid is modeled as an
infinite wall, three orders of magnitude above R.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_genlaguerre

from .units import EVCM_K, E_SQ, HBAR, K_B, K_TO_GHZ, M_E

__all__ = [
    "ConvergenceError",
    "HydrogenicBasisSpec",
    "HydrogenicSolution",
    "rydberg_scales",
    "solve",
    "stark_rate",
    "transition_K",
]


class ConvergenceError(RuntimeError):
    """Raised when the basis convergence or level-order check of a solve fails.

    Carries the offending relative shift in `shift`.
    """

    def __init__(self, message: str, shift: float):
        super().__init__(message)
        self.shift = shift


def rydberg_scales(lam: float) -> tuple[float, float]:
    """Effective Rydberg energy (K) and Bohr radius (cm) for image strength lam."""
    if lam <= 0:
        raise ValueError(f"image strength must be positive, got {lam}")
    rydberg_K = lam**2 * M_E * E_SQ**2 / (2.0 * HBAR**2) / K_B
    bohr_cm = HBAR**2 / (M_E * E_SQ) / lam
    return rydberg_K, bohr_cm


# Gauss-Laguerre order of the moment integrals, raised to size + 8 for
# larger bases so the quadrature stays exact
_QUAD_ORDER = 96


@dataclass(frozen=True)
class HydrogenicBasisSpec:
    """Truncated-basis specification for the pressed hydrogenic problem.

    `size` unperturbed levels are retained (states 1 and 2 must stay
    converged; every solve re-checks against size + 5).  The default of 32
    passes that check up to ~120 V/cm, 20 states only below ~15 V/cm.  It
    measures convergence within the bound states' span, not accuracy: the
    span misses the continuum, so against a finite-difference solution of
    the full problem the 1->2 line reads high by ~0.1 GHz at 10 V/cm and
    13 GHz at 100 V/cm.
    """

    lam: float
    size: int = 32

    def __post_init__(self):
        if self.size < 3:
            raise ValueError(f"basis size must be at least 3, got {self.size}")
        if self.lam <= 0:
            raise ValueError(f"image strength must be positive, got {self.lam}")

    @property
    def scales(self) -> tuple[float, float]:
        return rydberg_scales(self.lam)


@lru_cache(maxsize=32)
def _moment_matrix(size: int, power: int, order: int) -> np.ndarray:
    """<m|x^power|n> in Bohr-radius units, exact scaled Gauss-Laguerre."""
    t, w = np.polynomial.laguerre.laggauss(order)
    out = np.empty((size, size))
    for m in range(1, size + 1):
        for n in range(m, size + 1):
            a = 1.0 / m + 1.0 / n
            x = t / a
            # u_m u_n x^p carries exp(-a x); the exponential is absorbed
            # into the Gauss-Laguerre weight via x = t / a
            poly = (
                (2.0 / m**2.5) * (2.0 / n**2.5) * x ** (2 + power)
                * eval_genlaguerre(m - 1, 1, 2.0 * x / m)
                * eval_genlaguerre(n - 1, 1, 2.0 * x / n)
            )
            val = np.dot(w, poly) / a
            out[m - 1, n - 1] = val
            out[n - 1, m - 1] = val
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HydrogenicSolution:
    """Stark-shifted levels and z matrix elements.

    Energies are in kelvin, sorted ascending; `z_elements[i, j]` is
    <i+1|z|j+1> (cm) between the perturbed states, each state's sign fixed
    so its dominant zero-field component is positive.
    """

    energies: np.ndarray        # K, shape (size,)
    z_elements: np.ndarray      # cm, shape (size, size)
    lam: float

    @property
    def size(self) -> int:
        return self.energies.size

    def transition_K(self, m: int, n: int = 1) -> float:
        """E_m - E_n in kelvin (1-based state labels)."""
        return float(self.energies[m - 1] - self.energies[n - 1])

    def transition_GHz(self, m: int, n: int = 1) -> float:
        return self.transition_K(m, n) * K_TO_GHZ


def _eigensystem(spec: HydrogenicBasisSpec, e_perp: float, size: int, vectors: bool = False):
    """Energies of the truncated Stark matrix in physical order, with the
    eigenvectors where they are read.

    The energies always come from `np.linalg.eigvalsh`, so every caller gets
    the same bits at the same field.  `np.linalg.eigh` runs only when
    `vectors` is asked for or the field is negative; otherwise the returned
    vectors are None.

    For pressing (binding) fields the ascending-energy order is physical.
    Small *negative* (extracting) fields come from a negative E_perp, from
    negative electrode voltages, or from a resonance that lies below a
    site's field; there the potential is unbounded at large z and the
    truncated matrix grows spurious states sinking below the spectrum, so
    the quasi-bound levels are recovered by maximum-overlap assignment of
    the eigenvectors to the unperturbed labels (the avoided crossings with
    the spurious states are exponentially narrow at the field strengths of
    interest, and the convergence check in `solve` guards states 1 and 2).
    """
    rydberg_K, r_b = spec.scales
    m_idx = np.arange(1, size + 1)
    z_cm = _moment_matrix(size, 1, max(_QUAD_ORDER, size + 8)) * r_b
    h = np.diag(-rydberg_K / m_idx**2) + EVCM_K * e_perp * z_cm
    energies = np.linalg.eigvalsh(h)
    vecs = np.linalg.eigh(h)[1] if vectors or e_perp < 0 else None
    if e_perp < 0:
        from scipy.optimize import linear_sum_assignment

        weights = np.abs(vecs) ** 2
        _, cols = linear_sum_assignment(-weights)
        energies = energies[cols]
        vecs = vecs[:, cols]
    return energies, vecs, z_cm


def _checked_eigensystem(spec: HydrogenicBasisSpec, e_perp: float, vectors: bool = False):
    """`_eigensystem` at `spec.size`, after the convergence checks of `solve`.

    The size + 5 check needs energies only, so it runs `eigh` just at
    negative fields, where the level assignment reads the eigenvectors.
    """
    rydberg_K, _ = spec.scales
    energies, vecs, z_cm = _eigensystem(spec, e_perp, spec.size, vectors)
    check_e, _, _ = _eigensystem(spec, e_perp, spec.size + 5)
    # shifts are measured against the qubit splitting: E_2 itself crosses
    # zero near 36 V/cm, where a self-relative metric is meaningless
    splitting = check_e[1] - check_e[0]
    for m in (1, 2):
        shift = abs(check_e[m - 1] - energies[m - 1]) / abs(splitting)
        if shift > 1e-4:
            raise ConvergenceError(
                f"basis not converged at E_perp={e_perp} V/cm: state {m} "
                f"shifts by {shift:.2e} of the 1->2 splitting when the basis "
                "grows by 5",
                shift,
            )
    # the top of the basis is allowed to be truncation-degraded; the
    # spectroscopically meaningful low levels must stay strictly ordered.
    # At negative (extracting) fields only states whose binding exceeds the
    # barrier top 2 sqrt(lam e^2 eE) still exist as levels, so the check
    # covers just those.
    n_check = min(spec.size - 5, 12)
    if e_perp < 0:
        barrier_top_K = 2.0 * np.sqrt(spec.lam * E_SQ * EVCM_K * K_B * abs(e_perp)) / K_B
        # compared, not divided: the barrier top underflows to 0 at tiny fields
        if n_check**2 * barrier_top_K > rydberg_K:
            n_quasi = int(np.floor(np.sqrt(rydberg_K) / np.sqrt(barrier_top_K)))
            n_check = min(n_check, max(n_quasi, 2))
    if np.any(np.diff(energies[:n_check]) <= 0):
        raise ConvergenceError(
            f"degenerate or disordered levels at E_perp={e_perp} V/cm", float("nan")
        )
    return energies, vecs, z_cm


def transition_K(spec: HydrogenicBasisSpec, e_perp: float, m: int = 2, n: int = 1) -> float:
    """`solve(spec, e_perp).transition_K(m, n)`, bit for bit, from the eigenvalues alone."""
    energies, _, _ = _checked_eigensystem(spec, e_perp)
    return float(energies[m - 1] - energies[n - 1])


def solve(spec: HydrogenicBasisSpec, e_perp: float = 0.0) -> HydrogenicSolution:
    """Diagonalize the pressed image-potential problem in the truncated basis.

    Raises ConvergenceError if enlarging the basis by 5 shifts E_1 or E_2
    by more than 1e-4 relative (the field is then too strong for the
    retained basis, or the state is effectively unbound), or if the low
    levels are not strictly ordered.
    """
    energies, vecs, z_cm = _checked_eigensystem(spec, e_perp, vectors=True)

    # fix the sign of each perturbed state so its dominant component is positive
    dom = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[dom, np.arange(spec.size)])
    vecs = vecs * signs

    z_pert = vecs.T @ z_cm @ vecs
    z_pert = 0.5 * (z_pert + z_pert.T)

    return HydrogenicSolution(
        energies=energies,
        z_elements=z_pert,
        lam=spec.lam,
    )


def stark_rate(spec: HydrogenicBasisSpec, m: int) -> float:
    """Linear Stark tuning rate d(nu_m)/dE_perp at zero field, GHz per (V/cm).

    By Hellmann-Feynman the rate is e <m|z|m> / h, and <m|z|m> = 3 m^2 r_B / 2
    for the hard-wall image states in closed form.  At zero field the
    truncated basis's eigenvectors are its basis vectors, so this is also
    the derivative of the solved levels.
    """
    if not 1 <= m <= spec.size:
        raise ValueError(f"state index {m} outside basis of size {spec.size}")
    return EVCM_K * 1.5 * m**2 * spec.scales[1] * K_TO_GHZ
