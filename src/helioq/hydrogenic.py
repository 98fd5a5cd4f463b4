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
order exceeds half the polynomial degree.  L^{(1)}_k comes from the
three-term recurrence of SciPy's `eval_genlaguerre`, written in NumPy in
the same order of operations, so the tables match SciPy's bit for bit
without importing it.  The nodes and weights are NumPy's `laggauss`, the
Golub-Welsch eigenvalues of the Laguerre companion matrix polished by one
Newton step, reproduced by `_laggauss` in the same order of operations, so
a basis build loads none of NumPy's polynomial modules.

`_eigensystem` is the one diagonalization.  `levels` reads its checked
energies, which the Stark map, the spectrum and the readout use;
`qubits.build` reads the two lowest eigenvectors for the qubit dipoles.

Sign convention: E_perp > 0 presses the electron toward the surface and
raises every level, compact states least; the 1->2 spacing grows with
field.  The 1 eV penetration barrier of the liquid is modeled as an
infinite wall, three orders of magnitude above R.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .units import EVCM_K, E_SQ, HBAR, K_B, K_TO_GHZ, M_E

__all__ = [
    "ConvergenceError",
    "HydrogenicBasisSpec",
    "levels",
    "rydberg_scales",
    "stark_rate",
    "transition_K",
]


class ConvergenceError(RuntimeError):
    """Raised when the basis convergence or level-order check of
    `_checked_eigensystem` fails.

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


def _laguerre1(deg: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L^{(1)}_{deg[i]}(y[i]) for each row i of y, bit for bit SciPy's `eval_genlaguerre`.

    Degrees 0 and 1 are its closed forms 1 and (-y + 1) + 1; higher degrees
    its recurrence d = -y/2, p = d + 1, then for k = 1 .. deg - 1
    d <- -y/(k + 2) p + k/(k + 2) d and p <- d + p, times deg + 1.  Rows
    are stepped longest first, so step k updates a prefix.
    """
    out = np.ones_like(y)
    one = deg == 1
    out[one] = (-y[one] + 1.0) + 1.0
    rows = np.flatnonzero(deg >= 2)
    rows = rows[np.argsort(-deg[rows], kind="stable")]
    degs, y = deg[rows], y[rows]
    d = -y / 2.0
    p = d + 1.0
    for k in range(1, int(degs.max(initial=1))):
        c = np.count_nonzero(degs > k)
        d[:c] = -y[:c] / (k + 2.0) * p[:c] + (k / (k + 2.0)) * d[:c]
        p[:c] = d[:c] + p[:c]
    out[rows] = (degs + 1.0)[:, None] * p
    return out


def _lagval(x: np.ndarray, c: list[float]) -> np.ndarray:
    """The Laguerre series sum c[k] L_k(x), by the Clenshaw recurrence of NumPy's `lagval`."""
    if len(c) == 1:
        c0, c1 = c[0], 0.0
    elif len(c) == 2:
        c0, c1 = c
    else:
        nd, c0, c1 = len(c), c[-2], c[-1]
        for i in range(3, len(c) + 1):
            nd -= 1
            c0, c1 = c[-i] - (c1 * (nd - 1)) / nd, c0 + (c1 * ((2 * nd - 1) - x)) / nd
    return c0 + c1 * (1 - x)


def _laggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights, bit for bit NumPy's `laggauss(order)`.

    The nodes are the eigenvalues of the symmetric companion matrix of
    L_order (diagonal 2k + 1, off-diagonal -k; Golub & Welsch 1969), after
    one Newton step on L_order, whose derivative's Laguerre coefficients
    are all -1.  The weights are 1 / (L_{order-1} L'_order), each factor
    scaled by its largest magnitude, then normalised to sum to 1.
    """
    mat = np.zeros((order, order))
    flat = mat.reshape(-1)
    flat[1::order + 1] = flat[order::order + 1] = -np.arange(1, order)
    flat[0::order + 1] = 2.0 * np.arange(order) + 1.0
    x = np.linalg.eigvalsh(mat)
    unit = [0.0] * order + [1.0]
    dy = _lagval(x, unit)
    df = _lagval(x, [-1.0] * order)
    x -= dy / df
    fm = _lagval(x, unit[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w /= w.sum()
    return x, w


# pairs per block of `_moment_matrix`, which keeps its temporaries near 100 kB each
_PAIR_BLOCK = 128


@lru_cache(maxsize=32)
def _moment_matrix(size: int, power: int, order: int) -> np.ndarray:
    """<m|x^power|n> in Bohr-radius units, exact scaled Gauss-Laguerre.

    The pairs m <= n are evaluated together, block by block, each on its own
    grid.  Each pair's sum is its own `np.dot`: a matrix-vector product sums
    in another order, which moves the last bits of the tables.
    """
    t, w = _laggauss(order)
    m, n = np.triu_indices(size)
    m, n = m + 1, n + 1
    # u_m u_n x^p carries exp(-a x); the exponential is absorbed into the
    # Gauss-Laguerre weight via x = t / a
    a = 1.0 / m + 1.0 / n
    # Python's pow for the normalisations, whose bits NumPy's need not match
    norm = np.array([(2.0 / i**2.5) * (2.0 / j**2.5) for i, j in zip(m.tolist(), n.tolist())])
    vals = np.empty(m.size)
    for b in range(0, m.size, _PAIR_BLOCK):
        at = slice(b, b + _PAIR_BLOCK)
        x = t / a[at, None]
        poly = (
            norm[at, None] * x ** (2 + power)
            * _laguerre1(m[at] - 1, 2.0 * x / m[at, None])
            * _laguerre1(n[at] - 1, 2.0 * x / n[at, None])
        )
        vals[at] = [np.dot(w, row) for row in poly]
    vals /= a
    out = np.empty((size, size))
    out[m - 1, n - 1] = vals
    out[n - 1, m - 1] = vals
    out.setflags(write=False)
    return out


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
    interest, and the convergence check in `_checked_eigensystem` guards
    states 1 and 2).
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
    """`_eigensystem` at `spec.size`, after the convergence checks.

    Raises ConvergenceError if enlarging the basis by 5 shifts E_1 or E_2
    by more than 1e-4 of the 1->2 splitting (the field is then too strong
    for the retained basis, or the state is effectively unbound), or if the
    low levels are not strictly ordered.  The size + 5 check needs energies
    only, so it runs `eigh` just at negative fields, where the level
    assignment reads the eigenvectors.
    """
    rydberg_K, _ = spec.scales
    energies, vecs, z_cm = _eigensystem(spec, e_perp, spec.size, vectors)
    check_e, _, _ = _eigensystem(spec, e_perp, spec.size + 5)
    # the guard reads plain floats: the same doubles without NumPy's scalar overhead
    base, check = energies[:2].tolist(), check_e[:2].tolist()
    # shifts are measured against the qubit splitting: E_2 itself crosses
    # zero near 36 V/cm, where a self-relative metric is meaningless
    splitting = check[1] - check[0]
    for m in (1, 2):
        shift = abs(check[m - 1] - base[m - 1]) / abs(splitting)
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
        barrier_top_K = 2.0 * math.sqrt(spec.lam * E_SQ * EVCM_K * K_B * abs(e_perp)) / K_B
        # compared, not divided: the barrier top underflows to 0 at tiny fields
        if n_check**2 * barrier_top_K > rydberg_K:
            n_quasi = math.floor(math.sqrt(rydberg_K) / math.sqrt(barrier_top_K))
            n_check = min(n_check, max(n_quasi, 2))
    low = energies[:n_check].tolist()
    if any(b <= a for a, b in zip(low, low[1:])):
        raise ConvergenceError(
            f"degenerate or disordered levels at E_perp={e_perp} V/cm", float("nan")
        )
    return energies, vecs, z_cm


def levels(spec: HydrogenicBasisSpec, e_perp: float) -> np.ndarray:
    """Energies (K) of the Stark-shifted levels in physical order, after the
    convergence checks of `_checked_eigensystem`; no eigenvectors."""
    return _checked_eigensystem(spec, e_perp)[0]


def transition_K(spec: HydrogenicBasisSpec, e_perp: float, m: int = 2, n: int = 1) -> float:
    """E_m - E_n in kelvin (1-based state labels), from `levels`."""
    energies = levels(spec, e_perp)
    return float(energies[m - 1] - energies[n - 1])


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
