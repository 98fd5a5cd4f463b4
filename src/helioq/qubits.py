"""Mapping from device geometry and electrode voltages to qubit parameters.

Each micro-electrode below the surface traps one electron whose lowest two
vertical states form the qubit.  The electrode voltage V_n shifts the local
pressing field by c_geom V_n / d (the parallel-plate estimate; c_geom is an
explicit knob, default 1), which Stark-tunes the 1->2 transition.  The
always-on dipole interaction between vertical dipoles at distance d_nm
produces

    A_nm = e^2 [<1|z|1> - <2|z|2>]^2 / d_nm^3      (static shift)
    B_nm = 2 e^2 |<1|z|2>|^2 / d_nm^3              (excitation exchange)

with matrix elements taken at each site's operating field.

Operator convention (pinned so the interaction prefactor cannot silently
change gate timing): s_z has eigenvalues +-hbar/2 with |up> the excited
state; s_+ |down> = hbar |up>.  The exchange term then couples |up,down>
and |down,up> with off-diagonal element B_nm / 2, so the resonant pair
oscillates in population at angular frequency B_nm / hbar and a full swap
takes pi hbar / B_nm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hydrogenic import ConvergenceError, HydrogenicBasisSpec, _checked_eigensystem, transition_K
from .units import (
    E_SQ,
    E_SQ_K_CM,
    EPSILON_HE,
    EV_ERG,
    HBAR,
    K_B,
    K_TO_GHZ,
    M_E,
    image_strength,
)

__all__ = [
    "DeviceGeometry",
    "QubitArrayHamiltonian",
    "build",
    "confinement_scale",
    "site_field",
]


@dataclass(frozen=True)
class DeviceGeometry:
    """Electrode layout, global pressing field and electrode lever arm.

    `sites` are 2D lattice coordinates in units of the pitch; distinct
    sites must be at least one pitch apart.
    """

    pitch: float                     # cm
    sites: tuple[tuple[float, float], ...]
    e_perp: float = 0.0              # V/cm global pressing field
    c_geom: float = 1.0

    def __post_init__(self):
        if self.pitch <= 0:
            raise ValueError(f"pitch must be positive, got {self.pitch}")
        sites = tuple((float(x), float(y)) for x, y in self.sites)
        if len(sites) == 0:
            raise ValueError("at least one site is required")
        if len(set(sites)) != len(sites):
            raise ValueError("site positions must be distinct")
        for i in range(len(sites)):
            for j in range(i + 1, len(sites)):
                if math.dist(sites[i], sites[j]) < 1.0 - 1e-12:
                    raise ValueError(f"sites {i} and {j} are closer than one pitch")
        object.__setattr__(self, "sites", sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def distance_cm(self, i: int, j: int) -> float:
        return math.dist(self.sites[i], self.sites[j]) * self.pitch

    def positions_cm(self) -> np.ndarray:
        return np.asarray(self.sites, dtype=float) * self.pitch


def site_field(geometry: DeviceGeometry, voltage) -> np.ndarray | float:
    """Total pressing field E_perp + c_geom V / d at a site, V/cm.

    `voltage` in volts; scalar or per-site array.
    """
    v = np.asarray(voltage, dtype=float)
    out = geometry.e_perp + geometry.c_geom * v / geometry.pitch
    return float(out) if out.ndim == 0 else out


def confinement_scale(geometry: DeviceGeometry) -> float:
    """In-plane confinement level spacing hbar (e^2 / m_e d^3)^(1/2), kelvin."""
    omega = math.sqrt(E_SQ / (M_E * geometry.pitch**3))
    return HBAR * omega / K_B


def _pair_couplings(
    geometry: DeviceGeometry,
    dz: np.ndarray,
    z12: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    n = geometry.n_sites
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d3 = geometry.distance_cm(i, j) ** 3
            a[i, j] = a[j, i] = E_SQ_K_CM * dz[i] * dz[j] / d3
            b[i, j] = b[j, i] = 2.0 * E_SQ_K_CM * abs(z12[i]) * abs(z12[j]) / d3
    return a, b


@dataclass(frozen=True)
class QubitArrayHamiltonian:
    """Parameters of the driven, coupled qubit register.

    eps_K[n] is the 1->2 transition energy at site n's operating field;
    a_K / b_K are the dipole coupling matrices (kelvin, zero diagonal,
    symmetric, falling as d_nm^-3); drive_coeff converts a microwave field
    amplitude (V/cm) into a Rabi angular frequency e |<1|z|2>| E / hbar.
    `stark_map`, when present, maps a pressing field (V/cm) to the
    transition energy (K) so schedules can retune qubits mid-evolution.
    """

    eps_K: np.ndarray
    a_K: np.ndarray
    b_K: np.ndarray
    drive_coeff: float                 # (s^-1) per (V/cm)
    z11_cm: np.ndarray | None = None
    z22_cm: np.ndarray | None = None
    z12_cm: np.ndarray | None = None
    geometry: DeviceGeometry | None = None
    voltages: np.ndarray | None = None
    stark_map: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        eps = np.atleast_1d(np.asarray(self.eps_K, dtype=float))
        n = eps.size
        a = np.asarray(self.a_K, dtype=float).reshape(n, n)
        b = np.asarray(self.b_K, dtype=float).reshape(n, n)
        for name, x in (("eps_K", eps), ("a_K", a), ("b_K", b), ("drive_coeff", self.drive_coeff)):
            if not np.isfinite(x).all():
                raise ValueError(f"{name} must be finite, got {x}")
        for name, m in (("a_K", a), ("b_K", b)):
            if not np.allclose(m, m.T, rtol=0, atol=1e-300 + 1e-12 * np.abs(m).max(initial=0)):
                raise ValueError(f"{name} must be symmetric")
            if np.any(np.diag(m) != 0):
                raise ValueError(f"{name} must have zero diagonal")
        object.__setattr__(self, "eps_K", eps)
        object.__setattr__(self, "a_K", a)
        object.__setattr__(self, "b_K", b)

    @property
    def n_qubits(self) -> int:
        return self.eps_K.size

    @property
    def eps_GHz(self) -> np.ndarray:
        return self.eps_K * K_TO_GHZ

    def stark_tuning(self, site: int):
        """Site's transition energy (K) as a function of its electrode's
        voltage increment dv (V), through the device Stark map.

        The pressing field is the site's static field plus c_geom dv / d.
        """
        if self.stark_map is None or self.geometry is None:
            raise ValueError(
                "hamiltonian carries no device Stark map to retune site "
                f"{site}; build it from a DeviceGeometry or give the voltage explicitly"
            )
        base = site_field(self.geometry, self.voltages[site])
        lever = self.geometry.c_geom / self.geometry.pitch  # (V/cm) per volt
        return lambda dv: self.stark_map.exact(base + lever * dv)

    @classmethod
    def from_parameters(cls, eps_K, a_K=None, b_K=None, drive_coeff=0.0):
        """Synthetic register with pinned parameters (no device behind it)."""
        eps = np.atleast_1d(np.asarray(eps_K, dtype=float))
        n = eps.size
        a = np.zeros((n, n)) if a_K is None else a_K
        b = np.zeros((n, n)) if b_K is None else b_K
        return cls(eps_K=eps, a_K=a, b_K=b, drive_coeff=drive_coeff)

    def to_dict(self) -> dict:
        d = {
            "n_qubits": self.n_qubits,
            "eps_K": self.eps_K.tolist(),
            "eps_GHz": self.eps_GHz.tolist(),
            "a_K": self.a_K.tolist(),
            "b_K": self.b_K.tolist(),
            "drive_coeff_per_V_cm": self.drive_coeff,
        }
        if self.z11_cm is not None:
            d["z11_cm"] = self.z11_cm.tolist()
            d["z22_cm"] = self.z22_cm.tolist()
            d["z12_cm"] = self.z12_cm.tolist()
        if self.voltages is not None:
            d["voltages_V"] = self.voltages.tolist()
        return d


# Chebyshev degree and domain [0, _FIT_MAX] V/cm of each basis's Stark map;
# the default basis converges to ~140 V/cm, its series in ~100 terms
_FIT_DEGREE, _FIT_MAX = 160, 120.0


def _chop(c: np.ndarray, tol: float = 2.0**-52) -> int:
    """Coefficients to keep by standardChop (Aurentz & Trefethen, ACM TOMS 43,
    2017), with its 1-based indices; len(c) when the tail never levels off."""
    env = np.maximum.accumulate(np.abs(c)[::-1])[::-1] / np.abs(c).max()
    for j in range(2, env.size + 1):
        if (j2 := int(1.25 * j + 5.5)) > env.size:
            return env.size
        e1 = env[j - 1]
        if e1 == 0 or env[j2 - 1] / e1 > 3 * (1 - math.log(e1) / math.log(tol)):
            break
    if (j3 := int(np.sum(env >= tol ** (7 / 6)))) < j2:
        j2, env[j3] = j3 + 1, tol ** (7 / 6)
    return max(int(np.argmin(np.log10(env[:j2]) + np.linspace(0, -math.log10(tol) / 3, j2))), 1)


@lru_cache(maxsize=4)
def _stark_fit(basis: HydrogenicBasisSpec) -> tuple[float, ...]:
    """Chopped Chebyshev series of `transition_K(basis, .)` on [0, _FIT_MAX]
    V/cm from the extreme points; () when the guard fails at a node."""
    x = np.cos(np.pi * np.arange(_FIT_DEGREE + 1) / _FIT_DEGREE)
    try:
        v = [transition_K(basis, _FIT_MAX / 2 * (1 + float(xi))) for xi in x]
    except ConvergenceError:
        return ()
    c = np.fft.rfft(v + v[-2:0:-1]).real / _FIT_DEGREE
    c[[0, -1]] /= 2
    if (keep := _chop(c)) == c.size:
        raise ConvergenceError(f"Stark map of {basis} not converged at degree {_FIT_DEGREE}", c[-1] / c[0])
    return tuple(c[:keep].tolist())


class _StarkMap:
    """Transition energy (K) versus pressing field (V/cm) for one basis."""

    def __init__(self, basis: HydrogenicBasisSpec):
        self.basis = basis
        self._coefficients: tuple[float, ...] = ()

    def exact(self, e_field: float) -> float:
        """The basis's shared `_stark_fit`, built on the first lookup in its domain
        [0, _FIT_MAX] V/cm, summed there; `transition_K` itself everywhere else
        and for a basis without a fit."""
        f = float(e_field)
        if 0.0 <= f <= _FIT_MAX and (c := self._coefficients or _stark_fit(self.basis)):
            self._coefficients = c
            x = f * (2.0 / _FIT_MAX) - 1.0
            b1 = b2 = 0.0
            for ck in c[:0:-1]:
                b1, b2 = ck + 2.0 * x * b1 - b2, b1
            return c[0] + x * b1 - b2
        return transition_K(self.basis, f)


def build(
    geometry: DeviceGeometry,
    voltages=0.0,
    basis: HydrogenicBasisSpec | None = None,
) -> QubitArrayHamiltonian:
    """Assemble the register parameters at the given static voltages.

    `voltages` (volts) is a scalar or one value per site.  Matrix elements
    are recomputed at each site's total pressing field, so both the qubit
    frequencies and the couplings inherit the field dependence: one checked
    eigensolve per distinct site field gives E_2 - E_1 and, from the two
    lowest eigenvectors, <1|z|1>, <2|z|2> and <1|z|2>.
    """
    if basis is None:
        basis = HydrogenicBasisSpec(lam=image_strength(EPSILON_HE))
    n = geometry.n_sites
    v = np.broadcast_to(np.asarray(voltages, dtype=float), (n,)).copy()
    fields = np.asarray(site_field(geometry, v), dtype=float).reshape(n)

    # the distinct fields in site order, so a failing solve names the first site's field
    distinct = {f: k for k, f in enumerate(dict.fromkeys(fields.tolist()))}
    eps, z11, z22, z12 = np.empty((4, len(distinct)))
    for f, k in distinct.items():
        energies, vecs, z_cm = _checked_eigensystem(basis, f, vectors=True)
        # states 1 and 2, each signed so its dominant zero-field component is positive
        low = vecs[:, :2] * np.sign(vecs[np.abs(vecs[:, :2]).argmax(axis=0), [0, 1]])
        (z11[k], z12[k]), (_, z22[k]) = low.T @ z_cm @ low
        eps[k] = energies[1] - energies[0]
    site = [distinct[f] for f in fields.tolist()]
    eps, z11, z22, z12 = eps[site], z11[site], z22[site], z12[site]

    a, b = _pair_couplings(geometry, z11 - z22, z12)
    drive_coeff = EV_ERG * float(np.abs(z12).mean()) / HBAR
    return QubitArrayHamiltonian(
        eps_K=eps,
        a_K=a,
        b_K=b,
        drive_coeff=drive_coeff,
        z11_cm=z11,
        z22_cm=z22,
        z12_cm=z12,
        geometry=geometry,
        voltages=v,
        stark_map=_StarkMap(basis),
    )
