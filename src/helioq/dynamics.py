"""Time evolution of the qubit register under drive, coupling, and loss.

The register Hamiltonian (angular-frequency units, basis index bit n = 1
when qubit n is excited) is

    H/hbar = sum_n [ w_n(t) sz_n/2 + f(t) sx_n ]
           + sum_{n<m} [ a_nm sz_n sz_m / 4 + b_nm (s+_n s-_m + s-_n s+_m)/2 ]

with w_n the (schedule-dependent) transition frequency, f(t) the microwave
drive Omega(t) cos(w_mw t + phi), and a/b the dipole couplings.  In the
rotating frame at the carrier ("rwa"), w_n becomes the detuning and the
drive becomes (Omega/2)(cos(phi) sx + sin(phi) sy), so a resonant pulse of
area Omega T = pi inverts the qubit.

Each evolve call writes H(t) = diag(z(t)) + H_0 + f_x(t) H_X + f_y(t) H_Y
once, each H_k the nonzeros of its flip terms, entries vals[i] at (i, i ^ m)
for a bit mask m (`_Flips`): H_0 the sz-sz diagonal and every exchange pair,
H_X = sum_n X_n and H_Y = sum_n Y_n.  The loss channels below are flip terms
too.  A state vector's products add each row's entries in the order of its
terms, by NumPy gathers and one sum per row, and the loss channels' by
`np.add.at`; a density matrix sees H only as dense matrices (`_System.dense`).

Optional loss channels:
- per-qubit relaxation at rate 1/T1 (lowering operator) and pure dephasing
  at rate 1/T2_eff (sz operator, normalized so coherences decay as
  exp(-t/T2_eff)), assembled from a DecoherenceBudget in Lindblad form;
- the readout tunneling term -Theta(t - t_f)/(2 t_up) sum_n {P_up_n, rho},
  an anti-commutator alone, which drains trace as excited population
  escapes the surface.

The timeline is cut into pieces at the schedule breakpoints and t_f, so
each piece has one slope per channel and one tunneling state; samples are
read from one propagation per piece.  With no drive on, N = sum_n sz_n/2
commutes with H and the loss channels, so every path propagates H - w N, w
the mean qubit frequency, and w N returns as one exact phase per sample.
A closed constant piece takes the eigendecomposition of H (a state vector
up to _EXACT_DIM_MAX states), by LAPACK's real symmetric solver unless a
Y drive is on, since H is real without one; every other piece, truncated
Taylor steps (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011) on
H(t0 + s dt) = sum_j s^j H_j (Jorba & Zou, Exp. Math. 14, 2005):
(k + 1) c_{k+1} = -i dt sum_j H_j c_{k-j}, on a density matrix the
commutator, plus the loss channels D at j = 0.  The H_j are A + (t0 - tm) B
and dt B where H is linear in t, else each step's Chebyshev fit of eps and f;
a density matrix takes every H_j dense.

This module runs on NumPy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceBudget
from .pulses import PulseSchedule
from .qubits import QubitArrayHamiltonian, _chop
from .units import K_TO_RAD_PER_S

__all__ = [
    "EvolutionResult",
    "EvolutionSpec",
    "RegisterState",
    "TunnelingSpec",
    "evolve",
]

_STATE_VECTOR_MAX = 16
_DENSITY_MATRIX_MAX = 8
# largest state vector a closed constant piece takes eigh for: read once, Taylor overtakes it at 128
_EXACT_DIM_MAX = 64
# rows of a `_Flips` block, and of each term an `apply` block holds: a 14-qubit triangle-envelope
# evolve peaks at 107 MiB here and at 113 MiB with 1 << 12, as fast (bench/layers.py cold_sv_triangle_n14)
_ROW_BLOCK = 1 << 10
_REREAD_DIM_MAX = 1024  # read many times, as `piece_propagator` is: 6-21x at 7-9 qubits (bench/layers.py)
_TAYLOR_THETA = 10.0  # bound on ||dt L||_1 per Taylor step, chosen by measurement
_TAYLOR_TERMS_MAX = 100  # theta^k/k! falls below 2^-53 by k = 53
_FIT_DEGREE = 24  # a step's Chebyshev samples: `_chop` sees up to 16 terms level off
_FIT_TERMS = 16  # at most: T_15(1 - 2s) reaches 3e11 on the disk |s| <= 1 the Taylor terms read
# column k: T_k(1 - 2s) in monomials of s, (-4)^j k (k + j - 1)! / ((k - j)! (2j)!) at s^j, exact integers
_MONOMIALS = np.array([[(-4) ** j * k * math.comb(k + j, 2 * j) // (k + j) if k else int(j == 0)
                        for k in range(_FIT_DEGREE + 1)] for j in range(_FIT_DEGREE + 1)], dtype=float)


def basis_index(bits: str) -> int:
    """Index of the product state given as one character per qubit.

    Characters: 'd'/'0' ground, 'u'/'1' excited; leftmost is qubit 0.
    """
    idx = 0
    for n, ch in enumerate(bits):
        if ch in ("u", "1"):
            idx |= 1 << n
        elif ch not in ("d", "0"):
            raise ValueError(f"state characters must be d/u/0/1, got {ch!r}")
    return idx


def basis_labels(n_qubits: int) -> list[str]:
    return [
        "".join("u" if (i >> n) & 1 else "d" for n in range(n_qubits))
        for i in range(2**n_qubits)
    ]


@dataclass(frozen=True)
class RegisterState:
    """State of the register, as amplitudes or a density matrix."""

    mode: str                 # "state-vector" | "density-matrix"
    n_qubits: int
    data: np.ndarray

    def __post_init__(self):
        dim = 2**self.n_qubits
        data = np.asarray(self.data, dtype=complex)
        if self.mode == "state-vector":
            if data.shape != (dim,):
                raise ValueError(f"expected shape ({dim},), got {data.shape}")
        elif self.mode == "density-matrix":
            if data.shape != (dim, dim):
                raise ValueError(f"expected shape ({dim},{dim}), got {data.shape}")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "data", data)

    @classmethod
    def state_vector(cls, bits: str) -> "RegisterState":
        n = len(bits)
        vec = np.zeros(2**n, dtype=complex)
        vec[basis_index(bits)] = 1.0
        return cls("state-vector", n, vec)

    @classmethod
    def density_matrix(cls, bits: str) -> "RegisterState":
        n = len(bits)
        dim = 2**n
        rho = np.zeros((dim, dim), dtype=complex)
        i = basis_index(bits)
        rho[i, i] = 1.0
        return cls("density-matrix", n, rho)


@dataclass(frozen=True)
class TunnelingSpec:
    """Readout tunneling onset t_f and excited-state escape time t_up (s)."""

    t_f: float
    t_up: float

    def __post_init__(self):
        if not self.t_f >= 0:  # `not >=` and `not >`: NaN fails them too
            raise ValueError(f"t_f must be nonnegative, got {self.t_f}")
        if not self.t_up > 0:
            raise ValueError(f"t_up must be positive, got {self.t_up}")


@dataclass(frozen=True)
class EvolutionSpec:
    """Frame, sample times, and optional loss channels."""

    sample_times: np.ndarray
    frame: str = "rwa"
    budget: DecoherenceBudget | None = None
    tunneling: TunnelingSpec | None = None

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.sample_times, dtype=float))
        if times.size == 0:
            raise ValueError("at least one sample time is required")
        if not (np.all(np.diff(times) >= 0) and times[0] >= 0):
            raise ValueError("sample times must be sorted and nonnegative")
        if self.frame not in ("rwa", "lab"):
            raise ValueError(f"frame must be 'rwa' or 'lab', got {self.frame!r}")
        object.__setattr__(self, "sample_times", times)


@dataclass(frozen=True)
class EvolutionResult:
    """Trajectory snapshots with their trace record and derived populations.

    `to_json_dict` gives the states as one float array of (re, im) rows, of
    shape (samples, elements, 2); the CLI writes the files.
    """

    mode: str
    labels: list[str]
    times: np.ndarray
    states: np.ndarray          # (nt, dim) or (nt, dim, dim)
    trace: np.ndarray           # <psi|psi> or tr(rho) at each sample
    populations: np.ndarray     # (nt, dim)
    frame: str

    def population(self, bits: str) -> np.ndarray:
        if len(bits) != len(self.labels[0]):
            raise ValueError(
                f"state label {bits!r} has {len(bits)} characters for a "
                f"{len(self.labels[0])}-qubit register"
            )
        return self.populations[:, basis_index(bits)]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_json_dict(self) -> dict:
        states = self.states.reshape(len(self.states), -1)
        return {
            "mode": self.mode,
            "frame": self.frame,
            "labels": self.labels,
            "times": self.times.tolist(),
            "states": np.stack((states.real, states.imag), axis=-1),
            "trace": self.trace.tolist(),
        }


# --- operator assembly -----------------------------------------------------


def _nonzeros(terms, *shape):
    """The nonzeros of sum of terms (m, vals), each holding vals[i] at (i, i ^ m), _ROW_BLOCK rows at a
    time: (rows, cols, vals, places) term by term, places counting each row's entries from 0 in term
    order.

    Rows are indexed by `shape`, (dim,) or (dim, dim) for a superoperator, each vals broadcast to it;
    the masks m are distinct.
    """
    vals = [np.broadcast_to(v, shape).reshape(-1) for _, v in terms]
    masks = np.array([m for m, _ in terms], dtype=np.intp).reshape(-1, 1)
    for lo in range(0, math.prod(shape), _ROW_BLOCK):
        rows = np.arange(lo, min(lo + _ROW_BLOCK, math.prod(shape)))
        block = np.array([v[rows[0]:rows[-1] + 1] for v in vals], complex).reshape(-1, rows.size)
        keep = block != 0
        yield (np.broadcast_to(rows, keep.shape)[keep], (rows ^ masks)[keep], block[keep],
               np.cumsum(keep, axis=0)[keep] - 1)


def _norm(cols, vals) -> float:
    """The 1-norm of entries vals at columns cols, each column summed in the order given."""
    return np.bincount(cols, np.abs(vals)).max(initial=0.0)


class _Flips:
    """`_nonzeros` of terms on dim rows, stored by level for gathers.

    Level k holds each row's k-th nonzero, and a row with fewer than the longest holds a pad there,
    0 at its own column.  The rows come in blocks of B = min(dim, _ROW_BLOCK): row b B + o keeps its
    k-th entry's column in `cols[b, k, o]` and its value in `vals[b, k, o]`, so a block's levels are
    contiguous.
    """

    def __init__(self, terms, dim: int):
        levels = int(sum((np.broadcast_to(v, dim) != 0 for _, v in terms), np.zeros(dim, int)).max(initial=0))
        span = min(dim, _ROW_BLOCK)
        self.cols = np.repeat(np.arange(dim).reshape(-1, 1, span), levels, axis=1)
        self.vals = np.zeros(self.cols.shape, complex)
        for block, (rows, cols, vals, places) in enumerate(_nonzeros(terms, dim)):  # one per block
            at = places, rows - block * span
            self.cols[block][at], self.vals[block][at] = cols, vals

    def rows(self, lo: int, hi: int):
        """(cols, vals) of rows lo to hi - 1, which lie in one block, by level."""
        b, o = divmod(lo, self.cols.shape[2])
        return self.cols[b, :, o:o + hi - lo], self.vals[b, :, o:o + hi - lo]

    def nonzeros(self):
        """(rows, cols, vals) of the nonzeros in row order, term order within a row."""
        b, o, k = np.nonzero(self.vals.transpose(0, 2, 1))
        return b * self.cols.shape[2] + o, self.cols[b, k, o], self.vals[b, k, o]

    def norm(self) -> float:
        """The 1-norm, each column summed in row order."""
        return _norm(*(a.transpose(0, 2, 1).reshape(-1) for a in (self.cols, self.vals)))


def _combine(f, c):
    """f @ c, the sum_j f_j c_j of real f and complex rows c_j, or None where f vanishes.

    Where f_j vanishes for j > 0 (H_0's coefficient does in every evolve call), f_0 c_0, and c_0
    itself at f_0 = 1: f @ c bit for bit, but for the sign of a zero, which no sum from +0 reads.
    """
    head, *rest = f.tolist()
    if any(rest):
        return f @ c
    if head:
        return c[0] if head == 1.0 else head * c[0]
    return None


def _rows_sum(d, c, ops):
    """Row by row, one sum from +0 of the products d_j c_j, then of each (cols, vals, x) in turn:
    its levels, vals times the entries of vector x at cols.

    Each row adds its terms in that order, the sum a CSR product in term order takes after the
    diagonal products; a sum from +0 never reads -0, so a pad's product, +-0, leaves it as it is.
    """
    terms = np.empty((len(c) + sum(len(cols) for cols, _, _ in ops), c.shape[1]), complex)
    np.multiply(d, c, out=terms[:len(c)])
    at = len(c)
    for cols, vals, x in ops:
        part = terms[at:at + len(cols)]
        x.take(cols, 0, part, "wrap")
        np.multiply(part, vals, out=part)
        at += len(cols)
    return np.add.reduce(terms, 0, None, None, False, 0j)  # from +0, in order down axis 0


class _System:
    """H(t) = diag(z(t)) + sum_k c_k(t) H_k of one evolve call, (c_k) = (1, f_x, f_y).

    `h[k]` is H_k as `_Flips`: H_0 the sz-sz diagonal and each exchange pair, H_1 = H_X the X_n
    flips and H_2 = H_Y the Y_n flips, the last two only with a microwave channel, without which
    f_x and f_y vanish.  `norms[k]` is H_k's 1-norm.
    """

    def __init__(self, ham: QubitArrayHamiltonian, schedule: PulseSchedule, spec: EvolutionSpec):
        self.n = ham.n_qubits
        self.dim = 2**self.n
        idx = np.arange(self.dim)
        # +1 where qubit n is excited, -1 otherwise
        self.zpat = np.array([2.0 * ((idx >> n) & 1) - 1.0 for n in range(self.n)])

        a_rad = ham.a_K * K_TO_RAD_PER_S
        b_rad = ham.b_K * K_TO_RAD_PER_S
        szsz = np.zeros(self.dim)
        static = [(0, szsz)]
        # uncoupled pairs add only zeros, which `_Flips` does not store
        for i in range(self.n):
            for j in range(i + 1, self.n):
                szsz += 0.25 * a_rad[i, j] * self.zpat[i] * self.zpat[j]
                # s+_i s-_j + s-_i s+_j couples rows whose bits i, j differ
                hop = np.where(self.zpat[i] != self.zpat[j], 0.5 * b_rad[i, j], 0.0)
                static.append((1 << i | 1 << j, hop))
        self.h = [_Flips(static, self.dim)]
        # H_X and H_Y exist only when a microwave channel can fill them
        if schedule.microwave:
            flips = [1 << n for n in range(self.n)]
            self.h.append(_Flips([(f, 1.0) for f in flips], self.dim))
            self.h.append(_Flips([(f, -1j * z) for f, z in zip(flips, self.zpat)], self.dim))
        self.norms = [m.norm() for m in self.h]

        # transition frequencies vs time (rad/s); channels that never leave
        # zero are inert and do not require a Stark map
        self.eps0_rad = ham.eps_K * K_TO_RAD_PER_S
        self.tuning = {
            c.site: ham.stark_tuning(c.site) for c in schedule.voltage_channels
            if any(v != 0.0 for _, v in c.points)
        }
        self.schedule = schedule
        self.spec = spec
        self.drive_coeff = ham.drive_coeff

        # microwave bookkeeping
        self.carrier_rad = 0.0
        if schedule.microwave:
            freqs = {c.freq_GHz for c in schedule.microwave}
            if spec.frame == "rwa" and len(freqs) > 1:
                raise ValueError(
                    "rwa frame requires a single carrier; schedule has "
                    f"{sorted(freqs)} GHz"
                )
            if spec.frame == "rwa":
                self.carrier_rad = 2.0 * math.pi * 1e9 * next(iter(freqs))

    # -- coefficients --------------------------------------------------------

    def eps_rad(self, t) -> np.ndarray:
        """Per-qubit sz coefficient (rad/s): absolute in lab, detuning in rwa."""
        eps = np.array(self.eps0_rad, dtype=float)
        for site, tuning in self.tuning.items():
            dv = self.schedule.voltage_at(site, t)
            if dv != 0.0:
                eps[site] = tuning(dv) * K_TO_RAD_PER_S
        if self.spec.frame == "rwa":
            eps -= self.carrier_rad
        return eps

    def drive_xy(self, t) -> tuple[float, float]:
        """(sx, sy) drive coefficients at time t (rad/s)."""
        fx = fy = 0.0
        for ch in self.schedule.microwave:
            omega = self.drive_coeff * ch.amp_V_per_cm * ch.envelope_at(t)
            if omega == 0.0:
                continue
            if self.spec.frame == "rwa":
                fx += 0.5 * omega * math.cos(ch.phase)
                fy += 0.5 * omega * math.sin(ch.phase)
            else:
                w = 2.0 * math.pi * 1e9 * ch.freq_GHz
                fx += omega * math.cos(w * t + ch.phase)
        return fx, fy

    def piece(self, ta: float, tb: float):
        """(A, B, w) with H(t) - w N = A + (t - tm) B on (ta, tb), N = sum_n sz_n/2 the excitation.

        A and B are coefficient vectors.  Channels are linear between
        breakpoints, so two interior points p, q tell every slope.  B is None
        when H is constant; A is None when H is not linear in t (a voltage
        moves, or a lab-frame drive is on).  w, the mean qubit frequency at tm,
        is 0 unless no drive is on: N then commutes with H and every loss channel.
        """
        p, q, tm = ta + 0.25 * (tb - ta), ta + 0.75 * (tb - ta), 0.5 * (ta + tb)
        # amplitude x envelope, not drive_xy: lab-frame cosines can sum to 0 at p or q
        f = [(ch.amp_V_per_cm * ch.envelope_at(p), ch.amp_V_per_cm * ch.envelope_at(q))
             for ch in self.schedule.microwave]
        idle, constant = not any(fp or fq for fp, fq in f), all(fp == fq for fp, fq in f)
        w = float(np.mean(self.eps_rad(tm))) if idle else 0.0
        moving = any(self.schedule.voltage_at(s, p) != self.schedule.voltage_at(s, q) for s in self.tuning)
        if moving or not (idle or self.spec.frame == "rwa"):
            return None, None, w
        a = self.coefficients(tm, w)
        return a, None if constant else (self.coefficients(q) - self.coefficients(p)) / (q - p), w

    # -- operator application -------------------------------------------------

    def coefficients(self, t, w: float = 0.0) -> np.ndarray:
        """H(t) - w N as one vector: diagonal sum_n (eps_n(t) - w) sz_n/2, then (c_k) = (1, f_x, f_y)."""
        return np.concatenate((0.5 * ((self.eps_rad(t) - w) @ self.zpat), (1.0, *self.drive_xy(t))))

    def apply(self, hs, cs) -> np.ndarray:
        """sum_j H_j c_j for coefficient vectors H_j and state vectors c_j.

        `_rows_sum` of the diagonals and of each H_k on sum_j f_kj c_j, H_k left out where f_k
        vanishes, over blocks of _ROW_BLOCK rows.
        """
        v, c = np.asarray(hs)[:len(cs)], np.array(cs)
        ops = [(m, x) for k, m in enumerate(self.h) if (x := _combine(v[:, self.dim + k], c)) is not None]
        d = v[:, :self.dim].astype(complex)
        if self.dim <= _ROW_BLOCK:  # one block
            return _rows_sum(d, c, [(m.cols[0], m.vals[0], x) for m, x in ops])
        return np.concatenate([_rows_sum(d[:, lo:lo + _ROW_BLOCK], c[:, lo:lo + _ROW_BLOCK],
                                         [(*m.rows(lo, lo + _ROW_BLOCK), x) for m, x in ops])
                               for lo in range(0, self.dim, _ROW_BLOCK)])

    def dense(self, v) -> np.ndarray:
        """The dense matrix of coefficient vector v."""
        h = np.diag(v[:self.dim].astype(complex))
        for k, m in enumerate(self.h):
            if c := v[self.dim + k]:
                rows, cols, vals = m.nonzeros()
                h.reshape(-1)[rows * self.dim + cols] += c * vals
        return h


class _Liouvillian:
    """Density-matrix generator -i[H(t), .] + D, less {G, .} once tunneling is on.

    Stores only D and D - {G, .}, each the `_nonzeros` of its terms on row-major vec(rho), with
    `norms` their 1-norms; H rho comes to each call.  D holds relaxation sqrt(1/T1) s- (jumps
    as index flips, and decay) and dephasing sqrt(2/T2_eff) sz/2, alone decaying coherences as
    exp(-t/T2_eff); G = sum_n P_up_n/(2 t_up).
    """

    def __init__(self, sys: _System, budget: DecoherenceBudget | None,
                 tunneling: TunnelingSpec | None):
        dim, idx = sys.dim, np.arange(sys.dim)
        jumps, decay = [], np.zeros((dim, dim))
        if budget is not None:
            g1, gphi = 1.0 / budget.t1_s, 1.0 / budget.t2_eff_s
            for q in range(sys.n):
                occ = (idx >> q) & 1
                jumps.append(((1 << q) * (dim + 1), g1 * np.outer(1 - occ, 1 - occ)))
                decay -= 0.5 * g1 * (occ[:, None] + occ[None, :])
                decay -= gphi * (occ[:, None] != occ[None, :])
        # without tunneling, escape takes forever and G vanishes
        t_up = math.inf if tunneling is None else tunneling.t_up
        g = sum((idx >> q) & 1 for q in range(sys.n)) / (2.0 * t_up)
        self.dissipator, self.norms, self.shape = [], [], (dim, dim)
        for d in (decay, decay - (g[:, None] + g[None, :])):
            rows, cols, vals, _ = map(np.concatenate, zip(*_nonzeros([(0, d), *jumps], dim, dim)))
            order = np.argsort(rows, kind="stable")  # row order, term order within a row
            self.dissipator.append((rows[order], cols[order], vals[order]))
            self.norms.append(_norm(cols[order], vals[order]))

    def apply(self, x, y, tunneling: bool) -> np.ndarray:
        """-i (x - x^dagger) + D y in a fresh array (a step keeps earlier terms), x = sum_j H_j c_j,
        y = c_0; the c_j are Hermitian, so c_j H_j = (H_j c_j)^dagger.  `np.add.at` adds D's
        entries of each row in order, after the commutator, as a CSR kernel does."""
        x = x.reshape(self.shape)
        out = np.subtract(x, x.conj().T, order="C").reshape(-1)  # C order: a view of its memory
        out *= -1j
        rows, cols, vals = self.dissipator[tunneling]
        np.add.at(out, rows, vals * y[cols])
        return out


def evolve(
    hamiltonian: QubitArrayHamiltonian,
    schedule: PulseSchedule,
    initial: RegisterState,
    spec: EvolutionSpec,
) -> EvolutionResult:
    """Integrate the register from t = 0 through the schedule.

    Sample times must be covered by the schedule duration.  Tunneling and
    a budget require density-matrix mode.  Raises RuntimeError if a Taylor
    step's terms never fall below the sum's roundoff.
    """
    n = hamiltonian.n_qubits
    if initial.n_qubits != n:
        raise ValueError(
            f"initial state has {initial.n_qubits} qubits, hamiltonian has {n}"
        )
    if initial.mode == "state-vector" and n > _STATE_VECTOR_MAX:
        raise ValueError(f"state-vector mode supports at most {_STATE_VECTOR_MAX} qubits")
    if initial.mode == "density-matrix" and n > _DENSITY_MATRIX_MAX:
        raise ValueError(f"density-matrix mode supports at most {_DENSITY_MATRIX_MAX} qubits")
    if spec.tunneling is not None and initial.mode != "density-matrix":
        raise ValueError("tunneling evolution requires density-matrix mode")
    if spec.budget is not None and initial.mode != "density-matrix":
        raise ValueError("budget evolution requires density-matrix mode")
    t_end = float(spec.sample_times[-1])
    if t_end > schedule.duration * (1 + 1e-12) + 1e-300:
        raise ValueError(
            f"schedule duration {schedule.duration} does not cover the last "
            f"sample time {t_end}"
        )

    sys = _System(hamiltonian, schedule, spec)
    dm = initial.mode == "density-matrix"
    liou = _Liouvillian(sys, spec.budget, spec.tunneling) if dm else None
    t_f = math.inf if spec.tunneling is None else spec.tunneling.t_f
    # pieces end at breakpoints, t_f and t_end: one slope and tunneling state each
    bounds = sorted(
        {0.0, t_end} | {float(t) for t in (*schedule.breakpoints(), t_f) if 0.0 < t < t_end}
    )

    samples = spec.sample_times
    state = np.array(initial.data, dtype=complex)
    # samples at 0 hold the initial state, also when t_end = 0 leaves no piece
    k = int(np.searchsorted(samples, 0.0, side="right"))
    out_states = [state] * k
    for ta, tb in zip(bounds[:-1], bounds[1:]):
        j = int(np.searchsorted(samples, tb, side="right"))
        # the piece's samples in (ta, tb] and tb itself, repeats read once
        times, at = np.unique(np.append(samples[k:j], tb), return_inverse=True)
        states = _propagator(sys, liou, ta, tb, ta >= t_f)(state, times)
        out_states.extend(states[i] for i in at[:-1])
        state, k = states[-1], j

    states = np.array(out_states)
    if dm:
        trace = np.trace(states, axis1=1, axis2=2).real
        populations = np.diagonal(states, axis1=1, axis2=2).real.copy()
    else:
        # one vdot per sample: a vectorized |psi|^2 sum rounds differently
        trace = np.array([np.vdot(s, s).real for s in states])
        populations = np.abs(states) ** 2
    return EvolutionResult(
        mode=initial.mode,
        labels=basis_labels(n),
        times=samples.copy(),
        states=states,
        trace=trace,
        populations=populations,
        frame=spec.frame,
    )


def _propagator(sys, liou, ta, tb, tunneling, reread=False):
    """Propagation (state at ta, sorted times in (ta, tb]) -> states; each path runs H - w N of `piece`.

    A closed constant piece takes eigh on a density matrix (eigh reads a sample by three products,
    Taylor a term by one), or on a state vector up to _EXACT_DIM_MAX, or `reread` _REREAD_DIM_MAX, rows.
    H is real unless a Y drive f_y H_Y is on, so every voltage-only swap plateau, every piece with
    the drive off and an rwa drive with sin(phi) = 0 take eigh of h.real, LAPACK's real symmetric
    solver (1.5-5.5 times faster than the complex one at 16-1024 states), its eigenvectors cast to
    complex once for the products.
    """
    a, b, w = sys.piece(ta, tb)
    closed = liou is None or (sys.spec.budget is None and not tunneling)
    cap = _REREAD_DIM_MAX if reread else _EXACT_DIM_MAX
    if closed and a is not None and b is None and (liou is not None or sys.dim <= cap):
        h = sys.dense(a)
        lam, v = np.linalg.eigh(h if h.imag.any() else h.real)
        v = v.astype(complex, copy=False)
        vh = v.conj().T

        def propagate(state, times):
            # every sample from the start state, through the one eigenbasis
            phases = (np.exp(-1j * lam * (t - ta)) for t in times)
            if state.ndim == 1:
                c = vh @ state
                return [v @ (p * c) for p in phases]
            return [u @ state @ u.conj().T for u in ((v * p) @ vh for p in phases)]
    else:
        propagate = _taylor(sys, liou, ta, tb, tunneling, w, a, b)
    if not w:
        return propagate
    # N commutes with H and the loss channels: exp(-i w N (t - ta)), or (N_a - N_b) on a density matrix
    e = 0.5 * sys.zpat.sum(axis=0)
    rate = -1j * w * (e if liou is None else e[:, None] - e[None, :])
    return lambda state, times: [s * np.exp((t - ta) * rate) for t, s in zip(times, propagate(state, times))]


def piece_propagator(hamiltonian, schedule, ta, tb):
    """`evolve`'s closed propagation (state at ta, sorted times in (ta, tb]) -> states, read many times."""
    sys = _System(hamiltonian, schedule, EvolutionSpec(sample_times=[tb]))
    return _propagator(sys, None, ta, tb, False, reread=True)


def _fit(sys, t0, dt, w):
    """Rows m_j of (eps - w, f) with H(t0 + s dt) - w N = sum_j s^j H(m_j), or None for a shorter step.

    eps (lab frame, as its samples round) and f at _FIT_DEGREE + 1 extreme points give
    Chebyshev series in x = 1 - 2s, each cut by `qubits._chop` at a tolerance admitting t's
    own rounding, |f'| |t| 2^-52 (Chebfun's hscale), and turned into monomials in s by one
    fixed matrix.
    """
    t = t0 + dt * (0.5 - 0.5 * np.cos(np.pi * np.arange(_FIT_DEGREE + 1) / _FIT_DEGREE))  # x = 1 - 2s
    vals = np.array([[*sys.eps_rad(ti), *sys.drive_xy(ti)] for ti in t])
    vals[:, :sys.n] += sys.carrier_rad
    c = np.fft.rfft(np.concatenate((vals, vals[-2:0:-1])), axis=0).real / _FIT_DEGREE
    c[[0, -1]] /= 2
    slope = (np.abs(np.diff(vals, axis=0)) / np.maximum(np.diff(t), 1e-300)[:, None]).max(axis=0)
    tol = 2.0**-52 * np.maximum(1.0, abs(t[-1]) * slope / np.maximum(np.abs(vals).max(axis=0), 1e-300))
    keep = [_chop(ci, tc) if ci.any() else 0 for ci, tc in zip(c.T, tol)]
    for ci, tc, k in zip(c.T, tol, keep):  # each series ends by its last term above tol
        ci[min(k, np.flatnonzero(np.abs(ci) >= tc * np.abs(ci).max()).max(initial=len(c)) + 1):] = 0.0
    c[0, :sys.n] -= sys.carrier_rad + w  # T_0 = 1: the constant term alone
    mono = (_MONOMIALS @ c)[:np.flatnonzero(c.any(axis=1)).max(initial=0) + 1]
    # more than _FIT_TERMS terms halve the step, unless H's spread over it is below roundoff (a sliver)
    spread = dt * np.ptp(vals, axis=0) @ np.r_[[0.5] * sys.n, sys.n, sys.n]
    return None if len(mono) > _FIT_TERMS and spread > 2.0**-53 else mono


def _taylor(sys, liou, ta, tb, tunneling, w, a, b):
    """Propagation (state at ta, sorted times in (ta, tb]) -> states by truncated Taylor steps.

    On each equal step t0 + s dt, H(t) - w N = sum_j s^j H_j: A + (t0 - tm) B and dt B where H
    is linear in t, else the step's `_fit`.  A state vector takes the H_j as coefficient vectors
    (`_System.apply`), a density matrix as dense matrices, one product per H_j, or a row scaling
    where a fit's H_j is diagonal.  Steps keep ||dt L||_1 <= theta, ||L||_1 = ||H||_1 on a state
    vector and 2 ||H||_1 + ||D||_1 on a density matrix: ||H||_1 at the ends of a linear piece
    (convex in t), exact on a density matrix, or summed over a fit's terms, a bound on the disk
    |s| <= 1 the Taylor terms read.  Samples read their step's polynomial (its sum at the end)
    and do not move the steps.
    """
    dm = liou is not None
    dnorm = liou.norms[tunneling] if dm else 0.0

    def norm(v):  # a bound on ||H||_1 for coefficient vector v
        return np.abs(v[:sys.dim]).max() + sum(abs(c) * hk for c, hk in zip(v[sys.dim:], sys.norms))

    def poly(m):  # the coefficient vectors H(m_j) of a fit's rows, H_0 in row 0 only
        return np.hstack((0.5 * (m[:, :sys.n] @ sys.zpat), np.eye(len(m), 1), m[:, sys.n:]))

    size, terms, apply = norm, poly, sys.apply
    if dm:  # every H_j dense but a fit's diagonal ones, and ||H||_1 of a linear piece exactly
        a, b = (None if h is None else sys.dense(h) for h in (a, b))
        # a fit row that moves only the qubit frequencies (not row 0, which holds H_0) is its diagonal
        size, terms = (lambda h: np.abs(h).sum(axis=0).max()), (
            lambda m: [sys.dense(v) if v[sys.dim:].any() else v[:sys.dim, None] for v in poly(m)])

        def apply(hs, cs):  # H_0 c_0, plus H_j c_j for each further j
            x = hs[0] @ cs[0].reshape(hs[0].shape)
            for h, c in zip(hs[1:], cs[1:]):
                x += h * c.reshape(x.shape) if h.shape[1] == 1 else h @ c.reshape(x.shape)
            return liou.apply(x, cs[0], tunneling)
    if a is not None:
        ends = [a] if b is None else [a + f * (tb - ta) * b for f in (-0.5, 0.5)]
        steps = max(1, math.ceil(((1 + dm) * max(map(size, ends)) + dnorm) * (tb - ta) / _TAYLOR_THETA))
    else:
        steps, fits = 1, [_fit(sys, ta, tb - ta, w)]
        while any(m is None or ((1 + dm) * sum(map(norm, poly(m))) + dnorm) * (tb - ta)
                  > _TAYLOR_THETA * steps for m in fits):
            steps *= 2
            fits = [_fit(sys, ta + j * (tb - ta) / steps, (tb - ta) / steps, w) for j in range(steps)]
    dt, tm = (tb - ta) / steps, 0.5 * (ta + tb)
    where = (f"on [{ta}, {tb}] in {'density-matrix' if dm else 'state-vector'} mode "
             f"with tunneling {'on' if tunneling else 'off'}")
    scale = dt if dm else -1j * dt

    def propagate(state, times):
        y, out, times = state.reshape(-1), [], np.asarray(times)
        for j in range(steps):
            t0, t1 = ta + j * dt, tb if j == steps - 1 else ta + (j + 1) * dt
            now = times[(t0 < times) & (times <= t1)]
            hs = terms(fits[j]) if a is None else [a] if b is None else [a + (t0 - tm) * b, dt * b]
            inner, y = _series(apply, hs, y, scale, (now[now < t1] - t0) / dt, where)
            out += [s.reshape(state.shape) for s in [*inner, y][:len(now)]]
        return out

    return propagate


def _series(apply, hs, y, scale, at, where):
    """One Taylor step: y(s) = sum_k c_k s^k at each fraction s in `at`, and the whole sum.

    c_0 = y and (k + 1) c_{k+1} = scale apply(hs, [c_k, c_{k-1}, ...]), summed until two terms
    in a row fall below 2^-53 of the sum (expm_multiply's test); raises if they never do.
    """
    cs, total, inner = [y], y, [y] * len(at)
    small = reach = np.abs(y).max()  # reach >= the sum's norm, read only once the test may pass
    for k in range(1, _TAYLOR_TERMS_MAX):
        term = apply(hs, cs)
        term *= scale / k
        cs = [term, *cs[:len(hs) - 1]]
        total, inner = total + term, [p + s**k * term for p, s in zip(inner, at)]
        last, small = small, np.abs(term).max()
        tail, reach = 2.0**53 * (last + small), reach + small
        if tail <= reach and tail <= np.abs(total).max() < math.inf:
            return inner, total
    raise RuntimeError(f"Taylor series did not converge {where}")
