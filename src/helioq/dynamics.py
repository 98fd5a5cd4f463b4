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
once, each H_k one CSR matrix with its zeros dropped: H_0 the sz-sz
diagonal and every exchange pair, H_X = sum_n X_n and H_Y = sum_n Y_n.
The state-vector product sums c_k (H_k @ psi), and the dense matrix, the
one form of H a density matrix sees, adds each H_k's stored entries.

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
A closed constant piece takes the eigendecomposition of H.  A density-matrix
piece with H(t) = A + (t - tm) B (constant, or rwa with voltages held) takes
a truncated Taylor series of -i[H(t), .] + D, D the loss channels (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 2011), each term one right-hand side:
X = H rho, -i(X - X^dagger) in one fresh array, and D vec(rho) added by
SciPy's CSR kernel.  Other pieces take one DOP853 run, read by its dense
output (Hairer, Norsett & Wanner, ODEs I).

SciPy loads on first use (`scipy.sparse` for CSR matrices, `scipy.integrate`
for DOP853), so importing this module costs NumPy alone.  `dynamics.solve_ivp`
wraps SciPy's and is the one name to patch to count or fail integrator runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceBudget
from .pulses import PulseSchedule
from .qubits import QubitArrayHamiltonian
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
# largest Hilbert dimension for dense eigendecomposition of constant pieces
_EXACT_DIM_MAX = 1024
_TAYLOR_THETA = 10.0  # bound on ||dt L||_1 per Taylor step, chosen by measurement
_TAYLOR_TERMS_MAX = 100  # theta^k/k! falls below 2^-53 by k = 53


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
    """Frame, tolerance, sample times, and optional loss channels."""

    sample_times: np.ndarray
    frame: str = "rwa"
    rtol: float = 1e-8
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
        if not self.rtol > 0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")
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


def _one_per_row(terms, *shape):
    """sum of terms (m, vals), each holding vals[i] at (i, i ^ m), as CSR.

    Rows are indexed by `shape`, (dim,) or (dim, dim) for a superoperator, each
    vals broadcast to it; the masks m are distinct.  Only nonzeros are stored.
    """
    from scipy.sparse import csr_matrix

    vals = [np.broadcast_to(v, shape) for _, v in terms]
    rows = np.arange(math.prod(shape), dtype=np.int32).reshape(shape[0], -1)
    indptr = np.append(np.int32(0), np.cumsum(sum(v != 0 for v in vals), dtype=np.int32))
    data, cols = np.empty(indptr[-1], np.result_type(*vals)), np.empty(indptr[-1], np.int32)
    step = max(1, 4096 // rows.shape[1])  # rows per block
    for lo in range(0, len(rows), step):
        block, r = np.stack([v[lo:lo + step].ravel() for v in vals], 1), rows[lo:lo + step]
        at, keep = slice(indptr[r[0, 0]], indptr[r[-1, -1] + 1]), block != 0
        data[at], cols[at] = block[keep], (r.reshape(-1, 1) ^ [m for m, _ in terms])[keep]
    return csr_matrix((data, cols, indptr), shape=(rows.size,) * 2)


class _System:
    """H(t) = diag(z(t)) + sum_k c_k(t) H_k of one evolve call, (c_k) = (1, f_x, f_y).

    `h[k]` is H_k as CSR: H_0 the sz-sz diagonal and each exchange pair,
    H_1 = H_X the X_n flips and H_2 = H_Y the Y_n flips (the one complex
    H_k), the last two only with a microwave channel, without which f_x and
    f_y vanish.  `at[k]` holds H_k's entries' flat indices into the dense H.
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
        # uncoupled pairs add only zeros, which the CSR build drops
        for i in range(self.n):
            for j in range(i + 1, self.n):
                szsz += 0.25 * a_rad[i, j] * self.zpat[i] * self.zpat[j]
                # s+_i s-_j + s-_i s+_j couples rows whose bits i, j differ
                hop = np.where(self.zpat[i] != self.zpat[j], 0.5 * b_rad[i, j], 0.0)
                static.append((1 << i | 1 << j, hop))
        self.h = [_one_per_row(static, self.dim)]
        # H_X and H_Y exist only when a microwave channel can fill them
        if schedule.microwave:
            flips = [1 << n for n in range(self.n)]
            self.h.append(_one_per_row([(f, 1.0) for f in flips], self.dim))
            self.h.append(_one_per_row([(f, -1j * z) for f, z in zip(flips, self.zpat)], self.dim))
        self.at = [np.repeat(idx * self.dim, np.diff(m.indptr)) + m.indices for m in self.h]

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

    def piece(self, ta: float, tb: float, dm: bool):
        """(A, B, w) with H(t) - w N = A + (t - tm) B on (ta, tb), N = sum_n sz_n/2 the excitation.

        Channels are linear between breakpoints, so two interior points p, q
        tell every slope.  B is None when H is constant; A is None when H is
        not linear in t (a voltage moves, or a lab-frame drive is on) or no
        path reads it dense (eigh takes up to _EXACT_DIM_MAX rows, a slope only
        Taylor steps on a density matrix, `dm`).  w, the mean qubit frequency at
        tm, is 0 unless no drive is on: N then commutes with H and every loss channel.
        """
        p, q, tm = ta + 0.25 * (tb - ta), ta + 0.75 * (tb - ta), 0.5 * (ta + tb)
        # amplitude x envelope, not drive_xy: lab-frame cosines can sum to 0 at p or q
        f = [(ch.amp_V_per_cm * ch.envelope_at(p), ch.amp_V_per_cm * ch.envelope_at(q))
             for ch in self.schedule.microwave]
        idle, constant = not any(fp or fq for fp, fq in f), all(fp == fq for fp, fq in f)
        w = float(np.mean(self.eps_rad(tm))) if idle else 0.0
        moving = any(self.schedule.voltage_at(s, p) != self.schedule.voltage_at(s, q) for s in self.tuning)
        dense = self.dim <= _EXACT_DIM_MAX if constant else dm
        if moving or not (idle or self.spec.frame == "rwa") or not dense:
            return None, None, w
        a = self.dense_h(tm, w)
        return (a, None, w) if constant else (a, (self.dense_h(q) - self.dense_h(p)) / (q - p), w)

    # -- operator application -------------------------------------------------

    def z(self, t, w: float = 0.0) -> np.ndarray:
        """The time-dependent diagonal sum_n (eps_n(t) - w) sz_n/2."""
        return 0.5 * ((self.eps_rad(t) - w) @ self.zpat)

    def _weighted(self, t):
        """(c_k(t), k) for the H_k whose coefficient is nonzero."""
        return [(c, k) for k, c in enumerate((1.0, *self.drive_xy(t))) if c != 0.0]

    def apply_h(self, t, psi, w: float = 0.0) -> np.ndarray:
        """(H(t) - w N) psi."""
        out = self.z(t, w) * psi
        for c, k in self._weighted(t):
            out += c * (self.h[k] @ psi)
        return out

    def dense_h(self, t, w: float = 0.0) -> np.ndarray:
        """H(t) - w N as a dense matrix."""
        h = np.diag(self.z(t, w).astype(complex))
        for c, k in self._weighted(t):
            h.reshape(-1)[self.at[k]] += c * self.h[k].data
        return h


class _Liouvillian:
    """Density-matrix generator -i[H(t), .] + D, less {G, .} once tunneling is on.

    Stores only D and D - {G, .}, complex CSR on row-major vec(rho); H comes dense to each call.
    D holds relaxation sqrt(1/T1) s- (jumps as index flips, and decay) and dephasing
    sqrt(2/T2_eff) sz/2, alone decaying coherences as exp(-t/T2_eff); G = sum_n P_up_n/(2 t_up).
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
        # complex like rho, so the kernel below reads D as stored, with no cast per evaluation
        self.dissipator = tuple(_one_per_row([(0, d + 0j), *jumps], dim, dim)
                                for d in (decay, decay - (g[:, None] + g[None, :])))
        from scipy.sparse._sparsetools import csr_matvec  # out += D @ y, what D @ y runs

        self.matvec = csr_matvec

    def apply(self, h, y, tunneling: bool, b=None, y1=None) -> np.ndarray:
        """L(t) @ y for the dense H(t), plus -i[B, y1] if B is given; rho H is (H rho)^dagger.

        The result is a fresh array on every call: DOP853 keeps the last one.
        """
        x = h @ y.reshape(h.shape)
        if b is not None:
            x += b @ y1.reshape(h.shape)
        out = np.subtract(x, x.conj().T, order="C")  # C order: the kernel adds into its memory
        out *= -1j
        d = self.dissipator[tunneling]
        self.matvec(y.size, y.size, d.indptr, d.indices, d.data, y, out.reshape(-1))
        return out.reshape(-1)

    def series(self, h0, b, y, dt: float, tunneling: bool, at, piece):
        """One step: rho(t0 + s dt) = sum_k c_k s^k at each fraction s in `at`, and the whole sum.

        L(t0 + tau) = L0 + tau L1, L0 = -i[H(t0), .] + D, L1 = -i[B, .], b = dt B or None: c_0 = y,
        (k + 1) c_{k+1} = dt (L0 c_k + dt L1 c_{k-1}), summed until two terms in a row fall below
        2^-53 of the sum (expm_multiply's test); raises if they never do.
        """
        prev, term, total, inner = None, y, y, [y] * len(at)
        small = reach = np.abs(y).max()  # reach >= the sum's norm, read only once the test may pass
        for k in range(1, _TAYLOR_TERMS_MAX):
            prev, term = term, self.apply(h0, term, tunneling, *(() if prev is None else (b, prev)))
            term *= dt / k
            total, inner = total + term, [p + s**k * term for p, s in zip(inner, at)]
            last, small = small, np.abs(term).max()
            tail, reach = 2.0**53 * (last + small), reach + small
            if tail <= reach and tail <= np.abs(total).max() < math.inf:
                return inner, total
        raise RuntimeError(f"Taylor series did not converge on [{piece[0]}, {piece[1]}] in "
                           f"density-matrix mode with tunneling {'on' if tunneling else 'off'}")

    def taylor(self, ta: float, tb: float, a, b, tunneling: bool):
        """Propagation (state at ta, sorted times in (ta, tb]) -> states for H(t) = A + (t - tm) B.

        Equal steps keep ||dt L||_1 <= theta, ||L||_1 <= 2 max(||H(ta)||_1, ||H(tb)||_1) + ||D||_1 being
        convex in t; samples read their step's polynomial (its sum at the end) and do not move the steps.
        """
        ends = [a] if b is None else [a + f * (tb - ta) * b for f in (-0.5, 0.5)]
        dnorm = abs(self.dissipator[tunneling]).sum(axis=0).max()
        bound = 2 * max(np.abs(h).sum(axis=0).max() for h in ends) + dnorm
        steps = max(1, math.ceil(bound * (tb - ta) / _TAYLOR_THETA))
        dt, tm = (tb - ta) / steps, 0.5 * (ta + tb)
        db = None if b is None else dt * b

        def propagate(state, times):
            y, out, times = state.reshape(-1), [], np.asarray(times)
            for j in range(steps):
                t0, t1 = ta + j * dt, tb if j == steps - 1 else ta + (j + 1) * dt
                now = times[(t0 < times) & (times <= t1)]
                h0 = a if b is None else a + (t0 - tm) * b
                inner, y = self.series(h0, db, y, dt, tunneling, (now[now < t1] - t0) / dt, (ta, tb))
                out += [rho.reshape(state.shape) for rho in [*inner, y][:len(now)]]
            return out

        return propagate


def evolve(
    hamiltonian: QubitArrayHamiltonian,
    schedule: PulseSchedule,
    initial: RegisterState,
    spec: EvolutionSpec,
) -> EvolutionResult:
    """Integrate the register from t = 0 through the schedule.

    Sample times must be covered by the schedule duration.  Tunneling and
    a budget require density-matrix mode.  Raises if the integrator cannot
    reach its error target.
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
    ir = max(spec.rtol * 1e-3, 3e-14)

    samples = spec.sample_times
    state = np.array(initial.data, dtype=complex)
    # samples at 0 hold the initial state, also when t_end = 0 leaves no piece
    k = int(np.searchsorted(samples, 0.0, side="right"))
    out_states = [state] * k
    for ta, tb in zip(bounds[:-1], bounds[1:]):
        j = int(np.searchsorted(samples, tb, side="right"))
        # the piece's samples in (ta, tb] and tb itself, repeats read once
        times, at = np.unique(np.append(samples[k:j], tb), return_inverse=True)
        states = _propagator(sys, liou, ta, tb, ta >= t_f, ir)(state, times)
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


def _propagator(sys, liou, ta, tb, tunneling, rtol):
    """Propagation (state at ta, sorted times in (ta, tb]) -> states; each path runs H - w N of `piece`."""
    a, b, w = sys.piece(ta, tb, liou is not None)
    closed = liou is None or (sys.spec.budget is None and not tunneling)
    if closed and a is not None and b is None:
        lam, v = np.linalg.eigh(a)
        vh = v.conj().T

        def propagate(state, times):
            # every sample from the start state, through the one eigenbasis
            phases = (np.exp(-1j * lam * (t - ta)) for t in times)
            if state.ndim == 1:
                c = vh @ state
                return [v @ (p * c) for p in phases]
            return [u @ state @ u.conj().T for u in (v @ np.diag(p) @ vh for p in phases)]
    elif liou is not None and a is not None:
        propagate = liou.taylor(ta, tb, a, b, tunneling)
    else:
        def rhs(t, y):
            return -1j * sys.apply_h(t, y, w) if liou is None else liou.apply(sys.dense_h(t, w), y, tunneling)

        def propagate(state, times):
            return _propagate_ivp(rhs, state, ta, times, rtol, tunneling)
    if not w:
        return propagate
    # N commutes with H and the loss channels: exp(-i w N (t - ta)), or (N_a - N_b) on a density matrix
    e = 0.5 * sys.zpat.sum(axis=0)
    rate = -1j * w * (e if liou is None else e[:, None] - e[None, :])
    return lambda state, times: [s * np.exp((t - ta) * rate) for t, s in zip(times, propagate(state, times))]


def piece_propagator(hamiltonian, schedule, ta, tb):
    """`evolve`'s closed propagation (state at ta, sorted times in (ta, tb]) -> states on (ta, tb)."""
    spec = EvolutionSpec(sample_times=np.array([tb]))
    return _propagator(_System(hamiltonian, schedule, spec), None, ta, tb, False, spec.rtol * 1e-3)


def solve_ivp(*args, **kwargs):
    """`scipy.integrate.solve_ivp`, imported on first use; the one patch point for the integrator."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _propagate_ivp(rhs, state, ta, times, rtol, tunneling):
    """One DOP853 run from ta, read at `times`; a density matrix runs as its row-major vector."""
    tb = float(times[-1])
    sol = solve_ivp(
        rhs, (ta, tb), state.reshape(-1), method="DOP853",
        rtol=rtol, atol=rtol * 1e-2, t_eval=times,
    )
    if not sol.success:
        mode = "state-vector" if state.ndim == 1 else "density-matrix"
        raise RuntimeError(
            f"integrator failed on [{ta}, {tb}] in {mode} mode with tunneling "
            f"{'on' if tunneling else 'off'} at rtol={rtol}: {sol.message}"
        )
    return sol.y.T.reshape(-1, *state.shape)
