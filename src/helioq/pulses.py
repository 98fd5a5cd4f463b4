"""Pulse schedules and gate calibration.

A schedule carries per-electrode voltage waveforms and microwave drive
envelopes, both piecewise linear: breakpoint lists evaluated by exact
linear interpolation with the boundary values held outside the covered
span.  Duplicated breakpoint times encode instantaneous jumps (the value
is right-continuous at the jump).

Calibration is analytic in the sudden-resonance picture: a resonant drive
of Rabi frequency Omega flips the qubit in pi/Omega, and a resonantly
coupled pair driven by the exchange element B reaches the superposition
cos(a)|down,up> - i sin(a)|up,down> after a dwell of 2 hbar a / B.  A
`refine` pass root-finds the signed swap angle through the full dynamics
when finite-rate ramps shift the effective resonance time.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache
from operator import itemgetter

import numpy as np

from .qubits import QubitArrayHamiltonian
from .readout import _brentq
from .units import EV_ERG, HBAR, K_B

__all__ = [
    "MicrowaveChannel",
    "PulseSchedule",
    "VoltageChannel",
    "calibrate_swap",
    "pi_pulse",
    "rabi_frequency",
    "swap_schedule",
    "triangular_ramp",
]


def _check_points(points, hi, name, unit_interval=False):
    pts = [(float(t), float(v)) for t, v in points]
    times = [t for t, _ in pts]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"{name} breakpoint times must be sorted")
    if times and (times[0] < -1e-30 or times[-1] > hi * (1 + 1e-12) + 1e-30):
        raise ValueError(f"{name} breakpoints must lie within [0, duration]")
    if unit_interval and any(not 0.0 <= v <= 1.0 for _, v in pts):
        raise ValueError(f"{name} values must lie in [0, 1]")
    return tuple(pts)


def _check_finite(channel, *names):
    for name in names:
        value = getattr(channel, name)
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise ValueError(f"{type(channel).__name__}.{name} must be finite, got {value}")


def _interp(points, t: float, default: float) -> float:
    """`np.interp` over (time, value) breakpoints, bit for bit: held values
    outside, a repeated time's last value; `default` where there are none."""
    if not points:
        return default
    j = bisect_right(points, t, key=itemgetter(0))
    if j == 0:
        return points[0][1]
    if j == len(points):
        return points[-1][1]
    (t0, v0), (t1, v1) = points[j - 1], points[j]
    if t0 == t:
        return v0
    return float((v1 - v0) / (t1 - t0) * (t - t0) + v0)


@dataclass(frozen=True)
class VoltageChannel:
    """Electrode voltage increment waveform for one site (volts vs seconds)."""

    site: int
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        _check_finite(self, "points")

    def value_at(self, t):
        return _interp(self.points, t, 0.0)


@dataclass(frozen=True)
class MicrowaveChannel:
    """Microwave drive: carrier (GHz), amplitude (V/cm), phase, and envelope.

    The envelope is a piecewise-linear profile in [0, 1]; the instantaneous
    field is amplitude * envelope(t) * cos(2 pi f t + phase).
    """

    freq_GHz: float
    amp_V_per_cm: float
    phase: float = 0.0
    envelope: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        _check_finite(self, "freq_GHz", "amp_V_per_cm", "phase", "envelope")

    def envelope_at(self, t):
        return _interp(self.envelope, t, 1.0)


@dataclass(frozen=True)
class PulseSchedule:
    """Time-tagged voltage and microwave channels."""

    duration: float
    voltage_channels: tuple[VoltageChannel, ...] = ()
    microwave: tuple[MicrowaveChannel, ...] = ()

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"duration must be nonnegative, got {self.duration}")
        d = self.duration
        vcs = tuple(
            replace(c, points=_check_points(c.points, d, f"voltage_channels[{i}]"))
            for i, c in enumerate(self.voltage_channels)
        )
        mws = tuple(
            replace(c, envelope=_check_points(c.envelope, d, f"microwave[{i}] envelope", True))
            for i, c in enumerate(self.microwave)
        )
        object.__setattr__(self, "voltage_channels", vcs)
        object.__setattr__(self, "microwave", mws)

    def voltage_at(self, site: int, t: float) -> float:
        """Summed voltage increment on `site` at time t (volts)."""
        return sum((c.value_at(t) for c in self.voltage_channels if c.site == site), 0.0)

    def breakpoints(self) -> np.ndarray:
        """Sorted unique times at which any channel changes slope."""
        ts = {0.0, self.duration}
        for c in self.voltage_channels:
            ts.update(t for t, _ in c.points)
        for c in self.microwave:
            ts.update(t for t, _ in c.envelope)
        return np.array(sorted(ts))

    @classmethod
    def from_dict(cls, d: dict) -> "PulseSchedule":
        """The schedule of a config's `schedule` block."""
        return cls(
            duration=d["duration_s"],
            voltage_channels=tuple(
                VoltageChannel(c["site"], tuple((t, v) for t, v in c["points"]))
                for c in d.get("voltage_channels", [])
            ),
            microwave=tuple(
                MicrowaveChannel(
                    c["freq_GHz"],
                    c["amp_V_per_cm"],
                    c.get("phase", 0.0),
                    tuple((t, x) for t, x in c.get("envelope", [])),
                )
                for c in d.get("microwave", [])
            ),
        )


def rabi_frequency(e_rf: float, z12: float) -> float:
    """Rabi angular frequency e E_RF |z12| / hbar, s^-1.

    e_rf in V/cm, z12 in cm.
    """
    if e_rf < 0:
        raise ValueError(f"drive amplitude must be nonnegative, got {e_rf}")
    return EV_ERG * e_rf * abs(z12) / HBAR


def pi_pulse(omega: float, kind: str = "pi") -> float:
    """Duration of a resonant pi or pi/2 pulse at Rabi frequency omega (s^-1)."""
    if omega <= 0:
        raise ValueError(f"Rabi frequency must be positive, got {omega}")
    if kind == "pi":
        return math.pi / omega
    if kind == "pi/2":
        return math.pi / (2.0 * omega)
    raise ValueError(f"kind must be 'pi' or 'pi/2', got {kind!r}")


def triangular_ramp(
    site: int, v_peak: float, rise: float, dwell: float, fall: float,
) -> PulseSchedule:
    """Ramp a site voltage 0 -> v_peak (rise), hold (dwell), -> 0 (fall).

    Zero rise or fall times encode instantaneous jumps.
    """
    if rise < 0 or dwell < 0 or fall < 0:
        raise ValueError("rise, dwell, and fall must be nonnegative")
    t1, t2, t3 = rise, rise + dwell, rise + dwell + fall
    points = ((0.0, 0.0), (t1, v_peak), (t2, v_peak), (t3, 0.0))
    return PulseSchedule(
        duration=t3,
        voltage_channels=(VoltageChannel(site, points),),
    )


def calibrate_swap(
    hamiltonian: QubitArrayHamiltonian,
    pair: tuple[int, int],
    alpha: float,
    refine: bool = False,
    rise: float = 0.0,
    fall: float = 0.0,
) -> float:
    """Dwell time (s) bringing the pair to cos(a)|du> - i sin(a)|ud>.

    In the sudden-resonance approximation the dwell is 2 hbar a / B_nm.
    With `refine` (0 < a < pi), the dwell root-finds the signed swap angle
    through the full dynamics of the ramped protocol (see `swap_schedule`)
    on [dwell/4, dwell (a + pi) / (2a)], which matters when the ramp time
    is comparable to the dwell.  Every trial dwell reads one eigenbasis of
    the resonant plateau; the ramps run once each, the fall time-reversed,
    which a swap's real symmetric H(t) allows (see `_swap_amplitudes`).
    The sign is that of Re(conj(a_src) i a_dst)
    against its phase at dwell/4, so the mirror root 2 hbar (pi - a) / B is
    no root.  Where ramps put sin^2(a) out of reach, the refinement raises
    RuntimeError with the target's share of the pair's population where that
    sign flips.
    """
    n, m = pair
    b_erg = hamiltonian.b_K[n, m] * K_B
    if b_erg <= 0:
        raise ValueError(f"pair {pair} is uncoupled (B = 0); nothing to calibrate")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    dwell = 2.0 * HBAR * alpha / b_erg
    if not refine or alpha == 0.0:
        return dwell
    return _refine_dwell(hamiltonian, pair, alpha, dwell, rise, fall)


def swap_schedule(
    hamiltonian: QubitArrayHamiltonian,
    pair: tuple[int, int],
    dwell: float,
    rise: float = 0.0,
    fall: float = 0.0,
    v_peak: float | None = None,
) -> PulseSchedule:
    """Voltage protocol realizing the exchange gate on `pair`.

    Ramps the first electrode of the pair by v_peak (volts) so its
    transition crosses the partner's, holds for `dwell`, and ramps back.
    If v_peak is omitted it is the partner's voltage less the first site's
    (see `resonance_voltage`); a pair at equal voltages needs no ramp.
    """
    n, m = pair
    if v_peak is None:
        v_peak = resonance_voltage(hamiltonian, n, m)
    return triangular_ramp(n, v_peak, rise, dwell, fall)


def resonance_voltage(hamiltonian: QubitArrayHamiltonian, n: int, m: int) -> float:
    """Voltage increment (at most 1 V) on site n's electrode that matches site m's transition.

    Every site reads one rising Stark map at the field E_perp + c_geom V / d,
    so site n matches site m exactly at V_m: the increment is V_m - V_n.
    """
    hamiltonian.stark_tuning(n)  # raises when no device Stark map is attached
    dv = float(hamiltonian.voltages[m] - hamiltonian.voltages[n])
    if abs(dv) > 1.0:
        raise ValueError("no resonance within 1 V of electrode swing")
    return dv


# share |a_t|^2 / (|a_s|^2 + |a_t|^2) less sin^2(alpha) allowed at a refined dwell:
# at 0.5 um, alpha 0.1-0.9 pi and ramps to dwell/4, roots miss by <= 2.6e-12 and
# out-of-reach jumps by >= 2.4e-3 (with a third site, 1.1e-13 and 4.0e-2)
_REACH_TOL = 1e-8


def _swap_amplitudes(hamiltonian, pair, v_peak, longest, rise, fall):
    """dwell -> (a_src, a_dst) after the swap schedule, for dwells up to `longest`; the rise,
    the plateau's `eigh` (Taylor steps past 10 qubits) and the fall's two rows run once
    (see `_refine_dwell`)."""
    from . import dynamics

    fwd = swap_schedule(hamiltonian, pair, longest, rise, fall, v_peak)
    rev = swap_schedule(hamiltonian, pair, longest, fall, rise, v_peak)

    def ramped(schedule, k, t):  # qubit k excited, run through the first t s of schedule
        start = dynamics.RegisterState.state_vector("".join(
            "u" if j == k else "d" for j in range(hamiltonian.n_qubits)))
        spec = dynamics.EvolutionSpec(sample_times=np.array([t]))
        return dynamics.evolve(hamiltonian, schedule, start, spec).final_state if t > 0 else start.data

    phi = ramped(fwd, pair[0], rise)
    row_s = phi if rise == fall else ramped(rev, pair[0], fall)
    row_t = ramped(rev, pair[1], fall)
    plateau = dynamics.piece_propagator(hamiltonian, fwd, rise, rise + longest)

    def amplitudes(dwell):
        psi = plateau(phi, np.array([rise + dwell]))[0]
        return row_s @ psi, row_t @ psi

    return amplitudes


def _refine_dwell(hamiltonian, pair, alpha, dwell0, rise, fall):
    """Root of the signed swap angle, every trial dwell read from one plateau eigendecomposition.

    Without a microwave H(t) is real symmetric, so transposing the fall's
    product of exp(-i H dt) factors reverses their order: <k| U_fall =
    (U_rev |k>)^T, U_rev the fall run backwards, a rise of length `fall`.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"refine supports 0 < alpha < pi, got alpha = {alpha}")
    lo, hi = 0.25 * dwell0, dwell0 * (alpha + math.pi) / (2.0 * alpha)
    # the resonance does not depend on the dwell: read it once
    v_peak = resonance_voltage(hamiltonian, *pair)
    swap = _swap_amplitudes(hamiltonian, pair, v_peak, hi, rise, fall)

    @cache
    def amplitudes(dwell):  # |a_src|, |a_dst| and conj(a_src) i a_dst
        a_s, a_t = swap(dwell)
        return abs(a_s), abs(a_t), np.conj(a_s) * 1j * a_t

    # the ramps add a relative phase between source and target: take the
    # sign against the one at the lower end
    turn = np.exp(-1j * np.angle(amplitudes(lo)[2]))

    def mismatch(dwell):  # sin(alpha - theta) for the sudden swap angle theta
        a_s, a_t, z = amplitudes(dwell)
        return math.sin(alpha) * math.copysign(a_s, (z * turn).real) - math.cos(alpha) * a_t

    if mismatch(lo) * mismatch(hi) > 0:
        raise RuntimeError(
            f"dwell refinement failed: alpha = {alpha}, rise = {rise} s, fall = {fall} s: "
            f"the swap angle does not cross alpha on [{lo}, {hi}] s"
        )
    dwell = _brentq(mismatch, lo, hi, xtol=1e-12 * dwell0)
    a_s, a_t, _ = amplitudes(dwell)
    share = a_t**2 / (a_s**2 + a_t**2)
    if abs(share - math.sin(alpha) ** 2) > _REACH_TOL:
        raise RuntimeError(
            f"dwell refinement failed: alpha = {alpha}, rise = {rise} s, fall = {fall} s: "
            f"sin^2(alpha) = {math.sin(alpha) ** 2:.6g} is out of reach; the swap angle "
            f"jumps past it where the target holds {share:.6g} of the pair's population"
        )
    return dwell
