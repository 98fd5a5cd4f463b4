"""Seeded job generator for the three benchmark workloads.

A workload is a batch of CLI jobs.  The seed draws the physical parameters
(pitch, detuning voltages, rotation angle, drive amplitude and phase,
initial bits, readout wait); the job-kind mix and every cost-setting size
(sites, samples, sweep points, shots, ramp fractions) are fixed per job
class, so two seeds give the same mix at comparable cost.  Parameters that
do move the cost are drawn stratified across a narrow range.

The generator knows only closed forms and the CLI config format.  It
returns configs; the program sees nothing else.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

from constants import EPSILON_HE, HBAR, K_B, K_TO_GHZ, rydberg_K

# Exchange coupling B of a 2-site pair at 0.5 um pitch and zero voltage (K),
# frozen when the benchmark was added.  B scales as d^-3, which is all the
# generator needs to place ramps at a fraction of the dwell.
B_REF_K = 4.8696744e-3
B_REF_D_UM = 0.5

# Zero-field 1->2 transition (GHz): 3R/4 of the hydrogenic ladder.
CARRIER_GHZ = 0.75 * rydberg_K(EPSILON_HE) * K_TO_GHZ

# Sites are placed this many pitches apart in an "isolated" register, which
# leaves dipole couplings ~1e-9 of a lattice's: the qubits Rabi-oscillate
# independently to far below the 1e-6 check tolerance.
ISOLATED_SPACING = 1000.0

RAMP_FRACTIONS = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4)

WORKLOADS = ("gate-calibration", "register-dynamics", "open-system-readout")

# reference.json freezes the outputs of this seed's batches
REFERENCE_SEED = 0

# Wall time of one batch when the benchmark was added, on a 2-CPU x86-64
# host.  A run repeats the batch round(seconds / nominal) times, so every
# commit measures the same work and the tail percentile sits at the same
# rank.
NOMINAL_BATCH_S = {
    "gate-calibration": 8.4,
    "register-dynamics": 6.2,
    "open-system-readout": 4.8,
}


@dataclass
class Job:
    """One CLI invocation: `helioq <subcommand> --config <file> [extra]`."""

    name: str                 # unique within the batch, e.g. "05-demo-swap-sudden"
    kind: str                 # metric family: demo-swap, calibrate, spectrum, ...
    job_class: str            # cost class within the kind
    subcommand: str
    config: dict
    extra_args: tuple = ()
    check: dict = field(default_factory=dict)   # what the output check needs

    @property
    def frozen(self) -> bool:
        """Outputs without a closed form, compared against reference.json."""
        return self.check.get("oracle") == "frozen"

    def argv(self, config_path) -> list[str]:
        return [self.subcommand, "--config", str(config_path), *self.extra_args]

    def config_digest(self) -> str:
        """Digest of the config without its output_dir (which names the run)."""
        body = {k: v for k, v in self.config.items() if k != "output_dir"}
        canon = json.dumps([self.subcommand, list(self.extra_args), body], sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws, one from each equal-width stratum of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _bits(rng: random.Random, n: int, excited: int) -> str:
    up = set(rng.sample(range(n), excited))
    return "".join("u" if i in up else "d" for i in range(n))


def _initial_bits(rng: random.Random, n: int, shape: str) -> str:
    """Drawn bits, except under an envelope: DOP853's step count there
    depends on which sites start excited (up to 2x), so those jobs start
    from one excitation at site 0."""
    return "u" + "d" * (n - 1) if shape == "triangle" else _bits(rng, n, rng.randint(1, 2))


def _grid(n: int, spacing: float = 1.0, cols: int = 3) -> list[list[float]]:
    return [[spacing * (i % cols), spacing * (i // cols)] for i in range(n)]


def _device(d_um: float, sites, volts_mV) -> dict:
    return {
        "d_um": d_um,
        "sites": sites,
        "B_T": 1.5,
        "T_K": 0.01,
        "voltages_mV": list(volts_mV),
    }


def _dwell_estimate(d_um: float, alpha: float) -> float:
    b_erg = B_REF_K * (B_REF_D_UM / d_um) ** 3 * K_B
    return 2.0 * HBAR * alpha / b_erg


def _gate_calibration(rng: random.Random) -> list[Job]:
    # ramped swaps take most of the batch's time; sudden swaps and sudden
    # refines cost about the same (~0.13 s) and are 15 of the 22 jobs, so
    # the median job is one of them rather than a class boundary
    n_sudden, n_refine, n_refine_high, n_spectrum = 7, 5, 3, 2
    n_dev = len(RAMP_FRACTIONS) + n_sudden + n_refine
    d = _strata(rng, n_dev, 0.48, 0.52)
    v = _strata(rng, n_dev, 0.04, 0.06)
    # ramped swap cost grows with the dwell, so alpha stays narrow here
    alpha = _strata(rng, n_dev, 0.3 * math.pi, 0.375 * math.pi)
    jobs: list[Job] = []
    for i, frac in enumerate(list(RAMP_FRACTIONS) + [0.0] * n_sudden):
        pair = [0, 1] if rng.random() < 0.5 else [1, 0]
        volts = [0.0, 0.0]
        volts[pair[1]] = v[i]
        ramp = frac * _dwell_estimate(d[i], alpha[i])
        jobs.append(Job(
            name="", kind="demo-swap",
            job_class=f"ramp-dwell-over-{round(1 / frac)}" if frac else "sudden",
            subcommand="demo-swap",
            config={
                "device": _device(d[i], _grid(2), volts),
                "swap": {"pair": pair, "alpha": alpha[i], "rise_s": ramp, "fall_s": ramp},
            },
            check={"oracle": "frozen" if frac else "exchange"},
        ))
    for i in range(n_dev - n_refine, n_dev):
        jobs.append(_refine_job(d[i], v[i], alpha[i], "refine-sudden"))
    # up to a full swap: above 0.4 pi the refine window [dwell/4, 1.5 dwell]
    # also holds the mirror root 2 hbar (pi - alpha) / B (see checks.py)
    for a in _strata(rng, n_refine_high, 0.4 * math.pi, 0.5 * math.pi):
        jobs.append(_refine_job(
            rng.uniform(0.48, 0.52), rng.uniform(0.04, 0.06), a, "refine-sudden-high-alpha"))
    for e_max in _strata(rng, n_spectrum, 40.0, 100.0):
        jobs.append(Job(
            name="", kind="spectrum", job_class="sweep-40", subcommand="spectrum",
            config={
                "device": _device(rng.uniform(0.48, 0.52), _grid(2), [0.0, 0.0]),
                "spectrum": {"e_perp_min": 0.0, "e_perp_max": e_max, "points": 40,
                             "max_state": 5},
            },
            check={"oracle": "frozen"},
        ))
    return jobs


def _refine_job(d_um: float, v_mV: float, alpha: float, job_class: str) -> Job:
    """`calibrate --refine` of a sudden swap on a 2-site device."""
    return Job(
        name="", kind="calibrate", job_class=job_class, subcommand="calibrate",
        config={
            "device": _device(d_um, _grid(2), [0.0, v_mV]),
            "swap": {"pair": [0, 1], "alpha": alpha},
        },
        extra_args=("--refine",),
        check={"oracle": "analytic-dwell"},
    )


def _drive(rng, amp, envelope, duration):
    return {
        "duration_s": duration,
        "microwave": [{
            "freq_GHz": CARRIER_GHZ,
            "amp_V_per_cm": amp,
            "phase": rng.uniform(0.0, 2.0 * math.pi),
            "envelope": envelope,
        }],
    }


def _pulse_duration(amp: float, kind: str) -> float:
    """Nominal resonant pulse length for a zero-field qubit.

    Uses the zero-field <1|z|2> drive coefficient, frozen when the benchmark
    was added; the evolve job itself uses the device's own value, so the
    rotation is only nominally pi or pi/2.
    """
    drive_coeff = 6.4838e8   # (1/s) per (V/cm) at zero field
    t_pi = math.pi / (drive_coeff * amp)
    return {"pi": t_pi, "pi/2": 0.5 * t_pi, "triangle-pi": 2.0 * t_pi}[kind]


def _pitch_and_drive(rng: random.Random, k: int) -> tuple[list[float], list[float]]:
    """k (pitch um, drive amplitude V/cm) pairs of near-equal integrator cost.

    The pulse lasts ~1/amplitude and the dipole couplings scale as d^-3,
    so the coupling phase accumulated over a pulse, which sets the
    adaptive stepper's step count, goes as d^-3 / amplitude.  Scaling the
    amplitude with d^-3 holds that phase within +-3% while the pitch varies.
    """
    d = _strata(rng, k, 0.9, 1.1)
    u = _strata(rng, k, 0.97, 1.03)
    return d, [ui / di**3 for di, ui in zip(d, u)]


def _register_dynamics(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    sizes = (6, 7, 8, 9)
    d, amp = _pitch_and_drive(rng, 3 * len(sizes) + 2)
    k = 0
    for n in sizes:
        rot_coupled = "pi" if n % 2 == 0 else "pi/2"
        rot_isolated = "pi/2" if n % 2 == 0 else "pi"
        volts = [round(rng.uniform(-0.01, 0.01), 6) for _ in range(n)]
        variants = [
            ("constant", rot_coupled, _grid(n), 8, "frozen"),
            ("constant", rot_isolated, _grid(n, ISOLATED_SPACING), 8, "rabi"),
            ("triangle", "triangle-pi", _grid(n), 4, "frozen"),
        ]
        if n < 8:
            # six cheap jobs below the two 8-qubit constant pulses and six
            # dearer ones above: the median job is one of that pair, not a
            # boundary between cost classes
            variants.append(("constant", rot_coupled, _grid(n, ISOLATED_SPACING), 8, "rabi"))
        for shape, rot, sites, samples, oracle in variants:
            duration = _pulse_duration(amp[k], rot)
            envelope = (
                [[0.0, 0.0], [0.5 * duration, 1.0], [duration, 0.0]]
                if shape == "triangle" else []
            )
            layout = "isolated" if oracle == "rabi" else "lattice"
            jobs.append(Job(
                name="", kind="evolve-sv", job_class=f"{shape}-{layout}-n{n}",
                subcommand="evolve",
                config={
                    "device": _device(d[k], sites, volts),
                    "schedule": _drive(rng, amp[k], envelope, duration),
                    "initial": {"bits": _initial_bits(rng, n, shape)},
                    "evolution": {"sample_count": samples},
                },
                check={"oracle": oracle},
            ))
            k += 1
    return jobs


def _open_system_readout(rng: random.Random) -> list[Job]:
    jobs: list[Job] = []
    sizes = (3, 4, 5)
    # constant DM pulses pay one Liouvillian expm per sample cut; the cut
    # count shrinks with size to keep the 5-qubit job near a second
    const_samples = {3: 6, 4: 4, 5: 2}
    tunneling = {("constant", 3), ("triangle", 4), ("triangle", 5)}
    d, amp = _pitch_and_drive(rng, 2 * len(sizes) + 3)
    k = 0
    for n in sizes:
        for shape in ("constant", "triangle"):
            rot = "pi" if shape == "constant" else "triangle-pi"
            duration = _pulse_duration(amp[k], rot)
            envelope = (
                [[0.0, 0.0], [0.5 * duration, 1.0], [duration, 0.0]]
                if shape == "triangle" else []
            )
            evolution = {
                "sample_count": const_samples[n] if shape == "constant" else 4,
                "use_budget": True,
            }
            tun = (shape, n) in tunneling
            if tun:
                evolution["tunneling"] = {
                    "t_f_s": 0.5 * duration,
                    "t_up_s": rng.uniform(0.5, 2.0) * duration,
                }
            jobs.append(Job(
                name="", kind="evolve-dm",
                job_class=f"{shape}{'-tunneling' if tun else ''}-n{n}",
                subcommand="evolve",
                config={
                    "device": _device(d[k], _grid(n), [0.0] * n),
                    "noise": {"s_v": rng.uniform(1e-10, 1e-9)},
                    "schedule": _drive(rng, amp[k], envelope, duration),
                    "initial": {"bits": _initial_bits(rng, n, shape),
                                "mode": "density-matrix"},
                    "evolution": evolution,
                },
                check={"oracle": "frozen", "tunneling": tun},
            ))
            k += 1
    for n_sites, wait in zip((4, 6, 8), _strata(rng, 3, 5e-8, 2e-7)):
        jobs.append(Job(
            name="", kind="readout", job_class=f"sites-{n_sites}", subcommand="readout",
            config={
                "device": _device(d[k], _grid(n_sites), [0.0] * n_sites),
                "seed": rng.randrange(1 << 31),
                "readout": {
                    "wait_s": wait,
                    "selectivity": 1e6,
                    "shots": 4000,
                    "initial_bits": _bits(rng, n_sites, n_sites // 2),
                },
            },
            check={"oracle": "frozen"},
        ))
        k += 1
    return jobs


_GENERATORS = {
    "gate-calibration": _gate_calibration,
    "register-dynamics": _register_dynamics,
    "open-system-readout": _open_system_readout,
}


def generate(workload: str, seed: int, output_dir: str) -> list[Job]:
    """The seeded batch for `workload`; every job writes under `output_dir`."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    for i, job in enumerate(jobs):
        job.name = f"{i:02d}-{job.kind}-{job.job_class}"
        job.config = {"output_dir": output_dir, **job.config}
    return jobs


def reference_jobs(workload: str, output_dir: str) -> list[Job]:
    """The jobs of the reference seed's batch that reference.json freezes."""
    return [j for j in generate(workload, REFERENCE_SEED, output_dir) if j.frozen]


def validate(jobs: list[Job], schema_path) -> None:
    """Raise if any generated config breaks the package's config schema."""
    import jsonschema

    with open(schema_path) as fh:
        schema = json.load(fh)
    for job in jobs:
        try:
            jsonschema.validate(job.config, schema)
        except jsonschema.ValidationError as exc:
            raise ValueError(f"generated config {job.name} is invalid: {exc.message}") from exc


def mix(jobs: list[Job]) -> dict[str, int]:
    """Job count per kind/class, the workload's recorded job mix."""
    out: dict[str, int] = {}
    for job in jobs:
        key = f"{job.kind}:{job.job_class}"
        out[key] = out.get(key, 0) + 1
    return out
