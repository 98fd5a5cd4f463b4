"""Output checks for every benchmark job, run outside the timed region.

Closed-form oracles where they exist:
- a sudden 2-site swap reaches the exchange oracle to 1 - 1e-6;
- an unrefined dwell equals 2 hbar alpha / B, B from a `build` of the device;
- a refined sudden-ramp dwell stays within 1e-5 of that analytic dwell;
- zero-field `spectrum` rows lie on the -R/m^2 ladder (1e-9 relative);
- an isolated register under a constant pulse follows closed-form detuned
  Rabi oscillation on every qubit (populations to 1e-6);
- state-vector norm and untunneled density-matrix trace drift <= 1e-8;
- the trace never increases under tunneling;
- readout survival is exp(-wait/t_2) for an excited site and 1 for a
  ground site (1e-9), and each site's escape count lies within 5 sigma of
  its binomial expectation.

Jobs without a closed form (ramped swaps, nonzero-field spectra, coupled
registers, open-system trajectories, readout plans) compare against the
outputs in reference.json, frozen when the benchmark was added and keyed
by config digest; the reference covers the reference seed's batch, which
every run executes untimed.  Frozen populations and amplitudes must agree
to 1e-6 absolute, frozen times and fields to 1e-6 relative.

A failure that matches a known defect of the package raises KnownDefect.
It is counted and listed like any failed job, but does not make the run
incorrect: the benchmark reports the defect until the package fixes it.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from constants import EPSILON_HE, HBAR, K_B, K_TO_GHZ, rydberg_K

FROZEN_TOL = 1e-6
NORM_DRIFT_TOL = 1e-8
RABI_TOL = 1e-6
SUDDEN_FIDELITY_MIN = 1.0 - 1e-6
REFINE_REL_TOL = 1e-5


class CheckError(AssertionError):
    pass


class KnownDefect(CheckError):
    """A failed check that matches a documented defect of the package."""

    def __init__(self, name: str, message: str):
        super().__init__(f"known defect {name}: {message}")
        self.name = name


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def artifact_paths(stdout: str) -> list[Path]:
    return [Path(line[6:]) for line in stdout.splitlines() if line.startswith("wrote ")]


def _one(paths: list[Path], suffix: str) -> Path:
    hits = [p for p in paths if p.name.endswith(suffix)]
    _require(len(hits) == 1, f"expected one *{suffix} artifact, got {[p.name for p in paths]}")
    return hits[0]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:]


def _read_trajectory(path: Path):
    header, rows = _read_csv(path)
    labels = [h[4:] for h in header[1:-1]]
    times = [float(r[0]) for r in rows]
    pops = [[float(x) for x in r[1:-1]] for r in rows]
    trace = [float(r[-1]) for r in rows]
    return labels, times, pops, trace


def _weights(labels, pops) -> list[list[float]]:
    """Population summed by number of excited qubits, per sample."""
    n = len(labels[0])
    out = []
    for row in pops:
        acc = [0.0] * (n + 1)
        for lab, p in zip(labels, row):
            acc[lab.count("u")] += p
        out.append(acc)
    return out


class Checker:
    """Checks job outputs; derives device parameters from `build` jobs."""

    def __init__(self, run_cli, work_dir: Path, reference: dict):
        self._run_cli = run_cli          # argv -> (exit code, stdout)
        self._work = work_dir
        self._reference = reference
        self._builds: dict[str, dict] = {}

    def build(self, device: dict) -> dict:
        key = json.dumps(device, sort_keys=True)
        if key not in self._builds:
            cfg = self._work / f"build-{len(self._builds)}.json"
            cfg.write_text(json.dumps({"output_dir": str(self._work), "device": device}))
            code, out = self._run_cli(["build", "--config", str(cfg)])
            _require(code == 0, f"reference build failed with exit {code}: {out[-300:]}")
            doc = json.loads(_one(artifact_paths(out), ".json").read_text())
            self._builds[key] = doc["hamiltonian"]
        return self._builds[key]

    # -- dispatch ------------------------------------------------------------

    def check(self, job, stdout: str, require_reference: bool = False) -> None:
        """Raise CheckError unless `job`'s output passes its checks.

        A frozen job is compared with reference.json when the reference
        holds its config; `require_reference` makes a missing entry fail.
        """
        paths = artifact_paths(stdout)
        _require(paths, "job wrote no artifacts")
        getattr(self, "_check_" + job.kind.replace("-", "_"))(job, paths)
        if not job.frozen:
            return
        ref = self._reference.get(job.config_digest())
        _require(ref is not None or not require_reference,
                 "reference.json holds no outputs for this config")
        if ref is not None:
            compare_frozen(frozen_values(job, paths), ref["values"])

    def _analytic_dwell(self, job, alpha: float | None = None) -> float:
        sw = job.config["swap"]
        b_k = self.build(job.config["device"])["b_K"][sw["pair"][0]][sw["pair"][1]]
        return 2.0 * HBAR * (sw["alpha"] if alpha is None else alpha) / (b_k * K_B)

    def _check_demo_swap(self, job, paths) -> None:
        doc = json.loads(_one(paths, ".json").read_text())
        dwell = self._analytic_dwell(job)
        _require(
            math.isclose(doc["dwell_s"], dwell, rel_tol=1e-12),
            f"unrefined dwell {doc['dwell_s']} != 2 hbar alpha / B = {dwell}",
        )
        amp = doc["achieved_amplitudes"]
        _require(amp["source"] ** 2 + amp["target"] ** 2 <= 1.0 + NORM_DRIFT_TOL,
                 "swap amplitudes exceed unit norm")
        if job.check.get("oracle") == "exchange":
            fid = doc["fidelity_vs_exchange_oracle"]
            _require(fid >= SUDDEN_FIDELITY_MIN,
                     f"sudden swap fidelity {fid} below {SUDDEN_FIDELITY_MIN}")

    def _check_calibrate(self, job, paths) -> None:
        doc = json.loads(_one(paths, ".json").read_text())
        _require(doc["refined"] is True, "calibrate --refine did not refine")
        dwell = self._analytic_dwell(job)
        if math.isclose(doc["dwell_s"], dwell, rel_tol=REFINE_REL_TOL):
            return
        # The refinement matches populations only.  Above alpha = 0.4 pi its
        # window [dwell/4, 1.5 dwell] also holds 2 hbar (pi - alpha) / B,
        # the rotation by pi - alpha: right populations, wrong relative phase
        # of cos(a)|du> - i sin(a)|ud>, and the minimizer can return it.
        mirror = self._analytic_dwell(job, math.pi - job.config["swap"]["alpha"])
        message = f"refined sudden dwell {doc['dwell_s']} departs from analytic {dwell}"
        if math.isclose(doc["dwell_s"], mirror, rel_tol=REFINE_REL_TOL):
            raise KnownDefect("refine-mirror-root", f"{message}; it is the mirror root {mirror}")
        raise CheckError(message)

    def _check_spectrum(self, job, paths) -> None:
        header, rows = _read_csv(_one(paths, ".csv"))
        _require(header == ["E_perp_V_per_cm", "m", "E_m_K", "nu_1m_GHz"],
                 f"unexpected spectrum header {header}")
        sw = job.config["spectrum"]
        _require(len(rows) == sw["points"] * sw["max_state"], "spectrum row count")
        r_k = rydberg_K(job.config["device"].get("epsilon", EPSILON_HE))
        zero = [r for r in rows if float(r[0]) == 0.0]
        _require(len(zero) == sw["max_state"], "spectrum lacks the zero-field rows")
        for r in zero:
            m = int(r[1])
            _require(math.isclose(float(r[2]), -r_k / m**2, rel_tol=1e-9),
                     f"zero-field E_{m} = {r[2]} K is off the -R/m^2 ladder")
            nu = (r_k - r_k / m**2) * K_TO_GHZ
            _require(math.isclose(float(r[3]), nu, rel_tol=1e-9, abs_tol=1e-9),
                     f"zero-field nu_1{m} = {r[3]} GHz is off the ladder")

    def _check_evolve_sv(self, job, paths) -> None:
        labels, times, pops, trace = _read_trajectory(_one(paths, ".csv"))
        drift = max(abs(t - 1.0) for t in trace)
        _require(drift <= NORM_DRIFT_TOL, f"norm drift {drift:.3e} > {NORM_DRIFT_TOL}")
        if job.check.get("oracle") == "rabi":
            self._check_rabi(job, labels, times, pops)

    def _check_rabi(self, job, labels, times, pops) -> None:
        ham = self.build(job.config["device"])
        mw = job.config["schedule"]["microwave"][0]
        omega = ham["drive_coeff_per_V_cm"] * mw["amp_V_per_cm"]
        carrier = 2.0 * math.pi * 1e9 * mw["freq_GHz"]
        detune = [e * K_B / HBAR - carrier for e in ham["eps_K"]]
        start = job.config["initial"]["bits"].replace("1", "u").replace("0", "d")
        worst = 0.0
        for t, row in zip(times, pops):
            flip = [
                omega**2 / (omega**2 + dl**2)
                * math.sin(0.5 * math.sqrt(omega**2 + dl**2) * t) ** 2
                for dl in detune
            ]
            for lab, p in zip(labels, row):
                expect = 1.0
                for q, ch in enumerate(lab):
                    expect *= flip[q] if ch != start[q] else 1.0 - flip[q]
                worst = max(worst, abs(p - expect))
        _require(worst <= RABI_TOL, f"isolated-register Rabi mismatch {worst:.3e} > {RABI_TOL}")

    def _check_evolve_dm(self, job, paths) -> None:
        _, _, _, trace = _read_trajectory(_one(paths, ".csv"))
        if job.check.get("tunneling"):
            rise = max(b - a for a, b in zip(trace, trace[1:])) if len(trace) > 1 else 0.0
            _require(rise <= 1e-12, f"trace increases by {rise:.3e} under tunneling")
            _require(trace[0] <= 1.0 + NORM_DRIFT_TOL, "initial trace exceeds one")
        else:
            drift = max(abs(t - 1.0) for t in trace)
            _require(drift <= NORM_DRIFT_TOL, f"trace drift {drift:.3e} > {NORM_DRIFT_TOL}")

    def _check_readout(self, job, paths) -> None:
        doc = json.loads(_one(paths, ".json").read_text())
        ro = job.config["readout"]
        plan = doc["plan"]
        _require(plan["t_2_s"] < ro["wait_s"], "plan leaves the excited state in place")
        bits = ro["initial_bits"]
        for site, (ch, surv) in enumerate(zip(bits, doc["survival"])):
            expect = math.exp(-ro["wait_s"] / plan["t_2_s"]) if ch in "u1" else 1.0
            _require(abs(surv - expect) <= 1e-9,
                     f"site {site} survival {surv} != closed form {expect}")
        shots = doc["shots"]
        _require(len(shots) == ro["shots"], "shot log length")
        for site, surv in enumerate(doc["survival"]):
            p = 1.0 - surv
            k = sum(s["tunneled"][site] for s in shots)
            mean = p * len(shots)
            sigma = math.sqrt(len(shots) * p * (1.0 - p))
            _require(abs(k - mean) <= 5.0 * sigma,
                     f"site {site}: {k} escapes, binomial {mean:.1f} +- {sigma:.2f}")


# --- frozen outputs ----------------------------------------------------------


def frozen_values(job, paths) -> dict:
    """The outputs of `job` that the reference freezes, by quantity name."""
    if job.kind == "demo-swap":
        doc = json.loads(_one(paths, ".json").read_text())
        amp = doc["achieved_amplitudes"]
        return {
            "amplitudes": ("abs", [amp["source"], amp["target"]]),
            "fidelity": ("abs", [doc["fidelity_vs_exchange_oracle"]]),
        }
    if job.kind == "spectrum":
        _, rows = _read_csv(_one(paths, ".csv"))
        return {"E_m_K": ("rel", [float(r[2]) for r in rows[-5:]])}
    if job.kind in ("evolve-sv", "evolve-dm"):
        labels, _, pops, trace = _read_trajectory(_one(paths, ".csv"))
        return {
            "final_populations": ("abs", pops[-1]),
            "excitation_weights": ("abs", [w for row in _weights(labels, pops) for w in row]),
            "trace": ("abs", trace),
        }
    if job.kind == "readout":
        doc = json.loads(_one(paths, ".json").read_text())
        return {
            "e_plus_V_per_cm": ("rel", [doc["plan"]["e_plus_V_per_cm"]]),
            "t_2_s": ("rel", [doc["plan"]["t_2_s"]]),
        }
    raise CheckError(f"no frozen quantities for kind {job.kind}")


def compare_frozen(got: dict, ref: dict) -> None:
    for name, (mode, want) in ref.items():
        _require(name in got, f"frozen quantity {name} missing")
        have = got[name][1]
        _require(len(have) == len(want), f"{name}: {len(have)} values, reference {len(want)}")
        for i, (a, b) in enumerate(zip(have, want)):
            scale = 1.0 if mode == "abs" else abs(b)
            _require(abs(a - b) <= FROZEN_TOL * scale,
                     f"{name}[{i}] = {a!r} departs from frozen {b!r}")
