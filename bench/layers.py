"""Layer timings of the Stark map, the readout plan and cold CLI processes.

    python bench/layers.py [--repeats 7] [--label NAME] [--src DIR] [--out FILE]

Times, in this process unless noted:

- `transition_K`: one checked solve (two `eigvalsh` and the size + 5 guard);
- `stark_lookup`: one `_StarkMap.exact` at a field no earlier lookup of that
  map has seen, as every right-hand-side evaluation of a ramp is;
- `stark_build`: the per-basis Chebyshev fit (absent where the map has none);
- `ramped_swap_evolve`: one 2-site swap `evolve` with rise = fall = dwell/8,
  on a freshly built register, with its Stark lookups counted;
- `wkb_exponent`: one barrier exponent, states 1 and 2 at weak to strong
  reverse fields;
- `readout_plan`: one `readout.plan` of the zero-field solution (wait
  1e-7 s, selectivity 1e6), with its exponent evaluations counted;
- `moment_tables`: the uncached moment tables of the 32- and 37-state
  bases, which every process builds once;
- in fresh interpreters (wall time and `ru_maxrss`), beside `python -c pass`:
  `cold_import_cli` (`import helioq.cli`), `cold_setup` (that import and
  one `load_config`, what perfbench's `setup_s` times), and `python -m
  helioq` for `cold_spectrum` (40 fields), `cold_demo_swap` (the ramps
  above), `cold_demo_swap_sudden`, `cold_evolve_dm` (a 2-site density
  matrix under a constant pulse with the decoherence budget) and
  `cold_readout` (4 sites, 4000 shots).

Each value is the minimum of `--repeats` repeats, stored with the repeat
count, median and maximum.  The run is stored under `--label` in `--out`
(default `BENCH_stark_map.json` at the repository root), beside the runs of
other labels already there, with its run record: commit, nproc, BLAS
threads and the Python, NumPy and SciPy versions.  `--src` times the package
of another checkout's `src/`; pair runs only when they come from one host.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOKUPS = 200              # distinct fields per lookup repeat
SOLVES = 20                # checked solves per transition_K repeat
PLANS = 20                 # readout plans per repeat


def _stats(samples: list[float], unit: str, **extra) -> dict:
    return {"value": min(samples), "unit": unit, "repeats": len(samples),
            "median": statistics.median(samples), "max": max(samples), **extra}


def _timed(fn, repeats: int, per: int = 1, setup=None) -> list[float]:
    out = []
    for _ in range(repeats):
        arg = setup() if setup else None
        t0 = time.perf_counter()
        fn(arg)
        out.append((time.perf_counter() - t0) / per)
    return out


# runs argv once and prints its wall time, ru_maxrss (KiB) and exit code; a
# small launcher keeps the bench's own pages out of the child's peak RSS
_LAUNCH = """import os, subprocess, sys, time
t0 = time.perf_counter()
p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(p.pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def _cold(argv: list[str], src: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Wall time (s) and peak RSS (MiB) of `argv` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    walls, rss = [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _LAUNCH, *argv], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        if out[2] != "0":
            raise RuntimeError(f"{argv} exited {out[2]}")
        walls.append(float(out[0]))
        rss.append(int(out[1]) / 1024.0)
    return walls, rss


def _blas_threads() -> dict:
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {k: os.environ.get(k) for k in keys}


def _commit(src: Path) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(src: Path, repeats: int, workdir: Path) -> dict:
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    from helioq import dynamics, hydrogenic, pulses, qubits, readout, units

    basis = hydrogenic.HydrogenicBasisSpec(lam=units.image_strength(units.EPSILON_HE))
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    volts = np.array([0.0, 5e-5])
    ham = qubits.build(geom, voltages=volts)     # fills the moment tables
    rng = np.random.default_rng(0)
    layers = {}

    solve_fields = rng.uniform(0.0, 2.0, SOLVES)
    layers["transition_K"] = _stats(_timed(
        lambda _: [hydrogenic.transition_K(basis, f) for f in solve_fields],
        repeats, SOLVES), "s")

    fit = getattr(qubits, "_stark_fit", None)
    if fit is not None:
        layers["stark_build"] = _stats(_timed(lambda _: fit.__wrapped__(basis), repeats), "s",
                                       terms=len(fit(basis)))
    qubits._StarkMap(basis).exact(1.0)   # a map with a shared fit builds it here
    lookup_fields = rng.uniform(0.0, 2.0, LOOKUPS)
    layers["stark_lookup"] = _stats(_timed(
        lambda stark: [stark.exact(f) for f in lookup_fields],
        repeats, LOOKUPS, setup=lambda: qubits._StarkMap(basis)), "s")

    dwell = pulses.calibrate_swap(ham, (0, 1), math.pi / 2)
    ramp = dwell / 8
    sched = pulses.swap_schedule(ham, (0, 1), dwell, ramp, ramp)
    spec = dynamics.EvolutionSpec(sample_times=np.array([sched.duration]))
    start = dynamics.RegisterState.state_vector("ud")

    def evolve_once(h):
        return dynamics.evolve(h, sched, start, spec)

    def fresh():
        return qubits.build(geom, voltages=volts)

    lookups = []
    exact = qubits._StarkMap.exact
    qubits._StarkMap.exact = lambda self, f: lookups.append(f) or exact(self, f)
    try:
        evolve_once(fresh())
    finally:
        qubits._StarkMap.exact = exact
    layers["ramped_swap_evolve"] = _stats(_timed(evolve_once, repeats, setup=fresh), "s",
                                          stark_lookups=len(lookups))

    solution = hydrogenic.solve(basis, 0.0)
    exponent_args = [(m, f) for m in (1, 2) for f in (1e-3, 0.1, 1.0, 4.0, 6.0)]
    layers["wkb_exponent"] = _stats(_timed(
        lambda _: [readout.wkb_exponent(solution, m, f) for m, f in exponent_args],
        repeats, len(exponent_args)), "s")
    exponents = []
    wkb = readout.wkb_exponent
    readout.wkb_exponent = lambda *a, **k: exponents.append(a) or wkb(*a, **k)
    try:
        readout.plan(solution, 1e-7, 1e6)
    finally:
        readout.wkb_exponent = wkb
    layers["readout_plan"] = _stats(_timed(
        lambda _: [readout.plan(solution, 1e-7, 1e6) for _ in range(PLANS)],
        repeats, PLANS), "s", wkb_evaluations=len(exponents))

    layers["moment_tables"] = _stats(_timed(
        lambda _: [hydrogenic._moment_matrix.__wrapped__(size, 1, max(96, size + 8))
                   for size in (32, 37)], repeats), "s")

    device = {"d_um": 0.5, "sites": [[0, 0], [1, 0]], "B_T": 1.5, "T_K": 0.01,
              "voltages_mV": [0.0, 0.05]}
    sudden = {"pair": [0, 1], "alpha": math.pi / 2}
    configs = {
        "spectrum": {"device": device,
                     "spectrum": {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 40}},
        "demo_swap": {"device": device, "swap": {**sudden, "rise_s": ramp, "fall_s": ramp}},
        "demo_swap_sudden": {"device": device, "swap": sudden},
        "evolve_dm": {"device": device, "schedule": {"duration_s": 4 * dwell},
                      "initial": {"bits": "ud", "mode": "density-matrix"},
                      "evolution": {"sample_count": 5, "use_budget": True}},
        "readout": {"seed": 3,
                    "device": {**device, "sites": [[i, 0] for i in range(4)],
                               "voltages_mV": [0.0] * 4},
                    "readout": {"wait_s": 1e-7, "selectivity": 1e6, "pixel_um": 1.0,
                                "shots": 4000, "initial_bits": "udud"}},
    }
    cfg = {}
    for name, config in configs.items():
        cfg[name] = workdir / f"{name}.json"
        cfg[name].write_text(json.dumps({"output_dir": str(workdir / "out"), **config}))

    def helioq(sub: str, name: str) -> list[str]:
        return [sys.executable, "-m", "helioq", sub, "--config", str(cfg[name])]

    for name, argv in (
        ("cold_python_pass", [sys.executable, "-c", "pass"]),
        ("cold_import_cli", [sys.executable, "-c", "import helioq.cli"]),
        ("cold_setup", [sys.executable, "-c", "import sys, helioq.cli; "
                        "helioq.cli.load_config(sys.argv[1], [])", str(cfg["spectrum"])]),
        ("cold_spectrum", helioq("spectrum", "spectrum")),
        ("cold_demo_swap", helioq("demo-swap", "demo_swap")),
        ("cold_demo_swap_sudden", helioq("demo-swap", "demo_swap_sudden")),
        ("cold_evolve_dm", helioq("evolve", "evolve_dm")),
        ("cold_readout", helioq("readout", "readout")),
    ):
        walls, rss = _cold(argv, src, repeats)
        layers[name] = _stats(walls, "s", peak_rss_mib=_stats(rss, "MiB"))

    return {
        "record": {
            "commit": _commit(src),
            "nproc": os.cpu_count(),
            "blas_threads": _blas_threads(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--label", default="current")
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_stark_map.json")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        run = measure(args.src.resolve(), args.repeats, Path(tmp))
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    doc["runs"][args.label] = run
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, v in run["layers"].items():
        print(f"{name:22s} {v['value']:.3e} {v['unit']} (min of {v['repeats']})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
