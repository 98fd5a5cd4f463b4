"""Layer timings of the Stark map, register builds, Taylor steps, readout, artifact text and cold CLI processes.

    python bench/layers.py [--repeats 7] [--label NAME] [--src DIR] [--out FILE]

Times, in this process unless noted:

- `transition_K`: one checked solve (two `eigvalsh` and the size + 5 guard);
- `build_n2`, `build_n9`: one `qubits.build` of the 2-site pair below and of
  a 3 x 3 grid at distinct voltages, one checked solve with eigenvectors
  per site;
- `stark_lookup`: one `_StarkMap.exact` at a field no earlier lookup of that
  map has seen, as every right-hand-side evaluation of a ramp is;
- `stark_build`: the per-basis Chebyshev fit;
- `ramped_swap_evolve`: one 2-site swap `evolve` with rise = fall = dwell/8,
  on a freshly built register, with its Stark lookups counted;
- `ramped_swap_evolve_n3`: that swap of sites 0 and 1 with a third site,
  on an equilateral triangle at [0, 0.05, 0.2] mV, built once;
- `refine_sudden`, `refine_ramped`, `refine_out_of_reach`: one
  `calibrate_swap(refine=True)` on the 2-site register, sudden at 0.3 pi, at
  0.3 pi with ramps of a sixteenth of the sudden dwell, and at pi/2 with
  such ramps, which raises that sin^2(alpha) is out of reach, and
  `refine_ramped_n3`, the ramped one on the triangle; each with its
  `dynamics.evolve` calls counted;
- `refine_ramped_n7` to `refine_ramped_n10`: that ramped refine on the
  triangle and a row of n - 3 sites detuned 0.1 mV apart, up to the
  1024-state plateau at `dynamics._REREAD_DIM_MAX`, its evolves counted;
  and `refine_taylor_n*`, the same refine with its plateau by Taylor steps;
- `sv_triangle_n6` to `sv_triangle_n10`: one state-vector `evolve` of n
  coupled qubits under a triangle-envelope drive resonant with qubit 0 (two
  pieces linear in t), 5 samples; at n = 8 and 9 also the largest distance
  of its states from DOP853 at its floor (rtol 3e-14, `dop853_deviation`);
- `sv_constant_n6` to `sv_constant_n10`: that register under a constant
  drive, one closed constant piece, every one of its 9 samples read, on
  whichever path `evolve` takes; and `constant_eigh_n*` and
  `constant_taylor_n*`, the same evolve on each path, the crossover that
  sets `dynamics._EXACT_DIM_MAX`;
- `dm_rhs_n3`, `dm_rhs_n4`, `dm_rhs_n5`: one density-matrix right-hand side
  (H(t) and `_Liouvillian.apply`) on the falling piece of a triangle-envelope
  pi pulse on n zero-voltage sites, with the decoherence budget and
  tunneling on, as in perfbench's open-system-readout evolves;
- `dm_triangle_evolve_n4`: that pulse's whole `evolve` at n = 4, two pieces;
- `dm_constant_evolve_n5`: the same pulse with a constant envelope at n = 5,
  and `dm_constant_evolve_n8`, that pulse's `python -m helioq
  evolve` at n = 8 in a fresh interpreter, with its `ru_maxrss`;
- `dump_json_dm_n5`: `cli.dump_json` of the triangle pulse's `evolve` result
  document at n = 5 (4 samples of a 32 x 32 density matrix);
- `dm_swap_evolve_n2`, `dm_swap_evolve_n3`, `dm_swap_evolve_n6`: a density
  matrix under the dwell/8 ramped swap of pair (0, 1), with the decoherence
  budget on, 5 samples: on the 2-site pair, on the triangle, and on the
  triangle and a row of three sites at 0.2-0.5 mV; fitted ramps around a
  plateau that, with loss on, is linear in t;
- `wkb_exponent`: one barrier exponent, states 1 and 2 at weak to strong
  reverse fields;
- `readout_plan`: one `readout.plan` of the zero-field levels (wait
  1e-7 s, selectivity 1e6), with its exponent evaluations counted;
- `sample_shots`: 4000 shots of 8 sites, half of them excited;
- `dump_json_readout`: `cli.dump_json` of the `readout` document of those
  shots, as `run_readout` passes it;
- `write_states_n7`, `write_shots_200k`: one `cli._Writer.json` to disk of
  the states of a 7-qubit density matrix at 101 samples (a (101, 16384, 2)
  float array) and of a log of 200 000 shots of 8 sites, each with the
  bytes it wrote and its tracemalloc peak over the payload (`traced_peak_mib`,
  from one further, untimed write);
- `load_config`: one `cli.load_config` of a readout config, the schema
  loaded;
- `moment_tables`: the uncached moment tables of the 32- and 37-state
  bases, which every process builds once;
- in fresh interpreters (wall time and `ru_maxrss`), beside `python -c pass`:
  `cold_import_cli` (`import helioq.cli`), `cold_setup` (that import and
  one `load_config`, what perfbench's `setup_s` times), and `python -m
  helioq` for `cold_spectrum` (40 fields), `cold_demo_swap` (the ramps
  above), `cold_demo_swap_sudden`, `cold_evolve_dm` (a 2-site density
  matrix under a constant pulse with the decoherence budget),
  `cold_readout` (4 sites, 4000 shots) and `cold_calibrate_refine`
  (`calibrate --refine` of `refine_ramped`'s swap), and `cold_config_error`
  (`demo-swap` on a config the schema rejects, which exits 2 with
  helioq's own message and loads no jsonschema); and `cold_sv_triangle_n14`,
  `sv_triangle_n*`'s evolve at 14 qubits.

Every in-process evolve layer also stores one record per piece that takes
Taylor steps (`pieces`): its steps, their terms and the largest Chebyshev
degree P of its steps' fits (0 where H is linear in t, which fits nothing).

Each value is the minimum of `--repeats` repeats, stored with the repeat
count, median and maximum.  The repeats run round-robin, one of each layer
in turn, so a burst of load from other processes hits every layer alike.
A fresh interpreter's `peak_rss_mib` also stores its quartiles (`q1`, `q3`),
since `ru_maxrss` moves with heap layout between runs of the same work.
The run is stored under `--label` in `--out` (default `BENCH_stark_map.json`
at the repository root), beside the runs of other labels already there,
with its run record: commit, `source_sha256` (a digest of the timed
`helioq/*.py`, which tells apart trees without git, such as `git archive`
copies), `bytecode`, nproc, BLAS threads and the Python, NumPy and SciPy
versions.  Before it times anything, the run byte-compiles the timed
`helioq/` with `compileall`, which writes even under
PYTHONDONTWRITEBYTECODE=1 and rewrites stale entries, so every fresh
interpreter of a before and an after run imports cached code alike (a
missing or stale cache entry is compiled again in each one, which costs
time and about 2 MiB of peak RSS); `bytecode` records the modules, the
cache files that compile wrote and the cache tag.
`--src` times the package of another checkout's `src/`,
which needs the module-level Taylor stepper and the eigh refine plateau
(`dynamics._taylor`, `_series`, `_fit`, `_REREAD_DIM_MAX`; commit deb88a4
or later); pair runs only when they come from one host.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOOKUPS = 200              # distinct fields per lookup repeat
SOLVES = 20                # checked solves per transition_K repeat
PLANS = 20                 # readout plans per repeat
RHS_EVALS = 500            # density-matrix right-hand sides per repeat


def _stats(samples: list[float], unit: str, **extra) -> dict:
    return {"value": min(samples), "unit": unit, "repeats": len(samples),
            "median": statistics.median(samples), "max": max(samples), **extra}


def _quartiles(samples: list[float]) -> dict:
    """q1 and q3 of `samples`, interpolated linearly."""
    if len(samples) == 1:
        return {"q1": samples[0], "q3": samples[0]}
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"q1": q1, "q3": q3}


def _traced_peak(fn) -> float:
    """The tracemalloc peak (MiB) of one fn(None), over what was allocated before it."""
    tracemalloc.start()
    try:
        fn(None)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _timed(fn, per: int = 1, setup=None):
    """A repeat of fn(setup()): its wall time (s) over `per`."""
    def repeat() -> float:
        arg = setup() if setup else None
        t0 = time.perf_counter()
        fn(arg)
        return (time.perf_counter() - t0) / per
    return repeat


# runs argv once and prints its wall time, ru_maxrss (KiB) and exit code; a
# small launcher keeps the bench's own pages out of the child's peak RSS
_LAUNCH = """import os, subprocess, sys, time
t0 = time.perf_counter()
p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(p.pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def _cold(argv: list[str], src: Path, code: int = 0):
    """A repeat of `argv`, which exits `code`, in a fresh interpreter: its wall time (s) and peak RSS (MiB)."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def repeat() -> tuple[float, float]:
        out = subprocess.run([sys.executable, "-c", _LAUNCH, *argv], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        if out[2] != str(code):
            raise RuntimeError(f"{argv} exited {out[2]}, not {code}")
        return float(out[0]), int(out[1]) / 1024.0
    return repeat


def _blas_threads() -> dict:
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {k: os.environ.get(k) for k in keys}


def _source_digest(src: Path) -> str:
    """sha256 (16 hex digits) of `src`'s helioq/*.py, names and bytes, as perfbench's `source_sha256`."""
    h = hashlib.sha256()
    for p in sorted((src / "helioq").glob("*.py")):
        h.update(p.relative_to(src).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _byte_compile(src: Path) -> dict:
    """Byte-compiles `src`'s helioq/ and counts the modules and the cache files it (re)wrote."""
    caches = [Path(importlib.util.cache_from_source(str(p)))
              for p in sorted((src / "helioq").glob("*.py"))]
    before = [c.stat().st_mtime_ns if c.exists() else None for c in caches]
    if not compileall.compile_dir(src / "helioq", maxlevels=0, quiet=1):
        raise RuntimeError(f"compileall failed on {src / 'helioq'}")
    written = sum(c.stat().st_mtime_ns != b for c, b in zip(caches, before))
    return {"modules": len(caches), "written": written, "cache_tag": sys.implementation.cache_tag}


def _commit(src: Path) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def sv_register(n: int, envelope) -> tuple:
    """(ham, schedule, initial, spec): n coupled qubits, detunings and couplings of ~1/T, under one
    drive resonant with qubit 0 over T = 20 ns, the first qubit excited."""
    import numpy as np
    from helioq import dynamics, pulses, qubits, units

    t_seg, scale = 2e-8, 1.0 / (2e-8 * units.K_TO_RAD_PER_S)
    gen = np.random.default_rng(n)
    eps = 1.0 + gen.uniform(-1.0, 1.0, n) * scale
    a = np.triu(gen.uniform(0.0, 1.0, (n, n)) * scale, 1)
    b = np.triu(gen.uniform(0.0, 2.0, (n, n)) * scale, 1)
    ham_n = qubits.QubitArrayHamiltonian.from_parameters(eps_K=eps, a_K=a + a.T, b_K=b + b.T,
                                                         drive_coeff=1e9)
    drive = pulses.MicrowaveChannel(eps[0] * units.K_TO_GHZ, 0.15, 0.4, envelope(t_seg))
    count = 5 if envelope(t_seg) else 9
    return (ham_n, pulses.PulseSchedule(duration=t_seg, microwave=(drive,)),
            dynamics.RegisterState.state_vector("u" + "d" * (n - 1)),
            dynamics.EvolutionSpec(sample_times=np.linspace(0.0, t_seg, count)))


def triangle_envelope(t_seg):
    return ((0.0, 0.0), (0.5 * t_seg, 1.0), (t_seg, 0.0))


# `sv_triangle_n*`'s evolve at n = argv[1], alone in an interpreter
_SV_TRIANGLE = f"""import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from layers import sv_register, triangle_envelope
from helioq import dynamics
dynamics.evolve(*sv_register(int(sys.argv[1]), triangle_envelope))
"""


def measure(src: Path, repeats: int, workdir: Path) -> dict:
    bytecode = _byte_compile(src)
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy

    from helioq import cli, dynamics, hydrogenic, pulses, qubits, readout, units

    basis = hydrogenic.HydrogenicBasisSpec(lam=units.image_strength(units.EPSILON_HE))
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)))
    volts = np.array([0.0, 5e-5])
    ham = qubits.build(geom, voltages=volts)     # fills the moment tables
    rng = np.random.default_rng(0)
    plan, extras = {}, {}   # layer -> one repeat, and the counts stored beside its times

    solve_fields = rng.uniform(0.0, 2.0, SOLVES)
    plan["transition_K"] = _timed(
        lambda _: [hydrogenic.transition_K(basis, f) for f in solve_fields], SOLVES)

    grid = qubits.DeviceGeometry(pitch=0.5e-4, sites=tuple((i % 3, i // 3) for i in range(9)))
    grid_volts = np.linspace(0.0, 4e-4, 9)
    for name, g, v in (("build_n2", geom, volts), ("build_n9", grid, grid_volts)):
        plan[name] = _timed(lambda _, g=g, v=v: qubits.build(g, voltages=v))

    fit = qubits._stark_fit
    plan["stark_build"] = _timed(lambda _: fit.__wrapped__(basis))
    extras["stark_build"] = {"terms": len(fit(basis))}
    qubits._StarkMap(basis).exact(1.0)   # a map with a shared fit builds it here
    lookup_fields = rng.uniform(0.0, 2.0, LOOKUPS)
    plan["stark_lookup"] = _timed(
        lambda stark: [stark.exact(f) for f in lookup_fields],
        LOOKUPS, setup=lambda: qubits._StarkMap(basis))

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
    plan["ramped_swap_evolve"] = _timed(evolve_once, setup=fresh)
    extras["ramped_swap_evolve"] = {"stark_lookups": len(lookups)}

    def counted(fn) -> dict:
        """`dynamics.evolve` calls of one fn(None), and each Taylor piece's steps, terms and fit degree."""
        runs, pieces = [0], []
        patched = {name: getattr(dynamics, name) for name in ("evolve", "_taylor", "_series", "_fit")}

        def evolve(*a, **k):
            runs[0] += 1
            return patched["evolve"](*a, **k)

        def taylor(*a, **k):
            pieces.append({"steps": 0, "terms": 0, "degree": {}})
            return patched["_taylor"](*a, **k)

        def series(apply, *a):
            def term(*b):
                pieces[-1]["terms"] += 1
                return apply(*b)
            pieces[-1]["steps"] += 1
            return patched["_series"](term, *a)

        def fit(*a):   # (sys, t0, dt, w): the degrees of the fits at each step length
            v = patched["_fit"](*a)
            degrees = pieces[-1]["degree"]
            degrees[a[2]] = max(degrees.get(a[2], 0), -1 if v is None else len(v) - 1)
            return v

        hooks = {"evolve": evolve, "_taylor": taylor, "_series": series, "_fit": fit}
        for name in patched:
            setattr(dynamics, name, hooks[name])
        try:
            fn(None)
        finally:
            for name, original in patched.items():
                setattr(dynamics, name, original)
        for piece in pieces:   # the fits of the steps the piece took
            piece["degree"] = piece["degree"][min(piece["degree"])] if piece["degree"] else 0
        return {"evolves": runs[0], "pieces": pieces}

    extras["ramped_swap_evolve"].update(counted(lambda _: evolve_once(fresh())))
    triangle = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0), (0.5, math.sqrt(3) / 2)))
    ham3 = qubits.build(triangle, voltages=np.array([0.0, 5e-5, 2e-4]))
    dwell3 = pulses.calibrate_swap(ham3, (0, 1), math.pi / 2)
    sched3 = pulses.swap_schedule(ham3, (0, 1), dwell3, dwell3 / 8, dwell3 / 8)
    start3 = dynamics.RegisterState.state_vector("udd")
    spec3 = dynamics.EvolutionSpec(sample_times=np.array([sched3.duration]))

    def evolve_n3(_):
        dynamics.evolve(ham3, sched3, start3, spec3)

    extras["ramped_swap_evolve_n3"] = counted(evolve_n3)
    plan["ramped_swap_evolve_n3"] = _timed(evolve_n3)

    def refine(alpha, ramp_fraction, in_reach=True, ham=ham):
        ramp = ramp_fraction * pulses.calibrate_swap(ham, (0, 1), alpha)

        def run(_):
            try:
                pulses.calibrate_swap(ham, (0, 1), alpha, refine=True, rise=ramp, fall=ramp)
            except RuntimeError:
                if in_reach:
                    raise
            else:
                if not in_reach:
                    raise RuntimeError(f"refine at alpha = {alpha} was expected out of reach")
        return run

    for name, run in (
        ("refine_sudden", refine(0.3 * math.pi, 0.0)),
        ("refine_ramped", refine(0.3 * math.pi, 1 / 16)),
        ("refine_out_of_reach", refine(math.pi / 2, 1 / 16, in_reach=False)),
        ("refine_ramped_n3", refine(0.3 * math.pi, 1 / 16, ham=ham3)),
    ):
        extras[name] = counted(run)
        plan[name] = _timed(run)

    for n in (7, 8, 9, 10):   # the triangle and a row of sites detuned 0.1 mV apart
        row = qubits.DeviceGeometry(pitch=0.5e-4, sites=(*triangle.sites, *((k, 3) for k in range(n - 3))))
        run = refine(0.3 * math.pi, 1 / 16, ham=qubits.build(
            row, voltages=np.array([0.0, 5e-5, *(2e-4 + 1e-4 * np.arange(n - 2))])))
        extras[f"refine_ramped_n{n}"] = counted(run)
        plan[f"refine_ramped_n{n}"] = _timed(run)

        def taylor_plateau(_, run=run):   # the plateau by Taylor steps instead of eigh
            saved, dynamics._REREAD_DIM_MAX = dynamics._REREAD_DIM_MAX, 0
            try:
                run(None)
            finally:
                dynamics._REREAD_DIM_MAX = saved
        plan[f"refine_taylor_n{n}"] = _timed(taylor_plateau)

    def dm_job(n: int, envelope: bool = True) -> dict:
        """A pi pulse, triangle or constant, on n zero-voltage sites; budget on, tunneling from halfway."""
        duration = 2 * math.pi / 6.4838e8   # at 1 V/cm and the zero-field drive coefficient
        drive = {"freq_GHz": 0.75 * basis.scales[0] * units.K_TO_GHZ, "amp_V_per_cm": 1.0, "phase": 0.7}
        if envelope:
            drive["envelope"] = [[0.0, 0.0], [duration / 2, 1.0], [duration, 0.0]]
        return {
            "device": {"d_um": 1.0, "sites": [[i % 3, i // 3] for i in range(n)],
                       "B_T": 1.5, "T_K": 0.01, "voltages_mV": [0.0] * n},
            "noise": {"s_v": 5e-10},
            "schedule": {"duration_s": duration, "microwave": [drive]},
            "initial": {"bits": "u" + "d" * (n - 1), "mode": "density-matrix"},
            "evolution": {"sample_count": 4, "use_budget": True,
                          "tunneling": {"t_f_s": duration / 2, "t_up_s": duration}},
        }

    def dm_evolve(n: int, envelope: bool = True):
        """(ham, schedule, initial, spec) of `dm_job(n)`, read as `cli.run_evolve` reads it."""
        config = dm_job(n, envelope)
        sched = pulses.PulseSchedule.from_dict(config["schedule"])
        initial = dynamics.RegisterState.density_matrix(config["initial"]["bits"])
        return cli._build_register(config), sched, initial, cli._evolution_spec(config, sched.duration)

    for n in (3, 4, 5):
        ham_n, sched_n, _, spec_n = dm_evolve(n)
        system = dynamics._System(ham_n, sched_n, spec_n)
        liou = dynamics._Liouvillian(system, spec_n.budget, spec_n.tunneling)
        ta, tb = 0.5 * sched_n.duration, sched_n.duration
        a, b, _ = system.piece(ta, tb)   # coefficient vectors; `apply` takes H rho
        a, b = system.dense(a), system.dense(b)
        h_at = (lambda t, a=a, b=b, tm=0.5 * (ta + tb): a + (t - tm) * b)
        g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = (g @ g.conj().T / np.vdot(g, g)).reshape(-1)   # a random density matrix
        times = np.linspace(ta, tb, RHS_EVALS)
        rhs = (lambda h, y, liou=liou: liou.apply(h @ y.reshape(h.shape), y, True))
        plan[f"dm_rhs_n{n}"] = _timed(
            lambda _, h_at=h_at, rhs=rhs, rho=rho: [rhs(h_at(t), rho) for t in times], RHS_EVALS)

    for name, args in (("dm_triangle_evolve_n4", dm_evolve(4)),
                       ("dm_constant_evolve_n5", dm_evolve(5, envelope=False))):
        extras[name] = counted(lambda _, args=args: dynamics.evolve(*args))
        plan[name] = _timed(lambda _, args=args: dynamics.evolve(*args))
    budget = dm_evolve(3)[3].budget
    row6 = qubits.DeviceGeometry(pitch=0.5e-4, sites=(*triangle.sites, (0, 3), (1, 3), (2, 3)))
    ham6 = qubits.build(row6, voltages=np.array([0.0, 5e-5, 2e-4, 3e-4, 4e-4, 5e-4]))
    dwell6 = pulses.calibrate_swap(ham6, (0, 1), math.pi / 2)
    sched6 = pulses.swap_schedule(ham6, (0, 1), dwell6, dwell6 / 8, dwell6 / 8)
    for n, h, swap, bits in ((2, ham, sched, "ud"), (3, ham3, sched3, "udd"), (6, ham6, sched6, "uddddd")):
        args = (h, swap, dynamics.RegisterState.density_matrix(bits),
                dynamics.EvolutionSpec(sample_times=np.linspace(0.0, swap.duration, 5), budget=budget))
        extras[f"dm_swap_evolve_n{n}"] = counted(lambda _, args=args: dynamics.evolve(*args))
        plan[f"dm_swap_evolve_n{n}"] = _timed(lambda _, args=args: dynamics.evolve(*args))
    dm_doc = {"result": dynamics.evolve(*dm_evolve(5)).to_json_dict()}
    plan["dump_json_dm_n5"] = _timed(lambda _: cli.dump_json(dm_doc))

    def dop853_deviation(ham_n, sched_n, initial, spec_n) -> float:
        """Largest distance of `evolve`'s states from DOP853 at its floor, piece by piece."""
        from scipy.integrate import solve_ivp

        system = dynamics._System(ham_n, sched_n, spec_n)

        def rhs(t, y):
            return -1j * (system.dense(system.coefficients(t)) @ y)

        samples, state, expect = spec_n.sample_times, initial.data, [initial.data]
        ends = [0.0, *sorted(t for t in sched_n.breakpoints() if 0 < t < samples[-1]), samples[-1]]
        for ta, tb in zip(ends[:-1], ends[1:]):
            times = np.unique(np.append(samples[(ta < samples) & (samples <= tb)], tb))
            sol = solve_ivp(rhs, (ta, tb), state, method="DOP853", rtol=3e-14, atol=3e-16, t_eval=times)
            expect += [y for t, y in zip(times, sol.y.T) if t in samples]
            state = sol.y[:, -1]
        return float(np.abs(dynamics.evolve(ham_n, sched_n, initial, spec_n).states - expect).max())

    for n in range(6, 11):
        for kind, envelope in (("triangle", triangle_envelope), ("constant", lambda t_seg: ())):
            args = sv_register(n, envelope)
            name = f"sv_{kind}_n{n}"
            extras[name] = counted(lambda _, args=args: dynamics.evolve(*args))
            if kind == "triangle" and n in (8, 9):
                extras[name]["dop853_deviation"] = dop853_deviation(*args)
            plan[name] = _timed(lambda _, args=args: dynamics.evolve(*args))
        for path, cap in (("eigh", 1 << 20), ("taylor", 0)):
            def pinned(_, args=sv_register(n, lambda t_seg: ()), cap=cap):
                saved, dynamics._EXACT_DIM_MAX = dynamics._EXACT_DIM_MAX, cap
                try:
                    dynamics.evolve(*args)
                finally:
                    dynamics._EXACT_DIM_MAX = saved
            plan[f"constant_{path}_n{n}"] = _timed(pinned)
        if n in (7, 8):   # a closed density matrix on each path
            ham_n, sched_n, _, spec_n = sv_register(n, lambda t_seg: ())
            rho = dynamics.RegisterState.density_matrix("u" + "d" * (n - 1))

            def dm_eigh(_, args=(ham_n, sched_n, rho, spec_n)):
                dynamics.evolve(*args)

            def dm_taylor(_, ham_n=ham_n, sched_n=sched_n, spec_n=spec_n, rho=rho):
                system, t_seg = dynamics._System(ham_n, sched_n, spec_n), sched_n.duration
                a, b, w = system.piece(0.0, t_seg)
                liou = dynamics._Liouvillian(system, None, None)
                dynamics._taylor(system, liou, 0.0, t_seg, False, w, a, b)(rho.data, spec_n.sample_times[1:])
            plan[f"dm_closed_eigh_n{n}"] = _timed(dm_eigh)
            plan[f"dm_closed_taylor_n{n}"] = _timed(dm_taylor)

    energies = hydrogenic.levels(basis, 0.0)
    exponent_args = [(e, f) for e in energies[:2] for f in (1e-3, 0.1, 1.0, 4.0, 6.0)]
    plan["wkb_exponent"] = _timed(
        lambda _: [readout.wkb_exponent(basis.lam, e, f) for e, f in exponent_args],
        len(exponent_args))
    exponents = []
    wkb = readout.wkb_exponent
    readout.wkb_exponent = lambda *a, **k: exponents.append(a) or wkb(*a, **k)
    try:
        readout.plan(basis.lam, energies, 1e-7, 1e6)
    finally:
        readout.wkb_exponent = wkb
    plan["readout_plan"] = _timed(
        lambda _: [readout.plan(basis.lam, energies, 1e-7, 1e6) for _ in range(PLANS)], PLANS)
    extras["readout_plan"] = {"wkb_evaluations": len(exponents)}

    readout_config = {
        "seed": 3,
        "device": {"d_um": 1.0, "sites": [[i % 3, i // 3] for i in range(8)], "B_T": 1.5,
                   "T_K": 0.01, "voltages_mV": [0.0] * 8},
        "readout": {"wait_s": 1e-7, "selectivity": 1e6, "shots": 4000, "initial_bits": "ud" * 4},
    }
    geom8 = cli.device_geometry(readout_config["device"])
    plan8 = readout.plan(basis.lam, energies, 1e-7, 1e6, pixel_size=1e-4,
                         site_positions_cm=geom8.positions_cm())
    survival = [math.exp(-1e-7 / plan8.t_2), 1.0] * 4
    plan["sample_shots"] = _timed(lambda _: readout.sample_shots(survival, plan8, 4000, 3))

    class Capture:
        """The `_Writer` calls of one `run_*`: keeps the JSON payload, drops the CSV."""

        def csv(self, *args, **kwargs):
            pass

        def json(self, payload):
            self.payload = payload

    capture = Capture()
    cli.run_readout(readout_config, capture)
    plan["dump_json_readout"] = _timed(lambda _: cli.dump_json(capture.payload))

    gen = np.random.default_rng(7)
    shots = np.empty(200_000, [("index", int), ("tunneled", bool, (8,))])
    shots["index"], shots["tunneled"] = np.arange(len(shots)), gen.random((len(shots), 8)) < 0.3
    artifacts = {
        "write_states_n7": {"result": {"mode": "density-matrix", "frame": "rwa",
                                       "states": gen.normal(size=(101, 16384, 2))}},
        "write_shots_200k": {"seed": 3, "rng": readout.RNG_ALGORITHM, "shots": shots},
    }
    for name, payload in artifacts.items():
        out = workdir / name
        writer = cli._Writer({"output_dir": str(out)}, [], name)

        def write(_, writer=writer, payload=payload):
            with contextlib.redirect_stdout(io.StringIO()):   # its `wrote <path>` line
                writer.json(payload)
        plan[name] = _timed(write)
        extras[name] = {"traced_peak_mib": _traced_peak(write),
                        "bytes_written": sum(p.stat().st_size for p in out.iterdir())}

    plan["moment_tables"] = _timed(
        lambda _: [hydrogenic._moment_matrix.__wrapped__(size, 1, max(96, size + 8))
                   for size in (32, 37)])

    device = {"d_um": 0.5, "sites": [[0, 0], [1, 0]], "B_T": 1.5, "T_K": 0.01,
              "voltages_mV": [0.0, 0.05]}
    sudden = {"pair": [0, 1], "alpha": math.pi / 2}
    refine_ramp = pulses.calibrate_swap(ham, (0, 1), 0.3 * math.pi) / 16   # as `refine_ramped`'s
    configs = {
        "spectrum": {"device": device,
                     "spectrum": {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 40}},
        "demo_swap": {"device": device, "swap": {**sudden, "rise_s": ramp, "fall_s": ramp}},
        "demo_swap_sudden": {"device": device, "swap": sudden},
        "config_error": {"device": device, "swap": {**sudden, "alpha": -1.0}},
        "calibrate_refine": {"device": device, "swap": {
            "pair": [0, 1], "alpha": 0.3 * math.pi, "rise_s": refine_ramp, "fall_s": refine_ramp}},
        "evolve_dm": {"device": device, "schedule": {"duration_s": 4 * dwell},
                      "initial": {"bits": "ud", "mode": "density-matrix"},
                      "evolution": {"sample_count": 5, "use_budget": True}},
        "evolve_dm_n8": dm_job(8, envelope=False),
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

    cli.load_config(str(cfg["readout"]), [])   # loads the schema, once per process
    plan["load_config"] = _timed(lambda _: cli.load_config(str(cfg["readout"]), []))

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
        ("dm_constant_evolve_n8", helioq("evolve", "evolve_dm_n8")),
        ("cold_readout", helioq("readout", "readout")),
        ("cold_calibrate_refine", [*helioq("calibrate", "calibrate_refine"), "--refine"]),
        ("cold_sv_triangle_n14", [sys.executable, "-c", _SV_TRIANGLE, "14"]),
    ):
        plan[name] = _cold(argv, src)
    plan["cold_config_error"] = _cold(helioq("demo-swap", "config_error"), src, code=2)

    samples = {name: [] for name in plan}
    for _ in range(repeats):
        for name, repeat in plan.items():
            samples[name].append(repeat())
    layers = {}
    for name, values in samples.items():
        if isinstance(values[0], tuple):   # a fresh interpreter's wall time and peak RSS
            walls, rss = zip(*values)
            layers[name] = _stats(list(walls), "s",
                                  peak_rss_mib=_stats(list(rss), "MiB", **_quartiles(list(rss))))
        else:
            layers[name] = _stats(values, "s", **extras.get(name, {}))

    return {
        "record": {
            "commit": _commit(src),
            "source_sha256": _source_digest(src),
            "bytecode": bytecode,
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
