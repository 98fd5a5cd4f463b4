"""Config-driven batch front door.

Subcommands wire the library modules into reproducible experiments:

    spectrum     Stark-shifted level sweep -> CSV
    medium       ripplon/collective dispersion + melting boundary -> CSV
    decoherence  full budget with every intermediate quantity -> JSON
    build        device JSON -> register parameter matrices JSON
    calibrate    swap dwell time for a pair and rotation angle -> JSON
    evolve       schedule-driven register evolution -> CSV + JSON
    readout      tunneling plan + shot sampling -> CSV image + JSON log
    demo-swap    build -> calibrate -> evolve -> report, end to end

Configs are JSON validated against the shipped schema (unknown keys are
rejected); ``--set dotted.path=value`` overrides are applied first and
echoed into the outputs.  ``calibrate --refine`` is shorthand for
``--set swap.refine=true``.  Output files are named from a hash of the
effective config, embed that hash and the package version, contain no
timestamps, and serialize every float with 17 significant digits, so a
rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 2 config error, 3 numerical or domain failure
(ValueError, RuntimeError and their subclasses), 4 internal error (any
other exception, reported with its type).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, decoherence, dynamics, hydrogenic, medium, pulses, qubits, readout
from .units import EPSILON_HE, HBAR, K_B, K_TO_GHZ, image_strength

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


# --- canonical serialization -------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    if math.isinf(x):
        return "null"  # unbounded quantity (e.g. infinite retention time)
    return format(x, ".17g")


def _format_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _format_float(float(x))
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _block(items, pad: str) -> str:
    body = f",\n{pad}  ".join(items)
    return f"[\n{pad}  {body}\n{pad}]" if body else "[]"


def _rows(a: np.ndarray, indent: int):
    """The text of each a[i] at `indent`, as dump_json(a[i].tolist(), indent) writes it."""
    kinds = {"b": ("false", "true").__getitem__, "i": str, "u": str, "f": _format_float}
    fmt = kinds.get(a.dtype.kind)  # tolist() gives Python bools, ints and floats
    if fmt and a.ndim == 1:
        return map(fmt, a.tolist())
    if not (fmt and a.ndim == 2 and a.shape[1] <= 16):
        return (dump_json(r, indent) for r in a)
    if a.dtype.kind == "f" and len(a) and np.isfinite(a).all():
        # one '%.17g' template over the block, a line per row ('%.17g' % x is
        # format(x, '.17g')); inf and NaN take _format_float below
        block = "\n".join(["[" + ", ".join(["%.17g"] * a.shape[1]) + "]"] * len(a))
        return (block % tuple(a.reshape(-1).tolist())).split("\n")
    if a.dtype.kind == "b":
        # each distinct row is written once; a row's bits, read as a number, name it
        code = a @ (1 << np.arange(a.shape[1]))
        _, first, which = np.unique(code, return_index=True, return_inverse=True)
        text = ["[" + ", ".join(map(fmt, r)) + "]" for r in a[first].tolist()]
        return map(text.__getitem__, which.tolist())
    return ("[" + ", ".join(map(fmt, r)) + "]" for r in a.tolist())


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dump_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if len(seq) <= 16 and all(isinstance(x, (int, float)) or x is None for x in seq):
            return "[" + ", ".join(map(_format_scalar, seq)) + "]"
        return _block((dump_json(v, indent + 1) for v in seq), pad)
    if isinstance(obj, np.ndarray):
        # row by row, as text equal to tolist()'s; a structured array's rows are records
        if obj.dtype.names:
            keys = (json.dumps(k).replace("%", "%%") for k in obj.dtype.names)
            record = "{\n" + ",\n".join(f"{pad}    {k}: %s" for k in keys) + f"\n{pad}  }}"
            fields = zip(*(_rows(obj[k], indent + 2) for k in obj.dtype.names))
            return _block(map(record.__mod__, fields), pad)
        return _block(_rows(obj, indent + 1), pad) if obj.ndim > 1 else dump_json(obj.tolist(), indent)
    return _format_scalar(obj)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# --- config loading ----------------------------------------------------------


def load_schema() -> dict:
    with resources.files("helioq.schemas").joinpath("experiment.schema.json").open() as fh:
        return json.load(fh)


def _finite_json(text: str, source: str):
    """json.loads that rejects numbers that are not finite (NaN, Infinity, 1e999)."""
    def finite(token):
        if not math.isfinite(x := float(token)):
            raise ConfigError(f"{source} holds the non-finite number {token}")
        return x

    return json.loads(text, parse_constant=finite, parse_float=finite)


def apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"override must look like path.to.key=value: {assignment!r}")
    path, raw = assignment.split("=", 1)
    keys = path.split(".")
    node = config
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-object value")
    try:
        value = _finite_json(raw, f"override {assignment!r}")
    except json.JSONDecodeError:
        value = raw
    node[keys[-1]] = value


def load_config(path: str, overrides: list[str]) -> tuple[dict, list[str]]:
    try:
        with open(path) as fh:
            config = _finite_json(fh.read(), f"config {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object at its top level")
    for assignment in overrides:
        apply_override(config, assignment)
    from jsonschema.exceptions import best_match

    # the error jsonschema.validate would raise
    exc = best_match(_validator().iter_errors(config))
    if exc is not None:
        path_str = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"config invalid at {path_str}: {exc.message}") from exc
    return config, list(overrides)


@functools.lru_cache(maxsize=1)
def _validator():
    """Validator for the shipped schema, which is checked once per process."""
    import jsonschema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def require_block(config: dict, name: str) -> dict:
    if name not in config:
        raise ConfigError(f"this subcommand requires a {name!r} block in the config")
    return config[name]


# --- shared builders ---------------------------------------------------------


def device_geometry(block: dict) -> qubits.DeviceGeometry:
    try:
        return qubits.DeviceGeometry(
            pitch=block["d_um"] * 1e-4,
            sites=tuple((x, y) for x, y in block["sites"]),
            e_perp=block.get("E_perp", 0.0),
            c_geom=block.get("c_geom", 1.0),
        )
    except ValueError as exc:  # sites coincide or sit closer than one pitch
        raise ConfigError(f"device.sites: {exc}") from exc


def basis_spec(block: dict) -> hydrogenic.HydrogenicBasisSpec:
    lam = image_strength(block.get("epsilon", EPSILON_HE))
    if "basis_size" in block:
        return hydrogenic.HydrogenicBasisSpec(lam=lam, size=block["basis_size"])
    return hydrogenic.HydrogenicBasisSpec(lam=lam)


def device_budget(config: dict) -> decoherence.DecoherenceBudget:
    """The decoherence budget of the config's device and noise blocks."""
    dev = require_block(config, "device")
    noise = config.get("noise", {})
    return decoherence.budget(
        temperature=dev.get("T_K", 0.01),
        b_field=dev.get("B_T", 1.5),
        pitch=device_geometry(dev).pitch,
        lam=basis_spec(dev).lam,
        noise_density=noise.get("s_v", 0.0),
        tuning=noise.get("tuning_ghz_per_mv", 1.0),
        coupling_const=noise.get("coupling_const", 1e-2),
        mobility_field=noise.get("mobility_field", 0.0),
    )


def device_voltages(block: dict, n_sites: int) -> np.ndarray:
    mv = block.get("voltages_mV", [0.0] * n_sites)
    if len(mv) != n_sites:
        raise ConfigError(
            f"voltages_mV has {len(mv)} entries for {n_sites} sites"
        )
    return np.asarray(mv, dtype=float) * 1e-3


def check_sites(key: str, sites, n_sites: int) -> None:
    """Raise a ConfigError when `key` names a site the device does not have."""
    for site in sites:
        if site >= n_sites:
            raise ConfigError(f"{key} names site {site}, but the device has {n_sites} sites")


def swap_pair(block: dict, n_sites: int) -> tuple[int, int]:
    """The `swap.pair` sites, after checking that they are two distinct device sites."""
    pair = tuple(block["pair"])
    check_sites("swap.pair", pair, n_sites)
    if pair[0] == pair[1]:
        raise ConfigError(f"swap.pair names site {pair[0]} twice")
    return pair


class _Writer:
    """Writes a run's artifacts as ``<subcommand>_<config hash>.<suffix>`` and prints
    ``wrote <path>`` for each; the output directory is made by the first write."""

    def __init__(self, config: dict, overrides: list[str], subcommand: str):
        self.hash = config_hash(config)
        self.overrides = overrides
        self.outdir = Path(config["output_dir"])
        self.sub = subcommand

    def _write(self, suffix: str, text: str) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        p = self.outdir / f"{self.sub}_{self.hash}.{suffix}"
        with open(p, "w") as fh:
            fh.write(text)
        print(f"wrote {p}")

    def csv(self, header: list[str], rows, suffix: str = "csv") -> None:
        overrides = f" overrides={';'.join(self.overrides)}" if self.overrides else ""
        lines = [f"# config_hash={self.hash} artifact_version={__version__}{overrides}",
                 ",".join(header)]
        lines += (
            ",".join(_format_float(float(x)) if isinstance(x, (float, np.floating)) else str(x)
                     for x in row)
            for row in rows
        )
        self._write(suffix, "\n".join(lines) + "\n")

    def json(self, payload: dict, suffix: str = "json") -> None:
        meta = {"config_hash": self.hash, "artifact_version": __version__,
                "overrides": self.overrides}
        self._write(suffix, dump_json({**meta, **payload}) + "\n")


# --- subcommands -------------------------------------------------------------


def run_spectrum(config: dict, w: _Writer) -> None:
    dev = require_block(config, "device")
    sw = require_block(config, "spectrum")
    basis = basis_spec(dev)
    max_state = min(sw.get("max_state", 5), basis.size)
    fields = np.linspace(sw["e_perp_min"], sw["e_perp_max"], sw["points"])
    rows = []
    for f in fields:
        # one `levels` per field serves every row; nu_1m is transition_K(basis, f, m) in GHz
        e = hydrogenic.levels(basis, float(f)).tolist()
        rows.extend(
            (float(f), m, e[m - 1], (e[m - 1] - e[0]) * K_TO_GHZ) for m in range(1, max_state + 1)
        )
    w.csv(["E_perp_V_per_cm", "m", "E_m_K", "nu_1m_GHz"], rows)


def run_medium(config: dict, w: _Writer) -> None:
    blk = require_block(config, "medium")
    ks = np.geomspace(blk["k_min"], blk["k_max"], blk["points"])
    rows = [
        ("ripplon", float(k), medium.ripplon_omega(float(k)), medium.ripplon_energy_K(float(k)))
        for k in ks
    ]
    if "density_cm2" in blk:
        sheet = medium.ElectronSheet(blk["density_cm2"], blk.get("b_field_T", 0.0))
        k_cap = 0.2 * math.sqrt(sheet.density)
        ks_sheet = ks[ks <= k_cap]
        branches = ["longitudinal"]
        if blk.get("shear_speed") is not None:
            branches.append("shear-acoustic")
        if sheet.b_field > 0:
            branches += ["magnetoplasma-low", "magnetoplasma-high"]
        for branch in branches:
            for k in ks_sheet:
                om = medium.collective_mode(
                    sheet, branch, float(k), shear_speed=blk.get("shear_speed")
                )
                rows.append((branch, float(k), om, om * HBAR / K_B))
    w.csv(["branch", "k_per_cm", "omega_per_s", "omega_K"], rows)
    if "boundary" in blk:
        b = blk["boundary"]
        ns = np.geomspace(b["n_min"], b["n_max"], b["points"])
        gamma = b.get("gamma_melt", medium.GAMMA_MELT_DEFAULT)
        boundary_rows = [
            (float(n), medium.melting_temperature(float(n), gamma)) for n in ns
        ]
        w.csv(["n_per_cm2", "T_melt_K"], boundary_rows, suffix="boundary.csv")


def run_decoherence(config: dict, w: _Writer) -> None:
    dev = require_block(config, "device")
    geom = device_geometry(dev)
    basis = basis_spec(dev)
    bud = device_budget(config)
    scales = medium.magnetic_quantities(bud.b_field, bud.pitch)
    intermediates = {
        "delta_T_cm": medium.thermal_amplitude(bud.temperature),
        "magnetic_length_cm": scales.length_cm,
        "omega_c_K": scales.omega_c_K,
        "omega_zb_K": scales.omega_zb_K,
        "omega_l_K": medium.ripplon_energy_K(1.0 / scales.length_cm),
        "rydberg_K": hydrogenic.rydberg_scales(basis.lam)[0],
        "bohr_radius_cm": hydrogenic.rydberg_scales(basis.lam)[1],
        "confinement_K": qubits.confinement_scale(geom),
    }
    w.json({"budget": bud.to_dict(), "intermediates": intermediates})


def _build_register(config: dict):
    dev = require_block(config, "device")
    geom = device_geometry(dev)
    basis = basis_spec(dev)
    volts = device_voltages(dev, geom.n_sites)
    return qubits.build(geom, volts, basis=basis)


def run_build(config: dict, w: _Writer) -> None:
    ham = _build_register(config)
    w.json({"hamiltonian": ham.to_dict()})


def run_calibrate(config: dict, w: _Writer) -> None:
    sw = require_block(config, "swap")
    ham = _build_register(config)
    pair = swap_pair(sw, ham.n_qubits)
    refine = sw.get("refine", False)
    dwell = pulses.calibrate_swap(
        ham, pair, sw["alpha"],
        refine=refine, rise=sw.get("rise_s", 0.0), fall=sw.get("fall_s", 0.0),
    )
    w.json({
        "pair": list(pair),
        "alpha": sw["alpha"],
        "dwell_s": dwell,
        "refined": refine,
        "b_K": float(ham.b_K[pair[0], pair[1]]),
    })
    print(f"dwell_s={_format_float(dwell)}")


def _evolution_spec(config: dict, duration: float) -> dynamics.EvolutionSpec:
    ev = config.get("evolution", {})
    key = "sample_times_s" if "sample_times_s" in ev else "t_end_s"
    if "sample_times_s" in ev:
        samples = np.asarray(ev["sample_times_s"], dtype=float)
    else:
        t_end = ev.get("t_end_s", duration)
        samples = np.linspace(0.0, t_end, ev.get("sample_count", 101))
    if np.any(np.diff(samples) < 0) or samples[-1] > duration * (1 + 1e-12):
        raise ConfigError(f"evolution.{key} must ascend and end within the {duration} s schedule")
    for other in ("t_end_s", "sample_count"):
        if key == "sample_times_s" and other in ev:
            raise ConfigError(f"evolution.{other} does not apply with evolution.sample_times_s")
    budget_obj = None
    if ev.get("use_budget", False):
        budget_obj = device_budget(config)
    tun = None
    if "tunneling" in ev:
        tun = dynamics.TunnelingSpec(ev["tunneling"]["t_f_s"], ev["tunneling"]["t_up_s"])
    return dynamics.EvolutionSpec(
        sample_times=samples,
        frame=ev.get("frame", "rwa"),
        rtol=ev.get("rtol", 1e-8),
        budget=budget_obj,
        tunneling=tun,
    )


def run_evolve(config: dict, w: _Writer) -> None:
    block = require_block(config, "schedule")
    try:
        sched = pulses.PulseSchedule.from_dict(block)
    except ValueError as exc:  # breakpoints out of order or range
        raise ConfigError(f"schedule.{exc}") from exc
    init_blk = require_block(config, "initial")
    ham = _build_register(config)
    check_sites("schedule.voltage_channels[].site",
                [c.site for c in sched.voltage_channels], ham.n_qubits)
    bits = init_blk["bits"]
    if len(bits) != ham.n_qubits:
        raise ConfigError(
            f"initial.bits has {len(bits)} characters for {ham.n_qubits} sites"
        )
    if init_blk.get("mode", "state-vector") == "state-vector":
        for key in ("tunneling", "use_budget"):
            if config.get("evolution", {}).get(key):
                raise ConfigError(f"evolution.{key} needs initial.mode density-matrix")
        initial = dynamics.RegisterState.state_vector(bits)
    else:
        initial = dynamics.RegisterState.density_matrix(bits)
    spec = _evolution_spec(config, sched.duration)
    result = dynamics.evolve(ham, sched, initial, spec)
    w.csv(
        ["t", *(f"pop_{label}" for label in result.labels), "trace"],
        np.column_stack((result.times, result.populations, result.trace)).tolist(),
    )
    w.json({"result": result.to_json_dict()})


def run_readout(config: dict, w: _Writer) -> None:
    dev = require_block(config, "device")
    ro = require_block(config, "readout")
    geom = device_geometry(dev)
    basis = basis_spec(dev)
    energies = hydrogenic.levels(basis, geom.e_perp)
    pixel_cm = ro.get("pixel_um", 1.0) * 1e-4
    rplan = readout.plan(
        basis.lam, energies, ro["wait_s"], ro["selectivity"],
        pixel_size=pixel_cm, site_positions_cm=geom.positions_cm(),
    )
    bits = ro.get("initial_bits", "u" * geom.n_sites)
    if len(bits) != geom.n_sites:
        raise ConfigError(
            f"initial_bits has {len(bits)} characters for {geom.n_sites} sites"
        )
    # per-site survival: an excited electron escapes at 1/t_2 through the
    # wait, the closed form of the one-qubit tunneling evolution's trace
    survival = [
        math.exp(-ro["wait_s"] / rplan.t_2) if dynamics.basis_index(ch) else 1.0
        for ch in bits
    ]
    seed = config.get("seed", 0)
    escaped, image = readout.sample_shots(survival, rplan, ro["shots"], seed)
    shots = np.empty(len(escaped), [("index", int), ("tunneled", bool, escaped.shape[1:])])
    shots["index"], shots["tunneled"] = np.arange(len(escaped)), escaped
    img_rows = [
        (px[0], px[1], count) for px, count in sorted(image.items())
    ]
    w.csv(["pixel_x", "pixel_y", "counts"], img_rows, suffix="image.csv")
    w.json({
        "plan": {
            "e_plus_V_per_cm": rplan.e_plus,
            "wait_s": rplan.wait,
            "t_1_s": rplan.t_1,
            "t_2_s": rplan.t_2,
            "pixel_size_cm": rplan.pixel_size,
            "site_pixels": [list(p) for p in rplan.site_pixels],
        },
        "survival": survival,
        "seed": seed,
        "rng": readout.RNG_ALGORITHM,
        "shots": shots,
    })


def run_demo_swap(config: dict, w: _Writer) -> None:
    sw = require_block(config, "swap")
    for key in ("t_end_s", "sample_count", "tunneling", "use_budget"):
        if key in config.get("evolution", {}):
            raise ConfigError(
                f"evolution.{key} does not apply to demo-swap, which evolves a state "
                "vector and samples at evolution.sample_times_s or at the dwell's end"
            )
    ham = _build_register(config)
    pair = swap_pair(sw, ham.n_qubits)
    alpha = sw["alpha"]
    rise, fall = sw.get("rise_s", 0.0), sw.get("fall_s", 0.0)
    dwell = pulses.calibrate_swap(
        ham, pair, alpha, refine=sw.get("refine", False), rise=rise, fall=fall,
    )
    sched = pulses.swap_schedule(ham, pair, dwell, rise, fall)
    n = ham.n_qubits
    bits = ["d"] * n
    bits[pair[0]] = "u"
    source = "".join(bits)
    bits_t = ["d"] * n
    bits_t[pair[1]] = "u"
    target = "".join(bits_t)
    initial = dynamics.RegisterState.state_vector(source)
    t_meas = rise + dwell  # sample at ramp-down onset: the resonant segment ends here
    spec = _evolution_spec(config, sched.duration)
    if "sample_times_s" not in config.get("evolution", {}):
        spec = dataclasses.replace(spec, sample_times=np.array([t_meas]))
    result = dynamics.evolve(ham, sched, initial, spec)
    final = result.final_state
    amp_source = final[dynamics.basis_index(source)]
    amp_target = final[dynamics.basis_index(target)]
    # exchange-block two-level solution: cos(a)|source> - i sin(a)|target>,
    # compared up to the block's common phase
    fidelity = (
        abs(math.cos(alpha) * amp_source + 1j * math.sin(alpha) * amp_target) ** 2
    )
    w.json({
        "pair": list(pair),
        "alpha": alpha,
        "dwell_s": dwell,
        "rise_s": rise,
        "fall_s": fall,
        "target_amplitudes": {"source": math.cos(alpha), "target": math.sin(alpha)},
        "achieved_amplitudes": {
            "source": abs(amp_source),
            "target": abs(amp_target),
        },
        "fidelity_vs_exchange_oracle": fidelity,
    })
    print(
        f"alpha={_format_float(alpha)} "
        f"|amp_{source}|={_format_float(abs(amp_source))} (target {_format_float(abs(math.cos(alpha)))}) "
        f"|amp_{target}|={_format_float(abs(amp_target))} (target {_format_float(abs(math.sin(alpha)))}) "
        f"fidelity={_format_float(fidelity)}"
    )


_RUNNERS = {
    "spectrum": run_spectrum,
    "medium": run_medium,
    "decoherence": run_decoherence,
    "build": run_build,
    "calibrate": run_calibrate,
    "evolve": run_evolve,
    "readout": run_readout,
    "demo-swap": run_demo_swap,
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `append` copies its default."""
    parser = argparse.ArgumentParser(
        prog="helioq",
        description="Electrons-on-helium qubit simulator: batch experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="PATH=VALUE",
            help="dotted-path config override (repeatable, last wins)",
        )
        if name == "calibrate":
            p.add_argument(
                "--refine", dest="overrides", action="append_const", const="swap.refine=true",
                help="root-find the dwell through the full dynamics (--set swap.refine=true)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config, overrides = load_config(args.config, args.overrides)
        _RUNNERS[args.subcommand](config, _Writer(config, overrides, args.subcommand))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:  # numerical or domain failure
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # a defect, not a failed computation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
