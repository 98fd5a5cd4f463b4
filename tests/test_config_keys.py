"""Every key of the config schema changes what the CLI writes.

Each leaf of `experiment.schema.json` but `output_dir` has a case here: a
subcommand, a base config and a new value for that key.  The subcommand
runs on the base config and on the base config with the key set to the new
value, and the second run must exit with another code or write some other
artifact body.  The meta fields `config_hash`,
`artifact_version` and `overrides`, and the CSV header comment, are left out
of the comparison, since they change with any input.  A leaf without a case
fails, so a key added to the schema needs one.

An input that is echoed into an artifact counts as a change.  So this
catches keys that are neither echoed nor used; it does not catch a key
that is echoed but otherwise ignored.
"""
import copy
import json
import math

import pytest

from helioq import cli
from helioq.cli import main

DEVICE = {"d_um": 0.5, "sites": [[0, 0], [1, 0]], "voltages_mV": [0.0, 0.05]}
BUILD = {"device": dict(DEVICE, E_perp=5.0)}
DECOHERENCE = {"device": DEVICE, "noise": {"s_v": 1e-10}}
SPECTRUM = {
    "device": DEVICE,
    "spectrum": {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 3, "max_state": 3},
}
MEDIUM = {"medium": {
    "density_cm2": 1e8, "b_field_T": 1.5, "k_min": 1e2, "k_max": 1e3, "points": 5,
    "shear_speed": 3e5,
    "boundary": {"n_min": 1e7, "n_max": 1e9, "points": 4, "gamma_melt": 130.0},
}}
SWAP = {"device": DEVICE, "swap": {"pair": [0, 1], "alpha": math.pi / 4}}
# a ramped voltage and a ramped drive, so the integrator (and its rtol) runs
EVOLVE = {
    "device": DEVICE,
    "schedule": {
        "duration_s": 1e-9,
        "voltage_channels": [{"site": 0, "points": [[0.0, 0.0], [5e-10, 5e-5]]}],
        "microwave": [{"freq_GHz": 118.4, "amp_V_per_cm": 0.1, "phase": 0.0,
                       "envelope": [[0.0, 0.0], [1e-9, 1.0]]}],
    },
    "initial": {"bits": "ud"},
    "evolution": {"sample_count": 3},
}
EVOLVE_AT = dict(EVOLVE, evolution={"sample_times_s": [1e-9]})
EVOLVE_DM = {
    "device": DEVICE,
    "schedule": {"duration_s": 1e-8},
    "initial": {"bits": "ud", "mode": "density-matrix"},
    "evolution": {"sample_count": 3, "use_budget": False,
                  "tunneling": {"t_f_s": 0.0, "t_up_s": 1e-7}},
}
READOUT = {
    "device": DEVICE,
    "readout": {"wait_s": 1e-6, "selectivity": 1e6, "shots": 50, "pixel_um": 1.0,
                "initial_bits": "ud"},
}

# schema leaf -> (subcommand, base config, new value); "[]" sets the first item
CASES = {
    "seed": ("readout", READOUT, 7),
    "device.d_um": ("build", BUILD, 0.6),
    "device.sites": ("build", BUILD, [[0, 0], [2, 0]]),
    "device.E_perp": ("build", BUILD, 10.0),
    "device.B_T": ("decoherence", DECOHERENCE, 3.0),
    "device.T_K": ("decoherence", DECOHERENCE, 0.02),
    "device.c_geom": ("build", BUILD, 0.5),
    "device.voltages_mV": ("build", BUILD, [0.0, 0.1]),
    "device.epsilon": ("build", BUILD, 1.06),
    "device.basis_size": ("build", BUILD, 40),
    "spectrum.e_perp_min": ("spectrum", SPECTRUM, 10.0),
    "spectrum.e_perp_max": ("spectrum", SPECTRUM, 40.0),
    "spectrum.points": ("spectrum", SPECTRUM, 4),
    "spectrum.max_state": ("spectrum", SPECTRUM, 4),
    "medium.density_cm2": ("medium", MEDIUM, 2e8),
    "medium.b_field_T": ("medium", MEDIUM, 2.0),
    "medium.k_min": ("medium", MEDIUM, 2e2),
    "medium.k_max": ("medium", MEDIUM, 2e3),
    "medium.points": ("medium", MEDIUM, 6),
    "medium.shear_speed": ("medium", MEDIUM, 3.5e5),
    "medium.boundary.n_min": ("medium", MEDIUM, 2e7),
    "medium.boundary.n_max": ("medium", MEDIUM, 2e9),
    "medium.boundary.points": ("medium", MEDIUM, 5),
    "medium.boundary.gamma_melt": ("medium", MEDIUM, 137.0),
    "noise.s_v": ("decoherence", DECOHERENCE, 2e-10),
    "noise.tuning_ghz_per_mv": ("decoherence", DECOHERENCE, 2.0),
    "noise.mobility_field": ("decoherence", DECOHERENCE, 1.0),
    "noise.coupling_const": ("decoherence", DECOHERENCE, 0.03),
    "swap.pair": ("calibrate", SWAP, [1, 0]),
    "swap.alpha": ("calibrate", SWAP, math.pi / 3),
    # an unrefined calibrate is the sudden dwell, which no ramp moves
    "swap.rise_s": ("demo-swap", SWAP, 1e-10),
    "swap.fall_s": ("demo-swap", SWAP, 1e-10),
    "swap.refine": ("calibrate", SWAP, True),
    "schedule.duration_s": ("evolve", EVOLVE, 2e-9),
    "schedule.voltage_channels[].site": ("evolve", EVOLVE, 1),
    "schedule.voltage_channels[].points": ("evolve", EVOLVE, [[0.0, 0.0], [5e-10, 1e-4]]),
    "schedule.microwave[].freq_GHz": ("evolve", EVOLVE, 118.5),
    "schedule.microwave[].amp_V_per_cm": ("evolve", EVOLVE, 0.2),
    "schedule.microwave[].phase": ("evolve", EVOLVE, 1.0),
    "schedule.microwave[].envelope": ("evolve", EVOLVE, [[0.0, 1.0], [1e-9, 0.0]]),
    "initial.bits": ("evolve", EVOLVE, "du"),
    "initial.mode": ("evolve", EVOLVE, "density-matrix"),
    "evolution.frame": ("evolve", EVOLVE, "lab"),
    "evolution.rtol": ("evolve", EVOLVE, 1e-6),
    "evolution.sample_times_s": ("evolve", EVOLVE_AT, [5e-10, 1e-9]),
    "evolution.sample_count": ("evolve", EVOLVE, 4),
    "evolution.t_end_s": ("evolve", EVOLVE, 5e-10),
    "evolution.use_budget": ("evolve", EVOLVE_DM, True),
    "evolution.tunneling.t_f_s": ("evolve", EVOLVE_DM, 5e-9),
    "evolution.tunneling.t_up_s": ("evolve", EVOLVE_DM, 2e-7),
    "readout.wait_s": ("readout", READOUT, 2e-6),
    # a bound, not a knob: past the achievable t_1/t_2 (7e104 here) it rejects the run
    "readout.selectivity": ("readout", READOUT, 1e120),
    "readout.pixel_um": ("readout", READOUT, 2.0),
    "readout.shots": ("readout", READOUT, 60),
    "readout.initial_bits": ("readout", READOUT, "uu"),
}


def _leaves(node: dict, prefix: str = ""):
    """Dotted paths of the schema's leaves; "[]" marks an array of objects."""
    for key, sub in node.get("properties", {}).items():
        if "properties" in sub:
            yield from _leaves(sub, f"{prefix}{key}.")
        elif "properties" in sub.get("items", {}):
            yield from _leaves(sub["items"], f"{prefix}{key}[].")
        else:
            yield f"{prefix}{key}"


LEAVES = [leaf for leaf in _leaves(cli.load_schema()) if leaf != "output_dir"]


def _with(config: dict, leaf: str, value) -> dict:
    out = copy.deepcopy(config)
    *path, last = leaf.replace("[]", ".0").split(".")
    node = out
    for key in path:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[last] = value
    return out


def _outcome(tmp_path, label: str, subcommand: str, config: dict):
    """The exit code of one run and each artifact by its suffix, without the meta fields."""
    out = tmp_path / label
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"output_dir": str(out), **config}))
    code = main([subcommand, "--config", str(path)])
    bodies = {}
    for p in out.iterdir() if out.exists() else ():
        suffix = p.name.split(".", 1)[1]
        text = p.read_text()
        if suffix == "json":
            doc = json.loads(text)
            for meta in ("config_hash", "artifact_version", "overrides"):
                del doc[meta]
            bodies[suffix] = doc
        else:
            header, body = text.split("\n", 1)
            assert header.startswith("# config_hash=")
            bodies[suffix] = body
    return code, bodies


def test_every_case_is_a_schema_leaf():
    assert sorted(set(CASES) - set(LEAVES)) == []


@pytest.mark.parametrize("leaf", LEAVES)
def test_every_schema_key_changes_the_run(tmp_path, leaf):
    assert leaf in CASES, f"schema key {leaf} has no case"
    subcommand, base, value = CASES[leaf]
    before = _outcome(tmp_path, "base", subcommand, base)
    assert before[0] == 0
    after = _outcome(tmp_path, "set", subcommand, _with(base, leaf, value))
    assert after != before, f"{subcommand} runs the same with {leaf} = {value!r}"
