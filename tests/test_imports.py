"""SciPy loads only where a job uses it, jsonschema (a test dependency, the
oracle of the config check's messages) never, and no subcommand loads
`numpy.random` or `numpy.polynomial`.

Each check starts a fresh interpreter, so no earlier import in the test
process (or in another test) can supply a SciPy submodule that the code
under test forgot to import itself.  The cold subcommands below, from the
spectrum to the ramped demo-swap, each assert that neither NumPy
subpackage is loaded beyond what `import numpy` loads itself: the readout's
shot stream and the basis tables' quadrature nodes are the package's own
ports of NumPy's Philox and `laggauss`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

DEVICE = {"d_um": 0.5, "sites": [[0, 0], [1, 0]], "B_T": 1.5, "T_K": 0.01,
          "voltages_mV": [0.0, 0.05]}

# runs `python -m helioq <argv>` in this interpreter, then prints the exit
# code, the loaded scipy modules, and the numpy.random and numpy.polynomial
# modules that `import numpy` did not load, as one JSON line
_RUN = """
import json, runpy, sys
import numpy
bare = set(sys.modules)
import helioq.cli
helioq.cli.load_config(sys.argv[1], [])
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.argv = ["helioq", *sys.argv[2:]]
try:
    runpy.run_module("helioq", run_name="__main__")
    code = 0
except SystemExit as exc:
    code = exc.code
after = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
numpy_subpackages = sorted(m for m in set(sys.modules) - bare
                           if m.split(".")[:2] in (["numpy", "random"], ["numpy", "polynomial"]))
print(json.dumps({"code": code, "before": before, "after": after, "numpy": numpy_subpackages}))
"""

# a cold run that loads no SciPy module and no NumPy random or polynomial module
_BARE = {"code": 0, "before": [], "after": [], "numpy": []}


def _cold(tmp_path, command, payload):
    subcommand, *flags = command.split()
    cfg = tmp_path / f"{subcommand}.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **payload}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _RUN, str(cfg), subcommand, "--config", str(cfg), *flags],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_config_and_spectrum_load_no_scipy(tmp_path):
    run = _cold(tmp_path, "spectrum", {
        "device": DEVICE,
        "spectrum": {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 5},
    })
    assert run == _BARE


@pytest.mark.parametrize("subcommand, payload", [
    # a constant dissipative piece: Taylor steps on NumPy products
    ("evolve", {
        "device": DEVICE,
        "schedule": {"duration_s": 1e-8},
        "initial": {"bits": "ud", "mode": "density-matrix"},
        "evolution": {"sample_count": 3, "use_budget": True},
    }),
    # an enveloped drive: Taylor steps on a slope, with no ODE integrator
    ("evolve", {
        "device": {"d_um": 0.5, "sites": [[0, 0]], "B_T": 1.5, "T_K": 0.01},
        "schedule": {"duration_s": 1e-9, "microwave": [
            {"freq_GHz": 100.0, "amp_V_per_cm": 0.1, "envelope": [[0.0, 0.0], [1e-9, 1.0]]}]},
        "initial": {"bits": "u"},
        "evolution": {"sample_times_s": [1e-9]},
    }),
    # the plan's root find and its exponent's elliptic integrals
    ("readout", {
        "seed": 11,
        "device": DEVICE,
        "readout": {"wait_s": 1e-6, "selectivity": 1e6, "pixel_um": 1.0,
                    "shots": 400, "initial_bits": "ud"},
    }),
    # ramps and the plateau's operators, root-found by the package's own bracketing
    ("calibrate --refine", {
        "device": DEVICE,
        "swap": {"pair": [0, 1], "alpha": 0.3 * 3.141592653589793, "rise_s": 1e-10, "fall_s": 1e-10},
    }),
    # a ramped swap: Taylor steps through the Stark map's moving voltage
    ("demo-swap", {
        "device": DEVICE,
        "swap": {"pair": [0, 1], "alpha": 3.141592653589793 / 2, "rise_s": 1e-10, "fall_s": 1e-10},
    }),
], ids=["evolve-constant-density-matrix", "evolve-enveloped", "readout", "calibrate-refine", "demo-swap-ramped"])
def test_cold_subcommands_import_what_they_use(tmp_path, subcommand, payload):
    assert _cold(tmp_path, subcommand, payload) == _BARE


# jsonschema and the packages it loads
_JSONSCHEMA = ("jsonschema", "jsonschema_specifications", "referencing", "rpds", "attrs", "attr")

# one load_config of argv[1], then `python -m helioq <argv[2:]>`; prints the
# exit code and the loaded jsonschema modules after each, as one JSON line
_RUN_CHECKED = f"""
import json, runpy, sys
import helioq.cli
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] in {_JSONSCHEMA!r})
try:
    helioq.cli.load_config(sys.argv[1], [])
except helioq.cli.ConfigError:
    pass
before = loaded()
sys.argv = ["helioq", *sys.argv[2:]]
try:
    runpy.run_module("helioq", run_name="__main__")
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({{"code": code, "before": before, "after": loaded()}}))
"""


def _checked(tmp_path, config):
    cfg = tmp_path / "demo-swap.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _RUN_CHECKED, str(cfg), "demo-swap", "--config", str(cfg)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1]), out.stderr


def test_valid_config_and_demo_swap_load_no_jsonschema(tmp_path):
    run, _ = _checked(tmp_path, {"output_dir": str(tmp_path / "out"), "device": DEVICE,
                                 "swap": {"pair": [0, 1], "alpha": 3.141592653589793 / 2}})
    assert run == {"code": 0, "before": [], "after": []}


def test_invalid_config_exits_2_with_jsonschemas_message_and_loads_no_jsonschema(tmp_path):
    # helioq words the error itself; jsonschema, imported here only, is the oracle
    import jsonschema

    from helioq.cli import load_schema

    config = {"output_dir": str(tmp_path / "out"), "device": DEVICE,
              "swap": {"pair": [0, 1], "alpha": -1.0}}
    run, err = _checked(tmp_path, config)
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(config, load_schema())
    assert info.value.message == "-1.0 is less than the minimum of 0"
    assert err == f"config error: config invalid at swap/alpha: {info.value.message}\n"
    assert run == {"code": 2, "before": [], "after": []}
    assert not (tmp_path / "out").exists()
