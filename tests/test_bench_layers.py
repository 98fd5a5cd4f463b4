"""Smoke test of `bench/layers.py`: it still imports and times what it names."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_harness_adds_one_labelled_run(tmp_path):
    out = tmp_path / "BENCH_stark_map.json"
    out.write_text(json.dumps({"runs": {"earlier": {"layers": {}}}}))
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"),
         "--repeats", "1", "--label", "smoke", "--out", str(out)],
        check=True, capture_output=True, text=True, timeout=600,
    )
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"earlier", "smoke"}
    record, layers = runs["smoke"]["record"], runs["smoke"]["layers"]
    assert set(record) == {"commit", "nproc", "blas_threads", "python", "numpy", "scipy"}
    assert set(layers) == {
        "transition_K", "build_n2", "build_n9", "stark_build", "stark_lookup", "ramped_swap_evolve",
        "ramped_swap_evolve_n3", "refine_sudden", "refine_ramped", "refine_out_of_reach",
        "refine_ramped_n3",
        "dm_rhs_n3", "dm_rhs_n4", "dm_rhs_n5", "dm_triangle_evolve_n4", "dm_constant_evolve_n5",
        "dm_constant_evolve_n8", "dump_json_dm_n5",
        "wkb_exponent", "readout_plan", "sample_shots", "dump_json_readout", "load_config",
        "moment_tables", "cold_python_pass",
        "cold_import_cli", "cold_setup", "cold_spectrum", "cold_demo_swap",
        "cold_demo_swap_sudden", "cold_evolve_dm", "cold_readout",
    }
    for value in layers.values():
        assert value["repeats"] == 1
        assert 0 < value["value"] == value["median"] == value["max"]
    assert layers["stark_build"]["terms"] > 0
    assert layers["ramped_swap_evolve"]["stark_lookups"] > 0
    assert layers["refine_sudden"]["integrator_runs"] == layers["refine_sudden"]["evolves"] == 0
    for name in ("refine_ramped", "refine_out_of_reach", "refine_ramped_n3"):
        assert 0 < layers[name]["integrator_runs"] <= 3
    # the 3-site swap's two ramps, the mean qubit frequency split off
    assert layers["ramped_swap_evolve_n3"]["integrator_runs"] == 2
    assert 0 < layers["ramped_swap_evolve_n3"]["nfev"] < 1000
    assert layers["readout_plan"]["wkb_evaluations"] > 0
    # the triangle's rise and fall, tunneling switched on at the apex between
    # them, and the constant pulse's two halves: Taylor steps, no DOP853
    for name in ("dm_triangle_evolve_n4", "dm_constant_evolve_n5"):
        assert layers[name]["integrator_runs"] == layers[name]["nfev"] == 0
        assert 2 <= layers[name]["taylor_steps"] < layers[name]["taylor_terms"]
    fresh = [k for k in layers if k.startswith("cold_")] + ["dm_constant_evolve_n8"]
    assert all(layers[k]["peak_rss_mib"]["value"] > 0 for k in fresh)
