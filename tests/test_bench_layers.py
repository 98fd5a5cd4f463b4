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
        "transition_K", "stark_build", "stark_lookup", "ramped_swap_evolve",
        "wkb_exponent", "readout_plan", "moment_tables", "cold_python_pass",
        "cold_import_cli", "cold_setup", "cold_spectrum", "cold_demo_swap",
        "cold_demo_swap_sudden", "cold_evolve_dm", "cold_readout",
    }
    for value in layers.values():
        assert value["repeats"] == 1
        assert 0 < value["value"] == value["median"] == value["max"]
    assert layers["stark_build"]["terms"] > 0
    assert layers["ramped_swap_evolve"]["stark_lookups"] > 0
    assert layers["readout_plan"]["wkb_evaluations"] > 0
    assert all(v["peak_rss_mib"]["value"] > 0 for k, v in layers.items() if k.startswith("cold_"))
