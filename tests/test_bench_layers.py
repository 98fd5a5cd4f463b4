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
    assert set(record) == {"commit", "source_sha256", "bytecode", "nproc", "blas_threads",
                           "python", "numpy", "scipy"}
    assert len(record["source_sha256"]) == 16
    # the timed package is byte-compiled before any timing
    assert record["bytecode"]["modules"] == len(list((ROOT / "src" / "helioq").glob("*.py")))
    assert 0 <= record["bytecode"]["written"] <= record["bytecode"]["modules"]
    assert record["bytecode"]["cache_tag"] == sys.implementation.cache_tag
    assert set(layers) == {
        "transition_K", "build_n2", "build_n9", "stark_build", "stark_lookup", "ramped_swap_evolve",
        "ramped_swap_evolve_n3", "refine_sudden", "refine_ramped", "refine_out_of_reach",
        "refine_ramped_n3", *(f"refine_{path}_n{n}" for n in (7, 8, 9, 10) for path in ("ramped", "taylor")),
        "dm_rhs_n3", "dm_rhs_n4", "dm_rhs_n5", "dm_triangle_evolve_n4", "dm_constant_evolve_n5",
        "dm_swap_evolve_n2", "dm_swap_evolve_n3", "dm_swap_evolve_n6", "dm_constant_evolve_n8",
        "dump_json_dm_n5",
        *(f"{kind}_n{n}" for n in range(6, 11)
          for kind in ("sv_triangle", "sv_constant", "constant_eigh", "constant_taylor")),
        *(f"dm_closed_{path}_n{n}" for n in (7, 8) for path in ("eigh", "taylor")),
        "wkb_exponent", "readout_plan", "sample_shots", "dump_json_readout",
        "write_states_n7", "write_shots_200k", "load_config",
        "moment_tables", "cold_python_pass",
        "cold_import_cli", "cold_setup", "cold_spectrum", "cold_demo_swap",
        "cold_demo_swap_sudden", "cold_evolve_dm", "cold_readout", "cold_calibrate_refine",
        "cold_sv_triangle_n14", "cold_config_error",
    }
    for value in layers.values():
        assert value["repeats"] == 1
        assert 0 < value["value"] == value["median"] == value["max"]
    assert layers["stark_build"]["terms"] > 0
    assert layers["ramped_swap_evolve"]["stark_lookups"] > 0
    assert layers["refine_sudden"]["evolves"] == 0 and layers["refine_sudden"]["pieces"] == []
    # each ramp one Taylor piece on its steps' Chebyshev fits; the plateau is eigh
    for name in ("refine_ramped", "refine_out_of_reach", "refine_ramped_n3", "refine_ramped_n7",
                 "refine_ramped_n8", "refine_ramped_n9", "refine_ramped_n10", "ramped_swap_evolve",
                 "ramped_swap_evolve_n3"):
        assert 0 < layers[name]["evolves"] == len(layers[name]["pieces"]) / (2 if "swap" in name else 1) <= 3
        assert all(0 < p["degree"] and 0 < p["steps"] < p["terms"] for p in layers[name]["pieces"])
    # the mean qubit frequency split off, the 3-site ramps take few terms
    assert sum(p["terms"] for p in layers["ramped_swap_evolve_n3"]["pieces"]) < 1000
    assert layers["readout_plan"]["wkb_evaluations"] > 0
    # the triangle's rise and fall, tunneling switched on at the apex between
    # them, and the constant pulse's two halves: linear in t, no fit
    for name in ("dm_triangle_evolve_n4", "dm_constant_evolve_n5", "sv_triangle_n8"):
        assert [p["degree"] for p in layers[name]["pieces"]] == [0, 0]
        assert all(1 <= p["steps"] < p["terms"] for p in layers[name]["pieces"])
    for n in (8, 9):
        assert layers[f"sv_triangle_n{n}"]["dop853_deviation"] <= 1e-12
    # a density matrix under the swap: fitted ramps around a plateau that, with loss on, is linear in t
    for n in (2, 3, 6):
        assert [p["degree"] > 0 for p in layers[f"dm_swap_evolve_n{n}"]["pieces"]] == [True, False, True]
    fresh = [k for k in layers if k.startswith("cold_")] + ["dm_constant_evolve_n8"]
    assert all(layers[k]["peak_rss_mib"]["value"] > 0 for k in fresh)
    assert all(layers[k]["peak_rss_mib"]["q1"] == layers[k]["peak_rss_mib"]["q3"]
               == layers[k]["peak_rss_mib"]["value"] for k in fresh)
    # written in chunks: a few MiB of memory for 20 MiB of text and more
    for name, size in (("write_states_n7", 80 * 2**20), ("write_shots_200k", 20 * 2**20)):
        assert layers[name]["bytes_written"] > size
        assert 0 < layers[name]["traced_peak_mib"] <= 4
