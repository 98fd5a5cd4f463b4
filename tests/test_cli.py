"""Tests for the batch front door: exit codes, outputs, determinism."""
import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helioq import cli, dynamics, hydrogenic, qubits, units
from helioq.cli import main

BASE_DEVICE = {
    "d_um": 0.5,
    "sites": [[0, 0], [1, 0]],
    "B_T": 1.5,
    "T_K": 0.01,
    "voltages_mV": [0.0, 0.0],
}


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_spectrum_endpoints_match_module(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "spectrum": {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 3,
                     "max_state": 3},
    })
    assert main(["spectrum", "--config", cfg]) == 0
    csvs = list((tmp_path / "out").glob("spectrum_*.csv"))
    assert len(csvs) == 1
    lines = csvs[0].read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "E_perp_V_per_cm,m,E_m_K,nu_1m_GHz"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3 * 3
    # pass-through: the CSV endpoint values equal the module's exactly
    basis = hydrogenic.HydrogenicBasisSpec(lam=units.image_strength(1.057))
    for e_perp in (0.0, 50.0):
        energies = hydrogenic.levels(basis, e_perp)
        for m in (1, 2, 3):
            row = next(
                r for r in rows
                if float(r[0]) == e_perp and int(r[1]) == m
            )
            assert float(row[2]) == energies[m - 1]
            assert float(row[3]) == hydrogenic.transition_K(basis, e_perp, m) * units.K_TO_GHZ


def test_demo_swap_full_transfer(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "swap": {"pair": [0, 1], "alpha": math.pi / 2},
    })
    assert main(["demo-swap", "--config", cfg]) == 0
    report = json.loads(
        next((tmp_path / "out").glob("demo-swap_*.json")).read_text()
    )
    assert report["fidelity_vs_exchange_oracle"] > 1 - 1e-4
    assert report["achieved_amplitudes"]["target"] == pytest.approx(1.0, abs=1e-6)
    out = capsys.readouterr().out
    assert "fidelity=" in out


def test_decoherence_budget_output(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "noise": {"s_v": 1e-10, "tuning_ghz_per_mv": 1.0},
    })
    assert main(["decoherence", "--config", cfg]) == 0
    doc = json.loads(
        next((tmp_path / "out").glob("decoherence_*.json")).read_text()
    )
    t2 = doc["budget"]["t2_s"]
    assert 1e-4 / 3 < t2 < 3e-4
    # every intermediate quantity is present for audit
    for key in ("delta_T_cm", "magnetic_length_cm", "omega_zb_K", "omega_l_K"):
        assert key in doc["intermediates"]
    assert doc["artifact_version"]


def test_build_writes_matrices(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
    })
    assert main(["build", "--config", cfg]) == 0
    doc = json.loads(next((tmp_path / "out").glob("build_*.json")).read_text())
    ham = doc["hamiltonian"]
    assert ham["n_qubits"] == 2
    assert ham["a_K"][0][1] == pytest.approx(0.15795561, rel=1e-6)
    assert ham["b_K"][0][1] == pytest.approx(4.8696744e-3, rel=1e-6)


def test_build_at_a_vanishing_negative_field(tmp_path):
    # the barrier top underflows to 0 K at this field; the solve still runs
    device = dict(BASE_DEVICE, E_perp=-1e-300)
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "device": device})
    assert main(["build", "--config", cfg]) == 0
    doc = json.loads(next((tmp_path / "out").glob("build_*.json")).read_text())
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)), e_perp=-1e-300)
    assert doc["hamiltonian"] == qubits.build(geom, np.zeros(2)).to_dict()


def test_build_reads_basis_size(tmp_path):
    device = dict(BASE_DEVICE, E_perp=20.0)
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"), "device": device})
    assert main(["build", "--config", cfg]) == 0
    assert main(["build", "--config", cfg, "--set", "device.basis_size=40"]) == 0
    docs = [json.loads(p.read_text()) for p in (tmp_path / "out").glob("build_*.json")]
    default = next(d for d in docs if not d["overrides"])["hamiltonian"]
    sized = next(d for d in docs if d["overrides"])["hamiltonian"]
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0)), e_perp=20.0)
    basis = hydrogenic.HydrogenicBasisSpec(lam=units.image_strength(1.057), size=40)
    assert sized == qubits.build(geom, np.zeros(2), basis=basis).to_dict()
    assert sized["eps_K"] != default["eps_K"]


def test_calibrate_and_evolve_roundtrip(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, {
        "output_dir": out,
        "device": dict(BASE_DEVICE),
        "swap": {"pair": [0, 1], "alpha": math.pi / 2},
    })
    assert main(["calibrate", "--config", cfg]) == 0
    dwell = json.loads(
        next((tmp_path / "out").glob("calibrate_*.json")).read_text()
    )["dwell_s"]
    assert dwell == pytest.approx(4.9276837e-9, rel=1e-6)

    cfg2 = write_config(tmp_path, {
        "output_dir": out,
        "device": dict(BASE_DEVICE),
        "schedule": {"duration_s": dwell},
        "initial": {"bits": "ud"},
        "evolution": {"sample_count": 5},
    }, name="evolve.json")
    assert main(["evolve", "--config", cfg2]) == 0
    csv = next((tmp_path / "out").glob("evolve_*.csv")).read_text().splitlines()
    assert csv[1] == "t,pop_dd,pop_ud,pop_du,pop_uu,trace"
    final = csv[-1].split(",")
    assert float(final[3]) == pytest.approx(1.0, abs=1e-6)  # pop_du after swap


def test_readout_pipeline(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "seed": 11,
        "device": dict(BASE_DEVICE),
        "readout": {"wait_s": 1e-6, "selectivity": 1e6, "pixel_um": 1.0,
                    "shots": 400, "initial_bits": "ud"},
    })
    assert main(["readout", "--config", cfg]) == 0
    img = next((tmp_path / "out").glob("readout_*.image.csv")).read_text()
    log = json.loads(next((tmp_path / "out").glob("readout_*.json")).read_text())
    assert log["plan"]["e_plus_V_per_cm"] == pytest.approx(4.2139556, rel=1e-6)
    # the ground state effectively never leaves (astronomical or unbounded)
    t_1 = log["plan"]["t_1_s"]
    assert t_1 is None or t_1 > 1e20
    assert log["rng"].startswith("philox")
    assert len(log["shots"]) == 400
    # survival against the trace of the one-qubit tunneling evolution
    from helioq import dynamics, pulses, qubits

    res = dynamics.evolve(
        qubits.QubitArrayHamiltonian.from_parameters([0.0]),
        pulses.PulseSchedule(duration=1e-6),
        dynamics.RegisterState.density_matrix("u"),
        dynamics.EvolutionSpec(
            sample_times=np.array([1e-6]),
            tunneling=dynamics.TunnelingSpec(0.0, log["plan"]["t_2_s"]),
        ),
    )
    assert log["survival"][0] == pytest.approx(res.trace[-1], rel=1e-13)
    assert log["survival"][1] == 1.0
    # both sites land in the same micron pixel
    assert img.splitlines()[1] == "pixel_x,pixel_y,counts"
    assert img.splitlines()[2].startswith("0,0,")


def test_evolve_with_tunneling_block(tmp_path):
    wait = 1e-6
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": {"d_um": 0.5, "sites": [[0, 0]], "B_T": 1.5, "T_K": 0.01},
        "schedule": {"duration_s": wait},
        "initial": {"bits": "u", "mode": "density-matrix"},
        "evolution": {"sample_count": 6,
                      "tunneling": {"t_f_s": 0.0, "t_up_s": 2e-7}},
    })
    assert main(["evolve", "--config", cfg]) == 0
    csv = next((tmp_path / "out").glob("evolve_*.csv")).read_text().splitlines()
    last = csv[-1].split(",")
    # trace column records the escape: exp(-wait/t_up) = exp(-5)
    assert float(last[-1]) == pytest.approx(math.exp(-5.0), rel=1e-7)


def test_medium_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "medium": {
            "density_cm2": 1e8, "b_field_T": 1.5,
            "k_min": 1e2, "k_max": 1e3, "points": 5,
            "boundary": {"n_min": 1e7, "n_max": 1e9, "points": 4,
                         "gamma_melt": 137},
        },
    })
    assert main(["medium", "--config", cfg]) == 0
    disp_path = next(
        p for p in (tmp_path / "out").glob("medium_*.csv")
        if "boundary" not in p.name
    )
    disp = disp_path.read_text().splitlines()
    assert disp[1] == "branch,k_per_cm,omega_per_s,omega_K"
    branches = {line.split(",")[0] for line in disp[2:]}
    assert branches == {"ripplon", "longitudinal", "magnetoplasma-low",
                        "magnetoplasma-high"}
    bound = next(
        (tmp_path / "out").glob("medium_*.boundary.csv")
    ).read_text().splitlines()
    n, t = bound[2].split(",")
    from helioq import medium as med

    assert float(t) == med.melting_temperature(float(n), 137.0)


def test_medium_reads_shear_speed(tmp_path):
    from helioq import medium as med

    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "medium": {"density_cm2": 1e8, "k_min": 1e2, "k_max": 1e3, "points": 5,
                   "shear_speed": 3.5e5},
    })
    assert main(["medium", "--config", cfg]) == 0
    lines = next((tmp_path / "out").glob("medium_*.csv")).read_text().splitlines()
    shear = [row.split(",") for row in lines[2:] if row.startswith("shear-acoustic,")]
    assert len(shear) == 5
    sheet = med.ElectronSheet(1e8, 0.0)
    for _, k, omega, _ in shear:
        assert float(omega) == med.collective_mode(
            sheet, "shear-acoustic", float(k), shear_speed=3.5e5
        )


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
        "device": dict(BASE_DEVICE),
        "readout": {"wait_s": 1e-6, "selectivity": 1e6, "shots": 50},
    })
    assert main(["readout", "--config", cfg]) == 0
    files = sorted((tmp_path / "out").iterdir())
    first = {f.name: f.read_bytes() for f in files}
    assert main(["readout", "--config", cfg]) == 0
    for f in sorted((tmp_path / "out").iterdir()):
        assert f.read_bytes() == first[f.name]


def test_overrides_change_hash_and_echo(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "noise": {"s_v": 0.0},
    })
    assert main(["decoherence", "--config", cfg]) == 0
    assert main(["decoherence", "--config", cfg, "--set", "device.B_T=3.0"]) == 0
    docs = [
        json.loads(p.read_text())
        for p in sorted((tmp_path / "out").glob("decoherence_*.json"))
    ]
    assert len(docs) == 2  # different hashes -> different files
    overridden = next(d for d in docs if d["overrides"])
    assert overridden["overrides"] == ["device.B_T=3.0"]
    assert overridden["budget"]["b_field"] == 3.0


def test_override_that_is_not_json_is_a_raw_string(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
    })
    elsewhere = tmp_path / "elsewhere"
    assignment = f"output_dir={elsewhere}"
    assert main(["build", "--config", cfg, "--set", assignment]) == 0
    assert not (tmp_path / "out").exists()
    doc = json.loads(next(elsewhere.glob("build_*.json")).read_text())
    assert doc["overrides"] == [assignment]


def test_evolve_csv_echoes_overrides(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": {"d_um": 0.5, "sites": [[0, 0]], "B_T": 1.5, "T_K": 0.01},
        "schedule": {"duration_s": 1e-9},
        "initial": {"bits": "u"},
        "evolution": {"sample_count": 3},
    })
    assert main(["evolve", "--config", cfg, "--set", "evolution.sample_count=4"]) == 0
    header = next((tmp_path / "out").glob("evolve_*.csv")).read_text().splitlines()[0]
    doc = json.loads(next((tmp_path / "out").glob("evolve_*.json")).read_text())
    assert header == (
        f"# config_hash={doc['config_hash']} artifact_version={doc['artifact_version']}"
        " overrides=evolution.sample_count=4"
    )


def test_evolve_integrator_failure_exit_code(tmp_path, monkeypatch, capsys):
    from helioq import dynamics

    # two terms cannot reach the sum's roundoff: every Taylor step fails
    monkeypatch.setattr(dynamics, "_TAYLOR_TERMS_MAX", 2)
    for mode, tunneling in (("density-matrix", "on"), ("state-vector", "off")):
        evolution = {"sample_times_s": [1e-9], "frame": "lab"}
        if mode == "density-matrix":
            evolution["tunneling"] = {"t_f_s": 0.0, "t_up_s": 2e-7}
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path / "out"),
            "device": {"d_um": 0.5, "sites": [[0, 0]], "B_T": 1.5, "T_K": 0.01},
            "schedule": {
                "duration_s": 1e-9,
                "microwave": [{"freq_GHz": 100.0, "amp_V_per_cm": 0.1,
                               "envelope": [[0.0, 0.0], [1e-9, 1.0]]}],
            },
            "initial": {"bits": "u", "mode": mode},
            # a lab-frame drive is not linear in t: Taylor steps on each step's fit
            "evolution": evolution,
        })
        assert main(["evolve", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            f"RuntimeError: Taylor series did not converge on [0.0, 1e-09] in {mode} mode "
            f"with tunneling {tunneling}\n"
        )


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE, typo_key=1),
    })
    assert main(["spectrum", "--config", cfg]) == 2


def test_missing_block_rejected(tmp_path):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
    assert main(["spectrum", "--config", cfg]) == 2
    assert main(["demo-swap", "--config", cfg]) == 2


def test_missing_config_file(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # a sweep far beyond the basis' validity trips the convergence guard
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "spectrum": {"e_perp_min": 0.0, "e_perp_max": 1e5, "points": 3},
    })
    assert main(["spectrum", "--config", cfg]) == 3


def test_spectrum_past_the_basis_fails_as_solve_does(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "spectrum": {"e_perp_min": 0.0, "e_perp_max": 200.0, "points": 2},
    })
    assert main(["spectrum", "--config", cfg]) == 3
    with pytest.raises(hydrogenic.ConvergenceError) as direct:
        hydrogenic.levels(hydrogenic.HydrogenicBasisSpec(lam=units.image_strength(1.057)), 200.0)
    assert capsys.readouterr().err == f"ConvergenceError: {direct.value}\n"
    assert not (tmp_path / "out").exists()


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    # a defect such as a TypeError is not reported as a numerical failure
    from helioq import cli

    def broken(config, overrides):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", broken)
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
    assert main(["spectrum", "--config", cfg]) == 4
    assert capsys.readouterr().err == "internal error: TypeError: unsupported operand\n"


def test_electrode_depth_key_rejected(tmp_path):
    # device.h_um was never read by the physics and is no longer in the schema
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE, h_um=0.5),
    })
    assert main(["build", "--config", cfg]) == 2


def test_noise_convention_key_rejected(tmp_path):
    # noise.convention was never read by the budget and is no longer in the schema
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "noise": {"s_v": 1e-10, "convention": "white-noise"},
    })
    assert main(["decoherence", "--config", cfg]) == 2


@pytest.mark.parametrize("sites, message", [
    ([[0, 0], [0, 0]], "site positions must be distinct"),
    ([[0, 0], [0.5, 0]], "sites 0 and 1 are closer than one pitch"),
], ids=["coincident", "closer-than-a-pitch"])
def test_device_site_mistakes_are_config_errors(tmp_path, capsys, sites, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "output_dir": str(out),
        "device": {**BASE_DEVICE, "sites": sites},
    })
    assert main(["build", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: device.sites: {message}\n"
    assert not out.exists()


def test_overrides_do_not_leak_into_the_next_call(tmp_path, capsys):
    # the parser is built once per process; a second call without --set
    # must not see the first call's overrides
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "noise": {"s_v": 0.0},
    })
    assert main(["decoherence", "--config", cfg, "--set", "device.B_T=3.0"]) == 0
    assert main(["decoherence", "--config", cfg]) == 0
    written = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    docs = [json.loads(open(p).read()) for p in written]
    assert [d["overrides"] for d in docs] == [["device.B_T=3.0"], []]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("subcommand", ["calibrate", "demo-swap"])
def test_swap_pair_past_the_last_site_is_a_config_error(tmp_path, capsys, subcommand):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "swap": {"pair": [0, 2], "alpha": math.pi / 4},
    })
    assert main([subcommand, "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: swap.pair names site 2, but the device has 2 sites\n"
    )



def test_refine_without_a_crossing_exits_3(tmp_path, capsys):
    # at 0.9 pi with ramps of an eighth of the sudden dwell the swap angle
    # never reaches alpha inside the refine bracket
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE, voltages_mV=[0.0, 0.05]),
        "swap": {"pair": [0, 1], "alpha": 0.9 * math.pi, "rise_s": 1.1e-9, "fall_s": 1.1e-9},
    })
    assert main(["calibrate", "--refine", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("RuntimeError: dwell refinement failed: alpha = ")
    assert "rise = 1.1e-09 s, fall = 1.1e-09 s" in err
    assert not (tmp_path / "out").exists()


def test_refine_out_of_reach_exits_3(tmp_path, capsys):
    # at pi/2 with ramps of a sixteenth of the sudden dwell the swap angle
    # jumps past alpha where the target population is about 0.9975
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE, voltages_mV=[0.0, 0.05]),
        "swap": {"pair": [0, 1], "alpha": math.pi / 2, "rise_s": 3.07e-10, "fall_s": 3.07e-10},
    })
    assert main(["calibrate", "--refine", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("RuntimeError: dwell refinement failed: alpha = 1.5707963267948966, ")
    assert "sin^2(alpha) = 1 is out of reach" in err
    assert "target holds 0.997" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha, ramp, share", [
    (math.pi / 2, 3.07e-10, "0.997546"), (0.4 * math.pi, 9.82e-10, "0.888918"),
])
def test_out_of_reach_refine_exits_3_after_the_ramps_alone(tmp_path, capsys, monkeypatch,
                                                          alpha, ramp, share):
    # the messages are those of the refinement over one full evolve per trial
    # dwell, which ran 39 and 56 evolves before raising; the ramps run once each
    runs = []
    for name in ("evolve", "_taylor"):
        fn = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name,
                            lambda *a, _fn=fn, _name=name, **k: runs.append(_name) or _fn(*a, **k))
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE, voltages_mV=[0.0, 0.05]),
        "swap": {"pair": [0, 1], "alpha": alpha, "rise_s": ramp, "fall_s": ramp},
    })
    assert main(["calibrate", "--refine", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        f"RuntimeError: dwell refinement failed: alpha = {alpha}, rise = {ramp} s, "
        f"fall = {ramp} s: sin^2(alpha) = {math.sin(alpha) ** 2:.6g} is out of reach; the swap "
        f"angle jumps past it where the target holds {share} of the pair's population\n"
    )
    assert runs.count("evolve") == runs.count("_taylor") <= 3
    assert not (tmp_path / "out").exists()


def test_refine_on_three_sites_writes_the_dwell(tmp_path):
    # the third site takes population from the pair; the root still reaches
    # alpha within the pair
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE, sites=[[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]],
                       voltages_mV=[0.0, 0.05, 0.2]),
        "swap": {"pair": [0, 1], "alpha": 0.3 * math.pi},
    })
    assert main(["calibrate", "--refine", "--config", cfg]) == 0
    (artifact,) = (tmp_path / "out").iterdir()
    assert json.loads(artifact.read_text())["refined"] is True


@pytest.mark.parametrize("subcommand", ["calibrate", "demo-swap"])
def test_swap_pair_naming_one_site_twice_is_a_config_error(tmp_path, capsys, subcommand):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "swap": {"pair": [1, 1], "alpha": math.pi / 4},
    })
    assert main([subcommand, "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: swap.pair names site 1 twice\n"


@pytest.mark.parametrize("mode", ["state-vector", "density-matrix"])
@pytest.mark.parametrize("bits", ["u", "udu"])
def test_initial_bits_not_one_per_site_is_a_config_error(tmp_path, capsys, mode, bits):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "schedule": {"duration_s": 1e-9},
        "initial": {"bits": bits, "mode": mode},
        "evolution": {"sample_count": 3},
    })
    assert main(["evolve", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"config error: initial.bits has {len(bits)} characters for 2 sites\n"
    )

def test_voltage_channel_past_the_last_site_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "schedule": {
            "duration_s": 1e-9,
            "voltage_channels": [{"site": 2, "points": [[0.0, 0.0], [1e-9, 1e-3]]}],
        },
        "initial": {"bits": "ud"},
        "evolution": {"sample_count": 3},
    })
    assert main(["evolve", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: schedule.voltage_channels[].site names site 2, "
        "but the device has 2 sites\n"
    )


def test_floats_serialized_at_full_precision(tmp_path):
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "noise": {"s_v": 1e-10, "tuning_ghz_per_mv": 1.0},
    })
    assert main(["decoherence", "--config", cfg]) == 0
    doc = json.loads(next((tmp_path / "out").glob("*.json")).read_text())
    # 17 significant digits round-trip float64 exactly
    from helioq import decoherence as dec

    lam = units.image_strength(1.057)
    assert doc["budget"]["t2_s"] == dec.t2_confined(0.01, 1.5, 0.5e-4, lam)


def test_evolve_budget_matches_decoherence_budget(tmp_path):
    from helioq import cli

    config = {
        "output_dir": str(tmp_path / "out"),
        "device": dict(BASE_DEVICE),
        "noise": {"s_v": 1e-10, "tuning_ghz_per_mv": 1.0,
                  "coupling_const": 0.03, "mobility_field": 2.0},
        "evolution": {"use_budget": True},
    }
    cfg = write_config(tmp_path, config)
    assert main(["decoherence", "--config", cfg]) == 0
    doc = json.loads(next((tmp_path / "out").glob("decoherence_*.json")).read_text())
    reported = doc["budget"]
    assert reported["coupling_const"] == 0.03 and reported["tau_inv_s"] > 0
    assert cli._evolution_spec(config, 1e-8).budget.to_dict() == reported


def test_config_errors_in_one_process(tmp_path, capsys):
    import jsonschema

    from helioq.cli import load_schema

    out = str(tmp_path / "out")
    bad = [
        {"output_dir": str(tmp_path / "out"), "device": dict(BASE_DEVICE, typo_key=1)},
        {"output_dir": str(tmp_path / "out"), "device": dict(BASE_DEVICE, d_um="wide")},
        # one more case per keyword of the schema, the keyword named beside it
        {"device": dict(BASE_DEVICE)},                                        # required, at the root
        {"output_dir": out, "devices": {}},                                   # additionalProperties
        {"output_dir": out, "device": {"d_um": 0.5}},                         # properties, required
        {"output_dir": out, "device": dict(BASE_DEVICE, d_um=True)},          # type: a bool is no number
        {"output_dir": out, "spectrum": {"e_perp_min": 0.0, "e_perp_max": 1.0,
                                         "points": 2.5}},                     # type: 2.5 is no integer
        {"output_dir": out, "medium": {"k_min": 1.0, "k_max": 2.0, "points": 2,
                                       "shear_speed": "fast"}},               # type, a list of names
        {"output_dir": out, "device": dict(BASE_DEVICE, sites=[])},           # minItems
        {"output_dir": out, "device": dict(BASE_DEVICE, sites=[[0, 0, 0]])},  # items, maxItems
        {"output_dir": out, "swap": {"pair": [0, -1], "alpha": 1.0}},         # minimum, in items
        {"output_dir": out, "seed": 2**128},                                  # maximum
        {"output_dir": out, "device": dict(BASE_DEVICE, d_um=0)},             # exclusiveMinimum
        {"output_dir": out, "initial": {"bits": "ux"}},                       # pattern
        {"output_dir": out, "initial": {"bits": "ud", "mode": "mixed"}},      # enum
        {"output_dir": out, "evolution": {"frame": True}},                    # enum: True is no string
        {"output_dir": out, "schedule": {"duration_s": 1e-9, "voltage_channels": [
            {"site": 0.5, "points": []}]}},                                   # items of objects
        # the cases that decide which of several errors is reported
        {"output_dir": out, "devices": {}, "device": dict(BASE_DEVICE, d_um=0)},  # root beside nested
        {"output_dir": out, "device": dict(BASE_DEVICE, B_T=-1, d_um=0)},         # sibling keys
        {"output_dir": out, "device": dict(BASE_DEVICE, sites=[[0], [0, 0, 0]])},  # sibling items
        {"output_dir": out, "device": {"d_um": 0.5, "typo_key": 1}},  # extra and missing key, one object
        {"output_dir": out, "device": dict(BASE_DEVICE, zeta=1, alpha=2)},        # two extra keys
        {"output_dir": out, "device": dict(BASE_DEVICE, basis_size=2.0)},         # 2.0 below minimum 3
    ]
    for i, config in enumerate(bad):
        cfg = write_config(tmp_path, config, name=f"bad{i}.json")
        assert main(["spectrum", "--config", cfg]) == 2
        # the message is the error jsonschema.validate raises
        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(config, load_schema())
        where = "/".join(str(p) for p in info.value.absolute_path) or "(root)"
        assert capsys.readouterr().err == (
            f"config error: config invalid at {where}: {info.value.message}\n"
        )


@pytest.mark.parametrize("top", ["[1, 2]", '"x"', "5"], ids=["list", "string", "number"])
def test_non_object_config_is_a_config_error(tmp_path, capsys, top):
    # an override walks into the top level, which must be an object
    cfg = tmp_path / "top.json"
    cfg.write_text(top)
    assert main(["build", "--config", str(cfg), "--set", "a=1"]) == 2
    assert capsys.readouterr().err == (
        f"config error: config {cfg} must hold a JSON object at its top level\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["top.json"]


EVOLVE_CONFIG = {
    "device": dict(BASE_DEVICE),
    "schedule": {"duration_s": 1e-9},
    "initial": {"bits": "ud"},
    "evolution": {"sample_count": 3},
}


@pytest.mark.parametrize("override", [
    "evolution.t_end_s=NaN",
    "device.d_um=NaN",
    "device.E_perp=Infinity",
    "device.E_perp=-Infinity",
    "device.d_um=1e999",
    "evolution.sample_times_s=[NaN]",
])
def test_non_finite_override_is_a_config_error(tmp_path, capsys, override):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out), **EVOLVE_CONFIG})
    assert main(["evolve", "--config", cfg, "--set", override]) == 2
    token = override.split("=", 1)[1].strip("[]")
    assert capsys.readouterr().err == (
        f"config error: override {override!r} holds the non-finite number {token}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    (["evolution.sample_times_s=[2e-9,1e-9]"],
     "evolution.sample_times_s must ascend and end within the 1e-09 s schedule"),
    (["schedule.duration_s=1e-8", "evolution.sample_times_s=[2e-8]"],
     "evolution.sample_times_s must ascend and end within the 1e-08 s schedule"),
    (["schedule.duration_s=1e-8", "evolution.t_end_s=2e-8"],
     "evolution.t_end_s must ascend and end within the 1e-08 s schedule"),
    (['schedule.voltage_channels=[{"site": 0, "points": [[1e-9, 0.0], [0.0, 1e-3]]}]'],
     "schedule.voltage_channels[0] breakpoint times must be sorted"),
    (['schedule.microwave=[{"freq_GHz": 118.4, "amp_V_per_cm": 1.0, "envelope": [[0.0, 2]]}]'],
     "schedule.microwave[0] envelope values must lie in [0, 1]"),
    (['evolution.tunneling={"t_f_s": 0.0, "t_up_s": 1e-7}'],
     "evolution.tunneling needs initial.mode density-matrix"),
    (["evolution.use_budget=true"],
     "evolution.use_budget needs initial.mode density-matrix"),
], ids=["unsorted-samples", "samples-past-end", "t-end-past-end", "voltage-order",
        "envelope-range", "tunneling-state-vector", "budget-state-vector"])
def test_schedule_and_evolution_mistakes_are_config_errors(tmp_path, capsys, overrides, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out), **EVOLVE_CONFIG})
    argv = ["evolve", "--config", cfg]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("t_end_s", 1e-8), ("sample_count", 7)],
                         ids=["t-end", "sample-count"])
def test_sample_grid_keys_beside_sample_times_are_config_errors(tmp_path, capsys, key, value):
    # evolve samples at sample_times_s alone, so a grid key beside it is a mistake
    out = tmp_path / "out"
    evolution = {"sample_times_s": [0.0, 5e-9], key: value}
    cfg = write_config(tmp_path, {"output_dir": str(out), **EVOLVE_CONFIG,
                                  "schedule": {"duration_s": 1e-8}, "evolution": evolution})
    assert main(["evolve", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"config error: evolution.{key} does not apply with evolution.sample_times_s\n"
    )
    assert not out.exists()


SWAP_CONFIG = {
    "device": dict(BASE_DEVICE),
    "swap": {"pair": [0, 1], "alpha": math.pi / 4},
}


@pytest.mark.parametrize("override", [
    "evolution.t_end_s=1e-9",
    "evolution.sample_count=3",
    'evolution.tunneling={"t_f_s": 0.0, "t_up_s": 1e-7}',
    "evolution.use_budget=true",
], ids=["t-end", "sample-count", "tunneling", "use-budget"])
def test_demo_swap_rejects_evolution_keys_it_cannot_honour(tmp_path, capsys, override):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out), **SWAP_CONFIG})
    assert main(["demo-swap", "--config", cfg, "--set", override]) == 2
    key = override.split("=", 1)[0]
    assert capsys.readouterr().err == (
        f"config error: {key} does not apply to demo-swap, which evolves a state "
        "vector and samples at evolution.sample_times_s or at the dwell's end\n"
    )
    assert not out.exists()


def test_demo_swap_reads_sample_times(tmp_path):
    # the last sample sets the final state, so an early one leaves the swap undone
    reports = {}
    early = ["--set", "evolution.sample_times_s=[1e-12]"]
    for label, argv in (("dwell-end", []), ("early", early)):
        out = tmp_path / label
        cfg = write_config(tmp_path, {"output_dir": str(out), **SWAP_CONFIG})
        assert main(["demo-swap", "--config", cfg, *argv]) == 0
        reports[label] = json.loads(next(out.glob("demo-swap_*.json")).read_text())
    assert reports["dwell-end"]["fidelity_vs_exchange_oracle"] > 1 - 1e-4
    assert reports["early"]["achieved_amplitudes"]["target"] < 1e-2


def test_refine_flag_is_the_swap_refine_override(tmp_path):
    # --refine, after --config as the benchmark passes it, is hashed and
    # echoed as the override it stands for
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out), **SWAP_CONFIG})
    assert main(["calibrate", "--config", cfg]) == 0
    assert main(["calibrate", "--config", cfg, "--refine"]) == 0
    written = {json.loads(p.read_text())["refined"]: p for p in out.iterdir()}
    assert len(list(out.iterdir())) == 2 and set(written) == {False, True}
    flag_bytes = written[True].read_bytes()
    assert json.loads(flag_bytes)["overrides"] == ["swap.refine=true"]
    assert main(["calibrate", "--config", cfg, "--set", "swap.refine=true"]) == 0
    assert len(list(out.iterdir())) == 2
    assert written[True].read_bytes() == flag_bytes


def test_non_finite_number_in_a_config_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    text = json.dumps({"output_dir": str(out), **EVOLVE_CONFIG})
    cfg.write_text(text.replace('"d_um": 0.5', '"d_um": NaN'))
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: config {cfg} holds the non-finite number NaN\n"
    )
    assert not out.exists()


def test_seed_beyond_the_philox_key_is_a_config_error(tmp_path):
    # the schema bounds the seed by the 128-bit key, so an oversized seed
    # exits 2 before any work instead of failing as a numerical error
    readout_block = {"wait_s": 1e-6, "selectivity": 1e6, "shots": 10,
                     "initial_bits": "ud"}
    for seed, code in ((2**130, 2), (2**128, 2), (2**128 - 1, 0)):
        cfg = write_config(tmp_path, {
            "output_dir": str(tmp_path / "out"),
            "seed": seed,
            "device": dict(BASE_DEVICE),
            "readout": readout_block,
        })
        assert main(["readout", "--config", cfg]) == code


# one small config per subcommand, with the suffixes of its artifacts in write order
WRITER_CASES = {
    "spectrum": ({"device": dict(BASE_DEVICE),
                  "spectrum": {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 3,
                               "max_state": 3}}, ["csv"]),
    "medium": ({"medium": {"density_cm2": 1e8, "b_field_T": 1.5,
                           "k_min": 1e2, "k_max": 1e3, "points": 5,
                           "boundary": {"n_min": 1e7, "n_max": 1e9, "points": 4}}},
               ["csv", "boundary.csv"]),
    "decoherence": ({"device": dict(BASE_DEVICE), "noise": {"s_v": 1e-10}}, ["json"]),
    "build": ({"device": dict(BASE_DEVICE)}, ["json"]),
    "calibrate": (SWAP_CONFIG, ["json"]),
    "evolve": (EVOLVE_CONFIG, ["csv", "json"]),
    "readout": ({"device": dict(BASE_DEVICE),
                 "readout": {"wait_s": 1e-6, "selectivity": 1e6, "shots": 50}},
                ["image.csv", "json"]),
    "demo-swap": (SWAP_CONFIG, ["json"]),
}


@pytest.mark.parametrize("subcommand", list(cli._RUNNERS))
def test_each_artifact_prints_one_wrote_line(tmp_path, capsys, subcommand):
    out = tmp_path / "out"
    block, suffixes = WRITER_CASES[subcommand]
    config = {"output_dir": str(out), **block}
    assert main([subcommand, "--config", write_config(tmp_path, config)]) == 0
    paths = [str(out / f"{subcommand}_{cli.config_hash(config)}.{sfx}") for sfx in suffixes]
    stdout = capsys.readouterr().out.splitlines()
    assert [line[6:] for line in stdout if line.startswith("wrote ")] == paths
    assert sorted(str(p) for p in out.iterdir()) == sorted(paths)


@pytest.mark.parametrize("subcommand", list(cli._RUNNERS))
def test_one_config_in_two_directories_writes_the_same_names_and_bytes(tmp_path, subcommand):
    # output_dir says where a computation is written, not what it is, so the hash leaves it out
    block, suffixes = WRITER_CASES[subcommand]
    written = []
    for out in (tmp_path / "a", tmp_path / "b" / "c"):
        config = {"output_dir": str(out), **block}
        assert main([subcommand, "--config", write_config(tmp_path, config)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1] and len(written[0]) == len(suffixes)
    assert cli.config_hash(config) == cli.config_hash(block)


# --- the config check, against jsonschema as the oracle ----------------------


def _instances(schema: dict, force=()):
    """Instances valid under `schema` (the keywords the shipped schema uses), with
    the keys in `force` present as well as the required ones."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    return st.one_of([_typed(schema, t, force) for t in types])


def _typed(schema: dict, t: str, force):
    if t == "null":
        return st.none()
    if t == "boolean":
        return st.booleans()
    if t == "string":
        return st.from_regex(schema["pattern"], fullmatch=True) if "pattern" in schema else st.text(max_size=4)
    if t in ("number", "integer"):
        lo, hi = schema.get("minimum"), schema.get("maximum")
        if "exclusiveMinimum" in schema:
            lo = math.floor(schema["exclusiveMinimum"]) + 1
        ints = st.integers(min_value=lo, max_value=hi)
        whole = st.integers(min_value=lo, max_value=(lo or 0) + 1000).map(float)  # 3.0 is an integer
        if t == "integer":
            return ints | whole
        return ints | whole | st.floats(min_value=schema.get("minimum", schema.get("exclusiveMinimum")),
                                        exclude_min="exclusiveMinimum" in schema,
                                        allow_nan=False, allow_infinity=False)
    if t == "array":
        return st.lists(_instances(schema["items"]), min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 3))
    props = schema["properties"]
    required = set(schema.get("required", ())) | set(force)
    return st.fixed_dictionaries(
        {k: _instances(props[k]) for k in props if k in required},
        optional={k: _instances(props[k]) for k in props if k not in required},
    )


def _keys(schema: dict):
    yield from schema.get("properties", {})
    for sub in schema.get("properties", {}).values():
        yield from _keys(sub)
    if "items" in schema:
        yield from _keys(schema["items"])


_SCHEMA = cli.load_schema()
_STRINGS = ["", "ud", "ux", "d0u1", "rwa", "lab", "state-vector", "density-matrix", "x"]
# JSON values near the schema's bounds, types and names, nested a little
_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1, 2, 3, -1, 2**128, 0.0, 1.0, 2.0, 3.0, 2.5,
                                                 -0.5, 1e-9, 1e300]) | st.sampled_from(_STRINGS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(sorted(set(_keys(_SCHEMA)))), inner, max_size=3),
    max_leaves=6,
)


def _nodes(x):
    if isinstance(x, (dict, list)):
        yield x
        for v in x.values() if isinstance(x, dict) else x:
            yield from _nodes(v)


@st.composite
def _mutated(draw, configs):
    """A config of `configs` after up to three edits: a value replaced, a key or
    item deleted, or a key or item added."""
    config = copy.deepcopy(draw(configs))
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(list(_nodes(config))))
        slots = list(node) if isinstance(node, dict) else list(range(len(node)))
        edit = draw(st.sampled_from(["replace", "delete", "add"] if slots else ["add"]))
        if edit == "add" and isinstance(node, list):
            node.append(draw(_VALUES | st.sampled_from(node)) if node else draw(_VALUES))
        elif edit == "add":
            node[draw(st.sampled_from(sorted(set(_keys(_SCHEMA)))))] = draw(_VALUES)
        elif edit == "delete":
            del node[draw(st.sampled_from(slots))]
        else:
            node[draw(st.sampled_from(slots))] = draw(_VALUES)
    return config


_FILE_CONFIGS = [
    {"output_dir": "out", **config}
    for config in (*(block for block, _ in WRITER_CASES.values()), EVOLVE_CONFIG, SWAP_CONFIG,
                   {"device": dict(BASE_DEVICE)})
]


@pytest.mark.parametrize("subcommand", list(cli._RUNNERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_check_agrees_with_jsonschema(tmp_path_factory, subcommand, data):
    import jsonschema

    generated = _instances(_SCHEMA, force=WRITER_CASES[subcommand][0])
    config = data.draw(_mutated(st.sampled_from(_FILE_CONFIGS) | generated))
    validator = jsonschema.Draft7Validator(_SCHEMA)
    # every error at every key path, in jsonschema's order at each path
    expected, found = {}, {}
    for error in validator.iter_errors(config):
        expected.setdefault(tuple(error.absolute_path), []).append(error.message)
    errors = []
    conformed = cli.conform(config, _SCHEMA, errors)
    for where, message in errors:
        found.setdefault(where, []).append(message)
    assert found == expected
    # and the one error load_config reports is the one jsonschema.validate raises
    cfg = tmp_path_factory.getbasetemp() / f"checked-{subcommand}.json"
    cfg.write_text(json.dumps(config))
    best = jsonschema.exceptions.best_match(validator.iter_errors(config))
    if best is None:
        assert conformed == config and cli.load_config(str(cfg), []) == (config, [])
    else:
        with pytest.raises(cli.ConfigError) as info:
            cli.load_config(str(cfg), [])
        where = "/".join(str(p) for p in best.absolute_path) or "(root)"
        assert str(info.value) == f"config invalid at {where}: {best.message}"


def _integer_keys(schema: dict, path=()):
    if schema.get("type") == "integer":
        yield "/".join(path)
    for k, sub in schema.get("properties", {}).items():
        yield from _integer_keys(sub, (*path, k))
    if "items" in schema:
        yield from _integer_keys(schema["items"], (*path, "items"))


_CHANNEL = {"points": [[0.0, 0.0], [5e-10, 5e-5]]}
# each "integer" key of the schema: a subcommand that reads it, the block it
# sits in, and that block's value with the key at an integer and at its float
INTEGER_CASES = {
    "seed": ("readout", "seed", 7, 7.0),
    "device/basis_size": ("build", "device", dict(BASE_DEVICE, basis_size=32),
                          dict(BASE_DEVICE, basis_size=32.0)),
    "spectrum/points": ("spectrum", "spectrum", {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 3},
                        {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 3.0}),
    "spectrum/max_state": ("spectrum", "spectrum",
                           {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 2, "max_state": 3},
                           {"e_perp_min": 0.0, "e_perp_max": 50.0, "points": 2, "max_state": 3.0}),
    "medium/points": ("medium", "medium", {"k_min": 1e2, "k_max": 1e3, "points": 5},
                      {"k_min": 1e2, "k_max": 1e3, "points": 5.0}),
    "medium/boundary/points": ("medium", "medium",
                               {"k_min": 1e2, "k_max": 1e3, "points": 2,
                                "boundary": {"n_min": 1e7, "n_max": 1e9, "points": 4}},
                               {"k_min": 1e2, "k_max": 1e3, "points": 2,
                                "boundary": {"n_min": 1e7, "n_max": 1e9, "points": 4.0}}),
    "swap/pair/items": ("calibrate", "swap", {"pair": [1, 0], "alpha": 1.0},
                        {"pair": [1.0, 0.0], "alpha": 1.0}),
    "schedule/voltage_channels/items/site": (
        "evolve", "schedule", {"duration_s": 1e-9, "voltage_channels": [{"site": 1, **_CHANNEL}]},
        {"duration_s": 1e-9, "voltage_channels": [{"site": 1.0, **_CHANNEL}]}),
    "evolution/sample_count": ("evolve", "evolution", {"sample_count": 4}, {"sample_count": 4.0}),
    "readout/shots": ("readout", "readout", {"wait_s": 1e-6, "selectivity": 1e6, "shots": 50},
                      {"wait_s": 1e-6, "selectivity": 1e6, "shots": 50.0}),
}


def test_every_integer_key_has_a_case():
    assert set(_integer_keys(_SCHEMA)) == set(INTEGER_CASES)


@pytest.mark.parametrize("key", list(INTEGER_CASES))
def test_integer_valued_float_runs_as_its_integer(tmp_path, key):
    # draft-07 counts 3.0 as an integer; the run reads it as 3 and writes the
    # same bytes under the same name
    subcommand, block, as_int, as_float = INTEGER_CASES[key]
    out = tmp_path / "out"
    written = []
    for value in (as_int, as_float):
        config = {"output_dir": str(out), **WRITER_CASES[subcommand][0], block: value}
        assert main([subcommand, "--config", write_config(tmp_path, config)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
        for p in out.iterdir():
            p.unlink()
    assert written[0] == written[1]
    as_int_hash = cli.config_hash({"output_dir": str(out), **WRITER_CASES[subcommand][0], block: as_int})
    assert all(as_int_hash in name for name in written[0])


def test_shipped_schema_is_a_valid_draft_07_schema():
    import jsonschema

    jsonschema.Draft7Validator.check_schema(_SCHEMA)
    assert jsonschema.validators.validator_for(_SCHEMA) is jsonschema.Draft7Validator


@pytest.mark.parametrize("schema, instance", [
    ({"type": "object", "oneOf": [{"required": ["a"]}]}, {"a": 1}),
    ({"properties": {"a": {"not": {"type": "string"}}}}, {"a": 1}),
    ({"items": [{"type": "number"}]}, [1]),
    ({"additionalProperties": {"type": "number"}}, {"a": 1}),
], ids=["oneOf", "nested-not", "items-list", "additionalProperties-schema"])
def test_config_check_raises_on_a_keyword_it_does_not_implement(schema, instance):
    with pytest.raises(TypeError, match="config check"):
        cli.conform(instance, schema, [])


# --- the recursive serializer that dump_json replaced, kept as the oracle ----


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    if math.isinf(x):
        return "null"  # unbounded quantity (e.g. infinite retention time)
    return format(x, ".17g")


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
        if not seq:
            return "[]"
        flat = all(isinstance(x, (int, float, bool)) or x is None for x in seq)
        if flat and len(seq) <= 16:
            return "[" + ", ".join(dump_json(x) for x in seq) + "]"
        items = [f"{pad}  {dump_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dump_json(obj.tolist(), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_finite_or_inf = st.floats(allow_nan=False)
_scalars = st.one_of(
    st.integers(-(2**70), 2**70),
    _finite_or_inf,
    st.booleans(),
    st.none(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _finite_or_inf.map(np.float64),
)
_shapes = hnp.array_shapes(max_dims=3, min_side=0, max_side=18)
_arrays = st.one_of(
    hnp.arrays(np.float64, _shapes, elements=_finite_or_inf),
    hnp.arrays(np.int64, _shapes),
    hnp.arrays(np.bool_, _shapes),
)
# lists at the inline length limit, of plain scalars and of mixed ones
_edge_lists = st.integers(15, 17).flatmap(
    lambda n: st.lists(st.one_of(st.integers(), _finite_or_inf, st.booleans(), st.none()),
                       min_size=n, max_size=n)
    | st.lists(_scalars, min_size=n, max_size=n)
)
_documents = st.recursive(
    st.one_of(_scalars, st.text(max_size=4), _arrays, _edge_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


def shot_log(shots: int, sites: int = 8) -> np.ndarray:
    """A shot log laid out as `run_readout` lays it out, about 30 % of its bits set."""
    log = np.empty(shots, [("index", int), ("tunneled", bool, (sites,))])
    log["index"] = np.arange(shots)
    log["tunneled"] = np.random.default_rng(shots).random((shots, sites)) < 0.3
    return log


def as_records(doc):
    """`doc` with each structured array a list of its records as dicts, as the CLI writes it."""
    if isinstance(doc, dict):
        return {k: as_records(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(as_records, doc))
    if isinstance(doc, np.ndarray) and doc.dtype.names:
        return [dict(zip(doc.dtype.names, r)) for r in doc.tolist()]
    return doc


def _inf_in_last_block() -> np.ndarray:
    rows = np.random.default_rng(2).normal(size=(3 * cli._ROWS + 5, 2))
    rows[-1, 1] = np.inf
    return rows


# documents that span many chunks and row blocks
_LONG_DOCUMENTS = [
    {"shots": shot_log(20_000)},
    {"states": np.random.default_rng(1).normal(size=(3, 4096, 2))},
    {"rows": _inf_in_last_block(), "column": _inf_in_last_block()[:, 1]},
    {"empty": [np.zeros((0, 2)), np.zeros(0), np.zeros((0, 3, 2)), np.zeros((2, 0)), [], (), {}],
     "shots": shot_log(0)},
    {"lists": [list(range(3 * cli._ROWS)), [0.5] * 17, ["x"] * 20, (True, None) * 9,
               [np.int64(7)] * 17, [1.5] * 16 + [{"a": [2.5] * 17}]]},
]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=_documents)
@example(doc=_LONG_DOCUMENTS[0])
@example(doc=_LONG_DOCUMENTS[1])
@example(doc=_LONG_DOCUMENTS[2])
@example(doc=_LONG_DOCUMENTS[3])
@example(doc=_LONG_DOCUMENTS[4])
def test_dump_json_matches_the_recursive_serializer(doc):
    chunks = list(cli._chunks(doc))
    assert "".join(chunks) == cli.dump_json(doc) == dump_json(as_records(doc))
    assert max(map(len, chunks)) <= 2 * cli._CHUNK   # however long the document


_EDGE_BLOCKS = {
    "extreme-doubles": np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                                 [0.0, -5e-324, -1.7976931348623157e308]]),
    "one-inf": np.array([[0.1, 1 / 3], [np.inf, 2.0]]),   # writes null, element by element
    "16-columns": np.linspace(-1.0, 1.0, 48).reshape(3, 16) / 3,   # one row per line
    "17-columns": np.linspace(-1.0, 1.0, 51).reshape(3, 17) / 3,   # one value per line
}


@pytest.mark.parametrize("shape", [(0, 2), (0, 3, 2), (2, 0, 2), (2, 0), (1, 17), *_EDGE_BLOCKS])
def test_dump_json_writes_empty_and_wide_float_arrays_as_their_lists(shape):
    # the row-by-row path's edges, which the strategy above seldom draws: a shape
    # of np.arange values, or the name of one of the blocks above
    if isinstance(shape, str):
        doc = {"a": _EDGE_BLOCKS[shape]}
    else:
        doc = {"a": np.arange(math.prod(shape), dtype=float).reshape(shape)}
    assert cli.dump_json(doc) == dump_json(doc)


@pytest.mark.parametrize("sites,shots", [(1, 1), (1, 40), (4, 300), (8, 4000), (16, 40), (17, 1),
                                         (17, 40)])
def test_readout_log_matches_the_recursive_serializer(tmp_path, monkeypatch, sites, shots):
    # 17 sites cross the 16-value inline limit: each shot's row goes one value per line
    from helioq import readout

    drawn = []
    sample_shots = readout.sample_shots

    def capture(*args):
        drawn.append(sample_shots(*args))
        return drawn[-1]

    monkeypatch.setattr(readout, "sample_shots", capture)
    cfg = write_config(tmp_path, {
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
        "device": {**BASE_DEVICE, "sites": [[i % 5, i // 5] for i in range(sites)],
                   "voltages_mV": [0.0] * sites},
        "readout": {"wait_s": 1e-7, "selectivity": 1e6, "shots": shots,
                    "initial_bits": ("uud" * sites)[:sites]},
    })
    assert main(["readout", "--config", cfg]) == 0
    text = next((tmp_path / "out").glob("readout_*.json")).read_text()
    doc = json.loads(text)
    escaped = drawn[-1][0]
    assert doc["shots"] == [{"index": k, "tunneled": row} for k, row in enumerate(escaped.tolist())]
    assert text == dump_json(doc) + "\n"
    if shots > 1:
        assert escaped.any() and not escaped.all()


def test_dump_json_still_rejects_nan():
    nan = float("nan")
    for doc in (nan, [nan], [1.0] * 16 + [nan], {"a": (0, nan)}, np.array([1.0, nan]),
                np.array([[1.0, nan]])):
        with pytest.raises(ValueError, match="NaN"):
            dump_json(doc)
        with pytest.raises(ValueError, match="NaN"):
            cli.dump_json(doc)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("failure", ["nan", "interrupt"])
def test_a_failed_write_leaves_no_partial_artifact(tmp_path, monkeypatch, capsys, failure, existing):
    # artifacts stream to a temporary file that is renamed into place after the
    # last chunk, so a run that fails mid-write leaves the artifact's name as it was
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out), "device": BASE_DEVICE})
    rows = np.linspace(0.0, 1.0, 40_000).reshape(20_000, 2)
    if existing:
        monkeypatch.setitem(cli._RUNNERS, "decoherence", lambda config, w: w.json({"rows": rows}))
        assert main(["decoherence", "--config", cfg]) == 0
    before = {p.name: p.read_bytes() for p in out.glob("*")}
    assert len(before) == existing
    at_interrupt = []   # the other files in the output directory when the interrupt comes

    class Interrupting(float):
        def __float__(self):
            at_interrupt.extend((p.name, p.stat().st_size) for p in out.glob("*")
                                if p.name not in before)
            raise KeyboardInterrupt

    if failure == "nan":
        payload = {"rows": rows.copy()}
        payload["rows"][-1, 1] = np.nan
    else:
        payload = {"rows": rows, "last": Interrupting(1.0)}
    monkeypatch.setitem(cli._RUNNERS, "decoherence", lambda config, w: w.json(payload))
    capsys.readouterr()
    if failure == "nan":
        assert main(["decoherence", "--config", cfg]) == 3
        assert capsys.readouterr() == ("", "ValueError: NaN is not serializable\n")
    else:
        with pytest.raises(KeyboardInterrupt):
            main(["decoherence", "--config", cfg])
        # mid-stream: the rows before the interrupt went to one temporary file
        (name, size), = at_interrupt
        assert name.startswith(".decoherence_") and name.endswith(".tmp") and size > 0
    assert {p.name: p.read_bytes() for p in out.glob("*")} == before   # hidden files too
    # the next good write takes the artifact's name, alone in the directory
    monkeypatch.setitem(cli._RUNNERS, "decoherence", lambda config, w: w.json({"rows": rows[:2]}))
    assert main(["decoherence", "--config", cfg]) == 0
    (artifact,) = out.glob("*")
    assert json.loads(artifact.read_text())["rows"] == rows[:2].tolist()


def test_writing_a_large_shot_log_keeps_memory_bounded(tmp_path, capsys):
    import tracemalloc

    shots = shot_log(200_000)   # 3 MiB of arrays, 20 MiB of text
    w = cli._Writer({"output_dir": str(tmp_path)}, [], "readout")
    tracemalloc.start()
    try:
        w.json({"shots": shots})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (artifact,) = tmp_path.iterdir()
    assert capsys.readouterr().out == f"wrote {artifact}\n"
    assert artifact.stat().st_size > 20 * 2**20
    assert peak < 4 * 2**20


def test_writing_a_wide_csv_keeps_memory_bounded(tmp_path, capsys):
    import tracemalloc

    table = np.random.default_rng(3).normal(size=(300, 1000))   # 6 MiB of text
    header = [f"c{i}" for i in range(1000)]
    w = cli._Writer({"output_dir": str(tmp_path)}, ["a=1"], "evolve")
    tracemalloc.start()
    try:
        w.csv(header, (row.tolist() for row in table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (artifact,) = tmp_path.iterdir()
    lines = [f"# config_hash={w.hash} artifact_version={cli.__version__} overrides=a=1",
             ",".join(header),
             *(",".join(format(x, ".17g") for x in row) for row in table.tolist())]
    assert artifact.read_text() == "\n".join(lines) + "\n"
    assert peak < 4 * 2**20


# --- the EvolutionResult serializers that the CLI writer replaced, kept as oracles


def result_to_csv(res, path, metadata: str = "") -> None:
    with open(path, "w") as fh:
        if metadata:
            fh.write(f"# {metadata}\n")
        cols = ["t"] + [f"pop_{lab}" for lab in res.labels] + ["trace"]
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(res.times):
            row = [t, *res.populations[i], res.trace[i]]
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def result_to_json_dict(res) -> dict:
    states = [
        [[z.real, z.imag] for z in np.asarray(s).reshape(-1)]
        for s in res.states
    ]
    return {
        "mode": res.mode,
        "frame": res.frame,
        "labels": res.labels,
        "times": res.times.tolist(),
        "states": states,
        "trace": res.trace.tolist(),
    }


RABI_SCHEDULE = {
    "duration_s": 1e-9,
    "microwave": [{"freq_GHz": 118.4, "amp_V_per_cm": 1.0}],
}


def test_evolve_artifacts_match_the_result_serializers(tmp_path, monkeypatch):
    from helioq import dynamics

    results = []
    evolve = dynamics.evolve

    def capture(*args, **kwargs):
        results.append(evolve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dynamics, "evolve", capture)
    cases = {
        "state-vector": ({"d_um": 0.5, "sites": [[0, 0]], "B_T": 1.5, "T_K": 0.01},
                         "d", 5, []),
        "density-matrix": (dict(BASE_DEVICE), "ud", 3, ["evolution.t_end_s=1e-9"]),
    }
    for mode, (device, bits, count, overrides) in cases.items():
        out = tmp_path / mode
        cfg = write_config(tmp_path, {
            "output_dir": str(out),
            "device": device,
            "schedule": RABI_SCHEDULE,
            "initial": {"bits": bits, "mode": mode},
            "evolution": {"sample_count": count},
        }, name=f"{mode}.json")
        argv = ["evolve", "--config", cfg]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 0
        res = results[-1]
        text = next(out.glob("evolve_*.json")).read_text()
        meta = {k: json.loads(text)[k] for k in ("config_hash", "artifact_version", "overrides")}
        assert meta["overrides"] == overrides
        assert text == dump_json({**meta, "result": result_to_json_dict(res)}) + "\n"
        oracle_csv = tmp_path / f"{mode}.csv"
        result_to_csv(res, oracle_csv, metadata=(
            f"config_hash={meta['config_hash']} artifact_version={meta['artifact_version']}"
            + (f" overrides={';'.join(overrides)}" if overrides else "")
        ))
        assert next(out.glob("evolve_*.csv")).read_bytes() == oracle_csv.read_bytes()

    sv = results[0]
    doc = json.loads(next((tmp_path / "state-vector").glob("evolve_*.json")).read_text())
    assert doc["result"]["labels"] == ["d", "u"]
    amp = doc["result"]["states"][-1][1]
    assert amp[0] ** 2 + amp[1] ** 2 == pytest.approx(sv.population("u")[-1], rel=1e-12)
