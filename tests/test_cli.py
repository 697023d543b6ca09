import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from steercert.certify import certify_global, min_entropy
from steercert.cli import ConfigError, ExperimentConfig, main, presets, run_lhs, run_seesaw, run_sweep
from steercert.qlin import basis_povm
from steercert.scenario import assemblage_from, fourier_and_computational, isotropic_state
from steercert.seesaw import _EXTRAPOLATION_STEPS, seesaw


SRC = str(Path(__file__).resolve().parents[1] / "src")
# a global steering configuration whose trusted Pauli measurement needs a qubit, on qutrits
QUTRIT_PAULI_X = {"kind": "steering_global", "state": {"kind": "isotropic", "d": 3, "v": 0.9},
                  "measurements": {"kind": "mub", "d": 3, "count": 2}, "bob_measurement": {"kind": "pauli_x"}}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_presets_round_trip():
    for name, config in presets().items():
        back = ExperimentConfig.from_json(config.to_json())
        assert back == config, name


def test_presets_contents():
    table = presets()
    assert set(table) == {
        "fig2", "fig3_qubit", "fig4_qutrit_loss", "fig_global", "fig_pm", "fig6_seesaw"
    }
    lam = table["fig6_seesaw"].state["lambdas"]
    theta = np.pi / 7
    assert lam[0] == pytest.approx(np.cos(theta) ** 2)
    assert lam[1] == pytest.approx(np.sin(theta) ** 2)
    qutrit = table["fig4_qutrit_loss"]
    assert qutrit.measurements == {"kind": "mub", "d": 3, "count": 4}
    assert qutrit.state["d"] == 3


@pytest.mark.parametrize(
    "mutation,field",
    [
        ({"kind": "bogus"}, "kind"),
        ({"state": {"kind": "werner", "v": 1.7}}, "state.v"),
        ({"state": {"kind": "isotropic", "d": 1, "v": 0.5}}, "state.d"),
        ({"state": {"kind": "schmidt", "lambdas": [0.7, 0.7]}}, "state.lambdas"),
        ({"eta": -0.1}, "eta"),
        ({"eta": 1.3}, "eta"),
        ({"x_star": 7}, "x_star"),
        ({"measurements": {"kind": "nope"}}, "measurements.kind"),
        ({"measurements": {"kind": "mub", "d": 3}}, "measurements"),
        ({"measurements": {"kind": "mub", "d": 3, "count": 2}}, "measurements"),
        ({"sweep": {"parameter": "theta", "start": 0, "stop": 1, "points": 3}}, "sweep.parameter"),
        ({"sweep": {"parameter": "v", "start": 0.9, "stop": 0.4, "points": 3}}, "sweep"),
        ({"sweep": {"parameter": "v", "start": 0.4, "stop": 0.9, "points": 0}}, "sweep.points"),
        ({"seeds": []}, "seeds"),
        ({"seeds": [-1]}, "seeds"),
        ({"max_iters": 0}, "max_iters"),
        ({"tol": 0.0}, "tol"),
        # values of the wrong type
        ({"seeds": 5}, "seeds"),
        ({"seeds": ["one"]}, "seeds"),
        ({"state": {"kind": "werner", "v": "x"}}, "state.v"),
        ({"state": {"kind": "schmidt", "lambdas": 5}}, "state.lambdas"),
        ({"eta": "high"}, "eta"),
        ({"x_star": "a"}, "x_star"),
        ({"measurements": {"kind": "mub", "d": 3, "count": "two"}}, "measurements.count"),
        ({"measurements": {"kind": "fourier_and_computational", "d": "three"}}, "measurements.d"),
        ({"max_iters": "many"}, "max_iters"),
        ({"kind": "steering_global", "bob_measurement": "pauli_x"}, "bob_measurement"),
        ({"out": 5}, "out"),
        # integers that are not integral, booleans as numbers, and nested objects of the wrong shape
        ({"x_star": 1.7}, "x_star"),
        ({"seeds": [1.9]}, "seeds"),
        ({"max_iters": True}, "max_iters"),
        ({"eta": True}, "eta"),
        ({"state": [1]}, "state"),
        ({"measurements": {"kind": "pauli_xz", "d": 2}}, "measurements.d"),
        # consistency between fields
        ({"measurements": None}, "measurements"),
        ({"kind": "seesaw", "state": {"kind": "schmidt", "lambdas": [1.0, 0.0]}}, "state.lambdas"),
        ({"state": {"kind": "schmidt", "lambdas": [0.5, 0.5]},
          "sweep": {"parameter": "v", "start": 0.5, "stop": 1.0, "points": 2}}, "sweep.parameter"),
        ({"state": {"kind": "schmidt", "lambdas": [1.0]},
          "measurements": {"kind": "fourier_and_computational", "d": 1}}, "measurements.d"),
        (QUTRIT_PAULI_X, "bob_measurement"),
    ],
)
def test_invalid_configs_never_reach_the_solver(mutation, field):
    base = {
        "kind": "steering_local",
        "state": {"kind": "werner", "v": 0.8},
        "measurements": {"kind": "pauli_xz"},
    }
    base.update(mutation)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(base)
    assert err.value.field == field


@pytest.mark.parametrize("document", [[{}], 5, "config"])
def test_a_document_that_is_not_an_object_exits_2(tmp_path, capsys, document):
    assert main(["certify", "--config", write_config(tmp_path, document)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": f"config: must be a JSON object, got {type(document).__name__}", "exit_code": 2}


def test_a_sweep_given_as_numeric_strings_runs_as_its_numbers():
    config = ExperimentConfig.from_json({
        "kind": "steering_local", "state": {"kind": "werner", "v": 0.8}, "measurements": {"kind": "pauli_xz"},
        "sweep": {"parameter": "v", "start": "0.8", "stop": "0.9", "points": "2"},
    })
    assert config.sweep_values() == [0.8, 0.9]


def test_a_state_that_is_not_an_object_exits_2_under_a_visibility_override(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "steering_local", "state": [1], "measurements": {"kind": "pauli_xz"}})
    assert main(["certify", "--config", path, "--v", "0.5"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2 and err["error"].startswith("state: ")


@pytest.mark.parametrize("document,field", [({}, "kind"), ({"kind": "lhs"}, "state")])
def test_a_missing_required_field_exits_2(tmp_path, capsys, document, field):
    assert main(["certify", "--config", write_config(tmp_path, document)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": f"{field}: required", "exit_code": 2}


def test_flags_replace_file_fields_before_the_configuration_is_checked(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "steering_local", "state": {"kind": "werner", "v": 2.0},
                                   "measurements": {"kind": "pauli_xz"}, "x_star": 7})
    assert main(["certify", "--config", path, "--v", "0.8", "--x-star", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["x_star"] == 1


def test_a_replaced_sweep_is_parsed_like_a_file():
    config = replace(presets()["fig2"], sweep={"parameter": "v", "start": 0.8, "stop": 0.8, "points": "2"})
    assert config.sweep["points"] == 2 and type(config.sweep["points"]) is int


def test_unknown_field_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"kind": "lhs", "state": {"kind": "werner", "v": 1}, "frobnicate": 1})


def test_global_requires_bob_measurement():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(
            kind="steering_global",
            state={"kind": "werner", "v": 0.9},
            measurements={"kind": "pauli_xz"},
        )
    assert err.value.field == "bob_measurement"


def test_sweep_rows_and_sidecar(tmp_path):
    config = ExperimentConfig(
        kind="steering_local",
        state={"kind": "werner", "v": 1.0},
        measurements={"kind": "pauli_xz"},
        sweep={"parameter": "v", "start": 0.6, "stop": 1.0, "points": 3},
    )
    out = str(tmp_path / "curve.csv")
    rows, code = run_sweep(config, out=out)
    assert code == 0
    assert [r["parameter"] for r in rows] == [0.6, 0.8, 1.0]
    assert rows[0]["h_min"] == pytest.approx(0.0, abs=1e-7)
    assert rows[-1]["h_min"] == pytest.approx(1.0, abs=1e-6)
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "parameter,p_guess,h_min,gap,status,wall_ms"
    assert len(lines) == 4
    sidecar = json.loads((tmp_path / "curve.json").read_text())
    assert len(sidecar) == 3
    assert "F" in sidecar[0]["functional"]


def test_sweep_h_min_is_the_min_entropy_of_p_guess(tmp_path):
    point = replace(presets()["fig2"], sweep={"parameter": "v", "start": 0.8, "stop": 0.8, "points": 1})
    [row], code = run_sweep(point, out=str(tmp_path / "fig2.csv"))
    assert code == 0 and row["h_min"] > 0.1
    assert row["h_min"] == min_entropy(row["p_guess"])
    [entry] = json.loads((tmp_path / "fig2.json").read_text())
    assert entry["h_min"] == min_entropy(entry["p_guess"])
    [cells] = list(csv.DictReader((tmp_path / "fig2.csv").open()))
    assert cells["h_min"] == format(min_entropy(row["p_guess"]), ".12g")


def test_zero_bits_print_as_plus_zero(tmp_path, capsys):
    # min_entropy(1.0) is +0.0, so a zero-bit row's CSV cell reads 0, not -0, and its JSON field 0.0, not -0.0
    point = replace(presets()["fig3_qubit"], sweep={"parameter": "eta", "start": 0.5, "stop": 0.5, "points": 1})
    [row], code = run_sweep(point, out=str(tmp_path / "fig3.csv"))
    assert code == 0 and row["p_guess"] == 1.0
    [cells] = list(csv.DictReader((tmp_path / "fig3.csv").open()))
    assert cells["p_guess"] == "1" and cells["h_min"] == "0"
    [entry] = json.loads((tmp_path / "fig3.json").read_text())
    assert entry["h_min"] == 0.0 and np.copysign(1.0, entry["h_min"]) == 1.0
    assert main(["certify", "--preset", "fig2", "--v", "0.65", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_guess"] == 1.0 and payload["gap"] <= 1e-15
    assert payload["h_min"] == 0.0 and np.copysign(1.0, payload["h_min"]) == 1.0


def test_sweep_deterministic_modulo_wall_time(tmp_path):
    config = ExperimentConfig(
        kind="steering_local",
        state={"kind": "werner", "v": 1.0},
        measurements={"kind": "pauli_xz"},
        sweep={"parameter": "v", "start": 0.7, "stop": 0.9, "points": 3},
    )
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_sweep(config, out=out1)
    run_sweep(config, out=out2)

    def stable(path):
        lines = open(path).read().strip().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert stable(out1) == stable(out2)


def test_run_lhs(tmp_path):
    config = ExperimentConfig(
        kind="lhs",
        state={"kind": "werner", "v": 0.5},
        measurements={"kind": "pauli_xz"},
    )
    payload, code = run_lhs(config, out=str(tmp_path / "lhs.json"))
    assert code == 0
    assert payload["is_lhs"] is True
    assert json.loads((tmp_path / "lhs.json").read_text())["is_lhs"] is True


def test_run_seesaw_artifacts(tmp_path):
    config = ExperimentConfig(
        kind="seesaw",
        state={"kind": "schmidt", "lambdas": [0.75, 0.25]},
        seeds=(0,),
        max_iters=3,
    )
    out = str(tmp_path / "trace.csv")
    summary, code = run_seesaw(config, out=out)
    assert code == 0
    assert summary["best_seed"] == 0
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,p_guess,h_min"
    side = json.loads((tmp_path / "trace.json").read_text())
    assert "0" in side["seeds"]


def test_run_seesaw_sidecar_lists_delta_and_step(tmp_path):
    config = ExperimentConfig(
        kind="seesaw",
        state={"kind": "schmidt", "lambdas": [0.75, 0.25]},
        seeds=(0, 1),
        max_iters=4,
    )
    run_seesaw(config, out=str(tmp_path / "trace.csv"))
    side = json.loads((tmp_path / "trace.json").read_text())
    for seed in ("0", "1"):
        entry = side["seeds"][seed]
        assert len(entry["deltas"]) == len(entry["steps"]) == entry["iterations"]
        assert entry["deltas"][0] is None and entry["steps"][0] == 0
        assert all(delta > 0 for delta in entry["deltas"][1:])
        assert all(step in (1, *_EXTRAPOLATION_STEPS) for step in entry["steps"][1:])


def test_main_certify_json(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "kind": "prepare_measure",
            "state": {"kind": "werner", "v": 0.3},
            "measurements": {"kind": "pauli_xz"},
        },
    )
    code = main(["certify", "--config", path, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_guess"] == pytest.approx(0.5, abs=1e-6)


def test_main_flag_overrides(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "kind": "steering_local",
            "state": {"kind": "werner", "v": 1.0},
            "measurements": {"kind": "pauli_xz"},
        },
    )
    code = main(["certify", "--config", path, "--v", "0.7", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_guess"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("eta,p_guess", [(0.5, 1.0), (0.6, 0.9)])
def test_main_eta_and_x_star_overrides_cross_the_threshold(capsys, eta, p_guess):
    # the two sides of the 50% detection-efficiency threshold, reached through the flags
    assert main(["certify", "--preset", "fig3_qubit", "--eta", str(eta), "--x-star", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x_star"] == 1
    assert payload["p_guess"] == pytest.approx(p_guess, abs=1e-8)
    assert payload["h_min"] == pytest.approx(-np.log2(p_guess), abs=1e-8)


def test_main_certify_out_writes_the_json_and_prints_nothing(tmp_path, capsys):
    out = tmp_path / "point.json"
    assert main(["certify", "--preset", "fig2", "--v", "0.8", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["certify", "--preset", "fig2", "--v", "0.8", "--json"]) == 0
    assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)


def test_main_config_errors_exit_2(tmp_path, capsys):
    assert main(["certify", "--preset", "nope"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    bad = write_config(tmp_path, {"kind": "steering_local", "state": {"kind": "werner", "v": 2.0},
                                  "measurements": {"kind": "pauli_xz"}})
    assert main(["certify", "--config", bad]) == 2
    assert main(["sweep", "--config", write_config(tmp_path, {
        "kind": "lhs", "state": {"kind": "werner", "v": 0.5},
        "measurements": {"kind": "pauli_xz"}}, "lhs.json")]) == 2


def test_main_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig2" in out and "fig6_seesaw" in out
    assert main(["presets", "--json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["fig2"]["sweep"]["points"] == 41


def test_main_sweep_writes_artifacts(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "kind": "steering_local",
            "state": {"kind": "werner", "v": 1.0},
            "measurements": {"kind": "pauli_xz"},
            "sweep": {"parameter": "eta", "start": 0.4, "stop": 0.6, "points": 2},
        },
    )
    out = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--config", path, "--out", out, "--json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert (tmp_path / "sweep.csv").exists() and (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("bob", ["computational", "fourier"])
def test_main_certify_global_matches_library(tmp_path, capsys, bob):
    path = write_config(
        tmp_path,
        {
            "kind": "steering_global",
            "state": {"kind": "isotropic", "d": 3, "v": 0.9},
            "measurements": {"kind": "fourier_and_computational", "d": 3},
            "bob_measurement": {"kind": bob},
        },
    )
    assert main(["certify", "--config", path, "--json"]) == 0
    povms = fourier_and_computational(3)
    bob_povm = povms[0] if bob == "fourier" else basis_povm(np.eye(3, dtype=complex))
    direct = certify_global(assemblage_from(isotropic_state(3, 0.9), povms), 0, bob_povm)
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(direct.to_json()))


def test_main_certify_global_rejects_qubit_bob_on_qutrit(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "kind": "steering_global",
            "state": {"kind": "isotropic", "d": 3, "v": 0.9},
            "measurements": {"kind": "fourier_and_computational", "d": 3},
            "bob_measurement": {"kind": "pauli_x"},
        },
    )
    assert main(["certify", "--config", path, "--json"]) == 2
    assert json.loads(capsys.readouterr().err)["exit_code"] == 2


def test_main_seesaw(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the preset writes fig6_seesaw.csv
    assert main(["seesaw", "--preset", "fig6_seesaw", "--seeds", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True
    assert main(["seesaw", "--preset", "fig2"]) == 2


def test_main_lhs_leaves_a_sweeps_csv_alone(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lhs", "--preset", "fig2", "--json"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"is_lhs", "robustness"}
    assert not (tmp_path / "fig2.csv").exists()


# a see-saw configuration naming three bases, which the see-saw does not use: it starts from two
SEESAW_THREE_BASES = {"kind": "seesaw", "state": {"kind": "schmidt", "lambdas": [0.75, 0.25]},
                      "measurements": {"kind": "mub", "d": 2, "count": 3}, "x_star": 2}


def _mub_config(tmp_path, d, count):
    return write_config(tmp_path, {
        "kind": "steering_local",
        "state": {"kind": "isotropic", "d": d, "v": 0.9},
        "measurements": {"kind": "mub", "d": d, "count": count},
    })


def _not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "steering_local",')
    return str(path)


@pytest.mark.parametrize("argv,field", [
    (["certify", "--preset", "fig6_seesaw"], "kind"),
    (["lhs", "--preset", "fig6_seesaw"], "kind"),
    (lambda tmp_path: ["certify", "--config", _mub_config(tmp_path, 4, 2)], "measurements.d"),
    (lambda tmp_path: ["certify", "--config", _mub_config(tmp_path, 3, 7)], "measurements.count"),
    (lambda tmp_path: ["certify", "--preset", "fig2", "--config", _mub_config(tmp_path, 3, 2)], "preset"),
    (lambda tmp_path: ["certify", "--config", str(tmp_path / "missing.json")], "config"),
    (lambda tmp_path: ["certify", "--config", _not_json(tmp_path)], "config"),
    (["certify"], "config"),
    (lambda tmp_path: ["seesaw", "--config", write_config(tmp_path, SEESAW_THREE_BASES)], "x_star"),
    (lambda tmp_path: ["certify", "--config", write_config(tmp_path, {
        "kind": "steering_local", "state": {"kind": "schmidt", "lambdas": [1.0]},
        "measurements": {"kind": "fourier_and_computational", "d": 1}})], "measurements.d"),
    (lambda tmp_path: ["sweep", "--config", write_config(tmp_path, {
        **QUTRIT_PAULI_X, "sweep": {"parameter": "v", "start": 0.8, "stop": 0.9, "points": 2}})], "bob_measurement"),
], ids=["certify a seesaw config", "lhs of a seesaw config", "mub at d = 4", "seven mubs at d = 3",
        "preset and config", "missing config file", "config not json", "neither preset nor config",
        "seesaw x_star past its two inputs", "fourier at d = 1", "pauli_x sweep on qutrits"])
def test_configuration_errors_exit_2_with_the_json_error(tmp_path, capsys, argv, field):
    assert main(argv(tmp_path) if callable(argv) else argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2 and err["error"].startswith(f"{field}: ")


def test_importing_the_command_line_starts_no_process_machinery():
    code = "import sys, steercert.cli; sys.exit('multiprocessing' in sys.modules)"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}).returncode == 0


def test_sweep_points_reuse_the_measurement_families(monkeypatch):
    import steercert.qlin as qlin

    table = presets()
    table["fig_global"].at_parameter(0.9).build_bob_povm(2)  # the families exist
    built = []
    init = qlin.Povm.__init__
    monkeypatch.setattr(qlin.Povm, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    for v in (0.8, 0.9):
        point = table["fig_global"].at_parameter(v)
        assert point.build_measurements() is table["fig2"].build_measurements()
        assert point.build_bob_povm(2) is point.build_measurements()[0]
    assert built == []
    lossy = table["fig3_qubit"].at_parameter(0.7).build_measurements()  # loss is per point
    assert len(built) == len(lossy) == 2


def test_sweep_artifacts_are_the_certification_report(tmp_path, capsys):
    point = replace(presets()["fig2"], sweep={"parameter": "v", "start": 0.8, "stop": 0.8, "points": 1}, out=None)
    path = write_config(tmp_path, point.to_json())
    assert main(["certify", "--config", path, "--v", "0.8", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", path, "--out", str(out), "--json"]) == 0
    [printed] = json.loads(capsys.readouterr().out)
    [entry] = json.loads((tmp_path / "sweep.json").read_text())
    assert entry["parameter"] == printed["parameter"] == 0.8
    for key, value in report.items():
        assert entry[key] == value, key
        if key != "functional":
            assert printed[key] == value, key
    assert "functional" not in printed and "wall_ms" not in entry


def test_seesaw_artifacts_are_each_starts_report(tmp_path, monkeypatch):
    traces = []

    def recorded(*args, **kwargs):
        traces.append(seesaw(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr("steercert.cli._seesaw_loop", recorded)
    config = ExperimentConfig(kind="seesaw", state={"kind": "schmidt", "lambdas": [0.75, 0.25]}, seeds=(0, 1),
                              max_iters=3)
    summary, _ = run_seesaw(config, out=str(tmp_path / "trace.csv"))
    side = json.loads((tmp_path / "trace.json").read_text())
    reports = [json.loads(json.dumps(trace.to_json())) for trace in traces]
    assert [side["seeds"][str(seed)] for seed in config.seeds] == reports
    assert summary == {"best_seed": side["best_seed"], **traces[config.seeds.index(side["best_seed"])].to_json()}


@pytest.mark.parametrize("command, config", [
    ("sweep", {"kind": "steering_local", "state": {"kind": "werner", "v": 1.0}, "measurements": {"kind": "pauli_xz"},
               "sweep": {"parameter": "v", "start": 0.8, "stop": 0.9, "points": 2}}),
    ("seesaw", {"kind": "seesaw", "state": {"kind": "schmidt", "lambdas": [0.75, 0.25]}, "max_iters": 2}),
])
def test_a_command_that_writes_no_file_prints_its_report(tmp_path, monkeypatch, capsys, command, config):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, config)
    assert main([command, "--config", path]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert main([command, "--config", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == printed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    if command == "sweep":
        assert [row["parameter"] for row in printed] == [0.8, 0.9]
    else:
        assert printed["best_seed"] == 0 and printed["iterations"] == 2


def test_a_runner_failing_to_certify_exits_3_with_the_json_error(monkeypatch, capsys):
    from steercert.certify import CertificationError

    def failing(config, **kwargs):
        raise CertificationError("certification problem infeasible: inputs malformed")

    monkeypatch.setattr("steercert.cli.run_sweep", failing)
    assert main(["sweep", "--preset", "fig2"]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "certification problem infeasible: inputs malformed",
                                                   "exit_code": 3}
