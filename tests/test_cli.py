import csv
import json
from pathlib import Path

import numpy as np
import pytest

import repgame.beliefs
import repgame.bruteforce
import repgame.cli
import repgame.divergence
from repgame.cli import main
from repgame.configio import dump_document, emit_scenario_document

X_EPS = 0.55 * (1.0 + 0.05 / 0.3)  # counter_example(0.6, 0.3, 0.05, 0.55)'s alpha*


@pytest.fixture()
def sim_config(tmp_path):
    doc = emit_scenario_document(
        "product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.15})
    doc["simulation"] = {"delta": 0.9, "runs": 4, "horizon": 40,
                         "master_seed": 11, "normal_strategy": [0.0, 1.0]}
    doc["bounds"] = {"grid": 0.05}
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def ce_config(tmp_path):
    doc = emit_scenario_document(
        "counter_example", {"p": 0.6, "q": 0.3, "epsilon": 0.05, "x": 0.55})
    doc["simulation"] = {"delta": 0.9, "runs": 7, "horizon": 60, "master_seed": 20260817,
                         "normal_strategy": [X_EPS, 1.0 - X_EPS],
                         "alpha_star_target": [X_EPS, 1.0 - X_EPS]}
    path = tmp_path / "ce.json"
    dump_document(doc, path)
    return str(path)


SCENARIO_LIST = """\
product_choice(p, q, epsilon, mu0=0.5)
three_signal(p, q, r, epsilon, x, mu0=0.5)
counter_example(p, q, epsilon, x, mu0=0.5)
normal_misspec()
"""


def test_scenario_list(capsys):
    # the registry reads each constructor's signature; the listing is pinned
    code, out, _ = run(capsys, "scenario", "list")
    assert code == 0
    assert out == SCENARIO_LIST


def test_readme_scenario_signatures_match_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Scenarios\n", 1)[1].split("\n## ", 1)[0]
    for line in SCENARIO_LIST.splitlines():
        if line != "normal_misspec()":  # its constructor is normal_misspec_scenario()
            assert f"* `{line}`" in section, line


@pytest.mark.parametrize("name, params, echoed", [
    ("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.15},
     {"p": 0.6, "q": 0.3, "epsilon": 0.15, "mu0": 0.5}),
    ("three_signal", {"x": 0.7, "p": 0.6, "q": 0.3, "r": 0.1, "epsilon": 0, "mu0": 0.25},
     {"p": 0.6, "q": 0.3, "r": 0.1, "epsilon": 0.0, "x": 0.7, "mu0": 0.25}),
    ("counter_example", {"p": 0.6, "q": 0.3, "epsilon": 0.05, "x": 0.55},
     {"p": 0.6, "q": 0.3, "epsilon": 0.05, "x": 0.55, "mu0": 0.5}),
    ("normal_misspec", {}, {}),
])
def test_emit_echoes_every_parameter_in_signature_order(name, params, echoed):
    doc = emit_scenario_document(name, params)["scenario"]
    assert doc == {"name": name, "params": echoed}
    assert json.dumps(doc) == json.dumps({"name": name, "params": echoed})


def test_scenario_emit_stdout(capsys):
    code, out, _ = run(capsys, "scenario", "emit", "product_choice",
                       "p=0.6", "q=0.3", "epsilon=0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"]["name"] == "product_choice"
    assert "game" in doc and "framework" in doc


def test_scenario_emit_to_file(capsys, tmp_path):
    out_dir = tmp_path / "emitted"
    code, out, _ = run(capsys, "scenario", "emit", "counter_example",
                       "p=0.6", "q=0.3", "epsilon=0.05", "x=0.55",
                       "--out", str(out_dir))
    assert code == 0
    path = out_dir / "counter_example.json"
    assert str(path) in out
    assert json.loads(path.read_text())["scenario"]["params"]["x"] == 0.55


def test_scenario_emit_errors(capsys):
    code, _, err = run(capsys, "scenario", "emit", "nope")
    assert code == 2 and "config error" in err
    code, _, err = run(capsys, "scenario", "emit", "product_choice", "p=abc")
    assert code == 2 and "not a number" in err
    code, _, err = run(capsys, "scenario", "emit", "product_choice", "oops")
    assert code == 2 and "key=value" in err


def test_check_separation(capsys, sim_config):
    code, out, _ = run(capsys, "check-separation", "--config", sim_config)
    assert code == 0
    rep = json.loads(out)
    assert rep["separating"] is True
    assert rep["value"] == pytest.approx(0.054115320909768366, abs=1e-6)
    assert rep["per_model_member"] == {"m0": False}


def test_check_separation_reports_alpha_star(capsys, ce_config):
    code, out, _ = run(capsys, "check-separation", "--config", ce_config)
    assert code == 0
    rep = json.loads(out)
    assert rep["separating"] is False
    assert rep["alpha_star"][0] == pytest.approx(0.55 * 7.0 / 6.0, abs=1e-6)


@pytest.mark.parametrize("command", [["check-separation"], ["bounds", "--grid", "0.05"]])
def test_separation_solved_once_per_answer(capsys, monkeypatch, ce_config, command):
    calls = []
    real = repgame.divergence.separation_value

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (repgame.cli, repgame.divergence):
        monkeypatch.setattr(module, "separation_value", counting)
    code, out, _ = run(capsys, command[0], "--config", ce_config, *command[1:])
    assert code == 0
    assert json.loads(out)["alpha_star"][0] == pytest.approx(X_EPS, abs=1e-6)
    assert len(calls) == 1


def test_bounds(capsys, sim_config):
    code, out, _ = run(capsys, "bounds", "--config", sim_config)
    assert code == 0
    rep = json.loads(out)
    assert rep["W_CI_hi"] == pytest.approx(1.0, abs=1e-9)
    assert rep["W_CI_lo"] == pytest.approx(1.0, abs=1e-9)
    assert rep["grid"] == pytest.approx(0.05)  # taken from the bounds block
    assert rep["reputation_bound_if_alpha_star"] is None  # separating framework
    assert "equilibrium" in rep["note"]


def test_stackelberg_grid_override(capsys, sim_config):
    code, out, _ = run(capsys, "stackelberg", "--config", sim_config,
                       "--grid", "0.01")
    assert code == 0
    rep = json.loads(out)
    assert rep["grid"] == 0.01
    assert rep["stackelberg"] == pytest.approx(2.49, abs=1e-9)
    assert rep["stackelberg_pure"] == pytest.approx(2.0, abs=1e-12)


def test_simulate_writes_artifacts(capsys, sim_config, tmp_path):
    out_dir = tmp_path / "results"
    code, out, _ = run(capsys, "simulate", "--config", sim_config,
                       "--out", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["runs"] == 4 and summary["horizon"] == 40
    assert summary["master_seed"] == 11
    on_disk = json.loads((out_dir / "summary.json").read_text())
    assert on_disk == summary
    csv = (out_dir / "trajectory.csv").read_text().strip().splitlines()
    assert len(csv) == 41  # header + one row per period


def test_simulate_csv_is_batch_row_0(capsys, monkeypatch, ce_config, tmp_path):
    batches, solves = [], []
    real_mc, real_sim = repgame.cli.monte_carlo, repgame.beliefs._simulate

    def capture(*args, **kwargs):
        result = real_mc(*args, **kwargs)
        batches.append(result[1])
        return result

    def counting(*args, **kwargs):
        solves.append(args)
        return real_sim(*args, **kwargs)

    monkeypatch.setattr(repgame.cli, "monte_carlo", capture)
    monkeypatch.setattr(repgame.beliefs, "_simulate", counting)
    code, _, _ = run(capsys, "simulate", "--config", ce_config, "--out", str(tmp_path))
    assert code == 0
    assert len(batches) == len(solves) == 1
    batch = batches[0]
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    cols = {name: np.array([float(r[j]) for r in rows[1:]]) for j, name in enumerate(rows[0])}
    T = batch.horizon
    want = {"t": np.arange(T), "action": batch.actions[0], "signal": batch.signals[0],
            "mu": batch.mu[0, :T], "ell": batch.ell[0], "u_flow": batch.u_flow[0],
            "tv_gap": batch.tv_gap[0], "kl_term": batch.kl_term[0]}
    assert set(cols) == set(want)
    for name, values in want.items():
        assert np.array_equal(cols[name], values), name


def test_simulate_three_signal(capsys, tmp_path):
    doc = emit_scenario_document("three_signal", {"p": 0.6, "q": 0.3, "r": 0.1,
                                                  "epsilon": 0.02, "x": 0.55})
    doc["simulation"] = {"delta": 0.9, "runs": 3, "horizon": 30, "master_seed": 5,
                         "normal_strategy": [0.55, 0.45]}
    path = tmp_path / "ts.json"
    dump_document(doc, path)
    code, out, err = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 0, err
    assert json.loads(out)["runs"] == 3


def test_simulate_misspecified_normal_kernels(capsys, tmp_path):
    # an explicit framework block holds its kernels and nothing that declares
    # whether they are rho: normal_misspec's wrong normal kernels simulate as given
    doc = emit_scenario_document("normal_misspec", {})
    del doc["scenario"]
    doc["framework"] = {key: doc["framework"][key]
                        for key in ("models", "kernels", "prior", "commitment_action")}
    doc["simulation"] = {"delta": 0.9, "runs": 3, "horizon": 30, "master_seed": 5,
                         "normal_strategy": [1.0, 0.0]}
    path = tmp_path / "nm.json"
    dump_document(doc, path)
    code, out, err = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 0, err
    assert json.loads(out)["runs"] == 3


def test_simulate_is_reproducible(capsys, sim_config, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    code1, out1, _ = run(capsys, "simulate", "--config", sim_config, "--out", str(d1))
    code2, out2, _ = run(capsys, "simulate", "--config", sim_config, "--out", str(d2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert (d1 / "trajectory.csv").read_bytes() == (d2 / "trajectory.csv").read_bytes()


def test_simulate_overrides(capsys, sim_config, tmp_path):
    code, out, _ = run(capsys, "simulate", "--config", sim_config,
                       "--out", str(tmp_path / "o"), "--runs", "2", "--seed", "5")
    assert code == 0
    summary = json.loads(out)
    assert summary["runs"] == 2 and summary["master_seed"] == 5


def test_simulate_needs_simulation_block(capsys, tmp_path):
    doc = emit_scenario_document("normal_misspec", {})
    path = tmp_path / "bare.json"
    dump_document(doc, path)
    code, _, err = run(capsys, "simulate", "--config", str(path),
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert "simulation" in err


def test_commands_need_config(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == 2
    assert "--config" in err


@pytest.mark.parametrize("command, grid, bounds", [
    ("bounds", "0", None),
    ("bounds", "-0.1", None),
    ("bounds", "nan", None),
    ("bounds", "0.3", None),
    ("stackelberg", "2", None),
    ("bounds", None, {"grid": "abc"}),
    ("stackelberg", None, {"grid": 0.0}),
    ("bounds", None, {"grid": 0.05, "eta": 0.0}),
    ("bounds", "1e-7", None),
    ("stackelberg", None, {"grid": 1e-7}),
])
def test_bad_grid_is_a_config_error(capsys, tmp_path, command, grid, bounds):
    doc = emit_scenario_document("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.15})
    if bounds is not None:
        doc["bounds"] = bounds
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    argv = [command, "--config", str(path)] + ([] if grid is None else ["--grid", grid])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "grid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["bounds", "stackelberg"])
def test_lattice_above_cap_is_a_config_error(capsys, monkeypatch, tmp_path, command):
    # three long-run actions at 1e-4 make 50,015,001 lattice points; the
    # answer stops before any lattice is built
    doc = _explicit_doc()   # a game of its own: no scenario builds it
    game, fw = doc["game"], doc["framework"]
    game["actions_long"].append("a_m")
    game["u"].append([2.5, 0.5])
    game["rho"].append([0.45, 0.55])
    fw["kernels"] = [[kernel + [[0.45, 0.55]] for kernel in model] for model in fw["kernels"]]
    fw["commitment_action"].append(0.0)
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    monkeypatch.setattr(repgame.bruteforce, "_lattice_chunks", None)
    code, _, err = run(capsys, command, "--config", str(path), "--grid", "1e-4")
    assert code == 2
    assert "50,015,001 points" in err
    assert "Traceback" not in err


def test_five_tied_replies_answer(capsys, tmp_path):
    # five short-run replies with equal signal payoffs are tied at every alpha;
    # each score program takes the reply as variables over all five
    doc = _explicit_doc()   # a game of its own: no scenario builds it
    game = doc["game"]
    game["actions_short"] = [f"b{i}" for i in range(5)]
    game["u"] = [[2.0, 0.0, 1.0, 0.5, 1.5], [3.0, 1.0, 2.0, 1.5, 2.5]]
    game["v_tilde"] = [[1.0, 0.0]] * 5
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    code, out, err = run(capsys, "bounds", "--config", str(path), "--grid", "0.1")
    assert code == 0, err
    report = json.loads(out)
    assert (report["kappa_plus"], report["kappa_minus"]) == (3.0, -1.0)


@pytest.mark.parametrize("block, key, value", [
    ("simulation", "runs", "abc"),
    ("simulation", "runs", 2.7),
    ("simulation", "runs", True),
    ("simulation", "runs", None),
    ("simulation", "runs", 10**12),
    ("simulation", "horizon", "x"),
    ("simulation", "horizon", 40.5),
    ("simulation", "master_seed", "11"),
    ("simulation", "master_seed", False),
    ("simulation", "delta", "0.9"),
    ("simulation", "truncation_tol", [1e-4]),
    ("simulation", "alpha_star_target", [0.5]),
    ("simulation", "alpha_star_target", ["a", "b"]),
])
def test_bad_simulation_value_is_a_config_error(capsys, tmp_path, block, key, value):
    doc = emit_scenario_document("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.15})
    doc["simulation"] = {"delta": 0.9, "runs": 4, "horizon": 40, "master_seed": 11,
                         "normal_strategy": [0.0, 1.0]}
    doc[block][key] = value
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    code, _, err = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block, key", [
    (None, "simulaton"),
    (None, "truncation_tol"),
    ("scenario", "parms"),
    ("simulation", "horizn"),
    ("simulation", "alpha_star_targe"),
    ("bounds", "grd"),
])
def test_unknown_key_is_a_config_error(capsys, tmp_path, block, key):
    # a key repgame does not read is a misspelling or a dropped setting: the
    # document is refused and the key named, where it would otherwise be ignored
    doc = {"scenario": {"name": "product_choice",
                        "params": {"p": 0.6, "q": 0.3, "epsilon": 0.15}},
           "simulation": {"delta": 0.9, "runs": 4, "horizon": 40, "master_seed": 11,
                          "normal_strategy": [0.0, 1.0]},
           "bounds": {"grid": 0.05}}
    (doc if block is None else doc[block])[key] = 50
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    code, out, err = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert repr(key) in err


def _explicit_doc():
    doc = emit_scenario_document("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.15})
    del doc["scenario"]
    return doc


@pytest.mark.parametrize("scenario", [False, True])
@pytest.mark.parametrize("block, key", [
    ("game", "rho_"),
    ("game", "v"),
    ("framework", "normal_kernal"),
    ("framework", "commitment_kernels"),
])
def test_unknown_game_or_framework_key_is_a_config_error(capsys, tmp_path, scenario,
                                                         block, key):
    doc = emit_scenario_document("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.15})
    if not scenario:
        del doc["scenario"]
    doc[block][key] = doc[block]["rho" if block == "game" else "kernels"]
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    code, out, err = run(capsys, "check-separation", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: '{block}' takes only ")
    assert f"got [{key!r}]" in err


@pytest.mark.parametrize("doc, block", [
    ({"scenario": 3}, "'scenario'"),
    ({"scenario": {"name": "product_choice", "params": 3}}, "'scenario.params'"),
    ({"scenario": {"name": "product_choice",
                   "params": {"p": None, "q": 0.3, "epsilon": 0.15}}},
     "scenario: scenario 'product_choice': parameter 'p'"),
    ({**_explicit_doc(), "framework": 3}, "'framework'"),
    ({**_explicit_doc(), "game": 3}, "'game'"),
    ({**_explicit_doc(), "bounds": [0.1]}, "'bounds'"),
])
@pytest.mark.parametrize("command", ["bounds", "check-separation"])
def test_malformed_block_is_a_config_error(capsys, tmp_path, doc, block, command):
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {block}")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["[1, 2]", ' "x"', "[]"])
def test_json_text_that_is_no_object_is_a_config_error(capsys, text):
    # JSON text is parsed as JSON, not opened as a path
    code, out, err = run(capsys, "bounds", "--config", text)
    assert code == 2
    assert out == ""
    assert err == "config error: config document must be a JSON object\n"


_SCENARIO = {"name": "product_choice", "params": {"p": 0.6, "q": 0.3, "epsilon": 0.15}}


@pytest.mark.parametrize("doc, missing", [
    ({"scenario": _SCENARIO, "game": "not even a dict"}, "framework"),
    ({"scenario": _SCENARIO, "framework": {"garbage": 1}}, "game"),
    ({"scenario": _SCENARIO, "game": _explicit_doc()["game"]}, "framework"),
    ({"framework": _explicit_doc()["framework"]}, "game"),
])
def test_lone_explicit_block_is_a_config_error(capsys, tmp_path, doc, missing):
    # game and framework come as a pair: a lone one is refused, not ignored
    # next to a scenario, and the missing block is named
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    code, out, err = run(capsys, "bounds", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert f"no '{missing}' block" in err


@pytest.mark.parametrize("name, params", [
    ("product_choice", ["p=0.6", "q=0.3", "epsilon=0.15"]),
    ("product_choice", ["p=0.7", "q=0.2", "epsilon=0", "mu0=0.3"]),
    ("three_signal", ["p=0.6", "q=0.3", "r=0.1", "epsilon=0.02", "x=0.55"]),
    ("counter_example", ["p=0.6", "q=0.3", "epsilon=0.05", "x=0.55"]),
    ("normal_misspec", []),
])
def test_emitted_scenario_documents_load(capsys, tmp_path, name, params):
    # scenario emit writes all three blocks; its explicit ones are what its
    # scenario builds, so the document loads as written
    code, _, _ = run(capsys, "scenario", "emit", name, *params, "--out", str(tmp_path))
    assert code == 0
    code, out, err = run(capsys, "check-separation", "--config", str(tmp_path / f"{name}.json"))
    assert code == 0, err
    assert json.loads(out)


@pytest.mark.parametrize("block, value, message", [
    ("scenario", {"name": "no_such_scenario", "parms": 1},
     "'scenario' takes only 'name', 'params', got ['parms']"),
    ("scenario", {"name": "no_such_scenario"}, "scenario: \"unknown scenario 'no_such_scenario'"),
    ("scenario", {"params": _SCENARIO["params"]}, "scenario: missing required field 'name'"),
    ("scenario", {"name": "product_choice", "params": {"p": 0.6, "q": 0.3}},
     "scenario: scenario 'product_choice' needs parameter 'epsilon'"),
    ("scenario", {"name": "product_choice", "params": {"p": 0.7, "q": 0.3, "epsilon": 0.15}},
     "the 'game' block differs at 'v_tilde'"),
    ("scenario", {"name": "product_choice", "params": {"p": 0.6, "q": 0.3, "epsilon": 0.1}},
     "the 'framework' block differs at 'kernels'"),
    ("scenario", {"name": "product_choice",
                  "params": {"p": 0.6, "q": 0.3, "epsilon": 0.15, "mu0": 0.25}},
     "the 'framework' block differs at 'prior'"),
    ("scenario", {"name": "three_signal", "params": {"p": 0.6, "q": 0.3, "r": 0.1,
                                                     "epsilon": 0.15, "x": 0.55}},
     "the 'game' block differs at 'signals'"),
    ("scenario", {"name": "counter_example", "params": {"p": 0.6, "q": 0.3, "epsilon": 0.15,
                                                        "x": 0.55}},
     "the 'framework' block differs at 'commitment_action'"),
    ("game", {"u": [[2.0, 0.0], [3.0, 1.5]]}, "the 'game' block differs at 'u'"),
])
def test_scenario_block_beside_explicit_blocks_must_match_them(capsys, tmp_path, block,
                                                               value, message):
    # a document with all three blocks is checked against its scenario, not
    # loaded as whatever the explicit blocks say
    doc = emit_scenario_document("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.15})
    doc[block] = value if block == "scenario" else {**doc[block], **value}
    path = tmp_path / "cfg.json"
    dump_document(doc, path)
    for command in ("bounds", "check-separation"):
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {message}"), err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "bounds", "--config", "/nonexistent/cfg.json")
    assert code == 2
    assert "cannot read" in err


def test_main_runs_different_subcommands_in_one_process(capsys, sim_config):
    # the parser is built once per process; each call still parses afresh
    code, out, _ = run(capsys, "scenario", "list")
    assert code == 0 and "product_choice" in out
    code, out, _ = run(capsys, "stackelberg", "--config", sim_config, "--grid", "0.1")
    assert code == 0 and json.loads(out)["grid"] == 0.1
    code, out, _ = run(capsys, "check-separation", "--config", sim_config)
    assert code == 0 and json.loads(out)["separating"] is True
    code, out, _ = run(capsys, "stackelberg", "--config", sim_config)
    assert code == 0 and json.loads(out)["grid"] == 0.05  # no --grid left over
    with pytest.raises(SystemExit) as exc:
        main(["stackelberg", "--grid", "x"])
    assert exc.value.code == 2
    assert "invalid float value" in capsys.readouterr().err
    code, out, _ = run(capsys, "scenario", "list")
    assert code == 0 and "product_choice" in out


# The flags each subcommand reads, and nothing more: 11 settable values.
READS = {
    "check-separation": ["--config"],
    "bounds": ["--config", "--grid"],
    "stackelberg": ["--config", "--grid"],
    "simulate": ["--config", "--out", "--seed", "--runs", "--delta"],
    "scenario list": [],
    "scenario emit": ["--out"],
    "verify": [],
}
FLAG_VALUES = {"--config": "cfg.json", "--out": "out", "--seed": "9", "--grid": "0.05",
               "--runs": "3", "--delta": "0.5"}
BASE_ARGV = {"check-separation": [], "bounds": [], "stackelberg": [], "simulate": [],
             "scenario list": [], "scenario emit": ["product_choice"],
             "verify": ["plumbing"]}


@pytest.mark.parametrize("command, flag", [(c, f) for c, names in READS.items()
                                           for f in names])
def test_subcommand_parses_each_flag_it_reads(command, flag):
    args = repgame.cli._build_parser().parse_args(
        [*command.split(), *BASE_ARGV[command], flag, FLAG_VALUES[flag]])
    assert str(getattr(args, flag[2:])) == FLAG_VALUES[flag]


@pytest.mark.parametrize("command, flag", [(c, f) for c, names in READS.items()
                                           for f in FLAG_VALUES if f not in names])
def test_subcommand_rejects_each_flag_it_does_not_read(capsys, sim_config, command, flag):
    argv = [*command.split(), *BASE_ARGV[command], flag, FLAG_VALUES[flag]]
    if "--config" in READS[command]:
        argv += ["--config", sim_config]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nosuchsuite")
    assert code == 2
    assert "unknown suite" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "plumbing")
    assert code == 0
    assert "[PASS]" in out
    assert "checks passed" in out
    assert "[FAIL]" not in out
