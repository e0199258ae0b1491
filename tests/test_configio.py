import json

import numpy as np
import pytest

from repgame.beliefs import SimulationConfig
from repgame.configio import (ConfigError, dump_document,
                              emit_scenario_document, framework_from_dict,
                              framework_to_dict, game_from_dict, game_to_dict,
                              load_config, simulation_from_dict,
                              simulation_to_dict)
from repgame.game import Distribution


def test_game_round_trip(game06):
    g2 = game_from_dict(game_to_dict(game06))
    assert g2.actions_long == game06.actions_long
    assert g2.actions_short == game06.actions_short
    assert g2.signals == game06.signals
    assert np.array_equal(g2.u, game06.u)
    assert np.array_equal(g2.v_tilde, game06.v_tilde)
    assert np.array_equal(g2.rho.matrix, game06.rho.matrix)


def test_framework_round_trip(fw06, game06):
    d = framework_to_dict(fw06)
    f2 = framework_from_dict(d, game06.actions_long, game06.signals)
    assert f2.models == fw06.models
    assert np.array_equal(f2.normal_kernels, fw06.normal_kernels)
    assert np.array_equal(f2.commitment_kernels, fw06.commitment_kernels)
    assert np.array_equal(f2.prior, fw06.prior)
    assert np.array_equal(f2.commitment_action.weights,
                          fw06.commitment_action.weights)
    # the kernels alone say the normal type is correctly specified
    assert set(d) == {"models", "kernels", "prior", "commitment_action"}
    assert np.array_equal(f2.normal_kernels[0], game06.rho.matrix)


@pytest.mark.parametrize("flag", [True, False, "x"])
def test_framework_block_ignores_keys_it_does_not_read(fw06, game06, flag):
    # older documents carry a normal_correctly_specified key; whether the normal
    # kernels are rho is a fact of the kernels, so the key is not read
    d = {**framework_to_dict(fw06), "normal_correctly_specified": flag}
    f2 = framework_from_dict(d, game06.actions_long, game06.signals)
    assert np.array_equal(f2.normal_kernels, fw06.normal_kernels)


def test_framework_dict_rejects_wrong_kernel_shape(fw06, game06):
    d = framework_to_dict(fw06)
    d["kernels"] = [[d["kernels"][0][0]]]  # drop the commitment slot
    with pytest.raises(ConfigError, match="kernel"):
        framework_from_dict(d, game06.actions_long, game06.signals)


def test_simulation_round_trip_stationary(game06):
    cfg = SimulationConfig(
        delta=0.95, master_seed=42, runs=7, horizon=100,
        normal_strategy=Distribution(game06.actions_long, [0.25, 0.75]),
        alpha_star_target=Distribution(game06.actions_long, [0.5, 0.5]))
    d = simulation_to_dict(cfg)
    c2 = simulation_from_dict(d, game06.actions_long)
    assert c2.delta == cfg.delta and c2.master_seed == 42 and c2.runs == 7
    assert c2.horizon == 100
    assert np.array_equal(c2.normal_strategy.weights, [0.25, 0.75])
    assert np.array_equal(c2.alpha_star_target.weights, [0.5, 0.5])
    # serializing again is a fixed point
    assert simulation_to_dict(c2) == d


def test_simulation_round_trip_script(game06):
    script = [Distribution(game06.actions_long, [1.0, 0.0]),
              Distribution(game06.actions_long, [0.0, 1.0])]
    cfg = SimulationConfig(delta=0.9, master_seed=1, normal_strategy=script,
                           slp_conjecture=script)
    c2 = simulation_from_dict(simulation_to_dict(cfg), game06.actions_long)
    assert not isinstance(c2.normal_strategy, Distribution)
    assert len(c2.normal_strategy) == 2
    assert np.array_equal(c2.normal_strategy[0].weights, [1.0, 0.0])
    assert np.array_equal(c2.slp_conjecture[1].weights, [0.0, 1.0])


def test_simulation_defaults_fill_in(game06):
    c = simulation_from_dict({"delta": 0.9}, game06.actions_long)
    assert c.runs == 100 and c.true_type == "normal"
    assert c.master_seed is None and c.normal_strategy is None


def test_simulation_requires_delta(game06):
    with pytest.raises(ConfigError, match="delta"):
        simulation_from_dict({}, game06.actions_long)


def explicit_doc(game06, fw06):
    return {"game": game_to_dict(game06), "framework": framework_to_dict(fw06)}


def test_load_config_from_dict(game06, fw06):
    cfg = load_config(explicit_doc(game06, fw06))
    assert cfg.game.signals == game06.signals
    assert cfg.simulation is None
    assert cfg.bounds == {}


def test_load_config_from_text_path_and_file(tmp_path, game06, fw06):
    doc = explicit_doc(game06, fw06)
    text = json.dumps(doc)
    cfg = load_config(text)
    assert np.array_equal(cfg.game.u, game06.u)
    p = tmp_path / "cfg.json"
    p.write_text(text)
    cfg = load_config(str(p))
    assert np.array_equal(cfg.framework.prior, fw06.prior)


def test_load_config_scenario_block():
    cfg = load_config({"scenario": {
        "name": "product_choice",
        "params": {"p": 0.6, "q": 0.3, "epsilon": 0.1}}})
    assert np.allclose(cfg.framework.commitment_kernels[0, 0], [0.7, 0.3])


def test_load_config_scenario_must_match_explicit_blocks(game06, fw06):
    # beside explicit blocks, the scenario block is checked, not ignored:
    # the blocks of product_choice(0.6, 0.3, 0.1) load under its own label
    # and are refused under another
    doc = explicit_doc(game06, fw06)
    doc["scenario"] = {"name": "product_choice", "params": {"p": 0.6, "q": 0.3, "epsilon": 0.1}}
    cfg = load_config(doc)
    assert cfg.game.rho.matrix.tobytes() == game06.rho.matrix.tobytes()
    doc["scenario"]["params"]["p"] = 0.8
    with pytest.raises(ConfigError, match="the 'game' block differs at 'v_tilde'"):
        load_config(doc)


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="scenario"):
        load_config({})
    with pytest.raises(ConfigError, match="JSON"):
        load_config("{not json")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(listed))
    with pytest.raises(ConfigError, match="scenario"):
        load_config({"scenario": {"name": "nope"}})
    with pytest.raises(ConfigError, match="bounds"):
        load_config({"scenario": {"name": "normal_misspec"}, "bounds": 3})


def test_load_config_with_simulation_block():
    cfg = load_config({
        "scenario": {"name": "product_choice",
                     "params": {"p": 0.6, "q": 0.3, "epsilon": 0.15}},
        "simulation": {"delta": 0.9, "runs": 5, "master_seed": 11,
                       "normal_strategy": [0.0, 1.0]},
        "bounds": {"grid": 0.05},
    })
    assert cfg.simulation.runs == 5
    assert np.array_equal(cfg.simulation.normal_strategy.weights, [0.0, 1.0])
    assert cfg.bounds["grid"] == 0.05


def test_emit_scenario_document_round_trips():
    doc = emit_scenario_document("counter_example",
                                 {"p": 0.6, "q": 0.3, "epsilon": 0.05, "x": 0.55})
    assert doc["scenario"]["params"]["mu0"] == 0.5  # default echoed
    json.dumps(doc)  # fully serializable
    cfg = load_config(doc)  # explicit game/framework blocks are present
    assert cfg.framework.commitment_slices[0][0] == pytest.approx(0.4925)


def test_dump_document(tmp_path):
    doc = emit_scenario_document("normal_misspec", {})
    path = tmp_path / "nm.json"
    dump_document(doc, path)
    assert json.loads(path.read_text()) == doc
