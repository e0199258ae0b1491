"""Mutation fuzz of the exit-code contract: any config document gives exit 0
or 2, never a traceback.

Valid ``scenario``, ``game``/``framework`` and ``simulation`` documents, a
``scenario`` document that also holds a lone ``framework`` block, and a
``scenario emit`` document with all three blocks are mutated (keys dropped;
values set to wrong types, null, NaN/inf and out-of-range numbers) and
answered in-process by ``bounds``/``stackelberg`` at grid 0.1,
``check-separation`` and a tiny ``simulate``. An emitted document whose
``scenario`` block is relabeled, to another scenario or other parameters,
exits 2. The seed and example counts are fixed, so the run is the same
every time.
"""

import copy
import json
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from repgame.cli import main
from repgame.configio import emit_scenario_document
from repgame.scenarios import SCENARIOS

SCENARIO = {"scenario": {"name": "product_choice",
                         "params": {"p": 0.6, "q": 0.3, "epsilon": 0.15}}}
EMITTED = emit_scenario_document(
    "counter_example", {"p": 0.6, "q": 0.3, "epsilon": 0.05, "x": 0.55})
EXPLICIT = {k: v for k, v in EMITTED.items() if k != "scenario"}
BASES = {"scenario": SCENARIO, "explicit": EXPLICIT,
         "scenario_lone_block": {**SCENARIO, "framework": EXPLICIT["framework"]},
         "emitted": EMITTED}
SIMULATION = {"delta": 0.9, "runs": 3, "horizon": 8, "master_seed": 11,
              "true_type": "normal", "normal_strategy": [0.0, 1.0],
              "alpha_star_target": [0.5, 0.5]}
BAD_VALUES = [None, float("nan"), float("inf"), float("-inf"), -1, 0, 0.5, 1, 2,
              -0.5, 1e300, -1e300, 10**12, "x", "", True, False, [], {}, [1.0],
              [[0.5, 0.5]], {"a": 1}]
COMMANDS = {
    "bounds": ["bounds", "--grid", "0.1"],
    "stackelberg": ["stackelberg", "--grid", "0.1"],
    "check-separation": ["check-separation"],
    "simulate": ["simulate"],
}


def _paths(node, prefix=()):
    """Every (container, key) location in a JSON document, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans(), label="drop"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(BAD_VALUES), label="value"))
    return doc


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("base", list(BASES))
@seed(20261018)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_document_exits_0_or_2(capsys, tmp_path, command, base, data):
    doc = copy.deepcopy(BASES[base])
    if command == "simulate":
        doc["simulation"] = copy.deepcopy(SIMULATION)
    doc = _mutate(doc, data)
    argv = list(COMMANDS[command])
    argv[1:1] = ["--config", json.dumps(doc)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numerical notes on odd documents are allowed
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.startswith("config error")


@pytest.mark.parametrize("command", ["bounds", "check-separation"])
@seed(20261020)
@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mislabeled_scenario_exits_2(capsys, command, data):
    # the emitted blocks stay; the scenario block names another scenario or
    # other parameters, and the document is refused, not loaded as its blocks
    truth = EMITTED["scenario"]
    name = data.draw(st.sampled_from(sorted(SCENARIOS)), label="name")
    params = {key: data.draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.55, 0.6, 0.7]), label=key)
              for key, _ in SCENARIOS[name][1]}
    assume((name, params) != (truth["name"], truth["params"]))
    doc = {**EMITTED, "scenario": {"name": name, "params": params}}
    argv = list(COMMANDS[command])
    argv[1:1] = ["--config", json.dumps(doc)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: ") and "scenario" in err
