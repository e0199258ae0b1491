"""One-document JSON experiment configs.

A config either names a registry scenario or spells out the game and framework
explicitly, as a pair. A document with both, as ``scenario emit`` writes it,
must hold in its explicit blocks exactly what its scenario builds. Every block
takes only the keys below (``framework`` also takes the unread
``normal_correctly_specified`` of older documents); any other key is a
ConfigError that names it. Model kernels are
nested as [model][type][action][signal] with type order (normal, commitment).
Everything numeric survives an emit/load cycle exactly: the json module prints
shortest-round-trip floats.

    {
      "scenario":   {"name": "product_choice", "params": {"p": 0.6, ...}},
      "game":       {"actions_long": [...], "actions_short": [...], "signals": [...],
                     "u": [[...]], "v_tilde": [[...]], "rho": [[...]]},
      "framework":  {"models": [...], "kernels": [...], "prior": [[...], [...]],
                     "commitment_action": [...]},
      "simulation": {"delta": 0.95, "runs": 100, "master_seed": 1, ...},
      "bounds":     {"grid": 0.001}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .beliefs import SimulationConfig
from .frameworks import TYPE_COMMIT, TYPE_NORMAL, Framework
from .game import Distribution, SignalStructure, StageGame
from .scenarios import SCENARIOS, build_scenario

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "game_to_dict",
    "game_from_dict",
    "framework_to_dict",
    "framework_from_dict",
    "simulation_to_dict",
    "simulation_from_dict",
    "load_config",
    "emit_scenario_document",
    "dump_document",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return d[key]


def _only(d: dict, keys: tuple[str, ...], where: str) -> dict:
    """``d``, which holds no key outside ``keys``: any other is a misspelling
    or a setting repgame does not read."""
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ConfigError(f"{where} takes only {', '.join(map(repr, keys))}, got {unknown}")
    return d


def game_to_dict(game: StageGame) -> dict:
    return {
        "actions_long": list(game.actions_long),
        "actions_short": list(game.actions_short),
        "signals": list(game.signals),
        "u": game.u.tolist(),
        "v_tilde": game.v_tilde.tolist(),
        "rho": game.rho.matrix.tolist(),
    }


def _block(d, key: str) -> dict:
    """A block of the document that must be a JSON object."""
    if not isinstance(d, dict):
        raise ConfigError(f"'{key}' must be an object, got {d!r}")
    return d


_GAME_KEYS = ("actions_long", "actions_short", "signals", "u", "v_tilde", "rho")
# Older documents carry normal_correctly_specified. Whether the normal kernels
# are rho is read from the kernels, so the key is accepted and never read.
_FRAMEWORK_KEYS = ("models", "kernels", "prior", "commitment_action",
                   "normal_correctly_specified")


def game_from_dict(d: dict) -> StageGame:
    _only(_block(d, "game"), _GAME_KEYS, "'game'")
    try:
        rho = SignalStructure(tuple(_require(d, "actions_long", "game")),
                              tuple(_require(d, "signals", "game")),
                              np.asarray(_require(d, "rho", "game"), dtype=float))
        return StageGame(
            tuple(d["actions_long"]), tuple(_require(d, "actions_short", "game")),
            tuple(d["signals"]),
            np.asarray(_require(d, "u", "game"), dtype=float),
            np.asarray(_require(d, "v_tilde", "game"), dtype=float),
            rho,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"game: {exc}") from exc


def framework_to_dict(fw: Framework) -> dict:
    kernels = np.stack([fw.normal_kernels, fw.commitment_kernels], axis=1)
    return {
        "models": list(fw.models),
        "kernels": kernels.tolist(),  # [model][type][action][signal]
        "prior": fw.prior.tolist(),
        "commitment_action": fw.commitment_action.weights.tolist(),
    }


def framework_from_dict(d: dict, actions: tuple[str, ...],
                        signals: tuple[str, ...]) -> Framework:
    _only(_block(d, "framework"), _FRAMEWORK_KEYS, "'framework'")
    try:
        kernels = np.asarray(_require(d, "kernels", "framework"), dtype=float)
        if kernels.ndim != 4 or kernels.shape[1] != 2:
            raise ConfigError(
                f"framework: kernels must be [model][type][action][signal], "
                f"got shape {kernels.shape}")
        return Framework(
            models=tuple(_require(d, "models", "framework")),
            actions=actions,
            signals=signals,
            normal_kernels=kernels[:, TYPE_NORMAL],
            commitment_kernels=kernels[:, TYPE_COMMIT],
            prior=np.asarray(_require(d, "prior", "framework"), dtype=float),
            commitment_action=Distribution(
                actions,
                np.asarray(_require(d, "commitment_action", "framework"), dtype=float)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"framework: {exc}") from exc


def _strategy_to_json(s) -> list | None:
    if s is None:
        return None
    if isinstance(s, Distribution):
        return s.weights.tolist()
    return [d.weights.tolist() for d in s]


def _strategy_from_json(entry, actions: tuple[str, ...], what: str):
    if entry is None:
        return None
    if not isinstance(entry, list) or not entry:
        raise ConfigError(f"simulation.{what}: expected a weight list or list of lists")
    try:
        if isinstance(entry[0], list):
            return tuple(Distribution(actions, np.asarray(row, dtype=float))
                         for row in entry)
        return Distribution(actions, np.asarray(entry, dtype=float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"simulation.{what}: {exc}") from exc


def simulation_to_dict(cfg: SimulationConfig) -> dict:
    out = {
        "delta": cfg.delta,
        "runs": cfg.runs,
        "master_seed": cfg.master_seed,
        "true_type": cfg.true_type,
        "normal_strategy": _strategy_to_json(cfg.normal_strategy),
        "horizon": cfg.horizon,
    }
    if cfg.slp_conjecture is not None:
        out["slp_conjecture"] = _strategy_to_json(cfg.slp_conjecture)
    if cfg.alpha_star_target is not None:
        out["alpha_star_target"] = cfg.alpha_star_target.weights.tolist()
    return out


def _sim_number(d: dict, key: str, default=None, *, integer: bool = False,
                nullable: bool = False):
    """A number from the simulation block; JSON booleans and strings are not
    numbers, and an integer field takes no fractional part."""
    value = d.get(key, default)
    if nullable and value is None:
        return None
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            integer and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"simulation.{key}: expected {kind}, got {value!r}")
    return int(value) if integer else float(value)


_SIMULATION_KEYS = ("delta", "master_seed", "runs", "true_type", "normal_strategy",
                    "slp_conjecture", "horizon", "alpha_star_target")


def simulation_from_dict(d: dict, actions: tuple[str, ...]) -> SimulationConfig:
    _only(_block(d, "simulation"), _SIMULATION_KEYS, "'simulation'")
    _require(d, "delta", "simulation")
    target = d.get("alpha_star_target")
    if target is not None:
        try:
            target = Distribution(actions, np.asarray(target, dtype=float))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"simulation.alpha_star_target: {exc}") from exc
    return SimulationConfig(
        delta=_sim_number(d, "delta"),
        master_seed=_sim_number(d, "master_seed", integer=True, nullable=True),
        runs=_sim_number(d, "runs", SimulationConfig.runs, integer=True),
        true_type=str(d.get("true_type", SimulationConfig.true_type)),
        normal_strategy=_strategy_from_json(d.get("normal_strategy"), actions,
                                            "normal_strategy"),
        slp_conjecture=_strategy_from_json(d.get("slp_conjecture"), actions,
                                           "slp_conjecture"),
        horizon=_sim_number(d, "horizon", integer=True, nullable=True),
        alpha_star_target=target,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    game: StageGame
    framework: Framework
    simulation: SimulationConfig | None
    bounds: dict


def _scenario(doc: dict) -> tuple[StageGame, Framework]:
    """The game and framework the document's ``scenario`` block names."""
    sc = _only(_block(doc["scenario"], "scenario"), ("name", "params"), "'scenario'")
    name = _require(sc, "name", "scenario")
    params = _block(sc.get("params", {}), "scenario.params")
    try:
        return build_scenario(name, params)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def _check_scenario_blocks(doc: dict, game: StageGame, framework: Framework) -> None:
    """A document with a ``scenario`` block beside its explicit ones must
    spell out exactly what that scenario builds. The built pair is loaded
    from its own blocks first, so both sides pass the same validation."""
    built_game, built_fw = _scenario(doc)
    built_game = game_from_dict(game_to_dict(built_game))
    built_fw = framework_from_dict(framework_to_dict(built_fw), built_game.actions_long,
                                   built_game.signals)
    for block, got, want in (("game", game_to_dict(game), game_to_dict(built_game)),
                             ("framework", framework_to_dict(framework),
                              framework_to_dict(built_fw))):
        for key in want:
            if got[key] != want[key]:
                raise ConfigError(f"the '{block}' block differs at {key!r} from what its "
                                  f"'scenario' block {doc['scenario']} builds")


def load_config(source) -> ExperimentConfig:
    """Parse a config from a path, JSON text, or an already-decoded dict.
    Text whose first non-space character opens a JSON object, array or
    string is JSON; any other text is a path."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        try:
            if not str(source).lstrip().startswith(("{", "[", '"')):
                with open(source) as fh:
                    text = fh.read()
            doc = json.loads(text)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _only(doc, ("scenario", "game", "framework", "simulation", "bounds"), "the config document")

    if ("game" in doc) != ("framework" in doc):
        given, missing = ("game", "framework") if "game" in doc else ("framework", "game")
        raise ConfigError(f"config has a '{given}' block but no '{missing}' block; "
                          f"explicit blocks come as a pair")
    if "game" in doc:
        game = game_from_dict(doc["game"])
        framework = framework_from_dict(doc["framework"], game.actions_long,
                                        game.signals)
        if "scenario" in doc:
            _check_scenario_blocks(doc, game, framework)
    elif "scenario" in doc:
        game, framework = _scenario(doc)
    else:
        raise ConfigError(
            "config needs either a 'scenario' block or both 'game' and 'framework'")

    sim = None
    if "simulation" in doc:
        sim = simulation_from_dict(doc["simulation"], game.actions_long)
    bounds = _only(_block(doc.get("bounds", {}), "bounds"), ("grid",), "'bounds'")
    return ExperimentConfig(game=game, framework=framework, simulation=sim, bounds=bounds)


def emit_scenario_document(name: str, params: dict) -> dict:
    """Materialize a scenario into a fully explicit, reloadable document."""
    game, framework = build_scenario(name, params)
    sig = SCENARIOS[name][1]
    echoed = {}
    for key, default in sig:
        echoed[key] = float(params[key]) if key in params else default
    return {
        "scenario": {"name": name, "params": echoed},
        "game": game_to_dict(game),
        "framework": framework_to_dict(framework),
    }


def dump_document(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
