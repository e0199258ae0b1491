"""repgame command line.

Subcommands: check-separation, bounds, stackelberg, simulate, verify,
scenario (list | emit <name> [key=value ...]). Everything reads one JSON
config document (--config) and prints one JSON report, so runs are easy to
diff and to script. Exit codes are a stable contract: 0 success, 1 a
verification suite failed, 2 bad configuration, 3 I/O trouble.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import secrets
import sys

from .beliefs import TrajectoryRecord, monte_carlo
from .bruteforce import LatticeCapError, check_lattice
from .configio import (ConfigError, ExperimentConfig, dump_document,
                       emit_scenario_document, load_config)
from .divergence import find_alpha_star, separation_value
from .scenarios import SCENARIOS
from .scores import ci_payoff_set, reputation_lower_bound, stackelberg
from .verify import SUITES, format_results, run_all, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_BOUNDS_NOTE = ("interval brackets attainable equilibrium payoffs for the patient "
                "long-run player; it does not exhibit equilibrium strategies")


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this command needs --config <path>")
    return load_config(args.config)


def _grid(args, cfg: ExperimentConfig, default: float = 1e-2) -> float:
    """Lattice spacing from --grid or the bounds block; it must divide 1 evenly,
    and the game's commitment lattice must stay within ``LATTICE_CAP`` points."""
    raw = args.grid if args.grid is not None else cfg.bounds.get("grid", default)
    try:
        grid = float(raw)
        check_lattice(len(cfg.game.actions_long), grid)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid {raw!r}: {exc}") from exc
    return grid


def cmd_check_separation(args) -> int:
    cfg = _load(args)
    rep = separation_value(cfg.framework, cfg.game.rho)
    out = {
        "value": rep.value,
        "separating": rep.separating,
        "argmin_alpha": rep.argmin_alpha.weights.tolist(),
        "argmin_model": rep.argmin_model,
        "per_model_kl": rep.per_model_value,
        "per_model_member": rep.membership,
    }
    if not rep.separating:
        found = find_alpha_star(rep)
        if found is not None:
            out["alpha_star_model"] = found[0]
            out["alpha_star"] = found[1].weights.tolist()
    _emit(out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = _load(args)
    grid = _grid(args, cfg)
    ps = ci_payoff_set(cfg.game, grid)
    mixed, alpha = stackelberg(cfg.game, grid)
    pure, _ = stackelberg(cfg.game, grid, pure=True)
    out = {
        "W_CI_hi": ps.hi,
        "W_CI_lo": ps.lo,
        "kappa_plus": ps.kappa_plus,
        "kappa_minus": ps.kappa_minus,
        "stackelberg": mixed,
        "stackelberg_alpha": alpha.weights.tolist(),
        "stackelberg_pure": pure,
        "reputation_bound_if_alpha_star": None,
        "grid": ps.grid_resolution,
        "note": _BOUNDS_NOTE,
    }
    found = find_alpha_star(separation_value(cfg.framework, cfg.game.rho))
    if found is not None:
        out["reputation_bound_if_alpha_star"] = reputation_lower_bound(cfg.game, found[1])
        out["alpha_star"] = found[1].weights.tolist()
    _emit(out)
    return EXIT_OK


def cmd_stackelberg(args) -> int:
    cfg = _load(args)
    grid = _grid(args, cfg)
    mixed, alpha = stackelberg(cfg.game, grid)
    pure, pure_alpha = stackelberg(cfg.game, grid, pure=True)
    _emit({
        "stackelberg": mixed,
        "stackelberg_alpha": alpha.weights.tolist(),
        "stackelberg_pure": pure,
        "stackelberg_pure_alpha": pure_alpha.weights.tolist(),
        "grid": grid,
    })
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    if cfg.simulation is None:
        raise ConfigError("config has no 'simulation' block")
    sim = cfg.simulation
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.delta is not None:
        overrides["delta"] = args.delta
    if sim.master_seed is None and "master_seed" not in overrides:
        overrides["master_seed"] = secrets.randbits(48)  # echoed in the summary
    if overrides:
        sim = dataclasses.replace(sim, **overrides)
    try:
        summary, batch = monte_carlo(cfg.game, cfg.framework, sim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        TrajectoryRecord.from_batch(batch, 0).to_csv(os.path.join(out_dir, "trajectory.csv"))
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write results: {exc}", file=sys.stderr)
        return EXIT_IO
    _emit(summary.to_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "all":
        rows = run_all()
    elif args.suite in SUITES:
        rows = run_suite(args.suite)
    else:
        print(f"unknown suite {args.suite!r}; know: all, {', '.join(SUITES)}",
              file=sys.stderr)
        return EXIT_CONFIG
    print(format_results(rows))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_VERIFY_FAILED


def cmd_scenario(args) -> int:
    if args.action == "list":
        for name, (fn, sig) in SCENARIOS.items():
            params = ", ".join(k if d is None else f"{k}={d}" for k, d in sig)
            print(f"{name}({params})")
        return EXIT_OK
    # emit
    if not args.name:
        raise ConfigError("scenario emit needs a scenario name")
    params = {}
    for item in args.params:
        if "=" not in item:
            raise ConfigError(f"scenario parameters look like key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            params[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"parameter {key!r}: {val!r} is not a number") from exc
    try:
        doc = emit_scenario_document(args.name, params)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{args.name}.json")
            dump_document(doc, path)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(path)
    else:
        _emit(doc)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The repgame parser, built once per process: building it costs about
    twenty parses, and parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON experiment config")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, help="override master_seed")
    common.add_argument("--grid", type=float, help="override grid resolution")
    common.add_argument("--runs", type=int, help="override Monte Carlo run count")
    common.add_argument("--delta", type=float, help="override the discount factor")

    parser = argparse.ArgumentParser(
        prog="repgame",
        description="Separation tests, payoff bounds, and misspecified-belief "
                    "simulations for reputation games.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check-separation", parents=[common],
                   help="decide whether the framework is commitment-separating"
                   ).set_defaults(fn=cmd_check_separation)
    sub.add_parser("bounds", parents=[common],
                   help="payoff interval, commitment values, reputation floor"
                   ).set_defaults(fn=cmd_bounds)
    sub.add_parser("stackelberg", parents=[common],
                   help="commitment payoffs under adversarial tie-breaking"
                   ).set_defaults(fn=cmd_stackelberg)
    sub.add_parser("simulate", parents=[common],
                   help="Monte Carlo belief dynamics; writes CSV + JSON summary"
                   ).set_defaults(fn=cmd_simulate)
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the self-check suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          help="suite name or 'all' (default)")
    p_verify.set_defaults(fn=cmd_verify)
    p_scen = sub.add_parser("scenario", parents=[common],
                            help="list canned scenarios or emit one as JSON")
    p_scen.add_argument("action", choices=("list", "emit"))
    p_scen.add_argument("name", nargs="?", help="scenario name (for emit)")
    p_scen.add_argument("params", nargs="*", default=[],
                        help="scenario parameters as key=value")
    p_scen.set_defaults(fn=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, LatticeCapError) as exc:
        # LatticeCapError: a lattice an answer needs, such as kappa's
        # mixed-reply lattice over many tied replies, is too big to list
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
