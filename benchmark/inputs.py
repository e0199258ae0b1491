"""Seeded inputs for the four benchmark workloads.

Everything here is plain numpy: the program under test receives only the
JSON config documents built below, and the ground truth that comes with each
document (``truth``) is known from the construction, not from repgame.

A workload run is a sequence of rounds. Round ``r`` of workload ``w`` under
seed ``s`` draws from ``numpy.random.default_rng([s, tag(w), r])``, so the
same seed always gives the same documents, every round differs from the last,
and every round has the same make-up (the same kinds of answers in the same
order), which keeps per-round timings comparable between runs.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field

import numpy as np

# Short-run and long-run payoffs shared by the canned scenarios (rows a_h, a_l;
# columns b_h, b_l). V is the short-run player's ex-ante payoff v(a, b).
PC_U = np.array([[2.0, 0.0], [3.0, 1.0]])
PC_V = np.array([[3.0, 2.0], [0.0, 1.0]])

# Fixed input of the simulate workload's long shape. It does not depend on the
# seed: its answer fails on every run (see README, "One kept failure").
LONG_SHAPE = {"p": 0.6, "q": 0.3, "epsilon": 0.15, "runs": 200, "horizon": 5000,
              "master_seed": 20260816, "delta": 0.95}

LATTICE_GRID = 0.05   # explicit three-action games
HULL_VS_KL_CASES = 50   # includes two of the suite's three-action cases
VERIFY_SUITES = ("stackelberg", "separation", "hull-vs-kl", "collapse", "survival",
                 "tail-bound", "normal-misspec", "perturbation", "plumbing")


@dataclass
class Case:
    """One answer: the subcommand, its config document and the known truth."""

    kind: str
    command: list[str]
    doc: dict | None = None
    truth: dict = field(default_factory=dict)


def round_rng(seed: int, workload: str, rnd: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), rnd])


def _simplex(rng, n: int, floor: float = 0.04) -> np.ndarray:
    return floor + (1.0 - n * floor) * rng.dirichlet(np.ones(n))


def _f(x) -> list:
    return np.asarray(x, dtype=float).tolist()


# ---------------------------------------------------------------------------
# canned-scenario parameters


def _pc_params(rng, *, separating: bool) -> dict:
    p = float(rng.uniform(0.55, 0.95))
    q = float(rng.uniform(0.05, p - 0.1))
    eps = float(rng.uniform(0.2, 0.8) * (1.0 - p)) if separating else 0.0
    return {"p": p, "q": q, "epsilon": eps}


def _ce_params(rng) -> dict:
    while True:
        p = float(rng.uniform(0.55, 0.9))
        q = float(rng.uniform(0.1, p - 0.1))
        x = float(rng.uniform(0.55, 0.8))
        x_eps = float(rng.uniform(x + 0.02, 0.97))
        eps = (x_eps / x - 1.0) * (p - q)
        if eps < 0.9 * (1.0 - p):
            return {"p": p, "q": q, "epsilon": eps, "x": x}


def _ts_params(rng, *, separating: bool) -> dict:
    while True:
        p = float(rng.uniform(0.5, 0.85))
        q = float(rng.uniform(0.1, p - 0.1))
        r = float(rng.uniform(0.05, 0.6) * (1.0 - p))
        x = float(rng.uniform(0.55, 0.9))
        eps = float(rng.uniform(0.005, 0.05)) if separating else 0.0
        if 1.0 - (x * p + (1.0 - x) * q) - r - eps > 0.02:
            return {"p": p, "q": q, "r": r, "epsilon": eps, "x": x}


def x_eps(params: dict) -> float:
    """Counter-example mixture that reproduces the believed slice."""
    return params["x"] * (1.0 + params["epsilon"] / (params["p"] - params["q"]))


def scenario_game(name: str, params: dict) -> dict:
    """Monitoring rows and ex-ante payoff matrices of a canned scenario."""
    p, q = params["p"], params["q"]
    if name == "three_signal":
        r = params["r"]
        rho = np.array([[p, 1.0 - p - r, r], [q, 1.0 - q - r, r]])
    else:
        rho = np.array([[p, 1.0 - p], [q, 1.0 - q]])
    return {"rho": rho, "u": PC_U, "v": PC_V}


# ---------------------------------------------------------------------------
# explicit games and frameworks


def _kernels_with_slice(rng, slice_: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-action kernels K[a] with sum_a c[a] K[a] = slice_, all rows positive."""
    n_a, n_y = len(c), len(slice_)
    D = np.stack([_simplex(rng, n_y) for _ in range(n_a)])
    dev = D - c @ D
    s = 0.5 * float(slice_.min()) / max(float(np.abs(dev).max()), 1e-12)
    return slice_[None, :] + min(s, 1.0) * dev


def outside_slice(rng, R: np.ndarray, margin: float):
    """A signal law q with h.q >= max_a h.R[a] + margin for a known h, |h|_inf <= 1.

    q mixes a random hull point toward the simplex vertex h favours most, so it
    has full support. When the hull leaves no room for the margin asked for,
    it is halved. Returns (q, h, measured margin).
    """
    n_a, n_y = R.shape
    for attempt in itertools.count(1):
        if attempt % 100 == 0:
            margin /= 2.0
        h = rng.uniform(-1.0, 1.0, n_y)
        z = float((R @ h).max())
        j = int(np.argmax(h))
        if h[j] - z < 2.0 * margin:
            continue
        base = rng.dirichlet(np.ones(n_a)) @ R
        t = (z + margin - base @ h) / (h[j] - base @ h)
        if 0.0 < t <= 0.8:
            q = (1.0 - t) * base
            q[j] += t
            q /= q.sum()
            return q, h, float(q @ h - (R @ h).max())


def explicit_framework(rng, R: np.ndarray, inside: list[bool], margins: list[float],
                       *, correct_normal: bool) -> tuple[dict, dict]:
    """Framework document whose model m has its commitment slice inside the hull
    (an explicit mixture alpha.R) when inside[m], else outside with a known
    separating hyperplane and margin."""
    n_a, n_y = R.shape
    n_m = len(inside)
    c = rng.dirichlet(np.ones(n_a))
    kernels, slices, truth_models = [], [], []
    for m in range(n_m):
        if inside[m]:
            alpha = rng.dirichlet(np.ones(n_a))
            s = alpha @ R
            truth_models.append({"inside": True, "alpha": _f(alpha)})
        else:
            s, h, got = outside_slice(rng, R, margins[m])
            truth_models.append({"inside": False, "h": _f(h), "margin": got})
        normal = R if correct_normal else np.stack([_simplex(rng, n_y) for _ in range(n_a)])
        kernels.append([_f(normal), _f(_kernels_with_slice(rng, s, c))])
        slices.append(s)
    prior = _simplex(rng, 2 * n_m, floor=0.02).reshape(2, n_m)
    doc = {
        "models": [f"m{m}" for m in range(n_m)],
        "kernels": kernels,
        "prior": _f(prior),
        "commitment_action": _f(c),
        "normal_correctly_specified": bool(correct_normal),
    }
    return doc, {"models": truth_models, "slices": _f(np.stack(slices)),
                 "attainable": any(inside)}


TIE_TOL = 1e-9  # short-run payoff ties, as in repgame.scores


def pure_nash(u: np.ndarray, v: np.ndarray) -> list[tuple[int, int]]:
    """Pure stage equilibria (a, b) of long-run payoffs u and short-run v."""
    return [(a, b) for a in range(u.shape[0]) for b in range(u.shape[1])
            if u[a, b] >= u[:, b].max() - 1e-12 and v[a, b] >= v[a].max() - TIE_TOL]


def explicit_game(rng, n_a: int, n_y: int, n_b: int, *, tie: bool = False,
                  pure_equilibrium: bool = False) -> dict:
    """Random game; with ``tie`` the short-run player is indifferent between
    b0 and b1 against long-run action a0, so mixed replies enter the score LPs.
    ``pure_equilibrium`` redraws until the stage game has a pure equilibrium."""
    while True:
        R = np.stack([_simplex(rng, n_y) for _ in range(n_a)])
        u = np.round(rng.uniform(0.0, 4.0, (n_a, n_b)), 2)
        vt = rng.normal(0.0, 1.0, (n_b, n_y))
        if tie:
            d = rng.normal(0.0, 1.0, n_y)
            d -= (d @ R[0]) / (R[0] @ R[0]) * R[0]
            vt[1] = vt[0] + d
        if not pure_equilibrium or pure_nash(u, R @ vt.T):
            break
    return {
        "actions_long": [f"a{i}" for i in range(n_a)],
        "actions_short": [f"b{i}" for i in range(n_b)],
        "signals": [f"y{i}" for i in range(n_y)],
        "u": _f(u), "v_tilde": _f(vt), "rho": _f(R),
    }


# ---------------------------------------------------------------------------
# workloads


def bounds_round(seed: int, rnd: int) -> list[Case]:
    rng = round_rng(seed, "bounds", rnd)
    cases = []

    def scenario(name, params, grid, attainable):
        doc = {"scenario": {"name": name, "params": params}}
        truth = {"scenario": name, "params": params, "grid": grid,
                 "attainable": attainable, **scenario_game(name, params)}
        cases.append(Case(f"{name}@{grid:g}", ["bounds", "--grid", repr(grid)],
                          doc, truth))

    scenario("product_choice", _pc_params(rng, separating=False), 1e-2, True)
    scenario("product_choice", _pc_params(rng, separating=True), 5e-3, False)
    scenario("counter_example", _ce_params(rng), 2e-3, True)
    scenario("three_signal", _ts_params(rng, separating=False), 1e-2, True)
    scenario("three_signal", _ts_params(rng, separating=True), 5e-3, False)
    scenario("product_choice", _pc_params(rng, separating=False), 1e-3, True)
    # The attainable game has two signals (see INSIDE_SHAPES). Both games have a
    # pure stage equilibrium: on games without one the grid bracket can come
    # out empty (W_CI_lo > W_CI_hi; see README, "Left out").
    for tie, n_y, n_b, inside in ((True, 2, 2, True), (False, 3, 3, False)):
        game = explicit_game(rng, 3, n_y, n_b, tie=tie, pure_equilibrium=True)
        R = np.asarray(game["rho"])
        fw, fw_truth = explicit_framework(rng, R, [inside], [0.05], correct_normal=True)
        truth = {"scenario": None, "grid": LATTICE_GRID, "attainable": inside,
                 "rho": R, "u": np.asarray(game["u"]),
                 "v": R @ np.asarray(game["v_tilde"]).T, **fw_truth}
        kind = f"three_action{'_tie' if tie else ''}@{LATTICE_GRID:g}"
        cases.append(Case(kind, ["bounds", "--grid", repr(LATTICE_GRID)],
                          {"game": game, "framework": fw}, truth))
    return cases


def separation_case(rng, shape: tuple[int, int, int], n_inside: int,
                    small_margin: bool, correct_normal: bool) -> Case:
    """A framework of (actions, signals, models) = shape whose verdict is known:
    ``n_inside`` of its models have their commitment slice inside the hull."""
    n_a, n_y, n_m = shape
    game = explicit_game(rng, n_a, n_y, 2)
    R = np.asarray(game["rho"])
    flags = [m < n_inside for m in range(n_m)]
    flags = [flags[i] for i in rng.permutation(n_m)]
    lo, hi = (1e-3, 5e-3) if small_margin else (0.02, 0.15)
    margins = [float(rng.uniform(lo, hi)) for _ in range(n_m)]
    fw, truth = explicit_framework(rng, R, flags, margins, correct_normal=correct_normal)
    truth["rho"] = R
    truth["lattice"] = n_a == 2 and bool(rng.random() < 0.25)
    kind = "inside" if n_inside else ("outside_small" if small_margin else "outside")
    return Case(kind, ["check-separation"], {"game": game, "framework": fw}, truth)


# A slice strictly inside a three-action, three-signal hull: the projection
# takes about 300 conditional-gradient iterations here (2 to 4 is typical).
FIXED_INTERIOR = {"rho": [[0.057, 0.491, 0.452], [0.282, 0.458, 0.26],
                          [0.594, 0.213, 0.193]],
                  "alpha": [0.303, 0.503, 0.194]}


def fixed_interior_case() -> Case:
    R = np.asarray(FIXED_INTERIOR["rho"])
    alpha = np.asarray(FIXED_INTERIOR["alpha"])
    s = alpha @ R
    game = {"actions_long": ["a0", "a1", "a2"], "actions_short": ["b0", "b1"],
            "signals": ["y0", "y1", "y2"], "u": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            "v_tilde": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "rho": _f(R)}
    fw = {"models": ["m0"], "kernels": [[_f(R), _f(np.tile(s, (3, 1)))]],
          "prior": [[0.5], [0.5]], "commitment_action": [1 / 3, 1 / 3, 1 / 3],
          "normal_correctly_specified": True}
    truth = {"rho": R, "slices": _f(s[None, :]), "attainable": True, "lattice": False,
             "models": [{"inside": True, "alpha": _f(alpha)}]}
    return Case("inside_fixed", ["check-separation"], {"game": game, "framework": fw},
                truth)


# (actions, signals) of the drawn frameworks. Attainable frameworks with three
# actions get two signals: with three or more, a slice inside the hull can send
# the KL projection to thousands of conditional-gradient iterations, up to its
# cap of 100k (about 100 s), which would make run times unbounded. The slow
# path stays in every round through FIXED_INTERIOR.
INSIDE_SHAPES = [(2, 2), (2, 3), (2, 4), (3, 2)]
OUTSIDE_SHAPES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]


def separation_round(seed: int, rnd: int) -> list[Case]:
    """Every round has the same make-up: each (actions, signals, models) shape
    the same number of times, so per-round costs compare across seeds."""
    rng = round_rng(seed, "separation", rnd)
    cases = []
    for cycle in range(4):
        for n_a, n_y in INSIDE_SHAPES:
            for n_m in (1, 2, 3):
                cases.append(separation_case(rng, (n_a, n_y, n_m), 1 + cycle % n_m,
                                             False, cycle % 2 == 0))
    for cycle in range(3):
        for n_a, n_y in OUTSIDE_SHAPES:
            for n_m in (1, 2, 3):
                cases.append(separation_case(rng, (n_a, n_y, n_m), 0, cycle == 0,
                                             cycle % 2 == 0))
    cases.append(fixed_interior_case())
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def _pc_sim_doc(params: dict, sim: dict) -> dict:
    return {"scenario": {"name": "product_choice", "params": params}, "simulation": sim}


def simulate_round(seed: int, rnd: int) -> list[Case]:
    rng = round_rng(seed, "simulate", rnd)
    cases = []

    def add(kind, params, sim):
        cases.append(Case(kind, ["simulate"], _pc_sim_doc(params, sim),
                          {"params": params, "separating": params["epsilon"] > 0}))

    def seed48():
        return int(rng.integers(0, 2**48))

    a_h = float(rng.uniform(0.0, 0.4))
    add("wide", _pc_params(rng, separating=True),
        {"delta": 0.95, "runs": 10_000, "horizon": 400, "master_seed": seed48(),
         "normal_strategy": [a_h, 1.0 - a_h]})
    long = LONG_SHAPE
    add("long", {k: long[k] for k in ("p", "q", "epsilon")},
        {"delta": long["delta"], "runs": long["runs"], "horizon": long["horizon"],
         "master_seed": long["master_seed"], "normal_strategy": [0.0, 1.0]})
    blocks = rng.uniform(0.0, 1.0, 8)
    script = [[float(w), 1.0 - float(w)] for w in np.repeat(blocks, 50)]
    add("scripted", _pc_params(rng, separating=True),
        {"delta": 0.95, "runs": 2000, "horizon": 400, "master_seed": seed48(),
         "normal_strategy": script})
    return cases


def verify_round(seed: int, rnd: int) -> list[Case]:
    """The verify suites are fixed by their own seeds; the workload seed does not
    change them."""
    return [Case(name, ["verify", name]) for name in VERIFY_SUITES]


ROUNDS = {
    "bounds": bounds_round,
    "separation": separation_round,
    "simulate": simulate_round,
    "verify": verify_round,
}


def cli_flow(workload: str, seed: int) -> list[tuple[list[str], dict | None]]:
    """The README command flow timed as cli_s: (argv, config document) steps.

    A ``{config}`` argument is replaced by the path the document is written to;
    ``{out}`` by a fresh output directory.
    """
    rng = round_rng(seed, "cli-" + workload, 0)
    if workload == "bounds":
        params = _pc_params(rng, separating=True)
        return [(["bounds", "--config", "{config}"],
                 {"scenario": {"name": "product_choice", "params": params}})]
    if workload == "separation":
        params = _pc_params(rng, separating=True)
        emit = ["scenario", "emit", "product_choice"] + [
            f"{k}={v!r}" for k, v in params.items()] + ["--out", "{out}"]
        return [(emit, None),
                (["check-separation", "--config", "{out}/product_choice.json"], None)]
    if workload == "simulate":
        params = _pc_params(rng, separating=True)
        sim = {"delta": 0.95, "runs": 500, "horizon": 300, "master_seed": 42,
               "normal_strategy": [0.0, 1.0]}
        return [(["simulate", "--config", "{config}", "--out", "{out}", "--runs", "500",
                  "--seed", str(int(rng.integers(0, 2**31)))], _pc_sim_doc(params, sim))]
    return [(["verify", "separation"], None)]
