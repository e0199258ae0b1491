"""Checks of repgame's answers against computations made apart from its solvers.

Each ``check_*`` returns a list of problems (empty when the answer is right).
``check_simulate`` also says whether the answer hit the one fault the
benchmark keeps on purpose: a null decay slope under a separating framework.
"""

from __future__ import annotations

import csv

import numpy as np

from repgame.beliefs import BeliefState, bayes_step
from repgame.bruteforce import grid_min_kl_forward
from repgame.game import Distribution

from inputs import TIE_TOL, pure_nash, x_eps

CI_TOL = 5e-3          # tolerance of the ci-bounds suite
ZERO_KL = 1e-8         # find_alpha_star's vanishing separation value
WITNESS_TOL = 1e-8     # an attaining action reproduces its slice this closely
FW_GAP = 1e-10         # gap at which the KL projection stops
LATTICE_RES = 1e-5     # resolution of the two-action lattice audit
RECURSION_TOL = 1e-9   # bayes_step recursion vs the batch posterior


def _lattice(n: int, k: int) -> np.ndarray:
    """Every mixed action with coordinates on multiples of 1/k (n = 2 or 3)."""
    if n == 2:
        i = np.arange(k + 1)
        counts = np.stack([i, k - i], axis=1)
    else:
        counts = np.array([(i, j, k - i - j) for i in range(k + 1)
                           for j in range(k + 1 - i)])
    pts = counts / k
    return pts / pts.sum(axis=1, keepdims=True)


def _worst_reply_payoff(alpha: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min over the short-run best replies to alpha of u(alpha, b), row-wise."""
    alpha = np.atleast_2d(alpha)
    vals = alpha @ v
    best = vals >= vals.max(axis=1, keepdims=True) - TIE_TOL
    return np.where(best, alpha @ u, np.inf).min(axis=1)


def ci_closed_form(p: float, q: float) -> float:
    return max(1.0, 2.0 - (1.0 - p) / (p - q))


def _attaining_weight(scenario: str | None, params: dict | None) -> float | None:
    """Weight on the first long-run action of the mixture attaining the slice."""
    if scenario == "product_choice":
        return 1.0
    if scenario == "three_signal":
        return params["x"]
    if scenario == "counter_example":
        return x_eps(params)
    return None


def check_bounds(truth: dict, out: dict) -> list[str]:
    probs = []
    u, v, R = truth["u"], truth["v"], truth["rho"]
    hi, lo, grid = out["W_CI_hi"], out["W_CI_lo"], truth["grid"]
    if not u.min() - 1e-12 <= lo <= hi + 1e-12 <= u.max() + 2e-12:
        probs.append(f"[lo, hi] = [{lo}, {hi}] not inside the range of u")
    for a, b in pure_nash(u, v):
        if not lo - 1e-9 <= u[a, b] <= hi + 1e-9:
            probs.append(f"stage Nash payoff u{a, b} = {u[a, b]} outside [{lo}, {hi}]")
    name = truth["scenario"]
    if name in ("product_choice", "counter_example"):
        want = ci_closed_form(truth["params"]["p"], truth["params"]["q"])
        if abs(hi - want) > CI_TOL:
            probs.append(f"hi {hi} vs closed form {want}")
        if abs(lo - 1.0) > CI_TOL:
            probs.append(f"lo {lo} vs 1")
    if name is not None:
        if not 2.5 - grid - 1e-9 <= out["stackelberg"] < 2.5:
            probs.append(f"mixed Stackelberg {out['stackelberg']} not in [2.5 - {grid}, 2.5)")
        if abs(out["stackelberg_pure"] - 2.0) > 1e-12:
            probs.append(f"pure Stackelberg {out['stackelberg_pure']} != 2")
    k = round(1.0 / grid)
    mixed = float(_worst_reply_payoff(_lattice(R.shape[0], k), u, v).max())
    pure = float(_worst_reply_payoff(np.eye(R.shape[0]), u, v).max())
    if abs(out["stackelberg"] - mixed) > 1e-12 or abs(out["stackelberg_pure"] - pure) > 1e-12:
        probs.append(f"Stackelberg ({out['stackelberg']}, {out['stackelberg_pure']}) vs "
                     f"lattice recomputation ({mixed}, {pure})")

    floor = out["reputation_bound_if_alpha_star"]
    if (floor is not None) != truth["attainable"]:
        probs.append(f"reputation floor {floor} but attainable={truth['attainable']}")
    elif floor is not None:
        alpha = np.asarray(out["alpha_star"])
        want_floor = float(_worst_reply_payoff(alpha, u, v)[0])
        if abs(floor - want_floor) > 1e-12:
            probs.append(f"floor {floor} vs worst best-reply payoff {want_floor}")
        expect = _attaining_weight(name, truth.get("params"))
        if expect is not None and abs(alpha[0] - expect) > 1e-7:
            probs.append(f"alpha_star[0] {alpha[0]} vs {expect}")
        if name is None:
            slices = np.asarray(truth["slices"])
            dev = np.abs(alpha @ R - slices).max(axis=1).min()
            if dev > WITNESS_TOL:
                probs.append(f"alpha_star reproduces no commitment slice (dev {dev:.2e})")
    return probs


def kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * (np.log(p) - np.log(q))))


def check_separation(truth: dict, out: dict) -> list[str]:
    probs = []
    R = truth["rho"]
    slices = np.asarray(truth["slices"])
    models = truth["models"]
    names = [f"m{m}" for m in range(len(models))]
    if out["separating"] == truth["attainable"]:
        probs.append(f"separating={out['separating']} but attainable={truth['attainable']}")
    member = [out["per_model_member"][n] for n in names]
    if member != [m["inside"] for m in models]:
        probs.append(f"per-model membership {member} vs {[m['inside'] for m in models]}")
    value = out["value"]
    if truth["attainable"]:
        if value > ZERO_KL:
            probs.append(f"value {value:.3e} > {ZERO_KL} for a slice inside the hull")
        if "alpha_star" not in out:
            probs.append("no alpha_star for an attainable framework")
        else:
            i = names.index(out["alpha_star_model"])
            dev = float(np.abs(np.asarray(out["alpha_star"]) @ R - slices[i]).max())
            if not models[i]["inside"] or dev > WITNESS_TOL:
                probs.append(f"alpha_star of {names[i]} misses its slice by {dev:.2e}")
    else:
        floor = min(m["margin"] for m in models) ** 2 / 2.0
        if not value >= floor:
            probs.append(f"value {value:.6e} below the Pinsker floor {floor:.6e}")
        if "alpha_star" in out:
            probs.append("alpha_star reported for a separating framework")
    i = names.index(out["argmin_model"])
    recomputed = kl(np.asarray(out["argmin_alpha"]) @ R, slices[i])
    if abs(recomputed - value) > 1e-12:
        probs.append(f"value {value!r} vs KL(rho_argmin || slice) = {recomputed!r}")
    if value != min(out["per_model_kl"].values()):
        probs.append("value is not the smallest per-model KL")
    if truth.get("lattice"):
        grid = min(grid_min_kl_forward(s, R, LATTICE_RES)[0] for s in slices)
        if value > grid + FW_GAP:
            probs.append(f"value {value!r} above the lattice minimum {grid!r}")
    return probs


def read_trajectory(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


def _recursion_dev(framework, batch, sim: dict, actions) -> float:
    """Largest relative gap between a bayes_step recursion and batch row 0."""
    script = sim["normal_strategy"]  # also the conjecture: no slp_conjecture is set
    stationary = not isinstance(script[0], list)
    conj = Distribution(actions, script) if stationary else None
    st = BeliefState.from_prior(framework)
    worst = 0.0
    for t in range(batch.horizon):
        mu = batch.mu[0, t]
        worst = max(worst, abs(st.reputation - mu) / max(mu, 1e-300))
        a = conj if stationary else Distribution(actions, script[t])
        st = bayes_step(st, framework, int(batch.signals[0, t]), a)
    return worst


def check_simulate(truth: dict, sim: dict, out: dict, summary: dict,
                   trajectory: dict[str, list[str]], batch, framework,
                   actions) -> tuple[list[str], bool]:
    probs = []
    if out != summary:
        probs.append("stdout report differs from summary.json")
    T = batch.horizon
    if (out["runs"], out["horizon"], batch.runs) != (sim["runs"], sim["horizon"], sim["runs"]):
        probs.append(f"shape {out['runs']}x{out['horizon']} vs {sim['runs']}x{sim['horizon']}")
    mu = batch.mu
    if not (np.isfinite(mu).all() and mu.min() >= 0.0 and mu.max() <= 1.0):
        probs.append(f"mu outside [0, 1]: [{mu.min()}, {mu.max()}]")
    cols = {"mu": mu[0, :T], "ell": batch.ell[0], "u_flow": batch.u_flow[0],
            "tv_gap": batch.tv_gap[0], "action": batch.actions[0],
            "signal": batch.signals[0]}
    if len(trajectory["t"]) != T:
        probs.append(f"trajectory.csv has {len(trajectory['t'])} rows, horizon {T}")
    else:
        for name, want in cols.items():
            got = np.array([float(x) for x in trajectory[name]])
            if not np.array_equal(got, want):
                probs.append(f"trajectory.csv column {name} differs from batch row 0")
    dev = _recursion_dev(framework, batch, sim, actions)
    if dev > RECURSION_TOL:
        probs.append(f"bayes_step recursion departs from run 0 by {dev:.2e} (relative)")
    w = (1.0 - sim["delta"]) * sim["delta"] ** np.arange(T)
    disc = float((mu[:, :T] @ w).mean())
    if abs(disc - out["disc_avg_mu"]) > 1e-12:
        probs.append(f"disc_avg_mu {out['disc_avg_mu']!r} vs recomputed {disc!r}")
    if abs(float(mu[:, T].mean()) - out["mu_final_mean"]) > 1e-15:
        probs.append("mu_final_mean differs from the batch")
    fault = truth["separating"] and out["decay_slope"] is None
    return probs, fault


def check_verify(text: str, rc: int) -> list[str]:
    lines = text.strip().splitlines()
    rows = [ln for ln in lines if ln.startswith("[")]
    probs = [ln for ln in rows if not ln.startswith("[PASS]")]
    if rc != 0:
        probs.append(f"exit code {rc}")
    if not rows or lines[-1] != f"{len(rows)}/{len(rows)} checks passed":
        probs.append(f"summary line {lines[-1] if lines else ''!r}")
    return probs
