"""Self-contained verification suites behind ``repgame verify``.

Each suite re-derives a known quantity two independent ways (closed form vs
grid, projection vs LP, analytic bound vs Monte Carlo) and reports pass/fail
rows. The suites are deliberately deterministic: fixed seeds, fixed grids,
fixed scenario parameters, so a failure is a regression and not noise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .beliefs import (BeliefState, SimulationConfig, azuma_diagnostic, bayes_step,
                      decay_rate_fit, discounted_kl_certificate, monte_carlo,
                      predictive, simulate_batch, simulate_run)
from .bruteforce import grid_min_kl_forward, grid_min_kl_reverse
from .configio import (emit_scenario_document, framework_to_dict, game_to_dict,
                       load_config, simulation_from_dict, simulation_to_dict)
from .divergence import (dc_dn, find_alpha_star, hull_membership, kl,
                         min_kl_over_attainable, normal_favoring_check,
                         separation_value, tv)
from .game import Distribution, SignalStructure
from .scenarios import (counter_example, normal_misspec_scenario, perturbation_sequence,
                        product_choice, three_signal)
from .scores import ci_payoff_set, reputation_lower_bound, stackelberg

__all__ = ["CheckResult", "SUITES", "run_suite", "run_all", "format_results"]

_SEED = 20260816


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: str
    threshold: str


def _row(suite: str, name: str, passed: bool, measured: str, threshold: str
         ) -> CheckResult:
    return CheckResult(suite, name, bool(passed), measured, threshold)


def _runtime_row(suite: str, t0: float, limit: float) -> CheckResult:
    dt = time.perf_counter() - t0
    return _row(suite, "runtime", dt < limit, f"{dt:.1f} s", f"< {limit:.0f} s")


# ---------------------------------------------------------------------------
# 1. complete-information payoff interval vs the closed form


def _ci_closed_form(p: float, q: float) -> float:
    return max(1.0, 2.0 - (1.0 - p) / (p - q))


def suite_ci_bounds() -> list[CheckResult]:
    t0 = time.perf_counter()
    rows = []
    game, _ = product_choice(0.9, 0.4, 0.0)
    ps = ci_payoff_set(game, 1e-3)
    rows.append(_row("ci-bounds", "hi at (0.9,0.4) grid 1e-3",
                     abs(ps.hi - 1.8) <= 5e-3, f"{ps.hi:.6f}", "1.8 +/- 5e-3"))
    rows.append(_row("ci-bounds", "lo at (0.9,0.4) grid 1e-3",
                     abs(ps.lo - 1.0) <= 5e-3, f"{ps.lo:.6f}", "1.0 +/- 5e-3"))
    sweep = [(0.9, 0.4), (0.8, 0.3), (0.75, 0.5), (0.7, 0.2), (0.85, 0.6),
             (0.95, 0.5), (0.6, 0.3), (0.65, 0.35), (0.6, 0.5), (0.55, 0.45)]
    worst = 0.0
    for p, q in sweep:
        g, _ = product_choice(p, q, 0.0)
        got = ci_payoff_set(g, 1e-2)
        worst = max(worst, abs(got.hi - _ci_closed_form(p, q)), abs(got.lo - 1.0))
    rows.append(_row("ci-bounds", "10-point (p,q) sweep vs closed form",
                     worst <= 5e-3, f"max dev {worst:.2e}", "<= 5e-3"))
    rows.append(_runtime_row("ci-bounds", t0, 60.0))
    return rows


# ---------------------------------------------------------------------------
# 2. commitment payoffs with adversarial tie-breaking


def suite_stackelberg() -> list[CheckResult]:
    grid = 1e-3
    game, _ = product_choice(0.9, 0.4, 0.0)
    mixed, _alpha = stackelberg(game, grid)
    pure, pure_alpha = stackelberg(game, grid, pure=True)
    return [
        _row("stackelberg", "mixed value within one grid step below 2.5",
             2.5 - grid - 1e-9 <= mixed < 2.5, f"{mixed:.6f}",
             f"[{2.5 - grid}, 2.5)"),
        _row("stackelberg", "pure value exactly 2",
             abs(pure - 2.0) <= 1e-12, f"{pure:.12f}", "2.0 +/- 1e-12"),
        _row("stackelberg", "pure argmax is the high action",
             pure_alpha.weights[0] == 1.0,
             str(tuple(float(w) for w in pure_alpha.weights)), "(1.0, 0.0)"),
    ]


# ---------------------------------------------------------------------------
# 3. separating vs attainable: decisions on the three canned families


def suite_separation() -> list[CheckResult]:
    rows = []
    game, fw = product_choice(0.6, 0.3, 0.1)
    rep = separation_value(fw, game.rho)
    rows.append(_row("separation", "product_choice(0.6,0.3,0.1) value",
                     abs(rep.value - 0.0225824) <= 1e-5, f"{rep.value:.7f}",
                     "0.0225824 +/- 1e-5"))
    gv, _ = grid_min_kl_forward(fw.commitment_slices[0], game.rho.matrix, 1e-6)
    rows.append(_row("separation", "projection vs 1e-6 grid oracle",
                     abs(rep.value - gv) <= 1e-8, f"|diff| = {abs(rep.value - gv):.2e}",
                     "<= 1e-8"))
    rows.append(_row("separation", "slice outside the attainable hull",
                     rep.separating and not rep.membership["m0"],
                     str(rep.membership), "member: False"))

    game_c, fw_c = counter_example(0.6, 0.3, 0.05, 0.55)
    rep_c = separation_value(fw_c, game_c.rho)
    rows.append(_row("separation", "counter_example separation vanishes",
                     rep_c.value <= 1e-8, f"{rep_c.value:.2e}", "<= 1e-8"))
    found = find_alpha_star(rep_c)
    x_eps = 0.55 * (1.0 + 0.05 / 0.3)
    ok = found is not None and abs(found[1].weights[0] - x_eps) <= 1e-7
    rows.append(_row("separation", "attaining action weight x_eps",
                     ok, "none" if found is None else f"{found[1].weights[0]:.9f}",
                     f"{x_eps:.7f} +/- 1e-7"))

    game_t, fw_t = three_signal(0.6, 0.3, 0.1, 0.02, 0.55)
    mem_t = hull_membership(fw_t.commitment_slice_dist(0), game_t.rho)
    game_t0, fw_t0 = three_signal(0.6, 0.3, 0.1, 0.0, 0.55)
    mem_t0 = hull_membership(fw_t0.commitment_slice_dist(0), game_t0.rho)
    rows.append(_row("separation", "three_signal eps>0 not attainable",
                     not mem_t.member, str(mem_t.member), "False"))
    rows.append(_row("separation", "three_signal eps=0 attainable",
                     mem_t0.member, str(mem_t0.member), "True"))
    return rows


# ---------------------------------------------------------------------------
# 4. LP membership vs KL projection vs dense grid on random instances


def _random_simplex(rng: np.random.Generator, n: int, floor: float) -> np.ndarray:
    while True:
        x = rng.dirichlet(np.ones(n))
        if x.min() >= floor:
            return x


def suite_hull_vs_kl(n_cases: int = 500) -> list[CheckResult]:
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    signals = ("y0", "y1", "y2")
    n_three_action = max(1, n_cases // 25)
    agree = 0
    worst_grid_gap = 0.0
    for i in range(n_cases):
        n_act = 3 if i < n_three_action else 2
        actions = tuple(f"a{j}" for j in range(n_act))
        rho = SignalStructure(actions, signals, np.stack(
            [_random_simplex(rng, 3, 0.05) for _ in range(n_act)]))
        if rng.random() < 0.5:
            alpha = rng.dirichlet(np.ones(n_act))
            q = Distribution(signals, alpha @ rho.matrix)  # exact hull point
            proj = min_kl_over_attainable(q, rho)
        else:
            while True:
                q = Distribution(signals, _random_simplex(rng, 3, 0.05))
                proj = min_kl_over_attainable(q, rho)
                if proj.value >= 2e-5:
                    break
        member = hull_membership(q, rho).member
        if member == (proj.value < 1e-7):
            agree += 1
        res = 1e-4 if n_act == 3 else 1e-5
        gv, _ = grid_min_kl_forward(q.weights, rho.matrix, res)
        worst_grid_gap = max(worst_grid_gap, abs(proj.value - gv))
    rows = [
        _row("hull-vs-kl", f"LP membership == (min-KL < 1e-7) on {n_cases} instances",
             agree == n_cases, f"{agree}/{n_cases}", f"{n_cases}/{n_cases}"),
        _row("hull-vs-kl", "projection vs dense grid",
             worst_grid_gap <= 1e-6, f"max gap {worst_grid_gap:.2e}", "<= 1e-6"),
        _runtime_row("hull-vs-kl", t0, 300.0),
    ]
    return rows


# ---------------------------------------------------------------------------
# 5. reputation collapse under a separating framework


def _collapse_batch(runs: int, horizon: int, epsilon: float = 0.15):
    game, fw = product_choice(0.6, 0.3, epsilon)
    a_l = Distribution(game.actions_long, np.array([0.0, 1.0]))
    cfg = SimulationConfig(delta=0.9, master_seed=_SEED, runs=runs,
                           true_type="normal", normal_strategy=a_l, horizon=horizon)
    return game, fw, simulate_batch(game, fw, cfg)


def suite_collapse() -> list[CheckResult]:
    t0 = time.perf_counter()
    game, fw, batch = _collapse_batch(runs=2000, horizon=400)
    T = batch.horizon
    rows = []

    fit = decay_rate_fit(batch.mu.mean(axis=0))
    rows.append(_row("collapse", "decay slope of ln mean reputation",
                     fit.slope < -0.01, f"{fit.slope:.4f}", "< -0.01"))

    vals = []
    for d in (0.9, 0.99, 0.999):
        w = (1.0 - d) * d ** np.arange(T)
        vals.append(float((batch.mu[:, :T] @ w).mean()))
    decreasing = vals[0] > vals[1] > vals[2]
    rows.append(_row("collapse", "discounted reputation falls with patience",
                     decreasing, " > ".join(f"{v:.4f}" for v in vals),
                     "strictly decreasing over delta in {0.9, 0.99, 0.999}"))
    rows.append(_row("collapse", "discounted reputation at delta=0.999",
                     vals[2] < 0.05, f"{vals[2]:.4f}", "< 0.05"))

    bound = 4.0 * game.v_tilde_sup * batch.mu[:, :T]
    worst = float((batch.ell - bound).max())
    rows.append(_row("collapse", "per-period loss within 4*||vt||*mu",
                     worst <= 1e-12, f"max excess {worst:.2e}", "<= 1e-12"))
    rows.append(_runtime_row("collapse", t0, 300.0))
    return rows


# ---------------------------------------------------------------------------
# 6. reputation survival: payoff floor and the per-path discounted-KL budget


def suite_survival() -> list[CheckResult]:
    t0 = time.perf_counter()
    game, fw = counter_example(0.6, 0.3, 0.05, 0.55)
    x_eps = 0.55 * (1.0 + 0.05 / 0.3)
    alpha_star = Distribution(game.actions_long, np.array([x_eps, 1.0 - x_eps]))
    cfg = SimulationConfig(delta=0.995, master_seed=_SEED + 1, runs=500,
                           true_type="normal", normal_strategy=alpha_star,
                           horizon=2500, alpha_star_target=alpha_star)
    summary, batch = monte_carlo(game, fw, cfg)
    floor = reputation_lower_bound(game, alpha_star) - 0.05
    cert = discounted_kl_certificate(batch, fw, "m0")
    rows = [
        _row("survival", "mean discounted payoff vs floor",
             summary.payoff >= floor, f"{summary.payoff:.4f} (se {summary.payoff_se:.4f})",
             f">= {floor:.4f}"),
        _row("survival", "discounted-KL budget holds on every run",
             cert.holds_all, f"{cert.holds_fraction:.1%} (max lhs {cert.lhs.max():.2e})",
             f"lhs <= {cert.rhs:.4e} on 100%"),
        _runtime_row("survival", t0, 300.0),
    ]
    return rows


# ---------------------------------------------------------------------------
# 7. concentration: empirical collapse tails under the analytic envelope


def suite_tail_bound() -> list[CheckResult]:
    t0 = time.perf_counter()
    game, fw, batch = _collapse_batch(runs=2000, horizon=256)
    zeta = separation_value(fw, game.rho).value
    report = azuma_diagnostic(batch, game, fw, zeta, checkpoints=[25, 50, 100, 200])
    rows = []
    for r in report.rows:
        se = math.sqrt(r.bound * (1.0 - r.bound) / batch.runs)
        ok = r.empirical_tail <= r.bound + 3.0 * se
        rows.append(_row("tail-bound", f"empirical tail at t={r.t}",
                         ok, f"{r.empirical_tail:.4f}",
                         f"<= {r.bound:.4f} + 3se({se:.4f})"))
    rows.append(_runtime_row("tail-bound", t0, 300.0))
    return rows


# ---------------------------------------------------------------------------
# 8. misspecified normal models: better-fitting commitment story wins


def suite_normal_misspec() -> list[CheckResult]:
    t0 = time.perf_counter()
    game, fw = normal_misspec_scenario()
    a_h = Distribution(game.actions_long, np.array([1.0, 0.0]))
    res = dc_dn(fw, game.rho, a_h)
    rows = [
        _row("normal-misspec", "d_C near frozen value",
             abs(res.d_c - 0.000825) <= 1e-5, f"{res.d_c:.7f}", "0.000825 +/- 1e-5"),
        _row("normal-misspec", "d_N near frozen value",
             abs(res.d_n - 0.045228) <= 1e-5, f"{res.d_n:.7f}", "0.045228 +/- 1e-5"),
        _row("normal-misspec", "commitment story fits better",
             res.d_c < res.d_n, f"{res.d_c:.6f} < {res.d_n:.6f}", "d_C < d_N"),
    ]
    p_star = a_h.weights @ game.rho.matrix
    gv, _ = grid_min_kl_reverse(p_star, fw.normal_kernels[0], 1e-5)
    rows.append(_row("normal-misspec", "d_N vs dense mixture grid",
                     abs(res.d_n - gv) <= 1e-5, f"|diff| = {abs(res.d_n - gv):.2e}",
                     "<= 1e-5"))

    cfg = SimulationConfig(delta=0.9, master_seed=_SEED + 2, runs=200,
                           true_type="normal", normal_strategy=a_h, horizon=1000)
    batch = simulate_batch(game, fw, cfg)
    frac = float((batch.mu[:, -1] >= 0.99).mean())
    rows.append(_row("normal-misspec", "posterior on commitment >= 0.99 by t=1000",
                     frac >= 0.95, f"{frac:.1%} of 200 runs", ">= 95%"))
    rows.append(_runtime_row("normal-misspec", t0, 300.0))
    return rows


# ---------------------------------------------------------------------------
# 9. perturbed families keep the well-specified model decisive


def suite_perturbation() -> list[CheckResult]:
    t0 = time.perf_counter()
    game, base = product_choice(0.6, 0.3, 0.15)
    seq = perturbation_sequence(game, base, 5)
    rows = []
    all_pass = all(normal_favoring_check(f, game.rho, ("m_good",)) for f in seq)
    rows.append(_row("perturbation", "normal-favoring inequality on all members",
                     all_pass, f"{len(seq)}/5 pass", "5/5"))
    gaps = [float(np.abs(f.normal_kernels[0] - base.normal_kernels[0]).max())
            for f in seq]
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    rows.append(_row("perturbation", "kernel distance to base shrinks",
                     shrinking and gaps[-1] < gaps[0],
                     " > ".join(f"{g:.4f}" for g in gaps), "monotone to 0"))
    try:
        perturbation_sequence(game, base, 1, shift_scale=4.0)
        rejected = False
    except ValueError:
        rejected = True
    rows.append(_row("perturbation", "oversized shift rejected",
                     rejected, str(rejected), "True"))

    fw3 = seq[2]  # n = 3
    a_l = Distribution(game.actions_long, np.array([0.0, 1.0]))
    cfg = SimulationConfig(delta=0.9, master_seed=_SEED + 3, runs=1000,
                           true_type="normal", normal_strategy=a_l, horizon=400)
    batch = simulate_batch(game, fw3, cfg)
    fit = decay_rate_fit(batch.mu.mean(axis=0))
    rows.append(_row("perturbation", "collapse slope on the n=3 member",
                     fit.slope < -0.01, f"{fit.slope:.4f}", "< -0.01"))
    r_n = max(tv(Distribution(game.signals, game.rho.matrix[a]),
                 Distribution(game.signals, fw3.normal_kernels[m, a]))
              for a in range(len(game.actions_long))
              for m in range(fw3.n_models))
    bound = 4.0 * game.v_tilde_sup * (batch.mu[:, :batch.horizon] + r_n)
    worst = float((batch.ell - bound).max())
    rows.append(_row("perturbation", "loss within 4*||vt||*(mu + r_n)",
                     worst <= 1e-12, f"max excess {worst:.2e} (r_n={r_n:.3f})",
                     "<= 1e-12"))
    rows.append(_runtime_row("perturbation", t0, 300.0))
    return rows


# ---------------------------------------------------------------------------
# 10. plumbing: identities, inequalities, determinism, round-trips


def suite_plumbing() -> list[CheckResult]:
    rows = []
    game, fw = product_choice(0.6, 0.3, 0.1)
    a_l = Distribution(game.actions_long, np.array([0.0, 1.0]))

    state = BeliefState.from_prior(fw)
    worst_mart = 0.0
    for path in ([], [0, 1, 1], [1, 1, 0, 0, 1]):
        st = state
        for y in path:
            st = bayes_step(st, fw, y, a_l)
        q = predictive(st, fw, a_l)
        e_mu = sum(q.weights[y] * bayes_step(st, fw, y, a_l).reputation
                   for y in range(len(fw.signals)))
        worst_mart = max(worst_mart, abs(e_mu - st.reputation))
    rows.append(_row("plumbing", "one-step martingale identity",
                     worst_mart <= 1e-10, f"max dev {worst_mart:.2e}", "<= 1e-10"))

    cfg = SimulationConfig(delta=0.9, master_seed=_SEED + 4, runs=1,
                           true_type="normal", normal_strategy=a_l, horizon=200)
    rec = simulate_run(game, fw, cfg)
    st = BeliefState.from_prior(fw)
    worst_rel = 0.0
    for t in range(rec.horizon):
        rel = abs(st.reputation - rec.mu[t]) / max(rec.mu[t], 1e-300)
        worst_rel = max(worst_rel, rel)
        st = bayes_step(st, fw, int(rec.signals[t]), a_l)
    rows.append(_row("plumbing", "batch vs recursive posterior",
                     worst_rel <= 1e-9, f"max rel dev {worst_rel:.2e}", "<= 1e-9"))

    rng = np.random.default_rng(_SEED + 5)
    worst_gibbs, worst_pinsker = 0.0, 0.0
    labels_cache: dict[int, tuple[str, ...]] = {}
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        labels = labels_cache.setdefault(n, tuple(f"y{i}" for i in range(n)))
        p = Distribution(labels, _random_simplex(rng, n, 1e-9))
        q = Distribution(labels, _random_simplex(rng, n, 1e-9))
        d = kl(p, q)
        worst_gibbs = min(worst_gibbs, d)
        worst_pinsker = min(worst_pinsker, d - 2.0 * tv(p, q) ** 2)
    rows.append(_row("plumbing", "divergence nonnegative on 1000 random pairs",
                     worst_gibbs >= -1e-15, f"min {worst_gibbs:.2e}", ">= -1e-15"))
    rows.append(_row("plumbing", "KL dominates 2*TV^2 on 1000 random pairs",
                     worst_pinsker >= -1e-12, f"min slack {worst_pinsker:.2e}",
                     ">= -1e-12"))

    rec2 = simulate_run(game, fw, cfg)
    same = (np.array_equal(rec.mu, rec2.mu) and np.array_equal(rec.signals, rec2.signals)
            and np.array_equal(rec.u_flow, rec2.u_flow))
    rows.append(_row("plumbing", "rerun with same seed is identical",
                     same, str(same), "True"))

    doc = emit_scenario_document("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.1})
    cfg_doc = load_config(doc)
    same_game = game_to_dict(cfg_doc.game) == doc["game"]
    same_fw = framework_to_dict(cfg_doc.framework) == doc["framework"]
    sim_doc = simulation_to_dict(cfg)
    sim_rt = simulation_to_dict(simulation_from_dict(sim_doc, game.actions_long))
    rows.append(_row("plumbing", "config emit/load round-trip",
                     same_game and same_fw and sim_rt == sim_doc,
                     f"game={same_game} framework={same_fw} simulation={sim_rt == sim_doc}",
                     "all True"))
    return rows


# ---------------------------------------------------------------------------

SUITES = {
    "ci-bounds": suite_ci_bounds,
    "stackelberg": suite_stackelberg,
    "separation": suite_separation,
    "hull-vs-kl": suite_hull_vs_kl,
    "collapse": suite_collapse,
    "survival": suite_survival,
    "tail-bound": suite_tail_bound,
    "normal-misspec": suite_normal_misspec,
    "perturbation": suite_perturbation,
    "plumbing": suite_plumbing,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; know {sorted(SUITES)}")
    return SUITES[name]()


def run_all() -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in SUITES:
        out.extend(run_suite(name))
    return out


def format_results(rows: list[CheckResult]) -> str:
    lines = []
    width = max(len(f"{r.suite}: {r.name}") for r in rows)
    for r in rows:
        tag = "PASS" if r.passed else "FAIL"
        label = f"{r.suite}: {r.name}"
        lines.append(f"[{tag}] {label:<{width}}  measured {r.measured}  "
                     f"(want {r.threshold})")
    n_fail = sum(not r.passed for r in rows)
    lines.append(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return "\n".join(lines)
