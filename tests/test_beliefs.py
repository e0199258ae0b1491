"""Belief updating and the vectorized simulator.

The heavyweight cross-check is replaying one batch row period by period
through the scalar single-step API; every panel column (mu, ell, u_flow,
tv_gap) must reproduce exactly, which pins the vectorized log-space update,
the forecast mixture, and the reply tie-breaking all at once.
"""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import expit, gammaln, logsumexp

import repgame.beliefs
from repgame.beliefs import (BeliefState, SimulationConfig, TrajectoryRecord,
                             _count_log_weights, _draw, _logsumexp, _reputation,
                             _resolve_horizon, _schedule,
                             azuma_diagnostic, bayes_step,
                             certificate_kl_ceiling, decay_rate_fit,
                             discounted_kl_certificate, monte_carlo,
                             predictive, simulate_batch, simulate_run)
from repgame.divergence import tv
from repgame.frameworks import TYPE_COMMIT, TYPE_NORMAL, Framework
from repgame.game import Distribution, SignalStructure, StageGame, mix_signal_dist
from repgame.scenarios import (counter_example, perturbation_sequence, product_choice,
                               three_signal)
from repgame.scores import BR_TIE_TOL, br2, optimality_loss


def a_dist(game, w):
    return Distribution(game.actions_long, np.asarray(w, dtype=float))


def test_from_prior(fw06):
    state = BeliefState.from_prior(fw06)
    assert np.allclose(state.posterior, fw06.prior)
    assert state.reputation == pytest.approx(0.5)


def test_predictive_hand_value(game06, fw06):
    a_h = a_dist(game06, [1.0, 0.0])
    q = predictive(BeliefState.from_prior(fw06), fw06, a_h)
    # 0.5 * fhat(y_h) + 0.5 * rho(y_h | a_h) = 0.5*0.7 + 0.5*0.6
    assert q["y_h"] == pytest.approx(0.65, abs=1e-12)
    assert q.labels == game06.signals


def test_bayes_step_hand_value(game06, fw06):
    a_h = a_dist(game06, [1.0, 0.0])
    state = bayes_step(BeliefState.from_prior(fw06), fw06, "y_h", a_h)
    assert state.reputation == pytest.approx(0.35 / 0.65, abs=1e-12)
    # string and integer signals mean the same thing
    state2 = bayes_step(BeliefState.from_prior(fw06), fw06, 0, a_h)
    assert state2.reputation == state.reputation


@pytest.mark.parametrize("signal", [-1, 2])
def test_bayes_step_rejects_a_signal_out_of_range(game06, fw06, signal):
    state = BeliefState.from_prior(fw06)
    with pytest.raises(ValueError, match="out of range"):
        bayes_step(state, fw06, signal, a_dist(game06, [0.0, 1.0]))


def test_posterior_is_martingale(game06, fw06):
    for w in ([1.0, 0.0], [0.3, 0.7]):
        conj = a_dist(game06, w)
        state = BeliefState.from_prior(fw06)
        q = predictive(state, fw06, conj)
        avg = sum(
            q.weights[y] * bayes_step(state, fw06, y, conj).posterior
            for y in range(len(q))
        )
        assert np.abs(avg - state.posterior).max() <= 1e-12


def test_slp_action(game06):
    # the short-run player takes its first best reply
    assert br2(game06, Distribution(game06.signals, [0.6, 0.4]))[0] == "b_h"
    assert br2(game06, Distribution(game06.signals, [0.3, 0.7]))[0] == "b_l"
    assert br2(game06, Distribution(game06.signals, [0.45, 0.55]))[0] == "b_h"


# -- the vectorized simulator -------------------------------------------------

def small_cfg(game, **kw):
    base = dict(delta=0.95, master_seed=99, runs=4, horizon=50,
                normal_strategy=a_dist(game, [0.0, 1.0]))
    base.update(kw)
    return SimulationConfig(**base)


def test_batch_is_deterministic(game06, fw06):
    cfg = small_cfg(game06)
    b1 = simulate_batch(game06, fw06, cfg)
    b2 = simulate_batch(game06, fw06, cfg)
    for field in ("mu", "ell", "u_flow", "tv_gap", "actions", "signals"):
        assert np.array_equal(getattr(b1, field), getattr(b2, field))


def test_single_run_matches_batch_row(game06, fw06):
    cfg = small_cfg(game06)
    batch = simulate_batch(game06, fw06, cfg)
    rec = simulate_run(game06, fw06, cfg, run_index=2)
    assert rec.run_index == 2
    assert np.array_equal(rec.signals, batch.signals[2])
    assert np.array_equal(rec.mu, batch.mu[2])
    assert np.array_equal(rec.u_flow, batch.u_flow[2])
    assert rec.mu_final == batch.mu[2, -1]


def test_batch_row_replays_through_scalar_api(game06, fw06):
    cfg = small_cfg(game06, runs=2)
    batch = simulate_batch(game06, fw06, cfg)
    a_l = cfg.normal_strategy
    true_mix = mix_signal_dist(game06.rho, a_l)
    state = BeliefState.from_prior(fw06)
    for t in range(batch.horizon):
        mu = max(state.reputation, 1e-300)
        assert abs(batch.mu[0, t] - state.reputation) / mu <= 1e-9
        q = predictive(state, fw06, a_l)
        b = br2(game06, q)[0]
        beta = Distribution.point_mass(game06.actions_short, b)
        assert batch.ell[0, t] == pytest.approx(
            optimality_loss(game06, a_l, beta), abs=1e-12)
        assert batch.tv_gap[0, t] == pytest.approx(tv(true_mix, q), abs=1e-12)
        a_idx = int(batch.actions[0, t])
        b_idx = game06.actions_short.index(b)
        assert batch.u_flow[0, t] == game06.u[a_idx, b_idx]
        state = bayes_step(state, fw06, int(batch.signals[0, t]), a_l)
    assert abs(batch.mu[0, -1] - state.reputation) <= 1e-9 * max(state.reputation, 1e-300)


def test_horizon_derived_from_delta(game06, fw06):
    cfg = SimulationConfig(delta=0.9, master_seed=1, runs=1,
                           normal_strategy=a_dist(game06, [0.0, 1.0]))
    batch = simulate_batch(game06, fw06, cfg)
    expected = math.ceil(math.log(1e-4 / 3.0) / math.log(0.9))
    assert batch.horizon == expected
    assert 3.0 * 0.9**batch.horizon <= 1e-4 * (1 + 1e-12)
    assert batch.truncation == pytest.approx(3.0 * 0.9**batch.horizon)


def test_horizon_from_script_length(game06, fw06):
    script = [a_dist(game06, [0.0, 1.0]), a_dist(game06, [1.0, 0.0]),
              a_dist(game06, [0.0, 1.0])]
    cfg = SimulationConfig(delta=0.9, master_seed=1, runs=3, normal_strategy=script)
    batch = simulate_batch(game06, fw06, cfg)
    assert batch.horizon == 3
    assert np.all(batch.actions[:, 0] == 1)
    assert np.all(batch.actions[:, 1] == 0)
    assert np.all(batch.actions[:, 2] == 1)


def test_explicit_horizon_wins(game06, fw06):
    cfg = small_cfg(game06, horizon=7)
    assert simulate_batch(game06, fw06, cfg).horizon == 7


def test_simulation_validation(game06, fw06):
    with pytest.raises(ValueError, match="master_seed"):
        simulate_batch(game06, fw06, SimulationConfig(
            delta=0.9, normal_strategy=a_dist(game06, [0, 1])))
    with pytest.raises(ValueError, match="normal_strategy"):
        simulate_batch(game06, fw06, SimulationConfig(delta=0.9, master_seed=1))
    with pytest.raises(ValueError, match="delta"):
        simulate_batch(game06, fw06, SimulationConfig(
            delta=1.0, master_seed=1, normal_strategy=a_dist(game06, [0, 1])))
    with pytest.raises(ValueError, match="true_type"):
        simulate_batch(game06, fw06, small_cfg(game06, true_type="alien"))


def _rejected(game):
    """name -> (config keywords over small_cfg's, message) of configs
    simulate_batch refuses; each is refused before the panels are allocated."""
    a_l = a_dist(game, [0.0, 1.0])
    other = Distribution(("x", "y"), np.array([0.5, 0.5]))
    return {
        "no runs": (dict(runs=0), "runs must be >= 1"),
        "horizon 0": (dict(horizon=0), "horizon must be >= 1"),
        "derived horizon above 5M": (dict(horizon=None, delta=1.0 - 1e-7),
                                     "derived horizon .* is impractical"),
        "runs x horizon above the cap": (dict(runs=1000, horizon=100_000), "above the cap"),
        "seed below 0": (dict(master_seed=-1), "master_seed must lie in"),
        "seed at 2**63": (dict(master_seed=2**63), "master_seed must lie in"),
        "target labels": (dict(alpha_star_target=other), "alpha_star_target labels"),
        "strategy labels": (dict(normal_strategy=other), "normal_strategy: labels"),
        "short script": (dict(horizon=5, normal_strategy=[a_l] * 3),
                         "script has 3 periods but the horizon is 5"),
        "bad script entry": (dict(horizon=2, normal_strategy=[a_l, "a_l"]),
                             "period 1 entry is not a Distribution"),
    }


@pytest.mark.parametrize("name", list(_rejected(product_choice(0.6, 0.3, 0.1)[0])))
def test_simulate_batch_rejects(game06, fw06, name):
    kw, match = _rejected(game06)[name]
    with pytest.raises(ValueError, match=match):
        simulate_batch(game06, fw06, small_cfg(game06, **kw))


def test_simulate_batch_rejects_a_framework_over_other_labels(game06):
    _, fw = three_signal(0.6, 0.3, 0.1, 0.0, 0.6)
    with pytest.raises(ValueError, match="disagree on action or signal labels"):
        simulate_batch(game06, fw, small_cfg(game06))


def test_commitment_true_type_plays_committed_action(game06, fw06):
    # fw06 commits to pure a_h, so every realized action is index 0
    cfg = small_cfg(game06, true_type="commitment")
    batch = simulate_batch(game06, fw06, cfg)
    assert np.all(batch.actions == 0)


def test_trajectory_csv_round_trip(tmp_path, game06, fw06):
    cfg = small_cfg(game06, runs=1)
    rec = simulate_run(game06, fw06, cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rec.to_csv(p1)
    rec.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "t,action,signal,mu,ell,u_flow,tv_gap,kl_term"
    assert len(lines) == 1 + rec.horizon
    # repr-formatted floats parse back to the exact same doubles
    row5 = lines[6].split(",")
    assert float(row5[3]) == rec.mu[5]
    assert float(row5[5]) == rec.u_flow[5]


def test_monte_carlo_summary(game06, fw06):
    cfg = small_cfg(game06, runs=6)
    summary, batch = monte_carlo(game06, fw06, cfg)
    u_min, u_max = game06.u_range
    assert u_min <= summary.payoff <= u_max
    assert 0.0 <= summary.disc_avg_mu <= 1.0
    assert summary.disc_avg_ell >= 0.0
    assert summary.runs == 6 and summary.horizon == batch.horizon
    d = summary.to_dict()
    json.dumps(d)  # JSON-ready, no numpy scalars
    assert d["mu_final_mean"] == pytest.approx(float(batch.mu[:, -1].mean()))
    # hand-check one aggregate against the full panel of the same runs
    w = 0.05 * 0.95 ** np.arange(batch.horizon)
    u_flow = simulate_batch(game06, fw06, cfg).u_flow
    assert summary.payoff == pytest.approx(float((u_flow @ w).mean()), abs=1e-12)


def test_monte_carlo_without_a_decay_fit(game06, fw06):
    # a horizon of 2 leaves a 3-point mean curve, too short to fit a decay rate
    summary, _ = monte_carlo(game06, fw06, small_cfg(game06, horizon=2))
    assert summary.decay is None
    d = summary.to_dict()
    assert d["decay_slope"] is None and d["decay_window"] is None


def test_decay_rate_fit_exponential():
    fit = decay_rate_fit(0.8 ** np.arange(200))
    assert fit.slope == pytest.approx(math.log(0.8), abs=1e-9)
    assert fit.window == (100, 200)


def test_decay_rate_fit_shrinks_on_underflow():
    curve = np.exp(-0.1 * np.arange(100))
    curve[80:] = 0.0
    with pytest.warns(RuntimeWarning, match="shrunk"):
        fit = decay_rate_fit(curve)
    assert fit.slope == pytest.approx(-0.1, abs=1e-9)
    assert fit.window == (50, 80)


def test_decay_rate_fit_underflow_before_window():
    # zeros from t = 30 empty the window (50, 100): fit the positive prefix's tail
    curve = np.exp(-0.1 * np.arange(100))
    curve[30:] = 0.0
    with pytest.warns(RuntimeWarning, match="shrunk"):
        fit = decay_rate_fit(curve)
    assert fit.slope == pytest.approx(-0.1, abs=1e-9)
    assert fit.window == (15, 30)


def test_decay_rate_fit_validation():
    with pytest.raises(ValueError):
        decay_rate_fit(np.ones(3))
    # underflowed from the start: no two positive points to fit
    with pytest.raises(ValueError, match="fewer than 2"), pytest.warns(RuntimeWarning):
        decay_rate_fit(np.zeros(10))


# -- certificates and tail diagnostics ----------------------------------------

def survival_batch(runs=20, horizon=100):
    game, fw = counter_example(0.6, 0.3, 0.05, 0.55)
    x_eps = 0.55 * (1.0 + 0.05 / 0.3)
    alpha_star = Distribution(game.actions_long, [x_eps, 1.0 - x_eps])
    cfg = SimulationConfig(delta=0.99, master_seed=7, runs=runs, horizon=horizon,
                           normal_strategy=alpha_star, alpha_star_target=alpha_star)
    return game, fw, simulate_batch(game, fw, cfg)


def test_certificate_on_attainable_slice():
    game, fw, batch = survival_batch()
    rep = discounted_kl_certificate(batch, fw, "m0")
    # the believed slice equals the target law exactly, so forecasts never move
    assert rep.epsilon <= 1e-12
    assert float(rep.lhs.max()) <= 1e-12
    assert rep.holds_all
    assert rep.holds_fraction == 1.0
    assert rep.prior_mass == pytest.approx(0.5)
    assert rep.rhs == pytest.approx(-0.01 * math.log(0.5), abs=1e-12)


def test_certificate_ceiling_bounds_every_term():
    game, fw, batch = survival_batch()
    ceiling = certificate_kl_ceiling(batch, fw)
    assert ceiling >= float(batch.kl_term.max()) - 1e-12
    # here every mixture endpoint coincides with the target law, so the
    # ceiling itself collapses to zero
    assert abs(ceiling) <= 1e-12


def test_certificate_ceiling_with_mismatched_conjecture():
    game, fw = counter_example(0.6, 0.3, 0.05, 0.55)
    x_eps = 0.55 * (1.0 + 0.05 / 0.3)
    alpha_star = Distribution(game.actions_long, [x_eps, 1.0 - x_eps])
    a_h = Distribution(game.actions_long, [1.0, 0.0])
    cfg = SimulationConfig(delta=0.99, master_seed=7, runs=10, horizon=80,
                           normal_strategy=alpha_star, slp_conjecture=a_h,
                           alpha_star_target=alpha_star)
    batch = simulate_batch(game, fw, cfg)
    ceiling = certificate_kl_ceiling(batch, fw)
    # the conjectured normal endpoint is Bern(0.6), well away from Bern(0.4925)
    assert ceiling > 0.01
    assert ceiling >= float(batch.kl_term.max()) - 1e-12


def test_certificate_ceiling_under_a_scripted_conjecture():
    # a script's endpoints are those of its distinct strategies, each counted once
    game, fw = counter_example(0.6, 0.3, 0.05, 0.55)
    x_eps = 0.55 * (1.0 + 0.05 / 0.3)
    alpha_star = Distribution(game.actions_long, [x_eps, 1.0 - x_eps])
    a_h = Distribution(game.actions_long, [1.0, 0.0])

    def ceiling(conjecture):
        cfg = SimulationConfig(delta=0.99, master_seed=7, runs=2, horizon=40,
                               normal_strategy=alpha_star, slp_conjecture=conjecture,
                               alpha_star_target=alpha_star)
        return certificate_kl_ceiling(simulate_batch(game, fw, cfg), fw)

    assert ceiling([alpha_star, a_h] * 20) == max(ceiling(alpha_star), ceiling(a_h))


def test_certificate_requires_target_recording(game06, fw06):
    batch = simulate_batch(game06, fw06, small_cfg(game06))
    with pytest.raises(ValueError, match="alpha_star_target"):
        discounted_kl_certificate(batch, fw06, "m0")
    with pytest.raises(ValueError, match="alpha_star_target"):
        certificate_kl_ceiling(batch, fw06)


def test_certificate_requires_persistent_target_play(game06, fw06):
    target = a_dist(game06, [1.0, 0.0])
    cfg = small_cfg(game06, alpha_star_target=target)  # but plays a_l
    batch = simulate_batch(game06, fw06, cfg)
    with pytest.raises(ValueError, match="persistent"):
        discounted_kl_certificate(batch, fw06, "m0")


def test_certificate_rejects_play_just_off_the_target():
    # 3.2e-6 off alpha_star_target in each weight: far above SAME_STRATEGY_ATOL,
    # though within a 1e-5 relative tolerance of the target weights
    game, fw = counter_example(0.6, 0.3, 0.05, 0.55)
    x_eps = 0.55 * (1.0 + 0.05 / 0.3)
    alpha_star = Distribution(game.actions_long, [x_eps, 1.0 - x_eps])
    played = Distribution(game.actions_long, [x_eps + 3.2e-6, 1.0 - x_eps - 3.2e-6])
    cfg = SimulationConfig(delta=0.99, master_seed=7, runs=4, horizon=50,
                           normal_strategy=played, alpha_star_target=alpha_star)
    batch = simulate_batch(game, fw, cfg)
    with pytest.raises(ValueError, match="persistent target play"):
        discounted_kl_certificate(batch, fw, "m0")


def azuma_batch():
    game, fw = product_choice(0.6, 0.3, 0.15)
    a_l = Distribution(game.actions_long, [0.0, 1.0])
    cfg = SimulationConfig(delta=0.95, master_seed=3, runs=40, horizon=64,
                           normal_strategy=a_l)
    return game, fw, simulate_batch(game, fw, cfg)


def test_azuma_diagnostic_structure():
    game, fw, batch = azuma_batch()
    report = azuma_diagnostic(batch, game, fw, zeta=0.04)
    assert report.rows
    bounds = [r.bound for r in report.rows]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(0.0 <= r.empirical_tail <= 1.0 for r in report.rows)
    assert report.increment_bound > 0.0
    assert report.rate == pytest.approx(
        0.04**2 / (32.0 * report.increment_bound**2))
    assert report.holds


def test_azuma_rejects_bad_zeta():
    game, fw, batch = azuma_batch()
    with pytest.raises(ValueError, match="zeta"):
        azuma_diagnostic(batch, game, fw, zeta=1.0)


def test_azuma_rejects_non_separating_framework():
    game, fw = counter_example(0.6, 0.3, 0.05, 0.55)
    a_l = Distribution(game.actions_long, [0.0, 1.0])
    cfg = SimulationConfig(delta=0.95, master_seed=3, runs=5, horizon=16,
                           normal_strategy=a_l)
    batch = simulate_batch(game, fw, cfg)
    with pytest.raises(ValueError, match="separating"):
        azuma_diagnostic(batch, game, fw, zeta=0.01)


def test_azuma_rejects_commitment_paths():
    game, fw = product_choice(0.6, 0.3, 0.15)
    a_l = Distribution(game.actions_long, [0.0, 1.0])
    cfg = SimulationConfig(delta=0.95, master_seed=3, runs=5, horizon=16,
                           true_type="commitment", normal_strategy=a_l)
    batch = simulate_batch(game, fw, cfg)
    with pytest.raises(ValueError, match="normal type"):
        azuma_diagnostic(batch, game, fw, zeta=0.04)


def _azuma_refusals():
    """name -> (framework change, config change, checkpoints, message) of the
    separating, normal-type batches azuma_diagnostic refuses."""
    game, _ = product_choice(0.6, 0.3, 0.15)
    # one ulp off rho in one entry: the kernels are compared exactly
    near = game.rho.matrix.copy()
    near[0] = [np.nextafter(near[0, 0], 1.0), 1.0 - np.nextafter(near[0, 0], 1.0)]
    a_h = Distribution(game.actions_long, [1.0, 0.0])
    return {
        "normal kernels differ from rho": (dict(normal_kernels=near[None]), {}, None,
                                           "every normal kernel must equal rho"),
        "conjecture differs from play": ({}, dict(slp_conjecture=a_h), None,
                                         "correctly conjectured"),
        "checkpoints outside the horizon": ({}, {}, [0, 65], "no valid checkpoints"),
    }


@pytest.mark.parametrize("name", list(_azuma_refusals()))
def test_azuma_refuses(name):
    fw_kw, cfg_kw, checkpoints, match = _azuma_refusals()[name]
    game, fw = product_choice(0.6, 0.3, 0.15)
    fw = dataclasses.replace(fw, **fw_kw)
    cfg = SimulationConfig(delta=0.95, master_seed=3, runs=5, horizon=64,
                           normal_strategy=Distribution(game.actions_long, [0.0, 1.0]),
                           **cfg_kw)
    batch = simulate_batch(game, fw, cfg)
    with pytest.raises(ValueError, match=match):
        azuma_diagnostic(batch, game, fw, zeta=0.04, checkpoints=checkpoints)


# -- the blocked simulator against the per-period reference loop --------------
#
# _reference_simulate is the simulator in its per-period form: one Python
# iteration per period, scipy's logsumexp, one Philox generator built per run.
# Its log weights are, under a stationary conjecture, log prior + sum_y
# n_y(t) log F(y) over the signal counts n(t), added in signal order; under a
# scripted one, the running sum of the per-period log-likelihoods. Its
# forecast adds the models' signal laws in model order. The blocked
# simulator must reproduce every panel column bit for bit, and
# kl_term within 1e-15 (the blocked simulator sums it in signal order, the
# reference by a BLAS matrix-vector product).

def _reference_uniforms(master_seed, run_indices, horizon):
    out = np.empty((len(run_indices), horizon, 2))
    for i, run in enumerate(run_indices):
        gen = np.random.Generator(np.random.Philox(key=(master_seed << 64) | int(run)))
        out[i] = gen.random((horizon, 2))
    return out


def _reference_draw(uniforms, alpha_mat, R_mat):
    """Actions and signals period by period: searchsorted, then clip to range."""
    nA, nY = R_mat.shape
    actions = np.empty(uniforms.shape[:2], dtype=np.int64)
    signals = np.empty_like(actions)
    for t, aw in enumerate(alpha_mat):
        a_idx = np.searchsorted(np.cumsum(aw), uniforms[:, t, 0], side="right")
        np.clip(a_idx, 0, nA - 1, out=a_idx)
        ycum = np.cumsum(R_mat[a_idx], axis=1)
        y_idx = (uniforms[:, t, 1][:, None] >= ycum).sum(axis=1)
        np.clip(y_idx, 0, nY - 1, out=y_idx)
        actions[:, t], signals[:, t] = a_idx, y_idx
    return actions, signals


def _reference_simulate(game, framework, config, run_indices):
    T, truncation = _resolve_horizon(game, config)
    R = len(run_indices)

    normal_stat, normal_mat = _schedule(config.normal_strategy, game.actions_long, T,
                                        "normal_strategy")
    conj_spec = config.slp_conjecture if config.slp_conjecture is not None \
        else config.normal_strategy
    conj_stat, conj_mat = _schedule(conj_spec, game.actions_long, T, "slp_conjecture")

    if config.true_type == "commitment":
        alpha_mat = np.tile(framework.commitment_action.weights, (T, 1))
    else:
        alpha_mat = normal_mat

    R_mat = game.rho.matrix
    Fhat = framework.commitment_slices
    log_fhat = np.log(Fhat)
    if conj_stat is not None:
        F0_const = framework.normal_mix(conj_stat)
        logF0_const = np.log(F0_const)

    p_star = None
    p_star_ent = 0.0
    if config.alpha_star_target is not None:
        p_star = config.alpha_star_target.weights @ R_mat
        p_star_ent = float(p_star @ np.log(p_star))

    uniforms = _reference_uniforms(config.master_seed, run_indices, T)
    actions, signals = _reference_draw(uniforms, alpha_mat, R_mat)
    log_prior = np.log(framework.prior)
    log_w = np.tile(log_prior[None, :, :], (R, 1, 1))
    counts = np.zeros((R, len(game.signals)), dtype=np.int64)

    def count_log_weights():
        lw = np.tile(log_prior[None, :, :], (R, 1, 1))
        for y in range(counts.shape[1]):
            lw += counts[:, y, None, None] * np.stack([logF0_const[:, y], log_fhat[:, y]])
        return lw

    mu = np.empty((R, T + 1))
    ell = np.empty((R, T))
    u_flow = np.empty((R, T))
    tv_gap = np.empty((R, T))
    kl_term = np.empty((R, T)) if p_star is not None else None

    for t in range(T):
        if conj_stat is not None:
            F0, logF0 = F0_const, logF0_const
            log_w = count_log_weights()
        else:
            F0 = np.einsum("a,may->my", conj_mat[t], framework.normal_kernels)
            logF0 = np.log(F0)

        norm = logsumexp(log_w.reshape(R, -1), axis=1)
        post = np.exp(log_w - norm[:, None, None])
        mu[:, t] = post[:, TYPE_COMMIT, :].sum(axis=1)
        q = (sum(post[:, TYPE_COMMIT, m, None] * Fhat[m] for m in range(len(Fhat)))
             + sum(post[:, TYPE_NORMAL, m, None] * F0[m] for m in range(len(F0))))

        vals = q @ game.v_tilde.T
        top = vals.max(axis=1)
        b_idx = np.argmax(vals >= (top - BR_TIE_TOL)[:, None], axis=1)

        aw = alpha_mat[t]
        a_idx, y_idx = actions[:, t], signals[:, t]

        row_v = aw @ game.v
        loss_b = row_v.max() - row_v
        ell[:, t] = loss_b[b_idx]
        u_flow[:, t] = game.u[a_idx, b_idx]
        rho_alpha = aw @ R_mat
        logq = np.log(q)
        tv_gap[:, t] = 0.5 * np.abs(q - rho_alpha[None, :]).sum(axis=1)
        if p_star is not None:
            kl_term[:, t] = p_star_ent - logq @ p_star

        log_w[:, TYPE_COMMIT, :] += log_fhat[:, y_idx].T
        log_w[:, TYPE_NORMAL, :] += logF0[:, y_idx].T
        counts[np.arange(R), y_idx] += 1

    if conj_stat is not None:
        log_w = count_log_weights()
    norm = logsumexp(log_w.reshape(R, -1), axis=1)
    mu[:, T] = np.exp(log_w - norm[:, None, None])[:, TYPE_COMMIT, :].sum(axis=1)
    return dict(mu=mu, ell=ell, u_flow=u_flow, tv_gap=tv_gap, kl_term=kl_term,
                actions=actions, signals=signals)


def _pc_case(strategy, conjecture=None, true_type="normal", member=None):
    """product_choice(0.6, 0.3, 0.15), or its perturbation member n=3 (two
    models), played with weights on a_h given per period by ``strategy``."""
    def build(horizon):
        game, fw = product_choice(0.6, 0.3, 0.15)
        if member is not None:
            fw = perturbation_sequence(game, fw, member)[-1]

        def play(spec):
            if spec is None or np.isscalar(spec):
                return None if spec is None else a_dist(game, [spec, 1.0 - spec])
            return [a_dist(game, [w, 1.0 - w]) for w in np.resize(spec, horizon)]
        return game, fw, dict(normal_strategy=play(strategy), slp_conjecture=play(conjecture),
                              true_type=true_type)
    return build


def _four_models_case(horizon):
    """Four models (eight hypotheses: numpy sums those rows pairwise) over
    three_signal's game, with random full-support kernels and prior."""
    game, _ = three_signal(0.6, 0.3, 0.1, 0.02, 0.7)
    rng = np.random.default_rng(11)
    kernels = rng.dirichlet(np.ones(3), size=(2, 4, 2))
    fw = Framework(models=("m0", "m1", "m2", "m3"), actions=game.actions_long,
                   signals=game.signals, normal_kernels=kernels[0],
                   commitment_kernels=kernels[1], prior=rng.dirichlet(np.ones(8)).reshape(2, 4),
                   commitment_action=a_dist(game, [0.7, 0.3]))
    script = [a_dist(game, [w, 1.0 - w]) for w in np.resize(SCRIPT, horizon)]
    return game, fw, dict(normal_strategy=script, alpha_star_target=a_dist(game, [0.7, 0.3]))


def _survival_case(horizon):
    game, fw = counter_example(0.6, 0.3, 0.05, 0.55)
    x_eps = 0.55 * (1.0 + 0.05 / 0.3)
    alpha_star = a_dist(game, [x_eps, 1.0 - x_eps])
    return game, fw, dict(normal_strategy=alpha_star, alpha_star_target=alpha_star)


def _random_game_case(n_long, n_short, n_signals, seed):
    """A random game and one-model framework of the given sizes, played by a
    full-support normal strategy with extra weight on the last action."""
    def build(horizon):
        rng = np.random.default_rng(seed)
        a_long = tuple(f"a{i}" for i in range(n_long))
        sig = tuple(f"y{j}" for j in range(n_signals))
        rho = SignalStructure(a_long, sig, rng.dirichlet(np.full(n_signals, 5.0), n_long))
        game = StageGame(a_long, tuple(f"b{i}" for i in range(n_short)), sig,
                         rng.normal(size=(n_long, n_short)),
                         rng.normal(size=(n_short, n_signals)), rho)
        kernels = rng.dirichlet(np.full(n_signals, 5.0), size=(2, 1, n_long))
        weights = rng.dirichlet(np.ones(n_long)) + np.eye(n_long)[-1]
        fw = Framework(models=("m0",), actions=a_long, signals=sig,
                       normal_kernels=kernels[0], commitment_kernels=kernels[1],
                       prior=np.array([[0.5], [0.5]]),
                       commitment_action=a_dist(game, np.eye(n_long)[0]))
        return game, fw, dict(normal_strategy=a_dist(game, weights / weights.sum()))
    return build


SCRIPT = [0.9, 0.9, 0.1, 0.5, 0.5, 0.5, 0.0, 1.0]
ORACLE_CASES = {
    "stationary": _pc_case(0.3),
    "scripted": _pc_case(SCRIPT),
    "conjecture": _pc_case(0.0, conjecture=SCRIPT),
    "commitment": _pc_case(0.0, true_type="commitment"),
    "two-models": _pc_case(0.0, member=3),
    "two-models-scripted": _pc_case(SCRIPT, conjecture=[0.2, 0.7, 0.7], member=3),
    "survival": _survival_case,
    "four-models": _four_models_case,
    # a * nB reaches 16 * 16 + 15 = 271: an index product in uint8 would wrap
    "17x16": _random_game_case(17, 16, 3, seed=12),
    "300-signals": _random_game_case(2, 2, 300, seed=13),  # uint16 signal panel
}


# (case, runs, horizon, block budget or None for the default); horizons are
# not multiples of the block, so the last block is a partial one
@pytest.mark.parametrize("case, runs, horizon, cells", [
    ("stationary", 200, 700, None),
    ("stationary", 5000, 40, None),
    ("scripted", 3, 50, 100),
    ("scripted", 200, 700, None),
    ("conjecture", 1, 250, 100),
    ("conjecture", 200, 333, None),
    ("commitment", 5000, 40, None),
    ("commitment", 3, 61, 10),
    ("two-models", 1, 250, 100),
    ("two-models", 3, 50, None),
    ("two-models", 200, 700, None),
    ("two-models-scripted", 200, 333, None),
    ("two-models-scripted", 5000, 40, None),
    ("survival", 1, 400, 128),
    ("survival", 200, 700, None),
    ("four-models", 1, 300, 128),
    ("four-models", 200, 700, None),
    ("17x16", 200, 333, None),
    ("17x16", 3, 50, 20),
    ("300-signals", 200, 333, None),
])
def test_blocked_simulator_matches_per_period_loop(monkeypatch, case, runs, horizon, cells):
    if cells is not None:
        monkeypatch.setattr(repgame.beliefs, "_CELLS", cells)
    game, fw, kw = ORACLE_CASES[case](horizon)
    cfg = SimulationConfig(delta=0.95, master_seed=20261018, runs=runs, horizon=horizon, **kw)
    batch = simulate_batch(game, fw, cfg)
    ref = _reference_simulate(game, fw, cfg, np.arange(runs))
    for field in ("mu", "ell", "u_flow", "tv_gap", "actions", "signals"):
        assert np.array_equal(getattr(batch, field), ref[field]), field
    assert batch.actions.dtype == np.uint8
    assert batch.signals.dtype == (np.uint16 if len(game.signals) > 256 else np.uint8)
    if ref["kl_term"] is None:
        assert batch.kl_term is None
    else:
        assert np.abs(batch.kl_term - ref["kl_term"]).max() <= 1e-15


@pytest.mark.parametrize("runs", [1, 2, 7, 64, 500])
def test_survival_run_is_batch_row_at_any_batch_size(runs):
    game, fw, kw = _survival_case(400)
    cfg = SimulationConfig(delta=0.995, master_seed=20260817, runs=runs, horizon=400, **kw)
    batch = simulate_batch(game, fw, cfg)
    for k in sorted({0, runs // 2, runs - 1}):
        rec = simulate_run(game, fw, cfg, run_index=k)
        for field in ("mu", "ell", "u_flow", "tv_gap", "kl_term", "actions", "signals"):
            assert np.array_equal(getattr(rec, field), getattr(batch, field)[k]), field


def _three_signal_case(horizon):
    game, fw = three_signal(0.6, 0.3, 0.2, 0.05, 0.6)
    return game, fw, dict(normal_strategy=a_dist(game, [0.2, 0.8]))


PANELS = ("mu", "ell", "u_flow", "tv_gap", "kl_term", "actions", "signals")


# A 1-run batch has one cell per period and is evaluated per cell. Batches of
# 2 and 7 runs (and of 64 and 500 with three signals) hold more cells in
# their box of counts than run-periods and are evaluated per run-period.
@pytest.mark.parametrize("case", ["two-models", "three-signal"])
@pytest.mark.parametrize("runs", [1, 2, 7, 64, 500])
def test_stationary_run_is_batch_row_at_any_batch_size(case, runs):
    build = {**ORACLE_CASES, "three-signal": _three_signal_case}[case]
    _assert_rows_match_runs(*build(400), runs)


# four-models is scripted, so beliefs go in time blocks and no count-state
# branch applies. It has eight hypotheses: there a BLAS forecast rounded rows
# 0, 1, the middle and the last differently by batch size.
@pytest.mark.parametrize("runs", [1, 2, 7, 64, 500])
def test_scripted_run_is_batch_row_at_any_batch_size(runs):
    _assert_rows_match_runs(*_four_models_case(400), runs)


def _assert_rows_match_runs(game, fw, kw, runs):
    cfg = SimulationConfig(delta=0.95, master_seed=20261019, runs=runs, horizon=400, **kw)
    batch = simulate_batch(game, fw, cfg)
    for k in sorted({0, min(1, runs - 1), runs // 2, runs - 1}):
        rec = simulate_run(game, fw, cfg, run_index=k)
        for field in PANELS:
            assert np.array_equal(getattr(rec, field), _row(batch, field, k)), field


def _row(batch, field, k):
    panel = getattr(batch, field)
    return None if panel is None else panel[k]


def _perturbation_member_case(horizon):
    """verify's perturbation member n = 3 (two models), playing a_l."""
    game, base = product_choice(0.6, 0.3, 0.15)
    fw = perturbation_sequence(game, base, 5)[2]
    return game, fw, dict(normal_strategy=a_dist(game, [0.0, 1.0]))


STREAMED_CASES = {
    "stationary": ORACLE_CASES["stationary"],
    "perturbation-member": _perturbation_member_case,
    "scripted-conjecture": ORACLE_CASES["conjecture"],
    "targeted": _survival_case,
}


def _panel_summary(batch, delta):
    """monte_carlo's reductions over a full batch's panels."""
    T = batch.horizon
    w = (1.0 - delta) * delta ** np.arange(T)

    def mean_se(x):
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))

    (mu, mu_se), (ell, ell_se), (pay, pay_se) = (
        mean_se(p @ w) for p in (batch.mu[:, :T], batch.ell, batch.u_flow))
    return dict(disc_avg_mu=mu, disc_avg_mu_se=mu_se, disc_avg_ell=ell,
                disc_avg_ell_se=ell_se, payoff=pay, payoff_se=pay_se)


# 2 runs: a stationary strip is evaluated per run-period; 300 runs: per cell,
# in two blocks of rows, and a scripted pass in two blocks of periods
@pytest.mark.parametrize("case", list(STREAMED_CASES))
@pytest.mark.parametrize("runs", [2, 300])
def test_monte_carlo_streams_what_simulate_batch_keeps(case, runs):
    game, fw, kw = STREAMED_CASES[case](400)
    cfg = SimulationConfig(delta=0.95, master_seed=20261022, runs=runs, horizon=400, **kw)
    summary, mc = monte_carlo(game, fw, cfg)
    full = simulate_batch(game, fw, cfg)
    T = full.horizon
    want = _panel_summary(full, cfg.delta)
    for name, value in want.items():
        assert abs(getattr(summary, name) - value) <= 1e-12, name
    assert np.array_equal(summary.mean_mu_curve, full.mu.mean(axis=0))
    for name in ("mu", "actions", "signals", "run_indices"):
        assert np.array_equal(getattr(mc, name), getattr(full, name)), name
    rec = simulate_run(game, fw, cfg, 0)
    mc_rec = TrajectoryRecord.from_batch(mc, 0)
    for name in ("ell", "u_flow", "tv_gap", "kl_term"):
        kept = getattr(mc, name)
        if kept is None:
            assert getattr(full, name) is None and getattr(rec, name) is None
            continue
        assert kept.shape == (1, T), name
        assert np.array_equal(kept[0], getattr(full, name)[0]), name
        assert np.array_equal(kept[0], getattr(rec, name)), name
    for name in PANELS:
        assert np.array_equal(getattr(mc_rec, name), getattr(rec, name)), name
    for row in (1, -1):
        with pytest.raises(ValueError, match="run 0's path alone"):
            TrajectoryRecord.from_batch(mc, row)
    if cfg.alpha_star_target is not None:
        w = 0.05 * 0.95 ** np.arange(T)
        cert = discounted_kl_certificate(mc, fw, "m0")
        assert cert.lhs.shape == (runs,)
        assert np.abs(cert.lhs - full.kl_term @ w).max() <= 1e-12
        assert cert.holds_all == discounted_kl_certificate(full, fw, "m0").holds_all


def test_long_runs_match_across_the_branch_switch():
    # 3 runs over 20,000 periods: the strip's box of counts holds more cells
    # than its run-periods, so the batch is evaluated per run-period, and each
    # run alone per cell. A commitment slice 0.002 off the truth keeps the
    # posterior away from 0 and 1 for the whole horizon.
    game, fw = product_choice(0.6, 0.3, 0.002)
    runs, horizon = 3, 20_000
    cfg = SimulationConfig(delta=0.9999, master_seed=20261020, runs=runs, horizon=horizon,
                           normal_strategy=a_dist(game, [1.0, 0.0]))
    batch = simulate_batch(game, fw, cfg)
    n_h = np.cumsum(batch.signals == 0, axis=1) - (batch.signals == 0)  # start-of-period counts
    assert (n_h.max(axis=0) - n_h.min(axis=0) + 1).sum() > runs * horizon
    assert 0.05 < batch.mu[:, -1].min() and batch.mu[:, -1].max() < 0.95
    for k in range(runs):
        rec = simulate_run(game, fw, cfg, run_index=k)
        for field in PANELS:
            assert np.array_equal(getattr(rec, field), _row(batch, field, k)), field


STATIONARY_CASES = ["stationary", "commitment", "two-models", "survival", "17x16", "300-signals"]


@pytest.mark.parametrize("case", STATIONARY_CASES)
def test_stationary_batch_replays_through_bayes_step(case):
    # the count form against the one-signal update, period by period: mu
    # within 1e-9 relative, every other panel equal
    runs, horizon = 3, 300
    game, fw, kw = ORACLE_CASES[case](horizon)
    cfg = SimulationConfig(delta=0.95, master_seed=20261018, runs=runs, horizon=horizon, **kw)
    batch = simulate_batch(game, fw, cfg)
    conj = cfg.normal_strategy if cfg.slp_conjecture is None else cfg.slp_conjecture
    alpha = fw.commitment_action if cfg.true_type == "commitment" else cfg.normal_strategy
    assert isinstance(conj, Distribution) and isinstance(alpha, Distribution)
    row_v = alpha.weights @ game.v
    loss = row_v.max() - row_v
    actions, signals = _reference_draw(
        _reference_uniforms(cfg.master_seed, np.arange(runs), horizon),
        np.tile(alpha.weights, (horizon, 1)), game.rho.matrix)
    assert np.array_equal(batch.actions, actions) and np.array_equal(batch.signals, signals)
    for r in range(runs):
        state = BeliefState.from_prior(fw)
        for t in range(horizon + 1):
            mu = state.reputation
            assert abs(batch.mu[r, t] - mu) <= 1e-9 * max(mu, 1e-300), (r, t)
            if t == horizon:
                break
            b = game.actions_short.index(br2(game, predictive(state, fw, conj))[0])
            assert batch.ell[r, t] == loss[b], (r, t)
            assert batch.u_flow[r, t] == game.u[actions[r, t], b], (r, t)
            state = bayes_step(state, fw, int(signals[r, t]), conj)


def test_count_form_log_weights_are_near_the_exact_sum():
    # the long benchmark shape's first 8 runs at T = 5,000: the final log
    # weights, log prior + sum_y n_y log F(y), against the exact rational sum
    # of the same float64 terms (a running sum of 5,000 of them is off by
    # about 1e-10 here)
    game, fw = product_choice(0.6, 0.3, 0.15)
    a_l = a_dist(game, [0.0, 1.0])
    runs, horizon = 8, 5000
    cfg = SimulationConfig(delta=0.95, master_seed=20260816, runs=runs, horizon=horizon,
                           normal_strategy=a_l)
    batch = simulate_batch(game, fw, cfg)
    log_prior = np.log(fw.prior)
    log_lik = np.stack([np.log(fw.normal_mix(a_l)).T, np.log(fw.commitment_slices).T], axis=1)
    counts = [(batch.signals == y).sum(axis=1) for y in range(len(game.signals))]
    lw = _count_log_weights(log_prior, log_lik, np.full(runs, horizon), counts[:-1])
    for r in range(runs):
        for h in np.ndindex(log_prior.shape):
            exact = Fraction(log_prior[h]) + sum(
                int(n[r]) * Fraction(log_lik[y][h]) for y, n in enumerate(counts))
            assert abs(Fraction(lw[r][h]) - exact) <= Fraction(1, 10**12), (r, h)
    assert np.array_equal(_reputation(lw)[1], batch.mu[:, -1])


def test_mean_reputation_follows_the_binomial_law():
    # E[mu_t] = sum_n Binom(n; t, rho(y_l | a_l)) mu(n), with mu(n) the
    # posterior after n bad signals in t periods; 20,000 runs, in batches of
    # 5,000 (rows do not depend on the batch). The standard error is the
    # law's own: past t = 50 the mean rests on paths too rare for a sample's
    # spread to show.
    game, fw = product_choice(0.6, 0.3, 0.15)
    a_l = a_dist(game, [0.0, 1.0])
    ts = [10, 50, 100, 300]
    cfg = SimulationConfig(delta=0.95, master_seed=20261021, runs=5000, horizon=ts[-1],
                           normal_strategy=a_l)
    mu = np.vstack([repgame.beliefs._simulate(game, fw, cfg, np.arange(r0, r0 + 5000)).mu[:, ts]
                    for r0 in range(0, 20_000, 5000)])
    rho_l = game.rho.matrix[1, 1]
    log_c = np.log(fw.commitment_slices[0])
    log_n = np.log(fw.normal_mix(a_l)[0])
    for j, t in enumerate(ts):
        n = np.arange(t + 1)
        log_pmf = (gammaln(t + 1) - gammaln(n + 1) - gammaln(t - n + 1)
                   + n * math.log(rho_l) + (t - n) * math.log(1.0 - rho_l))
        llr = (math.log(fw.prior[TYPE_COMMIT, 0] / fw.prior[TYPE_NORMAL, 0])
               + n * (log_c[1] - log_n[1]) + (t - n) * (log_c[0] - log_n[0]))
        pmf, mu_n = np.exp(log_pmf), expit(llr)
        exact = float(pmf @ mu_n)
        se = math.sqrt((float(pmf @ mu_n**2) - exact**2) / len(mu))
        assert abs(mu[:, j].mean() - exact) <= 4.0 * se, (t, mu[:, j].mean(), exact, se)


# horizon 5: a chunk of the draw holds 1, 3 and all 4 runs
@pytest.mark.parametrize("cells", [5, 15, 1 << 16])
def test_chunked_draw_matches_one_philox_per_run(monkeypatch, cells):
    monkeypatch.setattr(repgame.beliefs, "_CELLS", cells)
    seed = 2**63 - 1
    runs = np.array([0, 1, 2**40 + 3, 2**63 - 1])
    rng = np.random.default_rng(6)
    alpha_mat = np.vstack([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], rng.dirichlet(np.ones(3), 3)])
    R_mat = rng.dirichlet(np.ones(4), 3)
    actions, signals = _draw(seed, runs, alpha_mat, R_mat)
    want = _reference_draw(_reference_uniforms(seed, runs, 5), alpha_mat, R_mat)
    assert np.array_equal(actions, want[0]) and np.array_equal(signals, want[1])
    assert actions.dtype == signals.dtype == np.uint8
    with pytest.raises(ValueError, match="non-negative"):
        _draw(seed, np.array([3, -1]), alpha_mat, R_mat)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_batch_memory_is_about_34_bytes_per_run_period():
    # a batch: four float64 panels (mu has T + 1 columns) and two uint8 index
    # panels, plus one belief block; the draw: the index panels and one chunk.
    # The float panels sit in memory maps of their own, which tracemalloc
    # does not see, so their bytes are added to its peak.
    game, fw = product_choice(0.6, 0.3, 0.15)
    runs, horizon = 5000, 400
    cfg = SimulationConfig(delta=0.95, master_seed=1, runs=runs, horizon=horizon,
                           normal_strategy=a_dist(game, [0.0, 1.0]))
    peak, batch = _traced_peak(simulate_batch, game, fw, cfg)
    panels = [batch.mu, batch.ell, batch.u_flow, batch.tv_gap]
    assert peak < 8 * runs * horizon  # less than one float panel: none is in the heap
    assert peak + sum(p.nbytes for p in panels) <= 34 * runs * (horizon + 1) + 16 * 2**20
    alpha_mat = np.tile(cfg.normal_strategy.weights, (horizon, 1))
    assert _traced_peak(_draw, 1, np.arange(runs), alpha_mat,
                        game.rho.matrix)[0] <= 2 * runs * horizon + 4 * 2**20


def test_monte_carlo_memory_is_about_10_bytes_per_run_period():
    # every run's mu (8 bytes a run-period) and index panels (1 byte each),
    # run 0's row of the other panels and the per-run sums; no float panel
    # but mu's lies in the heap or in a map
    game, fw = product_choice(0.6, 0.3, 0.15)
    runs, horizon = 5000, 400
    cfg = SimulationConfig(delta=0.95, master_seed=1, runs=runs, horizon=horizon,
                           normal_strategy=a_dist(game, [0.0, 1.0]))
    peak, (_, batch) = _traced_peak(monte_carlo, game, fw, cfg)
    panels = [batch.mu, batch.ell, batch.u_flow, batch.tv_gap]
    assert peak < 8 * runs * horizon
    assert peak + sum(p.nbytes for p in panels) <= 11 * runs * horizon + 16 * 2**20


def test_logsumexp_is_scipys_bit_for_bit():
    rng = np.random.default_rng(4)
    for k in range(1, 9):
        a = rng.normal(0.0, 30.0, (3000, k))
        ties = rng.random((3000, k)) < 0.3
        a[ties] = a[:, :1].repeat(k, axis=1)[ties]   # ties with column 0
        a[rng.random((3000, k)) < 0.15] = -np.inf
        a[:5] = -np.inf                              # rows with no finite entry
        if k > 1:
            a[5:10, 1] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            want = logsumexp(a, axis=-1)
        assert np.array_equal(_logsumexp(a), want, equal_nan=True), k


def test_posterior_normalizes_like_scipy():
    rng = np.random.default_rng(5)
    for n_models in range(1, 5):
        for _ in range(200):
            w = rng.normal(0.0, 20.0, (2, n_models))
            want = np.exp(w - logsumexp(w))
            assert np.array_equal(BeliefState(w).posterior, want)
