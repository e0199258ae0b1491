"""Belief updating and the vectorized simulator.

The heavyweight cross-check is replaying one batch row period by period
through the scalar single-step API; every panel column (mu, ell, u_flow,
tv_gap) must reproduce exactly, which pins the vectorized log-space update,
the forecast mixture, and the reply tie-breaking all at once.
"""

import json
import math

import numpy as np
import pytest

from repgame.beliefs import (BeliefState, SimulationConfig, TrajectoryRecord,
                             azuma_diagnostic, bayes_step,
                             certificate_kl_ceiling, decay_rate_fit,
                             discounted_kl_certificate, monte_carlo,
                             predictive, simulate_batch, simulate_run,
                             slp_action)
from repgame.divergence import tv
from repgame.game import Distribution, mix_signal_dist
from repgame.scenarios import counter_example, product_choice
from repgame.scores import optimality_loss


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
    assert slp_action(game06, Distribution(game06.signals, [0.6, 0.4])) == "b_h"
    assert slp_action(game06, Distribution(game06.signals, [0.3, 0.7])) == "b_l"


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
        b = slp_action(game06, q)
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
    summary, batch = monte_carlo(game06, fw06, small_cfg(game06, runs=6))
    u_min, u_max = game06.u_range
    assert u_min <= summary.payoff <= u_max
    assert 0.0 <= summary.disc_avg_mu <= 1.0
    assert summary.disc_avg_ell >= 0.0
    assert summary.runs == 6 and summary.horizon == batch.horizon
    d = summary.to_dict()
    json.dumps(d)  # JSON-ready, no numpy scalars
    assert d["mu_final_mean"] == pytest.approx(float(batch.mu[:, -1].mean()))
    # hand-check one aggregate against the panel
    w = 0.05 * 0.95 ** np.arange(batch.horizon)
    assert summary.payoff == pytest.approx(float((batch.u_flow @ w).mean()), abs=1e-12)


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


def test_certificate_requires_target_recording(game06, fw06):
    batch = simulate_batch(game06, fw06, small_cfg(game06))
    with pytest.raises(ValueError, match="alpha_star_target"):
        discounted_kl_certificate(batch, fw06, "m0")


def test_certificate_requires_persistent_target_play(game06, fw06):
    target = a_dist(game06, [1.0, 0.0])
    cfg = small_cfg(game06, alpha_star_target=target)  # but plays a_l
    batch = simulate_batch(game06, fw06, cfg)
    with pytest.raises(ValueError, match="persistent"):
        discounted_kl_certificate(batch, fw06, "m0")


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
