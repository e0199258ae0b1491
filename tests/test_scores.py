"""Score programs against hand-solved instances.

All the closed forms below are for the 2x2 game with long-run payoffs
u = [[2, 0], [3, 1]] and monitoring rows Bern(p)/Bern(q): the enforceability
program at (a_h, b_h) pins x_h - x_l = 2/(p-q), and pushing the offsets to
the allowed orthant gives z = 2 - (1-p)/(p-q) downward (direction +1) and
z = 2 + p/(p-q) upward (direction -1). With p=0.9, q=0.4: 1.8 and 3.8.
"""

import numpy as np
import pytest

import repgame.scores
from repgame.game import Distribution, StageGame, SignalStructure
from repgame.scenarios import product_choice
from repgame.scores import (SUPPORT_CUTOFF, br2, ci_payoff_set, kappa, kstar, optimality_loss,
                            reputation_lower_bound, stackelberg,
                            verify_certificate)


def dist(labels, w):
    return Distribution(labels, np.asarray(w, dtype=float))


def test_br2_threshold(game06):
    # lifted opponent payoffs make b_h optimal iff q(y_h) >= 0.45
    sig = game06.signals
    assert br2(game06, dist(sig, [0.60, 0.40])) == ("b_h",)
    assert br2(game06, dist(sig, [0.44, 0.56])) == ("b_l",)
    assert br2(game06, dist(sig, [0.45, 0.55])) == ("b_h", "b_l")


def test_br2_rejects_wrong_labels(game06):
    with pytest.raises(ValueError, match="signal labels"):
        br2(game06, Distribution(("a", "b"), [0.5, 0.5]))


def test_optimality_loss(game06):
    a_h = game06.long_dist([1.0, 0.0])
    b_h = game06.short_dist([1.0, 0.0])
    b_l = game06.short_dist([0.0, 1.0])
    assert optimality_loss(game06, a_h, b_h) == pytest.approx(0.0, abs=1e-12)
    # v(a_h, b_h) = 3, v(a_h, b_l) = 2
    assert optimality_loss(game06, a_h, b_l) == pytest.approx(1.0, abs=1e-12)


def test_kstar_downward(game09):
    a_h = game09.long_dist([1.0, 0.0])
    b_h = game09.short_dist([1.0, 0.0])
    res = kstar(game09, a_h, b_h, +1)
    assert res.feasible
    assert res.z == pytest.approx(1.8, abs=1e-9)
    assert np.allclose(res.offsets, [0.0, -2.0], atol=1e-8)
    assert verify_certificate(game09, a_h, b_h, res) <= 1e-9


def test_kstar_upward(game09):
    a_h = game09.long_dist([1.0, 0.0])
    b_h = game09.short_dist([1.0, 0.0])
    res = kstar(game09, a_h, b_h, -1)
    assert res.feasible
    assert res.z == pytest.approx(3.8, abs=1e-9)
    assert np.allclose(res.offsets, [2.0, 0.0], atol=1e-8)
    assert verify_certificate(game09, a_h, b_h, res) <= 1e-9


def test_kstar_static_nash_pair(game09):
    a_l = game09.long_dist([0.0, 1.0])
    b_l = game09.short_dist([0.0, 1.0])
    up = kstar(game09, a_l, b_l, -1)
    down = kstar(game09, a_l, b_l, +1)
    # (a_l, b_l) is enforceable with zero offsets, so both directions sit at u = 1
    assert up.z == pytest.approx(1.0, abs=1e-9)
    assert down.z == pytest.approx(1.0, abs=1e-9)


def test_kstar_mixed_support_pins_offset_difference(game09):
    alpha = game09.long_dist([0.5, 0.5])
    b_h = game09.short_dist([1.0, 0.0])
    res = kstar(game09, alpha, b_h, +1)
    assert res.feasible
    # both equality rows active: x_h - x_l = (u(a_l,b_h) - u(a_h,b_h)) / (p - q) = 2
    assert res.offsets[0] - res.offsets[1] == pytest.approx(2.0, abs=1e-8)
    assert res.z == pytest.approx(1.8, abs=1e-9)
    assert verify_certificate(game09, alpha, b_h, res) <= 1e-9


def test_kstar_detects_infeasibility():
    # Three actions, two signals: the top action's signal row sits strictly
    # between the others, and both deviations gain 1 in stage payoff. The two
    # incentive constraints then demand (rho_top - rho_mid) . x >= 1 and
    # (rho_top - rho_low) . x >= 1 with difference vectors pointing in exactly
    # opposite directions, which is unsatisfiable in any orthant.
    rho = SignalStructure(("top", "mid", "low"), ("y0", "y1"),
                          np.array([[0.5, 0.5], [0.8, 0.2], [0.2, 0.8]]))
    game = StageGame(("top", "mid", "low"), ("b",), ("y0", "y1"),
                     np.array([[0.0], [1.0], [1.0]]), np.zeros((1, 2)), rho)
    a_top = game.long_dist([1.0, 0.0, 0.0])
    b = game.short_dist([1.0])
    for direction in (+1, -1):
        res = kstar(game, a_top, b, direction)
        assert not res.feasible
        assert res.z is None
        assert res.offsets is None


def test_kstar_direction_validation(game09):
    with pytest.raises(ValueError, match="direction"):
        kstar(game09, game09.long_dist([1, 0]), game09.short_dist([1, 0]), 0)


def test_verify_certificate_flags_tampering(game09):
    from repgame.scores import ScoreResult
    a_h = game09.long_dist([1.0, 0.0])
    b_h = game09.short_dist([1.0, 0.0])
    res = kstar(game09, a_h, b_h, +1)
    forged = ScoreResult(True, res.z + 0.1, res.offsets, res.direction)
    assert verify_certificate(game09, a_h, b_h, forged) >= 0.09


def test_kappa_frozen_values(game09, game06):
    # optima sit at pure action profiles, so a coarse grid is exact
    assert kappa(game09, +1, 0.0, 0.05) == pytest.approx(1.8, abs=1e-9)
    assert kappa(game09, -1, 0.0, 0.05) == pytest.approx(-1.0, abs=1e-9)
    assert kappa(game06, +1, 0.0, 0.05) == pytest.approx(1.0, abs=1e-9)
    assert kappa(game06, -1, 0.0, 0.05) == pytest.approx(-1.0, abs=1e-9)


def test_kappa_rejects_negative_eta(game09):
    with pytest.raises(ValueError, match="eta"):
        kappa(game09, +1, -0.1, 0.1)


def test_kappa_monotone_in_eta(game09):
    # widening the admissible-reply set can only raise a supremum
    k0 = kappa(game09, +1, 0.0, 0.1)
    k1 = kappa(game09, +1, 0.5, 0.1)
    assert k1 >= k0 - 1e-12


def test_ci_payoff_set(game09, game06):
    ps = ci_payoff_set(game09, 0.05)
    assert ps.hi == pytest.approx(1.8, abs=1e-9)
    assert ps.lo == pytest.approx(1.0, abs=1e-9)
    assert ps.kappa_plus == pytest.approx(1.8, abs=1e-9)
    assert ps.kappa_minus == pytest.approx(-1.0, abs=1e-9)
    # (1-p)/(p-q) > 1 here, so the ceiling clamps at the static Nash payoff
    ps6 = ci_payoff_set(game06, 0.05)
    assert ps6.hi == pytest.approx(1.0, abs=1e-9)
    assert ps6.lo == pytest.approx(1.0, abs=1e-9)


def test_ci_payoff_set_solves_each_score_program_once(monkeypatch):
    # kstar sees alpha only through its support: 206 distinct programs on this lattice
    calls = []
    real = repgame.scores.kstar

    def counting(game, alpha, beta, direction):
        calls.append(((alpha.weights > SUPPORT_CUTOFF).tobytes(), beta.weights.tobytes(),
                      direction))
        return real(game, alpha, beta, direction)

    monkeypatch.setattr(repgame.scores, "kstar", counting)
    game, _ = product_choice(0.9, 0.4, 0.0)
    ps = ci_payoff_set(game, 1e-3)
    assert len(calls) == len(set(calls)) == 206
    assert (ps.kappa_plus, ps.kappa_minus, ps.lo, ps.hi) == (1.8, -1.0, 1.0, 1.8)


def test_stackelberg_mixed_approaches_tie_point(game06):
    val, alpha = stackelberg(game06, 1e-3)
    assert 2.5 - 1e-3 - 1e-9 <= val < 2.5
    # just above the indifference mixture alpha_h = 1/2
    assert alpha.weights[0] == pytest.approx(0.5, abs=2e-3)
    assert alpha.weights[0] > 0.5


def test_stackelberg_pure(game06):
    val, alpha = stackelberg(game06, 1e-3, pure=True)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert alpha.weights.tolist() == [1.0, 0.0]


def test_reputation_lower_bound(game06):
    x_eps = 0.55 * (1.0 + 0.05 / 0.3)
    alpha = game06.long_dist([x_eps, 1.0 - x_eps])
    # unique reply b_h, so the floor is u(alpha, b_h) = 3 - x_eps
    assert reputation_lower_bound(game06, alpha) == pytest.approx(3.0 - x_eps, abs=1e-12)
    # at the exact tie the adversary picks b_l: u(alpha, b_l) = 1 - alpha_h
    tie = game06.long_dist([0.5, 0.5])
    assert reputation_lower_bound(game06, tie) == pytest.approx(0.5, abs=1e-12)
