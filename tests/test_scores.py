"""Score programs against hand-solved instances.

All the closed forms below are for the 2x2 game with long-run payoffs
u = [[2, 0], [3, 1]] and monitoring rows Bern(p)/Bern(q): the enforceability
program at (a_h, b_h) pins x_h - x_l = 2/(p-q), and pushing the offsets to
the allowed orthant gives z = 2 - (1-p)/(p-q) downward (direction +1) and
z = 2 + p/(p-q) upward (direction -1). With p=0.9, q=0.4: 1.8 and 3.8.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

import repgame.scores
from repgame.bruteforce import simplex_lattice
from repgame.game import Distribution, StageGame, SignalStructure, mix_signal_dist
from repgame.scenarios import product_choice, three_signal
from repgame.scores import (SUPPORT_CUTOFF, ScoreResult, _score_lp, best_replies, br2,
                            ci_payoff_set, kappa, kstar, optimality_loss,
                            reputation_lower_bound, stackelberg, verify_certificate)


def dist(labels, w):
    return Distribution(labels, np.asarray(w, dtype=float))


def test_br2_threshold(game06):
    # lifted opponent payoffs make b_h optimal iff q(y_h) >= 0.45
    sig = game06.signals
    assert br2(game06, dist(sig, [0.60, 0.40])) == ("b_h",)
    assert br2(game06, dist(sig, [0.44, 0.56])) == ("b_l",)
    assert br2(game06, dist(sig, [0.45, 0.55])) == ("b_h", "b_l")


@pytest.mark.parametrize("case", ["tie_point", "always_tied"])
def test_best_replies_of_a_stack_match_br2_row_by_row(game06, case):
    # a (b, R, n_y) stack of signal laws, the exact tie q = (0.45, 0.55) among them
    game = game06 if case == "tie_point" else _always_tied_game()
    rng = np.random.default_rng(3)
    h = np.append(rng.uniform(0.3, 0.6, 11), 0.45)
    q = np.stack([h, 1.0 - h], axis=1).reshape(3, 4, 2)
    mask = best_replies(game, q)
    assert mask.shape == (3, 4, 2)
    for i, j in np.ndindex(3, 4):
        replies = br2(game, dist(game.signals, q[i, j]))
        assert tuple(np.array(game.actions_short)[mask[i, j]]) == replies
    assert mask[2, 3].all()  # both replies are best at the tie


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
    a_h = game09.long_dist([1.0, 0.0])
    b_h = game09.short_dist([1.0, 0.0])
    res = kstar(game09, a_h, b_h, +1)
    forged = ScoreResult(True, res.z + 0.1, res.offsets, res.direction)
    assert verify_certificate(game09, a_h, b_h, forged) >= 0.09


def test_kappa_frozen_values(game09, game06):
    # optima sit at pure action profiles, so a coarse grid is exact
    assert kappa(game09, 0.05) == pytest.approx((1.8, -1.0), abs=1e-9)
    assert kappa(game06, 0.05) == pytest.approx((1.0, -1.0), abs=1e-9)


def test_kappa_direction_validation(game09):
    # kappa answers both directions, (+1, -1) in that order, and takes none
    with pytest.raises(TypeError):
        kappa(game09, +1, 0.1)
    a_h, a_l = game09.long_dist([1.0, 0.0]), game09.long_dist([0.0, 1.0])
    b_h, b_l = game09.short_dist([1.0, 0.0]), game09.short_dist([0.0, 1.0])
    k_plus, k_minus = kappa(game09, 0.1)
    assert k_plus == pytest.approx(kstar(game09, a_h, b_h, +1).z, abs=1e-9)
    assert k_minus == pytest.approx(-kstar(game09, a_l, b_l, -1).z, abs=1e-9)


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


def _record_batches(monkeypatch):
    """Record every (programs, results) batch kappa solves, not its solo LPs; a
    program is (support mask, reply lower bounds, reply upper bounds, direction)."""
    batches = []
    depth = []
    real = repgame.scores._solve_scores

    def recording(game, supp, beta_lb, beta_ub, direction):
        depth.append(1)
        results = real(game, supp, beta_lb, beta_ub, direction)
        depth.pop()
        if not depth:
            batches.append((list(zip(supp, beta_lb, beta_ub, direction)), results))
        return results

    monkeypatch.setattr(repgame.scores, "_solve_scores", recording)
    return batches


def _count_linprog(monkeypatch):
    calls = []
    real = repgame.scores.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(repgame.scores, "linprog", counting)
    return calls


def test_ci_payoff_set_solves_each_score_program_once(monkeypatch):
    # one program per distinct (support, best-reply set) of the lattice: the
    # supports {a_h}, {a_l} and both, the mixed support with either reply and
    # with both at the tie point; all feasible, both directions in one LP
    batches = _record_batches(monkeypatch)
    lp_calls = _count_linprog(monkeypatch)
    game, _ = product_choice(0.9, 0.4, 0.0)
    ps = ci_payoff_set(game, 1e-3)
    (programs, _), = batches
    keys = [(supp.tobytes(), ub.tobytes(), int(d)) for supp, _, ub, d in programs]
    assert len(keys) == len(set(keys)) == 10
    assert [d for _, _, d in keys] == [+1] * 5 + [-1] * 5
    assert len(lp_calls) == 1
    assert (ps.kappa_plus, ps.kappa_minus, ps.lo, ps.hi) == (1.8, -1.0, 1.0, 1.8)


def _dense_score(game, supp, beta_lb, beta_ub, direction):
    """The score program with reply variables in equality form, as one dense
    linprog call (test-only reference); beta_lb == beta_ub pins the reply.
    Columns [z, x(y), beta(b), s(a)]; the slack s_a is 0 on the support."""
    R, u = game.rho.matrix, game.u
    n_a, n_y, n_b = R.shape[0], R.shape[1], u.shape[1]
    A_eq = np.vstack([np.hstack([np.ones((n_a, 1)), -R, -u, -np.eye(n_a)]),
                      np.concatenate([np.zeros(1 + n_y), np.ones(n_b), np.zeros(n_a)])])
    b_eq = np.append(np.zeros(n_a), 1.0)
    x_bound = (None, 0.0) if direction == +1 else (0.0, None)
    c = np.zeros(1 + n_y + n_b + n_a)
    c[0] = -float(direction)
    bounds = ([(None, None)] + [x_bound] * n_y + list(zip(beta_lb, beta_ub))
              + [(0.0, 0.0) if on else (0.0, None) for on in supp])
    return linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")


def _dense_score_inequalities(game, supp, beta_lb, beta_ub, direction):
    """The same program with inequality rows off the support and no slack
    columns (test-only reference)."""
    R, u = game.rho.matrix, game.u
    n_y, n_b = R.shape[1], u.shape[1]
    off = ~supp
    A_eq = np.vstack([np.hstack([np.ones((int(supp.sum()), 1)), -R[supp], -u[supp]]),
                      np.concatenate([np.zeros(1 + n_y), np.ones(n_b)])])
    b_eq = np.concatenate([np.zeros(int(supp.sum())), [1.0]])
    A_ub = np.hstack([-np.ones((int(off.sum()), 1)), R[off], u[off]])
    x_bound = (None, 0.0) if direction == +1 else (0.0, None)
    c = np.zeros(1 + n_y + n_b)
    c[0] = -float(direction)
    bounds = [(None, None)] + [x_bound] * n_y + list(zip(beta_lb, beta_ub))
    return linprog(c, A_ub=A_ub if off.any() else None, b_ub=np.zeros(int(off.sum())),
                   A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")


def _infeasible_game():
    # see test_kstar_detects_infeasibility: the top action alone cannot be enforced
    rho = SignalStructure(("top", "mid", "low"), ("y0", "y1"),
                          np.array([[0.5, 0.5], [0.8, 0.2], [0.2, 0.8]]))
    return StageGame(("top", "mid", "low"), ("b",), ("y0", "y1"),
                     np.array([[0.0], [1.0], [1.0]]), np.zeros((1, 2)), rho)


def _mixed_feasibility_game():
    # programs with two best replies at grid 0.1, some of them infeasible
    acts, sig = ("a0", "a1", "a2"), ("y0", "y1")
    rho = SignalStructure(acts, sig, np.array([[0.49, 0.51], [0.62, 0.38], [0.25, 0.75]]))
    return StageGame(acts, ("b0", "b1"), sig, np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 2.0]]),
                     np.array([[0.0, 3.0], [3.0, 2.0]]), rho)


@pytest.mark.parametrize("make, grid, infeasible", [
    (lambda: product_choice(0.9, 0.4, 0.0)[0], 1e-2, "none"),
    (lambda: three_signal(0.6, 0.3, 0.1, 0.02, 0.55)[0], 1e-2, "none"),
    (_infeasible_game, 0.1, "some"),
    (_mixed_feasibility_game, 0.1, "some"),
], ids=["product_choice", "three_signal", "infeasible", "mixed_feasibility"])
def test_score_batch_matches_solo_solves(monkeypatch, make, grid, infeasible):
    game = make()
    batches = _record_batches(monkeypatch)
    lp_calls = _count_linprog(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # empty-bracket note
        ci_payoff_set(game, grid)
    assert len(batches) == 1
    n_infeasible = 0
    for programs, results in batches:
        assert len(results) == len(programs)
        for (supp, beta_lb, beta_ub, direction), res in zip(programs, results):
            assert res.direction == direction
            ref = _dense_score(game, supp, beta_lb, beta_ub, direction)
            old = _dense_score_inequalities(game, supp, beta_lb, beta_ub, direction)
            assert ref.status in (0, 2) and old.status == ref.status
            assert res.feasible == (ref.status == 0)
            if res.feasible:
                assert res.z == ref.x[0]
                assert abs(old.x[0] - ref.x[0]) <= 1e-12
                assert np.allclose(res.offsets, ref.x[1:1 + game.rho.matrix.shape[1]],
                                   rtol=0.0, atol=1e-9)
            n_infeasible += not res.feasible
    n_programs = sum(len(programs) for programs, _ in batches)
    if infeasible == "none":
        assert n_infeasible == 0 and len(lp_calls) == 1
    else:
        # the joint LP has no optimum, so each program is solved alone once
        assert 0 < n_infeasible < n_programs
        assert len(lp_calls) == 1 + n_programs


def _empty_bracket_game():
    # a three-action game without a pure stage equilibrium
    acts, sig = ("a0", "a1", "a2"), ("y0", "y1", "y2")
    rho = SignalStructure(acts, sig, np.array([[0.2, 0.24, 0.56], [0.65, 0.1, 0.25],
                                               [0.83, 0.09, 0.08]]))
    return StageGame(acts, ("b0", "b1", "b2"), sig,
                     np.array([[0.0, 4.0, 4.0], [3.0, 0.0, 3.0], [3.0, 3.0, 3.0]]),
                     np.array([[2.0, 1.0, 4.0], [4.0, 3.0, 1.0], [2.0, 2.0, 0.0]]), rho)


def test_ci_payoff_set_warns_on_empty_bracket():
    # at grid 0.1 the upward score puts lo at 4.317, above the downward cap hi = 2.833
    game = _empty_bracket_game()
    with pytest.warns(RuntimeWarning, match=r"empty bracket, lo 4\.317\d* > hi 2\.833"):
        ps = ci_payoff_set(game, 0.1)
    assert ps.lo == pytest.approx(4.317, abs=1e-3)
    assert ps.hi == pytest.approx(2.833, abs=1e-3)


def test_ci_payoff_set_nonempty_bracket_does_not_warn(game09):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = ci_payoff_set(game09, 0.05)
    assert ps.lo <= ps.hi


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


def _programs_per_point(game, grid):
    """kappa's (support, best-reply mask) programs collected one lattice point
    at a time, in order of first appearance (test-only reference)."""
    programs = {}
    for alpha_w in simplex_lattice(len(game.actions_long), grid):
        alpha = Distribution(game.actions_long, alpha_w)
        replies = br2(game, mix_signal_dist(game.rho, alpha))
        programs.setdefault(((alpha.weights > SUPPORT_CUTOFF).tobytes(),
                             np.isin(game.actions_short, replies).tobytes()), None)
    return list(programs)


SUBGRID = 1e-2  # spacing of the mixed replies the sub-grid reference lists


def _subgrid_programs_per_point(game, grid):
    """The (support, reply) programs of an earlier kappa, which listed every
    pure best reply and a 1e-2 lattice of their mixtures instead of making the
    reply a variable: (support mask, reply weights, properly mixed) triples,
    collected one lattice point at a time (test-only reference)."""
    programs = {}
    n_b = len(game.actions_short)
    for alpha_w in simplex_lattice(len(game.actions_long), grid):
        alpha = Distribution(game.actions_long, alpha_w)
        supp = alpha.weights > SUPPORT_CUTOFF
        keep = np.flatnonzero(np.isin(game.actions_short,
                                      br2(game, mix_signal_dist(game.rho, alpha))))
        mixes = simplex_lattice(len(keep), SUBGRID) if len(keep) >= 2 else np.ones((1, 1))
        for mix in mixes:
            w = np.zeros(n_b)
            w[keep] = mix
            w /= float(w.sum())
            programs.setdefault((supp.tobytes(), w.tobytes()),
                                (supp, w, not np.any(np.abs(mix - 1.0) < 1e-12)))
    return list(programs.values())


def _four_action_game():
    # four long-run actions, three signals, three replies; integer payoffs give exact ties
    acts, sig = ("a0", "a1", "a2", "a3"), ("y0", "y1", "y2")
    rho = SignalStructure(acts, sig, np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                                               [0.1, 0.2, 0.7], [0.3, 0.3, 0.4]]))
    return StageGame(acts, ("b0", "b1", "b2"), sig,
                     np.array([[2.0, 0.0, 1.0], [3.0, 1.0, 1.0], [1.0, 2.0, 0.0], [2.0, 2.0, 2.0]]),
                     np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 2.0]]), rho)


def _tie_game():
    # replies b0 and b1 have equal signal payoffs, so both are always best
    # together; u's first column is constant
    acts, sig = ("a0", "a1", "a2"), ("y0", "y1")
    rho = SignalStructure(acts, sig, np.array([[0.7, 0.3], [0.4, 0.6], [0.2, 0.8]]))
    return StageGame(acts, ("b0", "b1", "b2"), sig,
                     np.array([[2.0, 0.0, 3.0], [2.0, 1.0, 0.0], [2.0, 3.0, 1.0]]),
                     np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), rho)


@pytest.mark.parametrize("make, grid", [
    (lambda: product_choice(0.9, 0.4, 0.0)[0], 1e-2),
    (_mixed_feasibility_game, 0.1),
    (_four_action_game, 0.1),
    (_tie_game, 0.05),
], ids=["product_choice", "mixed_feasibility", "four_actions", "tie"])
def test_kappa_collects_the_per_point_programs_in_order(monkeypatch, make, grid):
    game = make()
    batches = []

    def record(game, supp, beta_lb, beta_ub, direction):  # no solve: only the collection
        batches.append((supp, beta_lb, beta_ub, direction))
        return [ScoreResult(False, None, None, int(d)) for d in direction]

    monkeypatch.setattr(repgame.scores, "_solve_scores", record)
    assert kappa(game, grid) == (-np.inf, -np.inf)
    (supp, beta_lb, beta_ub, direction), = batches
    # replies are free on the best-reply mask and pinned to 0 off it
    assert not beta_lb.any()
    assert np.all((beta_ub == np.inf) | (beta_ub == 0.0))
    keys = [(s.tobytes(), (ub == np.inf).tobytes()) for s, ub in zip(supp, beta_ub)]
    # every program for +1, then the same programs for -1
    programs = _programs_per_point(game, grid)
    assert keys == programs + programs
    assert direction.tolist() == [+1] * len(programs) + [-1] * len(programs)


def test_kappa_programs_reach_the_lp_in_order_of_first_appearance(monkeypatch):
    # the four-action game's programs sort in another order than they appear
    # along the lattice; the one LP holds them as they appear
    game, grid = _four_action_game(), 0.1
    programs = _programs_per_point(game, grid)
    assert programs != sorted(programs)
    supp = np.array([np.frombuffer(s, dtype=bool) for s, _ in programs] * 2)
    replies = np.array([np.frombuffer(r, dtype=bool) for _, r in programs] * 2)
    direction = np.repeat([+1, -1], len(programs))
    expected = _score_lp(game, supp, np.zeros(replies.shape), np.where(replies, np.inf, 0.0),
                         direction)
    calls = []
    real = repgame.scores.linprog

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(repgame.scores, "linprog", recording)
    kappa(game, grid)

    def flat(args):  # (c, (data, indices, indptr), b_eq, lb, ub) as bytes
        return [x.tobytes() for x in (args[0], *args[1], *args[2:])]

    assert flat(calls[0]) == flat(expected)


def _stackelberg_per_point(game, grid, pure=False):
    """The Stackelberg search one point at a time (test-only reference)."""
    n = len(game.actions_long)
    points = np.eye(n) if pure else simplex_lattice(n, grid)
    best, best_alpha = -np.inf, None
    for alpha_w in points:
        alpha = Distribution(game.actions_long, alpha_w)
        replies = br2(game, mix_signal_dist(game.rho, alpha))
        u_row = alpha.weights @ game.u
        val = min(float(u_row[game.actions_short.index(b)]) for b in replies)
        if val > best:
            best, best_alpha = val, alpha
    return best, best_alpha


@pytest.mark.parametrize("make, grid", [
    (lambda: product_choice(0.6, 0.3, 0.1)[0], 1e-3),
    (_four_action_game, 0.05),
    (_tie_game, 0.02),
    (_mixed_feasibility_game, 0.01),
], ids=["product_choice", "four_actions", "tie", "mixed_feasibility"])
@pytest.mark.parametrize("pure", [False, True])
def test_stackelberg_matches_per_point_loop(make, grid, pure):
    game = make()
    value, alpha = stackelberg(game, grid, pure=pure)
    ref_value, ref_alpha = _stackelberg_per_point(game, grid, pure)
    assert value == ref_value
    assert alpha.labels == ref_alpha.labels
    assert alpha.weights.tobytes() == ref_alpha.weights.tobytes()


def _always_tied_game():
    # u = [[1, 2], [2, 0]], rho = Bern(0.9)/Bern(0.4); b0 and b1 have equal
    # signal payoffs, so both are best replies at every alpha
    acts, sig = ("a_h", "a_l"), ("y_h", "y_l")
    rho = SignalStructure(acts, sig, np.array([[0.9, 0.1], [0.4, 0.6]]))
    return StageGame(acts, ("b0", "b1"), sig, np.array([[1.0, 2.0], [2.0, 0.0]]),
                     np.array([[1.0, 0.0], [1.0, 0.0]]), rho)


@pytest.mark.parametrize("make, grid", [
    (lambda: product_choice(0.9, 0.4, 0.0)[0], 1e-2),
    (_mixed_feasibility_game, 0.1),
    (_four_action_game, 0.1),
    (_tie_game, 0.5),
    (_empty_bracket_game, 0.1),
    (_always_tied_game, 0.1),
], ids=["product_choice", "mixed_feasibility", "four_actions", "tie", "empty_bracket",
        "always_tied"])
@pytest.mark.parametrize("direction", [+1, -1])
def test_kappa_dominates_the_reply_subgrid(make, grid, direction):
    # every reply of the sub-grid reference is in its program's reply simplex,
    # so kappa is at least every reference score; where no properly mixed
    # reference reply beats the pure ones, the pure replies attain kappa
    game = make()
    best = {False: -np.inf, True: -np.inf}
    for supp, w, mixed in _subgrid_programs_per_point(game, grid):
        ref = _dense_score(game, supp, w, w, direction)
        assert ref.status in (0, 2)
        if ref.status == 0:
            best[mixed] = max(best[mixed], direction * ref.x[0])
    value = kappa(game, grid)[0 if direction == +1 else 1]
    assert value >= max(best.values()) - 1e-9
    if best[True] <= best[False] + 1e-9:
        assert abs(value - best[False]) <= 1e-9


@pytest.mark.parametrize("grid", [0.1, 1e-2, 1e-3])
def test_kappa_minus_closed_form_with_always_tied_replies(grid):
    # With x >= 0 and support {a_h}, z = 2 - b + 0.9 x_h + 0.1 x_l and a_l's
    # incentive needs x_h - x_l >= 2 (3b - 2), b = beta(b0); so the least z
    # is 2 - b for b <= 2/3 and 4.4 b - 1.6 above: 4/3 at beta = (2/3, 1/3).
    # {a_l} and the mixed support reach the same 4/3 at the same beta. No
    # 1e-2 sub-grid reply gets below 1.34.
    game = _always_tied_game()
    assert abs(kappa(game, grid)[1] - (-4.0 / 3.0)) <= 1e-9
    a_h = game.long_dist([1.0, 0.0])
    assert kstar(game, a_h, game.short_dist([2 / 3, 1 / 3]), -1).z == pytest.approx(4 / 3, abs=1e-9)
    for b in (0.66, 0.67):
        assert kstar(game, a_h, game.short_dist([b, 1 - b]), -1).z >= 1.34 - 1e-9


def test_kappa_with_four_always_tied_replies_is_fast():
    # four replies with equal signal payoffs are tied at every alpha; a 1e-2
    # lattice of their mixtures has 176,851 points, the reply simplex is one program
    game06 = product_choice(0.6, 0.3, 0.15)[0]
    game = StageGame(game06.actions_long, ("b0", "b1", "b2", "b3"), game06.signals,
                     np.array([[2.0, 0.0, 1.0, 0.5], [3.0, 1.0, 2.0, 1.5]]),
                     np.array([[1.0, 0.0]] * 4), game06.rho)
    t0 = time.perf_counter()
    ps = ci_payoff_set(game, 0.1)
    assert time.perf_counter() - t0 < 1.0
    assert (ps.kappa_plus, ps.kappa_minus) == (3.0, -1.0)


def test_stackelberg_and_bounds_speed_on_three_actions():
    # the 3x3 game of test_ci_payoff_set_warns_on_empty_bracket at grid 1e-3
    game = _empty_bracket_game()
    t0 = time.perf_counter()
    stackelberg(game, 1e-3)
    t1 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ci_payoff_set(game, 1e-3)
    t2 = time.perf_counter()
    assert t1 - t0 < 1.0
    assert t2 - t1 < 3.0
