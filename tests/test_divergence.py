"""Divergence geometry: closed-form oracles, LP/KL cross-checks, and the
information inequalities every downstream bound leans on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, linprog

import repgame.divergence
from repgame.bruteforce import grid_min_kl_forward
from repgame.divergence import (MEMBER_TOL, SeparationCertificate, SeparationReport,
                                SimplexMinResult, _brentq, dc_dn, find_alpha_star,
                                hull_membership, kl, min_kl_over_attainable,
                                minimize_convex_over_simplex,
                                normal_favoring_check, separation_value, tv)
from repgame.frameworks import Framework
from repgame.game import Distribution, SignalStructure

# Hand values for the Bern(0.6)/Bern(0.3) monitoring rows.
SEP_06_03_EPS01 = 0.022582421084357485   # D(Bern(0.6) || Bern(0.7))
D_C_MISSPEC = 0.0008248653376360694      # D(Bern(0.6) || Bern(0.58))
D_N_MISSPEC = 0.04522775102365467        # D(Bern(0.6) || Bern(0.45))
X_EPS = 0.55 * (1.0 + 0.05 / 0.3)        # 0.6416666...


def bern(ph):
    return Distribution(("y_h", "y_l"), np.array([ph, 1.0 - ph]))


def test_kl_closed_form():
    assert kl(bern(0.6), bern(0.7)) == pytest.approx(SEP_06_03_EPS01, abs=1e-15)


def test_kl_zero_iff_equal():
    p = bern(0.37)
    assert kl(p, p) == 0.0
    assert kl(p, bern(0.36)) > 0.0


def test_kl_handles_zero_mass_in_p():
    p = Distribution(("a", "b"), np.array([1.0, 0.0]))
    q = Distribution(("a", "b"), np.array([0.5, 0.5]))
    assert kl(p, q) == pytest.approx(math.log(2.0))


def test_kl_rejects_absolute_continuity_failure():
    p = Distribution(("a", "b"), np.array([0.5, 0.5]))
    q = Distribution(("a", "b"), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="zero mass"):
        kl(p, q)


def test_kl_and_tv_reject_label_mismatch():
    p = Distribution(("a", "b"), np.array([0.5, 0.5]))
    q = Distribution(("x", "y"), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        kl(p, q)
    with pytest.raises(ValueError):
        tv(p, q)


def test_tv_is_half_l1():
    assert tv(bern(0.9), bern(0.4)) == pytest.approx(0.5)


# -- randomized information inequalities -------------------------------------

@st.composite
def dist_pairs(draw):
    n = draw(st.integers(2, 5))
    labels = tuple(f"y{i}" for i in range(n))
    raw_p = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    raw_q = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    p = np.asarray(raw_p) / sum(raw_p)
    q = np.asarray(raw_q) / sum(raw_q)
    return Distribution(labels, p), Distribution(labels, q)


@given(dist_pairs())
@settings(max_examples=200)
def test_kl_nonnegative(pair):
    p, q = pair
    assert kl(p, q) >= -1e-15


@given(dist_pairs())
@settings(max_examples=200)
def test_pinsker(pair):
    p, q = pair
    assert kl(p, q) >= 2.0 * tv(p, q) ** 2 - 1e-12


# -- simplex minimizer --------------------------------------------------------

def test_simplex_minimizer_interior_optimum():
    target = np.array([0.2, 0.3, 0.5])

    def f(x):
        return float(np.sum((x - target) ** 2)), 2.0 * (x - target)

    res = minimize_convex_over_simplex(f, 3)
    assert res.converged
    assert res.value <= 1e-10
    assert np.allclose(res.point, target, atol=1e-5)


def test_simplex_minimizer_vertex_optimum():
    # Euclidean projection of (-1, 0, 2) onto the simplex is the vertex e_2,
    # so the minimizer must land on a face, which is what away steps are for.
    target = np.array([-1.0, 0.0, 2.0])

    def f(x):
        return float(np.sum((x - target) ** 2)), 2.0 * (x - target)

    res = minimize_convex_over_simplex(f, 3)
    assert res.converged
    assert np.allclose(res.point, [0.0, 0.0, 1.0], atol=1e-6)
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_simplex_minimizer_iteration_cap_warns(monkeypatch):
    # interior optimum off the first search segment, zero gap tolerance:
    # two iterations cannot finish, so the cap warning must fire
    target = np.array([0.5, 0.3, 0.2])

    def f(x):
        return float(np.sum((x - target) ** 2)), 2.0 * (x - target)

    monkeypatch.setattr(repgame.divergence, "FW_GAP_TOL", 0.0)
    monkeypatch.setattr(repgame.divergence, "FW_MAX_ITER", 2)
    with pytest.warns(RuntimeWarning, match="iteration cap 2 "):
        res = minimize_convex_over_simplex(f, 3)
    assert not res.converged


def test_simplex_minimizer_survives_rounding_level_gaps(monkeypatch):
    # At an FW_GAP_TOL of 0 this interior projection reaches a step whose
    # phi'(0) = grad . d has rounded to >= 0: the root-find has no bracket
    # there, so the step must be skipped rather than raise.
    R = np.array([[0.6442357150065474, 0.2470017309792342, 0.10876255401421847],
                  [0.2796691055355149, 0.6523560377286913, 0.06797485673579381],
                  [0.07859548211925348, 0.7330807981483237, 0.18832371973242282],
                  [0.07192450075414372, 0.14911394020930563, 0.7789615590365507]])
    alpha = np.array([0.3113068153847344, 0.2150387430223658,
                      0.2399268335271066, 0.23372760806579318])
    labels = ("y0", "y1", "y2")
    rho = SignalStructure(("a0", "a1", "a2", "a3"), labels, R)
    monkeypatch.setattr(repgame.divergence, "FW_GAP_TOL", 0.0)
    monkeypatch.setattr(repgame.divergence, "FW_MAX_ITER", 100)
    res = min_kl_over_attainable(Distribution(labels, alpha @ R), rho)
    assert res.converged
    assert res.value <= 1e-15


# -- hull membership ----------------------------------------------------------

def rho_06_03():
    return SignalStructure(("a_h", "a_l"), ("y_h", "y_l"),
                           np.array([[0.6, 0.4], [0.3, 0.7]]))


def test_hull_member_has_witness():
    rho = rho_06_03()
    res = hull_membership(bern(0.45), rho)
    assert res.member
    assert res.certificate is None
    assert res.residual <= 1e-9
    assert np.allclose(res.witness.weights @ rho.matrix, [0.45, 0.55], atol=1e-9)


def test_hull_nonmember_has_separating_certificate():
    rho = rho_06_03()
    res = hull_membership(bern(0.7), rho)
    assert not res.member
    assert res.witness is None
    cert = res.certificate
    assert cert.margin > 0.0
    # the hyperplane really separates: h.q strictly above every row's h.rho_a
    gap = float(cert.normal @ bern(0.7).weights - (rho.matrix @ cert.normal).max())
    assert gap >= cert.margin - 1e-9


def test_hull_membership_label_check():
    with pytest.raises(ValueError, match="signal labels"):
        hull_membership(Distribution(("u", "v"), [0.5, 0.5]), rho_06_03())


# -- root-find line search and dual certificate vs their references ----------

def bisection_minimize(value_and_grad, n):
    """Reference: minimize_convex_over_simplex, with the same FW_GAP_TOL and
    FW_MAX_ITER, and its line search done by up to 80 bisection steps on
    phi'. Test-only; the library root-finds instead."""
    x = np.full(n, 1.0 / n)
    val, grad = value_and_grad(x)
    it = 0
    gap = np.inf
    for it in range(1, repgame.divergence.FW_MAX_ITER + 1):
        s = int(np.argmin(grad))
        gap = float(grad @ x - grad[s])
        if gap <= repgame.divergence.FW_GAP_TOL:
            return SimplexMinResult(x, val, gap, it, True)
        support = np.flatnonzero(x > 0.0)
        a = int(support[np.argmax(grad[support])])
        away_gap = float(grad[a] - grad @ x)
        if away_gap > gap and x[a] < 1.0:
            d = x.copy()
            d[a] -= 1.0
            gamma_max = x[a] / (1.0 - x[a])
        else:
            d = -x.copy()
            d[s] += 1.0
            gamma_max = 1.0

        def dphi(gamma):
            _, g = value_and_grad(x + gamma * d)
            return float(g @ d)

        if dphi(gamma_max) <= 0.0:
            gamma = gamma_max
        else:
            lo, hi = 0.0, gamma_max
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:  # adjacent doubles: no further step moves them
                    break
                if dphi(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            gamma = 0.5 * (lo + hi)
        x = x + gamma * d
        np.clip(x, 0.0, None, out=x)
        x /= x.sum()
        val, grad = value_and_grad(x)
    return SimplexMinResult(x, val, gap, it, False)


def reference_hyperplane(q, R):
    """Reference: the max-margin separating hyperplane as its own LP,
    maximize h.q - z s.t. R h <= z, -1 <= h <= 1. Test-only; hull_membership
    reads the same hyperplane off its phase-1 duals."""
    n_a, n_y = R.shape
    res = linprog(np.concatenate([-q, [1.0]]), A_ub=np.hstack([R, -np.ones((n_a, 1))]),
                  b_ub=np.zeros(n_a), bounds=[(-1.0, 1.0)] * n_y + [(None, None)],
                  method="highs")
    assert res.status == 0
    h, z = res.x[:n_y], float(res.x[n_y])
    return SeparationCertificate(h, z, float(h @ q - z))


def reference_hull_membership(q, rho):
    """Reference: the phase-1 membership LP followed by a second LP for the
    hyperplane of a non-member."""
    R = rho.matrix
    n_a, n_y = R.shape
    c = np.concatenate([np.zeros(n_a), np.ones(2 * n_y)])
    A_eq = np.vstack([np.hstack([R.T, np.eye(n_y), -np.eye(n_y)]),
                      np.concatenate([np.ones(n_a), np.zeros(2 * n_y)])[None, :]])
    res = linprog(c, A_eq=A_eq, b_eq=np.concatenate([q.weights, [1.0]]),
                  bounds=(0.0, None), method="highs")
    assert res.status == 0
    alpha = np.clip(res.x[:n_a], 0.0, None)
    alpha /= alpha.sum()
    residual = float(np.abs(alpha @ R - q.weights).max())
    if residual <= MEMBER_TOL:
        return True, Distribution(rho.actions, alpha), None
    return False, None, reference_hyperplane(q.weights, R)


def random_slices(seed, count):
    """Seeded (q, rho) pairs of 2-4 actions and 2-4 signals: even cases are
    mixtures of the rows (inside the hull), odd ones free draws (mostly outside)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n_a, n_y = (int(v) for v in rng.integers(2, 5, size=2))
        R = rng.dirichlet(np.full(n_y, 2.0), size=n_a) * 0.9 + 0.1 / n_y
        if k % 2 == 0:
            q = rng.dirichlet(np.ones(n_a)) @ R
        else:
            q = rng.dirichlet(np.ones(n_y)) * 0.9 + 0.1 / n_y
        signals = tuple(f"y{i}" for i in range(n_y))
        rho = SignalStructure(tuple(f"a{i}" for i in range(n_a)), signals, R)
        yield Distribution(signals, q), rho


@pytest.mark.filterwarnings("ignore:simplex minimization stopped")
def test_root_find_line_search_matches_bisection(monkeypatch):
    # a cap of 300 iterations keeps the bisection reference affordable; the
    # few interior 3+-action slices that need more stop unconverged on both
    # sides, where each value is certified only to its own FW gap
    monkeypatch.setattr(repgame.divergence, "FW_MAX_ITER", 300)
    converged = []
    for q, rho in random_slices(11, 200):
        new = min_kl_over_attainable(q, rho)
        with monkeypatch.context() as m:
            m.setattr(repgame.divergence, "minimize_convex_over_simplex", bisection_minimize)
            ref = min_kl_over_attainable(q, rho)
        assert new.converged == ref.converged
        tol = repgame.divergence.FW_GAP_TOL if new.converged else max(new.gap, ref.gap)
        assert new.value == pytest.approx(ref.value, abs=tol)
        converged.append(new.converged)
    assert 0 < sum(converged) < len(converged)


def test_dual_certificate_matches_reference_lp():
    outside = 0
    for q, rho in random_slices(12, 200):
        res = hull_membership(q, rho)
        member, witness, ref_cert = reference_hull_membership(q, rho)
        assert res.member == member
        if member:
            assert res.witness.labels == witness.labels
            assert np.array_equal(res.witness.weights, witness.weights)
            continue
        assert res.witness is None
        cert = res.certificate
        assert cert.threshold == float((rho.matrix @ cert.normal).max())
        assert cert.margin == float(cert.normal @ q.weights) - cert.threshold
        assert np.all(np.abs(cert.normal) <= 1.0 + 1e-9)
        if ref_cert.margin >= 1e-6:
            outside += 1
            assert cert.margin > 0.0
            assert cert.margin == pytest.approx(ref_cert.margin, abs=1e-12)
    assert outside >= 50


# The benchmark's fixed interior slice (benchmark/inputs.py, FIXED_INTERIOR):
# three actions and three signals, strictly inside the hull.
FIXED_INTERIOR_R = np.array([[0.057, 0.491, 0.452], [0.282, 0.458, 0.26],
                             [0.594, 0.213, 0.193]])
FIXED_INTERIOR_ALPHA = np.array([0.303, 0.503, 0.194])


def test_root_find_costs_under_twenty_objective_calls_per_iteration(monkeypatch):
    calls = []
    real = repgame.divergence.minimize_convex_over_simplex

    def counting(value_and_grad, n):
        def counted(x):
            calls.append(1)
            return value_and_grad(x)
        return real(counted, n)

    monkeypatch.setattr(repgame.divergence, "minimize_convex_over_simplex", counting)
    labels = ("y0", "y1", "y2")
    rho = SignalStructure(("a0", "a1", "a2"), labels, FIXED_INTERIOR_R)
    res = min_kl_over_attainable(Distribution(labels, FIXED_INTERIOR_ALPHA @ FIXED_INTERIOR_R), rho)
    assert res.converged
    assert len(calls) < 20 * res.iterations


# -- the brentq port against scipy.optimize.brentq ------------------------------

def _port(g, a, b, xtol, rtol, maxiter):
    """The port handed the end values, evaluated in scipy's order: f(b) only
    once f(a) is a number."""
    fa = g(a)
    fb = math.nan if math.isnan(fa) else g(b)
    return _brentq(g, a, b, fa, fb, xtol, rtol, maxiter)


def _both_brentqs(f, a, b, xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=100):
    """(outcome, f calls) of the port and of scipy's brentq with disp=False:
    the root's hex, or the ValueError's message."""
    out = []
    for solve in (lambda g: _port(g, a, b, xtol, rtol, maxiter),
                  lambda g: brentq(g, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter, disp=False)):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)
        try:
            outcome = float(solve(counted)).hex()
        except ValueError as err:
            outcome = f"ValueError: {err}"
        out.append((outcome, calls))
    return out


@pytest.mark.filterwarnings("ignore:simplex minimization stopped")
def test_brentq_port_matches_scipy_on_recorded_line_searches(monkeypatch):
    # each line search of a seeded set of projections, replayed at once
    # through both (the step function closes over the current iterate); the
    # end values the line search hands in are the ones scipy computes
    seen = []

    def record(f, a, b, fa, fb, xtol, rtol, maxiter):
        assert (float(fa).hex(), float(fb).hex()) == (float(f(a)).hex(), float(f(b)).hex())
        (got, got_calls), (ref, ref_calls) = _both_brentqs(f, a, b, xtol, rtol, maxiter)
        seen.append((a, b))
        assert got == ref and got_calls == ref_calls
        return float.fromhex(got)

    monkeypatch.setattr(repgame.divergence, "_brentq", record)
    monkeypatch.setattr(repgame.divergence, "FW_MAX_ITER", 300)
    for q, rho in random_slices(13, 60):
        min_kl_over_attainable(q, rho)
    assert len(seen) > 1000


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 0.2, 0.0, 1.0),
    (lambda x: math.exp(x) - 2.0, 1.0, 0.0),          # reversed bracket
    (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
], ids=["cos", "cubic", "exp-reversed", "steep"])
@pytest.mark.parametrize("maxiter", [0, 1, 2, 3, 5, 100])
def test_brentq_port_matches_scipy_when_maxiter_runs_out(f, a, b, maxiter):
    got, ref = _both_brentqs(f, a, b, maxiter=maxiter)
    assert got == ref
    assert not got[0].startswith("ValueError")


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x, 0.0, 1.0),                          # root at a
    (lambda x: x - 1.0, 0.0, 1.0),                    # root at b
    (lambda x: x, -0.0, 2.0),                         # root at a, negative zero
    (lambda x: x * x + 1.0, -1.0, 1.0),               # same sign, positive
    (lambda x: -1.0 - x * x, 0.0, 2.0),               # same sign, negative
    (lambda x: math.nan, 0.0, 1.0),                   # NaN at a
    (lambda x: math.nan if x > 0.0 else -1.0, 0.0, 1.0),   # NaN at b
    (lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, 0.0, 1.0),  # NaN inside
], ids=["root-at-a", "root-at-b", "root-at-negative-zero", "same-sign-positive",
        "same-sign-negative", "nan-at-a", "nan-at-b", "nan-inside"])
def test_brentq_port_matches_scipy_at_the_edges(f, a, b):
    got, ref = _both_brentqs(f, a, b)
    assert got == ref


# -- KL projection vs the independent grid oracle -----------------------------

def test_min_kl_matches_closed_form():
    res = min_kl_over_attainable(bern(0.7), rho_06_03())
    assert res.converged
    assert res.value == pytest.approx(SEP_06_03_EPS01, abs=1e-9)
    # optimum is the closest vertex: pure a_h (location is sqrt-of-gap accurate)
    assert np.allclose(res.argmin.weights, [1.0, 0.0], atol=1e-4)


def test_min_kl_matches_grid_oracle_two_signals():
    rng = np.random.default_rng(4)
    rho = rho_06_03()
    for _ in range(10):
        qh = rng.uniform(0.05, 0.95)
        q = bern(qh)
        proj = min_kl_over_attainable(q, rho).value
        grid, _ = grid_min_kl_forward(q.weights, rho.matrix, 1e-5)
        assert proj == pytest.approx(grid, abs=1e-8)


def test_min_kl_matches_grid_oracle_three_signals():
    rng = np.random.default_rng(5)
    labels = ("y0", "y1", "y2")
    for _ in range(5):
        R = rng.dirichlet(np.ones(3) * 3.0, size=3) * 0.9 + 0.1 / 3.0
        rho = SignalStructure(("a0", "a1", "a2"), labels, R)
        q = Distribution(labels, rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3.0)
        proj = min_kl_over_attainable(q, rho).value
        grid, _ = grid_min_kl_forward(q.weights, rho.matrix, 1e-3)
        # the lattice value can only overshoot, and by O(resolution^2)
        assert grid >= proj - 1e-10
        assert grid - proj <= 1e-4


def test_min_kl_requires_full_support_target():
    with pytest.raises(ValueError, match="full support"):
        min_kl_over_attainable(Distribution(("y_h", "y_l"), [1.0, 0.0]), rho_06_03())


# -- separation of whole frameworks -------------------------------------------

def test_separation_value_frozen_case(game06, fw06):
    rep = separation_value(fw06, game06.rho)
    assert rep.separating
    assert rep.value == pytest.approx(SEP_06_03_EPS01, abs=1e-8)
    assert rep.argmin_model == "m0"
    assert rep.membership == {"m0": False}
    assert rep.per_model_value["m0"] == rep.value


def test_separation_vanishes_for_attainable_slice(ce):
    game, fw = ce
    rep = separation_value(fw, game.rho)
    assert not rep.separating
    assert rep.value <= 1e-8
    assert rep.membership["m0"]


def test_find_alpha_star(ce):
    game, fw = ce
    found = find_alpha_star(separation_value(fw, game.rho))
    assert found is not None
    model, alpha = found
    assert model == "m0"
    assert alpha.weights[0] == pytest.approx(X_EPS, abs=1e-7)


def test_find_alpha_star_takes_first_member_in_framework_order(game06):
    # both slices lie inside co{Bern(0.6), Bern(0.3)}, so both min-KL values
    # are rounding noise; the choice must follow model order, not that noise
    def framework(models, highs):
        kernels = np.array([[[h, 1.0 - h], [0.3, 0.7]] for h in highs])
        return Framework(models=models, actions=game06.actions_long, signals=game06.rho.signals,
                         normal_kernels=np.stack([game06.rho.matrix] * 2),
                         commitment_kernels=kernels, prior=np.full((2, 2), 0.25),
                         commitment_action=Distribution(game06.actions_long, [1.0, 0.0]))

    for models, highs in ((("m0", "m1"), (0.5, 0.4)), (("m1", "m0"), (0.4, 0.5))):
        rep = separation_value(framework(models, highs), game06.rho)
        assert list(rep.membership.values()) == [True, True]
        model, alpha = find_alpha_star(rep)
        assert model == models[0]
        assert alpha.weights @ game06.rho.matrix[:, 0] == pytest.approx(highs[0], abs=1e-9)
        # the smaller KL sits on the second model: the choice ignores it
        noisy = SeparationReport(rep.value, rep.argmin_alpha, rep.argmin_model, rep.membership,
                                 rep.witnesses, {models[0]: 3e-17, models[1]: 1e-17})
        assert find_alpha_star(noisy)[0] == models[0]


def test_find_alpha_star_takes_a_member_whatever_its_kl(game06):
    # attainability is the LP's verdict: a member whose projection stopped at
    # KL 5e-8 (below EQUIV_TOL, so separation_value accepts it) is alpha*
    witness = Distribution(game06.actions_long, [0.5, 0.5])
    rep = SeparationReport(5e-8, witness, "m0", {"m0": True}, {"m0": witness}, {"m0": 5e-8})
    assert not rep.separating
    assert find_alpha_star(rep) == ("m0", witness)


def test_find_alpha_star_none_when_separating(game06, fw06):
    assert find_alpha_star(separation_value(fw06, game06.rho)) is None


def test_dc_dn_frozen_case(nm):
    game, fw = nm
    alpha = Distribution(game.actions_long, [1.0, 0.0])
    res = dc_dn(fw, game.rho, alpha)
    assert res.d_c == pytest.approx(D_C_MISSPEC, abs=1e-6)
    assert res.d_n == pytest.approx(D_N_MISSPEC, abs=1e-6)
    assert res.d_c < res.d_n
    assert res.m_star == "m0"


def test_normal_favoring_check_validation(game06, fw06):
    with pytest.raises(ValueError, match="empty"):
        normal_favoring_check(fw06, game06.rho, ())
    with pytest.raises(ValueError, match="unknown"):
        normal_favoring_check(fw06, game06.rho, ("nope",))
