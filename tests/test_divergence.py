"""Divergence geometry: closed-form oracles, LP/KL cross-checks, and the
information inequalities every downstream bound leans on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgame.bruteforce import grid_min_kl_forward
from repgame.divergence import (dc_dn, find_alpha_star, hull_membership, kl,
                                min_kl_over_attainable,
                                minimize_convex_over_simplex,
                                normal_favoring_check, separation_value, tv)
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


def test_simplex_minimizer_iteration_cap_warns():
    # interior optimum off the first search segment, zero gap tolerance:
    # two iterations cannot finish, so the cap warning must fire
    target = np.array([0.5, 0.3, 0.2])

    def f(x):
        return float(np.sum((x - target) ** 2)), 2.0 * (x - target)

    with pytest.warns(RuntimeWarning, match="iteration cap"):
        res = minimize_convex_over_simplex(f, 3, gap_tol=0.0, max_iter=2)
    assert not res.converged


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
