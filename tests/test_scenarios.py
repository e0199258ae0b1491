import numpy as np
import pytest

from repgame.divergence import normal_favoring_check, separation_value
from repgame.game import Distribution
from repgame.scenarios import (SCENARIOS, build_scenario, counter_example,
                               normal_misspec_scenario, perturbation_sequence,
                               product_choice, three_signal)


def test_product_choice_kernels(game06, fw06):
    assert np.allclose(game06.rho.matrix, [[0.6, 0.4], [0.3, 0.7]])
    assert np.allclose(fw06.normal_kernels[0], game06.rho.matrix)
    assert np.allclose(fw06.commitment_kernels[0, 0], [0.7, 0.3])
    assert np.allclose(fw06.commitment_kernels[0, 1], [0.3, 0.7])
    assert fw06.commitment_action.weights.tolist() == [1.0, 0.0]
    # correctly specified: the normal kernel is rho itself, bit for bit
    assert np.array_equal(fw06.normal_kernels[0], game06.rho.matrix)


def test_product_choice_lifted_payoffs(game06, game09):
    # the signal-measurable lift must reproduce the 2x2 opponent payoffs
    assert np.allclose(game06.v_tilde, [[7.0, -3.0], [10.0 / 3.0, 0.0]])
    assert np.allclose(game09.v_tilde, [[3.6, -2.4], [2.2, 0.2]])
    for game in (game06, game09):
        assert np.allclose(game.rho.matrix @ game.v_tilde.T,
                           [[3.0, 2.0], [0.0, 1.0]])


def test_product_choice_validation():
    with pytest.raises(ValueError, match="0 < q < p < 1"):
        product_choice(0.3, 0.6, 0.1)
    with pytest.raises(ValueError, match="1-p"):
        product_choice(0.6, 0.3, 0.5)
    with pytest.raises(ValueError, match="mu0"):
        product_choice(0.6, 0.3, 0.1, mu0=0.0)


def test_product_choice_epsilon_zero_is_attainable():
    game, fw = product_choice(0.6, 0.3, 0.0)
    assert not separation_value(fw, game.rho).separating


def test_three_signal_membership_pivots_on_epsilon():
    game, fw = three_signal(0.6, 0.3, 0.1, 0.02, 0.7)
    rep = separation_value(fw, game.rho)
    assert rep.separating
    # no mixture moves the uninformative signal's mass, and that is the gap
    game0, fw0 = three_signal(0.6, 0.3, 0.1, 0.0, 0.7)
    rep0 = separation_value(fw0, game0.rho)
    assert not rep0.separating
    assert rep0.value <= 1e-9


def test_three_signal_commitment_mixture_echoed():
    game, fw = three_signal(0.6, 0.3, 0.1, 0.0, 0.7)
    assert np.allclose(fw.commitment_action.weights, [0.7, 0.3])
    # slice y_h mass = x p + (1-x) q
    assert fw.commitment_slices[0][0] == pytest.approx(0.7 * 0.6 + 0.3 * 0.3)


def test_three_signal_validation():
    with pytest.raises(ValueError, match="y_l"):
        three_signal(0.6, 0.3, 0.1, 0.5, 0.7)
    with pytest.raises(ValueError, match="x in"):
        three_signal(0.6, 0.3, 0.1, 0.0, 0.4)
    with pytest.raises(ValueError, match="r in"):
        three_signal(0.6, 0.3, 0.7, 0.0, 0.7)


def test_counter_example_slice_is_attainable(ce):
    game, fw = ce
    # believed slice: x(p+eps) + (1-x) q on y_h
    assert fw.commitment_slices[0][0] == pytest.approx(0.4925)
    rep = separation_value(fw, game.rho)
    assert not rep.separating


def test_counter_example_rejects_unattainable_inflation():
    with pytest.raises(ValueError, match="x_eps"):
        counter_example(0.6, 0.3, 0.05, 0.9)  # 0.9 * 7/6 > 1


def test_normal_misspec_scenario(nm):
    game, fw = nm
    assert not np.array_equal(fw.normal_kernels[0], game.rho.matrix)
    assert np.allclose(fw.normal_kernels[0], [[0.45, 0.55], [0.15, 0.85]])
    assert np.allclose(fw.commitment_kernels[0], [[0.58, 0.42], [0.58, 0.42]])
    assert not separation_value(fw, game.rho).separating


def test_perturbation_sequence_members(game06, fw06):
    seq = perturbation_sequence(game06, fw06, 4)
    assert len(seq) == 4
    for fw in seq:
        assert fw.models == ("m0", "m_good")
        assert np.allclose(fw.normal_kernels[-1], game06.rho.matrix)
        assert normal_favoring_check(fw, game06.rho, ("m_good",))
        assert not np.array_equal(fw.normal_kernels[0], game06.rho.matrix)
        # the good model holds a tenth of each type's prior mass
        assert fw.prior[0, 1] == pytest.approx(0.1 * 0.5)
    # perturbations shrink back toward the base as n grows
    gaps = [float(np.abs(fw.normal_kernels[0] - fw06.normal_kernels[0]).max())
            for fw in seq]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[0] == pytest.approx(np.abs(
        np.roll(game06.rho.matrix, 1, axis=0) - game06.rho.matrix).max() / 3.0)


def test_perturbation_sequence_validation(game06, fw06, ce):
    with pytest.raises(ValueError, match="separating"):
        perturbation_sequence(ce[0], ce[1], 2)
    with pytest.raises(ValueError, match="shift"):
        perturbation_sequence(game06, fw06, 2, shift_scale=4.0)
    with pytest.raises(ValueError, match="n_max"):
        perturbation_sequence(game06, fw06, 0)
    member = perturbation_sequence(game06, fw06, 1)[0]
    with pytest.raises(ValueError, match="m_good"):
        perturbation_sequence(game06, member, 1)


def test_registry_names():
    assert set(SCENARIOS) == {"product_choice", "three_signal",
                              "counter_example", "normal_misspec"}


def test_build_scenario_defaults_and_errors():
    game, fw = build_scenario("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.1})
    assert fw.prior[1].sum() == pytest.approx(0.5)  # default mu0
    with pytest.raises(KeyError, match="unknown scenario"):
        build_scenario("nope", {})
    with pytest.raises(ValueError, match="does not take"):
        build_scenario("normal_misspec", {"p": 0.5})
    with pytest.raises(ValueError, match="needs parameter"):
        build_scenario("product_choice", {"p": 0.6, "q": 0.3})


def test_build_scenario_coerces_strings():
    game, fw = build_scenario("product_choice",
                              {"p": "0.6", "q": "0.3", "epsilon": "0.1"})
    assert fw.commitment_kernels[0, 0, 0] == pytest.approx(0.7)
