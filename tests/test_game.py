import numpy as np
import pytest

from repgame.game import (Distribution, SignalStructure, StageGame,
                          mix_signal_dist)


def test_distribution_normalizes_near_one_sums():
    d = Distribution(("a", "b"), np.array([0.5, 0.5 + 4e-10]))
    assert d.weights.sum() == 1.0


def test_distribution_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        Distribution(("a", "b"), np.array([0.6, 0.6]))


def test_distribution_rejects_negative_weight():
    with pytest.raises(ValueError, match="negative"):
        Distribution(("a", "b"), np.array([1.1, -0.1]))


def test_distribution_clips_negative_dust():
    d = Distribution(("a", "b"), np.array([1.0 + 1e-13, -1e-13]))
    assert d["b"] == 0.0


def test_distribution_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        Distribution(("a", "a"), np.array([0.5, 0.5]))


def test_point_mass_and_uniform():
    pm = Distribution.point_mass(("x", "y", "z"), "y")
    assert pm.weights.tolist() == [0.0, 1.0, 0.0]
    assert Distribution.uniform(("x", "y"))["x"] == 0.5


def test_distribution_weights_are_frozen():
    d = Distribution.uniform(("a", "b"))
    with pytest.raises(ValueError):
        d.weights[0] = 0.9


def test_signal_structure_requires_full_support():
    with pytest.raises(ValueError, match="full support"):
        SignalStructure(("a",), ("y0", "y1"), np.array([[1.0, 0.0]]))


def test_signal_structure_shape_check():
    with pytest.raises(ValueError, match="shape"):
        SignalStructure(("a", "b"), ("y0", "y1"), np.array([[0.5, 0.5]]))


def test_signal_structure_row(game09):
    row = game09.rho.row("a_l")
    assert row["y_h"] == pytest.approx(0.4)
    assert row.labels == ("y_h", "y_l")


def test_stage_game_exante_payoffs_recover_target_matrix(game09, game06):
    # v_tilde was chosen so that rho @ v_tilde.T reproduces the same 2x2
    # opponent payoffs regardless of the monitoring parameters.
    expected = np.array([[3.0, 2.0], [0.0, 1.0]])
    assert np.allclose(game09.v, expected, atol=1e-12)
    assert np.allclose(game06.v, expected, atol=1e-12)


def test_stage_game_rejects_mismatched_rho():
    rho = SignalStructure(("a", "b"), ("y0", "y1"), np.array([[0.9, 0.1], [0.4, 0.6]]))
    with pytest.raises(ValueError, match="actions"):
        StageGame(("x", "y"), ("l", "r"), ("y0", "y1"),
                  np.zeros((2, 2)), np.zeros((2, 2)), rho)


def test_u_range_and_v_tilde_sup(game06):
    assert game06.u_range == (0.0, 3.0)
    assert game06.v_tilde_sup == pytest.approx(7.0)


def test_mix_signal_dist(game09):
    alpha = game09.long_dist([0.5, 0.5])
    mix = mix_signal_dist(game09.rho, alpha)
    assert mix["y_h"] == pytest.approx(0.65)


def test_mix_signal_dist_label_check(game09):
    with pytest.raises(ValueError):
        mix_signal_dist(game09.rho, Distribution(("b_h", "b_l"), [0.5, 0.5]))
