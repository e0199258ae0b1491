import numpy as np
import pytest

from repgame.frameworks import Framework
from repgame.game import (Distribution, SignalStructure, StageGame, _as_prob_vector,
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


# -- one validation pass per matrix: rho and the kernels -----------------------

def _rows_target(target, m):
    """Validate the rows ``m`` (two models x two actions x three signals) as
    ``target``: rho takes model m1's rows, a kernel all four."""
    signals, actions = ("y0", "y1", "y2"), ("a0", "a1")
    if target == "rho":
        return SignalStructure(actions, signals, m[1]).matrix
    ok = np.full((2, 2, 3), 1 / 3)
    nk, ck = (m, ok) if target == "normal kernels" else (ok, m)
    fw = Framework(("m0", "m1"), actions, signals, nk, ck, np.full((2, 2), 0.25),
                   Distribution.uniform(actions))
    return fw.normal_kernels if target == "normal kernels" else fw.commitment_kernels


def _label(target, model, action):
    return f"rho(.|{action})" if target == "rho" else f"{target} f(.|{action},{model})"


@pytest.mark.parametrize("target", ["rho", "normal kernels", "commitment kernels"])
def test_rows_are_normalized_as_one_vector_each(target):
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.dirichlet(np.ones(3), size=(2, 2)) + rng.uniform(-2e-10, 2e-10, size=(2, 2, 3))
        got = _rows_target(target, m)
        rows = m[1] if target == "rho" else m
        ref = np.array([_as_prob_vector(r, 3, "ref") for r in rows.reshape(-1, 3)])
        assert got.tobytes() == ref.reshape(rows.shape).tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("target", ["rho", "normal kernels", "commitment kernels"])
@pytest.mark.parametrize("bad, message", [
    ([np.nan, 0.5, 0.5], "non-finite weight"),
    ([-0.1, 0.6, 0.5], "negative weight -0.1 at index 0"),
    ([0.5, 0.5, 0.25], "weights sum to 1.25, not 1 (tolerance 1e-09)"),
], ids=["non-finite", "negative", "off-sum"])
def test_first_failing_row_raises_its_own_message(target, bad, message):
    # the row of (m1, a0) fails, and so does the later row of (m1, a1)
    m = np.full((2, 2, 3), 1 / 3)
    m[1, 0] = bad
    m[1, 1] = [np.inf, 0.0, 0.0]
    with pytest.raises(ValueError) as err:
        _rows_target(target, m)
    assert str(err.value) == f"{_label(target, 'm1', 'a0')}: {message}"


def test_full_support_message_prints_a_plain_number():
    with pytest.raises(ValueError) as err:
        SignalStructure(("a0", "a1"), ("y0", "y1"), np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert str(err.value) == ("SignalStructure: rho(y1|a0) = 0.0; "
                              "full support requires every entry > 0")


@pytest.mark.parametrize("target", ["normal kernels", "commitment kernels"])
def test_kernel_full_support_message_names_the_entry(target):
    # the zero entries are f(y1|a0,m1) and, later, f(y2|a1,m1): the first is named
    m = np.full((2, 2, 3), 1 / 3)
    m[1, 0] = [0.5, 0.0, 0.5]
    m[1, 1] = [0.5, 0.5, 0.0]
    with pytest.raises(ValueError) as err:
        _rows_target(target, m)
    assert str(err.value) == (f"{target}: f(y1|a0,m1) = 0.0; "
                              "full support requires every entry > 0")
