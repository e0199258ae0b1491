"""The simplex lattice and the dense-grid KL oracles."""

import itertools

import numpy as np
import pytest

import repgame.bruteforce
from repgame.bruteforce import (LATTICE_CAP, check_lattice, grid_min_kl_forward,
                                grid_min_kl_reverse, lattice_size, simplex_lattice)


def _lattice_per_point(n, resolution):
    """The lattice one point at a time, in its documented order (test-only reference)."""
    k = round(1.0 / resolution)
    if n == 2:
        for i in range(k + 1):
            yield np.array([i / k, (k - i) / k])
        return
    for comp in itertools.combinations_with_replacement(range(n), k):
        yield np.bincount(np.asarray(comp), minlength=n) / k


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("resolution", [1.0, 0.5, 0.25, 0.1, 1 / 7, 0.05])
def test_simplex_lattice_matches_per_point_order(n, resolution):
    got = simplex_lattice(n, resolution)
    want = np.array(list(_lattice_per_point(n, resolution)))
    assert got.shape == want.shape == (lattice_size(n, resolution), n)
    assert got.tobytes() == want.tobytes()


def test_simplex_lattice_two_actions_at_fine_grid():
    got = simplex_lattice(2, 1e-3)
    assert got.tobytes() == np.array(list(_lattice_per_point(2, 1e-3))).tobytes()


def test_lattice_cap():
    # three actions at 1e-4 would be 50,015,001 points; nothing is allocated
    assert lattice_size(3, 1e-4) == 50_015_001 > LATTICE_CAP
    with pytest.raises(ValueError, match="50,015,001 points"):
        simplex_lattice(3, 1e-4)
    with pytest.raises(ValueError, match="10,000,001 points"):
        check_lattice(2, 1e-7)
    assert lattice_size(3, 5e-4) == 2_003_001 <= LATTICE_CAP
    assert check_lattice(3, 5e-4) == 2000
    with pytest.raises(ValueError, match="evenly divide"):
        check_lattice(3, 0.3)


def _masked_forward_loop(q, R, resolution):
    """min over the lattice of sum m log m - m . log q with 0 log 0 = 0, one point at a time."""
    best, best_alpha = np.inf, None
    for alpha in _lattice_per_point(R.shape[0], resolution):
        m = alpha @ R
        mask = m > 0.0
        v = float(np.sum(m[mask] * np.log(m[mask]))) - float(m @ np.log(q))
        if v < best:
            best, best_alpha = v, alpha
    return best, best_alpha


@pytest.mark.parametrize("R", [
    [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.2, 0.6]],
    [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]],
    [[0.5, 0.0, 0.5], [0.1, 0.0, 0.9], [0.0, 0.0, 1.0]],
], ids=["three_actions", "two_actions", "zero_column_and_entry"])
def test_grid_min_kl_forward_counts_0_log_0_as_0(R):
    R = np.array(R)
    q = np.array([0.35, 0.55, 0.10])
    value, alpha = grid_min_kl_forward(q, R, 1e-2)
    ref_value, ref_alpha = _masked_forward_loop(q, R, 1e-2)
    assert np.isfinite(value)
    assert value == pytest.approx(ref_value, rel=1e-9, abs=1e-15)
    assert np.allclose(alpha, ref_alpha, rtol=0.0, atol=1e-12)


def test_grid_min_kl_forward_zero_entry_example():
    R = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.2, 0.6]])
    value, alpha = grid_min_kl_forward(np.array([0.35, 0.55, 0.10]), R, 1e-2)
    assert value == pytest.approx(2.2207560504750035e-05, rel=1e-9)
    assert np.allclose(alpha, [0.33, 0.5, 0.17], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("resolution", [1e-2, 2e-3])
def test_chunk_size_does_not_change_the_oracles(monkeypatch, resolution):
    rng = np.random.default_rng(7)
    R = rng.dirichlet(np.ones(4) * 2.0, size=3) * 0.9 + 0.1 / 4
    q = rng.dirichlet(np.ones(4)) * 0.9 + 0.1 / 4
    want = [grid_min_kl_forward(q, R, resolution), grid_min_kl_reverse(q, R, resolution)]
    for chunk in (7, 1000):
        monkeypatch.setattr(repgame.bruteforce, "_CHUNK", chunk)
        got = [grid_min_kl_forward(q, R, resolution), grid_min_kl_reverse(q, R, resolution)]
        for (v, a), (v_ref, a_ref) in zip(got, want):
            assert v == v_ref
            assert np.array_equal(a, a_ref)
