"""verify's collapse and perturbation suites reduce run-chunks: the same
numbers as over one full batch, holding every run's mu and one chunk."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

import repgame.beliefs
from repgame import verify
from repgame.beliefs import SimulationConfig, simulate_batch
from repgame.game import Distribution
from repgame.scenarios import perturbation_sequence, product_choice

DELTAS = (0.9, 0.99, 0.999)


def _collapse():
    return verify._collapse_config(runs=2000, horizon=400)


def _perturbation():
    game, base = product_choice(0.6, 0.3, 0.15)
    cfg = SimulationConfig(delta=0.9, master_seed=verify._SEED + 3, runs=1000,
                           true_type="normal", horizon=400,
                           normal_strategy=Distribution(game.actions_long, [0.0, 1.0]))
    return game, perturbation_sequence(game, base, 5)[2], cfg


def _reductions(mu, worst):
    """The mean curve, the three discounted means and the max excess."""
    T = mu.shape[1] - 1
    disc = [float((mu[:, :T] @ ((1.0 - d) * d ** np.arange(T))).mean()) for d in DELTAS]
    return mu.mean(axis=0), disc, worst


def _full_batch(game, fw, cfg, r_n):
    """The reductions as the suites took them over one full batch."""
    batch = simulate_batch(game, fw, cfg)
    if r_n is None:
        bound = 4.0 * game.v_tilde_sup * batch.mu[:, :batch.horizon]
    else:
        bound = 4.0 * game.v_tilde_sup * (batch.mu[:, :batch.horizon] + r_n)
    return batch.mu, float((batch.ell - bound).max())


# The suites' own sizes, and 250 runs at 70 a chunk at most: chunks of 62,
# 63, 62 and 63 runs
@pytest.mark.parametrize("case, r_n", [(_collapse, None), (_perturbation, 0.06)])
@pytest.mark.parametrize("runs, cells", [(None, None), (250, 70 * 400)])
def test_chunked_reductions_match_one_batch(monkeypatch, case, r_n, runs, cells):
    game, fw, cfg = case()
    if runs is not None:
        cfg = dataclasses.replace(cfg, runs=runs)
        monkeypatch.setattr(repgame.beliefs, "_CHUNK_CELLS", cells)
    mu, worst = verify._mu_and_excess(game, fw, cfg, r_n)
    want_mu, want_worst = _full_batch(game, fw, cfg, r_n)
    assert np.array_equal(mu, want_mu)
    (curve, disc, got), (want_curve, want_disc, want) = (
        _reductions(mu, worst), _reductions(want_mu, want_worst))
    assert np.array_equal(curve, want_curve)
    assert disc == want_disc
    assert got == want


def test_collapse_reduction_holds_mu_and_one_chunk(monkeypatch):
    # every run's mu (8 bytes a run-period) in the heap, and of the chunks'
    # float panels, in memory maps that tracemalloc does not see, one chunk's
    # at a time: 2,000 runs at 655 a chunk at most are four chunks of 500.
    # On top: one chunk's index panels and the one temporary of its
    # reduction, the draw's buffer and a belief block.
    live, peak_mapped = [0], [0]
    real = repgame.beliefs._panel

    def panel(runs, periods):
        p = real(runs, periods)
        live[0] += p.nbytes
        peak_mapped[0] = max(peak_mapped[0], live[0])
        weakref.finalize(p.base.base, lambda n=p.nbytes: live.__setitem__(0, live[0] - n))
        return p

    monkeypatch.setattr(repgame.beliefs, "_panel", panel)
    game, fw, cfg = _collapse()
    runs, T, chunk = cfg.runs, cfg.horizon, 500
    tracemalloc.start()
    try:
        verify._mu_and_excess(game, fw, cfg)
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert live[0] == 0
    assert peak_mapped[0] == 8 * chunk * (4 * T + 1)
    budget = repgame.beliefs._CHUNK_CELLS
    assert traced + peak_mapped[0] <= 8 * runs * (T + 1) + 42 * budget + 4 * 2**20
