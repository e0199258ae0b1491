"""Stage games with imperfect public monitoring.

Value types for the repeated-interaction primitives: probability vectors over
finite label sets, per-action signal distributions (the monitoring structure),
and the one-shot game a long-run player faces against a sequence of short-run
opponents who observe only public signals.

Payoff conventions: ``u`` is the long-run player's stage payoff, indexed
(own action, opponent action). Short-run players receive signal-measurable
payoffs ``v_tilde(b, y)``; their ex-ante payoff against action ``a`` is the
monitoring average ``v(a, b) = sum_y rho(y|a) v_tilde(b, y)``, which is always
recomputed from ``v_tilde`` and ``rho`` rather than stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Distribution",
    "SignalStructure",
    "StageGame",
    "mix_signal_dist",
]

# Inputs are accepted iff they sum to 1 within this tolerance, then normalized.
_SUM_TOL = 1e-9
# Negative dust below this magnitude is clipped to 0; anything worse is rejected.
_NEG_DUST = -1e-12


def _as_prob_vector(weights, n: int, what: str) -> np.ndarray:
    w = np.asarray(weights, dtype=float).copy()
    if w.shape != (n,):
        raise ValueError(f"{what}: expected {n} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what}: non-finite weight")
    if np.any(w < _NEG_DUST):
        i = int(np.argmin(w))
        raise ValueError(f"{what}: negative weight {float(w[i])!r} at index {i}")
    np.clip(w, 0.0, None, out=w)
    s = float(w.sum())
    if abs(s - 1.0) > _SUM_TOL:
        raise ValueError(f"{what}: weights sum to {s!r}, not 1 (tolerance {_SUM_TOL})")
    w /= s
    w.flags.writeable = False
    return w


def _as_prob_rows(rows, label: Callable[[int], str]) -> np.ndarray:
    """``_as_prob_vector`` on every row of a 2-D array in one pass: the same
    checks, clip, per-row sum and division, so the same bits. A failing row
    raises ``_as_prob_vector``'s message for the first one, under
    ``label(i)``."""
    w = np.array(rows, dtype=float, order="C")
    bad = ~np.isfinite(w).all(axis=1) | (w < _NEG_DUST).any(axis=1)
    np.clip(w, 0.0, None, out=w)
    with np.errstate(invalid="ignore", over="ignore"):  # such rows are bad already
        s = w.sum(axis=1)
    bad |= np.abs(s - 1.0) > _SUM_TOL
    if bad.any():
        i = int(np.argmax(bad))
        _as_prob_vector(rows[i], w.shape[1], label(i))
    w /= s[:, None]
    w.flags.writeable = False
    return w


def _check_labels(labels: Sequence[str], what: str) -> tuple[str, ...]:
    out = tuple(str(x) for x in labels)
    if not out:
        raise ValueError(f"{what}: empty label set")
    if len(set(out)) != len(out):
        raise ValueError(f"{what}: duplicate labels {out}")
    return out


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over a finite, ordered label set.

    Weights are validated (finite, nonnegative, summing to 1 within
    ``_SUM_TOL``), normalized exactly, and frozen. Index into it with a label.
    """

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        labels = _check_labels(self.labels, "Distribution")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(
            self, "weights", _as_prob_vector(self.weights, len(labels), "Distribution")
        )

    @classmethod
    def point_mass(cls, labels: Sequence[str], label: str) -> "Distribution":
        labels = tuple(labels)
        w = np.zeros(len(labels))
        w[labels.index(label)] = 1.0
        return cls(labels, w)

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> "Distribution":
        labels = tuple(labels)
        return cls(labels, np.full(len(labels), 1.0 / len(labels)))

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def __getitem__(self, label: str) -> float:
        return float(self.weights[self.labels.index(label)])

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{l}: {w:.6g}" for l, w in zip(self.labels, self.weights))
        return f"Distribution({pairs})"


@dataclass(frozen=True, eq=False)
class SignalStructure:
    """Full-support monitoring structure: one signal distribution per action.

    ``matrix[i, j] = rho(signals[j] | actions[i])``. Every entry must be
    strictly positive (full support), every row a probability vector.
    """

    actions: tuple[str, ...]
    signals: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        actions = _check_labels(self.actions, "SignalStructure.actions")
        signals = _check_labels(self.signals, "SignalStructure.signals")
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(actions), len(signals)):
            raise ValueError(
                f"SignalStructure: matrix shape {m.shape} does not match "
                f"{len(actions)} actions x {len(signals)} signals"
            )
        m = _as_prob_rows(m, lambda i: f"rho(.|{actions[i]})")
        if np.any(m <= 0.0):
            i, j = np.unravel_index(int(np.argmin(m)), m.shape)
            raise ValueError(
                f"SignalStructure: rho({signals[j]}|{actions[i]}) = {float(m[i, j])!r}; "
                "full support requires every entry > 0"
            )
        m.flags.writeable = False
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "matrix", m)

    def row(self, action: str) -> Distribution:
        return Distribution(self.signals, self.matrix[self.actions.index(action)])


@dataclass(frozen=True, eq=False)
class StageGame:
    """One-shot game: long-run player vs a short-run opponent under monitoring.

    ``u[i, j]`` long-run payoff for (actions_long[i], actions_short[j]);
    ``v_tilde[j, k]`` the opponent's signal-measurable payoff for
    (actions_short[j], signals[k]). The ex-ante matrix ``v`` is derived.
    """

    actions_long: tuple[str, ...]
    actions_short: tuple[str, ...]
    signals: tuple[str, ...]
    u: np.ndarray
    v_tilde: np.ndarray
    rho: SignalStructure

    def __post_init__(self) -> None:
        a_long = _check_labels(self.actions_long, "StageGame.actions_long")
        a_short = _check_labels(self.actions_short, "StageGame.actions_short")
        signals = _check_labels(self.signals, "StageGame.signals")
        u = np.asarray(self.u, dtype=float)
        vt = np.asarray(self.v_tilde, dtype=float)
        if u.shape != (len(a_long), len(a_short)):
            raise ValueError(f"StageGame: u shape {u.shape}, expected {(len(a_long), len(a_short))}")
        if vt.shape != (len(a_short), len(signals)):
            raise ValueError(
                f"StageGame: v_tilde shape {vt.shape}, expected {(len(a_short), len(signals))}"
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(vt))):
            raise ValueError("StageGame: non-finite payoff entry")
        if self.rho.actions != a_long:
            raise ValueError(
                f"StageGame: rho actions {self.rho.actions} != long-run actions {a_long}"
            )
        if self.rho.signals != signals:
            raise ValueError(f"StageGame: rho signals {self.rho.signals} != signals {signals}")
        u = u.copy()
        vt = vt.copy()
        u.flags.writeable = False
        vt.flags.writeable = False
        object.__setattr__(self, "actions_long", a_long)
        object.__setattr__(self, "actions_short", a_short)
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v_tilde", vt)

    @property
    def v(self) -> np.ndarray:
        """Ex-ante short-run payoffs v(a, b), recomputed from v_tilde and rho."""
        return self.rho.matrix @ self.v_tilde.T

    @property
    def v_tilde_sup(self) -> float:
        """Max absolute signal-measurable payoff (the loss-bound constant)."""
        return float(np.abs(self.v_tilde).max())

    @property
    def u_range(self) -> tuple[float, float]:
        return float(self.u.min()), float(self.u.max())

    def long_dist(self, weights) -> Distribution:
        return Distribution(self.actions_long, weights)

    def short_dist(self, weights) -> Distribution:
        return Distribution(self.actions_short, weights)


def mix_signal_dist(rho: SignalStructure, alpha: Distribution) -> Distribution:
    """Signal distribution induced by a mixed action: rho_alpha = sum_a alpha(a) rho(.|a)."""
    if alpha.labels != rho.actions:
        raise ValueError(f"mix_signal_dist: action labels {alpha.labels} != {rho.actions}")
    return Distribution(rho.signals, alpha.weights @ rho.matrix)
