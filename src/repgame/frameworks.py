"""Learning frameworks: the signal kernels short-run players reason with.

A framework is the short-run population's subjective model: the long-run
player is either a *normal* type (free to play anything) or a *commitment*
type mechanically playing a fixed mixed action, and signals are generated by
per-(type, model) kernels ``f(y | a, type, m)`` over a finite model set M.
The kernels need not contain the truth; that mismatch is the whole point.

Type axis convention everywhere: index 0 = normal, index 1 = commitment
(see ``TYPES``). Only the commitment action's kernel slice matters for the
commitment type, since that type never plays anything else; per-action
commitment kernels are stored so frameworks where the slice varies with the
committed mixture stay expressible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import Distribution, _as_prob_rows, _as_prob_vector, _check_labels

__all__ = ["TYPES", "TYPE_NORMAL", "TYPE_COMMIT", "Framework"]

TYPES = ("normal", "commitment")
TYPE_NORMAL = 0
TYPE_COMMIT = 1


def _as_kernel(arr, models, actions, signals, what: str) -> np.ndarray:
    k = np.asarray(arr, dtype=float)
    expected = (len(models), len(actions), len(signals))
    if k.shape != expected:
        raise ValueError(f"{what}: kernel shape {k.shape}, expected {expected}")
    n_a = len(actions)
    rows = _as_prob_rows(k.reshape(-1, len(signals)),
                         lambda r: f"{what} f(.|{actions[r % n_a]},{models[r // n_a]})")
    out = rows.reshape(expected)
    if np.any(out <= 0.0):
        m, a, y = np.unravel_index(int(np.argmin(out)), expected)
        raise ValueError(
            f"{what}: f({signals[y]}|{actions[a]},{models[m]}) = {float(out[m, a, y])!r}; "
            "full support requires every entry > 0"
        )
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Framework:
    """Finite model set with per-(type, model) signal kernels and a joint prior.

    prior[t, i] is the prior mass on (TYPES[t], models[i]); it must have full
    support.
    """

    models: tuple[str, ...]
    actions: tuple[str, ...]
    signals: tuple[str, ...]
    normal_kernels: np.ndarray      # (n_models, n_actions, n_signals)
    commitment_kernels: np.ndarray  # (n_models, n_actions, n_signals)
    prior: np.ndarray               # (2, n_models), rows follow TYPES
    commitment_action: Distribution

    def __post_init__(self) -> None:
        models = _check_labels(self.models, "Framework.models")
        actions = _check_labels(self.actions, "Framework.actions")
        signals = _check_labels(self.signals, "Framework.signals")
        nk = _as_kernel(self.normal_kernels, models, actions, signals, "normal kernels")
        ck = _as_kernel(self.commitment_kernels, models, actions, signals, "commitment kernels")
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (2, len(models)):
            raise ValueError(f"Framework: prior shape {prior.shape}, expected (2, {len(models)})")
        flat = _as_prob_vector(prior.reshape(-1), 2 * len(models), "Framework.prior")
        prior = flat.reshape(2, len(models))
        if np.any(prior <= 0.0):
            raise ValueError("Framework: prior must have full support over (type, model)")
        prior.flags.writeable = False
        if self.commitment_action.labels != actions:
            raise ValueError(
                f"Framework: commitment action labels {self.commitment_action.labels} "
                f"!= actions {actions}"
            )
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "normal_kernels", nk)
        object.__setattr__(self, "commitment_kernels", ck)
        object.__setattr__(self, "prior", prior)

    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def commitment_slices(self) -> np.ndarray:
        """f(. | commitment action, commitment type, m) for each model; (n_models, n_signals)."""
        return np.einsum("a,may->my", self.commitment_action.weights, self.commitment_kernels)

    def model_index(self, model: int | str) -> int:
        return model if isinstance(model, int) else self.models.index(model)

    def commitment_slice_dist(self, model: int | str) -> Distribution:
        return Distribution(self.signals, self.commitment_slices[self.model_index(model)])

    def normal_mix(self, alpha: Distribution) -> np.ndarray:
        """f(. | alpha, normal, m) for each model; (n_models, n_signals)."""
        if alpha.labels != self.actions:
            raise ValueError("Framework.normal_mix: action labels mismatch")
        return np.einsum("a,may->my", alpha.weights, self.normal_kernels)
