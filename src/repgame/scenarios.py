"""Canned game/framework constructors used by the CLI, tests, and scripts.

All scenarios share the same 2x2 product-choice payoff block:

                b_h   b_l
    a_h          2     0          (long-run row player)
    a_l          3     1

                b_h   b_l
    a_h          3     0          (short-run column player, shown transposed:
    a_l          2     1           v(a, b) with rows a)

The short-run player only observes signals, so their payoff primitive is
v_tilde(b, y); constructors solve Sum_y rho(y|a) v_tilde(b, y) = v(a, b) for
it. With more signals than actions the system is underdetermined and the
minimum-norm solution is taken — any consistent lift induces the same v and
the same best replies, so the choice only needs to be deterministic.
"""

from __future__ import annotations

import inspect

import numpy as np

from .divergence import normal_favoring_check, separation_value
from .frameworks import TYPE_COMMIT, TYPE_NORMAL, Framework
from .game import Distribution, SignalStructure, StageGame

__all__ = [
    "product_choice",
    "three_signal",
    "counter_example",
    "normal_misspec_scenario",
    "perturbation_sequence",
    "SCENARIOS",
]

_ACTIONS_LONG = ("a_h", "a_l")
_ACTIONS_SHORT = ("b_h", "b_l")
_U = np.array([[2.0, 0.0], [3.0, 1.0]])
_V = np.array([[3.0, 2.0], [0.0, 1.0]])
_LIFT_TOL = 1e-9  # a least-squares v_tilde must reproduce v this closely (np.allclose's atol)
_GOOD_MASS = 0.1  # prior share of perturbation_sequence's "m_good" within each type


def _lift_v_tilde(rho: SignalStructure, v: np.ndarray) -> np.ndarray:
    """Solve rho @ v_tilde.T = v column by column; min-norm when underdetermined."""
    R = rho.matrix
    if R.shape[0] == R.shape[1]:
        vt_T = np.linalg.solve(R, v)  # LinAlgError iff rows coincide
    else:
        vt_T, residuals, *_ = np.linalg.lstsq(R, v, rcond=None)
        if not np.allclose(R @ vt_T, v, atol=_LIFT_TOL):
            raise ValueError("signal structure cannot support the requested ex-ante payoffs")
    return vt_T.T


def _prior(mu0: float, n_models: int) -> np.ndarray:
    if not 0.0 < mu0 < 1.0:
        raise ValueError(f"mu0 must lie in (0, 1), got {mu0}")
    return np.array([[(1.0 - mu0) / n_models] * n_models,
                     [mu0 / n_models] * n_models])


def _two_signal_game(p: float, q: float) -> StageGame:
    rho = SignalStructure(_ACTIONS_LONG, ("y_h", "y_l"),
                          np.array([[p, 1.0 - p], [q, 1.0 - q]]))
    return StageGame(_ACTIONS_LONG, _ACTIONS_SHORT, ("y_h", "y_l"),
                     _U, _lift_v_tilde(rho, _V), rho)


def product_choice(p: float, q: float, epsilon: float, mu0: float = 0.5
                   ) -> tuple[StageGame, Framework]:
    """Two-signal product-choice game; the commitment type is believed to emit
    good signals with probability p + epsilon while truly attainable good-signal
    probabilities stop at p. epsilon = 0 recovers the correctly specified case."""
    if not 0.0 < q < p < 1.0:
        raise ValueError(f"need 0 < q < p < 1, got p={p}, q={q}")
    if not 0.0 <= epsilon < 1.0 - p:
        raise ValueError(f"need 0 <= epsilon < 1-p = {1.0 - p}, got {epsilon}")
    game = _two_signal_game(p, q)
    framework = Framework(
        models=("m0",),
        actions=_ACTIONS_LONG,
        signals=("y_h", "y_l"),
        normal_kernels=game.rho.matrix[None, :, :].copy(),
        commitment_kernels=np.array([[[p + epsilon, 1.0 - p - epsilon],
                                      [q, 1.0 - q]]]),
        prior=_prior(mu0, 1),
        commitment_action=Distribution(_ACTIONS_LONG, np.array([1.0, 0.0])),
    )
    return game, framework


def three_signal(p: float, q: float, r: float, epsilon: float, x: float,
                 mu0: float = 0.5) -> tuple[StageGame, Framework]:
    """Adds an uninformative signal y_u of true probability r under either
    action; the subjective commitment distribution inflates it to r + epsilon.
    Any epsilon > 0 lands outside the attainable set because no action can
    move the y_u mass. epsilon = 0 is allowed and is exactly attainable."""
    if not 0.0 < q < p < 1.0:
        raise ValueError(f"need 0 < q < p < 1, got p={p}, q={q}")
    if not 0.0 < r < 1.0 - p:
        raise ValueError(f"need r in (0, 1-p) = (0, {1.0 - p}), got {r}")
    if not 0.5 < x < 1.0:
        raise ValueError(f"need x in (1/2, 1), got {x}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    y_h = x * p + (1.0 - x) * q
    y_l = 1.0 - y_h - r - epsilon
    if y_l <= 0.0:
        raise ValueError(
            f"epsilon={epsilon} leaves no mass on y_l (needs r+epsilon < {1.0 - y_h})")
    signals = ("y_h", "y_l", "y_u")
    # rho and the normal kernels each normalize these raw rows once: a second
    # pass over rho.matrix can move a row by an ulp (rows that sum to 1 + eps).
    raw = np.array([[p, 1.0 - p - r, r], [q, 1.0 - q - r, r]])
    rho = SignalStructure(_ACTIONS_LONG, signals, raw)
    game = StageGame(_ACTIONS_LONG, _ACTIONS_SHORT, signals,
                     _U, _lift_v_tilde(rho, _V), rho)
    f_hat = np.array([y_h, y_l, r + epsilon])
    framework = Framework(
        models=("m0",),
        actions=_ACTIONS_LONG,
        signals=signals,
        normal_kernels=raw[None, :, :],
        commitment_kernels=np.stack([np.stack([f_hat, f_hat])]),
        prior=_prior(mu0, 1),
        commitment_action=Distribution(_ACTIONS_LONG, np.array([x, 1.0 - x])),
    )
    return game, framework


def counter_example(p: float, q: float, epsilon: float, x: float,
                    mu0: float = 0.5) -> tuple[StageGame, Framework]:
    """Misspecified per-action commitment kernels whose slice is nonetheless
    attainable: believing the commitment type mixes with weight x but emits
    good signals at rate p + epsilon is observationally identical to truthful
    mixing with the inflated weight x_eps = x (1 + epsilon / (p - q))."""
    if not 0.0 < q < p < 1.0:
        raise ValueError(f"need 0 < q < p < 1, got p={p}, q={q}")
    if not 0.5 < x < 1.0:
        raise ValueError(f"need x in (1/2, 1), got {x}")
    if not 0.0 <= epsilon < 1.0 - p:
        raise ValueError(f"need 0 <= epsilon < 1-p = {1.0 - p}, got {epsilon}")
    x_eps = x * (1.0 + epsilon / (p - q))
    if x_eps >= 1.0:
        raise ValueError(
            f"x_eps = x(1 + epsilon/(p-q)) = {x_eps:.6f} >= 1: the believed slice "
            f"is not attainable; shrink epsilon or x")
    game = _two_signal_game(p, q)
    framework = Framework(
        models=("m0",),
        actions=_ACTIONS_LONG,
        signals=("y_h", "y_l"),
        normal_kernels=game.rho.matrix[None, :, :].copy(),
        commitment_kernels=np.array([[[p + epsilon, 1.0 - p - epsilon],
                                      [q, 1.0 - q]]]),
        prior=_prior(mu0, 1),
        commitment_action=Distribution(_ACTIONS_LONG, np.array([x, 1.0 - x])),
    )
    return game, framework


def normal_misspec_scenario() -> tuple[StageGame, Framework]:
    """Fixed instance where the misspecification sits on the *normal* side.

    Truth emits good signals at 0.6 / 0.3; the single model says the normal
    type emits them at 0.45 / 0.15 and the commitment type at a flat 0.58.
    Under persistent a_h play the commitment story is the better fit in
    relative entropy (d_C ~ 8.2e-4 versus d_N ~ 4.5e-2), so the posterior
    migrates to the commitment type even though nobody is committed. The
    believed 0.58 is attainable (it sits inside [0.3, 0.6]),  so the framework
    is deliberately not separating.
    """
    game = _two_signal_game(0.6, 0.3)
    framework = Framework(
        models=("m0",),
        actions=_ACTIONS_LONG,
        signals=("y_h", "y_l"),
        normal_kernels=np.array([[[0.45, 0.55], [0.15, 0.85]]]),
        commitment_kernels=np.array([[[0.58, 0.42], [0.58, 0.42]]]),
        prior=_prior(0.5, 1),
        commitment_action=Distribution(_ACTIONS_LONG, np.array([1.0, 0.0])),
    )
    return game, framework


def perturbation_sequence(game: StageGame, base: Framework, n_max: int, *,
                          shift_scale: float = 1.0) -> list[Framework]:
    """Frameworks converging back to ``base`` while keeping a well-specified
    normal model alive.

    Member n perturbs every normal kernel of ``base`` by mixing weight
    shift_scale/(n+2) toward the action-rolled true structure (a maximally
    wrong but valid kernel), then appends an extra model "m_good" whose normal
    kernel is the truth. Within each type, m_good holds ``_GOOD_MASS`` of the
    prior and the original models share the rest in their original proportion.
    Every member must leave the well-specified model a strictly better fit
    than any commitment explanation; members that do not are rejected.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rep = separation_value(base, game.rho)
    if not rep.separating:
        raise ValueError("perturbation_sequence needs a separating base framework")
    if "m_good" in base.models:
        raise ValueError("base framework already has a model named 'm_good'")
    wrong = np.roll(game.rho.matrix, 1, axis=0)  # each action explained by another's row
    out: list[Framework] = []
    for n in range(1, n_max + 1):
        w = shift_scale / (n + 2)
        if w >= 1.0:
            raise ValueError(
                f"shift weight {w:.3f} at n={n} is not a proper mixture; "
                f"lower shift_scale below {n + 2}")
        perturbed = (1.0 - w) * base.normal_kernels + w * wrong[None, :, :]
        normal_kernels = np.concatenate([perturbed, game.rho.matrix[None, :, :]])
        commitment_kernels = np.concatenate(
            [base.commitment_kernels, base.commitment_kernels[:1]])
        prior = np.hstack([
            (1.0 - _GOOD_MASS) * base.prior,
            _GOOD_MASS * base.prior.sum(axis=1, keepdims=True),
        ])
        fw = Framework(
            models=base.models + ("m_good",),
            actions=base.actions,
            signals=base.signals,
            normal_kernels=normal_kernels,
            commitment_kernels=commitment_kernels,
            prior=prior,
            commitment_action=base.commitment_action,
        )
        if not normal_favoring_check(fw, game.rho, ("m_good",)):
            raise ValueError(f"member n={n} fails the normal-favoring inequality")
        out.append(fw)
    return out


# name -> (constructor, its signature's (param, default) pairs; None marks required)
SCENARIOS: dict = {
    name: (fn, tuple((p.name, None if p.default is p.empty else p.default)
                     for p in inspect.signature(fn).parameters.values()))
    for name, fn in (("product_choice", product_choice), ("three_signal", three_signal),
                     ("counter_example", counter_example), ("normal_misspec", normal_misspec_scenario))
}


def build_scenario(name: str, params: dict) -> tuple[StageGame, Framework]:
    """Materialize a registry scenario; unknown names or parameters are errors."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; know {sorted(SCENARIOS)}")
    fn, sig = SCENARIOS[name]
    known = {k for k, _ in sig}
    extra = set(params) - known
    if extra:
        raise ValueError(f"scenario {name!r} does not take {sorted(extra)}")
    kwargs = {}
    for key, default in sig:
        if key in params:
            try:
                kwargs[key] = float(params[key])
            except (TypeError, ValueError):
                raise ValueError(f"scenario {name!r}: parameter {key!r} must be a number, "
                                 f"got {params[key]!r}") from None
        elif default is None:
            raise ValueError(f"scenario {name!r} needs parameter {key!r}")
        else:
            kwargs[key] = default
    return fn(**kwargs)
