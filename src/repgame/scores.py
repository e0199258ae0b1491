"""Half-space score programs and the payoff bounds they generate.

For a direction lambda in {+1, -1} and an action pair (alpha, beta), the score
program asks for the best payoff level z enforceable with continuation offsets
x(y) = w(y) - z that all sit on one side of zero (lambda x(y) <= 0):

    maximize   lambda z
    subject to z  = u(a, beta) + sum_y rho(y|a) x(y)   for a in supp(alpha)
               z >= u(a', beta) + sum_y rho(y|a') x(y) for every a'
               lambda x(y) <= 0.

Supremum of lambda z over pairs where beta is within eta of a best reply gives
kappa_eta(lambda); at eta = 0 the two directions clamp the complete-information
equilibrium payoff set from above and below.

The score program sees alpha only through supp(alpha). ``kappa`` collects the
distinct (supp(alpha), beta) programs of its lattice and solves them in one
``linprog`` call: they share no variable, so they stack as the diagonal blocks
of one LP whose optimum is every block's optimum. If the joint LP has no
optimum, the blocks are split in halves and solved again until each failing
program stands alone, where infeasibility is an answer and any other failure
raises. ``kstar`` is the same solve with one block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag

from .bruteforce import simplex_lattice
from .game import Distribution, StageGame, mix_signal_dist

__all__ = [
    "ScoreResult",
    "PayoffSetResult",
    "br2",
    "optimality_loss",
    "kstar",
    "verify_certificate",
    "kappa",
    "ci_payoff_set",
    "stackelberg",
    "reputation_lower_bound",
]

BR_TIE_TOL = 1e-9      # payoff ties below this are treated as exact
SUPPORT_CUTOFF = 1e-9  # mass below this does not count as support
BETA_SUBGRID = 1e-2    # lattice spacing of the mixed short-run replies kappa tries


@dataclass(frozen=True, eq=False)
class ScoreResult:
    feasible: bool
    z: float | None
    offsets: np.ndarray | None
    direction: int


@dataclass(frozen=True)
class PayoffSetResult:
    kappa_plus: float
    kappa_minus: float
    lo: float
    hi: float
    grid_resolution: float


def br2(game: StageGame, q: Distribution, *, tol: float = BR_TIE_TOL) -> tuple[str, ...]:
    """Short-run best replies to a signal distribution, ties within ``tol``.

    The reply maximizes the signal-measurable payoff sum_y q(y) v_tilde(b, y);
    when q = rho_alpha this coincides with the ex-ante best reply to alpha.
    """
    if q.labels != game.signals:
        raise ValueError(f"br2: expected signal labels {game.signals}, got {q.labels}")
    vals = game.v_tilde @ q.weights
    top = float(vals.max())
    return tuple(b for b, val in zip(game.actions_short, vals) if val >= top - tol)


def optimality_loss(game: StageGame, alpha: Distribution, beta: Distribution) -> float:
    """Short-run payoff forgone by beta against alpha, relative to the best reply."""
    if alpha.labels != game.actions_long or beta.labels != game.actions_short:
        raise ValueError("optimality_loss: action labels do not match the game")
    row = alpha.weights @ game.v
    return float(row.max() - row @ beta.weights)


def kstar(game: StageGame, alpha: Distribution, beta: Distribution, direction: int) -> ScoreResult:
    """Solve the score program at one (alpha, beta) pair. Infeasibility is an answer."""
    if direction not in (+1, -1):
        raise ValueError(f"kstar: direction must be +1 or -1, got {direction!r}")
    if alpha.labels != game.actions_long or beta.labels != game.actions_short:
        raise ValueError("kstar: action labels do not match the game")
    return _solve_scores(game, [(alpha.weights > SUPPORT_CUTOFF, beta.weights)], direction)[0]


def _solve_scores(game: StageGame, programs: list[tuple[np.ndarray, np.ndarray]],
                  direction: int) -> list[ScoreResult]:
    """Solve score programs, given as (support mask, beta weights), in one LP.

    The programs share no variable, so they are the diagonal blocks of one
    program whose optimum is every block's optimum. When the joint program
    has no optimum, the list is split in halves until each failing program
    stands alone: alone, infeasibility is an answer and any other failure
    raises.
    """
    R = game.rho.matrix
    n_y = R.shape[1]
    eq_blocks, ub_blocks, b_eq, b_ub = [], [], [], []
    for supp, beta_w in programs:
        u_beta = game.u @ beta_w
        off = ~supp
        # variables of each block: [z, x(y_1) ... x(y_n)]
        eq_blocks.append(np.hstack([np.ones((int(supp.sum()), 1)), -R[supp]]))
        b_eq.append(u_beta[supp])
        ub_blocks.append(np.hstack([-np.ones((int(off.sum()), 1)), R[off]]))
        b_ub.append(-u_beta[off])
    has_ub = sum(len(b) for b in b_ub) > 0
    block_bounds = np.array([(-np.inf, np.inf)]
                            + [(-np.inf, 0.0) if direction == +1 else (0.0, np.inf)] * n_y)
    c = np.zeros(1 + n_y)
    c[0] = -float(direction)
    res = linprog(np.tile(c, len(programs)),
                  A_ub=block_diag(ub_blocks, format="csc") if has_ub else None,
                  b_ub=np.concatenate(b_ub) if has_ub else None,
                  A_eq=block_diag(eq_blocks, format="csc"), b_eq=np.concatenate(b_eq),
                  bounds=np.tile(block_bounds, (len(programs), 1)), method="highs")
    if res.status == 0:
        return [ScoreResult(True, float(x[0]), x[1:].copy(), direction)
                for x in res.x.reshape(len(programs), 1 + n_y)]
    if len(programs) > 1:
        half = len(programs) // 2
        return (_solve_scores(game, programs[:half], direction)
                + _solve_scores(game, programs[half:], direction))
    if res.status == 2:
        return [ScoreResult(False, None, None, direction)]
    if res.status == 3:
        raise RuntimeError("score program unbounded; enforceability should cap it")
    raise RuntimeError(f"score program solver failure: {res.message}")


def verify_certificate(game: StageGame, alpha: Distribution, beta: Distribution,
                       result: ScoreResult) -> float:
    """Largest constraint violation of a feasible score certificate (0 is clean)."""
    if not result.feasible:
        raise ValueError("verify_certificate: result is infeasible")
    R = game.rho.matrix
    u_beta = game.u @ beta.weights
    z, x = result.z, result.offsets
    levels = u_beta + R @ x
    worst = 0.0
    supp = alpha.weights > SUPPORT_CUTOFF
    worst = max(worst, float(np.abs(z - levels[supp]).max()))
    worst = max(worst, float(np.clip(levels - z, 0.0, None).max()))
    worst = max(worst, float(np.clip(result.direction * x, 0.0, None).max()))
    return worst


def _admissible_betas(game: StageGame, alpha_w: np.ndarray, eta: float
                      ) -> list[tuple[np.ndarray, bool]]:
    """Pure replies within eta of optimal, plus a coarse lattice of mixtures of them.

    The loss of a mixture is the mixture of pure losses, so every listed beta
    is eta-admissible by construction. Bool flags mark properly mixed entries.
    Mixtures are normalized as ``Distribution`` normalizes them.
    """
    row = alpha_w @ game.v
    losses = row.max() - row
    keep = np.flatnonzero(losses <= eta + BR_TIE_TOL)
    n_b = len(game.actions_short)
    out: list[tuple[np.ndarray, bool]] = []
    for j in keep:
        w = np.zeros(n_b)
        w[j] = 1.0
        out.append((w, False))
    if len(keep) >= 2:
        for mix in simplex_lattice(len(keep), BETA_SUBGRID):
            if np.any(np.abs(mix - 1.0) < 1e-12):
                continue  # vertices already listed as pure
            w = np.zeros(n_b)
            w[keep] = mix
            w /= float(w.sum())
            out.append((w, True))
    return out


def kappa(game: StageGame, direction: int, eta: float, grid: float) -> float:
    """sup of lambda z* over gridded pairs with an eta-admissible short-run reply.

    Returns -inf when no admissible pair is feasible. The score program sees
    alpha only through its support, so the distinct (supp(alpha), beta)
    programs of the lattice are collected first and solved together in one
    LP. Mixed replies enter only through the coarse sub-lattice; a warning is
    raised if one strictly beats every pure reply, since that signals the
    sub-grid actually matters.
    """
    if direction not in (+1, -1):
        raise ValueError(f"kappa: direction must be +1 or -1, got {direction!r}")
    if eta < 0.0:
        raise ValueError(f"kappa: eta must be >= 0, got {eta!r}")
    programs: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray, bool]] = {}
    for alpha_w in simplex_lattice(len(game.actions_long), grid):
        alpha_w /= float(alpha_w.sum())  # as Distribution normalizes it
        supp = alpha_w > SUPPORT_CUTOFF
        supp_key = supp.tobytes()
        for beta_w, is_mixed in _admissible_betas(game, alpha_w, eta):
            key = (supp_key, beta_w.tobytes())
            if key not in programs:
                programs[key] = (supp, beta_w, is_mixed)
    results = _solve_scores(game, [(supp, beta_w) for supp, beta_w, _ in programs.values()],
                            direction)
    best = -np.inf
    best_pure = -np.inf
    for (_, _, is_mixed), res in zip(programs.values(), results):
        if not res.feasible:
            continue
        score = direction * res.z
        if score > best:
            best = score
        if not is_mixed and score > best_pure:
            best_pure = score
    if best > best_pure + 1e-9:
        warnings.warn(
            f"kappa(direction={direction}, eta={eta}): a mixed short-run reply beat every "
            f"pure one by {best - best_pure:.3e}; the 1e-2 reply sub-grid is load-bearing",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(best)


def ci_payoff_set(game: StageGame, grid: float) -> PayoffSetResult:
    """Interval clamping the long-run player's equilibrium payoffs under known types.

    hi caps payoffs using the downward half-space score, lo symmetric; both are
    intersected with the raw payoff range. A warning is raised when lo > hi.
    """
    k_plus = kappa(game, +1, 0.0, grid)
    k_minus = kappa(game, -1, 0.0, grid)
    u_min, u_max = game.u_range
    lo = max(u_min, -k_minus)
    hi = min(u_max, k_plus)
    if lo > hi:
        warnings.warn(
            f"ci_payoff_set(grid={grid}): empty bracket, lo {lo:.6g} > hi {hi:.6g}; "
            f"the grid finds no payoff both scores allow",
            RuntimeWarning,
            stacklevel=2,
        )
    return PayoffSetResult(k_plus, k_minus, lo, hi, 1.0 / round(1.0 / grid))


def stackelberg(game: StageGame, grid: float, *, pure: bool = False
                ) -> tuple[float, Distribution]:
    """Best commitment payoff against an adversarially chosen best reply.

    Grid supremum of min over br2(rho_alpha) of u(alpha, b); ``pure`` restricts
    the commitment to vertices. Ties go to the first grid point reaching the sup.
    """
    n = len(game.actions_long)
    points = (np.eye(n)[i] for i in range(n)) if pure else simplex_lattice(n, grid)
    best = -np.inf
    best_alpha: Distribution | None = None
    for alpha_w in points:
        alpha = Distribution(game.actions_long, alpha_w)
        replies = br2(game, mix_signal_dist(game.rho, alpha))
        u_row = alpha.weights @ game.u
        val = min(float(u_row[game.actions_short.index(b)]) for b in replies)
        if val > best:
            best = val
            best_alpha = alpha
    assert best_alpha is not None
    return best, best_alpha


def reputation_lower_bound(game: StageGame, alpha_star: Distribution) -> float:
    """Worst payoff of persistent alpha_star play across its admissible replies."""
    replies = br2(game, mix_signal_dist(game.rho, alpha_star))
    u_row = alpha_star.weights @ game.u
    return min(float(u_row[game.actions_short.index(b)]) for b in replies)
