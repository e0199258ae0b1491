"""Half-space score programs and the payoff bounds they generate.

For a direction lambda in {+1, -1}, a support S and a set K of short-run
replies, the score program asks for the best payoff level z enforceable
against some reply beta in Delta(K) with continuation offsets x(y) = w(y) - z
that all sit on one side of zero (lambda x(y) <= 0):

    maximize   lambda z
    subject to z  = u(a, beta) + sum_y rho(y|a) x(y)   for a in S
               z >= u(a', beta) + sum_y rho(y|a') x(y) for every a'
               lambda x(y) <= 0,  beta in Delta(K).

u(a, beta) is linear in beta, so beta is a variable of the program, not a
list of candidate replies (Fudenberg & Levine, JET 1994). Supremum of lambda z
over gridded alpha, with S = supp(alpha) and K its ``best_replies`` (the one
best-reply rule here and in the simulator), gives kappa(lambda); the two
directions clamp the complete-information equilibrium payoff set from above
and below.

``kappa`` finds the distinct (supp(alpha), best-reply set) pairs of its
lattice in one array pass over ``simplex_lattice`` (an ``(N, n)`` array,
capped at ``LATTICE_CAP`` points) and solves their programs, both
directions, in one ``linprog`` call (``repgame.lp``, HiGHS handed the model
directly): they share no variable, so they are copies of one block in one
LP whose optimum is every block's optimum; column bounds alone tell the
programs apart. If the joint LP has no optimum, each program is solved
alone, where infeasibility is an answer and any other failure raises.
``kstar`` is the same solve with one block, its reply pinned by equal lower
and upper bounds. ``stackelberg`` is one array pass over the same lattice.
Every array pass repeats the per-point arithmetic bit for bit: rows are
normalized as ``Distribution`` normalizes a vector, and products are stacked
matrix-vector products, the ones a single point would make.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .bruteforce import simplex_lattice
from .game import Distribution, StageGame, mix_signal_dist
from .lp import linprog

__all__ = [
    "ScoreResult",
    "PayoffSetResult",
    "best_replies",
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


def best_replies(game: StageGame, q: np.ndarray) -> np.ndarray:
    """Mask ``(..., n_b)`` of the replies to signal laws ``q`` ``(..., n_y)`` whose
    payoff ``q @ v_tilde.T`` is within ``BR_TIE_TOL`` of the best. The best is
    taken reply column by reply column, many times faster than ``max(axis=-1)``."""
    vals = q @ game.v_tilde.T
    top = functools.reduce(np.maximum, np.moveaxis(vals, -1, 0))
    return vals >= (top - BR_TIE_TOL)[..., None]


def br2(game: StageGame, q: Distribution) -> tuple[str, ...]:
    """Short-run best replies to a signal distribution, by ``best_replies``.

    The reply maximizes the signal-measurable payoff sum_y q(y) v_tilde(b, y);
    when q = rho_alpha this coincides with the ex-ante best reply to alpha.
    """
    if q.labels != game.signals:
        raise ValueError(f"br2: expected signal labels {game.signals}, got {q.labels}")
    return tuple(b for b, best in zip(game.actions_short, best_replies(game, q.weights)) if best)


def optimality_loss(game: StageGame, alpha: Distribution, beta: Distribution) -> float:
    """Short-run payoff forgone by beta against alpha, relative to the best reply."""
    if alpha.labels != game.actions_long or beta.labels != game.actions_short:
        raise ValueError("optimality_loss: action labels do not match the game")
    row = alpha.weights @ game.v
    return float(row.max() - row @ beta.weights)


def kstar(game: StageGame, alpha: Distribution, beta: Distribution, direction: int) -> ScoreResult:
    """Solve the score program at one (alpha, beta) pair, beta pinned by its
    bounds. Infeasibility is an answer."""
    if direction not in (+1, -1):
        raise ValueError(f"kstar: direction must be +1 or -1, got {direction!r}")
    if alpha.labels != game.actions_long or beta.labels != game.actions_short:
        raise ValueError("kstar: action labels do not match the game")
    beta_w = beta.weights[None]
    return _solve_scores(game, alpha.weights[None] > SUPPORT_CUTOFF, beta_w, beta_w,
                         np.array([direction]))[0]


def _score_lp(game: StageGame, supp: np.ndarray, beta_lb: np.ndarray, beta_ub: np.ndarray,
              direction: np.ndarray) -> tuple:
    """The linprog arguments of score programs stacked as diagonal blocks.

    Every program is the same block: columns [z, x(y), beta(b), s(a)] and
    one row z - rho(.|a) x - u(a, .) beta - s_a = 0 per long-run action a,
    then the row sum(beta) = 1. Only the column bounds and objective say
    which program a block is: the slack s_a is 0 on supp[p] and >= 0 off
    it, beta lies within its reply bounds, and direction[p] sets c_z and the
    offsets' half-space. Every column holds one entry per row of its block,
    zeros included, as ``block_diag`` of the blocks stores them.
    """
    R = game.rho.matrix
    P, n_a = supp.shape
    n_y, n_b = R.shape[1], game.u.shape[1]
    block = np.zeros((n_a + 1, 1 + n_y + n_b + n_a))
    block[:n_a] = np.hstack([np.ones((n_a, 1)), -R, -game.u, -np.eye(n_a)])
    block[n_a, 1 + n_y:1 + n_y + n_b] = 1.0
    m, C = block.shape
    rows = np.arange(P * m, dtype=np.int32).reshape(P, 1, m)  # block p's rows
    indptr = np.arange(0, P * C * m + 1, m, dtype=np.int32)
    A = (np.tile(block.T.ravel(), P), np.broadcast_to(rows, (P, C, m)).ravel(), indptr)
    c = np.zeros((P, C))
    c[:, 0] = -direction
    below = np.broadcast_to((direction == +1)[:, None], (P, n_y))  # offsets x(y) <= 0
    lb = np.hstack([np.full((P, 1), -np.inf), np.where(below, -np.inf, 0.0), beta_lb,
                    np.zeros((P, n_a))])
    ub = np.hstack([np.full((P, 1), np.inf), np.where(below, 0.0, np.inf), beta_ub,
                    np.where(supp, 0.0, np.inf)])
    b_eq = np.tile(np.append(np.zeros(n_a), 1.0), P)  # 1 on the sum(beta) rows
    return c.ravel(), A, b_eq, lb.ravel(), ub.ravel()


def _solve_scores(game: StageGame, supp: np.ndarray, beta_lb: np.ndarray, beta_ub: np.ndarray,
                  direction: np.ndarray) -> list[ScoreResult]:
    """Solve score programs, row p given by its support, reply bounds and direction, in one LP.

    The programs share no variable, so they are the diagonal blocks of one
    program whose optimum is every block's optimum. When the joint program
    has no optimum, each program is solved alone: alone, infeasibility is
    an answer and any other failure raises.
    """
    res = linprog(*_score_lp(game, supp, beta_lb, beta_ub, direction))
    P = len(supp)
    if res.status == 0:
        n_y = game.rho.matrix.shape[1]
        return [ScoreResult(True, float(x[0]), x[1:1 + n_y].copy(), int(d))
                for x, d in zip(res.x.reshape(P, -1), direction)]
    if P > 1:
        return [_solve_scores(game, supp[p:p + 1], beta_lb[p:p + 1], beta_ub[p:p + 1],
                              direction[p:p + 1])[0] for p in range(P)]
    if res.status == 2:
        return [ScoreResult(False, None, None, int(direction[0]))]
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


def _normalized(W: np.ndarray) -> np.ndarray:
    """Rows of W divided by their sums, as ``Distribution`` normalizes one vector."""
    return W / W.sum(axis=1, keepdims=True)


def _lattice_replies(game: StageGame, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized commitments alpha, one per row of ``points``, and their
    ``best_replies`` to rho_alpha, computed as ``mix_signal_dist`` computes it."""
    alpha = _normalized(points)
    q = _normalized((alpha[:, None, :] @ game.rho.matrix)[:, 0, :])
    return alpha, best_replies(game, q)


def kappa(game: StageGame, grid: float) -> tuple[float, float]:
    """(kappa(+1), kappa(-1)): sup of lambda z* over gridded alpha and replies
    beta in Delta(BR(alpha)); -inf when no program of that direction is feasible.

    The score program sees alpha only through its support and beta only
    through u(a, beta), which is linear in beta, so beta is a variable of the
    program, free on alpha's best replies and 0 off them. One array pass over
    the lattice gives every point's (support, best-reply mask) row; the
    distinct rows (packed bitwise into byte strings), in order of first
    appearance, are the programs. One LP solves each of them for +1, then
    each for -1.
    """
    alpha, replies = _lattice_replies(game, simplex_lattice(len(game.actions_long), grid))
    supp = alpha > SUPPORT_CUTOFF
    packed = np.packbits(np.hstack([supp, replies]), axis=1)
    _, first = np.unique(packed.view(f"S{packed.shape[1]}")[:, 0], return_index=True)
    first = np.tile(np.sort(first), 2)
    sign = np.repeat([+1, -1], len(first) // 2)
    results = _solve_scores(game, supp[first], np.zeros(replies[first].shape),
                            np.where(replies[first], np.inf, 0.0), sign)
    scores = np.array([d * res.z if res.feasible else -np.inf for d, res in zip(sign, results)])
    return float(scores[sign == +1].max()), float(scores[sign == -1].max())


def ci_payoff_set(game: StageGame, grid: float) -> PayoffSetResult:
    """Interval clamping the long-run player's equilibrium payoffs under known types.

    hi caps payoffs using the downward half-space score, lo symmetric; both are
    intersected with the raw payoff range. A warning is raised when lo > hi.
    """
    k_plus, k_minus = kappa(game, grid)
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

    Grid supremum of min over the ``best_replies`` to rho_alpha of u(alpha, b);
    ``pure`` restricts the commitment to vertices. Ties go to the first grid
    point reaching the sup. One array pass, the one ``kappa`` makes.
    """
    n = len(game.actions_long)
    points = np.eye(n) if pure else simplex_lattice(n, grid)
    alpha, replies = _lattice_replies(game, points)
    u_rows = (alpha[:, None, :] @ game.u)[:, 0, :]
    worst = np.where(replies, u_rows, np.inf).min(axis=1)
    i = int(np.argmax(worst))
    return float(worst[i]), Distribution(game.actions_long, points[i])


def reputation_lower_bound(game: StageGame, alpha_star: Distribution) -> float:
    """Worst payoff of persistent alpha_star play across its admissible replies."""
    replies = best_replies(game, mix_signal_dist(game.rho, alpha_star).weights)
    return float((alpha_star.weights @ game.u)[replies].min())
