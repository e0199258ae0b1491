"""Half-space score programs and the payoff bounds they generate.

For a direction lambda in {+1, -1} and an action pair (alpha, beta), the score
program asks for the best payoff level z enforceable with continuation offsets
x(y) = w(y) - z that all sit on one side of zero (lambda x(y) <= 0):

    maximize   lambda z
    subject to z  = u(a, beta) + sum_y rho(y|a) x(y)   for a in supp(alpha)
               z >= u(a', beta) + sum_y rho(y|a') x(y) for every a'
               lambda x(y) <= 0.

Supremum of lambda z over pairs where beta is a best reply (ties within
``BR_TIE_TOL``) gives kappa(lambda); the two directions clamp the
complete-information equilibrium payoff set from above and below.

The score program sees alpha only through supp(alpha). ``kappa`` collects the
distinct (supp(alpha), beta) programs of its lattice in one array pass over
``simplex_lattice`` (an ``(N, n)`` array, capped at ``LATTICE_CAP`` points)
and solves them in one ``linprog`` call (``repgame.lp``, HiGHS handed the
model directly): they share no variable, so they stack as the diagonal
blocks of one LP whose optimum is every block's optimum. Each program's
constraint rows are built once, as the CSC arrays HiGHS takes, and the LP
of any run of programs is a slice of them. If the joint LP has no optimum,
the blocks are split in halves and solved again until each failing program
stands alone, where infeasibility is an answer and any other failure
raises. ``kstar`` is the same solve with one block. ``stackelberg``
is one array pass over the same lattice. Every array pass repeats the
per-point arithmetic bit for bit: rows are normalized as ``Distribution``
normalizes a vector, and products are stacked matrix-vector products, the
ones a single point would make.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bruteforce import simplex_lattice
from .game import Distribution, StageGame, mix_signal_dist
from .lp import linprog

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
_VERTEX_TOL = 1e-12    # a sub-grid reply this close to a vertex is the pure reply
MIXED_REPLY_MARGIN = 1e-9  # kappa warns when a mixed reply beats every pure one by more


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


def br2(game: StageGame, q: Distribution) -> tuple[str, ...]:
    """Short-run best replies to a signal distribution, ties within ``BR_TIE_TOL``.

    The reply maximizes the signal-measurable payoff sum_y q(y) v_tilde(b, y);
    when q = rho_alpha this coincides with the ex-ante best reply to alpha.
    """
    if q.labels != game.signals:
        raise ValueError(f"br2: expected signal labels {game.signals}, got {q.labels}")
    vals = game.v_tilde @ q.weights
    top = float(vals.max())
    return tuple(b for b, val in zip(game.actions_short, vals) if val >= top - BR_TIE_TOL)


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


@dataclass(frozen=True, eq=False)
class _ScoreRows:
    """The constraint rows of a list of score programs, laid out as HiGHS
    takes them: one CSC matrix whose rows are every program's inequalities,
    then every program's equalities, and whose p-th block of columns,
    [z, x(y_1) ... x(y_n)], is program p's.

    Program p has one row per long-run action a: the equality [1, -rho(.|a)]
    for a in its support, the inequality [-1, rho(.|a)] off it. So every
    column holds n_a entries, inequalities first, and the matrix of
    programs lo..hi-1 is a contiguous slice of ``data``; only its row
    numbers depend on the range. ``row[p, s]`` is the row of program p's
    s-th entry within its family, the equalities where ``is_eq[p, s]``.
    """

    data: np.ndarray
    row: np.ndarray
    is_eq: np.ndarray
    ub_start: np.ndarray
    eq_start: np.ndarray
    b_ub: np.ndarray
    b_eq: np.ndarray
    n_cols: int

    def take(self, lo: int, hi: int
             ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
        """(data, indices, indptr) of programs lo..hi-1, and their b_ub and b_eq."""
        C, n_a = self.n_cols, self.row.shape[1]
        ub0, ub1 = self.ub_start[lo], self.ub_start[hi]
        eq0, eq1 = self.eq_start[lo], self.eq_start[hi]
        rows = np.where(self.is_eq[lo:hi], self.row[lo:hi] - eq0 + (ub1 - ub0),
                        self.row[lo:hi] - ub0)
        indices = np.broadcast_to(rows[:, None, :], (hi - lo, C, n_a)).astype(np.int32).ravel()
        indptr = np.arange(0, (hi - lo) * C * n_a + 1, n_a, dtype=np.int32)
        data = self.data[lo * C * n_a:hi * C * n_a]
        return (data, indices, indptr), self.b_ub[ub0:ub1], self.b_eq[eq0:eq1]


def _score_rows(game: StageGame, programs: list[tuple[np.ndarray, np.ndarray]]) -> _ScoreRows:
    """Constraint rows of (support mask, beta weights) programs."""
    R = game.rho.matrix
    n_a = R.shape[0]
    supp = np.array([supp for supp, _ in programs])
    betas = np.array([beta_w for _, beta_w in programs])
    u_beta = (game.u @ betas[:, :, None])[:, :, 0]  # u @ beta_w, program by program
    order = np.argsort(supp, axis=1, kind="stable")  # actions off the support first
    is_eq = np.take_along_axis(supp, order, axis=1)
    n_ub = n_a - supp.sum(axis=1)
    ub_start = np.concatenate([[0], np.cumsum(n_ub)])
    eq_start = np.concatenate([[0], np.cumsum(n_a - n_ub)])
    slot = np.arange(n_a)
    row = np.where(is_eq, eq_start[:-1, None] + slot - n_ub[:, None], ub_start[:-1, None] + slot)
    sign = np.where(is_eq, 1.0, -1.0)[:, :, None]
    block = np.concatenate([sign, sign * -R[order]], axis=2)  # (program, entry, column)
    return _ScoreRows(block.transpose(0, 2, 1).ravel(), row, is_eq, ub_start, eq_start,
                      -u_beta[~supp], u_beta[supp], 1 + R.shape[1])


def _solve_scores(game: StageGame, programs: list[tuple[np.ndarray, np.ndarray]],
                  direction: int) -> list[ScoreResult]:
    """Solve score programs, given as (support mask, beta weights), in one LP.

    The programs share no variable, so they are the diagonal blocks of one
    program whose optimum is every block's optimum. When the joint program
    has no optimum, the list is split in halves until each failing program
    stands alone: alone, infeasibility is an answer and any other failure
    raises. Each program's rows are built once, whatever the halving.
    """
    return _solve_range(_score_rows(game, programs), 0, len(programs), direction)


def _solve_range(rows: _ScoreRows, lo: int, hi: int, direction: int) -> list[ScoreResult]:
    """Score programs lo..hi-1 in one LP, halving on failure."""
    A, b_ub, b_eq = rows.take(lo, hi)
    n_cols = rows.n_cols
    c = np.zeros(n_cols)
    c[0] = -float(direction)
    lb = np.full(n_cols, -np.inf)
    ub = np.full(n_cols, np.inf)
    (ub if direction == +1 else lb)[1:] = 0.0  # the offsets' half-space
    k = hi - lo
    res = linprog(np.tile(c, k), A, b_ub, b_eq, np.tile(lb, k), np.tile(ub, k))
    if res.status == 0:
        return [ScoreResult(True, float(x[0]), x[1:].copy(), direction)
                for x in res.x.reshape(k, n_cols)]
    if k > 1:
        half = lo + k // 2
        return (_solve_range(rows, lo, half, direction)
                + _solve_range(rows, half, hi, direction))
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


def _normalized(W: np.ndarray) -> np.ndarray:
    """Rows of W divided by their sums, as ``Distribution`` normalizes one vector."""
    return W / W.sum(axis=1, keepdims=True)


def _admissible_betas(keep: np.ndarray, n_b: int) -> list[tuple[np.ndarray, bool]]:
    """The pure replies ``keep`` lists, plus a coarse lattice of mixtures of them.

    The loss of a mixture is the mixture of pure losses, so every listed beta
    is as admissible as the worst pure reply it mixes. Bool flags mark
    properly mixed entries. Mixtures are normalized as ``Distribution``
    normalizes them.
    """
    pure = np.zeros((len(keep), n_b))
    pure[np.arange(len(keep)), keep] = 1.0
    out = [(w, False) for w in pure]
    if len(keep) >= 2:
        mix = simplex_lattice(len(keep), BETA_SUBGRID)
        mix = mix[~np.any(np.abs(mix - 1.0) < _VERTEX_TOL, axis=1)]  # vertices listed as pure
        mixed = np.zeros((len(mix), n_b))
        mixed[:, keep] = mix
        out.extend((w, True) for w in _normalized(mixed))
    return out


def kappa(game: StageGame, direction: int, grid: float) -> float:
    """sup of lambda z* over gridded pairs with a best reply (ties: ``BR_TIE_TOL``).

    Returns -inf when no admissible pair is feasible. The score program sees
    alpha only through its support, and the admissible replies depend on
    alpha only through which pure replies are best. So one
    array pass over the lattice gives every point's (support, reply mask)
    row; the replies of each distinct mask are listed once, and the distinct
    (supp(alpha), beta) programs, in order of first appearance along the
    lattice, are solved together in one LP. Mixed replies enter only through
    the coarse sub-lattice; a warning is raised if one beats every pure reply
    by more than ``MIXED_REPLY_MARGIN``, since then the sub-grid matters.
    """
    if direction not in (+1, -1):
        raise ValueError(f"kappa: direction must be +1 or -1, got {direction!r}")
    n_b = len(game.actions_short)
    alpha = _normalized(simplex_lattice(len(game.actions_long), grid))
    supp = alpha > SUPPORT_CUTOFF
    rows = (alpha[:, None, :] @ game.v)[:, 0, :]  # alpha_w @ v, point by point
    keep = rows.max(axis=1, keepdims=True) - rows <= BR_TIE_TOL
    _, first = np.unique(np.hstack([supp, keep]), axis=0, return_index=True)
    betas: dict[bytes, list[tuple[np.ndarray, bool]]] = {}
    programs: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray, bool]] = {}
    for i in np.sort(first):
        mask_key = keep[i].tobytes()
        if mask_key not in betas:
            betas[mask_key] = _admissible_betas(np.flatnonzero(keep[i]), n_b)
        supp_key = supp[i].tobytes()
        for beta_w, is_mixed in betas[mask_key]:
            key = (supp_key, beta_w.tobytes())
            if key not in programs:
                programs[key] = (supp[i], beta_w, is_mixed)
    results = _solve_scores(game, [(supp_i, beta_w) for supp_i, beta_w, _ in programs.values()],
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
    if best > best_pure + MIXED_REPLY_MARGIN:
        warnings.warn(
            f"kappa(direction={direction}): a mixed short-run reply beat every "
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
    k_plus = kappa(game, +1, grid)
    k_minus = kappa(game, -1, grid)
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
    One array pass: every point's signal law, reply values and payoff row are
    computed as ``br2`` and ``mix_signal_dist`` compute them for that point.
    """
    n = len(game.actions_long)
    points = np.eye(n) if pure else simplex_lattice(n, grid)
    alpha = _normalized(points)
    q = _normalized((alpha[:, None, :] @ game.rho.matrix)[:, 0, :])
    vals = (game.v_tilde @ q[:, :, None])[:, :, 0]
    replies = vals >= vals.max(axis=1, keepdims=True) - BR_TIE_TOL
    u_rows = (alpha[:, None, :] @ game.u)[:, 0, :]
    worst = np.where(replies, u_rows, np.inf).min(axis=1)
    i = int(np.argmax(worst))
    return float(worst[i]), Distribution(game.actions_long, points[i])


def reputation_lower_bound(game: StageGame, alpha_star: Distribution) -> float:
    """Worst payoff of persistent alpha_star play across its admissible replies."""
    replies = br2(game, mix_signal_dist(game.rho, alpha_star))
    u_row = alpha_star.weights @ game.u
    return min(float(u_row[game.actions_short.index(b)]) for b in replies)
