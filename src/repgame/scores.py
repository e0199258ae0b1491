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
distinct (supp(alpha), beta) programs of its lattice in one array pass over
``simplex_lattice`` (an ``(N, n)`` array, capped at ``LATTICE_CAP`` points)
and solves them in one ``linprog`` call: they share no variable, so they
stack as the diagonal blocks of one LP whose optimum is every block's
optimum. Each program's constraint rows are built once. If the joint LP has
no optimum, the blocks are split in halves and solved again until each
failing program stands alone, where infeasibility is an answer and any other
failure raises. ``kstar`` is the same solve with one block. ``stackelberg``
is one array pass over the same lattice. Every array pass repeats the
per-point arithmetic bit for bit: rows are normalized as ``Distribution``
normalizes a vector, and products are stacked matrix-vector products, the
ones a single point would make.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

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


@dataclass(frozen=True, eq=False)
class _BlockRows:
    """One constraint family (equalities or inequalities) of a list of score
    programs, in the CSC order of the block diagonal whose p-th block holds
    program p's rows; row_start[p] is program p's first row.

    Every block is dense: its rows are [1, -rho(.|a)] (equalities, a in the
    support) or [-1, rho(.|a)] (inequalities, a off it), and rho has full
    support. So the matrix of programs lo..hi-1 is a contiguous slice of the
    arrays, equal entry for entry to ``block_diag`` of their blocks.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    row_start: np.ndarray
    rhs: np.ndarray
    n_cols: int

    @classmethod
    def build(cls, rows: np.ndarray, lead: float, R: np.ndarray, rhs: np.ndarray) -> "_BlockRows":
        """The rows ``rows[p]`` marks for each program p: [lead, R[a]] per marked a."""
        C = 1 + R.shape[1]  # variables of each block: [z, x(y_1) ... x(y_n)]
        prog, act = np.nonzero(rows)
        m = rows.sum(axis=1)
        row_start = np.concatenate([[0], np.cumsum(m)])
        block = np.empty((len(prog), C))
        block[:, 0] = lead
        block[:, 1:] = R[act]
        # entry (row e, column c) of program p goes to C*row_start[p] + c*m[p] + (e - row_start[p])
        e = np.arange(len(prog))
        pos = (((C - 1) * row_start[prog] + e)[:, None] + np.arange(C) * m[prog][:, None]).ravel()
        data = np.empty(block.size)
        data[pos] = block.ravel()
        indices = np.empty(block.size, dtype=np.int32)
        indices[pos] = np.repeat(e, C)
        indptr = np.concatenate([[0], np.cumsum(np.repeat(m, C))]).astype(np.int32)
        return cls(data, indices, indptr, row_start, rhs, C)

    def has_rows(self, lo: int, hi: int) -> bool:
        return bool(self.row_start[hi] > self.row_start[lo])

    def take(self, lo: int, hi: int) -> tuple[csc_matrix, np.ndarray]:
        """Matrix and right-hand side of programs lo..hi-1."""
        C = self.n_cols
        r0, r1 = self.row_start[lo], self.row_start[hi]
        ptr = self.indptr[lo * C:hi * C + 1]
        A = csc_matrix((self.data[ptr[0]:ptr[-1]], self.indices[ptr[0]:ptr[-1]] - r0,
                        ptr - ptr[0]), shape=(r1 - r0, (hi - lo) * C))
        return A, self.rhs[r0:r1]


def _score_rows(game: StageGame, programs: list[tuple[np.ndarray, np.ndarray]]
                ) -> tuple[_BlockRows, _BlockRows]:
    """Equality and inequality rows of (support mask, beta weights) programs."""
    R = game.rho.matrix
    supp = np.array([supp for supp, _ in programs])
    betas = np.array([beta_w for _, beta_w in programs])
    u_beta = (game.u @ betas[:, :, None])[:, :, 0]  # u @ beta_w, program by program
    return (_BlockRows.build(supp, 1.0, -R, u_beta[supp]),
            _BlockRows.build(~supp, -1.0, R, -u_beta[~supp]))


def _solve_scores(game: StageGame, programs: list[tuple[np.ndarray, np.ndarray]],
                  direction: int) -> list[ScoreResult]:
    """Solve score programs, given as (support mask, beta weights), in one LP.

    The programs share no variable, so they are the diagonal blocks of one
    program whose optimum is every block's optimum. When the joint program
    has no optimum, the list is split in halves until each failing program
    stands alone: alone, infeasibility is an answer and any other failure
    raises. Each program's rows are built once, whatever the halving.
    """
    eq, ub = _score_rows(game, programs)
    return _solve_range(eq, ub, 0, len(programs), direction)


def _solve_range(eq: _BlockRows, ub: _BlockRows, lo: int, hi: int,
                 direction: int) -> list[ScoreResult]:
    """Score programs lo..hi-1 in one LP, halving on failure."""
    A_eq, b_eq = eq.take(lo, hi)
    A_ub, b_ub = ub.take(lo, hi) if ub.has_rows(lo, hi) else (None, None)
    n_cols = eq.n_cols
    block_bounds = np.array([(-np.inf, np.inf)]
                            + [(-np.inf, 0.0) if direction == +1 else (0.0, np.inf)]
                            * (n_cols - 1))
    c = np.zeros(n_cols)
    c[0] = -float(direction)
    res = linprog(np.tile(c, hi - lo), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=np.tile(block_bounds, (hi - lo, 1)), method="highs")
    if res.status == 0:
        return [ScoreResult(True, float(x[0]), x[1:].copy(), direction)
                for x in res.x.reshape(hi - lo, n_cols)]
    if hi - lo > 1:
        half = lo + (hi - lo) // 2
        return (_solve_range(eq, ub, lo, half, direction)
                + _solve_range(eq, ub, half, hi, direction))
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
        mix = mix[~np.any(np.abs(mix - 1.0) < 1e-12, axis=1)]  # vertices already listed as pure
        mixed = np.zeros((len(mix), n_b))
        mixed[:, keep] = mix
        out.extend((w, True) for w in _normalized(mixed))
    return out


def kappa(game: StageGame, direction: int, eta: float, grid: float) -> float:
    """sup of lambda z* over gridded pairs with an eta-admissible short-run reply.

    Returns -inf when no admissible pair is feasible. The score program sees
    alpha only through its support, and the admissible replies depend on
    alpha only through which pure replies are within eta of the best. So one
    array pass over the lattice gives every point's (support, reply mask)
    row; the replies of each distinct mask are listed once, and the distinct
    (supp(alpha), beta) programs, in order of first appearance along the
    lattice, are solved together in one LP. Mixed replies enter only through
    the coarse sub-lattice; a warning is raised if one strictly beats every
    pure reply, since that signals the sub-grid actually matters.
    """
    if direction not in (+1, -1):
        raise ValueError(f"kappa: direction must be +1 or -1, got {direction!r}")
    if eta < 0.0:
        raise ValueError(f"kappa: eta must be >= 0, got {eta!r}")
    n_b = len(game.actions_short)
    alpha = _normalized(simplex_lattice(len(game.actions_long), grid))
    supp = alpha > SUPPORT_CUTOFF
    rows = (alpha[:, None, :] @ game.v)[:, 0, :]  # alpha_w @ v, point by point
    keep = rows.max(axis=1, keepdims=True) - rows <= eta + BR_TIE_TOL
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
