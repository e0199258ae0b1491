"""Belief dynamics of short-run Bayesian players with a fixed model set.

Each period the short-run player forms a predictive signal distribution from
the current posterior over (type, model) hypotheses, best-replies to it, then
updates on the realized public signal. Nature draws signals from the *true*
monitoring structure, which need not belong to the player's model set — that
mismatch is the entire point. Beliefs are carried in log space and only ever
normalized through logsumexp, so posteriors stay meaningful long after
individual hypotheses have lost hundreds of nats.

The batch engine is vectorized across Monte Carlo runs. Randomness comes from
counter-based per-run substreams (Philox keyed by ``(master_seed << 64) | run``).
Actions and signals never depend on beliefs, so the whole (runs, T) panel of
them is drawn first: each run's uniforms go into one reusable buffer of about
2**16 run-periods, a chunk of runs at a time, and each chunk becomes actions
and signals, kept in the smallest unsigned dtype that holds the largest index
(uint8 for every game in the package), before the buffer is reused.

Beliefs come next. A period's forecast, reply, loss and gaps depend on its
log weights and the period alone. Under a scripted conjecture the log weights
are a running sum of the log-likelihoods, taken in time blocks of about 2**16
run-periods. Under a stationary one, the log weights at period t are
log prior + sum_y n_y(t) log F(y), added in signal order, so they depend on
the signal counts n(t) alone. The signals are then counted in strips of
periods, about 2**19 counts at a time. The states a strip visits lie in a
box: each period's counts between their minimum and maximum over runs. Where
the box holds no more cells than the strip has run-periods, the cells runs
visit are evaluated once each and the panels gather from them. Otherwise
every run-period is evaluated, with the same arithmetic. Either way states
are evaluated about 2**14 at a time.

Every panel column, ``kl_term`` included, is computed per run with the same
floating-point steps at any batch size, so run ``i`` of a 1000-run batch is
bit-identical to run ``i`` simulated alone. The forecast is one of them: it
is summed over models in model order (``_mix``), not a BLAS product, whose
rounding of a row can depend on how many rows it multiplies.

A ``simulate_batch`` batch holds about 34 bytes per run-period: four float64
panels (``mu``, ``ell``, ``u_flow``, ``tv_gap``) and the two uint8 index
panels; ``kl_term`` adds 8 more. The cap of 64M run-periods per batch
(``_MAX_CELLS``) is thus about 2.2 GB of panels, or 2.7 GB with ``kl_term``.
A ``monte_carlo`` batch holds about 10: every run's ``mu``, ``actions`` and
``signals``, run 0's row of the other panels, and each run's discounted sums
of ``ell``, ``u_flow`` and ``kl_term``, which either kind of batch adds up a
block at a time as the pass writes it. The float panels sit in memory maps
of their own (``_panel``), outside the malloc heap.
"""

from __future__ import annotations

import math
import mmap
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .divergence import kl, separation_value
from .frameworks import TYPE_COMMIT, TYPE_NORMAL, Framework
from .game import Distribution, StageGame
from .scores import best_replies

__all__ = [
    "BeliefState",
    "bayes_step",
    "predictive",
    "SimulationConfig",
    "BatchResult",
    "TrajectoryRecord",
    "MonteCarloSummary",
    "simulate_batch",
    "simulate_run",
    "monte_carlo",
    "DecayFit",
    "decay_rate_fit",
    "CertificateReport",
    "discounted_kl_certificate",
    "certificate_kl_ceiling",
    "AzumaReport",
    "azuma_diagnostic",
]

Strategy = Union[Distribution, Sequence[Distribution]]

TRUNCATION_TOL = 1e-4       # discounted tail a derived horizon may discard
_HORIZON_SLACK = 1e-12      # relative slack on a derived horizon's discarded tail
_DECAY_WINDOW = 0.5         # trailing share of the curve that decay_rate_fit fits
SAME_STRATEGY_ATOL = 1e-12  # play is at the target or the conjecture within this
CERTIFICATE_SLACK = 1e-9    # a run passes the certificate if lhs <= rhs + this
ZETA_SLACK = 1e-12          # azuma_diagnostic takes zeta up to the separation value + this
AZUMA_SLACK = 1e-12         # an empirical tail holds if at most its bound + this


# ---------------------------------------------------------------------------
# single-step belief API


@dataclass(frozen=True)
class BeliefState:
    """Unnormalized log posterior over (type, model) hypotheses; shape (2, n_models)."""

    log_weights: np.ndarray

    @classmethod
    def from_prior(cls, framework: Framework) -> "BeliefState":
        return cls(np.log(framework.prior))

    @property
    def posterior(self) -> np.ndarray:
        w = self.log_weights
        return np.exp(w - _logsumexp(w.reshape(1, -1))[0])

    @property
    def reputation(self) -> float:
        """Posterior mass on the commitment type."""
        return float(self.posterior[TYPE_COMMIT].sum())


def predictive(state: BeliefState, framework: Framework,
               conjectured_alpha: Distribution) -> Distribution:
    """Posterior-mixture forecast of the next signal.

    Commitment hypotheses predict through their commitment slices; normal
    hypotheses predict through the conjectured normal-type mixed action.
    """
    post = state.posterior
    q = (_mix(post[TYPE_COMMIT], framework.commitment_slices)
         + _mix(post[TYPE_NORMAL], framework.normal_mix(conjectured_alpha)))
    return Distribution(framework.signals, q)


def bayes_step(state: BeliefState, framework: Framework, signal: int | str,
               conjectured_alpha: Distribution) -> BeliefState:
    """One-signal update. Works entirely on log weights; never renormalizes."""
    y = signal if isinstance(signal, int) else framework.signals.index(signal)
    if not 0 <= y < len(framework.signals):
        raise ValueError(f"bayes_step: signal index {y} out of range")
    inc = np.stack([
        np.log(framework.normal_mix(conjectured_alpha)[:, y]),
        np.log(framework.commitment_slices[:, y]),
    ])
    return BeliefState(state.log_weights + inc)


# ---------------------------------------------------------------------------
# batch simulation


@dataclass(frozen=True)
class SimulationConfig:
    """What to simulate and for how long.

    ``normal_strategy`` is either one Distribution (stationary play) or a
    per-period sequence; ``slp_conjecture`` defaults to the same thing, i.e.
    the short-run players conjecture the normal type's actual strategy. When
    ``horizon`` is None it is derived from delta so the discarded discounted
    tail is below ``TRUNCATION_TOL`` (or taken from the script length).
    ``alpha_star_target`` switches on per-period recording of
    KL(rho_target || forecast), the raw material of the survival certificate.
    """

    delta: float
    master_seed: int | None = None
    runs: int = 100
    true_type: str = "normal"
    normal_strategy: Strategy | None = None
    slp_conjecture: Strategy | None = None
    horizon: int | None = None
    alpha_star_target: Distribution | None = None


@dataclass(frozen=True)
class BatchResult:
    """Per-run, per-period panels from one batch of simulated paths.

    ``mu`` has one extra column: entry [r, t] is run r's start-of-period-t
    reputation, and [r, T] is the final posterior after the last update.

    A ``simulate_batch`` batch is full: every panel has a row per run. A
    ``monte_carlo`` batch keeps ``mu``, ``actions`` and ``signals`` for every
    run but only run 0's row, shape (1, T), of ``ell``, ``u_flow``,
    ``tv_gap`` and ``kl_term``. Both carry each run's discounted sums
    sum_t (1 - delta) delta^t x[r, t] of ``ell``, ``u_flow`` and
    ``kl_term``, added a block at a time as the panels were written.
    """

    mu: np.ndarray        # (runs, T+1)
    ell: np.ndarray       # (runs or 1, T) short-run optimality loss
    u_flow: np.ndarray    # (runs or 1, T) realized long-run flow payoff
    tv_gap: np.ndarray    # (runs or 1, T) TV(true mix, forecast)
    kl_term: np.ndarray | None  # (runs or 1, T) KL(rho_target, forecast), if targeted
    ell_disc: np.ndarray  # (runs,) discounted sums of ell
    u_flow_disc: np.ndarray     # (runs,) discounted sums of u_flow
    kl_disc: np.ndarray | None  # (runs,) discounted sums of kl_term, if targeted
    actions: np.ndarray   # (runs, T) realized long-run action indices
    signals: np.ndarray   # (runs, T) realized signal indices
    run_indices: np.ndarray
    config: SimulationConfig
    horizon: int
    truncation: float
    target_signal_dist: np.ndarray | None

    @property
    def runs(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class TrajectoryRecord:
    """One run's path, 1-D arrays, plus enough metadata to audit it."""

    mu: np.ndarray
    ell: np.ndarray
    u_flow: np.ndarray
    tv_gap: np.ndarray
    kl_term: np.ndarray | None
    actions: np.ndarray
    signals: np.ndarray
    run_index: int
    config: SimulationConfig
    horizon: int
    truncation: float
    target_signal_dist: np.ndarray | None

    @classmethod
    def from_batch(cls, batch: BatchResult, row: int) -> "TrajectoryRecord":
        if row != 0 and len(batch.ell) < batch.runs:
            raise ValueError(f"row {row}: this batch keeps run 0's path alone; "
                             "simulate_batch or simulate_run give the others")
        return cls(
            mu=batch.mu[row], ell=batch.ell[row], u_flow=batch.u_flow[row],
            tv_gap=batch.tv_gap[row],
            kl_term=None if batch.kl_term is None else batch.kl_term[row],
            actions=batch.actions[row], signals=batch.signals[row],
            run_index=int(batch.run_indices[row]), config=batch.config,
            horizon=batch.horizon, truncation=batch.truncation,
            target_signal_dist=batch.target_signal_dist,
        )

    @property
    def mu_final(self) -> float:
        return float(self.mu[-1])

    def to_csv(self, path) -> None:
        """Write the path, one period per row. Floats use repr so a re-read
        round-trips exactly and reruns diff byte-identically."""
        cols = ["t", "action", "signal", "mu", "ell", "u_flow", "tv_gap", "kl_term"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for t in range(self.horizon):
                row = [
                    str(t), str(int(self.actions[t])), str(int(self.signals[t])),
                    repr(float(self.mu[t])), repr(float(self.ell[t])),
                    repr(float(self.u_flow[t])), repr(float(self.tv_gap[t])),
                    "" if self.kl_term is None else repr(float(self.kl_term[t])),
                ]
                fh.write(",".join(row) + "\n")


def _schedule(strategy: Strategy, actions: tuple[str, ...], horizon: int,
              what: str) -> tuple[Distribution | None, np.ndarray]:
    """Normalize a strategy spec to (stationary_or_None, (T, nA) matrix)."""
    if isinstance(strategy, Distribution):
        if strategy.labels != actions:
            raise ValueError(f"{what}: labels {strategy.labels} != actions {actions}")
        return strategy, np.tile(strategy.weights, (horizon, 1))
    entries = list(strategy)
    if len(entries) < horizon:
        raise ValueError(
            f"{what}: script has {len(entries)} periods but the horizon is {horizon}")
    mat = np.empty((horizon, len(actions)))
    for t, d in enumerate(entries[:horizon]):
        if not isinstance(d, Distribution) or d.labels != actions:
            raise ValueError(f"{what}: period {t} entry is not a Distribution over {actions}")
        mat[t] = d.weights
    return None, mat


def _conjecture(config: SimulationConfig) -> Strategy | None:
    """The short-run players' conjecture: slp_conjecture, or normal_strategy if None."""
    return config.normal_strategy if config.slp_conjecture is None else config.slp_conjecture


def _script_length(strategy: Strategy | None) -> int | None:
    if strategy is None or isinstance(strategy, Distribution):
        return None
    return len(list(strategy))


def _resolve_horizon(game: StageGame, config: SimulationConfig) -> tuple[int, float]:
    """Pick the horizon and report the discarded discounted-average tail."""
    u_min, u_max = game.u_range
    scale = max(1.0, abs(u_min), abs(u_max))
    if config.horizon is not None:
        if config.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {config.horizon}")
        T = int(config.horizon)
    else:
        n_script = _script_length(config.normal_strategy)
        if n_script is not None:
            T = n_script
        else:
            T = max(1, math.ceil(math.log(TRUNCATION_TOL / scale)
                                 / math.log(config.delta)))
            if T > 5_000_000:
                raise ValueError(
                    f"derived horizon {T} is impractical; set horizon explicitly")
            assert scale * config.delta ** T <= TRUNCATION_TOL * (1 + _HORIZON_SLACK)
    return T, float(scale * config.delta ** T)


def _discount_weights(delta: float, horizon: int) -> np.ndarray:
    """(1 - delta) delta^t for t < horizon: a run's discounted sum is its
    panel row times these."""
    return (1.0 - delta) * delta ** np.arange(horizon)


_MAX_CELLS = 64_000_000  # run-periods in one batch
_CELLS = 1 << 16  # run-periods per chunk of the draw and per block of a scripted
                  # belief pass; a stationary one counts 8 * _CELLS at a time


def _draw(master_seed: int, run_indices: np.ndarray, alpha_mat: np.ndarray,
          R_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Long-run actions and signals, (runs, T) each, one Philox substream per run.

    One generator is re-keyed per run; the state set is what
    ``Philox(key=(master_seed << 64) | run)`` starts from, and the run's first
    2T uniforms, as a (T, 2) array, drive its actions and signals. They are
    drawn a chunk of ``max(1, _CELLS // T)`` runs at a time into one reusable
    buffer, which becomes actions and signals before the next chunk.

    An action is the number of entries of cumsum(alpha_t) at or below the
    first uniform (``searchsorted`` on the right) clipped to nA - 1: as the
    cumsum never decreases, that is the count over all its entries but the
    last. A signal is the same count on the cumulative row of the action's
    signal law. Each panel is in the smallest unsigned dtype that holds its
    largest index (uint8 for up to 256 actions or signals).
    """
    if not 0 <= master_seed < 2**63:
        raise ValueError("master_seed must lie in [0, 2**63)")
    if (np.asarray(run_indices) < 0).any():
        raise ValueError("run indices must be non-negative")
    T, nA = alpha_mat.shape
    nY = R_mat.shape[1]
    a_cum = np.cumsum(alpha_mat, axis=1)[:, :-1].T    # (nA - 1, T)
    y_cum = np.cumsum(R_mat, axis=1)[:, :-1].T        # (nY - 1, nA)
    R = len(run_indices)
    actions = np.zeros((R, T), dtype=np.min_scalar_type(nA - 1))
    signals = np.zeros((R, T), dtype=np.min_scalar_type(nY - 1))
    chunk = max(1, _CELLS // T)
    buf = np.empty((min(R, chunk), T, 2))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
    state["buffer_pos"] = 4
    keys = np.empty((R, 2), dtype=np.uint64)  # each run's key: low, high 64 bits
    keys[:, 0] = run_indices
    keys[:, 1] = master_seed
    for r0 in range(0, R, chunk):
        u = buf[:min(chunk, R - r0)]
        for i in range(len(u)):
            state["state"]["key"] = keys[r0 + i]
            bitgen.state = state
            gen.random(out=u[i])
        a = actions[r0:r0 + len(u)]
        for col in a_cum:
            a += u[:, :, 0] >= col
        y = signals[r0:r0 + len(u)]
        for col in y_cum:
            y += u[:, :, 1] >= col[a]
    return actions, signals


def _sum_cols(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)``, bit for bit, one column at a time.

    numpy adds a row of fewer than 8 terms left to right from 0.0; longer rows
    are summed pairwise, so those go to numpy itself.
    """
    if x.shape[-1] >= 8:
        return x.sum(axis=-1)
    out = 0.0 + x[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


def _mix(w: np.ndarray, F: np.ndarray) -> np.ndarray:
    """``sum_m w[..., m] * F[..., m, :]``, added in model order: the forecast
    of posterior weights ``w`` over models with signal laws ``F``. One signal
    column at a time, so each operation runs along the states."""
    q = np.empty(np.broadcast_shapes(w.shape[:-1], F.shape[:-2]) + F.shape[-1:])
    for y in range(F.shape[-1]):
        col = q[..., y]
        np.multiply(w[..., 0], F[..., 0, y], out=col)
        for m in range(1, w.shape[-1]):
            col += w[..., m] * F[..., m, y]
    return q


def _max_cols(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)``, one column at a time."""
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j], out=out)
    return out


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=-1)`` of scipy 1.17, bit for bit.

    Same steps: the row max, the count m of entries at it, the sum s of
    exp(entry - max) over the other entries, then log1p(s/m) + log(m) + max.
    Rows where that is not finite get log(sum(exp(a))), as in scipy.
    """
    a_max = _max_cols(a)
    at_max = a == a_max[..., None]
    m = _sum_cols(at_max.astype(np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(at_max, -np.inf, a)
        e -= a_max[..., None]
        s = _sum_cols(np.exp(e, out=e))
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=-1))
    return out


def _per_row(mat: np.ndarray, fn) -> np.ndarray:
    """``fn(row)`` for every row of ``mat``, evaluated once per distinct row:
    each period gets exactly the value a call on its own row gives."""
    done: dict[bytes, np.ndarray] = {}
    keys = [row.tobytes() for row in mat]
    for key, row in zip(keys, mat):
        if key not in done:
            done[key] = fn(row)
    return np.stack([done[key] for key in keys])


def _reputation(lw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior and commitment mass of log weights ``lw`` (..., 2, nM); the
    posterior overwrites ``lw``."""
    norm = _logsumexp(lw.reshape(lw.shape[:-2] + (-1,)))
    post = np.exp(np.subtract(lw, norm[..., None, None], out=lw), out=lw)
    return post, _sum_cols(post[..., TYPE_COMMIT, :])


def _count_log_weights(log_prior: np.ndarray, log_lik: np.ndarray, t: np.ndarray,
                       counts) -> np.ndarray:
    """Log weights ``log_prior + sum_y n_y * log_lik[y]``, added in signal order,
    of states at periods ``t`` (N,); shape (N, 2, nM).

    ``counts`` yields n_y (N,) for every signal but the last, in order; the
    last signal's count is t minus theirs. ``log_lik[y]`` (2, nM) is each
    hypothesis's log-likelihood of signal y under a stationary conjecture.
    """
    lw = np.empty(t.shape + log_prior.shape)
    lw[:] = log_prior
    rest = t.copy()
    for y, n in enumerate(counts):
        lw += n[:, None, None] * log_lik[y]
        rest -= n
    lw += rest[:, None, None] * log_lik[-1]
    return lw


# Where mmap takes flags (Unix), a panel's pages are faulted in by the one
# mmap call (MAP_POPULATE, Linux) rather than one fault per page as it fills.
_PANEL_MAP = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
               | getattr(mmap, "MAP_POPULATE", 0)}
              if hasattr(mmap, "MAP_ANONYMOUS") else {})


def _panel(runs: int, periods: int) -> np.ndarray:
    """A (runs, periods) float panel in an anonymous memory map of its own.

    Freed, the map goes straight back to the system. In the malloc heap, a
    batch's panels reused the space earlier batches freed only where it was
    left in large enough pieces, so a long process's peak memory depended
    on the order of its earlier batches: +22.5 MB, about one panel of the
    benchmark's wide shape, on one to three in ten simulate runs. The cost
    is fresh pages for every batch instead of reused ones.
    """
    n = runs * periods
    return np.frombuffer(mmap.mmap(-1, max(8 * n, 8), **_PANEL_MAP), dtype=float,
                         count=n).reshape(runs, periods)


def _simulate(game: StageGame, framework: Framework, config: SimulationConfig,
              run_indices: np.ndarray, full: bool = True) -> BatchResult:
    """One pass over the runs ``run_indices``. ``mu``, ``actions`` and
    ``signals`` are kept for every run. ``full`` keeps the other panels for
    every run too; otherwise only run 0's row of each is kept. Either way,
    each block of ``ell``, ``u_flow`` and ``kl_term`` is added into the runs'
    discounted sums as it is written."""
    if framework.actions != game.actions_long or framework.signals != game.signals:
        raise ValueError("framework and game disagree on action or signal labels")
    if config.true_type not in ("normal", "commitment"):
        raise ValueError(f"true_type must be 'normal' or 'commitment', got {config.true_type!r}")
    if not 0.0 < config.delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {config.delta}")
    if config.normal_strategy is None:
        raise ValueError("normal_strategy is required (it also seeds the default conjecture)")
    if config.master_seed is None:
        raise ValueError("master_seed is required; draw one and fix it for reproducibility")

    T, truncation = _resolve_horizon(game, config)
    R = len(run_indices)
    if R * T > _MAX_CELLS:
        raise ValueError(f"runs*horizon = {R * T} run-periods, above the cap of "
                         f"{_MAX_CELLS}; lower runs or the horizon")

    _, normal_mat = _schedule(config.normal_strategy, game.actions_long, T, "normal_strategy")
    conj_stat, conj_mat = _schedule(_conjecture(config), game.actions_long, T, "slp_conjecture")

    if config.true_type == "commitment":
        alpha_mat = np.tile(framework.commitment_action.weights, (T, 1))
    else:
        alpha_mat = normal_mat

    R_mat = game.rho.matrix
    Fhat = framework.commitment_slices
    log_prior = np.log(framework.prior)

    p_star = None
    p_star_ent = 0.0
    if config.alpha_star_target is not None:
        if config.alpha_star_target.labels != game.actions_long:
            raise ValueError("alpha_star_target labels do not match the game")
        p_star = config.alpha_star_target.weights @ R_mat
        p_star_ent = float(p_star @ np.log(p_star))  # rho rows are strictly positive

    # Actions and signals depend on the uniforms and alpha_t only, never on
    # beliefs: draw the whole panel first.
    actions, signals = _draw(config.master_seed, run_indices, alpha_mat, R_mat)

    def row_loss(aw):
        row_v = aw @ game.v
        return row_v.max() - row_v
    loss_t = _per_row(alpha_mat, row_loss).ravel()       # (T * nB,)
    rho_alpha_t = _per_row(alpha_mat, lambda aw: aw @ R_mat)  # (T, nY)
    u_flat = game.u.ravel()
    nA, nB = game.u.shape
    nY = len(game.signals)

    mu = _panel(R, T + 1)
    kept = R if full else 1
    ell, u_flow, tv_gap = _panel(kept, T), _panel(kept, T), _panel(kept, T)
    kl_term = _panel(kept, T) if p_star is not None else None
    w = _discount_weights(config.delta, T)
    ell_disc, u_flow_disc = np.zeros(R), np.zeros(R)
    kl_disc = np.zeros(R) if p_star is not None else None

    def evaluate(lw, t, F0):
        """Reputation, loss, TV gap, KL term and first best reply of the states
        with log weights ``lw`` (..., 2, nM) at periods ``t``. A state's values
        depend on its own log weights and period alone. Overwrites ``lw``."""
        post, mu_s = _reputation(lw)
        q = _mix(post[..., TYPE_COMMIT, :], Fhat)
        q += _mix(post[..., TYPE_NORMAL, :], F0)
        replies = best_replies(game, q)
        b = np.full(replies.shape[:-1], nB - 1)  # the first best reply; some reply is best
        for j in range(nB - 2, -1, -1):
            b = np.where(replies[..., j], j, b)
        tv = 0.5 * _sum_cols(np.abs(q - rho_alpha_t[t]))
        kl = None
        if p_star is not None:
            logq = np.log(q)
            cross = p_star[0] * logq[..., 0]
            for j in range(1, len(p_star)):
                cross += p_star[j] * logq[..., j]
            kl = p_star_ent - cross
        return (mu_s, loss_t[t * nB + b], tv, kl), b

    def keep(at, panel, block, disc=None):
        """Write the block ``block()``, (runs, periods), of a panel at ``at``,
        a pair of slices, or only its row of run 0 in a batch that is not
        full; add it into the runs' discounted sums ``disc``. A block that is
        neither kept nor summed is not gathered."""
        rows, cols = at
        kept = full or rows.start in (None, 0)
        if not kept and disc is None:
            return
        x = block()
        if full:
            panel[at] = x
        elif kept:
            panel[0, cols] = x[0]
        if disc is not None:
            disc[rows] += x @ w[cols]

    def store(at, vals, get, u):
        """Write ``get(v)``, (runs, periods), of each state value into the
        panels at ``at``, one panel at a time, and ``u`` into ``u_flow``,
        through ``keep`` past ``mu``."""
        mu_s, ell_s, tv_s, kl_s = vals
        mu[at] = get(mu_s)
        keep(at, ell, lambda: get(ell_s), ell_disc)
        keep(at, u_flow, lambda: u, u_flow_disc)
        keep(at, tv_gap, lambda: get(tv_s))
        if kl_term is not None:
            keep(at, kl_term, lambda: get(kl_s), kl_disc)

    def reply_payoff(at, b):
        """Long-run flow payoffs u(a, b) of the run-periods at ``at``."""
        return u_flat[actions[at].astype(np.intp) * nB + b]  # a * nB wraps in uint8

    if conj_stat is None:
        # Scripted conjecture: beliefs a block of B periods at a time. Start-of-
        # period log weights are the running sum of the log-likelihood
        # increments, added row by row over [carried log_w, increments...]
        # (the additions of a cumsum, without its slow inner loop along the
        # short time axis).
        F0_t = _per_row(conj_mat, lambda c: np.einsum(
            "a,may->my", c, framework.normal_kernels))   # (T, nM, nY)
        logF0_by_ty = np.log(F0_t).transpose(0, 2, 1)    # (T, nY, nM)
        log_fhat_by_y = np.log(Fhat).T                   # (nY, nM)
        log_w = np.tile(log_prior[None, :, :], (R, 1, 1))
        B = max(1, _CELLS // R)
        for t0 in range(0, T, B):
            t1 = min(T, t0 + B)
            y = signals[:, t0:t1].T                       # (b, R)
            lw = np.empty((t1 - t0 + 1,) + log_w.shape)
            lw[0] = log_w
            lw[1:, :, TYPE_COMMIT, :] = log_fhat_by_y[y]
            lw[1:, :, TYPE_NORMAL, :] = logF0_by_ty[np.arange(t0, t1)[:, None], y]
            for i in range(1, len(lw)):
                np.add(lw[i - 1], lw[i], out=lw[i])
            log_w = lw[-1].copy()
            vals, b = evaluate(lw[:-1], np.arange(t0, t1)[:, None], F0_t[t0:t1, None])
            at = np.s_[:, t0:t1]
            store(at, vals, np.transpose, reply_payoff(at, b.T))
        _, mu[:, T] = _reputation(log_w)
    else:
        # Stationary conjecture: states are (period, signal counts), found a
        # strip of periods at a time (see the module docstring). Both ways of
        # evaluating a strip do the same arithmetic on a state, so the choice,
        # which depends on the number of runs, changes no bit of a run.
        F0 = framework.normal_mix(conj_stat)              # (nM, nY)
        log_lik = np.stack([np.log(F0).T, np.log(Fhat).T], axis=1)  # (nY, 2, nM)
        u_by_reply = game.u.T                             # (nB, nA)
        d = nY - 1                                        # counts in a state's key
        chunk = _CELLS // 4                               # states per evaluation
        # Counts and keys fit int32: a count is at most T, a key below a
        # strip's run-periods, both at most _MAX_CELLS.
        carry = np.zeros((d, R), dtype=np.int32)          # counts before the strip

        def per_run_period(t0, cnt):
            n_p = cnt.shape[2]
            sb = max(1, chunk // R)
            for s0 in range(0, n_p, sb):
                s1 = min(n_p, s0 + sb)
                shape = (R, s1 - s0)
                t = np.tile(np.arange(t0 + s0, t0 + s1), R)
                lw = _count_log_weights(log_prior, log_lik, t, (
                    cnt[y, :, s0:s1].ravel() for y in range(d)))
                vals, b = evaluate(lw, t, F0)
                at = np.s_[:, t0 + s0:t0 + s1]
                store(at, vals, lambda v: v.reshape(shape), reply_payoff(at, b.reshape(shape)))

        def row_blocks(n_cols):
            """Slices of about ``_CELLS`` run-periods' rows, for ``n_cols`` periods."""
            step = max(1, _CELLS // n_cols)
            return (slice(r0, r0 + step) for r0 in range(0, R, step))

        def per_cell(t0, cnt, lo, width):
            # A cell's key is its offset in the strip's box: periods in order,
            # counts in mixed radix within a period, the first signal's
            # fastest. Every term added lies between -T and the box's size.
            n_p = cnt.shape[2]
            sizes = np.prod(width, axis=0)
            stride = np.cumprod(np.vstack([np.ones((1, n_p), np.int32), width[:-1]]),
                                axis=0, dtype=np.int32)
            end = np.cumsum(sizes)
            key = cnt[0] if d else np.zeros((R, n_p), dtype=np.int32)
            key += end - sizes - (lo[0] if d else 0)
            for y in range(1, d):
                key += (cnt[y] - lo[y]) * stride[y]
            cells, rank = np.arange(end[-1]), None
            if len(cells) > chunk:  # a box past one evaluation: keep the cells runs visit
                seen = np.zeros(len(cells), dtype=bool)
                for rows in row_blocks(n_p):
                    seen[key[rows]] = True
                cells = np.flatnonzero(seen)
                rank = np.cumsum(seen, dtype=np.int32) - 1
                del seen  # the evaluations below do not need it
            last = np.searchsorted(cells, end)            # cells listed up to each period's end
            # Whole periods at a time, at most ``chunk`` cells unless one
            # period holds more; the panels take a block of rows at a time.
            j0 = 0
            while j0 < n_p:
                first = last[j0 - 1] if j0 else 0
                j1 = max(j0 + 1, int(np.searchsorted(last, first + chunk, side="right")))
                c = cells[first:last[j1 - 1]]
                j = np.searchsorted(end, c, side="right")
                local = c - (end - sizes)[j]
                t = t0 + j
                lw = _count_log_weights(log_prior, log_lik, t, (
                    lo[y, j] + local // stride[y, j] % width[y, j] for y in range(d)))
                vals, b = evaluate(lw, t, F0)
                u_s = u_by_reply[b]                       # (cells, nA)
                for rows in row_blocks(j1 - j0):
                    at = (rows, slice(t0 + j0, t0 + j1))
                    idx = key[rows, j0:j1]
                    idx = np.subtract(idx if rank is None else rank[idx], first, dtype=np.intp)
                    store(at, vals, lambda v: np.take(v, idx),
                          np.take(u_s, idx * nA + actions[at]))
                j0 = j1

        def counts(t0, t1):
            """Start-of-period counts (d, runs, periods) over [t0, t1); advances carry."""
            sig = signals[:, t0:t1]
            cnt = np.empty((d, R, t1 - t0), dtype=np.int32)
            for y in range(d):
                hit = sig == y
                c = cnt[y]
                c[:, 0] = carry[y]
                c[:, 1:] = hit[:, :-1]
                np.cumsum(c, axis=1, out=c)
                carry[y] = c[:, -1] + hit[:, -1]
            return cnt

        def strip(t0, t1):
            cnt = counts(t0, t1)
            lo = cnt.min(axis=1)                          # (d, periods)
            width = cnt.max(axis=1) - lo + 1
            if np.prod(width, axis=0, dtype=float).sum() <= R * (t1 - t0):
                per_cell(t0, cnt, lo, width)
            else:
                per_run_period(t0, cnt)

        P = max(1, 8 * _CELLS // (R * max(1, d)))         # periods per strip
        for t0 in range(0, T, P):
            strip(t0, min(T, t0 + P))
        final = _count_log_weights(log_prior, log_lik, np.full(R, T, dtype=np.intp), carry)
        _, mu[:, T] = _reputation(final)

    return BatchResult(
        mu=mu, ell=ell, u_flow=u_flow, tv_gap=tv_gap, kl_term=kl_term,
        ell_disc=ell_disc, u_flow_disc=u_flow_disc, kl_disc=kl_disc,
        actions=actions, signals=signals,
        run_indices=np.asarray(run_indices, dtype=np.int64),
        config=config, horizon=T, truncation=truncation,
        target_signal_dist=p_star,
    )


def simulate_batch(game: StageGame, framework: Framework,
                   config: SimulationConfig, *, _full: bool = True) -> BatchResult:
    """Every run's full panels. ``monte_carlo`` passes ``_full=False`` to keep
    only what its summary and run 0's path need (see ``BatchResult``)."""
    if config.runs < 1:
        raise ValueError("config.runs must be >= 1")
    if config.runs > _MAX_CELLS:
        raise ValueError(f"runs*horizon is at least {config.runs} run-periods, above the "
                         f"cap of {_MAX_CELLS}; lower runs")
    return _simulate(game, framework, config, np.arange(config.runs), _full)


def simulate_run(game: StageGame, framework: Framework, config: SimulationConfig,
                 run_index: int = 0) -> TrajectoryRecord:
    """Simulate exactly one run; identical to that row of the full batch."""
    batch = _simulate(game, framework, config, np.array([run_index]))
    return TrajectoryRecord.from_batch(batch, 0)


# ---------------------------------------------------------------------------
# aggregates


@dataclass(frozen=True)
class DecayFit:
    slope: float
    window: tuple[int, int]


def decay_rate_fit(curve: np.ndarray) -> DecayFit:
    """Least-squares slope of ln(curve) over its trailing ``_DECAY_WINDOW`` share.

    Entries that have underflowed to zero cannot be logged; the window shrinks
    to its leading positive stretch with a warning rather than failing, since
    a reputation that underflows is decaying about as fast as floats can say.
    If that leaves fewer than 2 points, the curve underflowed before the
    window: the fit moves to the trailing ``_DECAY_WINDOW`` share of the
    curve's positive prefix instead.
    """
    c = np.asarray(curve, dtype=float)
    if c.ndim != 1 or c.size < 4:
        raise ValueError("decay_rate_fit: need a 1-D curve with at least 4 points")
    start = c.size - max(2, int(round(c.size * _DECAY_WINDOW)))
    end = c.size
    pos = c > 0.0
    if not pos[start:].all():
        end = start + int(np.argmax(~pos[start:]))
        if end - start < 2:
            end = int(np.argmax(~pos))
            start = max(0, end - max(2, int(round(end * _DECAY_WINDOW))))
        warnings.warn(
            f"decay_rate_fit: window shrunk to {end - start} points before underflow",
            RuntimeWarning, stacklevel=2)
    if end - start < 2:
        raise ValueError("decay_rate_fit: fewer than 2 positive points in the window")
    t = np.arange(start, end)
    slope = float(np.polyfit(t, np.log(c[start:end]), 1)[0])
    return DecayFit(slope=slope, window=(start, end))


@dataclass(frozen=True)
class MonteCarloSummary:
    disc_avg_mu: float
    disc_avg_mu_se: float
    disc_avg_ell: float
    disc_avg_ell_se: float
    payoff: float
    payoff_se: float
    mean_mu_curve: np.ndarray
    decay: DecayFit | None
    horizon: int
    truncation: float
    runs: int
    delta: float
    master_seed: int

    def to_dict(self) -> dict:
        return {
            "disc_avg_mu": self.disc_avg_mu, "disc_avg_mu_se": self.disc_avg_mu_se,
            "disc_avg_ell": self.disc_avg_ell, "disc_avg_ell_se": self.disc_avg_ell_se,
            "payoff": self.payoff, "payoff_se": self.payoff_se,
            "decay_slope": None if self.decay is None else self.decay.slope,
            "decay_window": None if self.decay is None else list(self.decay.window),
            "horizon": self.horizon, "truncation": self.truncation,
            "runs": self.runs, "delta": self.delta, "master_seed": self.master_seed,
            "mu_final_mean": float(self.mean_mu_curve[-1]),
        }


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    m = float(x.mean())
    se = 0.0 if x.size == 1 else float(x.std(ddof=1) / math.sqrt(x.size))
    return m, se


def monte_carlo(game: StageGame, framework: Framework, config: SimulationConfig
                ) -> tuple[MonteCarloSummary, BatchResult]:
    """Summary of a batch that keeps every run's ``mu``, ``actions`` and
    ``signals``, run 0's row of the other panels and every run's discounted
    sums (see ``BatchResult``): about 10 bytes per run-period.

    Unlike ``simulate_batch``'s, the batch's ``ell``, ``u_flow``, ``tv_gap``
    and ``kl_term`` have shape (1, T), not (runs, T): a reduction over them
    sees run 0 alone. Reduce ``ell_disc``, ``u_flow_disc`` and ``kl_disc``
    instead, or call ``simulate_batch`` for every run's panels.
    ``len(batch.ell) < batch.runs`` tells such a batch apart."""
    batch = simulate_batch(game, framework, config, _full=False)
    T, d = batch.horizon, config.delta
    mu_m, mu_se = _mean_se(batch.mu[:, :T] @ _discount_weights(d, T))
    el_m, el_se = _mean_se(batch.ell_disc)
    pa_m, pa_se = _mean_se(batch.u_flow_disc)
    curve = batch.mu.mean(axis=0)
    try:
        decay = decay_rate_fit(curve)
    except ValueError:
        decay = None
    summary = MonteCarloSummary(
        disc_avg_mu=mu_m, disc_avg_mu_se=mu_se,
        disc_avg_ell=el_m, disc_avg_ell_se=el_se,
        payoff=pa_m, payoff_se=pa_se,
        mean_mu_curve=curve, decay=decay,
        horizon=T, truncation=batch.truncation,
        runs=batch.runs, delta=d, master_seed=config.master_seed,
    )
    return summary, batch


# ---------------------------------------------------------------------------
# certificates and tail diagnostics


@dataclass(frozen=True)
class CertificateReport:
    """Per-run discounted-KL budget check for persistent target play.

    lhs is each run's (1-delta)-discounted sum of KL(rho_target || forecast);
    rhs is the prior-mass budget -(1-delta) ln prior(commitment, model) plus
    the irreducible epsilon = KL(rho_target || commitment slice of model).
    """

    lhs: np.ndarray
    rhs: float
    epsilon: float
    prior_mass: float
    holds_all: bool
    holds_fraction: float
    model: str


def discounted_kl_certificate(batch: BatchResult, framework: Framework,
                              model: int | str) -> CertificateReport:
    cfg = batch.config
    if batch.kl_disc is None or cfg.alpha_star_target is None:
        raise ValueError("certificate needs a batch recorded with alpha_star_target set")
    actual = framework.commitment_action if cfg.true_type == "commitment" else cfg.normal_strategy
    if not isinstance(actual, Distribution) or not np.allclose(
            actual.weights, cfg.alpha_star_target.weights, rtol=0.0, atol=SAME_STRATEGY_ATOL):
        raise ValueError(
            "certificate applies to persistent target play; the simulated strategy "
            "is not stationary at alpha_star_target")
    m = framework.model_index(model)
    prior_mass = float(framework.prior[TYPE_COMMIT, m])
    target = Distribution(framework.signals, batch.target_signal_dist)
    eps = kl(target, framework.commitment_slice_dist(m))
    d = cfg.delta
    lhs = batch.kl_disc
    rhs = -(1.0 - d) * math.log(prior_mass) + eps
    ok = lhs <= rhs + CERTIFICATE_SLACK
    return CertificateReport(
        lhs=lhs, rhs=float(rhs), epsilon=float(eps), prior_mass=prior_mass,
        holds_all=bool(ok.all()), holds_fraction=float(ok.mean()),
        model=framework.models[m],
    )


def certificate_kl_ceiling(batch: BatchResult, framework: Framework) -> float:
    """Largest KL(rho_target || q) any forecast q in the batch could attain.

    Forecasts are posterior mixtures over a fixed endpoint set (the commitment
    slices and the conjectured normal mixes), and KL is convex in its second
    argument, so the endpoint maximum is a ceiling on every recorded kl term.
    When rhs >= this ceiling the certificate cannot fail on any path.
    """
    cfg = batch.config
    if batch.target_signal_dist is None:
        raise ValueError("batch was not recorded with alpha_star_target set")
    target = Distribution(framework.signals, batch.target_signal_dist)
    conj = _conjecture(cfg)
    if isinstance(conj, Distribution):
        conj_list = [conj]
    else:
        conj_list = list(dict.fromkeys(conj))  # dedupe, keep order
    endpoints = [framework.commitment_slice_dist(m) for m in range(framework.n_models)]
    for alpha in conj_list:
        mix = framework.normal_mix(alpha)
        endpoints.extend(Distribution(framework.signals, mix[m])
                         for m in range(framework.n_models))
    return max(kl(target, e) for e in endpoints)


@dataclass(frozen=True)
class AzumaRow:
    t: int
    empirical_tail: float
    bound: float


@dataclass(frozen=True)
class AzumaReport:
    zeta: float
    increment_bound: float  # K: largest |log-likelihood-ratio| any signal can move
    rate: float             # c in the exp(-c t) tail
    rows: tuple[AzumaRow, ...]

    @property
    def holds(self) -> bool:
        return all(r.empirical_tail <= r.bound + AZUMA_SLACK for r in self.rows)


def azuma_diagnostic(batch: BatchResult, game: StageGame, framework: Framework,
                     zeta: float, checkpoints: Sequence[int] | None = None
                     ) -> AzumaReport:
    """Compare empirical slow-collapse tails with the exp(-zeta^2 t / 32 K^2) bound.

    For every (commitment model, normal model) pair the running log-likelihood
    ratio S_t drifts down at rate at least zeta whenever zeta is at most the
    separation value; the bound controls P(S_t >= -zeta t / 2). Empirical tails
    are maximized over pairs, the bound uses the worst-case K over pairs. The
    paths must come from the normal type playing a stationary strategy the
    short-run players conjecture correctly, and every normal kernel must equal
    rho.
    """
    cfg = batch.config
    rep = separation_value(framework, game.rho)
    if not rep.separating:
        raise ValueError("azuma_diagnostic requires a separating framework")
    if not 0.0 < zeta <= rep.value + ZETA_SLACK:
        raise ValueError(f"zeta must lie in (0, {rep.value:.6g}], got {zeta}")
    if cfg.true_type != "normal":
        raise ValueError("drift analysis applies to paths generated by the normal type")
    if not all(np.array_equal(k, game.rho.matrix) for k in framework.normal_kernels):
        raise ValueError("drift analysis assumes correctly specified normal hypotheses: "
                         "every normal kernel must equal rho")
    conj = _conjecture(cfg)
    if not (isinstance(conj, Distribution) and isinstance(cfg.normal_strategy, Distribution)
            and np.allclose(conj.weights, cfg.normal_strategy.weights, rtol=0.0,
                            atol=SAME_STRATEGY_ATOL)):
        raise ValueError("drift analysis needs a stationary, correctly conjectured strategy")

    T = batch.horizon
    if checkpoints is None:
        checkpoints = np.unique(np.geomspace(min(8, T), T, num=8).astype(int))
    ts = sorted({int(t) for t in checkpoints if 1 <= int(t) <= T})
    if not ts:
        raise ValueError("no valid checkpoints inside the horizon")

    log_fhat = np.log(framework.commitment_slices)           # (nM, nY)
    logF0 = np.log(framework.normal_mix(conj))               # (nM, nY)
    log_f0_kernels = np.log(framework.normal_kernels)        # (nM, nA, nY)

    k_max = 0.0
    emp = np.zeros(len(ts))
    for mc in range(framework.n_models):
        for mn in range(framework.n_models):
            diff = log_fhat[mc][None, None, :] - log_f0_kernels[mn][None, :, :]
            k_max = max(k_max, float(np.abs(diff).max()))
            inc = log_fhat[mc][batch.signals] - logF0[mn][batch.signals]
            s = np.cumsum(inc, axis=1)
            for j, t in enumerate(ts):
                frac = float((s[:, t - 1] >= -zeta * t / 2.0).mean())
                emp[j] = max(emp[j], frac)
    c = zeta ** 2 / (32.0 * k_max ** 2)
    rows = tuple(AzumaRow(t=t, empirical_tail=float(emp[j]), bound=float(math.exp(-c * t)))
                 for j, t in enumerate(ts))
    return AzumaReport(zeta=float(zeta), increment_bound=k_max, rate=float(c), rows=rows)
