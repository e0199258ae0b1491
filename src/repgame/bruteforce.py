"""Dense-grid oracles, deliberately independent of the convex solvers.

These take exact minima over the mixed actions of a regular simplex lattice.
They exist to audit the conditional-gradient projections and the
closed-form distances, and they call into nothing but raw array math. One
generator walks the lattice, as weight columns in chunks of whole runs.
``simplex_lattice`` takes it as one chunk: an ``(N, n)`` array that the score
programs and the Stackelberg search in ``scores`` walk too, so
``LATTICE_CAP`` bounds its size: a finer lattice is a ``ValueError``, not a
``MemoryError``. The oracles need no cap: their objectives are convex along
each run, so they bisect every run for its first minimizer and evaluate
O(runs * log k) points, not the whole lattice.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

import numpy as np

__all__ = ["LATTICE_CAP", "check_lattice", "grid_min_kl_forward", "grid_min_kl_reverse",
           "lattice_size", "lattice_steps", "simplex_lattice"]

LATTICE_CAP = 2**21  # most points simplex_lattice builds (2,097,152)
_STEPS_TOL = 1e-9  # a resolution divides 1 when 1/resolution steps land this close to 1

# Runs bisected at once, read as chunks of the (n - 1)-action lattice. That
# lattice keeps each of its own runs whole, so three actions bisect all k + 1
# runs at once; a step evaluates at most twice as many points as it bisects.
_CHUNK = 16_384


def lattice_steps(resolution: float) -> int:
    """Steps k = 1/resolution of a lattice; ValueError unless k is a positive integer."""
    if not 0.0 < resolution <= 1.0:
        raise ValueError(f"resolution {resolution!r} must lie in (0, 1]")
    k = round(1.0 / resolution)
    if abs(k * resolution - 1.0) > _STEPS_TOL:
        raise ValueError(f"resolution {resolution!r} must evenly divide 1")
    return k


def lattice_size(n: int, resolution: float) -> int:
    """Number of points of the n-action lattice at ``resolution``."""
    return comb(lattice_steps(resolution) + n - 1, n - 1)


def check_lattice(n: int, resolution: float) -> int:
    """Steps k of the n-action lattice; ValueError unless ``resolution`` is
    valid and the lattice has at most ``LATTICE_CAP`` points."""
    k = lattice_steps(resolution)
    size = lattice_size(n, resolution)
    if size > LATTICE_CAP:
        raise ValueError(f"the lattice of {n} actions at resolution {resolution!r} has "
                         f"{size:,} points, above the cap of {LATTICE_CAP:,}")
    return k


def _extend(cols: list[np.ndarray], rest: list[int], up: np.ndarray,
            down: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each row of ``cols`` (one column per action so far, ``rest`` of the k
    steps left) followed by each next count j = 0..rest in order: the columns
    with j read off ``up`` (for 0..k), and rest - j read off ``down`` (for
    k..0)."""
    reps = [r + 1 for r in rest]
    return ([np.repeat(c, reps) for c in cols] + [np.concatenate([up[:r] for r in reps])],
            np.concatenate([down[-r:] for r in reps]))


def _lattice_chunks(n: int, k: int, chunk: int) -> Iterator[list[np.ndarray]]:
    """The n-action, k-step lattice as lists of n weight columns, counts
    ascending (the first, then the second, and so on). A run is the points
    that share every count but the last two; each chunk holds whole runs,
    at most ``chunk`` points unless it is one longer run."""
    if n == 1:
        yield [np.ones(1)]
        return
    t = np.arange(k + 1) / k
    # The runs: weights of all but the last two actions, and the steps left.
    counts_down = np.arange(k, -1, -1)
    cols, rest = [], [k]
    for _ in range(n - 2):
        cols, rest = _extend(cols, rest, t, counts_down)
        rest = rest.tolist()
    cuts, size = [0], 0
    for i, r in enumerate(rest):
        if size and size + r + 1 > chunk:
            cuts.append(i)
            size = 0
        size += r + 1
    cuts.append(len(rest))
    for lo, hi in zip(cuts, cuts[1:]):
        head, last = _extend([c[lo:hi] for c in cols], rest[lo:hi], t, t[::-1])
        yield head + [last]


def simplex_lattice(n: int, resolution: float) -> np.ndarray:
    """Weight vectors with coordinates on multiples of ``resolution``, one per row.

    Exhaustive and combinatorial; intended for small n. The lattice always
    contains every vertex and every lower face's lattice. Two actions come
    first weight ascending; callers that keep the first maximizer rely on
    that order. More actions come first weight descending, then the second,
    and so on. ValueError above ``LATTICE_CAP`` points.
    """
    k = check_lattice(n, resolution)
    cols = next(_lattice_chunks(n, k, LATTICE_CAP))
    return np.column_stack(cols if n <= 2 else [c[::-1] for c in cols])


def _scan(n: int, k: int, objective) -> tuple[float, np.ndarray]:
    """The first minimizer of ``objective`` (weight columns -> values) over
    the lattice, in lattice order, for an objective convex along every run.

    A run's points share every count but the last two, so along it the weights
    move on a line. Each run's first minimizer is the first step j with
    g(j) <= g(j + 1), which a bisection finds in log2(k) pairs of points; all
    runs of a chunk bisect at once. The runs stream from the (n - 1)-action
    lattice, whose last weight is the share left for the last two actions.
    """
    if n == 1:
        return float(objective([np.ones(1)])[0]), np.ones(1)
    best, best_alpha = None, None
    for cols in _lattice_chunks(n - 1, k, _CHUNK):
        head, rest = cols[:-1], np.rint(cols[-1] * k).astype(np.intp)

        def at(runs, j):
            return objective([c[runs] for c in head] + [j / k, (rest[runs] - j) / k])
        lo, hi = np.zeros_like(rest), rest.copy()
        runs = np.flatnonzero(lo < hi)
        while runs.size:
            mid = (lo[runs] + hi[runs]) // 2
            vals = at(np.concatenate([runs, runs]), np.concatenate([mid, mid + 1]))
            down = vals[runs.size:] < vals[:runs.size]
            lo[runs[down]] = mid[down] + 1
            hi[runs[~down]] = mid[~down]
            runs = runs[lo[runs] < hi[runs]]
        vals = at(np.arange(rest.size), lo)
        i = int(np.argmin(vals))
        if best is None or vals[i] < best:
            best = float(vals[i])
            best_alpha = np.array([c[i] for c in head] + [lo[i] / k, (rest[i] - lo[i]) / k])
    return best, best_alpha


def _dot(alpha: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """sum_a alpha_a w_a over weight columns, accumulated in action order."""
    acc = alpha[0] * w[0]
    for a in range(1, len(alpha)):
        acc += alpha[a] * w[a]
    return acc


def _log_or_zero(m: np.ndarray) -> np.ndarray:
    """log m where m > 0, and 0 where m = 0."""
    out = np.zeros_like(m)
    return np.log(m, out=out, where=m > 0.0)


def grid_min_kl_forward(q: np.ndarray, R: np.ndarray, resolution: float) -> tuple[float, np.ndarray]:
    """Min over lattice alpha of D(sum_a alpha(a) R[a] || q); q must have full support."""
    q = np.asarray(q, dtype=float)
    R = np.asarray(R, dtype=float)
    if not np.all(q > 0.0):
        raise ValueError("grid_min_kl_forward: q must have full support")
    k = lattice_steps(resolution)
    cross = R @ np.log(q)  # sum_y R[a, y] log q(y), linear in alpha
    # A signal that no action sends has mixture mass 0 everywhere, and 0 log 0
    # counts as 0; full-support R skips the mask and keeps its bits.
    log_m = np.log if np.all(R > 0.0) else _log_or_zero

    def objective(alpha):
        acc = 0.0
        for y in range(R.shape[1]):
            m = _dot(alpha, R[:, y])
            acc = acc + m * log_m(m)
        return acc - _dot(alpha, cross)
    return _scan(R.shape[0], k, objective)


def grid_min_kl_reverse(p: np.ndarray, F: np.ndarray, resolution: float) -> tuple[float, np.ndarray]:
    """Min over lattice alpha of D(p || sum_a alpha(a) F[a])."""
    p = np.asarray(p, dtype=float)
    F = np.asarray(F, dtype=float)
    k = lattice_steps(resolution)
    mask = p > 0.0
    pm = p[mask]
    ent = float(pm @ np.log(pm))
    Fm = F[:, mask]

    def objective(alpha):
        acc = 0.0
        for j in range(Fm.shape[1]):
            acc = acc + np.log(_dot(alpha, Fm[:, j])) * (-pm[j])
        return acc + ent
    return _scan(F.shape[0], k, objective)
