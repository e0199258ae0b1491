"""Dense-grid oracles, deliberately independent of the convex solvers.

These enumerate mixed actions on a regular simplex lattice and take plain
minima. They exist to audit the conditional-gradient projections and the
closed-form distances, and they call into nothing but raw array math. The
lattice itself, ``simplex_lattice``, is shared: the score programs and the
Stackelberg search in ``scores`` walk it too. It is one ``(N, n)`` array, so
``LATTICE_CAP`` bounds its size: a finer lattice is a ``LatticeCapError`` (a
``ValueError``), not a ``MemoryError``. The two- and three-action oracles do
not use it: they scan lattices of their own, the three-action one in chunks
that fit in cache.
"""

from __future__ import annotations

from math import comb

import numpy as np

__all__ = ["LATTICE_CAP", "LatticeCapError", "check_lattice", "grid_min_kl_forward",
           "grid_min_kl_reverse", "lattice_size", "lattice_steps", "simplex_lattice"]

LATTICE_CAP = 2**21  # most points simplex_lattice builds (2,097,152)

_CHUNK = 16_384  # points per streamed chunk: the chunk's temporaries fit in L2


def lattice_steps(resolution: float) -> int:
    """Steps k = 1/resolution of a lattice; ValueError unless k is a positive integer."""
    if not 0.0 < resolution <= 1.0:
        raise ValueError(f"resolution {resolution!r} must lie in (0, 1]")
    k = round(1.0 / resolution)
    if abs(k * resolution - 1.0) > 1e-9:
        raise ValueError(f"resolution {resolution!r} must evenly divide 1")
    return k


def lattice_size(n: int, resolution: float) -> int:
    """Number of points of the n-action lattice at ``resolution``."""
    return comb(lattice_steps(resolution) + n - 1, n - 1)


class LatticeCapError(ValueError):
    """A valid lattice with more than ``LATTICE_CAP`` points."""


def check_lattice(n: int, resolution: float) -> int:
    """Steps k of the n-action lattice; ValueError unless ``resolution`` is
    valid, and LatticeCapError if the lattice has more than ``LATTICE_CAP``
    points."""
    k = lattice_steps(resolution)
    size = lattice_size(n, resolution)
    if size > LATTICE_CAP:
        raise LatticeCapError(f"the lattice of {n} actions at resolution {resolution!r} has "
                              f"{size:,} points, above the cap of {LATTICE_CAP:,}")
    return k


def _lattice_counts(n: int, k: int) -> np.ndarray:
    """Rows of n nonnegative integers summing to k, first count descending,
    then the second, and so on (the order of
    ``itertools.combinations_with_replacement(range(n), k)``)."""
    if n == 1:
        return np.array([[k]])
    # Rows of `parts` counts for every sum 0..k, grouped by sum ascending: the
    # rows summing to m are then a prefix, and prefixing m - (its sum) to each
    # row of that prefix lists the rows of one more part summing to m in order.
    counts = np.arange(k + 1)[:, None]
    for parts in range(2, n + 1):
        total = counts.sum(axis=1)
        ends = np.searchsorted(total, np.arange(k + 1), side="right")
        sums = [k] if parts == n else range(k + 1)
        counts = np.concatenate([np.hstack([(m - total[:ends[m]])[:, None], counts[:ends[m]]])
                                 for m in sums])
    return counts


def simplex_lattice(n: int, resolution: float) -> np.ndarray:
    """Weight vectors with coordinates on multiples of ``resolution``, one per row.

    Exhaustive and combinatorial; intended for small n. The lattice always
    contains every vertex and every lower face's lattice. Two actions come
    first weight ascending; callers that keep the first maximizer rely on
    that order. More actions come first weight descending, then the second,
    and so on. ValueError above ``LATTICE_CAP`` points.
    """
    k = check_lattice(n, resolution)
    counts = _lattice_counts(n, k)
    return (counts[::-1] if n == 2 else counts) / k


def _scan_pairs_2(R0: np.ndarray, R1: np.ndarray, k: int, kl_of_mix) -> tuple[float, np.ndarray]:
    t = np.arange(k + 1) / k
    mix = t[:, None] * R0 + (1.0 - t)[:, None] * R1
    vals = kl_of_mix(mix)
    i = int(np.argmin(vals))
    return float(vals[i]), np.array([t[i], 1.0 - t[i]])


def _scan_triangle(k: int, kl_chunk) -> tuple[float, np.ndarray]:
    """Minimize over the full 2-simplex lattice, streamed in cache-sized chunks."""
    t = np.arange(k + 1) / k
    best = np.inf
    best_alpha = np.array([1.0, 0.0, 0.0])
    a1 = np.empty(_CHUNK)
    a2 = np.empty(_CHUNK)
    row, col = 0, 0
    while row <= k:
        n = 0
        while n < _CHUNK and row <= k:
            take = min(_CHUNK - n, (k + 1 - row) - col)
            a1[n:n + take] = t[row]
            a2[n:n + take] = t[col:col + take]
            n += take
            col += take
            if col >= k + 1 - row:
                row += 1
                col = 0
        A1, A2 = a1[:n], a2[:n]
        A3 = 1.0 - A1 - A2
        vals = kl_chunk(A1, A2, A3)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_alpha = np.array([A1[i], A2[i], A3[i]])
    return best, best_alpha


def _log_or_zero(m: np.ndarray) -> np.ndarray:
    """log m where m > 0, and 0 where m = 0."""
    out = np.zeros_like(m)
    return np.log(m, out=out, where=m > 0.0)


def grid_min_kl_forward(q: np.ndarray, R: np.ndarray, resolution: float) -> tuple[float, np.ndarray]:
    """Brute-force min over lattice alpha of D(sum_a alpha(a) R[a] || q)."""
    q = np.asarray(q, dtype=float)
    R = np.asarray(R, dtype=float)
    k = round(1.0 / resolution)
    log_q = np.log(q)
    cross = R @ log_q  # sum_y R[a, y] log q(y), linear in alpha
    # A signal that no action sends has mixture mass 0 everywhere, and 0 log 0
    # counts as 0; full-support R skips the mask and keeps its bits.
    log_m = np.log if np.all(R > 0.0) else _log_or_zero

    if R.shape[0] == 2:
        def kl_of_mix(mix):
            return np.einsum("ij,ij->i", mix, log_m(mix)) - mix @ log_q
        return _scan_pairs_2(R[0], R[1], k, kl_of_mix)

    if R.shape[0] == 3:
        def kl_chunk(A1, A2, A3):
            acc = None
            for y in range(R.shape[1]):
                m = A1 * R[0, y] + A2 * R[1, y] + A3 * R[2, y]
                term = m * log_m(m)
                acc = term if acc is None else acc + term
            acc -= A1 * cross[0] + A2 * cross[1] + A3 * cross[2]
            return acc
        return _scan_triangle(k, kl_chunk)

    best = np.inf
    best_alpha = None
    for alpha in simplex_lattice(R.shape[0], resolution):
        m = alpha @ R
        mask = m > 0.0
        v = float(np.sum(m[mask] * np.log(m[mask]))) - float(m @ log_q)
        if v < best:
            best, best_alpha = v, alpha.copy()
    return best, best_alpha


def grid_min_kl_reverse(p: np.ndarray, F: np.ndarray, resolution: float) -> tuple[float, np.ndarray]:
    """Brute-force min over lattice alpha of D(p || sum_a alpha(a) F[a])."""
    p = np.asarray(p, dtype=float)
    F = np.asarray(F, dtype=float)
    k = round(1.0 / resolution)
    mask = p > 0.0
    pm = p[mask]
    ent = float(pm @ np.log(pm))
    Fm = F[:, mask]

    if F.shape[0] == 2:
        t = np.arange(k + 1) / k
        mix = t[:, None] * Fm[0] + (1.0 - t)[:, None] * Fm[1]
        vals = ent - np.log(mix) @ pm
        i = int(np.argmin(vals))
        return float(vals[i]), np.array([t[i], 1.0 - t[i]])

    if F.shape[0] == 3:
        def kl_chunk(A1, A2, A3):
            acc = None
            for j in range(Fm.shape[1]):
                m = A1 * Fm[0, j] + A2 * Fm[1, j] + A3 * Fm[2, j]
                term = np.log(m) * (-pm[j])
                acc = term if acc is None else acc + term
            return acc + ent
        return _scan_triangle(k, kl_chunk)

    best = np.inf
    best_alpha = None
    for alpha in simplex_lattice(F.shape[0], resolution):
        v = ent - float(pm @ np.log(alpha @ Fm))
        if v < best:
            best, best_alpha = v, alpha.copy()
    return best, best_alpha
