"""The simplex lattice and the dense-grid KL oracles."""

import itertools

import numpy as np
import pytest

import repgame.bruteforce
from repgame.bruteforce import (LATTICE_CAP, check_lattice, grid_min_kl_forward,
                                grid_min_kl_reverse, lattice_size, simplex_lattice)


def _lattice_per_point(n, resolution):
    """The lattice one point at a time, in its documented order (test-only reference)."""
    k = round(1.0 / resolution)
    if n == 2:
        for i in range(k + 1):
            yield np.array([i / k, (k - i) / k])
        return
    for comp in itertools.combinations_with_replacement(range(n), k):
        yield np.bincount(np.asarray(comp), minlength=n) / k


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("resolution", [1.0, 0.5, 0.25, 0.1, 1 / 7, 0.05])
def test_simplex_lattice_matches_per_point_order(n, resolution):
    got = simplex_lattice(n, resolution)
    want = np.array(list(_lattice_per_point(n, resolution)))
    assert got.shape == want.shape == (lattice_size(n, resolution), n)
    assert got.tobytes() == want.tobytes()


def test_simplex_lattice_two_actions_at_fine_grid():
    got = simplex_lattice(2, 1e-3)
    assert got.tobytes() == np.array(list(_lattice_per_point(2, 1e-3))).tobytes()


def test_lattice_cap():
    # three actions at 1e-4 would be 50,015,001 points; nothing is allocated
    assert lattice_size(3, 1e-4) == 50_015_001 > LATTICE_CAP
    with pytest.raises(ValueError, match="50,015,001 points"):
        simplex_lattice(3, 1e-4)
    with pytest.raises(ValueError, match="10,000,001 points"):
        check_lattice(2, 1e-7)
    assert lattice_size(3, 5e-4) == 2_003_001 <= LATTICE_CAP
    assert check_lattice(3, 5e-4) == 2000
    with pytest.raises(ValueError, match="evenly divide"):
        check_lattice(3, 0.3)


def _masked_forward_loop(q, R, resolution):
    """min over the lattice of sum m log m - m . log q with 0 log 0 = 0, one point at a time."""
    best, best_alpha = np.inf, None
    for alpha in _lattice_per_point(R.shape[0], resolution):
        m = alpha @ R
        mask = m > 0.0
        v = float(np.sum(m[mask] * np.log(m[mask]))) - float(m @ np.log(q))
        if v < best:
            best, best_alpha = v, alpha
    return best, best_alpha


@pytest.mark.parametrize("R", [
    [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.2, 0.6]],
    [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]],
    [[0.5, 0.0, 0.5], [0.1, 0.0, 0.9], [0.0, 0.0, 1.0]],
], ids=["three_actions", "two_actions", "zero_column_and_entry"])
def test_grid_min_kl_forward_counts_0_log_0_as_0(R):
    R = np.array(R)
    q = np.array([0.35, 0.55, 0.10])
    value, alpha = grid_min_kl_forward(q, R, 1e-2)
    ref_value, ref_alpha = _masked_forward_loop(q, R, 1e-2)
    assert np.isfinite(value)
    assert value == pytest.approx(ref_value, rel=1e-9, abs=1e-15)
    assert np.allclose(alpha, ref_alpha, rtol=0.0, atol=1e-12)


def test_grid_min_kl_forward_zero_entry_example():
    R = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.2, 0.6]])
    value, alpha = grid_min_kl_forward(np.array([0.35, 0.55, 0.10]), R, 1e-2)
    assert value == pytest.approx(2.2207560504750035e-05, rel=1e-9)
    assert np.allclose(alpha, [0.33, 0.5, 0.17], rtol=0.0, atol=1e-12)


def test_grid_min_kl_forward_needs_full_support_q():
    # 0 log 0 in R @ log q would make the objective NaN
    R = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    with pytest.raises(ValueError, match="q must have full support"):
        grid_min_kl_forward(np.array([0.5, 0.5, 0.0]), R, 1e-2)


@pytest.mark.parametrize("oracle", [grid_min_kl_forward, grid_min_kl_reverse])
@pytest.mark.parametrize("resolution", [0.3, 0.0, -0.5])
def test_oracles_reject_a_bad_resolution(oracle, resolution):
    R = np.array([[0.5, 0.5], [0.2, 0.8]])
    message = "must evenly divide 1" if resolution == 0.3 else r"must lie in \(0, 1\]"
    with pytest.raises(ValueError, match=message):
        oracle(np.array([0.3, 0.7]), R, resolution)


# three actions whose slices the conditional-gradient projection is slow on
R_SLOW = [[0.178, 0.532, 0.29], [0.227, 0.126, 0.648], [0.146, 0.79, 0.064]]


@pytest.mark.parametrize("oracle", [grid_min_kl_forward, grid_min_kl_reverse])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_argmin_is_a_lattice_point(oracle, n):
    rng = np.random.default_rng(n)
    q = np.array([0.2, 0.5, 0.3])
    Rs = [np.array(R_SLOW)] if n == 3 else []
    Rs += [rng.dirichlet(np.ones(3), size=n) for _ in range(5)]
    rows = {row.tobytes() for row in simplex_lattice(n, 1e-2)}
    for R in Rs:
        _, alpha = oracle(q, R, 1e-2)
        assert alpha.shape == (n,)
        assert alpha.tobytes() in rows


def test_forward_oracle_weights_stay_on_the_fine_lattice():
    # beyond LATTICE_CAP, so no simplex_lattice to compare rows with
    _, alpha = grid_min_kl_forward(np.array([0.2, 0.5, 0.3]), np.array(R_SLOW), 1e-4)
    assert alpha.tolist() == [0.9445, 0.0555, 0.0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scan_keeps_the_first_minimizer_in_lattice_order(monkeypatch, n):
    # convex along every run and flat, at exactly 0.2, for weights 0.3-0.7 of
    # the next to last action: every run of three or more steps ties, and
    # the first point in lattice order is the first run's step 3
    monkeypatch.setattr(repgame.bruteforce, "_CHUNK", 3)
    value, alpha = repgame.bruteforce._scan(
        n, 10, lambda cols: np.maximum(np.abs(cols[-2] - 0.5), 0.2))
    assert value == 0.2
    assert alpha.tolist() == [0.0] * (n - 2) + [0.3, 0.7]


@pytest.mark.parametrize("oracle", [grid_min_kl_forward, grid_min_kl_reverse])
def test_oracles_evaluate_few_lattice_points(monkeypatch, oracle):
    # the three-action lattice at 1e-4 has 50,015,001 points; bisecting its
    # 10,001 runs evaluates fewer than 300,000
    evaluated = []
    scan = repgame.bruteforce._scan

    def counting_scan(n, k, objective):
        def counted(cols):
            evaluated.append(cols[0].size)
            return objective(cols)
        return scan(n, k, counted)
    monkeypatch.setattr(repgame.bruteforce, "_scan", counting_scan)
    oracle(np.array([0.2, 0.5, 0.3]), np.array(R_SLOW), 1e-4)
    assert 0 < sum(evaluated) <= 300_000


# The dense-grid oracles as they stood before the one-generator lattice: a
# two-action scan, a three-action scan with its own row/column cursor, and a
# loop over the points of four or more actions (test-only reference).

def _ref_scan_pairs_2(R0, R1, k, kl_of_mix):
    t = np.arange(k + 1) / k
    mix = t[:, None] * R0 + (1.0 - t)[:, None] * R1
    vals = kl_of_mix(mix)
    i = int(np.argmin(vals))
    return float(vals[i]), np.array([t[i], 1.0 - t[i]])


def _ref_scan_triangle(k, kl_chunk, chunk=16_384):
    t = np.arange(k + 1) / k
    best = np.inf
    best_alpha = np.array([1.0, 0.0, 0.0])
    a1 = np.empty(chunk)
    a2 = np.empty(chunk)
    row, col = 0, 0
    while row <= k:
        n = 0
        while n < chunk and row <= k:
            take = min(chunk - n, (k + 1 - row) - col)
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


def _ref_log_m(R):
    if np.all(R > 0.0):
        return np.log
    return lambda m: np.log(m, out=np.zeros_like(m), where=m > 0.0)


def _ref_forward_at(alpha, q, R):
    m = alpha @ R
    mask = m > 0.0
    return float(np.sum(m[mask] * np.log(m[mask]))) - float(m @ np.log(q))


def _ref_forward(q, R, resolution):
    k = round(1.0 / resolution)
    log_q = np.log(q)
    cross = R @ log_q
    log_m = _ref_log_m(R)
    if R.shape[0] == 2:
        def kl_of_mix(mix):
            return np.einsum("ij,ij->i", mix, log_m(mix)) - mix @ log_q
        return _ref_scan_pairs_2(R[0], R[1], k, kl_of_mix)
    if R.shape[0] == 3:
        def kl_chunk(A1, A2, A3):
            acc = None
            for y in range(R.shape[1]):
                m = A1 * R[0, y] + A2 * R[1, y] + A3 * R[2, y]
                term = m * log_m(m)
                acc = term if acc is None else acc + term
            acc -= A1 * cross[0] + A2 * cross[1] + A3 * cross[2]
            return acc
        return _ref_scan_triangle(k, kl_chunk)
    best, best_alpha = np.inf, None
    for alpha in _lattice_per_point(R.shape[0], resolution):
        v = _ref_forward_at(alpha, q, R)
        if v < best:
            best, best_alpha = v, alpha.copy()
    return best, best_alpha


def _ref_reverse_at(alpha, p, F):
    mask = p > 0.0
    pm = p[mask]
    return float(pm @ np.log(pm)) - float(pm @ np.log(alpha @ F[:, mask]))


def _ref_reverse(p, F, resolution):
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
        return _ref_scan_triangle(k, kl_chunk)
    best, best_alpha = np.inf, None
    for alpha in _lattice_per_point(F.shape[0], resolution):
        v = _ref_reverse_at(alpha, p, F)
        if v < best:
            best, best_alpha = v, alpha.copy()
    return best, best_alpha


def _oracle_cases(count):
    """Seeded (n, resolution, q, R, p): 2-4 actions, 2-4 signals, every fifth
    R of three or more signals with a zero column (and p zero there), and
    every seventh R with its first row repeated, so that minimizers tie."""
    rng = np.random.default_rng(20261018)
    resolution = {2: 1e-3, 3: 1e-2, 4: 0.1}
    for case in range(count):
        n, m = 2 + case % 3, 2 + (case // 3) % 3
        R = rng.dirichlet(np.ones(m), size=n)
        q = rng.dirichlet(np.ones(m)) * 0.98 + 0.02 / m
        p = rng.dirichlet(np.ones(m))
        if case % 5 == 0 and m >= 3:
            R[:, case % m] = 0.0
            R /= R.sum(axis=1, keepdims=True)
            p[case % m] = 0.0
            p /= p.sum()
        if case % 7 == 0:
            R[1] = R[0]
        yield n, resolution[n], q, R, p


def _exhaustive_oracle(monkeypatch, oracle, target, R, resolution):
    """``oracle`` with its scan swapped for one that evaluates every lattice
    point, as the oracles did before they bisected the runs (test-only
    reference). Returns its minimum, its argmin and the objective it scanned."""
    objectives = []

    def exhaustive_scan(n, k, objective):
        objectives.append(objective)
        best, best_alpha = None, None
        for cols in repgame.bruteforce._lattice_chunks(n, k, 16_384):
            vals = objective(cols)
            i = int(np.argmin(vals))
            if best is None or vals[i] < best:
                best, best_alpha = float(vals[i]), np.array([c[i] for c in cols])
        return best, best_alpha
    with monkeypatch.context() as patch:
        patch.setattr(repgame.bruteforce, "_scan", exhaustive_scan)
        value, alpha = oracle(target, R, resolution)
    return value, alpha, objectives[0]


def _bisection_cases():
    """(n, resolution, q, R, p) on which bisecting the runs is hardest: the
    seeded oracle cases, nearly parallel rows and a row nearly between two
    others (narrow valleys), equal last two rows (flat runs), a reverse F
    whose zero entries make a run's endpoint inf, and one to five actions."""
    yield from _oracle_cases(330)
    rng = np.random.default_rng(11)
    resolution = {1: 0.5, 2: 1e-3, 3: 2e-3, 4: 0.05, 5: 0.1}
    for n in range(1, 6):
        for m in (2, 3, 4):
            R = rng.dirichlet(np.ones(m), size=n)
            q = rng.dirichlet(np.ones(m)) * 0.98 + 0.02 / m
            p = rng.dirichlet(np.ones(m))
            yield n, resolution[n], q, R, p
            if n < 2:
                continue
            near = R.copy()
            near[-1] = (1.0 - 1e-6) * near[-2] + 1e-6 * rng.dirichlet(np.ones(m))
            yield n, resolution[n], q, near, p
            oblique = R.copy()
            oblique[-1] = 0.5 * (oblique[0] + oblique[-2]) + 1e-7 * (oblique[0] - oblique[-2])
            yield n, resolution[n], oblique[-1], oblique, oblique[-1]
            flat = R.copy()
            flat[-1] = flat[-2]
            yield n, resolution[n], q, flat, p
            gaps = R.copy()
            gaps[-1, 0] = 0.0
            gaps[:-1, 0] = np.maximum(gaps[:-1, 0], 0.1)
            gaps[0, 1 % m] = 0.0
            gaps /= gaps.sum(axis=1, keepdims=True)
            yield n, resolution[n], q, gaps, np.full(m, 1.0 / m)


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log:RuntimeWarning")
def test_bisection_matches_the_exhaustive_scan(monkeypatch):
    for n, resolution, q, R, p in _bisection_cases():
        for oracle, target in [(grid_min_kl_forward, q), (grid_min_kl_reverse, p)]:
            value, alpha = oracle(target, R, resolution)
            ref_value, ref_alpha, objective = _exhaustive_oracle(
                monkeypatch, oracle, target, R, resolution)
            assert np.isfinite(ref_value)
            assert abs(value - ref_value) <= 1e-15
            if not np.array_equal(alpha, ref_alpha):
                # a near-tie: the argmin is a minimizer of the reference too
                at_alpha = float(objective([np.array([a]) for a in alpha])[0])
                assert abs(at_alpha - ref_value) <= 1e-15


def test_oracles_match_the_reference_scans():
    for n, resolution, q, R, p in _oracle_cases(330):
        for oracle, ref, ref_at, target in [
                (grid_min_kl_forward, _ref_forward, _ref_forward_at, q),
                (grid_min_kl_reverse, _ref_reverse, _ref_reverse_at, p)]:
            value, alpha = oracle(target, R, resolution)
            ref_value, ref_alpha = ref(target, R, resolution)
            assert abs(value - ref_value) <= 1e-15
            if not np.allclose(alpha, ref_alpha, rtol=0.0, atol=1e-12):
                # a near-tie: the new argmin is a reference minimizer too
                assert abs(ref_at(alpha, target, R) - ref_value) <= 1e-15
