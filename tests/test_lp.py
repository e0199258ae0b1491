"""The LP entry point against scipy.optimize.linprog(method="highs").

``repgame.lp.linprog`` hands HiGHS the model that linprog builds. On a
corpus of the programs repgame solves (every batch and half-batch ``kappa``
makes on four games, and hull phase-1 programs of member and non-member
slices) the matrix it passes equals the one linprog stacks, and status, x,
objective and duals are equal to linprog's, bit for bit. The HiGHS core
``repgame.lp`` loads by file path is the module scipy's own import returns,
and no answer imports ``scipy.optimize``. A scipy upgrade that moves or
changes the private HiGHS module fails here first.
"""

import json
import os
import subprocess
import sys
import warnings
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog
from scipy.optimize._highspy import _core
from scipy.optimize._linprog_util import _check_result
from scipy.sparse import block_diag, csc_array, vstack

import repgame
import repgame.divergence
import repgame.lp
import repgame.scores
from repgame.configio import emit_scenario_document
from repgame.divergence import hull_membership
from repgame.game import Distribution, SignalStructure
from repgame.lp import CHECK_TOL, _passes_check, linprog
from repgame.scenarios import product_choice, three_signal
from repgame.scores import ci_payoff_set
from test_scores import _infeasible_game, _mixed_feasibility_game


def _assert_same_solution(res, ref, n_ub):
    assert res.status == ref.status
    if ref.x is None:
        assert res.x is None and res.fun is None and res.row_duals is None
        return
    assert np.array_equal(res.x, ref.x)
    assert res.fun == ref.fun
    assert np.array_equal(res.row_duals[n_ub:], ref.eqlin.marginals)
    assert np.array_equal(res.row_duals[:n_ub], ref.ineqlin.marginals)


def _assert_same_matrix(A, ref):
    ref = ref.tocsc()
    for got, attr in zip(A, ("data", "indices", "indptr")):
        assert np.array_equal(got, getattr(ref, attr)), attr
        assert got.dtype == getattr(ref, attr).dtype, attr


def _record_score_lps(monkeypatch):
    """Every score LP: its programs, direction, the arguments handed to the
    entry point and its result."""
    calls = []
    real_scores, real_range = repgame.scores._solve_scores, repgame.scores._solve_range
    real_lp = repgame.scores.linprog
    batch = []

    def solve_scores(game, programs, direction):
        batch[:] = [game, programs]
        return real_scores(game, programs, direction)

    def solve_range(rows, lo, hi, direction):
        calls.append({"game": batch[0], "programs": batch[1][lo:hi], "direction": direction})
        return real_range(rows, lo, hi, direction)

    def lp(*args):
        res = real_lp(*args)
        calls[-1].update(args=args, res=res)
        return res

    monkeypatch.setattr(repgame.scores, "_solve_scores", solve_scores)
    monkeypatch.setattr(repgame.scores, "_solve_range", solve_range)
    monkeypatch.setattr(repgame.scores, "linprog", lp)
    return calls


@pytest.mark.parametrize("make, grid", [
    (lambda: product_choice(0.9, 0.4, 0.0)[0], 1e-2),
    (lambda: three_signal(0.6, 0.3, 0.1, 0.02, 0.55)[0], 1e-2),
    (_infeasible_game, 0.1),
    (_mixed_feasibility_game, 0.1),
], ids=["product_choice", "three_signal", "infeasible", "mixed_feasibility"])
def test_score_lps_match_scipy_linprog(monkeypatch, make, grid):
    game = make()
    calls = _record_score_lps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ci_payoff_set(game, grid)
    R = game.rho.matrix
    statuses = []
    for call in calls:
        supps = [supp for supp, _ in call["programs"]]
        u_beta = [game.u @ beta_w for _, beta_w in call["programs"]]
        A_eq = block_diag([np.hstack([np.ones((int(s.sum()), 1)), -R[s]]) for s in supps],
                          format="csc")
        b_eq = np.concatenate([u[s] for u, s in zip(u_beta, supps)])
        off = [~s for s in supps]
        A_ub, b_ub = None, None
        if any(o.any() for o in off):
            A_ub = block_diag([np.hstack([-np.ones((int(o.sum()), 1)), R[o]]) for o in off],
                              format="csc")
            b_ub = np.concatenate([-u[o] for u, o in zip(u_beta, off)])
        x_bound = (-np.inf, 0.0) if call["direction"] == +1 else (0.0, np.inf)
        bounds = np.array([(-np.inf, np.inf)] + [x_bound] * R.shape[1])
        c = np.zeros(1 + R.shape[1])
        c[0] = -float(call["direction"])
        k = len(supps)
        ref = scipy_linprog(np.tile(c, k), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                            bounds=np.tile(bounds, (k, 1)), method="highs")
        args = call["args"]
        _assert_same_matrix(args[1], A_eq if A_ub is None else vstack((A_ub, A_eq), format="csc"))
        assert args[2].tobytes() == (np.empty(0) if b_ub is None else b_ub).tobytes()
        assert args[3].tobytes() == b_eq.tobytes()
        _assert_same_solution(call["res"], ref, len(args[2]))
        statuses.append(ref.status)
    if make in (_infeasible_game, _mixed_feasibility_game):
        # halving reaches solo infeasible programs (2) and feasible halves (0)
        assert {0, 2} <= set(statuses)
    else:
        assert statuses == [0, 0]


def _phase1(R, q):
    """The hull phase-1 program as linprog was handed it: dense A_eq, x >= 0."""
    n_a, n_y = R.shape
    c = np.concatenate([np.zeros(n_a), np.ones(2 * n_y)])
    A_eq = np.vstack([np.hstack([R.T, np.eye(n_y), -np.eye(n_y)]),
                      np.concatenate([np.ones(n_a), np.zeros(2 * n_y)])[None, :]])
    return c, A_eq, np.concatenate([q, [1.0]])


def test_hull_lps_match_scipy_linprog(monkeypatch):
    calls = []
    real_lp = repgame.divergence.linprog

    def lp(*args):
        res = real_lp(*args)
        calls.append((args, res))
        return res

    monkeypatch.setattr(repgame.divergence, "linprog", lp)
    rng = np.random.default_rng(8)
    members = []
    for k in range(120):
        n_a, n_y = (int(v) for v in rng.integers(2, 5, size=2))
        R = rng.dirichlet(np.full(n_y, 2.0), size=n_a) * 0.9 + 0.1 / n_y
        q = (rng.dirichlet(np.ones(n_a)) @ R if k % 2 == 0
             else rng.dirichlet(np.ones(n_y)) * 0.9 + 0.1 / n_y)
        signals = tuple(f"y{i}" for i in range(n_y))
        rho = SignalStructure(tuple(f"a{i}" for i in range(n_a)), signals, R)
        q = Distribution(signals, q)
        members.append(hull_membership(q, rho).member)
        (args, res), = calls[-1:]
        c, A_eq, b_eq = _phase1(rho.matrix, q.weights)
        ref = scipy_linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        assert args[0].tobytes() == c.tobytes() and args[3].tobytes() == b_eq.tobytes()
        _assert_same_matrix(args[1], csc_array(A_eq))
        _assert_same_solution(res, ref, 0)
    assert len(calls) == 120 and 0 < sum(members) < 120


def test_dense_rows_drop_zero_entries_as_linprog_does():
    # an R with a zero entry: the dense-to-CSC step must drop it, as linprog's does
    R = np.array([[0.0, 0.5, 0.5], [0.6, 0.1, 0.3]])
    for q in (np.array([0.3, 0.3, 0.4]), np.array([0.9, 0.05, 0.05])):
        c, A_eq, b_eq = _phase1(R, q)
        calls = []
        real_lp = repgame.divergence.linprog

        def lp(*args):
            calls.append(args)
            return real_lp(*args)

        repgame.divergence.linprog = lp
        try:
            res = repgame.divergence._lp(c, A_eq, b_eq)
        finally:
            repgame.divergence.linprog = real_lp
        ref = scipy_linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        assert csc_array(A_eq).nnz < np.count_nonzero(A_eq) + 1 < A_eq.size
        _assert_same_matrix(calls[0][1], csc_array(A_eq))
        _assert_same_solution(res, ref, 0)


def test_status_codes_match_scipy():
    # min x0 with x0 <= -1 is infeasible (2); min -x0 is unbounded (3)
    A = (np.array([1.0]), np.array([0]), np.array([0, 1]))
    lb, ub = np.zeros(1), np.full(1, np.inf)
    res = linprog(np.array([1.0]), A, np.array([-1.0]), np.empty(0), lb, ub)
    ref = scipy_linprog([1.0], A_ub=[[1.0]], b_ub=[-1.0], bounds=(0.0, None), method="highs")
    assert res.status == ref.status == 2
    res = linprog(np.array([-1.0]), A, np.empty(0), np.empty(0), lb, ub)
    ref = scipy_linprog([-1.0], bounds=(0.0, None), method="highs")
    assert res.status == ref.status == 3


def test_optimum_check_is_linprogs():
    # an optimum that misses a bound or row by more than CHECK_TOL is status 4
    # in linprog (_check_result); _passes_check must draw the same line
    assert CHECK_TOL == np.sqrt(1e-9) * 10
    rng = np.random.default_rng(3)
    kept = 0
    for _ in range(2000):
        n_x, n_ub, n_eq = 3, int(rng.integers(0, 3)), int(rng.integers(0, 3))
        lb = rng.choice([-np.inf, 0.0, -1.0], size=n_x)
        ub = rng.choice([np.inf, 0.0, 1.0], size=n_x)
        ub = np.maximum(lb, ub)
        x = np.clip(rng.uniform(-2, 2, size=n_x), lb, ub)
        b_ub, b_eq = rng.uniform(-1, 1, size=n_ub), rng.uniform(-1, 1, size=n_eq)
        row = np.concatenate([b_ub, b_eq])
        # push a few entries over the line, by about the tolerance
        miss = rng.choice([0.0, 0.5, 2.0], size=n_x + n_ub + n_eq, p=[0.8, 0.1, 0.1])
        sign = rng.choice([-1.0, 1.0], size=len(miss))
        x = x + (sign * miss * CHECK_TOL)[:n_x]
        row = row + (sign * miss * CHECK_TOL)[n_x:]
        if rng.random() < 0.02:
            x[0] = np.nan
        fun = float(np.sum(x))
        status, _ = _check_result(x, fun, 0, b_ub - row[:n_ub], b_eq - row[n_ub:],
                                  np.column_stack([lb, ub]), 1e-9, "", None)
        ok = _passes_check(x, fun, row, b_ub, b_eq, lb, ub)
        assert ok == (status == 0)
        kept += ok
    assert 0 < kept < 2000


def test_cli_answers_without_importing_scipy_optimize(tmp_path):
    # importing the CLI, listing scenarios, a config error and a simulation
    # load no HiGHS; bounds, check-separation and a verify suite load the
    # HiGHS core alone, never the scipy or scipy.optimize packages. A later
    # import through scipy.optimize then returns the core already loaded.
    doc = emit_scenario_document("product_choice", {"p": 0.6, "q": 0.3, "epsilon": 0.15})
    doc["simulation"] = {"delta": 0.9, "runs": 2, "horizon": 5, "master_seed": 1,
                         "normal_strategy": [0.0, 1.0]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    steps = [("import", "pass"),
             ("scenario list", "assert main(['scenario', 'list']) == 0"),
             ("config error", "assert main(['bounds', '--config', '{}']) == 2"),
             ("simulate", f"assert main(['simulate', '--config', {str(cfg)!r}, "
                          f"'--out', {str(tmp_path / 'out')!r}]) == 0"),
             ("bounds", f"assert main(['bounds', '--config', {str(cfg)!r}]) == 0"),
             ("check-separation", f"assert main(['check-separation', '--config', {str(cfg)!r}]) == 0"),
             ("verify separation", "assert main(['verify', 'separation']) == 0"),
             ("scipy import", "from scipy.optimize._highspy import _core\n"
                              "assert _core is repgame.lp._load()[0]")]
    code = "import sys\nimport repgame.lp\nfrom repgame.cli import main\n" + "".join(
        f"{step}\nprint('STEP', {name!r}, 'scipy' in sys.modules, 'scipy.optimize' in "
        f"sys.modules, repgame.lp._load.cache_info().currsize == 1)\n" for name, step in steps)
    env = {**os.environ, "PYTHONPATH": str(Path(repgame.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = [line[5:] for line in proc.stdout.splitlines() if line.startswith("STEP ")]
    assert seen == ["import False False False", "scenario list False False False",
                    "config error False False False", "simulate False False False",
                    "bounds False False True", "check-separation False False True",
                    "verify separation False False True", "scipy import True True True"]


def test_highs_core_is_the_file_scipy_imports():
    core = repgame.lp._load()[0]
    assert core is _core
    assert Path(core.__file__) == Path(_core.__file__)


def test_missing_highs_core_names_scipy_version_and_path(monkeypatch, tmp_path):
    # the uncached loader, pointed at an empty scipy directory
    monkeypatch.setattr(repgame.lp, "_scipy_dir", lambda: tmp_path)
    with pytest.raises(ImportError) as err:
        repgame.lp._load.__wrapped__()
    message = str(err.value)
    assert f"scipy {version('scipy')}" in message
    assert str(tmp_path / "optimize" / "_highspy") in message
