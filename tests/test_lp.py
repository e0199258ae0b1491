"""The LP entry point against scipy.optimize.linprog(method="highs").

``repgame.lp.linprog`` hands HiGHS the model that linprog builds. On a
corpus of the programs repgame solves (every joint and solo LP ``kappa``
makes on five games, and hull phase-1 programs of member and non-member
slices) the matrix it passes equals the one linprog stacks (for score
programs, ``block_diag`` of copies of one block), and status, x, objective
and duals are equal to linprog's, bit for bit. One solver serves every
solve, and no solve sees what an earlier one left: each answer equals a new
solver's, in any order. The HiGHS core
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
from scipy.sparse import block_diag, csc_array

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
from test_scores import _always_tied_game, _infeasible_game, _mixed_feasibility_game


def _assert_same_solution(res, ref):
    assert res.status == ref.status
    if ref.x is None:
        assert res.x is None and res.fun is None and res.row_duals is None
        return
    assert np.array_equal(res.x, ref.x)
    assert res.fun == ref.fun
    assert np.array_equal(res.row_duals, ref.eqlin.marginals)


def _assert_same_matrix(A, ref):
    ref = ref.tocsc()
    for got, attr in zip(A, ("data", "indices", "indptr")):
        assert np.array_equal(got, getattr(ref, attr)), attr
        assert got.dtype == getattr(ref, attr).dtype, attr


def _record_score_lps(monkeypatch):
    """Every score LP, solo ones included: its game, programs (support masks,
    reply bounds and a direction each), the arguments handed to the entry
    point and its result."""
    calls = []
    real_scores, real_lp = repgame.scores._solve_scores, repgame.scores.linprog

    def solve_scores(game, supp, beta_lb, beta_ub, direction):
        calls.append({"game": game, "supp": supp, "beta_lb": beta_lb, "beta_ub": beta_ub,
                      "direction": direction})
        return real_scores(game, supp, beta_lb, beta_ub, direction)

    def lp(*args):  # each solve makes its LP before it solves programs alone
        res = real_lp(*args)
        calls[-1].update(args=args, res=res)
        return res

    monkeypatch.setattr(repgame.scores, "_solve_scores", solve_scores)
    monkeypatch.setattr(repgame.scores, "linprog", lp)
    return calls


@pytest.mark.parametrize("make, grid", [
    (lambda: product_choice(0.9, 0.4, 0.0)[0], 1e-2),
    (lambda: three_signal(0.6, 0.3, 0.1, 0.02, 0.55)[0], 1e-2),
    (_infeasible_game, 0.1),
    (_mixed_feasibility_game, 0.1),
    (_always_tied_game, 0.1),
], ids=["product_choice", "three_signal", "infeasible", "mixed_feasibility", "always_tied"])
def test_score_lps_match_scipy_linprog(monkeypatch, make, grid):
    # every program is one block with the columns [z, x(y), beta(b), s(a)]:
    # one row [1, -rho(.|a), -u(a, .), -e_a] = 0 per action, then the row
    # sum(beta) = 1; its support pins s to 0 on it and leaves s >= 0 off it,
    # and its direction sets its objective and its offsets' half-space
    game = make()
    calls = _record_score_lps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ci_payoff_set(game, grid)
    R, u = game.rho.matrix, game.u
    n_a, n_y, n_b = R.shape[0], R.shape[1], u.shape[1]
    block = np.vstack([np.hstack([np.ones((n_a, 1)), -R, -u, -np.eye(n_a)]),
                       np.concatenate([np.zeros(1 + n_y), np.ones(n_b), np.zeros(n_a)])])
    statuses = []
    for call in calls:
        supps = list(call["supp"])
        A_eq = block_diag([block] * len(supps), format="csc")
        b_eq = np.tile(np.append(np.zeros(n_a), 1.0), len(supps))
        bounds = np.concatenate([
            np.array([[(-np.inf, np.inf)] + [(-np.inf, 0.0) if d == +1 else (0.0, np.inf)] * n_y
                      for d in call["direction"]]),
            np.stack([call["beta_lb"], call["beta_ub"]], axis=2),
            np.array([[(0.0, 0.0) if on else (0.0, np.inf) for on in s] for s in supps])],
            axis=1).reshape(-1, 2)
        c = np.zeros((len(supps), 1 + n_y + n_b + n_a))
        c[:, 0] = [-float(d) for d in call["direction"]]
        ref = scipy_linprog(c.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
        args = call["args"]
        assert args[0].tobytes() == c.ravel().tobytes()
        _assert_same_matrix(args[1], A_eq)
        assert args[2].tobytes() == b_eq.tobytes()
        assert args[3].tobytes() == bounds[:, 0].tobytes()
        assert args[4].tobytes() == bounds[:, 1].tobytes()
        _assert_same_solution(call["res"], ref)
        statuses.append(ref.status)
    if make in (_infeasible_game, _mixed_feasibility_game):
        # the joint LP fails (2); alone, programs are infeasible (2) or solved (0)
        assert {0, 2} <= set(statuses)
    else:
        assert statuses == [0]
    # the first LP holds every program for +1, then every one for -1
    direction = calls[0]["direction"].tolist()
    P = len(direction) // 2
    assert direction == [+1] * P + [-1] * P


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
        assert args[0].tobytes() == c.tobytes() and args[2].tobytes() == b_eq.tobytes()
        _assert_same_matrix(args[1], csc_array(A_eq))
        _assert_same_solution(res, ref)
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
        _assert_same_solution(res, ref)


def test_status_codes_match_scipy():
    # x0 >= 0 with x0 = -1 is infeasible (2); min -x0 with no row is unbounded (3)
    A = (np.array([1.0]), np.array([0]), np.array([0, 1]))
    lb, ub = np.zeros(1), np.full(1, np.inf)
    res = linprog(np.array([1.0]), A, np.array([-1.0]), lb, ub)
    ref = scipy_linprog([1.0], A_eq=[[1.0]], b_eq=[-1.0], bounds=(0.0, None), method="highs")
    assert res.status == ref.status == 2
    no_rows = (np.empty(0), np.empty(0, np.int32), np.zeros(2, np.int32))
    res = linprog(np.array([-1.0]), no_rows, np.empty(0), lb, ub)
    ref = scipy_linprog([-1.0], bounds=(0.0, None), method="highs")
    assert res.status == ref.status == 3


def test_optimum_check_is_linprogs():
    # an optimum that misses a bound or row by more than CHECK_TOL is status 4
    # in linprog (_check_result); _passes_check must draw the same line
    assert CHECK_TOL == np.sqrt(1e-9) * 10
    rng = np.random.default_rng(3)
    kept = 0
    for _ in range(2000):
        n_x, n_eq = 3, int(rng.integers(0, 3))
        lb = rng.choice([-np.inf, 0.0, -1.0], size=n_x)
        ub = rng.choice([np.inf, 0.0, 1.0], size=n_x)
        ub = np.maximum(lb, ub)
        x = np.clip(rng.uniform(-2, 2, size=n_x), lb, ub)
        b_eq = rng.uniform(-1, 1, size=n_eq)
        row = b_eq.copy()
        # push a few entries over the line, by about the tolerance
        miss = rng.choice([0.0, 0.5, 2.0], size=n_x + n_eq, p=[0.8, 0.1, 0.1])
        sign = rng.choice([-1.0, 1.0], size=len(miss))
        x = x + (sign * miss * CHECK_TOL)[:n_x]
        row = row + (sign * miss * CHECK_TOL)[n_x:]
        if rng.random() < 0.02:
            x[0] = np.nan
        fun = float(np.sum(x))
        status, _ = _check_result(x, fun, 0, np.empty(0), b_eq - row,
                                  np.column_stack([lb, ub]), 1e-9, "", None)
        ok = _passes_check(x, fun, row, b_eq, lb, ub)
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


def _bits(res):
    """status, message, and the bytes of x, the objective and the row duals."""
    return (res.status, res.message) + tuple(
        None if v is None else np.asarray(v).tobytes() for v in (res.x, res.fun, res.row_duals))


def _fresh_solve(monkeypatch, args):
    """``linprog`` on a new ``_Highs`` handed scipy's five options anew: what
    every solve got before the solver was shared."""
    core, _, options_passed, to_status = repgame.lp._load()
    opts = core.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    fresh = core._Highs()
    assert fresh.passOptions(opts) == core.HighsStatus.kOk
    with monkeypatch.context() as m:
        m.setattr(repgame.lp, "_load", lambda: (core, fresh, options_passed, to_status))
        return linprog(*args)


def test_shared_solver_carries_nothing_between_solves(monkeypatch):
    # the recorded corpus (every score LP of two games, one of them with
    # infeasible programs, and hull programs in and out of the hull), solved
    # forwards, reversed and interleaved with an infeasible, an unbounded and
    # a model-error program, equals a fresh solver's answer on every solve
    corpus = []
    real_scores, real_divergence = repgame.scores.linprog, repgame.divergence.linprog

    def record(real):
        def lp(*args):
            corpus.append(args)
            return real(*args)
        return lp

    monkeypatch.setattr(repgame.scores, "linprog", record(real_scores))
    monkeypatch.setattr(repgame.divergence, "linprog", record(real_divergence))
    ci_payoff_set(product_choice(0.9, 0.4, 0.0)[0], 1e-2)
    ci_payoff_set(_mixed_feasibility_game(), 0.1)
    rng = np.random.default_rng(21)
    for k in range(40):
        R = rng.dirichlet(np.full(3, 2.0), size=3) * 0.9 + 0.1 / 3
        q = rng.dirichlet(np.ones(3)) @ R if k % 2 == 0 else rng.dirichlet(np.ones(3))
        rho = SignalStructure(("a0", "a1", "a2"), ("y0", "y1", "y2"), R)
        hull_membership(Distribution(rho.signals, q), rho)
    monkeypatch.undo()

    one = (np.array([1.0]), np.array([0], np.int32), np.array([0, 1], np.int32))
    lb, ub = np.zeros(1), np.full(1, np.inf)
    no_rows = (np.empty(0), np.empty(0, np.int32), np.zeros(2, np.int32))
    odd = [(np.array([1.0]), one, np.array([-1.0]), lb, ub),       # infeasible
           (np.array([-1.0]), no_rows, np.empty(0), lb, ub),       # unbounded
           (np.array([1.0]), one, np.array([1.0]), ub, ub)]        # lower bound inf
    core = repgame.lp._load()[0]   # the last one fails in passModel, before any solve
    c, (data, indices, indptr), b, lo, hi = odd[2]
    assert core._Highs().passModel(
        1, 1, 1, core.MatrixFormat.kColwise, core.ObjSense.kMinimize, 0.0, c, lo, hi, b, b,
        indptr, indices, data, np.zeros(1, np.int32)) == core.HighsStatus.kError
    interleaved = [args for i, a in enumerate(corpus) for args in (a, odd[i % 3])]
    statuses = []
    for args in corpus + corpus[::-1] + interleaved:
        res, ref = linprog(*args), _fresh_solve(monkeypatch, args)
        assert _bits(res) == _bits(ref)
        statuses.append(res.status)
    assert {0, 2, 3} <= set(statuses)
    assert [linprog(*args).message for args in odd] == [
        "HiGHS: Infeasible", "HiGHS: Unbounded", "HiGHS: Model error"]


def test_refused_options_give_status_4(monkeypatch):
    # a solver that did not take the options is never handed a model
    core, _, _, to_status = repgame.lp._load()
    monkeypatch.setattr(repgame.lp, "_load", lambda: (core, core._Highs(), False, to_status))
    A = (np.array([1.0]), np.array([0], np.int32), np.array([0, 1], np.int32))
    res = linprog(np.array([1.0]), A, np.array([1.0]), np.zeros(1), np.full(1, np.inf))
    assert (res.status, res.x, res.message) == (4, None, "HiGHS: Not Set")
