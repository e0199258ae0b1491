"""One linear-program entry point: the model handed to HiGHS directly.

``linprog`` solves

    minimize   c @ x
    subject to A @ x == b_eq,  lb <= x <= ub

with the HiGHS dual simplex solver bundled with scipy (Huangfu & Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 2018), the
module scipy's ``linprog(method="highs")`` drives. Every program comes in
equality form (an inequality is a row with a bounded slack column). It
passes HiGHS the model that call builds from ``A_eq``: CSC rows with bounds
[b_eq, b_eq], the column bounds as given, and the same five options (presolve
on, dual simplex, no debug, log or output), in one call to HiGHS's flat
``passModel``. One solver serves every solve in the process: it is built,
and handed the options, on the first solve, and ``passModel`` clears the
previous model, basis and solution before it loads the next, so each solve
starts cold and gets what a fresh solver would. Its status codes are scipy's,
including the demotion of an optimal status to 4 when the solution misses a
bound or a row by more than ``CHECK_TOL``. What it leaves out is the
wrapper's per-call cost: input cleaning, option re-validation, sparse
stacking and the per-column loop over bound duals, which no caller reads.
So nothing here checks the input: the callers (``scores``, ``divergence``)
build finite arrays of matching sizes.

scipy stays a dependency for its HiGHS binary, but the ``scipy.optimize``
package, whose import costs more than most answers, is never imported: on
the first solve ``_load`` loads the extension by its file path inside
scipy's install directory, under its own dotted name, so if a program later
imports it through scipy, it gets the same module object.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["LPResult", "linprog", "CHECK_TOL"]

# scipy linprog's post-solve feasibility check: sqrt(tol) * 10 with tol 1e-9
CHECK_TOL = float(np.sqrt(1e-9) * 10)


@dataclass(frozen=True, eq=False)
class LPResult:
    """status: 0 optimal, 1 iteration or time limit, 2 infeasible, 3
    unbounded, 4 anything else (scipy's codes). x, fun and row_duals (one per
    row, scipy's equality marginals) are None unless HiGHS reached an
    optimum."""

    status: int
    x: np.ndarray | None
    fun: float | None
    row_duals: np.ndarray | None
    message: str


def _scipy_dir() -> Path:
    """scipy's install directory, found without running ``scipy/__init__``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("repgame.lp needs scipy for its HiGHS core, and scipy is not installed")
    return Path(spec.submodule_search_locations[0])


def _scipy_version() -> str:
    from importlib.metadata import PackageNotFoundError, version
    try:
        return version("scipy")
    except PackageNotFoundError:
        return "of unknown version"


@functools.cache
def _load():
    """The HiGHS core, the one solver every solve reuses, whether it took
    the options, and scipy's status code by HiGHS model status; built on the
    first solve."""
    path = (_scipy_dir() / "optimize" / "_highspy"
            / ("_core" + importlib.machinery.EXTENSION_SUFFIXES[0]))
    if not path.is_file():
        raise ImportError(f"repgame.lp needs scipy's HiGHS core, and scipy {_scipy_version()} "
                          f"has none at {path}")
    spec = importlib.util.spec_from_file_location("scipy.optimize._highspy._core", path)
    _core = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(_core)

    opts = _core.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    highs = _core._Highs()
    options_passed = highs.passOptions(opts) != _core.HighsStatus.kError
    ms = _core.HighsModelStatus
    status = {ms.kOptimal: 0, ms.kTimeLimit: 1, ms.kIterationLimit: 1,
              ms.kInfeasible: 2, ms.kModelError: 2, ms.kUnbounded: 3}
    return _core, highs, options_passed, status


def linprog(c: np.ndarray, A: tuple[np.ndarray, np.ndarray, np.ndarray],
            b_eq: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> LPResult:
    """Solve one LP. ``A`` is (data, indices, indptr) of the CSC matrix whose
    rows equal ``b_eq``. ``lb`` and ``ub`` hold -inf and inf where a column
    is unbounded. The solver is the process's one, so a solve must not
    start while another runs."""
    core, highs, options_passed, to_status = _load()
    data, indices, indptr = A
    n_col = len(c)
    if not options_passed:  # no model was ever passed: status "Not Set", 4
        model_status = highs.getModelStatus()
    elif highs.passModel(
            n_col, len(b_eq), len(data), core.MatrixFormat.kColwise,
            core.ObjSense.kMinimize, 0.0, c, lb, ub, b_eq, b_eq,
            indptr, indices, data,
            np.zeros(n_col, np.int32),  # all continuous; an empty array is a model error
            ) == core.HighsStatus.kError:
        model_status = core.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    message = f"HiGHS: {highs.modelStatusToString(model_status)}"
    if model_status != core.HighsModelStatus.kOptimal:
        return LPResult(to_status.get(model_status, 4), None, None, None, message)
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    fun = highs.getInfo().objective_function_value
    duals = np.array(sol.row_dual)
    if not _passes_check(x, fun, np.array(sol.row_value), b_eq, lb, ub):
        return LPResult(4, x, fun, duals, f"HiGHS reported an optimum that misses a bound "
                                          f"or row by more than {CHECK_TOL:.2E}")
    return LPResult(0, x, fun, duals, message)


def _passes_check(x, fun, row, b_eq, lb, ub) -> bool:
    """linprog's check of an optimum: nothing NaN, and every bound and row
    met within ``CHECK_TOL``."""
    con = b_eq - row
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(con).any():
        return False
    return bool(np.all((x >= lb - CHECK_TOL) & (x <= ub + CHECK_TOL))
                and not (np.abs(con) > CHECK_TOL).any())
