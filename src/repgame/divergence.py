"""Divergence geometry between subjective kernels and attainable signal laws.

The attainable set of a monitoring structure is the convex hull of its rows,
co{rho(.|a)}. A commitment kernel that no mixed action can reproduce sits at
strictly positive relative entropy from that hull; whether the infimum is zero
is exactly a hull-membership question, and the two routes (a linear
feasibility program and a convex KL projection) are kept independent so each
can audit the other.

Each route does one solve per model. The KL projection is conditional
gradient whose exact line search is a Brent root-find on the monotone
derivative along the step (``_brentq``, scipy's C ``brentq`` ported line
for line: scipy stays a dependency for its HiGHS binary, and the
``scipy.optimize`` package is never imported). The LP route is one phase-1
program, handed to HiGHS through ``repgame.lp``: its optimal witness decides
membership, and for a non-member its duals on the signal rows are the
separating hyperplane, so no second LP is solved.

All divergences are in nats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .frameworks import Framework
from .game import Distribution, SignalStructure, mix_signal_dist
from .lp import LPResult, linprog

__all__ = [
    "kl",
    "tv",
    "HullMembership",
    "SeparationCertificate",
    "hull_membership",
    "SimplexMinResult",
    "minimize_convex_over_simplex",
    "MinKLResult",
    "min_kl_over_attainable",
    "SeparationReport",
    "separation_value",
    "find_alpha_star",
    "DcDn",
    "dc_dn",
    "normal_favoring_check",
]

# Hull membership: witness must reproduce the target this tightly, coordinatewise.
MEMBER_TOL = 1e-9
# separation_value treats min-KL at or below this as "zero" for the cross-check.
EQUIV_TOL = 1e-7
# Conditional gradient stops, converged, at a Frank-Wolfe gap (which bounds the
# suboptimality) of at most FW_GAP_TOL; unconverged after FW_MAX_ITER steps.
FW_GAP_TOL = 1e-10
FW_MAX_ITER = 100_000
# Line-search root-find: steps resolved to double precision. brentq accepts no
# rtol below 4 eps, and an xtol of 1e-300 does not converge.
_LS_XTOL = 1e-17
_LS_RTOL = 4.0 * np.finfo(float).eps
_LS_MAXITER = 200


def _kl_arrays(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        y = int(np.argmax(mask & (q <= 0.0)))
        raise ValueError(f"kl: q has zero mass at index {y} where p is positive")
    pm = p[mask]
    return float(np.sum(pm * (np.log(pm) - np.log(q[mask]))))


def kl(p: Distribution, q: Distribution) -> float:
    """Relative entropy D(p || q) in nats, with the 0 log 0 = 0 convention."""
    if p.labels != q.labels:
        raise ValueError(f"kl: label mismatch {p.labels} vs {q.labels}")
    return _kl_arrays(p.weights, q.weights)


def tv(p: Distribution, q: Distribution) -> float:
    """Total variation distance, half the L1 norm."""
    if p.labels != q.labels:
        raise ValueError(f"tv: label mismatch {p.labels} vs {q.labels}")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


# ---------------------------------------------------------------------------
# Convex minimization over the probability simplex (conditional gradient).


@dataclass(frozen=True)
class SimplexMinResult:
    point: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool


def minimize_convex_over_simplex(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    n: int,
) -> SimplexMinResult:
    """Conditional-gradient descent with away steps and exact line search.

    The Frank-Wolfe gap g(x) . (x - e_s), s the best vertex, upper-bounds the
    suboptimality of a convex objective, so stopping at ``FW_GAP_TOL``
    certifies the returned value to the same accuracy; ``FW_MAX_ITER`` caps
    the iterations. Both are read at call time. Away steps restore linear
    convergence when the optimum sits on a face.

    The line search minimizes phi(gamma) = f(x + gamma d) on [0, gamma_max].
    phi' is nondecreasing and negative at 0, so either phi'(gamma_max) <= 0
    and the full step is taken, or phi' changes sign inside and Brent's
    method finds that root to double precision in a dozen or so objective
    calls. A root-find that hits its iteration cap returns its best bracket
    estimate; the FW gap, not the step, certifies the result.
    """
    x = np.full(n, 1.0 / n)
    val, grad = value_and_grad(x)
    it = 0
    gap = np.inf
    for it in range(1, FW_MAX_ITER + 1):
        s = int(np.argmin(grad))
        gap = float(grad @ x - grad[s])
        if gap <= FW_GAP_TOL:
            return SimplexMinResult(x, val, gap, it, True)
        support = np.flatnonzero(x > 0.0)
        a = int(support[np.argmax(grad[support])])
        away_gap = float(grad[a] - grad @ x)
        if away_gap > gap and x[a] < 1.0:
            d = x.copy()
            d[a] -= 1.0          # x - e_a
            gamma_max = x[a] / (1.0 - x[a])
        else:
            d = -x.copy()
            d[s] += 1.0          # e_s - x
            gamma_max = 1.0

        def dphi(gamma: float) -> float:
            _, g = value_and_grad(x + gamma * d)
            return float(g @ d)

        dphi_0, dphi_max = float(grad @ d), dphi(gamma_max)
        if dphi_max <= 0.0:
            gamma = gamma_max
        elif dphi_0 >= 0.0:
            # phi'(0) = grad . d lost its sign to rounding (gaps near eps):
            # no descent is measurable along d, and brentq needs a bracket.
            gamma = 0.0
        else:
            gamma = _brentq(dphi, 0.0, gamma_max, dphi_0, dphi_max,
                            _LS_XTOL, _LS_RTOL, _LS_MAXITER)
        x = x + gamma * d
        np.clip(x, 0.0, None, out=x)
        x /= x.sum()
        val, grad = value_and_grad(x)
    warnings.warn(
        f"simplex minimization stopped at iteration cap {FW_MAX_ITER} with gap {gap:.3e}",
        RuntimeWarning,
        stacklevel=2,
    )
    return SimplexMinResult(x, val, gap, it, False)


def _brentq(f: Callable[[float], float], xa: float, xb: float, fa: float, fb: float,
            xtol: float, rtol: float, maxiter: int) -> float:
    """``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter,
    disp=False)`` of scipy 1.17, bit for bit: its C routine (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4) ported
    line for line, with the same evaluations in the same order, except that
    the caller hands in ``fa = f(xa)`` and ``fb = f(xb)``, which it holds.

    Like scipy, it raises ValueError when f is NaN or has the same sign at
    both ends, and returns its current estimate when ``maxiter`` runs out.
    """
    def checked(x: float, fx: float) -> float:
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = checked(xpre, float(fa))
    fcur = checked(xcur, float(fb))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = checked(xcur, f(xcur))
    return xcur


# ---------------------------------------------------------------------------
# Hull membership by linear feasibility, independent of the KL route.


@dataclass(frozen=True)
class SeparationCertificate:
    """Hyperplane h separating q from the attainable hull: h.q > max_a h.rho_a."""

    normal: np.ndarray
    threshold: float
    margin: float


@dataclass(frozen=True, eq=False)
class HullMembership:
    member: bool
    witness: Distribution | None
    certificate: SeparationCertificate | None
    residual: float


def _lp(c: np.ndarray, A_eq: np.ndarray, b_eq: np.ndarray) -> LPResult:
    """minimize c.x subject to A_eq x = b_eq and x >= 0, A_eq dense."""
    cols, rows = np.nonzero(A_eq.T)  # CSC order: column by column, rows ascending
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=len(c)))])
    A = (A_eq[rows, cols], rows.astype(np.int32), indptr.astype(np.int32))
    res = linprog(c, A, b_eq, np.zeros(len(c)), np.full(len(c), np.inf))
    if res.status not in (0, 2, 3):
        raise RuntimeError(f"linear program failed: {res.message}")
    return res


def hull_membership(q: Distribution, rho: SignalStructure) -> HullMembership:
    """Decide whether q lies in co{rho(.|a)} by exact linear feasibility.

    Phase-1 form: minimize the L1 defect of R^T alpha = q over the action
    simplex. Membership means the optimal witness reproduces q within
    ``MEMBER_TOL`` in every coordinate; otherwise a separating hyperplane is returned.

    The hyperplane is read off the same solve. The LP dual of the phase-1
    program is: maximize h.q - z subject to R h <= z and -1 <= h <= 1, whose
    optimum is the L1 defect. So the duals h of the n_y signal rows
    separate q from every rho_a with margin h.q - max_a h.rho_a equal to
    that defect; threshold and margin are recomputed from h, not taken from
    the solver's z.
    """
    if q.labels != rho.signals:
        raise ValueError(f"hull_membership: signal labels {q.labels} != {rho.signals}")
    R = rho.matrix
    n_a, n_y = R.shape
    # variables: alpha (n_a), s+ (n_y), s- (n_y)
    c = np.concatenate([np.zeros(n_a), np.ones(2 * n_y)])
    A_eq = np.vstack(
        [
            np.hstack([R.T, np.eye(n_y), -np.eye(n_y)]),
            np.concatenate([np.ones(n_a), np.zeros(2 * n_y)])[None, :],
        ]
    )
    b_eq = np.concatenate([q.weights, [1.0]])
    res = _lp(c, A_eq, b_eq)
    if res.status != 0:
        raise RuntimeError("hull feasibility phase-1 program should always be feasible")
    alpha = np.clip(res.x[:n_a], 0.0, None)
    alpha /= alpha.sum()
    residual = float(np.abs(alpha @ R - q.weights).max())
    if residual <= MEMBER_TOL:
        return HullMembership(True, Distribution(rho.actions, alpha), None, residual)
    h = res.row_duals[:n_y]
    threshold = float((R @ h).max())
    cert = SeparationCertificate(h, threshold, float(h @ q.weights) - threshold)
    return HullMembership(False, None, cert, residual)


# ---------------------------------------------------------------------------
# KL projection onto the attainable hull.


@dataclass(frozen=True, eq=False)
class MinKLResult:
    value: float
    argmin: Distribution
    gap: float
    iterations: int
    converged: bool


def min_kl_over_attainable(q: Distribution, rho: SignalStructure) -> MinKLResult:
    """min over mixed actions alpha of D(rho_alpha || q).

    Convex in alpha (the first argument is linear in alpha and relative
    entropy is jointly convex), solved by conditional gradient; the duality
    gap at the stopping point bounds the absolute error.
    """
    if q.labels != rho.signals:
        raise ValueError(f"min_kl_over_attainable: signal labels {q.labels} != {rho.signals}")
    if np.any(q.weights <= 0.0):
        raise ValueError("min_kl_over_attainable: q must have full support")
    R = rho.matrix
    log_q = np.log(q.weights)

    def f(alpha: np.ndarray) -> tuple[float, np.ndarray]:
        m = alpha @ R
        log_ratio = np.log(m) - log_q
        return float(m @ log_ratio), R @ log_ratio + 1.0

    res = minimize_convex_over_simplex(f, R.shape[0])
    value = max(res.value, 0.0)
    return MinKLResult(value, Distribution(rho.actions, res.point), res.gap, res.iterations, res.converged)


def _min_kl_to_mixture(p: np.ndarray, F: np.ndarray) -> SimplexMinResult:
    """min over alpha of D(p || sum_a alpha(a) F[a]), fixed first argument."""
    mask = p > 0.0
    p_pos = p[mask]
    ent = float(p_pos @ np.log(p_pos))
    Fm = F[:, mask]

    def f(alpha: np.ndarray) -> tuple[float, np.ndarray]:
        m = alpha @ Fm
        val = ent - float(p_pos @ np.log(m))
        grad = -(Fm @ (p_pos / m))
        return val, grad

    res = minimize_convex_over_simplex(f, F.shape[0])
    return SimplexMinResult(res.point, max(res.value, 0.0), res.gap, res.iterations, res.converged)


# ---------------------------------------------------------------------------
# Separation of a framework's commitment kernels from the attainable hull.


@dataclass(frozen=True, eq=False)
class SeparationReport:
    """Outcome of the separation test for every model's commitment slice.

    ``value`` is min over models of min over alpha of D(rho_alpha || slice);
    ``membership`` holds the independent per-model hull verdicts. A framework
    supports commitment reputations iff some slice is attainable, i.e. iff it
    is NOT separating.
    """

    value: float
    argmin_alpha: Distribution
    argmin_model: str
    membership: dict[str, bool]
    witnesses: dict[str, Distribution | None]
    per_model_value: dict[str, float]

    @property
    def separating(self) -> bool:
        return not any(self.membership.values())


def separation_value(framework: Framework, rho: SignalStructure) -> SeparationReport:
    """Distance-from-attainability of the framework's commitment kernels.

    Runs the KL projection and the LP membership test per model and enforces
    their agreement: a slice inside the hull must project at (numerical) zero.
    The converse is left to the LP on purpose; KL can be tiny just outside
    the hull, and membership is a linear question, not a metric one.
    """
    if framework.signals != rho.signals or framework.actions != rho.actions:
        raise ValueError("separation_value: framework labels do not match monitoring structure")
    best_value = np.inf
    best_alpha: Distribution | None = None
    best_model: str | None = None
    membership: dict[str, bool] = {}
    witnesses: dict[str, Distribution | None] = {}
    per_model: dict[str, float] = {}
    for m in framework.models:
        slice_dist = framework.commitment_slice_dist(m)
        proj = min_kl_over_attainable(slice_dist, rho)
        hull = hull_membership(slice_dist, rho)
        membership[m] = hull.member
        witnesses[m] = hull.witness
        per_model[m] = proj.value
        if hull.member and proj.value > EQUIV_TOL:
            raise RuntimeError(
                f"separation cross-check failed for model {m!r}: "
                f"in-hull but min-KL = {proj.value:.3e}"
            )
        if proj.value < best_value:
            best_value = proj.value
            best_alpha = proj.argmin
            best_model = m
    assert best_alpha is not None and best_model is not None
    return SeparationReport(best_value, best_alpha, best_model, membership, witnesses, per_model)


def find_alpha_star(report: SeparationReport) -> tuple[str, Distribution] | None:
    """Model and mixed action reproducing a commitment slice exactly, if any.

    Reads a ``separation_value`` report. Returns (m_star, alpha_star) with
    m_star the first in-hull model in framework order and alpha_star its hull
    witness; None for separating frameworks. Attainability is the LP's
    verdict alone (``MEMBER_TOL``): ``separation_value`` has already checked
    that every member projects within ``EQUIV_TOL``, and the members' KL
    values are rounding noise, so the choice goes by order, not by KL.
    """
    m_star = next((m for m, member in report.membership.items() if member), None)
    if m_star is None:
        return None
    return m_star, report.witnesses[m_star]


class DcDn(NamedTuple):
    d_c: float
    d_n: float
    m_star: str


def dc_dn(framework: Framework, rho: SignalStructure, alpha_star: Distribution) -> DcDn:
    """Model-set distances from the signal law of persistent alpha_star play.

    d_c: closest commitment slice; d_n: closest normal-type mixture over any
    model and conjectured action. Persistent alpha_star play drives the
    posterior toward whichever side is closer, so d_c < d_n is the survival
    condition when the normal kernels are themselves wrong.
    """
    if alpha_star.labels != framework.actions:
        raise ValueError("dc_dn: alpha_star labels do not match framework actions")
    target = mix_signal_dist(rho, alpha_star)
    p = target.weights
    slices = framework.commitment_slices
    d_c_per = [_kl_arrays(p, slices[i]) for i in range(framework.n_models)]
    i_star = int(np.argmin(d_c_per))
    d_c = float(d_c_per[i_star])
    d_n = np.inf
    for i in range(framework.n_models):
        res = _min_kl_to_mixture(p, framework.normal_kernels[i])
        d_n = min(d_n, res.value)
    return DcDn(d_c, float(d_n), framework.models[i_star])


def normal_favoring_check(framework: Framework, rho: SignalStructure,
                          candidate_subset: Iterable[str]) -> bool:
    """Strict inequality test: worst normal-kernel mismatch on the subset stays
    below the best commitment-kernel fit over the whole model set.

    The left side max over mixed actions of D(rho_alpha || f0_alpha(m)) is a
    convex function of alpha (both arguments are linear in alpha), so it is
    attained at a pure action and only vertices are evaluated.
    """
    subset = tuple(candidate_subset)
    if not subset:
        raise ValueError("normal_favoring_check: empty candidate subset")
    unknown = [m for m in subset if m not in framework.models]
    if unknown:
        raise ValueError(f"normal_favoring_check: unknown models {unknown}")
    idx = [framework.models.index(m) for m in subset]
    mass = float(framework.prior[0, idx].sum())
    if mass <= 0.0:
        raise ValueError("normal_favoring_check: candidate subset has zero prior mass on the normal type")
    lhs = 0.0
    for i in idx:
        for a in range(len(framework.actions)):
            lhs = max(lhs, _kl_arrays(rho.matrix[a], framework.normal_kernels[i, a]))
    rhs = separation_value(framework, rho).value
    return lhs < rhs
