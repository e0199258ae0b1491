"""Spans around repgame's public functions, recorded from outside the package.

``Tracer.install`` replaces every public module-level function of repgame
(and a few named extras: the scipy ``linprog`` each solver module calls and
``TrajectoryRecord.to_csv``) by a wrapper that records a span: name, parent
span, the answer it belongs to, start and end. ``uninstall`` puts the
originals back, so untraced runs call the package exactly as users do. Spans
stay in memory and are written when the run ends.

``layer_metrics`` turns the spans into the per-layer figures in
``BENCHMARK.json``. A layer that did no work on a workload reads 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from math import comb

from inputs import VERIFY_SUITES

MODULES = ("game", "frameworks", "divergence", "scores", "beliefs", "scenarios",
           "bruteforce", "configio", "verify", "cli")
SUPPORT_CUTOFF = 1e-9  # as repgame.scores: mass below this is not support
SIM_SHAPES = ("wide", "long", "scripted")


def _lattice_points(n: int, resolution: float) -> int:
    k = round(1.0 / resolution)
    return comb(k + n - 1, n - 1)


def _panel_bytes(batch) -> int:
    arrays = (batch.mu, batch.ell, batch.u_flow, batch.tv_gap, batch.kl_term,
              batch.actions, batch.signals)
    return sum(a.nbytes for a in arrays if a is not None)


class Patches:
    """Attributes of repgame replaced from outside; ``uninstall`` puts the
    originals back. The tracer, the allocation probe and the benchmark's
    capture of ``monte_carlo`` all patch through this."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_functions(self, replacements: dict[int, object]) -> None:
        """Replace each function, keyed by ``id``, under every name that any
        repgame module binds it to (``from .beliefs import monte_carlo``
        binds a second name)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repgame":
                continue
            for attr, obj in list(vars(mod).items()):
                new = replacements.get(id(obj))
                if new is not None and inspect.isfunction(obj):
                    self.patch(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()


class Tracer(Patches):
    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []   # [id, parent, name, answer, start_ns, end_ns, extra]
        self.stack: list[int] = []
        self.answer = -1

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1, name,
                   tracer.answer, time.perf_counter_ns(), 0, None]
            tracer.spans.append(rec)
            tracer.stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter_ns()
                tracer.stack.pop()
            if note is not None:
                rec[6] = note(args, kwargs, result)
            return result

        return traced

    def _count_objective(self, fn):
        """``minimize_convex_over_simplex`` with its objective counted: each
        call into the objective adds one to the extra field of the
        enclosing span, which ``_wrap`` opened just before."""
        tracer = self

        @functools.wraps(fn)
        def counting(value_and_grad, *args, **kwargs):
            rec = tracer.spans[tracer.stack[-1]]
            rec[6] = 0

            def counted(x):
                rec[6] += 1
                return value_and_grad(x)

            return fn(counted, *args, **kwargs)

        return counting

    def install(self) -> None:
        mods = {m: sys.modules[f"repgame.{m}"] for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                fn = self._count_objective(obj) if name == FW_SOLVER else obj
                wrappers[id(obj)] = self._wrap(name, fn, NOTES.get(name))
        self.patch_functions(wrappers)
        for short in ("scores", "divergence"):
            mod = mods[short]
            self.patch(mod, "linprog", self._wrap(f"{short}.linprog", mod.linprog))
        rec_cls = mods["beliefs"].TrajectoryRecord
        self.patch(rec_cls, "to_csv", self._wrap("beliefs.to_csv", rec_cls.to_csv))

    # -- reading ----------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Calls, total and self time (ms) per span name."""
        child = defaultdict(int)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[5] - s[4]
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s[2], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = s[5] - s[4]
            row["calls"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += (dur - child[s[0]]) / 1e6
        return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]))

    def write(self, path, answers: list[dict]) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "answer", "start_ns", "end_ns",
                                  "extra"],
                       "spans": self.spans, "answers": answers,
                       "self_times": self.span_table()}, fh, default=str)
            fh.write("\n")


def _kstar_note(args, kwargs, result):
    _game, alpha, beta, direction = args
    return (tuple(bool(w > SUPPORT_CUTOFF) for w in alpha.weights),
            beta.weights.tobytes(), direction)


def _batch_note(args, kwargs, batch):
    return {"run_periods": batch.runs * batch.horizon, "panel_bytes": _panel_bytes(batch)}


def _grid_note(args, kwargs, result):
    R, resolution = args[1], args[2]
    return _lattice_points(len(R), resolution)


FW_SOLVER = "divergence.minimize_convex_over_simplex"
NOTES = {
    "scores.kstar": _kstar_note,
    "divergence.min_kl_over_attainable": lambda a, k, r: r.iterations,
    "beliefs.simulate_batch": _batch_note,
    "bruteforce.grid_min_kl_forward": _grid_note,
    "bruteforce.grid_min_kl_reverse": _grid_note,
    "verify.run_suite": lambda a, k, r: a[0],
}


class AllocProbe(Patches):
    """tracemalloc around every ``monte_carlo`` call, in a pass of its own:
    tracing allocations doubles the simulator's time, so the traced pass that
    times the layers runs without it."""

    def __init__(self) -> None:
        super().__init__()
        self.peaks: list[int] = []

    def install(self) -> None:
        real = sys.modules["repgame.beliefs"].monte_carlo
        probe = self

        @functools.wraps(real)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return real(*args, **kwargs)
            finally:
                probe.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self.patch_functions({id(real): measured})


# ---------------------------------------------------------------------------
# per-layer figures


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def layer_metrics(tracer: Tracer, answers: list[dict], rounds: int,
                  imports: dict[str, float], alloc_peaks: list[int],
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer figures from the traced passes. ``answers`` maps answer ids to
    their kind; times are medians per call unless the name says otherwise."""
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s[2]].append(s)
    kind = {a["id"]: a["kind"] for a in answers}
    children = defaultdict(list)
    for s in tracer.spans:
        if s[1] >= 0:
            children[s[1]].append(s)

    def dur(name, scale):
        return [(s[5] - s[4]) / scale for s in by_name[name]]

    def med(name, scale):
        return _median(dur(name, scale))

    def per_answer(name):
        spans = by_name[name]
        users = {s[3] for s in spans}
        return len(spans) / len(users) if users else 0.0

    def outside_ns(s, layer):
        """Time s spends in calls out of its own layer (first span outside it)."""
        total = 0
        for c in children[s[0]]:
            total += outside_ns(c, layer) if c[2].startswith(layer) else c[5] - c[4]
        return total

    kstar = by_name["scores.kstar"]
    kstar_answers = {s[3] for s in kstar}
    distinct = {(s[3],) + s[6] for s in kstar}
    iters = [s[6] for s in by_name["divergence.min_kl_over_attainable"]]
    grads = [s[6] for s in by_name["divergence.minimize_convex_over_simplex"]]
    batches = by_name["beliefs.simulate_batch"]
    mc = by_name["beliefs.monte_carlo"]
    lattice = [s[6] for s in by_name["bruteforce.grid_min_kl_forward"]
               + by_name["bruteforce.grid_min_kl_reverse"]]

    m = {
        "import.repgame_s": imports["repgame"],
        "import.scipy_s": imports["scipy"],
        "configio.load_config_ms": med("configio.load_config", 1e6),
        "cli.overhead_ms": _median([(s[5] - s[4] - outside_ns(s, "cli.")) / 1e6
                                    for s in by_name["cli.main"]]),
        "scores.kstar_calls": per_answer("scores.kstar"),
        "scores.kstar_distinct": len(distinct) / len(kstar_answers) if kstar else 0.0,
        "scores.kstar_useful_ratio": len(distinct) / len(kstar) if kstar else 0.0,
        "scores.kstar_us": med("scores.kstar", 1e3),
        "scores.linprog_us": med("scores.linprog", 1e3),
        "scores.kappa_s": med("scores.kappa", 1e9),
        "scores.stackelberg_ms": med("scores.stackelberg", 1e6),
        "divergence.separation_value_ms": med("divergence.separation_value", 1e6),
        "divergence.separation_solves": per_answer("divergence.separation_value"),
        "divergence.min_kl_ms": med("divergence.min_kl_over_attainable", 1e6),
        "divergence.hull_membership_ms": med("divergence.hull_membership", 1e6),
        "divergence.linprog_calls": per_answer("divergence.linprog"),
        "divergence.fw_iters_p50": _median(iters),
        "divergence.fw_iters_max": float(max(iters, default=0)),
        "divergence.fw_grad_calls": sum(grads) / len(grads) if grads else 0.0,
    }
    for shape in SIM_SHAPES:
        m[f"beliefs.ns_per_run_period.{shape}"] = _median(
            [(s[5] - s[4]) / s[6]["run_periods"] for s in batches if kind.get(s[3]) == shape])
    m.update({
        "beliefs.monte_carlo_agg_ms": _median(
            [((s[5] - s[4]) - sum(c[5] - c[4] for c in children[s[0]]
                                  if c[2] == "beliefs.simulate_batch")) / 1e6 for s in mc]),
        "beliefs.simulate_run_ms": med("beliefs.simulate_run", 1e6),
        "beliefs.to_csv_ms": med("beliefs.to_csv", 1e6),
        "beliefs.panel_mb": max((s[6]["panel_bytes"] for s in batches), default=0) / 2**20,
        "beliefs.alloc_peak_mb": max(alloc_peaks, default=0) / 2**20,
        "beliefs.certificate_ms": med("beliefs.discounted_kl_certificate", 1e6),
        "beliefs.azuma_ms": med("beliefs.azuma_diagnostic", 1e6),
        "bruteforce.grid_forward_s": sum(dur("bruteforce.grid_min_kl_forward", 1e9)) / rounds,
        "bruteforce.grid_reverse_s": sum(dur("bruteforce.grid_min_kl_reverse", 1e9)) / rounds,
        "bruteforce.lattice_points": sum(lattice) / rounds,
    })
    suites = defaultdict(list)
    for s in by_name["verify.run_suite"]:
        suites[s[6]].append((s[5] - s[4]) / 1e9)
    suites["hull-vs-kl"] += dur("verify.suite_hull_vs_kl", 1e9)
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}_s"] = _median(suites[suite])
    m["trace.overhead_pct"] = overhead_pct
    return m

