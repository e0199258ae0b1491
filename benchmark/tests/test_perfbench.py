"""Tests of the benchmark itself: seeded inputs, their ground truth, and checks
that catch wrong answers.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def _docs(cases):
    return json.dumps([[c.kind, c.command, c.doc] for c in cases], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(inputs.ROUNDS))
def test_inputs_are_deterministic(workload):
    make = inputs.ROUNDS[workload]
    assert _docs(make(7, 0)) == _docs(make(7, 0))
    assert _docs(make(7, 1)) == _docs(make(7, 1))
    if workload != "verify":  # the verify suites carry their own fixed seeds
        assert _docs(make(7, 0)) != _docs(make(8, 0))
        assert _docs(make(7, 0)) != _docs(make(7, 1))


@pytest.mark.parametrize("workload", sorted(inputs.ROUNDS))
def test_round_make_up_does_not_depend_on_seed(workload):
    make = inputs.ROUNDS[workload]
    kinds = [c.kind for c in make(1, 0)]
    for seed, rnd in ((2, 0), (1, 3), (99, 5)):
        assert sorted(c.kind for c in make(seed, rnd)) == sorted(kinds)


def _kernel_ok(k):
    k = np.asarray(k)
    return (k > 0).all() and np.allclose(k.sum(axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_separation_ground_truth(seed):
    for case in inputs.separation_round(seed, 0):
        t, fw = case.truth, case.doc["framework"]
        R = t["rho"]
        assert _kernel_ok(R) and _kernel_ok(fw["kernels"]) and _kernel_ok(np.ravel(fw["prior"]))
        c = np.asarray(fw["commitment_action"])
        slices = np.asarray(t["slices"])
        for m, model in enumerate(t["models"]):
            commit = np.asarray(fw["kernels"][m][1])
            assert np.allclose(c @ commit, slices[m], atol=1e-12)
            if model["inside"]:
                assert np.allclose(np.asarray(model["alpha"]) @ R, slices[m], atol=1e-12)
            else:
                h = np.asarray(model["h"])
                assert np.abs(h).max() <= 1.0
                assert model["margin"] > 0
                assert h @ slices[m] - (R @ h).max() == pytest.approx(model["margin"], abs=1e-12)
        assert t["attainable"] == any(m["inside"] for m in t["models"])
        assert (case.kind == "inside") == t["attainable"] or case.kind == "inside_fixed"


def test_bounds_ground_truth():
    for seed in (1, 2, 3):
        for case in inputs.bounds_round(seed, 0):
            t = case.truth
            if t["scenario"] is None:
                v, R = t["v"], t["rho"]
                assert _kernel_ok(R)
                if "tie" in case.kind:
                    assert v[0, 0] == pytest.approx(v[0, 1], abs=1e-12)
                continue
            prm = t["params"]
            assert 0 < prm["q"] < prm["p"] < 1
            if t["scenario"] == "counter_example":
                assert prm["x"] < inputs.x_eps(prm) < 1.0
            assert t["attainable"] == (t["scenario"] == "counter_example"
                                       or prm["epsilon"] == 0.0)
            assert _kernel_ok(t["rho"])


def test_simulate_inputs():
    a, b = inputs.simulate_round(1, 0), inputs.simulate_round(2, 4)
    long_a = [c for c in a if c.kind == "long"][0]
    long_b = [c for c in b if c.kind == "long"][0]
    assert long_a.doc == long_b.doc  # the kept failure does not depend on the seed
    scripted = [c for c in a if c.kind == "scripted"][0].doc["simulation"]
    assert len(scripted["normal_strategy"]) == scripted["horizon"]


# ---------------------------------------------------------------------------
# the checks pass on real answers and fail on perturbed ones


def _answer(tmp_path, workload, case):
    wl = run.Workload(workload, 1, tmp_path)
    wl.make_round = lambda seed, rnd: [case]
    [(case, argv)] = wl.prepare(0)
    captured = {}
    real = checks.check_simulate

    def keep(*args):
        captured["args"] = args
        return real(*args)

    checks.check_simulate = keep
    try:
        rec = wl.answer(case, argv)
    finally:
        checks.check_simulate = real
    return rec, argv, captured.get("args")


def _out(argv):
    import contextlib
    import io
    from repgame import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def test_bounds_checks(tmp_path):
    cases = [c for c in inputs.bounds_round(3, 0) if c.truth["grid"] >= 1e-2]
    for case in cases:
        rec, argv, _ = _answer(tmp_path, "bounds", case)
        assert rec["problems"] == [], rec
        out = _out(argv)
        shifted = dict(out, W_CI_hi=out["W_CI_hi"] + 0.01)
        if case.truth["scenario"] == "product_choice":
            assert checks.check_bounds(case.truth, shifted)
        assert checks.check_bounds(case.truth, dict(out, stackelberg=out["stackelberg"] - 1e-6))
        flipped = dict(out, reputation_bound_if_alpha_star=None if case.truth["attainable"]
                       else 1.0, alpha_star=[1.0] + [0.0] * (len(case.truth["u"]) - 1))
        assert checks.check_bounds(case.truth, flipped)


def test_separation_checks(tmp_path):
    cases = inputs.separation_round(4, 0)[:24]
    for case in cases:
        rec, argv, _ = _answer(tmp_path, "separation", case)
        assert rec["problems"] == [], rec
        out = _out(argv)
        assert checks.check_separation(case.truth, dict(out, separating=not out["separating"]))
        assert checks.check_separation(case.truth, dict(out, value=out["value"] * 1.01 + 1e-9))
        if "alpha_star" in out:
            moved = [w + d for w, d in zip(out["alpha_star"], [0.01, -0.01, 0, 0])]
            assert checks.check_separation(case.truth, dict(out, alpha_star=moved))


def _small(case):
    case = copy.deepcopy(case)
    case.doc["simulation"].update(runs=40, horizon=150)
    if isinstance(case.doc["simulation"]["normal_strategy"][0], list):
        case.doc["simulation"]["normal_strategy"] = case.doc["simulation"]["normal_strategy"][:150]
    return case


def test_simulate_checks(tmp_path):
    for case in inputs.simulate_round(5, 0):
        if case.kind == "long":
            continue
        rec, argv, args = _answer(tmp_path, "simulate", _small(case))
        assert rec["problems"] == [] and not rec["fault"], rec
        truth, sim, out, summary, traj, batch, fw, actions = args
        mu = batch.mu.copy()
        mu[0, 7] = np.nextafter(mu[0, 7], 1.0)
        changed = dataclasses.replace(batch, mu=mu)
        assert checks.check_simulate(truth, sim, out, summary, traj, changed, fw, actions)[0]
        mu = batch.mu.copy()
        mu[3, 3] = 1.5
        assert checks.check_simulate(truth, sim, out, summary, traj,
                                     dataclasses.replace(batch, mu=mu), fw, actions)[0]
        nulled = dict(out, decay_slope=None)
        probs, fault = checks.check_simulate(truth, sim, nulled, dict(nulled), traj, batch,
                                             fw, actions)
        assert fault and probs == []


def test_verify_checks():
    from repgame.verify import format_results, run_suite
    text = format_results(run_suite("stackelberg"))
    assert checks.check_verify(text, 0) == []
    assert checks.check_verify(text.replace("[PASS]", "[FAIL]", 1), 0)
    assert checks.check_verify(text, 1)


def test_answer_tail_needs_forty_answers():
    assert run.answer_tail([1.0] * 39) is None
    pct, _ = run.answer_tail(list(range(400)))
    assert 400 * (1 - pct / 100) >= 10


def test_tracer_counts_objective_calls_and_restores(tmp_path):
    import tracing
    from repgame import cli, divergence
    names = [(cli, "main"), (cli, "monte_carlo"), (divergence, "linprog"),
             (divergence, "minimize_convex_over_simplex")]
    before = [getattr(owner, attr) for owner, attr in names]
    wl = run.Workload("separation", 1, tmp_path)
    wl.make_round = lambda seed, rnd: [inputs.fixed_interior_case()]
    [(case, argv)] = wl.prepare(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rec = wl.answer(case, argv, tracer)
    finally:
        tracer.uninstall()
    assert rec["problems"] == []
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(names, before))
    calls = [s[6] for s in tracer.spans if s[2] == tracing.FW_SOLVER]
    iters = [s[6] for s in tracer.spans if s[2] == "divergence.min_kl_over_attainable"]
    assert calls and min(calls) >= 1 and max(calls) >= max(iters) > 100
