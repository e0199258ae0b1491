"""repgame benchmark: time the CLI's answers on seeded workloads and check them.

    python3 benchmark/run.py --workload bounds --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``). Each workload runs whole rounds of answers, one after another in
this process, through ``repgame.cli.main``; every answer is checked against
computations made apart from the program (``checks.py``). With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer
metrics of a traced run, and the spans go to ``bench_runs/traces/``.
See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / "bench_runs"
SETUP_PROBES = 5
CLI_REPS = 5
IMPORT_PROBES = 3
TAIL_MIN_ANSWERS = 40
TAIL_BEYOND = 10

SETUP_PROBE = ("import sys; sys.path.insert(0, 'src'); import repgame.cli; "
               "from repgame.configio import load_config; "
               "[load_config(p) for p in sys.argv[1:]]")


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _wall(cmd: list[str], **kw) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, **kw)
    return time.perf_counter() - t0, proc


class Workload:
    """Runs and checks the answers of one workload."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        import inputs
        self.name, self.seed, self.work = name, seed, work
        self.make_round = inputs.ROUNDS[name]
        self.answers: list[dict] = []

    def prepare(self, rnd: int) -> list[tuple]:
        """Write the round's config documents; return (case, argv) pairs."""
        rdir = self.work / f"r{rnd}"
        rdir.mkdir(parents=True, exist_ok=True)
        out = []
        for i, case in enumerate(self.make_round(self.seed, rnd)):
            argv = list(case.command)
            if case.doc is not None:
                path = rdir / f"{i}.json"
                path.write_text(json.dumps(case.doc))
                argv[1:1] = ["--config", str(path)]
            if case.command[0] == "simulate":
                argv += ["--out", str(rdir / f"{i}-out")]
            out.append((case, argv))
        return out

    def config_paths(self, prepared) -> list[str]:
        return [argv[argv.index("--config") + 1] for _, argv in prepared if "--config" in argv]

    def answer(self, case, argv, tracer=None) -> dict:
        """Run one answer in-process, time it, check it."""
        from repgame import cli, verify
        import checks
        import inputs
        import tracing
        rec = {"id": len(self.answers), "kind": case.kind, "problems": [], "fault": False}
        self.answers.append(rec)
        captured = []
        swap = tracing.Patches()
        if case.command[0] == "simulate":  # the check needs the batch behind the answer
            real_mc = cli.monte_carlo

            def capture(*a, **k):
                result = real_mc(*a, **k)
                captured.append(result)
                return result

            swap.patch(cli, "monte_carlo", capture)
        buf = io.StringIO()
        if tracer is not None:
            tracer.answer = rec["id"]
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                if case.kind == "hull-vs-kl":
                    rows = verify.suite_hull_vs_kl(n_cases=inputs.HULL_VS_KL_CASES)
                    print(verify.format_results(rows))
                    rc = 0 if all(r.passed for r in rows) else 1
                else:
                    rc = cli.main(argv)
            rec["seconds"] = time.perf_counter() - t0
        except Exception:  # a crash is a failed answer; the run goes on
            rec["seconds"] = time.perf_counter() - t0
            rec["problems"].append(traceback.format_exc(limit=3))
            return rec
        finally:
            swap.uninstall()
            if tracer is not None:
                tracer.answer = -1
        text = buf.getvalue()
        if case.command[0] == "verify":
            rec["problems"] = checks.check_verify(text, rc)
            return rec
        if rc != 0:
            rec["problems"].append(f"exit code {rc}")
            return rec
        out = json.loads(text)
        if case.command[0] == "bounds":
            rec["problems"] = checks.check_bounds(case.truth, out)
        elif case.command[0] == "check-separation":
            rec["problems"] = checks.check_separation(case.truth, out)
        else:
            self._check_simulate(case, argv, out, captured[0], rec)
        return rec

    def _check_simulate(self, case, argv, out, mc_result, rec) -> None:
        import checks
        from repgame.configio import load_config
        _summary, batch = mc_result
        out_dir = Path(argv[argv.index("--out") + 1])
        summary = json.loads((out_dir / "summary.json").read_text())
        traj = checks.read_trajectory(out_dir / "trajectory.csv")
        cfg = load_config(argv[argv.index("--config") + 1])
        rec["run_periods"] = batch.runs * batch.horizon
        rec["problems"], rec["fault"] = checks.check_simulate(
            case.truth, case.doc["simulation"], out, summary, traj, batch,
            cfg.framework, cfg.game.actions_long)

    def run_round(self, prepared, tracer=None) -> float:
        """Answer a prepared round; return the time spent in answers."""
        total = 0.0
        for case, argv in prepared:
            total += self.answer(case, argv, tracer)["seconds"]
        return total


def run_rounds(wl: Workload, seconds: float, tracer=None, alloc=None) -> dict:
    """Whole rounds until the time is (nearly) used up; at least one.

    With a tracer each round is answered twice, untraced then traced, on the
    same documents, and the ratio of the two is the tracing overhead. Answers
    that simulate run a third time under ``alloc`` for their allocation peak.
    """
    start = time.perf_counter()
    walls, traced_walls, rnd = [], [], 0
    while True:
        prepared = wl.prepare(rnd)
        walls.append(wl.run_round(prepared))
        if tracer is not None:
            first = len(wl.answers)
            tracer.install()
            try:
                traced_walls.append(wl.run_round(prepared, tracer))
            finally:
                tracer.uninstall()
            users = {s[3] for s in tracer.spans if s[2] == "beliefs.monte_carlo"}
            again = [p for i, p in enumerate(prepared) if first + i in users]
            if again:
                alloc.install()
                try:
                    wl.run_round(again)
                finally:
                    alloc.uninstall()
        shutil.rmtree(wl.work / f"r{rnd}", ignore_errors=True)
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rnd >= seconds:
            return {"rounds": rnd, "round_walls": walls, "traced_walls": traced_walls}


def setup_seconds(wl: Workload) -> list[float]:
    """Fresh interpreters that import the CLI and load round 0's configs."""
    paths = wl.config_paths(wl.prepare(0))
    walls = []
    for _ in range(SETUP_PROBES):
        dt, proc = _wall([sys.executable, "-c", SETUP_PROBE] + paths)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
        walls.append(dt)
    shutil.rmtree(wl.work / "r0", ignore_errors=True)
    return walls


def cli_seconds(wl: Workload) -> list[float]:
    """Median-of-reps wall time of the workload's README command flow, each
    step in a fresh ``python -m repgame.cli`` process."""
    import checks
    import inputs
    walls = []
    for rep in range(CLI_REPS):
        d = wl.work / f"cli{rep}"
        d.mkdir(parents=True, exist_ok=True)
        total, proc = 0.0, None
        for i, (argv, doc) in enumerate(inputs.cli_flow(wl.name, wl.seed + rep)):
            cfg = d / f"step{i}.json"
            if doc is not None:
                cfg.write_text(json.dumps(doc))
            argv = [a.replace("{config}", str(cfg)).replace("{out}", str(d / "out"))
                    for a in argv]
            dt, proc = _wall([sys.executable, "-m", "repgame.cli"] + argv, env=_src_env())
            total += dt
            if proc.returncode != 0:
                raise RuntimeError(f"cli flow {argv} failed: {proc.stderr[-2000:]}")
        if wl.name == "verify" and checks.check_verify(proc.stdout, proc.returncode):
            raise RuntimeError(f"cli flow verify failed:\n{proc.stdout}")
        if wl.name != "verify":
            json.loads(proc.stdout)
        walls.append(total)
        shutil.rmtree(d, ignore_errors=True)
    return walls


def import_seconds() -> dict[str, float]:
    """``-X importtime`` of ``import repgame``: the package total and every
    scipy module's own time, medians over fresh interpreters."""
    pkg, sci = [], []
    for _ in range(IMPORT_PROBES):
        _dt, proc = _wall([sys.executable, "-X", "importtime", "-c", "import repgame"],
                          env=_src_env())
        total_repgame, total_scipy = 0.0, 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line.split("|")
            try:
                own, cumulative = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            if name == "repgame":
                total_repgame = cumulative / 1e6
            if name.split(".")[0] == "scipy":
                total_scipy += own / 1e6
        pkg.append(total_repgame)
        sci.append(total_scipy)
    return {"repgame": statistics.median(pkg), "scipy": statistics.median(sci)}


def answer_tail(times: list[float]) -> tuple[float, float] | None:
    """p95, or p90 or p75 on smaller runs: the highest of these with at least
    10 answers beyond it. Higher percentiles are left out on purpose: on
    separation they fall among a few seed-dependent solver stalls and swing
    by a quarter between runs."""
    n = len(times)
    if n < TAIL_MIN_ANSWERS:
        return None
    for pct in (95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct, float(np.percentile(times, pct))
    return None


def end_to_end(wl: Workload, res: dict, setup: list[float],
               cli: list[float]) -> tuple[dict, dict]:
    times = [a["seconds"] for a in wl.answers]
    m = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(res["round_walls"]),
        "answer_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_s": statistics.median(cli),
    }
    extra = {}
    tail = answer_tail(times)
    if tail is not None:
        extra["answer_tail_ms"] = {"value": tail[1] * 1e3, "unit": "ms",
                                   "percentile": tail[0], "answers": len(times)}
    periods = sum(a.get("run_periods", 0) for a in wl.answers)
    if periods:
        sim_time = sum(a["seconds"] for a in wl.answers if "run_periods" in a)
        extra["run_periods_per_s"] = {"value": periods / sim_time, "unit": "1/s"}
    return m, extra


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metrics_block(values: dict, spec_rows: list[dict]) -> dict:
    return {row["name"]: {"value": float(values[row["name"]]), "unit": row["unit"]}
            for row in spec_rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bounds", "separation", "simulate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repgame" / "__init__.py").is_file():
        print(f"no repgame sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(src))
    import repgame
    if Path(repgame.__file__).resolve().parent != (src / "repgame").resolve():
        print(f"imported repgame from {repgame.__file__}, not {src}", file=sys.stderr)
        return 2
    import repgame.cli  # noqa: F401  (loads every layer before timing)
    import tracing

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / "work" / f"{tag}-pid{os.getpid()}"
    wl = Workload(args.workload, args.seed, work)
    spec = _spec()
    try:
        if args.trace:
            tracer, alloc = tracing.Tracer(), tracing.AllocProbe()
            res = run_rounds(wl, args.seconds, tracer, alloc)
            overhead = 100.0 * (sum(res["traced_walls"]) / sum(res["round_walls"]) - 1.0)
            values = tracing.layer_metrics(tracer, wl.answers, res["rounds"],
                                           import_seconds(), alloc.peaks, overhead)
            metrics, extra = _metrics_block(values, spec["per_layer"]), {}
            (OUT_DIR / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(OUT_DIR / "traces" / f"{tag}.json", wl.answers)
            table = tracer.span_table()
        else:
            setup = setup_seconds(wl)
            res = run_rounds(wl, args.seconds)
            cli = cli_seconds(wl)
            values, extra = end_to_end(wl, res, setup, cli)
            metrics, table = _metrics_block(values, spec["end_to_end"]), None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [a for a in wl.answers if a["problems"] or a["fault"]]
    wrong = [a for a in wl.answers if a["problems"]]
    result = {"correct": not wrong, "attempted": len(wl.answers), "failed": len(failed),
              "metrics": metrics}
    _report(args, wl, res, result, extra, table)
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "results" / f"{tag}.json", "w") as fh:
        json.dump({**result, "extra": extra, "rounds": res["rounds"],
                   "round_walls": res["round_walls"],
                   "answers": [{k: a[k] for k in ("kind", "seconds", "fault", "problems")}
                               for a in wl.answers]}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def _report(args, wl, res, result, extra, table) -> None:
    faults = sum(a["fault"] for a in wl.answers)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{res['rounds']} round(s), {result['attempted']} answers, "
          f"{result['failed']} failed ({faults} on the kept decay-slope fault)")
    for a in wl.answers:
        for p in a["problems"]:
            print(f"  WRONG {a['kind']} #{a['id']}: {p}")
    for name, m in {**result["metrics"], **extra}.items():
        note = ""
        if "percentile" in m:
            note = f"  (p{m['percentile']:g} of {m['answers']} answers)"
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{note}")
    if table:
        print("  span self times (ms): name, calls, total, self")
        for name, row in list(table.items())[:25]:
            print(f"    {name:42s} {row['calls']:8d} {row['total_ms']:12.2f} "
                  f"{row['self_ms']:12.2f}")


if __name__ == "__main__":
    sys.exit(main())
