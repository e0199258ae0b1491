"""Run sets of benchmark runs and compare them.

    python3 benchmark/compare.py run --tag A --seeds 1-10      # every workload
    python3 benchmark/compare.py run --tag B --seeds 11-20 --workloads simulate
    python3 benchmark/compare.py show A
    python3 benchmark/compare.py diff A B

``run`` makes one untraced run per (workload, seed), one after another, at
``BENCHMARK.json``'s ``run_seconds``, adds them to the set (a seed run again
replaces its earlier run), and prints for every metric its median, quartiles
and spread (the interquartile distance as a share of the median, as
``statistics.quantiles(v, n=4)`` gives the quartiles) next to its bound.
``diff`` prints how far the second set's medians moved from the first's, in
the metric's worse direction, and whether the share of failed answers is the
same. Metrics outside ``BENCHMARK.json`` (reported by one workload only) are
printed without a bound. Sets are kept in ``bench_runs/compare/<tag>.json``;
run from the root of a checkout. Two sets made on a machine whose speed drifts
should alternate: ``run`` one seed into each set in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SETS = ROOT / "bench_runs" / "compare"
WORKLOADS = ("bounds", "separation", "simulate", "verify")
# Reported by one workload only and kept out of BENCHMARK.json: no bound.
UNGATED_BETTER = {"answer_tail_ms": "lower", "run_periods_per_s": "higher"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bounds() -> dict[str, tuple[str, float]]:
    return {m["name"]: (m["better"], m["bound"]) for m in _spec()["end_to_end"]}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(tag: str, workloads: list[str], seeds: list[int]) -> dict:
    seconds = _spec()["run_seconds"]
    out = {}
    for wl in workloads:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"{wl} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            res = json.loads((ROOT / "bench_runs" / "results"
                              / f"{wl}-seed{seed}-trace0.json").read_text())
            values = {k: v["value"] for k, v in last["metrics"].items()}
            values.update({k: v["value"] for k, v in res["extra"].items()})
            runs.append({"seed": seed, "correct": last["correct"],
                         "attempted": last["attempted"], "failed": last["failed"],
                         "metrics": values})
            print(f"{wl:10s} seed {seed:3d}: correct={last['correct']} "
                  f"{last['failed']}/{last['attempted']} failed  "
                  + "  ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        out[wl] = runs
    SETS.mkdir(parents=True, exist_ok=True)
    path = SETS / f"{tag}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for wl, runs in out.items():
        kept = [r for r in data.get(wl, []) if r["seed"] not in seeds]
        data[wl] = sorted(kept + runs, key=lambda r: r["seed"])
    path.write_text(json.dumps(data, indent=1))
    return data


def summarize(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name] for r in runs if name in r["metrics"]]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "n": len(vals)}
    return out


def print_set(data: dict) -> None:
    bounds = _bounds()
    for wl, runs in data.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{wl}: {len(runs)} runs, all correct={all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, s in summarize(runs).items():
            if name in bounds:
                bound = bounds[name][1]
                flag = "" if s["spread"] <= bound / 3 else (
                    "  > bound/3" if s["spread"] <= bound else "  > BOUND")
                gate = f"{bound:6.2f}{flag}"
            else:
                gate = f"{'-':>6s}"
            print(f"  {name:18s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:8.3f} {gate}")


def diff(a: dict, b: dict) -> None:
    bounds = _bounds()
    for wl in a:
        if wl not in b:
            continue
        sa, sb = summarize(a[wl]), summarize(b[wl])
        share_a = {r["failed"] / r["attempted"] for r in a[wl]}
        share_b = {r["failed"] / r["attempted"] for r in b[wl]}
        print(f"\n{wl}: failed shares {sorted(share_a)} vs {sorted(share_b)}"
              f"{'' if share_a == share_b else '  DIFFER'}")
        for name in sa:
            if name not in sb:
                continue
            better, bound = bounds.get(name, (UNGATED_BETTER.get(name, "lower"), None))
            change = sb[name]["median"] / sa[name]["median"] - 1.0
            worse = change if better == "lower" else -change
            gate = ("(no bound)" if bound is None else f"(bound {bound:.2f})"
                    + ("  WORSE THAN BOUND" if worse > bound else ""))
            print(f"  {name:18s} {sa[name]['median']:12.5g} -> {sb[name]['median']:12.5g}"
                  f"  worse by {worse:+.3f} {gate}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--tag", required=True)
    p_run.add_argument("--seeds", default="1-10")
    p_run.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    p_show = sub.add_parser("show")
    p_show.add_argument("tag")
    p_diff = sub.add_parser("diff")
    p_diff.add_argument("first")
    p_diff.add_argument("second")
    args = parser.parse_args()
    if args.cmd == "run":
        data = run_set(args.tag, args.workloads, _seeds(args.seeds))
        print_set({wl: data[wl] for wl in args.workloads})
    elif args.cmd == "show":
        print_set(json.loads((SETS / f"{args.tag}.json").read_text()))
    else:
        diff(json.loads((SETS / f"{args.first}.json").read_text()),
             json.loads((SETS / f"{args.second}.json").read_text()))


if __name__ == "__main__":
    main()
