"""Reputation survival versus collapse, side by side.

Two batches with the long-run player scripted to persistent high effort:

  1. survival: the counter-example framework, where some commitment slice is
     attainable by normal play at alpha*.  The discounted-KL certificate holds
     on every path and beliefs need never converge.
  2. collapse: the normal-misspecified framework, where the same certificate
     can fail once delta is large because the right-hand side
     -(1-delta) ln prior + eps shrinks below the per-period KL ceiling.

For the second batch the script reports the sure-regime threshold (rhs vs
ceiling) and the empirical fraction of paths on which the certificate holds,
at two discount factors chosen to land on either side of the threshold.

Example:
    python3 scripts/survival_demo.py
    python3 scripts/survival_demo.py --runs 2000 --horizon 2500  # slow, sharp
"""

import argparse
import sys

import numpy as np

from repgame.beliefs import (SimulationConfig, certificate_kl_ceiling,
                             discounted_kl_certificate, simulate_batch)
from repgame.divergence import find_alpha_star, separation_value
from repgame.game import Distribution
from repgame.scenarios import counter_example, normal_misspec_scenario


def _report(name, game, fw, strategy, target, delta, runs, horizon, seed):
    cfg = SimulationConfig(delta=delta, master_seed=seed, runs=runs,
                           horizon=horizon, normal_strategy=strategy,
                           alpha_star_target=target)
    batch = simulate_batch(game, fw, cfg)
    cert = discounted_kl_certificate(batch, fw, 0)
    ceiling = certificate_kl_ceiling(batch, fw)
    sure = cert.rhs >= ceiling
    print(f"\n[{name}] delta={delta}  runs={runs}  horizon={horizon}")
    print(f"  rhs = {cert.rhs:.6f}   kl ceiling = {ceiling:.6f}   "
          f"sure regime: {'yes' if sure else 'no'}")
    print(f"  lhs: mean {cert.lhs.mean():.6f}  max {cert.lhs.max():.6f}")
    print(f"  holds on {cert.holds_fraction:.1%} of paths; "
          f"eps = {cert.epsilon:.6f}")
    print(f"  final commitment posterior: mean {batch.mu[:, -1].mean():.4f}  "
          f"min {batch.mu[:, -1].min():.4f}")
    return cert


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="certificate regimes: attainable target vs misspecified normal play")
    ap.add_argument("--runs", type=int, default=400)
    ap.add_argument("--horizon", type=int, default=1200)
    ap.add_argument("--seed", type=int, default=77001)
    ap.add_argument("--deltas", type=float, nargs=2, default=[0.9, 0.995],
                    metavar=("SURE", "LARGE"))
    args = ap.parse_args(argv)

    game, fw = counter_example(0.6, 0.3, 0.05, 0.55)
    found = find_alpha_star(separation_value(fw, game.rho))
    assert found is not None, "counter-example lost its attainable slice"
    m_star, alpha_star = found
    print("=== survival: normal play at alpha* reproduces the believed slice ===")
    print(f"alpha* = {np.round(alpha_star.weights, 6)} (matches model {m_star!r})")
    cert = _report("counter_example", game, fw, alpha_star, alpha_star,
                   args.deltas[0], args.runs, args.horizon, args.seed)
    assert cert.epsilon <= 1e-12, "target slice should be exactly attainable"

    print("\n=== collapse candidate: persistent a_h under a misspecified normal model ===")
    game, fw = normal_misspec_scenario()
    a_h = Distribution(game.actions_long, [1.0, 0.0])
    for delta in args.deltas:
        _report("normal_misspec", game, fw, a_h, a_h,
                delta, args.runs, args.horizon, args.seed)

    print("\nwhen rhs >= ceiling the certificate holds on every path by "
          "construction; past the threshold only the expectation version "
          "is guaranteed, and individual paths can violate it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
