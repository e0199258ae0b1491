"""Equilibrium payoff brackets as monitoring sharpens.

Sweeps the good-signal rate p of high effort (holding the low-effort rate q
fixed) and tabulates, for each stage game:

  * the complete-information bracket [W_lo, W_hi] from the half-space scores,
  * the mixed and pure Stackelberg payoffs,
  * the reputation floor at alpha* when the framework admits an attainable
    commitment slice (blank otherwise).

In this family the ceiling has the closed form max(1, 2 - (1-p)/(p-q)): the
one-shot-deviation cap at high effort against the always-enforceable static
Nash payoff of 1.  The table doubles as a regression check on the LP path.

Example:
    python3 scripts/bounds_table.py
    python3 scripts/bounds_table.py --ps 0.5 0.7 0.9 --q 0.35 --grid 0.02
"""

import argparse
import sys

from repgame.divergence import find_alpha_star, separation_value
from repgame.scenarios import product_choice
from repgame.scores import ci_payoff_set, reputation_lower_bound, stackelberg


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="payoff bounds for the effort game across monitoring precisions")
    ap.add_argument("--ps", type=float, nargs="+",
                    default=[0.5, 0.6, 0.7, 0.8, 0.9])
    ap.add_argument("--q", type=float, default=0.3)
    ap.add_argument("--epsilon", type=float, default=0.0,
                    help="commitment-kernel inflation (0 keeps the slice attainable)")
    ap.add_argument("--grid", type=float, default=0.01)
    args = ap.parse_args(argv)

    header = ("p", "W_lo", "W_hi", "closed_form_hi", "stack_mixed",
              "stack_pure", "rep_floor")
    print("  ".join(h.rjust(14) for h in header))
    for p in args.ps:
        game, fw = product_choice(p, args.q, args.epsilon)
        ps = ci_payoff_set(game, args.grid)
        cf_hi = max(1.0, 2.0 - (1.0 - p) / (p - args.q))
        mixed_val, _ = stackelberg(game, args.grid)
        pure_val, _ = stackelberg(game, args.grid, pure=True)
        found = find_alpha_star(separation_value(fw, game.rho))
        if found is None:
            floor = "-"
        else:
            floor = f"{reputation_lower_bound(game, found[1]):.6f}"
        cells = (f"{p:.6f}", f"{ps.lo:.6f}", f"{ps.hi:.6f}", f"{cf_hi:.6f}",
                 f"{mixed_val:.6f}", f"{pure_val:.6f}", floor)
        print("  ".join(c.rjust(14) for c in cells))

    print(f"\ngrid={args.grid}, q={args.q}, epsilon={args.epsilon}")
    print("W_hi should match the closed form at any grid that contains the "
          "pure actions; the mixed Stackelberg value approaches 2.5 from "
          "below as the grid refines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
