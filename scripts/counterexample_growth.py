#!/usr/bin/env python3
"""Tabulate the sparse-union growth: weak Lorentz norms diverge with the
truncation depth while the weighted ball norms stay under the
geometric-series constant.

usage: counterexample_growth.py [q p alpha [max_levels]]
"""

import sys

from amalgams.counterexample import fractional_bound_constant, union_growth


def main(q: float = 1.0, p: float = 4.0, alpha: float = 2.0, max_levels: int = 8) -> int:
    consts = fractional_bound_constant(q, p, alpha)
    print(f"(q, p, alpha) = ({q}, {p}, {alpha}); series bound = {consts.bound:.4f}")
    print(f"{'N':>2s} {'measure':>12s} {'weak norm':>12s} {'ball norm':>12s} {'margin':>10s}")
    for lvl in union_growth(q, p, alpha, max_levels):
        val = lvl["fractional_ball_norm"]
        print(
            f"{lvl['levels']:2d} {lvl['measure']:12.6f} {lvl['weak_lorentz']:12.6f} {val:12.6f}"
            f" {consts.bound - val:10.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(*(float(a) for a in sys.argv[1:4]), *([int(sys.argv[4])] if len(sys.argv) > 4 else [])))
