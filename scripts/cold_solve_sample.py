"""Seeded sample of cold inverse solves, one JSON line per solve.

For one family of weights, every target seed (moduli.random_admissible_rep)
is solved cold at every solve seed with SolveOptions(seed, restarts); each
line holds success, the restart that ended the solve, its LM iterations and
the wall time:

    python scripts/cold_solve_sample.py W3 --targets 1 2 3 --seeds 0 3
    python scripts/cold_solve_sample.py D4 --targets 1 2 3 4 5 6 --seeds 0 3
"""

import argparse
import json
import time

from rhwznw import fuchs, moduli, rhsolve

# (points, weights) of each family
FAMILIES = {
    # the criterion-9 family, rank 2 at n = 4
    "C9": ([-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]),
    # rank 2 at n = 5
    "n5": ([-1.0, 0.0, 1.0, 0.5 + 1.0j],
           [[0.25, 0.45], [0.3, 0.55], [0.2, 0.4], [0.35, 0.5], [0.4, 0.6]]),
    # rank 3, degree -3, a scalar splitting
    "W3": ([-1.0, 0.0, 1.0], [[0.1, 0.2, 0.4], [0.15, 0.3, 0.55], [0.2, 0.3, 0.45], [0.05, 0.1, 0.2]]),
    # rank 3, degree -4, a non-scalar splitting
    "D4": ([-1.0, 0.0, 1.0], [[0.1, 0.3, 0.6], [0.15, 0.4, 0.7], [0.2, 0.35, 0.55], [0.1, 0.25, 0.3]]),
    # rank 4
    "R4": ([-1.0, 0.0, 1.0], [[0.05, 0.15, 0.3, 0.45], [0.1, 0.2, 0.35, 0.5],
                              [0.1, 0.25, 0.4, 0.55], [0.05, 0.1, 0.2, 0.25]]),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=FAMILIES)
    parser.add_argument("--targets", type=int, nargs="+", required=True, help="target seeds")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="solve seeds")
    parser.add_argument("--restarts", type=int, default=3)
    args = parser.parse_args()

    ws = fuchs.build_weight_system(*FAMILIES[args.family])
    for target_seed in args.targets:
        target = moduli.random_admissible_rep(ws, target_seed)
        for seed in args.seeds:
            t0 = time.perf_counter()
            _, report = rhsolve.solve(ws, target, opts=rhsolve.SolveOptions(seed=seed, restarts=args.restarts))
            print(json.dumps({
                "family": args.family, "target": target_seed, "seed": seed,
                "success": report.success, "restart": report.restart_index,
                "iterations": report.iterations, "seconds": round(time.perf_counter() - t0, 3),
            }), flush=True)


if __name__ == "__main__":
    main()
