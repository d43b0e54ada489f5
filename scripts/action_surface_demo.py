"""Sample the regularized action over a small disk in a moduli family and
take its chart Laplacian from the plus-stencil.

    python scripts/action_surface_demo.py --out surface_out --spacing 0.05

Writes surface.csv with (Re eps, Im eps, S, fit error, flag) rows, and
prints the chart Laplacian of S and of the potential -S/2.  The family's
parameter eps is not a holomorphic coordinate, so these values are
Laplacians in the chart, not the Levi form of the Kahler potential, and
their sign depends on the family's direction (rhwznw.moduli).
"""

import argparse
import time
from pathlib import Path

from rhwznw import fuchs, moduli, rhsolve

WEIGHTS = [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
POINTS = [-1.0, 0.0, 1.0]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="surface_out")
    parser.add_argument("--spacing", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    ws = fuchs.build_weight_system(POINTS, WEIGHTS)
    center = moduli.random_admissible_rep(ws, seed=args.seed)
    direction = moduli.random_tangent_direction(ws, seed=1)

    a = args.spacing
    grid = [0.0, a, -a, 1j * a, -1j * a]
    t0 = time.time()
    points = moduli.action_surface(
        center, direction, grid, solve_opts=rhsolve.SolveOptions(seed=3)
    )
    print(f"surface of {len(points)} points in {time.time() - t0:.0f}s")
    for p in points:
        tag = f"S = {p.action:+.8f}" if p.ok else f"hole ({p.message})"
        print(f"  eps = {p.eps:+.4f}: {tag}")
    moduli.surface_to_csv(points, out / "surface.csv")

    levi_s = moduli.levi_from_surface(points, 0.0, a)
    print(f"chart Laplacian of S: {levi_s:.6f}; of the potential -S/2: {-0.5 * levi_s:.6f} "
          "(eps is not a holomorphic coordinate: not the Levi form)")


if __name__ == "__main__":
    main()
