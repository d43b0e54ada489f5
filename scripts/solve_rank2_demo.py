"""End-to-end demo on the rigid rank-2, n=3 configuration.

Builds the unitary target by the one-parameter closure solve, runs the
inverse-monodromy solver cold, normalizes at infinity, and evaluates the
regularized action.  Writes the solved config next to the outputs so the
CLI can replay every stage:

    python scripts/solve_rank2_demo.py --out demo_out
    rhwznw action --config demo_out/residues.json --out demo_out
"""

import argparse
import time
from pathlib import Path

import numpy as np

from rhwznw import cli, fuchs, rhsolve, wznw


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="demo_out")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    alphas = [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]]
    ws = fuchs.build_weight_system([0.0, 1.0], alphas)
    target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
    print(f"weights {alphas}, splitting {ws.splitting.m}, "
          f"infinity exponents {ws.infinity_exponents}")

    t0 = time.time()
    system, report = rhsolve.solve(ws, target, opts=rhsolve.SolveOptions(seed=args.seed))
    print(f"solve: residual {report.final_residual:.3e} in {report.iterations} iterations "
          f"({time.time() - t0:.1f}s), large cell: {report.large_cell_flag}")

    fld = wznw.make_metric_field(system, target)
    act = wznw.action_regularized(fld)
    print(f"action: S = {act.value:.8f}  (fit residual {act.extrapolation_error:.2e}, "
          f"kappa = {act.kappa})")
    for d, t in act.per_delta:
        print(f"  delta {d:7.4f}: corrected total {t:+.8f}")

    cfg = cli.ProblemConfig(
        points=[0.0, 1.0],
        weights=np.asarray(alphas),
        conjugators=fuchs.rank2_closure_conjugators(ws),
        residues=fld.system.residues,  # the canonical gauge, as rhwznw rhsolve saves it
    )
    cli.save_config(cfg, out / "residues.json")
    print(f"solved config written to {out / 'residues.json'}")


if __name__ == "__main__":
    main()
