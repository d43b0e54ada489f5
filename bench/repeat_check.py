"""Count cross-check and repeatability of the traced benchmark.

    python3 bench/repeat_check.py [--seed N] [--seconds S] [WORKLOAD ...]

1. Solves the rigid rank-2 fixture cold under the tracer and compares its
   counts with the recorded baseline: 318,963 ``A_of`` calls, 9 LM
   iterations, restart 0.
2. Runs every named workload (default: all) twice with ``--trace 1`` and
   the same seed, and requires every deterministic counter (calls, steps,
   iterations, restarts, web nodes, ``A_of`` calls and points) of every op
   present in both runs, and the per-layer metrics built from them, to
   agree exactly.

Exits 0 when every comparison holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

FIXTURE_BASELINE = {"fuchs.A_of.calls": 318963, "rhsolve.lm_iterations": 9, "rhsolve.restarts": 0}


def fixture_cross_check() -> bool:
    import tracing
    import workloads as wl

    tracer = tracing.Tracer()
    tracer.install()
    try:
        rec = run.run_op(wl.solve_op("fixture", *wl.fixture_problem()), 0, tracer)
    finally:
        tracer.uninstall()
    counts = tracer.op_counters()[0]
    ok = rec["ok"]
    for key, want in FIXTURE_BASELINE.items():
        got = counts[key]
        ok &= got == want
        print(f"fixture {key}: {got:g} (baseline {want})")
    print(f"[{'PASS' if ok else 'FAIL'}] fixture cold solve matches the baseline")
    return ok


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    subprocess.run(cmd, cwd=run.ROOT, check=True, capture_output=True, timeout=600)
    out = run.BENCH_DIR / "out" / f"{workload}-{seed}-trace1.json"
    return json.loads(out.read_text())


def repeat_check(workload: str, seed: int, seconds: float) -> bool:
    import tracing

    first = traced_run(workload, seed, seconds)
    second = traced_run(workload, seed, seconds)
    a_ops, b_ops = first["op_counters"], second["op_counters"]
    common = sorted(set(a_ops) & set(b_ops), key=int)
    bad = [
        (f"op {op} {key}", a_ops[op][key], b_ops[op][key])
        for op in common
        for key in a_ops[op]
        if a_ops[op][key] != b_ops[op][key]
    ]
    # the per-layer metrics built from these counters must repeat too
    for key in tracing.DETERMINISTIC + tracing.MAXED + ["moduli.levi_margin"]:
        a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
        if a != b:
            bad.append((f"metric {key}", a, b))
    for where, a, b in bad:
        print(f"  {where}: {a!r} != {b!r}")
    ok = bool(common) and not bad
    print(
        f"[{'PASS' if ok else 'FAIL'}] {workload}: counters of {len(common)} ops "
        "and the per-layer metrics built from them repeat exactly"
    )
    return ok


def main(argv=None) -> int:
    if not run.load_library():
        return 2
    import workloads as wl

    p = argparse.ArgumentParser(description="count cross-check and repeatability")
    p.add_argument("workloads", nargs="*", help=f"any of {sorted(wl.WORKLOADS)}")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    unknown = set(args.workloads) - set(wl.WORKLOADS)
    if unknown:
        p.error(f"unknown workloads {sorted(unknown)}")
    ok = fixture_cross_check()
    for name in args.workloads or sorted(wl.WORKLOADS):
        ok &= repeat_check(name, args.seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
