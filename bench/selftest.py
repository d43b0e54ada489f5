"""Self-test: an op whose output misses a gate is counted as failed, not timed.

    python3 bench/selftest.py

Runs the rigid-action fixture op twice through the benchmark's own op
runner: once on the closed-form residues, and once on the same residues
with a seeded complex perturbation of size 0.01, whose monodromy is no
longer unitary.  The second op must be counted as failed and must not
enter op_s, and its metric field must miss the ``field.monodromy_quality``
gate.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import sys

import run

PERTURBATION = 0.01


def main() -> int:
    if not run.load_library():
        return 2
    import numpy as np

    import workloads as wl
    from rhwznw import fuchs, wznw

    ws, target = wl.fixture_problem()
    residues = fuchs.rank2_rigid_residues(ws)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(residues.shape) + 1j * rng.standard_normal(residues.shape)
    perturbed = residues + PERTURBATION * noise / np.sqrt(2)

    good_op = wl.action_op(
        "fixture", fuchs.FuchsianSystem(ws, residues), target, wl.FIXTURE_ACTION, wl.FIXTURE_ACTION_GATE
    )
    bad_op = wl.action_op(
        "perturbed", fuchs.FuchsianSystem(ws, perturbed), target, wl.FIXTURE_ACTION, wl.FIXTURE_ACTION_GATE
    )
    good = run.run_op(good_op, 0)
    bad = run.run_op(bad_op, 1)
    summary = run.summarize([good, bad], loop_s=good["seconds"] + bad.get("seconds", 0.0))
    quality = wznw.make_metric_field(fuchs.FuchsianSystem(ws, perturbed), target).monodromy_quality

    print(f"valid op: ok={good['ok']} failed_gates={good['failed_gates']}")
    print(f"perturbed op: ok={bad['ok']} failed_gates={bad['failed_gates']} error={bad.get('error')}")
    print(f"perturbed field: monodromy_quality={quality:.3g} (gate {wl.MONODROMY_QUALITY_GATE:g})")
    print(f"summary: attempted={summary['attempted']} failed={summary['failed']} op_s={summary['op_s']:.4g}")
    checks = {
        "valid op passes every gate": good["ok"],
        "perturbed op is counted as failed": not bad["ok"] and summary["failed"] == 1,
        "perturbed field misses the monodromy gate": quality > wl.MONODROMY_QUALITY_GATE,
        "op_s times only the valid op": summary["op_s"] == good["seconds"],
    }
    for name, ok in checks.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
