"""Layered benchmark of rhwznw.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Load is one serial closed loop with a single caller: the next op
starts when the previous one returns.  Ops come in whole cycles (see
``workloads.py``), and cycles repeat until ``--seconds`` have passed; a
traced run repeats the first cycle.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (setup_s, op_s, ops_per_min, peak_rss_mb).  Their
timings are reference seconds: wall time corrected for the host's speed,
sampled while the run goes on (see ``hostclock.py``); the wall-clock
figures are printed and written beside them.  With ``--trace 1`` the same
loop runs under span tracing and reports per-layer figures per op instead,
in wall seconds; before tracing starts, the first cycle runs untraced, to
warm up and as the reference for the tracing overhead.  Each run also
writes ``bench/out/<workload>-<seed>-trace<t>.json`` with the environment,
every op record and, when traced, the spans.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS must be pinned before numpy is imported: OpenBLAS threads on 2x2 to
# 4x4 matrices only oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    # a checkout that is not a repository must not report an enclosing one
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        try:
            res = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def run_op(op, op_id: int, tracer=None, cycle: int = 0) -> dict:
    """Run one op, time its library calls and apply its gates."""
    rec = {"op": op_id, "label": op.label, "cycle": cycle, "ok": False, "failed_gates": []}
    if tracer is not None:
        tracer.begin_op(op_id)
    rec["start"] = time.perf_counter()
    try:
        out = op.run()
        rec["end"] = time.perf_counter()
        rec["seconds"] = rec["end"] - rec["start"]
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    finally:
        if tracer is not None:
            tracer.end_op()
    try:
        gates = op.check(out)
    except Exception as exc:
        rec["error"] = f"gate raised {type(exc).__name__}: {exc}"
        return rec
    rec["failed_gates"] = sorted(name for name, ok in gates.items() if not ok)
    rec["ok"] = not rec["failed_gates"]
    for key in ("solve_s", "action_s"):
        if key in out:
            rec[key] = out[key]
    if "action" in out:
        rec["action"] = out["action"].value
    return rec


def load_library() -> bool:
    """Put the checkout's ``src`` on the path; False when it holds no library."""
    if not (ROOT / "src" / "rhwznw" / "__init__.py").is_file():
        print(f"error: no rhwznw sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def summarize(records: list[dict], loop_s: float, key: str = "seconds") -> dict:
    """Failed ops are counted, never timed: op_s and ops_per_min use good ops only."""
    good = [rec for rec in records if rec["ok"]]
    times = [rec[key] for rec in good]
    return {
        "attempted": len(records),
        "failed": len(records) - len(good),
        "op_s": statistics.median(times) if times else loop_s,
        "ops_per_min": 60.0 * len(good) / loop_s,
        "good": good,
    }


def run_loop(workload, state, seconds: float, tracer=None, cycle0: bool = False) -> list[dict]:
    """Whole cycles of ops, one after another, until ``seconds`` have passed.

    With ``cycle0`` every pass runs the first cycle again, so that per-op
    work counters do not depend on how many cycles fit into the run.
    """
    records: list[dict] = []
    loop_start = time.perf_counter()
    k = 0
    while True:
        for op in workload.cycle(state, 0 if cycle0 else k):
            records.append(run_op(op, len(records), tracer, cycle=k))
        k += 1
        if time.perf_counter() - loop_start >= seconds:
            return records


def main(argv=None) -> int:
    if not load_library():
        return 2
    import hostclock  # imports numpy, after the BLAS pin
    import workloads as wl

    args = parse_args(argv, wl.WORKLOADS)
    workload = wl.WORKLOADS[args.workload]
    # timings of an untraced run are in reference seconds (see hostclock.py);
    # a traced run keeps the sampler out of its spans and uses wall seconds
    clock = hostclock.HostClock()
    if not args.trace:
        clock.start()
    elapsed = clock.seconds if not args.trace else (lambda t0, t1: t1 - t0)
    t_import = time.perf_counter()

    gen_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.inputs(args.seed)
        gen_times.append(elapsed(t0, time.perf_counter()))
    t0 = time.perf_counter()
    workload.prepare(state)
    setup = {
        "import_s": elapsed(START, t_import),
        "inputs_s": statistics.median(gen_times),
        "prepare_s": elapsed(t0, time.perf_counter()),
    }
    setup_s = sum(setup.values())

    tracer = None
    reference: list[dict] = []
    if args.trace:
        import tracing

        # cycle 0 untraced, as warm-up and as the reference for the overhead
        reference = run_loop(workload, state, 0.0, cycle0=True)
        tracer = tracing.Tracer()
        tracer.install()
    loop_start = time.perf_counter()
    try:
        records = run_loop(workload, state, args.seconds, tracer, cycle0=bool(args.trace))
    finally:
        if tracer is not None:
            tracer.uninstall()
    loop_end = time.perf_counter()
    if not args.trace:
        clock.stop()
    for rec in records:
        if "end" in rec:
            rec["ref_s"] = elapsed(rec["start"], rec["end"])

    figures, late_failures = workload.finish(state, records)
    for rec in records:
        if rec["op"] in late_failures and rec["ok"]:
            rec["ok"] = False
            rec["failed_gates"].append(late_failures[rec["op"]])
    summary = summarize(records, elapsed(loop_start, loop_end), key="ref_s")
    wall = summarize(records, loop_end - loop_start)
    good, failed = summary["good"], summary["failed"]

    result: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup": setup,
        "figures": figures,
        "cycles": max((rec["cycle"] for rec in records), default=-1) + 1,
        "ops": records,
        "failed_frac": failed / len(records),
        "wall_op_s": wall["op_s"],
        "wall_ops_per_min": wall["ops_per_min"],
        "host_samples": len(clock.marks),
    }
    for key in ("solve_s", "action_s"):
        vals = [rec[key] for rec in good if key in rec]
        if vals:
            result[f"median_wall_{key}"] = statistics.median(vals)

    if args.trace:
        layer = tracer.layer_metrics([rec["op"] for rec in records])
        layer.update(figures)
        traced = [rec["seconds"] for rec in records if rec["cycle"] == 0 and "seconds" in rec]
        untraced = [rec["seconds"] for rec in reference if "seconds" in rec]
        layer["trace.overhead"] = (
            statistics.median(traced) / statistics.median(untraced) if traced and untraced else 0.0
        )
        metrics = {
            name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in tracing.UNITS
        }
        result["op_counters"] = tracer.op_counters()
        result["spans"] = tracer.dump_spans()
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": summary["op_s"], "unit": "s"},
            "ops_per_min": {"value": summary["ops_per_min"], "unit": "1/min"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics

    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_file = wl.OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str))

    print(f"environment: {json.dumps(result['environment'])}")
    for key in ("wall_op_s", "wall_ops_per_min", "median_wall_solve_s", "median_wall_action_s",
                "failed_frac"):
        if key in result:
            print(f"{key}: {result[key]:.6g}")
    for rec in records:
        if not rec["ok"]:
            print(f"FAILED op {rec['op']} ({rec['label']}): {rec.get('error') or rec['failed_gates']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"details: {out_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
