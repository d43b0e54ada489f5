"""Command line interface: config ingestion, subcommands, machine output.

Config files are JSON with complex numbers as two-element [re, im] arrays
and matrices row-major.  Every result record embeds the schema version,
the library version, and a hash of the canonical config serialization, so
identical config + seed reruns are byte-identical.  The property suites of
``rhwznw verify`` live in rhwznw.verify.

Exit codes (EXIT_CODES maps exceptions to them): 0 success, 1 a verify
check failed, 2 validation/usage (ValueError, ConfigError among them),
3 non-convergence or another numerical failure (NumericalError,
LinAlgError, ProximityError), 4 regular-locus violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

# BLAS is pinned to one thread before numpy is imported: threads on 2x2 to
# 4x4 matrices only oversubscribe the cores; a value already set is kept
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__, fuchs, numcore, paths, rhsolve, verify, wznw  # noqa: E402

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_REGULAR_LOCUS = 4

# first match wins: LinAlgError subclasses ValueError but is a numerical failure
EXIT_CODES = (
    (wznw.RegularLocusError, EXIT_REGULAR_LOCUS),
    (np.linalg.LinAlgError, EXIT_NO_CONVERGENCE),
    (numcore.NumericalError, EXIT_NO_CONVERGENCE),
    (paths.ProximityError, EXIT_NO_CONVERGENCE),
    (ValueError, EXIT_VALIDATION),
)

class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"config field '{fieldname}': {message}")


# ---------------------------------------------------------------------------
# (de)serialization helpers


def _read(fieldname: str, convert, value):
    """convert(value), with a failed conversion reported on fieldname."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(fieldname, str(exc)) from exc


def _complex_array(value, fieldname: str, ndim: int) -> np.ndarray:
    """Nested lists of [re, im] pairs as a complex array with ndim axes."""
    pairs = _read(fieldname, lambda v: np.asarray(v, dtype=float), value)
    shape_ok = pairs.ndim == ndim + 1 and pairs.shape[-1] == 2 and 0 not in pairs.shape
    if not (shape_ok and np.isfinite(pairs).all()):
        kind = "a list" if ndim == 1 else "a list of matrices"
        raise ConfigError(fieldname, f"expected {kind} of finite [re, im] pairs")
    return pairs.view(complex)[..., 0]


def _complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_to_json(m: np.ndarray) -> list:
    return [[_complex_to_pair(x) for x in row] for row in np.asarray(m, dtype=complex)]


def _integer(value, low: int | None = None) -> int:
    """An integral number as an int: 3 and 3.0 are read, -2.7, true and "3"
    are not, nor one below low."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"must be at least {low}, got {int(value)}")
    return int(value)


_count = partial(_integer, low=0)


def _positive_float(value) -> float:
    x = float(value)
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"must be finite and positive, got {x}")
    return x


# the fields of the "solver" section (on ProblemConfig.solver) and of the
# "action" section (on ProblemConfig), each with the reader of its value;
# the delta schedule is checked as action_regularized checks it
SOLVER_FIELDS = (
    ("tol", _positive_float), ("max_iter", _count), ("restarts", _count),
    ("seed", _integer),
)
ACTION_FIELDS = (("delta_schedule", wznw.checked_delta_schedule),)


def _section_to_dict(obj, fields) -> dict:
    """The section's fields as JSON values: tuples become lists."""
    values = {name: getattr(obj, name) for name, _ in fields}
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}


def _section_from_dict(data: dict, section: str, fields) -> dict:
    """The fields present in data[section], read; absent ones keep their
    defaults, and a key that is not a field of the section is refused."""
    values = data.get(section, {})
    if not isinstance(values, dict):
        raise ConfigError(section, "expected an object")
    known = {name for name, _ in fields}
    for key in values:
        if key not in known:
            raise ConfigError(f"{section}.{key}", "unknown field")
    return {
        name: _read(f"{section}.{name}", convert, values[name])
        for name, convert in fields
        if name in values
    }


@dataclass
class ProblemConfig:
    points: list[complex]
    weights: np.ndarray
    degree: int | None = None
    conjugators: list[np.ndarray] | None = None
    residues: np.ndarray | None = None
    solver: rhsolve.SolveOptions = field(default_factory=rhsolve.SolveOptions)
    delta_schedule: tuple[float, ...] = wznw.DELTA_SCHEDULE

    def weight_system(self) -> fuchs.WeightSystem:
        return fuchs.build_weight_system(self.points, self.weights, self.degree)

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "points": [_complex_to_pair(z) for z in self.points],
            "weights": [[float(x) for x in row] for row in np.asarray(self.weights)],
            "solver": _section_to_dict(self.solver, SOLVER_FIELDS),
            "action": _section_to_dict(self, ACTION_FIELDS),
        }
        if self.degree is not None:
            out["degree"] = self.degree
        if self.conjugators is not None:
            out["representation"] = {"conjugators": [_matrix_to_json(u) for u in self.conjugators]}
        if self.residues is not None:
            out["residues"] = [_matrix_to_json(a) for a in self.residues]
        return out

    @staticmethod
    def from_dict(data: dict) -> "ProblemConfig":
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        for key in ("points", "weights"):
            if key not in data:
                raise ConfigError(key, "missing required field")
        weights = _read("weights", lambda w: np.asarray(w, dtype=float), data["weights"])
        if weights.ndim != 2:
            raise ConfigError("weights", "expected an n x r matrix of reals")
        cfg = ProblemConfig(
            points=[complex(z) for z in _complex_array(data["points"], "points", 1)],
            weights=weights,
            solver=rhsolve.SolveOptions(**_section_from_dict(data, "solver", SOLVER_FIELDS)),
            **_section_from_dict(data, "action", ACTION_FIELDS),
        )
        if "degree" in data:
            cfg.degree = _read("degree", _integer, data["degree"])
        rep = data.get("representation")
        if rep is not None:
            if not isinstance(rep, dict):
                raise ConfigError("representation", "expected an object")
            if "conjugators" not in rep:
                raise ConfigError("representation.conjugators", "missing required field")
            cfg.conjugators = list(_complex_array(rep["conjugators"], "representation.conjugators", 3))
        if "residues" in data:
            cfg.residues = _complex_array(data["residues"], "residues", 3)
        return cfg


def load_config(path: str | Path) -> ProblemConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"parse error: {exc}") from exc
    return ProblemConfig.from_dict(data)


def save_config(cfg: ProblemConfig, path: str | Path) -> None:
    Path(path).write_text(canonical_json(cfg.to_dict()))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def config_hash(cfg: ProblemConfig) -> str:
    payload = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _record(cfg: ProblemConfig | None, command: str, payload: dict) -> dict:
    rec = {
        "command": command,
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
    }
    if cfg is not None:
        rec["config_sha256"] = config_hash(cfg)
        rec["seed"] = cfg.solver.seed
    rec.update(payload)
    return rec


def _write_result(out_dir: Path, record: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(canonical_json(record))


# ---------------------------------------------------------------------------
# subcommands


def _target_rep(cfg: ProblemConfig, ws: fuchs.WeightSystem) -> fuchs.AdmissibleRep:
    if cfg.conjugators is None:
        raise ConfigError("representation", "missing required field")
    return fuchs.build_admissible_rep(ws, cfg.conjugators)


def _spectra_payload(mats: list[np.ndarray]) -> list[dict]:
    return [
        {
            "index": i + 1,
            "eigenvalues": [_complex_to_pair(x) for x in lam],
            "phases": sorted(float(np.angle(x) / (2 * np.pi) % 1.0) for x in lam),
        }
        for i, lam in enumerate(map(numcore.sorted_eigvals, mats))
    ]


def cmd_monodromy(cfg: ProblemConfig, out_dir: Path) -> int:
    ws = cfg.weight_system()
    if cfg.residues is not None:
        system = fuchs.FuchsianSystem(ws, cfg.residues)
        mon = fuchs.monodromy_rep(system)
        payload = {
            "source": "residues",
            "generators": [_matrix_to_json(m) for m in mon.generators],
            "loop_transports": [_matrix_to_json(m) for m in mon.loop_transports],
            "spectra": _spectra_payload(mon.generators),
            "relation_residual": mon.relation_residual,
            "basepoint": _complex_to_pair(mon.basepoint),
            "relation_order": [int(i) for i in mon.order],
        }
    elif cfg.conjugators is not None:
        rep = _target_rep(cfg, ws)
        payload = {
            "source": "representation",
            "generators": [_matrix_to_json(m) for m in rep.generators],
            "spectra": _spectra_payload(rep.generators),
            "relation_residual": rep.relation_residual(),
            "irreducible": rep.is_irreducible(),
        }
    else:
        raise ConfigError("residues", "monodromy needs residues or a representation")
    _write_result(out_dir, _record(cfg, "monodromy", payload))
    return EXIT_OK


# the SolveReport and ActionResult fields that rhsolve and action write
RHSOLVE_RESULT_FIELDS = (
    "success", "final_residual", "iterations", "restart_index", "infinity_spectrum_error",
    "large_cell_flag", "objective_history", "message",
)
ACTION_RESULT_FIELDS = (
    "value", "counterterm_k1", "counterterm_k2", "kappa", "extrapolation_error",
    "kinetic_part", "topological_part", "imag_residual", "per_delta", "web_nodes",
)


def cmd_rhsolve(cfg: ProblemConfig, out_dir: Path) -> int:
    ws = cfg.weight_system()
    target = _target_rep(cfg, ws)
    init = fuchs.FuchsianSystem(ws, cfg.residues) if cfg.residues is not None else None
    system, report = rhsolve.solve(ws, target, init=init, opts=cfg.solver)
    payload = {name: getattr(report, name) for name in RHSOLVE_RESULT_FIELDS}
    _write_result(out_dir, _record(cfg, "rhsolve", payload))
    # a solve leaves the residues free along conjugations, where its last bits
    # decide where it stops; the canonical gauge pins them
    if report.normalization is not None:
        system = report.normalization.canonical_system
    save_config(replace(cfg, residues=system.residues), out_dir / "residues.json")
    return EXIT_OK if report.success else EXIT_NO_CONVERGENCE


def cmd_action(cfg: ProblemConfig, out_dir: Path) -> int:
    ws = cfg.weight_system()
    target = _target_rep(cfg, ws)
    if cfg.residues is None:
        raise ConfigError("residues", "action needs solved residues (run rhsolve first)")
    system = fuchs.FuchsianSystem(ws, cfg.residues)
    fld = wznw.make_metric_field(system, target)
    act = wznw.action_regularized(fld, cfg.delta_schedule)
    payload = {name: getattr(act, name) for name in ACTION_RESULT_FIELDS}
    _write_result(out_dir, _record(cfg, "action", payload))
    with open(out_dir / "deltas.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["delta", "kinetic", "topological", "counterterm", "total"]
        )
        writer.writeheader()
        for row in act.csv_rows:
            writer.writerow({k: repr(v) for k, v in row.items()})
    return EXIT_OK


def cmd_verify(suite: str, seed: int, count: int, out_dir: Path) -> int:
    if suite not in verify.SUITES:
        raise ValueError(f"unknown suite '{suite}' (choose from {sorted(verify.SUITES)})")
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    checks = [(name, bool(ok), detail) for name, ok, detail in verify.SUITES[suite](seed, count)]
    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {suite}: {name} ({detail})")
    payload = {
        "suite": suite,
        "seed": seed,
        "count": count,
        "passed": all_ok,
        "checks": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks
        ],
    }
    _write_result(out_dir, _record(None, "verify", payload))
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point


# the commands that run on a problem config, with their help texts
COMMANDS = {
    "monodromy": (cmd_monodromy, "compute monodromy generators of a Fuchsian system"),
    "rhsolve": (cmd_rhsolve, "solve the inverse monodromy problem"),
    "action": (cmd_action, "evaluate the regularized WZNW action"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhwznw",
        description="Fuchsian monodromy, Riemann-Hilbert solving, and the regularized WZNW action",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON problem config")
        p.add_argument("--seed", type=int, default=None, help="override solver seed")
        p.add_argument("--tol", type=float, default=None, help="override solver tolerance")
        p.add_argument("--out", default=".", help="output directory")
    v = sub.add_parser("verify", help="run a property-check suite")
    v.add_argument("suite", help=f"one of {sorted(verify.SUITES)}")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument(
        "--count", type=int, default=100,
        help="samples, at least 1 (counterterm checks each finite puncture and ignores it)",
    )
    v.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed, args.count, out_dir)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.solver.seed = args.seed
        if args.tol is not None:
            cfg.solver.tol = _read("solver.tol", _positive_float, args.tol)
        return COMMANDS[args.command][0](cfg, out_dir)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        code = next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
