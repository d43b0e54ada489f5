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


def _real(value) -> float:
    """A JSON number as a float: true, false and "1e-6" are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _reals(value) -> np.ndarray:
    """Nested lists of JSON numbers (_real) as a float array."""
    return np.array([_reals(v) for v in value] if isinstance(value, list) else _real(value))


def _complex_array(value, ndim: int) -> np.ndarray:
    """Nested lists of [re, im] pairs as a complex array with ndim axes."""
    pairs = _reals(value)
    shape_ok = pairs.ndim == ndim + 1 and pairs.shape[-1] == 2 and 0 not in pairs.shape
    if not (shape_ok and np.isfinite(pairs).all()):
        kind = "a list" if ndim == 1 else "a list of matrices"
        raise ValueError(f"expected {kind} of finite [re, im] pairs")
    return pairs.view(complex)[..., 0]


def _matrix(value) -> np.ndarray:
    """A matrix of JSON numbers (_reals)."""
    m = _reals(value)
    if m.ndim != 2:
        raise ValueError("expected an n x r matrix of reals")
    return m


def _complex_to_json(a) -> list:
    """A complex scalar or array of any shape as nested [re, im] lists, the
    form _complex_array reads back."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _integer(value) -> int:
    """An integral number as an int: 3 and 3.0 are read, -2.7, true and "3"
    are not."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _count(value) -> int:
    """An integer that is at least 0."""
    n = _integer(value)
    if n < 0:
        raise ValueError(f"must be at least 0, got {n}")
    return n


def _schema_version(value) -> int:
    """The config's schema version, which must be SCHEMA_VERSION."""
    if _integer(value) != SCHEMA_VERSION:
        raise ValueError(f"expected {SCHEMA_VERSION}, got {value!r}")
    return SCHEMA_VERSION


def _positive_float(value) -> float:
    x = _real(value)
    if not (np.isfinite(x) and x > 0):
        raise ValueError(f"must be finite and positive, got {x}")
    return x


# the top-level fields of a config, of the "representation" section, of the
# "solver" section (on ProblemConfig.solver) and of the "action" section (on
# ProblemConfig), each with the reader of its value; a section is read on
# its own, and the delta schedule is checked as action_regularized checks it
CONFIG_FIELDS = (
    ("schema_version", _schema_version), ("points", lambda v: [complex(z) for z in _complex_array(v, 1)]),
    ("weights", _matrix), ("degree", _integer), ("residues", lambda v: _complex_array(v, 3)),
    *((section, lambda v: v) for section in ("representation", "solver", "action")),
)
REPRESENTATION_FIELDS = (("conjugators", lambda v: _complex_array(v, 3)),)
SOLVER_FIELDS = (
    ("tol", _positive_float), ("max_iter", _count), ("restarts", _count),
    ("seed", _count),
)
ACTION_FIELDS = (("delta_schedule", lambda v: wznw.checked_delta_schedule(_reals(v))),)


def _section_to_dict(obj, fields) -> dict:
    """The section's fields as JSON values: tuples become lists."""
    values = {name: getattr(obj, name) for name, _ in fields}
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}


def _section_from_dict(data: dict, section: str, fields) -> dict:
    """The fields present in data[section], or in data itself for the top
    level (section ""), read; absent ones keep their defaults, and a key
    that is not a field at that level is refused."""
    values = data.get(section, {}) if section else data
    if not isinstance(values, dict):
        raise ConfigError(section or "<root>", "expected an object")
    prefix = f"{section}." if section else ""
    known = {name for name, _ in fields}
    for key in values:
        if key not in known:
            raise ConfigError(prefix + key, "unknown field")
    return {
        name: _read(prefix + name, convert, values[name])
        for name, convert in fields
        if name in values
    }


@dataclass
class ProblemConfig:
    points: list[complex]
    weights: np.ndarray
    degree: int | None = None
    conjugators: np.ndarray | None = None  # (n-1, r, r)
    residues: np.ndarray | None = None
    solver: rhsolve.SolveOptions = field(default_factory=rhsolve.SolveOptions)
    delta_schedule: tuple[float, ...] = wznw.DELTA_SCHEDULE

    def weight_system(self) -> fuchs.WeightSystem:
        return fuchs.build_weight_system(self.points, self.weights, self.degree)

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "points": _complex_to_json(self.points),
            "weights": [[float(x) for x in row] for row in np.asarray(self.weights)],
            "solver": _section_to_dict(self.solver, SOLVER_FIELDS),
            "action": _section_to_dict(self, ACTION_FIELDS),
        }
        if self.degree is not None:
            out["degree"] = self.degree
        if self.conjugators is not None:
            out["representation"] = {"conjugators": _complex_to_json(self.conjugators)}
        if self.residues is not None:
            out["residues"] = _complex_to_json(self.residues)
        return out

    @staticmethod
    def from_dict(data: dict) -> "ProblemConfig":
        top = _section_from_dict(data, "", CONFIG_FIELDS)
        for key in ("points", "weights"):
            if key not in top:
                raise ConfigError(key, "missing required field")
        cfg = ProblemConfig(
            points=top["points"], weights=top["weights"], degree=top.get("degree"),
            residues=top.get("residues"),
            solver=rhsolve.SolveOptions(**_section_from_dict(data, "solver", SOLVER_FIELDS)),
            **_section_from_dict(data, "action", ACTION_FIELDS),
        )
        if "representation" in data:
            rep = _section_from_dict(data, "representation", REPRESENTATION_FIELDS)
            if "conjugators" not in rep:
                raise ConfigError("representation.conjugators", "missing required field")
            cfg.conjugators = rep["conjugators"]
        return cfg


def load_config(path: str | Path) -> ProblemConfig:
    """The config at path; a path that cannot be read as UTF-8 text raises
    ValueError naming --config."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ValueError(f"--config {path}: {reason}") from exc
    try:
        data = json.loads(text)
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


def _check_out(out_dir: Path) -> None:
    """Refuses an --out that is no directory and cannot become one: its
    nearest existing ancestor, or itself, must be a directory, and the OS
    must accept the path.  Each refusal is a ValueError naming --out."""
    path = out_dir.absolute()
    try:
        found = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:
        # a path the OS refuses to look up, such as a name that is too long
        raise ValueError(f"--out {out_dir}: {exc.strerror}") from exc
    if not found.is_dir():
        raise ValueError(f"--out {out_dir}: {found} is not a directory")


def _write_result(out_dir: Path, record: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(canonical_json(record))


# ---------------------------------------------------------------------------
# subcommands


def _target_rep(cfg: ProblemConfig, ws: fuchs.WeightSystem) -> fuchs.AdmissibleRep:
    if cfg.conjugators is None:
        raise ConfigError("representation", "missing required field")
    return fuchs.build_admissible_rep(ws, cfg.conjugators)


def _spectra_payload(mats: np.ndarray) -> list[dict]:
    """Per generator of an (n, r, r) stack its eigenvalues, in
    numcore.sorted_eigvals' (real, imag) order, and its sorted phases."""
    lam = numcore.sorted_eigvals(mats)
    return [
        {
            "index": i + 1,
            "eigenvalues": _complex_to_json(row),
            "phases": sorted(float(np.angle(x) / (2 * np.pi) % 1.0) for x in row),
        }
        for i, row in enumerate(lam)
    ]


def cmd_monodromy(cfg: ProblemConfig, out_dir: Path) -> int:
    ws = cfg.weight_system()
    if cfg.residues is not None:
        system = fuchs.FuchsianSystem(ws, cfg.residues)
        mon = fuchs.monodromy_rep(system)
        payload = {
            "source": "residues",
            "generators": _complex_to_json(mon.generators),
            "loop_transports": _complex_to_json(mon.loop_transports),
            "spectra": _spectra_payload(mon.generators),
            "relation_residual": mon.relation_residual,
            "basepoint": _complex_to_json(ws.loops.z0),
            "relation_order": ws.loops.relation_order.tolist(),
        }
    elif cfg.conjugators is not None:
        rep = _target_rep(cfg, ws)
        payload = {
            "source": "representation",
            "generators": _complex_to_json(rep.generators),
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
        # the columns are the rows' keys, in their order (wznw.action_regularized)
        writer = csv.DictWriter(fh, fieldnames=list(act.csv_rows[0]))
        writer.writeheader()
        for row in act.csv_rows:
            writer.writerow({k: repr(v) for k, v in row.items()})
    return EXIT_OK


def cmd_verify(suite: str, seed: int, count: int, out_dir: Path) -> int:
    if suite not in verify.SUITES:
        raise ValueError(f"unknown suite '{suite}' (choose from {sorted(verify.SUITES)})")
    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    if seed < 0:
        raise ValueError(f"--seed must be at least 0, got {seed}")
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
        if name == "rhsolve":
            # the one command that runs the solver
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
        _check_out(out_dir)
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed, args.count, out_dir)
        cfg = load_config(args.config)
        if args.command == "rhsolve":
            if args.seed is not None:
                cfg.solver.seed = _read("solver.seed", _count, args.seed)
            if args.tol is not None:
                cfg.solver.tol = _read("solver.tol", _positive_float, args.tol)
        return COMMANDS[args.command][0](cfg, out_dir)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        code = next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
