"""Command line interface: config ingestion, subcommands, machine output.

Config files are JSON with complex numbers as two-element [re, im] arrays
and matrices row-major.  Every result record embeds the schema version,
the library version, and a hash of the canonical config serialization, so
identical config + seed reruns are byte-identical.

Exit codes: 0 success, 2 validation/usage, 3 non-convergence or another
numerical failure (NumericalError, LinAlgError), 4 regular-locus violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, factor, fuchs, numcore, paths, rhsolve, wznw

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_REGULAR_LOCUS = 4


class ConfigError(ValueError):
    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field '{fieldname}': {message}")


# ---------------------------------------------------------------------------
# (de)serialization helpers


def _pair_to_complex(v, fieldname: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigError(fieldname, "complex values are [re, im] pairs")
    return complex(float(v[0]), float(v[1]))


def _complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_to_json(m: np.ndarray) -> list:
    return [[_complex_to_pair(x) for x in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows, fieldname: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ConfigError(fieldname, "expected a non-empty matrix")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ConfigError(f"{fieldname}[{i}]", "expected a matrix row")
        out.append([_pair_to_complex(x, f"{fieldname}[{i}][{j}]") for j, x in enumerate(row)])
    return np.asarray(out, dtype=complex)


@dataclass
class ProblemConfig:
    points: list[complex]
    weights: np.ndarray
    degree: int | None = None
    conjugators: list[np.ndarray] | None = None
    residues: np.ndarray | None = None
    solver: rhsolve.SolveOptions = field(default_factory=rhsolve.SolveOptions)
    delta_schedule: tuple[float, ...] = wznw.DELTA_SCHEDULE
    n_phi: int = wznw.QuadratureOptions.n_phi
    gl_order: int = wznw.QuadratureOptions.gl_order

    def weight_system(self) -> fuchs.WeightSystem:
        return fuchs.build_weight_system(self.points, self.weights, self.degree)

    def quad_options(self) -> wznw.QuadratureOptions:
        return wznw.QuadratureOptions(n_phi=self.n_phi, gl_order=self.gl_order)

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "points": [_complex_to_pair(z) for z in self.points],
            "weights": [[float(x) for x in row] for row in np.asarray(self.weights)],
            "solver": {
                "tol": self.solver.tol,
                "max_iter": self.solver.max_iter,
                "restarts": self.solver.restarts,
                "seed": self.solver.seed,
                "transport_tol": self.solver.transport_tol,
            },
            "action": {
                "delta_schedule": list(self.delta_schedule),
                "n_phi": self.n_phi,
                "gl_order": self.gl_order,
            },
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
        pts = [
            _pair_to_complex(v, f"points[{i}]") for i, v in enumerate(data["points"])
        ]
        weights = data["weights"]
        if not isinstance(weights, list) or not all(isinstance(r, list) for r in weights):
            raise ConfigError("weights", "expected an n x r matrix of reals")
        weights = np.asarray(weights, dtype=float)
        cfg = ProblemConfig(points=pts, weights=weights)
        if "degree" in data:
            cfg.degree = int(data["degree"])
        rep = data.get("representation")
        if rep is not None:
            if "conjugators" not in rep:
                raise ConfigError("representation.conjugators", "missing required field")
            cfg.conjugators = [
                _matrix_from_json(u, f"representation.conjugators[{i}]")
                for i, u in enumerate(rep["conjugators"])
            ]
        if "residues" in data:
            cfg.residues = np.asarray(
                [_matrix_from_json(a, f"residues[{i}]") for i, a in enumerate(data["residues"])]
            )
        # absent fields keep the defaults cfg was built with
        sol, d = data.get("solver", {}), cfg.solver
        cfg.solver = rhsolve.SolveOptions(
            tol=float(sol.get("tol", d.tol)),
            max_iter=int(sol.get("max_iter", d.max_iter)),
            restarts=int(sol.get("restarts", d.restarts)),
            seed=int(sol.get("seed", d.seed)),
            transport_tol=float(sol.get("transport_tol", d.transport_tol)),
        )
        act = data.get("action", {})
        cfg.delta_schedule = tuple(float(x) for x in act.get("delta_schedule", cfg.delta_schedule))
        cfg.n_phi = int(act.get("n_phi", cfg.n_phi))
        cfg.gl_order = int(act.get("gl_order", cfg.gl_order))
        return cfg


def load_config(path: str | Path) -> ProblemConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
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


def _write_json(out_dir: Path, name: str, record: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(canonical_json(record))
    return path


# ---------------------------------------------------------------------------
# subcommands


def _target_rep(cfg: ProblemConfig, ws: fuchs.WeightSystem) -> fuchs.AdmissibleRep:
    if cfg.conjugators is None:
        raise ConfigError("representation", "missing required field")
    if len(cfg.conjugators) != ws.n - 1:
        raise ConfigError(
            "representation.conjugators", f"expected {ws.n - 1} conjugator matrices"
        )
    return fuchs.build_admissible_rep(ws, cfg.conjugators)


def _spectra_payload(mats: list[np.ndarray]) -> list[dict]:
    out = []
    for i, m in enumerate(mats):
        lam = numcore.sorted_eigvals(m)
        out.append(
            {
                "index": i + 1,
                "eigenvalues": [_complex_to_pair(x) for x in lam],
                "phases": sorted(float(np.angle(x) / (2 * np.pi) % 1.0) for x in lam),
            }
        )
    return out


def cmd_monodromy(cfg: ProblemConfig, out_dir: Path) -> int:
    ws = cfg.weight_system()
    if cfg.residues is not None:
        system = fuchs.FuchsianSystem(ws, cfg.residues)
        mon = fuchs.monodromy_rep(system, tol=cfg.solver.transport_tol)
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
    _write_json(out_dir, "result.json", _record(cfg, "monodromy", payload))
    return EXIT_OK


def cmd_rhsolve(cfg: ProblemConfig, out_dir: Path) -> int:
    ws = cfg.weight_system()
    target = _target_rep(cfg, ws)
    init = fuchs.FuchsianSystem(ws, cfg.residues) if cfg.residues is not None else None
    try:
        system, report = rhsolve.solve(ws, target, init=init, opts=cfg.solver)
    except rhsolve.ReducibleTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    payload = {
        "success": report.success,
        "final_residual": report.final_residual,
        "iterations": report.iterations,
        "restart_index": report.restart_index,
        "infinity_spectrum_error": report.infinity_spectrum_error,
        "large_cell_flag": report.large_cell_flag,
        "objective_history": report.objective_history,
        "message": report.message,
    }
    _write_json(out_dir, "result.json", _record(cfg, "rhsolve", payload))
    save_config(replace(cfg, residues=system.residues), out_dir / "residues.json")
    return EXIT_OK if report.success else EXIT_NO_CONVERGENCE


def cmd_action(cfg: ProblemConfig, out_dir: Path) -> int:
    ws = cfg.weight_system()
    target = _target_rep(cfg, ws)
    if cfg.residues is None:
        raise ConfigError("residues", "action needs solved residues (run rhsolve first)")
    system = fuchs.FuchsianSystem(ws, cfg.residues)
    try:
        fld = wznw.make_metric_field(system, target)
        act = wznw.action_regularized(fld, cfg.delta_schedule, opts=cfg.quad_options())
    except wznw.RegularLocusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGULAR_LOCUS
    except wznw.UnreliableExtrapolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    payload = {
        "value": act.value,
        "counterterm_k1": act.counterterm_k1,
        "counterterm_k2": act.counterterm_k2,
        "kappa": act.kappa,
        "extrapolation_error": act.extrapolation_error,
        "kinetic_part": act.kinetic_part,
        "topological_part": act.topological_part,
        "imag_residual": act.imag_residual,
        "per_delta": [[d, t] for d, t in act.per_delta],
    }
    _write_json(out_dir, "result.json", _record(cfg, "action", payload))
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "deltas.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["delta", "kinetic", "topological", "counterterm", "total"]
        )
        writer.writeheader()
        for row in act.csv_rows:
            writer.writerow({k: repr(v) for k, v in row.items()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _oracle_bruhat_permutation(g: np.ndarray) -> tuple[int, ...]:
    """Exhaustive-permutation factorization oracle.

    Tries every permutation, solving the triangular column system by
    Gaussian elimination, and accepts when the reconstruction holds with a
    lower-triangular P; exactly one permutation may be accepted.
    """
    from itertools import permutations

    r = g.shape[0]
    accepted = []
    for perm in permutations(range(r)):
        Pi = np.zeros((r, r))
        for i, c in enumerate(perm):
            Pi[i, c] = 1.0
        inv_perm = np.argsort(np.asarray(perm))
        X = np.eye(r, dtype=complex)
        ok = True
        for c in range(r):
            k = int(inv_perm[c])
            if k == 0 or c == r - 1:
                continue
            Amat = g[:k, c + 1 :]
            rhs = -g[:k, c]
            sol, res, rank, _ = np.linalg.lstsq(Amat, rhs, rcond=None)
            X[c + 1 :, c] = sol
        gx = g @ X
        P = gx @ Pi.T
        if numcore.fro(np.triu(P, 1)) > 1e-8 * max(numcore.fro(P), 1e-300):
            ok = False
        L = np.linalg.inv(X)
        if numcore.fro(P @ Pi @ L - g) > 1e-8 * max(numcore.fro(g), 1e-300):
            ok = False
        if ok:
            accepted.append(perm)
    if len(accepted) != 1:
        raise numcore.NumericalError(f"oracle accepted {len(accepted)} permutations")
    return accepted[0]


def _suite_bruhat(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    checks = []
    worst_recon, worst_unique, mismatches = 0.0, 0.0, 0
    for k in range(count):
        r = 3 if k % 2 == 0 else 4
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        f = factor.bruhat_factor(g)
        worst_recon = max(
            worst_recon, numcore.fro(f.reconstruct() - g) / numcore.fro(g)
        )
        if f.permutation != _oracle_bruhat_permutation(g):
            mismatches += 1
        if factor.in_large_cell(g):
            f2 = factor.bruhat_large_cell_minors(g)
            worst_unique = max(
                worst_unique,
                numcore.fro(f.P - f2.P) / max(numcore.fro(f.P), 1.0),
                numcore.fro(f.L - f2.L) / max(numcore.fro(f.L), 1.0),
            )
    checks.append(("reconstruction <= 1e-10", worst_recon <= 1e-10, f"worst {worst_recon:.3e}"))
    checks.append(("oracle agreement 100%", mismatches == 0, f"{mismatches} mismatches"))
    checks.append(("large-cell uniqueness <= 1e-9", worst_unique <= 1e-9, f"worst {worst_unique:.3e}"))
    return checks


def _suite_cholesky(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    worst_ref, worst_inv = 0.0, 0.0
    for _ in range(count):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = m.conj().T @ m + 0.1 * np.eye(4)
        msq = _hpd_sqrt(h)
        f = factor.cholesky_minors(h, msq)
        b_ref = factor.cholesky_upper(h)
        worst_ref = max(worst_ref, numcore.fro(f.b - b_ref) / numcore.fro(b_ref))
        u = numcore.random_unitary(rng, 4)
        f2 = factor.cholesky_minors(h, u @ msq)
        worst_inv = max(worst_inv, numcore.fro(f.b - f2.b) / numcore.fro(f.b))
    return [
        ("textbook agreement <= 1e-9", worst_ref <= 1e-9, f"worst {worst_ref:.3e}"),
        ("U-invariance <= 1e-9", worst_inv <= 1e-9, f"worst {worst_inv:.3e}"),
    ]


def _hpd_sqrt(h: np.ndarray) -> np.ndarray:
    lam, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.sqrt(lam)) @ v.conj().T


def _suite_three_form(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(count):
        r = 2 if k % 2 == 0 else 3
        h = numcore.random_hpd(rng, r)
        xs = []
        for _ in range(3):
            m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            xs.append(0.5 * (m + m.conj().T))
        t3, dw = wznw.three_form_pair(h, *xs)
        worst = max(worst, abs(t3 - dw) / (1 + abs(t3)))
    return [("three-form identity <= 1e-5", worst <= 1e-5, f"worst {worst:.3e}")]


def _rigid_fixture_field() -> wznw.MetricField:
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
    system = fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws))
    return wznw.make_metric_field(system, target)


def _suite_flatness(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    fld = _rigid_fixture_field()
    ratios = []
    for _ in range(count):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.25, 0.45)
        z = rad * np.exp(1j * ang)
        r1 = wznw.flatness_residual(fld, z, 0.02)
        r2 = wznw.flatness_residual(fld, z, 0.01)
        ratios.append(r1 / r2)
    med = float(np.median(ratios))
    return [("Richardson ratio in [3.5, 4.5]", 3.5 <= med <= 4.5, f"median {med:.3f}")]


def _suite_counterterm(seed: int, count: int) -> list[tuple[str, bool, str]]:
    fld = _rigid_fixture_field()
    checks = []
    for i, row in enumerate(fld.weights.weights[:-1]):
        val = wznw.annulus_kinetic_integral(fld, i, 1e-4)
        pred = 2 * np.pi * np.log(2.0) * float(np.sum(row**2))
        rel = abs(val / pred - 1)
        checks.append(
            (f"annulus divergence at puncture {i + 1} <= 1e-3", rel <= 1e-3, f"rel {rel:.3e}")
        )
    return checks


SUITES = {
    "bruhat": _suite_bruhat,
    "cholesky": _suite_cholesky,
    "three-form": _suite_three_form,
    "flatness": _suite_flatness,
    "counterterm": _suite_counterterm,
}


def cmd_verify(suite: str, seed: int, count: int, out_dir: Path) -> int:
    if suite not in SUITES:
        print(
            f"error: unknown suite '{suite}' (choose from {sorted(SUITES)})",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    checks = [(name, bool(ok), detail) for name, ok, detail in SUITES[suite](seed, count)]
    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {suite}: {name} ({detail})")
    record = {
        "command": "verify",
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "suite": suite,
        "seed": seed,
        "count": count,
        "passed": all_ok,
        "checks": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks
        ],
    }
    _write_json(out_dir, "result.json", record)
    return EXIT_OK if all_ok else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhwznw",
        description="Fuchsian monodromy, Riemann-Hilbert solving, and the regularized WZNW action",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("monodromy", "compute monodromy generators of a Fuchsian system"),
        ("rhsolve", "solve the inverse monodromy problem"),
        ("action", "evaluate the regularized WZNW action"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON problem config")
        p.add_argument("--seed", type=int, default=None, help="override solver seed")
        p.add_argument("--tol", type=float, default=None, help="override solver tolerance")
        p.add_argument("--out", default=".", help="output directory")
    v = sub.add_parser("verify", help="run a property-check suite")
    v.add_argument("suite", help=f"one of {sorted(SUITES)}")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=int, default=100)
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
            cfg.solver.tol = args.tol
        if args.command == "monodromy":
            return cmd_monodromy(cfg, out_dir)
        if args.command == "rhsolve":
            return cmd_rhsolve(cfg, out_dir)
        if args.command == "action":
            return cmd_action(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # LinAlgError subclasses ValueError but is a numerical failure, not bad input
    except (np.linalg.LinAlgError, numcore.NumericalError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (fuchs.DegreeError, fuchs.StabilityRangeError, fuchs.NotAdmissibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except paths.ProximityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
