import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import off_curve_integrals
from rhwznw import cli, fuchs, numcore, rhsolve, wznw


def rank1_config():
    return cli.ProblemConfig(
        points=[-1.3, 0.0, 1.0],
        weights=np.array([[0.3], [0.45], [0.8], [0.45]]),
        conjugators=[np.eye(1, dtype=complex)] * 3,
        residues=np.array([[[0.3]], [[0.45]], [[0.8]]], dtype=complex),
    )


def rank2_config():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    return cli.ProblemConfig(
        points=[0.0, 1.0],
        weights=ws.weights,
        conjugators=fuchs.rank2_closure_conjugators(ws),
        residues=fuchs.rank2_rigid_residues(ws),
    )


def test_config_round_trip(tmp_path):
    cfg = rank2_config()
    cli.save_config(cfg, tmp_path / "a.json")
    cfg2 = cli.load_config(tmp_path / "a.json")
    cli.save_config(cfg2, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_config_missing_weights(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"points": [[0.0, 0.0]]}))
    rc = cli.main(["monodromy", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION


def test_config_error_names_field(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"points": [[0.0, 0.0]]}))
    rc = cli.main(["monodromy", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_VALIDATION
    assert "weights" in err


def test_monodromy_rank1(tmp_path):
    cfg = rank1_config()
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == 0
    rec = json.loads((tmp_path / "result.json").read_text())
    assert rec["command"] == "monodromy"
    assert rec["library_version"]
    assert rec["config_sha256"] == cli.config_hash(cfg)
    # loop transports carry exp(-2 pi i alpha); generators the inverse
    for i, a in enumerate((0.3, 0.45, 0.8)):
        lt = complex(*rec["loop_transports"][i][0][0])
        assert abs(lt - np.exp(-2j * np.pi * a)) < 1e-7
        gen = complex(*rec["generators"][i][0][0])
        assert abs(gen - np.exp(2j * np.pi * a)) < 1e-7
    assert rec["relation_residual"] <= 1e-7


def test_monodromy_resonant_residues_exit(tmp_path, capsys):
    # exponents -0.3 and -1.3 at infinity differ by an integer: the loop
    # circles have no series form there, and the command exits 3 with no result
    cfg = rank2_config()
    cfg.residues[1] = -np.diag([-0.3, -1.3]) - cfg.residues[0]
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err.startswith("error: ResonanceError:")
    assert not (tmp_path / "result.json").exists()


def test_monodromy_solved_fixture(tmp_path):
    cfg = rank2_config()
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == 0
    rec = json.loads((tmp_path / "result.json").read_text())
    assert rec["relation_residual"] <= 1e-7


@pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2, 3)], ids=["3x3", "2x3"])
def test_monodromy_refuses_a_conjugator_shape(tmp_path, capsys, shape):
    # a representation whose conjugators do not fit the rank exits 2 with the
    # shape it expects, not with numpy's broadcast or matmul-signature message
    cfg = replace(rank2_config(), residues=None, conjugators=np.ones(shape, dtype=complex))
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err.strip()
    assert rc == cli.EXIT_VALIDATION
    assert err == (
        "error: ValueError: expected the 2 conjugators U_1 .. U_2 as an array of shape "
        f"(2, 2, 2), got shape {shape}"
    )


def test_monodromy_relation_order_off_the_axis(tmp_path):
    # seen from z0 = 2i |z_0| the loops leave in the order 1, 0, 2, which is not
    # the order of the real parts: the relation holds in the reported order
    points = [-1 - 1.9j, -0.9 + 1.9j, 0.5 + 0.2j]
    ws = fuchs.build_weight_system(points, [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]])
    rng = np.random.default_rng(3)
    c = np.eye(2) + 0.3 * (rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
    residues = c @ numcore.diag_stack(ws.weights[:-1]) @ np.linalg.inv(c)
    cfg = cli.ProblemConfig(points=points, weights=ws.weights, residues=residues)
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == 0
    rec = json.loads((tmp_path / "result.json").read_text())
    assert rec["relation_order"] == [1, 0, 2]
    assert rec["basepoint"] == [0.0, ws.loops.z0.imag]
    assert rec["relation_residual"] <= 1e-8


def test_monodromy_ten_points_on_a_line(tmp_path):
    # the leg to the lowest point detours round the nine loop circles above it
    alphas = 0.1 + 0.05 * np.arange(10)
    cfg = cli.ProblemConfig(
        points=list(-0.5j * np.arange(10)),
        weights=np.array([[a] for a in alphas] + [[0.75]]),
        residues=alphas.reshape(-1, 1, 1).astype(complex),
    )
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == 0
    rec = json.loads((tmp_path / "result.json").read_text())
    assert rec["relation_residual"] <= 1e-12
    assert rec["relation_order"] == list(range(10))


def test_monodromy_from_a_representation(tmp_path):
    # the "representation" source: the closed tuple's generators, spectra and relation
    cfg = replace(rank2_config(), residues=None)
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == 0
    rec = json.loads((tmp_path / "result.json").read_text())
    assert rec["source"] == "representation" and rec["irreducible"] is True
    assert rec["relation_residual"] <= 1e-12
    phases = [s["phases"] for s in rec["spectra"]]
    assert np.allclose(phases, [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]], rtol=0, atol=1e-12)


def test_rhsolve_rank1(tmp_path):
    cfg = rank1_config()
    cfg.residues = None
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["rhsolve", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == 0
    rec = json.loads((tmp_path / "result.json").read_text())
    assert rec["success"] and rec["final_residual"] <= 1e-8
    # the chart has dimension 0: the history holds the one cost evaluated
    assert rec["iterations"] == 0 and len(rec["objective_history"]) == 1
    assert np.isfinite(rec["objective_history"][0])
    # the residues file loads back as a valid config
    out_cfg = cli.load_config(tmp_path / "residues.json")
    assert out_cfg.residues is not None


def test_rhsolve_saves_the_canonical_residues(tmp_path, monkeypatch):
    # the solve stops somewhere along the conjugation orbit of its residues;
    # the file holds the canonical gauge, which a conjugated system reaches too
    cfg = rank2_config()
    cfg.residues = None
    cli.save_config(cfg, tmp_path / "cfg.json")
    solved = []
    solve = rhsolve.solve
    monkeypatch.setattr(rhsolve, "solve", lambda *a, **k: solved.append(solve(*a, **k)) or solved[-1])
    rc = cli.main(["rhsolve", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == 0
    saved = cli.load_config(tmp_path / "residues.json").residues
    _, report = solved[0]
    assert np.array_equal(saved, report.normalization.canonical_system.residues)
    ws = cfg.weight_system()
    target = fuchs.build_admissible_rep(ws, cfg.conjugators)
    system = fuchs.FuchsianSystem(ws, saved)
    rng = np.random.default_rng(5)
    g = np.eye(2) + 1e-3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    again = rhsolve.normalize_at_infinity(system.conjugated(g), target).canonical_system
    assert np.linalg.norm(again.residues - saved) <= 1e-12 * np.linalg.norm(saved)


def test_rhsolve_reducible_rejected(tmp_path, capsys):
    cfg = cli.ProblemConfig(
        points=[0.0, 1.0],
        weights=np.array([[0.1, 0.6], [0.4, 0.7], [0.5, 0.7]]),
        conjugators=[np.eye(2, dtype=complex)] * 2,
    )
    cli.save_config(cfg, tmp_path / "cfg.json")
    with pytest.warns(UserWarning):
        rc = cli.main(["rhsolve", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert "reducible" in capsys.readouterr().err


def test_action_abelian_fixture(tmp_path):
    cfg = rank1_config()
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == 0
    rec = json.loads((tmp_path / "result.json").read_text())
    ws = fuchs.build_weight_system(cfg.points, cfg.weights)
    oracle = wznw.abelian_action_closed_form(ws)
    assert abs(rec["value"] - oracle) <= 1e-3 * abs(oracle)
    # the record counts the nodes of the web that the action built
    fld = wznw.make_metric_field(fuchs.FuchsianSystem(ws, cfg.residues), cli._target_rep(cfg, ws))
    web = wznw.TransportWeb(fld, tuple(sorted(cfg.delta_schedule, reverse=True)))
    assert rec["web_nodes"] == sum(len(r.rho) for r in web.regions)
    lines = (tmp_path / "deltas.csv").read_text().splitlines()
    assert lines[0] == "delta,kinetic,topological,counterterm,total"
    assert len(lines) == 5


@pytest.mark.parametrize(
    "points, where",
    [([-0.3, 0.0, 0.2], "puncture 1"), ([-6.5, 0.0, 5.0], "infinity")],
    ids=["close-pair", "far-point"],
)
def test_action_delta_outside_a_ring_exits_2(tmp_path, capsys, points, where):
    # the default schedule's 0.1 does not fit the ring of puncture 1 (0.1)
    # or of infinity (1/13): a validation error naming the point and the bound
    cli.save_config(replace(rank1_config(), points=points), tmp_path / "cfg.json")
    rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert f"of {where}: every delta must be below" in err
    assert not (tmp_path / "out" / "result.json").exists()


def test_action_non_regular_exit(tmp_path, monkeypatch):
    cfg = rank2_config()
    cli.save_config(cfg, tmp_path / "cfg.json")

    def refuse(*args, **kwargs):
        raise wznw.RegularLocusError("outside the regular locus")

    monkeypatch.setattr(wznw, "make_metric_field", refuse)
    rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_REGULAR_LOCUS


def test_action_off_curve_totals_exit_3(tmp_path, capsys, monkeypatch):
    # a delta fit the action refuses ends as a numerical failure: one error
    # line and no result.json
    cli.save_config(rank1_config(), tmp_path / "cfg.json")
    monkeypatch.setattr(wznw.TransportWeb, "integrals_at", off_curve_integrals)
    rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    err = capsys.readouterr().err.strip()
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert err.startswith("error: UnreliableExtrapolationError:") and "\n" not in err
    assert not (tmp_path / "result.json").exists()


def test_odd_degree_rhsolve_then_action_exits_4(tmp_path, capsys):
    # the splitting (-2, -1) is not scalar: the solve succeeds and saves its
    # residues, and the action refuses them as off the regular locus
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.25, 0.6], [0.15, 0.8], [0.5, 0.7]])
    cfg = cli.ProblemConfig(
        points=[0.0, 1.0], weights=ws.weights, conjugators=fuchs.rank2_closure_conjugators(ws)
    )
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["rhsolve", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "solve")])
    assert rc == cli.EXIT_OK
    rec = json.loads((tmp_path / "solve" / "result.json").read_text())
    assert rec["success"] and rec["large_cell_flag"] is False
    capsys.readouterr()
    rc = cli.main(
        ["action", "--config", str(tmp_path / "solve" / "residues.json"), "--out", str(tmp_path / "action")]
    )
    err = capsys.readouterr().err.strip()
    assert rc == cli.EXIT_REGULAR_LOCUS
    assert err.startswith("error: RegularLocusError:") and "\n" not in err
    assert not (tmp_path / "action" / "result.json").exists()


def test_action_deterministic(tmp_path):
    cfg = rank1_config()
    cli.save_config(cfg, tmp_path / "cfg.json")
    for sub in ("r1", "r2"):
        rc = cli.main(
            ["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / sub)]
        )
        assert rc == 0
    assert (tmp_path / "r1" / "result.json").read_bytes() == (
        tmp_path / "r2" / "result.json"
    ).read_bytes()
    assert (tmp_path / "r1" / "deltas.csv").read_bytes() == (
        tmp_path / "r2" / "deltas.csv"
    ).read_bytes()


def test_rhsolve_non_convergence_exit(tmp_path):
    cfg = rank2_config()
    cfg.residues = None
    cfg.solver.max_iter = 1
    cfg.solver.restarts = 1
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["rhsolve", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_CONVERGENCE
    rec = json.loads((tmp_path / "result.json").read_text())
    assert not rec["success"]
    assert rec["final_residual"] > 0  # best iterate is still reported


def test_rhsolve_short_of_the_tolerance_exit(tmp_path):
    # three LM iterations end at a squared gauge distance of 1.5e-9, a
    # distance 38 times tol: the solve fails and the command exits 3
    cfg = rank2_config()
    cfg.residues = None
    cfg.solver.max_iter = 3
    cfg.solver.restarts = 1
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(["rhsolve", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_CONVERGENCE
    rec = json.loads((tmp_path / "result.json").read_text())
    assert not rec["success"] and cfg.solver.tol**2 < rec["final_residual"] <= cfg.solver.tol


@pytest.mark.parametrize(
    "error",
    [fuchs.StiffnessError("step size underflow"), np.linalg.LinAlgError("Singular matrix")],
    ids=["stiffness", "linalg"],
)
def test_rhsolve_numerical_failure_exit(tmp_path, monkeypatch, capsys, error):
    cfg = rank1_config()
    cfg.residues = None
    cli.save_config(cfg, tmp_path / "cfg.json")

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(rhsolve, "solve", fail)
    rc = cli.main(["rhsolve", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_verify_suites(tmp_path):
    assert cli.main(["verify", "cholesky", "--seed", "2", "--count", "20",
                     "--out", str(tmp_path / "v1")]) == 0
    assert cli.main(["verify", "three-form", "--seed", "2", "--count", "20",
                     "--out", str(tmp_path / "v2")]) == 0
    rec = json.loads((tmp_path / "v2" / "result.json").read_text())
    assert rec["passed"] and rec["suite"] == "three-form"


def test_verify_unknown_suite(tmp_path, capsys):
    rc = cli.main(["verify", "bogus", "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert "unknown suite" in capsys.readouterr().err


def test_seed_and_tol_overrides(tmp_path):
    cfg = rank1_config()
    cfg.residues = None
    cli.save_config(cfg, tmp_path / "cfg.json")
    rc = cli.main(
        ["rhsolve", "--config", str(tmp_path / "cfg.json"), "--seed", "9",
         "--tol", "1e-5", "--out", str(tmp_path)]
    )
    assert rc == 0
    rec = json.loads((tmp_path / "result.json").read_text())
    assert rec["seed"] == 9


@pytest.mark.parametrize(
    "patch, fieldname",
    [
        ({"points": 5}, "points"),
        ({"solver": "x"}, "solver"),
        ({"representation": 5}, "representation"),
        ({"residues": 5}, "residues"),
        ({"action": {"delta_schedule": 5}}, "action.delta_schedule"),
        # the action's quadrature has no config field: a config that still
        # carries one, as older saved configs do, exits 2
        ({"action": {"n_phi": 192}}, "action.n_phi"),
        ({"action": {"gl_order": 8}}, "action.gl_order"),
        # a misspelt field must not leave its default in place silently
        ({"solver": {"restart": 1}}, "solver.restart"),
        ({"action": {"nphi": 8}}, "action.nphi"),
        # at every level: a misspelt section, a stray key beside the
        # conjugators, and a schema version other than 1 used to exit 0
        ({"solvr": {"tol": 1e-3}}, "solvr"),
        ({"representation": {"conjugators": [[[[1.0, 0.0]]]] * 3, "extra": 1}}, "representation.extra"),
        ({"schema_version": 99}, "schema_version"),
    ],
    ids=["points", "solver", "representation", "residues", "delta_schedule", "n_phi",
         "gl_order", "solver.restart", "action.nphi", "solvr", "representation.extra",
         "schema_version"],
)
def test_bad_config_field_exits_2(tmp_path, capsys, patch, fieldname):
    data = rank1_config().to_dict()
    data.update(patch)
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"config field '{fieldname}'" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["representation", "solver", "action"])
def test_null_section_exits_2_on_monodromy(tmp_path, capsys, section):
    # a section set to null is refused as a section of any other non-object
    # value is: "representation": null must not read as an absent
    # representation, which monodromy from residues would drop silently
    data = rank2_config().to_dict()
    data[section] = None
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"config field '{section}': expected an object" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


BAD_SCHEDULES = [
    ([0.1, 0.1, 0.1], cli.EXIT_VALIDATION),
    ([0.1, 0.1, 0.05], cli.EXIT_VALIDATION),
    ([0.1, 0.05, 0.0], cli.EXIT_VALIDATION),
    ([0.1, 0.05, -0.01], cli.EXIT_VALIDATION),
    ([0.1, 0.05, float("nan")], cli.EXIT_VALIDATION),
    ([0.1, 0.05, 1e-300], cli.EXIT_NO_CONVERGENCE),
]


@pytest.mark.parametrize(
    "schedule, code", BAD_SCHEDULES,
    ids=["all-equal", "repeated", "zero", "negative", "nan", "overflow"],
)
def test_bad_delta_schedule_exit(tmp_path, capsys, schedule, code):
    # each used to exit 0 with a wrong or NaN S, or with a traceback or an
    # unrelated code: a bad schedule stops at load (exit 2), one down to
    # 1e-300, whose quadrature would overflow, stops at the delta floor
    # (exit 3) without numpy's overflow warnings
    data = rank2_config().to_dict()
    data["action"].update(delta_schedule=schedule)
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc == code
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    if code == cli.EXIT_VALIDATION:
        assert "config field 'action.delta_schedule'" in err
    assert not (tmp_path / "out" / "result.json").exists()


def test_web_node_limit_exit(tmp_path, capsys):
    # a valid schedule of 6,000 deltas down to 1e-300, whose web would
    # exceed wznw.WEB_NODE_LIMIT, stops before the web is built
    data = rank2_config().to_dict()
    data["action"].update(delta_schedule=np.geomspace(0.1, 1e-300, 6000).tolist())
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err and "WEB_NODE_LIMIT" in err
    assert not (tmp_path / "out" / "result.json").exists()


def test_tiny_delta_at_the_default_quadrature_exit(tmp_path, capsys):
    # delta 1e-300 plans a web within WEB_NODE_LIMIT, whose circles near the
    # punctures take few angles; it lies below the delta floor
    # (wznw.DELTA_CONDITION_LIMIT), which refuses it before any node is
    # evaluated
    data = rank2_config().to_dict()
    data["action"].update(delta_schedule=[0.1, 0.05, 1e-300])
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    start = time.process_time()
    rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert time.process_time() - start < 2.0
    assert rc == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: NumericalError:") and "\n" not in err
    assert not (tmp_path / "out" / "result.json").exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_count_below_one(tmp_path, capsys, count):
    rc = cli.main(["verify", "bruhat", "--count", count, "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert "--count" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("suite", ["bruhat", "counterterm"])
def test_verify_negative_seed(tmp_path, capsys, suite):
    # refused before any suite runs, whether or not the suite draws from it
    rc = cli.main(["verify", suite, "--seed", "-1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert "--seed must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_config_exits_2_naming_it(tmp_path, capsys, case):
    # a missing file, a directory and bytes that are not UTF-8: one error
    # line naming --config, never a traceback
    path = tmp_path / "cfg.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b'{"points": "\xff"}')
    rc = cli.main(["monodromy", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--config" in err


def test_verify_out_on_a_file_exits_2_before_the_suite(tmp_path, capsys, monkeypatch):
    # an --out that is an existing file is refused before the suite runs
    ran = []
    monkeypatch.setitem(cli.verify.SUITES, "bruhat", lambda seed, count: ran.append(1) or [])
    out = tmp_path / "taken"
    out.write_text("")
    rc = cli.main(["verify", "bruhat", "--count", "1", "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    assert "--out" in capsys.readouterr().err and not ran
    assert out.read_text() == ""


@pytest.mark.parametrize("command", ["verify", "monodromy"])
def test_out_the_os_refuses_exits_2_before_the_command(tmp_path, capsys, monkeypatch, command):
    # a 300-character name is longer than any file system allows: the
    # probe of --out raised OSError, a traceback and exit 1
    ran = []
    monkeypatch.setitem(cli.verify.SUITES, "bruhat", lambda seed, count: ran.append(1) or [])
    monkeypatch.setitem(cli.COMMANDS, "monodromy", (lambda cfg, out_dir: ran.append(1) or 0, ""))
    cli.save_config(rank1_config(), tmp_path / "cfg.json")
    args = {"verify": ["verify", "bruhat", "--count", "1"],
            "monodromy": ["monodromy", "--config", str(tmp_path / "cfg.json")]}[command]
    rc = cli.main(args + ["--out", str(tmp_path / ("a" * 300))])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "--out" in err and "\n" not in err
    assert not ran


def test_action_monodromy_quality_gate(tmp_path, capsys):
    # the 0.01-perturbed fixture residues: their monodromy is not unitary
    cfg = rank2_config()
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(cfg.residues.shape) + 1j * rng.standard_normal(cfg.residues.shape)
    cfg.residues = cfg.residues + 0.01 * noise / np.sqrt(2)
    cli.save_config(cfg, tmp_path / "cfg.json")
    with pytest.warns(UserWarning, match="extrapolation disagreement"):
        rc = cli.main(["action", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "monodromy quality" in err and "\n" not in err
    assert not (tmp_path / "out" / "result.json").exists()


@pytest.mark.parametrize("fieldname", ["tol", "transport_tol"])
@pytest.mark.parametrize("value", [-1, 0])
def test_non_positive_tolerance_exits_2(tmp_path, capsys, fieldname, value):
    # a tolerance <= 0 used to pass every transport step: monodromy on the
    # fixture exited 0 with a relation residual of 0.42 at transport_tol -1;
    # transport_tol is no longer a solver field, so it now exits 2 as unknown
    data = rank2_config().to_dict()
    data["solver"][fieldname] = value
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"config field 'solver.{fieldname}'" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("fieldname, value", [("max_iter", -5), ("restarts", -2), ("seed", -1)])
def test_negative_solver_count_exits_2(tmp_path, capsys, fieldname, value):
    # all three used to load: rhsolve on the fixture ran 0 LM iterations and
    # exited 3 (no convergence), and a negative seed exited 2 with numpy's
    # message, which names no field
    data = rank2_config().to_dict()
    data["solver"][fieldname] = value
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    rc = cli.main(["rhsolve", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"config field 'solver.{fieldname}'" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_non_positive_tol_override_exits_2(tmp_path, capsys):
    cli.save_config(rank2_config(), tmp_path / "cfg.json")
    rc = cli.main(
        ["rhsolve", "--config", str(tmp_path / "cfg.json"), "--tol=-1e-9", "--out", str(tmp_path)]
    )
    assert rc == cli.EXIT_VALIDATION
    assert "config field 'solver.tol'" in capsys.readouterr().err


def test_negative_seed_override_exits_2(tmp_path, capsys):
    # used to reach the solver, whose random generator refused it without
    # naming the field
    cli.save_config(rank2_config(), tmp_path / "cfg.json")
    rc = cli.main(
        ["rhsolve", "--config", str(tmp_path / "cfg.json"), "--seed=-3", "--out", str(tmp_path)]
    )
    assert rc == cli.EXIT_VALIDATION
    assert "config field 'solver.seed'" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


INTEGER_FIELDS = [
    ("degree", None), ("max_iter", "solver"), ("restarts", "solver"), ("seed", "solver"),
]


@pytest.mark.parametrize("name, section", INTEGER_FIELDS, ids=[n for n, _ in INTEGER_FIELDS])
def test_non_integral_integer_field_exits_2(tmp_path, capsys, name, section):
    # int() used to truncate: degree -2.7 ran as degree -2
    data = rank2_config().to_dict()
    (data[section] if section else data)[name] = -2.7
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    fieldname = f"{section}.{name}" if section else name
    assert f"config field '{fieldname}'" in capsys.readouterr().err


def test_integral_floats_read_as_integers():
    cfg = rank2_config()
    cfg.degree = -2
    data = cfg.to_dict()
    floats = json.loads(json.dumps(data))
    for name, section in INTEGER_FIELDS:
        values = floats[section] if section else floats
        values[name] = float(values[name])
    read = cli.ProblemConfig.from_dict(floats)
    assert read.to_dict() == data
    assert json.dumps(read.to_dict()) == json.dumps(data)
    assert cli.config_hash(read) == cli.config_hash(cfg)


# per number field of the rank-2 config: the path to one of its entries, and
# a JSON value there that is not a number
NON_NUMBERS = [
    ("solver.tol", ("solver", "tol"), True),
    ("solver.tol", ("solver", "tol"), "1e-6"),
    ("action.delta_schedule", ("action", "delta_schedule", 0), True),
    ("action.delta_schedule", ("action", "delta_schedule", 0), "0.1"),
    ("points", ("points", 0), [False, False]),
    ("points", ("points", 1, 0), "1.0"),
    ("weights", ("weights", 0, 0), False),
    ("weights", ("weights", 0, 0), "0.15"),
    ("representation.conjugators", ("representation", "conjugators", 0, 0, 0, 1), False),
    ("residues", ("residues", 0, 0, 0, 1), "0"),
]


@pytest.mark.parametrize(
    "fieldname, path, value", NON_NUMBERS,
    ids=[f"{name}-{'string' if isinstance(v, str) else 'boolean'}" for name, _, v in NON_NUMBERS],
)
def test_non_number_in_a_number_field_exits_2(tmp_path, capsys, fieldname, path, value):
    # each used to be read: tol true ran at 1.0, a delta true as 1.0, a
    # point [false, false] as 0 and numeric strings as their numbers
    data = rank2_config().to_dict()
    *keys, last = path
    entry = data
    for key in keys:
        entry = entry[key]
    entry[last] = value
    (tmp_path / "cfg.json").write_text(json.dumps(data))
    rc = cli.main(["monodromy", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_VALIDATION
    assert f"config field '{fieldname}'" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_import_pins_blas_threads(preset):
    # the pin must land before numpy is loaded, so it is checked in a fresh
    # interpreter: the package root loads no numpy, the CLI sets an unset
    # thread count to 1 and keeps one the user set
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (
        "import os, sys, rhwznw; early = 'numpy' in sys.modules; import rhwznw.cli; "
        f"print(early, *(os.environ[k] for k in {names!r}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", preset or "1", "1", "1"]


def test_one_process_parses_every_argv_with_one_parser(tmp_path, capsys):
    # main parses with the one parser of the process: two verify runs of
    # other --seed/--count pairs each write the bytes that a fresh process
    # writes, and a bad argv after them still exits 2
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    for seed, count in (("1", "3"), ("4", "7")):
        argv = ["verify", "flatness", "--seed", seed, "--count", count]
        here, there = tmp_path / f"in{seed}", tmp_path / f"fresh{seed}"
        assert cli.main(argv + ["--out", str(here)]) == 0
        printed = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "rhwznw.cli", *argv, "--out", str(there)],
                               env=env, capture_output=True, text=True, timeout=300)
        assert fresh.returncode == 0, fresh.stderr
        assert printed == fresh.stdout
        assert (here / "result.json").read_bytes() == (there / "result.json").read_bytes()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "flatness", "--count", "three"])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "--count" in capsys.readouterr().err
