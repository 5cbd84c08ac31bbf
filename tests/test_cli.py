import json
import math
import subprocess
import sys

import pytest

from lorentz_gauge.cli import EXPERIMENTS, main
from lorentz_gauge.transport import read_queries

LIGHT = {
    "name": "light",
    "seed": 5,
    "geodesic": {"n_fixtures": 3},
    "transport": {"n_fixtures": 3},
    "broken": {"n_queries": 5},
    "reconstruct": {"per_axis": 3, "k_directions": 4},
    "interaction": {
        "thetas": [math.pi / 2],
        "r_sweep": [0.1, 0.05],
        "cone_sweep": [0.1, 0.05],
        "n_vectors": 2,
        "tol_measurement": 1e-4,
    },
}


def write_config(tmp_path, extra=None):
    cfg = json.loads(json.dumps(LIGHT))
    for key, value in (extra or {}).items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, extra=None, flags=()):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, extra)
    code = main([command, "--config", cfg, "--out", str(out), *flags])
    return code, out


def test_geodesic_exit_zero(tmp_path):
    code, out = run(tmp_path, "geodesic")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"]
    assert "geodesic" in report["results"]
    assert (out / "residuals.csv").exists()


def test_transport_checks_present(tmp_path):
    code, out = run(tmp_path, "transport")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["results"]["transport"]["checks"]}
    assert {"transport_unitarity", "transport_group_property",
            "transport_reversal"} <= names


def test_broken_writes_jsonl(tmp_path):
    code, out = run(tmp_path, "broken")
    assert code == 0
    queries = read_queries(out / "queries.jsonl")
    assert len(queries) == 5
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert all(r["status"] == "ok" for r in records)
    assert all(r["unitarity_residual"] < 1e-10 for r in records)


def test_reconstruct_strict(tmp_path):
    code, out = run(tmp_path, "reconstruct", flags=["--strict"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["results"]["reconstruct"]["checks"]}
    assert "reconstruct_unresolved" in names
    assert (out / "reconstruction.json").exists()


def test_verify_all_runs_everything(tmp_path):
    code, out = run(tmp_path, "verify-all")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["results"]) == {
        "geodesic", "transport", "broken", "reconstruct", "interaction"
    }


def test_run_respects_experiment_list(tmp_path):
    code, out = run(tmp_path, "run", extra={"experiments": ["geodesic", "transport"]})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["results"]) == {"geodesic", "transport"}


def test_determinism(tmp_path):
    _, out1 = run(tmp_path, "transport")
    cfg = write_config(tmp_path)
    out2 = tmp_path / "out2"
    main(["transport", "--config", cfg, "--out", str(out2)])
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["content_hash"] == r2["content_hash"]
    r1.pop("timings"), r2.pop("timings")
    assert r1 == r2


def test_seed_override_changes_draws(tmp_path):
    _, out1 = run(tmp_path, "transport")
    cfg = write_config(tmp_path)
    out2 = tmp_path / "out2"
    main(["transport", "--config", cfg, "--out", str(out2), "--seed", "123"])
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["content_hash"] != r2["content_hash"]


def test_schema_violation_exit_two(tmp_path, capsys):
    code, _ = run(tmp_path, "geodesic", extra={"seed": -1})
    assert code == 2
    assert "$.seed" in capsys.readouterr().err


def test_unknown_key_exit_two(tmp_path, capsys):
    code, _ = run(tmp_path, "geodesic", extra={"plotting": True})
    assert code == 2
    assert "plotting" in capsys.readouterr().err


def test_threads_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["broken", "--out", str(tmp_path / "o"), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_invalid_json_exit_two(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code = main(["geodesic", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_unsupported_capability_exit_two(tmp_path, capsys):
    # null cut times need a time-only warp; without it the query is a usage error
    metric = {"kind": "warped", "dim": 3, "beta_time_only": False,
              "beta": {"dim": 3, "constant": 1.0,
                       "waves": [{"amp": 0.3, "freq": [0.5, 0.2, 0], "phase": 0}]}}
    code, _ = run(tmp_path, "broken", extra={"metric": metric})
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "null cut time" in err and "time-only warping function" in err


def test_negative_control_exit_one(tmp_path, capsys):
    code, out = run(
        tmp_path, "reconstruct", extra={"reconstruct": {"negative_control": True}}
    )
    assert code == 1
    assert "verify_theorem" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["results"]["reconstruct"]["checks"]}
    assert not checks["verify_theorem"]["pass"]
    assert checks["verify_theorem"]["value"] > 1e-2


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "lorentz_gauge.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for name in ("geodesic", "transport", "broken", "reconstruct",
                 "interaction", "verify-all"):
        assert name in proc.stdout


def test_log_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("LORENTZ_GAUGE_LOG", "debug")
    code, _ = run(tmp_path, "geodesic")
    assert code == 0


CYLINDER = {"metric": {"kind": "cylinder"}}


def test_broken_on_cylinder_exits_by_contract(tmp_path, capsys):
    code, _ = run(tmp_path, "broken", extra=CYLINDER)
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


def test_interaction_on_cylinder_is_usage_error(tmp_path, capsys):
    code, _ = run(tmp_path, "interaction", extra=CYLINDER)
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "two spatial dimensions" in err


def test_interaction_vertex_of_wrong_length_is_usage_error(tmp_path, capsys):
    code, _ = run(tmp_path, "interaction", extra={"interaction": {"y": [3.0, 0.2, 0.1, 0.0]}})
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "$.interaction.y" in err


@pytest.mark.parametrize("vertex", [[5.9, 3.0, 0.1], [3.0, 0.8, 0.1]],
                         ids=["no-common-source-parameter", "outgoing-leg-leaves-the-set"])
def test_interaction_geometry_failure_is_a_failed_check(tmp_path, capsys, vertex):
    code, out = run(tmp_path, "interaction", extra={"interaction": {"y": vertex}})
    assert code == 1
    assert "interaction_geometry" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["results"]["interaction"]["checks"]}
    assert not checks["interaction_geometry"]["pass"]


SWEEP_METRICS = {
    "minkowski": {"kind": "minkowski", "dim": 3},
    "cylinder": {"kind": "cylinder"},
    "time-only-warp": {"kind": "warped", "dim": 3, "beta_time_only": True,
                       "beta": {"dim": 3, "constant": 1.0,
                                "waves": [{"amp": 0.3, "freq": [0.5, 0, 0], "phase": 0}]}},
    "warp": {"kind": "warped", "dim": 3, "beta_time_only": False,
             "beta": {"dim": 3, "constant": 1.0,
                      "waves": [{"amp": 0.3, "freq": [0.5, 0.2, 0], "phase": 0}]}},
    # beta = 0.5 + cos(t/2) vanishes at t = 4pi/3, inside the observation window
    "vanishing-warp": {"kind": "warped", "dim": 3, "beta_time_only": True,
                       "beta": {"dim": 3, "constant": 0.5,
                                "waves": [{"amp": 1.0, "freq": [0.5, 0, 0], "phase": 0}]}},
}
# experiments that leave the metric's domain exit 2
SWEEP_EXIT = {("broken", "vanishing-warp"): 2, ("reconstruct", "vanishing-warp"): 2,
              ("interaction", "vanishing-warp"): 2}
SWEEP_SIZES = {"geodesic": {"n_fixtures": 2}, "transport": {"n_fixtures": 2},
               "broken": {"n_queries": 3}}
SWEEP = ([(command, metric, 2) for metric in SWEEP_METRICS for command in EXPERIMENTS]
         + [(command, "minkowski", n) for n in (1, 3)
            for command in ("transport", "broken", "reconstruct")])


@pytest.mark.parametrize("command, metric, n", SWEEP,
                         ids=[f"{c}-{m}-n{n}" for c, m, n in SWEEP])
def test_cli_contract_sweep(tmp_path, capsys, command, metric, n):
    # every experiment on every metric kind exits by the contract: 0, 1 on a
    # failed check, 2 on what the metric cannot do; never by a traceback
    extra = dict(SWEEP_SIZES, metric=SWEEP_METRICS[metric], connection={"n": n})
    code, _ = run(tmp_path, command, extra=extra)
    assert code in (0, 1, 2)
    assert code == SWEEP_EXIT.get((command, metric), code)
    assert "Traceback" not in capsys.readouterr().err


def test_interaction_sweep_shares_one_source_parameter(tmp_path):
    # alone, r = 0.0125 takes s' = 0.582 here and r = 0.05, 0.025 take 0.553,
    # so the Cauchy check compared measurements along different legs
    code, out = run(tmp_path, "interaction", extra={"interaction": {
        "y": [3.459, -0.147, 0.142], "thetas": [1.685], "r_sweep": [0.05, 0.025, 0.0125]}})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["results"]["interaction"]["checks"]}
    assert checks["interaction_cauchy_in_r"]["pass"]


def test_interaction_zero_connection_converges(tmp_path):
    # with no connection every r measures the same vector: the consecutive
    # differences are exactly 0, which is convergence, not divergence
    code, out = run(tmp_path, "interaction", extra={"connection": {"type": "zero"},
                                                    "interaction": {"r_sweep": [0.1, 0.05, 0.025]}})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["results"]["interaction"]["checks"]}
    assert checks["interaction_cauchy_in_r"]["pass"]


FAILING = {
    "empty-diamond-minkowski": ("reconstruct", {"reconstruct": {"per_axis": 2}},
                                "reconstruct_empty_grid"),
    "empty-diamond-cylinder": ("reconstruct", {"reconstruct": {"per_axis": 2}, **CYLINDER},
                               "reconstruct_empty_grid"),
    "short-window": ("broken", {"observation": {"T": 2.9, "radius": 1.0}},
                     "broken_query_yield"),
}


@pytest.mark.parametrize("case", FAILING)
def test_cli_contract_failed_check(tmp_path, capsys, case):
    # a scenario the data cannot serve fails a named check, not by a traceback
    command, extra, check = FAILING[case]
    code, out = run(tmp_path, command, extra=extra)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    assert check in captured.out
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["results"][command]["checks"]}
    assert not checks[check]["pass"]
