import contextlib
import copy
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz_gauge import config
from lorentz_gauge.cli import EXPERIMENTS, SEED_OFFSETS, main
from lorentz_gauge.config import DEFAULT_SCENARIO, Fixture, _schema, load_scenario, schema_error
from lorentz_gauge.transport import read_queries, run_batch, write_results

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


def beta_block(dim=3, freq=(0.5, 0, 0)):
    return {"dim": dim, "constant": 1.0, "waves": [{"amp": 0.3, "freq": list(freq), "phase": 0}]}


# warped metric blocks the scenario reader refuses, with the field it names
MALFORMED_WARPS = {
    "warp-without-beta": ({"kind": "warped", "dim": 3}, "$.metric"),
    "warp-freq-of-wrong-length": ({"kind": "warped", "dim": 3, "beta": beta_block(freq=(0.5, 0))},
                                  "$.metric.beta.waves[0].freq"),
    "warp-beta-of-wrong-dim": ({"kind": "warped", "dim": 3,
                                "beta": beta_block(dim=2, freq=(0.5, 0))}, "$.metric.beta.dim"),
    # beta = 1 + 0.3 cos(x^1) declared a function of t alone
    "time-only-warp-with-spatial-freq": ({"kind": "warped", "dim": 3, "beta_time_only": True,
                                          "beta": beta_block(freq=(0, 1, 0))},
                                         "$.metric.beta.waves[0].freq"),
    # one g0_diag field in 2+1 passed the reader, and the metric raised without a path
    "g0-diag-of-wrong-length": ({"kind": "warped", "dim": 3, "beta": beta_block(),
                                 "g0_diag": [beta_block()]}, "$.metric.g0_diag"),
}


@pytest.mark.parametrize("case", MALFORMED_WARPS)
def test_malformed_warped_metric_is_usage_error(tmp_path, capsys, case):
    block, path = MALFORMED_WARPS[case]
    code, _ = run(tmp_path, "broken", extra={"metric": block})
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"scenario error at {path}:" in err


# scenario fields the reader refuses, with the command an unchecked value
# would crash or pass on nothing in: a center of the wrong length is
# broadcast against the points, and an empty sweep leaves the interaction
# checks nothing to compare
BAD_FIELDS = {
    "center-of-three-entries": ("broken", {"observation": {"center": [0.1, 0.2, 0.3]}},
                                "$.observation.center"),
    "center-of-one-entry": ("interaction", {"observation": {"center": [0.1]}},
                            "$.observation.center"),
    "empty-thetas": ("interaction", {"interaction": {"thetas": []}}, "$.interaction.thetas"),
    "empty-r-sweep": ("interaction", {"interaction": {"r_sweep": []}}, "$.interaction.r_sweep"),
    "empty-cone-sweep": ("interaction", {"interaction": {"cone_sweep": []}},
                         "$.interaction.cone_sweep"),
    # the cylinder is 1+1; a larger dim was ignored and every check passed
    "cylinder-of-dim-5": ("geodesic", {"metric": {"kind": "cylinder", "dim": 5},
                                       "observation": {"center": [0.1]}}, "$.metric.dim"),
    # unknown keys of a nested block passed silently: the misspelt count ran the
    # default 20 queries, and the unknown metric key was ignored
    "misspelt-broken-key": ("broken", {"broken": {"n_querys": 5}}, "$.broken"),
    "unknown-metric-key": ("geodesic", {"metric": {"kind": "minkowski", "dim": 3,
                                                   "dimension": 5}}, "$.metric"),
    "unknown-expansion-key": ("geodesic", {"metric": {"kind": "warped", "dim": 3,
                                                      "beta": {"dim": 3, "constant": 1.0,
                                                               "wave": []}}},
                              "$.metric.beta"),
    "unknown-wave-key": ("geodesic", {"metric": {"kind": "warped", "dim": 3,
                                                 "beta": {**beta_block(), "waves": [
                                                     {"amp": 0.3, "freq": [0.5, 0, 0],
                                                      "phase": 0, "width": 1}]}}},
                         "$.metric.beta.waves[0]"),
    # r >= 1 exited 2 with a message that named no field
    "r-of-one": ("interaction", {"interaction": {"r_sweep": [0.1, 1.0]}},
                 "$.interaction.r_sweep[1]"),
    "negative-interaction-amplitude": ("interaction", {"interaction": {"amplitude": -0.1}},
                                       "$.interaction.amplitude"),
}


@pytest.mark.parametrize("case", BAD_FIELDS)
def test_bad_field_is_usage_error(tmp_path, capsys, case):
    command, extra, path = BAD_FIELDS[case]
    code, _ = run(tmp_path, command, extra=extra)
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"scenario error at {path}:" in err


def test_interaction_amplitude_is_declared(tmp_path):
    # run_interaction draws its connection at interaction.amplitude
    scenario = load_scenario(write_config(tmp_path, {"interaction": {"amplitude": 0.2}}))
    assert scenario["interaction"]["amplitude"] == 0.2


# a connection or gauge too large for floating point: the transport is not
# finite, and its polar projection's SVD raised LinAlgError through a traceback
NON_FINITE = {
    "connection-amplitude-1e160": ("transport", {"connection": {"amplitude": 1e160}}),
    "gauge-amplitude-1e200": ("broken", {"gauge": {"amplitude": 1e200}}),
    "interaction-amplitude-1e200": ("interaction", {"interaction": {"amplitude": 1e200}}),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_transport_is_usage_error(tmp_path, capsys, case):
    command, extra = NON_FINITE[case]
    code, _ = run(tmp_path, command, extra=extra)
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "the transport is not finite" in err


@pytest.mark.parametrize("metric, center", [({"kind": "minkowski", "dim": 3}, [0.1, 0.2]),
                                            ({"kind": "cylinder"}, [0.1])],
                         ids=["minkowski", "cylinder"])
def test_center_of_the_metric_length_is_accepted(tmp_path, metric, center):
    # the cylinder block takes no dim from the Minkowski default
    code, _ = run(tmp_path, "geodesic",
                  extra={"metric": metric, "observation": {"center": center}})
    assert code == 0


def test_cylinder_block_without_dim_takes_no_default_dim(tmp_path):
    scenario = load_scenario(write_config(tmp_path, CYLINDER))
    assert scenario["metric"] == {"kind": "cylinder"}


def test_scenario_schema_is_a_valid_schema():
    # validate_scenario interprets the schema without checking it against the meta-schema
    schema = _schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


SWEEP_METRICS = {
    **{case: block for case, (block, _) in MALFORMED_WARPS.items()},
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
# the exit code of every experiment on every metric: 0 but where an experiment
# asks for what its metric cannot do or leaves the metric's domain
SWEEP_EXIT = {**{(command, metric): 0 for metric in SWEEP_METRICS for command in EXPERIMENTS},
              # the interaction experiment needs two spatial dimensions
              ("interaction", "cylinder"): 2,
              # beta depends on x: neither null cut times nor time separations
              ("broken", "warp"): 2, ("reconstruct", "warp"): 2, ("interaction", "warp"): 2,
              ("broken", "vanishing-warp"): 2, ("reconstruct", "vanishing-warp"): 2,
              ("interaction", "vanishing-warp"): 2,
              # a malformed metric block stops every experiment before it starts
              **{(command, case): 2 for case in MALFORMED_WARPS for command in EXPERIMENTS}}
# the reasons the vanishing warp's experiments stop: a broken-ray vertex and a
# reconstruction point outside the chart, and an interaction ray past t = 4pi/3,
# which conformal time cannot reach; and what the other two cannot do
SWEEP_REASON = {("broken", "vanishing-warp"): "warping function is not positive at this point",
                ("reconstruct", "vanishing-warp"): "point lies outside the metric chart",
                ("interaction", "vanishing-warp"): "not positive between 0 and t",
                ("interaction", "cylinder"): "needs at least two spatial dimensions",
                **{(command, "warp"): "requires a time-only warping function"
                   for command in ("broken", "reconstruct", "interaction")}}
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
    assert code == SWEEP_EXIT[(command, metric)]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert SWEEP_REASON.get((command, metric), "") in err


# every field the schema declares: (key,) at the top level, (block, key) inside a block
SCHEMA_FIELDS = ([(key,) for key, spec in _schema()["properties"].items()
                  if spec.get("type") != "object"]
                 + [(block, key) for block, spec in _schema()["properties"].items()
                    if spec.get("type") == "object" for key in spec["properties"]])
UNKNOWN_KEY = "unknown-key"
# values no number of a scenario may take; Python's json reads them as NaN and Infinity
NOT_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
EDGE_VALUES = {"empty-array": [], "wrong-length": [0.1, 0.2, 0.3, 0.4], "zero": 0,
               "negative": -1, "huge": 1e200, "wrong-type": "x", UNKNOWN_KEY: None,
               **NOT_FINITE}


def json_path(field):
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in field)


def with_edge_value(cfg, field, edge):
    """A copy of cfg with the field at the key path field set to an edge value,
    or with an unknown key beside it."""
    cfg = json.loads(json.dumps(cfg))
    block = cfg
    for key in field[:-1]:
        block = block.setdefault(key, {}) if isinstance(key, str) else block[key]
    if edge == UNKNOWN_KEY:
        block[f"{field[-1]}_unknown"] = 1
    else:
        block[field[-1]] = EDGE_VALUES[edge]
    return cfg


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(field=st.sampled_from(SCHEMA_FIELDS), edge=st.sampled_from(sorted(EDGE_VALUES)),
       command=st.sampled_from(sorted(SWEEP_SIZES)))
def test_edge_value_of_any_field_exits_by_contract(tmp_path_factory, field, edge, command):
    # one field set to an edge value (or an unknown key beside it) exits 0, 1 or 2,
    # never by an exception; a number that is not finite exits 2 and names its field
    cfg = with_edge_value(dict(LIGHT, **SWEEP_SIZES), field, edge)
    path = tmp_path_factory.mktemp("edge") / "scenario.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path), "--out", str(path.parent / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if edge in NOT_FINITE:
        assert code == 2
        assert f"scenario error at {json_path(field)}:" in err.getvalue()


def unvalidated_scenario(tmp_path, monkeypatch, extra):
    """The scenario the CLI reads for LIGHT updated by extra, merged over the
    defaults as load_scenario merges it, before any check."""
    monkeypatch.setattr(config, "validate_scenario", lambda obj: obj)
    return load_scenario(write_config(tmp_path, extra))


# the fields of the time-only warp's expansion, each at its key path
WARP = dict(SWEEP_SIZES, metric=SWEEP_METRICS["time-only-warp"])
WARP_FIELDS = [("metric", "beta_time_only"), *(("metric", "beta", key) for key in
                                               ("dim", "constant", "waves")),
               *(("metric", "beta", "waves", 0, key) for key in ("amp", "freq", "phase")),
               ("metric", "beta", "waves", 0, "freq", 1)]
# the updates of LIGHT whose scenarios the package's validator and jsonschema both
# judge, by the case that makes them
ORACLE_EXTRAS = {
    "sweep": [dict(SWEEP_SIZES, metric=SWEEP_METRICS[metric], connection={"n": n})
              for _, metric, n in SWEEP],
    "bad-field": [extra for _, extra, _ in BAD_FIELDS.values()],
    "malformed-warp": [{"metric": block} for block, _ in MALFORMED_WARPS.values()],
    # NaN and infinities are left out: jsonschema accepts them, since every
    # comparison with NaN is false and an infinity is a number
    "edge-value": [with_edge_value(cfg, field, edge)
                   for cfg, fields in ((dict(LIGHT, **SWEEP_SIZES), SCHEMA_FIELDS),
                                       (dict(LIGHT, **WARP), WARP_FIELDS))
                   for field in fields for edge in EDGE_VALUES
                   if edge not in NOT_FINITE
                   and not (edge == UNKNOWN_KEY and isinstance(field[-1], int))],
}


@pytest.mark.parametrize("case", ["default", *ORACLE_EXTRAS])
def test_validator_reports_what_jsonschema_reports(tmp_path, monkeypatch, case):
    # the same verdict as jsonschema on every scenario of the case, and the same
    # JSON path as its best_match wherever one error is the shallowest; where
    # several are (an array with a wrong entry in each place), best_match's
    # choice among them is a heuristic of its release
    schema = _schema()
    oracle = jsonschema.validators.validator_for(schema)(schema)
    scenarios = [DEFAULT_SCENARIO] if case == "default" else [
        unvalidated_scenario(tmp_path, monkeypatch, extra) for extra in ORACLE_EXTRAS[case]]
    for scenario in scenarios:
        expected = list(oracle.iter_errors(scenario))
        error = schema_error(schema, scenario)
        assert (error is None) == (not expected), scenario
        depths = [len(e.path) for e in expected]
        if depths.count(min(depths, default=0)) == 1:
            assert error[0] == jsonschema.exceptions.best_match(expected).json_path, scenario


def test_validator_reports_the_shallowest_error_first_in_schema_order():
    scenario = copy.deepcopy(DEFAULT_SCENARIO)
    scenario["observation"]["T"] = -1.0
    scenario["seed"] = -1
    assert schema_error(_schema(), scenario)[0] == "$.seed"
    # the schema declares name before seed
    scenario["name"] = 3
    assert schema_error(_schema(), scenario)[0] == "$.name"
    del scenario["metric"]
    assert schema_error(_schema(), scenario) == ("$", "'metric' is a required property")


@pytest.mark.parametrize("field, keyword", [
    (("properties", "name"), {"pattern": "^d"}),
    (("properties", "observation", "properties", "T"), {"multipleOf": 0.5}),
    ((), {"additionalProperties": {"type": "number"}}),
], ids=["pattern", "multipleOf", "additionalProperties-schema"])
def test_validator_raises_on_a_keyword_it_does_not_interpret(field, keyword):
    # a schema keyword the validator would skip could pass what the schema refuses
    schema = copy.deepcopy(_schema())
    node = schema
    for key in field:
        node = node[key]
    node.update(keyword)
    with pytest.raises(ValueError, match="unsupported schema keyword"):
        schema_error(schema, DEFAULT_SCENARIO)


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


@pytest.mark.parametrize("r_sweep", [[0.1, 0.05], [0.1, 0.05, 0.025]], ids=["two-r", "three-r"])
def test_cauchy_row_needs_two_differences_to_compare(tmp_path, r_sweep):
    # two r values give one difference, so the check would pass having compared nothing
    code, out = run(tmp_path, "interaction", extra={"connection": {"type": "zero"},
                                                    "interaction": {"r_sweep": r_sweep}})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    names = {c["name"] for c in report["results"]["interaction"]["checks"]}
    rows = {line.split(",")[0] for line in (out / "residuals.csv").read_text().splitlines()}
    present = len(r_sweep) >= 3
    assert ("interaction_cauchy_in_r" in names) == present
    assert ("interaction_cauchy_in_r" in rows) == present


GOLDEN = json.loads((Path(__file__).parent / "golden_checks.json").read_text())["checks"]


def _assert_recorded_check_values(out, command, recorded_checks):
    report = json.loads((out / "report.json").read_text())
    values = {c["name"]: c["value"] for c in report["results"][command]["checks"]}
    assert values.keys() == recorded_checks.keys()
    for name, recorded in recorded_checks.items():
        assert abs(values[name] - recorded) <= 1e-12 * max(1.0, abs(recorded)), name


@pytest.mark.parametrize("command", sorted(GOLDEN["default"]))
def test_default_check_values_match_the_recorded_ones(tmp_path, command):
    out = tmp_path / "out"
    assert main([command, "--out", str(out)]) == 0
    _assert_recorded_check_values(out, command, GOLDEN["default"][command])


@pytest.mark.parametrize("command", sorted(GOLDEN["time-only-warp"]))
def test_warp_check_values_match_the_recorded_ones(tmp_path, command):
    cfg = tmp_path / "warp.json"
    cfg.write_text(json.dumps({"metric": SWEEP_METRICS["time-only-warp"]}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    _assert_recorded_check_values(out, command, GOLDEN["time-only-warp"][command])


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


# stacks and rays of the default experiment sizes on the time-only warp:
# (integrate_geodesics stacks, rays computed by the closed form or by RK4,
# rays through transport.integrate_geodesics)
WARP_RAYS = {"geodesic": (1, 10, 0), "transport": (1, 40, 0), "broken": (60, 140, 40)}


@pytest.mark.parametrize("command", sorted(WARP_RAYS))
def test_experiments_march_each_ray_once(tmp_path, monkeypatch, command):
    # the fixtures are drawn first and computed as one stack, a transport
    # fixture's ray and its reverse included; a broken query's validated
    # legs are the legs transported, for S^A and S^(A <| phi^-1) alike.
    # A ray counts once on the path that serves it: a closed-form sample set
    # or one RK4 march of a direction (which the time-only warp never takes)
    import lorentz_gauge.geometry as geo
    import lorentz_gauge.transport as tr

    warp = type(geo.metric_from_json(SWEEP_METRICS["time-only-warp"]))
    samples, rk4_march = warp.geodesic_samples, geo._rk4_march
    integrate_geodesics = tr.integrate_geodesics
    counts = [0, 0, 0]

    def closed_form(metric, x0s, v0s, s):
        counts[0] += 1
        served = samples(metric, x0s, v0s, s)
        counts[1] += len(served)
        return served

    def march(metric, x0, v0, s_stop, n_steps):
        counts[1] += len(n_steps)
        return rk4_march(metric, x0, v0, s_stop, n_steps)

    def legs(metric, x0s, *args, **kwargs):
        counts[2] += len(x0s)
        return integrate_geodesics(metric, x0s, *args, **kwargs)

    monkeypatch.setattr(warp, "geodesic_samples", closed_form)
    monkeypatch.setattr(geo, "_rk4_march", march)
    monkeypatch.setattr(tr, "integrate_geodesics", legs)
    cfg = tmp_path / "warp.json"
    cfg.write_text(json.dumps({"metric": SWEEP_METRICS["time-only-warp"]}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert tuple(counts) == WARP_RAYS[command]


def test_transport_fixture_makes_each_transport_once(tmp_path, monkeypatch):
    # one fixture's identities: stage generators on [0, s0], [0, b], [b, s0] and the
    # reverse's [0, -s0]; CF4 products of those four and the inverse's transposed one
    import lorentz_gauge.transport as tr

    counts = {"stages": 0, "products": 0}
    stage_generators, cf4_product = tr._stage_generators, tr._cf4_product

    def stages(*args):
        counts["stages"] += 1
        return stage_generators(*args)

    def product(*args):
        counts["products"] += 1
        return cf4_product(*args)

    monkeypatch.setattr(tr, "_stage_generators", stages)
    monkeypatch.setattr(tr, "_cf4_product", product)
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"transport": {"n_fixtures": 1}}))
    assert main(["transport", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert counts == {"stages": 4, "products": 5}


def test_broken_records_are_the_records_of_run_batch(tmp_path):
    # the one-pass S^A of the broken experiment is what run_batch makes of
    # the queries it wrote, with the experiment's own connection and step
    out = tmp_path / "out"
    assert main(["broken", "--out", str(out)]) == 0
    scenario = json.loads(json.dumps(DEFAULT_SCENARIO))
    fx = Fixture(scenario, seed=scenario["seed"] + SEED_OFFSETS["broken"])
    records = run_batch(fx.metric, fx.connection(), read_queries(out / "queries.jsonl"),
                        observation=fx.observation, h=scenario["broken"]["h"])
    write_results(tmp_path / "results.jsonl", records)
    assert (tmp_path / "results.jsonl").read_bytes() == (out / "results.jsonl").read_bytes()
