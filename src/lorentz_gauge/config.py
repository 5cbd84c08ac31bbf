"""Scenario loading, validation, and fixture construction for the CLI."""

from __future__ import annotations

import copy
import functools
import json
from importlib import resources

import jsonschema
import numpy as np

from .errors import DomainError
from .gauge import GaugeField, ConnectionField, random_connection, random_gauge
from .geometry import ObservationSet, metric_from_json


class ScenarioError(Exception):
    """Schema violation; carries the failing JSON path."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


def _schema():
    text = resources.files("lorentz_gauge").joinpath("scenario_schema.json").read_text()
    return json.loads(text)


DEFAULT_SCENARIO = {
    "name": "default",
    "seed": 7,
    "experiments": ["geodesic", "transport", "broken", "reconstruct", "interaction"],
    "metric": {"kind": "minkowski", "dim": 3},
    "observation": {"T": 6.0, "radius": 1.0},
    "connection": {"type": "random", "n": 2, "amplitude": 0.5},
    "gauge": {"type": "random", "amplitude": 0.8, "width": 1.0},
    "geodesic": {"n_fixtures": 10, "s_max": 2.0, "h": 1e-2},
    "transport": {"n_fixtures": 20, "h": 1e-3, "s_max": 2.0,
                  "tol_group": 1e-8, "tol_reversal": 1e-8},
    "broken": {"n_queries": 20, "h": 1e-3, "tol_gauge_invariance": 1e-6},
    "reconstruct": {"per_axis": 5, "k_directions": 8, "tol_recover": 1e-5,
                    "tol_spread": 1e-6, "tol_theorem": 1e-5, "tol_ode": 1e-5,
                    "negative_control": False},
    "interaction": {"y": [3.0, 0.2, 0.1], "thetas": [0.7853981633974483,
                                                     1.5707963267948966,
                                                     2.356194490192345],
                    "r_sweep": [0.1, 0.05, 0.025], "s_out": 0.6, "n_vectors": 20,
                    "cone_sweep": [0.1, 0.05, 0.025], "tol_measurement": 1e-5},
}


@functools.cache
def _validator():
    """A validator of the package's schema, built once."""
    schema = _schema()
    return jsonschema.validators.validator_for(schema)(schema)


def validate_scenario(obj):
    error = jsonschema.exceptions.best_match(_validator().iter_errors(obj))
    if error is not None:
        raise ScenarioError(error.message, path=error.json_path)
    if obj.get("connection", {}).get("type", "random") == "random" and "seed" not in obj:
        raise ScenarioError("seed is mandatory for randomized fixtures", path="$.seed")
    if obj["metric"]["kind"] == "warped":
        _check_warped(obj["metric"])
    if obj["metric"]["kind"] == "cylinder" and obj["metric"].get("dim", 2) != 2:
        raise ScenarioError("the cylinder is 1+1: dim must be 2", path="$.metric.dim")
    if "center" in obj["observation"]:
        n_space = metric_from_json(obj["metric"]).dim - 1
        if len(obj["observation"]["center"]) != n_space:
            raise ScenarioError(f"the center needs {n_space} coordinates",
                                path="$.observation.center")
    return obj


def _check_warped(metric):
    """The rules of a warped metric block that tie its fields together."""
    dim = metric["dim"]
    fields = [("$.metric.beta", metric["beta"])]
    fields += [(f"$.metric.g0_diag[{i}]", f) for i, f in enumerate(metric.get("g0_diag", []))]
    for path, spec in fields:
        if spec["dim"] != dim:
            raise ScenarioError(f"dim {spec['dim']} differs from the metric's {dim}",
                                path=path + ".dim")
        for j, wave in enumerate(spec.get("waves", [])):
            if len(wave["freq"]) != dim:
                raise ScenarioError(f"a frequency needs {dim} entries",
                                    path=f"{path}.waves[{j}].freq")
    for j, wave in enumerate(metric["beta"].get("waves", [])):
        if metric.get("beta_time_only") and any(wave["freq"][1:]):
            raise ScenarioError("beta_time_only declares beta a function of t alone, "
                                "but this wave has a spatial frequency",
                                path=f"$.metric.beta.waves[{j}].freq")


def load_scenario(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}", path="$") from exc
    merged = copy.deepcopy(DEFAULT_SCENARIO)
    # the default metric's fields belong to its kind; a block of another kind replaces it
    if isinstance(obj.get("metric"), dict) and obj["metric"].get("kind") not in (None, "minkowski"):
        del merged["metric"]
    _deep_update(merged, obj)
    return validate_scenario(merged)


def _deep_update(base, extra):
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value


class Fixture:
    """Everything one experiment run needs, built deterministically from a scenario."""

    def __init__(self, scenario, seed=None):
        self.scenario = scenario
        self.seed = int(seed if seed is not None else scenario["seed"])
        self.rng = np.random.default_rng(self.seed)
        self.metric = metric_from_json(scenario["metric"])
        obs = scenario["observation"]
        self.observation = ObservationSet(
            self.metric, T=float(obs["T"]), radius=float(obs["radius"]),
            center=np.asarray(obs["center"], float) if obs.get("center") is not None else None,
        )
        self.n = int(scenario.get("connection", {}).get("n", 2))

    def connection(self, amplitude=None):
        spec = self.scenario.get("connection", {"type": "random", "n": 2})
        if spec.get("type", "random") == "zero":
            return ConnectionField.zero(self.metric.dim, self.n)
        amp = float(amplitude if amplitude is not None else spec.get("amplitude", 0.5))
        return random_connection(
            self.metric.dim, self.n, self.rng, amplitude=amp,
            max_freq=int(spec.get("max_freq", 2)), n_waves=int(spec.get("n_waves", 2)),
        )

    def gauge(self):
        spec = self.scenario.get("gauge")
        if spec is None or spec.get("type", "random") == "identity":
            return GaugeField.identity(self.metric.dim, self.n)
        return random_gauge(
            self.metric.dim, self.n, self.rng, observation=self.observation,
            amplitude=float(spec.get("amplitude", 0.8)),
            width=float(spec.get("width", 1.0)),
        )

    def unit_vector(self):
        c = self.rng.standard_normal(self.n) + 1j * self.rng.standard_normal(self.n)
        nrm = np.linalg.norm(c)
        if nrm == 0:
            raise DomainError("degenerate random vector")
        return c / nrm
