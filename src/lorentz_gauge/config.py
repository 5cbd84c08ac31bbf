"""Scenario loading, validation, and fixture construction for the CLI."""

from __future__ import annotations

import copy
import functools
import json
import math
from importlib import resources

import numpy as np

from .errors import DomainError
from .gauge import GaugeField, ConnectionField, random_connection, random_gauge
from .geometry import ObservationSet, metric_from_json


class ScenarioError(Exception):
    """Schema violation; carries the failing JSON path."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


@functools.cache
def _schema():
    text = resources.files("lorentz_gauge").joinpath("scenario_schema.json").read_text()
    return json.loads(text)


_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float)}


def _is_type(value, name):
    """JSON Schema's type rules: a bool is a boolean only, an integral float an integer."""
    if isinstance(value, bool) or name == "boolean":
        return isinstance(value, bool) and name == "boolean"
    if name == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, _TYPES[name])


# keyword -> (whether a value fails it, what the failure says); a bound applies to
# numbers only and minItems to arrays only
_FAILS = {
    "type": (lambda v, t: not _is_type(v, t), "is not of type"),
    "enum": (lambda v, e: v not in e, "is not one of"),
    "const": (lambda v, c: v != c, "is not"),
    "minimum": (lambda v, m: _is_type(v, "number") and v < m, "is less than"),
    "maximum": (lambda v, m: _is_type(v, "number") and v > m, "is greater than"),
    "exclusiveMinimum": (lambda v, m: _is_type(v, "number") and v <= m, "is not greater than"),
    "exclusiveMaximum": (lambda v, m: _is_type(v, "number") and v >= m, "is not less than"),
    "minItems": (lambda v, n: isinstance(v, list) and len(v) < n, "has fewer items than"),
}


def _errors(schema, value, path, root):
    """(path, message) of each way value breaks schema, in schema order; path is
    the tuple of keys and indices down to the offending value. A keyword that the
    package's schema does not use raises ValueError."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path, f"{value!r} is not a finite number"
    for key, arg in schema.items():
        if key in ("$schema", "title", "$defs", "then"):
            continue
        if key == "$ref":
            yield from _errors(root["$defs"][arg.removeprefix("#/$defs/")], value, path, root)
        elif key == "if":
            if next(_errors(arg, value, path, root), None) is None:
                yield from _errors(schema.get("then", {}), value, path, root)
        elif key in _FAILS:
            fails, text = _FAILS[key]
            if fails(value, arg):
                yield path, f"{value!r} {text} {arg!r}"
        elif key == "items":
            for i, item in enumerate(value if isinstance(value, list) else []):
                yield from _errors(arg, item, (*path, i), root)
        elif key == "required":
            for name in arg if isinstance(value, dict) else []:
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in arg.items():
                if isinstance(value, dict) and name in value:
                    yield from _errors(sub, value[name], (*path, name), root)
        elif key == "additionalProperties" and arg is False:
            extra = [name for name in value if name not in schema.get("properties", {})] \
                if isinstance(value, dict) else []
            if extra:
                yield path, f"additional properties are not allowed: {extra!r}"
        else:
            raise ValueError(f"unsupported schema keyword {key!r}: {arg!r}")


def schema_error(schema, obj):
    """The error reported for obj under schema, as (JSON path, message), or None:
    the shallowest, and of those the first in schema order."""
    error = min(_errors(schema, obj, (), schema), key=lambda e: len(e[0]), default=None)
    if error is None:
        return None
    path, message = error
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path), message


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


def validate_scenario(obj):
    error = schema_error(_schema(), obj)
    if error is not None:
        path, message = error
        raise ScenarioError(message, path=path)
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
    # an empty list means the field is absent: the spatial factor is flat
    if metric.get("g0_diag") and len(metric["g0_diag"]) != dim - 1:
        raise ScenarioError(f"g0_diag needs {dim - 1} fields, one per spatial coordinate",
                            path="$.metric.g0_diag")
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
