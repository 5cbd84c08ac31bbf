"""Scenario-driven command-line harness.

Subcommands: geodesic | transport | broken | reconstruct | interaction |
verify-all | run. Each loads a scenario JSON (defaults are built in),
runs the experiment(s), writes a JSON report plus a residuals CSV, and
exits 0 only if every enabled check passes (1 on a failed check, 2 on a
schema or usage error, or a query the scenario's metric does not support).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from .config import DEFAULT_SCENARIO, Fixture, ScenarioError, load_scenario, validate_scenario
from .errors import AdmissibilityError, CapabilityError, DomainError, GeometryError
from .gauge import GaugeField, gauge_act
from .geometry import (
    Cylinder,
    connect_null,
    integrate_geodesic,
    integrate_geodesics,
    null_cut_time,
    null_vector,
    unit_directions,
)
from .linalg import normalize_phase_scale
from .reconstruction import (
    LEG_SCAN_MARGIN,
    LEG_SCAN_POINTS,
    TransformOracle,
    _admissible_out_legs,
    diamond_grid,
    reconstruct_gauge,
    verify_gauge_ode,
    verify_theorem,
)
from .symcalc import (
    build_interaction_sweep,
    flowout_disjointness,
    simulated_measurement,
)
from .transport import (
    BrokenRayQuery,
    CutTimeCache,
    batch_record,
    broken_transform,
    parallel_transports,
    transport_identities,
    validate_query,
    write_results,
)

log = logging.getLogger("lorentz_gauge")

EXPERIMENTS = ("geodesic", "transport", "broken", "reconstruct", "interaction")
CAUCHY_FLOOR = 1e-12  # an r-sweep difference this small is exact convergence


def _check(checks, name, value, threshold, passed=None):
    """Append one named assertion row; pass means value <= threshold."""
    if passed is None:
        passed = bool(value <= threshold)
    checks.append(
        {"name": name, "value": float(value), "threshold": float(threshold), "pass": passed}
    )
    if not passed:
        log.warning("check failed: %s (value %.3e, threshold %.3e)", name, value, threshold)
    return passed


def _random_null_start(fx):
    m = fx.metric
    x0 = np.zeros(m.dim)
    x0[0] = fx.rng.uniform(0.5, 1.5)
    x0[1:] = fx.rng.uniform(-0.5, 0.5, m.dim - 1)
    u = fx.rng.standard_normal(m.dim - 1)
    return x0, null_vector(m, x0, u)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_geodesic(fx, params, out_dir, strict):
    checks = []
    s_max, h = float(params["s_max"]), float(params["h"])
    worst_null = 0.0
    worst_exact = 0.0
    x0s, vs = zip(*(_random_null_start(fx) for _ in range(int(params["n_fixtures"]))))
    for seg in integrate_geodesics(fx.metric, x0s, vs, s_max, h):
        worst_null = max(worst_null, seg.null_residual())
        if fx.metric.is_flat:
            straight = seg.x[0] + (seg.s[-1] - seg.s[0]) * seg.v[0]
            worst_exact = max(worst_exact, float(np.linalg.norm(seg.endpoint - straight)))
    _check(checks, "geodesic_null_residual", worst_null, 1e-10)
    if fx.metric.is_flat:
        _check(checks, "geodesic_flat_exactness", worst_exact, 1e-12)
    extra = {}
    if isinstance(fx.metric, Cylinder):
        v = null_vector(fx.metric, np.zeros(2), np.array([1.0]))
        cut = null_cut_time(fx.metric, np.zeros(2), v, s_max=10.0)
        _check(checks, "cylinder_cut_time", abs(cut - math.pi), 1e-3)
        sols, _ = connect_null(fx.metric, np.zeros(2), np.array([math.pi, math.pi]))
        _check(checks, "cylinder_cut_multiplicity", 0.0 if len(sols) >= 2 else 1.0, 0.5)
        extra["cut_time"] = cut
    return {"checks": checks, **extra}


def run_transport(fx, params, out_dir, strict):
    checks = []
    h = float(params["h"])
    s_max = float(params["s_max"])
    n_fix = int(params["n_fixtures"])
    conns, x0s, vs, bs = zip(*((fx.connection(), *_random_null_start(fx),
                                fx.rng.uniform(0.3, 0.7) * s_max) for _ in range(n_fix)))
    # one march of every fixture's ray and its reverse, gamma_{x0,-v} on [-s_max, 0]
    segs = integrate_geodesics(fx.metric, x0s + x0s, vs + tuple(-v for v in vs),
                               np.repeat([s_max, 0.0], n_fix), min(1e-2, s_max / 50),
                               s_min=np.repeat([0.0, -s_max], n_fix))
    residuals = [transport_identities(fx.metric, conn, seg, rev, b, h=h)
                 for conn, b, seg, rev in zip(conns, bs, segs[:n_fix], segs[n_fix:])]
    worst = {name: max(r[name] for r in residuals) for name in residuals[0]}
    _check(checks, "transport_unitarity", worst["unitarity"], 1e-10)
    _check(checks, "transport_group_property", worst["group"], float(params["tol_group"]))
    _check(checks, "transport_reversal", worst["reversal"], float(params["tol_reversal"]))
    _check(checks, "transport_inverse_consistency", worst["inverse"], 1e-9)
    _check(checks, "transport_determinant_track", worst["det"], 1e-8)
    return {"checks": checks}


def _admissible_queries(fx, count, cache):
    """Deterministically sampled admissible broken-ray queries, as (query, legs) pairs
    whose legs are the segments validate_query tested.

    Vertex times are drawn from [1.5, T - 1.5], so a window with T < 3 gives none.
    """
    m = fx.metric
    obs = fx.observation
    queries = []
    attempts = 0
    while obs.T >= 3.0 and len(queries) < count and attempts < 50 * count:
        attempts += 1
        y = np.zeros(m.dim)
        y[0] = fx.rng.uniform(1.5, obs.T - 1.5)
        y[1:] = fx.rng.uniform(-1.8, 1.8, m.dim - 1)
        outs = _admissible_out_legs(m, obs, y, 4, cache)
        if not outs:
            continue
        w, s_out = outs[fx.rng.integers(len(outs))]
        # past leg aimed near the observation center
        aims = unit_directions(m.dim - 1, 8)
        target = obs.center + 0.4 * obs.radius * aims[fx.rng.integers(len(aims))]
        d = target - y[1:]
        if np.linalg.norm(d) < 1e-9:
            continue
        v = null_vector(m, y, d / np.linalg.norm(d), time_sign=-1.0)
        seg = integrate_geodesic(m, y, v, y[0], h=max(1e-2, y[0] / 200))
        s_in = obs.middle_inside(
            [seg], np.linspace(LEG_SCAN_MARGIN, seg.s_max, LEG_SCAN_POINTS), LEG_SCAN_MARGIN
        )
        if s_in is None:
            continue
        q = BrokenRayQuery(y, v, w, s_in, s_out)
        try:
            queries.append((q, validate_query(m, q, obs, cache=cache)))
        except AdmissibilityError:
            continue
    return queries


def run_broken(fx, params, out_dir, strict):
    checks = []
    h = float(params["h"])
    conn = fx.connection()
    phi = fx.gauge()
    conn_b = gauge_act(conn, phi.inverse())
    cache = CutTimeCache(fx.metric)
    admitted = _admissible_queries(fx, int(params["n_queries"]), cache)
    _check(checks, "broken_query_yield",
           float(int(params["n_queries"]) - len(admitted)), 0.5)
    records = []
    worst_inv = 0.0
    for q, (seg_in, seg_out) in admitted:
        # S = P_out P_in of A and A <| phi^-1, as broken_transform, in one pass per leg
        p_in = parallel_transports(fx.metric, [conn, conn_b], seg_in, q.s_in, 0.0, h=h)
        p_out = parallel_transports(fx.metric, [conn, conn_b], seg_out, 0.0, q.s_out, h=h)
        sa, sb = (o @ i for o, i in zip(p_out, p_in))
        records.append(batch_record(q, sa))
        worst_inv = max(worst_inv, float(np.linalg.norm(sa - sb)))
    with open(os.path.join(out_dir, "queries.jsonl"), "w") as fh:
        for q, _ in admitted:
            fh.write(json.dumps(q.to_json(), sort_keys=True) + "\n")
    write_results(os.path.join(out_dir, "results.jsonl"), records)
    worst_unit = max((r["unitarity_residual"] for r in records), default=0.0)
    _check(checks, "broken_unitarity", worst_unit, 1e-10)
    _check(checks, "broken_gauge_invariance", worst_inv,
           float(params["tol_gauge_invariance"]))
    return {"checks": checks, "n_queries": len(admitted)}


def run_reconstruct(fx, params, out_dir, strict):
    checks = []
    conn = fx.connection()
    negative = bool(params.get("negative_control", False))
    if negative:
        phi = GaugeField.identity(fx.metric.dim, fx.n)
        conn_b = fx.connection()  # independent draw: not gauge-equivalent
    else:
        phi = fx.gauge()
        conn_b = gauge_act(conn, phi.inverse())
    oracle_a = TransformOracle(fx.metric, conn, fx.observation)
    oracle_b = TransformOracle(fx.metric, conn_b, fx.observation)
    grid = diamond_grid(fx.metric, fx.observation, per_axis=int(params["per_axis"]))
    if not len(grid):
        _check(checks, "reconstruct_empty_grid", 1.0, 0.5)
    rec = reconstruct_gauge(fx.metric, oracle_a, oracle_b, grid, fx.observation,
                            k_directions=int(params["k_directions"]))
    _check(checks, "reconstruct_spread", rec.max_spread(), float(params["tol_spread"]),
           passed=None if not negative else True)
    if strict:
        _check(checks, "reconstruct_unresolved", float(rec.n_unresolved), 0.5)
    samples = grid[:: max(1, len(grid) // 12)]
    if not negative:
        ok = ~rec.unresolved
        err = float(np.max(np.linalg.norm(rec.values[ok] - phi.value(rec.points[ok]),
                                          axis=(-2, -1)), initial=0.0))
        _check(checks, "reconstruct_recover_gauge", err, float(params["tol_recover"]))
    ode, _ = verify_gauge_ode(fx.metric, conn, conn_b, phi, samples)
    thm, _ = verify_theorem(fx.metric, conn, conn_b, phi, samples)
    rec.ode_residual = float(ode)
    rec.theorem_residual = float(thm)
    _check(checks, "verify_gauge_ode", ode, float(params["tol_ode"]))
    _check(checks, "verify_theorem", thm, float(params["tol_theorem"]))
    with open(os.path.join(out_dir, "reconstruction.json"), "w") as fh:
        json.dump(rec.to_json(), fh, sort_keys=True, indent=1)
    return {"checks": checks, "n_grid": len(grid), "n_unresolved": rec.n_unresolved,
            "extraction_modes": sorted(set(rec.mode))}


def run_interaction(fx, params, out_dir, strict):
    checks = []
    y = np.asarray(params["y"], dtype=float)
    if fx.metric.dim < 3:
        raise CapabilityError("the interaction experiment needs at least two spatial dimensions")
    if y.shape != (fx.metric.dim,):
        raise ScenarioError(f"the vertex needs {fx.metric.dim} coordinates",
                            path="$.interaction.y")
    amp = float(params.get("amplitude", 0.1))
    conn = fx.connection(amplitude=amp)
    r_sweep = [float(r) for r in params["r_sweep"]]
    s_out = float(params["s_out"])
    worst_kappa_res = 0.0
    min_kappa = math.inf
    worst_meas = 0.0
    cauchy_ok = True
    flow_ok = True
    for theta in params["thetas"]:
        try:
            # one s' for the whole sweep, so every r measures along the same legs
            geoms = dict(zip(r_sweep, build_interaction_sweep(fx.metric, y, float(theta),
                                                              r_sweep, fx.observation)))
            # the measurements are compared with the transform of the smallest r's query
            s_mat = broken_transform(fx.metric, conn, geoms[min(r_sweep)].query(s_out),
                                     observation=fx.observation)
        except (GeometryError, AdmissibilityError) as exc:
            _check(checks, "interaction_geometry", 1.0, 0.5)
            return {"checks": checks, "geometry_error": str(exc)}
        for geom in geoms.values():
            worst_kappa_res = max(worst_kappa_res, geom.kappa_residual)
            min_kappa = min(min_kappa, float(np.min(geom.kappa)))
        cs = np.array([fx.unit_vector() for _ in range(int(params["n_vectors"]))])
        # vecs[i][j]: the measurement of the i-th largest r on the j-th vector
        vecs = [simulated_measurement(fx.metric, conn, geoms[r], cs, s_out)[0]
                for r in sorted(r_sweep, reverse=True)]
        for j, c in enumerate(cs):
            outs = [normalize_phase_scale(vec[j]) for vec in vecs]
            diffs = [float(np.linalg.norm(outs[i + 1] - outs[i])) for i in range(len(outs) - 1)]
            if any(d2 >= d1 and d2 > CAUCHY_FLOOR for d1, d2 in zip(diffs, diffs[1:])):
                cauchy_ok = False
            worst_meas = max(
                worst_meas,
                float(np.linalg.norm(outs[-1] - normalize_phase_scale(s_mat @ c))),
            )
        ds = [
            flowout_disjointness(fx.metric, geoms[max(r_sweep)], s_out, cone, n_samples=8)
            for cone in sorted(params["cone_sweep"], reverse=True)
        ]
        # the min distance is a sampled estimate, so allow slack in the
        # pairwise comparison but require a strictly nondecreasing trend
        if (not all(d > 0 for d in ds)
                or any(b < a - 1e-3 for a, b in zip(ds, ds[1:]))
                or ds[-1] < ds[0]):
            flow_ok = False
    _check(checks, "interaction_kappa_residual", worst_kappa_res, 1e-10)
    _check(checks, "interaction_kappa_positive", 0.0 if min_kappa > 0 else 1.0, 0.5)
    _check(checks, "interaction_measurement_vs_transform", worst_meas,
           float(params["tol_measurement"]))
    if len(r_sweep) >= 3:  # fewer r values leave no two consecutive differences to compare
        _check(checks, "interaction_cauchy_in_r", 0.0 if cauchy_ok else 1.0, 0.5)
    _check(checks, "interaction_flowout_disjoint", 0.0 if flow_ok else 1.0, 0.5)
    return {"checks": checks, "min_kappa": min_kappa}


RUNNERS = {
    "geodesic": run_geodesic,
    "transport": run_transport,
    "broken": run_broken,
    "reconstruct": run_reconstruct,
    "interaction": run_interaction,
}

# fixed per-experiment seed offsets keep a single experiment's draws
# identical whether it runs alone or inside verify-all
SEED_OFFSETS = {name: 1000 * i for i, name in enumerate(EXPERIMENTS)}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_scenario(scenario, experiments, out_dir, seed=None, strict=False):
    os.makedirs(out_dir, exist_ok=True)
    base_seed = int(seed if seed is not None else scenario["seed"])
    results = {}
    timings = {}
    for name in experiments:
        fx = Fixture(scenario, seed=base_seed + SEED_OFFSETS[name])
        params = scenario.get(name, {})
        log.info("running experiment %s (seed %d)", name, fx.seed)
        t0 = time.perf_counter()
        results[name] = RUNNERS[name](fx, params, out_dir, strict)
        timings[name] = round(time.perf_counter() - t0, 3)
    all_checks = [c for r in results.values() for c in r["checks"]]
    passed = all(c["pass"] for c in all_checks)
    body = {
        "scenario": scenario,
        "seed": base_seed,
        "results": results,
        "all_passed": passed,
    }
    content_hash = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()
    report = dict(body, timings=timings, content_hash=content_hash)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
    with open(os.path.join(out_dir, "residuals.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "value", "threshold", "pass"])
        for c in all_checks:
            writer.writerow([c["name"], repr(c["value"]), repr(c["threshold"]), c["pass"]])
    return report


def _setup_logging():
    level = os.environ.get("LORENTZ_GAUGE_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lorentz-gauge",
        description="Scenario-driven experiments on null geodesics, U(n) "
                    "parallel transport and the broken light-ray transform.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS + ("verify-all", "run"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario JSON (built-in defaults if omitted)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--strict", action="store_true",
                       help="fail on any unresolved grid point")
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            scenario = load_scenario(args.config)
        else:
            scenario = validate_scenario(json.loads(json.dumps(DEFAULT_SCENARIO)))
        if args.command in EXPERIMENTS:
            experiments = [args.command]
        elif args.command == "verify-all":
            experiments = list(EXPERIMENTS)
        else:  # run: whatever the scenario enables
            experiments = scenario.get("experiments", list(EXPERIMENTS))
        report = run_scenario(scenario, experiments, args.out, seed=args.seed,
                              strict=args.strict)
    except ScenarioError as exc:
        print(f"scenario error at {exc.path}: {exc}", file=sys.stderr)
        return 2
    except (CapabilityError, DomainError) as exc:
        log.debug("experiment stopped", exc_info=True)
        unserved = "unsupported by" if isinstance(exc, CapabilityError) else "outside the domain of"
        print(f"{unserved} this metric: {exc}", file=sys.stderr)
        return 2
    failed = [
        c["name"]
        for r in report["results"].values()
        for c in r["checks"]
        if not c["pass"]
    ]
    print(f"report: {os.path.join(args.out, 'report.json')}")
    print(f"content hash: {report['content_hash']}")
    if failed:
        print("FAILED checks: " + ", ".join(failed))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
