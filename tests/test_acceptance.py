"""Acceptance gate: thirteen end-to-end criteria at pinned tolerances.

Each test prints a single ``criterion NN <name>: PASS|FAIL`` line.  The
tolerances here are contractual; do not loosen them.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from lorentz_gauge.cli import _admissible_queries, main
from lorentz_gauge.config import DEFAULT_SCENARIO, Fixture, validate_scenario
from lorentz_gauge.expansions import ScalarExpansion
from lorentz_gauge.gauge import ConnectionField, MatrixExpansion, gauge_act, random_connection
from lorentz_gauge.geometry import (
    Cylinder,
    Minkowski,
    ObservationSet,
    WarpedProduct,
    connect_null,
    integrate_geodesic,
    integrate_geodesics,
    null_cut_time,
    null_vector,
)
from lorentz_gauge.linalg import random_skew_hermitian
from lorentz_gauge.reconstruction import (
    TransformOracle,
    diamond_grid,
    reconstruct_gauge,
    verify_gauge_ode,
    verify_theorem,
)
from lorentz_gauge.symcalc import build_interaction_geometry, flowout_disjointness, simulated_measurement
from lorentz_gauge.transport import (
    CutTimeCache,
    broken_transform,
    parallel_transport,
    transport_identities,
)

M3 = Minkowski(3)
OBS = ObservationSet(M3, T=6.0, radius=1.0)
SCENARIO = validate_scenario(json.loads(json.dumps(DEFAULT_SCENARIO)))


def _report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


@pytest.fixture(scope="module")
def transport_sweep():
    """100 random (connection, null geodesic) fixtures at h = 1e-3."""
    worst = {"unitarity": 0.0, "group": 0.0, "reversal": 0.0}
    for i in range(100):
        fx = Fixture(SCENARIO, seed=10_000 + i)
        conn = fx.connection()
        x0 = np.concatenate([[fx.rng.uniform(0.5, 1.5)], fx.rng.uniform(-0.5, 0.5, 2)])
        v = null_vector(fx.metric, x0, fx.rng.standard_normal(2))
        fwd, rev = integrate_geodesics(M3, np.stack([x0, x0]), np.stack([v, -v]), [2.0, 0.0],
                                       min(1e-2, 2.0 / 50), s_min=[0.0, -2.0])
        residuals = transport_identities(conn, fwd, rev, 0.9, h=1e-3)
        for name in worst:
            worst[name] = max(worst[name], residuals[name])
    return worst


def test_criterion_01_unitarity(transport_sweep):
    _report(1, "transport unitarity <= 1e-10", transport_sweep["unitarity"] <= 1e-10)


def test_criterion_02_group_property(transport_sweep):
    _report(2, "group law <= 1e-8 over 100 fixtures", transport_sweep["group"] <= 1e-8)


def test_criterion_03_reversal(transport_sweep):
    _report(3, "reversal identity <= 1e-8 over 100 fixtures",
            transport_sweep["reversal"] <= 1e-8)


def test_criterion_04_constant_pairing():
    rng = np.random.default_rng(41)
    v = np.array([1.0, 1.0, 0.0])
    seg = integrate_geodesic(M3, np.zeros(3), v, 2.0, h=0.05)
    worst = 0.0
    for n in (1, 2, 3):
        mats = [random_skew_hermitian(n, rng) for _ in range(3)]
        conn = ConnectionField(
            [MatrixExpansion(3, n, [(ScalarExpansion(3, constant=1.0), m)]) for m in mats]
        )
        x_eff = sum(vi * m for vi, m in zip(v, mats))
        u = parallel_transport(M3, conn, seg, 0.0, 2.0, h=0.25)
        worst = max(worst, float(np.linalg.norm(u - expm(-2.0 * x_eff))))
    _report(4, "constant pairing closed form <= 1e-10", worst <= 1e-10)


def test_criterion_05_fourth_order():
    rng = np.random.default_rng(52)
    beta = ScalarExpansion.random(3, rng, amplitude=0.2, constant=1.0)
    warped = WarpedProduct(3, beta)
    x0 = np.array([1.0, 0.1, -0.2])
    v0 = null_vector(warped, x0, np.array([0.8, 0.6]))

    def geo_end(h):
        return integrate_geodesic(warped, x0, v0, 1.0, h=h).endpoint

    ref = geo_end(1e-3)
    geo_errs = [float(np.linalg.norm(geo_end(h) - ref))
                for h in (0.05, 0.025, 0.0125, 0.00625)]
    geo_ratios = [a / b for a, b in zip(geo_errs, geo_errs[1:])]

    conn = random_connection(3, 2, rng, amplitude=0.8)
    seg = integrate_geodesic(M3, np.zeros(3), np.array([1.0, 1.0, 0.0]), 2.0, h=0.01)

    def tr(h):
        return parallel_transport(M3, conn, seg, 0.0, 2.0, h=h)

    tref = tr(1e-4)
    tr_errs = [float(np.linalg.norm(tr(h) - tref)) for h in (0.04, 0.02, 0.01, 0.005)]
    tr_ratios = [a / b for a, b in zip(tr_errs, tr_errs[1:])]

    ok = all(8.0 <= r <= 32.0 for r in geo_ratios + tr_ratios)
    _report(5, "fourth-order convergence (geodesic and transport)", ok)


def test_criterion_06_cylinder_cut():
    t0 = time.perf_counter()
    cyl = Cylinder()
    v = null_vector(cyl, np.zeros(2), np.array([1.0]))
    cut = null_cut_time(cyl, np.zeros(2), v)
    before, _ = connect_null(cyl, np.zeros(2), np.array([2.0, 2.0]))
    at_cut, _ = connect_null(cyl, np.zeros(2), np.array([math.pi, math.pi]))
    elapsed = time.perf_counter() - t0
    ok = (abs(cut - math.pi) <= 1e-3 and len(before) == 1 and len(at_cut) >= 2
          and elapsed < 10.0)
    _report(6, "cylinder cut time pi and multiplicity, < 10 s", ok)


def test_criterion_07_gauge_invariance():
    worst = 0.0
    total = 0
    for i in range(20):
        fx = Fixture(SCENARIO, seed=70_000 + i)
        conn = fx.connection()
        conn_b = gauge_act(conn, fx.gauge().inverse())
        cache = CutTimeCache(M3)
        queries = _admissible_queries(fx, 50, cache)
        assert len(queries) == 50
        total += len(queries)
        for q, _ in queries:
            sa = broken_transform(M3, conn, q, observation=OBS, cache=cache)
            sb = broken_transform(M3, conn_b, q, observation=OBS, cache=cache)
            worst = max(worst, float(np.linalg.norm(sa - sb)))
    _report(7, f"gauge invariance <= 1e-6 over {total} queries", worst <= 1e-6)


@pytest.fixture(scope="module")
def round_trip():
    rng = np.random.default_rng(808)
    from lorentz_gauge.gauge import random_gauge

    conn = random_connection(3, 2, rng, amplitude=0.6)
    phi = random_gauge(3, 2, rng, observation=OBS, amplitude=0.8)
    conn_b = gauge_act(conn, phi.inverse())
    grid = diamond_grid(M3, OBS, per_axis=5)
    t0 = time.perf_counter()
    rec = reconstruct_gauge(
        M3, TransformOracle(M3, conn, OBS), TransformOracle(M3, conn_b, OBS),
        grid, OBS, k_directions=8,
    )
    elapsed = time.perf_counter() - t0
    samples = grid[::3]
    ode, _ = verify_gauge_ode(M3, conn, conn_b, phi, samples)
    thm, _ = verify_theorem(M3, conn, conn_b, phi, samples)
    return phi, grid, rec, ode, thm, elapsed


def test_criterion_08_round_trip(round_trip):
    phi, grid, rec, ode, thm, elapsed = round_trip
    err = max(
        float(np.linalg.norm(rec.values[i] - phi.value(rec.points[i])))
        for i in range(len(grid))
    )
    ok = (rec.n_unresolved == 0 and err <= 1e-5 and ode <= 1e-5 and thm <= 1e-5
          and elapsed < 120.0)
    _report(8, "round trip on 5^3 grid <= 1e-5, < 2 min", ok)


def test_criterion_09_spread(round_trip):
    _, _, rec, _, _, _ = round_trip
    _report(9, "direction spread <= 1e-6 with k = 8", rec.max_spread() <= 1e-6)


def test_criterion_10_measurement_vs_transform():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    conn = random_connection(3, 2, rng, amplitude=0.1)
    r_sweep = (0.1, 0.05, 0.025)
    s_out = 0.6
    geometries = [
        (np.array([3.0, 0.2, 0.1]), math.pi / 4),
        (np.array([3.0, 0.2, 0.1]), math.pi / 2),
        (np.array([3.0, 0.2, 0.1]), 3 * math.pi / 4),
        (np.array([2.5, -0.3, 0.2]), math.pi / 3),
        (np.array([2.5, -0.3, 0.2]), 2 * math.pi / 3),
    ]
    worst = 0.0
    cauchy_ok = True
    cache = CutTimeCache(M3)
    for y, theta in geometries:
        geoms = [build_interaction_geometry(M3, y, theta, r, OBS) for r in r_sweep]
        s_mat = broken_transform(M3, conn, geoms[-1].query(s_out), observation=OBS,
                                 cache=cache)
        for _ in range(20):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c = c / np.linalg.norm(c)
            outs = [simulated_measurement(M3, conn, g, c, s_out)[0] for g in geoms]
            from lorentz_gauge.linalg import normalize_phase_scale

            outs = [normalize_phase_scale(o) for o in outs]
            d1 = float(np.linalg.norm(outs[1] - outs[0]))
            d2 = float(np.linalg.norm(outs[2] - outs[1]))
            if d2 >= d1:
                cauchy_ok = False
            worst = max(
                worst,
                float(np.linalg.norm(outs[-1] - normalize_phase_scale(s_mat @ c))),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and cauchy_ok and elapsed < 180.0
    _report(10, "measurement matches transform <= 1e-5 at r = 0.025, < 3 min", ok)


def test_criterion_11_kappa():
    ok = True
    for theta in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        for r in (0.1, 0.05, 0.025):
            geom = build_interaction_geometry(M3, np.array([3.0, 0.2, 0.1]), theta, r, OBS)
            if geom.kappa_residual > 1e-10 or np.min(geom.kappa) <= 0:
                ok = False
    _report(11, "kappa linear relation <= 1e-10 with kappa > 0", ok)


def test_criterion_12_flowout():
    geom = build_interaction_geometry(M3, np.array([3.0, 0.2, 0.1]), math.pi / 2, 0.1, OBS)
    ds = [flowout_disjointness(M3, geom, 0.6, cone, n_samples=24)
          for cone in (0.1, 0.05, 0.025)]
    ok = all(d > 0 for d in ds) and all(b >= a for a, b in zip(ds, ds[1:]))
    _report(12, "flowout disjointness positive and monotone", ok)


def test_criterion_13_negative_control(tmp_path):
    fx = Fixture(SCENARIO, seed=1313)
    conn_a = fx.connection()
    conn_b = fx.connection()  # independent draw: not gauge-equivalent
    cache = CutTimeCache(M3)
    queries = _admissible_queries(fx, 20, cache)
    worst = max(
        float(np.linalg.norm(
            broken_transform(M3, conn_a, q, observation=OBS, cache=cache)
            - broken_transform(M3, conn_b, q, observation=OBS, cache=cache)
        ))
        for q, _ in queries
    )
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({
        "name": "neg", "seed": 1313,
        "reconstruct": {"negative_control": True, "per_axis": 3, "k_directions": 4},
    }))
    code = main(["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    checks = {c["name"]: c for c in report["results"]["reconstruct"]["checks"]}
    ok = worst > 1e-2 and code == 1 and not checks["verify_theorem"]["pass"]
    _report(13, "negative control detected", ok)
