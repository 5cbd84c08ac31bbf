from collections import Counter

import numpy as np
import pytest

from lorentz_gauge import transport
from lorentz_gauge.errors import AdmissibilityError, DomainError
from lorentz_gauge.gauge import (
    ConnectionField,
    GaugeField,
    gauge_act,
    random_connection,
    random_gauge,
)
from lorentz_gauge.expansions import ScalarExpansion
from lorentz_gauge.geometry import (
    Cylinder,
    GeodesicSegment,
    Minkowski,
    ObservationSet,
    TimeWarp,
    WorldLine,
    earliest_obs_time,
    integrate_geodesic,
    null_vector,
)
from lorentz_gauge.linalg import unitarity_residual
from lorentz_gauge.transport import CutTimeCache, validate_query
from lorentz_gauge.reconstruction import (
    DIAMOND_MARGIN,
    FD_STEP,
    GaugeReconstruction,
    TransformOracle,
    diamond_grid,
    gauge_candidate,
    reconstruct_gauge,
    verify_gauge_ode,
    verify_theorem,
)

M3 = Minkowski(3)
OBS = ObservationSet(M3, T=6.0, radius=1.0)
DIM, N = 3, 2


@pytest.fixture(scope="module")
def planted():
    """Random A, gauge phi with phi = id on the observation set, B = A <| phi^{-1}."""
    rng = np.random.default_rng(402)
    a = random_connection(DIM, N, rng, amplitude=0.6)
    phi = random_gauge(DIM, N, rng, observation=OBS, amplitude=0.8)
    b = gauge_act(a, phi.inverse())
    return a, phi, b


def oracles(a, b):
    return TransformOracle(M3, a, OBS), TransformOracle(M3, b, OBS)


def outgoing_toward_center(y):
    u = -y[1:] / np.linalg.norm(y[1:])
    return np.concatenate([[1.0], u])


def time_only_warp():
    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    return TimeWarp(3, beta)


Y_OUT = np.array([3.0, 1.8, 0.5])  # interior vertex outside the observation set
S_OUT = 1.6                        # lands the outgoing leg inside the set


# -- gauge candidate ----------------------------------------------------------


def test_candidate_equal_connections(planted):
    a, _, _ = planted
    oa = TransformOracle(M3, a, OBS)
    cand = gauge_candidate(M3, oa, oa, Y_OUT, outgoing_toward_center(Y_OUT), S_OUT,
                           observation=OBS)
    assert np.linalg.norm(cand - np.eye(N)) < 1e-9


def test_candidate_recovers_planted_gauge(planted):
    a, phi, b = planted
    oa, ob = oracles(a, b)
    cand = gauge_candidate(M3, oa, ob, Y_OUT, outgoing_toward_center(Y_OUT), S_OUT,
                           observation=OBS)
    assert np.linalg.norm(cand - phi.value(Y_OUT)) < 1e-6
    assert unitarity_residual(cand) < 1e-9


def test_candidate_direction_independence(planted):
    # Two admissible (w, s'') at the same y agree: the candidate is well defined
    a, _, b = planted
    oa, ob = oracles(a, b)
    y = np.array([2.5, 1.5, 0.0])
    w1 = outgoing_toward_center(y)
    u2 = np.array([0.3, 0.0]) - y[1:]
    u2 = u2 / np.linalg.norm(u2)
    w2 = np.concatenate([[1.0], u2])
    c1 = gauge_candidate(M3, oa, ob, y, w1, 1.0, observation=OBS)
    c2 = gauge_candidate(M3, oa, ob, y, w2, 1.1, observation=OBS)
    assert np.linalg.norm(c1 - c2) < 1e-6


def test_synthetic_candidate_integrates_its_leg_once(monkeypatch):
    # the endpoint test and both oracles' transports share one segment
    import lorentz_gauge.reconstruction as rec

    m = time_only_warp()
    obs = ObservationSet(m, T=6.0, radius=1.0)
    rng = np.random.default_rng(5)
    oa, ob = (TransformOracle(m, random_connection(DIM, N, rng), obs) for _ in range(2))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3])
        return integrate_geodesic(*args, **kwargs)

    monkeypatch.setattr(rec, "integrate_geodesic", counting)
    w = null_vector(m, Y_OUT, -Y_OUT[1:])
    cand = gauge_candidate(m, oa, ob, Y_OUT, w, S_OUT, observation=obs)
    assert calls == [S_OUT]
    assert unitarity_residual(cand) < 1e-12


def test_candidate_inadmissible_leg(planted):
    a, _, b = planted
    oa, ob = oracles(a, b)
    w = outgoing_toward_center(Y_OUT)
    with pytest.raises(AdmissibilityError):
        gauge_candidate(M3, oa, ob, Y_OUT, w, 50.0, observation=OBS)
    with pytest.raises(AdmissibilityError):
        gauge_candidate(M3, oa, ob, Y_OUT, -w, S_OUT, observation=OBS)


def test_candidate_honest_mode_inside_observation(planted):
    a, _, b = planted
    oa, ob = oracles(a, b)
    y = np.array([2.0, 0.3, 0.2])
    w = np.array([1.0, 0.6, 0.8])
    cand = gauge_candidate(M3, oa, ob, y, w, 0.4, observation=OBS, mode="honest")
    # phi = id on the observation set
    assert np.linalg.norm(cand - np.eye(N)) < 1e-9


# (mode, vertex, outgoing direction, s'', legs): a synthetic candidate transports
# along its outgoing leg, an honest one along both legs of its query
CANDIDATE_LEGS = {"synthetic": ("synthetic", Y_OUT, None, S_OUT, 1),
                  "honest": ("honest", np.array([2.0, 0.3, 0.2]), np.array([1.0, 0.6, 0.8]),
                             0.4, 2)}


@pytest.mark.parametrize("case", CANDIDATE_LEGS)
def test_candidate_evaluates_a_and_the_leg_once_per_leg(planted, monkeypatch, case):
    # the transports of A and B = A <| phi^-1 along one leg share the leg's state
    # and A's pairing, which B's gauged pairing reuses; an honest leg lies where
    # phi = id, so there B's product is A's
    mode, y, w, s_out, legs = CANDIDATE_LEGS[case]
    a, phi, b = planted
    calls = Counter()

    def count(owner, name):
        def counting(*args, _original=getattr(owner, name)):
            calls[name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)

    count(ConnectionField, "pairing_coords")
    count(GeodesicSegment, "state")
    count(transport, "_cf4_product")
    w = outgoing_toward_center(y) if w is None else w
    cand = gauge_candidate(M3, *oracles(a, b), y, w, s_out, observation=OBS, mode=mode)
    assert calls == {"pairing_coords": legs, "state": legs, "_cf4_product": 2}
    monkeypatch.undo()
    assert np.linalg.norm(cand - phi.value(y)) < 1e-6


def test_candidate_oracles_must_share_metric_and_h(planted):
    a, _, b = planted
    w = outgoing_toward_center(Y_OUT)
    for ob in (TransformOracle(Minkowski(3), b, OBS), TransformOracle(M3, b, OBS, h=2e-3)):
        with pytest.raises(DomainError, match="one metric and one h"):
            gauge_candidate(M3, TransformOracle(M3, a, OBS), ob, Y_OUT, w, S_OUT,
                            observation=OBS)


def test_candidate_honest_mode_needs_observable_vertex(planted):
    a, _, b = planted
    oa, ob = oracles(a, b)
    with pytest.raises(AdmissibilityError):
        gauge_candidate(M3, oa, ob, Y_OUT, outgoing_toward_center(Y_OUT), S_OUT,
                        observation=OBS, mode="honest")


# -- grid reconstruction ------------------------------------------------------


def test_diamond_grid_inside_diamond():
    grid = diamond_grid(M3, OBS, per_axis=5)
    assert len(grid) > 0
    for y in grid:
        # f^- > 0 and f^+ < T for the central observer
        assert y[0] - np.linalg.norm(y[1:]) > 0
        assert y[0] + np.linalg.norm(y[1:]) < OBS.T


def diamond_grid_reference(metric, observation, per_axis):
    """The lattice points whose f^-(y) > 0 and f^+(y) < T, each found by
    scanning the central observer on 64 cells and bisecting."""
    worldline = WorldLine(metric, T=observation.T, point=observation.center)
    t_vals = np.linspace(DIAMOND_MARGIN, observation.T - DIAMOND_MARGIN, per_axis)
    half = observation.T / 2.0 - DIAMOND_MARGIN
    sp_vals = [np.linspace(-half, half, per_axis) for _ in range(metric.dim - 1)]
    mesh = np.meshgrid(t_vals, *sp_vals, indexing="ij")
    keep = [
        y for y in np.stack([m.ravel() for m in mesh], axis=1)
        if earliest_obs_time(metric, worldline, y, "past", coarse=64) > 0.0
        and earliest_obs_time(metric, worldline, y, "future", coarse=64) < observation.T
    ]
    return np.array(keep).reshape(-1, metric.dim)


DIAMOND_METRICS = {
    "minkowski-2+1": (Minkowski(3), [0.3, -0.2]),
    "minkowski-3+1": (Minkowski(4), [0.3, -0.2, 0.1]),
    "cylinder": (Cylinder(), [0.4]),
    "time-only-warp": (time_only_warp(), None),
}
# the bisecting reference takes 10-15 s per warped 8-per-axis lattice, so
# the warp stops at 5 per axis
DIAMOND_CASES = [(name, per_axis, T) for name in DIAMOND_METRICS
                 for per_axis in (2, 3, 5, 8) for T in (4.0, 6.0)
                 if not (name == "time-only-warp" and per_axis == 8)]


@pytest.mark.parametrize("name, per_axis, T", DIAMOND_CASES,
                         ids=[f"{n}-{p}-T{T:g}" for n, p, T in DIAMOND_CASES])
def test_diamond_grid_matches_bisection(name, per_axis, T):
    metric, center = DIAMOND_METRICS[name]
    obs = ObservationSet(metric, T=T, radius=1.0, center=center)
    assert np.array_equal(diamond_grid(metric, obs, per_axis),
                          diamond_grid_reference(metric, obs, per_axis))


def test_diamond_grid_can_be_empty(planted):
    a, _, b = planted
    grid = diamond_grid(M3, OBS, per_axis=2)
    assert grid.shape == (0, 3)
    rec = reconstruct_gauge(M3, *oracles(a, b), grid, OBS)
    assert rec.to_json()["max_unitarity_residual"] == 0.0


def test_diamond_grid_outside_chart():
    # beta = 0.1 + cos t is negative at the lattice's middle time t = 3
    beta = ScalarExpansion(3, constant=0.1, waves=[(1.0, [1.0, 0.0, 0.0], 0.0)])
    m = TimeWarp(3, beta)
    with pytest.raises(DomainError):
        diamond_grid(m, ObservationSet(m, T=6.0, radius=1.0), per_axis=3)


def test_reconstruct_equal_connections(planted):
    a, _, _ = planted
    oa = TransformOracle(M3, a, OBS)
    grid = diamond_grid(M3, OBS, per_axis=3)
    rec = reconstruct_gauge(M3, oa, oa, grid, OBS, k_directions=4)
    assert rec.n_unresolved == 0
    for u in rec.values:
        assert np.linalg.norm(u - np.eye(N)) < 1e-9
    assert rec.max_spread() < 1e-9


def test_reconstruct_planted_gauge(planted):
    a, phi, b = planted
    oa, ob = oracles(a, b)
    grid = diamond_grid(M3, OBS, per_axis=3)
    rec = reconstruct_gauge(M3, oa, ob, grid, OBS, k_directions=4)
    assert rec.n_unresolved == 0
    err = max(
        np.linalg.norm(rec.values[i] - phi.value(rec.points[i]))
        for i in range(len(grid))
    )
    assert err < 1e-5
    assert rec.max_spread() < 1e-6
    # unitarity and boundary condition
    assert all(unitarity_residual(u) < 1e-9 for u in rec.values)
    for i, y in enumerate(grid):
        if OBS.contains(y):
            assert rec.mode[i] == "honest"
            assert np.linalg.norm(rec.values[i] - np.eye(N)) < 1e-9


def test_reconstruction_computes_each_cut_time_and_leg_once(planted, monkeypatch):
    # one cache serves every cut time, and an honest candidate integrates
    # the two legs of its query once, for validation and transport alike
    import lorentz_gauge.reconstruction as rec_mod
    import lorentz_gauge.transport as tr

    calls = {"cut": 0, "legs": 0, "honest": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def candidate(*args, **kwargs):
        calls["honest"] += kwargs["mode"] == "honest"
        return gauge_candidate(*args, **kwargs)

    monkeypatch.setattr(tr, "null_cut_time", counted("cut", tr.null_cut_time))
    monkeypatch.setattr(tr, "integrate_geodesics", counted("legs", tr.integrate_geodesics))
    monkeypatch.setattr(rec_mod, "gauge_candidate", candidate)
    a, _, b = planted
    cache = tr.CutTimeCache(M3)
    reconstruct_gauge(M3, *oracles(a, b), diamond_grid(M3, OBS, per_axis=3), OBS,
                      k_directions=4, cache=cache)
    assert calls == {"cut": 30, "legs": 12, "honest": 12}
    assert len(cache) == 30


def test_honest_candidates_integrate_each_leg_once(planted, monkeypatch):
    # an honest candidate integrates the two legs of its query once, in
    # validate_query, and nothing before it: 12 candidates, 24 legs, 24 rays
    import lorentz_gauge.reconstruction as rec_mod
    import lorentz_gauge.transport as tr

    counts = {"rays": 0, "honest": 0}
    honest = [False]

    def candidate(*args, **kwargs):
        honest[0] = kwargs["mode"] == "honest"
        counts["honest"] += honest[0]
        try:
            return gauge_candidate(*args, **kwargs)
        finally:
            honest[0] = False

    def counted(fn, n_rays):
        def wrapper(*args, **kwargs):
            counts["rays"] += n_rays(args) if honest[0] else 0
            return fn(*args, **kwargs)
        return wrapper

    for mod in (rec_mod, tr):
        if hasattr(mod, "integrate_geodesic"):
            monkeypatch.setattr(mod, "integrate_geodesic",
                                counted(mod.integrate_geodesic, lambda args: 1))
        monkeypatch.setattr(mod, "integrate_geodesics",
                            counted(mod.integrate_geodesics, lambda args: len(args[1])))
    monkeypatch.setattr(rec_mod, "gauge_candidate", candidate)
    a, _, b = planted
    reconstruct_gauge(M3, *oracles(a, b), diamond_grid(M3, OBS, per_axis=3), OBS,
                      k_directions=4)
    assert counts == {"rays": 24, "honest": 12}


HONEST_METRICS = {
    "minkowski-2+1": (Minkowski(3), None, 40),
    "cylinder": (Cylinder(), [0.4], 9),
    "time-only-warp": (time_only_warp(), None, 40),
}


@pytest.mark.parametrize("name", list(HONEST_METRICS))
def test_honest_incoming_leg_inside_when_its_endpoint_is(name):
    # [DERIVED] on every metric with a cut time a leg is a straight line in
    # coordinates in which (0, T) x B is convex, so the endpoint test of
    # validate_query covers every sample of the honest incoming leg
    import lorentz_gauge.reconstruction as rec_mod

    metric, center, expected = HONEST_METRICS[name]
    obs = ObservationSet(metric, T=6.0, radius=1.0, center=center)
    cache = CutTimeCache(metric)
    count = 0
    for y in diamond_grid(metric, obs, per_axis=5):
        if not obs.contains(y):
            continue
        for w, s_out in rec_mod.admissible_out_legs(metric, obs, y, 8, cache):
            q = rec_mod._honest_incoming_query(metric, obs, y, w, s_out)
            seg_in, _ = validate_query(metric, q, obs, cache=cache)
            assert obs.contains(seg_in.x).all()
            count += 1
    assert count == expected


def test_reconstruction_report_fields(planted):
    a, _, b = planted
    oa, ob = oracles(a, b)
    grid = diamond_grid(M3, OBS, per_axis=3)[:4]
    rec = reconstruct_gauge(M3, oa, ob, grid, OBS, k_directions=4)
    report = rec.to_json()
    for key in ("points", "values", "spread", "unresolved", "mode",
                "ode_residual", "theorem_residual", "n_unresolved", "max_spread"):
        assert key in report


def test_unresolved_points_flagged(planted):
    a, _, b = planted
    oa, ob = oracles(a, b)
    # a vertex too late to reach the observation set before T
    late = np.array([[5.9, 2.0, 0.0]])
    rec = reconstruct_gauge(M3, oa, ob, late, OBS, k_directions=4)
    assert rec.n_unresolved == 1
    assert rec.mode[0] == "none"
    assert np.array_equal(rec.values[0], np.eye(N))


@pytest.mark.parametrize("x1", [1e150, 1e200])
def test_point_too_far_out_for_floating_point_is_unresolved(planted, x1):
    # at 1e200 the aim's norm overflows: no direction, so no leg, and no
    # overflow warning (which pytest makes an error)
    a, _, b = planted
    rec = reconstruct_gauge(M3, *oracles(a, b), np.array([[1.0, x1, 0.0]]), OBS, k_directions=4)
    assert rec.n_unresolved == 1
    assert rec.mode[0] == "none"


# -- verification -------------------------------------------------------------


def sample_points():
    return diamond_grid(M3, OBS, per_axis=3)[::2]


def test_verify_ode_trivial():
    a = ConnectionField.zero(DIM, N)
    res, skipped = verify_gauge_ode(M3, a, a, GaugeField.identity(DIM, N), sample_points())
    assert res == 0.0 and skipped == 0


def test_verify_ode_planted(planted):
    a, phi, b = planted
    res, _ = verify_gauge_ode(M3, a, b, phi, sample_points())
    assert res < 1e-5


def test_verify_ode_detects_wrong_gauge(planted):
    a, _, b = planted
    rng = np.random.default_rng(99)
    wrong = random_gauge(DIM, N, rng, observation=OBS, amplitude=0.5)
    res, _ = verify_gauge_ode(M3, a, b, wrong, sample_points())
    assert res > 1e-2


def test_verify_theorem_planted(planted):
    a, phi, b = planted
    res, _ = verify_theorem(M3, a, b, phi, sample_points())
    assert res < 1e-5


def test_verify_theorem_identity_gauge_measures_difference(planted):
    a, _, b = planted
    pts = sample_points()
    res, _ = verify_theorem(M3, a, b, GaugeField.identity(DIM, N), pts)
    direct = max(
        float(np.max(np.linalg.norm(a.components(x) - b.components(x), axis=(-2, -1))))
        for x in pts
    )
    assert res == pytest.approx(direct, rel=1e-10)
    assert res > 0.0


def reference_residuals(conn_a, conn_b, phi, samples):
    """The residuals of verify_gauge_ode and verify_theorem, one sample (and axis) at a time."""
    ode = thm = 0.0
    for x in samples:
        u = phi.value(x)
        for w in np.eye(len(x)):
            dphi = (phi.value(x + FD_STEP * w) - phi.value(x - FD_STEP * w)) / (2.0 * FD_STEP)
            rhs = u @ conn_a.pairing(x, w) - conn_b.pairing(x, w) @ u
            ode = max(ode, float(np.linalg.norm(dphi - rhs)))
        uinv = np.conj(u.T)
        gauged = uinv @ phi.differential(x) + uinv @ conn_b.components(x) @ u
        thm = max(thm, float(np.max(np.linalg.norm(conn_a.components(x) - gauged,
                                                   axis=(-2, -1)))))
    return ode, thm


EPS = np.finfo(float).eps
WARP3 = TimeWarp(3, ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("metric", [M3, WARP3], ids=["minkowski", "time-only-warp"])
def test_batched_verification_matches_reference_loop(metric, n):
    # B = A <| phi^-1 is a gauged connection whose cutoff is live at some samples
    # and dead at others; a wrong gauge gives residuals of order 1.  phi.value in a
    # batch and at one point may differ in its last bit (the generator's table
    # product), which the central difference divides by 2 FD_STEP: the ODE
    # residuals of batch and loop differed by up to 2.0 eps / FD_STEP (n = 3) over
    # seeds 0-19, hence the ODE's second term of 4 n eps / FD_STEP
    rng = np.random.default_rng(40 + n)
    obs = ObservationSet(metric, T=6.0, radius=1.0)
    a = random_connection(DIM, n, rng, amplitude=0.6)
    phi = random_gauge(DIM, n, rng, observation=obs, amplitude=0.8)
    wrong = random_gauge(DIM, n, rng, observation=obs, amplitude=0.5)
    b = gauge_act(a, phi.inverse())
    pts = diamond_grid(metric, obs, per_axis=3)
    assert 0 < np.count_nonzero(phi.cutoff.value(pts)) < len(pts)
    for gauge in (phi, wrong):
        ref_ode, ref_thm = reference_residuals(a, b, gauge, pts)
        ode, skipped_ode = verify_gauge_ode(metric, a, b, gauge, pts)
        thm, skipped_thm = verify_theorem(metric, a, b, gauge, pts)
        assert skipped_ode == skipped_thm == 0
        assert abs(ode - ref_ode) <= 1e-12 * max(1.0, ref_ode) + 4 * n * EPS / FD_STEP
        assert abs(thm - ref_thm) <= 1e-12 * max(1.0, ref_thm)
