import numpy as np
import pytest

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
    Minkowski,
    ObservationSet,
    WarpedProduct,
    integrate_geodesic,
    null_vector,
)
from lorentz_gauge.linalg import unitarity_residual
from lorentz_gauge.reconstruction import (
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

    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    m = WarpedProduct(3, beta, beta_time_only=True)
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


def test_reconstruction_report_fields(planted):
    a, _, b = planted
    oa, ob = oracles(a, b)
    grid = diamond_grid(M3, OBS, per_axis=3)[:4]
    rec = reconstruct_gauge(M3, oa, ob, grid, OBS, k_directions=4)
    report = rec.to_json()
    for key in ("points", "values", "spread", "unresolved", "mode",
                "ode_residual", "theorem_residual", "n_unresolved", "max_spread"):
        assert key in report
    assert rec.value_at(grid[0]).shape == (N, N)
    with pytest.raises(DomainError):
        rec.value_at(grid[0] + 10.0)


def test_unresolved_points_flagged(planted):
    a, _, b = planted
    oa, ob = oracles(a, b)
    # a vertex too late to reach the observation set before T
    late = np.array([[5.9, 2.0, 0.0]])
    rec = reconstruct_gauge(M3, oa, ob, late, OBS, k_directions=4)
    assert rec.n_unresolved == 1
    assert rec.mode[0] == "none"
    assert np.array_equal(rec.values[0], np.eye(N))


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


def test_verify_ode_boundary_skip(planted):
    a, phi, b = planted
    bounds = (np.array([0.0, -3.0, -3.0]), np.array([1.0, 3.0, 3.0]))
    pts = np.array([[0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
    res, skipped = verify_gauge_ode(M3, a, b, phi, pts, bounds=bounds)
    assert skipped == 1


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


def test_verify_theorem_fd_path(planted):
    # callable phi without analytic differential exercises the FD branch
    a, phi, b = planted
    res, _ = verify_theorem(M3, a, b, lambda x: phi.value(x), sample_points(), fd_step=1e-5)
    assert res < 1e-5
