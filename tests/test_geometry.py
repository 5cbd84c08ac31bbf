import math

import numpy as np
import pytest
from scipy.integrate import quad

from lorentz_gauge.errors import CapabilityError, DomainError
from lorentz_gauge.expansions import ScalarExpansion
from lorentz_gauge.gauge import random_connection
from lorentz_gauge.geometry import (
    Cylinder,
    Minkowski,
    ObservationSet,
    WarpedProduct,
    WorldLine,
    connect_null,
    earliest_obs_time,
    integrate_geodesic,
    integrate_geodesics,
    null_cut_time,
    null_vector,
    time_separation,
    unit_directions,
)
from lorentz_gauge.transport import BrokenRayQuery, broken_transform


class ExpBeta:
    """beta(t, x) = e^{2t}, analytic gradient."""

    def value(self, x):
        x = np.asarray(x, float)
        return np.exp(2 * x[..., 0])

    def grad(self, x):
        x = np.asarray(x, float)
        g = np.zeros(x.shape)
        g[..., 0] = 2 * np.exp(2 * x[..., 0])
        return g


def warped():
    return WarpedProduct(2, ExpBeta(), beta_time_only=True)


def warped_cosine():
    """Time-only warp beta = 1 + 0.3 cos(t/2) in 2+1, flat spatial factor."""
    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    return WarpedProduct(3, beta, beta_time_only=True)


def warped_spatial():
    """Warp beta = 1 + 0.3 cos(t/2 + x/3) with a g0_diag spatial factor, 2+1."""
    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 1 / 3, 0.0], 0.0)])
    g0 = [ScalarExpansion(3, constant=1.0, waves=[(0.2, [0.3, 0.0, 0.7], 0.4)]),
          ScalarExpansion(3, constant=1.5, waves=[(0.4, [0.0, 0.6, 0.2], 1.1)])]
    return WarpedProduct(3, beta, g0_diag=g0)


# -- metric basics ----------------------------------------------------------

METRICS = [Minkowski(3), Cylinder(), warped_cosine(), warped_spatial()]
METRIC_IDS = ["minkowski", "cylinder", "time-only-warp", "g0-warp"]


def _point_loop(method, *arrays):
    """method applied point by point over the leading axes of the arrays."""
    lead = arrays[0].shape[:-1]
    flat = [a.reshape(-1, a.shape[-1]) for a in arrays]
    out = np.array([method(*row) for row in zip(*flat)])
    return out.reshape(lead + out.shape[1:])


@pytest.mark.parametrize("metric", METRICS, ids=METRIC_IDS)
@pytest.mark.parametrize("lead", [(5,), (4, 3)])
def test_batched_metric_methods_match_point_loop(rng, metric, lead):
    x = rng.uniform(-1.5, 1.5, lead + (metric.dim,))
    u = rng.standard_normal(lead + (metric.dim,))
    v = rng.standard_normal(lead + (metric.dim,))
    for name in ("matrix", "inverse", "partials", "christoffel", "in_chart"):
        method = getattr(metric, name)
        got, loop = method(x), _point_loop(method, x)
        assert got.shape == loop.shape
        np.testing.assert_allclose(got, loop, rtol=1e-14, atol=1e-15)
    for name in ("flat", "sharp", "geodesic_acceleration"):
        method = getattr(metric, name)
        np.testing.assert_allclose(method(x, v), _point_loop(method, x, v),
                                   rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(metric.inner(x, u, v), _point_loop(metric.inner, x, u, v),
                               rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("metric", [warped_cosine(), warped_spatial()],
                         ids=["time-only-warp", "g0-warp"])
def test_geodesic_acceleration_closed_form_matches_christoffel(rng, metric):
    x = rng.uniform(-3.0, 3.0, (200, metric.dim))
    v = rng.standard_normal((200, metric.dim))
    ref = -np.einsum("...ijk,...j,...k->...i", metric.christoffel(x), v, v)
    got = metric.geodesic_acceleration(x, v)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_geodesic_acceleration_flat_is_zero(rng):
    for metric in (Minkowski(4), Cylinder()):
        x = rng.standard_normal((6, metric.dim))
        assert np.array_equal(metric.geodesic_acceleration(x, x), np.zeros_like(x))


def test_null_residual_matches_sample_loop():
    m = warped_cosine()
    y = np.array([1.0, 0.2, -0.3])
    seg = integrate_geodesic(m, y, null_vector(m, y, np.array([0.6, 0.8])), 2.0, h=1e-2)
    loop = max(abs(m.inner(x, v, v)) for x, v in zip(seg.x, seg.v))
    assert seg.null_residual() == pytest.approx(loop, rel=1e-14, abs=1e-300)


def test_minkowski_matrix():
    m = Minkowski(4)
    g = m.matrix(np.zeros(4))
    assert np.array_equal(g, np.diag([-1.0, 1, 1, 1]))
    assert np.all(m.christoffel(np.zeros(4)) == 0)


def test_flat_sharp_roundtrip(rng):
    m = warped()
    for _ in range(1000):
        x = rng.uniform(-1, 1, size=2)
        v = rng.standard_normal(2)
        assert np.allclose(m.sharp(x, m.flat(x, v)), v, atol=1e-12)


def test_warped_christoffel_oracle():
    # For beta = e^{2t} in 1+1: Gamma^0_00 = beta'/(2 beta) = 1.
    m = warped()
    gam = m.christoffel(np.array([0.37, -0.2]))
    assert abs(gam[0, 0, 0] - 1.0) < 1e-12
    # Gamma^0_11 = 1/(2 beta) * d_t g0 = ... spatial metric is constant here
    assert abs(gam[0, 1, 1]) < 1e-12
    # Gamma^1_jk all vanish for flat spatial factor with time-only warp
    assert np.max(np.abs(gam[1])) < 1e-12


def test_warped_partials_match_fd():
    m = WarpedProduct(
        3,
        ScalarExpansion(3, constant=2.0, waves=[(0.3, [0.7, 0.4, -0.2], 0.1)]),
        g0_diag=[
            ScalarExpansion(3, constant=1.5, waves=[(0.2, [0.3, -0.5, 0.6], 0.4)]),
            ScalarExpansion(3, constant=1.0, waves=[(0.1, [0.2, 0.1, 0.9], 1.2)]),
        ],
    )
    x = np.array([0.3, -0.1, 0.4])
    d = m.partials(x)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (m.matrix(x + e) - m.matrix(x - e)) / (2 * h)
        assert np.max(np.abs(d[k] - fd)) < 1e-7


def test_point_validation():
    m = Minkowski(3)
    with pytest.raises(DomainError):
        m.validate_point(np.zeros(4))
    with pytest.raises(DomainError):
        m.validate_point(np.array([0.0, np.nan, 0.0]))


# -- geodesics ----------------------------------------------------------------


def test_flat_geodesic_is_straight():
    m = Minkowski(4)
    v = np.array([1.0, 0.3, -0.2, 0.1])
    seg = integrate_geodesic(m, np.zeros(4), v, 2.0, h=0.1)
    assert np.allclose(seg.endpoint, 2.0 * v, atol=1e-14)
    pos, vel = seg.state(1.234)
    assert np.allclose(pos, 1.234 * v, atol=1e-14)
    assert np.allclose(vel, v)


def test_warped_null_geodesic_preserves_nullness():
    m = warped()
    v = null_vector(m, np.zeros(2), np.array([1.0]))
    seg = integrate_geodesic(m, np.zeros(2), v, 0.5, h=1e-3)
    assert seg.null_residual() < 1e-10


def test_warped_geodesic_fourth_order():
    # Richardson: halving h must cut the endpoint error ~16x.
    m = warped()
    v0 = np.array([1.0, 0.999])

    def endpoint(h):
        return integrate_geodesic(m, np.zeros(2), v0, 0.5, h=h).endpoint

    ref = endpoint(0.0025)
    e1 = np.linalg.norm(endpoint(0.02) - ref)
    e2 = np.linalg.norm(endpoint(0.01) - ref)
    assert 8.0 <= e1 / e2 <= 32.0


def test_segment_interpolation_accuracy():
    m = warped()
    seg = integrate_geodesic(m, np.zeros(2), np.array([1.0, 1.0]), 0.5, h=1e-3)
    fine = integrate_geodesic(m, np.zeros(2), np.array([1.0, 1.0]), 0.2537, h=1e-5)
    pos, _ = seg.state(0.2537)
    assert np.linalg.norm(pos - fine.endpoint) < 1e-10


def test_negative_parameter_range():
    m = warped()
    seg = integrate_geodesic(m, np.array([0.3, 0.0]), np.ones(2), 0.2, h=1e-3, s_min=-0.2)
    assert seg.s_min == pytest.approx(-0.2)
    p0, v0 = seg.state(0.0)
    assert np.allclose(p0, [0.3, 0.0], atol=1e-12)
    assert np.allclose(v0, [1.0, 1.0], atol=1e-10)
    # backward branch agrees with forward integration from the left endpoint
    pl, vl = seg.state(-0.2)
    fwd = integrate_geodesic(m, pl, vl, 0.2, h=1e-4)
    assert np.linalg.norm(fwd.endpoint - np.array([0.3, 0.0])) < 1e-8



def _rk4_ray(metric, x0, v0, s_stop, h):
    """One ray by the textbook loop: n equal steps to s_stop, stopping before
    the first step whose point or velocity is not finite or whose point
    leaves the chart."""
    n = max(1, math.ceil(abs(s_stop) / h))
    step = s_stop / n

    def f(x, v):
        return v, metric.geodesic_acceleration(x, v)

    xs, vs = [x0], [v0]
    x, v = x0, v0
    truncated = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            k1x, k1v = f(x, v)
            k2x, k2v = f(x + 0.5 * step * k1x, v + 0.5 * step * k1v)
            k3x, k3v = f(x + 0.5 * step * k2x, v + 0.5 * step * k2v)
            k4x, k4v = f(x + step * k3x, v + step * k3v)
            x = x + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            v = v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v)) and metric.in_chart(x)):
                truncated = True
                break
            xs.append(x)
            vs.append(v)
    return np.linspace(0.0, s_stop, n + 1)[: len(xs)], np.array(xs), np.array(vs), truncated


def _segment_by_rays(metric, x0, v0, s_max, h, s_min):
    """The segment on [s_min, s_max] from one backward and one forward ray loop."""
    s, xs, vs, truncated = np.zeros(1), x0[None], v0[None], False
    if s_max > 0:
        s, xs, vs, truncated = _rk4_ray(metric, x0, v0, s_max, h)
    if s_min < 0:
        sb, xb, vb, tb = _rk4_ray(metric, x0, v0, s_min, h)
        s, xs, vs = (np.concatenate([sb[:0:-1], s]), np.concatenate([xb[:0:-1], xs]),
                     np.concatenate([vb[:0:-1], vs]))
        truncated = truncated or tb
    return s, xs, vs, truncated


def _assert_segments_match_rays(metric, x0s, v0s, s_max, h, s_min):
    segments = integrate_geodesics(metric, x0s, v0s, s_max, h, s_min=s_min)
    assert len(segments) == len(x0s)
    for seg, args in zip(segments, zip(x0s, v0s, s_max, h, s_min)):
        s, xs, vs, truncated = _segment_by_rays(metric, *args)
        assert np.array_equal(seg.s, s)
        assert np.array_equal(seg.x, xs)
        assert np.array_equal(seg.v, vs)
        assert seg.truncated == truncated
    return segments


@pytest.mark.parametrize("metric", [warped_cosine(), warped_spatial()],
                         ids=["time-only", "g0_diag"])
def test_integrate_geodesics_matches_ray_loop(metric):
    # rays of different lengths and steps, backward ranges, and one range
    # [-0.8, 0] that ends at its start point
    x0s = np.array([[3.0, 0.2, 0.1], [2.5, -0.4, 0.3], [3.5, 0.0, -0.2], [3.0, 0.5, 0.5]])
    v0s = np.array([[1.0, 0.6, 0.8], [-1.0, 0.8, -0.6], [1.0, 0.0, 1.0], [0.5, 0.3, -0.4]])
    segments = _assert_segments_match_rays(metric, x0s, v0s, s_max=[1.0, 0.7, 0.0, 1.3],
                                           h=[1e-2, 3e-2, 2e-2, 5e-2],
                                           s_min=[0.0, -0.5, -0.8, -0.3])
    assert [seg.s_min for seg in segments] == [0.0, -0.5, -0.8, -0.3]
    assert [seg.s_max for seg in segments] == [1.0, 0.7, 0.0, 1.3]
    assert not any(seg.truncated for seg in segments)


def test_integrate_geodesics_truncates_one_ray_at_the_chart():
    # beta = 1 + 1.2 cos(x^1) is negative for |x^1 - pi| < 0.59: the first
    # ray's third step lands there, the others never come near
    beta = ScalarExpansion(3, constant=1.0, waves=[(1.2, [0.0, 1.0, 0.0], 0.0)])
    metric = WarpedProduct(3, beta, g0_diag=warped_spatial().g0_diag)
    x0s = np.array([[0.0, 1.8, 0.0], [0.0, 0.0, 0.0], [0.5, -0.3, 0.2]])
    v0s = np.array([[0.7, 1.0, 0.2], [1.0, 0.0, 0.5], [1.0, -0.2, 0.3]])
    segments = _assert_segments_match_rays(metric, x0s, v0s, s_max=[2.0, 1.5, 1.0],
                                           h=[0.2, 0.05, 0.1], s_min=[0.0, 0.0, -0.4])
    assert [seg.truncated for seg in segments] == [True, False, False]
    first = segments[0]
    assert len(first.s) == 3 and np.all(metric.in_chart(first.x))
    assert [seg.s_max for seg in segments[1:]] == [1.5, 1.0]


def test_integrate_geodesic_truncates_before_a_non_finite_velocity():
    # beta = 1 + cos(x^1) vanishes at x^1 = pi: the ray blows up there, and
    # a step can leave its point finite (of order 1e191) but its velocity NaN
    beta = ScalarExpansion(3, constant=1.0, waves=[(1.0, [0.0, 1.0, 0.0], 0.0)])
    metric = WarpedProduct(3, beta)
    seg = integrate_geodesic(metric, np.array([0.0, 2.5, 0.0]), np.array([1.0, 1.0, 0.3]),
                             3.0, h=0.01, s_min=-0.5)
    assert seg.truncated
    assert np.all(np.isfinite(seg.x)) and np.all(np.isfinite(seg.v))
    x, v = seg.state(np.linspace(seg.s_max - 0.01, seg.s_max, 5))
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(v))
    _assert_segments_match_rays(metric, np.array([[0.0, 2.5, 0.0]]), np.array([[1.0, 1.0, 0.3]]),
                                s_max=[3.0], h=[0.01], s_min=[-0.5])


@pytest.mark.parametrize("metric", [Minkowski(3), warped_cosine()], ids=["minkowski", "warped"])
def test_integrate_geodesic_range_must_contain_start(metric):
    x0 = np.array([3.0, 0.2, 0.1])
    v = null_vector(metric, x0, np.array([1.0, 0.0]))
    for s_max, s_min in ((-0.5, -1.0), (1.0, 0.5)):
        with pytest.raises(DomainError):
            integrate_geodesic(metric, x0, v, s_max, s_min=s_min)
    seg = integrate_geodesic(metric, x0, v, 0.0, s_min=-1.0)
    assert (seg.s_min, seg.s_max) == (-1.0, 0.0)
    assert np.array_equal(seg.endpoint, x0)


# -- causal structure ---------------------------------------------------------


def test_time_separation_minkowski_oracle():
    m = Minkowski(4)
    # [DERIVED] sqrt(2^2 - 1) = sqrt(3)
    tau = time_separation(m, np.zeros(4), np.array([2.0, 1.0, 0.0, 0.0]))
    assert tau == pytest.approx(math.sqrt(3.0), abs=1e-14)
    # not chronologically related: spacelike and past
    assert time_separation(m, np.zeros(4), np.array([1.0, 2.0, 0, 0])) == 0.0
    assert time_separation(m, np.zeros(4), np.array([-2.0, 1.0, 0, 0])) == 0.0


def test_time_separation_cylinder_winding():
    c = Cylinder()
    # antipodal point at time pi is null-related, tau = 0
    assert time_separation(c, [0.0, 0.0], [math.pi, math.pi]) == 0.0
    # beyond the cut the short way around gives tau > 0
    tau = time_separation(c, [0.0, 0.0], [4.0, math.pi])
    assert tau == pytest.approx(math.sqrt(16 - math.pi**2), abs=1e-12)
    # winding: a point many revolutions away is still reached
    tau2 = time_separation(c, [0.0, 0.0], [10.0, 6 * math.pi + 0.1])
    assert tau2 == pytest.approx(math.sqrt(100 - 0.1**2), abs=1e-12)


def test_time_separation_warped_conformal():
    # [DERIVED] with beta = e^{2t}, conformal time is e^t - 1, so
    # tau((0,0),(0.5,0.1)) = sqrt((e^0.5-1)^2 - 0.01).
    m = warped()
    expected = math.sqrt((math.exp(0.5) - 1.0) ** 2 - 0.01)
    assert time_separation(m, [0.0, 0.0], [0.5, 0.1]) == pytest.approx(expected, abs=1e-9)


class LinearBeta:
    """beta(t, x) = 1 + t; records every t it is evaluated at."""

    def __init__(self):
        self.seen = []

    def value(self, x):
        t = np.asarray(x, float)[..., 0]
        self.seen.extend(t.ravel())
        return 1.0 + t


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_conformal_time_matches_tight_quad():
    m = warped_cosine()
    t = np.arange(-300, 2501) / 100

    def sqrt_beta(u):
        return math.sqrt(1.0 + 0.3 * math.cos(u / 2))

    ref = [quad(sqrt_beta, 0.0, ti, epsabs=1e-14, epsrel=1e-14, limit=200)[0] for ti in t]
    assert np.max(np.abs(m.conformal_time(t) - ref)) < 1e-13


def test_conformal_time_evaluates_beta_between_0_and_t():
    # [DERIVED] beta = 1 + t: t~ = (2/3)((1 + t)^{3/2} - 1)
    for t in (-0.9, 0.3, 2.9, 5.0):
        beta = LinearBeta()
        m = WarpedProduct(2, beta, beta_time_only=True)
        assert abs(m.conformal_time(t) - 2 / 3 * ((1 + t) ** 1.5 - 1)) < 1e-13
        assert min(0.0, t) <= min(beta.seen) and max(beta.seen) <= max(0.0, t)
    with pytest.raises(DomainError):
        WarpedProduct(2, LinearBeta(), beta_time_only=True).conformal_time(-1.5)


def test_conformal_time_is_the_same_alone_and_in_a_batch():
    t = np.linspace(-3.0, 25.0, 281)
    m = warped_cosine()
    batch = m.conformal_time(t)
    # a fresh metric asked one point at a time widens its table at each cell
    alone = warped_cosine()
    assert all(alone.conformal_time(ti) == b for ti, b in zip(t, batch))
    m.conformal_time(40.0)
    assert np.array_equal(m.conformal_time(t), batch)


def test_time_separation_warped_capability():
    m = WarpedProduct(2, ExpBeta(), beta_time_only=False)
    with pytest.raises(CapabilityError):
        time_separation(m, [0.0, 0.0], [0.5, 0.1])


def test_lower_semicontinuity_spot_check():
    # tau is lower semicontinuous: approaching a chronological pair from
    # nearby points cannot overshoot the limit from below.
    m = Minkowski(3)
    x = np.zeros(3)
    y = np.array([2.0, 1.0, 0.0])
    tau0 = time_separation(m, x, y)
    for eps in [1e-2, 1e-4, 1e-6]:
        tau_eps = time_separation(m, x, y - np.array([eps, 0, 0]))
        assert tau_eps <= tau0 + 1e-12
        assert tau0 - tau_eps < 3 * eps


def test_null_cut_time_minkowski_infinite():
    m = Minkowski(4)
    v = null_vector(m, np.zeros(4), np.array([1.0, 0.0, 0.0]))
    assert null_cut_time(m, np.zeros(4), v, s_max=50.0) == math.inf


def test_null_cut_time_cylinder_pi():
    c = Cylinder()
    v = null_vector(c, np.zeros(2), np.array([1.0]))
    ct = null_cut_time(c, np.zeros(2), v, s_max=10.0)
    assert ct == pytest.approx(math.pi, abs=1e-12)
    # the cut lies beyond a shorter horizon
    assert null_cut_time(c, np.zeros(2), v, s_max=3.0) == math.inf


def test_null_cut_time_warped_time_only_infinite():
    # isometric to a Minkowski slab through conformal time: no cut points
    m = warped_cosine()
    y = np.array([3.0, 0.2, 0.1])
    for sign in (1.0, -1.0):
        v = null_vector(m, y, np.array([1.0, 0.0]), time_sign=sign)
        assert null_cut_time(m, y, v) == math.inf


def test_null_cut_time_warped_capability():
    m = WarpedProduct(2, ExpBeta(), beta_time_only=False)
    v = null_vector(m, np.zeros(2), np.array([1.0]))
    with pytest.raises(CapabilityError):
        null_cut_time(m, np.zeros(2), v)


def test_validated_warped_query_matches_unvalidated():
    m = warped_cosine()
    conn = random_connection(3, 2, np.random.default_rng(3), amplitude=0.5)
    y = np.array([3.0, 0.2, 0.1])
    v = null_vector(m, y, np.array([1.0, 0.0]), time_sign=-1.0)
    w = null_vector(m, y, np.array([0.0, 1.0]))
    q = BrokenRayQuery(y, v, w, 0.5, 0.6)
    obs = ObservationSet(m, T=6.0, radius=2.0)
    checked = broken_transform(m, conn, q, observation=obs)
    unchecked = broken_transform(m, conn, q, validate=False)
    assert np.array_equal(checked, unchecked)


def _tau_reference(metric, x, y):
    """The scalar formulas: flat tau, the cylinder's maximum over windings."""
    dt = y[0] - x[0]
    if dt <= 0:
        return 0.0
    if isinstance(metric, Cylinder):
        dth = y[1] - x[1]
        kmax = int(abs(dth) / (2 * math.pi) + abs(dt) / (2 * math.pi)) + 2
        best = 0.0
        for k in range(-kmax, kmax + 1):
            q = dt * dt - (dth + 2 * math.pi * k) ** 2
            if q > 0:
                best = max(best, math.sqrt(q))
        return best
    q = dt * dt - float(np.sum((y[1:] - x[1:]) ** 2))
    return math.sqrt(q) if q > 0 else 0.0


@pytest.mark.parametrize("metric, t_span, x_span", [
    (Minkowski(3), 8.0, 1.5),
    (Minkowski(4), 8.0, 1.5),
    (Cylinder(), 30.0, 40.0),  # pairs up to several windings apart
])
def test_batched_time_separation_matches_scalar_reference(rng, metric, t_span, x_span):
    n = 2000
    x = np.concatenate([rng.uniform(0, t_span, (n, 1)),
                        rng.uniform(-x_span, x_span, (n, metric.dim - 1))], axis=1)
    y = np.concatenate([rng.uniform(0, t_span, (n, 1)),
                        rng.uniform(-x_span, x_span, (n, metric.dim - 1))], axis=1)
    tau = metric.time_separation(x, y)
    ref = np.array([_tau_reference(metric, a, b) for a, b in zip(x, y)])
    assert tau.shape == (n,)
    assert 0.2 * n < np.count_nonzero(ref) < 0.8 * n
    assert np.array_equal(tau > 0, ref > 0)
    assert np.max(np.abs(tau - ref)) < 1e-12
    # the public scalar function agrees with the batched method
    for a, b, r in zip(x[:50], y[:50], ref[:50]):
        assert abs(time_separation(metric, a, b) - r) < 1e-12


def test_batched_time_separation_warped_conformal(rng):
    # [DERIVED] beta = e^{2t}: conformal time e^t - 1
    m = warped()
    n = 200
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.uniform(-1, 1, (n, 2))
    dt = np.exp(y[:, 0]) - np.exp(x[:, 0])
    q = dt * dt - (y[:, 1] - x[:, 1]) ** 2
    ref = np.where((dt > 0) & (q > 0), np.sqrt(np.maximum(q, 0)), 0.0)
    tau = m.time_separation(x, y)
    assert np.array_equal(tau > 0, ref > 0)
    assert np.max(np.abs(tau - ref)) < 1e-12


def test_null_cut_time_rejects_non_null():
    m = Minkowski(3)
    with pytest.raises(DomainError):
        null_cut_time(m, np.zeros(3), np.array([1.0, 0.0, 0.0]))


# -- observation sets ---------------------------------------------------------


def _contains_reference(obs, x, margin):
    """The scalar formula, one point at a time."""
    return (margin < x[0] < obs.T - margin
            and float(np.linalg.norm(x[1:] - obs.center)) < obs.radius - margin)


def test_batched_contains_matches_scalar_formula(rng):
    obs = ObservationSet(Minkowski(3), T=6.0, radius=1.0, center=np.array([0.3, -0.2]))
    margin = 1e-3
    n = 20000
    pts = np.concatenate([rng.uniform(-0.5, 6.5, (n, 1)),
                          obs.center + rng.uniform(-1.3, 1.3, (n, 2))], axis=1)
    # points on the margin: in time at both ends, in space on the shrunk circle
    edge = pts[:300].copy()
    edge[:50, 0] = margin
    edge[50:100, 0] = obs.T - margin
    ang = rng.uniform(0.0, 2 * math.pi, 200)
    edge[100:, 1:] = obs.center + (obs.radius - margin) * np.stack([np.cos(ang), np.sin(ang)], 1)
    pts = np.concatenate([pts, edge])
    for m in (0.0, margin):
        got = obs.contains(pts, margin=m)
        ref = np.array([_contains_reference(obs, p, m) for p in pts])
        assert got.shape == (len(pts),)
        assert 0.1 * n < np.count_nonzero(ref) < 0.9 * n
        assert np.array_equal(got, ref)
        assert all(obs.contains(p, margin=m) == r for p, r in zip(edge, ref[n:]))
    # one point gives one truth value; leading axes are kept
    assert obs.contains(pts[0]).shape == ()
    assert obs.contains(pts[:12].reshape(3, 4, 3)).shape == (3, 4)


def _middle_inside_loop(obs, segments, params, margin):
    """Per-parameter scan: the middle of the parameters at which every point is inside."""
    valid = [float(s) for s in params
             if all(_contains_reference(obs, seg.position(float(s)), margin) for seg in segments)]
    return valid[len(valid) // 2] if valid else None


@pytest.mark.parametrize("metric", [Minkowski(3), warped_cosine()], ids=["minkowski", "warped"])
@pytest.mark.parametrize("n_segments", [1, 3])
def test_middle_inside_matches_parameter_loop(rng, metric, n_segments):
    obs = ObservationSet(metric, T=6.0, radius=1.0)
    outcomes = set()
    for _ in range(6):
        y = np.concatenate([[rng.uniform(2.0, 4.5)], rng.uniform(-1.5, 1.5, 2)])
        aim = -y[1:] / np.linalg.norm(y[1:])
        segments = [
            integrate_geodesic(
                metric, y, null_vector(metric, y, aim + 0.4 * rng.standard_normal(2), -1.0),
                y[0], h=2e-2,
            )
            for _ in range(n_segments)
        ]
        params = np.linspace(1e-3, y[0], 80)
        for margin in (0.0, 1e-3, 0.3):
            got = obs.middle_inside(segments, params, margin)
            assert got == _middle_inside_loop(obs, segments, params, margin)
            outcomes.add(got is None)
    assert outcomes == {True, False}


# -- worldlines and earliest observation --------------------------------------


def test_earliest_obs_times_static_line():
    # [DERIVED] static observer at the spatial origin, query at (t0, r):
    # f+ = t0 + r, f- = t0 - r.
    m = Minkowski(4)
    line = WorldLine(m, T=6.0)
    y = np.array([2.0, 1.5, 0.0, 0.0])
    assert earliest_obs_time(m, line, y, "future") == pytest.approx(3.5, abs=1e-6)
    assert earliest_obs_time(m, line, y, "past") == pytest.approx(0.5, abs=1e-6)


def test_earliest_obs_time_empty_cases():
    m = Minkowski(4)
    line = WorldLine(m, T=2.0)
    far = np.array([1.0, 10.0, 0.0, 0.0])
    assert earliest_obs_time(m, line, far, "future") == 2.0
    assert earliest_obs_time(m, line, far, "past") == 0.0


def test_moving_worldline():
    m = Minkowski(3)
    line = WorldLine(m, T=4.0, spatial=lambda s: np.stack([0.25 * s, 0 * s], axis=1))
    y = np.array([1.0, 2.0, 0.0])
    fp = earliest_obs_time(m, line, y, "future", tol=1e-10)
    # solve s - 1 = |(0.25 s - 2, 0)|  =>  (s-1)^2 = (0.25 s - 2)^2
    # => 0.9375 s^2 - s - 3 = 0, positive root:
    s_star = (1 + math.sqrt(1 + 4 * 0.9375 * 3)) / (2 * 0.9375)
    assert fp == pytest.approx(s_star, abs=1e-6)


# -- null connection -----------------------------------------------------------


def test_connect_null_minkowski_example():
    m = Minkowski(4)
    sols, diag = connect_null(m, np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]))
    assert len(sols) == 1
    assert np.allclose(sols[0].v, [1.0, 1.0, 0.0, 0.0], atol=1e-8)
    assert sols[0].s_arr == pytest.approx(1.0, abs=1e-8)
    assert diag["n_converged"] >= 1


def test_connect_null_cylinder_two_rays():
    c = Cylinder()
    sols, _ = connect_null(c, np.zeros(2), np.array([math.pi, math.pi]))
    vs = sorted(tuple(np.round(s.v, 6)) for s in sols)
    assert vs == [(1.0, -1.0), (1.0, 1.0)]
    for s in sols:
        assert s.s_arr == pytest.approx(math.pi, abs=1e-6)


def test_connect_null_past_direction():
    m = Minkowski(3)
    sols, _ = connect_null(m, np.zeros(3), np.array([-2.0, 2.0, 0.0]))
    assert len(sols) == 1
    assert sols[0].v[0] == pytest.approx(-1.0, abs=1e-9)


def test_connect_null_no_solution():
    m = Minkowski(3)
    sols, _ = connect_null(m, np.zeros(3), np.array([1.0, 3.0, 0.0]), n_starts=16)
    assert sols == []


def test_connect_null_identical_points():
    m = Minkowski(3)
    with pytest.raises(DomainError):
        connect_null(m, np.zeros(3), np.zeros(3))


def test_unit_directions_are_unit(rng):
    for nsp, cnt in [(1, 2), (2, 8), (3, 64)]:
        d = unit_directions(nsp, cnt)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
