import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from lorentz_gauge import geometry
from lorentz_gauge.errors import CapabilityError, DomainError, GeometryError
from lorentz_gauge.expansions import ScalarExpansion
from lorentz_gauge.gauge import random_connection
from lorentz_gauge.geometry import (
    Cylinder,
    GeodesicSegment,
    Minkowski,
    ObservationSet,
    TimeWarp,
    WarpedProduct,
    WorldLine,
    connect_null,
    earliest_obs_time,
    integrate_geodesic,
    integrate_geodesics,
    metric_from_json,
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
    return TimeWarp(2, ExpBeta())


def warped_cosine(time_only=True):
    """Time-only warp beta = 1 + 0.3 cos(t/2) in 2+1, flat spatial factor;
    with time_only=False the same beta undeclared, whose rays RK4 marches."""
    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    return TimeWarp(3, beta) if time_only else WarpedProduct(3, beta)


def warped_spatial():
    """Warp beta = 1 + 0.3 cos(t/2 + x/3) with a g0_diag spatial factor, 2+1."""
    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 1 / 3, 0.0], 0.0)])
    g0 = [ScalarExpansion(3, constant=1.0, waves=[(0.2, [0.3, 0.0, 0.7], 0.4)]),
          ScalarExpansion(3, constant=1.5, waves=[(0.4, [0.0, 0.6, 0.2], 1.1)])]
    return WarpedProduct(3, beta, g0_diag=g0)


# -- metric basics ----------------------------------------------------------

METRICS = [Minkowski(3), Cylinder(), warped_cosine(), warped_spatial()]
METRIC_IDS = ["minkowski", "cylinder", "time-only-warp", "g0-warp"]


def _lower(metric, x, v):
    """Index lowering: the covector g(v, .)."""
    return (metric.matrix(x) @ np.asarray(v, dtype=float)[..., None])[..., 0]


def _raise(metric, x, xi):
    """Index raising: the vector g^-1 xi, with g(g^-1 xi, .) = xi."""
    return (metric.inverse(x) @ np.asarray(xi, dtype=float)[..., None])[..., 0]


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
    for method in (partial(_lower, metric), partial(_raise, metric),
                   metric.geodesic_acceleration):
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
        assert np.allclose(_raise(m, x, _lower(m, x, v)), v, atol=1e-12)


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


@pytest.mark.parametrize("metric", [Minkowski(3), Cylinder()], ids=["minkowski", "cylinder"])
def test_flat_segments_keep_one_velocity_row(metric):
    # a flat segment stores its constant velocity as one broadcast row of
    # its own, and state gives the bits of a segment that stores every row
    x0s = np.array([[1.0, 0.2, 0.1], [2.0, -0.3, 0.4]])[:, : metric.dim]
    v0s = np.array([[1.0, 0.6, 0.8], [-1.0, 0.8, -0.6]])[:, : metric.dim]
    segments = integrate_geodesics(metric, x0s, v0s, [0.7, 0.9], [0.1, 0.03], s_min=-0.3)
    for seg, v0 in zip(segments, v0s):
        assert seg.v.strides[0] == 0
        assert np.array_equal(seg.v, np.broadcast_to(v0, seg.x.shape))
        assert not np.shares_memory(seg.v, v0s)
        dense = GeodesicSegment(metric, seg.s, seg.x, np.array(seg.v))
        for si in (np.array([-0.3, 0.0, 0.123, 0.7]), 0.123):
            for got, want in zip(seg.state(si), dense.state(si)):
                assert np.array_equal(got, want)


def test_warped_null_geodesic_preserves_nullness():
    m = warped()
    v = null_vector(m, np.zeros(2), np.array([1.0]))
    seg = integrate_geodesic(m, np.zeros(2), v, 0.5, h=1e-3)
    assert seg.null_residual() < 1e-10


def test_warped_geodesic_fourth_order():
    # Richardson: halving h must cut the endpoint error ~16x; beta = e^{2t}
    # undeclared, since the declared time-only warp has closed-form rays
    m = WarpedProduct(2, ExpBeta())
    v0 = np.array([1.0, 0.999])

    def endpoint(h):
        return integrate_geodesic(m, np.zeros(2), v0, 0.5, h=h).endpoint

    ref = endpoint(0.0025)
    e1 = np.linalg.norm(endpoint(0.02) - ref)
    e2 = np.linalg.norm(endpoint(0.01) - ref)
    assert 8.0 <= e1 / e2 <= 32.0


@pytest.mark.parametrize("declared, marched, rays", [
    (warped_cosine(), warped_cosine(time_only=False),
     [([1.0, 0.2, 0.1], [0.6, 0.8]), ([2.5, -0.3, 0.4], [-1.0, 0.0]), ([0.0, 0.0, 0.0], [0.8, -0.6])]),
    # RK4's own error at h = 5e-3 stays below 1e-13 where v^0 = e^{-t} < 1
    (warped(), WarpedProduct(2, ExpBeta()),
     [([1.0, 0.0], [1.0]), ([1.2, 0.1], [-1.0]), ([1.5, 0.0], [1.0])]),
], ids=["cosine", "exp"])
def test_closed_form_geodesics_match_rk4(declared, marched, rays):
    # the straight lines of conformal time on a declared time-only warp, against
    # RK4 on the same beta undeclared: same grid, positions and velocities within
    # 1e-12, and a worst null residual below RK4's (a ray's start vector is shared)
    residuals = []
    for x0, u in rays:
        x0 = np.array(x0)
        for sign in (1.0, -1.0):
            v0 = null_vector(declared, x0, np.array(u), time_sign=sign)
            closed = integrate_geodesic(declared, x0, v0, 0.5, h=5e-3, s_min=-0.5)
            rk4 = integrate_geodesic(marched, x0, v0, 0.5, h=5e-3, s_min=-0.5)
            assert np.array_equal(closed.s, rk4.s)
            assert np.max(np.abs(closed.x - rk4.x)) < 1e-12
            assert np.max(np.abs(closed.v - rk4.v)) < 1e-12
            residuals.append((closed.null_residual(), rk4.null_residual()))
    worst_closed, worst_rk4 = np.max(residuals, axis=0)
    assert worst_closed < worst_rk4


def test_closed_form_geodesics_on_exp_warp_are_exact():
    # beta = e^{2t}: conformal time e^t - 1, so t(s) = t0 + log(1 + v^0 s) and
    # v^0(s) = v^0 / (1 + v^0 s)
    v0 = np.array([0.8, 1.0])
    seg = integrate_geodesic(warped(), np.array([0.3, 0.1]), v0, 1.0, h=1e-2, s_min=-0.5)
    assert np.allclose(seg.x[:, 0], 0.3 + np.log1p(0.8 * seg.s), rtol=0, atol=1e-14)
    assert np.allclose(seg.v[:, 0], 0.8 / (1 + 0.8 * seg.s), rtol=0, atol=1e-14)
    assert np.array_equal(seg.x[:, 1], 0.1 + seg.s * 1.0)
    assert np.array_equal(seg.v[:, 1], np.ones(len(seg.s)))


def test_closed_form_newton_names_its_failure():
    # a conformal time whose slope is not sqrt(beta) sends Newton's method away
    # from the root: after its cap of steps it raises, never returns a guess
    metric = warped_cosine()
    metric.conformal_time = lambda t: 3.0 * np.asarray(t)
    with pytest.raises(GeometryError, match="did not converge"):
        integrate_geodesic(metric, np.zeros(3), np.array([1.0, 0.6, 0.8]), 1.0, h=0.1)


def test_segment_interpolation_accuracy():
    m = warped()
    seg = integrate_geodesic(m, np.zeros(2), np.array([1.0, 1.0]), 0.5, h=1e-3)
    fine = integrate_geodesic(m, np.zeros(2), np.array([1.0, 1.0]), 0.2537, h=1e-5)
    pos, _ = seg.state(0.2537)
    assert np.linalg.norm(pos - fine.endpoint) < 1e-10


def _hermite_state(seg, si):
    """The two-blend cubic Hermite formula of a curved segment's state, the
    reference for its cached cubics: position from the samples and their
    velocities, velocity from the velocities and the geodesic accelerations."""
    sq = np.clip(np.atleast_1d(np.asarray(si, dtype=float)), seg.s[0], seg.s[-1])
    idx = np.clip(np.searchsorted(seg.s, sq, side="right") - 1, 0, len(seg.s) - 2)
    h = (seg.s[idx + 1] - seg.s[idx])[:, None]
    t = (sq - seg.s[idx])[:, None] / h
    basis = (2 * t**3 - 3 * t**2 + 1, t**3 - 2 * t**2 + t, -2 * t**3 + 3 * t**2, t**3 - t**2)

    def blend(p, m):
        return (basis[0] * p[idx] + basis[1] * m[idx] * h
                + basis[2] * p[idx + 1] + basis[3] * m[idx + 1] * h)

    acc = seg.metric.geodesic_acceleration(seg.x, seg.v)
    return blend(seg.x, seg.v), blend(seg.v, acc)


# the rays of a time-only warp (closed form) and of warps whose rays RK4 marches
CURVED_RAYS = {
    "time-only-warp": (warped_cosine(), [([1.0, 0.2, 0.1], [0.6, 0.8]),
                                         ([2.5, -0.3, 0.4], [-1.0, 0.0])]),
    "undeclared-warp": (warped_cosine(time_only=False), [([1.0, 0.2, 0.1], [0.6, 0.8]),
                                                          ([0.0, 0.0, 0.0], [0.8, -0.6])]),
    "g0-warp": (warped_spatial(), [([0.5, 0.3, -0.2], [0.0, 1.0]),
                                   ([-0.4, 0.1, 0.6], [0.6, 0.8])]),
}


@pytest.mark.parametrize("case", CURVED_RAYS)
def test_curved_state_matches_hermite_blends(rng, case):
    # the cached per-cell cubics are the polynomials of the two Hermite blends,
    # so state agrees with them to rounding wherever it is read: between
    # samples, at samples, at both ends and within the 1e-9 clip beyond them
    metric, rays = CURVED_RAYS[case]
    x0s = np.array([x0 for x0, _ in rays])
    v0s = np.array([null_vector(metric, x0, np.array(u)) for x0, (_, u) in zip(x0s, rays)])
    for seg in integrate_geodesics(metric, x0s, v0s, 1.0, 0.05, s_min=-0.6):
        assert not seg.truncated and len(seg.s) > 10
        interior = rng.uniform(seg.s_min, seg.s_max, 300)
        ends = [seg.s_min, seg.s_max, seg.s_min - 5e-10, seg.s_max + 5e-10]
        for si in (interior, seg.s, np.array(ends)):
            for got, want in zip(seg.state(si), _hermite_state(seg, si)):
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        for si in (0.3217, seg.s_max):
            for got, want in zip(seg.state(si), _hermite_state(seg, si)):
                assert got.shape == (metric.dim,)
                assert np.all(np.abs(got - want[0]) <= 1e-14 * np.maximum(1.0, np.abs(want[0])))
        # a stored sample comes back with its bits
        for got, want in zip(seg.state(seg.s), (seg.x, seg.v)):
            assert np.array_equal(got, want)


def test_curved_segment_evaluates_accelerations_once(monkeypatch):
    metric = warped_spatial()
    x0s = np.array([[0.5, 0.3, -0.2], [-0.4, 0.1, 0.6]])
    v0s = np.array([null_vector(metric, x0, np.array([0.6, 0.8])) for x0 in x0s])
    segments = integrate_geodesics(metric, x0s, v0s, 1.0, 0.05)
    calls = []
    acceleration = metric.geodesic_acceleration
    monkeypatch.setattr(metric, "geodesic_acceleration",
                        lambda x, v: calls.append(len(x)) or acceleration(x, v))
    for seg in segments:
        for si in (0.25, np.linspace(0.0, 1.0, 7), np.array([0.9, 0.1])):
            seg.state(si)
    assert calls == [len(seg.s) for seg in segments]


def _expansion(constant, *freqs):
    """A scalar expansion block in 2+1: the constant and one wave of amplitude 0.3 per freq."""
    return {"dim": 3, "constant": constant,
            "waves": [{"amp": 0.3, "freq": list(freq), "phase": 0} for freq in freqs]}


@pytest.mark.parametrize("block", [
    {"kind": "minkowski", "dim": 3},
    {"kind": "cylinder"},
    {"kind": "warped", "dim": 3, "beta_time_only": True, "beta": _expansion(1.0, (0.5, 0, 0))},
    {"kind": "warped", "dim": 3, "beta": _expansion(1.0, (0.5, 0.2, 0))},
    {"kind": "warped", "dim": 3, "beta": _expansion(1.0),
     "g0_diag": [_expansion(1.5), _expansion(0.5, (0, 1, 0))]},
], ids=["minkowski", "cylinder", "time-only-warp", "warp", "g0-warp"])
def test_one_sample_segment_state_is_its_sample(block):
    # a segment of zero length holds its start alone, and state reads it back
    metric = metric_from_json(block)
    x0 = np.array([0.4, 0.3, -0.2])[: metric.dim]
    v0 = null_vector(metric, x0, np.array([0.6, 0.8])[: metric.dim - 1])
    seg = integrate_geodesic(metric, x0, v0, 0.0)
    assert len(seg.s) == 1
    for si in (0.0, np.zeros(3)):
        pos, vel = seg.state(si)
        assert np.array_equal(pos, np.broadcast_to(x0, pos.shape))
        assert np.array_equal(vel, np.broadcast_to(v0, vel.shape))


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


def _segment_alone(metric, x0, v0, s_max, h, s_min):
    """The segment of one ray integrated alone."""
    seg = integrate_geodesic(metric, x0, v0, s_max, h=h, s_min=s_min)
    return seg.s, seg.x, seg.v, seg.truncated


def _assert_segments_match_rays(metric, x0s, v0s, s_max, h, s_min, alone=_segment_by_rays):
    """Each ray of the stack has the bits of alone(metric, x0, v0, s_max, h, s_min)."""
    segments = integrate_geodesics(metric, x0s, v0s, s_max, h, s_min=s_min)
    assert len(segments) == len(x0s)
    for seg, args in zip(segments, zip(x0s, v0s, s_max, h, s_min)):
        s, xs, vs, truncated = alone(metric, *args)
        assert np.array_equal(seg.s, s)
        assert np.array_equal(seg.x, xs)
        assert np.array_equal(seg.v, vs)
        assert seg.truncated == truncated
    return segments


@pytest.mark.parametrize("metric, alone",
                         [(warped_cosine(), _segment_alone),
                          (warped_cosine(time_only=False), _segment_by_rays),
                          (warped_spatial(), _segment_by_rays)],
                         ids=["closed-form", "time-only", "g0_diag"])
def test_integrate_geodesics_matches_ray_loop(metric, alone):
    # rays of different lengths and steps, backward ranges, and one range
    # [-0.8, 0] that ends at its start point; a marched ray has the bits of
    # the textbook RK4 loop, a closed-form ray the bits it has alone
    x0s = np.array([[3.0, 0.2, 0.1], [2.5, -0.4, 0.3], [3.5, 0.0, -0.2], [3.0, 0.5, 0.5]])
    v0s = np.array([[1.0, 0.6, 0.8], [-1.0, 0.8, -0.6], [1.0, 0.0, 1.0], [0.5, 0.3, -0.4]])
    segments = _assert_segments_match_rays(metric, x0s, v0s, s_max=[1.0, 0.7, 0.0, 1.3],
                                           h=[1e-2, 3e-2, 2e-2, 5e-2],
                                           s_min=[0.0, -0.5, -0.8, -0.3], alone=alone)
    assert [seg.s_min for seg in segments] == [0.0, -0.5, -0.8, -0.3]
    assert [seg.s_max for seg in segments] == [1.0, 0.7, 0.0, 1.3]
    assert not any(seg.truncated for seg in segments)


def test_closed_form_serves_the_slab_of_a_vanishing_warp_where_rk4_truncates():
    # beta = 0.5 + cos(t/2) (the CLI's vanishing warp) vanishes at t = +-4pi/3
    # and 8pi/3, and conformal time cannot reach past the first zero (the
    # stack that holds a ray crossing it raises: STACK_PATHS). Declared
    # time-only, the rays inside keep the closed-form bits they have alone,
    # the last one too: from t0 = -4, where beta = 0.08, its coordinate-time
    # guess t0 + v^0 s reaches t = 5 beyond the zero, while its true t(9) is
    # -0.958; RK4 on the same beta undeclared agrees within its own error
    beta = ScalarExpansion(3, constant=0.5, waves=[(1.0, [0.5, 0.0, 0.0], 0.0)])
    metric = TimeWarp(3, beta)
    x0s = np.array([[1.0, 0.2, 0.1], [3.25, 0.1, 0.0], [2.0, -0.4, 0.3], [10.0, 0.1, -0.2],
                    [3.5, 0.0, 0.0], [-4.0, 0.0, 0.0]])
    v0s = np.array([[1.0, 0.6, 0.8], [1.6, 0.5, 0.2], [-1.0, 0.8, -0.6], [1.0, 0.0, 1.0],
                    [1.0, 0.5, 0.2], [1.0, 0.3, 0.0]])
    s_max, h, s_min = ([1.0, 2.0, 0.5, 1.0, 1.0, 9.0], [1e-2, 0.2, 2e-2, 1e-2, 1e-2, 4e-3],
                       [-0.5, 0.0, -0.4, -0.3, 0.0, 0.0])
    served = [0, 2, 5]
    closed = _assert_segments_match_rays(
        metric, x0s[served], v0s[served], [s_max[r] for r in served], [h[r] for r in served],
        [s_min[r] for r in served], alone=_segment_alone)[-1]
    assert closed.x[-1, 0] == pytest.approx(-0.958, abs=1e-3)
    rk4 = integrate_geodesic(WarpedProduct(3, beta), x0s[5], v0s[5], 9.0, h=4e-3)
    assert np.array_equal(closed.s, rk4.s) and not rk4.truncated
    assert np.max(np.abs(closed.x - rk4.x)) < 1e-8
    assert np.max(np.abs(closed.v - rk4.v)) < 1e-8
    # the same beta undeclared: RK4 marches every ray as the RK4 loop does. The
    # crossing ray stops at t = 4.1879, and the ray from (3.5, 0, 0), whose RK4 stage lands
    # where beta < 0, stops at its last good step, t = 4.1627 after 45 steps;
    # the other rays of the stack keep their bits
    metric = WarpedProduct(3, beta)
    segments = _assert_segments_match_rays(metric, x0s[:5], v0s[:5], s_max[:5], h[:5], s_min[:5])
    assert [seg.truncated for seg in segments] == [False, True, False, False, True]
    assert segments[1].x[-1, 0] == pytest.approx(4.1879, abs=1e-4)
    assert len(segments[4].s) == 46
    assert segments[4].x[-1, 0] == pytest.approx(4.1627, abs=1e-4)


def _field(constant, amp, freq):
    return {"dim": 3, "constant": constant, "waves": [{"amp": amp, "freq": freq, "phase": 0.0}]}


# each metric kind that metric_from_json builds, with the rays of a stack of three
# that the closed form serves and the RK4 directions marched (None: the stack raises);
# a time-only beta with a g0_diag factor is a WarpedProduct, whose rays RK4 marches
STACK_PATHS = {
    "minkowski": ({"kind": "minkowski", "dim": 3}, (3, 0)),
    "cylinder": ({"kind": "cylinder"}, (3, 0)),
    "time-only-warp": ({"kind": "warped", "dim": 3, "beta_time_only": True,
                        "beta": _field(1.0, 0.3, [0.5, 0.0, 0.0])}, (3, 0)),
    "warp": ({"kind": "warped", "dim": 3, "beta": _field(1.0, 0.3, [0.5, 0.2, 0.0])}, (0, 5)),
    "g0-warp": ({"kind": "warped", "dim": 3, "beta": _field(1.0, 0.3, [0.5, 0.0, 0.0]),
                 "g0_diag": [_field(1.0, 0.2, [0.3, 0.0, 0.7]),
                             _field(1.5, 0.4, [0.0, 0.6, 0.2])]}, (0, 5)),
    "time-only-g0-warp": ({"kind": "warped", "dim": 3, "beta_time_only": True,
                           "beta": _field(1.0, 0.3, [0.5, 0.0, 0.0]),
                           "g0_diag": [_field(1.0, 0.2, [0.3, 0.0, 0.7]),
                                       _field(1.5, 0.4, [0.0, 0.6, 0.2])]}, (0, 5)),
    "vanishing-warp": ({"kind": "warped", "dim": 3, "beta_time_only": True,
                        "beta": _field(0.5, 1.0, [0.5, 0.0, 0.0])}, None),
}


@pytest.mark.parametrize("kind", list(STACK_PATHS))
def test_a_stack_takes_one_geodesic_path(monkeypatch, kind):
    # a stack with backward and forward ranges is served entirely by the closed
    # form or marched entirely by RK4, never split between them; on the vanishing
    # warp beta = 0.5 + cos(t/2) the last ray crosses t = 4pi/3, which conformal
    # time cannot reach, and the stack raises with no RK4 march
    block, expected = STACK_PATHS[kind]
    metric = metric_from_json(block)
    assert (type(metric) is TimeWarp) == (kind in ("time-only-warp", "vanishing-warp"))
    counts = [0, 0]
    samples, march = type(metric).geodesic_samples, geometry._rk4_march

    def serving(self, x0s, v0s, s):
        served = samples(self, x0s, v0s, s)
        counts[0] += len(served)
        return served

    def marching(metric, x0, v0, s_stop, n_steps):
        counts[1] += len(n_steps)
        return march(metric, x0, v0, s_stop, n_steps)

    monkeypatch.setattr(type(metric), "geodesic_samples", serving)
    monkeypatch.setattr(geometry, "_rk4_march", marching)
    x0s = np.array([[1.0, 0.2, 0.1], [2.0, -0.4, 0.3], [3.25, 0.1, 0.0]])[:, :metric.dim]
    v0s = np.array([[1.0, 0.6, 0.8], [-1.0, 0.8, -0.6], [1.6, 0.5, 0.2]])[:, :metric.dim]
    args = (metric, x0s, v0s, [1.0, 0.5, 2.0], [1e-2, 2e-2, 0.2])
    if expected is None:
        with pytest.raises(DomainError, match="between 0 and t"):
            integrate_geodesics(*args, s_min=[-0.5, -0.4, 0.0])
        assert counts == [0, 0]
    else:
        segments = integrate_geodesics(*args, s_min=[-0.5, -0.4, 0.0])
        assert tuple(counts) == expected
        assert [(seg.s_min, seg.s_max) for seg in segments] == [(-0.5, 1.0), (-0.4, 0.5),
                                                                 (0.0, 2.0)]


# the three queries a warped product lacks: closed-form rays, tau and null cut times
WARP_QUERIES = {
    "geodesic_samples": lambda m: m.geodesic_samples(np.zeros((1, 3)), np.array([[1.0, 0.6, 0.8]]),
                                                     [np.linspace(0.0, 1.0, 5)]),
    "time_separation": lambda m: time_separation(m, np.zeros(3), [0.5, 0.1, 0.0]),
    "null_cut_time": lambda m: null_cut_time(m, np.zeros(3),
                                             null_vector(m, np.zeros(3), np.array([1.0, 0.0]))),
}


@pytest.mark.parametrize("make", [lambda: warped_cosine(time_only=False), warped_spatial,
                                  lambda: metric_from_json(STACK_PATHS["time-only-g0-warp"][0])],
                         ids=["undeclared", "g0_diag", "time-only-g0_diag-block"])
@pytest.mark.parametrize("query", list(WARP_QUERIES))
def test_warped_product_queries_are_capabilities(make, query):
    # a warp whose beta is not declared time-only, or that has a g0_diag factor
    # (declared time-only or not), has neither closed-form rays nor causal queries
    with pytest.raises(CapabilityError, match="time-only warping function"):
        WARP_QUERIES[query](make())


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
        m = TimeWarp(2, beta)
        assert abs(m.conformal_time(t) - 2 / 3 * ((1 + t) ** 1.5 - 1)) < 1e-13
        assert min(0.0, t) <= min(beta.seen) and max(beta.seen) <= max(0.0, t)
    with pytest.raises(DomainError):
        TimeWarp(2, LinearBeta()).conformal_time(-1.5)


def test_conformal_time_far_beyond_a_zero_stops_near_it():
    # beta = 1 + t vanishes at t = -1: a t of -1e9 (as a Newton step of the
    # closed-form rays can reach where sqrt(beta) is small) raises after the
    # table has doubled past the zero, not after a table of 4e9 cells
    beta = LinearBeta()
    with pytest.raises(DomainError):
        TimeWarp(2, beta).conformal_time(-1e9)
    assert min(beta.seen) >= -2.0 and len(beta.seen) < 200


def test_conformal_time_is_the_same_alone_and_in_a_batch():
    t = np.linspace(-3.0, 25.0, 281)
    m = warped_cosine()
    batch = m.conformal_time(t)
    # a fresh metric asked one point at a time widens its table at each cell
    alone = warped_cosine()
    assert all(alone.conformal_time(ti) == b for ti, b in zip(t, batch))
    m.conformal_time(40.0)
    assert np.array_equal(m.conformal_time(t), batch)


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
    assert null_cut_time(m, np.zeros(4), v) == math.inf


def test_null_cut_time_cylinder_pi():
    c = Cylinder()
    v = null_vector(c, np.zeros(2), np.array([1.0]))
    ct = null_cut_time(c, np.zeros(2), v)
    assert ct == pytest.approx(math.pi, abs=1e-12)


def test_null_cut_time_warped_time_only_infinite():
    # isometric to a Minkowski slab through conformal time: no cut points
    m = warped_cosine()
    y = np.array([3.0, 0.2, 0.1])
    for sign in (1.0, -1.0):
        v = null_vector(m, y, np.array([1.0, 0.0]), time_sign=sign)
        assert null_cut_time(m, y, v) == math.inf


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


def test_contains_a_point_whose_squared_radius_overflows():
    # r = inf is outside, without an overflow warning (which pytest makes an error)
    obs = ObservationSet(Minkowski(3), T=6.0, radius=1.0)
    assert not obs.contains(np.array([1.0, 1e200, 0.0]))
    assert obs.contains(np.array([[1.0, 1e200, 0.0], [1.0, 0.5, 0.0]])).tolist() == [False, True]


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


def test_connect_null_time_only_warp():
    # the curved branch of the shooting: every trial ray is a closed-form ray
    m = warped_cosine()
    x = np.array([1.0, 0.2, -0.1])
    v = null_vector(m, x, np.array([0.6, 0.8]))
    y = integrate_geodesic(m, x, v, 0.6).endpoint
    sols, diag = connect_null(m, x, y, n_starts=2)
    assert len(sols) == 1 and diag["n_converged"] >= 1
    assert np.allclose(sols[0].v, v, atol=1e-8)
    assert sols[0].s_arr == pytest.approx(0.6, abs=1e-8)


def test_connect_null_identical_points():
    m = Minkowski(3)
    with pytest.raises(DomainError):
        connect_null(m, np.zeros(3), np.zeros(3))


def test_unit_directions_are_unit(rng):
    for nsp, cnt in [(1, 2), (2, 8), (3, 64)]:
        d = unit_directions(nsp, cnt)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
