"""Lorentzian model spacetimes and their causal/geodesic structure.

Provides the metric hierarchy (Minkowski, flat cylinder, warped
products), geodesic integration with cubic-Hermite sample
interpolation, time separation, null cut times, earliest observation
times along worldlines, and null-geodesic connection by multi-start
shooting.

Causal structure comes from closed forms on the metric classes: tau
from the coordinate difference, with the cylinder's angle wrapped to the
nearest winding and conformal time in place of t on the warped product;
null cut times inf on Minkowski, pi/|v^0| on the cylinder and inf on the
time-only warped product with flat spatial factor. Those three metrics
are the ones that support causal queries; any other raises
CapabilityError.

Conventions: signature (-, +, ..., +); coordinate 0 is time; a tangent
vector v is future-pointing when v[0] > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError, GeometryError

TWO_PI = 2.0 * math.pi

# conformal time: a 16-node Gauss-Legendre rule on cells of this width
CONFORMAL_CELL = 0.25
CONFORMAL_NODES, CONFORMAL_WEIGHTS = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class Metric:
    """Base class: a Lorentzian metric on a coordinate chart of R^dim.

    Every method takes points (and vectors) over leading axes: a point
    array of shape (..., dim) gives results of shape (...) + the shape
    for one point.  Causal queries (``minkowski_delta``, ``time_separation``,
    ``null_cut_time``) are available only where the metric knows its
    causal structure in closed form; elsewhere they raise CapabilityError.
    """

    dim: int
    name: str = "metric"
    is_flat = False

    def matrix(self, x):
        """Metric components g_ij at x, shape (..., dim, dim)."""
        raise NotImplementedError

    def inverse(self, x):
        return np.linalg.inv(self.matrix(x))

    def partials(self, x):
        """d[..., k, i, j] = d g_ij / d x^k at x (zero for flat metrics)."""
        raise NotImplementedError

    def in_chart(self, x):
        return np.ones(np.shape(x)[:-1], dtype=bool)

    def coord_delta(self, a, b):
        """Chart-aware coordinate difference a - b (wrapped for periodic charts)."""
        return np.asarray(a, dtype=float) - np.asarray(b, dtype=float)

    # -- causal structure ----------------------------------------------------

    def minkowski_delta(self, x, y):
        """y - x in coordinates in which the metric is Minkowski, over leading axes."""
        raise CapabilityError(f"time separation not implemented for {self.name}")

    def time_separation(self, x, y):
        """tau(x, y) over the leading axes of the point arrays x and y."""
        return _tau(self.minkowski_delta(x, y))

    def null_cut_time(self, x, v):
        """Null cut time of gamma_{x,v} (inf if it has no cut point)."""
        raise CapabilityError(f"null cut time not implemented for {self.name}")

    # -- derived quantities --------------------------------------------------

    def christoffel(self, x):
        """Christoffel symbols Gamma^i_{jk} at x, shape (..., dim, dim, dim)."""
        d = self.partials(x)
        ginv = self.inverse(x)
        # Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_lj - d_l g_jk)
        bracket = (
            np.einsum("...jlk->...ljk", d)
            + np.einsum("...klj->...ljk", d)
            - d
        )
        return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, bracket)

    def geodesic_acceleration(self, x, v):
        """The geodesic equation's x'' = -Gamma^i_jk v^j v^k, shape (..., dim)."""
        return -np.einsum("...ijk,...j,...k->...i", self.christoffel(x), v, v)

    def inner(self, x, u, v):
        """g_x(u, v), summed as (u g) v."""
        u = np.asarray(u, dtype=float)[..., None, :]
        v = np.asarray(v, dtype=float)[..., :, None]
        return (u @ self.matrix(x) @ v)[..., 0, 0]

    def is_null(self, x, v):
        """|g_x(v, v)| <= 1e-8 max(1, v . v) for one vector v (False for NaN entries), on v
        scaled by a power of two to entries below 1 (2^500 at most): g is homogeneous of
        degree 2, so both sides keep their bits up to one power of two, and none overflows."""
        v = np.asarray(v, dtype=float)
        e = max(int(np.frexp(np.max(np.abs(v)))[1]), -500)
        v = np.ldexp(v, -e)
        return bool(abs(self.inner(x, v, v)) <= 1e-8 * max(math.ldexp(1.0, -2 * e), float(v @ v)))

    def flat(self, x, v):
        """Index lowering: the covector v^flat = g(v, .)."""
        return (self.matrix(x) @ np.asarray(v, dtype=float)[..., None])[..., 0]

    def sharp(self, x, xi):
        """Index raising: the vector xi^sharp with g(xi^sharp, .) = xi."""
        return (self.inverse(x) @ np.asarray(xi, dtype=float)[..., None])[..., 0]

    def orthonormal_frame(self, y):
        """Columns e_0..e_{d-1}: g(e_0,e_0) = -1, g(e_a,e_b) = delta_ab.

        The rescaled coordinate frame: every metric of the package is
        diagonal (the identity on Minkowski and the cylinder).
        """
        g = self.matrix(y)
        if not np.allclose(g, np.diag(np.diag(g))):
            raise CapabilityError(f"orthonormal frames need a diagonal metric, not {self.name}")
        return np.diag(1.0 / np.sqrt(np.abs(np.diag(g))))

    def validate_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainError(f"point has shape {x.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(x)):
            raise DomainError("point has non-finite coordinates")
        if not self.in_chart(x):
            raise DomainError("point lies outside the metric chart")
        return x


class _FlatMetric(Metric):
    """Constant metric diag(-1, 1, ..., 1): straight geodesics, tau from coord_delta."""

    is_flat = True
    _g: np.ndarray

    def matrix(self, x):
        return np.zeros(np.shape(x)[:-1] + self._g.shape) + self._g

    inverse = matrix  # diag(-1, 1, ..., 1) is its own inverse

    def partials(self, x):
        return np.zeros(np.shape(x)[:-1] + (self.dim,) * 3)

    def geodesic_acceleration(self, x, v):
        return np.zeros(np.shape(v))

    def minkowski_delta(self, x, y):
        return self.coord_delta(y, x)


class Minkowski(_FlatMetric):
    """Flat Minkowski space R^{1,dim-1}: null geodesics have no cut points."""

    def __init__(self, dim=4):
        if dim < 2:
            raise DomainError("need at least one time and one space dimension")
        self.dim = int(dim)
        self.name = f"minkowski{self.dim}"
        self._g = np.diag([-1.0] + [1.0] * (self.dim - 1))

    def null_cut_time(self, x, v):
        return math.inf


class Cylinder(_FlatMetric):
    """Flat 1+1 cylinder R_t x S^1 with angle coordinate of period 2 pi.

    The two null rays from a point meet again on the far side after a
    time lapse of pi, so the cut time is pi / |v^0|.  The wrapped angle
    difference of ``coord_delta`` is the nearest winding, which is the
    one that maximizes tau.
    """

    dim = 2
    name = "cylinder"
    _g = np.diag([-1.0, 1.0])

    def coord_delta(self, a, b):
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        d[..., 1] = np.mod(d[..., 1] + math.pi, TWO_PI) - math.pi
        return d

    def null_cut_time(self, x, v):
        return math.pi / abs(v[0])


class WarpedProduct(Metric):
    """Warped product -beta(x) dt^2 + g0 with diagonal spatial part.

    ``beta`` is a positive scalar field (object with value/grad, e.g.
    ScalarExpansion); ``g0_diag`` is an optional list of dim-1 positive
    scalar fields for the diagonal spatial metric (identity if omitted).
    ``beta_time_only`` declares that beta depends on t alone.  With that
    and a flat spatial factor, conformal time t~ = int sqrt(beta) dt maps
    the metric isometrically onto a Minkowski slab (O'Neill,
    Semi-Riemannian Geometry, 1983), which gives tau in closed form and
    no null cut points; other warped products support no causal queries.
    """

    def __init__(self, dim, beta, g0_diag=None, beta_time_only=False):
        if dim < 2:
            raise DomainError("need at least one time and one space dimension")
        self.dim = int(dim)
        self.name = f"warped{self.dim}"
        self.beta = beta
        self.g0_diag = list(g0_diag) if g0_diag is not None else None
        if self.g0_diag is not None and len(self.g0_diag) != self.dim - 1:
            raise DomainError("g0_diag must supply one field per spatial coordinate")
        self.beta_time_only = bool(beta_time_only)
        self._conformal_edges = {1: np.zeros(1), -1: np.zeros(1)}

    def in_chart(self, x):
        return self.beta.value(x) > 0

    def _diag(self, x):
        """The diagonal D of the metric at x, shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        diag = np.ones(x.shape[:-1] + (self.dim,))
        diag[..., 0] = -self.beta.value(x)
        for i, f in enumerate(self.g0_diag or ()):
            diag[..., i + 1] = f.value(x)
        if (diag[..., 0] >= 0).any():
            raise DomainError("warping function is not positive at this point")
        return diag

    def _diag_grad(self, x):
        """grad[..., k, i] = d D_i / d x^k, shape (..., dim, dim)."""
        x = np.asarray(x, dtype=float)
        grad = np.zeros(x.shape[:-1] + (self.dim, self.dim))
        grad[..., 0] = -self.beta.grad(x)
        for i, f in enumerate(self.g0_diag or ()):
            grad[..., i + 1] = f.grad(x)
        return grad

    def matrix(self, x):
        return self._diag(x)[..., None] * np.eye(self.dim)

    def inverse(self, x):
        return (1.0 / self._diag(x))[..., None] * np.eye(self.dim)

    def partials(self, x):
        return self._diag_grad(x)[..., None] * np.eye(self.dim)

    def geodesic_acceleration(self, x, v):
        """Closed form of -Gamma(v, v) for the diagonal metric D:
        a_i = -(v_i (d_v D_i) - 1/2 sum_j v_j^2 d_i D_j) / D_i.
        """
        v = np.asarray(v, dtype=float)
        grad = self._diag_grad(x)
        along = (v[..., None, :] @ grad)[..., 0, :]
        across = (grad @ (v * v)[..., None])[..., 0]
        return -(v * along - 0.5 * across) / self._diag(x)

    def _require_conformally_flat(self, query):
        if not (self.beta_time_only and self.g0_diag is None):
            raise CapabilityError(
                f"{query} on warped products requires a time-only warping "
                "function and flat spatial factor"
            )

    def _sqrt_beta_rule(self, a, b):
        """The Gauss-Legendre rule for int_a^b sqrt(beta) dt over leading axes."""
        half = 0.5 * (b - a)
        p = np.zeros(np.shape(half) + (CONFORMAL_NODES.size, self.dim))
        p[..., 0] = a[..., None] + half[..., None] * (CONFORMAL_NODES + 1.0)
        beta = self.beta.value(p)
        if not (beta > 0).all():
            raise DomainError("warping function is not positive between 0 and t")
        return half * (np.sqrt(beta) * CONFORMAL_WEIGHTS).sum(axis=-1)

    def conformal_time(self, t):
        """t~(t) = int_0^t sqrt(beta) over leading axes of t: a table summed
        outward from 0 once per metric, widened only when t lies beyond it,
        gives the integral to the cell edge nearest 0; the rule adds the rest.
        """
        t = np.asarray(t, dtype=float)
        if not np.isfinite(t).all():
            raise DomainError("conformal time needs a finite t")
        k = np.trunc(t / CONFORMAL_CELL).astype(int)
        for sign, n in ((1, k.max(initial=0)), (-1, -k.min(initial=0))):
            if len(self._conformal_edges[sign]) <= n:  # a cumsum entry is the same in any width
                edges = sign * CONFORMAL_CELL * np.arange(n + 1.0)
                cells = self._sqrt_beta_rule(edges[:-1], edges[1:])
                self._conformal_edges[sign] = np.concatenate([[0.0], np.cumsum(cells)])
        up, down = self._conformal_edges[1], self._conformal_edges[-1]
        at_edge = np.where(k >= 0, up[np.maximum(k, 0)], down[np.maximum(-k, 0)])
        return at_edge + self._sqrt_beta_rule(k * CONFORMAL_CELL, t)

    def minkowski_delta(self, x, y):
        """y - x with conformal time in place of t."""
        self._require_conformally_flat("time separation")
        conformal = self.conformal_time
        d = self.coord_delta(y, x)
        d[..., 0] = conformal(np.asarray(y)[..., 0]) - conformal(np.asarray(x)[..., 0])
        return d

    def null_cut_time(self, x, v):
        self._require_conformally_flat("null cut time")
        return math.inf


def metric_from_json(obj):
    """Build a metric from its JSON description (see scenario schema)."""
    from .expansions import ScalarExpansion

    kind = obj.get("kind", "minkowski")
    if kind == "minkowski":
        return Minkowski(int(obj.get("dim", 4)))
    if kind == "cylinder":
        return Cylinder()
    if kind == "warped":
        beta = ScalarExpansion.from_json(obj["beta"])
        g0 = None
        if obj.get("g0_diag"):
            g0 = [ScalarExpansion.from_json(f) for f in obj["g0_diag"]]
        return WarpedProduct(
            int(obj["dim"]),
            beta,
            g0_diag=g0,
            beta_time_only=bool(obj.get("beta_time_only", False)),
        )
    raise DomainError(f"unknown metric kind {kind!r}")


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


@dataclass
class GeodesicSegment:
    """Sampled geodesic gamma on [s_min, s_max] with Hermite interpolation."""

    metric: Metric
    s: np.ndarray  # (N,), strictly increasing
    x: np.ndarray  # (N, dim)
    v: np.ndarray  # (N, dim)
    truncated: bool = False
    _accel: np.ndarray | None = field(default=None, repr=False)

    @property
    def s_min(self):
        return float(self.s[0])

    @property
    def s_max(self):
        return float(self.s[-1])

    def _acceleration(self):
        if self._accel is None:
            self._accel = self.metric.geodesic_acceleration(self.x, self.v)
        return self._accel

    def state(self, si):
        """Interpolated (position, velocity) at parameter values si.

        Positions use cubic Hermite interpolation on the stored samples
        (velocities are the exact derivatives); velocities use Hermite
        interpolation with the geodesic acceleration as derivative.
        """
        si = np.asarray(si, dtype=float)
        scalar = si.ndim == 0
        sq = np.atleast_1d(si)
        if np.any(sq < self.s[0] - 1e-9) or np.any(sq > self.s[-1] + 1e-9):
            raise DomainError("parameter outside the integrated range")
        sq = np.clip(sq, self.s[0], self.s[-1])
        if self.metric.is_flat:
            pos = self.x[0] + (sq - self.s[0])[:, None] * self.v[0]
            vel = np.broadcast_to(self.v[0], pos.shape).copy()
        else:
            idx = np.clip(np.searchsorted(self.s, sq, side="right") - 1, 0, len(self.s) - 2)
            h = (self.s[idx + 1] - self.s[idx])[:, None]
            t = ((sq - self.s[idx])[:, None]) / h
            acc = self._acceleration()
            pos = _hermite(self.x[idx], self.v[idx] * h, self.x[idx + 1], self.v[idx + 1] * h, t)
            vel = _hermite(self.v[idx], acc[idx] * h, self.v[idx + 1], acc[idx + 1] * h, t)
        if scalar:
            return pos[0], vel[0]
        return pos, vel

    def position(self, si):
        return self.state(si)[0]

    def velocity(self, si):
        return self.state(si)[1]

    @property
    def endpoint(self):
        return self.x[-1]

    def null_residual(self):
        """Max |g(v, v)| over the stored samples."""
        return float(np.max(np.abs(self.metric.inner(self.x, self.v, self.v))))


def _hermite(p0, m0, p1, m1, t):
    """Cubic Hermite basis on [0, 1]; tangents already scaled by the step."""
    t2 = t * t
    t3 = t2 * t
    return (
        (2 * t3 - 3 * t2 + 1) * p0
        + (t3 - 2 * t2 + t) * m0
        + (-2 * t3 + 3 * t2) * p1
        + (t3 - t2) * m1
    )


def _rk4_march(metric, x0, v0, s_stop, n_steps):
    """Fixed-step RK4 of the geodesic equation (x, v)' = (v, a(x, v)) for a
    stack of rays, a = metric.geodesic_acceleration.

    Ray r starts at (x0[r], v0[r]) with parameter 0 and takes n_steps[r]
    steps of s_stop[r] / n_steps[r]; the sign of s_stop sets its direction.
    a is evaluated over the leading axis of the rays still marching.  A ray
    stops early, truncated, when its point or velocity stops being finite
    or its point leaves the chart.  Returns one (xs, vs, truncated) per ray.
    """
    def rhs(x, v):
        return v, metric.geodesic_acceleration(x, v)

    n_steps = np.asarray(n_steps, dtype=int)
    h = (np.asarray(s_stop, dtype=float) / n_steps)[:, None]
    n_rays = len(n_steps)
    xs = np.empty((n_rays, int(n_steps.max(initial=0)) + 1, x0.shape[-1]))
    vs = np.empty_like(xs)
    xs[:, 0], vs[:, 0] = x0, v0
    count = n_steps.copy()
    truncated = np.zeros(n_rays, dtype=bool)
    live = np.arange(n_rays)
    x, v = x0, v0
    # a ray whose values overflow is truncated below, so its warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(xs.shape[1] - 1):
            # the rays that have taken all their steps drop out of the stack
            going = n_steps[live] > i
            if not going.all():
                live, x, v, h = live[going], x[going], v[going], h[going]
            k1x, k1v = rhs(x, v)
            k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
            k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
            k4x, k4v = rhs(x + h * k3x, v + h * k3v)
            x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            ok = np.isfinite(x).all(axis=-1) & np.isfinite(v).all(axis=-1) & metric.in_chart(x)
            if not ok.all():
                truncated[live[~ok]] = True
                count[live[~ok]] = i
                live, x, v, h = live[ok], x[ok], v[ok], h[ok]
            xs[live, i + 1], vs[live, i + 1] = x, v
    return [(xs[r, : count[r] + 1], vs[r, : count[r] + 1], bool(truncated[r]))
            for r in range(n_rays)]


def integrate_geodesics(metric, x0s, v0s, s_max, h, s_min=0.0):
    """Integrate the geodesics through the rows of (x0s, v0s) over [s_min, s_max].

    x0s and v0s are (R, dim) stacks; s_max, h and s_min are scalars or one
    value per ray, and each range must contain the start parameter 0.
    Flat metrics take the exact straight-line path, whose velocities are
    one read-only row broadcast over the samples; otherwise one
    fixed-step RK4 march carries every ray, each with step size at most
    its h, backward to s_min and forward to s_max.  ``truncated`` is set
    on a returned segment if its trajectory leaves the chart early.
    Returns one GeodesicSegment per ray.
    """
    x0s = np.asarray(x0s, dtype=float)
    v0s = np.asarray(v0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != metric.dim:
        raise DomainError(f"start points have shape {x0s.shape}, expected (R, {metric.dim})")
    if v0s.shape != x0s.shape:
        raise DomainError("initial velocities have wrong shape")
    for x0 in x0s:
        metric.validate_point(x0)
    n_rays = len(x0s)
    s_max, h, s_min = (np.zeros(n_rays) + a for a in (s_max, h, s_min))
    lows, highs, steps = s_min.tolist(), s_max.tolist(), h.tolist()
    if max(lows, default=0.0) > 0 or min(highs, default=0.0) < 0:
        raise DomainError("the parameter range [s_min, s_max] must contain 0")
    if min(steps, default=1.0) <= 0:
        raise DomainError("step size must be positive")
    if metric.is_flat:
        segments = []
        for x0, v0, lo, hi, hr in zip(x0s, v0s, lows, highs, steps):
            n = max(2, int(math.ceil((hi - lo) / hr)) + 1)
            s = np.linspace(lo, hi, n)
            segments.append(GeodesicSegment(metric, s, x0 + s[:, None] * v0,
                                            np.broadcast_to(v0.copy(), (n, metric.dim))))
        return segments
    # one march: the backward rays of negative s_min, then the forward rays
    back, fwd = np.flatnonzero(s_min < 0), np.flatnonzero(s_max > 0)
    rays = np.concatenate([back, fwd])
    s_stop = np.concatenate([s_min[back], s_max[fwd]])
    n_steps = np.maximum(1, np.ceil(np.abs(s_stop) / h[rays])).astype(int)
    marched = [(np.linspace(0, s, n + 1)[: len(xs)], xs, vs, tr) for s, n, (xs, vs, tr)
               in zip(s_stop, n_steps, _rk4_march(metric, x0s[rays], v0s[rays], s_stop, n_steps))]
    backward = dict(zip(back, marched[: len(back)]))
    forward = dict(zip(fwd, marched[len(back):]))
    segments = []
    for r in range(n_rays):
        s, xs, vs, tr = forward.get(r, (np.zeros(1), x0s[r:r + 1], v0s[r:r + 1], False))
        if r in backward:  # reversed, without its copy of the start point
            sb, xb, vb, trb = backward[r]
            s, xs, vs = (np.concatenate([sb[:0:-1], s]), np.concatenate([xb[:0:-1], xs]),
                         np.concatenate([vb[:0:-1], vs]))
            tr = tr or trb
        segments.append(GeodesicSegment(metric, s, xs, vs, truncated=tr))
    return segments


def integrate_geodesic(metric, x0, v0, s_max, h=1e-2, s_min=0.0):
    """Integrate the geodesic through (x0, v0) over [s_min, s_max].

    The one-ray call of ``integrate_geodesics``.
    """
    return integrate_geodesics(metric, np.asarray(x0, dtype=float)[None],
                               np.asarray(v0, dtype=float)[None], s_max, h, s_min)[0]


def null_vector(metric, x, spatial_dir, time_sign=1.0):
    """Future (time_sign>0) or past null vector at x with given spatial direction.

    Solves g(v, v) = 0 for the time component with the spatial part
    fixed to the normalized input direction.
    """
    x = metric.validate_point(x)
    u = np.asarray(spatial_dir, dtype=float)
    if u.shape != (metric.dim - 1,):
        raise DomainError("spatial direction has wrong dimension")
    nrm = np.linalg.norm(u)
    if nrm == 0:
        raise DomainError("spatial direction must be nonzero")
    u = u / nrm
    g = metric.matrix(x)
    # quadratic in the time component a: g00 a^2 + 2 a g0.u + u.g.u = 0
    g00 = g[0, 0]
    cross = g[0, 1:] @ u
    spat = u @ g[1:, 1:] @ u
    disc = cross * cross - g00 * spat
    if disc < 0:
        raise GeometryError("no null direction with this spatial part")
    root = math.sqrt(disc)
    a1 = (-cross + root) / g00
    a2 = (-cross - root) / g00
    a = max(a1, a2) if time_sign > 0 else min(a1, a2)
    v = np.empty(metric.dim)
    v[0] = a
    v[1:] = u
    return v


def unit_directions(n_spatial, count):
    """Roughly uniform unit vectors on S^{n_spatial-1} for shooting starts."""
    if n_spatial == 1:
        return np.array([[1.0], [-1.0]])[: max(count, 2)]
    if n_spatial == 2:
        ang = np.linspace(0, TWO_PI, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # Fibonacci-type spiral for n_spatial == 3; random otherwise.
    if n_spatial == 3:
        i = np.arange(count) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1 - 2 * i / count
        r = np.sqrt(np.maximum(0.0, 1 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((count, n_spatial))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# causal structure
# ---------------------------------------------------------------------------


def time_separation(metric, x, y):
    """Lorentzian time separation tau(x, y) (0 unless y is in the chronological future of x)."""
    x = metric.validate_point(x)
    y = metric.validate_point(y)
    return float(metric.time_separation(x, y))


def _tau(d):
    """Flat tau from coordinate differences d = (dt, dx) over leading axes.

    sqrt(dt^2 - |dx|^2) where dt > 0 and the radicand is positive, else 0.
    """
    dt = d[..., 0]
    q = dt * dt - np.sum(d[..., 1:] ** 2, axis=-1)
    return np.where((dt > 0) & (q > 0), np.sqrt(np.maximum(q, 0.0)), 0.0)


def null_cut_time(metric, x, v, s_max=None):
    """First parameter s > 0 at which gamma_{x,v}(s) and x become
    chronologically related, or inf.

    For future-pointing v this is the first s with tau(x, gamma(s)) > 0;
    for past-pointing v, the first s with tau(gamma(s), x) > 0. The value
    is the metric's closed form; a cut time beyond the horizon s_max is
    reported as inf.
    """
    x = metric.validate_point(x)
    v = np.asarray(v, dtype=float)
    if not metric.is_null(x, v):
        raise DomainError("initial vector is not null")
    if v[0] == 0:
        raise DomainError("initial vector must be time-oriented")
    cut = metric.null_cut_time(x, v)
    return cut if s_max is None or cut <= s_max else math.inf


# ---------------------------------------------------------------------------
# worldlines and observation sets
# ---------------------------------------------------------------------------


@dataclass
class WorldLine:
    """Timelike curve mu: [0, T] -> M, sampled affinely in its parameter.

    ``spatial`` maps the parameter array to spatial coordinates; the
    time coordinate is the parameter itself plus ``t0`` (so the curve is
    t-graphed, which keeps it causally well behaved for our metrics).
    """

    metric: Metric
    T: float
    spatial: object = None  # callable s -> (len(s), dim-1); static point if None
    point: np.ndarray | None = None
    t0: float = 0.0

    def __post_init__(self):
        if self.spatial is None:
            if self.point is None:
                self.point = np.zeros(self.metric.dim - 1)
            self.point = np.asarray(self.point, dtype=float)

    def position(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        sq = np.atleast_1d(s)
        if np.any(sq < -1e-12) or np.any(sq > self.T + 1e-12):
            raise DomainError("worldline parameter outside [0, T]")
        out = np.empty((len(sq), self.metric.dim))
        out[:, 0] = self.t0 + sq
        if self.spatial is None:
            out[:, 1:] = self.point
        else:
            out[:, 1:] = self.spatial(sq)
        return out[0] if scalar else out


def earliest_obs_time(metric, line, y, direction="future", tol=1e-8, coarse=256):
    """Earliest observation parameter along a worldline.

    direction="future": f^+ = inf { s : tau(y, mu(s)) > 0 }, T if empty
    direction="past":   f^- = sup { s : tau(mu(s), y) > 0 }, 0 if empty
    """
    y = metric.validate_point(y)
    grid = np.linspace(0.0, line.T, coarse + 1)
    if direction == "future":
        def pred(s):
            return metric.time_separation(y, line.position(s)) > 0
        empty_value = line.T
    elif direction == "past":
        def pred(s):
            return metric.time_separation(line.position(s), y) > 0
        # f^- is the first parameter observed when searching down from T
        empty_value, grid = 0.0, grid[::-1]
    else:
        raise DomainError("direction must be 'future' or 'past'")
    flags = pred(grid)
    if not flags.any():
        return empty_value
    i = int(np.argmax(flags))
    if i == 0:
        return float(grid[0])
    outside, inside = float(grid[i - 1]), float(grid[i])
    while abs(inside - outside) > tol:
        mid = 0.5 * (outside + inside)
        if pred(mid):
            inside = mid
        else:
            outside = mid
    return 0.5 * (outside + inside)


@dataclass
class ObservationSet:
    """Open causal-diamond-like region rho = (0, T) x B(center, radius)."""

    metric: Metric
    T: float
    radius: float
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.center is None:
            self.center = np.zeros(self.metric.dim - 1)
        self.center = np.asarray(self.center, dtype=float)

    def contains(self, x, margin=0.0):
        """Whether points lie in rho shrunk by margin, over the leading axes of x."""
        x = np.asarray(x, dtype=float)
        t = x[..., 0]
        d = x[..., 1:] - self.center
        # a stacked dot product rounds like the norm of one point, so a point
        # on the boundary is decided alike alone and in a batch; one too far
        # out for floating point has r = inf, which is outside
        with np.errstate(over="ignore"):
            r = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
        return (margin < t) & (t < self.T - margin) & (r < self.radius - margin)

    def middle_inside(self, segments, params, margin):
        """The middle of the params at which every segment's point lies inside, or None."""
        params = np.asarray(params, dtype=float)
        inside = np.ones(len(params), dtype=bool)
        for seg in segments:
            inside &= self.contains(seg.position(params), margin)
        valid = params[inside]
        return float(valid[len(valid) // 2]) if len(valid) else None


# ---------------------------------------------------------------------------
# null connection by shooting
# ---------------------------------------------------------------------------


@dataclass
class NullConnection:
    """One null geodesic from x to y: gamma_{x,v}(s_arr) = y."""

    v: np.ndarray
    s_arr: float
    residual: float


# shooting: residual accepted as converged, distance below which two
# solutions are one, and the RK4 step of each shot
SHOOT_TOL = 1e-9
SHOOT_DEDUP = 1e-4
SHOOT_STEP = 1e-2


def _endpoint(metric, x, v, s):
    if metric.is_flat:  # in closed form: a trial point allocates no samples
        return x + s * v
    seg = integrate_geodesic(metric, x, v, s, h=SHOOT_STEP)
    return np.full(metric.dim, 1e6) if seg.truncated else seg.endpoint


def connect_null(metric, x, y, n_starts=None):
    """All null geodesics from x to y found by multi-start shooting.

    Velocities come from null_vector, so their spatial components have
    Euclidean norm 1 and v^0 solves g(v, v) = 0. Only on the flat metrics
    is |v^0| = 1 and the arrival parameter the coordinate-time lapse.
    Returns (solutions, diagnostics).
    """
    from scipy.optimize import least_squares
    x = metric.validate_point(x)
    y = metric.validate_point(y)
    if np.allclose(metric.coord_delta(y, x), 0.0, atol=1e-14):
        raise DomainError("endpoints must be distinct")
    dt = y[0] - x[0]
    if dt == 0:
        return [], {"n_starts": 0, "n_converged": 0}
    sign = 1.0 if dt > 0 else -1.0
    nsp = metric.dim - 1
    if n_starts is None:
        n_starts = 2 if nsp == 1 else 64
    starts = unit_directions(nsp, n_starts)
    scale = max(1.0, float(np.linalg.norm(metric.coord_delta(y, x))))

    def residual(p):
        u = p[:-1]
        s = p[-1]
        nu = np.linalg.norm(u)
        if nu < 1e-12 or s <= 0:
            return np.full(metric.dim, 1e3)
        try:
            v = null_vector(metric, x, u / nu, time_sign=sign)
        except GeometryError:
            return np.full(metric.dim, 1e3)
        end = _endpoint(metric, x, v, s)
        return metric.coord_delta(end, y) / scale

    solutions = []
    n_conv = 0
    for u0 in starts:
        p0 = np.concatenate([u0, [abs(dt)]])
        try:
            res = least_squares(residual, p0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
        except Exception:
            continue
        r = float(np.linalg.norm(residual(res.x)))
        if r > SHOOT_TOL:
            continue
        n_conv += 1
        u = res.x[:-1]
        u = u / np.linalg.norm(u)
        v = null_vector(metric, x, u, time_sign=sign)
        s = float(res.x[-1])
        new = True
        for sol in solutions:
            if (np.linalg.norm(v - sol.v) < SHOOT_DEDUP
                    and abs(s - sol.s_arr) < SHOOT_DEDUP * max(1.0, s)):
                new = False
                break
        if new:
            solutions.append(NullConnection(v=v, s_arr=s, residual=r))
    solutions.sort(key=lambda c: c.s_arr)
    diag = {"n_starts": int(n_starts), "n_converged": n_conv, "n_solutions": len(solutions)}
    return solutions, diag
