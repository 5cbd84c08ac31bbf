"""Lorentzian model spacetimes and their causal/geodesic structure.

Provides the metric hierarchy, geodesic samples with cubic-Hermite
interpolation, time separation, null cut times, earliest observation
times along worldlines, and null-geodesic connection by multi-start
shooting.  Each metric class carries the causal structure it knows in
closed form:

- ``Minkowski``: tau from the coordinate difference, no null cut points,
  straight-line rays.
- ``Cylinder`` (flat 1+1, angle of period 2 pi): tau with the angle
  wrapped to the nearest winding, null cut time pi/|v^0|, straight-line
  rays.
- ``TimeWarp`` (-beta(t) dt^2 + |dx|^2): tau and rays from conformal time,
  in which the metric is a Minkowski slab, so no null cut points.  It is
  a spacetime only on the slab around t = 0 where beta is positive, so a
  causal query or a ray leaving the slab raises DomainError.
- ``WarpedProduct`` (-beta(x) dt^2 + g0, g0 diagonal): no causal queries,
  which raise CapabilityError; its rays are marched by fixed-step RK4,
  which truncates a ray where it leaves the chart.

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
    A concrete metric gives ``matrix``, ``inverse``, ``partials`` and
    ``geodesic_acceleration``.
    """

    dim: int
    name: str = "metric"
    is_flat = False
    # the CapabilityError of a query the metric lacks, formatted with query and name
    lacking = "{query} not implemented for {name}"

    def matrix(self, x):
        """Metric components g_ij at x, shape (..., dim, dim)."""
        raise NotImplementedError

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
        raise CapabilityError(self.lacking.format(query="time separation", name=self.name))

    def time_separation(self, x, y):
        """tau(x, y) over the leading axes of the point arrays x and y."""
        return _tau(self.minkowski_delta(x, y))

    def null_cut_time(self, x, v):
        """Null cut time of gamma_{x,v} (inf if it has no cut point)."""
        raise CapabilityError(self.lacking.format(query="null cut time", name=self.name))

    # -- geodesics -----------------------------------------------------------

    def geodesic_samples(self, x0s, v0s, s):
        """Exact samples of the geodesics through the rows of the (R, dim)
        stacks (x0s, v0s) at the parameters of the 1-D grids s[r]: one
        (xs, vs) pair of (len(s[r]), dim) arrays per ray.  Each ray's
        samples are the same alone and in any stack.  Metrics without
        closed-form geodesics raise CapabilityError, and integrate_geodesics
        marches their rays.
        """
        raise CapabilityError(self.lacking.format(query="closed-form geodesics", name=self.name))

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

    def geodesic_samples(self, x0s, v0s, s):
        """Straight lines, whose velocities are one read-only row broadcast
        over the samples."""
        return [(x0 + sr[:, None] * v0, np.broadcast_to(v0.copy(), (len(sr), self.dim)))
                for x0, v0, sr in zip(x0s, v0s, s)]


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
    It supports no causal queries and its rays are marched by RK4; the
    time-only warp with flat spatial factor is ``TimeWarp``.
    """

    lacking = ("{query} on warped products requires a time-only warping "
               "function and flat spatial factor")

    def __init__(self, dim, beta, g0_diag=None):
        if dim < 2:
            raise DomainError("need at least one time and one space dimension")
        self.dim = int(dim)
        self.name = f"warped{self.dim}"
        self.beta = beta
        self.g0_diag = list(g0_diag) if g0_diag is not None else None
        if self.g0_diag is not None and len(self.g0_diag) != self.dim - 1:
            raise DomainError("g0_diag must supply one field per spatial coordinate")

    def in_chart(self, x):
        return self.beta.value(x) > 0

    def _diag(self, x):
        """The diagonal D of the metric at x, shape (..., dim), also outside the chart."""
        x = np.asarray(x, dtype=float)
        diag = np.ones(x.shape[:-1] + (self.dim,))
        diag[..., 0] = -self.beta.value(x)
        for i, f in enumerate(self.g0_diag or ()):
            diag[..., i + 1] = f.value(x)
        return diag

    def _chart_diag(self, x):
        """_diag, or DomainError if beta <= 0 at a point of x."""
        diag = self._diag(x)
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
        return self._chart_diag(x)[..., None] * np.eye(self.dim)

    def inverse(self, x):
        return (1.0 / self._chart_diag(x))[..., None] * np.eye(self.dim)

    def partials(self, x):
        return self._diag_grad(x)[..., None] * np.eye(self.dim)

    def geodesic_acceleration(self, x, v):
        """Closed form of -Gamma(v, v) for the diagonal metric D:
        a_i = -(v_i (d_v D_i) - 1/2 sum_j v_j^2 d_i D_j) / D_i.
        NaN where beta <= 0, outside the chart, so that an RK4 stage landing
        there truncates its ray alone.
        """
        v = np.asarray(v, dtype=float)
        grad = self._diag_grad(x)
        along = (v[..., None, :] @ grad)[..., 0, :]
        across = (grad @ (v * v)[..., None])[..., 0]
        diag = self._diag(x)
        with np.errstate(divide="ignore"):
            return np.where(diag[..., :1] < 0, -(v * along - 0.5 * across) / diag, np.nan)


class TimeWarp(WarpedProduct):
    """The time-only warp -beta(t) dt^2 + |dx|^2, beta a function of t alone.

    Conformal time t~ = int sqrt(beta) dt maps the metric isometrically
    onto a Minkowski slab (O'Neill, Semi-Riemannian Geometry, 1983), which
    gives tau in closed form, no null cut points and straight rays in
    conformal time.
    """

    def __init__(self, dim, beta):
        super().__init__(dim, beta)
        self._conformal_edges = {1: np.zeros(1), -1: np.zeros(1)}

    def _on_axis(self, t):
        """The points (t, 0, ..., 0) over the leading axes of t."""
        p = np.zeros(np.shape(t) + (self.dim,))
        p[..., 0] = t
        return p

    def _time_beta(self, t):
        """beta at the points (t, 0, ..., 0) over the leading axes of t."""
        beta = self.beta.value(self._on_axis(t))
        if not (beta > 0).all():
            raise DomainError("warping function is not positive between 0 and t")
        return beta

    def _sqrt_beta_rule(self, a, b):
        """The Gauss-Legendre rule for int_a^b sqrt(beta) dt over leading axes."""
        half = 0.5 * (b - a)
        beta = self._time_beta(a[..., None] + half[..., None] * (CONFORMAL_NODES + 1.0))
        return half * (np.sqrt(beta) * CONFORMAL_WEIGHTS).sum(axis=-1)

    def conformal_time(self, t):
        """t~(t) = int_0^t sqrt(beta) over leading axes of t: a table summed
        outward from 0 once per metric, widened only when t lies beyond it,
        gives the integral to the cell edge nearest 0; the rule adds the rest.
        A widening at most doubles the table, so a t far beyond a zero of
        beta raises DomainError before the table reaches past twice the zero.
        """
        t = np.asarray(t, dtype=float)
        if not np.isfinite(t).all():
            raise DomainError("conformal time needs a finite t")
        k = np.trunc(t / CONFORMAL_CELL).astype(int)
        self._widen(1, k.max(initial=0))
        self._widen(-1, -k.min(initial=0))
        up, down = self._conformal_edges[1], self._conformal_edges[-1]
        at_edge = np.where(k >= 0, up[np.maximum(k, 0)], down[np.maximum(-k, 0)])
        return at_edge + self._sqrt_beta_rule(k * CONFORMAL_CELL, t)

    def _widen(self, sign, n):
        """Extend the table on side sign of 0 to cell edge n, at most doubling
        it at a time; DomainError where beta vanishes in a new cell."""
        while len(self._conformal_edges[sign]) <= n:
            # the running sum goes on from the last entry: an entry is the same in any width
            table = self._conformal_edges[sign]
            edges = sign * CONFORMAL_CELL * np.arange(len(table) - 1, min(n, 2 * len(table)) + 1.0)
            cells = self._sqrt_beta_rule(edges[:-1], edges[1:])
            self._conformal_edges[sign] = np.concatenate(
                [table[:-1], np.cumsum(np.concatenate([table[-1:], cells]))])

    def _slab_end(self, sign, goal, t):
        """A time on side sign of 0, beyond t, where sign * t~ exceeds goal:
        the table's end once it reaches that far, else the last point before
        the zero of beta that ends the slab; DomainError if conformal time
        ends there at or before goal, so that no time reaches it.
        """
        edges, single = self._conformal_edges, False
        n = max(math.floor(sign * t / CONFORMAL_CELL) + 1, 0)
        while len(edges[sign]) <= n or sign * edges[sign][-1] <= goal:
            try:  # by doublings, then one cell at a time up to the cell of the zero
                self._widen(sign, len(edges[sign]) if single else max(n, 2 * len(edges[sign])))
            except DomainError:
                if single:
                    break
                single = True
        else:
            return sign * CONFORMAL_CELL * (len(edges[sign]) - 1)
        a, b = sign * CONFORMAL_CELL * np.arange(len(edges[sign]) - 1, len(edges[sign]) + 1.0)
        nodes = a + 0.5 * (b - a) * (CONFORMAL_NODES + 1.0)
        first = np.argmin(self.in_chart(self._on_axis(nodes)))
        inside, outside = (a if first == 0 else nodes[first - 1]), nodes[first]
        while (mid := 0.5 * (inside + outside)) not in (inside, outside):
            inside, outside = (mid, outside) if self.in_chart(self._on_axis(mid)) else (inside, mid)
        if sign * (edges[sign][-1] + self._sqrt_beta_rule(a, inside)) <= goal:
            raise DomainError("warping function is not positive between 0 and t")
        return inside

    def minkowski_delta(self, x, y):
        """y - x with conformal time in place of t."""
        conformal = self.conformal_time
        d = self.coord_delta(y, x)
        d[..., 0] = conformal(np.asarray(y)[..., 0]) - conformal(np.asarray(x)[..., 0])
        return d

    def null_cut_time(self, x, v):
        return math.inf

    def _conformal_inverse(self, target, t, lo, hi):
        """The t with conformal_time(t) = target over a 1-D array, by Newton's
        method from the guess t inside the bracket (lo, hi) of the slab.  The
        bracket closes on each entry's root as its residuals change sign, and
        a step that would leave it bisects it instead.  Each entry stops on
        its own, once its step is at most 1e-15 max(1, |t|) or its residual
        at most 4 eps max(1, |target|) (where sqrt(beta) is small the
        rounding of conformal time keeps the step above the first bound);
        GeometryError if an entry has not stopped after 50 steps.
        """
        t = np.array(t, dtype=float)
        live = np.arange(t.size)
        lo, hi = np.full(t.size, lo), np.full(t.size, hi)  # the live entries' brackets
        for _ in range(50):
            tl, goal = t[live], target[live]
            r = self.conformal_time(tl) - goal
            step = r / np.sqrt(self._time_beta(tl))
            # tested before tl closes the bracket: a step heads for the root, away from tl
            out = (tl - step <= lo) | (tl - step >= hi)
            lo, hi = np.where(r < 0, tl, lo), np.where(r > 0, tl, hi)
            if out.any():
                step = np.where(out, tl - 0.5 * (lo + hi), step)
            t[live] = tl - step
            done = ((np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(t[live])))
                    | (np.abs(r) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(goal))))
            live, lo, hi = live[~done], lo[~done], hi[~done]
            if not live.size:
                return t
        raise GeometryError("Newton's method on conformal time did not converge")

    def geodesic_samples(self, x0s, v0s, s):
        """Straight lines in conformal time: x(s) = x0 + v_x s, the t(s) with
        t~(t(s)) = t~(t0) + sqrt(beta(t0)) v^0 s by Newton's method on
        conformal_time, and v^0(s) = v^0 sqrt(beta(t0)) / sqrt(beta(t(s))).
        A ray whose conformal-time target lies beyond the conformal time of
        the zero of beta nearest 0 leaves the slab and raises DomainError
        for the stack, as a causal query there does: the metric is a
        spacetime only on the slab where beta > 0.  Newton's method stays
        between the slab's ends, from the ray's start where its guess lies
        outside them.
        """
        if not len(s):
            return []
        counts = [len(sr) for sr in s]
        sa = np.concatenate(s)
        t0s = x0s[:, 0]
        root0 = np.sqrt(self._time_beta(t0s))
        vs = np.repeat(v0s, counts, axis=0)
        xs = np.repeat(x0s, counts, axis=0) + sa[:, None] * vs
        # Newton from the coordinate-time line t0 + v^0 s
        target = (np.repeat(self.conformal_time(t0s), counts)
                  + np.repeat(root0 * v0s[:, 0], counts) * sa)
        guess, starts = xs[:, 0], np.repeat(t0s, counts)
        lo = self._slab_end(-1, -target.min(), min(guess.min(), t0s.min()))
        hi = self._slab_end(1, target.max(), max(guess.max(), t0s.max()))
        guess = np.where((lo < guess) & (guess < hi), guess, starts)
        xs[:, 0] = self._conformal_inverse(target, guess, lo, hi)
        vs[:, 0] *= np.repeat(root0, counts) / np.sqrt(self._time_beta(xs[:, 0]))
        ends = np.cumsum(counts)[:-1]
        return list(zip(np.split(xs, ends), np.split(vs, ends)))


def metric_from_json(obj):
    """Build a metric from its JSON description (see scenario schema)."""
    from .expansions import ScalarExpansion

    kind = obj.get("kind", "minkowski")
    if kind == "minkowski":
        return Minkowski(int(obj.get("dim", 4)))
    if kind == "cylinder":
        return Cylinder()
    if kind == "warped":
        dim, beta = int(obj["dim"]), ScalarExpansion.from_json(obj["beta"])
        if obj.get("g0_diag"):
            return WarpedProduct(dim, beta, [ScalarExpansion.from_json(f) for f in obj["g0_diag"]])
        return TimeWarp(dim, beta) if obj.get("beta_time_only") else WarpedProduct(dim, beta)
    raise DomainError(f"unknown metric kind {kind!r}")


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


@dataclass
class GeodesicSegment:
    """Sampled geodesic gamma on [s_min, s_max], interpolated by cubic Hermite cells."""

    metric: Metric
    s: np.ndarray  # (N,), strictly increasing
    x: np.ndarray  # (N, dim)
    v: np.ndarray  # (N, dim)
    truncated: bool = False
    _cells: tuple | None = field(default=None, repr=False)

    @property
    def s_min(self):
        return float(self.s[0])

    @property
    def s_max(self):
        return float(self.s[-1])

    def _cubic_cells(self):
        """(h, c): the width h[i] of the cell [s[i], s[i + 1]], and c[k, i], the
        coefficient of t^k, t = (s - s[i]) / h[i], of the cubic Hermite
        interpolant of (position, velocity) there, whose position has the
        stored velocities as derivative and whose velocity has the geodesic
        accelerations.  Cell N - 1 is the last sample, constant, of width 1.
        Made once, coefficient-major so that the rows state gathers for one
        coefficient are contiguous.
        """
        if self._cells is None:
            p = np.concatenate([self.x, self.v], axis=1)
            m = np.concatenate([self.v, self.metric.geodesic_acceleration(self.x, self.v)], axis=1)
            h = np.diff(self.s)[:, None]
            # the tangents at both ends of a cell, scaled by its width
            m0, m1, dp = m[:-1] * h, m[1:] * h, p[1:] - p[:-1]
            c = np.zeros((4,) + p.shape)
            c[0] = p
            c[1, :-1] = m0
            c[2, :-1] = 3 * dp - 2 * m0 - m1
            c[3, :-1] = m0 + m1 - 2 * dp
            self._cells = np.append(h, 1.0), c
        return self._cells

    def state(self, si):
        """Interpolated (position, velocity) at parameter values si.

        A flat segment is its straight line.  On a curved metric each value
        is its cell's cubic of _cubic_cells, so a stored sample comes back
        exactly.
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
            h, c = self._cubic_cells()
            idx = np.searchsorted(self.s, sq, side="right") - 1
            t = ((sq - self.s[idx]) / h[idx])[:, None]
            c = np.take(c, idx, axis=1)
            # Horner's rule, in place on the gathered rows
            out = c[3]
            for k in (2, 1, 0):
                out *= t
                out += c[k]
            pos, vel = out[:, : self.metric.dim], out[:, self.metric.dim :]
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


def _rk4_march(metric, x0, v0, s_stop, n_steps):
    """Fixed-step RK4 of the geodesic equation (x, v)' = (v, a(x, v)) for a
    stack of rays, a = metric.geodesic_acceleration.

    Ray r starts at (x0[r], v0[r]) with parameter 0 and takes n_steps[r]
    steps of s_stop[r] / n_steps[r]; the sign of s_stop sets its direction.
    a is evaluated over the leading axis of the rays still marching.  A ray
    stops early, truncated at its last good step, when its point or
    velocity stops being finite or its point leaves the chart; a stage
    outside the chart makes a NaN on the warped product, so that ray
    stops alone.  Returns one (xs, vs, truncated) per ray.
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
    A ray's samples lie on the linspace of equal steps of size at most its
    h backward to s_min and forward to s_max.  The metric's closed form
    (``Metric.geodesic_samples``) gives every ray where it has one:
    straight lines on the flat metrics and in conformal time on the
    time-only warp, which raises DomainError for a ray it cannot reach.
    Every other metric's rays take one fixed-step RK4 march together;
    ``truncated`` is set on a returned segment if its march leaves the
    chart early.  Returns one GeodesicSegment per ray.
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
    # steps backward and forward; the backward grid reversed, without its copy of 0
    n_back, n_fwd, grids = [], [], []
    for lo, hi, hr in zip(lows, highs, steps):
        nb = max(1, math.ceil(-lo / hr)) if lo < 0 else 0
        nf = max(1, math.ceil(hi / hr)) if hi > 0 else 0
        s = np.linspace(0, hi, nf + 1)
        grids.append(np.concatenate([np.linspace(0, lo, nb + 1)[:0:-1], s]) if nb else s)
        n_back.append(nb)
        n_fwd.append(nf)
    try:
        samples = metric.geodesic_samples(x0s, v0s, grids)
    except CapabilityError:
        pass
    else:
        return [GeodesicSegment(metric, s, *sample) for s, sample in zip(grids, samples)]
    # one march of every ray: the backward rays of negative s_min, then the forward rays
    back = [r for r in range(n_rays) if n_back[r]]
    fwd = [r for r in range(n_rays) if n_fwd[r]]
    marched = _rk4_march(metric, x0s[back + fwd], v0s[back + fwd],
                         [lows[r] for r in back] + [highs[r] for r in fwd],
                         [n_back[r] for r in back] + [n_fwd[r] for r in fwd])
    backward = dict(zip(back, marched[: len(back)]))
    forward = dict(zip(fwd, marched[len(back):]))
    segments = []
    for r in range(n_rays):
        xs, vs, tr = forward.get(r, (x0s[r:r + 1], v0s[r:r + 1], False))
        xb, vb, trb = backward.get(r, (xs[:1], vs[:1], False))
        # the backward march reversed, without its copy of the start point
        xs, vs = np.concatenate([xb[:0:-1], xs]), np.concatenate([vb[:0:-1], vs])
        start = n_back[r] - (len(xb) - 1)
        segments.append(GeodesicSegment(metric, grids[r][start:start + len(xs)], xs, vs,
                                        truncated=tr or trb))
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


def null_cut_time(metric, x, v):
    """First parameter s > 0 at which gamma_{x,v}(s) and x become
    chronologically related, or inf.

    For future-pointing v this is the first s with tau(x, gamma(s)) > 0;
    for past-pointing v, the first s with tau(gamma(s), x) > 0. The value
    is the metric's closed form.
    """
    x = metric.validate_point(x)
    v = np.asarray(v, dtype=float)
    if not metric.is_null(x, v):
        raise DomainError("initial vector is not null")
    if v[0] == 0:
        raise DomainError("initial vector must be time-oriented")
    return metric.null_cut_time(x, v)


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


# shooting: residual accepted as converged, distance below which two
# solutions are one, and the geodesic step of each shot
SHOOT_TOL = 1e-9
SHOOT_DEDUP = 1e-4
SHOOT_STEP = 1e-2


def _endpoint(metric, x, v, s):
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
            solutions.append(NullConnection(v=v, s_arr=s))
    solutions.sort(key=lambda c: c.s_arr)
    diag = {"n_starts": int(n_starts), "n_converged": n_conv, "n_solutions": len(solutions)}
    return solutions, diag
