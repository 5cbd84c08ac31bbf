"""Structure-preserving U(n) parallel transport and the broken light-ray transform.

The transport equation  dU/ds + <A(gamma(s)), gamma'(s)> U = 0, U(a) = I
is solved with a 4th-order commutator-free Lie-group integrator (two
exponentials per step at Gauss nodes), so every intermediate product is
a product of exact unitaries; a final polar projection removes the
accumulated floating-point drift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError
from .geometry import integrate_geodesics, null_cut_time
from .linalg import (
    expm_skew,
    from_coords,
    hamilton,
    polar_project,
    quat_exp,
    to_coords,
    u2_matrix,
    unitarity_residual,
)

SQRT3 = math.sqrt(3.0)
# Gauss-Legendre nodes and the CF4 combination coefficients
_C1 = 0.5 - SQRT3 / 6.0
_C2 = 0.5 + SQRT3 / 6.0
_A1 = 0.25 + SQRT3 / 6.0
_A2 = 0.25 - SQRT3 / 6.0


def _stage_params(a, b, h):
    """Gauss nodes of the CF4 steps over [a, b]: all first nodes, then all second.

    Returns the 2m parameters and the signed step size hs.
    """
    span = b - a
    m = max(1, int(math.ceil(abs(span) / h)))
    hs = span / m
    steps = a + hs * np.arange(m)
    return np.concatenate([steps + _C1 * hs, steps + _C2 * hs]), hs


def _stage_generators(connection, segment, a, b, h):
    """CF4 stage generators K = -<A, gamma'> at the Gauss nodes of each step.

    Returns (k1, k2, hs) with k1, k2 of shape (m, n*n), the coordinates
    of K over u_basis(n), and the signed step size hs.
    """
    params, hs = _stage_params(a, b, h)
    xs, vs = segment.state(params)
    k1, k2 = np.split(-connection.pairing_coords(xs, vs), 2)
    return k1, k2, hs


def _cf4_product(k1, k2, hs):
    """Ordered product of the CF4 two-exponential steps, later steps on the left.

    k1, k2 hold the coordinates over u_basis(n) of the generators at the
    two Gauss nodes of each step. The exponentials are stacked in time
    order [first_0, second_0, first_1, ...] and multiplied pairwise,
    level by level, each pair as later times earlier; an odd level is
    padded with the identity at the end. For n <= 2 the phase commutes
    with everything: the CF4 weights of each step sum to 1/2 per node, so
    it is one exponential of the Gauss-node sum, and for n = 2 the tree
    multiplies unit quaternions. Only the result becomes a matrix.
    """
    n = math.isqrt(k1.shape[-1])
    gens = hs * np.stack([_A1 * k1 + _A2 * k2, _A2 * k1 + _A1 * k2], axis=1).reshape(-1, n * n)
    if n > 2:
        return polar_project(_tree_product(expm_skew(from_coords(gens)), np.matmul, np.eye(n)))
    phase = 0.5 * hs * np.sum(k1[:, 0] + k2[:, 0])
    if n == 1:
        return polar_project(np.exp(1j * phase).reshape(1, 1))
    q = _tree_product(quat_exp(gens[:, 1:]), hamilton, np.array([1.0, 0.0, 0.0, 0.0]))
    return polar_project(u2_matrix(phase, q))


def _tree_product(u, mul, one):
    """mul-product of the stack u, later elements on the left, pairwise by levels."""
    while len(u) > 1:
        if len(u) % 2:
            u = np.concatenate([u, one[None]])
        u = mul(u[1::2], u[::2])
    return u[0]


def _check_range(segment, *params):
    lo, hi = segment.s_min, segment.s_max
    for p in params:
        if p < lo - 1e-12 or p > hi + 1e-12:
            raise DomainError("transport parameter outside the segment range")


def parallel_transport(metric, connection, segment, a, b, h=1e-3):
    """Transport U(b) with dU/ds = -<A(gamma), gamma'> U, U(a) = I.

    a > b integrates the same equation with decreasing parameter, which
    equals the transport along the reversed parameterization of the
    curve.
    """
    _check_range(segment, a, b)
    if a == b:
        return np.eye(connection.n, dtype=complex)
    k1, k2, hs = _stage_generators(connection, segment, a, b, h)
    return _cf4_product(k1, k2, hs)


def inverse_transport(metric, connection, segment, a, b, h=1e-3):
    """Solve dW/ds - W <A, gamma'> = 0, W(a) = I, independently of parallel_transport.

    Transposing turns the left-multiplication ODE into a standard one,
    d(W^T)/ds = <A, gamma'>^T W^T, whose generator is again
    skew-Hermitian, so the same CF4 machinery applies.
    """
    _check_range(segment, a, b)
    if a == b:
        return np.eye(connection.n, dtype=complex)
    k1, k2, hs = _stage_generators(connection, segment, a, b, h)
    w_t = _cf4_product(*(to_coords(-np.swapaxes(from_coords(k), -1, -2)) for k in (k1, k2)), hs)
    return np.swapaxes(w_t, -1, -2).copy()


def check_group_property(metric, connection, segment, a, b, c, h=1e-3):
    """|| P_[b,c] P_[a,b] - P_[a,c] || for a < b < c."""
    if not a < b < c:
        raise DomainError("need a < b < c")
    p_ab = parallel_transport(metric, connection, segment, a, b, h=h)
    p_bc = parallel_transport(metric, connection, segment, b, c, h=h)
    p_ac = parallel_transport(metric, connection, segment, a, c, h=h)
    return float(np.linalg.norm(p_bc @ p_ab - p_ac))


def check_reversal(metric, connection, y, v, s0, h=1e-3):
    """|| P along gamma_{y,-v} over [0, -s0] - P along gamma_{y,v} over [0, s0] ||.

    Both transports run from y to gamma_{y,v}(s0); the first traverses
    the reversed parameterization, so the residual quantifies the
    change-of-variables identity.
    """
    h_geo = min(1e-2, s0 / 50)
    v = np.asarray(v, dtype=float)
    fwd, rev = integrate_geodesics(metric, np.stack([y, y]), np.stack([v, -v]), [s0, 0.0], h_geo,
                                   s_min=[0.0, -s0])
    p_fwd = parallel_transport(metric, connection, fwd, 0.0, s0, h=h)
    p_rev = parallel_transport(metric, connection, rev, 0.0, -s0, h=h)
    return float(np.linalg.norm(p_rev - p_fwd))


def determinant_track_residual(metric, connection, segment, a, b, h=1e-3):
    """|det P - exp(-integral tr<A, gamma'>)|: the abelian reduction of transport."""
    _check_range(segment, a, b)
    k1, k2, hs = _stage_generators(connection, segment, a, b, h)
    p = _cf4_product(k1, k2, hs)
    # two-point Gauss quadrature of the trace, exact to the same order
    tr = np.trace(from_coords(k1 + k2), axis1=-2, axis2=-1)
    integral = 0.5 * hs * np.sum(tr)
    return float(abs(np.linalg.det(p) - np.exp(integral)))


# ---------------------------------------------------------------------------
# broken light-ray transform
# ---------------------------------------------------------------------------


class CutTimeCache:
    """Memo table for null cut times keyed by point and direction.

    gamma_{x,cv}(s) = gamma_{x,v}(cs), so the cut time of cv is the cut
    time of v divided by c. The table holds the cut time of the direction
    scaled to |v^0| = 1, and each lookup divides it by |v^0|.
    """

    def __init__(self, metric):
        self.metric = metric
        self._table = {}

    def cut_time(self, x, v):
        v = np.asarray(v, dtype=float)
        scale = abs(v[0])
        key = (tuple(np.round(np.asarray(x, dtype=float), 9)), tuple(np.round(v / scale, 9)))
        if key not in self._table:
            self._table[key] = null_cut_time(self.metric, x, v) * scale
        return self._table[key] / scale

    def __len__(self):
        return len(self._table)


@dataclass
class BrokenRayQuery:
    """Vertex y, past-pointing null v, future-pointing null w, leg lengths s_in, s_out."""

    y: np.ndarray
    v: np.ndarray
    w: np.ndarray
    s_in: float
    s_out: float

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.s_in = float(self.s_in)
        self.s_out = float(self.s_out)

    def to_json(self):
        return {
            "y": self.y.tolist(),
            "v": self.v.tolist(),
            "w": self.w.tolist(),
            "s_in": self.s_in,
            "s_out": self.s_out,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(obj["y"], obj["v"], obj["w"], obj["s_in"], obj["s_out"])


# slack kept by a leg parameter below its cut time
TOL_CUT = 1e-6


def check_leg(metric, y, name, vec, s, cache):
    """Raise AdmissibilityError unless the leg gamma_{y,vec}([0, s]) is admissible.

    The incoming leg "v" must be past-pointing, the outgoing leg "w"
    future-pointing; either must be lightlike, with a positive parameter
    below its cut time.
    """
    incoming = name == "v"
    if abs(metric.inner(y, vec, vec)) > 1e-8 * max(1.0, float(vec @ vec)):
        raise AdmissibilityError(f"{name} is not lightlike")
    if (-vec[0] if incoming else vec[0]) <= 0:
        raise AdmissibilityError(f"{name} must be {'past' if incoming else 'future'}-pointing")
    if s <= 0:
        raise AdmissibilityError("leg parameters must be positive")
    if s >= cache.cut_time(y, vec) - TOL_CUT:
        raise AdmissibilityError("s_in exceeds the incoming cut time" if incoming
                                 else "s_out exceeds the outgoing cut time")


def validate_query(metric, q, observation, cache=None):
    """Raise AdmissibilityError naming the first violated condition.

    With an observation set, returns the leg segments whose endpoints it
    tested, as ``leg_segments`` builds them; else None.
    """
    y = metric.validate_point(q.y)
    if cache is None:
        cache = CutTimeCache(metric)
    check_leg(metric, y, "v", q.v, q.s_in, cache)
    check_leg(metric, y, "w", q.w, q.s_out, cache)
    vh = q.v / abs(q.v[0])
    wh = q.w / abs(q.w[0])
    if np.linalg.norm(vh[1:] + wh[1:]) < 1e-9:
        raise AdmissibilityError("(v, w) are colinear")
    if observation is None:
        return None
    seg_in, seg_out = leg_segments(metric, q)
    if not observation.contains(seg_in.endpoint):
        raise AdmissibilityError("incoming endpoint outside the observation set")
    if not observation.contains(seg_out.endpoint):
        raise AdmissibilityError("outgoing endpoint outside the observation set")
    return seg_in, seg_out


def leg_segments(metric, q):
    """The incoming and outgoing geodesic segments of a query, as transported."""
    h_geo = min(1e-2, min(q.s_in, q.s_out) / 50)
    return integrate_geodesics(metric, np.stack([q.y, q.y]), np.stack([q.v, q.w]),
                               [q.s_in, q.s_out], h_geo)


def broken_transform(metric, connection, q, observation=None, cache=None, h=1e-3,
                     validate=True):
    """S^A(q) = P_out . P_in: P_in from gamma_{y,v}(s_in) to y along the
    incoming leg, P_out from y to gamma_{y,w}(s_out). The legs that
    validation integrated are the legs transported.
    """
    legs = validate_query(metric, q, observation, cache=cache) if validate else None
    seg_in, seg_out = legs or leg_segments(metric, q)
    # transport from parameter s_in down to 0 equals the transport along
    # gamma_{x, xi} with xi = -gamma'_{y,v}(s_in), per the change of variables
    p_in = parallel_transport(metric, connection, seg_in, q.s_in, 0.0, h=h)
    p_out = parallel_transport(metric, connection, seg_out, 0.0, q.s_out, h=h)
    return p_out @ p_in


# ---------------------------------------------------------------------------
# batch interface (JSON lines)
# ---------------------------------------------------------------------------


def read_queries(path):
    queries = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                queries.append(BrokenRayQuery.from_json(json.loads(line)))
    return queries


def matrix_to_json(u):
    return {"re": np.real(u).ravel().tolist(), "im": np.imag(u).ravel().tolist(), "n": u.shape[0]}


def matrix_from_json(obj):
    n = int(obj["n"])
    return (np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])).reshape(n, n)


def run_batch(metric, connection, queries, observation=None, h=1e-3):
    """Evaluate the broken transform on many queries.

    Returns one record per query: the flattened matrix and its unitarity
    residual, or the named admissibility failure.
    """
    cache = CutTimeCache(metric)
    records = []
    for q in queries:
        rec = q.to_json()
        records.append(rec)
        try:
            u = broken_transform(metric, connection, q, observation=observation, cache=cache, h=h)
        except AdmissibilityError as exc:
            rec["status"] = "inadmissible"
            rec["error"] = str(exc)
            continue
        rec["status"] = "ok"
        rec["matrix"] = matrix_to_json(u)
        rec["unitarity_residual"] = float(unitarity_residual(u))
    return records


def write_results(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
