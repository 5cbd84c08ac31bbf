"""Symbol-level simulation of the three-wave interaction measurement.

Covers the three-source interaction geometry with its kappa
coefficients, the interaction symbol, the simulated measurement that
reproduces the broken light-ray transform up to an opaque positive
scalar, and the flowout-disjointness diagnostic. With the flat density,
the principal symbol of each wave is transported by parallel_transport
along its null geodesic, an integrate_geodesics segment.

Sign convention for the interaction covectors: eta = w^flat for the
outgoing direction and eta_1 = +w_1^flat, eta_2 = -w_2^flat,
eta_3 = -w_3^flat for the incoming ones. This is the unique choice for
which the linear relation eta = r^{-2} sum kappa_j eta_j has all-positive
coefficients (the time components force sum of signed kappas to be
negative under any other assignment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np

from .errors import DomainError, GeometryError
from .geometry import integrate_geodesic, integrate_geodesics, null_vector
from .transport import BrokenRayQuery, parallel_transport

# ---------------------------------------------------------------------------
# interaction geometry
# ---------------------------------------------------------------------------


def causally_independent(metric, a, b):
    """True when neither point lies in the causal future of the other: b - a in Minkowski
    coordinates is spacelike by a margin of 1e-12 (null separation is dependence)."""
    d = metric.minkowski_delta(a, b)
    return float(d[1:] @ d[1:] - d[0] * d[0]) > 1e-12


@dataclass
class InteractionGeometry:
    """The three-source configuration of the interaction construction."""

    metric: object
    y: np.ndarray
    theta: float
    r: float
    s_in: float
    w: np.ndarray                      # outgoing future-pointing lightlike vector
    w_legs: list                       # [w_(1), w_(2), w_(3)], past-pointing
    x_legs: list                       # source points x_(j) = gamma_{y, w_j}(s_in)
    xi_legs: list                      # future-pointing vectors -gamma'_{y,w_j}(s_in)
    eta: np.ndarray                    # covector w^flat at y
    eta_legs: list                     # signed leg covectors at y
    kappa: np.ndarray
    kappa_residual: float
    segments: list = field(default_factory=list, repr=False)

    def query(self, s_out):
        """The broken-ray query with v = w_(1) and the outgoing direction w."""
        return BrokenRayQuery(self.y, self.w_legs[0], self.w, self.s_in, s_out)


# the s' search: grid size over s_range, margin inside the observation
# set, and the RK4 step of the three source legs
S_SCAN_POINTS = 120
S_SCAN_MARGIN = 1e-6
SOURCE_LEG_STEP = 1e-2


def build_interaction_geometry(metric, y, theta, r, observation, s_range=None):
    """Construct the three-source geometry at vertex y with opening theta and
    perturbation size r.

    The three past-pointing directions are the normal-form vectors
    w_1 = (-1, 1, 0, ...), w_{2,3} = (-1, sqrt(1-r^2), +/- r, 0, ...) in
    an orthonormal frame at y, and the common source parameter s' is
    searched so that all three sources land inside the observation set.
    """
    return build_interaction_sweep(metric, y, theta, [r], observation, s_range)[0]


def build_interaction_sweep(metric, y, theta, r_sweep, observation, s_range=None):
    """build_interaction_geometry for every r of a sweep, at one common s'.

    s' is the middle of the scanned values at which all 3 len(r_sweep)
    sources lie inside the observation set, so every r of the sweep
    measures along legs of the same length.
    """
    y = metric.validate_point(y)
    dim = metric.dim
    if dim < 3:
        raise DomainError("the interaction geometry needs at least two spatial dimensions")
    if not all(0 < r < 1 for r in r_sweep):
        raise DomainError("r must lie in (0, 1)")
    if min(abs(math.sin(theta)), 1.0 + math.cos(theta)) < 1e-6:
        raise GeometryError("degenerate interaction angle (theta near 0 or pi)")
    frame = metric.orthonormal_frame(y)

    def vec(components):
        comp = np.zeros(dim)
        comp[: len(components)] = components
        return frame @ comp

    g = metric.matrix(y)
    w = vec([1.0, math.cos(theta), math.sin(theta)])
    eta = g @ w
    signs = (1.0, -1.0, -1.0)
    parts = []
    for r in r_sweep:
        root = math.sqrt(1.0 - r * r)
        w_legs = [vec([-1.0, 1.0, 0.0]), vec([-1.0, root, r]), vec([-1.0, root, -r])]
        for u in [w] + w_legs:
            if abs(float(u @ g @ u)) > 1e-10:
                raise GeometryError("constructed direction is not lightlike")
        eta_legs = [sg * (g @ u) for sg, u in zip(signs, w_legs)]
        basis = np.stack(eta_legs, axis=1)
        kappa, residuals, rank, _ = np.linalg.lstsq(basis, r * r * eta, rcond=None)
        if rank < 3:
            raise GeometryError("degenerate interaction angle: kappa system is singular")
        kappa_residual = float(np.linalg.norm(basis @ kappa - r * r * eta))
        if kappa_residual > 1e-10:
            raise GeometryError("kappa linear relation residual too large")
        if np.any(kappa <= 0):
            raise GeometryError("kappa coefficients are not all positive")
        parts.append((r, w_legs, eta_legs, kappa, kappa_residual))

    # search a common source parameter s' putting all sources in the
    # observation set
    if s_range is None:
        t0 = y[0]
        s_range = (max(1e-3, t0 - observation.T + 1e-3), t0 - 1e-3)
    lo, hi = s_range
    if not lo < hi:
        raise GeometryError("empty s' search range")
    all_legs = np.array([u for part in parts for u in part[1]])
    segments = integrate_geodesics(metric, np.tile(y, (len(all_legs), 1)), all_legs, hi * 1.01,
                                   SOURCE_LEG_STEP)
    s_in = observation.middle_inside(segments, np.linspace(lo, hi, S_SCAN_POINTS),
                                     S_SCAN_MARGIN)
    if s_in is None:
        raise GeometryError("no common s' places all three sources in the observation set")

    geoms = []
    for i, (r, w_legs, eta_legs, kappa, kappa_residual) in enumerate(parts):
        legs = segments[3 * i:3 * i + 3]
        x_legs = [seg.position(s_in) for seg in legs]
        xi_legs = [-seg.velocity(s_in) for seg in legs]
        if not all(causally_independent(metric, a, b) for a, b in combinations(x_legs, 2)):
            raise GeometryError("source points are not causally independent")
        geoms.append(InteractionGeometry(
            metric=metric, y=y, theta=float(theta), r=float(r), s_in=s_in,
            w=w, w_legs=w_legs, x_legs=x_legs, xi_legs=xi_legs,
            eta=eta, eta_legs=eta_legs, kappa=kappa, kappa_residual=kappa_residual,
            segments=legs,
        ))
    return geoms


# ---------------------------------------------------------------------------
# interaction symbol and measurement
# ---------------------------------------------------------------------------


def interaction_symbol(sigma1, sigma2, sigma3):
    """Sum over S(3) of Re<sigma_t(1), sigma_t(2)> sigma_t(3).

    The symbols are vectors over leading axes; <a, b> = a^H b, taken as a
    stacked 1 x n by n x 1 product, which rounds like np.vdot of one pair.
    """
    vals = [np.asarray(s, dtype=complex) for s in (sigma1, sigma2, sigma3)]
    out = np.zeros_like(vals[0])
    for i, j, k in permutations(range(3)):
        inner = (np.conj(vals[i])[..., None, :] @ vals[j][..., :, None])[..., 0, 0]
        out = out + np.real(inner)[..., None] * vals[k]
    return out


def _apply(p, c):
    """p @ c for vectors c over leading axes, each rounded as the one product."""
    return (p @ c[..., None])[..., 0]


@dataclass
class MeasurementScalar:
    """The opaque positive-modulus scalar multiplying a simulated measurement.

    Collects every connection-independent factor (the factor 6 of the
    permutation sum and the kappa powers); only its A-independence is
    meaningful, so it is flagged unknown.
    """

    value: complex
    unknown: bool = True


def simulated_measurement(metric, connection, geom, c_tilde, s_out):
    """Run the three-wave pipeline and return (vector, MeasurementScalar).

    c_tilde, one unit vector (n,) or a stack (k, n), is transported from
    each source to the vertex along its leg with parallel_transport's
    default step; the three are combined with interaction_symbol and
    transported outward along w for s_out. The vector has c_tilde's shape
    and equals S^A c_tilde up to the scalar and an O(r^2) error; every
    transport is made once for the whole stack.
    """
    c_tilde = np.asarray(c_tilde, dtype=complex)
    if np.any(np.abs(np.linalg.norm(c_tilde, axis=-1) - 1.0) > 1e-9):
        raise DomainError("c_tilde must be a unit vector")

    lam = MeasurementScalar(complex(6.0 * float(np.prod((geom.kappa / geom.r**2) ** 0.5))))

    seg_out = integrate_geodesic(metric, geom.y, geom.w, s_out,
                                 h=min(1e-2, s_out / 50))
    p_out = parallel_transport(metric, connection, seg_out, 0.0, s_out)
    # incoming symbols at the vertex: transport c_tilde from x_(j) to y
    # (leg 1 via the reversal identity, numerically the reversed-parameter
    # transport along the stored segment)
    at_vertex = [_apply(parallel_transport(metric, connection, seg, geom.s_in, 0.0), c_tilde)
                 for seg in geom.segments]
    return _apply(p_out, interaction_symbol(*at_vertex)), lam


_CHUNK = 16  # rows per chunk of _min_distance
_BATCH = 32  # chunk pairs per evaluated batch of _min_distance


def _pair_d2(ca, cb):
    """Squared distances of all row pairs of each chunk pair (ca[i], cb[i])."""
    d2 = np.zeros((len(ca), _CHUNK, _CHUNK))
    for k in range(ca.shape[2]):
        d2 += np.square(ca[:, :, None, k] - cb[:, None, :, k])
    return d2


def _min_distance(a, b):
    """Min of |a_i - b_j| over the rows of a and b, by an exact pruned search.

    Rows are cut into chunks of _CHUNK, the last padded with its last row.
    The squared gap of two chunks' boxes, sum_k max(0, lo_a - hi_b,
    lo_b - hi_a)^2, bounds all their pairs from below; chunk pairs are
    evaluated _BATCH at a time in stable order of it, until it exceeds the
    best squared distance. Both sums run one coordinate at a time from 0,
    as a norm over the last axis does. Rounding is monotone and lo_a <= p_k,
    hi_b >= q_k, so the computed bound never exceeds the computed squared
    distance of a pair it covers: only pairs that cannot hold the minimum
    are skipped, and the result keeps the bits of the brute-force minimum.
    """
    ca, cb = (p[np.minimum(np.arange(-(-len(p) // _CHUNK) * _CHUNK), len(p) - 1)]
              .reshape(-1, _CHUNK, p.shape[1]) for p in (a, b))
    lo_a, hi_a, lo_b, hi_b = ca.min(axis=1), ca.max(axis=1), cb.min(axis=1), cb.max(axis=1)
    bound = np.zeros((len(ca), len(cb)))
    for k in range(a.shape[1]):
        gap = np.maximum(lo_a[:, None, k] - hi_b[:, k], lo_b[:, k] - hi_a[:, None, k])
        bound += np.square(np.maximum(gap, 0.0))
    order = np.argsort(bound, axis=None, kind="stable")
    bound = bound.ravel()[order]
    best = math.inf
    for i in range(0, len(order), _BATCH):
        if bound[i] > best:
            break
        ia, ib = np.divmod(order[i:i + _BATCH], len(cb))
        best = min(best, float(_pair_d2(ca[ia], cb[ib]).min()))
    return math.sqrt(best)


# RK4 step bound of the outgoing segment and of the flowout rays
FLOWOUT_STEP = 1e-2


def flowout_disjointness(metric, geom, s_out, s0_cone, n_samples=24, eps_excl=0.05):
    """Min distance between perturbed source flowouts and the outgoing segment.

    Each source x_(j) emits n_samples null geodesics with directions in a
    cone of opening s0_cone around xi_(j); points within eps_excl of the
    vertex are excluded before taking the distance to the outgoing
    segment (which all legs meet at y by construction). The cone
    directions are drawn from default_rng(0).
    """
    rng = np.random.default_rng(0)
    seg_out = integrate_geodesic(metric, geom.y, geom.w, s_out, h=min(FLOWOUT_STEP, s_out / 100))
    out_pts = seg_out.position(np.linspace(0.0, s_out, 400))
    out_pts = out_pts[np.linalg.norm(out_pts - geom.y, axis=1) > eps_excl]
    starts, vels = [], []
    for x_src, xi in zip(geom.x_legs, geom.xi_legs):
        base = np.asarray(xi, dtype=float)
        for _ in range(n_samples):
            pert = rng.standard_normal(metric.dim - 1)
            pert = pert / np.linalg.norm(pert)
            # perturb the spatial direction within the cone and re-null
            spatial = base[1:] / abs(base[0]) + s0_cone * pert
            v = null_vector(metric, x_src, spatial, time_sign=math.copysign(1.0, base[0]))
            starts.append(x_src)
            vels.append(v * abs(base[0]))
    length = geom.s_in + s_out
    params = np.linspace(0.0, length, 400)
    pts = np.concatenate([traj.position(params) for traj in integrate_geodesics(
        metric, np.stack(starts), np.stack(vels), length, min(FLOWOUT_STEP, length / 200))])
    pts = pts[~(np.linalg.norm(pts - geom.y, axis=1) <= eps_excl)]
    if len(pts) == 0 or len(out_pts) == 0:
        return math.inf
    return _min_distance(pts, out_pts)
