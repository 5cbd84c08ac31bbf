"""Inversion of the broken light-ray transform: gauge-candidate
construction, grid reconstruction, and verification of the recovered
gauge.

The candidate at an interior vertex y with outgoing direction w and
parameter s'' is phi(y; w, s'') = (P^B_out)^{-1} P^A_out. When the two
transforms agree, the candidate is independent of (w, s''), which the
reconstruction reports as a per-point spread.

Extraction modes: per-leg transports are not directly observable. The
"honest" mode derives the candidate purely from broken-transform values
of queries whose incoming leg lies in the observation set, where the
connection is known a priori — this only exists for vertices inside the
observation set. Elsewhere the "synthetic" mode evaluates the per-leg
transports directly from the oracle's connection; the mode used is
recorded per point and never silently mixed.

Admissibility has one check per leg, ``transport.check_leg``, and each
leg is integrated once: a synthetic candidate checks and marches its
outgoing leg, and an honest candidate builds its query without
integrating anything and leaves every test to ``validate_query``, whose
endpoint tests cover the whole incoming leg by convexity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError
from .geometry import integrate_geodesic, integrate_geodesics, unit_directions
from .linalg import adjoint, polar_project, unitarity_residual
from .transport import (
    TOL_CUT,
    BrokenRayQuery,
    CutTimeCache,
    check_leg,
    matrix_to_json,
    parallel_transports,
    validate_query,
)


# scans of a leg for the parameters at which it lies inside the observation
# set: grid size, and margin to the boundary of the set
LEG_SCAN_POINTS = 80
LEG_SCAN_MARGIN = 1e-3
# slack kept by the honest incoming leg's length to the vertex's room in the set
HONEST_MARGIN = 1e-3


class TransformOracle:
    """Deterministic transport data source for one connection.

    The connection and CF4 step h of a gauge candidate's transports, which
    take both oracles' connections along each leg in one pass, so two
    oracles of a candidate share h, and a metric that is only checked: a
    transport reads its segment's. ``observation`` is kept only for the
    positional constructor call ``(metric, connection, observation, h)``;
    the caller validates every leg.
    """

    def __init__(self, metric, connection, observation=None, h=1e-3):
        self.metric = metric
        self.connection = connection
        self.observation = observation
        self.h = h
        self.n = connection.n


def _honest_incoming_query(metric, observation, y, w, s_out):
    """A query whose incoming leg starts at a vertex inside the observation set.

    The incoming direction is the first frame direction not colinear with
    w. On every metric with a cut time a leg is a straight line in
    coordinates in which the observation set (0, T) x B is convex, so the
    leg stays inside exactly when its endpoint does, which validate_query
    tests; nothing is integrated here.
    """
    if observation is None or not observation.contains(y):
        return None
    room = observation.radius - float(np.linalg.norm(y[1:] - observation.center))
    s_in = 0.45 * min(y[0] - HONEST_MARGIN, room)
    if s_in <= HONEST_MARGIN:
        return None
    frame = metric.orthonormal_frame(y)
    wn = w / abs(w[0])
    for u in unit_directions(metric.dim - 1, max(4, metric.dim)):
        v = frame @ np.concatenate([[-1.0], u])
        if np.linalg.norm(v[1:] / abs(v[0]) + wn[1:]) >= 1e-6:
            return BrokenRayQuery(y, v, w, s_in, s_out)
    return None


def gauge_candidate(metric, oracle_a, oracle_b, y, w, s_out, observation=None,
                    mode="synthetic", cache=None):
    """phi(y; w, s'') = (P^B_out)^{-1} P^A_out.

    mode="synthetic": per-leg transports straight from the oracles.
    mode="honest": derived from broken-transform values only, via a
    query whose incoming leg lies inside the observation set (requires
    y in the observation set; the incoming transport is computed from
    the a-priori-known connection there).
    Both connections are transported along each leg in one
    parallel_transports pass, so the oracles must share h; their metric is
    only checked to be one, as a transport reads its segment's.
    """
    if oracle_a.metric is not oracle_b.metric or oracle_a.h != oracle_b.h:
        raise DomainError("the two oracles of a gauge candidate need one metric and one h")
    y = metric.validate_point(y)
    w = np.asarray(w, dtype=float)
    if cache is None:
        cache = CutTimeCache(metric)
    conns = [oracle_a.connection, oracle_b.connection]
    if mode == "synthetic":
        check_leg(metric, y, "w", w, s_out, cache)
        seg = integrate_geodesic(metric, y, w, s_out, h=min(1e-2, s_out / 50))
        if observation is not None and not observation.contains(seg.endpoint):
            raise AdmissibilityError("outgoing endpoint outside the observation set")
        pa, pb = parallel_transports(conns, seg, 0.0, s_out, h=oracle_a.h)
        return polar_project(np.conj(pb.T) @ pa)
    if mode != "honest":
        raise DomainError("mode must be 'synthetic' or 'honest'")
    q = _honest_incoming_query(metric, observation, y, w, s_out)
    if q is None:
        raise AdmissibilityError(
            "no incoming leg inside the observation set (vertex not observable)"
        )
    seg_in, seg_out = validate_query(metric, q, observation, cache=cache)
    # the broken transforms S = P_out P_in of both connections on the validated legs
    p_in, pb_in = parallel_transports(conns, seg_in, q.s_in, 0.0, h=oracle_a.h)
    pa_out, pb_out = parallel_transports(conns, seg_out, 0.0, q.s_out, h=oracle_a.h)
    s_a = pa_out @ p_in
    s_b = pb_out @ pb_in
    # S_B^{-1} S_A = P_in^{-1} (P^B_out)^{-1} P^A_out P_in with P_in the
    # shared incoming transport of the a-priori-known connection
    return polar_project(p_in @ np.conj(s_b.T) @ s_a @ np.conj(p_in.T))


# ---------------------------------------------------------------------------
# grid reconstruction
# ---------------------------------------------------------------------------


# distance of the diamond lattice from the edges of the observation time span
DIAMOND_MARGIN = 0.35


def diamond_grid(metric, observation, per_axis=5):
    """Uniform interior lattice of the causal diamond of the central worldline.

    Keeps the lattice points y with f^-(y) > 0 and f^+(y) < T for the
    observer mu(s) = (s, center), s in [0, T]. As mu is future-timelike
    and << is transitive, {s : mu(s) << y} is an initial interval of [0, T]
    and {s : y << mu(s)} a final one, so these hold exactly when
    mu(0) << y and y << mu(T).
    """
    t_vals = np.linspace(DIAMOND_MARGIN, observation.T - DIAMOND_MARGIN, per_axis)
    half = observation.T / 2.0 - DIAMOND_MARGIN
    sp_vals = [np.linspace(-half, half, per_axis) for _ in range(metric.dim - 1)]
    mesh = np.meshgrid(t_vals, *sp_vals, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if not metric.in_chart(pts).all():
        raise DomainError("point lies outside the metric chart")
    mu_0, mu_T = (np.concatenate([[s], observation.center]) for s in (0.0, observation.T))
    keep = (metric.time_separation(mu_0, pts) > 0) & (metric.time_separation(pts, mu_T) > 0)
    return pts[keep]


@dataclass
class GaugeReconstruction:
    """Per-point gauge candidates with their consistency diagnostics."""

    points: np.ndarray
    values: np.ndarray          # (N, n, n); identity rows for unresolved points
    spread: np.ndarray          # (N,): max deviation among admissible directions
    unresolved: np.ndarray      # (N,) bool
    mode: list                  # per-point extraction mode ("synthetic"/"honest"/"none")
    k_directions: int
    ode_residual: float | None = None
    theorem_residual: float | None = None

    @property
    def n_unresolved(self):
        return int(np.sum(self.unresolved))

    def max_spread(self):
        ok = ~self.unresolved
        return float(np.max(self.spread[ok])) if np.any(ok) else 0.0

    def to_json(self):
        return {
            "points": self.points.tolist(),
            "values": [matrix_to_json(u) for u in self.values],
            "spread": self.spread.tolist(),
            "unresolved": self.unresolved.tolist(),
            "mode": list(self.mode),
            "k_directions": self.k_directions,
            "ode_residual": self.ode_residual,
            "theorem_residual": self.theorem_residual,
            "n_unresolved": self.n_unresolved,
            "max_spread": self.max_spread(),
            "max_unitarity_residual": float(
                max((unitarity_residual(u) for u in self.values), default=0.0)
            ),
        }


def admissible_out_legs(metric, observation, y, k, cache):
    """Up to k admissible (w, s'') pairs at y, in deterministic direction order.

    Directions are aimed at k sampled targets inside the observation
    cylinder (a ring at half the observation radius), so distant diamond
    points still find legs that reach the observation set; each aimed
    ray is then scanned for an arrival parameter that actually lands
    inside.
    """
    frame = metric.orthonormal_frame(y)
    nsp = metric.dim - 1
    targets = observation.center + 0.5 * observation.radius * unit_directions(nsp, k)
    dirs = []
    for tgt in targets:
        d = tgt - y[1:]
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(d)
        if nrm == np.inf:  # a point too far out for floating point aims at nothing
            continue
        u = d / nrm if nrm > 1e-9 else unit_directions(nsp, 1)[0]
        if all(np.linalg.norm(u - u0) > 1e-9 for u0 in dirs):
            dirs.append(u)
    t_room = observation.T - y[0]
    if t_room <= LEG_SCAN_MARGIN:
        return []
    aims = []
    for u in dirs:
        w = frame @ np.concatenate([[1.0], u])
        s_hi = min(t_room * 1.5, cache.cut_time(y, w) - TOL_CUT)
        if s_hi > LEG_SCAN_MARGIN:
            aims.append((w, s_hi))
    if not aims:
        return []
    ws, s_his = (np.array(a) for a in zip(*aims))
    found = []
    for w, seg in zip(ws, integrate_geodesics(metric, np.tile(y, (len(ws), 1)), ws, s_his,
                                              np.maximum(1e-2, s_his / 400))):
        s_out = observation.middle_inside(
            [seg], np.linspace(LEG_SCAN_MARGIN, seg.s_max, LEG_SCAN_POINTS), LEG_SCAN_MARGIN
        )
        if s_out is not None:
            found.append((w, s_out))
    return found


def reconstruct_gauge(metric, oracle_a, oracle_b, grid, observation, k_directions=8,
                      cache=None):
    """Per-point gauge candidates on a grid; first admissible direction wins.

    Points inside the observation set use honest extraction, the others
    synthetic extraction; the choice is recorded. Every cut time goes
    through the one cache.
    """
    if cache is None:
        cache = CutTimeCache(metric)
    grid = np.asarray(grid, dtype=float)
    n = oracle_a.n
    values = np.tile(np.eye(n, dtype=complex), (len(grid), 1, 1))
    spread = np.zeros(len(grid))
    unresolved = np.zeros(len(grid), dtype=bool)
    modes = []
    for i, y in enumerate(grid):
        legs = admissible_out_legs(metric, observation, y, k_directions, cache)
        point_mode = "honest" if observation.contains(y) else "synthetic"
        cands = []
        for w, s_out in legs:
            try:
                cands.append(
                    gauge_candidate(
                        metric, oracle_a, oracle_b, y, w, s_out,
                        observation=observation, mode=point_mode, cache=cache,
                    )
                )
            except AdmissibilityError:
                continue
        if not cands:
            unresolved[i] = True
            modes.append("none")
            continue
        values[i] = cands[0]
        spread[i] = max(
            (float(np.linalg.norm(c - cands[0])) for c in cands[1:]), default=0.0
        )
        modes.append(point_mode)
    return GaugeReconstruction(
        points=grid, values=values, spread=spread, unresolved=unresolved,
        mode=modes, k_directions=k_directions,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


# central-difference step of verify_gauge_ode
FD_STEP = 1e-5


def verify_gauge_ode(metric, conn_a, conn_b, phi, samples):
    """Max residual of <d phi, w> - (phi <A, w> - <B, w> phi) over the samples and
    the coordinate axes w, in one batched evaluation.

    d phi by central differences of phi.value, with step FD_STEP, along
    each axis. Returns (max_residual, 0); the 0 is there because callers,
    the benchmark among them, unpack a pair.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))[:, None, :]
    step = FD_STEP * np.eye(metric.dim)
    u = phi.value(x)
    dphi = (phi.value(x + step) - phi.value(x - step)) / (2.0 * FD_STEP)
    rhs = u @ conn_a.components(x[:, 0]) - conn_b.components(x[:, 0]) @ u
    return float(np.max(np.linalg.norm(dphi - rhs, axis=(-2, -1)), initial=0.0)), 0


def verify_theorem(metric, conn_a, conn_b, phi, samples):
    """Max over samples and coordinate directions of ||A_i - (B <| phi)_i||, in one
    batched evaluation.

    (B <| phi)_i = phi^{-1} d_i phi + phi^{-1} B_i phi with d_i phi the
    analytic differential of the gauge field phi. Returns (max_residual, 0)
    like verify_gauge_ode.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    u = phi.value(x)[:, None]
    uinv = adjoint(u)
    gauged = uinv @ phi.differential(x) + uinv @ conn_b.components(x) @ u
    return float(np.max(np.linalg.norm(conn_a.components(x) - gauged, axis=(-2, -1)),
                        initial=0.0)), 0
