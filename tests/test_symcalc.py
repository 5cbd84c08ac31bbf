import math
import tracemalloc

import numpy as np
import pytest

from lorentz_gauge import symcalc
from lorentz_gauge.errors import DomainError, GeometryError
from lorentz_gauge.expansions import ScalarExpansion
from lorentz_gauge.gauge import ConnectionField, gauge_act, random_connection, random_gauge
from lorentz_gauge.geometry import (
    Minkowski,
    ObservationSet,
    WarpedProduct,
    integrate_geodesic,
    null_vector,
)
from lorentz_gauge.linalg import normalize_phase_scale
from lorentz_gauge.symcalc import (
    build_interaction_geometry,
    build_interaction_sweep,
    causally_independent,
    flowout_disjointness,
    interaction_symbol,
    simulated_measurement,
)
from lorentz_gauge.transport import broken_transform, parallel_transport

M3 = Minkowski(3)
M4 = Minkowski(4)
OBS = ObservationSet(M3, T=6.0, radius=1.0)
Y0 = np.array([3.0, 0.2, 0.1])


class ExpBeta:
    def value(self, x):
        x = np.asarray(x, float)
        return np.exp(2 * x[..., 0])

    def grad(self, x):
        x = np.asarray(x, float)
        g = np.zeros(x.shape)
        g[..., 0] = 2 * np.exp(2 * x[..., 0])
        return g


def unit_c(rng, n=2):
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return c / np.linalg.norm(c)


def _warped_time_only():
    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    return WarpedProduct(3, beta, beta_time_only=True)


def hamiltonian(seg):
    """H = 1/2 g(v, v) at every sample of a geodesic segment."""
    return 0.5 * np.sum(seg.v * seg.metric.flat(seg.x, seg.v), axis=-1)


# -- bicharacteristics --------------------------------------------------------
# For the wave operator the null bicharacteristics of H = 1/2 g^{ij} xi_i xi_j
# are the cotangent lifts (gamma, g(gamma', .)) of null geodesics, so these
# identities are checked on integrate_geodesic rays.


def test_bicharacteristic_minkowski_trivial():
    seg = integrate_geodesic(M4, np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]), 2.0)
    assert np.allclose(seg.x[-1], [2.0, 2.0, 0.0, 0.0], atol=1e-14)
    xi = M4.flat(seg.x, seg.v)
    assert np.allclose(xi, xi[0], atol=1e-14)
    assert np.all(hamiltonian(seg) == 0.0)


def test_bicharacteristic_hamiltonian_conservation():
    m = WarpedProduct(2, ExpBeta(), beta_time_only=True)
    v0 = np.array([1.0, 1.0])  # lightlike at t = 0 where beta = 1
    h = hamiltonian(integrate_geodesic(m, np.zeros(2), v0, 0.8, h=1e-3))
    assert float(np.max(np.abs(h - h[0]))) < 1e-9


def test_bicharacteristic_scaling():
    # gamma_{x, lam v}(s / lam) = gamma_{x, v}(s), and the lowered velocity
    # scales by lam
    m = WarpedProduct(2, ExpBeta(), beta_time_only=True)
    v0 = np.array([1.0, 1.0])
    lam = 2.0
    base = integrate_geodesic(m, np.zeros(2), v0, 0.8, h=1e-3)
    scaled = integrate_geodesic(m, np.zeros(2), lam * v0, 0.4, h=5e-4)
    xb, vb = base.state(0.8)
    xs, vs = scaled.state(0.4)
    assert np.linalg.norm(xs - xb) < 1e-8
    assert np.linalg.norm(m.flat(xs, vs) - lam * m.flat(xb, vb)) < 1e-8


def test_symbol_homogeneity(rng):
    # with the flat density the homogeneity law of the transported symbol is
    # reparametrisation invariance: P along gamma_{x, lam xi^sharp} over
    # [0, s / lam] equals P along gamma_{x, xi^sharp} over [0, s]
    a = random_connection(3, 2, rng)
    x, v, s, lam = np.zeros(3), M3.sharp(np.zeros(3), np.array([-1.0, 1.0, 0.0])), 1.5, 2.0
    base = integrate_geodesic(M3, x, v, s, h=min(1e-3, s / 50))
    scaled = integrate_geodesic(M3, x, lam * v, s / lam, h=min(1e-3, s / (50 * lam)))
    p_base = parallel_transport(M3, a, base, 0.0, s)
    p_scaled = parallel_transport(M3, a, scaled, 0.0, s / lam)
    assert np.linalg.norm(p_scaled - p_base) < 1e-6


# -- interaction geometry -----------------------------------------------------


def kappa_closed_form(theta, r):
    # [DERIVED] independent closed-form solution of the 3x3 system
    s = r * r * (1 + math.cos(theta)) / (1 - math.sqrt(1 - r * r))
    k1 = s - r * r
    k2 = 0.5 * (s - r * math.sin(theta))
    k3 = 0.5 * (s + r * math.sin(theta))
    return np.array([k1, k2, k3])


@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
@pytest.mark.parametrize("r", [0.1, 0.05, 0.025])
def test_kappa_values(theta, r):
    geom = build_interaction_geometry(M3, Y0, theta, r, OBS)
    assert geom.kappa_residual <= 1e-10
    assert np.all(geom.kappa > 0)
    assert np.allclose(geom.kappa, kappa_closed_form(theta, r), atol=1e-10)


def test_kappa_frozen_oracle():
    # [DERIVED] theta = pi/2, r = 0.1, computed by the closed form above
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.1, OBS)
    assert np.allclose(geom.kappa, [1.98498744, 0.94749372, 1.04749372], atol=1e-7)


def test_interaction_vectors_lightlike_and_sources_observed():
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.1, OBS)
    g = M3.matrix(Y0)
    for u in [geom.w] + geom.w_legs:
        assert abs(u @ g @ u) < 1e-12
    for x in geom.x_legs:
        assert OBS.contains(x)
    for j in range(3):
        for k in range(j + 1, 3):
            assert causally_independent(M3, geom.x_legs[j], geom.x_legs[k])


WARP = WarpedProduct(3, ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)]),
                     beta_time_only=True)


@pytest.mark.parametrize("stretch", [1.0, 1.0 + 1e-14])
def test_null_separated_sources_are_not_independent_on_the_warp(stretch):
    # b lies on (or, stretched, a hair outside) the light cone of a in conformal
    # time, where tau reads 0 both ways: null separation is dependence, as on Minkowski
    a = np.array([1.0, 0.2, -0.1])
    lapse = float(WARP.conformal_time(2.5) - WARP.conformal_time(a[0]))
    b = a + [2.5 - a[0], stretch * lapse * 0.6, stretch * lapse * 0.8]
    assert not causally_independent(WARP, a, b)
    assert not causally_independent(WARP, b, a)
    assert not causally_independent(M3, np.zeros(3), [1.0, 0.6, 0.8])
    far = b + [0.0, 0.1, 0.0]
    assert causally_independent(WARP, a, far) and causally_independent(WARP, far, a)


def test_sources_converge_as_r_shrinks():
    gaps = []
    for r in (0.1, 0.05, 0.025):
        geom = build_interaction_geometry(M3, Y0, math.pi / 2, r, OBS)
        gaps.append(
            max(np.linalg.norm(geom.x_legs[k] - geom.x_legs[0]) for k in (1, 2))
        )
    assert gaps[0] > gaps[1] > gaps[2]


def test_degenerate_angle_rejected():
    with pytest.raises(GeometryError):
        build_interaction_geometry(M3, Y0, 1e-9, 0.1, OBS)
    with pytest.raises(GeometryError):
        build_interaction_geometry(M3, Y0, math.pi, 0.1, OBS)


def test_no_common_source_parameter():
    tiny = ObservationSet(M3, T=6.0, radius=1e-4)
    with pytest.raises(GeometryError):
        build_interaction_geometry(M3, Y0, math.pi / 2, 0.1, tiny)


R_SWEEP = (0.05, 0.025, 0.0125)


def test_sweep_keeps_one_source_parameter_where_single_r_jumps():
    # alone, each r takes the middle of its own valid s' values, which moves
    y, theta = np.array([3.459, -0.147, 0.142]), 1.685
    alone = [build_interaction_geometry(M3, y, theta, r, OBS) for r in R_SWEEP]
    assert alone[0].s_in == alone[1].s_in != alone[2].s_in
    sweep = build_interaction_sweep(M3, y, theta, R_SWEEP, OBS)
    for g, single in zip(sweep, alone):
        assert g.r == single.r and g.s_in == alone[0].s_in
        assert OBS.contains(np.array(g.x_legs)).all()
        assert np.array_equal(g.kappa, single.kappa)


@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
def test_sweep_at_the_default_vertex_matches_each_r(theta):
    r_sweep = [0.1, 0.05, 0.025]
    sweep = build_interaction_sweep(M3, Y0, theta, r_sweep, OBS)
    for g, r in zip(sweep, r_sweep):
        alone = build_interaction_geometry(M3, Y0, theta, r, OBS)
        assert g.s_in == alone.s_in == 0.40409243697478997
        assert np.array_equal(g.x_legs, alone.x_legs)


def test_sweep_without_common_source_parameter():
    tiny = ObservationSet(M3, T=6.0, radius=1e-4)
    with pytest.raises(GeometryError):
        build_interaction_sweep(M3, Y0, math.pi / 2, R_SWEEP, tiny)


def test_orthonormal_frame_warped():
    m = WarpedProduct(2, ExpBeta(), beta_time_only=True)
    y = np.array([0.5, 0.0])
    e = m.orthonormal_frame(y)
    g = m.matrix(y)
    gram = e.T @ g @ e
    assert np.allclose(gram, np.diag([-1.0, 1.0]), atol=1e-12)


# -- interaction symbol -------------------------------------------------------


def test_interaction_symbol_identical_inputs():
    c = np.array([0.6, 0.8j])
    out = interaction_symbol(c, c, c)
    assert np.allclose(out, 6.0 * np.vdot(c, c).real * c)


def test_interaction_symbol_zero_input():
    c = np.array([1.0, 0.0], dtype=complex)
    z = np.zeros(2, dtype=complex)
    # every permutation either outputs the zero slot or pairs it inside
    # the inner product, so one zero input kills the whole sum
    assert np.all(interaction_symbol(c, c, z) == 0)
    assert np.all(interaction_symbol(z, z, z) == 0)


def test_interaction_symbol_vs_bruteforce(rng):
    vals = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
    from itertools import permutations

    expected = np.zeros(3, dtype=complex)
    for i, j, k in permutations(range(3)):
        expected += np.real(np.vdot(vals[i], vals[j])) * vals[k]
    assert np.array_equal(interaction_symbol(*vals), expected)


def test_interaction_symbol_permutation_invariance(rng):
    vals = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    base = interaction_symbol(*vals)
    # the six terms are permuted as a set; only the float addition order
    # differs between calls
    assert np.allclose(base, interaction_symbol(vals[2], vals[0], vals[1]), atol=1e-13)
    assert np.allclose(base, interaction_symbol(vals[1], vals[0], vals[2]), atol=1e-13)


# -- simulated measurement ----------------------------------------------------


def test_measurement_zero_connection(rng):
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.1, OBS)
    c = unit_c(rng)
    vec, lam = simulated_measurement(M3, ConnectionField.zero(3, 2), geom, c, 0.6)
    assert np.linalg.norm(normalize_phase_scale(vec) - normalize_phase_scale(c)) < 1e-12
    assert lam.unknown and abs(lam.value) > 0


def test_measurement_matches_broken_transform(rng):
    a = random_connection(3, 2, rng, amplitude=0.1)
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.025, OBS)
    c = unit_c(rng)
    vec, _ = simulated_measurement(M3, a, geom, c, 0.6)
    s = broken_transform(M3, a, geom.query(0.6), observation=OBS)
    err = np.linalg.norm(normalize_phase_scale(vec) - normalize_phase_scale(s @ c))
    assert err < 1e-5


def test_measurement_gauge_independent(rng):
    # B = A <| phi^{-1} with phi = id on the observation set: same output
    a = random_connection(3, 2, rng, amplitude=0.1)
    phi = random_gauge(3, 2, rng, observation=OBS)
    b = gauge_act(a, phi.inverse())
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.05, OBS)
    c = unit_c(rng)
    va, _ = simulated_measurement(M3, a, geom, c, 0.6)
    vb, _ = simulated_measurement(M3, b, geom, c, 0.6)
    assert np.linalg.norm(normalize_phase_scale(va) - normalize_phase_scale(vb)) < 1e-5


def test_measurement_cauchy_in_r(rng):
    a = random_connection(3, 2, rng, amplitude=0.5)
    c = unit_c(rng)
    outs = []
    for r in (0.1, 0.05, 0.025):
        geom = build_interaction_geometry(M3, Y0, math.pi / 2, r, OBS)
        vec, _ = simulated_measurement(M3, a, geom, c, 0.6)
        outs.append(normalize_phase_scale(vec))
    d1 = np.linalg.norm(outs[1] - outs[0])
    d2 = np.linalg.norm(outs[2] - outs[1])
    assert d2 < d1


MISS_CASES = [pytest.param(M3, theta, id=str(theta))
              for theta in (math.pi / 4, math.pi / 2, 3 * math.pi / 4)]
MISS_CASES.append(pytest.param(_warped_time_only(), math.pi / 2,
                               id=f"time-only-warp-{math.pi / 2}"))


@pytest.mark.parametrize("metric, theta", MISS_CASES)
def test_measurement_miss_is_second_order_in_r(rng, metric, theta):
    # [DERIVED] at the default vertex the measurement misses S^A c by O(r^2)
    # model error: along one sweep (one s') the worst normalised miss over
    # the vectors falls by a factor of 4 each time r halves, on Minkowski
    # and on the curved time-only warp beta = 1 + 0.3 cos(t/2)
    obs = ObservationSet(metric, T=6.0, radius=1.0)
    a = random_connection(3, 2, rng, amplitude=0.1)
    cs = np.array([unit_c(rng) for _ in range(8)])
    sweep = build_interaction_sweep(metric, Y0, theta, R_SWEEP, obs)
    s = broken_transform(metric, a, sweep[-1].query(0.6), observation=obs)
    targets = [normalize_phase_scale(s @ c) for c in cs]
    misses = []
    for geom in sweep:
        vecs, _ = simulated_measurement(metric, a, geom, cs, 0.6)
        misses.append(max(np.linalg.norm(normalize_phase_scale(v) - t)
                          for v, t in zip(vecs, targets)))
    ratios = np.array(misses[:-1]) / np.array(misses[1:])
    assert np.all((ratios >= 3.9) & (ratios <= 4.1)), ratios


def test_measurement_of_stacked_vectors_matches_vector_loop(rng):
    a = random_connection(3, 2, rng, amplitude=0.3)
    geom = build_interaction_geometry(M3, Y0, math.pi / 3, 0.05, OBS)
    cs = np.array([unit_c(rng) for _ in range(5)])
    stacked, lam = simulated_measurement(M3, a, geom, cs, 0.6)
    loop = [simulated_measurement(M3, a, geom, c, 0.6) for c in cs]
    assert stacked.shape == cs.shape
    assert np.array_equal(stacked, [vec for vec, _ in loop])
    assert all(lam == other for _, other in loop)


def test_interaction_symbol_stacked_matches_loop(rng):
    vals = [rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)) for _ in range(3)]
    loop = [interaction_symbol(*(v[i] for v in vals)) for i in range(4)]
    assert np.array_equal(interaction_symbol(*vals), loop)


def test_measurement_requires_unit_vector(rng):
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.1, OBS)
    with pytest.raises(DomainError):
        simulated_measurement(M3, ConnectionField.zero(3, 2), geom, np.array([2.0, 0.0]), 0.6)
    with pytest.raises(DomainError):
        simulated_measurement(M3, ConnectionField.zero(3, 2), geom,
                              np.array([[1.0, 0.0], [2.0, 0.0]]), 0.6)


# -- flowout disjointness -----------------------------------------------------


def test_flowout_positive_and_monotone():
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.1, OBS)
    ds = [
        flowout_disjointness(M3, geom, 0.6, cone, n_samples=8)
        for cone in (0.1, 0.05, 0.025)
    ]
    assert all(d > 0 for d in ds)
    assert ds[0] <= ds[1] <= ds[2]


def test_flowout_search_prunes_pairs(monkeypatch):
    # the nearest-pair search evaluates under 1% of the point pairs that a
    # brute-force minimum over the same two point sets computes
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.1, OBS)
    pair_d2, min_distance = symcalc._pair_d2, symcalc._min_distance
    evaluated, brute_force = [], []

    def counting_pair_d2(ca, cb):
        evaluated.append(ca.shape[0] * ca.shape[1] * cb.shape[1])
        return pair_d2(ca, cb)

    def counting_min_distance(a, b):
        brute_force.append(len(a) * len(b))
        return min_distance(a, b)

    monkeypatch.setattr(symcalc, "_pair_d2", counting_pair_d2)
    monkeypatch.setattr(symcalc, "_min_distance", counting_min_distance)
    for cone in (0.1, 0.05, 0.025):
        evaluated.clear()
        brute_force.clear()
        flowout_disjointness(M3, geom, 0.6, cone, n_samples=8)
        assert 0 < sum(evaluated) < 0.01 * sum(brute_force)


def test_min_distance_finds_a_closest_pair_in_every_chunk_pair():
    # a unique closest pair planted in each pair of 16-row chunks in turn,
    # among boxes that all overlap, so every batch position is reached
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-1.0, 1.0, (100, 3)), rng.uniform(-1.0, 1.0, (100, 3))
    for i in range(3, 100, 16):
        for j in range(2, 100, 16):
            near = b.copy()
            near[j] = a[i] + 1e-6
            brute_force = float(np.linalg.norm(a[:, None] - near[None], axis=2).min())
            assert brute_force < 1e-5
            assert symcalc._min_distance(a, near) == brute_force


def test_flowout_vertex_on_both():
    # without the exclusion ball the distance collapses to ~0 at y
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.1, OBS)
    d = flowout_disjointness(M3, geom, 0.6, 1e-9, n_samples=4, eps_excl=0.0)
    # limited by the 400-point sampling of each trajectory near y
    assert d < 5e-3


def _flowout_by_norms(metric, geom, s_out, s0_cone, n_samples, eps_excl=0.05, h=1e-2):
    """The flowout distance ray by ray, through the norm of a (N, M, dim) difference."""
    rng = np.random.default_rng(0)
    seg_out = integrate_geodesic(metric, geom.y, geom.w, s_out, h=min(h, s_out / 100))
    out_pts = seg_out.position(np.linspace(0.0, s_out, 400))
    out_pts = out_pts[np.linalg.norm(out_pts - geom.y, axis=1) > eps_excl]
    length = geom.s_in + s_out
    best = math.inf
    for x_src, xi in zip(geom.x_legs, geom.xi_legs):
        for _ in range(n_samples):
            pert = rng.standard_normal(metric.dim - 1)
            pert = pert / np.linalg.norm(pert)
            spatial = xi[1:] / abs(xi[0]) + s0_cone * pert
            v = null_vector(metric, x_src, spatial, time_sign=math.copysign(1.0, xi[0]))
            traj = integrate_geodesic(metric, x_src, v * abs(xi[0]), length,
                                      h=min(h, length / 200))
            pts = traj.position(np.linspace(0.0, length, 400))
            pts = pts[~(np.linalg.norm(pts - geom.y, axis=1) <= eps_excl)]
            d = np.linalg.norm(pts[:, None, :] - out_pts[None, :, :], axis=2)
            best = min(best, float(np.min(d)))
    return best


@pytest.mark.parametrize("metric", [M3, _warped_time_only()], ids=["minkowski", "warped"])
def test_flowout_matches_norm_formula(metric):
    obs = ObservationSet(metric, T=6.0, radius=2.0)
    geom = build_interaction_geometry(metric, Y0, 1.2, 0.05, obs)
    for cone in (0.1, 0.025):
        assert flowout_disjointness(metric, geom, 0.6, cone, n_samples=4) \
            == _flowout_by_norms(metric, geom, 0.6, cone, n_samples=4)


def test_flowout_memory_is_one_ray_block():
    # the 72 rays' points, 0.7 MB a copy, are searched together with one
    # (32, 16, 16) block per batch (peak near 3.2 MB); the brute-force
    # (400, 390, 3) difference of each ray alone peaks near 10 MB
    geom = build_interaction_geometry(M3, Y0, 1.2, 0.05, ObservationSet(M3, T=6.0, radius=2.0))
    flowout_disjointness(M3, geom, 0.6, 0.1, n_samples=24)
    tracemalloc.start()
    try:
        flowout_disjointness(M3, geom, 0.6, 0.1, n_samples=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
