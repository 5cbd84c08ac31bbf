import math
import tracemalloc

import numpy as np
import pytest

from lorentz_gauge.errors import DomainError, GeometryError
from lorentz_gauge.expansions import ScalarExpansion
from lorentz_gauge.gauge import ConnectionField, gauge_act, random_connection, random_gauge
from lorentz_gauge.geometry import (
    GeodesicSegment,
    Minkowski,
    ObservationSet,
    WarpedProduct,
    integrate_geodesic,
    null_vector,
)
from lorentz_gauge.linalg import normalize_phase_scale, to_coords
from lorentz_gauge.symcalc import (
    Bicharacteristic,
    FlatDensity,
    LogDerivativeDensity,
    SymbolState,
    _orthonormal_frame,
    build_interaction_geometry,
    build_interaction_sweep,
    causally_independent,
    flowout_disjointness,
    homogeneity_residual,
    integrate_bicharacteristic,
    interaction_symbol,
    simulated_measurement,
    transport_symbol,
    transport_symbol_reference,
    volume_factor,
    wave_symbols,
)
from lorentz_gauge.transport import _cf4_product, _stage_params, broken_transform

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


# -- bicharacteristics --------------------------------------------------------


def test_bicharacteristic_minkowski_trivial():
    b = integrate_bicharacteristic(M4, np.zeros(4), np.array([-1.0, 1.0, 0.0, 0.0]), 2.0)
    assert np.allclose(b.x[-1], [2.0, 2.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(b.xi, b.xi[0], atol=1e-14)
    assert b.hamiltonian_drift() == 0.0


def test_bicharacteristic_hamiltonian_conservation():
    m = WarpedProduct(2, ExpBeta(), beta_time_only=True)
    xi0 = np.array([-1.0, 1.0])  # lightlike at t = 0 where beta = 1
    b = integrate_bicharacteristic(m, np.zeros(2), xi0, 0.8, h=1e-3)
    assert b.hamiltonian_drift() < 1e-9


def test_bicharacteristic_projects_to_geodesic():
    m = WarpedProduct(2, ExpBeta(), beta_time_only=True)
    xi0 = np.array([-1.0, 1.0])
    v0 = m.sharp(np.zeros(2), xi0)
    b = integrate_bicharacteristic(m, np.zeros(2), xi0, 0.8, h=1e-3)
    seg = integrate_geodesic(m, np.zeros(2), v0, 0.8, h=1e-3)
    assert np.linalg.norm(b.x[-1] - seg.endpoint) < 1e-8


def test_bicharacteristic_scaling():
    # beta_lam(s) = (gamma(lam s), lam gamma^flat(lam s))
    m = WarpedProduct(2, ExpBeta(), beta_time_only=True)
    xi0 = np.array([-1.0, 1.0])
    lam = 2.0
    base = integrate_bicharacteristic(m, np.zeros(2), xi0, 0.8, h=1e-3)
    scaled = integrate_bicharacteristic(m, np.zeros(2), lam * xi0, 0.4, h=5e-4)
    xb, xib = base.state(0.8)
    xs, xis = scaled.state(0.4)
    assert np.linalg.norm(xs - xb) < 1e-8
    assert np.linalg.norm(xis - lam * xib) < 1e-8


def test_bicharacteristic_rejects_timelike():
    with pytest.raises(DomainError):
        integrate_bicharacteristic(M3, np.zeros(3), np.array([1.0, 0.0, 0.0]), 1.0)


# -- wave symbols -------------------------------------------------------------


def test_wave_symbols(rng):
    a = random_connection(3, 2, rng)
    # lightlike covector: principal vanishes
    p, _ = wave_symbols(M3, a, np.zeros(3), np.array([-1.0, 1.0, 0.0]))
    assert abs(p) < 1e-14
    # [DERIVED] xi = (1,0,0): 1/2 g^00 = -1/2
    p, sub = wave_symbols(M3, a, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert p == pytest.approx(-0.5)
    # subprincipal Hermitian
    assert np.linalg.norm(sub - np.conj(sub.T)) < 1e-12
    # A = 0 -> subprincipal 0
    _, sub0 = wave_symbols(M3, ConnectionField.zero(3, 2), np.zeros(3), np.array([1.0, 0, 0]))
    assert np.all(sub0 == 0)


# -- volume factor and symbol transport --------------------------------------


def bichar_flat():
    return integrate_bicharacteristic(M3, np.zeros(3), np.array([-1.0, 1.0, 0.0]), 2.0)


def test_volume_factor_flat_zero():
    b = bichar_flat()
    for s in (0.0, 1.0, 2.0):
        assert volume_factor(M3, b, FlatDensity(), s) == 0.0


def test_volume_factor_analytic():
    # along gamma(s) = (s, s, 0) with f = 0.3 cos(t): integral = 0.3 sin(s)
    b = bichar_flat()
    dens = LogDerivativeDensity(lambda x, xi: 0.3 * math.cos(x[0]))
    assert abs(volume_factor(M3, b, dens, 2.0) - 0.3 * math.sin(2.0)) < 1e-10


def test_volume_factor_additivity():
    b = bichar_flat()
    dens = LogDerivativeDensity(lambda x, xi: 0.3 * math.cos(x[0]))
    total = volume_factor(M3, b, dens, 1.7)
    # restart the integral at s = 1.0
    x1, xi1 = b.state(1.0)
    b2 = integrate_bicharacteristic(M3, x1, xi1, 0.7)
    part = volume_factor(M3, b, dens, 1.0) + volume_factor(M3, b2, dens, 0.7)
    assert abs(total - part) < 1e-10


def test_transport_symbol_constant_when_trivial(rng):
    b = bichar_flat()
    c = unit_c(rng)
    out = transport_symbol(M3, ConnectionField.zero(3, 2), b, SymbolState(c), 2.0)
    assert np.allclose(out.value, c, atol=1e-12)
    assert out.degree == 0.5


def test_transport_symbol_dual_route(rng):
    a = random_connection(3, 2, rng)
    b = bichar_flat()
    dens = LogDerivativeDensity(lambda x, xi: 0.3 * math.cos(x[0]))
    s0 = SymbolState(unit_c(rng))
    t1 = transport_symbol(M3, a, b, s0, 2.0, omega_spec=dens)
    t2 = transport_symbol_reference(M3, a, b, s0, 2.0, omega_spec=dens)
    assert np.linalg.norm(t1.value - t2.value) < 1e-9


def test_symbol_homogeneity(rng):
    a = random_connection(3, 2, rng)
    res = homogeneity_residual(
        M3, a, np.zeros(3), np.array([-1.0, 1.0, 0.0]), 1.5, 2.0, 0.7, unit_c(rng)
    )
    assert res < 1e-6


def warped_bichar():
    """A bicharacteristic of the time-only warp beta = 1 + 0.3 cos(t/2) in 2+1."""
    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    m = WarpedProduct(3, beta, beta_time_only=True)
    x0 = np.array([1.0, 0.2, -0.1])
    xi0 = np.array([-math.sqrt(float(beta.value(x0))), 0.6, 0.8])
    return m, integrate_bicharacteristic(m, x0, xi0, 1.5, h=1e-2)


def test_bicharacteristic_batched_matches_sample_loop():
    m, b = warped_bichar()
    ham = np.array([0.5 * xi @ m.inverse(x) @ xi for x, xi in zip(b.x, b.xi)])
    assert b.hamiltonian_drift() == pytest.approx(float(np.max(np.abs(ham - ham[0]))),
                                                  rel=1e-12, abs=1e-18)
    seg = b.to_segment()
    loop_v = np.stack([m.inverse(x) @ xi for x, xi in zip(b.x, b.xi)])
    np.testing.assert_allclose(seg.v, loop_v, rtol=1e-15, atol=0)
    nodes = np.linspace(0.0, 1.5, 7)
    xs, xis = b.state(nodes)
    for s, x, xi in zip(nodes, xs, xis):
        xs1, vs1 = seg.state(s)
        np.testing.assert_allclose(x, xs1, rtol=1e-15, atol=0)
        np.testing.assert_allclose(xi, m.matrix(xs1) @ vs1, rtol=1e-15, atol=0)


def test_transport_symbol_log_density_matches_node_loop(rng):
    m, b = warped_bichar()
    a = random_connection(3, 2, rng, amplitude=0.5)
    calls = []

    def f(x, xi):
        calls.append(len(x))
        return 0.3 * math.cos(x[0]) + 0.1 * xi[1]

    s0 = SymbolState(unit_c(rng))
    got = transport_symbol(m, a, b, s0, 1.5, omega_spec=LogDerivativeDensity(f), h=1e-2)
    assert calls and set(calls) == {3}  # f is called with one point at a time
    # the same CF4 steps with every node evaluated on its own
    seg = GeodesicSegment(m, b.s, b.x, np.stack([m.inverse(x) @ xi for x, xi in zip(b.x, b.xi)]))
    params, hs = _stage_params(0.0, 1.5, 1e-2)
    k, div = [], []
    for p in params:
        x, v = seg.state(p)
        k.append(-a.pairing(x, v))
        div.append(f(x, m.matrix(x) @ v))
    k1, k2 = np.split(np.array(k), 2)
    prod = _cf4_product(to_coords(k1), to_coords(k2), hs)
    ref = math.exp(-0.5 * hs * sum(div)) * (prod @ s0.value)
    np.testing.assert_allclose(got.value, ref, rtol=1e-13, atol=1e-15)


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
    e = _orthonormal_frame(m, y)
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


def test_measurement_limit_mode(rng):
    a = random_connection(3, 2, rng, amplitude=0.5)
    geom = build_interaction_geometry(M3, Y0, math.pi / 2, 0.025, OBS)
    c = unit_c(rng)
    vec, _ = simulated_measurement(M3, a, geom, c, 0.6, mode="limit")
    s = broken_transform(M3, a, geom.query(0.6), observation=OBS)
    assert np.linalg.norm(normalize_phase_scale(vec) - normalize_phase_scale(s @ c)) < 1e-9


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


@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
def test_measurement_miss_is_second_order_in_r(rng, theta):
    # [DERIVED] at the default vertex the measurement misses S^A c by O(r^2)
    # model error: along one sweep (one s') the worst normalised miss over
    # the vectors falls by a factor of 4 each time r halves
    a = random_connection(3, 2, rng, amplitude=0.1)
    cs = np.array([unit_c(rng) for _ in range(8)])
    sweep = build_interaction_sweep(M3, Y0, theta, R_SWEEP, OBS)
    s = broken_transform(M3, a, sweep[-1].query(0.6), observation=OBS)
    targets = [normalize_phase_scale(s @ c) for c in cs]
    misses = []
    for geom in sweep:
        vecs, _ = simulated_measurement(M3, a, geom, cs, 0.6)
        misses.append(max(np.linalg.norm(normalize_phase_scale(v) - t)
                          for v, t in zip(vecs, targets)))
    ratios = np.array(misses[:-1]) / np.array(misses[1:])
    assert np.all((ratios >= 3.9) & (ratios <= 4.1)), ratios


@pytest.mark.parametrize("mode", ["fixed_r", "limit"])
def test_measurement_of_stacked_vectors_matches_vector_loop(rng, mode):
    a = random_connection(3, 2, rng, amplitude=0.3)
    geom = build_interaction_geometry(M3, Y0, math.pi / 3, 0.05, OBS)
    cs = np.array([unit_c(rng) for _ in range(5)])
    stacked, lam = simulated_measurement(M3, a, geom, cs, 0.6, mode=mode)
    loop = [simulated_measurement(M3, a, geom, c, 0.6, mode=mode) for c in cs]
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


def _warped_time_only():
    beta = ScalarExpansion(3, constant=1.0, waves=[(0.3, [0.5, 0.0, 0.0], 0.0)])
    return WarpedProduct(3, beta, beta_time_only=True)


@pytest.mark.parametrize("metric", [M3, _warped_time_only()], ids=["minkowski", "warped"])
def test_flowout_matches_norm_formula(metric):
    obs = ObservationSet(metric, T=6.0, radius=2.0)
    geom = build_interaction_geometry(metric, Y0, 1.2, 0.05, obs)
    for cone in (0.1, 0.025):
        assert flowout_disjointness(metric, geom, 0.6, cone, n_samples=4) \
            == _flowout_by_norms(metric, geom, 0.6, cone, n_samples=4)


def test_flowout_memory_is_one_ray_block():
    # the distance block of one ray is (400, ~390) doubles, 1.25 MB; the
    # brute-force (400, 390, 3) difference of each ray peaks near 10 MB
    geom = build_interaction_geometry(M3, Y0, 1.2, 0.05, ObservationSet(M3, T=6.0, radius=2.0))
    flowout_disjointness(M3, geom, 0.6, 0.1, n_samples=24)
    tracemalloc.start()
    try:
        flowout_disjointness(M3, geom, 0.6, 0.1, n_samples=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
