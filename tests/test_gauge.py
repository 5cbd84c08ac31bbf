import numpy as np
import pytest

from lorentz_gauge.errors import IntegrityError
from lorentz_gauge.expansions import ScalarExpansion
from lorentz_gauge.gauge import (
    ConnectionField,
    GaugeField,
    MatrixExpansion,
    RadialCutoff,
    SmoothStep,
    _radius,
    gauge_act,
    random_connection,
    random_gauge,
)
from lorentz_gauge.geometry import Minkowski, ObservationSet
from lorentz_gauge.linalg import (
    adjoint,
    dexpm_skew,
    from_coords,
    skew_residual,
    unitarity_residual,
)

DIM, N = 3, 2


def test_scalar_expansion_gradient(rng):
    f = ScalarExpansion.random(DIM, rng, n_waves=4)
    x = rng.uniform(-1, 1, DIM)
    h = 1e-6
    g = f.grad(x)
    for k in range(DIM):
        e = np.zeros(DIM)
        e[k] = h
        fd = (f.value(x + e) - f.value(x - e)) / (2 * h)
        assert abs(g[k] - fd) < 1e-8


def test_scalar_expansion_json_roundtrip(rng):
    f = ScalarExpansion.random(DIM, rng)
    g = ScalarExpansion.from_json(f.to_json())
    x = rng.uniform(-1, 1, (10, DIM))
    assert np.allclose(f.value(x), g.value(x))


def test_matrix_expansion_rejects_non_skew():
    f = ScalarExpansion(DIM, constant=1.0)
    with pytest.raises(IntegrityError):
        MatrixExpansion(DIM, N, [(f, np.eye(N))])


def test_connection_pairing_skew_and_linear(rng):
    a = random_connection(DIM, N, rng)
    x = rng.uniform(-1, 1, DIM)
    v = rng.standard_normal(DIM)
    w = rng.standard_normal(DIM)
    assert skew_residual(a.pairing(x, v)) < 1e-13
    lhs = a.pairing(x, 2.0 * v - 0.5 * w)
    rhs = 2.0 * a.pairing(x, v) - 0.5 * a.pairing(x, w)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_pairing_batch_matches_loop(rng):
    a = random_connection(DIM, N, rng)
    xs = rng.uniform(-1, 1, (7, DIM))
    vs = rng.standard_normal((7, DIM))
    batch = a.pairing(xs, vs)
    for i in range(7):
        assert np.allclose(batch[i], a.pairing(xs[i], vs[i]))


def test_smooth_step_endpoints():
    u = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    s = SmoothStep.value(u)
    assert s[0] == 0.0 and s[1] == 0.0
    assert s[3] == 1.0 and s[4] == 1.0
    assert 0.0 < s[2] < 1.0
    # derivative vanishes outside (0, 1) and matches FD inside
    def derivative(u):
        return SmoothStep.derivative(u, *SmoothStep.terms(u))

    assert derivative(np.array([-0.5, 1.5])).tolist() == [0.0, 0.0]
    h = 1e-7
    fd = (SmoothStep.value(np.array([0.3 + h])) - SmoothStep.value(np.array([0.3 - h]))) / (2 * h)
    assert abs(derivative(np.array([0.3]))[0] - fd[0]) < 1e-6


def test_radial_cutoff_vanishes_on_observation_set(rng):
    cut = RadialCutoff(DIM, r0=1.0, width=0.5)
    for _ in range(50):
        t = rng.uniform(0, 6)
        xsp = rng.standard_normal(DIM - 1)
        xsp = xsp / np.linalg.norm(xsp) * rng.uniform(0, 0.999)
        x = np.concatenate([[t], xsp])
        assert cut.value(x) == 0.0
        assert np.all(cut.value_and_grad(x)[1] == 0.0)
    far = np.array([1.0, 3.0, 0.0])
    assert cut.value(far) == 1.0


def test_cutoff_gradient_is_evaluated_only_at_live_points(monkeypatch):
    # spatial radii: inside the cutoff, 1 + 1e-4 where exp(-1/u) underflows to chi = 0,
    # the ramp, and chi = 1
    cut = RadialCutoff(DIM, 1.0, width=1.0)
    radii = np.array([0.0, 0.5, 2.5, 1.0 + 1e-4, 1.3, 0.99, 1.7, 3.0])
    xs = np.column_stack([np.linspace(0.5, 4.0, len(radii)), radii, np.zeros(len(radii))])
    seen = []
    derivative = SmoothStep.derivative

    def recording(u, a, b):
        seen.append(u)
        return derivative(u, a, b)

    monkeypatch.setattr(SmoothStep, "derivative", staticmethod(recording))
    chi, grad = cut.value_and_grad(xs)
    live = chi != 0
    assert live.tolist() == [False, False, True, False, True, False, True, True]
    assert np.concatenate(seen).tolist() == (radii[live] - 1.0).tolist()
    assert np.all(grad[~live] == 0.0)
    # the live points' gradient is that of a stack of live points only
    seen.clear()
    live_chi, live_grad = cut.value_and_grad(xs[live])
    assert len(seen) == 1 and len(seen[0]) == np.count_nonzero(live)
    assert grad[live].tobytes() == live_grad.tobytes()
    assert chi[live].tobytes() == live_chi.tobytes()


def full_stack_value_and_grad(cut, x):
    """chi and its gradient with the smooth step on every point and the gradient
    on the rows where chi != 0, through a guarded division by the radius."""
    x = np.asarray(x, dtype=float)
    d = x[..., 1:] - cut.center
    r = np.linalg.norm(d, axis=-1)
    u = (r - cut.r0) / cut.width
    a, b = SmoothStep.terms(u)
    chi, grad = a / (a + b), np.zeros(x.shape)
    live = np.flatnonzero(chi)
    d, r = d.reshape(-1, d.shape[-1])[live], r.reshape(-1, 1)[live]
    out = np.divide(d, r, out=np.zeros(d.shape), where=r > 1e-12)
    out *= (SmoothStep.derivative(*(y.ravel()[live] for y in (u, a, b))) / cut.width)[:, None]
    grad.reshape(-1, x.shape[-1])[live, 1:] = out
    return chi, grad


@pytest.mark.parametrize("r0, width", [(1.0, 0.5), (-0.5, 1.0), (0.0, 1.0), (-np.inf, 1.0)])
def test_cutoff_matches_the_full_stack_formula_bit_for_bit(rng, r0, width):
    # spatial radii at 0 and 1e-13 (the guarded division), on both sides of r0,
    # where exp(-1/u) underflows, on the ramp and past it; the directions have
    # negative entries, so the sign of every zero is compared too
    cut = RadialCutoff(DIM, r0, width=width, center=[0.25, -0.5])
    base = 0.0 if np.isinf(r0) else r0
    radii = np.array([0.0, 1e-13, base, base + 1e-4 * width, base + 0.3 * width,
                      base + (1 - 1e-4) * width, base + 2 * width, abs(base) / 2])
    angles = rng.uniform(0, 2 * np.pi, (3, len(radii)))
    xs = np.stack([rng.uniform(0, 6, angles.shape),
                   0.25 + radii * np.cos(angles), -0.5 + radii * np.sin(angles)], axis=-1)
    for x in (xs, xs[0, 3], rng.uniform(-3, 3, (40, DIM))):
        chi, grad = cut.value_and_grad(x)
        ref_chi, ref_grad = full_stack_value_and_grad(cut, x)
        assert chi.tobytes() == ref_chi.tobytes() and chi.shape == np.shape(ref_chi)
        assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("dim", range(2, 11))
def test_cutoff_radius_keeps_the_bits_of_norm(rng, dim):
    # every dim the scenario schema admits, 1 to 9 spatial axes: the radius is the
    # sum of squares np.linalg.norm takes, term for term, so chi and its gradient
    # keep the bits of the norm-based formula
    cut = RadialCutoff(dim, 1.0, width=0.5, center=rng.uniform(-0.5, 0.5, dim - 1))
    for lead in ((), (1,), (37,), (4, 5)):
        d = rng.standard_normal(lead + (dim - 1,)) * 10.0 ** rng.integers(-3, 4, lead + (dim - 1,))
        assert _radius(d).tobytes() == np.linalg.norm(d, axis=-1).tobytes()
        x = rng.uniform(-1.5, 1.5, lead + (dim,))
        chi, grad = cut.value_and_grad(x)
        ref_chi, ref_grad = full_stack_value_and_grad(cut, x)
        assert chi.tobytes() == ref_chi.tobytes() and grad.tobytes() == ref_grad.tobytes()
        assert cut.value(x).tobytes() == ref_chi.tobytes()


def test_gauge_field_unitary_and_identity_inside(rng):
    obs = ObservationSet(Minkowski(DIM), T=6.0, radius=1.0)
    phi = random_gauge(DIM, N, rng, observation=obs)
    xs = rng.uniform(-2, 2, (20, DIM))
    assert unitarity_residual(phi.value(xs)) < 1e-12
    inside = np.array([2.0, 0.5, 0.0])
    assert np.allclose(phi.value(inside), np.eye(N))


def test_gauge_differential_matches_fd(rng):
    obs = ObservationSet(Minkowski(DIM), T=6.0, radius=1.0)
    phi = random_gauge(DIM, N, rng, observation=obs)
    x = np.array([0.5, 1.3, 0.9])  # inside the cutoff transition zone
    d = phi.differential(x)
    h = 1e-6
    for k in range(DIM):
        e = np.zeros(DIM)
        e[k] = h
        fd = (phi.value(x + e) - phi.value(x - e)) / (2 * h)
        assert np.max(np.abs(d[k] - fd)) < 1e-8


def test_gauge_inverse(rng):
    phi = GaugeField.random(DIM, N, rng)
    x = rng.uniform(-1, 1, DIM)
    assert np.allclose(phi.inverse().value(x), adjoint(phi.value(x)), atol=1e-13)


def test_gauged_connection_skew_and_formula(rng):
    a = random_connection(DIM, N, rng)
    phi = GaugeField.random(DIM, N, rng)
    b = gauge_act(a, phi)
    x = rng.uniform(-1, 1, DIM)
    v = rng.standard_normal(DIM)
    assert skew_residual(b.pairing(x, v)) < 1e-12
    u = phi.value(x)
    dphi_v = np.einsum("i,ijk->jk", v, phi.differential(x))
    expected = np.linalg.inv(u) @ (dphi_v + a.pairing(x, v) @ u)
    assert np.allclose(b.pairing(x, v), expected, atol=1e-12)


def test_gauge_act_identity_gauge(rng):
    a = random_connection(DIM, N, rng)
    b = gauge_act(a, GaugeField.identity(DIM, N))
    x = rng.uniform(-1, 1, DIM)
    v = rng.standard_normal(DIM)
    assert np.allclose(b.pairing(x, v), a.pairing(x, v), atol=1e-14)


def test_gauge_act_roundtrip(rng):
    a = random_connection(DIM, N, rng)
    phi = GaugeField.random(DIM, N, rng)
    back = gauge_act(gauge_act(a, phi), phi.inverse())
    x = rng.uniform(-1, 1, DIM)
    v = rng.standard_normal(DIM)
    assert np.allclose(back.pairing(x, v), a.pairing(x, v), atol=1e-12)


def test_gauged_connection_batch(rng):
    a = random_connection(DIM, N, rng)
    phi = GaugeField.random(DIM, N, rng)
    b = gauge_act(a, phi)
    xs = rng.uniform(-1, 1, (6, DIM))
    vs = rng.standard_normal((6, DIM))
    batch = b.pairing(xs, vs)
    for i in range(6):
        assert np.allclose(batch[i], b.pairing(xs[i], vs[i]), atol=1e-12)


def test_zero_connection():
    a = ConnectionField.zero(DIM, N)
    assert np.all(a.pairing(np.zeros(DIM), np.ones(DIM)) == 0)


def _differential_per_direction(phi, x):
    """d_k phi from one Frechet derivative per coordinate direction."""
    chi, dchi = phi.cutoff.value_and_grad(x)
    psi = from_coords(phi.generator.coords(x))
    dpsi = from_coords(phi.generator.coords(x[..., None, :], np.eye(DIM))[1])
    log = chi[..., None, None] * psi
    dlog = chi[..., None, None, None] * dpsi + dchi[..., :, None, None] * psi[..., None, :, :]
    return dexpm_skew(np.broadcast_to(log[..., None, :, :], dlog.shape), dlog)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauged_connection_matches_solve_formula(rng, n):
    obs = ObservationSet(Minkowski(DIM), T=6.0, radius=1.0)
    a = random_connection(DIM, n, rng)
    phi = random_gauge(DIM, n, rng, observation=obs)
    b = gauge_act(a, phi)
    # spatial radii from 0 to 2.8 cover phi = I, the cutoff ramp and chi = 1
    xs = rng.uniform(-2, 2, (12, DIM))
    vs = rng.standard_normal((12, DIM))
    u = phi.value(xs)
    dphi = _differential_per_direction(phi, xs)
    assert np.max(np.abs(phi.differential(xs) - dphi)) < 1e-12
    dphi_v = np.einsum("...i,...ijk->...jk", vs, dphi)
    pairing = np.linalg.solve(u, dphi_v + a.pairing(xs, vs) @ u)
    assert np.max(np.abs(b.pairing(xs, vs) - pairing)) < 1e-12
    comps = np.linalg.solve(u[:, None], dphi + a.components(xs) @ u[:, None])
    assert np.max(np.abs(b.components(xs) - comps)) < 1e-12


def _pairing_across_the_cutoff(monkeypatch, phi, b):
    """b's pairing at points whose spatial radii lie inside the cutoff of radius 1,
    at 1 + 1e-4 where exp(-1/u) underflows to chi = 0, on the ramp and where chi = 1;
    checks that phi's generator is evaluated at the points where chi != 0 only, and
    that the others keep the bits of b's base pairing. Returns the points and
    velocities and b's pairing there."""
    radii = np.array([0.0, 0.5, 2.5, 1.0 + 1e-4, 1.3, 0.99, 1.7, 3.0])
    angles = np.linspace(0.0, 5.0, len(radii))
    xs = np.column_stack([np.linspace(0.5, 4.0, len(radii)), radii * np.cos(angles),
                          radii * np.sin(angles)])
    vs = np.column_stack([np.ones(len(radii)), np.cos(2 * angles), np.sin(2 * angles)])
    dead = phi.cutoff.value(xs) == 0
    assert dead.tolist() == [True, True, False, True, False, True, False, False]
    seen = []
    coords = phi.generator.coords

    def recording(x, v=None):
        seen.append(np.atleast_2d(x))
        return coords(x, v)

    monkeypatch.setattr(phi.generator, "coords", recording)
    stack = b.pairing_coords(xs, vs)
    monkeypatch.undo()
    assert np.all(phi.cutoff.value(np.concatenate(seen)) != 0)
    assert sum(len(x) for x in seen) == np.count_nonzero(~dead)
    assert stack[dead].tobytes() == b.base.pairing_coords(xs, vs)[dead].tobytes()
    return xs, vs, stack


def test_gauged_pairing_evaluates_the_gauge_only_where_it_is_not_the_identity(monkeypatch):
    # one wave per field: every product with a field's table has a single term, so
    # a stack is evaluated with the bits of its points
    def one_wave(amp, freq, phase, coords):
        return MatrixExpansion(DIM, N, [(ScalarExpansion(DIM, waves=[(amp, freq, phase)]),
                                         from_coords(np.array(coords)))])

    a = ConnectionField([one_wave(0.7, [0.5, 1.0, -0.5], 0.3, [0.2, -0.6, 0.4, 0.5]),
                         MatrixExpansion(DIM, N, []), MatrixExpansion(DIM, N, [])])
    phi = GaugeField(one_wave(0.9, [0.0, -0.5, 1.0], 1.1, [-0.3, 0.8, 0.1, -0.7]),
                     RadialCutoff(DIM, 1.0, width=1.0))
    b = gauge_act(a, phi)
    xs, vs, stack = _pairing_across_the_cutoff(monkeypatch, phi, b)
    points = np.array([b.pairing_coords(x, v) for x, v in zip(xs, vs)])
    assert stack.tobytes() == points.tobytes()


@pytest.mark.parametrize("n", [1, 3])
def test_gauged_pairing_of_any_n_evaluates_the_gauge_only_where_it_is_not_the_identity(
        rng, monkeypatch, n):
    # as for n = 2, the gauge is evaluated only where it is not the identity, and
    # there each point has the per-node formula phi^H (d phi[v] + <A, v> phi)
    obs = ObservationSet(Minkowski(DIM), T=6.0, radius=1.0)
    a = random_connection(DIM, n, rng)
    phi = random_gauge(DIM, n, rng, observation=obs)
    b = gauge_act(a, phi)
    xs, vs, stack = _pairing_across_the_cutoff(monkeypatch, phi, b)
    for x, v, got in zip(xs, vs, from_coords(stack)):
        u = phi.value(x)
        dphi_v = np.einsum("i,ijk->jk", v, phi.differential(x))
        assert np.max(np.abs(got - adjoint(u) @ (dphi_v + a.pairing(x, v) @ u))) < 1e-12
