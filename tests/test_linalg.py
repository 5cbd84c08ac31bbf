import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from lorentz_gauge.linalg import (
    dexpm_skew,
    expm_frechet_skew,
    expm_skew,
    normalize_phase_scale,
    polar_project,
    random_skew_hermitian,
    skew_residual,
    unitarity_residual,
)


def test_expm_skew_matches_scipy(rng):
    for n in (1, 2, 3, 5):
        for _ in range(20):
            x = random_skew_hermitian(n, rng)
            assert np.allclose(expm_skew(x), expm(x), atol=1e-12)


def test_expm_skew_unitary(rng):
    xs = np.stack([random_skew_hermitian(4, rng, scale=3.0) for _ in range(50)])
    us = expm_skew(xs)
    assert unitarity_residual(us) < 1e-10 * np.sqrt(50)


def test_expm_skew_batched_consistent(rng):
    xs = np.stack([random_skew_hermitian(3, rng) for _ in range(7)])
    us = expm_skew(xs)
    for i in range(7):
        assert np.allclose(us[i], expm_skew(xs[i]))


@pytest.mark.parametrize("theta", [0.0, 1e-8, 0.99e-4, 1.01e-4, 4.0])
def test_u2_closed_forms(rng, theta):
    # X = i a I + Y with traceless skew-Hermitian Y = i theta (n . sigma),
    # so det Y = theta^2; theta = 0 is the pure phase i a I, and 1e-4 is
    # where the derivative switches r(theta) to its limit 1/3
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    axes = rng.standard_normal((3, 4, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    y = 1j * theta * np.einsum("...k,kij->...ij", axes, pauli)
    xs = 1j * rng.uniform(-3, 3, (3, 4))[..., None, None] * np.eye(2) + y
    es = np.stack([[random_skew_hermitian(2, rng) for _ in range(4)] for _ in range(3)])
    us = expm_skew(xs)
    u2, ds = expm_frechet_skew(xs, es)
    assert us.shape == ds.shape == (3, 4, 2, 2)
    for idx in np.ndindex(3, 4):
        ref_u, ref_d = expm_frechet(xs[idx], es[idx])
        assert np.max(np.abs(us[idx] - ref_u)) < 1e-14
        assert np.max(np.abs(u2[idx] - ref_u)) < 1e-14
        assert np.max(np.abs(ds[idx] - ref_d)) < 1e-13
    assert unitarity_residual(us) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expm_frechet_skew_broadcast(rng, n):
    # one X per point against several directions, as GaugeField.differential uses it
    xs = np.stack([random_skew_hermitian(n, rng) for _ in range(5)])
    es = np.stack([[random_skew_hermitian(n, rng) for _ in range(3)] for _ in range(5)])
    u, d = expm_frechet_skew(xs[:, None], es)
    assert d.shape == (5, 3, n, n)
    for i, j in np.ndindex(5, 3):
        ref_u, ref_d = expm_frechet(xs[i], es[i, j])
        assert np.max(np.abs(u[i, 0] - ref_u)) < 1e-13
        assert np.max(np.abs(d[i, j] - ref_d)) < 1e-13


def test_dexpm_skew_against_finite_difference(rng):
    for n in (2, 4):
        x = random_skew_hermitian(n, rng)
        e = random_skew_hermitian(n, rng)
        h = 1e-6
        fd = (expm(x + h * e) - expm(x - h * e)) / (2 * h)
        assert np.linalg.norm(dexpm_skew(x, e) - fd) < 1e-8


def test_dexpm_skew_degenerate_eigenvalues(rng):
    # repeated eigenvalues exercise the diagonal limit of the divided
    # differences
    x = 1j * np.diag([0.5, 0.5, -0.3])
    e = random_skew_hermitian(3, rng)
    h = 1e-6
    fd = (expm(x + h * e) - expm(x - h * e)) / (2 * h)
    assert np.linalg.norm(dexpm_skew(x, e) - fd) < 1e-8


def test_polar_project(rng):
    u = expm(random_skew_hermitian(4, rng))
    drifted = u + 1e-8 * rng.standard_normal((4, 4))
    fixed = polar_project(drifted)
    assert unitarity_residual(fixed) < 1e-13
    # far from unitary: SVD branch
    far = 2.0 * u + 0.3 * rng.standard_normal((4, 4))
    assert unitarity_residual(polar_project(far)) < 1e-12


def test_skew_residual(rng):
    x = random_skew_hermitian(5, rng)
    assert skew_residual(x) < 1e-14
    assert skew_residual(x + 0.1 * np.eye(5)) > 0.01


def test_normalize_phase_scale(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for scale in (0.1, 3.0):
        for phase in (0.0, 1.2, -2.0):
            w = normalize_phase_scale(scale * np.exp(1j * phase) * v)
            assert np.allclose(w, normalize_phase_scale(v), atol=1e-13)
    assert np.linalg.norm(normalize_phase_scale(v)) == 1.0 or np.isclose(
        np.linalg.norm(normalize_phase_scale(v)), 1.0
    )
