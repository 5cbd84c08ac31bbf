"""Small dense linear-algebra helpers for U(n)-valued computations.

Everything here works on single matrices or on stacks with shape
(..., n, n); complex dtype throughout.
"""

from __future__ import annotations

import numpy as np


def adjoint(x):
    """Conjugate transpose over the last two axes."""
    return np.conj(np.swapaxes(x, -1, -2))


def skew_residual(x):
    """Frobenius norm of X + X^H (zero for skew-Hermitian X)."""
    return np.linalg.norm(x + adjoint(x))


def unitarity_residual(u):
    """Frobenius norm of U^H U - I."""
    n = u.shape[-1]
    return np.linalg.norm(adjoint(u) @ u - np.eye(n))


def random_skew_hermitian(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g - g.conj().T)


def _u2_split(x):
    """X = m I + Y for stacked 2x2 X: m = tr X / 2, traceless Y and theta = sqrt(det Y).

    For skew-Hermitian X, Y is traceless skew-Hermitian, so Y^2 = -theta^2 I.
    """
    m = 0.5 * (x[..., 0, 0] + x[..., 1, 1])
    y = x - m[..., None, None] * np.eye(2)
    det = y[..., 0, 0] * y[..., 1, 1] - y[..., 0, 1] * y[..., 1, 0]
    return m, y, np.sqrt(np.maximum(det.real, 0.0))


def expm_skew(x):
    """Exponential of a (stack of) skew-Hermitian matrices.

    n = 2 uses the closed form e^X = e^m (cos(theta) I + sinc(theta) Y)
    of _u2_split; larger n uses the eigendecomposition of the Hermitian
    matrix X / i. Both results are unitary to machine precision.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    if n == 1:
        return np.exp(x)
    if n == 2:
        m, y, theta = _u2_split(x)
        cos = np.cos(theta)[..., None, None] * np.eye(2)
        return np.exp(m)[..., None, None] * (cos + np.sinc(theta / np.pi)[..., None, None] * y)
    lam, v = np.linalg.eigh(x / 1j)
    return (v * np.exp(1j * lam)[..., None, :]) @ adjoint(v)


def expm_frechet_skew(x, e):
    """expm(X) and its Frechet derivative at skew-Hermitian X in direction E.

    Both come from one decomposition of X. For n = 2 it is X = m I + Y
    of _u2_split: with E = e0 I + F (F traceless) and
    t = tr(Y F) / 2, differentiating e^m (cos(theta) I + sinc(theta) Y)
    gives d expm(X)[E] = e0 expm(X)
    + e^m (t sinc(theta) I + t r(theta) Y + sinc(theta) F), where
    r(theta) = (sin(theta) - theta cos(theta)) / theta^3. Larger n uses
    the eigendecomposition of H = X / i and the Daleckii-Krein formula
    d expm(X)[E] = V (G . (V^H E V)) V^H with
    G_kl = (e^{i l_k} - e^{i l_l}) / (i l_k - i l_l).

    Supports stacked input whose leading dimensions broadcast.
    """
    x = np.asarray(x, dtype=complex)
    e = np.asarray(e, dtype=complex)
    n = x.shape[-1]
    if n == 1:
        u = np.exp(x)
        return u, u * e
    if n == 2:
        m, y, theta = _u2_split(x)
        sinc = np.sinc(theta / np.pi)
        # r enters the result times t Y = O(theta^2 |E|), so the
        # cancellation in its quotient costs no absolute accuracy; below
        # theta = 1e-4 its limit 1/3 is off by theta^2 / 30, which the
        # result sees as under 1e-17 |E|, and avoids 0 / 0
        small = theta < 1e-4
        ts = np.where(small, 1.0, theta)
        r = np.where(small, 1.0 / 3.0, (np.sin(ts) - ts * np.cos(ts)) / ts**3)
        em = np.exp(m)[..., None, None]
        u = em * (np.cos(theta)[..., None, None] * np.eye(2) + sinc[..., None, None] * y)
        e0 = 0.5 * (e[..., 0, 0] + e[..., 1, 1])
        f = e - e0[..., None, None] * np.eye(2)
        t = 0.5 * np.einsum("...ij,...ji->...", y, f)
        d = e0[..., None, None] * u + em * ((t * sinc)[..., None, None] * np.eye(2)
                                            + (t * r)[..., None, None] * y
                                            + sinc[..., None, None] * f)
        return u, d
    lam, v = np.linalg.eigh(x / 1j)
    vh = adjoint(v)
    il = 1j * lam
    diff = il[..., :, None] - il[..., None, :]
    expl = np.exp(il)
    num = expl[..., :, None] - expl[..., None, :]
    # Divided-difference matrix; the diagonal limit is e^{i l_k}.
    near = np.abs(diff) < 1e-12
    g = np.where(near, expl[..., :, None] * np.ones_like(num), num / np.where(near, 1.0, diff))
    return (v * expl[..., None, :]) @ vh, v @ (g * (vh @ e @ v)) @ vh


def dexpm_skew(x, e):
    """Frechet derivative of expm at skew-Hermitian X in direction E (see expm_frechet_skew)."""
    return expm_frechet_skew(x, e)[1]


def polar_project(u):
    """Nearest unitary matrix (polar factor) via one Newton step or SVD.

    For inputs already unitary to ~1e-6 a single Newton iteration
    U <- U (3I - U^H U) / 2 is accurate to machine precision and much
    cheaper than an SVD; fall back to SVD otherwise.
    """
    n = u.shape[-1]
    gram = adjoint(u) @ u
    drift = np.linalg.norm(gram - np.eye(n))
    if drift < 1e-6:
        return u @ (1.5 * np.eye(n) - 0.5 * gram)
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def normalize_phase_scale(vec, tol=1e-14):
    """Scale to unit norm and rotate so the largest-modulus entry is positive-real.

    Removes the unknown positive-modulus scalar and its phase before
    comparing measurement vectors.
    """
    vec = np.asarray(vec, dtype=complex)
    nrm = np.linalg.norm(vec)
    if nrm < tol:
        return vec * 0.0
    v = vec / nrm
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return v / phase
