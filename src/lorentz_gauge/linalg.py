"""Small dense linear-algebra helpers for U(n)-valued computations.

Matrices are single or stacked with shape (..., n, n), complex dtype. An
element of u(n) also has n*n real coordinates over u_basis(n); for n = 2,
X = i a I + b . e with the quaternion units e_k = -i sigma_k, and U(2)
holds e^{i alpha} q, q a unit quaternion (Iserles, Munthe-Kaas, Norsett &
Zanna, "Lie-group methods", Acta Numerica 2000).
"""

from __future__ import annotations

import math

import numpy as np

_U2_BASIS = np.array([[[1j, 0], [0, 1j]], [[0, -1j], [-1j, 0]],
                      [[0, -1], [1, 0]], [[-1j, 0], [0, 1j]]])


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


def u_basis(n):
    """A basis of u(n), shape (n*n, n, n), orthogonal under Re tr(X^H Y).

    For n <= 2 the phase iI and the quaternion units; otherwise E_kl - E_lk
    for k < l and i (E_kl + E_lk) for k >= l.
    """
    if n <= 2:
        return _U2_BASIS[: n * n, :n, :n]
    e = np.eye(n * n).reshape(-1, n, n)
    upper = (np.arange(n * n) // n < np.arange(n * n) % n)[:, None, None]
    return np.where(upper, e - e.swapaxes(1, 2), 1j * (e + e.swapaxes(1, 2)))


def to_coords(x):
    """Real coordinates over u_basis(n) of (stacked) skew-Hermitian X, shape (..., n*n)."""
    b = u_basis(np.shape(x)[-1]).conj()
    return np.einsum("kij,...ij->...k", b, x).real / np.einsum("kij,kij->k", b, b.conj()).real


def from_coords(c):
    """The skew-Hermitian matrices whose coordinates over u_basis(n) are c."""
    return np.tensordot(c, u_basis(math.isqrt(np.shape(c)[-1])), axes=1)


def quat_exp(b, db=None):
    """e^{b . e} = (cos theta, sinc theta b), theta = |b|, and its derivative along db if given.

    With t = b . db and r = (sin theta - theta cos theta) / theta^3 it is
    (-sinc theta t, sinc theta db - r t b). Below theta = 1e-4, r's limit
    1/3 and sinc's 1 - theta^2 / 6 avoid 0 / 0, off by under 1e-17 |db|.
    """
    theta = np.sqrt(np.einsum("...k,...k->...", b, b))[..., None]
    sin, cos = np.sin(theta), np.cos(theta)
    small = theta < 1e-4
    ts = np.where(small, 1.0, theta)
    sinc = np.where(small, 1.0 - theta**2 / 6.0, sin / ts)
    q = np.concatenate([cos, sinc * b], -1)
    if db is None:
        return q
    r = np.where(small, 1.0 / 3.0, (sin - ts * cos) / ts**3)
    t = np.einsum("...k,...k->...", b, db)[..., None]
    return q, np.concatenate([-sinc * t, sinc * db - r * t * b], -1)


def hamilton(p, q):
    """The quaternion product p q over the last axis, component by component."""
    p0, p1, p2, p3 = (p[..., k] for k in range(4))
    q0, q1, q2, q3 = (q[..., k] for k in range(4))
    return np.stack([p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
                     p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
                     p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
                     p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0], -1)


def u2_matrix(alpha, q):
    """e^{i alpha} (q_0 I + q . e) as matrices, linear in q (q_0 I = -i q_0 iI); n = 1 drops e."""
    mult = np.array([-1j, 1, 1, 1])[: q.shape[-1]]
    return np.exp(1j * np.asarray(alpha))[..., None, None] * from_coords(q * mult)


def expm_skew(x):
    """Exponential of a (stack of) skew-Hermitian matrices.

    n <= 2 works in coordinates, e^{i a I + b . e} = e^{i a} e^{b . e}
    with quat_exp; larger n uses the eigendecomposition of the Hermitian
    matrix X / i. Both results are unitary to machine precision.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[-1] <= 2:
        c = to_coords(x)
        return u2_matrix(c[..., 0], quat_exp(c[..., 1:]))
    lam, v = np.linalg.eigh(x / 1j)
    return (v * np.exp(1j * lam)[..., None, :]) @ adjoint(v)


def expm_frechet_skew(x, e):
    """expm(X) and its Frechet derivative at skew-Hermitian X in direction E.

    Both come from one decomposition of X. For n <= 2 it is the coordinates
    X = i a I + b . e: for E = i a' I + b' . e, d expm(X)[E] = i a' expm(X)
    + e^{i a} de^{b . e}[b'] of quat_exp. Larger n uses the eigendecomposition
    of H = X / i and the Daleckii-Krein formula d expm(X)[E] = V (G . (V^H E V)) V^H
    with G_kl = (e^{i l_k} - e^{i l_l}) / (i l_k - i l_l). Leading dimensions broadcast.
    """
    x = np.asarray(x, dtype=complex)
    e = np.asarray(e, dtype=complex)
    if x.shape[-1] <= 2:
        c, dc = to_coords(x), to_coords(e)
        q, dq = quat_exp(c[..., 1:], dc[..., 1:])
        u = u2_matrix(c[..., 0], q)
        return u, 1j * dc[..., 0, None, None] * u + u2_matrix(c[..., 0], dq)
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


def normalize_phase_scale(vec):
    """Scale to unit norm and rotate so the largest-modulus entry is positive-real.

    Removes the unknown positive-modulus scalar and its phase before
    comparing measurement vectors.
    """
    vec = np.asarray(vec, dtype=complex)
    nrm = np.linalg.norm(vec)
    if nrm < 1e-14:
        return vec * 0.0
    v = vec / nrm
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return v / phase
