"""Skew-Hermitian connection 1-forms and U(n) gauge fields.

A connection is represented by its components A_i(x), each a finite
trigonometric expansion with constant skew-Hermitian matrix coefficients
held as one real table over u_basis(n), so that pairings with tangent
vectors and all first derivatives are analytic and batched.

A gauge field is phi(x) = exp(chi(x) Psi(x)) with Psi a skew-Hermitian
matrix field and chi a smooth cutoff; phi is exactly unitary and its
differential comes from the Frechet derivative of the matrix
exponential.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, IntegrityError
from .expansions import ScalarExpansion
from .linalg import (
    adjoint,
    expm_frechet_skew,
    expm_skew,
    from_coords,
    hamilton,
    quat_exp,
    random_skew_hermitian,
    skew_residual,
    to_coords,
)


class MatrixExpansion:
    """Sum_m f_m(x) X_m with scalar expansions f_m and constant skew-Hermitian X_m.

    Each wave of each f_m (a nonzero constant as one of zero frequency) is
    a row: frequency k_w, phase p_w and amplitude times the coordinates of
    X_m in table[w]; the value's coordinates are cos(x . k_w + p_w) @ table.
    """

    def __init__(self, dim, n, terms):
        self.dim = int(dim)
        self.n = int(n)
        self.terms = []
        rows = []
        for f, xmat in terms:
            xmat = np.asarray(xmat, dtype=complex)
            if xmat.shape != (self.n, self.n):
                raise DomainError("coefficient matrix has wrong shape")
            # math.hypot: the Frobenius norm, without overflow in its squares
            if skew_residual(xmat) > 1e-12 * max(1.0, math.hypot(*np.abs(xmat).flat)):
                raise IntegrityError("coefficient matrix is not skew-Hermitian")
            self.terms.append((f, xmat))
            constant = [(f.constant, np.zeros(self.dim), 0.0)] if f.constant else []
            rows += [(a * to_coords(xmat), k, p) for a, k, p in constant + f.waves]
        self.table = np.array([r[0] for r in rows]).reshape(-1, self.n**2)
        self.freqs = np.array([r[1] for r in rows]).reshape(-1, self.dim)
        self.phases = np.array([r[2] for r in rows])

    def coords(self, x, v=None):
        """Coordinates of the value at x, and of its derivative along v if given."""
        arg = np.asarray(x, dtype=float) @ self.freqs.T
        arg += self.phases
        if v is None:
            return np.cos(arg, out=arg) @ self.table
        value = np.cos(arg) @ self.table
        vk = np.asarray(v, dtype=float) @ self.freqs.T  # broadcasts x in differential
        np.negative(np.sin(arg, out=arg), out=arg)
        return value, np.multiply(arg, vk, out=arg if vk.shape == arg.shape else None) @ self.table

    @classmethod
    def random(cls, dim, n, rng, amplitude=1.0, max_freq=2, n_waves=2):
        """Two random terms f_k(x) X_k, each X_k of scale amplitude / 2."""
        terms = []
        for _ in range(2):
            f = ScalarExpansion.random(dim, rng, n_waves=n_waves, amplitude=1.0, max_freq=max_freq)
            xmat = random_skew_hermitian(n, rng, scale=amplitude / 2)
            terms.append((f, xmat))
        return cls(dim, n, terms)


class ConnectionField:
    """u(n)-valued connection 1-form A with analytic components A_i."""

    def __init__(self, components):
        # components: list of MatrixExpansion, one per coordinate
        self.comps = list(components)
        self.dim = len(self.comps)
        self.n = self.comps[0].n
        for c in self.comps:
            if c.n != self.n or c.dim != self.dim:
                raise DomainError("inconsistent component dimensions")
        self.table = np.concatenate([c.table for c in self.comps])
        self.freqs = np.concatenate([c.freqs for c in self.comps])
        self.phases = np.concatenate([c.phases for c in self.comps])
        # the coordinate index i of each row, whose wave pairs with v^i
        self.axes = np.concatenate([np.full(len(c.phases), i) for i, c in enumerate(self.comps)])

    def pairing_coords(self, x, v):
        """Coordinates of <A(x), v> = sum_i v^i A_i(x) over u_basis(n)."""
        arg = np.asarray(x, dtype=float) @ self.freqs.T
        arg += self.phases
        np.cos(arg, out=arg)
        va = np.asarray(v, dtype=float)[..., self.axes]  # broadcasts x in components
        return np.multiply(arg, va, out=arg if va.shape == arg.shape else None) @ self.table

    def pairing(self, x, v):
        """<A(x), v>, a skew-Hermitian matrix; batched over leading axes."""
        return from_coords(self.pairing_coords(x, v))

    def components(self, x):
        """A_i(x), shape (..., dim, n, n)."""
        return self.pairing(np.asarray(x, dtype=float)[..., None, :], np.eye(self.dim))

    @classmethod
    def zero(cls, dim, n):
        return cls([MatrixExpansion(dim, n, []) for _ in range(dim)])


class SmoothStep:
    """C-infinity step S(u) = a / (a + b) of the terms a = f(u), b = f(1 - u), with
    f(u) = exp(-1/u) for u > 0 and 0 elsewhere: 0 for u <= 0, 1 for u >= 1."""

    @staticmethod
    def terms(u):
        ab = np.stack([u, 1.0 - np.asarray(u, dtype=float)])
        pos = ab > 0
        out = np.zeros_like(ab)
        out[pos] = np.exp(-1.0 / ab[pos])
        return out[0, ...], out[1, ...]

    @classmethod
    def value(cls, u):
        a, b = cls.terms(u)
        return a / (a + b)

    @staticmethod
    def derivative(u, a, b):
        # with f' = f / u^2 on (0, 1): S' = a b (1 / u^2 + 1 / (1 - u)^2) / (a + b)^2, which
        # vanishes outside (0, 1) and where a or b underflows to 0 (there 1 / u^2 or
        # 1 / (1 - u)^2 may overflow)
        inside = (a != 0) & (b != 0)
        w = np.where(inside, u, 0.5)
        return np.where(inside, a * b * (1.0 / w**2 + 1.0 / (1.0 - w) ** 2) / (a + b) ** 2, 0.0)


def _radius(d):
    """|d| over the last axis with the bits of np.linalg.norm(d, axis=-1), whose sum
    of squares is numpy's pairwise sum: a running sum of fewer than 8 terms, else a
    tree of the first 8 and a running sum of the rest (so up to 15 terms)."""
    sq = d * d
    if sq.shape[-1] < 8:
        total, rest = sq[..., 0], sq[..., 1:]
    else:
        pairs = sq[..., 0:8:2] + sq[..., 1:8:2]
        total, rest = (pairs[..., 0] + pairs[..., 1]) + (pairs[..., 2] + pairs[..., 3]), sq[..., 8:]
    for j in range(rest.shape[-1]):
        total = total + rest[..., j]
    return np.sqrt(total)


class RadialCutoff:
    """chi(x) = S((|x'| - r0) / width): vanishes for spatial radius <= r0.

    Depends on the spatial coordinates only, so it vanishes on the whole
    observation cylinder (0, T) x B(center, r0).
    """

    def __init__(self, dim, r0, width=1.0, center=None):
        self.dim = int(dim)
        self.r0 = float(r0)
        self.width = float(width)
        self.center = np.zeros(dim - 1) if center is None else np.asarray(center, dtype=float)

    def value(self, x):
        d = np.asarray(x, dtype=float)[..., 1:] - self.center
        return SmoothStep.value((_radius(d) - self.r0) / self.width)

    def value_and_grad(self, x):
        """chi(x) and its gradient from one radius, the smooth step where u > 0 and the
        gradient where chi != 0 only: elsewhere S and S' vanish together."""
        x = np.asarray(x, dtype=float)
        d = x[..., 1:] - self.center
        r = _radius(d)
        u = (r - self.r0) / self.width
        chi, grad = np.zeros(r.shape), np.zeros(x.shape)
        # the rows of the flattened points where u > 0, then those where exp(-1/u)
        # does not underflow, so that chi != 0
        live = np.flatnonzero(u > 0)
        u = u.ravel()[live]
        a, b = SmoothStep.terms(u)
        chi.ravel()[live] = a / (a + b)
        if not a.all():
            keep = a != 0
            live, u, a, b = live[keep], u[keep], a[keep], b[keep]
        d, r = np.take(d.reshape(-1, d.shape[-1]), live, 0), np.take(r.ravel(), live)[:, None]
        big = r > 1e-12
        out = d / r if big.all() else np.divide(d, r, out=np.zeros(d.shape), where=big)
        out *= (SmoothStep.derivative(u, a, b) / self.width)[:, None]
        grad.reshape(-1, x.shape[-1])[live, 1:] = out
        return chi, grad


class GaugeField:
    """U(n)-valued field phi(x) = exp(chi(x) Psi(x))."""

    def __init__(self, generator, cutoff=None):
        self.generator = generator
        # a radial cutoff of radius -inf is 1 everywhere: the gauge has full support
        self.cutoff = cutoff if cutoff is not None else RadialCutoff(generator.dim, -np.inf)
        self.dim = generator.dim
        self.n = generator.n

    def log(self, x, v=None, cutoff=None):
        """Coordinates of chi Psi at x, and of its derivative along v if given (with cutoff,
        chi and its gradient at x)."""
        x = np.asarray(x, dtype=float)
        if v is None:
            return self.cutoff.value(x)[..., None] * self.generator.coords(x)
        v = np.asarray(v, dtype=float)
        chi, grad = self.cutoff.value_and_grad(x) if cutoff is None else cutoff
        psi, dpsi_v = self.generator.coords(x, v)
        dchi_v = np.einsum("...i,...i->...", v, grad)[..., None]
        return chi[..., None] * psi, chi[..., None] * dpsi_v + dchi_v * psi

    def value(self, x):
        """phi(x), exactly unitary; batched over leading axes."""
        return expm_skew(from_coords(self.log(x)))

    def differential(self, x):
        """d_k phi (x), shape (..., dim, n, n): the derivatives along the coordinate axes."""
        log, dlog = self.log(np.asarray(x, dtype=float)[..., None, :], np.eye(self.dim))
        return expm_frechet_skew(from_coords(log), from_coords(dlog))[1]

    def inverse(self):
        neg = [(f, -xmat) for f, xmat in self.generator.terms]
        return GaugeField(MatrixExpansion(self.dim, self.n, neg), self.cutoff)

    @classmethod
    def identity(cls, dim, n):
        return cls(MatrixExpansion(dim, n, []))

    @classmethod
    def random(cls, dim, n, rng, cutoff=None, amplitude=1.0):
        return cls(MatrixExpansion.random(dim, n, rng, amplitude=amplitude), cutoff)


class GaugedConnection:
    """The gauge transform A <| phi = phi^{-1} d phi + phi^{-1} A phi.

    Exposes the same pairing interface as ConnectionField, so transport
    routines work on either.
    """

    def __init__(self, base, phi):
        if base.dim != phi.dim or base.n != phi.n:
            raise DomainError("connection and gauge dimensions differ")
        self.base = base
        self.phi = phi
        self.dim = base.dim
        self.n = base.n

    def pairing_coords(self, x, v):
        """Coordinates of <A <| phi, v>: gauge_coords of A's at x, v."""
        return self.gauge_coords(x, v, self.base.pairing_coords(x, v))

    def gauge_coords(self, x, v, a):
        """Coordinates of <A <| phi, v> = phi^H (d phi[v] + <A, v> phi) from a, those of <A, v>.

        Where the cutoff chi is exactly 0, phi = I and d phi = 0 (the smooth
        step and its derivative vanish together, also where exp(-1/u)
        underflows), so there it keeps a (a itself where chi is 0 at every
        point) and evaluates the gauge, with chi and its gradient from one
        value_and_grad, at the other points only, gathered and scattered by index.
        """
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        chi, grad = self.phi.cutoff.value_and_grad(x)
        live = chi != 0
        if live.all():
            return self._gauged(x, v, a, (chi, grad))
        if not live.any():
            return a
        shape = a.shape[:-1]
        live = np.flatnonzero(np.broadcast_to(live, shape))
        x, v, grad, a_live, chi = (
            np.take(np.broadcast_to(y, shape + y.shape[-1:]).reshape(-1, y.shape[-1]), live, 0)
            for y in (x, v, grad, a, chi[..., None]))
        out = a.copy()
        out.reshape(-1, a.shape[-1])[live] = self._gauged(x, v, a_live, (chi[:, 0], grad))
        return out

    def _gauged(self, x, v, a, cutoff):
        """The gauged coordinates at x, v, where <A, v> has coordinates a.

        For n = 2, with phi = e^{i a} q and <A, v> = i c I + b . e, that is
        the phase da[v] + c and the quaternion q^-1 dq[v] + q^-1 (b . e) q.
        """
        log, dlog_v = self.phi.log(x, v, cutoff)
        if self.n != 2:
            u, dphi_v = expm_frechet_skew(from_coords(log), from_coords(dlog_v))
            return to_coords(adjoint(u) @ (dphi_v + from_coords(a) @ u))
        q, dq = quat_exp(log[..., 1:], dlog_v[..., 1:])
        # q * (1, -1, -1, -1) is q^-1; a * (0, 1, 1, 1) is b . e as a pure quaternion
        rot = hamilton(q * [1, -1, -1, -1], dq + hamilton(a * [0, 1, 1, 1], q))
        rot[..., 0] = dlog_v[..., 0] + a[..., 0]
        return rot

    pairing = ConnectionField.pairing
    components = ConnectionField.components


def gauge_act(connection, phi):
    """A <| phi as a new connection-like object."""
    return GaugedConnection(connection, phi)


def random_connection(dim, n, rng, amplitude=1.0, max_freq=2, n_waves=2):
    """Random band-limited skew-Hermitian connection 1-form."""
    comps = [MatrixExpansion.random(dim, n, rng, amplitude=amplitude, max_freq=max_freq,
                                    n_waves=n_waves) for _ in range(dim)]
    return ConnectionField(comps)


def random_gauge(dim, n, rng, observation=None, amplitude=1.0, width=1.0):
    """Random gauge field, equal to the identity on the observation set if given."""
    cutoff = None
    if observation is not None:
        cutoff = RadialCutoff(dim, observation.radius, width=width, center=observation.center)
    return GaugeField.random(dim, n, rng, cutoff=cutoff, amplitude=amplitude)
