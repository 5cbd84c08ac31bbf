"""Skew-Hermitian connection 1-forms and U(n) gauge fields.

A connection is represented by its components A_i(x), each a finite
trigonometric expansion with constant skew-Hermitian matrix
coefficients, so that values, pairings with tangent vectors and all
first derivatives are analytic and batch-evaluable.

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
    random_skew_hermitian,
    skew_residual,
)


class MatrixExpansion:
    """Sum_m f_m(x) X_m with scalar expansions f_m and constant skew-Hermitian X_m."""

    def __init__(self, dim, n, terms):
        self.dim = int(dim)
        self.n = int(n)
        self.terms = []
        for f, xmat in terms:
            xmat = np.asarray(xmat, dtype=complex)
            if xmat.shape != (self.n, self.n):
                raise DomainError("coefficient matrix has wrong shape")
            if skew_residual(xmat) > 1e-12 * max(1.0, np.linalg.norm(xmat)):
                raise IntegrityError("coefficient matrix is not skew-Hermitian")
            self.terms.append((f, xmat))

    def value(self, x):
        """Matrix value at x; batched over leading axes of x."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.n, self.n), dtype=complex)
        for f, xmat in self.terms:
            out += f.value(x)[..., None, None] * xmat
        return out

    def grad(self, x):
        """Partial derivatives, shape (..., dim, n, n)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim, self.n, self.n), dtype=complex)
        for f, xmat in self.terms:
            out += f.grad(x)[..., :, None, None] * xmat
        return out

    @classmethod
    def random(cls, dim, n, rng, n_terms=2, amplitude=1.0, max_freq=2, n_waves=2):
        terms = []
        for _ in range(n_terms):
            f = ScalarExpansion.random(dim, rng, n_waves=n_waves, amplitude=1.0, max_freq=max_freq)
            xmat = random_skew_hermitian(n, rng, scale=amplitude / n_terms)
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

    def components(self, x):
        """A_i(x), shape (..., dim, n, n)."""
        x = np.asarray(x, dtype=float)
        return np.stack([c.value(x) for c in self.comps], axis=-3)

    def pairing(self, x, v):
        """<A(x), v> = sum_i v^i A_i(x), a skew-Hermitian matrix; batched over leading axes."""
        comps = self.components(x)
        v = np.asarray(v, dtype=float)
        return np.einsum("...i,...ijk->...jk", v, comps)

    def derivatives(self, x):
        """d_k A_i (x), shape (..., dim_k, dim_i, n, n)."""
        x = np.asarray(x, dtype=float)
        # stacking the per-component gradients along axis -3 puts the
        # derivative index k first and the component index i second
        return np.stack([c.grad(x) for c in self.comps], axis=-3)

    @classmethod
    def random(cls, dim, n, rng, amplitude=1.0, max_freq=2, n_waves=2):
        return cls(
            [
                MatrixExpansion.random(
                    dim, n, rng, amplitude=amplitude, max_freq=max_freq, n_waves=n_waves
                )
                for _ in range(dim)
            ]
        )

    @classmethod
    def zero(cls, dim, n):
        zero_f = ScalarExpansion(dim, constant=0.0)
        zmat = np.zeros((n, n), dtype=complex)
        return cls([MatrixExpansion(dim, n, [(zero_f, zmat)]) for _ in range(dim)])


class SmoothStep:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1."""

    @staticmethod
    def _f(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    @classmethod
    def value(cls, u):
        u = np.asarray(u, dtype=float)
        a = cls._f(u)
        b = cls._f(1.0 - u)
        return a / (a + b)

    @classmethod
    def derivative(cls, u):
        u = np.asarray(u, dtype=float)
        a = cls._f(u)
        b = cls._f(1.0 - u)
        da = np.zeros_like(u)
        db = np.zeros_like(u)
        inside = (u > 0) & (u < 1)
        da[inside] = a[inside] / u[inside] ** 2
        db[inside] = -b[inside] / (1.0 - u[inside]) ** 2
        denom = (a + b) ** 2
        out = np.zeros_like(u)
        out[inside] = (da[inside] * b[inside] - a[inside] * db[inside]) / denom[inside]
        return out


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

    def _radius(self, x):
        return np.linalg.norm(x[..., 1:] - self.center, axis=-1)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return SmoothStep.value((self._radius(x) - self.r0) / self.width)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        r = self._radius(x)
        du = SmoothStep.derivative((r - self.r0) / self.width) / self.width
        out = np.zeros(x.shape)
        safe = r > 1e-12
        direction = np.zeros(x[..., 1:].shape)
        direction[safe] = (x[..., 1:][safe] - self.center) / r[safe][..., None]
        out[..., 1:] = du[..., None] * direction
        return out


class UnitCutoff:
    """chi identically 1 (gauge supported everywhere)."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape)


class GaugeField:
    """U(n)-valued field phi(x) = exp(chi(x) Psi(x))."""

    def __init__(self, generator, cutoff=None):
        self.generator = generator
        self.cutoff = cutoff if cutoff is not None else UnitCutoff()
        self.dim = generator.dim
        self.n = generator.n

    def log(self, x):
        """The skew-Hermitian exponent chi(x) Psi(x)."""
        x = np.asarray(x, dtype=float)
        return np.asarray(self.cutoff.value(x))[..., None, None] * self.generator.value(x)

    def value(self, x):
        """phi(x), exactly unitary; batched over leading axes."""
        return expm_skew(self.log(x))

    def inverse_value(self, x):
        return adjoint(self.value(x))

    def value_and_derivative(self, x, v):
        """phi(x) and its derivative d phi(x)[v] along v, from one decomposition.

        Batched over matching leading axes of x and v.
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        chi = np.asarray(self.cutoff.value(x))[..., None, None]
        dchi_v = np.einsum("...i,...i->...", v, self.cutoff.grad(x))[..., None, None]
        psi = self.generator.value(x)
        dpsi_v = np.einsum("...i,...ijk->...jk", v, self.generator.grad(x))
        return expm_frechet_skew(chi * psi, chi * dpsi_v + dchi_v * psi)

    def differential(self, x):
        """d_k phi (x), shape (..., dim, n, n): the derivatives along the coordinate axes."""
        x = np.asarray(x, dtype=float)
        return self.value_and_derivative(x[..., None, :], np.eye(self.dim))[1]

    def inverse(self):
        neg = MatrixExpansion(
            self.generator.dim,
            self.generator.n,
            [(f, -xmat) for f, xmat in self.generator.terms],
        )
        return GaugeField(neg, self.cutoff)

    @classmethod
    def identity(cls, dim, n):
        zero_f = ScalarExpansion(dim, constant=0.0)
        gen = MatrixExpansion(dim, n, [(zero_f, np.zeros((n, n), dtype=complex))])
        return cls(gen)

    @classmethod
    def random(cls, dim, n, rng, cutoff=None, amplitude=1.0, max_freq=2, n_waves=2):
        gen = MatrixExpansion.random(
            dim, n, rng, amplitude=amplitude, max_freq=max_freq, n_waves=n_waves
        )
        return cls(gen, cutoff)


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

    def pairing(self, x, v):
        """<A <| phi, v> = phi^H (d phi[v] + <A, v> phi)."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        u, dphi_v = self.phi.value_and_derivative(x, v)
        return adjoint(u) @ (dphi_v + self.base.pairing(x, v) @ u)

    def components(self, x):
        x = np.asarray(x, dtype=float)
        u = self.phi.value(x)[..., None, :, :]
        dphi = self.phi.differential(x)
        return adjoint(u) @ (dphi + self.base.components(x) @ u)


def gauge_act(connection, phi):
    """A <| phi as a new connection-like object."""
    return GaugedConnection(connection, phi)


def random_connection(dim, n, rng, amplitude=1.0, max_freq=2, n_waves=2):
    """Random band-limited skew-Hermitian connection 1-form."""
    return ConnectionField.random(dim, n, rng, amplitude=amplitude, max_freq=max_freq, n_waves=n_waves)


def random_gauge(dim, n, rng, observation=None, amplitude=1.0, width=1.0, max_freq=2, n_waves=2):
    """Random gauge field, equal to the identity on the observation set if given."""
    cutoff = None
    if observation is not None:
        cutoff = RadialCutoff(dim, observation.radius, width=width, center=observation.center)
    return GaugeField.random(
        dim, n, rng, cutoff=cutoff, amplitude=amplitude, max_freq=max_freq, n_waves=n_waves
    )
