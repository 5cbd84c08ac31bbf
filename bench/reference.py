"""Computations made apart from the program, used only by the checks.

Fields are re-evaluated from their defining coefficients, transports are
integrated with scipy's DOP853, gauges are exponentiated with
scipy.linalg.expm, and conformal time on the warped product is a
Gauss-Legendre quadrature.  None of this calls lorentz_gauge code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


class TimeMap:
    """Conformal time tau(t) = int_0^t sqrt(beta(u)) du for beta(t) = c + a cos(k t).

    With a = 0 this is the identity map of Minkowski space.  On the
    time-only warped product -beta dt^2 + dx^2 the map (t, x) -> (tau, x)
    is an isometry onto a region of Minkowski space.
    """

    def __init__(self, constant=1.0, amp=0.0, freq=0.0):
        self.constant, self.amp, self.freq = constant, amp, freq

    def beta(self, t):
        return self.constant + self.amp * np.cos(self.freq * t)

    def sqrt_beta(self, t):
        return np.sqrt(self.beta(t))

    def tau(self, t):
        half = 0.5 * t
        return half * float(np.sum(_GL_WEIGHTS * self.sqrt_beta(half * (_GL_NODES + 1.0))))

    def tau_inverse(self, tau):
        t = tau / math.sqrt(self.constant)
        for _ in range(60):
            step = (self.tau(t) - tau) / float(self.sqrt_beta(t))
            t -= step
            if abs(step) < 1e-15 * max(1.0, abs(t)):
                break
        return t


def expansion_coefficients(scalar):
    """(constant, amplitudes, frequency rows, phases) of a scalar expansion."""
    waves = scalar.waves
    amps = np.array([a for a, _, _ in waves], float)
    freqs = np.array([k for _, k, _ in waves], float).reshape(len(waves), -1)
    phases = np.array([p for _, _, p in waves], float)
    return scalar.constant, amps, freqs, phases


class MatrixField:
    """sum_m f_m(x) X_m evaluated from the coefficients of a MatrixExpansion."""

    def __init__(self, expansion):
        self.terms = [(expansion_coefficients(f), np.array(x, complex))
                      for f, x in expansion.terms]
        self.n = expansion.n

    def __call__(self, x):
        out = np.zeros((self.n, self.n), complex)
        for (c, amps, freqs, phases), mat in self.terms:
            out += (c + float(np.sum(amps * np.cos(freqs @ x + phases)))) * mat
        return out


class ConnectionReference:
    """<A(x), v> = sum_i v^i A_i(x) from a connection's coefficients."""

    def __init__(self, connection):
        self.components = [MatrixField(c) for c in connection.comps]
        self.n = connection.n

    def pairing(self, x, v):
        return sum(vi * comp(x) for vi, comp in zip(v, self.components))


def smooth_step(u):
    def f(z):
        return math.exp(-1.0 / z) if z > 0 else 0.0

    return f(u) / (f(u) + f(1.0 - u))


def gauge_value(gauge, x):
    """phi(x) = expm(chi(x) Psi(x)) with chi the radial cutoff of the gauge."""
    cut = gauge.cutoff
    radius = float(np.linalg.norm(np.asarray(x[1:]) - cut.center))
    chi = smooth_step((radius - cut.r0) / cut.width)
    return expm(chi * MatrixField(gauge.generator)(np.asarray(x, float)))


def transport_ode(conn, x0, u, time_sign, s0, s1, time_map, rtol=1e-12, atol=1e-13):
    """U(s1) for dU/ds = -<A(gamma(s)), gamma'(s)> U, U(s0) = I.

    gamma(s) = (t(s), x0[1:] + s u) is the null geodesic through x0 at
    s = 0 with unit spatial velocity u; on the warped product its time
    obeys dt/ds = time_sign / sqrt(beta(t)), integrated here together
    with U.
    """
    n = conn.n
    u = np.asarray(u, float)
    x0 = np.asarray(x0, float)

    def rhs(s, state):
        t = state[0].real
        dt = time_sign / float(time_map.sqrt_beta(t))
        point = np.concatenate([[t], x0[1:] + s * u])
        gen = conn.pairing(point, np.concatenate([[dt], u]))
        mat = state[1:].reshape(n, n)
        return np.concatenate([[dt], (-gen @ mat).ravel()])

    # t(s0): the geodesic starts at x0 for s = 0, so move from there first
    t_start = time_map.tau_inverse(time_map.tau(x0[0]) + time_sign * s0)
    init = np.concatenate([[t_start], np.eye(n).ravel()]).astype(complex)
    sol = solve_ivp(rhs, (s0, s1), init, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference transport failed: {sol.message}")
    return sol.y[1:, -1].reshape(n, n)


def broken_reference(conn, q, u_in, u_out, time_map):
    """S = P_out P_in along the exact legs of a query with unit spatial velocities."""
    p_in = transport_ode(conn, q.y, u_in, -1.0, q.s_in, 0.0, time_map)
    p_out = transport_ode(conn, q.y, u_out, 1.0, 0.0, q.s_out, time_map)
    return p_in, p_out


def unitarity_residual(u):
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def normalize(vec):
    """Unit norm, largest-modulus entry rotated to the positive real axis."""
    vec = np.asarray(vec, complex)
    vec = vec / np.linalg.norm(vec)
    k = int(np.argmax(np.abs(vec)))
    return vec * (abs(vec[k]) / vec[k])
