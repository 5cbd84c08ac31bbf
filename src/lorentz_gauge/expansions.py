"""Truncated trigonometric expansions used as smooth scalar coefficient fields.

A field is  f(x) = c + sum_m  a_m cos(k_m . x + p_m)  with finitely many
waves, so values and gradients are analytic and cheap to evaluate in
batch.
"""

from __future__ import annotations

import numpy as np


class ScalarExpansion:
    """Finite trigonometric expansion with analytic gradient."""

    def __init__(self, dim, constant=0.0, waves=()):
        self.dim = int(dim)
        self.constant = float(constant)
        # waves: sequence of (amplitude, frequency vector, phase)
        self.waves = [(float(a), np.asarray(k, dtype=float), float(p)) for a, k, p in waves]
        for _, k, _ in self.waves:
            if k.shape != (self.dim,):
                raise ValueError("frequency vector has wrong dimension")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape[:-1], self.constant)
        for a, k, p in self.waves:
            out = out + a * np.cos(x @ k + p)
        return out

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim,))
        for a, k, p in self.waves:
            out = out - (a * np.sin(x @ k + p))[..., None] * k
        return out

    def to_json(self):
        return {
            "dim": self.dim,
            "constant": self.constant,
            "waves": [{"amp": a, "freq": list(k), "phase": p} for a, k, p in self.waves],
        }

    @classmethod
    def from_json(cls, obj):
        waves = [(w["amp"], w["freq"], w["phase"]) for w in obj.get("waves", [])]
        return cls(obj["dim"], obj.get("constant", 0.0), waves)

    @classmethod
    def random(cls, dim, rng, n_waves=3, amplitude=1.0, max_freq=2, constant=0.0):
        """Random band-limited field; amplitudes decay with wave index."""
        waves = []
        for m in range(n_waves):
            k = rng.integers(-max_freq, max_freq + 1, size=dim).astype(float)
            if not np.any(k):
                k[rng.integers(dim)] = 1.0
            # mild decay keeps higher waves subdominant
            waves.append((amplitude / (1 + m), k * 0.5, rng.uniform(0, 2 * np.pi)))
        return cls(dim, constant, waves)
