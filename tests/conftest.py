import cmath
import random

import pytest

from ellid.elliptic import FullEllipticCtx


class Draws:
    """Seeded draws matching the harness's default sampling boxes."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)

    def box(self, lo=0.05):
        while True:
            z = complex(self.rng.uniform(-1, 1), self.rng.uniform(-1, 1))
            if abs(z) >= lo:
                return z

    def q(self, rmin=0.3, rmax=0.9):
        mod = self.rng.uniform(rmin, rmax)
        ang = self.rng.uniform(-cmath.pi, cmath.pi)
        return mod * cmath.exp(1j * ang)

    def p(self, radius=0.5):
        while True:
            z = complex(self.rng.uniform(-radius, radius),
                        self.rng.uniform(-radius, radius))
            if abs(z) <= radius:
                return z

    def params(self, p_radius=0.5):
        return FullEllipticCtx(self.box(0.1), self.box(0.1), self.q(), self.p(p_radius))


@pytest.fixture
def draws():
    return Draws(20240811)
