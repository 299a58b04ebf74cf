"""Bicomplex number arithmetic.

The bicomplex ring extends the complex numbers with a second commuting
imaginary unit: ``i**2 == j**2 == -1`` and ``k = i*j`` with ``k**2 == +1``.
A number is stored by its four real components

    z = z0 + j*z1 + i*z2 + k*z3

where ``i`` plays the role of the physical imaginary unit and ``j`` carries
the analytic continuation of quantities that were real before continuation.

The idempotent decomposition ``z = plus * E_PLUS + minus * E_MINUS`` with
``E_PLUS = (1+k)/2`` and ``E_MINUS = (1-k)/2`` is provided, in which
multiplication and division act component-wise on ordinary complex numbers
(unit ``i``).

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass


class ZeroDivisor(ZeroDivisionError):
    """Raised when dividing by a bicomplex zero divisor.

    A nonzero bicomplex number is not invertible when either of its
    idempotent components vanishes exactly.  Callers treating near-singular
    divisions must guard with their own tolerances; this layer only rejects
    exact zeros.
    """


@dataclass(frozen=True, slots=True)
class IdempotentPair:
    """Coefficients (plus, minus) of a bicomplex number in the idempotent basis.

    Both coefficients are ordinary complex numbers in the unit ``i``.
    """

    plus: complex
    minus: complex

    def to_bicomplex(self) -> "Bicomplex":
        p, m = complex(self.plus), complex(self.minus)
        return Bicomplex(
            0.5 * (p.real + m.real),
            0.5 * (m.imag - p.imag),
            0.5 * (p.imag + m.imag),
            0.5 * (p.real - m.real),
        )


@dataclass(frozen=True, slots=True)
class Bicomplex:
    """A bicomplex number by its four real components (1, j, i, k)."""

    z0: float = 0.0
    z1: float = 0.0
    z2: float = 0.0
    z3: float = 0.0

    # -- conversions ---------------------------------------------------

    @staticmethod
    def from_complex(c: complex) -> "Bicomplex":
        """Embed an ordinary complex number (unit i)."""
        c = complex(c)
        return Bicomplex(c.real, 0.0, c.imag, 0.0)

    @staticmethod
    def from_idempotent(plus: complex, minus: complex) -> "Bicomplex":
        return IdempotentPair(plus, minus).to_bicomplex()

    def to_idempotent(self) -> IdempotentPair:
        return IdempotentPair(
            complex(self.z0 + self.z3, self.z2 - self.z1),
            complex(self.z0 - self.z3, self.z2 + self.z1),
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Serialization order used everywhere: (z0, z1, z2, z3)."""
        return (float(self.z0), float(self.z1), float(self.z2), float(self.z3))

    # -- structure -----------------------------------------------------

    def conj(self) -> "Bicomplex":
        """The physical conjugation: flips the sign of the i and k components.

        In the idempotent basis this swaps the two coefficients and
        complex-conjugates each, which is what makes ``conj(z)*z`` the right
        continuation of ``|z|**2``.
        """
        return Bicomplex(self.z0, self.z1, -self.z2, -self.z3)

    def modulus_squared(self) -> "Bicomplex":
        """conj(z)*z; real and non-negative when z is complex in i."""
        return self.conj() * self

    def max_abs(self) -> float:
        return max(abs(self.z0), abs(self.z1), abs(self.z2), abs(self.z3))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Bicomplex(self.z0 + o.z0, self.z1 + o.z1, self.z2 + o.z2, self.z3 + o.z3)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Bicomplex(self.z0 - o.z0, self.z1 - o.z1, self.z2 - o.z2, self.z3 - o.z3)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.z0, self.z1, self.z2, self.z3
        b0, b1, b2, b3 = o.z0, o.z1, o.z2, o.z3
        return Bicomplex(
            a0 * b0 - a1 * b1 - a2 * b2 + a3 * b3,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a = self.to_idempotent()
        b = o.to_idempotent()
        if b.plus == 0 or b.minus == 0:
            raise ZeroDivisor(f"division by bicomplex zero divisor {o!r}")
        return Bicomplex.from_idempotent(a.plus / b.plus, a.minus / b.minus)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "Bicomplex":
        return Bicomplex(-self.z0, -self.z1, -self.z2, -self.z3)

    def __pos__(self) -> "Bicomplex":
        return self


def _coerce(value) -> Bicomplex | None:
    if isinstance(value, Bicomplex):
        return value
    if isinstance(value, (int, float)):
        return Bicomplex(float(value))
    if isinstance(value, complex):
        return Bicomplex.from_complex(value)
    return None


ZERO = Bicomplex()
ONE = Bicomplex(1.0)
J = Bicomplex(0.0, 1.0, 0.0, 0.0)
I = Bicomplex(0.0, 0.0, 1.0, 0.0)
K = Bicomplex(0.0, 0.0, 0.0, 1.0)
E_PLUS = Bicomplex(0.5, 0.0, 0.0, 0.5)
E_MINUS = Bicomplex(0.5, 0.0, 0.0, -0.5)


def lift_real_control(c0: float, c1: float) -> IdempotentPair:
    """Idempotent form of a continued real control parameter c0 + j*c1.

    The two coefficients are complex conjugates of each other, reflecting the
    two real degrees of freedom of the control.
    """
    return IdempotentPair(complex(c0, -c1), complex(c0, c1))


def fmt_float(x: float) -> str:
    """A float as CSV text: repr, the shortest decimal that round-trips, so
    identical values give byte-identical artifacts."""
    return repr(float(x))
