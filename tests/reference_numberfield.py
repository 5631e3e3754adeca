"""Fraction-coordinate number fields: the reference for cubesum.rings.NumberField.

An element here is a tuple of Fractions in the power basis, one per
coordinate. A product is the product of the two coefficient polynomials reduced
modulo the defining polynomial with the Fraction-coefficient reference_poly.Poly
over Q. An inverse solves the linear system "x times y = 1" by Gaussian
elimination over Q, and the trace and norm are the trace and determinant of
the matrix of "multiply by x". No integer numerators, common denominators,
adjugates or multiply-mod-g loop are involved.
Tests compare the fraction-free elements of cubesum.rings against this code.
"""

from __future__ import annotations

from fractions import Fraction

from reference_poly import Poly


class RefElement:
    """x = sum coords[i] * gen^i in Q[gen]/(gen^d + tail)."""

    __slots__ = ("tail", "coords")

    def __init__(self, tail: tuple[int, ...], coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > len(tail):
            raise ValueError("more coordinates than the degree")
        self.tail = tuple(tail)
        self.coords = tuple(coords + [Fraction(0)] * (len(tail) - len(coords)))

    def _new(self, coords) -> "RefElement":
        return RefElement(self.tail, coords)

    def __eq__(self, other):
        return self.tail == other.tail and self.coords == other.coords

    def __hash__(self):
        return hash((self.tail, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __add__(self, other):
        return self._new([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._new([-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        modulus = Poly(self.tail + (1,))
        prod = (Poly(self.coords) * Poly(other.coords)) % modulus
        return self._new(prod.coeffs)

    def _matrix(self) -> list[list[Fraction]]:
        """The matrix of "multiply by self" on the power basis: column j is
        self * gen^j."""
        d = len(self.tail)
        cols = [(self * self._new([0] * j + [1])).coords for j in range(d)]
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def trace(self) -> Fraction:
        """The trace of the multiplication matrix."""
        return sum(row[i] for i, row in enumerate(self._matrix()))

    def norm(self) -> Fraction:
        """The determinant of the multiplication matrix, by elimination to
        upper triangular form."""
        rows, det = self._matrix(), Fraction(1)
        for c in range(len(rows)):
            p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
            if p is None:
                return Fraction(0)
            if p != c:
                rows[c], rows[p], det = rows[p], rows[c], -det
            det *= rows[c][c]
            for r in range(c + 1, len(rows)):
                f = rows[r][c] / rows[c][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
        return det

    def inverse(self) -> "RefElement":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        d = len(self.tail)
        rows = [row + [Fraction(int(i == 0))] for i, row in enumerate(self._matrix())]
        for c in range(d):
            p = next(r for r in range(c, d) if rows[r][c])
            rows[c], rows[p] = rows[p], rows[c]
            piv = rows[c][c]
            rows[c] = [v / piv for v in rows[c]]
            for r in range(d):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
        return self._new([rows[i][d] for i in range(d)])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int):
        base = self.inverse() if n < 0 else self
        out = self._new([1])
        for _ in range(abs(n)):
            out = out * base
        return out

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return self.coords[0]
