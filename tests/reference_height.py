"""Heights from n^2 <P, P> = 2 chi + 2 (nP . O): the reference for the pairing.

Let n be the exponent of every fiber's component group. Then nP meets the
identity component of every reducible fiber, so no local correction applies to
it, and <P, P> = (2 chi + 2 (nP . O)) / n^2 (Shioda, On the Mordell-Weil
lattices, 1990). (nP . O) is read from the pole orders of x(nP) alone, cross
pairings come from polarisation through P + Q, and det NS from the Gram matrix
and the trivial lattice. Nothing here uses fibration's components, local
contributions or (P . O); only the fiber types and their groups come from
classify_fibers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from cubesum.elliptic import add, multiply
from cubesum.fibration import classify_fibers


def _twist_degree(E) -> int:
    """Least k with deg A <= 4k and deg B <= 6k: the twist at infinity, and
    chi for the globally minimal models the toolkit uses."""
    return max(-(-f.num.degree // m) for f, m in ((E.A, 4), (E.B, 6)) if not f.is_zero())


def meets_zero(P, E) -> int:
    """(P . O): half the pole order of x(P), summed over the places of P^1.

    The finite poles are the roots of x's monic reduced denominator. At
    infinity x becomes s^(2k) x(1/s) in s = 1/t.
    """
    finite = P.x.den.degree
    at_infinity = max(0, P.x.num.degree - P.x.den.degree - 2 * _twist_degree(E))
    if finite % 2 or at_infinity % 2:
        raise ValueError("odd pole order of x: not a section of the minimal model")
    return (finite + at_infinity) // 2


def group_exponent(fibers) -> int:
    """lcm of the exponents of the component groups "1", "Z/m", "(Z/2)^2"."""
    exps = []
    for f in fibers:
        g = f.component_group
        exps.append(1 if g == "1" else 2 if g == "(Z/2)^2" else int(g.split("/")[1]))
    return lcm(*exps)


def height(P, E, fibers) -> Fraction:
    """<P, P> in the mw-lattice convention."""
    n = group_exponent(fibers)
    return Fraction(2 * _twist_degree(E) + 2 * meets_zero(multiply(n, P, E), E), n * n)


def gram(sections, E) -> tuple[tuple[Fraction, ...], ...]:
    fibers = classify_fibers(E)
    h = [height(P, E, fibers) for P in sections]
    rows = [[Fraction(0)] * len(sections) for _ in sections]
    for i, P in enumerate(sections):
        rows[i][i] = h[i]
        for j in range(i + 1, len(sections)):
            cross = (height(add(P, sections[j], E), E, fibers) - h[i] - h[j]) / 2
            rows[i][j] = rows[j][i] = cross
    return tuple(tuple(r) for r in rows)


def det_ns_2x2(g, fibers) -> int:
    """-|prod of the fibers' discriminant group orders * det g| for a 2x2 Gram
    matrix of a torsion-free Mordell-Weil group."""
    disc = 1
    for f in fibers:
        disc *= f.m_simple
    value = disc * (g[0][0] * g[1][1] - g[0][1] * g[1][0])
    if value.denominator != 1:
        raise ValueError(f"non-integral determinant {value}")
    return -abs(int(value))
