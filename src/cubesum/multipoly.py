"""Sparse multivariate polynomials and square-eliminating normal forms.

Just enough machinery for the surface identity checks: a MultiPoly is a dict
from exponent tuples to exact scalars over a fixed variable list. The normal
form routine rewrites var^2 -> replacement for a triangular set of relations,
which is all the quotient-map and coordinate-change verifications need (no
Groebner bases).
"""

from __future__ import annotations

from fractions import Fraction

from .rings import NumberFieldElement, coerce_scalar, scalar_zero


class MultiPoly:
    """Multivariate polynomial: {exponent tuple: scalar} over named variables."""

    __slots__ = ("vars", "terms", "zero")

    def __init__(self, variables, terms=None, zero=None):
        self.vars = tuple(variables)
        terms = terms or {}
        if zero is None:
            zero = scalar_zero(terms.values())
        self.zero = zero
        clean = {}
        for exp, c in terms.items():
            c = coerce_scalar(c, zero)
            if c:
                exp = tuple(exp)
                if len(exp) != len(self.vars):
                    raise ValueError("exponent arity mismatch")
                clean[exp] = clean.get(exp, zero) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def variable(cls, variables, name, zero=None):
        variables = tuple(variables)
        exp = tuple(1 if v == name else 0 for v in variables)
        if 1 not in exp:
            raise KeyError(f"unknown variable {name}")
        one = Fraction(1) if zero is None else zero + 1
        return cls(variables, {exp: one}, zero=zero)

    @classmethod
    def const(cls, variables, c, zero=None):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c}, zero=zero)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "MP(0)"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exp) if e
            )
            c = self.terms[exp]
            bits.append(f"({c})" + ("*" + mono if mono else ""))
        return "MP(" + " + ".join(bits) + ")"

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.vars == o.vars and self.terms == o.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def _wrap(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError("variable list mismatch")
            return other
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return MultiPoly.const(self.vars, other, zero=self.zero)
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        z = self.zero
        for e, c in o.terms.items():
            out[e] = out.get(e, z) + c
        return MultiPoly(self.vars, out, zero=z)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()}, zero=self.zero)

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        z = self.zero
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, z) + c1 * c2
        return MultiPoly(self.vars, out, zero=z)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of MultiPoly")
        out = MultiPoly.const(self.vars, self.zero + 1, zero=self.zero)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def degree_in(self, name: str) -> int:
        idx = self.vars.index(name)
        return max((e[idx] for e in self.terms), default=0)

    def derivative(self, name: str) -> "MultiPoly":
        idx = self.vars.index(name)
        out = {}
        z = self.zero
        for e, c in self.terms.items():
            if e[idx]:
                ne = list(e)
                ne[idx] -= 1
                out[tuple(ne)] = out.get(tuple(ne), z) + c * e[idx]
        return MultiPoly(self.vars, out, zero=z)

    def substitute(self, assignment: dict):
        """Evaluate by substituting scalars or MultiPolys for variables.

        MultiPoly values may live in a different variable space; every
        variable actually occurring in self must then be assigned.
        """
        target = self.vars
        for val in assignment.values():
            if isinstance(val, MultiPoly):
                target = val.vars
                break
        z = self.zero
        acc = MultiPoly.const(target, 0, zero=z)
        for e, c in self.terms.items():
            term = MultiPoly.const(target, c, zero=z)
            for v, exp in zip(self.vars, e):
                if not exp:
                    continue
                val = assignment.get(v)
                if val is None:
                    if v not in target:
                        raise KeyError(f"variable {v} occurs but has no assignment")
                    val = MultiPoly.variable(target, v, zero=z)
                elif not isinstance(val, MultiPoly):
                    val = MultiPoly.const(target, val, zero=z)
                term = term * val**exp
            acc = acc + term
        return acc


def normal_form(expr: MultiPoly, relations: dict[str, MultiPoly]) -> MultiPoly:
    """Reduce expr by the rewrite rules var^2 -> relations[var].

    The relation set must be triangular: there is an ordering of the eliminated
    variables in which each replacement polynomial mentions only earlier-reducible
    variables (to degree arbitrary) or non-eliminated ones. The result has degree
    < 2 in every eliminated variable and is zero iff expr lies in the ideal
    generated by {var^2 - replacement}.
    """
    order = _triangular_order(expr.vars, relations)
    out = expr
    for name in order:
        out = _reduce_one(out, name, relations[name])
    return out


def _triangular_order(variables, relations: dict[str, MultiPoly]) -> list[str]:
    remaining = dict(relations)
    order: list[str] = []
    while remaining:
        progressed = False
        for name, rep in list(remaining.items()):
            # reducible now if its replacement avoids all *other* pending vars
            if all(rep.degree_in(other) == 0 for other in remaining if other != name):
                if rep.degree_in(name) >= 2:
                    raise ValueError(f"relation for {name} mentions {name}^2; not triangular")
                order.append(name)
                del remaining[name]
                progressed = True
        if not progressed:
            raise ValueError("relation set is not triangular")
    # reduce the most dependent variable first so replacements introduce only
    # variables that are handled later
    return list(reversed(order))


def _reduce_one(p: MultiPoly, name: str, rep: MultiPoly) -> MultiPoly:
    idx = p.vars.index(name)
    z = p.zero
    while True:
        high = {e: c for e, c in p.terms.items() if e[idx] >= 2}
        if not high:
            return p
        low = {e: c for e, c in p.terms.items() if e[idx] < 2}
        acc = MultiPoly(p.vars, low, zero=z)
        for e, c in high.items():
            k, r = divmod(e[idx], 2)
            ne = list(e)
            ne[idx] = r
            mono = MultiPoly(p.vars, {tuple(ne): c}, zero=z)
            acc = acc + mono * rep**k
        p = acc
