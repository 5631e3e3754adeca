"""Sparse multivariate polynomials: the reference for cubesum.surface_checks.

This is the MultiPoly that cubesum used to check the quotient map psi and the
Inose coordinate changes before it sampled them on univariate Polys, kept
unchanged as a test oracle. A MultiPoly is a dict from exponent tuples to
exact scalars over a fixed variable list. normal_form rewrites
var^2 -> replacement for relation sets whose replacements mention no
eliminated variable, such as psi's {s: u^6 - 1, y0: x0^3 - 1} and the Inose
check's {y: x^3 - c(t)}; any other set raises ValueError (no Groebner bases).
"""

from __future__ import annotations

from fractions import Fraction

from cubesum.rings import NumberFieldElement, coerce_scalar, scalar_zero


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
        o = self._wrap(other)
        return NotImplemented if o is None else o + (-self)

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


def normal_form(expr: MultiPoly, relations: dict[str, MultiPoly]) -> MultiPoly:
    """Reduce expr by the rewrite rules var^2 -> relations[var].

    No replacement may mention an eliminated variable; any other relation set
    raises ValueError. Rewriting one variable then leaves the degrees in the
    others as they are, so one pass per variable reaches the result: degree
    < 2 in every eliminated variable, and zero iff expr lies in the ideal
    generated by {var^2 - replacement}.
    """
    for name, rep in relations.items():
        if any(rep.degree_in(v) for v in relations):
            raise ValueError(f"the replacement for {name} mentions an eliminated variable")
    for name, rep in relations.items():
        expr = _reduce_one(expr, name, rep)
    return expr


def _reduce_one(p: MultiPoly, name: str, rep: MultiPoly) -> MultiPoly:
    """p with each name^(2k + r) replaced by rep^k name^r, for rep free of name:
    the terms are grouped by k, so rep^k is built and multiplied once per k."""
    idx = p.vars.index(name)
    by_k: dict[int, dict] = {}
    for e, c in p.terms.items():
        k, r = divmod(e[idx], 2)
        by_k.setdefault(k, {})[e[:idx] + (r,) + e[idx + 1:]] = c
    acc = MultiPoly(p.vars, by_k.pop(0, {}), zero=p.zero)
    for k, terms in by_k.items():
        acc = acc + MultiPoly(p.vars, terms, zero=p.zero) * rep**k
    return acc
