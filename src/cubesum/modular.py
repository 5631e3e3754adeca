"""The weight-3 cusp form three ways: eta quotient, Hecke recurrence, lattice sum.

All series arithmetic is exact integer convolution truncated at a fixed
precision. Sixth roots of unity are tracked symbolically (exponent mod 6),
never as floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_prime, legendre, smallest_prime_factors
from .rings import EisensteinInt, SQRT_M3, represent_eisenstein

# --- integer q-series -------------------------------------------------------


@dataclass(frozen=True)
class QSeries:
    """Coefficients a_1..a_N of a q-expansion with no constant term."""

    precision: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.precision:
            raise ValueError("coefficient list length must equal the precision")

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.precision:
            raise IndexError(f"coefficient index {n} out of range")
        return self.coeffs[n - 1]

    def nonzero(self) -> dict[int, int]:
        return {n: c for n, c in enumerate(self.coeffs, start=1) if c}

    def agrees_with(self, other: "QSeries", up_to: int | None = None) -> bool:
        n = min(self.precision, other.precision) if up_to is None else up_to
        return self.coeffs[:n] == other.coeffs[:n]


def _mul_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai and i <= n:
            top = min(len(b) - 1, n - i)
            for j in range(top + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _inv_trunc(a: list[int], n: int) -> list[int]:
    if a[0] != 1:
        raise ValueError("series inversion needs unit constant term 1")
    out = [0] * (n + 1)
    out[0] = 1
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                acc += a[j] * out[k - j]
        out[k] = -acc
    return out


def _pow_trunc(a: list[int], e: int, n: int) -> list[int]:
    out = [0] * (n + 1)
    out[0] = 1
    base = a[: n + 1] + [0] * max(0, n + 1 - len(a))
    while e:
        if e & 1:
            out = _mul_trunc(out, base, n)
        base = _mul_trunc(base, base, n)
        e >>= 1
    return out


def _euler_product(scale: int, n: int) -> list[int]:
    """prod_{m>=1} (1 - q^(scale*m)) truncated, via the pentagonal sparse form."""
    out = [0] * (n + 1)
    out[0] = 1
    k = 1
    while True:
        e1 = scale * k * (3 * k - 1) // 2
        e2 = scale * k * (3 * k + 1) // 2
        if e1 > n and e2 > n:
            break
        sign = -1 if k % 2 else 1
        if e1 <= n:
            out[e1] = sign
        if e2 <= n:
            out[e2] = sign
        k += 1
    return out


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Product of rescaled eta factors eta(d*z)^e; the q-prefix must be integral."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.prefix_numerator % 24:
            raise ValueError(
                f"non-integral leading power: sum d*e = {self.prefix_numerator} not divisible by 24"
            )

    @property
    def prefix_numerator(self) -> int:
        return sum(d * e for d, e in self.factors)

    @property
    def leading_power(self) -> int:
        return self.prefix_numerator // 24


# the cusp form's eta expression: eta(12z)^9 eta(4z)^9 / (eta(2z) eta(6z) eta(8z) eta(24z))^3
CUSP_FORM_ETA = EtaQuotientSpec(((12, 9), (4, 9), (2, -3), (6, -3), (8, -3), (24, -3)))


def eta_quotient(spec: EtaQuotientSpec, N: int) -> QSeries:
    """Truncated q-expansion of an eta quotient with integral leading power."""
    if N < 1:
        raise ValueError("precision must be >= 1")
    lead = spec.leading_power
    n = N - lead  # internal precision after factoring out q^lead
    if n < 0:
        return QSeries(N, (0,) * N)
    ser = [0] * (n + 1)
    ser[0] = 1
    for d, e in spec.factors:
        base = _euler_product(d, n)
        if e < 0:
            base = _inv_trunc(base, n)
        ser = _mul_trunc(ser, _pow_trunc(base, abs(e), n), n)
    coeffs = [0] * N
    for i, c in enumerate(ser):
        idx = i + lead
        if 1 <= idx <= N:
            coeffs[idx - 1] = c
    return QSeries(N, tuple(coeffs))


# --- sixth roots of unity, symbolically -------------------------------------

_ZETA6_VALUES = {
    0: EisensteinInt(1, 0),
    1: EisensteinInt(1, 1),  # -w^2
    2: EisensteinInt(0, 1),  # w
    3: EisensteinInt(-1, 0),
    4: EisensteinInt(-1, -1),  # w^2
    5: EisensteinInt(0, -1),  # -w
}


@dataclass(frozen=True)
class SixthRoot:
    """zeta6^exponent with zeta6 = 1 + w, kept as an exponent mod 6."""

    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % 6)

    def __mul__(self, other: "SixthRoot") -> "SixthRoot":
        return SixthRoot(self.exponent + other.exponent)

    def inverse(self) -> "SixthRoot":
        return SixthRoot(-self.exponent)

    def value(self) -> EisensteinInt:
        return _ZETA6_VALUES[self.exponent]

    def __repr__(self):
        names = {0: "1", 1: "zeta6", 2: "w", 3: "-1", 4: "w^2", 5: "-w"}
        return names[self.exponent]


def chi2(u: EisensteinInt, variant: str) -> SixthRoot:
    """The unit character at 2: u mod 2 identified with {1, w, w^2}.

    The minus variant multiplies by (-1)^((norm(u)-1)/2).
    """
    a, b = u.a % 2, u.b % 2
    if (a, b) == (0, 0):
        raise ValueError("chi2 needs a unit mod 2 (odd norm)")
    plus = {(1, 0): 0, (0, 1): 2, (1, 1): 4}[(a, b)]
    if variant == "plus":
        return SixthRoot(plus)
    if variant == "minus":
        twist = 3 if ((u.norm() - 1) // 2) % 2 else 0
        return SixthRoot(plus + twist)
    raise ValueError(f"unknown variant {variant}")


# --- normalized Frobenius generators ----------------------------------------

TWO_SQRT_M3 = 2 * SQRT_M3  # 2 + 4w


@dataclass(frozen=True)
class NormalizedPi:
    pi: EisensteinInt
    p: int
    variant: str

    def trace(self) -> int:
        return self.pi.trace()


def _variant_target(p: int, variant: str) -> EisensteinInt:
    if variant == "plus":
        return EisensteinInt(1)
    if variant == "minus":
        return EisensteinInt(1) if p % 12 == 1 else EisensteinInt(-1)
    raise ValueError(f"unknown variant {variant}")


def normalize_pi(p: int, variant: str) -> NormalizedPi:
    """The generator of a prime above p fixed by its congruence mod 2*sqrt(-3).

    Scans the twelve associates and conjugate-associates of one norm-p element;
    the congruence determines the result up to conjugation, and the b >= 0
    tie-break picks a single representative.
    """
    if p % 3 != 1 or p < 5 or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 3")
    m, n = represent_eisenstein(p)
    beta = EisensteinInt(m, n)
    target = _variant_target(p, variant)
    found = []
    for z in (beta, beta.conj()):
        for cand in z.associates():
            if TWO_SQRT_M3.divides(cand - target):
                found.append(cand)
    found = sorted(set(found), key=lambda z: (z.b < 0, z.a, z.b))
    if not found:
        raise RuntimeError(f"no normalized generator for p={p}")  # pragma: no cover
    traces = {z.trace() for z in found}
    if len(traces) != 1:
        raise RuntimeError(f"normalization ambiguous for p={p}")  # pragma: no cover
    return NormalizedPi(found[0], p, variant)


def _minus_partner(pi_plus: NormalizedPi) -> EisensteinInt:
    """The minus-normalized generator of the *same* prime ideal."""
    p = pi_plus.p
    target = _variant_target(p, "minus")
    hits = [c for c in pi_plus.pi.associates() if TWO_SQRT_M3.divides(c - target)]
    if len(hits) != 1:
        raise RuntimeError(f"minus partner not unique for p={p}")  # pragma: no cover
    return hits[0]


# --- the prime coefficients, three ways --------------------------------------


def closed_form_alpha(p: int) -> EisensteinInt:
    """alpha = (-4/p) w^a (m+nw)^2 with a chosen so m+nw = w^a mod 2."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"{p} is not a prime >= 5")
    if p % 3 == 2:
        raise ValueError("alpha exists only for split primes (p = 1 mod 3)")
    m, n = represent_eisenstein(p)
    return _alpha_from_beta(EisensteinInt(m, n), p)


def _alpha_from_beta(beta: EisensteinInt, p: int) -> EisensteinInt:
    w = EisensteinInt(0, 1)
    for a in range(3):
        d = beta - w**a
        if d.a % 2 == 0 and d.b % 2 == 0:
            break
    else:  # pragma: no cover
        raise RuntimeError("no unit congruent to beta mod 2")
    return legendre(-4, p) * (w**a) * beta * beta


def ap_closed_form(p: int) -> int:
    """The prime coefficient a_p: 0 for inert p, alpha + conj(alpha) for split p."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"{p} is not a prime >= 5")
    if p % 3 == 2:
        return 0
    return closed_form_alpha(p).trace()


def surface_ap_via_characters(p: int) -> int:
    """a_p as chi+ * chi- evaluated at a prime above p, plus the conjugate."""
    if p % 3 != 1:
        raise ValueError(f"{p} is not split (p = 1 mod 3)")
    pi_plus = normalize_pi(p, "plus")
    pi_minus = _minus_partner(pi_plus)
    return (pi_plus.pi * pi_minus).trace()


def prime_power_coefficients(p: int, ap: int, N: int) -> list[int]:
    """[a_1, a_p, a_{p^2}, ..., a_{p^k}] for the largest p^k <= N, from a_p.

    a_{p^(k+1)} = a_p a_{p^k} - eps(p) p^2 a_{p^(k-1)}, with eps = (-3/p) for
    p >= 5 and eps = 0 at the ramified primes 2 and 3.
    """
    eps = 0 if p in (2, 3) else legendre(-3, p)
    powers = [1, ap]
    pk = p
    while pk * p <= N:
        powers.append(ap * powers[-1] - eps * p * p * powers[-2])
        pk *= p
    return powers


def hecke_expand(N: int) -> QSeries:
    """All coefficients a_n, n <= N, by multiplicativity and the p-power recurrence.

    a_2 and a_3 are seeded from the eta expansion (the ramified unit characters
    do not pin their signs); for p >= 5 the closed form gives a_p, and
    prime_power_coefficients gives the a_{p^k}.
    """
    if N < 1:
        raise ValueError("precision must be >= 1")
    seed = eta_quotient(CUSP_FORM_ETA, 3)
    spf = smallest_prime_factors(N).tolist()
    a = [0] * (N + 1)
    a[1] = 1
    for n in range(2, N + 1):
        p = spf[n]
        if p == n:
            ap = seed[p] if p in (2, 3) else ap_closed_form(p)
            powers = prime_power_coefficients(p, ap, N)
            pk = p
            for k in range(1, len(powers)):
                a[pk] = powers[k]
                pk *= p
            continue
        # n = m * r with m the power of p in n, read off the table
        m, r = p, n // p
        while spf[r] == p:
            m, r = m * p, r // p
        if r > 1:  # multiplicativity on coprime parts; prime powers are set above
            a[n] = a[m] * a[r]
    return QSeries(N, tuple(a[1:]))


# --- the lattice sum ---------------------------------------------------------


class LatticeSumAmbiguityError(ValueError):
    """Raised when a lattice-sum variant produces non-integral coefficients."""


def lattice_sum_variant(N: int, argument_order: str) -> QSeries:
    """(1/6) sum (m+nw)^2 chi2(arg)^(-1) q^(m^2-mn+n^2) over (m,n) != (0,0) mod 2.

    argument_order chooses arg = m+nw ("mn") or n+mw ("nm"); the character is
    the product chi2+ * chi2-. Raises if any coefficient fails to be a rational
    integer after the division by 6.
    """
    if N < 1:
        raise ValueError("precision must be >= 1")
    sums = [EisensteinInt(0) for _ in range(N + 1)]
    bound = isqrt(4 * N // 3) + 2
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            if m % 2 == 0 and n % 2 == 0:
                continue
            q = m * m - m * n + n * n
            if q > N:
                continue
            u = EisensteinInt(m, n)
            arg = u if argument_order == "mn" else EisensteinInt(n, m)
            chi = chi2(arg, "plus") * chi2(arg, "minus")
            sums[q] = sums[q] + u * u * chi.inverse().value()
    coeffs = []
    for q in range(1, N + 1):
        v = sums[q]
        if v.b != 0 or v.a % 6:
            raise LatticeSumAmbiguityError(
                f"coefficient of q^{q} is {v}/6, not a rational integer "
                f"(argument order {argument_order!r})"
            )
        coeffs.append(v.a // 6)
    return QSeries(N, tuple(coeffs))


@dataclass(frozen=True)
class LatticeSumOutcome:
    series: QSeries
    argument_order: str
    rejected: dict


def lattice_sum(N: int) -> LatticeSumOutcome:
    """The lattice sum under whichever argument order matches the eta product.

    Both printed orders are evaluated; exactly one must agree with the eta
    quotient. The outcome records the winner and why the loser failed.
    """
    reference = eta_quotient(CUSP_FORM_ETA, N)
    results, rejected = {}, {}
    for order in ("mn", "nm"):
        try:
            series = lattice_sum_variant(N, order)
        except LatticeSumAmbiguityError as exc:
            rejected[order] = f"non-integral: {exc}"
            continue
        if series.agrees_with(reference):
            results[order] = series
        else:
            rejected[order] = "integral but disagrees with the eta expansion"
    if len(results) != 1:
        raise LatticeSumAmbiguityError(
            f"expected exactly one working argument order, got {sorted(results)}"
        )
    order, series = next(iter(results.items()))
    return LatticeSumOutcome(series, order, rejected)
