"""The weight-3 cusp form three ways: eta quotient, Hecke recurrence, lattice sum.

All series arithmetic is exact integer arithmetic truncated at a fixed
precision. An Eisenstein integer m + nw is the Q(w) element QOMEGA(m, n) with
denominator 1, and the sixth root of unity zeta6^k, zeta6 = 1 + w, is
ZETA6_POWERS[k]: chi2 returns the exponent k mod 6, never a float.

A split a_p is read off the generator pi = a + bw, b > 0, of a prime above p
with pi = +-1 (mod 2 sqrt(-3)), the primary normalisation. As 2 sqrt(-3) =
2(1 + 2w) and w = 1 mod sqrt(-3) = 1 + 2w, x = t there exactly when a - t and
b are even and 3 | a - t + b. The six units map one to one onto those of
Z[w]/(2 sqrt(-3)) = F4 x F3, so exactly one associate of a norm-p element
passes, and its conjugate passes too: conj(2 sqrt(-3)) = -2 sqrt(-3).

An eta quotient is built from sparse factors. eta(dz)^e is the Euler product
prod (1 - q^(dm)) to the power e, times q^(de/24). When 3 | e that product is
|e|/3 copies of Jacobi's cube sum_k (-1)^k (2k+1) q^(d k(k+1)/2); otherwise it
is |e| copies of Euler's pentagonal series. Each has O(sqrt(N/d)) terms below
q^N and constant term 1. So a positive exponent multiplies the dense series by
each copy, one shifted copy of the series per term, and a negative exponent
divides by each copy in place, by out[k] = ser[k] - sum_{j>=1} c_j out[k-j].
The cusp form takes 6 multiplications and 4 divisions, O(N^1.5) in all:
about 4 ms at N = 1000 and 0.15 s at N = 10^4, where raising dense Euler
products to their powers by O(N^2) convolution took 0.08 s at N = 1000.
The dense method is the test oracle, tests/reference_eta.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_prime, legendre, smallest_prime_factors
from .rings import NumberFieldElement, QOMEGA, W, represent_eisenstein

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
        """Equal coefficients a_1..a_up_to, by default up to the lower precision."""
        common = min(self.precision, other.precision)
        n = common if up_to is None else up_to
        if n > common:
            raise ValueError(f"cannot compare {n} coefficients: the precisions are "
                             f"{self.precision} and {other.precision}")
        return self.coeffs[:n] == other.coeffs[:n]


def _factor_terms(scale: int, cube: bool, n: int) -> list[tuple[int, int]]:
    """The terms (j, c_j), 1 <= j <= n, in increasing j, of the sparse series
    prod_{m>=1} (1 - q^(scale*m)) = 1 + sum_k (-1)^k (q^(scale k(3k-1)/2) +
    q^(scale k(3k+1)/2)) (Euler) or of its cube = sum_k (-1)^k (2k+1)
    q^(scale k(k+1)/2) (Jacobi); both have c_0 = 1."""
    terms, k = [], 1
    while scale * k * (k + 1 if cube else 3 * k - 1) // 2 <= n:
        if cube:
            terms.append((scale * k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        else:
            terms += [(scale * k * (3 * k + s) // 2, (-1) ** k) for s in (-1, 1)
                      if scale * k * (3 * k + s) // 2 <= n]
        k += 1
    return terms


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Product of rescaled eta factors eta(d*z)^e; the q-prefix must be integral."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(d < 1 for d, _ in self.factors):
            raise ValueError(f"eta scales must be at least 1: {self.factors}")
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
    ser = [1] + [0] * n
    # positive exponents first: dividing first would build partition-sized
    # intermediates
    for d, e in sorted(spec.factors, key=lambda f: f[1] < 0):
        cube = e % 3 == 0
        terms = _factor_terms(d, cube, n)
        for _ in range(abs(e) // 3 if cube else abs(e)):
            if e > 0:  # ser *= 1 + sum c_j q^j, one shifted copy per term
                out = ser[:]
                for j, c in terms:
                    out[j:] = [a + c * b for a, b in zip(out[j:], ser)]
                ser = out
            else:  # ser /= 1 + sum c_j q^j: out[k] = ser[k] - sum c_j out[k-j]
                for k in range(1, n + 1):
                    acc = ser[k]
                    for j, c in terms:
                        if j > k:
                            break
                        acc -= c * ser[k - j]
                    ser[k] = acc
    coeffs = [0] * N
    for i, c in enumerate(ser):
        idx = i + lead
        if 1 <= idx <= N:
            coeffs[idx - 1] = c
    return QSeries(N, tuple(coeffs))


# --- units and the character at 2 ------------------------------------------

# the six units of Z[w]: ZETA6_POWERS[k] = zeta6^k with zeta6 = 1 + w = -w^2,
# so ZETA6_POWERS[2] = w and ZETA6_POWERS[3] = -1
ZETA6_POWERS = tuple((1 + W) ** k for k in range(6))


def chi2(u: NumberFieldElement) -> int:
    """The unit character at 2, chi2+, as the exponent k of zeta6^k: u mod 2
    identified with {1, w, w^2}."""
    a, b = u.num
    if a % 2 == 0 and b % 2 == 0:
        raise ValueError("chi2 needs a unit mod 2 (odd norm)")
    return {(1, 0): 0, (0, 1): 2, (1, 1): 4}[(a % 2, b % 2)]


# --- normalized Frobenius generators ----------------------------------------


def _variant_target(p: int, variant: str) -> int:
    if variant not in ("plus", "minus"):
        raise ValueError(f"unknown variant {variant}")
    return 1 if variant == "plus" or p % 12 == 1 else -1


def _congruent(x: NumberFieldElement, t: int) -> bool:
    """x = t (mod 2 sqrt(-3)) for x = a + bw: a - t and b even, 6 | a - t + b."""
    a, b = x.num
    return (a - t) % 2 == 0 and (a - t + b) % 6 == 0


def _normalized_associate(z: NumberFieldElement, target: int) -> NumberFieldElement:
    """The one associate of z, of norm prime to 6, that is = target mod 2 sqrt(-3)."""
    return next(c for c in (u * z for u in ZETA6_POWERS) if _congruent(c, target))


def normalize_pi(p: int, variant: str) -> NumberFieldElement:
    """The generator a + bw, b > 0, of a prime above p that is +-1 mod 2 sqrt(-3)
    for the variant: the normalised associate of a norm-p element or its conjugate."""
    if p % 3 != 1 or p < 5 or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 3")
    m, n = represent_eisenstein(p)
    pi = _normalized_associate(QOMEGA(m, n), _variant_target(p, variant))
    return pi if pi.num[1] > 0 else pi.trace() - pi


# --- the prime coefficients, three ways --------------------------------------


def closed_form_alpha(p: int) -> NumberFieldElement:
    """alpha = (-4/p) w^a (m+nw)^2 with a chosen so m+nw = w^a mod 2."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"{p} is not a prime >= 5")
    if p % 3 == 2:
        raise ValueError("alpha exists only for split primes (p = 1 mod 3)")
    m, n = represent_eisenstein(p)
    return alpha_from_beta(QOMEGA(m, n), p)


def alpha_from_beta(beta: NumberFieldElement, p: int) -> NumberFieldElement:
    """(-4/p) w^a beta^2 with w^a = beta mod 2, for beta of norm p: w^a is
    zeta6^chi2(beta)."""
    return legendre(-4, p) * ZETA6_POWERS[chi2(beta)] * beta * beta


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
    pi_plus = normalize_pi(p, "plus")  # and the minus generator of the same prime
    return (pi_plus * _normalized_associate(pi_plus, _variant_target(p, "minus"))).trace()


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


# lattice points per strip of the box: each int64 temporary of a strip holds
# about 2^16 entries (512 KB), or one row of the box if that is longer
_LATTICE_STRIP = 1 << 16


def _lattice_bound(N: int) -> int:
    """B of the box |m|, |n| <= B that holds every lattice point of norm <= N."""
    return isqrt(4 * N // 3) + 2


def check_lattice_precision(N: int) -> None:
    """ValueError unless 1 <= N and the int64 sums of lattice_sum_variant hold
    to precision N: (2B+1)^2 * 2N < 2^63, true up to N = 929835279."""
    if N < 1:
        raise ValueError("precision must be >= 1")
    side = 2 * _lattice_bound(N) + 1
    if side * side * 2 * N >= 2**63:
        raise ValueError(f"precision {N} is too large for the int64 lattice sums")


def lattice_sum_variant(N: int, argument_order: str) -> QSeries:
    """(1/6) sum (m+nw)^2 chi2(arg)^(-1) q^(m^2-mn+n^2) over (m,n) != (0,0) mod 2.

    argument_order chooses arg = m+nw ("mn") or n+mw ("nm"); the character is
    the product chi2+ * chi2-, with chi2+ = chi2 and chi2- its twist by
    (-1)^((norm - 1)/2). Raises if any coefficient fails to be a rational
    integer after the division by 6, naming the first such q.

    The box |m|, |n| <= B = isqrt(4N/3) + 2 is evaluated in numpy, in strips
    of m whose temporaries hold about 2^16 int64s whatever N is. The character
    is zeta6^k, k = 2 chi2+(arg) + 3 [q = 3 mod 4], read off arg mod 2 as chi2
    reads it and off its norm q mod 4; u^2 = (m^2 - n^2) + (2mn - n^2)w is turned
    by zeta6^(-k) on its integer coordinates and summed per q in int64. A term
    x + yw has norm q^2, so |x|, |y| <= 2q/sqrt(3) < 2N, and the box holds
    (2B+1)^2 points: every sum stays below (2B+1)^2 * 2N in absolute value.
    check_lattice_precision refuses any N where that reaches 2^63.
    """
    check_lattice_precision(N)
    if argument_order not in ("mn", "nm"):
        raise ValueError(f"unknown argument order {argument_order}")
    import numpy as np

    bound = _lattice_bound(N)
    side = 2 * bound + 1
    units = np.array([z.num for z in ZETA6_POWERS], dtype=np.int64)  # zeta6^k = c + dw
    re = np.zeros(N + 1, dtype=np.int64)
    im = np.zeros(N + 1, dtype=np.int64)
    n_row = np.arange(-bound, bound + 1)
    rows = max(1, _LATTICE_STRIP // side)
    for m0 in range(-bound, bound + 1, rows):
        m_col = np.arange(m0, min(m0 + rows, bound + 1))[:, None]
        q = m_col * m_col - m_col * n_row + n_row * n_row
        keep = ((m_col | n_row) & 1 == 1) & (q <= N)  # not both even
        i, j = np.nonzero(keep)
        m, n, q = i + m0, j - bound, q[keep]
        a, b = (m, n) if argument_order == "mn" else (n, m)
        plus = 2 * (b & 1) * (1 + (a & 1))  # chi2+: (1, 0) -> 0, (0, 1) -> 2, (1, 1) -> 4
        c, d = units[-(2 * plus + 3 * (q % 4 == 3)) % 6].T
        x, y = m * m - n * n, 2 * m * n - n * n
        # (x + yw)(c + dw) = (xc - yd) + (xd + yc - yd)w, as w^2 = -1 - w
        np.add.at(re, q, x * c - y * d)
        np.add.at(im, q, x * d + y * c - y * d)
    bad = np.flatnonzero((im[1:] != 0) | (re[1:] % 6 != 0))
    if bad.size:
        q = int(bad[0]) + 1
        a, b = int(re[q]), int(im[q])
        raise LatticeSumAmbiguityError(
            f"coefficient of q^{q} is ({a}{b:+d}w)/6, not a rational integer "
            f"(argument order {argument_order!r})"
        )
    return QSeries(N, tuple((re[1:] // 6).tolist()))


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
