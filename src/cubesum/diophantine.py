"""The integer side: cube-sum solutions, coordinate changes, symmetries, search.

Two coordinate systems are used throughout. (m, k, l) records that the k
consecutive cubes starting at m^3 sum to l^3; (x, y, z) records a point on
x*y*(x^2 + y^2 - 1) = z^3. The change of variables x = k, y = 2m + k - 1,
z = 2l identifies the two, with integrality on the (x, y, z) side exactly when
x and y have opposite parity and z is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .arith import cube_sum_range, icbrt
from .polynomials import Poly


@dataclass(frozen=True)
class SolutionMKL:
    """k consecutive cubes starting at m summing to l^3, verified exactly.

    k may be negative (telescoped sum; see cube_sum_range) but never zero:
    the parametric family below produces k = u^3 < 0 for negative u.
    """

    m: int
    k: int
    l: int

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("k must be nonzero")
        if cube_sum_range(self.m, self.k) != self.l**3:
            raise ValueError(f"({self.m},{self.k},{self.l}) fails the cube-sum identity")


@dataclass(frozen=True)
class SolutionXYZ:
    """Point on x*y*(x^2 + y^2 - 1) = z^3, verified exactly."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        if self.x * self.y * (self.x**2 + self.y**2 - 1) != self.z**3:
            raise ValueError(f"({self.x},{self.y},{self.z}) is not on the surface")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def mkl_to_xyz(sol: SolutionMKL) -> SolutionXYZ:
    """x = k, y = 2m + k - 1, z = 2l."""
    return SolutionXYZ(sol.k, 2 * sol.m + sol.k - 1, 2 * sol.l)


def xyz_to_mkl(sol: SolutionXYZ) -> SolutionMKL:
    """Inverse change of variables; requires x >= 1, opposite parity, even z."""
    if sol.x < 1:
        raise ValueError("no integral preimage: x must be >= 1")
    if (sol.x + sol.y) % 2 == 0:
        raise ValueError("no integral preimage: x and y must have opposite parity")
    if sol.z % 2 != 0:
        raise ValueError("no integral preimage: z must be even")
    return SolutionMKL(m=(sol.y - sol.x + 1) // 2, k=sol.x, l=sol.z // 2)


# --- symmetry group -------------------------------------------------------
#
# tau1: (x,y,z) -> (-x, y, -z)
# tau2: (x,y,z) -> (x, -y, -z)
# tau3: (x,y,z) -> (y, x, z)
# These generate a dihedral group of order 8 acting on integer solutions.

_GENERATORS = {
    "t1": lambda x, y, z: (-x, y, -z),
    "t2": lambda x, y, z: (x, -y, -z),
    "t3": lambda x, y, z: (y, x, z),
}


@dataclass(frozen=True)
class SymmetryElement:
    """A word in the generators t1, t2, t3, applied left to right."""

    word: tuple[str, ...] = ()

    def __post_init__(self):
        for g in self.word:
            if g not in _GENERATORS:
                raise ValueError(f"unknown generator {g}")

    def apply(self, triple: tuple[int, int, int]) -> tuple[int, int, int]:
        x, y, z = triple
        for g in self.word:
            x, y, z = _GENERATORS[g](x, y, z)
        return (x, y, z)

    def __mul__(self, other: "SymmetryElement") -> "SymmetryElement":
        return SymmetryElement(self.word + other.word)


def symmetry_group() -> list[SymmetryElement]:
    """All 8 elements, as reduced words, deduplicated by their action."""
    seen: dict[tuple, SymmetryElement] = {}
    frontier = [SymmetryElement()]
    probe = [(1, 2, 3), (5, 7, 11)]
    while frontier:
        g = frontier.pop()
        key = tuple(g.apply(p) for p in probe)
        if key in seen:
            continue
        seen[key] = g
        for name in _GENERATORS:
            frontier.append(SymmetryElement(g.word + (name,)))
    return sorted(seen.values(), key=lambda g: (len(g.word), g.word))


def apply_symmetry(g: SymmetryElement, sol: SolutionXYZ) -> SolutionXYZ:
    return SolutionXYZ(*g.apply(sol.as_tuple()))


def orbit(sol: SolutionXYZ) -> set[tuple[int, int, int]]:
    return {g.apply(sol.as_tuple()) for g in symmetry_group()}


def canonical_form(sol: SolutionXYZ) -> SolutionXYZ:
    """Lexicographically smallest orbit member with x >= y >= 0 and z >= 0."""
    candidates = [t for t in orbit(sol) if t[0] >= t[1] >= 0 and t[2] >= 0]
    if not candidates:
        raise ValueError(f"orbit of {sol} has no representative in the cone")
    return SolutionXYZ(*min(candidates))


# --- exhaustive search ----------------------------------------------------

# Residue filters: a cube must be a cubic residue modulo these. Small coprime
# tables keep memory low; together they reject all but ~1e-4 of non-cubes.
_FILTER_MODULI = (63 * 13 * 19, 31 * 37 * 43, 61 * 67)


def _cube_mask(mod: int) -> bytes:
    mask = bytearray(mod)
    for r in range(mod):
        mask[r * r * r % mod] = 1
    return bytes(mask)


_MASKS = tuple(_cube_mask(m) for m in _FILTER_MODULI)


def _search_y_range(bound: int, y_lo: int, y_hi: int, include_trivial: bool):
    """The box scan: every (x, y) with y_lo <= y < y_hi and y <= x <= bound."""
    m1, m2 = _FILTER_MODULI[:2]
    k1, k2 = _MASKS[:2]
    out = []
    for y in range(y_lo, y_hi):
        if y == 1 and not include_trivial:
            # y = 1 forces N = x^3: exactly the trivial family (x, 1, x)
            continue
        yy = y * y - 1
        for x in range(max(y, 1), bound + 1):
            n = x * y * (x * x + yy)
            if k1[n % m1] and k2[n % m2]:
                r, exact = icbrt(n)
                if exact:
                    if r == 0 and not include_trivial:
                        continue
                    out.append((x, y, r))
    return out


# --- the descent kernel ---------------------------------------------------
#
# Let p >= 5 be a prime with 3 not dividing v_p(x). Then v_p(N) is a multiple of
# 3 only if p divides y or x^2 + y^2 - 1, that is, y = 0 or +-1 (mod p). Call
# the product K(x) of these primes the cube-free kernel of x (p = 2, 3 carry no
# information: every class is 0 or +-1). So the y <= x worth testing for one x
# are the 3^k CRT classes modulo K(x) with y(y^2 - 1) = 0 (mod K(x)), and by the
# symmetry of the equation K(y) must divide x(x^2 - 1) too.

# pairs a numpy block holds: each temporary stays near 128 KB
_BLOCK = 1 << 14
# residue sets of kernels below this are kept for the rest of the strip: those
# kernels recur at many x, larger ones at few
_CACHED_KERNEL = 4096
# rows of at most this many candidates are built in Python: below it numpy's
# per-call overhead costs more than it saves
_SHORT_ROW = 128


class _Sieve:
    """Per-call tables up to n, int32: smallest prime factors and kernels."""

    def __init__(self, n: int):
        import numpy as np

        spf = np.zeros(n + 1, dtype=np.int32)
        for p in range(2, isqrt(n) + 1):
            if spf[p] == 0:
                row = spf[p * p :: p]
                row[row == 0] = p
        primes = np.nonzero(spf == 0)[0][2:]
        spf[primes] = primes
        # K(m) = prod p^[3 does not divide v_p(m)]: multiply by p on the multiples
        # of p^e with e = 1 (mod 3), divide on those with e = 0 (mod 3)
        kern = np.ones(n + 1, dtype=np.int32)
        for p in primes[primes >= 5].tolist():
            kern[p::p] *= p
            q, e = p * p * p, 3
            while q <= n:
                if e % 3 == 0:
                    kern[q::q] //= p
                elif e % 3 == 1:
                    kern[q::q] *= p
                q, e = q * p, e + 1
        self.spf, self.kern = spf, kern

    def residues(self, K: int) -> list[int]:
        """The r in [0, K) with r(r^2 - 1) = 0 mod the squarefree K, ascending."""
        out, m = [0], 1
        while K > 1:
            p = int(self.spf[K])
            K //= p
            inv = pow(m, -1, p)
            out = [r + m * ((e - r) * inv % p) for e in (0, 1, p - 1) for r in out]
            m *= p
        out.sort()
        return out


def _search_x_range(bound: int, x_lo: int, x_hi: int, include_trivial: bool,
                    sieve: _Sieve | None = None):
    """The descent over x_lo <= x < x_hi: for each x only the y <= x in the CRT
    classes of K(x), then K(y) | x(x^2 - 1), the cubic-residue masks, and an
    exact cube test for every survivor. Finds what _search_y_range finds."""
    import numpy as np

    sieve = sieve or _Sieve(bound)
    kern = sieve.kern
    masks = [np.frombuffer(m, dtype=np.uint8) for m in _MASKS]
    # every x's candidate row starts 0, 1 (R = [0] at K = 1, else R starts
    # 0, 1), then values >= 2: dropping y_min entries drops y = 0 and, unless
    # the trivial family is wanted, y = 1
    y_min = 1 if include_trivial else 2
    cache: dict = {}
    out: list[tuple[int, int, int]] = []
    # pending pairs: short rows as Python ints, long rows as (x, y array)
    px: list[int] = []
    py: list[int] = []
    rows: list = []
    pending = 0

    def flush():
        nonlocal pending
        X = np.concatenate([np.array(px, dtype=np.int64)]
                           + [np.full(Y.size, x, dtype=np.int64) for x, Y in rows])
        Y = np.concatenate([np.array(py, dtype=np.int64)] + [Y for _, Y in rows])
        px.clear()
        py.clear()
        rows.clear()
        pending = 0
        ky = kern[Y]
        keep = (X % ky) * ((X * X - 1) % ky) % ky == 0
        X, Y = X[keep], Y[keep]
        for m, mask in zip(_FILTER_MODULI, masks):
            xm, ym = X % m, Y % m
            keep = mask[(xm * ym % m) * ((xm * xm + ym * ym - 1) % m) % m] != 0
            X, Y = X[keep], Y[keep]
        for x, y in zip(X.tolist(), Y.tolist()):
            r, exact = icbrt(x * y * (x * x + y * y - 1))
            if exact:
                if r == 0 and not include_trivial:
                    continue
                out.append((x, y, r))

    for x, K in zip(range(x_lo, x_hi), kern[x_lo:x_hi].tolist()):
        R = cache.get(K)
        if R is None:
            R = sieve.residues(K)
            if K < _CACHED_KERNEL:
                cache[K] = R
        last = x // K  # y = r + j*K for r in R, 0 <= j <= last
        if (last + 1) * len(R) <= _SHORT_ROW:
            ys = [r + j for j in range(0, last * K + 1, K) for r in R if r + j <= x]
            px.extend([x] * (len(ys) - y_min))
            py.extend(ys[y_min:])
            pending += len(ys) - y_min
        else:
            Ra = np.array(R, dtype=np.int64)
            step = max(1, _BLOCK // len(R))
            for j in range(0, last + 1, step):
                js = np.arange(j, min(j + step, last + 1), dtype=np.int64)
                Y = (Ra + K * js[:, None]).ravel()
                Y = Y[y_min if j == 0 else 0 : Y.searchsorted(x, "right")]
                rows.append((x, Y))
                pending += Y.size
                if pending >= _BLOCK:
                    flush()
        if pending >= _BLOCK:
            flush()
    if pending:
        flush()
    return out


# set only inside pool workers, by _init_worker: each worker builds the sieve
# once for all the strips it pulls instead of receiving it with every strip
_worker_sieve: _Sieve | None = None


def _init_worker(bound: int):
    global _worker_sieve
    _worker_sieve = _Sieve(bound)


def _search_chunk(args):
    return _search_x_range(*args, sieve=_worker_sieve)


def search(bound: int, include_trivial: bool = False, jobs: int = 1, progress=None,
           method: str = "numpy") -> list[SolutionXYZ]:
    """All solutions with 0 < y <= x <= bound and z >= 0, sorted by (x, y).

    With include_trivial=False the family (x, 1, x) and any z = 0 member are
    dropped. method "numpy" is the descent over x that tests only the y
    allowed by the cube-free kernels of x and y; "pure" scans every box pair
    y by y in one process and is the oracle the descent is tested against.
    jobs > 1 splits the x range into strips that worker processes pull as
    they finish; results are merged and sorted, so the output is
    deterministic either way.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if method not in ("numpy", "pure"):
        raise ValueError(f"unknown search method {method!r}")
    if method == "pure" and jobs > 1:
        raise ValueError("method 'pure' runs in one process: use jobs=1")
    triples: list[tuple[int, int, int]] = []
    if method == "pure":
        triples = _search_y_range(bound, 1, bound + 1, include_trivial)
    elif jobs <= 1:
        triples = _search_x_range(bound, 1, bound + 1, include_trivial)
    else:
        import multiprocessing as mp

        # strips balance the load: the large x rows are the longest, so those
        # strips go first and workers pull strips dynamically
        width = max(16, bound // (jobs * 32))
        chunks = [(bound, lo, min(lo + width, bound + 1), include_trivial)
                  for lo in reversed(range(1, bound + 1, width))]
        with mp.Pool(jobs, initializer=_init_worker, initargs=(bound,)) as pool:
            for i, part in enumerate(pool.imap_unordered(_search_chunk, chunks)):
                triples.extend(part)
                if progress is not None:
                    progress(i + 1, len(chunks))
    return [SolutionXYZ(x, y, z) for (x, y, z) in sorted(set(triples), key=lambda t: (t[0], t[1], t[2]))]


# --- the parametric family ------------------------------------------------


def pagliani(u: int) -> SolutionMKL:
    """The one-parameter solution family, integral whenever 3 does not divide u.

    m = (u-1)(u^3 - 2u^2 - 4u - 4)/6, k = u^3, l = u(u^2-1)(u^2+2)/6.
    """
    if u % 3 == 0:
        raise ValueError("non-integral family member: u divisible by 3")
    if u in (0, 1, -1):
        raise ValueError("degenerate family member: u in {0, 1, -1}")
    m6 = (u - 1) * (u**3 - 2 * u**2 - 4 * u - 4)
    l6 = u * (u**2 - 1) * (u**2 + 2)
    if m6 % 6 or l6 % 6:
        raise ValueError(f"non-integral family member at u={u}")  # pragma: no cover
    return SolutionMKL(m=m6 // 6, k=u**3, l=l6 // 6)


def pagliani_symbolic() -> tuple[Poly, Poly, Poly]:
    """(m(u), k(u), l(u)) as exact polynomials over Q."""
    u = Poly.x()
    m = (u - 1) * (u**3 - 2 * u**2 - 4 * u - 4) * Fraction(1, 6)
    k = u**3
    l = u * (u**2 - 1) * (u**2 + 2) * Fraction(1, 6)
    return m, k, l


def pagliani_identity_residual() -> Poly:
    """Sum_{j=0}^{k-1} (m+j)^3 - l^3 expanded symbolically in Q[u].

    Uses the closed form k*m^3 + (3/2)m^2 k(k-1) + (1/2)m k(k-1)(2k-1)
    + (k(k-1)/2)^2 for the inner sum. Identically zero for the family.
    """
    m, k, l = pagliani_symbolic()
    half = Fraction(1, 2)
    s = (
        k * m**3
        + m**2 * k * (k - 1) * Fraction(3, 2)
        + m * k * (k - 1) * (2 * k - 1) * half
        + (k * (k - 1) * half) ** 2
    )
    return s - l**3


def in_pagliani_family(sol: SolutionXYZ) -> int | None:
    """The parameter u >= 2 whose family member shares sol's orbit, if any."""
    canon = canonical_form(sol).as_tuple()
    candidates = set()
    for coord in canon[:2]:
        if coord >= 8:
            r, exact = icbrt(coord)
            if exact:
                candidates.update((r, -r))
    for u in sorted(candidates, key=abs):
        if u % 3 == 0 or u in (0, 1, -1):
            continue
        member = canonical_form(mkl_to_xyz(pagliani(u))).as_tuple()
        if member == canon:
            return abs(u)
    return None
