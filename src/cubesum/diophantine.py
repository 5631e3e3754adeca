"""The integer side: cube-sum solutions, coordinate changes, symmetries, search.

Two coordinate systems are used throughout. (m, k, l) records that the k
consecutive cubes starting at m^3 sum to l^3; (x, y, z) records a point on
x*y*(x^2 + y^2 - 1) = z^3. The change of variables x = k, y = 2m + k - 1,
z = 2l identifies the two, with integrality on the (x, y, z) side exactly when
x and y have opposite parity and z is even.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from .arith import cube_sum_range, icbrt, smallest_prime_factors
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


@cache
def symmetry_group() -> tuple[SymmetryElement, ...]:
    """All 8 elements, as reduced words, deduplicated by their action. The
    search is breadth-first, so each action keeps its shortest word, the
    first in generator order among those; it runs once, and orbit,
    canonical_form and the quartic's symmetries in surface_checks share its
    tuple."""
    seen: dict[tuple, SymmetryElement] = {}
    frontier = deque([SymmetryElement()])
    probe = [(1, 2, 3), (5, 7, 11)]
    while frontier:
        g = frontier.popleft()
        key = tuple(g.apply(p) for p in probe)
        if key in seen:
            continue
        seen[key] = g
        for name in _GENERATORS:
            frontier.append(SymmetryElement(g.word + (name,)))
    return tuple(sorted(seen.values(), key=lambda g: (len(g.word), g.word)))


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
# They run in order of selectivity: of the 70,204 pairs that reach them at
# 20,025, each alone keeps 8.1%, 14.6% and 25.1%. 63 is weak here because the
# lemma below already fixes y mod 9 and mod 7 (alone they keep 100% and 87%)
_FILTER_MODULI = (31 * 37 * 43, 61 * 67, 63 * 13 * 19)


@cache
def _masks() -> tuple[bytes, ...]:
    """The cubic residues modulo each filter modulus, built on first use."""
    masks = tuple(bytearray(mod) for mod in _FILTER_MODULI)
    for mod, mask in zip(_FILTER_MODULI, masks):
        for r in range(mod):
            mask[r * r * r % mod] = 1
    return tuple(map(bytes, masks))


# --- the descent kernel ---------------------------------------------------
#
# Write N = x y (x^2 + y^2 - 1) and let p be a prime with e = v_p(x) not a
# multiple of 3. N is a cube only if 3 divides v_p(N) = e + v_p(y) +
# v_p(x^2 + y^2 - 1), so p divides y or x^2 + y^2 - 1: y = 0 or +-1 (mod p).
# When e = 1 (mod 3) the condition lifts to p^2:
# - if p | y, then x^2 + y^2 - 1 = -1 (mod p) is a unit, so v_p(N) = e + v_p(y),
#   and 3 | v_p(N) needs v_p(y) = 2 (mod 3): p^2 | y;
# - otherwise p^2 | x^2 gives x^2 + y^2 - 1 = y^2 - 1 (mod p^2), so
#   v_p(N) = e + v_p(y^2 - 1), and 3 | v_p(N) needs v_p(y^2 - 1) >= 2. An odd p
#   divides only one of y - 1 and y + 1, so y = +-1 (mod p^2); for p = 2 every
#   odd y is +-1 (mod 4).
# When e = 2 (mod 3), v_p(y) = 1 or v_p(y^2 - 1) = 1 is enough: the modulus
# stays p, no condition at all for p = 2, 3. The lifted kernel K2(x) is the
# product of p^2 over the p with e = 1 (mod 3) and of p over the p >= 5 with
# e = 2 (mod 3). Modulo each of its prime powers (4, 9, p, p^2) the roots of
# y(y^2 - 1) are exactly 0 and +-1, so the y <= x worth testing are the 3^k
# CRT classes modulo K2(x) with y(y^2 - 1) = 0. By symmetry the cube-free
# kernel K(y), the product of the p >= 5 with 3 not dividing v_p(y), must
# divide x(x^2 - 1) too (p = 2, 3 always divide it).
#
# Each row x takes the smaller of two candidate sets, both holding every y
# that passes both conditions, so the search finds the same pairs either way:
# - the walk. Let M(x) >= M2(x) be the two largest prime powers of K2(x) (1 if
#   absent) and R(x) = K2(x) / (M M2) the rest. When M(x) > x the classes
#   modulo M below x are 0 and 1, so the row holds no y >= 2 and is skipped:
#   about 73% of rows. The other rows of a strip walk, in one numpy walk,
#   y = c + jP up to x over the 9 CRT classes c of 0, +-1 modulo M and modulo
#   M2 (3 when M2 = 1, the class 0 when M = 1), P = M M2, and keep the y with
#   K(y) | x(x^2 - 1) and y(y^2 - 1) = 0 mod R.
# - the mirror set. K(y) is squarefree and made of primes p >= 5, each of
#   which divides one of x - 1, x, x + 1, so the y are those with K(y) = d for
#   the squarefree products d <= x of the primes p >= 5 of (x - 1)x(x + 1):
#   one range each of the index of y sorted by (K(y), y). Then
#   y(y^2 - 1) = 0 mod K2(x) is tested.
# Where K2(x) is small the walk covers most y: at 20,025 the 100 heaviest
# rows (K2(x) <= 180) held 69% of the 960,527 walked pairs, and their mirror
# sets 42,822 values.
# y = 1 gives N = x^3, the trivial family (x, 1, x), and is never generated.

# walks are cut into pieces of at most _BLOCK pairs, and a block holds the
# pieces that start in one window of _BLOCK: under 2*_BLOCK pairs, so each
# temporary stays under 256 KB
_BLOCK = 1 << 14
# rows a strip walks at once. Each strip pays a fixed numpy set-up (walk
# classes, CRT inverses, the heavy-row choice, the mirror call, two block
# streams); larger strips pay it less often but hold larger temporaries.
# Measured with jobs = 1 on a 2-core x86-64 host, in one session, as the best
# of 40 searches at 2*10^4 and the best of 3 at 10^6, in three rounds, with
# the peak RSS of one search at 10^6:
#
#   strip   2*10^4 (ms)          10^6 (ms)           RSS at 10^6 (MB)
#   2048    19.4, 19.4, 18.4     1390, 1305, 1214    61.1
#   4096    22.5, 18.1, 17.2     1273, 1248, 1165    61.1
#   8192    23.6, 16.7, 16.8     1175, 1177, 1081    61.1
#   16384   16.8, 16.3, 16.4     1090, 1058, 993     61.6
#   32768   22.7, 17.2, 15.3     1265, 1057, 1032    61.7
#
# The host was slow and drifting (bench/hostspeed.calibrate() 12-17 ms), so
# 8192 and 16384 ran four more rounds head to head: 17.0, 17.6, 15.9, 17.4
# against 16.8, 15.8, 16.5, 18.6 ms, and 1091, 1201, 1086, 1115 against 1076,
# 1096, 1145, 1082 ms. 16384 does not win at both bounds, and its temporaries
# are larger, so 8192 stays
_STRIP = 8192
# rows whose walk is longer than this count their mirror set too; the count
# costs a few microseconds of Python per row. With 8192-row strips and
# jobs = 1, on the host above, in one session (calibrate() 8.1-8.5 ms in
# the first two rounds, 11.6-14.9 ms in the third), the best of 40 searches
# at 2*10^4 took 15.3-16.5 ms with 400, 14.6-15.0 ms with 600, 14.8-19.7 ms
# with 1000 and 16.5-19.2 ms with 2000; the best of 3 at 10^6 took 976-1174,
# 932-999, 874-944 and 839-880 ms. No value wins at both bounds
_MIRROR_MIN = 600


def _inverse(a, m):
    """a^-1 mod m elementwise for coprime int64 arrays, 0 where m = 1 (as
    pow(a, -1, 1)): extended Euclid on the entries still running."""
    import numpy as np

    inv = np.zeros_like(m)
    i = np.arange(m.size)
    r0, r1, t0, t1 = m, a % m, np.zeros_like(m), np.ones_like(m)
    while i.size:
        done = r1 == 0
        inv[i[done]] = t0[done]
        run = ~done
        i, r0, r1, t0, t1 = i[run], r0[run], r1[run], t0[run], t1[run]
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return inv % m


def _divides(r, y):
    """r | y(y^2 - 1) elementwise and exactly, for integer arrays r >= 1 and
    0 <= y < 2^31 (the int32 tables keep x < 2^31): y * ((y^2 - 1) mod r)
    < 2^63 while every r <= 2^32; with a larger r, y^2 - 1 = 0 mod
    r / gcd(r, y), as y and y^2 - 1 are coprime."""
    import numpy as np

    if r.max(initial=0) <= 1 << 32:
        return y * ((y * y - 1) % r) % r == 0
    return (y * y - 1) % (r // np.gcd(y, r)) == 0


class _Sieve:
    """Per-call tables up to n, built from arith's smallest prime factors: the
    int32 cube-free kernel K, the lift L with K2 = K*L (the p >= 5 with
    v_p = 1 (mod 3), and 4 or 9 when v_2 or v_3 is), M and M2, M capped at
    n + 1; spf itself up to n + 1, to factor the mirror rows; and the mirror
    index, each y <= n as K(y)*2^32 + y, sorted."""

    def __init__(self, n: int):
        import numpy as np

        # spf[m] = m at the primes and at 0
        spf = smallest_prime_factors(n + 1)
        primes = np.flatnonzero(spf[: n + 1] == np.arange(n + 1, dtype=np.int32))[1:]
        kern, lift, top, second = (np.ones(n + 1, dtype=np.int32) for _ in range(4))
        small = primes[(primes * primes <= n) | (primes < 5)]
        for p in small.tolist():
            # e[i] = v_p(m) mod 3 for the multiple m = (i + 1)p: the multiples of
            # p^v are e[p^(v-1) - 1 :: p^(v-1)]
            e = np.ones(n // p, dtype=np.int8)
            r, v = p, 2
            while r * p <= n:
                e[r - 1 :: r] = v % 3
                r, v = r * p, v + 1
            # by e: the prime power of K2 and the factors of K and L
            q = np.array((1, p * p, p if p >= 5 else 1), dtype=np.int32)[e]
            if p >= 5:
                kern[p::p] *= np.array((1, p, p), dtype=np.int32)[e]
                lift[p::p] *= np.array((1, p, 1), dtype=np.int32)[e]
            else:
                lift[p::p] *= q
                np.minimum(q, n + 1, out=q)
            t, s = top[p::p], second[p::p]
            np.maximum(s, np.minimum(t, q), out=s)
            np.maximum(t, q, out=t)
        # a prime p >= 5 with p^2 > n divides each multiple m = kp <= n once and
        # is its largest prime factor, so M(m) = p^2 > n: all such p per k
        large = primes[small.size :]
        for k in range(1, n // int(large[0]) + 1 if large.size else 1):
            P = large[: large.searchsorted(n // k, "right")]
            m = k * P
            kern[m] *= P
            lift[m] *= P
            second[m] = top[m]
            top[m] = n + 1
        # one int64 key per y, so one searchsorted finds each (K(y), y) range:
        # the 8 bytes an int32 order of y and an int32 sorted K would take
        index = kern.astype(np.int64)
        index <<= 32
        index |= np.arange(n + 1, dtype=np.int32)
        index.sort()
        self.spf, self.kern, self.lift, self.top, self.second, self.index = (
            spf, kern, lift, top, second, index)

    def walks(self, lo: int, hi: int):
        """The CRT walks of the rows lo <= x < hi, as the int64 arrays
        (x, P, R, start, n) that _blocks takes: one entry per class with a y
        in [2, x]."""
        import numpy as np

        x = np.flatnonzero(self.top[lo:hi] <= np.arange(lo, hi)) + lo
        M, M2 = self.top[x].astype(np.int64), self.second[x].astype(np.int64)
        P = M * M2
        R = self.kern[x] * self.lift[x].astype(np.int64) // P
        # e = 0 (mod M), 1 (mod M2), so c = a (mod M), b (mod M2); the
        # classes (a, b) = (0, 0), (1, 0), (-1, 0), (0, 1), ... in this
        # order, so M2 = 1 keeps the first 3 and M = 1 the first
        e = M * _inverse(M, M2)
        a, b = np.array((0, 1, -1) * 3)[:, None], np.repeat((0, 1, -1), 3)[:, None]
        c = (a + (b - a) * e) % P
        # each class walks start, start + P, ... up to x from its least y >= 2;
        # on the (9, rows) layout, with n = 0 for the classes a row does not keep
        start = c - P * ((c - 2) // P)
        used = np.arange(9)[:, None] < np.where(M == 1, 1, np.where(M2 == 1, 3, 9))
        n = np.where(used, (x - start) // P + 1, 0)
        i = np.flatnonzero(n > 0)
        w = i % x.size
        return x[w], P[w], R[w], start.ravel()[i], n.ravel()[i]

    def mirror(self, rows):
        """The mirror sets of the rows, as the int64 arrays (x, 1, K2(x),
        start, n) that _blocks takes with table=self.index: one entry per
        squarefree d <= x made of the primes p >= 5 of (x - 1)x(x + 1) that
        has a y in [2, x] with K(y) = d."""
        import numpy as np

        spf, xs, ds = self.spf, [], []
        for x in rows.tolist():
            divisors = [1]
            for m in (x - 1, x, x + 1):
                while m > 1:
                    p = spf.item(m)
                    m //= p
                    while m % p == 0:
                        m //= p
                    if p >= 5:
                        divisors += [d * p for d in divisors if d * p <= x]
            xs += [x] * len(divisors)
            ds += divisors
        x, d = np.array(xs, dtype=np.int64), np.array(ds, dtype=np.int64) << 32
        start = self.index.searchsorted(d + 2)
        n = self.index.searchsorted(d + x, "right") - start
        x, start, n = x[n > 0], start[n > 0], n[n > 0]
        return x, np.ones_like(x), self.kern[x] * self.lift[x].astype(np.int64), start, n


def _blocks(x, P, R, start, n, table=None):
    """The y = start, start + P, ... (n terms) of each row x, as int64 arrays
    X, Y, R of fewer than 2*_BLOCK pairs each, R the row's R repeated; with a
    table, each such y is the low 32 bits of table[start + jP]. _candidates
    applies each side's filter."""
    import numpy as np

    # walks longer than a block are cut into pieces of at most _BLOCK
    k = (n - 1) // _BLOCK + 1
    if k.max(initial=0) > 1:
        w = np.repeat(np.arange(n.size), k)
        j = (np.arange(w.size) - np.repeat(np.cumsum(k) - k, k)) * _BLOCK
        x, P, R, start, n = x[w], P[w], R[w], start[w] + j * P[w], np.minimum(n[w] - j, _BLOCK)
    at = np.cumsum(n) - n
    stop = start + (n - 1) * P
    cuts = np.flatnonzero(np.diff(at // _BLOCK, prepend=-1)).tolist() + [n.size]
    for u, v in zip(cuts, cuts[1:]):
        # y as a cumulative sum of steps: P inside a walk, and at its
        # start the jump from the end of the walk before
        Y = np.repeat(P[u:v], n[u:v])
        Y[at[u:v] - at[u]] = start[u:v] - np.concatenate(([0], stop[u : v - 1]))
        np.cumsum(Y, out=Y)
        if table is not None:
            Y = table[Y] & 0xFFFFFFFF
        yield np.repeat(x[u:v], n[u:v]), Y, np.repeat(R[u:v], n[u:v])


def _candidates(sieve: _Sieve, lo: int, hi: int):
    """The pairs of the rows lo <= x < hi that pass both conditions, as blocks
    X, Y of _blocks: each row's walk or mirror set, whichever is smaller.

    Each filter compresses X and Y once, by one index. The walk keeps the y
    with K(y) | x(x^2 - 1) and, where R(x) > 1, y(y^2 - 1) = 0 mod R(x),
    both tests filling one array; the mirror set keeps the y with
    y(y^2 - 1) = 0 mod K2(x). Over the rows 1..20,025 the walks generate
    124,656 pairs (26,965 of them with R(x) > 1) and keep 22,622; the mirror
    sets generate 101,365 and keep 47,582; of those 70,204 pairs the
    cubic-residue masks pass 246 to the exact cube test.
    """
    import numpy as np

    # each side is (x, step, R, start, n); a row's size is its sum of n
    walk = sieve.walks(lo, hi)
    walked = np.bincount(walk[0] - lo, walk[4], hi - lo)
    heavy = np.flatnonzero(walked > _MIRROR_MIN)
    if heavy.size:
        mirror = sieve.mirror(heavy + lo)
        mirrored = np.zeros(hi - lo, dtype=bool)
        mirrored[heavy] = np.bincount(mirror[0] - lo, mirror[4], hi - lo)[heavy] < walked[heavy]
        i = np.flatnonzero(mirrored[mirror[0] - lo])
        for X, Y, K2 in _blocks(*(a[i] for a in mirror), table=sieve.index):
            i = np.flatnonzero(_divides(K2, Y))
            yield X[i], Y[i]
        i = np.flatnonzero(~mirrored[walk[0] - lo])
        walk = [a[i] for a in walk]
    for X, Y, R in _blocks(*walk):
        ok = _divides(sieve.kern[Y], X)
        i = np.flatnonzero(R > 1)
        ok[i] &= _divides(R[i], Y[i])
        i = np.flatnonzero(ok)
        yield X[i], Y[i]


def _search_x_range(bound: int, x_lo: int, x_hi: int, include_trivial: bool,
                    sieve: _Sieve | None = None):
    """The descent over x_lo <= x < x_hi: each row takes the smaller of its
    walk and its mirror set, each filtered by the other's condition, then the
    cubic-residue masks and an exact cube test for every survivor. Returns
    every solution in those rows, sorted."""
    import numpy as np

    sieve = sieve or _Sieve(bound)
    masks = [np.frombuffer(m, dtype=np.uint8) for m in _masks()]
    out = [(x, 1, x) for x in range(x_lo, x_hi)] if include_trivial else []
    for lo in range(x_lo, x_hi, _STRIP):
        for X, Y in _candidates(sieve, lo, min(lo + _STRIP, x_hi)):
            for m, mask in zip(_FILTER_MODULI, masks):
                xm, ym = X % m, Y % m
                i = np.flatnonzero(mask[(xm * ym % m) * ((xm * xm + ym * ym - 1) % m) % m])
                X, Y = X[i], Y[i]
            for x, y in zip(X.tolist(), Y.tolist()):
                r, exact = icbrt(x * y * (x * x + y * y - 1))
                if exact:
                    out.append((x, y, r))
    out.sort()
    return out


# set only inside pool workers, by _init_worker: each worker builds the sieve
# once for all the strips it pulls instead of receiving it with every strip
_worker_sieve: _Sieve | None = None


def _init_worker(bound: int):
    global _worker_sieve
    _worker_sieve = _Sieve(bound)


def _search_chunk(args):
    return _search_x_range(*args, sieve=_worker_sieve)


# the largest bound: the census tables are int32 and run to index bound + 1
MAX_BOUND = 2**31 - 2


def search(bound: int, include_trivial: bool = False, jobs: int = 1, progress=None,
           method: str = "numpy") -> list[SolutionXYZ]:
    """All solutions with 0 < y <= x <= bound and z >= 0, sorted by (x, y).

    With include_trivial=False the family (x, 1, x) and any z = 0 member are
    dropped. The search is the descent over x: each row tests the smaller of
    two candidate sets, each filtered exactly by the other's condition. One
    is a numpy walk, per strip of rows, over the classes y = 0, +-1 modulo
    the two largest prime powers of the lifted kernel of x (4 and 9 among
    them), filtered by the rest of it. The other is the y whose cube-free
    kernel divides x(x^2 - 1), read from an index of y sorted by that kernel.
    "numpy" is the only method; the argument stays because callers name it
    (the benchmark's census warm-up), and any other value raises ValueError.
    jobs > 1 splits the x range into strips that worker processes pull as
    they finish; results are merged and sorted, so the output is
    deterministic either way.
    """
    if not 1 <= bound <= MAX_BOUND:
        raise ValueError(f"bound must be from 1 to {MAX_BOUND}, not {bound}")
    if method != "numpy":
        raise ValueError(f"unknown search method {method!r}")
    triples: list[tuple[int, int, int]] = []
    if jobs <= 1:
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
    return [SolutionXYZ(x, y, z) for (x, y, z) in sorted(triples)]


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


def family_in_box(bound: int) -> dict[tuple[int, int, int], int]:
    """The canonical triple of each family member with x <= bound, mapped to
    its u >= 2, in order of u. The canonical x is at least u^3, and u and -u
    share an orbit."""
    out = {}
    u = 2
    while u**3 <= bound:
        if u % 3:
            member = canonical_form(mkl_to_xyz(pagliani(u))).as_tuple()
            if member[0] <= bound:
                out[member] = u
        u += 1
    return out


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
