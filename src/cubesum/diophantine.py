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


def _search_y_range(bound: int, y_lo: int, y_hi: int, include_trivial: bool,
                    method: str = "pure"):
    if method == "numpy":
        return _search_y_range_numpy(bound, y_lo, y_hi, include_trivial)
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


def _search_y_range_numpy(bound: int, y_lo: int, y_hi: int, include_trivial: bool):
    """Same strategy, vectorized: residues are computed in int64-safe modular
    arithmetic (the exact N would overflow int64 past bound ~ 2*10^4), and only
    filter survivors get an exact big-int cube test. x-residue tables are
    precomputed once per strip and sliced per y."""
    import numpy as np

    masks = [np.frombuffer(m, dtype=np.uint8) for m in _MASKS]
    xs = np.arange(1, bound + 1, dtype=np.int64)
    xm = [xs % m for m in _FILTER_MODULI]
    xm2 = [(a * a) % m for a, m in zip(xm, _FILTER_MODULI)]
    m0, mask0 = _FILTER_MODULI[0], masks[0]
    out = []
    for y in range(y_lo, y_hi):
        if y == 1 and not include_trivial:
            continue
        yy = y * y - 1
        base = y - 1  # xs[base] == y
        n_mod = (xm[0][base:] * (y % m0) % m0) * ((xm2[0][base:] + yy % m0) % m0) % m0
        keep = xs[np.nonzero(mask0[n_mod])[0] + base]
        for m, mask in zip(_FILTER_MODULI[1:], masks[1:]):
            if keep.size == 0:
                break
            km = keep % m
            n_mod = (km * (y % m) % m) * ((km * km + yy % m) % m) % m
            keep = keep[mask[n_mod] != 0]
        for xv in keep.tolist():
            n = xv * y * (xv * xv + yy)
            r, exact = icbrt(n)
            if exact:
                if r == 0 and not include_trivial:
                    continue
                out.append((xv, y, r))
    return out


def _search_chunk(args):
    return _search_y_range(*args)


# auto picks numpy from this bound on: below it the kernel's per-row overhead
# outweighs its speed (search(300): 0.0095 s pure, 0.0106 s numpy; search(1000):
# 0.117 s pure, 0.050 s numpy, on a 2-core x86-64 host)
_NUMPY_FROM_BOUND = 500


def _pick_method(bound: int, method: str) -> str:
    if method != "auto":
        return method
    if bound >= _NUMPY_FROM_BOUND:
        try:
            import numpy  # noqa: F401

            return "numpy"
        except ImportError:  # pragma: no cover
            return "pure"
    return "pure"


def search(bound: int, include_trivial: bool = False, jobs: int = 1, progress=None,
           method: str = "auto") -> list[SolutionXYZ]:
    """All solutions with 0 < y <= x <= bound and z >= 0, sorted by (x, y).

    With include_trivial=False the family (x, 1, x) and any z = 0 member are
    dropped. jobs > 1 partitions the y range across worker processes; results
    are merged and sorted, so the output is deterministic either way. method
    is "pure", "numpy", or "auto" (numpy from bound 500 on); both
    paths run the identical y-then-x strategy and are cross-checked in tests.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    method = _pick_method(bound, method)
    triples: list[tuple[int, int, int]] = []
    if jobs <= 1:
        triples = _search_y_range(bound, 1, bound + 1, include_trivial, method)
    else:
        import multiprocessing as mp

        # strips balance the load: small y rows are the longest, so workers
        # pull strips dynamically
        width = max(16, bound // (jobs * 32))
        chunks = [(bound, lo, min(lo + width, bound + 1), include_trivial, method)
                  for lo in range(1, bound + 1, width)]
        with mp.Pool(jobs) as pool:
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
