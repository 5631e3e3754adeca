import random
from collections import Counter
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubesum import diophantine
from cubesum.arith import primes_up_to
from cubesum.diophantine import (
    _BLOCK,
    _STRIP,
    SolutionMKL,
    SolutionXYZ,
    SymmetryElement,
    _blocks,
    _divides,
    _inverse,
    _search_x_range,
    _Sieve,
    apply_symmetry,
    canonical_form,
    in_pagliani_family,
    mkl_to_xyz,
    pagliani,
    pagliani_identity_residual,
    search,
    symmetry_group,
    xyz_to_mkl,
)
from reference_search import WALK_MAX, box_solutions, row_solutions, walk_solutions

family_u = st.integers(-50, 50).filter(lambda u: u % 3 != 0 and u not in (-1, 0, 1))


def test_solution_types_verify():
    SolutionMKL(3, 3, 6)
    SolutionXYZ(3, 8, 12)
    with pytest.raises(ValueError):
        SolutionMKL(3, 3, 7)
    with pytest.raises(ValueError):
        SolutionXYZ(3, 8, 13)
    with pytest.raises(ValueError):
        SolutionMKL(1, 0, 0)


def test_coordinate_change_examples():
    assert mkl_to_xyz(SolutionMKL(3, 3, 6)) == SolutionXYZ(3, 8, 12)
    assert mkl_to_xyz(SolutionMKL(-2, 8, 6)) == SolutionXYZ(8, 3, 12)
    assert mkl_to_xyz(SolutionMKL(5, 1, 5)) == SolutionXYZ(1, 10, 10)
    assert xyz_to_mkl(SolutionXYZ(3, 8, 12)) == SolutionMKL(3, 3, 6)
    assert xyz_to_mkl(SolutionXYZ(8, 3, 12)) == SolutionMKL(-2, 8, 6)


def test_xyz_to_mkl_parity_errors():
    with pytest.raises(ValueError):
        xyz_to_mkl(SolutionXYZ(1, 1, 1))  # both odd
    with pytest.raises(ValueError):
        xyz_to_mkl(SolutionXYZ(-8, 3, -12))  # x < 1


@given(family_u)
def test_roundtrip_through_xyz(u):
    sol = pagliani(u)
    if sol.k >= 1:
        assert xyz_to_mkl(mkl_to_xyz(sol)) == sol


def test_symmetry_group_order_and_involutions():
    group = symmetry_group()
    assert len(group) == 8
    probe = (3, 8, 12)
    for name in ("t1", "t2", "t3"):
        g = SymmetryElement((name, name))
        assert g.apply(probe) == probe


def test_symmetry_group_words_are_reduced():
    # breadth-first: each action keeps its shortest word, first in generator order
    words = [g.word for g in symmetry_group()]
    assert words == [(), ("t1",), ("t2",), ("t3",), ("t1", "t2"), ("t1", "t3"), ("t2", "t3"),
                     ("t1", "t2", "t3")]


def test_cached_symmetry_group_equals_a_fresh_search():
    group = symmetry_group()
    assert isinstance(group, tuple) and symmetry_group() is group
    fresh = symmetry_group.__wrapped__()  # the breadth-first search, run again
    points = [(1, 2, 3), (5, 7, 11), (-4, 9, 0)]
    assert [g.word for g in fresh] == [g.word for g in group]
    assert [[g.apply(p) for p in points] for g in fresh] == [[g.apply(p) for p in points] for g in group]
    assert len({tuple(g.apply(p) for p in points) for g in group}) == 8


def test_apply_symmetry_examples():
    assert apply_symmetry(SymmetryElement(("t3",)), SolutionXYZ(8, 3, 12)) == SolutionXYZ(3, 8, 12)
    assert apply_symmetry(SymmetryElement(("t1", "t2")), SolutionXYZ(3, 8, 12)) == SolutionXYZ(-3, -8, 12)
    assert apply_symmetry(SymmetryElement(()), SolutionXYZ(8, 3, 12)) == SolutionXYZ(8, 3, 12)


@given(family_u, st.sampled_from(range(8)))
def test_symmetry_preserves_solutions(u, gi):
    sol = mkl_to_xyz(pagliani(u))
    g = symmetry_group()[gi]
    apply_symmetry(g, sol)  # constructor re-verifies the equation


def test_canonical_form_examples():
    assert canonical_form(SolutionXYZ(-8, 3, -12)) == SolutionXYZ(8, 3, 12)
    assert canonical_form(SolutionXYZ(3, 8, 12)) == SolutionXYZ(8, 3, 12)
    assert canonical_form(SolutionXYZ(8, 3, 12)) == SolutionXYZ(8, 3, 12)


@given(family_u)
def test_canonical_form_constant_on_orbits(u):
    sol = mkl_to_xyz(pagliani(u))
    canon = canonical_form(sol)
    for g in symmetry_group():
        assert canonical_form(apply_symmetry(g, sol)) == canon


def test_search_trivial_inclusion():
    got = [s.as_tuple() for s in search(3, include_trivial=True)]
    assert got == [(1, 1, 1), (2, 1, 2), (3, 1, 3)]


def test_search_finds_812():
    got = [s.as_tuple() for s in search(12)]
    assert (8, 3, 12) in got


def test_search_output_contract():
    bound = 300
    sols = search(bound)
    seen = set()
    for s in sols:
        assert 0 < s.y <= s.x <= bound
        assert s.z > 0
        assert s.y != 1
        assert s.as_tuple() not in seen
        seen.add(s.as_tuple())
    assert [s.as_tuple() for s in sols] == sorted(s.as_tuple() for s in sols)


def test_search_parallel_matches_serial():
    serial = [s.as_tuple() for s in search(400)]
    parallel = [s.as_tuple() for s in search(400, jobs=2)]
    assert serial == parallel


def test_unknown_method_is_rejected():
    for method in ("pure", "box"):
        with pytest.raises(ValueError):
            search(10, method=method)


# every solution with 0 < y <= x <= 10^4 and y > 1
SOLUTIONS_1E4 = [
    (8, 3, 12), (25, 4, 40), (25, 20, 80), (36, 6, 66), (36, 25, 120), (49, 20, 140),
    (75, 64, 360), (120, 99, 660), (192, 125, 1080), (578, 153, 3162), (630, 49, 2310),
    (768, 343, 5712), (833, 288, 5712), (1210, 99, 5610), (1323, 512, 11088),
    (1444, 153, 7752), (3267, 1000, 33660), (4800, 1331, 54120), (7200, 6591, 165360),
    (8464, 7200, 195960), (9408, 2197, 124488),
]


def _triples(sols):
    return [s.as_tuple() for s in sols]


@pytest.mark.parametrize("bound", [1000, 3000])
def test_search_numpy_matches_the_box_oracle(bound):
    for include_trivial in (False, True):
        box = list(box_solutions(bound, include_trivial))
        assert _triples(search(bound, include_trivial=include_trivial)) == box
        assert len(box) > (bound if include_trivial else 0)  # (8, 3, 12) and more


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 1500), st.booleans())
def test_search_numpy_matches_the_box_oracle_small(bound, include_trivial):
    # the box at a smaller bound is the part of the 1500 box with x <= bound
    box = [t for t in box_solutions(1500, include_trivial) if t[0] <= bound]
    assert _triples(search(bound, include_trivial=include_trivial)) == box


def test_search_numpy_x_strips_match_serial():
    for include_trivial in (False, True):
        serial = search(3000, include_trivial=include_trivial)
        assert search(3000, include_trivial=include_trivial, jobs=2) == serial
        assert _triples(serial) == list(box_solutions(3000, include_trivial))


@pytest.mark.parametrize("strip, bound", [(1, 300), (7, 3000), (64, 3000)])
def test_search_numpy_strip_boundaries(monkeypatch, strip, bound):
    # a strip of _STRIP rows holds the bounds above whole, so narrow strips
    # put many boundaries in one box: rows walked or mirrored, the trivial
    # family and the solutions must not depend on where a strip ends
    monkeypatch.setattr(diophantine, "_STRIP", strip)
    for include_trivial in (False, True):
        box = [t for t in box_solutions(3000, include_trivial) if t[0] <= bound]
        assert _triples(search(bound, include_trivial=include_trivial)) == box


def test_box_oracle_refuses_workers_that_cannot_reimport_main(monkeypatch):
    # a script read from stdin has the __file__ '<stdin>': spawned workers could
    # not re-import it, so the oracle must raise before it makes a pool
    import multiprocessing
    import sys
    import types

    def no_context(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    main = types.ModuleType("__main__")
    main.__file__ = "<stdin>"
    monkeypatch.setitem(sys.modules, "__main__", main)
    monkeypatch.setattr(multiprocessing, "get_context", no_context)
    with pytest.raises(RuntimeError, match="<stdin>"):
        box_solutions(50, jobs=2)


def test_search_numpy_at_1e4_matches_the_pinned_census():
    assert list(box_solutions(10**4)) == SOLUTIONS_1E4
    assert _triples(search(10**4, method="numpy")) == SOLUTIONS_1E4


def test_walk_oracle_matches_the_box_oracle_at_1e4():
    # the lemma's classes hold every solution the whole box holds: this checks
    # the lemma as well as the walk oracle the extended census tests lean on
    assert list(walk_solutions(10**4)) == list(box_solutions(10**4)) == SOLUTIONS_1E4


def test_walk_oracle_refuses_bounds_past_its_exact_cube_test():
    for bound in (0, WALK_MAX + 1):
        with pytest.raises(ValueError, match="bound"):
            walk_solutions(bound)
    assert walk_solutions(1) == ()


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_cube_free_support_lemma_on_the_oracle():
    # p >= 5 with 3 not dividing v_p(x) forces y = 0, 1 or -1 (mod p), and any
    # p with v_p(x) = 1 (mod 3) forces it mod p^2: y mod 4 in {0, 1, 3}, y mod 9
    # in {0, 1, 8}; the same with x and y swapped: the descent tests only such
    # pairs
    primes = primes_up_to(3000)
    sols = box_solutions(3000, True)
    assert len(sols) > 3000  # the trivial family is in
    lifted = Counter()
    for x, y, _ in sols:
        for a, b in ((x, y), (y, x)):
            for p in primes:
                v = _valuation(a, p) % 3
                if v and p >= 5:
                    assert b % p in (0, 1, p - 1), (x, y, p)
                if v == 1:
                    assert b % (p * p) in (0, 1, p * p - 1), (x, y, p)
                    lifted[min(p, 5)] += b > 1
    # not only the trivial family meets the lifted test, at 2, at 3 and above
    assert lifted[5] >= 10 and min(lifted[2], lifted[3]) >= 4, lifted


@st.composite
def _lifted_counterexample_candidates(draw):
    # x with v_p(x) = 1 (mod 3), y not in {0, +-1} (mod p^2); y is often drawn
    # in the classes 0, +-1 (mod p), where the condition mod p still holds
    p = draw(st.sampled_from(primes_up_to(200)))
    u = draw(st.integers(1, 10**6).filter(lambda u: u % p))
    x = p ** (3 * draw(st.integers(0, 2)) + 1) * u
    c = draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(0, p - 1)))
    y = (draw(st.integers(0, 10**6)) * p + draw(st.integers(0, p - 1))) * p + c
    assume(y > 0 and y % (p * p) not in (0, 1, p * p - 1))
    return x, y, p


@given(_lifted_counterexample_candidates())
def test_lifted_valuation_is_not_a_multiple_of_3(case):
    x, y, p = case
    assert _valuation(x * y * (x * x + y * y - 1), p) % 3 != 0


def _factor(m):
    out, d = {}, 2
    while d * d <= m:
        if m % d == 0:
            out[d] = _valuation(m, d)
            m //= d ** out[d]
        d += 1
    if m > 1:
        out[m] = 1
    return out


def _lifted(m):
    """K(m), the prime powers of K2(m), and M(m) >= M2(m), the largest two
    (1 if absent), by trial division, reading no sieve."""
    kernel, powers = 1, []
    for p, v in _factor(m).items():
        if p >= 5 and v % 3:
            kernel *= p
        if v % 3 == 1 or (p >= 5 and v % 3 == 2):
            powers.append(p ** (3 - v % 3))
    M, M2 = (sorted(powers, reverse=True) + [1, 1])[:2]
    return kernel, powers, M, M2


def test_sieve_tables_match_trial_division():
    for n in [*range(1, 30), 3000]:
        sieve = _Sieve(n)
        for m in range(1, n + 1):
            K, powers, M, M2 = _lifted(m)
            got = (sieve.kern[m], sieve.kern[m] * sieve.lift[m], sieve.top[m], sieve.second[m])
            assert got == (K, prod(powers), min(M, n + 1), M2), (n, m)


def _brute_row(x):
    """The 2 <= y <= x with y = 0, 1 or -1 mod every prime power of K2(x)."""
    powers = _lifted(x)[1]
    out = []
    for lo in range(2, x + 1, 10**6):
        ys = np.arange(lo, min(lo + 10**6, x + 1), dtype=np.int64)
        for q in powers:
            r = ys % q
            ys = ys[(r == 0) | (r == 1) | (r == q - 1)]
        out += ys.tolist()
    return out


def _walk(sieve, x_lo, x_hi):
    """The blocks of pairs the sieve walks for x_lo <= x < x_hi, strip by strip."""
    for lo in range(x_lo, x_hi, _STRIP):
        yield from _blocks(*sieve.walks(lo, min(lo + _STRIP, x_hi)))


def _rows(pairs):
    """The pairs of the blocks, by row: {x: sorted y}, {x: blocks it spans}."""
    rows, blocks = {}, Counter()
    for X, Y in pairs:
        assert X.size == Y.size < 2 * _BLOCK
        for x in set(X.tolist()):
            rows.setdefault(x, []).extend(Y[X == x].tolist())
            blocks[x] += 1
    return {x: sorted(ys) for x, ys in rows.items()}, blocks


def _largest_prime_is_cubed(x):
    f = _factor(x)
    p = max(f, default=0)
    return p >= 5 and f[p] % 3 == 0


def _branch(x):
    _, powers, M, M2 = _lifted(x)
    if M > x:
        return "skipped"
    return "M = 1" if M == 1 else "M2 = 1" if M2 == 1 else "R = 1" if prod(powers) == M * M2 else "R > 1"


def test_rows_match_brute_force():
    # every row at bounds 1..29 and x <= 3000 in one call, then single rows up
    # to 2*10^5; 2^17 has K2 = 1, and its one walk is cut into 2^17 / _BLOCK pieces
    for n in range(1, 30):
        assert _rows(_walk(_Sieve(n), 1, n + 1))[0] == {x: row for x in range(1, n + 1) if (row := _brute_row(x))}
    got, blocks = _rows(_walk(_Sieve(3000), 1, 3001))
    xs = list(range(1, 3001))
    for x in xs:
        assert got.get(x, []) == _brute_row(x), x
    assert max(blocks.values()) >= 2  # a row split between blocks
    big = _Sieve(2 * 10**5)
    rng = random.Random(2026)
    extra = [2**17, 5 * 7**3 * 64, 11**3 * 13, 5 * 7 * 11 * 13 * 17, 2 * 3 * 5 * 7 * 11 * 13]
    for x in extra + [rng.randrange(3001, 2 * 10**5) for _ in range(200)]:
        assert _rows(_walk(big, x, x + 1))[0].get(x, []) == _brute_row(x), x
        xs.append(x)
    assert _rows(_walk(big, 2**17, 2**17 + 1))[1][2**17] == 2**17 // _BLOCK
    branches = Counter(_branch(x) for x in xs)
    assert min(branches[b] for b in ("skipped", "M2 = 1", "R = 1", "R > 1")) >= 50, branches
    assert branches["M = 1"] >= 10, branches
    # rows whose largest prime p has 3 | v_p(x), so M comes from a smaller prime
    assert sum(_largest_prime_is_cubed(x) for x in xs) >= 5


@pytest.mark.extended
def test_rows_match_brute_force_up_to_1e7():
    # the sieve at 10^7 takes about 200 MB; seeded rows, and rows of each branch
    sieve = _Sieve(10**7)
    rng = random.Random(10**7)
    xs = [10**7, 2**23, 3**5 * 2**2 * 5**2 * 7**3, 3 * 5 * 7 * 11 * 13 * 17 * 19, 9 * 7 * 11 * 13 * 17 * 19 * 23]
    xs += [rng.randrange(2 * 10**5, 10**7) for _ in range(60)]
    for x in xs:
        assert _rows(_walk(sieve, x, x + 1))[0].get(x, []) == _brute_row(x), x
    assert {_branch(x) for x in xs} >= {"skipped", "M = 1", "M2 = 1", "R > 1"}


def _kernels(n):
    """K(y) for every y <= n by trial division, on numpy arrays: each d up to
    sqrt(n) in turn (a composite d divides nothing the primes below it left),
    and the cofactor left at the end is 1 or a prime. Reads no sieve."""
    rest = np.arange(n + 1, dtype=np.int64)
    kern = np.ones(n + 1, dtype=np.int64)
    for d in range(2, isqrt(n) + 1):
        v = np.zeros(n + 1, dtype=np.int64)
        hit = np.flatnonzero(rest % d == 0)[1:]
        while hit.size:
            rest[hit] //= d
            v[hit] += 1
            hit = hit[rest[hit] % d == 0]
        if d >= 5:
            kern[v % 3 != 0] *= d
    big = rest >= 5
    kern[big] *= rest[big]
    return kern


def _mirror_rows(sieve, rows, filtered):
    """The mirror sets of the rows, {x: sorted y}, filtered by
    y(y^2 - 1) = 0 mod K2(x) as the search filters them, or not."""
    x, P, K2, start, n = sieve.mirror(np.array(rows))
    return _rows(_blocks(x, P, K2 if filtered else np.ones_like(K2), start, n, table=sieve.index))[0]


def test_mirror_sets_match_trial_division():
    # every x <= 3000, then the 8 heaviest rows below 2*10^5 (K2(x) = 1, so the
    # walk takes every y): the mirror set is {2 <= y <= x : K(y) | x(x^2 - 1)},
    # and the walk and the mirror set, each filtered by the other's condition,
    # give the same pairs, which the search then tests
    kern = _kernels(2 * 10**5)
    for n, rows in ((3000, list(range(1, 3001))), (2 * 10**5, None)):
        sieve = _Sieve(n)
        if rows is None:
            rows = np.nonzero(sieve.top == 1)[0][-8:].tolist()
            assert rows[0] > 10**5 and all(_lifted(x)[1] == [] for x in rows)
        mirror, filtered = _mirror_rows(sieve, rows, False), _mirror_rows(sieve, rows, True)
        walked = {}
        for x in rows:
            for X, Y in _walk(sieve, x, x + 1):
                keep = _divides(sieve.kern[Y], X)
                walked.setdefault(x, []).extend(sorted(Y[keep].tolist()))
        for x in rows:
            ys = np.arange(2, x + 1, dtype=np.int64)
            assert mirror.get(x, []) == ys[x * (x * x - 1) % kern[2 : x + 1] == 0].tolist(), x
            assert filtered.get(x, []) == walked.get(x, []), x
        assert sum(map(len, walked.values())) >= 1000
        if n > 3000:
            # the walk takes all x - 1 values of y, so the search takes the mirror set
            assert all(len(mirror[x]) < x - 1 for x in rows)


def test_divides_is_exact():
    # both regimes, every r <= 2^32 and some r up to 2^62, against Python
    # integers; the extra pairs (r, y, r | y(y^2 - 1)) are near the edges
    rng = random.Random(97)
    small = 4 * 9 * 25 * 49 * 121 * 169
    for top, extra in ((2**32, [(small, small, True), (small, 2 * small - 1, True), (small, 2 * small + 3, False)]),
                       (2**62, [((2**31 - 1) * 2**31, 2**31 - 1, True), (2**62, 2**31 - 1, False)])):
        pairs = [(rng.choice([rng.randrange(1, top), rng.randrange(1, 10**4)]), rng.randrange(2**31))
                 for _ in range(3000)] + [(r, y) for r, y, _ in extra]
        r, y = (np.array(c, dtype=np.int64) for c in zip(*pairs))
        got = _divides(r, y).tolist()
        assert got == [a * (a * a - 1) % b == 0 for b, a in pairs]
        assert got[-len(extra) :] == [d for *_, d in extra]
        assert sum(got) >= 10


def test_inverse_matches_pow():
    rng = random.Random(31)
    pairs = [(a, m) for a, m in ((rng.randrange(1, 10**12), rng.choice([1, 4, 9, rng.randrange(2, 10**6)]))
                                 for _ in range(3000)) if gcd(a, m) == 1]
    pairs += [(1, 1), (7, 1), (5, 4), (121, 9), (2, 3)]
    a, m = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    assert _inverse(a, m).tolist() == [pow(a, -1, m) for a, m in pairs]


def test_descent_rows_match_the_lemma_free_scan():
    # the heaviest rows, K2(x) = 1, whose walk would take every y, so the
    # descent takes their mirror sets; rows that hold census solutions; and
    # seeded random rows, most of them skipped
    sieve = _Sieve(10**6)
    heaviest = np.nonzero(sieve.top == 1)[0][-8:].tolist()
    with_solutions = [85340, 223109, 348843, 555025, 694083, 852267, 940800, 991875]
    rng = random.Random(1729)
    rows = heaviest + with_solutions + [rng.randrange(10**5, 10**6) for _ in range(8)]
    assert len(set(rows)) == 24 and heaviest[0] > 9 * 10**5
    found = 0
    for x in rows:
        expected = row_solutions(x)
        assert _search_x_range(10**6, x, x + 1, False, sieve) == expected, x
        found += len(expected)
    assert found >= 9  # 555025 holds two


def test_pagliani_examples():
    assert pagliani(2) == SolutionMKL(-2, 8, 6)
    assert pagliani(4) == SolutionMKL(6, 64, 180)
    with pytest.raises(ValueError):
        pagliani(3)
    with pytest.raises(ValueError):
        pagliani(0)
    with pytest.raises(ValueError):
        pagliani(1)


def test_pagliani_canonical_member():
    canon = canonical_form(mkl_to_xyz(pagliani(2)))
    assert canon == SolutionXYZ(8, 3, 12)
    # the nonnegative consecutive-cube statement in the orbit: 3^3+4^3+5^3=6^3
    swapped = apply_symmetry(SymmetryElement(("t3",)), canon)
    assert xyz_to_mkl(swapped) == SolutionMKL(3, 3, 6)


@given(family_u)
def test_pagliani_negates_to_same_orbit(u):
    a = canonical_form(mkl_to_xyz(pagliani(u)))
    b = canonical_form(mkl_to_xyz(pagliani(-u)))
    assert a == b


def test_pagliani_symbolic_identity():
    assert pagliani_identity_residual().is_zero()


def test_in_pagliani_family():
    assert in_pagliani_family(mkl_to_xyz(pagliani(2))) == 2
    assert in_pagliani_family(SolutionXYZ(8, 3, 12)) == 2
    assert in_pagliani_family(SolutionXYZ(1, 1, 1)) is None
    assert in_pagliani_family(SolutionXYZ(25, 4, 40)) is None
    for u in (4, 5, 7, 8):
        assert in_pagliani_family(mkl_to_xyz(pagliani(u))) == u
