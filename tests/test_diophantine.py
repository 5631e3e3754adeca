import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesum.arith import primes_up_to
from cubesum.diophantine import (
    SolutionMKL,
    SolutionXYZ,
    SymmetryElement,
    _Sieve,
    apply_symmetry,
    canonical_form,
    in_pagliani_family,
    mkl_to_xyz,
    orbit,
    pagliani,
    pagliani_identity_residual,
    search,
    symmetry_group,
    xyz_to_mkl,
)

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


def test_pure_method_rejects_worker_processes():
    with pytest.raises(ValueError):
        search(10, method="pure", jobs=2)


def test_unknown_method_is_rejected():
    with pytest.raises(ValueError):
        search(10, method="box")


# every solution with 0 < y <= x <= 10^4 and y > 1, from method="pure" (14 s)
SOLUTIONS_1E4 = [
    (8, 3, 12), (25, 4, 40), (25, 20, 80), (36, 6, 66), (36, 25, 120), (49, 20, 140),
    (75, 64, 360), (120, 99, 660), (192, 125, 1080), (578, 153, 3162), (630, 49, 2310),
    (768, 343, 5712), (833, 288, 5712), (1210, 99, 5610), (1323, 512, 11088),
    (1444, 153, 7752), (3267, 1000, 33660), (4800, 1331, 54120), (7200, 6591, 165360),
    (8464, 7200, 195960), (9408, 2197, 124488),
]


@pytest.fixture(scope="module")
def pure_3000():
    return {t: search(3000, include_trivial=t, method="pure") for t in (False, True)}


@pytest.mark.parametrize("bound", [1000, 3000])
def test_search_numpy_matches_pure(bound, pure_3000):
    for include_trivial in (False, True):
        if bound == 3000:
            pure = pure_3000[include_trivial]
        else:
            pure = search(bound, include_trivial=include_trivial, method="pure")
        assert pure == search(bound, include_trivial=include_trivial, method="numpy")
        assert len(pure) > (bound if include_trivial else 0)  # (8, 3, 12) and more


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 1500), st.booleans())
def test_search_numpy_matches_pure_small(bound, include_trivial):
    pure = search(bound, include_trivial=include_trivial, method="pure")
    assert pure == search(bound, include_trivial=include_trivial, method="numpy")


def test_search_numpy_x_strips_match_serial():
    serial = search(3000, method="numpy")
    assert search(3000, method="numpy", jobs=2) == serial
    assert search(3000, method="numpy", include_trivial=True, jobs=2) == search(
        3000, method="numpy", include_trivial=True)


def test_search_numpy_at_1e4_matches_the_pinned_census():
    assert [s.as_tuple() for s in search(10**4, method="numpy")] == SOLUTIONS_1E4


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_cube_free_support_lemma_on_the_oracle(pure_3000):
    # p >= 5 with 3 not dividing v_p(x) forces y = 0, 1 or -1 (mod p), and the
    # same with x and y swapped: the descent tests only such pairs
    primes = [p for p in primes_up_to(3000) if p >= 5]
    sols = pure_3000[True]
    assert len(sols) > 3000  # the trivial family is in
    for s in sols:
        for a, b in ((s.x, s.y), (s.y, s.x)):
            for p in primes:
                if a % p == 0 and _valuation(a, p) % 3:
                    assert b % p in (0, 1, p - 1), (s, p)


def test_sieve_tables_match_trial_division():
    # the kernel oracle factors m by trial division, reading no sieve
    n = 3000
    sieve = _Sieve(n)
    for m in range(2, n + 1):
        kernel, rest, d = 1, m, 2
        while rest > 1:
            if rest % d == 0:
                v = _valuation(rest, d)
                if d >= 5 and v % 3:
                    kernel *= d
                rest //= d**v
            d += 1
        assert sieve.kern[m] == kernel, m
    for K in (1, 5, 7, 35, 385, 455, 1001, 2431):
        assert sieve.residues(K) == [r for r in range(K) if r * (r * r - 1) % K == 0]


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
