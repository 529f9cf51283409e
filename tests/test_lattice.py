"""Lattice arithmetic contracts, checked against brute-force oracles."""

import hashlib
import itertools
import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricface.lattice as lattice_mod
from conftest import full_lattice
from toricface.lattice import _coreduce
from toricface.lattice import (
    LatticeBasis,
    combine,
    content,
    det_int,
    dot,
    elementary_divisors,
    hnf,
    identity,
    intersect,
    is_zero,
    kernel_basis,
    kernel_mod,
    lattice_equal,
    lattice_from_rows,
    left_kernel_basis,
    mat_mul,
    mat_vec,
    quotient_invariants,
    rank_int,
    rank_mod,
    rational_coords,
    reduce_mod_lattice,
    snf,
    solve_in_lattice,
    unimodular_inverse,
    vadd,
    vec,
    vneg,
    vscale,
    vsub,
)


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


# --- oracles -----------------------------------------------------------

def oracle_membership(basis, v, box):
    """Exhaustive search for integer coefficients within a box."""
    k = len(basis)
    d = len(v)
    for coeffs in itertools.product(range(-box, box + 1), repeat=k):
        if all(sum(coeffs[i] * basis[i][j] for i in range(k)) == v[j] for j in range(d)):
            return list(coeffs)
    return None


def oracle_coset_count(sub_rows, box):
    """Count cosets of the 2-dim sublattice by canonical reduction of a box."""
    L = lattice_from_rows(2, sub_rows)
    seen = set()
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            seen.add(reduce_mod_lattice(L, (x, y)))
    return len(seen)


def rank_mod_oracle(M, p):
    """Rank over F_p by Gauss-Jordan elimination."""
    R = [[x % p for x in row] for row in M]
    rank = 0
    for c in range(len(R[0]) if R else 0):
        pr = next((i for i in range(rank, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[rank], R[pr] = R[pr], R[rank]
        inv = pow(R[rank][c], p - 2, p)
        R[rank] = [x * inv % p for x in R[rank]]
        for i in range(len(R)):
            if i != rank and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[rank])]
        rank += 1
    return rank


def random_product(rng, m, n, k):
    """An m x n matrix of rank at most k, with scaled factors for torsion."""
    A = random_matrix(rng, m, k, -3, 3)
    B = random_matrix(rng, k, n, -3, 3)
    B = [[rng.choice((1, 1, 2, 3, 5, 6)) * x for x in row] for row in B]
    return mat_mul(A, B) if k else [[0] * n for _ in range(m)]


# --- SNF / HNF contracts ----------------------------------------------

def test_snf_contract_random():
    rng = random.Random(20240811)
    for trial in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        res = snf(A)
        assert mat_mul(mat_mul([list(r) for r in res.U], A), [list(r) for r in res.V]) == [
            list(r) for r in res.D
        ]
        assert abs(det_int([list(r) for r in res.U])) == 1
        assert abs(det_int([list(r) for r in res.V])) == 1
        divs = res.divisors
        assert all(d > 0 for d in divs)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        # off-diagonal entries vanish
        for i, row in enumerate(res.D):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def test_is_prime_matches_sympy():
    """Miller-Rabin on the first 13 prime bases against sympy: every n up
    to 10^4, seeded large integers, primes and semiprimes, and the strong
    pseudoprimes to the first 4 and the first 9 prime bases.  Numbers at
    or above the limit where those bases decide are refused."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(26)
    limit = lattice_mod._PRIME_LIMIT
    ns = [*range(-2, 10**4 + 1), 3215031751, 3825123056546413051,
          10**14 + 31, 10**18 + 3, limit - 1]
    for _ in range(300):
        x = rng.randrange(10**4, limit)
        p = int(sympy.nextprime(rng.randrange(2, 10**12)))
        q = int(sympy.nextprime(rng.randrange(2, 10**12)))
        ns += [x, x | 1, int(sympy.prevprime(x)), p * q]
    for n in ns:
        assert lattice_mod.is_prime(n) == sympy.isprime(n), n
    for n in (limit, limit + 2, 10**30):
        with pytest.raises(ValueError, match="cannot decide"):
            lattice_mod.is_prime(n)


def test_snf_divisors_match_sympy():
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(909)
    for trial in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        if trial % 3:
            A = random_matrix(rng, m, n)
        else:
            # a product through k columns has rank at most k
            k = rng.randint(1, min(m, n))
            A = mat_mul(random_matrix(rng, m, k, -3, 3),
                        random_matrix(rng, k, n, -3, 3))
        S = smith_normal_form(Matrix(A), domain=ZZ)
        theirs = [abs(int(S[i, i])) for i in range(min(m, n)) if S[i, i] != 0]
        assert list(snf(A).divisors) == theirs, A


def test_hnf_contract_random():
    rng = random.Random(48813)
    for trial in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        res = hnf(A)
        assert mat_mul([list(r) for r in res.U], A) == [list(r) for r in res.H]
        assert abs(det_int([list(r) for r in res.U])) == 1
        last_col = -1
        for row, col in res.pivots:
            assert col > last_col
            last_col = col
            p = res.H[row][col]
            assert p > 0
            for i in range(row):
                assert 0 <= res.H[i][col] < p
            for i in range(row + 1, m):
                assert res.H[i][col] == 0


def test_smith_and_hermite_transforms_are_pinned():
    """The transforms themselves, not only the divisors, are fixed: a new
    pivot order would change U and V and keep every divisor, which the
    comparison with sympy cannot see.  The digest covers snf's (D, U, V)
    and hnf's (H, U, pivots) on 500 seeded matrices up to 6 x 6, half of
    them low-rank products with torsion."""
    rng = random.Random(52310)
    h = hashlib.sha256()
    for trial in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = (random_matrix(rng, m, n) if trial % 2
             else random_product(rng, m, n, rng.randint(0, min(m, n))))
        s, t = snf(A), hnf(A)
        h.update(repr((s.D, s.U, s.V, t.H, t.U, t.pivots)).encode())
    assert h.hexdigest() == (
        "cbe051cc8a26102da141e3a9466725785b212d9b1b63d5775a2d9ffe5eaaa464")


def test_snf_known_values():
    assert snf([[2, 0], [0, 3]]).divisors == (1, 6)
    assert snf([[1, 0], [0, 1]]).divisors == (1, 1)
    assert snf([[4]]).divisors == (4,)
    assert snf([[0, 0], [0, 0]]).divisors == ()
    assert snf([[2, 4], [6, 8]]).divisors == (2, 4)


def test_kernel_basis_random():
    rng = random.Random(7)
    for trial in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = random_matrix(rng, m, n, -5, 5)
        ker = kernel_basis(A, n)
        for v in ker:
            assert all(x == 0 for x in mat_vec(A, v))
        assert len(ker) == n - rank_int(A)


def test_unimodular_inverse():
    rng = random.Random(99)
    for trial in range(50):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n, -4, 4)
        U = snf(A).U
        inv = unimodular_inverse(U)
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul([list(r) for r in U], inv) == eye


def test_unimodular_inverse_rejects_other_matrices():
    for M in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[3]], [[0]]):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(M)


# --- membership / solving ----------------------------------------------

def test_solve_in_lattice_vs_enumeration():
    rng = random.Random(314159)
    for trial in range(120):
        d = rng.randint(1, 3)
        k = rng.randint(1, d)
        L = lattice_from_rows(d, random_matrix(rng, k, d, -3, 3))
        v = tuple(rng.randint(-6, 6) for _ in range(d))
        got = solve_in_lattice(L, v)
        expected = oracle_membership(L.basis, v, 8) if L.basis else None
        if expected is None and not L.basis:
            expected = [] if all(x == 0 for x in v) else None
        if got is None:
            assert expected is None
        else:
            recon = tuple(
                sum(got[i] * L.basis[i][j] for i in range(len(L.basis)))
                for j in range(d)
            )
            assert recon == v


def test_solve_in_lattice_made_solutions():
    rng = random.Random(2718)
    for trial in range(120):
        d = rng.randint(1, 4)
        k = rng.randint(1, d)
        L = lattice_from_rows(d, random_matrix(rng, k, d, -4, 4))
        coeffs = [rng.randint(-5, 5) for _ in range(L.rank)]
        v = tuple(
            sum(coeffs[i] * L.basis[i][j] for i in range(L.rank)) for j in range(d)
        )
        got = solve_in_lattice(L, v)
        assert got is not None
        recon = tuple(
            sum(got[i] * L.basis[i][j] for i in range(L.rank)) for j in range(d)
        )
        assert recon == v


def _in_lattice_by_rational_coords(L, v):
    """v = sum (c_i / den) b_i over independent b_i, so v is in L exactly
    when den divides every c_i; contains is not called."""
    coords = rational_coords(L, v)
    return coords is not None and all(c % coords[1] == 0 for c in coords[0])


def _in_lattice_by_smith_image(L, v):
    """Every row of the full Smith image U*v: zero past the rank, and row i
    divisible by the divisor d_i, rows of divisor 1 included."""
    if not L.basis:
        return is_zero(v)
    res = L.col_snf
    uv = mat_vec(res.U, v)
    return (not any(uv[res.rank:])
            and all(x % d == 0 for x, d in zip(uv, res.divisors)))


def test_contains_matches_solve_in_lattice():
    """contains reads only the membership rows that can fail: the rows of
    U past the rank and those of divisor d > 1, so a saturated lattice of
    rank k tests d - k equations.  It agrees with the full Smith image,
    with rational coordinates (neither calls contains) and with the
    back-substituted solve on seeded lattices: the empty basis, rank < d,
    non-saturated lattices from dependent rows, and vectors off the span,
    in the saturation and not."""
    rng = random.Random(19072)
    seen = set()
    for trial in range(300):
        d = rng.randint(1, 4)
        m = rng.randint(0, d + 2)
        rows = random_product(rng, m, d, rng.randint(0, min(m, d)))
        L = lattice_from_rows(d, rows)
        # the saturation Z^d ∩ span L is the kernel of the kernel
        sat = kernel_basis(kernel_basis(L.basis, d), d)
        saturated = lattice_equal(L, LatticeBasis(d, tuple(map(tuple, sat))))
        seen.add(("empty" if not L.basis else "rank < d" if L.rank < d
                  else "full rank", "dependent rows" if m > L.rank else
                  "independent rows",
                  "saturated" if saturated else "not saturated"))
        if saturated:
            assert len(L._membership_rows) == d - L.rank, L
        for _ in range(12):
            shift = tuple(rng.randint(-1, 1) for _ in range(d))
            for v in (combine([rng.randint(-4, 4) for _ in L.basis],
                              L.basis, d),
                      combine([rng.randint(-4, 4) for _ in sat], sat, d),
                      vadd(combine([rng.randint(-4, 4) for _ in L.basis],
                                   L.basis, d), shift),
                      tuple(rng.randint(-9, 9) for _ in range(d))):
                got = L.contains(v)
                assert got == _in_lattice_by_smith_image(L, v), (L, v)
                assert got == _in_lattice_by_rational_coords(L, v), (L, v)
                assert got == (solve_in_lattice(L, v) is not None), (L, v)
                off = rational_coords(L, v) is None
                seen.add((got, off))
    assert {(True, False), (False, False), (False, True)} <= seen
    assert {("empty", "dependent rows", "saturated"),
            ("rank < d", "dependent rows", "not saturated"),
            ("full rank", "dependent rows", "not saturated"),
            ("rank < d", "independent rows", "saturated")} <= seen


def test_zero_lattice():
    L = LatticeBasis(3, ())
    assert solve_in_lattice(L, (0, 0, 0)) == []
    assert solve_in_lattice(L, (1, 0, 0)) is None
    assert L.contains((0, 0, 0)) and not L.contains((1, 0, 0))
    with pytest.raises(ValueError, match="wrong dimension"):
        L.contains((0, 0))
    with pytest.raises(ValueError, match="wrong dimension"):
        full_lattice(2).contains((0, 0, 0))
    assert rational_coords(L, (0, 0, 0)) == ([], 1)
    assert rational_coords(L, (1, 0, 0)) is None
    assert L.rank == 0


# --- intersection -------------------------------------------------------

def test_intersect_membership_boxes():
    rng = random.Random(1234)
    for trial in range(80):
        d = rng.randint(1, 3)
        L1 = lattice_from_rows(d, random_matrix(rng, rng.randint(1, d), d, -3, 3))
        L2 = lattice_from_rows(d, random_matrix(rng, rng.randint(1, d), d, -3, 3))
        L = intersect(L1, L2)
        for pt in itertools.product(range(-4, 5), repeat=d):
            inside = L1.contains(pt) and L2.contains(pt)
            assert L.contains(pt) == inside


def test_intersect_known():
    L1 = lattice_from_rows(2, [[2, 0], [0, 1]])
    L2 = lattice_from_rows(2, [[1, 0], [0, 3]])
    L = intersect(L1, L2)
    assert L.contains((2, 0)) and L.contains((0, 3))
    assert not L.contains((1, 0)) and not L.contains((0, 1))
    assert quotient_invariants(L, full_lattice(2)).index == 6


def _independent_basis(rng, k, d):
    while True:
        rows = random_matrix(rng, k, d, -3, 3)
        if rank_int(rows) == k:
            return LatticeBasis(d, tuple(map(tuple, rows)))


def _unimodular(rng, k):
    U = [list(r) for r in identity(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            U[i] = [-x for x in U[i]]
        else:
            q = rng.randint(-2, 2)
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    return U


def test_intersect_of_nested_lattices_is_the_smaller():
    """The meet of L1 = M*L2 (det M ≠ 0) and L2, in either order and with
    L1 on its own basis or its Hermite one, is L1's Hermite basis; with M
    unimodular the two are one lattice on two bases."""
    rng = random.Random(1808)
    checked = 0
    for trial in range(100):
        d = rng.randint(1, 4)
        k = rng.randint(1, d)
        L2 = _independent_basis(rng, k, d)
        M = random_matrix(rng, k, k, -3, 3) if trial % 2 else _unimodular(rng, k)
        if det_int(M) == 0:
            continue
        L1 = LatticeBasis(d, tuple(map(tuple, mat_mul(M, L2.basis))))
        H = lattice_from_rows(d, L1.basis)
        for A, B in ((L1, L2), (L2, L1), (H, L2), (L2, H)):
            assert intersect(A, B).basis == H.basis, (A, B)
        checked += 1
    assert checked > 80


# --- quotients -----------------------------------------------------------

def test_quotient_invariants_known_values():
    sub = lattice_from_rows(2, [[2, 0], [0, 3]])
    q = quotient_invariants(sub, full_lattice(2))
    assert q.divisors == (1, 6)
    assert q.free_rank == 0
    assert q.index == 6

    L = lattice_from_rows(2, [[1, 0], [0, 1]])
    q = quotient_invariants(L, full_lattice(2))
    assert q.divisors == (1, 1)
    assert q.index == 1


def test_quotient_index_matches_coset_count():
    rng = random.Random(555)
    for trial in range(40):
        while True:
            rows = random_matrix(rng, 2, 2, -4, 4)
            if det_int(rows) != 0:
                break
        sub = lattice_from_rows(2, rows)
        q = quotient_invariants(sub, full_lattice(2))
        index = abs(det_int(rows))
        assert q.index == index
        assert oracle_coset_count(rows, 2 * index + 4) == index


def test_quotient_free_rank():
    sub = lattice_from_rows(3, [[1, 0, 0]])
    q = quotient_invariants(sub, full_lattice(3))
    assert q.free_rank == 2
    assert q.divisors == (1,)
    assert q.index is None


def test_quotient_rejects_non_sublattice():
    sub = lattice_from_rows(2, [[1, 1]])
    sup = lattice_from_rows(2, [[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        quotient_invariants(sub, sup)


def test_coset_representatives():
    """One representative per coset: as many as the index, pairwise
    inequivalent mod sub, each in sup."""
    rng = random.Random(2718)
    trivial = LatticeBasis(2, ())
    assert quotient_invariants(trivial, trivial).representatives() == [(0, 0)]
    for trial in range(60):
        d = rng.randint(1, 3)
        sup = lattice_from_rows(d, random_matrix(rng, rng.randint(1, d), d, -3, 3))
        if not sup.basis:
            continue
        while True:
            T = random_matrix(rng, sup.rank, sup.rank, -3, 3)
            if det_int(T) != 0:
                break
        # a sublattice of full rank, not saturated unless |det T| = 1
        sub = lattice_from_rows(d, mat_mul(T, [list(b) for b in sup.basis]))
        q = quotient_invariants(sub, sup)
        reps = q.representatives()
        assert len(reps) == abs(det_int(T)) == q.index
        assert all(sup.contains(r) for r in reps)
        for a, b in itertools.combinations(reps, 2):
            assert not sub.contains(tuple(x - y for x, y in zip(a, b)))


def test_quotient_index_and_representatives_share_one_smith_form(monkeypatch):
    sup = lattice_from_rows(3, [[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    sub = lattice_from_rows(3, [[2, 2, 0], [0, 6, 3], [1, 3, 4]])
    calls = []
    real = lattice_mod.snf
    monkeypatch.setattr(lattice_mod, "snf", lambda A: calls.append(A) or real(A))
    q = quotient_invariants(sub, sup)
    reps = q.representatives()
    assert len(calls) == 1
    assert len(reps) == q.index == abs(det_int([list(b) for b in sub.basis])
                                       // det_int([list(b) for b in sup.basis]))


def _quotient_by_smith(sub, sup):
    """The quotient read off one Smith form of sub's coordinates over sup."""
    res = snf([solve_in_lattice(sup, b) for b in sub.basis])
    return lattice_mod.QuotientInvariants(res.divisors, sup.rank - sub.rank,
                                          sup, res)


def test_saturated_quotients_skip_the_smith_form(monkeypatch):
    """A saturated sub gives a torsion-free quotient with no Smith form,
    of sup's rank or lower; any other sub takes one.  On seeded saturated
    lattices given by non-Hermite bases, and on sublattices of index > 1
    of sup's rank or lower, the index, divisors, free rank and
    representatives equal the Smith path's, and a saturated sub outside
    sup still raises."""
    rng = random.Random(2503)
    real = lattice_mod.snf
    calls = []
    monkeypatch.setattr(lattice_mod, "snf",
                        lambda A: calls.append(A) or real(A))
    shortcuts = lower = full = 0
    for trial in range(200):
        d = rng.randint(1, 4)
        k = rng.randint(1, d)
        # k rows of a unimodular matrix span a saturated lattice
        rows = mat_mul(_unimodular(rng, k), _unimodular(rng, d)[:k])
        sat = LatticeBasis(d, tuple(map(tuple, rows)))
        # kinds 0 and 2 are saturated, 1 and 3 of index > 1 in their span;
        # 2 and 3 have rank k - 1 in sup
        kind = trial % 4
        m = k if kind < 2 else k - 1
        if kind % 2 == 0:
            sub = LatticeBasis(d, sat.basis[:m])
        else:
            T = random_matrix(rng, m, m, -3, 3)
            if det_int(T) in (-1, 0, 1):
                continue
            sub = LatticeBasis(d, tuple(map(tuple, mat_mul(T, rows[:m]))))
        sup = lattice_from_rows(d, rows) if kind == 0 else sat
        if not sub.basis:
            continue
        calls.clear()
        q = quotient_invariants(sub, sup)
        assert len(calls) == kind % 2, (sub, sup)
        want = _quotient_by_smith(sub, sup)
        assert (q.divisors, q.free_rank, q.index) == (
            want.divisors, want.free_rank, want.index), (sub, sup)
        if not q.free_rank:
            assert (sorted(q.representatives())
                    == sorted(want.representatives()))
        if kind == 0:
            shortcuts += sub.basis != sup.basis
            with pytest.raises(ValueError):
                quotient_invariants(sub, lattice_from_rows(d, mat_mul(
                    [[2 * (i == j) for j in range(k)] for i in range(k)],
                    rows)))
        elif kind == 2:
            lower += 1
        else:
            full += 1
    assert shortcuts > 20 and lower > 20 and full > 40


def test_representatives_of_an_infinite_quotient_raise():
    for sub in (LatticeBasis(2, ()), lattice_from_rows(2, [[1, 0]])):
        q = quotient_invariants(sub, full_lattice(2))
        assert q.index is None
        with pytest.raises(ValueError, match="infinite"):
            q.representatives()


# --- canonical coset reduction ------------------------------------------

def test_reduce_mod_lattice_is_canonical():
    rng = random.Random(31337)
    for trial in range(60):
        d = rng.randint(1, 3)
        L = lattice_from_rows(d, random_matrix(rng, rng.randint(1, d), d, -3, 3))
        v = tuple(rng.randint(-8, 8) for _ in range(d))
        rep = reduce_mod_lattice(L, v)
        assert L.contains(tuple(a - b for a, b in zip(v, rep)))
        if L.basis:
            coeffs = [rng.randint(-2, 2) for _ in range(L.rank)]
            shift = tuple(
                sum(coeffs[i] * L.basis[i][j] for i in range(L.rank))
                for j in range(d)
            )
            assert reduce_mod_lattice(L, tuple(a + b for a, b in zip(v, shift))) == rep


# --- the element-wise kernel against the generator forms it replaced -----

BIG = 2 ** 80   # entries well past 2**64
ints = st.integers(-BIG, BIG)


def vectors(d):
    return st.lists(ints, min_size=d, max_size=d).map(tuple)


@st.composite
def vector_pair(draw):
    d = draw(st.integers(0, 5))
    return draw(vectors(d)), draw(vectors(d))


@st.composite
def matrix_pair(draw):
    """A (m x k), B (k x n) and x of length k, any of m, k, n possibly 0."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    return ([list(draw(vectors(k))) for _ in range(m)],
            [list(draw(vectors(n))) for _ in range(k)], draw(vectors(k)))


@st.composite
def rows_and_coeffs(draw):
    d, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return d, [draw(vectors(d)) for _ in range(k)], list(draw(vectors(k)))


@settings(deadline=None)
@given(vector_pair(), ints)
@example(((), ()), 0)
@example(((2 ** 64,), (-(2 ** 65) - 1,)), 2 ** 64 + 3)
@example(((0, 0, 0), (0, -BIG, 0)), -1)
def test_vector_helpers_match_generator_forms(ab, c):
    a, b = ab
    assert dot(a, b) == sum(x * y for x, y in zip(a, b))
    assert vadd(a, b) == tuple(x + y for x, y in zip(a, b))
    assert vsub(a, b) == tuple(x - y for x, y in zip(a, b))
    assert vneg(a) == tuple(-x for x in a)
    assert vscale(c, a) == tuple(c * x for x in a)
    assert is_zero(a) == all(x == 0 for x in a)
    assert is_zero(vsub(b, b)) and is_zero((0,) * len(a))
    assert vec(str(x) for x in a) == tuple(int(str(x)) for x in a) == a
    g = 0
    for x in a:
        g = gcd(g, x)
    assert content(a) == g


@settings(deadline=None)
@given(matrix_pair())
@example(([], [[1, 2]], (3,)))              # no rows
@example(([[1], [2]], [[]], (BIG,)))        # no columns
@example(([[], []], [], ()))                # inner dimension 0
def test_mat_mul_and_mat_vec_match_generator_forms(case):
    A, B, x = case
    n = len(B[0]) if B else 0
    assert mat_mul(A, B) == [
        [sum(row[k] * B[k][j] for k in range(len(B))) for j in range(n)]
        for row in A]
    assert mat_vec(A, x) == tuple(sum(a * b for a, b in zip(row, x))
                                  for row in A)


@settings(deadline=None)
@given(rows_and_coeffs())
@example((3, [], []))
@example((0, [(), ()], [BIG, -BIG]))
@example((1, [(2 ** 70,)], [2 ** 70]))
def test_combine_matches_generator_form(case):
    d, rows, coeffs = case
    want = tuple(sum(coeffs[i] * rows[i][j] for i in range(len(rows)))
                 for j in range(d))
    assert combine(coeffs, rows, d) == want
    assert combine([], [], d) == (0,) * d


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d),
             min_size=1, max_size=d),
    vectors(d))))
def test_reduce_mod_lattice_matches_entrywise_loop(case):
    rows, v = case
    L = lattice_from_rows(len(v), rows)
    want = list(v)
    for c, r in L.hnf_pivots:
        q = want[c] // r[c]
        if q:
            for j in range(len(want)):
                want[j] -= q * r[j]
    assert reduce_mod_lattice(L, v) == tuple(want)


def test_left_kernel():
    A = [[1, 2], [2, 4], [0, 1]]
    basis = left_kernel_basis(A)
    assert len(basis) == 1
    u = basis[0]
    assert all(sum(u[i] * A[i][j] for i in range(3)) == 0 for j in range(2))


# --- normal forms are computed once per basis ---------------------------

def test_basis_normal_forms_are_computed_once(monkeypatch):
    import toricface.lattice as lat

    counts = {"snf": 0, "hnf": 0}

    def counting(name, fn):
        def wrapped(A):
            counts[name] += 1
            return fn(A)
        return wrapped

    monkeypatch.setattr(lat, "snf", counting("snf", lat.snf))
    monkeypatch.setattr(lat, "hnf", counting("hnf", lat.hnf))
    L = LatticeBasis(3, ((2, 0, 1), (0, 3, 1)))
    # the same lattice on a basis not in Hermite form
    L2 = LatticeBasis(3, ((2, 3, 2), (0, 3, 1)))
    assert counts == {"snf": 2, "hnf": 0}
    rng = random.Random(77)
    hits = 0
    for i in range(100):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        v = (2 * a, 3 * b, a + b + (i % 2) * rng.randint(-1, 1))
        hits += solve_in_lattice(L, v) is not None
        assert (rational_coords(L, v) is not None) == (v[2] * 6 == 3 * v[0] + 2 * v[1])
        assert reduce_mod_lattice(L, v) == reduce_mod_lattice(L2, v)
    assert 50 <= hits < 100
    # a basis built directly takes one hnf, Hermite or not, kept for every
    # later reduction; every solve, rational or integral, reuses the Smith
    # form
    assert counts == {"snf": 2, "hnf": 2}
    assert L.hnf_pivots == L2.hnf_pivots
    # lattice_from_rows keeps the pivots of the Hermite form it makes
    L3 = lattice_from_rows(3, [(2, 3, 2), (0, 3, 1), (2, 6, 3)])
    assert counts == {"snf": 3, "hnf": 3}
    assert reduce_mod_lattice(L3, (5, 7, 1)) == reduce_mod_lattice(L, (5, 7, 1))
    assert L3.hnf_pivots == L.hnf_pivots and counts == {"snf": 3, "hnf": 3}


def test_preset_hermite_pivots_match_a_direct_build():
    """lattice_from_rows presets hnf_pivots from its own Hermite form; on
    seeded row sets, of every rank and with dependent rows, they equal the
    pivots hnf finds for the same basis built directly, and the pivot rows
    are the basis."""
    rng = random.Random(3000)
    ranks = set()
    for _ in range(150):
        d = rng.randint(1, 5)
        A = random_product(rng, rng.randint(1, 6), d, rng.randint(0, d))
        L = lattice_from_rows(d, A)
        direct = LatticeBasis(d, L.basis)
        assert "hnf_pivots" not in direct.__dict__
        assert L.hnf_pivots == direct.hnf_pivots, A
        assert tuple(r for _, r in L.hnf_pivots) == L.basis
        ranks.add(L.rank)
    assert ranks == set(range(6))


# --- ranks and kernels over F_p, from the Smith form -------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_and_kernel_mod_p_match_elimination(p):
    rng = random.Random(4100 + p)
    drops = 0
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_product(rng, m, n, rng.randint(0, min(m, n)))
        r = rank_mod(A, p)
        assert r == rank_mod_oracle(A, p), A
        drops += r < rank_int(A)
        Z = kernel_mod(A, p, n)
        assert len(Z) == n - r
        for z in Z:
            assert len(z) == n and all(0 <= x < p for x in z)
            assert all(x % p == 0 for x in mat_vec(A, z))
        assert rank_mod_oracle(Z, p) == len(Z)
    assert drops
    # no rows, or no columns: everything is a cycle, nothing a boundary
    assert rank_mod([], p) == 0 and rank_mod([[], []], p) == 0
    assert kernel_mod([], p, 2) == [(1, 0), (0, 1)]
    assert kernel_mod([[], []], p, 0) == []


# --- unit-pivot coreduction before the Smith form ----------------------

def sparse_matrix(rng, m, n):
    """Mostly 0 and +-1, some 2 and -3, with whole zero rows and columns."""
    A = [[rng.choice((0, 0, 0, 1, -1, 1, -1, 2, -3)) for _ in range(n)]
         for _ in range(m)]
    for i in range(m):
        if rng.random() < 0.15:
            A[i] = [0] * n
    for j in range(n):
        if rng.random() < 0.15:
            for row in A:
                row[j] = 0
    return A


def test_coreduced_divisors_match_snf():
    """About 3,000 seeded matrices up to 7 x 7, zero rows and columns
    included, and products of low rank."""
    rng = random.Random(16016)
    residual = 0
    for trial in range(3000):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 4:
            A = sparse_matrix(rng, m, n)
        else:
            k = rng.randint(1, min(m, n))
            A = mat_mul(sparse_matrix(rng, m, k), sparse_matrix(rng, k, n))
        assert elementary_divisors(A) == snf(A).divisors, A
        units, rest = _coreduce(A)
        residual += bool(rest)
        # the residual has no unit entry left, and snf keeps every unit
        assert not any(x in (1, -1) for row in rest for x in row)
        assert snf(A).divisors[:units] == (1,) * units
    # both ends occur: matrices reduced to nothing, and residuals for snf
    assert 300 < residual < 2700
    assert elementary_divisors([]) == elementary_divisors([[], []]) == ()
    assert elementary_divisors([[0, 0], [0, 0]]) == ()
    assert elementary_divisors([[2, 4], [6, 8]]) == (2, 4)


def test_coreduction_sends_only_the_residual_to_snf(monkeypatch):
    calls = []
    real = lattice_mod.snf
    monkeypatch.setattr(lattice_mod, "snf",
                        lambda A: calls.append(A) or real(A))
    # the boundary of a triangle and a 2-torsion map: units, then [[2]]
    assert elementary_divisors([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]) == (1, 1)
    assert calls == []
    assert elementary_divisors([[1, 1], [1, -1]]) == (1, 2)
    assert calls == [[[2]]] or calls == [[[-2]]]


def test_sparse_products_match_dense():
    rng = random.Random(16017)
    assert mat_mul([[], []], []) == [[], []]
    for k in range(1, 9):
        for _ in range(40):
            m, n = rng.randint(0, 6), rng.randint(1, 6)
            A = rng.choice((sparse_matrix, random_matrix))(rng, m, k)
            B = [[rng.choice((0, 0, 1, -1, 5, BIG)) for _ in range(n)]
                 for _ in range(k)]
            assert mat_mul(A, B) == [
                [sum(row[i] * B[i][j] for i in range(k)) for j in range(n)]
                for row in A]
