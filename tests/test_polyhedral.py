"""Cone, fan, and chain-complex tests against independent oracles.

Membership is cross-checked by Caratheodory search over exact rational
solves; face sets are cross-checked by a supporting-functional box search.
Both oracles avoid the library's extreme_rays path entirely.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from conftest import ALL_FIXTURES, cell_complex, crosspoly

import toricface.lattice as lattice_mod
from toricface import polyhedral
from toricface.lattice import (LatticeBasis, dot, kernel_basis,
                               lattice_from_rows, primitive, rank_int,
                               rational_coords, reduce_mod_lattice,
                               solve_in_lattice, vadd, vneg)
from toricface.polyhedral import (
    Cone,
    ConeNotPointedError,
    Fan,
    FaceLattice,
    cochain,
    cone_build,
    face_at,
    face_lattice,
    facets_through,
    fan_build,
    generators_from_h,
    incidence_sign,
    orientation_basis,
    relint_contains,
    skeleton_fan,
    zero_cone,
)


def solve_exact(cols, x):
    """Solve sum_i lam_i * cols[i] = x over the rationals, or None."""
    k = len(cols)
    d = len(x)
    A = [[Fraction(cols[i][j]) for i in range(k)] + [Fraction(x[j])] for j in range(d)]
    piv = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, d) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        inv = 1 / A[r][c]
        A[r] = [v * inv for v in A[r]]
        for i in range(d):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [v - f * w for v, w in zip(A[i], A[r])]
        piv.append(c)
        r += 1
    for i in range(r, d):
        if A[i][k] != 0:
            return None
    lam = [Fraction(0)] * k
    for row, c in enumerate(piv):
        lam[c] = A[row][k]
    return lam


def is_face(small, big):
    """Is small the face of big cut out by big's facet normals vanishing on it?"""
    if not set(small.rays) <= set(big.rays):
        return False
    zf = [f for f in big.facets if all(dot(f, r) == 0 for r in small.rays)]
    cut = [r for r in big.rays if all(dot(f, r) == 0 for f in zf)]
    return set(cut) == set(small.rays)


def fraction_det(M):
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    A = [list(r) for r in M]
    det = Fraction(1)
    for c in range(len(A)):
        p = next((i for i in range(c, len(A)) if A[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for i in range(c + 1, len(A)):
            f = A[i][c] / A[c][c]
            A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return det


def oracle_in_cone(gens, x):
    """Caratheodory: x lies in the cone iff some independent subset of the
    generators expresses it with nonnegative coefficients."""
    if all(v == 0 for v in x):
        return True
    d = len(x)
    for size in range(1, min(len(gens), d) + 1):
        for sub in itertools.combinations(gens, size):
            if rank_int([list(g) for g in sub]) != size:
                continue
            lam = solve_exact(sub, x)
            if lam is not None and all(l >= 0 for l in lam):
                return True
    return False


def oracle_face_sets(rays, box=3):
    """All subsets of the rays supported by some integer functional in a box.

    Adequate only for small ray sets where a box-bounded supporting
    functional exists whenever any does; used on fixed fixtures.
    """
    d = len(rays[0])
    found = {frozenset(range(len(rays)))}
    rng = [range(-box, box + 1)] * d
    for f in itertools.product(*rng):
        if all(dot(f, r) >= 0 for r in rays):
            found.add(frozenset(i for i, r in enumerate(rays) if dot(f, r) == 0))
    return found


OCTANT = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
SQUARE = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]


def random_pointed_cone(rng, d=3, tries=50):
    for _ in range(tries):
        n = rng.randint(2, 5)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)]
        if all(all(v == 0 for v in g) for g in gens):
            continue
        try:
            return cone_build(gens, d), gens
        except ConeNotPointedError:
            continue
    raise RuntimeError("no pointed cone found")


def test_octant_frozen():
    c = cone_build(OCTANT)
    assert c.dim == 3
    assert c.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert c.facets == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert c.contains((2, 3, 5)) and not c.contains((-1, 0, 0))


def test_square_cone_face_lattice():
    c = cone_build(SQUARE)
    fl = face_lattice(c)
    assert len(fl.faces) == 10
    assert fl.dims() == (0, 1, 1, 1, 1, 2, 2, 2, 2, 3)
    # closed under pairwise intersection
    keys = {frozenset(f.rays) for f in fl.faces}
    for a, b in itertools.combinations(keys, 2):
        assert a & b in keys


@pytest.mark.parametrize("gens", [OCTANT, SQUARE])
def test_faces_match_supporting_functional_oracle(gens):
    c = cone_build(gens)
    fl = face_lattice(c)
    got = {frozenset(c.rays.index(r) for r in f.rays) for f in fl.faces}
    assert got == oracle_face_sets(list(c.rays))


def test_membership_matches_caratheodory():
    rng = random.Random(20260818)
    pts = list(itertools.product(range(-2, 3), repeat=3))
    for _ in range(40):
        cone, gens = random_pointed_cone(rng)
        for x in pts:
            assert cone.contains(x) == oracle_in_cone(gens, x), (gens, x)


def test_random_cone_structure():
    rng = random.Random(7)
    for _ in range(60):
        cone, gens = random_pointed_cone(rng)
        assert rank_int([list(r) for r in cone.rays]) == cone.dim
        assert set(cone.rays) <= set(cone.generators)
        for f in cone.facets:
            assert all(dot(f, g) >= 0 for g in cone.generators)
            onf = [list(g) for g in cone.generators if dot(f, g) == 0]
            assert (rank_int(onf) if onf else 0) == cone.dim - 1
        if cone.dim >= 1:
            assert relint_contains(cone, cone.interior_point())


def test_redundant_generator_not_a_ray():
    c = cone_build([(3, 0), (3, 1), (3, 3)])
    assert c.rays == ((1, 0), (1, 1))
    assert c.generators == ((1, 0), (1, 1), (3, 1))
    assert c.facets == ((0, 1), (1, -1))


def test_not_pointed_witness():
    with pytest.raises(ConeNotPointedError) as ei:
        cone_build([(1, 0), (-1, 0), (0, 1)])
    w, minus_w = ei.value.witness
    gens = [(1, 0), (-1, 0), (0, 1)]
    assert oracle_in_cone(gens, w) and oracle_in_cone(gens, minus_w)
    assert any(v != 0 for v in w)


def test_zero_and_ray_cones():
    z = zero_cone(2)
    assert z.dim == 0 and z.contains((0, 0)) and not z.contains((1, 0))
    assert relint_contains(z, (0, 0))
    r = cone_build([(2, 4)])
    assert r.rays == ((1, 2),)
    assert r.contains((3, 6)) and not r.contains((3, 5)) and not r.contains((-1, -2))
    assert relint_contains(r, (1, 2)) and not relint_contains(r, (0, 0))


def test_low_dimensional_cone_facets():
    c = cone_build([(1, 0, 1), (0, 1, 1)])
    assert c.dim == 2
    assert len(c.facets) == 2
    zero_sets = {tuple(g for g in c.rays if dot(f, g) == 0) for f in c.facets}
    assert zero_sets == {((1, 0, 1),), ((0, 1, 1),)}
    assert c.contains((1, 1, 2)) and not c.contains((1, 1, 1))


RHOMBIC_DODECAHEDRON = (
    [(*s, 1) for s in itertools.product((1, -1), repeat=3)]
    + [tuple(v if j == i else 0 for j in range(3)) + (1,)
       for i in range(3) for v in (2, -2)])
TWELVE_GON = [(3, 0), (3, 1), (2, 2), (1, 3), (0, 3), (-1, 3), (-3, 0),
              (-3, -1), (-2, -2), (-1, -3), (0, -3), (1, -3)]


@pytest.mark.parametrize("gens, n_rays, n_facets, box", [
    # the 4-D cone over the rhombic dodecahedron, with its box points of
    # height 1 in one chamber of its signed-permutation symmetry
    (RHOMBIC_DODECAHEDRON, 14, 12,
     [(x, y, z, 1) for x, y, z in itertools.product(range(3), repeat=3)
      if x >= y >= z]),
    # the 3-D cone over a centrally symmetric 12-gon at height 4, with the
    # height-4 box points of one half-plane
    ([(x, y, 4) for x, y in TWELVE_GON], 8, 8,
     [(x, y, 4) for x, y in itertools.product(range(-4, 5), repeat=2)
      if (x, y) >= (0, 0)]),
])
def test_cones_with_many_rays_and_facets(gens, n_rays, n_facets, box):
    """Cones with many generators and facets: the ray and facet counts,
    every facet cut out by dim-1 independent rays, and membership against
    the Caratheodory oracle."""
    cone = cone_build(gens)
    assert cone.dim == len(gens[0])
    assert (len(cone.rays), len(cone.facets)) == (n_rays, n_facets)
    for f in cone.facets:
        assert rank_int([list(r) for r in cone.rays if dot(f, r) == 0]) \
            == cone.dim - 1
    inside = 0
    for x in box:
        want = oracle_in_cone(gens, x)
        assert cone.contains(x) == want, x
        inside += want
    assert 0 < inside < len(box)


def test_extreme_rays_of_a_pointed_cone_and_its_dual():
    """The facets of the square cone are the extreme rays of its dual, and
    the rays those of the facets; repeated and redundant rows are ignored."""
    square = cone_build(SQUARE)
    rows = [*square.rays, (0, 0, 1), (0, 0, 1)]
    assert tuple(polyhedral.extreme_rays(rows, 3)) == square.facets
    assert tuple(polyhedral.extreme_rays(square.facets, 3)) == square.rays
    # the half-line in Q^1, and a cone {0}, which has no extreme rays
    assert polyhedral.extreme_rays([(2,), (5,)], 1) == [(1,)]
    assert polyhedral.extreme_rays([(1, 0), (0, 1), (-1, -1)], 2) == []


def reference_extreme_rays(rows, k):
    """extreme_rays by the kernel rule: the saturated kernel of each k-1
    rows, kept when it is a line, signed as extreme_rays signs it."""
    out = set()
    for sub in itertools.combinations(rows, k - 1):
        line = kernel_basis(sub, k)
        if len(line) != 1:
            continue
        y = line[0]
        signs = {dot(r, y) for r in rows}
        if min(signs, default=0) >= 0:
            out.add(y)
        elif max(signs) <= 0:
            out.add(vneg(y))
    return sorted(out)


def reference_cone(gens, d):
    """(rays, facets, dim, equations, span basis) of cone(gens) by rank
    rules, or None when it is not pointed: the span and normals as
    cone_build makes them, but the normals from reference_extreme_rays,
    pointedness by the rank of the normals on the span, and a generator
    a ray when the normals through it have rank dim - 1."""
    gens = sorted({g for g in map(primitive, gens) if any(g)})
    N = kernel_basis([list(g) for g in gens], d)
    lin = LatticeBasis(d, tuple(kernel_basis(N, d)))
    perp = lattice_from_rows(d, N)
    coords = [solve_in_lattice(lin, g) for g in gens]
    facets = sorted(reduce_mod_lattice(perp, polyhedral._lift_functional(lin, w))
                    for w in reference_extreme_rays(coords, lin.rank))
    W = [[dot(b, f) for b in lin.basis] for f in facets]
    if not W or rank_int(W) < lin.rank:
        return None
    rays = [g for g in gens if rank_int(
        [w for f, w in zip(facets, W) if dot(f, g) == 0]) == lin.rank - 1]
    return tuple(rays), tuple(facets), lin.rank, perp.basis, lin.basis


def test_extreme_rays_match_the_kernel_rule():
    """The line of k-1 rows from their signed maximal minors gives the
    extreme rays the saturated kernel gives, on 600 seeded row sets in
    Q^1 to Q^4 of full rank (the rows of a pointed cone), with repeated,
    zero and dependent rows."""
    rng = random.Random(3001)
    seen = {"sets": 0, "rays": 0, "empty": 0}
    while seen["sets"] < 600:
        k = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(k))
                for _ in range(rng.randint(1, 7))]
        rows += rng.sample(rows, rng.randint(0, len(rows)))
        if rank_int([list(r) for r in rows]) < k:
            continue
        want = reference_extreme_rays(rows, k)
        assert polyhedral.extreme_rays(rows, k) == want, rows
        seen["sets"] += 1
        seen["rays"] += len(want)
        seen["empty"] += not want
    assert seen["rays"] > 600 and seen["empty"] > 50, seen


def test_cone_build_matches_the_rank_rules():
    """cone_build, which decides pointedness by the sum of the normals and
    rays by inclusion-maximal tight sets, agrees with reference_cone on
    2,742 seeded generator sets in Z^1 to Z^4 spanning subspaces of every
    dimension, 1,016 of them not pointed: the same rays, facets, dim,
    equations and span basis, the same refusals, and each refusal's
    witness (v, -v) with both vectors in the cone."""
    rng = random.Random(3002)
    built = refused = 0
    for _ in range(3000):
        d = rng.randint(1, 4)
        span = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(rng.randint(1, d))]
        gens = [tuple(sum(c * b[j] for c, b in zip(cs, span)) for j in range(d))
                for cs in ([rng.randint(-1, 2) for _ in span]
                           for _ in range(rng.randint(1, 6)))]
        if not any(map(any, gens)):
            continue
        want = reference_cone(gens, d)
        if want is None:
            refused += 1
            with pytest.raises(ConeNotPointedError) as ei:
                cone_build(gens, d)
            v, minus_v = ei.value.witness
            assert any(v) and minus_v == vneg(v), gens
            assert oracle_in_cone(gens, v) and oracle_in_cone(gens, minus_v), gens
            continue
        c = cone_build(gens, d)
        assert (c.rays, c.facets, c.dim, c.equations, c.lin_basis.basis) == want, gens
        built += 1
    assert (built, refused) == (1726, 1016)


def test_cone_combinatorics_take_no_normal_form(monkeypatch):
    """The lines of extreme_rays, here finding the rays of seeded cones in
    Z^2 to Z^4 from their facets and equations, and the rays kept by
    orientation_basis take no Smith or Hermite form; cone_build takes no
    rank and only the two kernels of its span."""
    rng = random.Random(3003)
    cones = [random_cone_of_dim(rng, d, k) for d in (2, 3, 4)
             for k in range(1, d + 1) for _ in range(3)]
    cones.append(cone_build(RHOMBIC_DODECAHEDRON))
    calls = {"snf": 0, "hnf": 0, "elementary_divisors": 0, "kernel_basis": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapped)

    for name in ("snf", "hnf", "elementary_divisors"):
        counting(lattice_mod, name)
    counting(polyhedral, "kernel_basis")
    for c in cones:
        assert tuple(generators_from_h(c.facets, c.equations,
                                       c.ambient_dim)) == c.rays
        assert len(orientation_basis(c)) == c.dim
    assert calls == {"snf": 0, "hnf": 0, "elementary_divisors": 0,
                     "kernel_basis": 0}
    for c in cones:
        assert cone_build(c.generators, c.ambient_dim) == c
    assert calls["elementary_divisors"] == 0
    assert calls["kernel_basis"] == 2 * len(cones)


def test_orientation_basis_matches_rank_scan():
    """orientation_basis keeps a ray when it raises the rank of the rays
    kept before it (the greedy rank scan), on seeded cones of every
    dimension in Z^1 to Z^4, the fixtures' fans and the cones over the
    rhombic dodecahedron, the 12-gon and the 3-cube.  The cube's first
    four rays lie on one facet, so there the scan skips a ray before its
    basis is full (in dim <= 3 any dim extreme rays are independent)."""
    rng = random.Random(4200)
    cones = [random_cone_of_dim(rng, d, k) for d in (1, 2, 3, 4)
             for k in range(d + 1) for _ in range(6)]
    cones += [c for build in ALL_FIXTURES.values() for c in build().fan.cones]
    cones += [cone_build(RHOMBIC_DODECAHEDRON),
              cone_build([(x, y, 4) for x, y in TWELVE_GON]),
              cone_build([(*s, 1) for s in itertools.product((1, -1), repeat=3)])]
    # cones over seeded lattice polytopes at height 1
    cones += [cone_build([(*(rng.randint(-2, 2) for _ in range(d - 1)), 1)
                          for _ in range(rng.randint(d, d + 4))])
              for d in (3, 4) for _ in range(10)]
    skipped = 0
    for cone in cones:
        want, kept = [], []
        for r in cone.rays:
            if rank_int(kept + [list(r)]) > len(kept):
                want.append(r)
                kept.append(list(r))
        assert orientation_basis(cone) == tuple(want), cone.rays
        skipped += tuple(want) != cone.rays[:cone.dim]
    assert skipped, skipped


def random_cone_of_dim(rng, d, k, tries=50):
    """A pointed cone spanning a random k-dimensional subspace of R^d."""
    for _ in range(tries):
        span = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        if k and rank_int([list(b) for b in span]) < k:
            continue
        gens = [tuple(sum(c * b[j] for c, b in zip(cs, span)) for j in range(d))
                for cs in ([rng.randint(-1, 2) for _ in span]
                           for _ in range(rng.randint(k, k + 2)))]
        try:
            cone = cone_build(gens, d)
        except ConeNotPointedError:
            continue
        if cone.dim == k:
            return cone
    raise RuntimeError("no pointed cone found")


@pytest.mark.parametrize("d, box", [(2, 3), (3, 2), (4, 1)])
def test_membership_by_equations_matches_lattice_solve(d, box):
    """Equation tests agree with the lattice solve plus the facet tests."""
    rng = random.Random(4100 + d)
    for trial in range(12 * (d + 1)):
        cone = random_cone_of_dim(rng, d, trial % (d + 1))
        # the box, plus points of the span that a small box mostly misses
        span = [tuple(sum(c * b[j] for c, b in zip(cs, cone.lin_basis.basis))
                      for j in range(d))
                for cs in itertools.product(range(-2, 3), repeat=cone.dim)]
        for v in list(itertools.product(range(-box, box + 1), repeat=d)) + span:
            in_lin = solve_in_lattice(cone.lin_basis, v) is not None
            assert cone.contains(v) == (
                in_lin and all(dot(f, v) >= 0 for f in cone.facets)), (cone, v)
            relint = (all(x == 0 for x in v) if cone.dim == 0 else
                      in_lin and all(dot(f, v) > 0 for f in cone.facets))
            assert relint_contains(cone, v) == relint, (cone, v)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rational_coords_matches_fraction_solve(d):
    """Smith-form coordinates equal the Fraction solve; None off the span."""
    rng = random.Random(5200 + d)
    seen = {"off": 0, "fractional": 0}
    for trial in range(30):
        k = rng.randint(1, d)
        basis = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k)]
        if rank_int([list(b) for b in basis]) < k:
            continue
        L = LatticeBasis(d, tuple(basis))
        # box points (off the span when k < d), and primitive span points,
        # which have fractional coordinates when L is not saturated
        vs = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(10)]
        for _ in range(10):
            cs = [rng.randint(-3, 3) for _ in basis]
            w = [sum(c * b[j] for c, b in zip(cs, basis)) for j in range(d)]
            g = math.gcd(*w)
            vs.append(tuple(x // g for x in w) if g else tuple(w))
        for v in vs:
            want = solve_exact(basis, v)
            got = rational_coords(L, v)
            if want is None:
                assert got is None, (basis, v)
                seen["off"] += 1
                continue
            c, den = got
            assert den > 0 and [Fraction(x, den) for x in c] == want, (basis, v)
            seen["fractional"] += any(q.denominator > 1 for q in want)
    assert seen["fractional"] and (d == 1 or seen["off"])


def crosspoly_fan(d):
    """The complete fan of the 2^d coordinate orthants."""
    return fan_build([
        cone_build([tuple(s if j == i else 0 for j in range(d))
                    for i, s in enumerate(signs)], d)
        for signs in itertools.product((1, -1), repeat=d)])


def test_incidence_sign_matches_fraction_determinant():
    """Every (cone, facet) pair of the fixtures, the d=3 cross-polytope and
    random 3-cones, against the determinant of Fraction coordinates."""
    rng = random.Random(808)
    fans = ([build().fan for build in ALL_FIXTURES.values()] + [crosspoly_fan(3)]
            + [fan_build([random_pointed_cone(rng)[0]]) for _ in range(15)])
    signs = set()
    for fan in fans:
        for big in fan.cones:
            for small in facets_of(fan, big):
                if small.dim == 0:
                    want = 1
                else:
                    w = next(r for r in big.rays if r not in small.rays)
                    basis = orientation_basis(big)
                    M = [solve_exact(basis, r)
                         for r in [w, *orientation_basis(small)]]
                    det = fraction_det(M)
                    assert det != 0
                    want = 1 if det > 0 else -1
                    signs.add(want)
                assert incidence_sign(big, small) == want, (big.key, small.key)
    assert signs == {1, -1}


def test_generators_from_h():
    gens = generators_from_h([(1, 0, 0), (0, 1, 0)], [(1, 1, -1)], 3)
    got = cone_build(gens, 3)
    assert got.rays == ((0, 1, 1), (1, 0, 1))


def test_facets_through():
    c = cone_build(OCTANT)
    ray = cone_build([(1, 0, 0)], 3)
    fs = facets_through(c, ray)
    assert sorted(fs) == [(0, 0, 1), (0, 1, 0)]


def test_fan_rejects_improper_intersection():
    a = cone_build([(1, 0), (0, 1)])
    b = cone_build([(1, 1), (1, -1)])
    with pytest.raises(ValueError):
        fan_build([a, b])


@pytest.mark.parametrize("d", [2, 3])
def test_common_face_check_matches_intersection_cone(d, monkeypatch):
    """fan_build's common-face test agrees with building a ∩ b itself; at
    d=3 the pairs include some the separating certificate accepts and
    some the fallback through the extreme rays of a ∩ b accepts or
    refuses."""
    rng = random.Random(5200 + d)
    fallbacks = _fallbacks(monkeypatch)
    outcomes = set()
    for _ in range(60):
        a, _ = random_pointed_cone(rng, d)
        b, _ = random_pointed_cone(rng, d)
        if set(a.rays) <= set(b.rays) or set(b.rays) <= set(a.rays):
            continue
        gens = generators_from_h(a.facets + b.facets,
                                 a.equations + b.equations, d)
        k = cone_build(gens, d) if gens else zero_cone(d)
        want = is_face(k, a) and is_face(k, b)
        fallbacks.clear()
        try:
            fan_build([a, b])
            got = True
        except ValueError:
            got = False
        assert got == want, (a.rays, b.rays)
        outcomes.add((want, bool(fallbacks)))
    assert {want for want, _ in outcomes} == {True, False}
    if d == 3:
        assert outcomes == {(True, False), (True, True), (False, True)}


def _fallbacks(monkeypatch):
    """A list that records each fallback of fan_build to the extreme rays
    of a ∩ b (generators_from_h, which calls extreme_rays)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return generators_from_h(*args)

    monkeypatch.setattr(polyhedral, "generators_from_h", counted)
    return calls


def test_every_shipped_and_ladder_fan_meet_is_certified(monkeypatch):
    """The fixtures, the Stanley ladder up to d=4 and the cusps up to d=3
    need no extreme-ray fallback: a separator certifies every pair."""
    fallbacks = _fallbacks(monkeypatch)
    for build in [*ALL_FIXTURES.values(),
                  *(lambda d=d: crosspoly(d) for d in (2, 3, 4)),
                  *(lambda d=d: crosspoly(d, (2, 3)) for d in (2, 3))]:
        mcc = build()
        assert len(mcc.fan.maximal) > 1
        assert fallbacks == [], mcc.fan.maximal


def test_separated_cones_with_unequal_faces_fall_back(monkeypatch):
    """a and b lie on either side of z = 0, so h = (0, 0, 2) separates
    them, but they cut different faces from it: a ∩ b = cone(e1, e1 + e2)
    is a face of neither, and only the fallback refuses the pair."""
    a = cone_build(OCTANT)
    b = cone_build([(1, 1, 0), (1, -1, 0), (0, 0, -1)])
    h = tuple(x - y for x, y in zip(polyhedral._separator(a, b),
                                    polyhedral._separator(b, a)))
    assert h == (0, 0, 2)
    fallbacks = _fallbacks(monkeypatch)
    with pytest.raises(ValueError):
        fan_build([a, b])
    assert len(fallbacks) == 1


def test_fan_quadrants():
    q = [cone_build(g) for g in ([(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                                 [(-1, 0), (0, -1)], [(0, -1), (1, 0)])]
    fan = fan_build(q)
    assert [c.dim for c in fan.cones] == [0, 1, 1, 1, 1, 2, 2, 2, 2]
    assert len(fan.maximal) == 4
    cc = cell_complex(fan)
    assert {k: len(v) for k, v in cc.cells.items()} == {-1: 1, 0: 4, 1: 4}
    assert cc.boundary[0] == [[1, 1, 1, 1]]
    for j in range(4):
        col = sorted(cc.boundary[1][i][j] for i in range(4))
        assert col == [-1, 0, 0, 1]


def test_fan_drops_redundant_input():
    c = cone_build([(1, 0), (0, 1)])
    r = cone_build([(1, 0)], 2)
    fan = fan_build([c, c, r])
    assert fan.maximal == (c.key,)
    assert len(fan.cones) == 4


def test_fan_keeps_a_face_input_and_refuses_an_inner_one():
    """An input that is a face of another is kept as that face; one whose
    rays lie in another input's without being a face of it is refused."""
    square = cone_build(SQUARE)
    edge = cone_build([(1, 1, 1), (1, -1, 1)])
    for order in ([square, edge], [edge, square]):
        fan = fan_build(order)
        assert fan.maximal == (square.key,)
        assert len(fan.cones) == 10
    diagonal = cone_build([(1, 1, 1), (-1, -1, 1)])
    assert set(diagonal.rays) <= set(square.rays)
    for order in ([square, diagonal], [diagonal, square]):
        with pytest.raises(ValueError, match="do not meet in a common face"):
            fan_build(order)


def test_fan_build_certifies_face_sets():
    """fan_build refuses a cone whose face set is not itself and its
    facets' face sets, or whose facets in its lattice are fewer than its
    normals, with a RuntimeError, so also under `python -O`
    (test_acceptance.py).  Two octants meeting in a facet: the first
    one's face lattice is replaced before the build, losing a ray that
    its facets' lattices hold, or gaining a ray that none of them holds;
    and a quadrant whose lattice loses its facet (1, 0), which leaves the
    face sets closed.  Intact fans, and every fixture's, build as before."""
    def build(first, change=None, *others):
        a = cone_build(first)
        if change is not None:
            lat = face_lattice(a)
            object.__setattr__(a, "_lattice", FaceLattice(
                a, tuple(change(lat.faces))))
        return fan_build([a, *map(cone_build, others)])

    other = [(-1, 0, 0), (0, 1, 0), (0, 0, 1)]
    quadrant = [(1, 0), (0, 1)]
    assert len(build(OCTANT, None, other).cones) == 12
    assert len(build(quadrant).cones) == 4
    for first, change, *others in (
            (OCTANT, lambda faces: [f for f in faces
                                    if f.rays != ((0, 1, 0),)], other),
            (OCTANT, lambda faces: [*faces, cone_build([(-1, 0, 0)])], other),
            (quadrant, lambda faces: [f for f in faces
                                      if f.rays != ((1, 0),)])):
        with pytest.raises(RuntimeError,
                           match="face lattice certificate failed"):
            build(first, change, *others)
    for name, fixture in ALL_FIXTURES.items():
        fan = fixture().fan
        again = fan_build([cone_build(fan.by_key(k).rays) for k in fan.maximal])
        assert [c.key for c in again.cones] == [c.key for c in fan.cones], name


def _cross_cone(n):
    """The cone over the n-dimensional cross-polytope, in Z^(n+1)."""
    return [tuple(s * (i == j) for j in range(n)) + (1,)
            for i in range(n) for s in (1, -1)]


DAMAGE_CONES = [[(1, 0), (1, 3)], OCTANT, SQUARE,
                [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)],
                _cross_cone(3), [(a, b, c, 1) for a in (1, -1)
                                 for b in (1, -1) for c in (1, -1)]]


def _with_normals(gens, change):
    """cone_build(gens) with the normals of its extreme_rays call, in the
    span's coordinates, replaced by change(normals)."""
    real = polyhedral.extreme_rays
    polyhedral.extreme_rays = lambda rows, k: change(real(rows, k))
    try:
        return cone_build(gens)
    finally:
        polyhedral.extreme_rays = real


def test_fan_build_refuses_damaged_cones():
    """A cone that lost any one extreme ray, any one facet normal, or
    gained a normal cutting out a face below a facet is refused by
    fan_build with the face lattice certificate's RuntimeError, so also
    under `python -O` (test_acceptance.py); a simplicial cone that lost a
    facet normal is not pointed.  A cone whose facet normal w_i is
    swapped for w_i + w_(i+1), a non-facet, keeps the count of normals
    and is refused too.  28 rays and 23 facets dropped, 6 normals added
    and 28 swapped, on 6 cones of dimension 2 to 4."""
    refused = not_pointed = 0
    for gens in DAMAGE_CONES:
        c = cone_build(gens)
        n = len(c.facets)
        damaged = [Cone(c.ambient_dim, c.generators, c.rays[:i] + c.rays[i + 1:],
                        c.facets, c.dim, c.lin_basis, c.equations)
                   for i in range(len(c.rays))]
        for i in range(n):
            try:
                damaged.append(_with_normals(gens,
                                             lambda w: w[:i] + w[i + 1:]))
            except ConeNotPointedError:
                assert n == c.dim
                not_pointed += 1
            damaged.append(_with_normals(gens, lambda w: [
                *w[:i], *w[i + 1:], vadd(w[i], w[(i + 1) % n])]))
        damaged.append(_with_normals(gens, lambda w: [*w, vadd(w[0], w[1])]))
        for bad in damaged:
            with pytest.raises(RuntimeError,
                               match="face lattice certificate failed"):
                fan_build([bad])
            refused += 1
    assert (refused, not_pointed) == (28 + 23 + 6 + 28, 5)


def test_cone_over_the_cross_polytope_builds_in_a_second():
    """The 6-D cone over the 5-cross-polytope: 10 rays, 32 facets and 244
    cones, cone and fan built in under a second of CPU."""
    t0 = time.process_time()
    cone = cone_build(_cross_cone(5))
    fan = fan_build([cone])
    spent = time.process_time() - t0
    assert (len(cone.rays), len(cone.facets), len(fan.cones)) == (10, 32, 244)
    assert spent < 1.0, spent


def test_fan_carrier():
    c = cone_build([(1, 0), (0, 1)])
    fan = fan_build([c])
    assert fan.carrier((1, 1)).key == c.key
    assert fan.carrier((2, 0)).rays == ((1, 0),)
    assert fan.carrier((0, 0)).dim == 0
    assert fan.carrier((-1, 0)) is None
    assert fan.carrier((3, 1)) is not None and fan.carrier((-1, -1)) is None


def test_face_at_is_the_first_face_holding_the_point():
    checked = 0
    for build in ALL_FIXTURES.values():
        mcc = build()
        for cone in mcc.fan.cones:
            faces = face_lattice(cone).faces
            for v in itertools.product(range(-3, 4), repeat=mcc.ambient_dim):
                if cone.contains(v):
                    assert face_at(cone, v) == next(
                        f.key for f in faces if f.contains(v)), (cone.key, v)
                    checked += 1
    assert checked


def test_skeleton_fan():
    c = cone_build(OCTANT)
    fan = fan_build([c])
    sk = skeleton_fan(fan, 1)
    assert [x.dim for x in sk.cones] == [0, 1, 1, 1]
    assert len(sk.maximal) == 3
    sk0 = skeleton_fan(fan, 0)
    assert len(sk0.cones) == 1 and sk0.dim == 0


def test_boundary_squared_three_dim():
    fan = fan_build([cone_build(SQUARE)])
    cc = cell_complex(fan)
    assert {k: len(v) for k, v in cc.cells.items()} == {-1: 1, 0: 4, 1: 4, 2: 1}
    for deg in range(1, fan.dim):
        A, B = cc.boundary[deg - 1], cc.boundary[deg]
        prod = [[sum(A[i][k] * B[k][j] for k in range(len(B)))
                 for j in range(len(B[0]))] for i in range(len(A))]
        assert all(v == 0 for row in prod for v in row)


def test_trivial_fan_complex():
    fan = fan_build([zero_cone(3)])
    cc = cell_complex(fan)
    assert cc.cells == {-1: [()]}
    assert cc.boundary == {}


def test_up_set_and_facets_of():
    q = [cone_build(g) for g in ([(1, 0), (0, 1)], [(0, 1), (-1, 0)])]
    fan = fan_build(q)
    ray = fan.by_key(((0, 1),))
    ups = fan.up_set(ray)
    assert {u.key for u in ups} == {((0, 1),), ((0, 1), (1, 0)), ((-1, 0), (0, 1))}
    top = fan.by_key(((0, 1), (1, 0)))
    assert {f.key for f in facets_of(fan, top)} == {((1, 0),), ((0, 1),)}
    # cochain's row of the top cone is nonzero on these facets alone
    rays = fan.cones_of_dim(1)
    row = cochain(fan.cones)[1][1][fan.cones_of_dim(2).index(top)]
    assert {rays[j].key for j, x in enumerate(row) if x} == {((1, 0),), ((0, 1),)}


def facets_of(fan, cone):
    """The cones of the fan one dimension below `cone` in its face lattice."""
    return [c for c in fan.faces_of(cone) if c.dim == cone.dim - 1]


def test_up_set_matches_face_lattices():
    """Ray containment inside a fan is the face relation of the cached
    face lattices, on every fixture and the d=3 cross-polytope."""
    for fan in [build().fan for build in ALL_FIXTURES.values()] + [crosspoly_fan(3)]:
        for c in fan.cones:
            want = {d.key for d in fan.cones if c in face_lattice(d).faces}
            assert {d.key for d in fan.up_set(c)} == want, c.key


def test_faces_on_each_facet_match_a_ray_check():
    """on_facet lists, per facet normal of the cone, the faces whose rays
    the normal vanishes on, and every proper face lies on some facet: on
    every cone of the fixture fans and the cross-polytope fans up to d=4,
    whose lattices come from their maximal cones', and on the faces of the
    non-simplicial square cone."""
    fans = ([build().fan for build in ALL_FIXTURES.values()]
            + [crosspoly_fan(d) for d in (2, 3, 4)])
    cones = [c for fan in fans for c in fan.cones]
    cones += face_lattice(cone_build(SQUARE)).faces
    for c in cones:
        fl = face_lattice(c)
        assert len(fl.on_facet) == len(c.facets)
        for f, on in zip(c.facets, fl.on_facet):
            assert on == tuple(h.key for h in fl.faces
                               if all(dot(f, r) == 0 for r in h.rays))
        assert set().union(*fl.on_facet) == {h.key for h in fl.faces} - {c.key}


def test_maximal_cones_of_subfans():
    """fan.maximal lists the cones lying in no other cone's face lattice,
    for fans, their skeleta and the subfans away from a star;
    maximal_above(c) is the part of up_set(c) among them."""
    for fan in [build().fan for build in ALL_FIXTURES.values()] + [crosspoly_fan(3)]:
        subfans = [fan] + [skeleton_fan(fan, i) for i in range(fan.dim + 1)]
        ray = fan.cones_of_dim(1)[0]
        subfans.append(Fan(fan.ambient_dim, tuple(
            c for c in fan.cones if c not in fan.up_set(ray))))
        for sub in subfans:
            want = sorted(c.key for c in sub.cones
                          if not any(o != c and c in face_lattice(o).faces
                                     for o in sub.cones))
            assert list(sub.maximal) == want
            for c in sub.cones:
                assert sub.maximal_above(c) == tuple(
                    d for d in sub.up_set(c) if d.key in want)


def test_cochain_asks_linked_only_on_facet_pairs():
    fan = crosspoly_fan(3)
    asked = []

    def linked(small, big):
        asked.append((small.key, big.key))
        return sum(small.rays[0]) > 0 if small.rays else True

    sizes, mats = cochain(fan.cones, linked)
    assert sizes == {0: 1, 1: 6, 2: 12, 3: 8}
    pairs = {(s.key, b.key) for b in fan.cones for s in facets_of(fan, b)}
    assert sorted(asked) == sorted(pairs)
    plain = cochain(fan.cones)[1]
    for t, M in mats.items():
        for big, row, full in zip(fan.cones_of_dim(t + 1), M, plain[t]):
            for small, x, y in zip(fan.cones_of_dim(t), row, full):
                if (small.key, big.key) not in pairs:
                    assert x == y == 0
                else:
                    assert y == big.facet_sign(small)
                    assert x == (y if linked(small, big) else 0)
    assert any(x == 0 and y for t in mats
               for row, full in zip(mats[t], plain[t])
               for x, y in zip(row, full))

