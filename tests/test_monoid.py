"""Monoid tests with exhaustive-search oracles.

Membership is compared against direct coefficient enumeration; the
normality and seminormality decisions are compared against the
definition-based scans (group points of the cone for normality, the
2x/3x closure condition for seminormality) over degree boxes.
"""

import itertools
import random

import pytest
from test_polyhedral import solve_exact

from conftest import full_lattice
from toricface import monoid
from toricface.lattice import (LatticeBasis, det_int, dot, kernel_basis,
                               lattice_from_rows, mat_mul, primitive,
                               rank_int, solve_in_lattice, vadd, vsub)
from toricface.monoid import (
    BoundTooSmallError,
    check_seminormal_normal,
    generated_points,
    hilbert_basis,
    minimal_ray_point,
    monoid_build,
    monoid_face_gens,
    monoid_member,
    normalization,
    parallelepiped_points,
    seminormalize,
    seminormalized_monoid,
    triangulate_cone,
)
from toricface.polyhedral import cone_build, face_lattice


def oracle_member(gens, grading, v):
    """Exhaustive coefficient search: each coefficient is at most deg(v)."""
    target = dot(grading, v)
    if target < 0:
        return False

    def rec(i, acc, rem):
        if acc == v and rem == 0:
            return True
        if i == len(gens):
            return False
        g = gens[i]
        dg = dot(grading, g)
        t = 0
        cur = acc
        while t * dg <= rem:
            if rec(i + 1, cur, rem - t * dg):
                return True
            t += 1
            cur = vadd(cur, g)
        return False

    return rec(0, tuple(0 for _ in v), target)


def box_points(M, bound):
    """Integer vectors in the coordinate box with grading value <= bound."""
    d = M.ambient_dim
    rng = range(-bound, bound + 1)
    return [v for v in itertools.product(rng, repeat=d)
            if 0 <= dot(M.grading, v) <= bound]


M1 = monoid_build([(3, 0), (3, 1), (3, 3)])
M2 = monoid_build([(1, 0), (0, 2), (1, 1)])
M3 = monoid_build([(1, 0), (0, 1)])
M4 = monoid_build([(1, 0), (0, 4), (1, 2)])
M5 = monoid_build([(2, 0), (3, 0)])
OCT = monoid_build([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_member_frozen():
    assert monoid_member(M1, (3, 2)) is None
    assert monoid_member(M1, (6, 2)) == (0, 2, 0)
    assert monoid_member(M1, (0, 0)) == (0, 0, 0)
    assert monoid_member(M2, (0, 1)) is None
    assert monoid_member(M5, (1, 0)) is None
    assert monoid_member(M5, (7, 0)) == (2, 1)


def test_member_matches_exhaustive_enumeration():
    for M in (M1, M2, M3, M4, M5):
        for v in box_points(M, 12):
            got = monoid_member(M, v) is not None
            want = oracle_member(M.generators, M.grading, v)
            assert got == want, (M.generators, v)
    for v in box_points(OCT, 6):
        got = monoid_member(OCT, v) is not None
        assert got == oracle_member(OCT.generators, OCT.grading, v)


def reference_member(M, v):
    """The generators to subtract from v in turn, each the first in order
    that leaves a member: a recursive search with no memo."""
    if not any(v):
        return ()
    for g in M.generators:
        y = vsub(v, g)
        if M.cone.contains(y) and solve_in_lattice(M.group, y) is not None:
            rest = reference_member(M, y)
            if rest is not None:
                return (g,) + rest
    return None


def test_member_deep_query_needs_no_recursion():
    """A query 1200 generators deep answers on a fresh monoid, and the same
    after a shallower query filled the memo; on small boxes the
    coefficients are those of the first-generator-in-order search."""
    fresh = monoid_build([(1, 0), (0, 1)], 2)
    assert monoid_member(fresh, (1200, 0)) == (0, 1200)
    warm = monoid_build([(1, 0), (0, 1)], 2)
    assert monoid_member(warm, (600, 0)) == (0, 600)
    assert monoid_member(warm, (1200, 0)) == (0, 1200)
    for gens in (M1.generators, M2.generators, M4.generators):
        M = monoid_build(gens)
        for v in box_points(M, 7):
            path = reference_member(M, v)
            want = None if path is None else tuple(
                path.count(g) for g in M.generators)
            assert monoid_member(M, v) == want, (gens, v)


def test_member_certificates_on_random_sums():
    import random
    rng = random.Random(3)
    for M in (M1, M2, M4, OCT):
        for _ in range(25):
            v = tuple(0 for _ in range(M.ambient_dim))
            for g in M.generators:
                for _ in range(rng.randint(0, 3)):
                    v = vadd(v, g)
            coeffs = monoid_member(M, v)
            assert coeffs is not None
            acc = tuple(0 for _ in range(M.ambient_dim))
            for c, g in zip(coeffs, M.generators):
                for _ in range(c):
                    acc = vadd(acc, g)
            assert acc == v


def test_hilbert_basis_frozen():
    assert normalization(M1).elements == ((3, 0), (3, 1), (3, 2), (3, 3))
    assert normalization(M2).elements == ((0, 1), (1, 0))
    assert normalization(M3).elements == ((0, 1), (1, 0))
    assert normalization(M5).elements == ((1, 0),)
    sq = cone_build([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    hb = hilbert_basis(sq, full_lattice(3))
    assert hb == tuple(sorted((x, y, 1) for x in (-1, 0, 1) for y in (-1, 0, 1)))


def test_normalization_matches_group_cone_scan():
    # normalization points = cone points of the group, on a box
    for M in (M1, M2, M4, M5):
        hb = normalization(M).elements
        nm = monoid_build(hb, M.ambient_dim)
        for v in box_points(M, 10):
            in_bar = (solve_in_lattice(M.group, v) is not None
                      and M.cone.contains(v))
            assert (monoid_member(nm, v) is not None) == in_bar, v


def test_normalization_idempotent():
    for M in (M1, M2, M4, M5, OCT):
        hb = normalization(M).elements
        again = normalization(monoid_build(hb, M.ambient_dim)).elements
        assert set(again) == set(hb)


def random_lattice_and_points(rng, d, k, rank=None):
    """A random lattice in Z^d, mostly not saturated, of rank r >= k (of
    rank exactly `rank` when it is given), and k independent points of it."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(d)]
                for _ in range(rank or rng.randint(k, d))]
        L = lattice_from_rows(d, rows)
        if L.rank < k or rank not in (None, L.rank):
            continue
        coeffs = [[rng.randint(-2, 2) for _ in rows] for _ in range(k)]
        pts = [tuple(sum(c * b[j] for c, b in zip(cs, rows)) for j in range(d))
               for cs in coeffs]
        if rank_int([list(p) for p in pts]) == k:
            return L, pts


def test_minimal_ray_point():
    zm = M1.group
    assert minimal_ray_point((1, 0), zm) == (3, 0)
    assert minimal_ray_point((1, 1), zm) == (3, 3)
    assert minimal_ray_point((1, 2), full_lattice(2)) == (1, 2)
    # against the first multiple found by a scan, on random lattices
    rng = random.Random(1410)
    for d in (1, 2, 3):
        for _ in range(25):
            L, (p,) = random_lattice_and_points(rng, d, 1)
            ray = primitive(p)
            t = next(t for t in itertools.count(1)
                     if solve_in_lattice(L, [t * x for x in ray]) is not None)
            assert minimal_ray_point(ray, L) == tuple(t * x for x in ray), (L, ray)


def brute_parallelepiped(spts, L, d):
    """Points of L in the bounding box of the parallelepiped whose Fraction
    coordinates over the simplex points lie in [0, 1)."""
    corners = [tuple(sum(s[j] for s in sub) for j in range(d))
               for n in range(len(spts) + 1)
               for sub in itertools.combinations(spts, n)]
    box = [range(min(c[j] for c in corners), max(c[j] for c in corners) + 1)
           for j in range(d)]
    out = set()
    for z in itertools.product(*box):
        if solve_in_lattice(L, z) is None:
            continue
        q = solve_exact(spts, z)
        if q is not None and all(0 <= x < 1 for x in q):
            out.add(z)
    return out


def test_parallelepiped_points():
    pts = parallelepiped_points([(1, 0), (1, 2)], full_lattice(2), 2)
    assert pts == {(0, 0), (1, 1)}
    pts1 = parallelepiped_points([(3, 0), (3, 3)], M1.group, 2)
    assert pts1 == {(0, 0), (3, 1), (3, 2)}
    # against a box scan, on random rank-k lattices and k-simplices of
    # every dimension k
    rng = random.Random(2207)
    sizes = set()
    for d in (1, 2, 3):
        for trial in range(12):
            k = 1 + trial % d
            L, spts = random_lattice_and_points(rng, d, k, rank=k)
            got = parallelepiped_points(spts, L, d)
            assert got == brute_parallelepiped(spts, L, d), (L, spts)
            sizes.add(len(got))
    assert max(sizes) > 2
    # a lattice of higher rank than the simplex: a ValueError, not an assert
    with pytest.raises(ValueError, match="rank 2 for 1 simplex points"):
        parallelepiped_points([(1, 2)], full_lattice(2), 2)


def test_triangulation_covers_cone():
    sq = cone_build([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    tri = triangulate_cone(sq)
    assert len(tri) == 2
    parts = [cone_build(s, 3) for s in tri]
    for v in itertools.product(range(-3, 4), repeat=3):
        assert sq.contains(v) == any(p.contains(v) for p in parts)


@pytest.mark.parametrize("polygon, volume", [
    ([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)], 6),
    ([(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)], 5),
])
def test_triangulation_with_interior_facets(polygon, volume):
    """Placing a ray past the first simplex leaves facets shared by two
    simplices, which no new simplex may use: the simplices of the cone
    over a lattice hexagon or pentagon have normalized volumes summing to
    twice its area, and the Hilbert basis is the set of irreducible cone
    points in a box holding every cone point of height at most 2."""
    cone = cone_build([(x, y, 1) for x, y in polygon])
    tri = triangulate_cone(cone)
    assert len(tri) > 2
    assert sum(abs(det_int([list(r) for r in s])) for s in tri) == volume
    pts = [v for v in itertools.product(range(-2, 3), range(-2, 3), range(3))
           if any(v) and cone.contains(v)]
    irreducible = {v for v in pts
                   if not any(any(vsub(v, u)) and cone.contains(vsub(v, u))
                              for u in pts)}
    assert set(hilbert_basis(cone, full_lattice(3))) == irreducible


def reference_triangulation(cone):
    """The placing triangulation computed in lattice coordinates: the
    saturated span of the placed rays, every ray's coordinates on it, and
    per boundary facet the kernel of its rays, signed positive on the ray
    opposite; a ray sees the facet when that normal is negative on it.
    A ray that raises the rank of the rays before it is coned over every
    simplex."""
    rays = list(cone.rays)
    if not rays:
        return []
    d = cone.ambient_dim
    independent = {i for i in range(len(rays))
                   if rank_int([list(r) for r in rays[:i + 1]]) > rank_int(
                       [list(r) for r in rays[:i]])}
    placed = [rays[0]]
    simplices = [(rays[0],)]
    for i, v in enumerate(rays[1:], 1):
        if i in independent:
            simplices = [s + (v,) for s in simplices]
        else:
            # the saturation Z^d ∩ span is the kernel of the kernel
            span = LatticeBasis(d, tuple(kernel_basis(
                kernel_basis([list(r) for r in placed], d), d)))
            coords = {r: tuple(solve_in_lattice(span, r)) for r in placed + [v]}
            count, owner = {}, {}
            for s in simplices:
                for f in itertools.combinations(s, len(s) - 1):
                    key = frozenset(f)
                    count[key] = count.get(key, 0) + 1
                    owner[key] = (f, s)
            new = []
            for key, cnt in count.items():
                if cnt != 1:
                    continue
                f, s = owner[key]
                (n,) = kernel_basis([list(coords[r]) for r in f], span.rank)
                opp = next(r for r in s if r not in key)
                if dot(n, coords[opp]) < 0:
                    n = tuple(-x for x in n)
                if dot(n, coords[v]) < 0:
                    new.append(f + (v,))
            simplices = simplices + new
        placed.append(v)
    return simplices


def test_triangulation_matches_the_coordinate_placing(monkeypatch):
    """triangulate_cone, which reads every visibility from `side` signs,
    places the same simplices in the same order as the coordinate
    reference above, on 320 seeded cones over lattice polytopes in Z^2 to
    Z^4: 47 of lower dimension than Z^d, and 183 not simplicial, where a
    ray inside the span of the placed ones is placed over the boundary.
    On the 134 of those up to 3-D the Hilbert data over the generators'
    group (basis and max degree) is the same with either triangulation."""
    rng = random.Random(2801)
    kinds = {"simplicial": 0, "not simplicial": 0, "lower-dimensional": 0}
    hilbert = 0
    for trial in range(320):
        d = rng.randint(2, 4)
        k = rng.randint(min(3, d), d)
        m = rng.randint(k + 1, k + 6)
        points = [tuple(rng.randint(-2, 2) for _ in range(k - 1))
                  + (rng.randint(1, 2),) for _ in range(m)]
        lift = [[int(i == j) for j in range(d)] for i in range(k)]
        if k < d:
            lift[rng.randrange(k)] = [rng.randint(-2, 2) for _ in range(d)]
        if rank_int(lift) < k:
            lift = [[int(i == j) for j in range(d)] for i in range(k)]
        gens = [tuple(r) for r in mat_mul(points, lift)]
        cone = cone_build(gens)
        want = reference_triangulation(cone)
        got = triangulate_cone(cone)
        assert got == want, (gens, got, want)
        kinds["simplicial" if len(cone.rays) == cone.dim
              else "not simplicial"] += 1
        kinds["lower-dimensional"] += cone.dim < d
        if len(cone.rays) > cone.dim <= 3:
            group = lattice_from_rows(d, gens)
            new = monoid._hilbert_data(cone, group)
            with monkeypatch.context() as m:
                m.setattr(monoid, "triangulate_cone", reference_triangulation)
                assert monoid._hilbert_data(cone, group) == new, gens
            hilbert += 1
    assert kinds["not simplicial"] >= 160 and kinds["simplicial"] >= 40, kinds
    assert kinds["lower-dimensional"] >= 40 and hilbert >= 80, (kinds, hilbert)


def test_seminormalize_frozen():
    r1 = seminormalize(M1)
    assert r1.generators == ((3, 0), (3, 1), (3, 2), (3, 3))
    assert r1.witness == (3, 2)
    r2 = seminormalize(M2)
    assert r2.generators == M2.generators
    assert r2.witness is None
    r5 = seminormalize(M5)
    assert r5.generators == ((1, 0),)
    assert r5.witness == (1, 0)


def test_seminormalize_idempotent():
    for M in (M1, M2, M4, M5):
        P = seminormalized_monoid(M)
        assert seminormalize(P).generators == P.generators


def test_inclusion_chain():
    # M inside its seminormalization inside its normalization, by generators
    for M in (M1, M2, M4, M5, OCT):
        P = seminormalized_monoid(M)
        Nm = monoid_build(normalization(M).elements, M.ambient_dim)
        for g in M.generators:
            assert monoid_member(P, g) is not None
        for g in P.generators:
            assert monoid_member(Nm, g) is not None


def test_check_frozen():
    c1 = check_seminormal_normal(M1)
    assert (c1.seminormal, c1.normal, c1.witness) == (False, False, (3, 2))
    c2 = check_seminormal_normal(M2)
    assert (c2.seminormal, c2.normal, c2.witness) == (True, False, (0, 1))
    c3 = check_seminormal_normal(M3)
    assert (c3.seminormal, c3.normal, c3.witness) == (True, True, None)
    c5 = check_seminormal_normal(M5)
    assert (c5.seminormal, c5.normal, c5.witness) == (False, False, (1, 0))
    c4 = check_seminormal_normal(M4)
    assert (c4.seminormal, c4.normal) == (True, False)


def test_normal_implies_seminormal():
    for M in (M1, M2, M3, M4, M5, OCT):
        c = check_seminormal_normal(M)
        if c.normal:
            assert c.seminormal


def test_seminormal_matches_definition_scan():
    # x with 2x, 3x in M but x outside refutes seminormality; none within
    # the box confirms it (box adequate for these fixtures)
    for M in (M1, M2, M3, M4, M5):
        violation = None
        for x in box_points(M, 8):
            if monoid_member(M, x) is not None or x == (0,) * M.ambient_dim:
                continue
            two = tuple(2 * c for c in x)
            three = tuple(3 * c for c in x)
            if (monoid_member(M, two) is not None
                    and monoid_member(M, three) is not None):
                violation = x
                break
        assert (violation is None) == check_seminormal_normal(M).seminormal, (
            M.generators, violation)


def test_bound_too_small_error():
    with pytest.raises(BoundTooSmallError) as ei:
        seminormalize(M4, bound=2)
    assert ei.value.element is not None
    # the default bound succeeds
    assert seminormalize(M4).generators == M4.generators


def test_seminormalize_refuses_bounds_below_one():
    # M1 is fix-b's cusp monoid; a bound below 1 certifies nothing
    for bound in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            seminormalize(M1, bound)


def test_face_restriction_exact():
    # generators on a face generate exactly the face part of the monoid
    for M in (M1, M2, M4, OCT):
        for face in face_lattice(M.cone).faces:
            gens_f = monoid_face_gens(M, face)
            if gens_f:
                Mf = monoid_build(gens_f, M.ambient_dim)
            for v in box_points(M, 8):
                in_face_part = (monoid_member(M, v) is not None
                                and face.contains(v))
                if gens_f:
                    got = monoid_member(Mf, v) is not None
                else:
                    got = v == (0,) * M.ambient_dim
                assert got == in_face_part, (M.generators, face.rays, v)


def test_generated_points_bfs():
    pts = generated_points(M3.generators, M3.grading, 3, 2)
    assert pts == {(x, y) for x in range(4) for y in range(4) if x + y <= 3}


@pytest.mark.parametrize("d", [2, 3])
def test_monoid_build_on_a_given_cone(d):
    """A given cone is checked exactly and gives the same monoid."""
    rng = random.Random(6300 + d)
    for _ in range(25):
        # a positive last coordinate keeps the cone pointed
        gens = [tuple(rng.randint(-3, 3) for _ in range(d - 1))
                + (rng.randint(1, 3),) for _ in range(rng.randint(1, 5))]
        cone = cone_build(gens, d)
        built, given = monoid_build(gens, d), monoid_build(gens, d, cone)
        assert given.cone is cone
        assert (given.generators, given.group.basis, given.grading) == \
            (built.generators, built.group.basis, built.grading)
        assert (built.cone.rays, built.cone.facets) == (cone.rays, cone.facets)
        ray = rng.choice(cone.rays)
        with pytest.raises(ValueError, match="extreme ray"):
            monoid_build([g for g in gens if primitive(g) != ray], d, cone)
        outside = tuple(-x for x in cone.interior_point())
        with pytest.raises(ValueError, match="outside"):
            monoid_build(gens + [outside], d, cone)
