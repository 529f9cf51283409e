"""Star formula, star classes, depth, and the order-complex comparison."""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

import toricface.cohomology as cohomology_module
import toricface.moncomplex as moncomplex_module
import toricface.polyhedral as polyhedral_module
from conftest import (ALL_FIXTURES, crosspoly, fix_a, fix_b, fix_c,
                      octant_boundary, stanley_r1)
from toricface.cohomology import (
    CohomologyTable,
    DegreeComputation,
    DegreeStep,
    DepthResult,
    bbr_formula,
    c_k_monoid,
    check_characteristic,
    cohomology_report,
    complex_avoiding,
    depth,
    is_cohen_macaulay,
    is_prime,
    local_cohomology_degree,
    local_cohomology_trace,
    prime_factors,
    star,
    star_classes,
    star_table,
    table_add,
    table_from_cochain,
    table_shift,
    zero_table,
)
import toricface.lattice as lattice_module
from toricface.cech import cech_degree, cech_slice
from toricface.lattice import (elementary_divisors, mat_mul,
                               quotient_invariants, rank_int, snf, vadd,
                               vneg, vscale)
from toricface.moncomplex import (ComplexError, build_complex, restrict,
                                  seminormalize_complex)
from toricface.monoid import monoid_build, monoid_face_gens
from toricface.polyhedral import (Fan, cochain, cone_build, face_lattice,
                                  fan_build, relint_contains, skeleton_fan,
                                  zero_cone)


def box(dim, radius):
    return itertools.product(range(-radius, radius + 1), repeat=dim)


def two_planes_at_a_point():
    """Two 2-cones in R^3 meeting only at the origin: not CM, depth 1."""
    fan = fan_build([cone_build([(1, 0, 0), (0, 1, 0)]),
                     cone_build([(0, 0, 1), (-1, -1, 0)])])
    return build_complex(fan, stanley=True)


def projective_plane():
    """Stanley complex of the 6-vertex RP^2 on coordinate cones of R^6:
    CM exactly when the characteristic is not 2."""
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
    unit = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    fan = fan_build([cone_build([unit[i] for i in t]) for t in triangles])
    return build_complex(fan, stanley=True)


def two_cube_cones():
    """Stanley complex of the cones over the 3-cubes [-1,1]^3 and
    [1,3]x[-1,1]^2 at height 1, glued along their common square: two
    non-simplicial 4-cones, the first four rays of each dependent."""
    cubes = [((-1, 1), (-1, 1), (-1, 1)), ((1, 3), (-1, 1), (-1, 1))]
    fan = fan_build([cone_build([(*p, 1) for p in itertools.product(*cube)])
                     for cube in cubes])
    return build_complex(fan, stanley=True)


FIX_C_BIG = cone_build([(1, 0), (0, 2), (1, 1)]).key       # C
FIX_C_SMALL = cone_build([(0, 2), (-2, 2)]).key            # C'
RAY_X = ((1, 0),)
RAY_Y = ((0, 1),)
RAY_Z = ((-1, 1),)


# ---------------------------------------------------------------------------
# tables

def test_is_prime_and_factors():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == {2, 3, 5}
    assert prime_factors(1) == set()


def test_check_characteristic_rejects_bad_values():
    for bad in (4, -1, 1, "p", "2", False, True, 0.0, 2.0):
        with pytest.raises(ValueError):
            check_characteristic(bad)
    assert check_characteristic("all") == "all"
    assert check_characteristic(0) == 0
    assert check_characteristic(7) == 7


def test_table_from_cochain_torsion():
    # one map (x -> 2x): exact over Q, trivial over F_2
    t = table_from_cochain({0: 1, 1: 1}, {0: [[2]]}, "all")
    assert t.entries == ()
    assert t.corrections == ((2, ((0, 1), (1, 1))),)
    assert t.bad_primes == (2,)
    assert t.dims_mod(2) == {0: 1, 1: 1}
    assert t.dims_mod(3) == {}
    assert t.dims() == {}
    t2 = table_from_cochain({0: 1, 1: 1}, {0: [[2]]}, 2)
    assert t2.entries == ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        t2.dims_mod(3)


def test_table_shift_and_add():
    t = CohomologyTable("all", ((1, 2),), ((3, ((1, 1),)),))
    s = table_shift(t, 2)
    assert s.entries == ((3, 2),)
    assert s.corrections == ((3, ((3, 1),)),)
    both = table_add(s, table_shift(s, 0))
    assert both.entries == ((3, 4),)
    assert both.corrections == ((3, ((3, 2),)),)
    z = zero_table("all")
    assert table_add(t, z).entries == t.entries
    assert t.total == 2 and z.total == 0


def _rank_fraction(M):
    A = [[Fraction(x) for x in row] for row in M]
    rank = 0
    cols = len(A[0]) if A else 0
    row = 0
    for c in range(cols):
        piv = next((i for i in range(row, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        A[row] = [x / A[row][c] for x in A[row]]
        for i in range(len(A)):
            if i != row and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[row])]
        rank += 1
        row += 1
    return rank


def _rank_mod(M, p):
    A = [[x % p for x in row] for row in M]
    rank = 0
    row = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        piv = next((i for i in range(row, len(A)) if A[i][c] % p), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = pow(A[row][c], p - 2, p)
        A[row] = [x * inv % p for x in A[row]]
        for i in range(len(A)):
            if i != row and A[i][c] % p:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[row])]
        rank += 1
        row += 1
    return rank


def test_table_builder_against_elimination_oracle():
    """Random two-step complexes: SNF ranks vs direct elimination ranks."""
    rng = random.Random(20240817)
    for _ in range(30):
        n0, n1, n2 = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        d0 = [[rng.randint(-4, 4) for _ in range(n0)] for _ in range(n1)]
        # force d1*d0 = 0 by building d1 from the left kernel of d0 over Q
        d1 = [[rng.randint(-3, 3) for _ in range(n1)] for _ in range(n2)]
        prod = [[sum(d1[i][k] * d0[k][j] for k in range(n1))
                 for j in range(n0)] for i in range(n2)]
        if any(x for row in prod for x in row):
            d1 = [[0] * n1 for _ in range(n2)]
        sizes = {0: n0, 1: n1, 2: n2}
        mats = {0: d0, 1: d1}
        for p in (0, 2, 3, 5):
            t = table_from_cochain(sizes, mats, "all" if p == 0 else p)
            rk = (_rank_fraction if p == 0 else
                  lambda M, q=p: _rank_mod(M, q))
            r0, r1 = rk(d0), rk(d1)
            expect = {0: n0 - r0, 1: n1 - r1 - r0, 2: n2 - r1}
            got = t.dims() if p == 0 else t.dims_mod(p)
            assert got == {i: d for i, d in expect.items() if d}, (p, mats)


# ---------------------------------------------------------------------------
# stars

def test_star_fix_c_acceptance_degrees():
    c = fix_c()
    b = (0, -1)
    assert star(c, vneg(b)).keys == (FIX_C_BIG,)
    twice = vneg((0, -2))
    assert star(c, twice).keys == (RAY_Y, FIX_C_SMALL, FIX_C_BIG)


def test_star_of_origin_is_everything():
    for mcc in (fix_a(), fix_b(), fix_c(), stanley_r1(), octant_boundary()):
        st = star(mcc, (0,) * mcc.ambient_dim)
        assert st.keys == tuple(c.key for c in mcc.fan.cones)


def test_star_outside_support_is_empty():
    c = fix_c()
    assert star(c, (0, -1)).cones == ()
    assert star(c, (5, -1)).cones == ()


def test_star_membership_definition_on_box():
    """A cone is in the star exactly when it holds the point and its group does."""
    c = fix_c()
    for a in box(2, 4):
        keys = set(star(c, a).keys)
        for cone in c.fan.cones:
            member = cone.contains(a) and c.monoids[cone.key].group.contains(a)
            assert (cone.key in keys) == member


def _check_index_against_scans(mcc, degrees):
    fan = mcc.fan
    for c in fan.cones:
        rs = set(c.rays)
        ups = fan.up_set(c)
        faces = fan.faces_of(c)
        assert ups == tuple(d for d in fan.cones if rs <= set(d.rays)), c.key
        assert faces == tuple(d for d in fan.cones if set(d.rays) <= rs), c.key
        assert all(d is fan.by_key(d.key) for d in ups + faces)
    for a in degrees:
        want = next((c for c in fan.cones if relint_contains(c, a)), None)
        # the first call may find the carrier, the second reads the memo
        for _ in range(2):
            got = fan.carrier(a)
            assert (got is None and want is None) or got is want, a
        assert star(mcc, a).keys == tuple(
            c.key for c in fan.cones
            if c.contains(a) and mcc.monoids[c.key].group.contains(a)), a


def test_star_index_matches_scans():
    """star, carrier, up_set and faces_of read from the index equal their
    scan definitions on a degree box, for every shipped fixture, the d=2
    to d=4 cross-polytopes, the d=2 and d=3 cusps, and the subcomplexes
    away from a star (one per distinct star of the box, below d=4, where
    80 more restrictions would take seconds).  Each carrier is asked
    twice, so the memo's hits are checked as well as its misses.  Also
    run under `python -O` (test_acceptance.py): there the carrier rests
    on its sign vector alone, with no relint assert."""
    inputs = ([(build(), 3) for build in ALL_FIXTURES.values()]
              + [(crosspoly(2), 3), (crosspoly(3), 3), (crosspoly(4), 2),
                 (crosspoly(2, (2, 3)), 3), (crosspoly(3, (2, 3)), 2)])
    subcomplexes = 0
    for mcc, radius in inputs:
        degrees = list(box(mcc.ambient_dim, radius))
        _check_index_against_scans(mcc, degrees)
        if mcc.ambient_dim == 4:
            continue
        by_star = {}
        for b in degrees:
            by_star.setdefault(star(mcc, b).keys, b)
        for b in by_star.values():
            sub = complex_avoiding(mcc, b)
            if sub is not None:
                _check_index_against_scans(sub, degrees)
                subcomplexes += 1
    assert subcomplexes > 50


def test_carrier_memo_counts():
    """The d=3 cross-polytope's 8 octants have 24 facet tests but 3
    distinct hyperplanes, and [-5,5]^3 meets each of its 27 cones, so its
    carriers take 27 memo entries, one per sign vector."""
    fan = crosspoly(3).fan
    for a in box(3, 5):
        fan.carrier(a)
    assert sum(len(fan.by_key(k).facets) for k in fan.maximal) == 24
    assert fan._hyperplanes == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert len(fan._carriers) == len(fan.cones) == 27


def test_star_classes_fix_c_frozen():
    """Eleven interior classes plus the exterior one, all values pinned."""
    scs = star_classes(fix_c())
    data = [(None if sc.carrier is None else sc.carrier.key,
             sc.coset_rep,
             None if sc.star is None else sc.star.keys,
             sc.class_count_within_carrier) for sc in scs]
    assert data == [
        ((), (0, 0),
         ((), RAY_Z, RAY_Y, RAY_X, FIX_C_SMALL, FIX_C_BIG), 1),
        (RAY_Z, (-1, 1), (), 2),
        (RAY_Z, (-2, 2), (RAY_Z, FIX_C_SMALL), 2),
        (RAY_Y, (0, 2), (RAY_Y, FIX_C_SMALL, FIX_C_BIG), 2),
        (RAY_Y, (0, 1), (FIX_C_BIG,), 2),
        (RAY_X, (1, 0), (RAY_X, FIX_C_BIG), 1),
        (FIX_C_SMALL, (-2, 4), (FIX_C_SMALL,), 4),
        (FIX_C_SMALL, (-2, 5), (), 4),
        (FIX_C_SMALL, (-1, 4), (), 4),
        (FIX_C_SMALL, (-1, 5), (), 4),
        (FIX_C_BIG, (1, 1), (FIX_C_BIG,), 1),
        (None, None, None, 1),
    ]


def test_star_classes_partition_matches_box_scan():
    """Every box point's star equals the star of its class representative,
    each carrier has as many classes as its quotient index, and each class's
    star is spot-checked on three perturbed representatives: the coset
    representative plus a random point of K_C, pushed back into relint C
    along a point of K_C there."""
    rng = random.Random(7)
    for mcc in (fix_c(), fix_a(), stanley_r1(), octant_boundary(),
                crosspoly(2), crosspoly(3),
                seminormalize_complex(crosspoly(2, (2, 3)))):
        scs = star_classes(mcc)
        for a in box(mcc.ambient_dim, 3):
            carrier = mcc.fan.carrier(a)
            expected = star(mcc, a).keys
            if carrier is None:
                assert expected == ()
                continue
            hits = [sc for sc in scs
                    if sc.carrier is not None
                    and sc.carrier.key == carrier.key
                    and sc.class_lattice.contains(
                        tuple(x - r for x, r in zip(a, sc.coset_rep)))]
            assert len(hits) == 1
            assert hits[0].star.keys == expected
        per_carrier = collections.Counter(
            sc.carrier.key for sc in scs if sc.carrier is not None)
        for sc in scs[:-1]:
            c, K = sc.carrier, sc.class_lattice
            q = quotient_invariants(K, c.lin_basis)
            assert per_carrier[c.key] == sc.class_count_within_carrier == q.index
            step = vscale(math.lcm(*q.divisors), c.interior_point())
            assert K.contains(step) and relint_contains(c, step)
            for _ in range(3):
                v = sc.coset_rep
                for kvec in K.basis:
                    v = vadd(v, vscale(rng.randint(-2, 2), kvec))
                while not relint_contains(c, v):
                    v = vadd(v, step)
                assert star(mcc, v).keys == sc.star.keys


# ---------------------------------------------------------------------------
# the per-degree formula

def test_local_cohomology_fix_c_values():
    c = fix_c()
    t = local_cohomology_degree(c, (0, -1), "all")
    assert t.entries == ((2, 1),) and t.corrections == ()
    assert t.label == ""
    t = local_cohomology_degree(c, (0, -2), "all")
    assert t.entries == ((2, 1),) and t.corrections == ()
    # -a outside the support: everything vanishes
    assert local_cohomology_degree(c, (1, 1), "all").entries == ()
    # star of -a empty inside the support
    assert local_cohomology_degree(c, (1, -1), "all").entries == ()


def test_local_cohomology_fix_b_acceptance_value():
    b = fix_b()
    for ch in (0, 2, "all"):
        t = local_cohomology_degree(b, (0, -1), ch)
        assert t.dims() == {2: 1}
        assert t.corrections == ()
        assert t.label == "oracle-computed"


def test_trace_fix_b_restricted_step():
    """The splitting at a=(0,-1): zero star summand, the tail carries H^2."""
    b = fix_b()
    tr = local_cohomology_trace(b, (0, -1), 0)
    assert len(tr.steps) == 1
    step = tr.steps[0]
    assert step.star_keys == (((0, 1),), ((0, 1), (1, 1)))
    assert step.summand.entries == ()
    assert set(step.remaining) == {
        (), ((1, 0),), ((1, 1),), ((1, 0), (1, 1))}
    assert tr.oracle_tail is not None
    assert tr.oracle_tail.dims() == {2: 1}


def test_complex_avoiding_fix_b_is_face_poset_of_big_cone():
    b = fix_b()
    sub = complex_avoiding(b, (0, 1))
    big = cone_build([(3, 0), (3, 1), (3, 3)])
    assert set(sub.monoids) == {f.key for f in
                                fan_build([big]).cones}
    assert complex_avoiding(b, (0, 0)) is None


def reference_trace(mcc, a, characteristic):
    """The per-degree formula as an open-ended loop: split off the star
    summand and go on with the subcomplex away from the star, until the
    complex is seminormal or its remainder is empty, or until its star
    is empty, when the oracle finishes."""
    characteristic = check_characteristic(characteristic)
    a = tuple(a)
    current, steps, parts, oracle_tail = mcc, [], [], None
    while True:
        st = star(current, vneg(a))
        if not (current.seminormal or st.cones):
            t = cech_degree(current, a, characteristic)
            oracle_tail = CohomologyTable(t.characteristic, t.entries,
                                          t.corrections, "oracle-computed")
            parts.append(oracle_tail)
            break
        summand = table_from_cochain(*cochain(st.cones), characteristic)
        fan = current.fan
        rest = () if current.seminormal else tuple(
            c for c in fan.cones if c.key not in set(st.keys))
        steps.append(DegreeStep(st.keys, summand,
                                tuple(c.key for c in rest)))
        parts.append(summand)
        if not rest:
            break
        current = restrict(current, Fan(fan.ambient_dim, rest))
    table = parts[0]
    for t in parts[1:]:
        table = table_add(table, t)
    return DegreeComputation(a, characteristic, table, tuple(steps),
                             oracle_tail)


def test_trace_is_one_split_equal_to_the_loop(monkeypatch):
    """local_cohomology_trace takes one star per degree and equals the
    open-ended loop (table, steps, oracle tail) in characteristics 0, 2
    and "all": on [-3,3]^d for every fixture and the d=2 cusp, and on
    [-2,2]^3 for the d=3 cusp."""
    inputs = ([(build(), 3) for build in ALL_FIXTURES.values()]
              + [(crosspoly(2, (2, 3)), 3), (crosspoly(3, (2, 3)), 2)])
    asked = []

    def counted(mcc, b):
        asked.append(tuple(b))
        return star(mcc, b)

    monkeypatch.setattr(cohomology_module, "star", counted)
    kinds = collections.Counter()
    for mcc, radius in inputs:
        for a in box(mcc.ambient_dim, radius):
            for ch in (0, 2, "all"):
                asked.clear()
                got = local_cohomology_trace(mcc, a, ch)
                assert asked == [vneg(a)], (a, ch)
                assert got == reference_trace(mcc, a, ch), (a, ch)
                kinds[len(got.steps), got.oracle_tail is not None] += 1
    # every shape occurs: star only, oracle only, star plus oracle tail,
    # and star plus the zero step of a seminormal remainder
    assert set(kinds) == {(1, False), (0, True), (1, True), (2, False)}


def test_one_remainder_build_per_star(monkeypatch):
    """The subcomplex away from a star is built once per distinct star
    and kept on the complex, however many degrees share the star."""
    built = []

    def counted(mcc, subfan):
        built.append(subfan)
        return restrict(mcc, subfan)

    monkeypatch.setattr(cohomology_module, "restrict", counted)
    for mcc in (fix_b(), crosspoly(2, (2, 3))):
        built.clear()
        stars = set()
        for a in box(2, 3):
            for ch in (0, "all"):
                tr = local_cohomology_trace(mcc, a, ch)
                if tr.steps and tr.steps[0].remaining:
                    stars.add(tr.steps[0].star_keys)
        assert stars and len(built) == len(stars)
        for keys in stars:
            rest = mcc._remainders[keys]
            assert not set(keys) & set(rest.monoids)


def test_restricted_complex_h2_both_paths():
    """H^2 of the subcomplex away from the star is 1 by formula and oracle."""
    b = fix_b()
    sub = complex_avoiding(b, (0, 1))
    for ch in (0, 2):
        assert local_cohomology_degree(sub, (0, -1), ch).dims() == {2: 1}
        assert cech_degree(sub, (0, -1), ch).dims() == {2: 1}


def test_seminormal_complexes_have_single_step_traces():
    for mcc in (fix_c(), fix_a(), stanley_r1(), octant_boundary()):
        tr = local_cohomology_trace(mcc, (1,) * mcc.ambient_dim, "all")
        assert len(tr.steps) == 1
        assert tr.oracle_tail is None
        assert tr.steps[0].remaining == ()


def star_cohomology(mcc, a, characteristic):
    """Cohomology of the star complex of a, graded by cone dimension."""
    return star_table(mcc.fan, star(mcc, a), check_characteristic(characteristic))


def test_star_cohomology_matches_class_table():
    """Per-degree star tables agree with the report entry of the class."""
    c = fix_c()
    rep = cohomology_report(c, "all")
    for e in rep.entries:
        if e.star_class.carrier is None:
            continue
        a = e.star_class.coset_rep
        direct = star_cohomology(c, a, "all")
        assert direct.entries == e.table.entries
        assert direct.corrections == e.table.corrections


# ---------------------------------------------------------------------------
# summand identity (seminormalization comparison)

def test_compare_summand_identity_on_box():
    """dims(R)_a = dims(R away from star)_a + dims(seminormalized R)_a."""
    b = fix_b()
    plus = seminormalize_complex(b)
    for a in box(2, 3):
        whole = local_cohomology_degree(b, a, "all")
        part = complex_avoiding(b, vneg(a))
        away = (zero_table("all") if part is None
                else local_cohomology_degree(part, a, "all"))
        smooth = local_cohomology_degree(plus, a, "all")
        combined = table_add(away, smooth)
        assert whole.dims() == combined.dims(), a
        for p in (2, 3):
            assert whole.dims_mod(p) == combined.dims_mod(p), (a, p)
        # the seminormalization is a direct summand: dims never exceed R's
        for i, d in smooth.entries:
            assert whole.dims().get(i, 0) >= d


def test_monoid_vanishing_on_restricted_complex():
    """For -a inside the normalization, the avoided subcomplex vanishes at a."""
    big = cone_build([(1, 0), (0, 2), (1, 1)])
    mono = build_complex(fan_build([big]),
                         {big.key: [(1, 0), (0, 2), (1, 1)]})
    for a in box(2, 3):
        minus = vneg(a)
        if not (big.contains(minus)
                and mono.monoids[big.key].group.contains(minus)):
            continue
        part = complex_avoiding(mono, minus)
        if part is None:
            continue
        assert cech_degree(part, a, "all").entries == (), a


# ---------------------------------------------------------------------------
# global reports

def test_cohomology_report_requires_seminormal():
    with pytest.raises(ComplexError):
        cohomology_report(fix_b(), 0)


def test_cohomology_report_fix_c_frozen():
    rep = cohomology_report(fix_c(), "all")
    assert rep.characteristic == "all"
    assert rep.fan_dim == 2
    rows = [(None if e.star_class.carrier is None
             else e.star_class.carrier.key,
             e.table.entries, e.table.corrections) for e in rep.entries]
    assert rows == [
        ((), (), ()),
        (RAY_Z, (), ()),
        (RAY_Z, (), ()),
        (RAY_Y, ((2, 1),), ()),
        (RAY_Y, ((2, 1),), ()),
        (RAY_X, (), ()),
        (FIX_C_SMALL, ((2, 1),), ()),
        (FIX_C_SMALL, (), ()),
        (FIX_C_SMALL, (), ()),
        (FIX_C_SMALL, (), ()),
        (FIX_C_BIG, ((2, 1),), ()),
        (None, (), ()),
    ]
    assert rep.entries[-1].note.startswith("vanishes")


def test_report_consistent_with_per_degree_on_box():
    c = fix_c()
    rep = cohomology_report(c, "all")
    for a in box(2, 3):
        minus = vneg(a)
        want = local_cohomology_degree(c, a, "all")
        carrier = c.fan.carrier(minus)
        match = [e for e in rep.entries
                 if (e.star_class.carrier is None and carrier is None)
                 or (e.star_class.carrier is not None and carrier is not None
                     and e.star_class.carrier.key == carrier.key
                     and e.star_class.class_lattice.contains(
                         tuple(x - r for x, r in
                               zip(minus, e.star_class.coset_rep))))]
        assert len(match) == 1
        assert match[0].table.entries == want.entries


# ---------------------------------------------------------------------------
# depth and Cohen-Macaulayness

def test_depth_fix_c():
    for ch in (0, 2, "all"):
        res = depth(fix_c(), ch)
        assert res == res.__class__(2, True, 2, (True, True, True))


def test_depth_stanley_line():
    res = depth(stanley_r1(), "all")
    assert res.depth == 1 and res.is_CM and res.skeleton_CM_flags == (True, True)


def test_depth_trivial_complex():
    triv = build_complex(fan_build([zero_cone(2)]), {(): []})
    res = depth(triv, "all")
    assert res.depth == 0 and res.is_CM


def test_depth_octant_boundary():
    # the boundary of the octant is a 2-sphere-less shell: CM of depth 2
    res = depth(octant_boundary(), "all")
    assert res.depth == 2 and res.is_CM


def test_depth_requires_seminormal():
    with pytest.raises(ComplexError):
        depth(fix_b(), 0)


def test_is_cm_agrees_with_depth():
    for mcc in (fix_a(), fix_c(), stanley_r1(), octant_boundary()):
        assert is_cohen_macaulay(mcc, "all") == depth(mcc, "all").is_CM


def _depth_by_skeleta(mcc, characteristic):
    """Depth the long way: one complex and one full report per skeleton."""
    top = mcc.fan.dim
    flags = [is_cohen_macaulay(restrict(mcc, skeleton_fan(mcc.fan, t)),
                               characteristic) for t in range(top + 1)]
    m_k = 0
    while m_k + 1 <= top and all(flags[:m_k + 2]):
        m_k += 1
    return DepthResult(m_k, m_k == top, m_k, tuple(flags))


def test_one_pass_depth_matches_skeleta():
    inputs = [fix_a(), fix_c(), stanley_r1(), octant_boundary(),
              crosspoly(2), crosspoly(3), two_planes_at_a_point(),
              projective_plane(), seminormalize_complex(fix_b()),
              seminormalize_complex(crosspoly(2, (2, 3)))]
    for mcc in inputs:
        for ch in ("all", 0, 2, 3):
            got = depth(mcc, ch)
            want = _depth_by_skeleta(mcc, ch)
            assert (got.depth, got.is_CM, got.m_k, got.skeleton_CM_flags) == (
                want.depth, want.is_CM, want.m_k, want.skeleton_CM_flags)
    assert depth(two_planes_at_a_point(), "all").skeleton_CM_flags == (
        True, True, False)
    rp2 = projective_plane()
    for ch in ("all", 2):
        assert depth(rp2, ch) == DepthResult(2, False, 2, (True, True, True, False))
    for ch in (0, 3):
        assert depth(rp2, ch) == DepthResult(3, True, 3, (True,) * 4)


def test_class_stars_match_star_at_their_representatives():
    """star_classes reads a zero coset's star off its carrier's up-set and
    solves only for the other cosets; each must equal star(mcc, rep), on
    the fixtures, the seminormalized cusps at d=2 and d=3 and the ladder
    up to d=4."""
    inputs = [build() for build in ALL_FIXTURES.values()] + [
        seminormalize_complex(crosspoly(d, (2, 3))) for d in (2, 3)] + [
        crosspoly(d) for d in (2, 3, 4)]
    zero = nonzero = 0
    for mcc in inputs:
        for sc in star_classes(mcc)[:-1]:
            assert sc.star == star(mcc, sc.coset_rep)
            if sc.class_lattice.contains(sc.coset_rep):
                zero += 1
            else:
                nonzero += 1
    assert nonzero == 10 + 8 + 5 and zero > 100


def test_star_index_call_counts(monkeypatch):
    """K_C is Z M_C, so star_classes meets no lattices: one quotient per
    cone and one `_star_at` per class.  A zero coset's point lies in its
    carrier's group, so its star takes exactly one group test; any other
    coset's takes one more per cone above its carrier.  On fix-a, fix-b
    and fix-c 10, 8 and 5 classes have a nonzero coset; on the d=4
    cross-polytope none has.  Then one star_classes and no skeleton
    rebuild in depth."""
    mcc = crosspoly(4)
    fan = mcc.fan
    assert len(fan.cones) == 81
    assert not hasattr(cohomology_module, "intersect")
    calls = collections.Counter()

    def count(module, name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        # raising=False: depth once imported skeleton_fan into cohomology
        monkeypatch.setattr(module, name, counted, raising=False)

    for name in ("quotient_invariants", "star"):
        count(cohomology_module, name, getattr(cohomology_module, name))
    count(lattice_module, "intersect", lattice_module.intersect)
    count(lattice_module.LatticeBasis, "contains",
          lattice_module.LatticeBasis.contains)
    star_at = cohomology_module._star_at
    tests = {}

    def counted_star_at(mcc, carrier, a):
        before = calls["contains"]
        st = star_at(mcc, carrier, a)
        tests[carrier.key, a] = calls["contains"] - before
        return st
    monkeypatch.setattr(cohomology_module, "_star_at", counted_star_at)

    def check(mcc, nonzero):
        calls.clear()
        tests.clear()
        classes = star_classes(mcc)[:-1]
        assert calls["intersect"] == 0
        assert calls["quotient_invariants"] == len(mcc.fan.cones)
        assert calls["star"] == 0 and len(tests) == len(classes)
        zero = [sc for sc in classes
                if sc.class_lattice.contains(sc.coset_rep)]
        assert len(classes) - len(zero) == nonzero
        for sc in classes:
            ups = len(mcc.fan.up_set(sc.carrier))
            assert tests[sc.carrier.key, sc.coset_rep] == (
                1 if sc in zero else 1 + ups)

    for build, nonzero in ((fix_a, 10), (fix_b, 8), (fix_c, 5)):
        check(build(), nonzero)
    check(mcc, 0)
    calls.clear()
    count(cohomology_module, "star_classes", star_classes)
    for module in (cohomology_module, moncomplex_module):
        count(module, "restrict", restrict)
    for module in (cohomology_module, polyhedral_module):
        count(module, "skeleton_fan", skeleton_fan)
    cohomology_module.depth(mcc, "all")
    assert calls["star_classes"] == 1
    assert calls["restrict"] == 0 and calls["skeleton_fan"] == 0


def test_face_groups_nest_in_their_up_sets():
    """The face axiom M_C = M_D ∩ C puts Z M_C inside Z M_D for every cone
    D above C, which star_classes and `_star_at` rest on.  Each class
    lattice is Z M_C and equals the meet of the groups above C cut to
    lin C, and each star over a degree box equals a scan of every cone of
    the fan.  Also run under `python -O` (test_acceptance.py), since the
    shortcut must not rest on an assert."""
    cusp = crosspoly(3, (2, 3))
    inputs = [(build(), 3) for build in ALL_FIXTURES.values()] + [
        (crosspoly(2), 3), (crosspoly(3), 2), (crosspoly(4), 1),
        (cusp, 2), (seminormalize_complex(cusp), 2),
        (restrict(cusp, skeleton_fan(cusp.fan, 2)), 2)]
    for mcc, radius in inputs:
        fan = mcc.fan
        group = {c.key: mcc.monoids[c.key].group for c in fan.cones}
        for c in fan.cones:
            meet = c.lin_basis
            for d_ in fan.up_set(c):
                assert all(group[d_.key].contains(b)
                           for b in group[c.key].basis), (c.key, d_.key)
                meet = lattice_module.intersect(meet, group[d_.key])
            assert meet.basis == group[c.key].basis
        for sc in star_classes(mcc)[:-1]:
            assert sc.class_lattice.basis == group[sc.carrier.key].basis
        for a in box(mcc.ambient_dim, radius):
            scan = tuple(c.key for c in fan.cones
                         if c.contains(a) and group[c.key].contains(a))
            assert star(mcc, a).keys == scan, a


def test_coreduced_divisors_match_snf_on_star_and_slice_cochains():
    """Every map of every star cochain (the report's classes and the
    per-degree stars) and of every Cech slice on a degree box, on the
    five fixtures and the ladder up to d=4."""
    inputs = [(build(), 2) for build in ALL_FIXTURES.values()] + [
        (crosspoly(2), 2), (crosspoly(3), 1), (crosspoly(4), 1)]
    maps = 0
    for mcc, radius in inputs:
        stars = {star(mcc, vneg(a)).keys for a in box(mcc.ambient_dim, radius)}
        if mcc.seminormal:
            stars |= {sc.star.keys for sc in star_classes(mcc) if sc.star}
        cochains = [cochain([mcc.fan.by_key(k) for k in keys])[1]
                    for keys in stars]
        cochains += [cech_slice(mcc, a).mats
                     for a in box(mcc.ambient_dim, radius)]
        for mats in cochains:
            for M in mats.values():
                assert elementary_divisors(M) == snf(M).divisors, M
                maps += 1
    assert maps > 700


def test_cubical_cones_cochain_and_oracle():
    """Incidence signs of 4-cones that are not simplicial: the cochain of
    every cone of two_cube_cones composes to zero and, its support being a
    ball, is acyclic; the formula equals the oracle on [-1, 1]^4 in
    characteristics 0 and 2, and the ring is Cohen-Macaulay."""
    mcc = two_cube_cones()
    big = [mcc.fan.by_key(k) for k in mcc.fan.maximal]
    assert [(c.dim, len(c.rays), rank_int(c.rays[:4])) for c in big] \
        == [(4, 8, 3)] * 2
    sizes, mats = cochain(mcc.fan.cones)
    for t in sorted(mats)[:-1]:
        assert not any(map(any, mat_mul(mats[t + 1], mats[t]))), t
    assert table_from_cochain(sizes, mats, 0).entries == ()
    nonzero = 0
    for a in box(4, 1):
        for ch in (0, 2):
            left = local_cohomology_degree(mcc, a, ch)
            right = cech_degree(mcc, a, ch)
            assert (left.entries, left.corrections) \
                == (right.entries, right.corrections), (a, ch)
            nonzero += bool(left.entries)
    assert nonzero and depth(mcc, 0).is_CM


def test_report_sends_no_residual_to_snf(monkeypatch):
    """On the d=4 cross-polytope, with the star classes taken, the report
    asks one elementary_divisors per map of each distinct star; unit
    pivots reduce every map completely, so no residual reaches snf."""
    mcc = crosspoly(4)
    star_classes_once = star_classes(mcc)
    mcc._star_classes = star_classes_once
    stars = {sc.star.keys: sc.star for sc in star_classes_once if sc.star}
    maps = sum(len(cochain(st.cones)[1]) for st in stars.values())
    assert len(stars) == 81 and maps == 108
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    count(cohomology_module, "elementary_divisors")
    count(lattice_module, "snf")
    cohomology_report(mcc, "all")
    assert calls == {"elementary_divisors": maps}


def _counting(monkeypatch, names):
    """Count the calls the cohomology module makes to each named global."""
    calls = collections.Counter()
    for name in names:
        fn = getattr(cohomology_module, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cohomology_module, name, counted)
    return calls


def test_second_report_and_depth_reuse_the_caches(monkeypatch):
    """The complex keeps its star classes and the fan its star tables, so a
    repeated report rebuilds neither and a depth after it needs no
    elementary divisors."""
    for mcc in [fix_c(), octant_boundary(), crosspoly(3)]:
        first = cohomology_report(mcc, "all")
        calls = _counting(monkeypatch, ("elementary_divisors",
                                        "quotient_invariants", "star"))
        assert cohomology_report(mcc, "all") == first
        depth(mcc, "all")
        assert not calls
        monkeypatch.undo()


def test_fan_star_tables_match_fresh_tables():
    inputs = [build() for build in ALL_FIXTURES.values()] + [
        crosspoly(2), crosspoly(3)]
    for mcc in inputs:
        for ch in (0, 2, "all"):
            if mcc.seminormal:
                cohomology_report(mcc, ch)
            for a in box(mcc.ambient_dim, 2):
                local_cohomology_degree(mcc, a, ch)
        tables = mcc.fan._star_tables
        assert {ch for _, ch in tables} == {0, 2, "all"}
        for (keys, ch), table in tables.items():
            cones = [mcc.fan.by_key(k) for k in keys]
            assert table == table_from_cochain(*cochain(cones), ch)


def test_new_complexes_start_without_star_classes(monkeypatch):
    mcc = crosspoly(2)
    cohomology_report(mcc, "all")
    calls = _counting(monkeypatch, ("star_classes",))
    cohomology_report(mcc, "all")
    assert not calls
    for other in (restrict(mcc, skeleton_fan(mcc.fan, 1)),
                  restrict(mcc, mcc.fan), seminormalize_complex(mcc)):
        cohomology_report(other, "all")
    assert calls["star_classes"] == 3


def test_seminormalized_fix_b_depth_has_consistent_flags():
    plus = seminormalize_complex(fix_b())
    res = depth(plus, "all")
    assert res.is_CM == (res.depth == plus.fan.dim)
    assert res.skeleton_CM_flags[0]


# ---------------------------------------------------------------------------
# per-face counts

def test_c_k_free_monoid():
    M = monoid_build([(1, 0), (0, 1)])
    res = c_k_monoid(M, "all")
    assert res.c_k == 2 and res.m_k == 2


def test_c_k_fix_c_monoid():
    M = monoid_build([(1, 0), (0, 2), (1, 1)])
    res = c_k_monoid(M, "all")
    assert res.c_k == 2 and res.m_k == 2
    assert res.m_k >= res.c_k


def test_c_k_rejects_non_seminormal():
    M = monoid_build([(3, 0), (3, 1), (3, 3)])
    with pytest.raises(ValueError):
        c_k_monoid(M, 0)


def reference_c_k(M, characteristic):
    """c_k and m_k from one fresh complex per face of M's cone."""
    def one_cone(face):
        return build_complex(fan_build([face]),
                             {face.key: list(monoid_face_gens(M, face))})

    faces = face_lattice(M.cone).faces
    all_cm = [all(depth(one_cone(f), characteristic).is_CM
                  for f in faces if f.dim == t)
              for t in range(M.cone.dim + 1)]
    c_k = all_cm.index(False) - 1 if False in all_cm else M.cone.dim
    return c_k, depth(one_cone(M.cone), characteristic).m_k


def test_c_k_builds_one_complex_per_call(monkeypatch):
    """c_k_monoid runs one fan_build and one build_complex, restricting
    that complex to each face, and answers as one complex per face did."""
    monoids = [monoid_build(g) for g in (
        [(1, 0), (0, 1)], [(1, 0), (0, 2), (1, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1), (0, 1, 1)])]
    want = {(i, ch): reference_c_k(M, ch)
            for i, M in enumerate(monoids) for ch in (0, 2, "all")}
    # the last monoid is not CM: its c_k sits below its dimension
    assert want[len(monoids) - 1, "all"] == (2, 2)
    calls = collections.Counter()
    for name in ("fan_build", "build_complex"):
        def counted(*args, _name=name, _orig=getattr(cohomology_module, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(cohomology_module, name, counted)
    for (i, ch), (c_k, m_k) in want.items():
        calls.clear()
        res = c_k_monoid(monoids[i], ch)
        assert (res.c_k, res.m_k) == (c_k, m_k), (i, ch)
        assert calls == {"fan_build": 1, "build_complex": 1}, (i, ch)


def test_m_k_at_least_c_k_random_monoids():
    from toricface.monoid import check_seminormal_normal
    rng = random.Random(11)
    tried = 0
    while tried < 6:
        g1 = (1, 0)
        g2 = (rng.randint(0, 2), rng.randint(1, 3))
        g3 = (rng.randint(1, 3), rng.randint(1, 3))
        try:
            M = monoid_build([g1, g2, g3])
        except Exception:
            continue
        if not check_seminormal_normal(M).seminormal:
            continue
        res = c_k_monoid(M, "all")
        assert res.m_k >= res.c_k, (g2, g3)
        tried += 1


# ---------------------------------------------------------------------------
# the simplicial comparison

def test_bbr_octant_boundary_frozen():
    rep = bbr_formula(octant_boundary(), "all")
    assert all(e.cellular.entries == ((2, 1),) for e in rep.entries)
    assert all(e.simplicial.entries == ((2, 1),) for e in rep.entries)
    assert len(rep.entries) == 7
    # the zero cone's entry is the degree-zero top cohomology of the ring
    zero_entry = [e for e in rep.entries if e.cone_key == ()][0]
    assert zero_entry.cellular.dims() == {2: 1}


def test_bbr_stanley_line():
    rep = bbr_formula(stanley_r1(), "all")
    by_key = {e.cone_key: e for e in rep.entries}
    assert by_key[()].cellular.entries == ((1, 1),)
    assert by_key[((1,),)].cellular.entries == ((1, 1),)
    assert by_key[((-1,),)].cellular.entries == ((1, 1),)


def test_bbr_reads_the_maximal_monoids_only(monkeypatch):
    """Normality and a saturated group pass from a cone to its faces, so
    the Stanley check tests one group per maximal cone, and refusing a
    complex decides no face monoid's flags."""
    for mcc in (fix_a(), fix_c(), crosspoly(2, (2, 3))):
        decided = {k for k, M in mcc.monoids.items() if "flags" in vars(M)}
        with pytest.raises(ValueError):
            bbr_formula(mcc, 0)
        assert {k for k, M in mcc.monoids.items()
                if "flags" in vars(M)} == decided
    for mcc in (octant_boundary(), crosspoly(3)):
        calls = _counting(monkeypatch, ("lattice_equal",))
        bbr_formula(mcc, 0)
        assert calls["lattice_equal"] == len(mcc.fan.maximal)
        monkeypatch.undo()


def test_bbr_rejects_non_stanley():
    with pytest.raises(ValueError):
        bbr_formula(fix_c(), 0)
    with pytest.raises(ValueError):
        bbr_formula(fix_a(), 0)
