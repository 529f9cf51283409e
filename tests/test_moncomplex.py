"""Monoidal complex assembly, grading, seminormalization, presentations.

Presentation expectations below were frozen from hand derivations: the
variable order is the lex sort of the union of maximal-cone generators, and
each expected generator was checked by evaluating both sides in the monoid.
"""

import importlib.resources
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import (
    ALL_FIXTURES,
    FIX_A_GENS,
    FIX_B_GENS,
    FIX_C_GENS,
    crosspoly,
    fix_a,
    fix_b,
    fix_c,
    octant_boundary,
    stanley_r1,
)

from toricface import moncomplex
from toricface.cohomology import complex_avoiding
from toricface.moncomplex import (
    _ZERO,
    ComplexError,
    _closure,
    _exponent_tuples,
    _find,
    _link,
    build_complex,
    graded_dim,
    presentation,
    restrict,
    seminormalize_complex,
)
import toricface.cli
import toricface.lattice
import toricface.monoid
import toricface.polyhedral
from toricface.cli import build_from_document, main, parse_input
from toricface.lattice import intersect, lattice_from_rows, vadd, vneg
from toricface.monoid import (NormalityCheck, SeminormalizationResult,
                              _hilbert_data, check_seminormal_normal,
                              lattice_monoid, monoid_build, monoid_member,
                              seminormalized_monoid)
from toricface.polyhedral import (Cone, cone_build, face_lattice, fan_build,
                                  skeleton_fan, zero_cone)


def box(dim, radius):
    rng = range(-radius, radius + 1)
    return itertools.product(*[rng] * dim)


# ---------------------------------------------------------------------------
# assembly and validation

def test_fixture_flags():
    a, b, c = fix_a(), fix_b(), fix_c()
    assert (a.seminormal, a.normal_monoids) == (True, True)
    assert (b.seminormal, b.normal_monoids) == (False, False)
    assert (c.seminormal, c.normal_monoids) == (True, False)


def _stanley_plane():
    """A Stanley complex on non-unimodular cones."""
    return build_complex(fan_build([cone_build([(1, 0), (1, 3)]),
                                   cone_build([(1, 3), (-2, 1)])]),
                         stanley=True)


def _least_parent(mcc, cone):
    return min(u.key for u in mcc.fan.up_set(cone) if u.key in mcc.fan.maximal)


def test_stanley_complexes_are_normal():
    """build_complex gives Stanley cones their flags by construction; the
    decision procedure agrees on every cone, unimodular or not."""
    for mcc in (stanley_r1(), octant_boundary(), crosspoly(2), crosspoly(3),
                _stanley_plane()):
        assert mcc.normal_monoids and mcc.seminormal
        for key, m in mcc.monoids.items():
            cone = mcc.fan.by_key(key)
            assert m.cone.key == cone.key
            flags = check_seminormal_normal(lattice_monoid(cone))
            assert flags == NormalityCheck(True, True, None), key
            assert m.flags == flags


def test_stanley_faces_are_the_lattice_monoids_of_their_cones():
    """Each face monoid, restricted from its least maximal parent, has the
    generators and group of the face's own lattice monoid."""
    for mcc in (stanley_r1(), octant_boundary(), crosspoly(2), crosspoly(3),
                _stanley_plane()):
        for c in mcc.fan.cones:
            m, want = mcc.monoids[c.key], lattice_monoid(c)
            assert m.generators == want.generators, c.key
            assert m.group == want.group, c.key
            assert m.hilbert_data == want.hilbert_data, c.key


def test_flags_match_a_fresh_decision(monkeypatch):
    """Every cone's flags equal a fresh decision on the same generators.
    The build decides the maximal monoids only: a face of a normal parent
    inherits the parent's flags, any other face is decided when asked."""
    decided = []
    decide = toricface.monoid.check_seminormal_normal

    def counted(M):
        decided.append(M)
        return decide(M)

    builds = list(ALL_FIXTURES.values()) + [
        lambda: crosspoly(2, (2, 3)), lambda: crosspoly(3, (2, 3)),
        lambda: crosspoly(2), lambda: crosspoly(3), _stanley_plane]
    inherited = lazy = 0
    for build in builds:
        monkeypatch.setattr(toricface.monoid, "check_seminormal_normal",
                            counted)
        decided.clear()
        mcc = build()
        monkeypatch.undo()
        tops = [mcc.monoids[k] for k in mcc.fan.maximal]
        assert all(any(x is M for M in tops) for x in decided)
        for c in mcc.fan.cones:
            m = mcc.monoids[c.key]
            if c.key not in mcc.fan.maximal:
                parent = mcc.monoids[_least_parent(mcc, c)]
                if parent.flags.normal:
                    assert m.__dict__["flags"] is parent.flags, c.key
                    inherited += 1
                else:
                    assert "flags" not in m.__dict__, c.key
                    lazy += 1
            fresh = monoid_build(m.generators, mcc.ambient_dim, c)
            assert m.flags == check_seminormal_normal(fresh), c.key
    assert inherited and lazy


def test_complex_flags_are_the_conjunction_over_every_cone():
    """The complex's flags, read from its maximal monoids, equal the
    conjunction of fresh decisions over all its cones, on each complex and
    on each of its skeletons, whose maximal cones are faces.  On fix-b the
    rays under the non-normal maximal monoid carry normal monoids."""
    for build in [*ALL_FIXTURES.values(), lambda: crosspoly(2, (2, 3)),
                  lambda: crosspoly(3, (2, 3))]:
        mcc = build()
        fresh = {c.key: check_seminormal_normal(monoid_build(
            mcc.monoids[c.key].generators, mcc.ambient_dim, c))
            for c in mcc.fan.cones}
        for i in range(mcc.fan.dim + 1):
            sub = restrict(mcc, skeleton_fan(mcc.fan, i))
            flags = [fresh[c.key] for c in sub.fan.cones]
            assert sub.seminormal == all(f.seminormal for f in flags)
            assert sub.normal_monoids == all(f.normal for f in flags)
    b = fix_b()
    assert not b.normal_monoids
    assert any(b.monoids[c.key].flags.normal
               for c in b.fan.cones_of_dim(1))


def crosspoly_stanley_text(d):
    """The complete fan of the 2^d coordinate orthants, Stanley monoids."""
    rays = {f"{s}{i}": [(1 if s == "p" else -1) if j == i else 0
                        for j in range(d)]
            for i in range(d) for s in "pm"}
    cones = [{"name": "".join(signs),
              "generators": [f"{s}{i}" for i, s in enumerate(signs)]}
             for signs in itertools.product("pm", repeat=d)]
    return json.dumps({"dimension": d, "rays": rays, "cones": cones,
                       "monoids": {"stanley": True}})


def _face_description(fl):
    return [(f.rays, f.facets, f.dim, f.equations, f.lin_basis.basis)
            for f in fl.faces]


def test_build_makes_each_cone_and_hilbert_basis_once(monkeypatch):
    """Every shipped fixture and the d=3 cross-polytope, counted."""
    counts = {"cone_build": 0, "_hilbert_data": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    cb = counting("cone_build", toricface.polyhedral.cone_build)
    for mod in (toricface.polyhedral, toricface.monoid, toricface.cli):
        monkeypatch.setattr(mod, "cone_build", cb)
    monkeypatch.setattr(toricface.monoid, "_hilbert_data",
                        counting("_hilbert_data",
                                 toricface.monoid._hilbert_data))
    fixdir = importlib.resources.files("toricface") / "fixtures"
    texts = [(fixdir / f"{name}.json").read_text()
             for name in ("fix-a", "fix-b", "fix-c", "stanley-r1",
                          "octant-boundary")]
    for text in texts + [crosspoly_stanley_text(3)]:
        counts.update(cone_build=0, _hilbert_data=0)
        mcc, _ = build_from_document(parse_input(text))
        fan = mcc.fan
        # the caller's maximal cones and the fan's faces, each built once;
        # the pairwise common-face check builds none
        built = counts["cone_build"]
        assert built <= len(fan.cones) - 1
        # once per maximal cone: a face is restricted, never decided
        assert counts["_hilbert_data"] == len(fan.maximal)
        lattices = [face_lattice(c) for c in fan.cones]
        assert counts["cone_build"] == built  # every lattice was cached
        for c, fl in zip(fan.cones, lattices):
            assert mcc.monoids[c.key].cone is c
            assert all(fan.by_key(f.key) is f for f in fl.faces)
            fresh = (cone_build(c.generators, fan.ambient_dim) if c.rays
                     else zero_cone(fan.ambient_dim))
            assert _face_description(fl) == \
                _face_description(face_lattice(fresh))


def test_derived_face_monoids():
    a = fix_a()
    assert a.monoids[((1, 0, 0),)].generators == ((2, 0, 0),)
    assert a.monoids[((0, 1, 0),)].generators == ((0, 2, 0),)
    c = fix_c()
    assert c.monoids[((0, 1),)].generators == ((0, 2),)
    b = fix_b()
    assert b.monoids[((1, 1),)].generators == ((3, 3),)
    assert b.monoids[()].generators == ()


def test_face_restriction_pointwise():
    # M_D = M_C  intersect  D, checked on a box for every face pair
    for build in (fix_a, fix_b, fix_c):
        mcc = build()
        radius = 4 if mcc.ambient_dim == 2 else 3
        pts = list(box(mcc.ambient_dim, radius))
        for c in mcc.fan.cones:
            Mc = mcc.monoids[c.key]
            for d in mcc.fan.faces_of(c):
                if d.key == c.key:
                    continue
                Md = mcc.monoids[d.key]
                for x in pts:
                    if not d.contains(x):
                        continue
                    inc = monoid_member(Mc, x) is not None
                    ind = monoid_member(Md, x) is not None
                    assert inc == ind, (c.key, d.key, x)


def test_build_requires_generators():
    fan = fan_build([cone_build([(1, 0), (0, 1)])])
    with pytest.raises(ComplexError):
        build_complex(fan)


def test_build_rejects_wrong_keys():
    fan = fan_build([cone_build([(1, 0), (0, 1)])])
    with pytest.raises(ComplexError, match="keyed by the maximal cones"):
        build_complex(fan, {((1, 0),): [(1, 0)]})


def test_build_rejects_non_spanning_generators():
    fan = fan_build([cone_build([(1, 0, 0), (0, 1, 0), (0, 0, 1)])])
    key = fan.maximal[0]
    with pytest.raises(ComplexError, match="span"):
        build_complex(fan, {key: [(1, 0, 0), (0, 1, 0)]})


def test_build_rejects_inconsistent_shared_face():
    c1 = cone_build([(1, 0), (0, 1)])
    c2 = cone_build([(0, 1), (-1, 0)])
    fan = fan_build([c1, c2])
    with pytest.raises(ComplexError):
        build_complex(fan, {
            c1.key: [(1, 0), (0, 1)],
            c2.key: [(0, 2), (-1, 0)],
        })


def test_validate_restricts_maximal_pairs_only(monkeypatch):
    """Each face is checked against every maximal cone above it, which
    implies the rest: on the d=3 cross-polytope that is 8 octants times 7
    proper faces, 56 restrictions, not one per (cone, face) pair, 98."""
    mcc = crosspoly(3)
    pairs = []
    face_gens = moncomplex.monoid_face_gens
    monkeypatch.setattr(moncomplex, "monoid_face_gens", lambda M, face: (
        pairs.append((M.cone.key, face.key)) or face_gens(M, face)))
    moncomplex._validate(mcc.fan, mcc.monoids)
    maximal = set(mcc.fan.maximal)
    assert len(pairs) == len(set(pairs)) == 56
    assert {c for c, _ in pairs} == maximal and len(maximal) == 8
    assert sum(len(mcc.fan.faces_of(c)) - 1 for c in mcc.fan.cones) == 98


def test_build_rejects_monoids_differing_only_on_a_shared_2_face():
    """The two octant monoids agree on every ray, <2e1> and <2e2>, and
    differ on the 2-face they share, where only the first has e1 + e2."""
    up = cone_build([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    down = cone_build([(1, 0, 0), (0, 1, 0), (0, 0, -1)])
    fan = fan_build([up, down])
    with pytest.raises(ComplexError, match=r"face \(\(0, 1, 0\), \(1, 0, 0\)\)"):
        build_complex(fan, {
            up.key: [(2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1)],
            down.key: [(2, 0, 0), (0, 2, 0), (0, 0, -1)],
        })


def test_validate_catches_a_wrong_ray_monoid_from_the_maximal_cones():
    """A ray monoid that no 2-face restricts to is refused by the octants
    above it alone."""
    mcc = crosspoly(3)
    ray = ((1, 0, 0),)
    monoids = dict(mcc.monoids)
    monoids[ray] = monoid_build([(2, 0, 0)], 3, mcc.fan.by_key(ray))
    with pytest.raises(ComplexError, match=r"face \(\(1, 0, 0\),\)"):
        moncomplex._validate(mcc.fan, monoids)


def test_every_monoid_sits_on_its_own_fan_cone():
    """_assemble builds each monoid on the fan's own cone object, so
    _validate has no monoid cone to check: on the fixtures, the d=2 and
    d=3 cusps, a seminormalized cusp and a remainder away from a star,
    each cone's monoid has that very cone."""
    cusps = [crosspoly(2, (2, 3)), crosspoly(3, (2, 3))]
    semi = seminormalize_complex(cusps[0])
    rest = complex_avoiding(cusps[1], (1, 1, 0))
    assert not cusps[0].seminormal and semi.seminormal
    assert rest is not None and len(rest.fan.cones) < len(cusps[1].fan.cones)
    fixtures = [build() for build in ALL_FIXTURES.values()]
    for mcc in [*fixtures, *cusps, semi, rest]:
        for c in mcc.fan.cones:
            assert mcc.monoids[c.key].cone is c, c.key


def _plane_pair(a_gens, b_gens):
    """The fan of A = cone(e1, e2) and B = cone(e1, -e2), whose ray e1 has B
    as its least maximal parent, with the monoids built on A and B."""
    a = cone_build([(1, 0), (0, 1)])
    b = cone_build([(1, 0), (0, -1)])
    assert b.key < a.key
    return build_complex(fan_build([a, b]), {a.key: a_gens, b.key: b_gens})


def test_validate_refuses_a_face_generator_the_other_parent_misses():
    """The ray monoid is <e1>, restricted from B; A restricts to <2e1, 3e1>,
    which lies in it but does not generate e1."""
    with pytest.raises(ComplexError, match=r"face generator \(1, 0\) is not "
                       "generated by the restriction"):
        _plane_pair([(2, 0), (3, 0), (0, 1)], [(1, 0), (0, -1)])


def test_validate_accepts_a_restriction_with_a_redundant_generator():
    """A restricts to <2e1, 3e1, 4e1>, whose generator list differs from the
    ray monoid's but which generates the same monoid."""
    mcc = _plane_pair([(2, 0), (3, 0), (4, 0), (0, 1)], [(2, 0), (3, 0), (0, -1)])
    assert mcc.monoids[((1, 0),)].generators == ((2, 0), (3, 0))


# ---------------------------------------------------------------------------
# restriction

def test_restrict_full_fan_is_identity():
    mcc = fix_b()
    same = restrict(mcc, mcc.fan)
    assert set(same.monoids) == set(mcc.monoids)
    for k in mcc.monoids:
        assert same.monoids[k] is mcc.monoids[k]
    assert (same.seminormal, same.normal_monoids) == \
        (mcc.seminormal, mcc.normal_monoids)


def test_restrict_skeleton():
    mcc = fix_b()
    sub = restrict(mcc, skeleton_fan(mcc.fan, 1))
    assert sorted(sub.monoids) == [
        (), ((0, 1),), ((1, 0),), ((1, 1),),
    ]
    # dropping the bad top cone leaves only normal ray monoids
    assert sub.seminormal and sub.normal_monoids
    pres = presentation(sub, 4)
    assert pres.variables == ((0, 1), (3, 0), (3, 3))
    assert pres.monomial_gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert pres.binomial_gens == ()


def test_restrict_rejects_foreign_cone():
    mcc = fix_c()
    other = fan_build([cone_build([(1, 2), (2, 1)])])
    with pytest.raises(ComplexError):
        restrict(mcc, other)


# ---------------------------------------------------------------------------
# graded dimension

def test_graded_dim_origin_carried_everywhere():
    for build in (fix_a, fix_b, fix_c, stanley_r1, octant_boundary):
        mcc = build()
        sp = graded_dim(mcc, (0,) * mcc.ambient_dim)
        assert sp.value == 1
        assert len(sp.carrier) == len(mcc.fan.cones)


def test_graded_dim_examples():
    b = fix_b()
    assert graded_dim(b, (3, 2)).value == 0
    assert graded_dim(b, (3, 1)).value == 1
    assert graded_dim(b, (3, 3)).carrier == tuple(
        c.key for c in b.fan.cones if c.contains((3, 3)))
    c = fix_c()
    interior = graded_dim(c, (1, 1))
    assert interior.value == 1
    assert interior.carrier == (cone_build([(1, 0), (0, 2), (1, 1)]).key,)
    assert graded_dim(c, (0, 1)).value == 0
    shared = graded_dim(c, (0, 2))
    assert shared.value == 1
    assert len(shared.carrier) == 3
    r1 = stanley_r1()
    assert graded_dim(r1, (-3,)).carrier == (((-1,),),)
    assert graded_dim(r1, (2,)).carrier == (((1,),),)


def test_graded_dim_agrees_with_maximal_cover():
    # the support is the union of the maximal monoids, and the carrier is
    # every cone whose monoid holds the point, in fan order
    for mcc in [b() for b in ALL_FIXTURES.values()] + [
            crosspoly(2, (2, 3)), crosspoly(2)]:
        radius = 3 if mcc.ambient_dim == 3 else 4
        for x in box(mcc.ambient_dim, radius):
            sp = graded_dim(mcc, x)
            assert sp.point == x
            assert sp.carrier == tuple(
                c.key for c in mcc.fan.cones
                if monoid_member(mcc.monoids[c.key], x) is not None)
            covered = any(
                monoid_member(mcc.monoids[k], x) is not None
                for k in mcc.fan.maximal)
            assert (sp.value == 1) == covered


# ---------------------------------------------------------------------------
# seminormalization

def test_seminormalize_complex_fix_b():
    mcc = fix_b()
    out = seminormalize_complex(mcc)
    big = cone_build([(3, 0), (3, 1), (3, 3)]).key
    assert out.monoids[big].generators == ((3, 0), (3, 1), (3, 2), (3, 3))
    assert out.seminormal
    assert out.normal_monoids
    for k in mcc.monoids:
        if k != big:
            assert out.monoids[k].generators == mcc.monoids[k].generators


def test_seminormalize_complex_fixes_nothing_when_seminormal():
    for build in (fix_a, fix_c, stanley_r1):
        mcc = build()
        out = seminormalize_complex(mcc)
        for k in mcc.monoids:
            assert out.monoids[k].generators == mcc.monoids[k].generators


def test_seminormalize_complex_idempotent():
    once = seminormalize_complex(fix_b())
    twice = seminormalize_complex(once)
    for k in once.monoids:
        assert twice.monoids[k].generators == once.monoids[k].generators


def test_seminormalized_monoids_keep_the_verified_hilbert_data():
    """A maximal cone's seminormalization has its monoid's cone and group,
    so it takes the monoid's Hilbert data; a face's seminormal monoid,
    restricted from it, computes its own.  Either equals a fresh
    computation, and every flag equals a fresh decision."""
    for mcc in (fix_b(), crosspoly(2, (2, 3)), crosspoly(3, (2, 3))):
        out = seminormalize_complex(mcc)
        for k in mcc.fan.maximal:
            M, N = mcc.monoids[k], out.monoids[k]
            assert N is not M
            assert N.group.basis == M.group.basis
            assert N.hilbert_data is M.hilbert_data
        for c in mcc.fan.cones:
            N = out.monoids[c.key]
            assert N.hilbert_data == _hilbert_data(N.cone, N.group)
            fresh = monoid_build(N.generators, N.ambient_dim, c)
            assert N.flags == check_seminormal_normal(fresh)
            assert N.flags.seminormal


def test_seminormalize_complex_seminormalizes_each_monoid_once(monkeypatch):
    """Only maximal monoids are seminormalized.  Building a cusp complex
    decides each maximal monoid's flags through its seminormalization, once;
    seminormalize_complex reuses it, and its own calls are the new maximal
    monoids' flag decisions, one each.  No face is seminormalized."""
    calls = []
    real = toricface.monoid.seminormalize

    def counted(M, bound=None):
        calls.append(M)
        return real(M, bound)

    monkeypatch.setattr(toricface.monoid, "seminormalize", counted)
    for d in (2, 3):
        calls.clear()
        mcc = crosspoly(d, (2, 3))
        built = len(calls)
        out = seminormalize_complex(mcc)
        for now, before in ((out, calls[built:]), (mcc, calls[:built])):
            tops = [now.monoids[k] for k in now.fan.maximal]
            assert len(before) == len(tops) > 0
            assert all(any(N is C for C in before) for N in tops)


def test_seminormalized_faces_are_the_faces_seminormalized():
    """Seminormalization commutes with restriction to a face, so each face
    of seminormalize_complex, restricted from a seminormalized maximal
    monoid, is the face monoid's own seminormalization."""
    for mcc in (fix_b(), fix_c(), crosspoly(2, (2, 3)),
                crosspoly(3, (2, 3))):
        out = seminormalize_complex(mcc)
        for c in mcc.fan.cones:
            want = seminormalized_monoid(mcc.monoids[c.key])
            got = out.monoids[c.key]
            assert got.generators == want.generators, c.key
            assert got.group == want.group, c.key


@pytest.mark.parametrize("faces_first", [False, True])
def test_face_membership_through_the_shared_memo(faces_first):
    """Each face monoid shares its least maximal parent's membership memo;
    its answers equal a freshly built face monoid's over a degree box,
    whether the parents or the faces are asked first."""
    for build, radius in ((fix_a, 3), (fix_b, 5), (fix_c, 5),
                          (lambda: crosspoly(2, (2, 3)), 5),
                          (lambda: crosspoly(3, (2, 3)), 3)):
        mcc = build()
        fan = mcc.fan
        faces = [c for c in fan.cones if c.key not in fan.maximal]
        order = ([*faces, *map(fan.by_key, fan.maximal)] if faces_first
                 else [*map(fan.by_key, fan.maximal), *faces])
        for c in faces:
            parent = mcc.monoids[_least_parent(mcc, c)]
            assert mcc.monoids[c.key]._member_memo is parent._member_memo
        for c in order:
            m = mcc.monoids[c.key]
            fresh = monoid_build(m.generators, mcc.ambient_dim, c)
            for v in box(mcc.ambient_dim, radius):
                assert monoid_member(m, v) == monoid_member(fresh, v), \
                    (c.key, v)


# ---------------------------------------------------------------------------
# certificates of a build and of a lattice meet, which raise under
# python -O as well

SQUARE = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]


def _first_call(change):
    """make(original) for BUILD_CERTIFICATES: the original with the result
    of its first call changed, so the input cone is damaged and the faces
    built from it are not."""
    def make(f):
        calls = []

        def patched(*args):
            calls.append(args)
            out = f(*args)
            return change(out) if len(calls) == 1 else out
        return patched
    return make


def _without_first_ray(c):
    return Cone(c.ambient_dim, c.generators, c.rays[1:], c.facets, c.dim,
                c.lin_basis, c.equations)


def _with_witness(result, witness):
    return SeminormalizationResult(result.generators, result.verified_bound,
                                   witness)


BUILD_CERTIFICATES = [
    # (module, name patched in it, its replacement given the original,
    #  library call, message)
    (toricface.monoid, "_simplex_lattice_points",
     lambda f: lambda spts, *rest: f(spts, *rest) | {vneg(spts[0])},
     lambda: lattice_monoid(cone_build([(1, 0), (1, 2)])),
     "does not generate the intersection"),
    (toricface.monoid, "seminormalize",
     lambda f: lambda M, bound=None: _with_witness(f(M, bound),
                                                   M.generators[0]),
     lambda: check_seminormal_normal(monoid_build([(1, 0), (0, 1)])),
     "a normal monoid was decided not seminormal"),
    (toricface.monoid, "seminormalize",
     lambda f: lambda M, bound=None: _with_witness(f(M, bound), None),
     lambda: check_seminormal_normal(monoid_build([(2,), (3,)])),
     "definition scan contradicts the decision"),
    (moncomplex, "seminormalized_monoid", lambda f: lambda M: M,
     lambda: seminormalize_complex(fix_b()),
     "the seminormalized complex is not seminormal"),
    # the square cone's forward call loses a facet, gains the sum of two
    # (a normal of its apex), or gains a normal negative on a generator
    (toricface.polyhedral, "extreme_rays", _first_call(lambda w: w[1:]),
     lambda: fan_build([cone_build(SQUARE)]),
     "face lattice certificate failed"),
    (toricface.polyhedral, "extreme_rays",
     _first_call(lambda w: [*w, vadd(w[0], w[-1])]),
     lambda: fan_build([cone_build(SQUARE)]),
     "face lattice certificate failed"),
    (toricface.polyhedral, "extreme_rays",
     _first_call(lambda w: [*w, vneg(w[0])]),
     lambda: cone_build(SQUARE),
     "a facet normal is negative on a generator"),
    # the same lost facet where monoid_build builds the cone itself
    (toricface.polyhedral, "extreme_rays", _first_call(lambda w: w[1:]),
     lambda: monoid_build(SQUARE),
     "face lattice certificate failed"),
    # the square cone loses an extreme ray
    (toricface.polyhedral, "cone_build", _first_call(_without_first_ray),
     lambda: fan_build([toricface.polyhedral.cone_build(SQUARE)]),
     "face lattice certificate failed"),
    # a left kernel whose row reaches (0, 1), in the first lattice only
    (toricface.lattice, "left_kernel_basis",
     lambda f: lambda A: [(0, 1) + (0,) * (len(A) - 2)],
     lambda: intersect(lattice_from_rows(2, [(2, 0), (0, 1)]),
                       lattice_from_rows(2, [(1, 0), (0, 2)])),
     "intersection certificate failed"),
]


def _build_certificate_outcome(case):
    """The RuntimeError message of the call with one check broken, or None.
    Plain code, no asserts, so it runs the same under python -O."""
    module, name, make, call, _ = BUILD_CERTIFICATES[case]
    original = getattr(module, name)
    try:
        setattr(module, name, make(original))
        call()
    except RuntimeError as e:
        return str(e)
    finally:
        setattr(module, name, original)
    return None


@pytest.mark.parametrize("case", range(len(BUILD_CERTIFICATES)))
def test_failed_build_certificate_raises(case):
    message = BUILD_CERTIFICATES[case][-1]
    raised = _build_certificate_outcome(case)
    assert raised is not None and message in raised, (case, raised)


def test_failed_build_certificates_raise_under_python_O():
    here = Path(__file__).resolve().parent
    src = str(Path(moncomplex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(here)]))
    env.pop("PYTHONOPTIMIZE", None)
    script = ("import json, sys, test_moncomplex as t; print(json.dumps("
              "[sys.flags.optimize] + [t._build_certificate_outcome(i) "
              "for i in range(len(t.BUILD_CERTIFICATES))]))")
    run = subprocess.run([sys.executable, "-O", "-c", script], cwd=here,
                         capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 0, run.stderr
    optimize, *raised = json.loads(run.stdout.splitlines()[-1])
    assert optimize == 1
    assert len(raised) == len(BUILD_CERTIFICATES)
    for case, message in enumerate(raised):
        want = BUILD_CERTIFICATES[case][-1]
        assert message is not None and want in message, (case, message)


# ---------------------------------------------------------------------------
# presentations

def test_presentation_fix_a():
    pres = presentation(fix_a(), 6)
    assert pres.variables == ((0, 0, 2), (0, 2, 0), (1, 1, 0), (2, 0, 0))
    assert pres.monomial_gens == ((1, 0, 1, 0),)
    assert len(pres.binomial_gens) == 1
    u, v, home = pres.binomial_gens[0]
    assert (u, v) == ((0, 1, 0, 1), (0, 0, 2, 0))
    assert home == cone_build([(2, 0, 0), (0, 2, 0), (1, 1, 0)]).key


def test_presentation_fix_b():
    pres = presentation(fix_b(), 6)
    assert pres.variables == ((0, 1), (3, 0), (3, 1), (3, 3))
    assert pres.monomial_gens == ((1, 0, 1, 0), (1, 1, 0, 0))
    assert len(pres.binomial_gens) == 1
    u, v, home = pres.binomial_gens[0]
    assert (u, v) == ((0, 2, 0, 1), (0, 0, 3, 0))
    assert home == cone_build([(3, 0), (3, 1), (3, 3)]).key


def test_presentation_fix_c():
    pres = presentation(fix_c(), 6)
    assert pres.variables == ((-2, 2), (0, 2), (1, 0), (1, 1))
    assert pres.monomial_gens == ((1, 0, 0, 1), (1, 0, 1, 0))
    assert len(pres.binomial_gens) == 1
    u, v, home = pres.binomial_gens[0]
    assert (u, v) == ((0, 1, 2, 0), (0, 0, 0, 2))
    assert home == cone_build([(1, 0), (0, 2), (1, 1)]).key


def test_presentation_stanley_fixtures():
    p1 = presentation(stanley_r1(), 4)
    assert p1.variables == ((-1,), (1,))
    assert p1.monomial_gens == ((1, 1),)
    assert p1.binomial_gens == ()
    p2 = presentation(octant_boundary(), 4)
    assert p2.variables == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert p2.monomial_gens == ((1, 1, 1),)
    assert p2.binomial_gens == ()


def test_presentation_polynomial_ring_is_free():
    fan = fan_build([cone_build([(1, 0), (0, 1)])])
    mcc = build_complex(fan, stanley=True)
    pres = presentation(mcc, 5)
    assert pres.variables == ((0, 1), (1, 0))
    assert pres.monomial_gens == ()
    assert pres.binomial_gens == ()


def test_presentation_generators_vanish_in_ring():
    # monomial generators evaluate to zero, binomial sides to equal elements
    for build in (fix_a, fix_b, fix_c):
        mcc = build()
        pres = presentation(mcc, 6)
        var = pres.variables
        maximal = {k: mcc.fan.by_key(k) for k in mcc.fan.maximal}

        def support(e):
            return [var[i] for i, t in enumerate(e) if t > 0]

        def total(e):
            acc = (0,) * mcc.ambient_dim
            for i, t in enumerate(e):
                for _ in range(t):
                    acc = tuple(x + y for x, y in zip(acc, var[i]))
            return acc

        for m in pres.monomial_gens:
            assert all(t <= 1 for t in m)
            for cone in maximal.values():
                assert not all(cone.contains(g) for g in support(m))
        for u, v, home in pres.binomial_gens:
            assert total(u) == total(v)
            assert u > v
            cone = maximal[home]
            for g in support(u) + support(v):
                assert cone.contains(g)


def test_presentation_refuses_too_many_generators():
    # the Stanley monoid's Hilbert basis is (1, k) for 0 <= k <= 17
    fan = fan_build([cone_build([(1, 0), (1, 17)])])
    mcc = build_complex(fan, stanley=True)
    assert len(mcc.monoids[fan.maximal[0]].generators) == 18
    with pytest.raises(ComplexError, match="limited to 16 generators"):
        presentation(mcc, 2)


def _fixpoint_closure(monomials, mono_gens, bino_gens):
    """The congruence closure as a fixpoint over every (monomial, generator)
    pair, kept as the reference for the one-pass closure."""
    def divides(g, m):
        return all(gi <= mi for gi, mi in zip(g, m))

    def union(parent, a, b):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            return False
        if rb == _ZERO or (ra != _ZERO and ra > rb):
            parent[ra] = rb
        else:
            parent[rb] = ra
        return True

    mono_set = set(monomials)
    parent = {}
    changed = True
    while changed:
        changed = False
        for m in monomials:
            for g in mono_gens:
                if divides(g, m):
                    changed |= union(parent, m, _ZERO)
            for u, v in bino_gens:
                for x, y in ((u, v), (v, u)):
                    if divides(x, m):
                        t = tuple(mi - xi + yi for mi, xi, yi in zip(m, x, y))
                        if t in mono_set:
                            changed |= union(parent, m, t)
    return parent


def _closure_cases():
    for build in ALL_FIXTURES.values():
        for bound in range(1, 7):
            yield build(), bound
    for mcc in (crosspoly(2, (2, 3)), crosspoly(2)):
        for bound in range(1, 5):
            yield mcc, bound


def test_one_pass_closure_matches_fixpoint():
    """On the generators presentation keeps, the one-pass closure gives
    every monomial the root the fixpoint gives it, and growing it one
    binomial at a time gives the closure built from scratch."""
    for mcc, bound in _closure_cases():
        pres = presentation(mcc, bound)
        monomials = sorted(_exponent_tuples(len(pres.variables), bound),
                           key=lambda e: (sum(e), e))
        mono = [(g, None) for g in pres.monomial_gens]
        bino = [(u, v) for u, v, _ in pres.binomial_gens]
        fast = _closure(monomials, mono + bino)
        slow = _fixpoint_closure(monomials, pres.monomial_gens, bino)
        roots = [_find(fast, m) for m in monomials]
        assert roots == [_find(slow, m) for m in monomials]
        # each class is rooted at zero or at its least monomial
        assert all(r == _ZERO or r <= m for m, r in zip(monomials, roots))
        grown = _closure(monomials, mono)
        for i, (u, v) in enumerate(bino):
            _link(grown, monomials, u, v)
            fresh = _closure(monomials, mono + bino[:i + 1])
            assert [_find(grown, m) for m in monomials] == \
                [_find(fresh, m) for m in monomials]


def test_failed_presentation_certificate_is_not_bad_input(monkeypatch, capsys):
    """A closure that loses the binomials fails the graded-dimension check:
    the library raises RuntimeError and the CLI exits 3, not 1."""
    real = moncomplex._closure
    monkeypatch.setattr(moncomplex, "_closure",
                        lambda monomials, relations: real(
                            monomials, [r for r in relations if r[1] is None]))
    with pytest.raises(RuntimeError, match="verification failed"):
        presentation(fix_a(), 6)
    path = importlib.resources.files("toricface") / "fixtures" / "fix-a.json"
    assert main(["presentation", str(path)]) == 3
    assert "verification failed" in capsys.readouterr().err


def test_underived_zero_monomial_fails_the_certificate(monkeypatch, capsys):
    """A closure that loses the monomial relations leaves a monomial that
    lies in no cone (zero in the ring) with a nonzero class, which the
    zero/nonzero check refuses: RuntimeError from the library, exit 3
    from the CLI."""
    real = moncomplex._closure
    monkeypatch.setattr(moncomplex, "_closure",
                        lambda monomials, relations: real(
                            monomials, [r for r in relations if r[1] is not None]))
    with pytest.raises(RuntimeError, match="zero monomial"):
        presentation(fix_a(), 6)
    path = importlib.resources.files("toricface") / "fixtures" / "fix-a.json"
    assert main(["presentation", str(path)]) == 3
    assert "zero monomial" in capsys.readouterr().err


def test_variable_refused_by_its_cone_monoid_fails_the_certificate(
        monkeypatch, capsys):
    """The presentation certifies the graded dimension by each variable's
    membership in the monoid of every maximal cone holding it; a monoid
    that refuses one variable fails that check: RuntimeError from the
    library, exit 3 from the CLI."""
    refused = FIX_A_GENS["A4"]
    real = moncomplex.monoid_member
    mcc = fix_a()
    monkeypatch.setattr(moncomplex, "monoid_member", lambda M, v: (
        None if tuple(v) == refused else real(M, v)))
    with pytest.raises(RuntimeError, match="verification failed"):
        presentation(mcc, 6)
    path = importlib.resources.files("toricface") / "fixtures" / "fix-a.json"
    assert main(["presentation", str(path)]) == 3
    assert "verification failed" in capsys.readouterr().err


def test_reached_multidegrees_have_graded_dimension_one():
    """Every multidegree a monomial with its support in one maximal cone
    reaches has graded dimension 1, the fact the presentation's
    (cone, variable) membership certificate rests on; graded_dim, which
    the presentation no longer calls, is the reference."""
    cases = [(build(), bound) for build in ALL_FIXTURES.values()
             for bound in range(1, 5)]
    cases += [(mcc, bound) for mcc in (crosspoly(2), crosspoly(3),
                                       crosspoly(2, (2, 3)))
              for bound in range(1, 5)]
    cases.append((crosspoly(3, (2, 3)), 2))
    reached = 0
    for mcc, bound in cases:
        variables = presentation(mcc, bound).variables
        supports = [{g for g in variables if mcc.fan.by_key(k).contains(g)}
                    for k in mcc.fan.maximal]
        degrees = set()
        for e in _exponent_tuples(len(variables), bound):
            used = {g for g, t in zip(variables, e) if t}
            if used and any(used <= s for s in supports):
                degrees.add(tuple(sum(t * g[j] for t, g in zip(e, variables))
                                  for j in range(mcc.ambient_dim)))
        for ev in degrees:
            assert graded_dim(mcc, ev).value == 1, (ev, bound)
        reached += len(degrees)
    assert reached > 500


def _two_list_presentation(mcc, bound):
    """The presentation's generators as computed with monomials and
    binomials on two separate lists, kept as the reference for the one
    relation list: (monomial generators, (u, v) binomial pairs)."""
    variables = tuple(sorted({g for k in mcc.fan.maximal
                              for g in mcc.monoids[k].generators}))
    n = len(variables)
    supports = [frozenset(i for i in range(n)
                          if mcc.fan.by_key(k).contains(variables[i]))
                for k in mcc.fan.maximal]

    def in_one_cone(e):
        return any({i for i, t in enumerate(e) if t} <= s for s in supports)

    def closure(mono_gens, bino_gens):
        parent = {}
        for g in mono_gens:
            _link(parent, monomials, g)
        for u, v in bino_gens:
            _link(parent, monomials, u, v)
        return parent

    # minimal nonfaces by their definition: every one-variable drop is a face
    mono_gens = sorted((e for e in itertools.product((0, 1), repeat=n)
                        if not in_one_cone(e)
                        and all(in_one_cone(tuple(t - (i == j)
                                                  for j, t in enumerate(e)))
                                for i in range(n) if e[i])),
                       key=lambda e: (sum(e), e))
    monomials = sorted(_exponent_tuples(n, bound), key=lambda e: (sum(e), e))
    groups = {}
    for m in monomials:
        if sum(m) and in_one_cone(m):
            ev = tuple(sum(e * x[j] for e, x in zip(m, variables))
                       for j in range(mcc.ambient_dim))
            groups.setdefault(ev, []).append(m)
    chosen = []
    parent = closure(mono_gens, ())
    for ev in sorted(groups, key=lambda ev: (sum(groups[ev][0]),
                                             groups[ev][0])):
        rep, *others = groups[ev]
        for m in others:
            if _find(parent, m) != _find(parent, rep):
                chosen.append((m, rep))
                _link(parent, monomials, m, rep)

    kept_m, kept_b = list(mono_gens), list(chosen)
    removable = ([("m", g) for g in mono_gens] + [("b", g) for g in chosen])
    removable.sort(reverse=True, key=lambda kg: (
        (sum(kg[1]), 0, kg[1], ()) if kg[0] == "m"
        else (sum(kg[1][0]), 1, kg[1][0], kg[1][1])))
    for kind, g in removable:
        trial_m = [x for x in kept_m if not (kind == "m" and x == g)]
        trial_b = [x for x in kept_b if not (kind == "b" and x == g)]
        par = closure(trial_m, trial_b)
        if kind == "m":
            implied = _find(par, g) == _ZERO
        else:
            implied = _find(par, g[0]) == _find(par, g[1])
        if implied:
            kept_m, kept_b = trial_m, trial_b
    return (tuple(sorted(kept_m, key=lambda e: (sum(e), e))),
            sorted(kept_b, key=lambda b: (sum(b[0]), b[0], b[1])))


def test_one_relation_list_matches_two_list_reference():
    cases = list(_closure_cases())
    cases += [(crosspoly(3), 4), (crosspoly(3, (2, 3)), 2)]
    for mcc, bound in cases:
        pres = presentation(mcc, bound)
        assert _two_list_presentation(mcc, bound) == (
            pres.monomial_gens, [(u, v) for u, v, _ in pres.binomial_gens])


def test_presentation_rejects_bad_bound():
    with pytest.raises(ValueError):
        presentation(fix_a(), 0)


def test_presentation_degree_bound_recorded():
    pres = presentation(fix_c(), 5)
    assert pres.degree_bound == 5
    # the generators themselves are stable under a larger bound
    bigger = presentation(fix_c(), 7)
    assert bigger.monomial_gens == pres.monomial_gens
    assert [(u, v) for u, v, _ in bigger.binomial_gens] == \
        [(u, v) for u, v, _ in pres.binomial_gens]


def test_fixture_generator_dicts_are_consistent():
    # guard against silent edits to the shared fixture data
    assert sorted(FIX_A_GENS.values()) == [
        (0, 0, 2), (0, 2, 0), (1, 1, 0), (2, 0, 0)]
    assert sorted(FIX_B_GENS.values()) == [(0, 1), (3, 0), (3, 1), (3, 3)]
    assert sorted(FIX_C_GENS.values()) == [(-2, 2), (0, 2), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# presentations against a sympy reference

def _line_complex(pos, neg=()):
    """The monoid <pos> on the ray of 1 and, given neg, <-neg> on the ray
    of -1, the two cones meeting at the origin."""
    cones = {cone_build([(1,)]): pos}
    if neg:
        cones[cone_build([(-1,)])] = [-g for g in neg]
    return build_complex(fan_build(list(cones)),
                         {c.key: [(g,) for g in gs] for c, gs in cones.items()})


def _plane_complex(gens):
    """The monoid on gens in the positive quadrant, one cone."""
    cone = cone_build([(1, 0), (0, 1)])
    return build_complex(fan_build([cone]), {cone.key: gens})


# complexes with their degree bound: numerical semigroups, a plane monoid,
# and line fans whose face ideals have monomials and binomials.  The flag
# says the bound is past every degree a derivation needs, so that the
# presentation is a minimal generating set of the whole ideal.  Over
# <2, 4> and <-1> no bound is: x(-1)*x4 is implied, but x(-1)*x4^k needs
# degree k + 2 to derive that way, so the truncation keeps it; likewise
# over <2, 3, 4> and <-1>.
REFERENCE_CASES = [
    (lambda: _line_complex([2, 3]), 3, True),
    (lambda: _line_complex([2, 3, 4]), 4, True),
    (lambda: _line_complex([3, 4, 5]), 4, True),
    (lambda: _plane_complex([(2, 0), (0, 1), (1, 1), (3, 0)]), 4, True),
    (lambda: _line_complex([2, 4], [1]), 4, False),
    (lambda: _line_complex([2, 3, 4], [1]), 4, False),
    (lambda: _line_complex([3, 5], [2, 3]), 6, True),
]


def _reference_ideal(mcc, variables, xs):
    """Generators of the face ideal by sympy: the kernel of x -> t^g on
    each maximal cone (an elimination ideal), plus x_i*x_j for every pair
    of variables in no common cone.  The cones meet at the origin only,
    so their monoids share no generator."""
    sympy = pytest.importorskip("sympy")
    out = []
    home = {}
    for key in mcc.fan.maximal:
        idx = [i for i, g in enumerate(variables)
               if g in mcc.monoids[key].generators]
        for i in idx:
            home[i] = key
        # the orthant cone of key: its points up to sign are nonnegative
        ts = sympy.symbols(f"t0:{mcc.ambient_dim}")
        maps = [xs[i] - sympy.prod([t ** abs(c) for t, c in zip(ts, variables[i])])
                for i in idx]
        gb = sympy.groebner(maps, *ts, *[xs[i] for i in idx], order="lex")
        out += [p for p in gb.exprs if not p.free_symbols & set(ts)]
    out += [xs[i] * xs[j] for i, j in itertools.combinations(range(len(xs)), 2)
            if home[i] != home[j]]
    return out


def test_presentation_matches_sympy_reference():
    """The presentation generates the face ideal computed by sympy, and
    where the bound allows, none of its generators lies in the ideal of
    the others."""
    sympy = pytest.importorskip("sympy")
    for build, bound, minimal in REFERENCE_CASES:
        mcc = build()
        pres = presentation(mcc, bound)
        xs = sympy.symbols(f"x0:{len(pres.variables)}")

        def mono(e):
            return sympy.prod([x ** k for x, k in zip(xs, e)])

        gens = ([mono(e) for e in pres.monomial_gens]
                + [mono(u) - mono(v) for u, v, _ in pres.binomial_gens])
        want = _reference_ideal(mcc, pres.variables, xs)
        ours = sympy.groebner(gens, *xs, order="grevlex")
        theirs = sympy.groebner(want, *xs, order="grevlex")
        assert all(ours.contains(p) for p in want), (pres, want)
        assert all(theirs.contains(g) for g in gens), (pres, want)
        for i, g in enumerate(gens if minimal else ()):
            rest = gens[:i] + gens[i + 1:]
            assert not (rest and sympy.groebner(rest, *xs, order="grevlex")
                        .contains(g)), (pres, g)


def test_presentation_drops_an_implied_binomial(monkeypatch):
    """On <2, 3, 4> the choice takes x2*x3^2 ~ x4^2 at multidegree 8
    before x2*x4 ~ x3^2 at 6, which together with x2^2 ~ x4 implies it;
    interreduction drops it."""
    calls = []
    real = moncomplex._closure
    monkeypatch.setattr(moncomplex, "_closure", lambda monomials, relations:
                        calls.append(relations) or real(monomials, relations))
    pres = presentation(_line_complex([2, 3, 4]), 4)
    assert pres.variables == ((2,), (3,), (4,))
    # presentation's own list, as the choice left it
    assert calls[0] == [((2, 0, 0), (0, 0, 1)), ((1, 2, 0), (0, 0, 2)),
                        ((1, 0, 1), (0, 2, 0))]
    assert [(u, v) for u, v, _ in pres.binomial_gens] == [
        ((1, 0, 1), (0, 2, 0)), ((2, 0, 0), (0, 0, 1))]


def test_interreduction_order(monkeypatch):
    """Each trial leaves out one relation: highest degree first, binomials
    before monomials of one degree, then by exponents, descending."""
    for build, bound, _ in REFERENCE_CASES:
        calls = []
        real = moncomplex._closure

        def recording(monomials, relations):
            # the first list is presentation's own, which the binomial
            # choice then extends; the trials are copies
            calls.append(relations if not calls else list(relations))
            return real(monomials, relations)

        monkeypatch.setattr(moncomplex, "_closure", recording)
        presentation(build(), bound)
        monkeypatch.undo()
        pool, trials, kept = calls[0], calls[1:-1], calls[-1]
        assert len(trials) == len(pool)
        left_out, current = [], pool
        for t in trials:
            (r,) = [x for x in current if x not in t]
            left_out.append(r)
            if r not in kept:
                current = t
        assert current == kept
        assert left_out == sorted(pool, reverse=True, key=lambda r: (
            sum(r[0]), r[1] is not None, r[0], r[1] or ()))


def test_presentation_keeps_relations_whose_multiples_need_the_bound():
    """Over <2, 4> and <-1> the monomial x(-1)*x4 is derived through
    x(-1)*x2^2, but its multiple x(-1)*x4^3 would need x(-1)*x2^2*x4^2,
    past the bound 4, so it stays; dropping it failed verification."""
    pres = presentation(_line_complex([2, 4], [1]), 4)
    assert pres.variables == ((-1,), (2,), (4,))
    assert pres.monomial_gens == ((1, 0, 1), (1, 1, 0))
    assert [(u, v) for u, v, _ in pres.binomial_gens] == [((0, 2, 0), (0, 0, 1))]
