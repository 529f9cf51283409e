"""Localized pieces, the cone-indexed cochain complex, and the power map.

Expected dimensions were derived by hand from the generator data in
conftest.py (membership in each localized piece reduces to a lattice
point count) and frozen here; the box scans then cross-check the direct
cochain computation against the recursive formula on every fixture.
"""

import contextlib
import importlib.resources
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricface.cech as cech_module
import toricface.cli as cli_module
from conftest import (ALL_FIXTURES, crosspoly, fix_a, fix_b, fix_c,
                      octant_boundary, stanley_r1)
from toricface.cech import (BoundExhausted, CechSlice, cech_degree,
                            cech_slice, frobenius_check, localization_piece)
from toricface.cli import main
from toricface.cohomology import (complex_avoiding, local_cohomology_degree,
                                  table_from_cochain, zero_table)
from toricface.frobenius import excluded_primes
from toricface.lattice import LatticeBasis, dot, rational_coords, vadd, vneg
from toricface.moncomplex import restrict, seminormalize_complex
from toricface.monoid import monoid_member
from toricface.polyhedral import cochain, facets_through, skeleton_fan

RAY_T = ((0, 1),)
RAY_X = ((1, 0),)
RAY_D = ((1, 1),)
CONE_BP = ((0, 1), (1, 1))
CONE_B = ((1, 0), (1, 1))


def box(dim, radius):
    return itertools.product(range(-radius, radius + 1), repeat=dim)


def check_witness(mcc, cone_key, a, witness):
    z, y = witness
    assert tuple(x - w for x, w in zip(z, y)) == tuple(a)
    assert monoid_member(mcc.monoids[cone_key], y) is not None
    targets = mcc.fan.up_set(mcc.fan.by_key(cone_key))
    assert any(monoid_member(mcc.monoids[d.key], z) is not None
               for d in targets)


def check_zero_piece(mcc, cone_key, a, depth=3):
    # a zero piece means no y in the source monoid lands a + y in any
    # overcone monoid; falsify over all small generator combinations
    gens = mcc.monoids[cone_key].generators
    targets = mcc.fan.up_set(mcc.fan.by_key(cone_key))
    combos = [c for c in itertools.product(range(depth + 1), repeat=len(gens))
              if sum(c) <= depth]
    for c in combos:
        y = tuple(sum(ci * g[j] for ci, g in zip(c, gens))
                  for j in range(mcc.ambient_dim))
        z = vadd(a, y)
        assert all(monoid_member(mcc.monoids[d.key], z) is None
                   for d in targets)


def test_piece_values_two_cone_glued():
    mcc = fix_b()
    a = (0, -1)
    expected = {
        (): 0,
        RAY_T: 1,
        RAY_X: 0,
        RAY_D: 0,
        CONE_BP: 1,
        CONE_B: 1,
    }
    for cone in mcc.fan.cones:
        r = localization_piece(mcc, cone, a)
        assert r.value == expected[cone.key], cone.key
        if r.value:
            check_witness(mcc, cone.key, a, r.witness)
        else:
            assert r.witness is None
            check_zero_piece(mcc, cone.key, a)


def test_piece_accepts_raw_key():
    mcc = fix_b()
    r = localization_piece(mcc, RAY_T, (0, -1))
    assert r.value == 1
    assert r.witness == ((0, 0), (0, 1))


def test_piece_witnesses_over_box():
    # slices build no witness, so check here that every piece a slice
    # lists has one, the same from the slice as from a direct call, and
    # that every piece it leaves out is zero
    inputs = ([build() for build in ALL_FIXTURES.values()]
              + [crosspoly(2), crosspoly(2, (2, 3))])
    for mcc in inputs:
        for a in box(mcc.ambient_dim, 2):
            listed = {c.key: pr
                      for c, pr in cech_slice(mcc, a).pieces.items()}
            for cone in mcc.fan.cones:
                r = localization_piece(mcc, cone, a)
                if cone.key in listed:
                    check_witness(mcc, cone.key, a, listed[cone.key].witness)
                    assert r.value == 1
                    assert r.witness == listed[cone.key].witness
                else:
                    assert r.value == 0 and r.witness is None


def up_set_slice(mcc, a):
    """A slice by the rule that asks every cone of fan.up_set, not only the
    maximal ones: (witness by nonzero piece key, sizes, mats).  Its memo
    starts empty and no pass rules a pair out, so every pair is searched."""
    fan, memo = mcc.fan, {}
    cap = cech_module.DEFAULT_STATE_CAP

    def decide(small, big):
        return cech_module._decide(mcc, small, fan.up_set(big), a, cap, memo)

    pieces = [c for c in fan.cones if decide(c, c)]
    witnesses = {c.key: cech_module._witness(mcc, c, fan.up_set(c), a, memo)
                 for c in pieces}
    return (witnesses, *cochain(pieces, decide))


def test_maximal_targets_match_every_target():
    """Deciding pieces and maps against the maximal cones above a cone
    gives the slice, and the witnesses, of deciding against all of them."""
    cusp = crosspoly(2, (2, 3))
    radius = {"fix_a": 3, "octant_boundary": 3}
    inputs = ([(build(), radius.get(name, 4))
               for name, build in ALL_FIXTURES.items()]
              + [(crosspoly(2), 2), (crosspoly(3), 1), (cusp, 2),
                 (seminormalize_complex(cusp), 2)])
    for mcc, radius in inputs:
        for a in box(mcc.ambient_dim, radius):
            sl = cech_slice(mcc, a)
            witnesses, sizes, mats = up_set_slice(mcc, a)
            assert {c.key: pr.witness for c, pr in sl.pieces.items()} \
                == witnesses, a
            assert (sl.sizes, sl.mats) == (sizes, mats), a


def in_group(mcc, target, a):
    """Is a in Z MD?  By rational coordinates over the group's basis,
    den*a = sum c_i*b_i, which never calls LatticeBasis.contains."""
    coords = rational_coords(mcc.monoids[target.key].group, a)
    return coords is not None and all(c % coords[1] == 0 for c in coords[0])


def ruled_out(mcc, source, target, a):
    """Is a outside Z MD, or a facet of D through the source negative on a?"""
    return (not in_group(mcc, target, a)
            or any(dot(f, a) < 0 for f in facets_through(target, source)))


def test_dead_pair_index_matches_the_cheap_exits():
    """On every fixture over [-4, 4]^d, the d=3 cusp and the d=3
    cross-polytope over [-2, 2]^3, the pass read from the per-complex index
    answers False exactly for the pairs (cone, maximal D above it) that
    ruled_out refuses, True for (D, D) with a in Z MD and for every other
    pair into a normal D not ruled out, and nothing else; its live set is
    the cones with a target not ruled out.  The cusp's restrictions share
    its monoids, and with them the pairs kept on each, so they are checked
    after it."""
    cusp = crosspoly(3, (2, 3))
    inputs = ([(build(), 4) for build in ALL_FIXTURES.values()]
              + [(cusp, 2), (crosspoly(3), 2),
                 (complex_avoiding(cusp, (1, 1, 0)), 2),
                 (restrict(cusp, skeleton_fan(cusp.fan, 2)), 2)])
    kinds = set()
    for mcc, radius in inputs:
        for a in box(mcc.ambient_dim, radius):
            memo = {}
            live = cech_module._dead_pairs(mcc, a, memo)
            expected, open_ = {}, set()
            for c in mcc.fan.cones:
                for d in mcc.fan.maximal_above(c):
                    if ruled_out(mcc, c, d, a):
                        expected[c.key, d.key] = False
                    else:
                        open_.add(c.key)
                        if c == d or mcc.monoids[d.key].flags.normal:
                            expected[c.key, d.key] = True
            assert memo == expected, a
            assert live == open_, a
            kinds.add((bool(live), len(live) < len(mcc.fan.cones)))
    assert kinds == {(False, True), (True, True), (True, False)}


def test_pass_answers_agree_with_the_search():
    """The pass accepts a pair (c, D) with c != D only into a normal MD,
    and every pair it answers, accepted or ruled out, gets the same answer
    from _decide_one's search, kept as the reference: on every fixture
    over [-4, 4]^d (fix-b and fix-c have one normal target each), the d=2
    and d=3 cross-polytopes and the seminormalized d=2 cusp."""
    cap = cech_module.DEFAULT_STATE_CAP
    inputs = ([(build(), 4) for build in ALL_FIXTURES.values()]
              + [(crosspoly(2), 4), (crosspoly(3), 2),
                 (seminormalize_complex(crosspoly(2, (2, 3))), 4)])
    accepted = set()
    for mcc, radius in inputs:
        fan = mcc.fan
        for a in box(mcc.ambient_dim, radius):
            memo = {}
            cech_module._dead_pairs(mcc, a, memo)
            for (c, d), answer in memo.items():
                if answer and c != d:
                    assert mcc.monoids[d].flags.normal, (c, d, a)
                    accepted.add(mcc)
                assert cech_module._decide_one(
                    mcc, fan.by_key(c), fan.by_key(d), a, cap) == answer, \
                    (c, d, a)
    # a normal target of each input, fix-b's and fix-c's among them
    assert len(accepted) == len(inputs)


def test_normal_complex_keeps_one_table_per_pass_outcome(monkeypatch,
                                                         capsys):
    """On crosspoly-2 over [-5, 5]^2 and on fix-a and octant-boundary over
    [-4, 4]^3, in characteristics 0, 2, 3 and all, cech_degree builds one
    cochain per (set of pairs the pass accepts, characteristic), 9 per
    characteristic on crosspoly-2, none on a second sweep, and each table
    equals table_from_cochain of a fresh cech_slice.  The cusp and fix-b
    keep no table, and oracle --box reports on fix-a and stanley-r1 are
    those of building every degree's slice."""
    built = []
    cochain_ = cech_module.cochain

    def counted(*args):
        built.append(args)
        return cochain_(*args)

    for mcc, radius, count in [(crosspoly(2), 5, 9), (fix_a(), 4, 19),
                               (octant_boundary(), 4, 19)]:
        degrees = list(box(mcc.ambient_dim, radius))
        outcomes = set()
        for a in degrees:
            memo = {}
            if cech_module._dead_pairs(mcc, a, memo):
                outcomes.add(frozenset(k for k, v in memo.items() if v))
        assert len(outcomes) == count
        for ch in (0, 2, 3, "all"):
            with monkeypatch.context() as m:
                m.setattr(cech_module, "cochain", counted)
                built.clear()
                tables = [cech_degree(mcc, a, ch) for a in degrees]
                assert len(built) == len(outcomes), ch
                built.clear()
                assert [cech_degree(mcc, a, ch) for a in degrees] == tables
                assert not built
            for a, t in zip(degrees, tables):
                sl = cech_slice(mcc, a)
                assert t == table_from_cochain(sl.sizes, sl.mats, ch), (a, ch)
        assert len(mcc._tables) == 4 * count
    for mcc in (crosspoly(2, (2, 3)), fix_b()):
        for a in box(2, 3):
            cech_degree(mcc, a, "all")
        assert mcc._tables == {}

    def per_degree(mcc, a, ch, cap):
        sl = cech_slice(mcc, a, cap)
        return table_from_cochain(sl.sizes, sl.mats, ch)
    for name in ("fix-a", "stanley-r1"):
        path = importlib.resources.files("toricface") / "fixtures" \
            / f"{name}.json"
        for ch in ("all", "2"):
            args = ["oracle", str(path), "--box", "3", "--char", ch]
            assert main(args) == 0
            kept = capsys.readouterr()
            with monkeypatch.context() as m:
                m.setattr(cli_module, "cech_degree", per_degree)
                assert main(args) == 0
            assert capsys.readouterr() == kept
            assert json.loads(kept.out)["payload"]["nonzero"]


def test_slice_with_no_live_cone_exits_empty(monkeypatch, capsys):
    """fix-a's three maximal groups miss (1, 2, 3), so the pass leaves no
    live cone: the slice is empty with no piece asked and no cochain built,
    its table is table_from_cochain's of the empty complex, and the oracle
    command renders what it renders when every cone is asked."""
    mcc, a = fix_a(), (1, 2, 3)
    assert not any(in_group(mcc, d, a) for d in map(
        mcc.fan.by_key, mcc.fan.maximal))
    path = importlib.resources.files("toricface") / "fixtures" / "fix-a.json"
    args = ["oracle", str(path), "--degree", "1,2,3"]
    dead_pairs = cech_module._dead_pairs
    with monkeypatch.context() as m:   # every cone live: the full path
        m.setattr(cech_module, "_dead_pairs", lambda mcc, a, memo: (
            dead_pairs(mcc, a, memo), {c.key for c in mcc.fan.cones})[1])
        m.setattr(cech_module, "zero_table",
                  lambda ch: table_from_cochain({}, {}, ch))
        assert main(args) == 0
        full = capsys.readouterr()
    assert json.loads(full.out)["payload"]["table"]["entries"] == []

    def refuse(*args):
        raise AssertionError("called on an empty slice")
    monkeypatch.setattr(cech_module, "localization_piece", refuse)
    monkeypatch.setattr(cech_module, "cochain", refuse)
    assert cech_slice(mcc, a) == CechSlice(a, {}, {}, {})
    for ch in (0, 2, "all"):
        assert cech_degree(mcc, a, ch) == table_from_cochain({}, {}, ch)
    assert main(args) == 0
    assert capsys.readouterr() == full


def test_search_runs_only_on_live_pairs(monkeypatch):
    """Over the sweep's boxes, the per-degree pass leaves the search no pair
    that a cheap exit refuses and no pair of a cone with itself, and asks
    no piece whose every target it has ruled out."""
    searched, asked = [], []
    decide_one, piece = cech_module._decide_one, localization_piece

    def counted_decide(mcc, source, target, a, *rest):
        searched.append((mcc, source, target, a))
        return decide_one(mcc, source, target, a, *rest)

    def counted_piece(mcc, cone, a, *rest):
        asked.append((mcc, cone, a))
        return piece(mcc, cone, a, *rest)

    monkeypatch.setattr(cech_module, "_decide_one", counted_decide)
    monkeypatch.setattr(cech_module, "localization_piece", counted_piece)
    cones = 0
    for build in ALL_FIXTURES.values():
        mcc = build()
        for a in box(mcc.ambient_dim, 4):
            cech_slice(mcc, a)
            cones += len(mcc.fan.cones)
    assert searched and 0 < len(asked) < cones
    for mcc, source, target, a in searched:
        assert source != target and not ruled_out(mcc, source, target, a)
    for mcc, cone, a in asked:
        assert not all(ruled_out(mcc, cone, d, a)
                       for d in mcc.fan.maximal_above(cone))


def test_slice_tests_each_distinct_group_once(monkeypatch):
    """The pass tests a in Z MD once per distinct group of a maximal cone:
    once per slice on the cusp fan, whose 8 maximal cones share Z^3.  The
    test is LatticeBasis.contains, counted while _dead_pairs runs."""
    calls, in_pass = [], []
    contains, dead_pairs = LatticeBasis.contains, cech_module._dead_pairs

    def counted_contains(L, v):
        if in_pass:
            calls.append(L.basis)
        return contains(L, v)

    def counted_pass(*args):
        in_pass.append(True)
        try:
            return dead_pairs(*args)
        finally:
            in_pass.pop()
    monkeypatch.setattr(LatticeBasis, "contains", counted_contains)
    monkeypatch.setattr(cech_module, "_dead_pairs", counted_pass)
    cusp = crosspoly(3, (2, 3))
    assert len(cusp.fan.maximal) == 8
    counts = []
    for mcc in [cusp] + [build() for build in ALL_FIXTURES.values()]:
        groups = {mcc.monoids[k].group.basis for k in mcc.fan.maximal}
        counts.append(len(groups))
        for a in box(mcc.ambient_dim, 1):
            calls.clear()
            cech_slice(mcc, a)
            assert sorted(calls) == sorted(groups), a
    assert counts[0] == 1 and max(counts) > 1


def test_negative_facet_weight_is_an_error(monkeypatch):
    # the search's soundness rests on phi >= 0 on the target's generators;
    # a broken weight must stop it, also under python -O
    through = cech_module.facets_through
    monkeypatch.setattr(cech_module, "facets_through", lambda target, source: [
        vneg(f) for f in through(target, source)])
    mcc = fix_b()
    source, target = mcc.fan.by_key(RAY_T), mcc.fan.by_key(CONE_BP)
    with pytest.raises(RuntimeError, match="negative"):
        cech_module._decide_one(mcc, source, target, (0, -1), 1000)


def test_witness_scan_stops_at_its_cap(monkeypatch):
    # a wrong positive decision must end in an error, also under python -O;
    # the pass would rule every pair of this piece out before the search,
    # so the forged decision makes it a no-op too
    monkeypatch.setattr(cech_module, "WITNESS_HARD_CAP", 3)
    monkeypatch.setattr(cech_module, "_dead_pairs", lambda *args: None)
    monkeypatch.setattr(cech_module, "_decide_one", lambda *args: True)
    r = localization_piece(fix_b(), RAY_X, (0, -1))
    assert r.value == 1
    with pytest.raises(RuntimeError, match="passed its cap"):
        r.witness


def test_witness_check_rejects_wrong_coefficients(monkeypatch):
    monkeypatch.setattr(cech_module, "monoid_member",
                        lambda M, v: (1,) * len(M.generators))
    r = localization_piece(fix_b(), RAY_T, (0, -1))
    assert r.value == 1
    with pytest.raises(RuntimeError, match="fails its check"):
        r.witness


def test_slice_searches_each_pair_once(monkeypatch):
    mcc = crosspoly(3, (2, 3))
    asked = []
    decide_one = cech_module._decide_one

    def counted(mcc, source, target, *rest):
        asked.append((source.key, target.key))
        return decide_one(mcc, source, target, *rest)

    monkeypatch.setattr(cech_module, "_decide_one", counted)
    linked = 0
    for a in [(-1, -1, -1), (1, -2, 0), (0, -1, -2), (2, 2, -1)]:
        asked.clear()
        linked += len(cech_slice(mcc, a).mats)
        assert asked and len(asked) == len(set(asked)), a
    assert linked


def test_face_weights_are_computed_once_per_pair(monkeypatch):
    """facets_through, phi and the phi-positive generators do not depend on
    the degree; they are kept on the target monoid, which restrict shares,
    so no (target, source) pair computes them twice across degrees or
    across restricted complexes."""
    mcc = crosspoly(3, (2, 3))
    asked = []
    through = cech_module.facets_through

    def counted(target, source):
        asked.append((target.key, source.key))
        return through(target, source)

    monkeypatch.setattr(cech_module, "facets_through", counted)
    sub = restrict(mcc, skeleton_fan(mcc.fan, 2))
    for a in [(-1, -1, -1), (1, -2, 0), (0, -1, -2), (2, 2, -1)]:
        cech_slice(mcc, a)
        cech_slice(sub, a)
    assert asked and len(asked) == len(set(asked))


def test_slice_state_cap_stops_the_first_long_search():
    # pinned from the slice that searched every pair afresh: sharing the
    # answers reorders no search, so the same one hits the cap, except
    # that a normal target takes no search: fix-b's normal CONE_BP is
    # accepted by the pass, and the cap is first hit at CONE_B
    cases = [(fix_b(), (3, 1), CONE_B),
             (crosspoly(3, (2, 3)), (-1, -1, -1),
              ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))]
    for mcc, a, key in cases:
        with pytest.raises(BoundExhausted) as exc:
            cech_slice(mcc, a, state_cap=1)
        assert (exc.value.cone_key, exc.value.degree, exc.value.cap) \
            == (key, a, 1)


def test_state_cap_exhaustion_is_loud():
    # membership of (3, 1) from the x-ray needs a search; a one-state cap
    # must fail loudly rather than report an empty piece
    mcc = fix_b()
    with pytest.raises(BoundExhausted) as exc:
        localization_piece(mcc, RAY_X, (3, 1), state_cap=1)
    assert exc.value.cone_key == CONE_B
    assert exc.value.degree == (3, 1)
    assert exc.value.cap == 1
    r = localization_piece(mcc, RAY_X, (3, 1))
    assert r.value == 1
    check_witness(mcc, RAY_X, (3, 1), r.witness)


def test_slice_structure_two_cone_glued():
    mcc = fix_b()
    sl = cech_slice(mcc, (0, -1))
    assert sl.degree == (0, -1)
    levels = [c.dim for c in sl.pieces]
    assert levels == sorted(levels)
    assert sl.keys_at(1) == (RAY_T,)
    assert sl.keys_at(2) == (CONE_BP, CONE_B)
    assert sl.keys_at(0) == ()
    assert sl.sizes == {1: 1, 2: 2}
    mats = sl.mats
    assert list(mats) == [1]
    assert [len(r) for r in mats[1]] == [1, 1]
    assert sorted(abs(r[0]) for r in mats[1]) == [0, 1]


def test_slice_matrix_shapes_match_levels():
    mcc = fix_c()
    for a in [(0, -1), (0, -2), (-1, -1), (1, 1), (0, 0)]:
        sl = cech_slice(mcc, a)
        sizes = sl.sizes
        for t, rows in sl.mats.items():
            assert len(rows) == sizes.get(t + 1, 0)
            for r in rows:
                assert len(r) == sizes.get(t, 0)


def test_cochain_degree_two_cone_glued():
    mcc = fix_b()
    t = cech_degree(mcc, (0, -1), "all")
    assert t.entries == ((2, 1),)
    assert t.corrections == ()
    assert cech_degree(mcc, (0, -1), 0).entries == ((2, 1),)
    assert cech_degree(mcc, (0, -1), 2).entries == ((2, 1),)


def test_restricted_complex_carries_the_top_class():
    # removing the star of (0, 1) from the glued complex leaves the face
    # poset of the non-seminormal cone; its top cohomology in degree
    # (0, -1) is one-dimensional by both computations
    mcc = fix_b()
    sub = complex_avoiding(mcc, (0, 1))
    assert sub is not None
    assert {c.key for c in sub.fan.cones} == {(), RAY_X, RAY_D, CONE_B}
    oracle = cech_degree(sub, (0, -1), "all")
    formula = local_cohomology_degree(sub, (0, -1), "all")
    assert oracle.entries == ((2, 1),)
    assert formula.entries == oracle.entries
    assert formula.corrections == oracle.corrections == ()


def test_formula_matches_cochain_over_boxes():
    radii = {1: 3, 2: 2, 3: 1}
    for name, build in sorted(ALL_FIXTURES.items()):
        mcc = build()
        d = mcc.ambient_dim
        for ch in (0, 2, 3):
            for a in box(d, radii[d]):
                left = local_cohomology_degree(mcc, a, ch)
                right = cech_degree(mcc, a, ch)
                assert left.entries == right.entries, (name, a, ch)
                assert left.corrections == right.corrections == ()


def test_degree_with_negative_outside_support_is_zero():
    # the support of the seminormal wedge complex is the first quadrant
    # plus the wedge between (0, 1) and (-1, 1); cohomology in degree a
    # vanishes whenever -a lies outside it
    mcc = fix_c()
    for a in [(7, 0), (0, 7), (5, 5), (-1, 7), (1, -7)]:
        t = cech_degree(mcc, a, "all")
        assert t.total == 0
        assert t == zero_table("all")
    # contrast: -(-7, -1) = (7, 1) sits inside the big cone, and the top
    # cohomology there is one-dimensional
    assert cech_degree(mcc, (-7, -1), "all").entries == ((2, 1),)


def test_power_map_bijective_at_checked_degrees():
    mcc = fix_c()
    for b in [(0, -1), (0, -2), (-1, -1), (-2, -2)]:
        fc = frobenius_check(mcc, b, 2)
        assert fc.degree == b
        assert fc.prime == 2
        steps = {s.i: s for s in fc.steps}
        assert set(steps) == {2}
        s = steps[2]
        assert (s.dim_source, s.dim_target, s.rank) == (1, 1, 1)
        assert s.injective and s.bijective


def test_power_map_injective_at_unexcluded_prime():
    mcc = fix_c()
    for a in box(2, 2):
        fc = frobenius_check(mcc, a, 3)
        assert all(s.injective for s in fc.steps), (a, fc.steps)


def test_power_map_injective_on_line_pair():
    mcc = stanley_r1()
    for a in box(1, 2):
        fc = frobenius_check(mcc, a, 2)
        assert all(s.injective for s in fc.steps), (a, fc.steps)


def test_f_pure_primes_give_injective_power_maps():
    # F-pure at p implies F-injective at p, so away from the excluded
    # primes the oracle's power map is injective on every nonzero H^i;
    # the two sides share no code above the lattice kernel
    for name, build in sorted(ALL_FIXTURES.items()):
        mcc = build()
        if not mcc.seminormal:
            continue
        excluded = excluded_primes(mcc).excluded_set
        for p in (2, 3, 5):
            if p in excluded:
                continue
            for a in box(mcc.ambient_dim, 1):
                for s in frobenius_check(mcc, a, p).steps:
                    assert s.injective or s.dim_source == 0, (name, p, a, s)


def test_power_map_rejects_composite_exponent():
    mcc = fix_c()
    for p in (0, 1, 4, 6):
        with pytest.raises(ValueError):
            frobenius_check(mcc, (0, -1), p)


# ---------------------------------------------------------------------------
# failed certificates: each breaks one check, which must raise RuntimeError
# in the library and exit 3 from the CLI, with asserts on or off

def _flip_a_sign(cochain):
    """Cochain data with one sign of its top map flipped."""
    def flipped(cones, linked=None):
        sizes, mats = cochain(cones, linked)
        row = mats[max(mats)][0]
        j = next(j for j, x in enumerate(row) if x)
        row[j] = -row[j]
        return sizes, mats
    return flipped


def _at_second_slice(change):
    """cech_slice with the second slice asked for, frobenius_check's slice
    in degree p*a, passed through change."""
    def make(cech_slice):
        asked = []

        def patched(*args):
            sl = cech_slice(*args)
            asked.append(sl)
            return change(sl) if len(asked) == 2 else sl
        return patched
    return make


CERTIFICATES = [
    # (name patched in toricface.cech, its replacement given the original,
    #  library call, CLI arguments on fix-c, message)
    ("cochain", _flip_a_sign,
     lambda: cech_slice(fix_c(), (0, 0)),
     ["oracle", "--degree", "0,0"], "do not compose to zero"),
    ("cech_slice",
     _at_second_slice(lambda sl: CechSlice(sl.degree, {}, {}, {})),
     lambda: frobenius_check(fix_c(), (0, -1), 2),
     ["frobenius", "--degree", "0,-1", "-p", "2"], "vanish at degree"),
    ("cech_slice",
     _at_second_slice(lambda sl: CechSlice(sl.degree, sl.pieces, sl.sizes, {})),
     lambda: frobenius_check(fix_c(), (0, 0), 3),
     ["frobenius", "--degree", "0,0", "-p", "3"], "fails to commute"),
]


def _certificate_outcome(case):
    """(library error or None, CLI exit code, CLI stderr) with one check
    broken.  Plain code, no asserts, so it runs the same under python -O."""
    name, make, call, args, _ = CERTIFICATES[case]
    original = getattr(cech_module, name)
    path = importlib.resources.files("toricface") / "fixtures" / "fix-c.json"
    err = io.StringIO()
    try:
        setattr(cech_module, name, make(original))
        try:
            call()
            raised = None
        except RuntimeError as e:
            raised = str(e)
        setattr(cech_module, name, make(original))
        with contextlib.redirect_stderr(err):
            code = main([*args, str(path)])
    finally:
        setattr(cech_module, name, original)
    return raised, code, err.getvalue()


def _check_outcome(case, outcome):
    raised, code, err = outcome
    message = CERTIFICATES[case][-1]
    assert raised is not None and message in raised, (case, raised)
    assert code == 3, (case, err)
    assert err.startswith("toricface: internal error: RuntimeError: ")
    assert message in err


@pytest.mark.parametrize("case", range(len(CERTIFICATES)))
def test_failed_cech_certificate_raises(case):
    _check_outcome(case, _certificate_outcome(case))


def test_failed_cech_certificates_raise_under_python_O():
    here = Path(__file__).resolve().parent
    src = str(Path(cech_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(here)]))
    env.pop("PYTHONOPTIMIZE", None)
    script = ("import json, sys, test_cech as t; print(json.dumps("
              "[sys.flags.optimize] + [t._certificate_outcome(i) "
              "for i in range(len(t.CERTIFICATES))]))")
    run = subprocess.run([sys.executable, "-O", "-c", script], cwd=here,
                         capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 0, run.stderr
    optimize, *outcomes = json.loads(run.stdout.splitlines()[-1])
    assert optimize == 1
    assert len(outcomes) == len(CERTIFICATES)
    for case, outcome in enumerate(outcomes):
        _check_outcome(case, outcome)
