"""End-to-end acceptance: one test per published claim of the toolkit.

Each criterion is a single test function, so a verbose run prints one
pass/fail line per criterion.  Time budgets are asserted inside the
tests themselves.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import (ALL_FIXTURES, cell_complex, fix_a, fix_b, fix_c,
                      octant_boundary, stanley_r1)
import test_lattice
import toricface
from toricface.cech import cech_degree, frobenius_check
from toricface.cli import parse_input, render_report, run_command
from toricface.cohomology import (bbr_formula, c_k_monoid, complex_avoiding,
                                  depth, local_cohomology_degree, star,
                                  star_classes)
from toricface.frobenius import excluded_primes
from toricface.lattice import vneg
from toricface.moncomplex import presentation, seminormalize_complex
from toricface.monoid import (check_seminormal_normal, generated_points,
                              monoid_build, monoid_member, normalization,
                              seminormalized_monoid)
from toricface.polyhedral import cone_build

C_KEY = ((0, 1), (1, 0))
CP_KEY = ((-1, 1), (0, 1))
RAY_Y = ((0, 1),)


def box(dim, radius):
    return itertools.product(range(-radius, radius + 1), repeat=dim)


def budget(t0, limit, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{label}: {elapsed:.2f}s over the {limit}s budget"


def test_criterion_1_glued_fixture_restricted_cohomology():
    # H^2_m of the ring on the complement of star(0, 1), in degree
    # (0, -1), has dimension exactly 1 in characteristic 0 and 2, by
    # the recursion and by the localization cochain independently
    t0 = time.perf_counter()
    mcc = fix_b()
    a = (0, -1)
    sub = complex_avoiding(mcc, vneg(a))
    assert sub is not None
    for ch in (0, 2):
        formula = local_cohomology_degree(sub, a, ch)
        oracle = cech_degree(sub, a, ch)
        assert formula.dim(2) == 1
        assert oracle.dim(2) == 1
        assert formula.entries == oracle.entries == ((2, 1),)
        assert formula.corrections == oracle.corrections == ()
    budget(t0, 1.0, "criterion 1")


def test_criterion_2_wedge_fixture_full_reproduction():
    t0 = time.perf_counter()
    mcc = fix_c()
    M = mcc.monoids[C_KEY]

    # (a) the gaps of the big monoid up to total degree 6
    hb = normalization(M).elements
    pts = generated_points(hb, M.grading, 6, 2)
    gaps = {v for v in pts if monoid_member(M, v) is None}
    assert gaps == {(0, 1), (0, 3), (0, 5)}

    # (b) seminormal but not normal
    flags = check_seminormal_normal(M)
    assert flags.seminormal is True
    assert flags.normal is False

    # (c) excluded primes = {2}, witnessed at the pair (C, D)
    rep = excluded_primes(mcc)
    assert rep.excluded_set == {2}
    assert rep.excluded[0].witnesses == ((C_KEY, RAY_Y, 2),)

    # (d) depth 2 and Cohen-Macaulay in characteristic 0 and 2
    for ch in (0, 2):
        r = depth(mcc, ch)
        assert r.depth == 2
        assert r.is_CM is True

    # (e) stars of -b and -2b for b = (0, -1)
    assert star(mcc, (0, 1)).keys == (C_KEY,)
    assert star(mcc, (0, 2)).keys == (RAY_Y, CP_KEY, C_KEY)

    # (f) the 2-power map is bijective on H^2 at the four checked degrees
    for b in [(0, -1), (0, -2), (-1, -1), (-2, -2)]:
        fc = frobenius_check(mcc, b, 2)
        steps = {s.i: s for s in fc.steps}
        assert set(steps) == {2}
        assert steps[2].bijective
    budget(t0, 10.0, "criterion 2")


def test_criterion_3_three_cone_fixture_presentation():
    t0 = time.perf_counter()
    pres = presentation(fix_a(), 6)
    # variables sort to (A3, A2, A4, A1); the ideal is generated by
    # the squarefree monomial A3*A4 and the binomial A1*A2 - A4^2,
    # and the congruence closure check inside presentation() verifies
    # every multidegree of total degree <= 6
    assert pres.degree_bound == 6
    assert pres.variables == ((0, 0, 2), (0, 2, 0), (1, 1, 0), (2, 0, 0))
    assert pres.monomial_gens == ((1, 0, 1, 0),)
    assert len(pres.binomial_gens) == 1
    u, v, home = pres.binomial_gens[0]
    assert sorted([u, v]) == [(0, 0, 2, 0), (0, 1, 0, 1)]
    assert home == cone_build([(2, 0, 0), (0, 2, 0), (1, 1, 0)]).key
    budget(t0, 5.0, "criterion 3")


def test_criterion_4_and_5_oracle_equivalence_and_vanishing():
    # formula == localization cochain in every box degree, over Q and
    # mod 2 and 3; and for seminormal fixtures the table is zero
    # whenever -a lies outside the support
    t0 = time.perf_counter()
    for name, build in sorted(ALL_FIXTURES.items()):
        mcc = build()
        d = mcc.ambient_dim
        for a in box(d, 5):
            left = local_cohomology_degree(mcc, a, "all")
            right = cech_degree(mcc, a, "all")
            assert left.dims() == right.dims(), (name, a)
            for p in (2, 3):
                assert left.dims_mod(p) == right.dims_mod(p), (name, a, p)
            if mcc.seminormal and not star(mcc, vneg(a)).cones:
                assert left.entries == () and left.corrections == (), \
                    (name, a)
    budget(t0, 300.0, "criteria 4+5")


def test_criterion_6_property_suites():
    t0 = time.perf_counter()

    # boundary-of-boundary on every fixture fan
    for build in ALL_FIXTURES.values():
        cell_complex(build().fan)

    # integer normal form contracts on 200 random matrices each
    test_lattice.test_snf_contract_random()
    test_lattice.test_hnf_contract_random()

    # normalization and seminormalization stabilize after one step
    for build in (fix_b, fix_c):
        mcc = build()
        for key in mcc.fan.maximal:
            M = mcc.monoids[key]
            N = monoid_build(normalization(M).elements, M.ambient_dim)
            assert check_seminormal_normal(N).normal
            assert set(normalization(N).elements) == set(N.generators)
            P = seminormalized_monoid(M)
            assert check_seminormal_normal(P).seminormal
            assert seminormalized_monoid(P).generators == P.generators

            # M sits inside its seminormalization, which sits inside
            # the normalization
            for g in M.generators:
                assert monoid_member(P, g) is not None
            for h in P.generators:
                assert M.cone.contains(h) and M.group.contains(h)

    # cellular and simplicial tables agree on the face-poset fixtures
    for build in (stanley_r1, octant_boundary):
        for entry in bbr_formula(build(), "all").entries:
            assert entry.cellular.same_dims(entry.simplicial)

    # the ring splits degree-wise into its seminormalization and the
    # ring on the star-avoiding subcomplex
    mcc = fix_b()
    plus = seminormalize_complex(mcc)
    for a in box(2, 5):
        t_all = local_cohomology_degree(mcc, a, "all")
        t_plus = local_cohomology_degree(plus, a, "all")
        sub = complex_avoiding(mcc, vneg(a))
        sub_dims = {}
        if sub is not None:
            t_sub = local_cohomology_degree(sub, a, "all")
            sub_dims = t_sub.dims()
        for i in set(t_all.dims()) | set(t_plus.dims()) | set(sub_dims):
            assert t_all.dim(i) == t_plus.dim(i) + sub_dims.get(i, 0), (a, i)
            assert t_plus.dim(i) <= t_all.dim(i)

    # the star-class partition of the wedge fixture matches a box scan
    mcc = fix_c()
    classes = star_classes(mcc)
    assert len(classes) == 12
    assert classes[-1].carrier is None
    hits = [0] * len(classes)
    for b in box(2, 5):
        carrier = mcc.fan.carrier(b)
        matches = []
        for idx, sc in enumerate(classes):
            if sc.carrier is None:
                if carrier is None:
                    matches.append(idx)
                continue
            if carrier is None or sc.carrier.key != carrier.key:
                continue
            diff = tuple(x - y for x, y in zip(b, sc.coset_rep))
            if sc.class_lattice.contains(diff):
                matches.append(idx)
        assert len(matches) == 1, b
        hits[matches[0]] += 1
        sc = classes[matches[0]]
        expected = sc.star.keys if sc.star is not None else ()
        assert star(mcc, b).keys == expected, b
    assert all(h > 0 for h in hits)

    # face depth never exceeds the skeleton depth bound
    for gens in ([(1, 0), (0, 2), (1, 1)], [(1, 0), (0, 1)]):
        r = c_k_monoid(monoid_build(gens), "all")
        assert r.m_k >= r.c_k

    # face-poset rings exclude no primes
    assert excluded_primes(stanley_r1()).excluded == ()
    assert excluded_primes(octant_boundary()).excluded == ()
    budget(t0, 300.0, "criterion 6")


def test_criterion_7_reports_byte_identical():
    t0 = time.perf_counter()
    import importlib.resources
    fixdir = importlib.resources.files("toricface") / "fixtures"
    invocations = [
        ("fix-b", "cohomology", {"degree": (0, -1), "char": 0},
         "fix-b-cohomology-degree"),
        ("fix-c", "fpure", {}, "fix-c-fpure"),
        ("fix-c", "depth", {"char": 2}, "fix-c-depth-char2"),
        ("fix-a", "presentation", {}, "fix-a-presentation"),
        ("fix-c", "check", {}, "fix-c-check"),
        ("stanley-r1", "cohomology", {"report": True},
         "stanley-r1-cohomology-report"),
        ("octant-boundary", "validate", {}, "octant-validate"),
        ("fix-b", "oracle", {"degree": (0, -1)}, "fix-b-oracle-degree"),
    ]
    for fixture, command, options, golden in invocations:
        text = (fixdir / f"{fixture}.json").read_text()
        first = render_report(run_command(parse_input(text), command,
                                          dict(options)))
        second = render_report(run_command(parse_input(text), command,
                                           dict(options)))
        assert first == second, (fixture, command)
        with open(f"tests/golden/{golden}.json") as fh:
            assert first == fh.read(), (fixture, command)
    budget(t0, 60.0, "criterion 7")


def test_criteria_hold_under_python_O():
    """Every criterion above, the face-group nesting that star classes
    rest on, the carrier memo checked against the relint scan, the face
    lattice certificate of fan_build on damaged lattices and cones,
    cone_build against the rank rules it replaced, the presentation's
    certificate on a lost binomial, a lost monomial relation and a
    refused variable, the incidence signs of non-simplicial 4-cones, and
    the oracle's accepted pairs and kept tables against the search and
    fresh slices, run again in a `python -O` interpreter.  The library's
    asserts are stripped there, so no answer may rest on them; pytest
    still checks the tests' own asserts, which it rewrites."""
    here = Path(__file__).resolve()
    src = str(Path(toricface.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONOPTIMIZE", None)
    criteria = [f"{here}::{name}" for name in globals()
                if name.startswith("test_criterion_")] + [
        f"{here.parent / module}::{name}" for module, name in (
            ("test_cohomology.py", "test_face_groups_nest_in_their_up_sets"),
            ("test_cohomology.py", "test_star_index_matches_scans"),
            ("test_polyhedral.py", "test_fan_build_certifies_face_sets"),
            ("test_polyhedral.py", "test_fan_build_refuses_damaged_cones"),
            ("test_polyhedral.py", "test_cone_build_matches_the_rank_rules"),
            ("test_moncomplex.py",
             "test_failed_presentation_certificate_is_not_bad_input"),
            ("test_moncomplex.py",
             "test_underived_zero_monomial_fails_the_certificate"),
            ("test_moncomplex.py",
             "test_variable_refused_by_its_cone_monoid_fails_the_certificate"),
            ("test_cohomology.py", "test_cubical_cones_cochain_and_oracle"),
            ("test_cech.py", "test_pass_answers_agree_with_the_search"),
            ("test_cech.py",
             "test_normal_complex_keeps_one_table_per_pass_outcome"))]
    script = ("import sys, pytest; print('optimize', sys.flags.optimize); "
              "sys.exit(pytest.main(sys.argv[1:]))")
    run = subprocess.run(
        [sys.executable, "-O", "-c", script, "-q", "-p", "no:cacheprovider",
         *criteria],
        cwd=here.parents[1], capture_output=True, text=True, env=env,
        check=False)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert run.stdout.splitlines()[0] == "optimize 1"
    assert f"{len(criteria)} passed" in run.stdout, run.stdout[-3000:]
