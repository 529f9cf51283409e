"""Graded local cohomology of an embedded toric face ring.

The degree-a piece of local cohomology is read off combinatorially: the
star of -a (the cones whose normalized monoid contains -a) carries a
quotient of the augmented cellular cochain complex of the fan, and for
seminormal complexes its cohomology, graded by cone dimension, is the answer.
A non-seminormal complex splits once: the star summand, plus the cohomology
of the subcomplex away from the star, which the brute-force Cech oracle
computes unless that subcomplex is seminormal (its star is empty, so it
adds nothing); the oracle also answers alone when the star is empty.

All boundary maps are integral, so the elementary divisors of each map
answer every characteristic at once: dimensions over Q plus the finite
list of primes where torsion shifts them.  They come from one sparse
exact path, the unit pivots eliminated first and the residual, if any,
sent to the Smith normal form.  On top of the per-degree
machinery sit: the finite star-class decomposition of Z^d (making global
reports possible), depth and Cohen-Macaulayness by rank selection over
skeleta, the per-face count for a single monoid, and the simplicial
order-complex comparison for Stanley complexes.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

from .lattice import (
    LatticeBasis,
    dot,
    elementary_divisors,
    is_prime,
    lattice_equal,
    prime_factors,
    quotient_invariants,
    vadd,
    vec,
    vneg,
    vscale,
)
from .moncomplex import ComplexError, MonoidalComplex, build_complex, restrict
from .monoid import AffineMonoid
from .polyhedral import Cone, Fan, cochain, fan_build, relint_contains
from .record import record


def check_characteristic(characteristic):
    if characteristic == "all" or (type(characteristic) is int and (
            characteristic == 0 or is_prime(characteristic))):
        return characteristic
    raise ValueError(f"characteristic must be 0, a prime, or 'all', "
                     f"got {characteristic!r}")


# ---------------------------------------------------------------------------
# cohomology tables

@record
class CohomologyTable:
    """Dimensions of a graded cohomology group, indexed by cohomological degree.

    For characteristic "all" the entries hold the dimensions over Q and
    `corrections` holds the full entry list for each prime where torsion
    changes some dimension; for a fixed characteristic the entries are the
    dimensions over that field and `corrections` is empty.
    """

    characteristic: object   # 0, a prime, or "all"
    entries: tuple           # ((i, dim), ...), positive dims only, ascending i
    corrections: tuple = ()  # ((p, ((i, dim), ...)), ...)
    label: str = ""          # "oracle-computed" marks delegated answers

    def dims(self) -> dict:
        return dict(self.entries)

    def dims_mod(self, p: int) -> dict:
        if self.characteristic == "all":
            for q, ent in self.corrections:
                if q == p:
                    return dict(ent)
            return dict(self.entries)
        if self.characteristic == p:
            return dict(self.entries)
        raise ValueError(f"table over characteristic {self.characteristic} "
                         f"cannot answer for p={p}")

    def dim(self, i: int) -> int:
        return self.dims().get(i, 0)

    @property
    def bad_primes(self) -> tuple:
        return tuple(p for p, _ in self.corrections)

    @property
    def total(self) -> int:
        return sum(d for _, d in self.entries)

    def same_dims(self, other: "CohomologyTable") -> bool:
        return (self.entries == other.entries
                and self.corrections == other.corrections)


def zero_table(characteristic) -> CohomologyTable:
    return CohomologyTable(check_characteristic(characteristic), (), ())


def table_from_cochain(sizes: dict, mats: dict,
                       characteristic) -> CohomologyTable:
    """Cohomology dimensions of an integer cochain complex.

    sizes[j] is the rank of the degree-j term; mats[j] is the matrix of
    d^j: K^j -> K^{j+1} with rows indexed by the degree-(j+1) basis.
    Each map's elementary divisors come from `elementary_divisors`: the
    +-1 pivots are eliminated on sparse rows first, one unit divisor
    each, and only the residual goes to `snf`.
    """
    characteristic = check_characteristic(characteristic)
    divisors = {j: elementary_divisors(M) for j, M in mats.items()}

    def rank_in(j, p):
        dv = divisors.get(j, ())
        if p == 0:
            return len(dv)
        return sum(1 for x in dv if x % p != 0)

    def entries_in(p):
        out = []
        for j in sorted(sizes):
            h = sizes[j] - rank_in(j, p) - rank_in(j - 1, p)
            assert h >= 0
            if h:
                out.append((j, h))
        return tuple(out)

    if characteristic != "all":
        return CohomologyTable(characteristic, entries_in(characteristic), ())
    bad = set()
    for dv in divisors.values():
        for x in dv:
            bad |= prime_factors(x)
    main = entries_in(0)
    corr = []
    for p in sorted(bad):
        ent = entries_in(p)
        if ent != main:
            corr.append((p, ent))
    return CohomologyTable("all", main, tuple(corr))


def table_shift(table: CohomologyTable, k: int) -> CohomologyTable:
    ent = tuple((i + k, d) for i, d in table.entries)
    corr = tuple((p, tuple((i + k, d) for i, d in e))
                 for p, e in table.corrections)
    return CohomologyTable(table.characteristic, ent, corr, table.label)


def table_add(t1: CohomologyTable, t2: CohomologyTable) -> CohomologyTable:
    assert t1.characteristic == t2.characteristic

    def merge(e1, e2):
        acc = dict(e1)
        for i, d in e2:
            acc[i] = acc.get(i, 0) + d
        return tuple(sorted(acc.items()))

    main = merge(t1.entries, t2.entries)
    corr = []
    if t1.characteristic == "all":
        for p in sorted(set(t1.bad_primes) | set(t2.bad_primes)):
            ent = merge(tuple(t1.dims_mod(p).items()),
                        tuple(t2.dims_mod(p).items()))
            if ent != main:
                corr.append((p, ent))
    label = t1.label or t2.label
    return CohomologyTable(t1.characteristic, main, tuple(corr), label)


# ---------------------------------------------------------------------------
# stars and their cochain complexes

@record
class Star:
    """The cones whose normalized monoid contains a fixed degree."""

    degree: tuple
    cones: tuple   # Cone objects, sorted by (dim, rays)

    @cached_property
    def keys(self) -> tuple:
        return tuple(c.key for c in self.cones)


def star(mcc: MonoidalComplex, a) -> Star:
    a = vec(a)
    return _star_at(mcc, mcc.fan.carrier(a), a)


def _star_at(mcc: MonoidalComplex, carrier: Optional[Cone], a) -> Star:
    """star(mcc, a) for a given as an int tuple with its carrier: a cone
    holds a exactly when a's carrier is one of its faces, so the star is
    the cones of the carrier's up-set whose group holds a.  fan_build
    certified the up-set up-closed, and Z M_D ⊆ Z M_E for D ≤ E, since
    moncomplex._validate checks M_D = M_E ∩ D (and a test checks the
    nesting under -O), so the star is up-closed; when the carrier's
    group holds a, every group above it does and the star is the up-set."""
    if carrier is None:
        return Star(a, ())
    ups = mcc.fan.up_set(carrier)
    if mcc.monoids[carrier.key].group.contains(a):
        return Star(a, ups)
    return Star(a, tuple(d_ for d_ in ups
                         if mcc.monoids[d_.key].group.contains(a)))


def star_table(fan: Fan, st: Star, characteristic) -> CohomologyTable:
    """table_from_cochain of the star's cochain complex, built once per
    fan and characteristic and kept on the fan: it depends on the cones
    alone, so every complex on the fan shares it."""
    key = (st.keys, characteristic)
    table = fan._star_tables.get(key)
    if table is None:
        table = fan._star_tables[key] = table_from_cochain(
            *cochain(st.cones), characteristic)
    return table


# ---------------------------------------------------------------------------
# the per-degree formula

def complex_avoiding(mcc: MonoidalComplex, b) -> Optional[MonoidalComplex]:
    """The subcomplex on the cones whose normalized monoid misses b.

    None means every cone sees b, leaving the empty subcomplex (the zero
    ring).  Removing an up-closed set keeps the rest a fan.
    """
    return _avoiding(mcc, star(mcc, b))


def _avoiding(mcc: MonoidalComplex, st: Star) -> Optional[MonoidalComplex]:
    """complex_avoiding for a star already taken; the complex keeps one
    remainder per star, since it depends on the star's cones alone."""
    if st.keys not in mcc._remainders:
        fan = mcc.fan
        out = set(st.keys)
        rest = tuple(c for c in fan.cones if c.key not in out)
        mcc._remainders[st.keys] = (
            restrict(mcc, Fan(fan.ambient_dim, rest)) if rest else None)
    return mcc._remainders[st.keys]


@record
class DegreeStep:
    """One splitting level of the per-degree formula.

    The cohomology of the current complex is the summand carried by the
    star of -a plus the cohomology of the subcomplex on the remaining
    cone keys; an empty remainder ends the computation.
    """

    star_keys: tuple
    summand: CohomologyTable
    remaining: tuple


@record
class DegreeComputation:
    degree: tuple
    characteristic: object
    table: CohomologyTable
    steps: tuple                           # DegreeStep per splitting level
    oracle_tail: Optional[CohomologyTable]  # set when the tail was delegated


def _oracle(mcc: MonoidalComplex, a, characteristic) -> CohomologyTable:
    from .cech import cech_degree
    t = cech_degree(mcc, a, characteristic)
    return CohomologyTable(t.characteristic, t.entries, t.corrections,
                           "oracle-computed")


def local_cohomology_trace(mcc: MonoidalComplex, a,
                           characteristic) -> DegreeComputation:
    """Dimensions of H^i_m(R)_a, keeping the split that produced them.

    The summand carried by the star of -a splits off; a seminormal
    complex stops there, any other adds the cohomology of the subcomplex
    away from the star.  That subcomplex has an empty star at -a (the
    star holds every cone above the carrier of -a whose group holds -a),
    so one split is all the formula gives: a seminormal remainder adds a
    zero step, any other goes to the Cech oracle, labeled as such, as
    does a non-seminormal complex whose own star is empty.
    """
    characteristic = check_characteristic(characteristic)
    a = vec(a)
    st = star(mcc, vneg(a))
    if not (mcc.seminormal or st.cones):
        tail = _oracle(mcc, a, characteristic)
        return DegreeComputation(a, characteristic, tail, (), tail)
    summand = star_table(mcc.fan, st, characteristic)
    rest = None if mcc.seminormal else _avoiding(mcc, st)
    if rest is None:
        return DegreeComputation(a, characteristic, summand,
                                 (DegreeStep(st.keys, summand, ()),), None)
    step = DegreeStep(st.keys, summand, tuple(c.key for c in rest.fan.cones))
    if rest.seminormal:
        # the remainder's empty star carries the zero summand
        zero = DegreeStep((), zero_table(characteristic), ())
        return DegreeComputation(a, characteristic, summand, (step, zero),
                                 None)
    tail = _oracle(rest, a, characteristic)
    return DegreeComputation(a, characteristic, table_add(summand, tail),
                             (step,), tail)


def local_cohomology_degree(mcc: MonoidalComplex, a,
                            characteristic) -> CohomologyTable:
    """Dimensions of H^i_m(R)_a for the ring of the complex."""
    return local_cohomology_trace(mcc, a, characteristic).table


# ---------------------------------------------------------------------------
# star classes: a finite decomposition of all degrees

@record
class StarClass:
    """All degrees in one coset of K_C inside the relative interior of C.

    Every degree of the class has the same star, so one table per class
    covers all of Z^d once every carrier cone is enumerated.  The class
    with carrier None stands for the degrees outside the fan's support.
    """

    carrier: Optional[Cone]
    coset_rep: Optional[tuple]
    star: Optional[Star]
    class_lattice: Optional[LatticeBasis]
    class_count_within_carrier: int


def star_classes(mcc: MonoidalComplex) -> tuple:
    """StarClass decomposition of Z^d, one entry per coset per carrier.

    For each cone C the lattice K_C is Z M_C: degrees of Z^d inside
    relint C that agree mod Z M_C have equal stars, since Z M_C lies in
    Z M_D for every cone D above C.  Each coset of K_C in lin C is pushed
    into relint C along a multiple `step` of an interior point that lies
    in K_C, and its star is taken once there, by `_star_at`: the zero
    coset's point lies in K_C, so its star is C's whole up-set, and any
    other coset's is found by a scan of the up-set.
    """
    fan = mcc.fan
    out = []
    for c in fan.cones:
        K = mcc.monoids[c.key].group
        quotient = quotient_invariants(K, c.lin_basis)
        step = vscale(math.lcm(*quotient.divisors), c.interior_point())
        for rep in sorted(quotient.representatives()):
            # the least t >= 0 with t*f(step) > -f(rep) on every facet f
            t = max([-dot(f, rep) // dot(f, step) + 1 for f in c.facets] + [0])
            b = vadd(rep, vscale(t, step))
            assert relint_contains(c, b)
            out.append(StarClass(c, b, _star_at(mcc, c, b), K, quotient.index))
    out.append(StarClass(None, None, None, None, 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# global reports

@record
class ClassReport:
    star_class: StarClass
    table: CohomologyTable   # H^i_m(R)_a for every a with -a in the class
    note: str = ""


@record
class CohomologyReport:
    characteristic: object
    fan_dim: int
    entries: tuple   # ClassReport, classes in canonical order


def cohomology_report(mcc: MonoidalComplex, characteristic) -> CohomologyReport:
    """One table per star class, covering every degree of Z^d at once.

    The complex keeps its star classes and the fan its star tables, so a
    second report, or a depth after this one, rebuilds neither.
    """
    characteristic = check_characteristic(characteristic)
    if not mcc.seminormal:
        raise ComplexError(
            "cohomology_report requires a seminormal complex; use "
            "local_cohomology_degree for per-degree answers")
    if mcc._star_classes is None:
        mcc._star_classes = star_classes(mcc)
    entries = []
    for sc in mcc._star_classes:
        if sc.carrier is None:
            entries.append(ClassReport(
                sc, zero_table(characteristic),
                "vanishes: -a outside the support of the complex"))
            continue
        entries.append(ClassReport(
            sc, star_table(mcc.fan, sc.star, characteristic)))
    return CohomologyReport(characteristic, mcc.fan.dim, tuple(entries))


def _vanishes_below(table: CohomologyTable, top: int) -> bool:
    rows = [table.entries] + [ent for _, ent in table.corrections]
    return not any(i < top and d for ent in rows for i, d in ent)


def is_cohen_macaulay(mcc: MonoidalComplex, characteristic) -> bool:
    """CM over the field(s): H^i_m vanishes below the fan dimension."""
    return depth(mcc, characteristic).is_CM


@record
class DepthResult:
    depth: int
    is_CM: bool
    m_k: int
    skeleton_CM_flags: tuple   # CM flag of the t-skeleton complex, t = 0..dim


def depth(mcc: MonoidalComplex, characteristic) -> DepthResult:
    """Depth by rank selection: the largest t with all skeleta up to t CM.

    The t-skeleton's stars are the stars of the classes whose carrier has
    dimension <= t, with the cones of dimension > t cut away.  The cut
    leaves H^i for i < t unchanged, and a class whose carrier has
    dimension > t has no cones, so no cohomology, below t.  So the
    t-skeleton is CM exactly when no table of one report has cohomology
    below t.
    """
    characteristic = check_characteristic(characteristic)
    if not mcc.seminormal:
        raise ComplexError("depth requires a seminormal complex")
    top = mcc.fan.dim
    report = cohomology_report(mcc, characteristic)
    flags = [all(_vanishes_below(e.table, t) for e in report.entries)
             for t in range(top + 1)]
    assert flags[0]
    m_k = flags.index(False) - 1 if False in flags else top
    return DepthResult(m_k, m_k == top, m_k, tuple(flags))


# ---------------------------------------------------------------------------
# per-face counts for a single monoid

@record
class FaceDepthResult:
    c_k: int   # largest t with k[M cap F] CM for every face of dim <= t
    m_k: int   # rank-selection depth of the face-poset complex of M


def c_k_monoid(M: AffineMonoid, characteristic) -> FaceDepthResult:
    """Largest face dimension below which all face rings are CM.

    One complex is built on M's cone; the ring of a face is its
    restriction to that face's faces, whose monoids are M's restrictions.
    """
    characteristic = check_characteristic(characteristic)
    if not M.flags.seminormal:
        raise ValueError("c_k is defined here for seminormal monoids only")
    whole = build_complex(fan_build([M.cone]), {M.cone.key: M.generators})
    fan = whole.fan
    res = {f: depth(restrict(whole, Fan(fan.ambient_dim, fan.faces_of(f))),
                    characteristic) for f in fan.cones}
    top = M.cone.dim
    all_cm = [all(r.is_CM for f, r in res.items() if f.dim == t)
              for t in range(top + 1)]
    assert all_cm[0]
    c_k = all_cm.index(False) - 1 if False in all_cm else top
    m_k = res[M.cone].m_k
    assert m_k >= c_k
    return FaceDepthResult(c_k, m_k)


# ---------------------------------------------------------------------------
# the simplicial comparison for Stanley complexes

@record
class BbrEntry:
    cone_key: tuple
    cellular: CohomologyTable     # H^i via the star cochain complex
    simplicial: CohomologyTable   # H^i via the order complex, same indexing


@record
class BbrReport:
    characteristic: object
    entries: tuple


def _is_stanley(mcc: MonoidalComplex) -> bool:
    """Every monoid normal and saturated: M_F = M_C ∩ F passes both to faces."""
    return all(mcc.monoids[c.key].flags.normal
               and lattice_equal(mcc.monoids[c.key].group, c.lin_basis)
               for c in map(mcc.fan.by_key, mcc.fan.maximal))


def _order_complex_cochain(fan: Fan, verts) -> tuple:
    """Reduced simplicial cochain data of the chain complex of a poset."""
    verts = sorted(verts, key=lambda c: (c.dim, c.rays))
    chains = {-1: [()]}

    def grow(prefix, start):
        q = len(prefix) - 1
        chains.setdefault(q, []).append(tuple(v.key for v in prefix))
        for i in range(start, len(verts)):
            # verts[i] comes after prefix[-1], so in its up-set means above it
            if not prefix or verts[i] in fan.up_set(prefix[-1]):
                grow(prefix + [verts[i]], i + 1)

    for i in range(len(verts)):
        grow([verts[i]], i + 1)

    sizes = {q: len(v) for q, v in chains.items()}
    mats = {}
    for q in sorted(chains):
        if q + 1 not in chains:
            continue
        rows = chains[q + 1]
        cols = {ch: i for i, ch in enumerate(chains[q])}
        M = [[0] * len(cols) for _ in rows]
        for r, ch in enumerate(rows):
            for i in range(len(ch)):
                sub = ch[:i] + ch[i + 1:]
                M[r][cols[sub]] += (-1) ** i
        mats[q] = M
    return sizes, mats


def bbr_formula(mcc: MonoidalComplex, characteristic) -> BbrReport:
    """Order-complex specialization for Stanley complexes, per cone.

    For each cone the star cochain table and the reduced cohomology of the
    order complex of the open star agree after an index shift by the cone
    dimension; both are reported and the agreement is asserted, as is
    consistency with the star-class report.
    """
    characteristic = check_characteristic(characteristic)
    if not _is_stanley(mcc):
        raise ValueError("bbr_formula requires a Stanley complex "
                         "(every monoid the full lattice part of its cone)")
    report = cohomology_report(mcc, characteristic)
    by_carrier = {e.star_class.carrier.key: e for e in report.entries
                  if e.star_class.carrier is not None}
    entries = []
    for c in mcc.fan.cones:
        ups = mcc.fan.up_set(c)
        cellular = table_from_cochain(*cochain(ups), characteristic)
        verts = [d_ for d_ in ups if d_.key != c.key]
        ssizes, smats = _order_complex_cochain(mcc.fan, verts)
        simplicial = table_shift(
            table_from_cochain(ssizes, smats, characteristic), c.dim + 1)
        assert cellular.same_dims(simplicial), (c.key, cellular, simplicial)
        cls = by_carrier[c.key]
        assert cls.star_class.class_count_within_carrier == 1
        assert cls.table.same_dims(cellular)
        entries.append(BbrEntry(c.key, cellular, simplicial))
    return BbrReport(characteristic, tuple(entries))
