"""Monoidal complexes on fans.

A monoidal complex attaches an affine monoid to every cone of a fan so that
the monoid of a face is exactly the restriction of the monoid of any cone
containing it.  Validation checks this generator-wise in both directions,
for each face against every maximal cone above it, which implies the rest.
The module also computes the graded support, cone-wise seminormalization,
and a bounded presentation of the associated ring as a quotient of a
polynomial ring: squarefree monomials whose variable support fits in no
single maximal cone, plus per-maximal-cone binomials.  Both are relations
u ~ v, with v = 0 (None) for a monomial, kept on one list that is chosen,
interreduced and verified by congruence closure against the graded
dimension.
"""

from __future__ import annotations

from math import comb
from typing import Optional

from .lattice import combine, vadd
from .monoid import (
    lattice_monoid,
    monoid_build,
    monoid_face_gens,
    monoid_member,
    seminormalized_monoid,
)
from .polyhedral import Fan
from .record import record


class ComplexError(ValueError):
    pass


class MonoidalComplex:
    """A fan with an affine monoid on each cone, each face's monoid the
    restriction of its parents'.

    seminormal and normal_monoids are read once, at construction, from the
    monoids of the maximal cones alone: a face F of C has M_F = M_C ∩ F,
    so a face of a seminormal (normal) monoid is seminormal (normal).  A
    face monoid's own flags are decided when something asks for them.
    """

    def __init__(self, fan: Fan, monoids: dict):
        self.fan = fan
        self.monoids = monoids   # cone key -> AffineMonoid
        # cohomology.star_classes of this complex, kept by its first report
        self._star_classes: Optional[tuple] = None
        # star keys -> the subcomplex away from that star (or None), kept by
        # cohomology.complex_avoiding
        self._remainders: dict = {}
        # the oracle's dead-pair index, kept by cech._dead_pairs, and its
        # tables of a normal complex by accepted pairs, kept by cech_degree
        self._pass_index: Optional[tuple] = None
        self._tables: dict = {}
        # whether every cone monoid is seminormal (normal), read from the
        # maximal monoids once, so no query pays for a decision
        flags = [monoids[k].flags for k in fan.maximal]
        self.seminormal = all(f.seminormal for f in flags)
        self.normal_monoids = all(f.normal for f in flags)

    @property
    def ambient_dim(self) -> int:
        return self.fan.ambient_dim


def _validate(fan: Fan, monoids: dict) -> None:
    """Check M_F = M_P ∩ F for each face F of each maximal cone P.  A cone
    c lies in a maximal P, (P, c) gives M_c = M_P ∩ c, so M_c ∩ F = M_P ∩ F
    for a face F of c, which (P, F) checks."""
    for c in map(fan.by_key, fan.maximal):
        Mc = monoids[c.key]
        for d_ in fan.faces_of(c):
            if d_.key == c.key:
                continue
            Md = monoids[d_.key]
            gens = monoid_face_gens(Mc, d_)
            if gens == Md.generators:
                continue  # each side's generators lie in the other trivially
            restr = monoid_build(gens, Mc.ambient_dim, d_)
            for g in restr.generators:
                if monoid_member(Md, g) is None:
                    raise ComplexError(
                        f"face {d_.key} of {c.key}: restricted generator {g} "
                        f"is missing from the face monoid"
                    )
            for g in Md.generators:
                if monoid_member(restr, g) is None:
                    raise ComplexError(
                        f"face {d_.key} of {c.key}: face generator {g} is not "
                        f"generated by the restriction"
                    )


def build_complex(fan: Fan, maximal_monoid_gens: Optional[dict] = None,
                  stanley: bool = False) -> MonoidalComplex:
    """Assemble and fully validate a monoidal complex.

    Each maximal cone gets one monoid: with stanley, the full lattice part
    of the cone; without, the monoid of its generator list (keyed by the
    cone's ray tuple).  The faces come from _assemble, as restrictions.
    """
    d = fan.ambient_dim
    maximal = {}
    if stanley:
        for key in fan.maximal:
            maximal[key] = lattice_monoid(fan.by_key(key))
    else:
        if maximal_monoid_gens is None:
            raise ComplexError("generator lists required when stanley is off")
        given = {tuple(k): v for k, v in maximal_monoid_gens.items()}
        if set(given) != set(fan.maximal):
            raise ComplexError(
                f"generator lists must be keyed by the maximal cones "
                f"{sorted(fan.maximal)}, got {sorted(given)}"
            )
        for key, gens in given.items():
            try:
                maximal[key] = monoid_build(gens, d, fan.by_key(key))
            except ValueError:
                # report the cone the generators do span
                spanned = monoid_build(gens, d).cone
                raise ComplexError(
                    f"generators {tuple(gens)} span cone {spanned.key}, "
                    f"expected {key}"
                ) from None
    return _assemble(fan, maximal)


def _assemble(fan: Fan, maximal: dict) -> MonoidalComplex:
    """The complex on the fan with the given maximal monoids.

    Each face monoid is the restriction of its least maximal parent's and
    is cross-checked against all parents.  It shares that parent's
    membership memo: for v in the face F, the search for v in M_C never
    leaves F (x - g in C with x in F forces g in F), and the face's
    generators are the parent's on F in the same order, so each entry
    the face reads is its own answer.  A face of a normal monoid is
    normal, so it takes its parent's flags unchecked.
    """
    d = fan.ambient_dim
    monoids = dict(maximal)
    parents = {}
    for c in fan.cones:
        if c.key in maximal:
            continue
        parent = maximal[min(u.key for u in fan.maximal_above(c))]
        M = monoid_build(monoid_face_gens(parent, c), d, c)
        object.__setattr__(M, "_member_memo", parent._member_memo)
        monoids[c.key] = M
        parents[c.key] = parent
    _validate(fan, monoids)
    for key, parent in parents.items():
        if parent.flags.normal:
            monoids[key].__dict__["flags"] = parent.flags  # the cached slot
    return MonoidalComplex(fan, monoids)


def restrict(mcc: MonoidalComplex, subfan: Fan) -> MonoidalComplex:
    """The induced complex on a subfan; monoids are shared, not copied."""
    for c in subfan.cones:
        if c.key not in mcc.monoids:
            raise ComplexError(f"cone {c.key} is not part of the complex")
    return MonoidalComplex(subfan, {c.key: mcc.monoids[c.key]
                                    for c in subfan.cones})


@record
class SupportPoint:
    point: tuple
    carrier: tuple   # keys of the cones whose monoid contains the point

    @property
    def value(self) -> int:
        return 1 if self.carrier else 0


def graded_dim(mcc: MonoidalComplex, a) -> SupportPoint:
    """a lies in M_C exactly when C contains the carrier of a and a lies in
    the carrier's monoid, the restriction of M_C to that face."""
    a = tuple(int(x) for x in a)
    home = mcc.fan.carrier(a)
    if home is None or monoid_member(mcc.monoids[home.key], a) is None:
        return SupportPoint(a, ())
    return SupportPoint(a, tuple(c.key for c in mcc.fan.up_set(home)))


def seminormalize_complex(mcc: MonoidalComplex) -> MonoidalComplex:
    """Cone-wise seminormalization, re-validated as a complex.

    Only the maximal monoids are seminormalized.  Each face is restricted
    from them, which gives the face's own seminormalization: the face-
    lattice union formula of a face F of C reads only the faces of F.
    """
    out = _assemble(mcc.fan, {k: seminormalized_monoid(mcc.monoids[k])
                              for k in mcc.fan.maximal})
    if not out.seminormal:
        raise RuntimeError("seminormalization certificate failed: the "
                           "seminormalized complex is not seminormal")
    return out


# ---------------------------------------------------------------------------
# presentation ideals

@record
class PresentationIdeal:
    variables: tuple      # chosen generators of the support, lex-sorted
    monomial_gens: tuple  # squarefree exponent tuples
    binomial_gens: tuple  # (u, v, maximal cone key), u the higher term
    degree_bound: int


def _exponent_tuples(n, bound):
    if n == 0:
        return [()]
    out = []
    for rest in _exponent_tuples(n - 1, bound):
        s = sum(rest)
        for t in range(bound - s + 1):
            out.append(rest + (t,))
    return out


_ZERO = "zero"


def _find(parent, x):
    root = x
    while parent.get(root, root) != root:
        root = parent[root]
    while parent.get(x, x) != x:
        parent[x], x = root, parent[x]
    return root


def _union(parent, a, b):
    """Join two classes under the smaller root; zero is smallest of all."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return
    if rb == _ZERO or (ra != _ZERO and ra > rb):
        parent[ra] = rb
    else:
        parent[rb] = ra


def _link(parent, monomials, u, v=None):
    """Join w+u to w+v, or to zero when v is None, for every w keeping both
    in the truncation.  monomials holds every exponent tuple of total degree
    at most the bound, sorted by total degree, so those w are a prefix."""
    room = sum(monomials[-1]) - max(sum(u), sum(v or ()))
    for w in monomials[:comb(len(u) + room, room) if room >= 0 else 0]:
        _union(parent, vadd(w, u), _ZERO if v is None else vadd(w, v))


def _closure(monomials, relations):
    """Congruence closure of the relations (u, v), v None for u ~ 0, on the
    truncated set: its edges are fixed, so one union-find pass over them
    gives the classes, each rooted at its least monomial or at zero."""
    parent = {}
    for u, v in relations:
        _link(parent, monomials, u, v)
    return parent


def presentation(mcc: MonoidalComplex, degree_bound: int) -> PresentationIdeal:
    """Bounded presentation of the ring, verified by congruence closure.

    Monomial part: minimal squarefree monomials whose variable support lies
    in no single maximal cone.  Binomial part: equal-evaluation pairs within
    a maximal cone, chosen degree-by-degree.  Both parts are interreduced
    (a generator implied by the others is dropped), then a fresh closure
    of the survivors is checked to send exactly the monomials in no single
    maximal cone to zero and to give one class per achieved multidegree.
    That one is the graded dimension there, certified once per (maximal
    cone k, variable of cone k) by the variable's membership in M_k.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    variables = tuple(sorted({g for k in mcc.fan.maximal
                              for g in mcc.monoids[k].generators}))
    n = len(variables)
    if n > 16:
        raise ComplexError(
            f"presentation is limited to 16 generators, the complex has {n}")
    supports = {k: frozenset(i for i in range(n)
                             if mcc.fan.by_key(k).contains(variables[i]))
                for k in mcc.fan.maximal}

    def in_one_cone(e):
        supp = {i for i, t in enumerate(e) if t}
        return any(supp <= s for s in supports.values())

    for i in range(n):
        assert in_one_cone(tuple(int(j == i) for j in range(n)))

    # the minimal nonfaces are the minimal sets meeting the complement of
    # every support, grown one maximal cone at a time (Berge's step)
    nonfaces = {frozenset()}
    for s in supports.values():
        out = set(range(n)) - s
        grown = {t for t in nonfaces if t & out}
        grown |= {t | {i} for t in nonfaces - grown for i in out}
        nonfaces = {t for t in grown if not any(u < t for u in grown)}
    relations = [(tuple(int(i in t) for i in range(n)), None)
                 for t in sorted(nonfaces, key=lambda t: (len(t), sorted(t)))]

    monomials = sorted(_exponent_tuples(n, degree_bound),
                       key=lambda e: (sum(e), e))

    # each nonzero monomial past the constant one, with its multidegree
    evals = {m: combine(m, variables, mcc.ambient_dim)
             for m in monomials[1:] if in_one_cone(m)}
    groups = {}
    for m, ev in evals.items():
        groups.setdefault(ev, []).append(m)

    parent = _closure(monomials, relations)
    for ev in sorted(groups, key=lambda ev: (sum(groups[ev][0]), groups[ev][0])):
        members = groups[ev]
        rep = members[0]
        for m in members[1:]:
            if _find(parent, m) != _find(parent, rep):
                relations.append((m, rep))
                _link(parent, monomials, m, rep)

    # interreduce, highest degree first, binomials before monomials of
    # one degree: drop a relation when the others derive it and still
    # give every class of the truncation, as the multiples of a derived
    # relation may need monomials past the bound.  A monomial past the
    # bound is never derived, so it stays.  Each root is the least member
    # of its class, so equal roots mean equal classes.
    roots = [_find(parent, m) for m in monomials]
    for u, v in sorted(relations, reverse=True,
                       key=lambda r: (sum(r[0]), r[1] is not None, r[0],
                                      r[1] or ())):
        trial = [r for r in relations if r != (u, v)]
        par = _closure(monomials, trial)
        if (_find(par, u) == (_ZERO if v is None else _find(par, v))
                and all(_find(par, m) == r for m, r in zip(monomials, roots))):
            relations = trial

    # verification against the graded dimension, which is 1 at every
    # multidegree a nonzero monomial reaches: such a monomial has its
    # support in supports[k] for a maximal k, and once each of those
    # variables lies in M_k its multidegree ev is a sum of elements of M_k.
    # The carrier F of ev is a face of k, and _validate checks
    # M_F = M_k ∩ F, so ev lies in M_F and graded_dim(ev) is 1.
    for k, s in supports.items():
        for i in sorted(s):
            if monoid_member(mcc.monoids[k], variables[i]) is None:
                raise RuntimeError(
                    f"presentation verification failed: variable "
                    f"{variables[i]} lies in cone {k} but not in its monoid")
    parent = _closure(monomials, relations)
    class_of = {}
    for m in monomials[1:]:   # past the constant monomial
        root, zero = _find(parent, m), m not in evals
        if (root == _ZERO) != zero:
            raise RuntimeError(
                f"presentation verification failed: "
                f"{'zero' if zero else 'nonzero'} monomial {m} "
                f"{'not ' if zero else ''}derived to zero")
        if not zero:
            class_of.setdefault(evals[m], set()).add(root)
    for ev, roots in sorted(class_of.items()):
        if len(roots) != 1:
            raise RuntimeError(
                f"presentation verification failed at multidegree {ev}: "
                f"{len(roots)} classes, graded dimension 1"
            )

    binomials = []
    for u, v in relations:
        if v is not None:
            supp = {i for i in range(n) if u[i] or v[i]}
            binomials.append((u, v, next(k for k, s in supports.items()
                                         if supp <= s)))
    return PresentationIdeal(
        variables,
        tuple(sorted((u for u, v in relations if v is None),
                     key=lambda e: (sum(e), e))),
        tuple(sorted(binomials, key=lambda t: (sum(t[0]), t[0], t[1]))),
        degree_bound)
