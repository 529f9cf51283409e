"""Affine monoid engine.

Membership with certificates, normalization through Hilbert bases of
triangulated cones, seminormalization by the face-lattice union formula,
and the normality/seminormality decision procedures.  All monoids here are
positive: the cone they span must be pointed.

Every search is bounded through an integral grading functional that is
strictly positive on the cone minus the origin, so dynamic programming over
its value terminates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from math import gcd
from typing import Optional

from .lattice import (
    LatticeBasis,
    combine,
    content,
    dot,
    is_zero,
    lattice_from_rows,
    primitive,
    quotient_invariants,
    rational_coords,
    vadd,
    vec,
    vscale,
    vsub,
)
from .polyhedral import (Cone, cone_build, face_at, face_lattice, fan_build,
                         orientation_basis, side)
from .record import record


class BoundTooSmallError(ValueError):
    def __init__(self, element, bound):
        self.element = element
        self.bound = bound
        super().__init__(
            f"bound too small: element {element} is not generated within degree {bound}"
        )


@record
class AffineMonoid:
    """A finitely generated positive submonoid of Z^d."""

    ambient_dim: int
    generators: tuple     # deduplicated, lex-sorted, nonzero
    cone: Cone            # R+ M
    group: LatticeBasis   # Z M
    grading: tuple        # integral functional, >= 1 on every generator

    def __post_init__(self):
        object.__setattr__(self, "_member_memo", {})
        # for cech: face key -> (phi, phi-positive gens); the cone's dead pairs
        object.__setattr__(self, "_face_weights", {})
        object.__setattr__(self, "_refusals", [])

    def degree(self, v) -> int:
        return dot(self.grading, v)

    @cached_property
    def hilbert_data(self) -> tuple:
        """(Hilbert basis of cone ∩ group, max candidate degree), computed once."""
        return _hilbert_data(self.cone, self.group)

    @cached_property
    def flags(self) -> NormalityCheck:
        """Seminormality and normality of the monoid, decided once."""
        return check_seminormal_normal(self)

    @cached_property
    def _seminormalization(self) -> SeminormalizationResult:
        # the default-bound seminormalize, computed once for flags and
        # seminormalized_monoid alike
        return seminormalize(self)


def monoid_build(generators, ambient_dim: Optional[int] = None,
                 cone: Optional[Cone] = None) -> AffineMonoid:
    """The monoid the generators span, on `cone` when the caller has it.

    A given cone is checked, not rebuilt: every generator lies in it and
    every extreme ray is a positive multiple of some generator, which holds
    exactly when the generators span it.
    """
    gens_in = [vec(g) for g in generators]
    if ambient_dim is None:
        if not gens_in:
            raise ValueError("ambient dimension required for an empty generator list")
        ambient_dim = len(gens_in[0])
    if any(len(g) != ambient_dim for g in gens_in):
        raise ValueError("generators of mixed dimension")
    gens = tuple(sorted({g for g in gens_in if not is_zero(g)}))
    if cone is None:
        cone = cone_build(gens, ambient_dim)  # raises if not pointed
        fan_build([cone])  # certifies the cone
    else:
        outside = next((g for g in gens if not cone.contains(g)), None)
        if outside is not None:
            raise ValueError(f"generator {outside} lies outside the cone {cone.rays}")
        on_rays = {primitive(g) for g in gens}
        missed = next((r for r in cone.rays if r not in on_rays), None)
        if missed is not None:
            raise ValueError(f"no generator lies on the extreme ray {missed}")
    group = lattice_from_rows(ambient_dim, [list(g) for g in gens])
    for g in gens:
        assert dot(cone.grading, g) >= 1
        assert group.contains(g)
    return AffineMonoid(ambient_dim, gens, cone, group, cone.grading)


def lattice_monoid(cone: Cone) -> AffineMonoid:
    """The monoid of all lattice points of the cone, e.g. of a Stanley complex.

    Its Hilbert data is computed once, from the cone's saturated span,
    which is the monoid's group, and kept on the monoid; it is normal by
    construction.
    """
    data = _hilbert_data(cone, cone.lin_basis)
    M = monoid_build(data[0], cone.ambient_dim, cone)
    assert all(M.group.contains(b) for b in cone.lin_basis.basis)
    M.__dict__["hilbert_data"] = data  # the cached_properties' slots
    M.__dict__["flags"] = NormalityCheck(True, True, None)
    return M


def monoid_member(M: AffineMonoid, v) -> Optional[tuple]:
    """Coefficients expressing v over M's generators, or None.

    Dynamic programming descending in the grading; complete because every
    generator has degree >= 1, so coefficients are bounded by the degree
    of v.
    """
    v = vec(v)
    if len(v) != M.ambient_dim:
        raise ValueError("vector dimension mismatch")
    if is_zero(v):
        return (0,) * len(M.generators)
    # the cheap cone test rules out most candidates before the group test
    if not M.cone._holds(v) or not M.group.contains(v):
        return None
    memo = M._member_memo
    gens = M.generators
    facets = M.cone.facets

    def in_cone(x):
        # x is v minus generators, so in the group and in lin C: the
        # facet inequalities alone decide whether it lies in the cone
        return all(dot(f, x) >= 0 for f in facets)

    # memo[x] is the first generator g in order with x - g in M, or False.
    # Depth first on an explicit stack of [x, index of the generator
    # tried], so no query is too deep; a frame whose child has finished
    # reads the child's answer from memo on its next turn.
    stack = [] if v in memo else [[v, 0]]
    while stack:
        frame = stack[-1]
        x, i = frame
        if i == len(gens):
            memo[x] = False
            stack.pop()
            continue
        y = vsub(x, gens[i])
        ok = in_cone(y) and (is_zero(y) or memo.get(y))
        if ok is None:
            stack.append([y, 0])
        elif ok is False:
            frame[1] = i + 1
        else:
            memo[x] = gens[i]
            stack.pop()
    if memo[v] is False:
        return None
    counts = {g: 0 for g in gens}
    x = v
    while not is_zero(x):
        g = memo[x]
        counts[g] += 1
        x = vsub(x, g)
    coeffs = tuple(counts[g] for g in M.generators)
    assert combine(coeffs, M.generators, M.ambient_dim) == v
    return coeffs


def generated_points(gens, grading, bound, ambient_dim):
    """All sums of the generators with grading value <= bound, including 0."""
    zero = (0,) * ambient_dim
    seen = {zero}
    frontier = [zero]
    degs = [(g, dot(grading, g)) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            room = bound - dot(grading, x)
            for g, dg in degs:
                if dg > room:
                    continue
                y = vadd(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# Hilbert bases

def triangulate_cone(cone: Cone):
    """Placing triangulation over the primitive rays in lexicographic order
    (De Loera-Rambau-Santos, Triangulations, §4.3).

    Returns maximal simplicial subcones as tuples of rays, each in placing
    order.  A ray outside the span of the placed ones, the next ray of
    orientation_basis, extends every simplex.  A ray v inside it, which
    the first k rays of that basis span, is joined to each boundary facet
    f that it sees: v and the ray opposite f lie on opposite sides of
    lin f, which two `side` signs on the span tell.
    """
    rays = cone.rays
    if not rays:
        return []
    basis = orientation_basis(cone)
    simplices = [(rays[0],)]
    for v in rays[1:]:
        if v in basis:
            simplices = [s + (v,) for s in simplices]
            continue
        k = len(simplices[0])
        span = basis[:k]
        # a simplex lists its rays in placing order, and so do its facets
        facets = [(f, s) for s in simplices
                  for f in itertools.combinations(s, k - 1)]
        count = Counter(f for f, _ in facets)
        for f, s in facets:
            opp = next(r for r in s if r not in f)
            if (count[f] == 1
                    and side(span, [opp, *f]) * side(span, [v, *f]) < 0):
                simplices.append(f + (v,))
    for s in simplices:
        assert len(s) == cone.dim and side(basis, s) != 0
    return simplices


def minimal_ray_point(ray, lattice: LatticeBasis):
    """The smallest positive multiple of the ray lying in the lattice."""
    coords = rational_coords(lattice, ray)
    assert coords is not None, "lattice misses the ray"
    # den * ray = sum c_i b_i, so t * ray lies in the lattice iff den | t * c_i
    # for every i, i.e. iff den / gcd(den, content(c)) divides t
    c, den = coords
    return vscale(den // gcd(den, content(c)), vec(ray))


def parallelepiped_points(simplex_points, lattice: LatticeBasis, ambient_dim):
    """Lattice points of {sum q_i s_i : 0 <= q_i < 1}, including the origin,
    for k independent simplex points of a lattice of rank k: one point per
    coset of the simplex lattice."""
    spts = [vec(s) for s in simplex_points]
    if lattice.rank != len(spts):
        raise ValueError(f"a lattice of rank {lattice.rank} for "
                         f"{len(spts)} simplex points")
    simplex = LatticeBasis(ambient_dim, tuple(spts))
    # one point per coset of the simplex lattice, moved into the half-open
    # parallelepiped by the floors of its coordinates over the simplex
    reps = quotient_invariants(simplex, lattice).representatives()
    out = set()
    for z in reps:
        c, den = rational_coords(simplex, z)
        z = vsub(z, combine([ci // den for ci in c], spts, ambient_dim))
        c, den = rational_coords(simplex, z)
        assert all(0 <= ci < den for ci in c)
        out.add(z)
    assert len(out) == len(reps)  # one point per coset: the index
    return out


def _simplex_lattice_points(spts, ppts, ell, bound):
    """All points p + sum n_i s_i with grading value <= bound."""
    degs = [dot(ell, s) for s in spts]
    assert all(dg >= 1 for dg in degs)
    out = set()

    def rec(i, acc, rem):
        if i == len(spts):
            out.add(acc)
            return
        t = 0
        cur = acc
        while t * degs[i] <= rem:
            rec(i + 1, cur, rem - t * degs[i])
            t += 1
            cur = vadd(cur, spts[i])

    for p in ppts:
        room = bound - dot(ell, p)
        if room >= 0:
            rec(0, vec(p), room)
    return out


def _irreducible(points, member):
    """The sorted points z with no other point c where member(z - c)."""
    return tuple(sorted(z for z in points if not any(
        c != z and member(vsub(z, c)) for c in points)))


def _hilbert_data(cone: Cone, lattice: LatticeBasis):
    """(sorted Hilbert basis of cone ∩ lattice, max candidate degree)."""
    if cone.dim == 0:
        return (), 0
    d = cone.ambient_dim
    ell = cone.grading
    mins = {r: minimal_ray_point(r, lattice) for r in cone.rays}
    simplices = triangulate_cone(cone)
    per_simplex = []
    cands = set(mins.values())
    for s in simplices:
        spts = [mins[r] for r in s]
        ppts = parallelepiped_points(spts, lattice, d)
        per_simplex.append((spts, ppts))
        cands |= ppts
    cands.discard((0,) * d)
    maxdeg = max(dot(ell, c) for c in cands)

    elems = _irreducible(cands, cone.contains)

    # generation check: the basis reaches every cone-lattice point up to
    # twice the candidate degree, by two independent enumerations
    bound = 2 * maxdeg
    pts = set()
    for spts, ppts in per_simplex:
        pts |= _simplex_lattice_points(spts, ppts, ell, bound)
    reach = generated_points(elems, ell, bound, d)
    if reach != pts:
        raise RuntimeError("Hilbert basis certificate failed: the basis "
                           "does not generate the intersection")
    return elems, maxdeg


def hilbert_basis(cone: Cone, lattice: LatticeBasis):
    return _hilbert_data(cone, lattice)[0]


@record
class HilbertBasis:
    elements: tuple


def normalization(M: AffineMonoid) -> HilbertBasis:
    """Hilbert basis of the normalization: the group points of the cone."""
    return HilbertBasis(M.hilbert_data[0])


# ---------------------------------------------------------------------------
# seminormalization

@record
class SeminormalizationResult:
    generators: tuple
    verified_bound: int
    witness: Optional[tuple]   # an element outside M, when there is one


def monoid_face_gens(M: AffineMonoid, face: Cone):
    """Generators of M lying on a face; these generate the face restriction."""
    return tuple(g for g in M.generators if face.contains(g))


def seminormalize(M: AffineMonoid, bound: Optional[int] = None) -> SeminormalizationResult:
    """Generators of the seminormalization, certified up to twice the bound."""
    if bound is not None and bound < 1:
        raise ValueError("seminormalization bound must be at least 1")
    hb, maxdeg = M.hilbert_data
    if not M.generators:
        return SeminormalizationResult((), 0, None)
    gen_deg = max(M.degree(g) for g in M.generators)
    if bound is None:
        bound = max(2 * maxdeg, gen_deg)
    ell = M.grading
    # x lies in the face-lattice union when it lies in the group of the
    # generators on its carrier, the smallest face of the cone holding it
    groups = {f.key: lattice_from_rows(M.ambient_dim,
                                       [list(g) for g in monoid_face_gens(M, f)])
              for f in face_lattice(M.cone).faces}

    big = generated_points(hb, ell, 2 * bound, M.ambient_dim)
    plus2 = sorted(x for x in big if not is_zero(x)
                   and groups[face_at(M.cone, x)].contains(x))
    plus1 = [x for x in plus2 if dot(ell, x) <= bound]

    gens_out = _irreducible(plus1, set(plus1).__contains__)

    # certification by re-decomposition up to twice the bound
    reach = generated_points(gens_out, ell, 2 * bound, M.ambient_dim)
    for x in plus2:
        if x not in reach:
            raise BoundTooSmallError(x, bound)

    witness = next((g for g in gens_out if monoid_member(M, g) is None), None)
    return SeminormalizationResult(gens_out, 2 * bound, witness)


def seminormalized_monoid(M: AffineMonoid) -> AffineMonoid:
    res = M._seminormalization
    if not res.generators:
        return M
    N = monoid_build(res.generators, M.ambient_dim, M.cone)
    if N.group.basis == M.group.basis:
        # same cone and the same (canonical HNF) group: same Hilbert data
        N.__dict__["hilbert_data"] = M.hilbert_data
    return N


@record
class NormalityCheck:
    seminormal: bool
    normal: bool
    witness: Optional[tuple]


def check_seminormal_normal(M: AffineMonoid) -> NormalityCheck:
    """Decide normality and seminormality, with a witness element when false.

    A seminormal decision, the one case a scan can contradict, is checked
    against the definition: within the search box there is no x with 2x
    and 3x in M but x outside.
    """
    hb, maxdeg = M.hilbert_data
    nwit = next((h for h in hb if monoid_member(M, h) is None), None)
    swit = M._seminormalization.witness
    seminormal = swit is None
    normal = nwit is None
    if normal and not seminormal:
        raise RuntimeError("normality certificate failed: a normal monoid "
                           "was decided not seminormal")

    scan = (generated_points(hb, M.grading, max(2 * maxdeg, 1), M.ambient_dim)
            if seminormal else ())
    for x in scan:
        if (not is_zero(x) and monoid_member(M, x) is None
                and monoid_member(M, vscale(2, x)) is not None
                and monoid_member(M, vscale(3, x)) is not None):
            raise RuntimeError("seminormality certificate failed: the "
                               "definition scan contradicts the decision")

    witness = swit if not seminormal else (nwit if not normal else None)
    return NormalityCheck(seminormal, normal, witness)
