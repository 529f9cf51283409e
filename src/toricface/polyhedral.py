"""Rational pointed cones, fans, and the cochains of a fan.

Cones are built from integer generators and carry both descriptions
(extreme rays and inward facet normals); one routine, `extreme_rays`,
finds the facet normals as the extreme rays of the dual cone.  Fans
certify each cone by its face lattice (face sets and facet count) and
check every pair of input cones for a common face.  Determinants
(`det_int`) and facet zero sets decide a cone's lines, pointedness, rays
and orientation; Smith and Hermite forms only make its lattices.  One
determinant sign, `side`, orients cones: it gives the incidence signs,
through per-cone orientation bases, and the visibility test of the
placing triangulation (monoid.triangulate_cone).  One builder makes the
cochain matrices of every cone-indexed complex in the package.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional, Sequence

from .lattice import (
    LatticeBasis,
    combine,
    det_int,
    dot,
    identity,
    is_zero,
    kernel_basis,
    lattice_from_rows,
    mat_mul,
    mat_vec,
    primitive,
    reduce_mod_lattice,
    solve_in_lattice,
    transpose,
    vec,
    vneg,
    vsub,
)
from .record import record


class ConeNotPointedError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"cone is not pointed: contains the line through {witness[0]}")


# ---------------------------------------------------------------------------
# extreme rays

def extreme_rays(rows, k: int) -> list:
    """Extreme rays of the pointed cone {y in Q^k : r·y >= 0 for every row r}.

    Each is the line cut out by k-1 independent rows, taken with the sign
    that every row is >= 0 on (Ziegler, Lectures on Polytopes, §2.1); it
    comes back as the primitive integer vector on that line, spanned by
    the signed maximal minors y_j = (-1)^j det(sub without column j) of
    the k-1 rows `sub` (Cramer's rule: r·y is det of r on top of sub, 0
    for r in sub); y = 0 exactly when they are dependent, and y = (1,) at
    k = 1.  Applied to a cone's generators it gives the facet normals of
    the cone, and applied to inequalities (generators_from_h) the rays
    they cut out, at C(m, k-1) times k determinants of order k-1 for m
    rows.  Sorted, without repeats.
    """
    out = set()
    for sub in itertools.combinations(rows, k - 1):
        y = primitive(tuple((-1) ** j * det_int([r[:j] + r[j + 1:] for r in sub])
                            for j in range(k)))
        if is_zero(y):
            continue
        signs = {dot(r, y) for r in rows}
        if min(signs, default=0) >= 0:
            out.add(y)
        elif max(signs) <= 0:
            out.add(vneg(y))
    return sorted(out)


def generators_from_h(ineqs, eqs, ambient_dim):
    """Extreme rays of the pointed cone {x : ineqs·x >= 0, eqs·x = 0}, each
    equation taken as two opposite inequalities."""
    return extreme_rays([*ineqs, *eqs, *map(vneg, eqs)], ambient_dim)


# ---------------------------------------------------------------------------
# cones

@record
class Cone:
    """A rational pointed polyhedral cone with both descriptions."""

    ambient_dim: int
    generators: tuple      # primitive, deduplicated, lex-sorted input directions
    rays: tuple            # primitive extreme rays, lex-sorted
    facets: tuple          # inward facet normals, canonical, lex-sorted
    dim: int
    lin_basis: LatticeBasis  # saturated lattice Z^d ∩ lin(C)
    equations: tuple       # rows e with lin(C) = {x : e·x = 0}

    def __post_init__(self):
        # facet key -> incidence sign, filled by facet_sign
        object.__setattr__(self, "_signs", {})
        # the FaceLattice, filled by face_lattice
        object.__setattr__(self, "_lattice", None)
        # the rays orienting the cone, filled by orientation_basis
        object.__setattr__(self, "_basis", None)
        # the sum of the facet normals: > 0 on every generator (cone_build's
        # pointedness test), so on the cone minus 0; set here, not on first
        # read, since cones with two attribute layouts slow every read
        object.__setattr__(self, "grading", combine(
            [1] * len(self.facets), self.facets, self.ambient_dim))

    @property
    def key(self):
        return self.rays

    def __eq__(self, other):
        return (isinstance(other, Cone)
                and self.ambient_dim == other.ambient_dim
                and self.rays == other.rays)

    def __hash__(self):
        return hash((self.ambient_dim, self.rays))

    def contains(self, v) -> bool:
        return self._holds(_checked(self, v))

    def _holds(self, v) -> bool:
        """contains(v) for v already an int tuple of the ambient dimension."""
        # the equations cut out lin(C), whose integer points are exactly
        # the saturated lin_basis, so no lattice solve is needed
        return (all(dot(e, v) == 0 for e in self.equations)
                and all(dot(f, v) >= 0 for f in self.facets))

    def _holds_inside(self, v) -> bool:
        """relint_contains(self, v) for v already an int tuple."""
        return (all(dot(e, v) == 0 for e in self.equations)
                and all(dot(f, v) > 0 for f in self.facets))

    def facet_sign(self, small: "Cone") -> int:
        """incidence_sign(self, small), computed once per pair of cones."""
        s = self._signs.get(small.key)
        if s is None:
            s = self._signs[small.key] = incidence_sign(self, small)
        return s

    def interior_point(self):
        """Sum of the extreme rays; lies in the relative interior."""
        return combine([1] * len(self.rays), self.rays, self.ambient_dim)


def _checked(space, v):
    """v as an int tuple, checked against space.ambient_dim (a cone or fan)."""
    v = vec(v)
    if len(v) != space.ambient_dim:
        raise ValueError("vector of wrong dimension")
    return v


def _lift_functional(lin_basis: LatticeBasis, w):
    """Integer f with f·b_i = w_i over the saturated basis rows b_i."""
    res = lin_basis.col_snf
    # U B^T V = D; with saturated rows the divisors are all 1, so
    # f = U^T (V^T w, 0) solves B f = w
    assert all(d == 1 for d in res.divisors)
    k = lin_basis.rank
    f = combine(combine(w, res.V, k), res.U[:k], lin_basis.ambient_dim)
    assert mat_vec(lin_basis.basis, f) == tuple(w)
    return f


def zero_cone(ambient_dim: int) -> Cone:
    eqs = tuple(tuple(r) for r in identity(ambient_dim))
    return Cone(ambient_dim, (), (), (), 0, LatticeBasis(ambient_dim, ()), eqs)


def cone_build(generators, ambient_dim: Optional[int] = None) -> Cone:
    """Build a pointed cone from integer generators.

    Raises ConeNotPointedError (with a witness line) for non-pointed input,
    and RuntimeError when a facet normal is negative on a generator.  The
    rays, facets and faces are certified by the face sets and the facet
    count of the cone's face lattice once a fan is built on it (fan_build);
    every cone of the package is built in one.

    The normals, the extreme rays of the (pointed) dual cone in span
    coordinates, cut out C and vanish on its lineality space L, a face of
    C that holds a generator when L != 0.  Each is >= 0 on every
    generator, so C is pointed exactly when l·g > 0 for l their sum and
    every generator g, and l·g = 0 puts -g in C.  The normals tight at g
    cut out its smallest face; every ray of a pointed cone is one
    primitive generator, so g spans a ray exactly when its tight set is
    inclusion-maximal among the generators'.
    """
    gens_in = [vec(g) for g in generators]
    if ambient_dim is None:
        if not gens_in:
            raise ValueError("ambient dimension required for an empty generator list")
        ambient_dim = len(gens_in[0])
    if any(len(g) != ambient_dim for g in gens_in):
        raise ValueError("generators of mixed dimension")
    gens = sorted({primitive(g) for g in gens_in if not is_zero(g)})
    if not gens:
        return zero_cone(ambient_dim)

    d = ambient_dim
    # the saturated span Z^d ∩ lin(C) is the kernel of the kernel
    N = kernel_basis([list(g) for g in gens], d)
    lin = LatticeBasis(d, tuple(kernel_basis(N, d)))
    dim = lin.rank
    perp = lattice_from_rows(d, N)

    # facet normals on the span's coordinates, lifted and reduced mod perp
    coords = [solve_in_lattice(lin, g) for g in gens]
    facets = sorted(reduce_mod_lattice(perp, _lift_functional(lin, w))
                    for w in extreme_rays(coords, dim))
    if any(dot(f, g) < 0 for f in facets for g in gens):
        raise RuntimeError("cone certificate failed: a facet normal is "
                           "negative on a generator")

    tight = [frozenset(f for f in facets if dot(f, g) == 0) for g in gens]
    rays = [g for g, t in zip(gens, tight) if not any(t < u for u in tight)]
    cone = Cone(d, tuple(gens), tuple(rays), tuple(facets), dim, lin,
                perp.basis)
    flat = next((g for g in gens if dot(cone.grading, g) == 0), None)
    if flat is not None:
        raise ConeNotPointedError((flat, vneg(flat)))
    return cone


def relint_contains(cone: Cone, v) -> bool:
    """Is the integer vector v in the relative interior of the cone?"""
    return cone._holds_inside(_checked(cone, v))


def face_at(cone: Cone, v) -> tuple:
    """Key of the smallest face of the cone holding v, a point of the cone:
    the rays lying on every facet tight at v."""
    tight = [f for f in cone.facets if dot(f, v) == 0]
    return tuple(r for r in cone.rays if all(dot(f, r) == 0 for f in tight))


def facets_through(cone: Cone, face: "Cone"):
    """Facet normals of `cone` that vanish on `face`."""
    return [f for f in cone.facets if all(dot(f, r) == 0 for r in face.rays)]


# ---------------------------------------------------------------------------
# face lattices

@record
class FaceLattice:
    cone: Cone
    faces: tuple     # all faces as Cones, sorted by (dim, rays)

    def dims(self):
        return tuple(f.dim for f in self.faces)

    @cached_property
    def facet_keys(self) -> tuple:
        """Keys of the faces one dimension below the cone."""
        return tuple(f.key for f in self.faces if f.dim == self.cone.dim - 1)

    @cached_property
    def on_facet(self) -> tuple:
        """Per facet normal of the cone, the keys of the faces whose rays
        it vanishes on."""
        return tuple(tuple(h.key for h in self.faces
                           if all(dot(f, r) == 0 for r in h.rays))
                     for f in self.cone.facets)


def face_lattice(cone: Cone, known: Optional[dict] = None) -> FaceLattice:
    """All faces of a pointed cone, as intersections of facet zero-sets.

    Computed once per cone and kept on it.  Faces whose key is in `known`
    are taken from there instead of being rebuilt, and every proper face
    gets its own lattice from this one: the faces lying inside it.
    """
    if cone._lattice is not None:
        return cone._lattice
    known = {} if known is None else known
    all_set = frozenset(range(len(cone.rays)))
    zeros = [frozenset(i for i in all_set if dot(f, cone.rays[i]) == 0)
             for f in cone.facets]
    found = {all_set}
    frontier = [all_set]
    while frontier:
        nxt = []
        for s in frontier:
            for z in zeros:
                t = s & z
                if t not in found:
                    found.add(t)
                    nxt.append(t)
        frontier = nxt
    faces = []
    for s in found:
        sub = tuple(cone.rays[i] for i in sorted(s))
        if s == all_set:
            face = cone
        elif sub in known:
            face = known[sub]
        else:
            face = cone_build(sub, cone.ambient_dim) if sub else zero_cone(cone.ambient_dim)
        assert face.rays == sub
        faces.append((s, face))
    faces.sort(key=lambda sf: (sf[1].dim, sf[1].rays))
    lattice = FaceLattice(cone, tuple(f for _, f in faces))
    object.__setattr__(cone, "_lattice", lattice)
    # the faces of a face are the faces of the cone lying inside it
    for s, f in faces:
        if f._lattice is None:
            object.__setattr__(f, "_lattice", FaceLattice(
                f, tuple(g for t, g in faces if t <= s)))
    return lattice


# ---------------------------------------------------------------------------
# fans

@record
class Fan:
    """A finite collection of pointed cones closed under faces."""

    ambient_dim: int
    cones: tuple          # all cones, sorted by (dim, rays)

    def __post_init__(self):
        object.__setattr__(self, "_by_key", {c.key: c for c in self.cones})
        # (star keys, characteristic) -> the star's cochain table, filled
        # by cohomology.star_table; it depends on the cones alone
        object.__setattr__(self, "_star_tables", {})
        # sign vector -> carrier, filled by carrier
        object.__setattr__(self, "_carriers", {})

    @cached_property
    def _index(self) -> tuple:
        """(faces, up-sets, maximal cones above) by cone key from the face
        lattices, in (dim, rays) order, and the maximal cones by key; faces
        outside this fan are left out, so subfans work too."""
        faces = {c.key: tuple(self._by_key[f.key] for f in face_lattice(c).faces
                              if f.key in self._by_key) for c in self.cones}
        ups: dict = {c.key: [] for c in self.cones}
        for c in self.cones:
            for f in faces[c.key]:
                ups[f.key].append(c)
        tops = {c.key for c in self.cones if len(ups[c.key]) == 1}
        above = {k: tuple(c for c in v if c.key in tops) for k, v in ups.items()}
        return (faces, {k: tuple(v) for k, v in ups.items()}, above,
                tuple(self._by_key[k] for k in sorted(tops)))

    @cached_property
    def maximal(self) -> tuple:
        """Keys (ray tuples) of the inclusion-maximal cones, sorted."""
        return tuple(c.key for c in self._index[3])

    @property
    def dim(self) -> int:
        return max((c.dim for c in self.cones), default=0)

    def by_key(self, key) -> Cone:
        return self._by_key[key]

    def cones_of_dim(self, k: int):
        return [c for c in self.cones if c.dim == k]

    def faces_of(self, cone: Cone) -> tuple:
        return self._index[0][cone.key]

    def up_set(self, cone: Cone) -> tuple:
        return self._index[1][cone.key]

    def maximal_above(self, cone: Cone) -> tuple:
        """The maximal cones of up_set(cone), in the same order."""
        return self._index[2][cone.key]

    @cached_property
    def _hyperplanes(self) -> tuple:
        """The distinct facet normals and equations of the maximal cones,
        each taken up to sign, sorted."""
        return tuple(sorted({max(h, vneg(h)) for c in self._index[3]
                             for h in (*c.facets, *c.equations)}))

    @cached_property
    def _sign_rows(self) -> tuple:
        """Per maximal cone, per facet normal and per equation taken with
        both signs: its position in _hyperplanes, its sign against that
        hyperplane, and the cone's rays on it."""
        at = {h: i for i, h in enumerate(self._hyperplanes)}
        return tuple((c, [(at[max(f, vneg(f))], 1 if f in at else -1,
                           {r for r in c.rays if dot(f, r) == 0})
                          for f in (*c.facets, *c.equations,
                                    *map(vneg, c.equations))])
                     for c in self._index[3])

    def carrier(self, v) -> Optional[Cone]:
        """The unique cone with v in its relative interior, if any.  v is
        in relint C when a maximal D above C holds v and D's facets tight
        at v are those through C, which v's signs on the _hyperplanes fix;
        so the carrier (the smallest face holding v of the first maximal
        cone holding v: its rays on every facet tight at v) is read off
        the sign vector once and kept."""
        v = _checked(self, v)
        sig = tuple([(x > 0) - (x < 0) for x in map(dot, self._hyperplanes,
                                                    itertools.repeat(v))])
        if sig not in self._carriers:
            self._carriers[sig] = next((self._by_key[tuple(
                r for r in top.rays
                if all(r in z for i, _, z in rows if not sig[i]))]
                for top, rows in self._sign_rows
                if all(s * sig[i] >= 0 for i, s, _ in rows)), None)
        c = self._carriers[sig]
        assert c is None or c._holds_inside(v)
        return c


def _separator(x: Cone, y: Cone):
    """Sum of the inequalities of x (facet normals, and each equation with
    either sign) that are <= 0 on every ray of y."""
    ineqs = [*x.facets, *x.equations, *map(vneg, x.equations)]
    picked = [f for f in ineqs if all(dot(f, r) <= 0 for r in y.rays)]
    return combine([1] * len(picked), picked, x.ambient_dim)


def _meet_in_common_face(a: Cone, b: Cone) -> bool:
    """Is a ∩ b a face of both cones?

    First a certificate (Cox-Little-Schenck, Toric Varieties, Lemma
    1.2.13): h = _separator(a, b) - _separator(b, a) is >= 0 on a and
    <= 0 on b, so a ∩ b lies in h^⊥, and h^⊥ cuts a face from each cone.
    When a and b have the same rays on h^⊥, those faces are one cone, and
    it is a ∩ b.

    Otherwise the general test: with F the smallest face of a containing
    K = a ∩ b, K is a face of a exactly when F lies in b (then
    F ⊆ K ⊆ F); likewise with a and b swapped.  The sum s of K's
    extreme rays, found by extreme_rays from the facets and equations of
    both cones, lies in the relative interior of K, so F is the smallest
    face of a holding s.
    """
    h = vsub(_separator(a, b), _separator(b, a))
    if ([r for r in a.rays if dot(h, r) == 0]
            == [r for r in b.rays if dot(h, r) == 0]):
        return True
    gens = generators_from_h(a.facets + b.facets, a.equations + b.equations,
                             a.ambient_dim)
    for g in gens:
        assert a.contains(g) and b.contains(g)
    s = combine([1] * len(gens), gens, a.ambient_dim)
    return all(y.contains(r) for x, y in ((a, b), (b, a))
               for r in face_at(x, s))


def fan_build(maximal_cones: Sequence[Cone]) -> Fan:
    """Assemble a fan from maximal cones, verifying the common-face condition.

    Every pair of distinct input cones is checked by _meet_in_common_face,
    so an input that is a face of another is kept as that face and any
    other overlap is refused: a separating functional certifies most
    pairs, and the extreme rays of the intersection decide the rest, at
    C(m, d-1) kernels for m inequalities in dimension d.

    First each cone E of the fan is certified by its face lattice, with
    F(E) the keys of its faces and G those of its facets: F(E) = {E} ∪
    ⋃ F(G), and E has as many normals as G has members.  By induction on
    dim E, a face D ≠ E lies in some F(G), so F(D) ⊆ F(E): face sets are
    down-closed and up-sets up-closed, also in every subfan closed under
    faces (skeleta, the faces of one cone, the remainders of
    cohomology._avoiding).  Likewise E's normals, rays and G are those of
    P = cone(E.generators); at dim E <= 1 pointedness forces it.  Each
    normal is >= 0 on P (cone_build checks it), so each ray, cut out by
    the normals tight on it, is extreme in P, and each member L of G,
    made of rays in the zero set of normals, lies in a facet T of P whose
    normal is listed, one member per T; the count leaves no other normal.
    Each facet of L lies in F(E), so a normal other than T's vanishes on
    it, and it spans a ridge T ∩ T' of P with T' listed.  By induction L
    is the cone on its rays, whose facets all lie in the boundary of T,
    so L is T.  The facet-ridge graph of P is connected (Balinski's
    theorem on the dual polytope), so G is every facet of P, and the rays
    read off P's facets are all of P's rays.
    """
    if not maximal_cones:
        raise ValueError("empty cone list")
    d = maximal_cones[0].ambient_dim
    if any(c.ambient_dim != d for c in maximal_cones):
        raise ValueError("cones of mixed ambient dimension")

    uniq = {}
    for c in maximal_cones:
        uniq.setdefault(c.key, c)
    tops = list(uniq.values())

    cones = {}
    for c in tops:
        # a face shared with an earlier cone is reused, not rebuilt
        for f in face_lattice(c, cones).faces:
            cones.setdefault(f.key, f)

    F = {k: {f.key for f in face_lattice(c).faces} for k, c in cones.items()}
    G = {k: face_lattice(c).facet_keys for k, c in cones.items()}
    for k, c in cones.items():
        if (len(G[k]) != len(c.facets) or not F.keys() >= set(G[k])
                or F[k] != {k}.union(*map(F.get, G[k]))):
            raise RuntimeError(f"face lattice certificate failed at {k}")

    for a, b in itertools.combinations(tops, 2):
        if not _meet_in_common_face(a, b):
            raise ValueError(
                f"cones with rays {a.rays} and {b.rays} do not meet in a common face"
            )
    return Fan(d, tuple(sorted(cones.values(), key=lambda c: (c.dim, c.rays))))


def skeleton_fan(fan: Fan, i: int) -> Fan:
    """Subfan of all cones of dimension at most i."""
    if i < 0:
        raise ValueError("skeleton index must be >= 0")
    return Fan(fan.ambient_dim, tuple(c for c in fan.cones if c.dim <= i))


# ---------------------------------------------------------------------------
# orientations and cochains

def orientation_basis(cone: Cone) -> tuple:
    """First dim(C) linearly independent rays in canonical order, kept on C:
    a ray is kept when it and the rays kept before it are independent,
    which side(R, R), the sign of their Gram determinant, tells."""
    if cone._basis is None:
        rows = ()
        for r in cone.rays:
            if len(rows) < cone.dim and side(rows + (r,), rows + (r,)):
                rows += (r,)
        assert len(rows) == cone.dim
        object.__setattr__(cone, "_basis", rows)
    return cone._basis


def side(basis, rows) -> int:
    """Sign of det(rows * basis^T) for k rows in the span of k independent
    basis rows.  With rows = M * basis it is det(M) * det(basis * basis^T),
    and a Gram determinant is > 0, so it is the sign of det(M): it tells
    which side of the hyperplane through rows[1:] rows[0] lies on.  For
    any k rows R, side(R, R) is 1 when they are independent and 0 when
    not: by Cauchy-Binet det(R * R^T) is the sum of the squares of R's
    maximal minors."""
    det = det_int(mat_mul(rows, transpose(basis)))
    return (det > 0) - (det < 0)


def incidence_sign(big: Cone, small: Cone) -> int:
    """Incidence number between a cone and one of its facets."""
    if big.dim == small.dim + 1 and small.dim == 0:
        return 1  # augmentation: every ray meets the empty cell once
    w = next(r for r in big.rays if r not in set(small.rays))
    sign = side(orientation_basis(big), [w, *orientation_basis(small)])
    assert sign != 0
    return sign


def cochain(cones, linked=None) -> tuple:
    """(sizes, mats) of the cochain complex on cones of a fan, by dimension.

    sizes[t] counts the t-cones; mats[t] maps level t to level t+1, with
    one row per (t+1)-cone and one column per t-cone in the given order.
    A row is read from its cone's facets in the cone's face lattice: a
    facet among the t-cones gets big.facet_sign(small), or 0 where
    linked(small, big) is false, asked in column order; every other entry
    is 0.
    """
    by_dim: dict = {}
    for c in cones:
        by_dim.setdefault(c.dim, []).append(c)
    mats = {}
    for t, cols in by_dim.items():
        bigs = by_dim.get(t + 1)
        if not bigs:
            continue
        where = {c.key: j for j, c in enumerate(cols)}
        M = []
        for big in bigs:
            row = [0] * len(cols)
            js = [where[k] for k in face_lattice(big).facet_keys if k in where]
            js.sort()
            for j in js:
                small = cols[j]
                if linked is None or linked(small, big):
                    row[j] = big.facet_sign(small)
            M.append(row)
        mats[t] = M
    return {t: len(v) for t, v in by_dim.items()}, mats
