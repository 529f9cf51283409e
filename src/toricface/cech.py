"""Graded pieces of local cohomology by brute force.

The Cech complex on the face poset has one summand per cone: the degree-a
piece of the ring localized at that cone's monoid, a k-line or zero.  Its
cohomology gives H^i_m(R)_a directly, with no hypotheses on the complex,
which makes it the reference oracle for the star formula.

Deciding whether a localized piece is nonzero means deciding whether
a = z - y for a numerator z in some monoid above the cone and a
denominator y in the cone's own monoid.  A finite certificate exists:
summing the facet normals through the cone inside a candidate target
gives a functional that kills denominators, so candidate numerators
decompose into a part of bounded weight and a part absorbed by the
denominator group.  Reachability of a's coset at exactly that weight is
the whole test, so both answers are certified; the only escape hatch is
a cap on the state count, reported by exception, never as a silent 0.

Only the maximal cones above a cone need to be asked.  The complex is
checked at build to satisfy M_D = M_D' cap D for every face D of D', so
M_D lies in M_D' and, for a cone c in D, M_D - M_c lies in M_D' - M_c.
A piece, or a map between two pieces, is therefore nonzero for some
target above c exactly when it is nonzero for some maximal one; and the
least z = a + t*sigma of a witness lies in a maximal target as soon as
it lies in any, so every witness is unchanged as well.

Most pairs are empty for a cheap reason, found per degree in one pass
over the maximal cones D, from pairs indexed once: a is not in Z M_D
(by its membership rows), or a facet normal f of D through c is negative
on a (f is 0 on M_c and >= 0 on M_D, so f(z - y) = f(z) >= 0).  With no
live cone left, the complex is zero.  The search is sound without it.

When MD is normal the two cheap tests are the whole answer, so the pass
accepts every pair (c, D) it does not rule out and no search runs on it:
MD - Mc = Z MD cap (D + lin c), the localization of a normal monoid at a
face (Bruns-Gubeladze, Polytopes, Rings, and K-Theory, ch. 2).  Take
a in Z MD with f(a) >= 0 for each facet f of D through c, and let y0 be
the sum of Mc's generators, in the relative interior of c.  A facet of D
not through c is positive on y0, so for t large z = a + t*y0 is >= 0 on
every facet of D; z is in D and in Z MD, hence in MD by normality, and
y = t*y0 is in Mc.  (_witness still scans t upward for the least z.)

On a complex whose maximal monoids are all normal, the pass then decides
every pair, so the slice, and its cohomology table, depend only on the
set of pairs it accepts.  cech_degree keeps one table per (accepted set,
characteristic) on the complex and builds the slice only on a miss,
from the same pass; other complexes build each degree's slice.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional

from .cohomology import CohomologyTable, check_characteristic, \
    table_from_cochain, zero_table
from .lattice import (
    combine,
    dot,
    is_prime,
    kernel_mod,
    mat_mul,
    mat_vec,
    rank_mod,
    reduce_mod_lattice,
    vadd,
    vec,
    vscale,
    vsub,
)
from .moncomplex import MonoidalComplex
from .monoid import monoid_member
from .polyhedral import Cone, cochain, face_lattice, facets_through
from .record import record

DEFAULT_STATE_CAP = 200_000
WITNESS_HARD_CAP = 10_000


class BoundExhausted(Exception):
    """The membership search hit its state cap before certifying an answer."""

    def __init__(self, cone_key, degree, cap):
        self.cone_key = cone_key
        self.degree = degree
        self.cap = cap
        super().__init__(
            f"piece test at cone {cone_key}, degree {degree}: "
            f"state cap {cap} exhausted; raise the bound")


@record
class PieceResult:
    """Dimension (0 or 1) of one localized piece; a nonzero piece finds and
    checks its witness (z, y), z - y = the degree, when first asked."""

    value: int
    _find: Optional[Callable] = None

    @cached_property
    def witness(self) -> Optional[tuple]:
        return self._find() if self._find else None


def _decide_one(mcc: MonoidalComplex, source: Cone, target: Cone, a,
                state_cap: int) -> bool:
    """Is a = z - y solvable with y in the source monoid, z in the target's?

    Write C for the source cone, M0 for its monoid, and D for the target
    with monoid MD.  phi sums the facet normals of D through C, so
    phi >= 0 on MD and phi = 0 exactly on the generators lying in C,
    because a face of a pointed cone is the intersection of the facets
    containing it and MD meets C in M0.  The search accepts iff some sum
    s of phi-positive generators of MD has phi(s) = phi(a) and s = a
    modulo Z M0.

    Accept implies solvable: a - s = k+ - k- with k+, k- in M0 by
    splitting the integer combination, so z = s + k+ lies in MD,
    y = k- lies in M0, and z - y = a.  Solvable implies accept: given
    z = a + y, split a generator decomposition of z into its phi-positive
    part s and phi-zero part z0; z0 lies in M0 by the face argument, so
    phi(s) = phi(z) = phi(a) and s = z - z0 = a + y - z0 = a modulo
    Z M0.  States are (coset mod Z M0, weight), which is sound to
    deduplicate because extending two equal states by the same
    generators keeps them equal.

    It needs no exit for the pairs _dead_pairs rules out: s in MD and
    s = a mod Z M0 give a in Z MD and f(a) = f(s) >= 0 for f through C.
    """
    M0, MD = mcc.monoids[source.key], mcc.monoids[target.key]
    if not M0.generators:
        return monoid_member(MD, a) is not None
    if source.key not in MD._face_weights:   # none depends on a
        through = facets_through(target, source)
        phi = combine([1] * len(through), through, len(a))
        if any(dot(phi, g) < 0 for g in MD.generators):
            raise RuntimeError(
                f"facet weight of {source.key} in {target.key} is negative "
                f"on a generator")
        MD._face_weights[source.key] = (phi, [
            (g, dot(phi, g)) for g in MD.generators if dot(phi, g) > 0])
    phi, pos = MD._face_weights[source.key]
    group = M0.group
    weight = dot(phi, a)
    if weight == 0:
        return group.contains(a)
    target_rep = reduce_mod_lattice(group, a)
    start = (0,) * len(a)
    seen = {(start, 0)}
    frontier = [(start, 0)]
    while frontier:
        nxt = []
        for rep, w in frontier:
            for g, wg in pos:
                w2 = w + wg
                if w2 > weight:
                    continue
                key = (reduce_mod_lattice(group, vadd(rep, g)), w2)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > state_cap:
                    raise BoundExhausted(target.key, a, state_cap)
                if w2 == weight and key[0] == target_rep:
                    return True
                nxt.append(key)
        frontier = nxt
    return False


def _decide(mcc: MonoidalComplex, source: Cone, targets, a, state_cap: int,
            memo: dict) -> bool:
    """Does _decide_one hold for some target?  memo keeps each (source key,
    target key) answer in degree a, _dead_pairs' first, so no pair is
    searched twice."""
    pairs = [((source.key, d.key), d) for d in targets]
    if any(memo.get(k) for k, _ in pairs):
        return True
    for k, d in pairs:
        if k not in memo:
            memo[k] = _decide_one(mcc, source, d, a, state_cap)
            if memo[k]:
                return True
    return False


def _sums_to(gens, coeffs, v) -> bool:
    """Is v the combination of gens with these nonnegative coefficients?"""
    return (len(coeffs) == len(gens) and min(coeffs, default=0) >= 0
            and combine(coeffs, gens, len(v)) == tuple(v))


def _witness(mcc: MonoidalComplex, source: Cone, targets, a, memo: dict):
    """The least witness (z, y) of a nonzero piece, checked.

    Adding the sum sigma of the source generators to the numerator is
    monotone, so scanning t upward finds the least z = a + t*sigma in a
    target monoid.  No such z lies in a target that memo holds as empty,
    searched or ruled out by _dead_pairs, so those are skipped.  The
    witness is returned only once z re-sums from the coefficients
    monoid_member gave and y = t*sigma from t times each source generator.
    """
    gens = mcc.monoids[source.key].generators
    sigma = combine([1] * len(gens), gens, len(a))
    live = [d for d in targets if memo.get((source.key, d.key)) is not False]
    for t in range(WITNESS_HARD_CAP + 1):
        y = vscale(t, sigma)
        z = vadd(a, y)
        for d in live:
            coeffs = monoid_member(mcc.monoids[d.key], z)
            if coeffs is None:
                continue
            if not (vsub(z, y) == a and _sums_to(gens, [t] * len(gens), y)
                    and _sums_to(mcc.monoids[d.key].generators, coeffs, z)):
                raise RuntimeError(f"witness {z}, {y} of {a} fails its check")
            return z, y
    raise RuntimeError("witness scan passed its cap after a positive decision")


def _dead_pairs(mcc: MonoidalComplex, a, memo: dict) -> set:
    """Answer in memo the pairs degree a decides, and return the keys of
    the cones left with a live target.  (D, D) is a in Z MD = MD - MD,
    tested once per distinct group; a face of D on a facet negative on a,
    or on any facet when that fails, is dead for D (pairs built once).
    When MD is normal, every pair into D left alive is accepted."""
    if mcc._pass_index is None:
        index: dict = {}
        for key in mcc.fan.maximal:
            d, M = mcc.fan.by_key(key), mcc.monoids[key]
            if not M._refusals:   # D's alone, so kept for every complex
                on_facet = face_lattice(d).on_facet
                faces = frozenset({key}.union(*on_facet))
                M._refusals[:] = key, faces, dict.fromkeys(
                    [(k, key) for k in faces], False), [
                    (f, dict.fromkeys([(k, key) for k in on], False), on)
                    for f, on in zip(d.facets, on_facet)], M.flags.normal
            index.setdefault(M.group, []).append(M._refusals)
        mcc._pass_index = tuple(index.items())
    live = set()
    for group, cones in mcc._pass_index:
        if not group.contains(a):
            for _, _, refused, _, _ in cones:
                memo.update(refused)
            continue
        for key, faces, _, facets, normal in cones:
            memo[key, key] = True
            dead = set()
            for f, pairs, on in facets:
                if dot(f, a) < 0:
                    memo.update(pairs)
                    dead.update(on)
            open_ = faces - dead
            if normal:
                memo.update({(k, key): True for k in open_})
            live |= open_
    return live


def localization_piece(mcc: MonoidalComplex, cone, a,
                       state_cap: Optional[int] = None,
                       memo: Optional[dict] = None) -> PieceResult:
    """The degree-a piece of the ring localized at a cone of the complex,
    decided against the maximal cones above it; cech_slice passes one memo
    of answers in degree a, filled by _dead_pairs first, to all."""
    cap = DEFAULT_STATE_CAP if state_cap is None else state_cap
    if not isinstance(cone, Cone):
        cone = mcc.fan.by_key(tuple(cone))
    a = vec(a)
    if memo is None:
        _dead_pairs(mcc, a, memo := {})
    targets = mcc.fan.maximal_above(cone)
    if not _decide(mcc, cone, targets, a, cap, memo):
        return PieceResult(0)
    return PieceResult(1, lambda: _witness(mcc, cone, targets, a, memo))


# ---------------------------------------------------------------------------
# the complex in one degree

@record
class CechSlice:
    """All nonzero localized pieces in one degree, with the maps between them.

    pieces maps each cone with a nonzero piece to its PieceResult, in fan
    order; sizes and mats are the cochain data of those cones: sizes[t]
    counts the pieces on t-cones and mats[t] maps level t to level t+1.
    """

    degree: tuple
    pieces: dict
    sizes: dict
    mats: dict

    def keys_at(self, t: int) -> tuple:
        return tuple(c.key for c in self.pieces if c.dim == t)

    def level_map(self, t: int) -> list:
        """The map out of level t, zero where the slice has none."""
        return self.mats.get(t) or [[0] * self.sizes.get(t, 0)
                                    for _ in range(self.sizes.get(t + 1, 0))]


def cech_slice(mcc: MonoidalComplex, a,
               state_cap: Optional[int] = None) -> CechSlice:
    a = vec(a)
    memo: dict = {}
    return _slice(mcc, a, state_cap, memo, _dead_pairs(mcc, a, memo))


def _slice(mcc: MonoidalComplex, a, state_cap, memo: dict,
           live: set) -> CechSlice:
    """The slice in degree a from _dead_pairs' memo and live set."""
    if not live:   # every piece is zero, so the complex is
        return CechSlice(a, {}, {}, {})
    fan = mcc.fan
    cap = DEFAULT_STATE_CAP if state_cap is None else state_cap
    pieces = {}
    for c in fan.cones:
        if c.key in live:
            pr = localization_piece(mcc, c, a, state_cap, memo)
            if pr.value:
                pieces[c] = pr

    def linked(small, big):
        # nonzero where a = z - y, y in small's monoid, z in one above big
        return _decide(mcc, small, fan.maximal_above(big), a, cap, memo)

    sizes, mats = cochain(pieces, linked)
    for t in sorted(mats):
        if t + 1 in mats and any(
                x for row in mat_mul(mats[t + 1], mats[t]) for x in row):
            raise RuntimeError(
                f"maps at degree {a} do not compose to zero at level {t}")
    return CechSlice(a, pieces, sizes, mats)


def cech_degree(mcc: MonoidalComplex, a, characteristic,
                state_cap: Optional[int] = None) -> CohomologyTable:
    """H^i_m(R)_a from the localized pieces; no seminormality needed.
    On a normal complex the table is kept per set of accepted pairs."""
    check_characteristic(characteristic)
    a = vec(a)
    memo: dict = {}
    live = _dead_pairs(mcc, a, memo)
    if not live:
        return zero_table(characteristic)
    if not mcc.normal_monoids:
        return _table(_slice(mcc, a, state_cap, memo, live), characteristic)
    key = frozenset(k for k, v in memo.items() if v), characteristic
    if key not in mcc._tables:
        mcc._tables[key] = _table(_slice(mcc, a, state_cap, memo, live),
                                  characteristic)
    return mcc._tables[key]


def _table(sl: CechSlice, characteristic) -> CohomologyTable:
    if not sl.pieces:
        return zero_table(characteristic)
    return table_from_cochain(sl.sizes, sl.mats, characteristic)


# ---------------------------------------------------------------------------
# the Frobenius action

@record
class FrobeniusStep:
    """The induced p-th power map on H^i, from degree a to degree p*a."""

    i: int
    dim_source: int
    dim_target: int
    rank: int
    injective: bool
    bijective: bool


@record
class FrobeniusCheck:
    degree: tuple
    prime: int
    steps: tuple   # FrobeniusStep for every i where either side is nonzero


def frobenius_check(mcc: MonoidalComplex, a, p: int,
                    state_cap: Optional[int] = None) -> FrobeniusCheck:
    """Track the Frobenius action on local cohomology in one degree.

    The p-th power map sends the degree-a piece at each cone into the
    degree-pa piece, with matrix 1 on matching cones; it commutes with the
    localization maps, which is checked, and the induced maps on
    cohomology over F_p are measured level by level.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    a = vec(a)
    pa = vscale(p, a)
    sa = cech_slice(mcc, a, state_cap)
    spa = cech_slice(mcc, pa, state_cap)
    top = mcc.fan.dim

    keys_a = {t: sa.keys_at(t) for t in range(top + 1)}
    keys_pa = {t: spa.keys_at(t) for t in range(top + 1)}
    for t in range(top + 1):
        missing = set(keys_a[t]) - set(keys_pa[t])
        if missing:
            raise RuntimeError(f"pieces {missing} vanish at degree "
                               f"{tuple(pa)} but not {tuple(a)}")

    F = {t: [[1 if ka == kp else 0 for ka in keys_a[t]]
             for kp in keys_pa[t]] for t in range(top + 1)}

    for t in range(top):
        na_t, na_up = len(keys_a[t]), len(keys_a[t + 1])
        npa_up = len(keys_pa[t + 1])
        if na_t == 0 or npa_up == 0:
            continue
        lhs = mat_mul(spa.level_map(t), F[t])
        if na_up:
            rhs = mat_mul(F[t + 1], sa.level_map(t))
        else:
            rhs = [[0] * na_t for _ in range(npa_up)]
        if any((x - y) % p for lr, rr in zip(lhs, rhs)
               for x, y in zip(lr, rr)):
            raise RuntimeError(
                f"power map fails to commute with the maps at level {t}")

    steps = []
    for i in range(top + 1):
        na, npa = len(keys_a[i]), len(keys_pa[i])
        Ba, Bpa = sa.level_map(i - 1), spa.level_map(i - 1)
        Za = kernel_mod(sa.level_map(i), p, na)
        rank_b = rank_mod(Bpa, p)
        h_a = len(Za) - rank_mod(Ba, p)
        h_pa = npa - rank_mod(spa.level_map(i), p) - rank_b
        if h_a == 0 and h_pa == 0:
            continue
        # the cycles at a pushed to pa, counted modulo the boundaries there
        fz = [mat_vec(F[i], z) for z in Za]
        rank_all = rank_mod([list(row) + [v[r] for v in fz]
                             for r, row in enumerate(Bpa)], p)
        induced = rank_all - rank_b
        steps.append(FrobeniusStep(
            i, h_a, h_pa, induced,
            injective=induced == h_a,
            bijective=induced == h_a == h_pa))
    return FrobeniusCheck(tuple(a), p, tuple(steps))
