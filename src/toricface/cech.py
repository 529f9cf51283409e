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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cohomology import CohomologyTable, check_characteristic, \
    table_from_cochain
from .lattice import (
    dot,
    is_prime,
    kernel_mod,
    mat_mul,
    mat_vec,
    rank_mod,
    reduce_mod_lattice,
    solve_in_lattice,
    vadd,
    vec,
    vscale,
    vsub,
)
from .moncomplex import MonoidalComplex
from .monoid import monoid_member
from .polyhedral import Cone, cochain, facets_through

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


@dataclass(frozen=True)
class PieceResult:
    """Dimension (0 or 1) of one localized piece, with a witness when 1."""

    value: int
    witness: Optional[tuple]   # (z, y) with z - y = the requested degree
    steps: int                 # multiples of the denominator sum consumed


def _decide(mcc: MonoidalComplex, source: Cone, targets, a,
            state_cap: int) -> bool:
    """Is a = z - y solvable with y in the source monoid, z in a target's?

    Write C for the source cone, M0 for its monoid, and fix a target D
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
    """
    a = vec(a)
    M0 = mcc.monoids[source.key]
    if not M0.generators:
        return any(monoid_member(mcc.monoids[d.key], a) is not None
                   for d in targets)
    group = M0.group
    target_rep = reduce_mod_lattice(group, a)
    zero = tuple([0] * len(a))
    for d_cone in targets:
        MD = mcc.monoids[d_cone.key]
        if solve_in_lattice(MD.group, a) is None:
            continue
        through = facets_through(d_cone, source)
        if any(dot(f, a) < 0 for f in through):
            continue
        if not through:
            # the source is the target itself; the group test was the test
            return True
        phi = tuple(sum(f[j] for f in through) for j in range(len(a)))
        weight = dot(phi, a)
        pos = [(g, dot(phi, g)) for g in MD.generators if dot(phi, g) > 0]
        assert all(dot(phi, g) >= 0 for g in MD.generators)
        start = reduce_mod_lattice(group, zero)
        if weight == 0:
            if target_rep == start:
                return True
            continue
        seen = {(start, 0)}
        frontier = [(start, 0)]
        found = False
        while frontier and not found:
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
                        raise BoundExhausted(d_cone.key, a, state_cap)
                    if w2 == weight and key[0] == target_rep:
                        found = True
                        break
                    nxt.append(key)
                if found:
                    break
            frontier = nxt
        if found:
            return True
    return False


def _witness(mcc: MonoidalComplex, source: Cone, targets, a):
    """Explicit (z, y, steps) once the piece is known to be nonzero.

    Adding the sum of the source generators to the numerator is monotone,
    so scanning steps upward finds the least witness.
    """
    a = vec(a)
    M0 = mcc.monoids[source.key]
    sigma = tuple([0] * len(a))
    for g in M0.generators:
        sigma = vadd(sigma, g)
    t = 0
    while True:
        z = vadd(a, vscale(t, sigma))
        for d_cone in targets:
            if monoid_member(mcc.monoids[d_cone.key], z) is not None:
                return z, vscale(t, sigma), t
        t += 1
        assert t <= WITNESS_HARD_CAP, \
            "witness scan exceeded its cap despite a positive certificate"


def localization_piece(mcc: MonoidalComplex, cone, a,
                       state_cap: Optional[int] = None) -> PieceResult:
    """The degree-a piece of the ring localized at a cone of the complex."""
    cap = DEFAULT_STATE_CAP if state_cap is None else state_cap
    if not isinstance(cone, Cone):
        cone = mcc.fan.by_key(tuple(cone))
    a = vec(a)
    targets = mcc.fan.up_set(cone)
    if not _decide(mcc, cone, targets, a, cap):
        return PieceResult(0, None, 0)
    z, y, t = _witness(mcc, cone, targets, a)
    assert vsub(z, y) == a
    assert monoid_member(mcc.monoids[cone.key], y) is not None
    assert any(monoid_member(mcc.monoids[d.key], z) is not None
               for d in targets)
    return PieceResult(1, (z, y), t)


# ---------------------------------------------------------------------------
# the complex in one degree

@dataclass(frozen=True)
class CechSlice:
    """All nonzero localized pieces in one degree, with the maps between them.

    levels[(t, pieces)] lists the nonzero pieces among cones of dimension t
    as (cone_key, witness) pairs; mats pairs t with the matrix of the map
    from level t to level t+1, rows indexed by the t+1 pieces.
    """

    degree: tuple
    levels: tuple
    mats: tuple

    def sizes(self) -> dict:
        return {t: len(p) for t, p in self.levels}

    def matrices(self) -> dict:
        return {t: [list(r) for r in rows] for t, rows in self.mats}

    def keys_at(self, t: int) -> tuple:
        for lt, pieces in self.levels:
            if lt == t:
                return tuple(k for k, _ in pieces)
        return ()


def cech_slice(mcc: MonoidalComplex, a,
               state_cap: Optional[int] = None) -> CechSlice:
    a = vec(a)
    fan = mcc.fan
    cap = DEFAULT_STATE_CAP if state_cap is None else state_cap
    pieces = []
    for c in fan.cones:
        pr = localization_piece(mcc, c, a, state_cap)
        if pr.value:
            pieces.append((c, pr.witness))

    def linked(small, big):
        # nonzero where a = z - y, y in small's monoid, z in one above big
        return _decide(mcc, small, fan.up_set(big), a, cap)

    _, mats = cochain([c for c, _ in pieces], linked)
    for t in sorted(mats):
        if t + 1 in mats:
            square = mat_mul(mats[t + 1], mats[t])
            assert all(x == 0 for row in square for x in row), \
                f"maps at degree {a} do not compose to zero at level {t}"
    by_dim: dict = {}
    for c, w in pieces:
        by_dim.setdefault(c.dim, []).append((c.key, w))
    return CechSlice(a, tuple((t, tuple(v)) for t, v in sorted(by_dim.items())),
                     tuple(sorted((t, tuple(tuple(r) for r in M))
                                  for t, M in mats.items())))


def cech_degree(mcc: MonoidalComplex, a, characteristic,
                state_cap: Optional[int] = None) -> CohomologyTable:
    """H^i_m(R)_a from the localized pieces; no seminormality needed."""
    check_characteristic(characteristic)
    sl = cech_slice(mcc, a, state_cap)
    return table_from_cochain(sl.sizes(), sl.matrices(), characteristic)


# ---------------------------------------------------------------------------
# the Frobenius action

@dataclass(frozen=True)
class FrobeniusStep:
    """The induced p-th power map on H^i, from degree a to degree p*a."""

    i: int
    dim_source: int
    dim_target: int
    rank: int
    injective: bool
    bijective: bool


@dataclass(frozen=True)
class FrobeniusCheck:
    degree: tuple
    prime: int
    steps: tuple   # FrobeniusStep for every i where either side is nonzero


def frobenius_check(mcc: MonoidalComplex, a, p: int,
                    state_cap: Optional[int] = None) -> FrobeniusCheck:
    """Track the Frobenius action on local cohomology in one degree.

    The p-th power map sends the degree-a piece at each cone into the
    degree-pa piece, with matrix 1 on matching cones; it commutes with the
    localization maps, which is asserted, and the induced maps on
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
        assert not missing, \
            f"pieces {missing} vanish at degree {tuple(pa)} but not {tuple(a)}"

    F = {t: [[1 if ka == kp else 0 for ka in keys_a[t]]
             for kp in keys_pa[t]] for t in range(top + 1)}

    def level_map(slice_, keys, t):
        """Matrix of the map out of level t, keys[t+1] rows x keys[t] cols."""
        if t < 0 or t >= top:
            return [[0] * len(keys.get(t, ())) for _ in keys.get(t + 1, ())]
        for lt, rows in slice_.mats:
            if lt == t:
                return [list(r) for r in rows]
        return [[0] * len(keys[t]) for _ in keys[t + 1]]

    for t in range(top):
        na_t, na_up = len(keys_a[t]), len(keys_a[t + 1])
        npa_up = len(keys_pa[t + 1])
        if na_t == 0 or npa_up == 0:
            continue
        lhs = mat_mul(level_map(spa, keys_pa, t), F[t])
        if na_up:
            rhs = mat_mul(F[t + 1], level_map(sa, keys_a, t))
        else:
            rhs = [[0] * na_t for _ in range(npa_up)]
        assert all((x - y) % p == 0
                   for lr, rr in zip(lhs, rhs) for x, y in zip(lr, rr)), \
            f"power map fails to commute with the maps at level {t}"

    steps = []
    for i in range(top + 1):
        na, npa = len(keys_a[i]), len(keys_pa[i])
        Ba = level_map(sa, keys_a, i - 1)
        Bpa = level_map(spa, keys_pa, i - 1)
        Za = kernel_mod(level_map(sa, keys_a, i), p, na)
        rank_b = rank_mod(Bpa, p)
        h_a = len(Za) - rank_mod(Ba, p)
        h_pa = npa - rank_mod(level_map(spa, keys_pa, i), p) - rank_b
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
