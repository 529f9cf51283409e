"""Positive-characteristic classification of embedded toric face rings.

For a seminormal complex the field characteristics where the ring fails to
be F-pure (equivalently F-split) are exactly the primes dividing an
elementary divisor of one of the finite groups (Z M_C cap lin D) / Z M_D,
taken over maximal cones C and their faces D.  The same lattice test
applied to the faces of a single monoid decides F-injectivity of its
ring, and weak F-regularity forces the fan to be the face poset of a
single cone with a normal monoid.
"""

from __future__ import annotations

from typing import Optional

from .lattice import (is_prime, lattice_from_rows, prime_factors,
                      quotient_invariants)
from .moncomplex import ComplexError, MonoidalComplex
from .monoid import AffineMonoid, monoid_face_gens
from .polyhedral import face_lattice
from .record import record


def _face_divisors(group, sub) -> tuple:
    """Elementary divisors of (group cap lin D) / sub for sub = Z M_D of a
    face D: the torsion of group / sub, as sub spans lin D."""
    return quotient_invariants(sub, group).divisors


@record
class PrimeExclusion:
    prime: int
    witnesses: tuple   # (maximal cone key, face key, elementary divisor)


@record
class FPurityReport:
    """Primes where the ring is not F-pure, with their lattice witnesses.

    For a seminormal complex F-purity and F-splitness coincide and fail
    exactly at the excluded primes, so the verdict for any p is read off
    the exclusion list.
    """

    excluded: tuple   # PrimeExclusion, ascending by prime

    @property
    def excluded_set(self) -> frozenset:
        return frozenset(e.prime for e in self.excluded)

    def verdict(self, p: int) -> dict:
        ok = p not in self.excluded_set
        return {"F_pure": ok, "F_split": ok}


def excluded_primes(mcc: MonoidalComplex) -> FPurityReport:
    """Every prime p where k[M] fails to be F-pure, with witnesses.

    Runs over pairs (maximal cone C, face D of C) and factors the
    elementary divisors of (Z M_C cap lin D)/Z M_D; a prime divides one
    of them exactly when (p) is associated to that quotient.
    """
    if not mcc.seminormal:
        raise ComplexError(
            "excluded primes are defined for seminormal complexes; "
            "F-purity at any prime already forces seminormality")
    found: dict = {}
    for key in mcc.fan.maximal:
        c = mcc.fan.by_key(key)
        zc = mcc.monoids[key].group
        for d_ in mcc.fan.faces_of(c):
            for dv in _face_divisors(zc, mcc.monoids[d_.key].group):
                for p in prime_factors(dv):
                    found.setdefault(p, []).append((key, d_.key, dv))
    excluded = tuple(PrimeExclusion(p, tuple(found[p]))
                     for p in sorted(found))
    return FPurityReport(excluded)


@record
class MonoidFInjectivity:
    prime: int
    injective: bool
    witness_face: Optional[tuple]   # face key exhibiting p-torsion


def monoid_F_injective(M: AffineMonoid, p: int) -> MonoidFInjectivity:
    """Is k[M] F-injective (hence F-pure and F-split) in characteristic p?

    True exactly when p divides no elementary divisor of
    (Z M cap lin F)/Z(M cap F) over the faces F of the cone of M.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    if not M.flags.seminormal:
        raise ValueError("the F-injectivity criterion requires a "
                         "seminormal monoid")
    for f in face_lattice(M.cone).faces:
        sub = lattice_from_rows(M.ambient_dim, monoid_face_gens(M, f))
        if any(dv % p == 0 for dv in _face_divisors(M.group, sub)):
            return MonoidFInjectivity(p, False, f.key)
    return MonoidFInjectivity(p, True, None)


@record
class WeakFRegularity:
    possible: bool
    reason: str


def weak_F_regular(mcc: MonoidalComplex) -> WeakFRegularity:
    """Can the ring be weakly F-regular in some positive characteristic?

    Necessary and sufficient here: the fan is the face poset of a single
    cone and the monoid on it is normal.
    """
    if len(mcc.fan.maximal) != 1:
        return WeakFRegularity(
            False, f"the fan has {len(mcc.fan.maximal)} maximal cones; "
                   "it must be the face poset of a single cone")
    key = mcc.fan.maximal[0]
    flags = mcc.monoids[key].flags
    if not flags.normal:
        return WeakFRegularity(
            False, f"the monoid on the maximal cone is not normal "
                   f"(witness {flags.witness})")
    return WeakFRegularity(True, "single maximal cone carrying a normal "
                                 "monoid")
