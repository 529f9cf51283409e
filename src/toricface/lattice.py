"""Exact integer linear algebra: Smith/Hermite normal forms and lattice queries.

Everything works over arbitrary-precision Python ints; no floating point is
used anywhere.  Matrices are sequences of rows, vectors are tuples of ints.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import cached_property
from itertools import compress
from math import gcd
from operator import add, floordiv, mul, neg, sub
from typing import Optional, Sequence

from .record import record

Vector = tuple  # tuple[int, ...]
Matrix = list   # list of row lists


# ---------------------------------------------------------------------------
# vector helpers

def vec(v) -> Vector:
    return tuple(map(int, v))


def vadd(a, b) -> Vector:
    return tuple(map(add, a, b))


def vsub(a, b) -> Vector:
    return tuple(map(sub, a, b))


def vneg(a) -> Vector:
    return tuple(map(neg, a))


def vscale(c: int, a) -> Vector:
    return tuple(c * x for x in a)


def dot(a, b) -> int:
    return sum(map(mul, a, b))


def is_zero(a) -> bool:
    return not any(a)


def combine(coeffs, rows, d: int) -> Vector:
    """sum c_i * row_i, a vector of length d (the zero vector for no rows)."""
    if not rows:
        return (0,) * d
    return tuple([sum(map(mul, coeffs, col)) for col in zip(*rows)])


def content(a) -> int:
    return gcd(*a)


def primitive(a) -> Vector:
    """a divided by the gcd of its entries (0 stays 0)."""
    g = content(a)
    if g == 0:
        return tuple(a)
    return tuple(x // g for x in a)


def prime_factors(n: int):
    n = abs(n)
    out = set()
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


# The first 13 primes as strong-pseudoprime bases decide primality of
# every n below _PRIME_LIMIT (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86 (2017)).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on _PRIME_BASES; ValueError for n at or
    above _PRIME_LIMIT, where those bases no longer decide."""
    if n < 2:
        return False
    if n >= _PRIME_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: only "
                         f"numbers below {_PRIME_LIMIT} are tested")
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# matrix helpers

def identity(n: int) -> Matrix:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def mat_mul(A, B) -> Matrix:
    """A*B as a list of row lists.

    Each row of the product adds up the rows of B at the nonzero entries
    of A's row, each row of B read off its own nonzero entries.
    """
    if A and B and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    n = len(B[0]) if B else 0
    nonzero = [[(j, x) for j, x in enumerate(r) if x] for r in B]
    out = []
    for row in A:
        acc = [0] * n
        for a, entries in compress(zip(row, nonzero), row):
            for j, x in entries:
                acc[j] += a * x
        out.append(acc)
    return out


def mat_vec(A, x) -> Vector:
    return tuple([sum(map(mul, row, x)) for row in A])


def transpose(A) -> Matrix:
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def copy_matrix(A) -> Matrix:
    return [list(r) for r in A]


def det_int(A) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(A)
    if n == 0:
        return 1
    M = copy_matrix(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _exgcd(a: int, b: int):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# Smith normal form

@record
class SNFResult:
    D: tuple
    U: tuple
    V: tuple
    divisors: tuple  # nonzero diagonal entries d_1 | d_2 | ... | d_r

    @property
    def rank(self) -> int:
        return len(self.divisors)


def snf(A: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form with transforms: U*A*V = D, U and V unimodular.

    Elementary row/column reduction; pivots chosen by minimal absolute
    value.  The product identity is re-verified before returning.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(r) != n for r in A):
        raise ValueError("ragged matrix")
    D = copy_matrix(A)
    U = identity(m)
    V = identity(n)

    t = 0
    while t < min(m, n):
        # the first entry of least nonzero |x| in the trailing block, in
        # row-major order; nothing beats a unit, so the scan stops at one
        piv, best = None, 0
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                x = row[j]
                if x and (not best or abs(x) < best):
                    piv, best = (i, j), abs(x)
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        D[t], D[i] = D[i], D[t]
        U[t], U[i] = U[i], U[t]
        if j != t:
            for r in D:
                r[t], r[j] = r[j], r[t]
            for r in V:
                r[t], r[j] = r[j], r[t]
        Dt, p = D[t], D[t][t]
        dirty = False
        for i in range(t + 1, m):
            if D[i][t] != 0:  # row_i -= q * row_t
                q = D[i][t] // p
                D[i] = [a - q * b for a, b in zip(D[i], Dt)]
                U[i] = [a - q * b for a, b in zip(U[i], U[t])]
                if D[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if Dt[j] != 0:  # col_j -= q * col_t
                q = Dt[j] // p
                for r in D:
                    r[j] -= q * r[t]
                for r in V:
                    r[j] -= q * r[t]
                if Dt[j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders left; pick a smaller pivot again
        if p < 0:
            D[t] = [-a for a in Dt]
            U[t] = [-a for a in U[t]]
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if b % a != 0:
                changed = True
                g, x, y = _exgcd(a, b)
                lcm = a // g * b
                # P*diag(a,b)*Q = diag(g, lcm) with the 2x2 unimodular pair
                # P = [[x, y], [-b/g, a/g]], Q = [[1, -y*b/g], [1, x*a/g]]
                ui, uj = U[i], U[i + 1]
                U[i] = [x * p + y * q for p, q in zip(ui, uj)]
                U[i + 1] = [(-b // g) * p + (a // g) * q for p, q in zip(ui, uj)]
                for rr in V:
                    ci, cj = rr[i], rr[i + 1]
                    rr[i] = ci + cj
                    rr[i + 1] = (-(y * b) // g) * ci + ((x * a) // g) * cj
                D[i][i], D[i + 1][i + 1] = g, lcm

    divisors = tuple(D[i][i] for i in range(r))
    res = SNFResult(
        D=tuple(tuple(row) for row in D),
        U=tuple(tuple(row) for row in U),
        V=tuple(tuple(row) for row in V),
        divisors=divisors,
    )
    assert mat_mul(mat_mul(U, copy_matrix(A)), V) == [list(r) for r in res.D]
    return res


def _coreduce(A):
    """(units, residual) with A equivalent to I_units (+) residual.

    A pivot is an entry +-1 of A.  Row operations clear the rest of its
    column, column operations then clear the rest of its row (which no
    longer touches any other row), and the pivot is left alone in its row
    and column: one unit elementary divisor split off, the rest of A kept
    up to equivalence.  The rows are sparse (column -> nonzero entry),
    and each row's pivot is taken in the column with the fewest entries,
    so the fewest rows change and fill in.  Sweeps over the rows go on
    while they find a pivot; the residual holds the rows left, on the
    columns they use, and has no entry +-1.
    """
    rows = [dict(zip(compress(range(len(r)), r), filter(None, r))) for r in A]
    cols = defaultdict(set)
    for i, r in enumerate(rows):
        for j in r:
            cols[j].add(i)
    units = 0
    live = [i for i, r in enumerate(rows) if r]
    found = True
    while found:
        found = False
        for i in live:
            r = rows[i]
            pivots = [j for j, x in r.items() if x == 1 or x == -1]
            if not pivots:
                continue
            j = min(pivots, key=lambda c: len(cols[c]))
            f = r[j]   # its own inverse
            rows[i] = {}
            for k in r:
                cols[k].discard(i)
            for h in cols.pop(j):
                t = rows[h]
                q = t[j] * f
                for k, x in r.items():
                    y = t.get(k, 0) - q * x
                    if y:
                        if k not in t:
                            cols[k].add(h)
                        t[k] = y
                    elif k in t:
                        del t[k]
                        if k != j:
                            cols[k].discard(h)
            units += 1
            found = True
        live = [i for i in live if rows[i]]
    used = sorted({j for i in live for j in rows[i]})
    residual = [[rows[i].get(j, 0) for j in used] for i in live]
    assert not any(x == 1 or x == -1 for r in residual for x in r)
    return units, residual


def elementary_divisors(A) -> tuple:
    """snf(A).divisors: the unit pivots split off by _coreduce, then the
    Smith form of the residual, which keeps its full check."""
    if not A or not A[0]:
        return ()
    if any(len(r) != len(A[0]) for r in A):
        raise ValueError("ragged matrix")
    units, residual = _coreduce(A)
    rest = snf(residual).divisors if residual else ()
    return (1,) * units + rest


def rank_int(A) -> int:
    return len(elementary_divisors(A))


def _units_mod(divisors, p: int) -> int:
    # the divisors prime to p come first in the chain d_1 | d_2 | ...
    return next((i for i, x in enumerate(divisors) if x % p == 0), len(divisors))


def rank_mod(A, p: int) -> int:
    """Rank of an integer matrix over F_p: its divisors prime to p."""
    return _units_mod(elementary_divisors(A), p)


def kernel_mod(A, p: int, n: int) -> list:
    """Basis of {x in F_p^n : A x = 0}, entries reduced into [0, p).

    With U*A*V = D and x = V*y, A*x = 0 mod p reads D*y = 0 mod p, which
    frees exactly the y_j past the divisors prime to p; V is invertible
    mod p, so its columns from there on are a basis.
    """
    if not A or not A[0]:
        return [tuple(r) for r in identity(n)]
    res = snf(A)
    return [tuple(x % p for x in col)
            for col in list(zip(*res.V))[_units_mod(res.divisors, p):]]


# ---------------------------------------------------------------------------
# Hermite normal form (row style)

@record
class HNFResult:
    H: tuple
    U: tuple
    pivots: tuple  # (row, col) of each pivot, top to bottom


def hnf(A: Sequence[Sequence[int]]) -> HNFResult:
    """Row Hermite normal form: U*A = H with U unimodular.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows sink to the bottom.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = copy_matrix(A)
    U = identity(m)
    pivots = []
    row = 0
    for col in range(n):
        # euclidean elimination below `row` in this column
        while True:
            nz = [i for i in range(row, m) if H[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][col]))
            if i0 != row:
                H[row], H[i0] = H[i0], H[row]
                U[row], U[i0] = U[i0], U[row]
            done = True
            for i in range(row + 1, m):
                if H[i][col] != 0:
                    q = H[i][col] // H[row][col]
                    H[i] = [a - q * b for a, b in zip(H[i], H[row])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[row])]
                    if H[i][col] != 0:
                        done = False
            if done:
                break
        if row < m and H[row][col] != 0:
            if H[row][col] < 0:
                H[row] = [-a for a in H[row]]
                U[row] = [-a for a in U[row]]
            for i in range(row):
                q = H[i][col] // H[row][col]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[row])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[row])]
            pivots.append((row, col))
            row += 1
            if row == m:
                break
    res = HNFResult(
        H=tuple(tuple(r) for r in H),
        U=tuple(tuple(r) for r in U),
        pivots=tuple(pivots),
    )
    assert mat_mul(U, copy_matrix(A)) == [list(r) for r in res.H]
    return res


def kernel_basis(A: Sequence[Sequence[int]], ncols: Optional[int] = None) -> list:
    """Basis of the saturated right kernel {x in Z^n : A x = 0}."""
    if not A:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [tuple(r) for r in identity(ncols)]
    res = snf(A)
    return list(zip(*res.V))[res.rank:]


def left_kernel_basis(A: Sequence[Sequence[int]]) -> list:
    """Basis of {u : u A = 0} (rows of U past the rank)."""
    if not A:
        return []
    res = snf(A)
    return [tuple(row) for row in res.U[res.rank:]]


def unimodular_inverse(M: Sequence[Sequence[int]]) -> Matrix:
    """Exact inverse of a unimodular integer matrix: the U of U*M = HNF = I."""
    res = hnf(M)
    if [list(r) for r in res.H] != identity(len(M)):
        raise ValueError("matrix is not unimodular")
    return [list(r) for r in res.U]


# ---------------------------------------------------------------------------
# lattices

@record
class LatticeBasis:
    """A sublattice of Z^d given by linearly independent basis rows.

    The Smith form of the column matrix (basis transposed) is computed and
    verified once, at construction; it certifies independence, and its
    rows answer every membership query.  Those rows are computed on first
    use and kept, and so are the Hermite pivots used for coset reduction,
    unless lattice_from_rows, which makes a Hermite basis, presets them.
    """

    ambient_dim: int
    basis: tuple  # tuple of int tuples

    def __post_init__(self):
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise ValueError("basis vector of wrong dimension")
        col_snf = snf(transpose(self.basis)) if self.basis else None
        if col_snf is not None and col_snf.rank != len(self.basis):
            raise ValueError("basis rows are dependent")
        object.__setattr__(self, "col_snf", col_snf)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def hnf_pivots(self) -> tuple:
        """(pivot column, row) of each row of the basis's HNF, top to bottom."""
        res = hnf([list(b) for b in self.basis])
        return tuple((c, res.H[r]) for r, c in res.pivots)

    @cached_property
    def _membership_rows(self) -> tuple:
        """(u, d) per row u of U that v must satisfy: u*v = 0 past the rank
        (d = 0), u*v = 0 mod d for a divisor d > 1; d = 1 always holds."""
        if not self.basis:
            return tuple((u, 0) for u in identity(self.ambient_dim))
        res = self.col_snf
        ds = res.divisors + (0,) * (self.ambient_dim - self.rank)
        return tuple((u, d) for u, d in zip(res.U, ds) if d != 1)

    def contains(self, v) -> bool:
        """Is the int vector v in the lattice: do its membership rows hold?"""
        if len(v) != self.ambient_dim:
            raise ValueError("vector of wrong dimension")
        return not any(dot(u, v) % d if d else dot(u, v)
                       for u, d in self._membership_rows)


def lattice_from_rows(ambient_dim: int, rows) -> LatticeBasis:
    """Lattice generated by possibly dependent rows, with an HNF basis whose
    pivots are kept for reduce_mod_lattice."""
    rows = [list(vec(r)) for r in rows if not is_zero(r)]
    res = hnf(rows) if rows else HNFResult((), (), ())
    pivots = tuple((c, res.H[r]) for r, c in res.pivots)
    L = LatticeBasis(ambient_dim, tuple(r for _, r in pivots))
    L.__dict__["hnf_pivots"] = pivots  # the cached slot
    return L


def _smith_image(L: LatticeBasis, v: Vector) -> Optional[Vector]:
    """U*v for L's Smith form U*B^T*V = D, or None off the span of L.

    With c = V*y, the system B^T*c = v reads D*y = U*v, so v lies in the
    rational span exactly when U*v vanishes past the rank.
    """
    if len(v) != L.ambient_dim:
        raise ValueError("vector of wrong dimension")
    if not L.basis:
        return () if is_zero(v) else None
    res = L.col_snf
    uv = mat_vec(res.U, v)
    if any(uv[len(res.divisors):]):
        return None
    return uv


def solve_in_lattice(L: LatticeBasis, v) -> Optional[list]:
    """Integer coefficients expressing v over L's basis, or None; the
    back-substitution through V is checked."""
    v = vec(v)
    if not L.contains(v):
        return None
    if not L.basis:
        return []
    res = L.col_snf
    c = mat_vec(res.V, list(map(floordiv, _smith_image(L, v), res.divisors)))
    assert combine(c, L.basis, L.ambient_dim) == v
    return list(c)


def rational_coords(L: LatticeBasis, v) -> Optional[tuple]:
    """(c, den) with den*v = sum c_i*basis_i and den > 0, or None off the span.

    From the same Smith form as solve_in_lattice: y_i = (U*v)_i / d_i, and
    every d_i divides the last divisor, so den = d_r clears them all.
    """
    v = vec(v)
    uv = _smith_image(L, v)
    if uv is None:
        return None
    if not L.basis:
        return [], 1
    res = L.col_snf
    den = res.divisors[-1]
    c = mat_vec(res.V, [u * (den // dv) for u, dv in zip(uv, res.divisors)])
    assert combine(c, L.basis, L.ambient_dim) == vscale(den, v)
    return list(c), den


def lattice_equal(L1: LatticeBasis, L2: LatticeBasis) -> bool:
    """Mutual membership of basis vectors."""
    if L1.ambient_dim != L2.ambient_dim:
        return False
    return (all(L2.contains(b) for b in L1.basis)
            and all(L1.contains(b) for b in L2.basis))


def intersect(L1: LatticeBasis, L2: LatticeBasis) -> LatticeBasis:
    """Hermite basis of the intersection of two sublattices of Z^d.

    The meet is read off the left kernel of the stacked bases, and each
    of its basis vectors is checked in both lattices.
    """
    if L1.ambient_dim != L2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    d = L1.ambient_dim
    if not L1.basis or not L2.basis:
        return LatticeBasis(d, ())
    stacked = [list(b) for b in L1.basis] + [list(b) for b in L2.basis]
    # u*stacked = 0, so u's first len(L1.basis) entries reach L1 ∩ L2
    gens = [combine(u, L1.basis, d) for u in left_kernel_basis(stacked)]
    out = lattice_from_rows(d, gens)
    for b in out.basis:
        if not (L1.contains(b) and L2.contains(b)):
            raise RuntimeError(f"intersection certificate failed: {b} is "
                               "not in both lattices")
    return out


@record
class QuotientInvariants:
    """The quotient sup/sub of a sublattice sub of sup.

    All of it is read from one Smith form U*A*V = D of the coordinate rows
    A of sub over sup's basis, unless sub is trivial or saturated.
    """

    divisors: tuple   # elementary divisors of the torsion part, including 1s
    free_rank: int
    _sup: LatticeBasis
    _smith: Optional[SNFResult]   # None when sub is trivial or saturated

    @property
    def index(self) -> Optional[int]:
        if self.free_rank:
            return None
        out = 1
        for d in self.divisors:
            out *= d
        return out

    def representatives(self) -> list:
        """One ambient representative per coset of sub in sup.

        The rows of A span the rows of D*V^-1, so the rows of V^-1 split
        sup's coordinates into cyclic factors of orders d_i.
        """
        if self.free_rank:
            raise ValueError("the quotient is infinite")
        d, r = self._sup.ambient_dim, self._sup.rank
        if self._smith is None:
            return [(0,) * d]
        vinv = unimodular_inverse(self._smith.V)
        return [combine(combine(c, vinv, r), self._sup.basis, d)
                for c in itertools.product(*map(range, self.divisors))]


def quotient_invariants(sub: LatticeBasis, sup: LatticeBasis) -> QuotientInvariants:
    """The quotient sup/sub for a sublattice sub of sup; torsion-free with
    no Smith form when sub is saturated (its own divisors are all 1), since
    then sup ∩ span(sub) lies in Z^d ∩ span(sub) = sub."""
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    for b in sub.basis:
        if not sup.contains(b):
            raise ValueError(f"{b} is not in the ambient lattice of the quotient")
    if not sub.basis:
        return QuotientInvariants((), sup.rank, sup, None)
    if all(d == 1 for d in sub.col_snf.divisors):
        return QuotientInvariants((1,) * sub.rank, sup.rank - sub.rank, sup,
                                  None)
    res = snf([solve_in_lattice(sup, b) for b in sub.basis])
    if res.rank != len(sub.basis):
        raise AssertionError("independent rows lost rank")
    return QuotientInvariants(res.divisors, sup.rank - sub.rank, sup, res)


def reduce_mod_lattice(L: LatticeBasis, v) -> Vector:
    """Canonical representative of v + L (reduction against the HNF basis)."""
    v = vec(v)
    for c, r in L.hnf_pivots:
        q = v[c] // r[c]
        if q:
            v = tuple([a - q * b for a, b in zip(v, r)])
    return v
