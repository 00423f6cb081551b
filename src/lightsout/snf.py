"""Smith normal form of characteristic matrices over GF(p)[x].

The reduction works on square matrices of polynomials and produces the
ordered invariant factors s_1 | s_2 | ... | s_m, each monic.  Two
independent routes to the characteristic polynomial are provided: the
product of the invariant factors, and a division-free (Berkowitz) expansion
over the integers reduced mod p.  They must agree; the test suite leans on
that cross-check heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from lightsout.gfmat import PrimeFieldMatrix
from lightsout.gfpoly import Factorization, Poly, check_prime, factor, poly_key, prod


class PolyMatrix:
    """Square-or-rectangular matrix of Poly entries sharing one field."""

    __slots__ = ("rows", "cols", "p", "_data")

    def __init__(self, entries: Sequence[Sequence[Poly]], p: int):
        check_prime(p)
        mat = [list(row) for row in entries]
        rows = len(mat)
        cols = len(mat[0]) if mat else 0
        for row in mat:
            if len(row) != cols:
                raise ValueError("all rows must have the same length")
            for e in row:
                if not isinstance(e, Poly) or e.p != p:
                    raise ValueError(f"entries must be Poly over GF({p})")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_data", mat)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij: tuple[int, int]) -> Poly:
        i, j = ij
        return self._data[i][j]

    def to_lists(self) -> list[list[Poly]]:
        return [list(row) for row in self._data]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.p == other.p and self._data == other._data

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols} over GF({self.p})[x])"


@dataclass(frozen=True)
class SnfResult:
    """Ordered invariant factors of a polynomial matrix: s_i divides s_{i+1}."""

    invariant_factors: tuple[Poly, ...]

    def __iter__(self):
        return iter(self.invariant_factors)

    def __len__(self) -> int:
        return len(self.invariant_factors)

    @property
    def field(self) -> int | None:
        return self.invariant_factors[0].p if self.invariant_factors else None

    def nontrivial(self) -> tuple[Poly, ...]:
        """The invariant factors of degree >= 1."""
        return tuple(f for f in self.invariant_factors if f.degree)

    def __str__(self) -> str:
        return ", ".join(str(f) for f in self.invariant_factors)


@dataclass
class FactorData:
    """Per-matrix map {irreducible monic poly -> exponents across invariant factors}.

    Exponent lists omit zeros and are nondecreasing along the divisibility
    chain; over a finite field the entries for an irreducible are exactly the
    Jordan block sizes attached to its roots.
    """

    exponents: dict[Poly, tuple[int, ...]]

    def irreducibles(self) -> tuple[Poly, ...]:
        return tuple(self.exponents)

    def __str__(self) -> str:
        return "; ".join(
            f"{q}: {list(es)}" for q, es in self.exponents.items()
        )


def char_matrix(A: PrimeFieldMatrix) -> PolyMatrix:
    """The characteristic matrix xI - A over GF(p)[x]."""
    if not A.is_square:
        raise ValueError("characteristic matrix requires a square matrix")
    p = A.p
    n = A.rows
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            a = A[i, j]
            if i == j:
                row.append(Poly(((-a) % p, 1), p))
            else:
                row.append(Poly.constant((-a) % p, p))
        entries.append(row)
    return PolyMatrix(entries, p)


def _move_min_pivot(a: list[list[Poly]], k: int, n: int) -> bool:
    """Swap a minimum-degree nonzero entry of a[k:, k:] into position (k, k).

    Ties break on the smallest (row, column) pair.  Returns False when the
    submatrix is entirely zero.
    """
    best = None
    best_deg = -1
    for i in range(k, n):
        for j in range(k, n):
            e = a[i][j]
            if e.is_zero:
                continue
            if best is None or e.degree < best_deg:
                best = (i, j)
                best_deg = e.degree
    if best is None:
        return False
    bi, bj = best
    if bi != k:
        a[k], a[bi] = a[bi], a[k]
    if bj != k:
        for row in a:
            row[k], row[bj] = row[bj], row[k]
    return True


def smith_normal_form(M: PolyMatrix) -> SnfResult:
    """Diagonalize a square polynomial matrix into its invariant factors.

    Classic reduction: pull a minimum-degree entry to the pivot, clear its
    row and column by Euclidean division (remainders strictly drop the
    minimum degree, so this terminates), then fold any submatrix entry not
    divisible by the pivot into the pivot row and repeat.  Diagonal entries
    are normalized monic at the end.

    Raises ValueError for non-square input or a singular matrix (a diagonal
    entry would be zero); xI - A is never singular.
    """
    if M.rows != M.cols:
        raise ValueError("Smith normal form is implemented for square matrices")
    n = M.rows
    a = M.to_lists()
    diagonal: list[Poly] = []
    for k in range(n):
        if not _move_min_pivot(a, k, n):
            raise ValueError(
                f"zero determinant: diagonal entry {k+1} of {n} would vanish"
            )
        while True:
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k].is_zero:
                    continue
                q = a[i][k] // pivot
                if not q.is_zero:
                    arow, krow = a[i], a[k]
                    for j in range(k, n):
                        arow[j] = arow[j] - q * krow[j]
                if not a[i][k].is_zero:
                    dirty = True
            for j in range(k + 1, n):
                if a[k][j].is_zero:
                    continue
                q = a[k][j] // pivot
                if not q.is_zero:
                    for i in range(k, n):
                        a[i][j] = a[i][j] - q * a[i][k]
                if not a[k][j].is_zero:
                    dirty = True
            if dirty:
                _move_min_pivot(a, k, n)
                continue
            offender = None
            for i in range(k + 1, n):
                row = a[i]
                if any(not (row[j] % pivot).is_zero for j in range(k + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            orow = a[offender]
            krow = a[k]
            for j in range(k, n):
                krow[j] = krow[j] + orow[j]
        diagonal.append(a[k][k].monic())
    return SnfResult(tuple(diagonal))


def invariant_factors(A: PrimeFieldMatrix) -> SnfResult:
    """Invariant factors of xI - A."""
    return smith_normal_form(char_matrix(A))


def charpoly_from_snf(s: SnfResult, p: int | None = None) -> Poly:
    """Characteristic polynomial as the product of the invariant factors.

    The factors carry their field; ``p`` names it for an empty list (a
    0-vertex graph), whose product is 1.
    """
    field = s.field or p
    if field is None:
        raise ValueError("empty invariant factor list has no field; pass p")
    return prod(s.invariant_factors, field)


def charpoly_oracle(A, p: int) -> Poly:
    """Characteristic polynomial det(xI - A), division-free, reduced mod p.

    Accepts a PrimeFieldMatrix or any square nested sequence of integers.
    Coefficients are expanded exactly over the integers (Berkowitz-style
    iteration on trailing principal submatrices), then reduced, so the
    result is independent of the Smith normal form machinery.
    """
    check_prime(p)
    if isinstance(A, PrimeFieldMatrix):
        rows = A.to_lists()
    else:
        rows = [list(r) for r in A]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("characteristic polynomial requires a square matrix")
    coeffs = [1]  # descending coefficients of det(xI - A[k:, k:])
    for k in range(n - 1, -1, -1):
        a = rows[k][k]
        tail = n - k - 1
        right = rows[k][k + 1 :]
        down = [rows[i][k] for i in range(k + 1, n)]
        col = [1, -a]
        w = down
        for step in range(tail):
            col.append(-sum(r * v for r, v in zip(right, w)))
            if step + 1 < tail:
                w = [
                    sum(rows[k + 1 + i][k + 1 + j] * w[j] for j in range(tail))
                    for i in range(tail)
                ]
        new = [0] * (len(coeffs) + 1)
        for i in range(len(new)):
            lo = max(0, i - len(col) + 1)
            acc = 0
            for j in range(lo, min(i, len(coeffs) - 1) + 1):
                acc += col[i - j] * coeffs[j]
            new[i] = acc
        coeffs = new
    return Poly([c % p for c in reversed(coeffs)], p)


def factor_data(s: SnfResult) -> FactorData:
    """Group the invariant factors by irreducible: {q -> exponent list}."""
    gathered: dict[Poly, list[int]] = {}
    for f in s.invariant_factors:
        if not f.degree:
            continue
        decomposition: Factorization = factor(f)
        for q, e in decomposition.factors:
            gathered.setdefault(q, []).append(e)
    ordered = sorted(gathered, key=poly_key)
    return FactorData({q: tuple(gathered[q]) for q in ordered})
