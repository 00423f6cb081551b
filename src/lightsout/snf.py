"""Smith normal form and invariant factors over GF(p)[x].

``invariant_factors(A)`` never builds the n x n matrix xI - A: it takes
n - k ones and the invariant factors of the k x k relation matrix R of
``gfmat.krylov_relations``.

``smith_normal_form`` diagonalizes by Euclidean division, then turns the
diagonal into the ordered invariant factors s_1 | s_2 | ... | s_m by gcd/lcm
exchanges, in one loop at every p on ``gfpoly.poly_ops``: the field's working
form and its operations.  Its ``SnfResult`` keeps the non-unit factors in that
form, for the charpoly product and ``formulas``' gcd degrees, and builds their
Poly on first read.  ``char_matrix`` returns the rows of xI - A, the
tests' reference route.  Two independent routes to the characteristic
polynomial are provided: the product of the invariant factors, and a
division-free (Berkowitz) expansion over the integers reduced mod p.  They
must agree; the test suite leans on that cross-check heavily.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from lightsout.gfmat import PrimeFieldMatrix, krylov_relations
from lightsout.gfpoly import Factorization, Frozen, Poly, check_prime, factor, poly_key, poly_ops


class SnfResult(Frozen):
    """Ordered invariant factors of a polynomial matrix: s_i divides s_{i+1}.

    ``field`` is p (None with no factors), ``ones`` counts the unit factors
    and ``factors`` holds the others, in order and monic, in
    ``gfpoly.poly_ops(field)``'s working form.  A Smith form result builds its
    Poly ``invariant_factors`` on first read (``len`` reads none); one built
    from Poly keeps them, and raises as ``smith_normal_form`` does for an
    entry that is not a Poly or for entries over different fields.
    ``==``, ``hash`` and ``repr`` read the Poly factors only.
    """

    __slots__ = ("field", "ones", "factors", "_polys")

    def __init__(self, invariant_factors: tuple[Poly, ...]):
        field = _field((invariant_factors,))
        factors = tuple([poly_ops(field).from_poly(f) for f in invariant_factors if f.degree])
        self._fill(field, len(invariant_factors) - len(factors), factors, invariant_factors)

    @classmethod
    def _of(cls, field: int | None, ones: int, factors: tuple) -> SnfResult:
        s = object.__new__(cls)
        s._fill(field, ones, factors, None if field else ())
        return s

    @property
    def invariant_factors(self) -> tuple[Poly, ...]:
        if self._polys is None:  # a result of the Smith form, read the first time
            ops = poly_ops(self.field)
            polys = (ops.to_poly(ops.one),) * self.ones + tuple(map(ops.to_poly, self.factors))
            object.__setattr__(self, "_polys", polys)
        return self._polys

    def __eq__(self, other) -> bool:
        if type(other) is not SnfResult:
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self) -> int:
        return hash(self.invariant_factors)

    def __repr__(self) -> str:
        return f"SnfResult(invariant_factors={self.invariant_factors!r})"

    def __len__(self) -> int:
        return self.ones + len(self.factors)

    def nontrivial(self) -> tuple[Poly, ...]:
        """The invariant factors of degree >= 1."""
        return tuple(f for f in self.invariant_factors if f.degree)

    def __str__(self) -> str:
        return ", ".join(str(f) for f in self.invariant_factors)


class FactorData(Frozen):
    """Per-matrix map {irreducible monic poly -> exponents across invariant factors}.

    Exponent lists omit zeros and are nondecreasing along the divisibility
    chain; over a finite field the entries for an irreducible are exactly the
    Jordan block sizes attached to its roots.
    """

    __slots__ = ("exponents",)
    __hash__ = None

    def __init__(self, exponents: dict[Poly, tuple[int, ...]]):
        self._fill(exponents)

    def __str__(self) -> str:
        return "; ".join(
            f"{q}: {list(es)}" for q, es in self.exponents.items()
        )


def char_matrix(A: PrimeFieldMatrix) -> list[list[Poly]]:
    """The rows of the characteristic matrix xI - A over GF(p)[x].

    The reference route of the tests: ``invariant_factors`` never builds it.
    """
    if not A.is_square:
        raise ValueError("characteristic matrix requires a square matrix")
    return [
        [Poly((-c, int(i == j)), A.p) for j, c in enumerate(row)]
        for i, row in enumerate(A.to_lists())
    ]


def _field(rows: Sequence[Sequence[Poly]]) -> int | None:
    """The field shared by every entry, or None for no entries.

    Raises TypeError for an entry that is not a Poly and ValueError for
    mixed fields, as Poly arithmetic does.
    """
    p = None
    for row in rows:
        for f in row:
            if not isinstance(f, Poly):
                raise TypeError(f"matrix entries must be Poly, not {type(f).__name__}")
            if p is None:
                p = f.p
            elif f.p != p:
                raise ValueError(f"field mismatch: GF({p}) vs GF({f.p})")
    return p


def smith_normal_form(M: Sequence[Sequence[Poly | int]], packed: bool = False) -> SnfResult:
    """Invariant factors of a square polynomial matrix, given as rows.

    Phase 1 diagonalizes: move a minimum-degree entry of the trailing
    submatrix to the pivot and clear its row and column by Euclidean
    division; a nonzero remainder has lower degree than the pivot and
    becomes the next pivot, so this terminates.  A unit pivot divides
    everything with remainder 0, so one pass clears it.  Phase 2 fixes the
    divisibility chain on the diagonal alone, since diag(a, b) is
    equivalent to diag(gcd(a, b), lcm(a, b)) over a PID.  The non-unit
    factors are made monic at the end.

    The loop runs on ``gfpoly.poly_ops``' working form of the field, and
    the result keeps its non-unit factors in it.  With ``packed`` the
    entries are GF(2) polynomials in that form already, packed into ints
    (R as ``krylov_relations`` returns it at p = 2), and are taken as they
    are; otherwise they are Poly, taken into the working form.

    Raises ValueError for non-square input, entries over different fields,
    or a singular matrix (a diagonal entry would be zero); R and xI - A are
    never singular.  Raises TypeError for an entry that is not a Poly
    (an int, unless ``packed``).
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("Smith normal form is implemented for square matrices")
    field = 2 if packed and n else _field(M)
    size, divmod_, sub, mul, gcd, monic, _, _, from_poly = poly_ops(field or 2)  # n = 0: none run
    a = [list(row if packed else map(from_poly, row)) for row in M]
    for k in range(n):  # phase 1: diagonalize
        while True:
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    s = size(a[i][j])
                    if s and (best is None or s < best[0]):
                        best = (s, i, j)
                if best and best[0] == 1:
                    break
            if best is None:
                raise ValueError(
                    f"zero determinant: diagonal entry {k+1} of {n} would vanish"
                )
            _, bi, bj = best
            a[k], a[bi] = a[bi], a[k]
            for row in a[k:]:
                row[k], row[bj] = row[bj], row[k]
            krow = a[k]
            pivot = krow[k]
            for row in a[k + 1 :]:
                if row[k]:
                    q, row[k] = divmod_(row[k], pivot)
                    for j in range(k + 1, n):
                        if krow[j]:
                            row[j] = sub(row[j], mul(q, krow[j]))
            for j in range(k + 1, n):
                if krow[j]:
                    q, krow[j] = divmod_(krow[j], pivot)
                    for row in a[k + 1 :]:
                        if row[k]:
                            row[j] = sub(row[j], mul(q, row[k]))
            if not any(krow[k + 1 :]) and not any(row[k] for row in a[k + 1 :]):
                break
    d = [a[k][k] for k in range(n)]
    for i in range(n):  # phase 2: a unit d[i] already divides the rest
        for j in range(i + 1, n):
            if size(d[i]) == 1:
                break
            g = gcd(d[i], d[j])
            d[i], d[j] = g, divmod_(mul(d[i], d[j]), g)[0]
    # From a list: tuple() of a generator allocates a 10-slot tuple and resizes
    # it, which parks memory on the interpreter's tuple free lists every call
    factors = tuple([monic(f) for f in d if size(f) > 1])
    return SnfResult._of(field, n - len(factors), factors)


def invariant_factors(A: PrimeFieldMatrix) -> SnfResult:
    """Invariant factors of xI - A: n - k ones, then those of ``krylov_relations``' R.

    R presents the module of A^T, whose invariant factors are A's.  At odd
    p R carries signs (R_ii = x^d_i - ...); the factors come out monic.
    """
    ones, R = krylov_relations(A)
    s = smith_normal_form(R, packed=A.p == 2)
    return SnfResult._of(s.field, ones + s.ones, s.factors)


def charpoly_from_snf(s: SnfResult, p: int | None = None) -> Poly:
    """Characteristic polynomial as the product of the invariant factors.

    The factors carry their field; ``p`` names it for an empty list (a
    0-vertex graph), whose product is 1.  The product runs on the result's
    non-unit ``factors`` in the field's working form and builds one Poly.
    Raises ValueError when ``p`` names another field than the factors'.
    """
    field = s.field or p
    if field is None:
        raise ValueError("empty invariant factor list has no field; pass p")
    if p is not None and p != field:
        raise ValueError(f"field mismatch: GF({field}) vs GF({p})")
    ops = poly_ops(field)
    return ops.to_poly(reduce(ops.mul, s.factors, ops.one))


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
