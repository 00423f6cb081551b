"""Exact dense linear algebra over prime fields GF(p).

Matrices over GF(2) are stored as bit-packed rows, one Python int per row in
``gfpoly``'s packed format, and reduced by the pure-Python Four Russians
kernel in lightsout._gf2kernel; other primes use residue rows, which
``_reduce_modp`` adds one at a time to a basis of monic rows.  Eliminations
go through ``_echelon``, except ``nullity``'s at p = 2, which reads only the
kernel's ``rank_bits``; the Krylov pass reduces its rows as it makes them.
The representation is this module's alone: construction, indexing and
equality behave identically for every modulus.

``krylov_relations`` presents GF(p)^n, x acting by v -> vA, by k cyclic
generators and their k x k relation matrix R (Keller-Gehrig, TCS 36, 1985;
Storjohann, ISSAC 1998) in O(n^2) row operations.  The invariant factors
of xI - A are n - k ones followed by those of R: k is mostly 1-4 for
random graphs and m on an m x m grid.  ``solve_sylvester`` chases the
lights along the same pass's basis: a km-row elimination, not an mn-row one.

Packed rows are read only where CLI verbs and brute-force oracles loop:
construction, entry access, elimination, the Krylov pass and the light chase,
``sylvester_operator``, ``hessenberg``, ``weight`` and ``mul_vec`` (over residue
rows the exhaustive press-set checks ran about 15 times slower).  ``+``, ``-``,
``@``, ``transpose``, ``inverse`` and ``kronecker`` are written once, over
residue rows, through ``_of_rows``.

All operations are pure functions on value-semantic inputs; nothing mutates
its arguments, so matrices can be shared freely across threads.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_left
from typing import NamedTuple, Sequence

from lightsout import _gf2kernel
from lightsout.gfpoly import Poly, _pack_bits, _unpack_bits, check_prime


class RankProfile(NamedTuple):
    """Rank, nullity and pivot columns of a row-reduced matrix."""

    rank: int
    nullity: int
    pivot_columns: tuple[int, ...]


class PrimeFieldMatrix:
    """Dense matrix of residues mod a prime p."""

    __slots__ = ("rows", "cols", "p", "_data")

    def __init__(self, entries: Sequence[Sequence[int]], p: int):
        check_prime(p)
        mat = [list(row) for row in entries]
        cols = len(mat[0]) if mat else 0
        if any(len(row) != cols for row in mat):
            raise ValueError("all rows must have the same length")
        built = self._of_rows(mat, cols, p)
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(built, name))

    def __setattr__(self, name, value):
        raise AttributeError("PrimeFieldMatrix is immutable")

    @classmethod
    def _packed(cls, cols: int, p: int, data: list) -> "PrimeFieldMatrix":
        """The matrix with ``data`` as its stored rows: ints at p = 2, residue lists otherwise."""
        m = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (len(data), cols, p, data)):
            object.__setattr__(m, name, value)
        return m

    @classmethod
    def _of_rows(cls, rows: Sequence[Sequence[int]], cols: int, p: int) -> "PrimeFieldMatrix":
        """The matrix of integer rows, reduced mod p and packed at p = 2.

        ``cols`` is explicit, so a matrix with no rows keeps its width.
        """
        data = [_pack_bits(r) for r in rows] if p == 2 else [[v % p for v in r] for r in rows]
        return cls._packed(cols, p, data)

    @classmethod
    def from_bits(cls, rows: Sequence[int], cols: int, p: int) -> "PrimeFieldMatrix":
        """The 0/1 matrix over GF(p) whose entry (i, j) is bit j of rows[i]."""
        check_prime(p)
        if any(bits >> cols for bits in rows):  # -1 for a negative row
            raise ValueError(f"every row must be a set of bits below bit {cols}")
        data = list(rows) if p == 2 else [[(b >> j) & 1 for j in range(cols)] for b in rows]
        return cls._packed(cols, p, data)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "PrimeFieldMatrix":
        return cls.from_bits([0] * rows, cols, p)

    @classmethod
    def identity(cls, n: int, p: int) -> "PrimeFieldMatrix":
        return cls.from_bits([1 << i for i in range(n)], n, p)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols}")
        if self.p == 2:
            return (self._data[i] >> j) & 1
        return self._data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        if self.p == 2:
            return _unpack_bits(self._data[i], self.cols)
        return tuple(self._data[i])

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix({self.rows}x{self.cols} over GF({self.p}))"

    # -- arithmetic --------------------------------------------------------

    def _check_same_shape(self, other: "PrimeFieldMatrix"):
        if self.p != other.p:
            raise ValueError(f"field mismatch: GF({self.p}) vs GF({other.p})")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        self._check_same_shape(other)
        pairs = zip(self.to_lists(), other.to_lists())
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in pairs]
        return self._of_rows(rows, self.cols, self.p)

    def __neg__(self) -> "PrimeFieldMatrix":
        return self._of_rows([[-v for v in row] for row in self.to_lists()], self.cols, self.p)

    def __sub__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        return self + (-other)

    def __matmul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        if self.p != other.p:
            raise ValueError(f"field mismatch: GF({self.p}) vs GF({other.p})")
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        columns = other.transpose().to_lists()
        rows = [[sum(a * b for a, b in zip(r, c)) for c in columns] for r in self.to_lists()]
        return self._of_rows(rows, other.cols, self.p)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: vector of length {len(v)}")
        if self.p == 2:
            bits = _pack_bits(v)
            return tuple((row & bits).bit_count() & 1 for row in self._data)
        p = self.p
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self._data)

    def transpose(self) -> "PrimeFieldMatrix":
        rows = self.to_lists()
        columns = [[row[j] for row in rows] for j in range(self.cols)]
        return self._of_rows(columns, self.rows, self.p)


def _reduce_modp(w: list, basis: list, ncols: int, p: int) -> bool:
    """Clear w's first ncols columns against ``basis`` in place; True if w joined it.

    basis[c] is None or a row monic at c, stored from c on; w joins, made
    monic, at its first nonzero column with None.  Entries are reduced mod
    p only where read, and w may run past ncols (the Krylov pass's tags).
    """
    for c in range(ncols):
        if f := w[c] % p:
            if (row := basis[c]) is None:
                inv = pow(f, -1, p)
                basis[c] = [a * inv % p for a in w[c:]]
                return True
            w[c : c + len(row)] = map(operator.sub, w[c:], map(f.__mul__, row))
    return False


def _echelon_modp(rows, ncols, p, reduced):
    basis: list = [None] * ncols
    for row in rows:
        _reduce_modp(list(row), basis, ncols, p)
    pivots = [c for c, row in enumerate(basis) if row is not None]
    out = [[0] * c + basis[c] for c in pivots]
    if reduced:  # clear above each pivot, right to left
        for k in range(len(pivots) - 1, -1, -1):
            c, prow = pivots[k], out[k]
            for row in out[:k]:
                if f := row[c]:
                    row[c:] = [(a - f * b) % p for a, b in zip(row[c:], prow[c:])]
    return out + [[0] * ncols for _ in range(len(rows) - len(pivots))], pivots


def _echelon(rows, ncols: int, p: int, reduced: bool):
    """Row-reduce packed rows (p = 2) or residue rows; returns (rows, pivots).

    A row per pivot, in pivot order, 1 there and 0 left of it, then zero
    rows; the pivots are column-at-a-time elimination's.  ``reduced`` gives
    the RREF; odd-p forward rows may differ from it right of their pivot.
    """
    if p == 2:
        # looked up at call time, so a wrapper bound on the module sees it
        return _gf2kernel.echelon_bits(rows, ncols, reduced=reduced)
    return _echelon_modp(rows, ncols, p, reduced)


def _profile(M: PrimeFieldMatrix, pivots: list[int]) -> RankProfile:
    return RankProfile(
        rank=len(pivots), nullity=M.cols - len(pivots), pivot_columns=tuple(pivots)
    )


def rref(M: PrimeFieldMatrix) -> tuple[PrimeFieldMatrix, RankProfile]:
    """Reduced row echelon form with its rank profile."""
    data, pivots = _echelon(M._data, M.cols, M.p, reduced=True)
    R = PrimeFieldMatrix._packed(M.cols, M.p, data)
    return R, _profile(M, pivots)


def rank_nullity(M: PrimeFieldMatrix) -> RankProfile:
    """Rank profile only; skips back-substitution."""
    _, pivots = _echelon(M._data, M.cols, M.p, reduced=False)
    return _profile(M, pivots)


def nullity(M: PrimeFieldMatrix) -> int:
    """Columns less rank.  At p = 2 the rank comes from ``_gf2kernel.rank_bits``
    (looked up at call time, as ``echelon_bits`` is), with no echelon rows."""
    if M.p == 2:
        return M.cols - _gf2kernel.rank_bits(M._data, M.cols)
    return rank_nullity(M).nullity


def _null_vector(rows, pivots: list[int], f: int, ncols: int, p: int) -> tuple[int, ...]:
    """The null-space vector of a forward echelon form at its free column f.

    x[f] = 1, x is 0 at the other free columns, and the pivot entries are
    filled right to left.  A pivot row has a 1 in its pivot column and 0s
    left of it, so the pivot entries right of f stay 0.
    """
    if p == 2:
        return _unpack_bits(_null_bits(rows, pivots, f), ncols)
    k = bisect_left(pivots, f)
    backward = list(zip(pivots[:k], rows[:k]))[::-1]  # pivots left of f, right to left
    x = [0] * ncols
    x[f] = 1
    for c, row in backward:
        x[c] = -sum(row[j] * x[j] for j in range(c + 1, f + 1)) % p
    return tuple(x)


def _null_bits(rows, pivots: list[int], f: int) -> int:
    """``_null_vector`` over GF(2), packed."""
    xbits = 1 << f
    for c, row in reversed(list(zip(pivots[: bisect_left(pivots, f)], rows))):
        if (row & xbits).bit_count() & 1:
            xbits |= 1 << c
    return xbits


def solve_system(M: PrimeFieldMatrix, b: Sequence[int]):
    """(x, nullity, certificate) of Mx = b from one forward elimination of [M | -b].

    x is the null vector at the last column: the solution read off the RREF,
    free variables 0, or None when b is outside the column space.  nullity
    is M's: its columns less the pivots left of the last.  Without an x, the
    certificate is the first null vector y of M, by free column, with
    y . b != 0, else None.  For a symmetric M that y is also a left null
    vector, so it proves b outside the column space, and one always exists.
    A plain tuple: a NamedTuple class would add to every CLI start.
    """
    if len(b) != M.rows:
        raise ValueError(f"dimension mismatch: {M.rows} rows vs {len(b)} entries")
    p = M.p
    n = M.cols
    if p == 2:
        aug = [row | ((v & 1) << n) for row, v in zip(M._data, b)]
    else:
        aug = [row + [-v % p] for row, v in zip(M._data, b)]
    rows, pivots = _echelon(aug, n + 1, p, reduced=False)
    k = bisect_left(pivots, n)
    if k == len(pivots):
        return _null_vector(rows, pivots, n, n + 1, p)[:n], n - k, None
    pivot_set = set(pivots)
    nulls = (_null_vector(rows, pivots, f, n + 1, p)[:n] for f in range(n) if f not in pivot_set)
    return None, n - k, next((y for y in nulls if sum(a * v for a, v in zip(y, b)) % p), None)


def solve(M: PrimeFieldMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One solution of Mx = b, free variables 0, or None when b is outside the column space."""
    return solve_system(M, b)[0]


def kernel_basis(M: PrimeFieldMatrix) -> list[tuple[int, ...]]:
    """Basis of the null space, one vector per free column.

    The vector at free column f is 1 there and 0 at the other free columns,
    which makes the basis the one read off the RREF; a forward elimination
    is enough to find it.
    """
    rows, pivots = _echelon(M._data, M.cols, M.p, reduced=False)
    pivot_set = set(pivots)
    return [
        _null_vector(rows, pivots, f, M.cols, M.p) for f in range(M.cols) if f not in pivot_set
    ]


def inverse(M: PrimeFieldMatrix) -> PrimeFieldMatrix | None:
    """Matrix inverse, or None when M is singular."""
    if not M.is_square:
        raise ValueError("only square matrices can be inverted")
    n = M.rows
    unit = PrimeFieldMatrix.identity(n, M.p).to_lists()
    aug = [row + e for row, e in zip(M.to_lists(), unit)]
    R, profile = rref(PrimeFieldMatrix._of_rows(aug, 2 * n, M.p))
    if profile.pivot_columns[:n] != tuple(range(n)):
        return None
    return PrimeFieldMatrix._of_rows([row[n:] for row in R.to_lists()], n, M.p)


def kronecker(M: PrimeFieldMatrix, N: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Kronecker product: block (i, j) of the result is M[i, j] * N."""
    if M.p != N.p:
        raise ValueError(f"field mismatch: GF({M.p}) vs GF({N.p})")
    nrows = N.to_lists()
    rows = [[a * b for a in mrow for b in nrow] for mrow in M.to_lists() for nrow in nrows]
    return PrimeFieldMatrix._of_rows(rows, M.cols * N.cols, M.p)


def weight(M: PrimeFieldMatrix) -> int:
    """The number of nonzero entries of M."""
    rows = M._data
    return sum(map(int.bit_count, rows)) if M.p == 2 else sum(len(r) - r.count(0) for r in rows)


def hessenberg(M: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """An upper Hessenberg matrix similar to the square GF(2) matrix M, by Gauss
    similarity transforms (Golub and Van Loan, *Matrix Computations*, section 7.4).
    Column c's pivot row r > c comes to row c + 1 by the transposition (r, c + 1);
    row c + 1 is added to each lower row with a 1 in column c, and their columns
    to column c + 1 (E^-1 = E)."""
    if M.p != 2 or not M.is_square:
        raise ValueError("Hessenberg reduction takes a square matrix over GF(2)")
    n, rows = M.rows, list(M._data)
    for c in range(n - 2):
        if not (below := [i for i in range(c + 1, n) if rows[i] >> c & 1]):
            continue
        if (r := below[0]) != c + 1:  # row c + 1 if it has a 1 in column c
            rows[r], rows[c + 1] = rows[c + 1], rows[r]
            swap = 1 << r | 1 << (c + 1)
            rows = [row ^ swap if (row >> r ^ row >> (c + 1)) & 1 else row for row in rows]
        if mask := sum(1 << i for i in below[1:]):
            for i in below[1:]:
                rows[i] ^= rows[c + 1]
            rows = [row ^ (row & mask).bit_count() % 2 << (c + 1) for row in rows]
    return PrimeFieldMatrix._packed(n, 2, rows)


def _spread_columns(rows, cols: int, stride: int) -> list[int]:
    """Each column j of the packed rows as an int, entry l at bit l * stride:
    at stride 1, the rows of the transpose.  One OR per set bit of the rows."""
    out = [0] * cols
    for l, row in enumerate(rows):
        bit = 1 << (l * stride)
        while row:
            out[j := row.bit_length() - 1] |= bit
            row ^= 1 << j
    return out


def sylvester_operator(A: PrimeFieldMatrix, B: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Matrix of X -> AX - XB on column-stacked X, i.e. kron(I, A) - kron(B^T, I).

    X is m x n; vec stacks columns, so entry (i, j) sits at index j*m + i.
    Built row by row rather than through two Kronecker products; the result
    is identical (tested) and the direct form keeps large operators cheap.
    """
    if A.p != B.p:
        raise ValueError(f"field mismatch: GF({A.p}) vs GF({B.p})")
    if not A.is_square or not B.is_square:
        raise ValueError("Sylvester operator requires square A and B")
    p = A.p
    m, n = A.rows, B.rows
    if p == 2:
        # Row j*m + i is A[i] placed at block j, minus B[l, j] at l*m + i for
        # each l: the latter is S_j << i with S_j the spread-out column j of B.
        blocks = zip((j * m for j in range(n)), _spread_columns(B._data, n, m))  # (j*m, S_j)
        data = [a << off ^ s << i for off, s in blocks for i, a in enumerate(A._data)]
    else:
        data = []
        for j in range(n):
            off = j * m
            for i in range(m):
                row = [0] * (m * n)
                arow = A._data[i]
                for k in range(m):
                    row[off + k] = arow[k]
                for l in range(n):
                    v = B._data[l][j]
                    if v:
                        idx = l * m + i
                        row[idx] = (row[idx] - v) % p
                data.append(row)
    return PrimeFieldMatrix._packed(m * n, p, data)


def _xor_rows(rows, u: int) -> int:
    """The XOR of rows[i] over u's set bits i, from the top: u times the matrix of packed rows."""
    w = 0
    while u:
        w ^= rows[t := u.bit_length() - 1]
        u ^= 1 << t
    return w


def krylov_relations(A: PrimeFieldMatrix) -> tuple[int, list[list]]:
    """(n - k, R) for GF(p)^n as a GF(p)[x]-module, x acting by v -> vA.

    Takes e_1, e_2, ... in turn, skipping each one already spanned, and
    extends the kept v_i by v_i A, v_i A^2, ... until v_i A^d_i reduces to
    zero against an echelon basis of every vector so far.  A basis row is a
    reduced vector with a tag, the Krylov combination it equals, so a zero
    reduction leaves the relation sum_j R_ij(x) v_j = 0 in its tag.
    R is lower triangular, R_ii is monic of degree d_i, R_ij has degree
    < d_j, and the d_i sum to n.  At p = 2 R's entries are packed ints, bit
    i the coefficient of x^i, sliced straight out of the packed tags; at odd
    p they are Poly.  Raises ValueError for a non-square matrix.
    """
    return A.rows - len(R := _krylov(A)[0]), R


def _krylov(A: PrimeFieldMatrix) -> tuple[list[list], list[int], list, list]:
    """(R, starts, vectors, basis): kept v_i A^t from starts[i], listed at p = 2 only.
    At p = 2 basis slot c + n + 2 of 2n + 2 holds the row u << (n + 1) | tag whose u
    leads at bit c; a tag takes n + 1 bits (the last relation sets bit n), so a vector
    that clears stops at an empty slot 0..n + 1, holding its tag.  At odd p basis[c]
    is None or the row monic at c, tag included."""
    if not A.is_square:
        raise ValueError("Krylov relations require a square matrix")
    n, p, rows = A.rows, A.p, A._data
    basis: list = [0] * (2 * n + 2) if p == 2 else [None] * n
    if p == 2:
        times_a = functools.partial(_xor_rows, rows)

        def reduce(u, m):  # the relation's packed tag, or None after adding a basis row
            w = u << (n + 1) | 1 << m
            while b := basis[t := w.bit_length()]:
                w ^= b
            if t <= n + 1:
                return w
            basis[t] = w
    else:
        def times_a(u):
            w = [0] * n
            for c, row in zip(u, rows):
                if c:
                    w = list(map(operator.add, w, map(c.__mul__, row)))
            return [a % p for a in w]

        def reduce(u, m):
            w = u + [0] * m + [1]
            return None if _reduce_modp(w, basis, n, p) else [a % p for a in w[n:]]
    starts, tags, vectors, m = [], [], [], 0
    for e in range(n):
        if m == n:
            break
        u, start = 1 << e if p == 2 else [int(j == e) for j in range(n)], m
        while (tag := reduce(u, m)) is None:
            if p == 2:  # only the light chase reads them; odd-p rows would double the pass's memory
                vectors.append(u)
            m, u = m + 1, times_a(u)
        if m > start:
            starts.append(start)
            tags.append(tag)
    zero = 0 if p == 2 else Poly.zero(p)
    R = [[zero] * len(tags) for _ in tags]
    for i, tag in enumerate(tags):
        for j, (lo, hi) in enumerate(zip(starts[: i + 1], starts[1:] + [n])):
            hi += i == j  # R_ii also takes the tag's last entry, its x^d_i coefficient 1
            if p == 2:
                R[i][j] = (tag >> lo) & ((1 << (hi - lo)) - 1)
            elif any(coeffs := tag[lo:hi]):
                R[i][j] = Poly(coeffs, p)
    return R, starts, vectors, basis


def _transpose_bits(v: int, rows: int, cols: int) -> int:
    """The packed vec of M^T, for v the packed vec of a rows x cols matrix M."""
    s = format(v, "b")[::-1].ljust(rows * cols, "0")  # s[j*rows + i] is M's entry (i, j)
    return int("".join(s[i::rows] for i in range(rows))[::-1] or "0", 2)


def solve_sylvester(A: PrimeFieldMatrix, B: PrimeFieldMatrix, b: Sequence[int]):
    """``solve_system(sylvester_operator(A, B), b)`` for symmetric A and B over GF(2):
    the same x and nullity and, without an x, a null vector y of L with y . b = 1.
    Raises ValueError otherwise.

    Light chasing (Anderson and Feil, Math. Mag. 71, 1998; Sutner, TCS 230, 2000)
    along B's Krylov basis K, or A's through B X^T + X^T A = C^T when that makes
    fewer rows.  Y = X K^T has columns y_(i,t) = X B^t v_i^T, and AX + XB = C gives
    y_(i,t+1) = c_(i,t) + A y_(i,t), c = C K^T, so z_i = y_(i,0) fixes block i and
    B's relations leave the km rows sum_j R_ij(A) z_j = e_i, e_i those sums over
    the chase from z = 0.  In echelon form by highest bit the lifted kernel's top
    bits are L's free columns, and clearing x there gives the elimination's x.
    """
    if A.p != 2 or B.p != 2 or any(_spread_columns(M._data, M.cols, 1) != M._data for M in (A, B)):
        raise ValueError("light chasing needs symmetric A and B over GF(2)")
    m, n = A.rows, B.rows
    if len(b) != m * n:
        raise ValueError(f"dimension mismatch: {m * n} rows vs {len(b)} entries")
    bits, krylov_a, krylov_b = _pack_bits(b), _krylov(A), _krylov(B)
    target, (R, starts, vectors, basis) = bits, krylov_b
    if transposed := len(krylov_a[0]) * n < len(krylov_b[0]) * m:
        A, m, n, target = B, n, m, _transpose_bits(bits, m, n)
        R, starts, vectors, basis = krylov_a
    rows, mask, blocks = A._data, (1 << m) - 1, list(zip(starts, starts[1:] + [n]))
    # K^-1's row col: the tag of slot col + n + 2's row less K^-1's rows at its vector's lower bits
    kinv, low = [], (1 << n) - 1
    for col, row in enumerate(basis[n + 2 :]):
        kinv.append((row ^ _xor_rows(kinv, row >> (n + 1) ^ 1 << col)) & low)
    # X = Y K^-T: X's column col sums Y's columns s at K^-1's 1s (col, s)
    spread = _spread_columns(kinv, n, m)
    columns = [target >> (j * m) & mask for j in range(n)]
    c = [_xor_rows(columns, v) for v in vectors]

    def chase(y, lo, hi, c):  # y_(i,t) for t = 0 .. hi - lo, the block of vectors lo .. hi - 1
        ys = [y]
        for s in range(lo, hi):
            ys.append(c[s] ^ _xor_rows(rows, ys[-1]))
        return ys

    def lift(z, c):  # vec X of the chase from z; a block with z_i = 0 and c = 0 stays 0
        x = 0
        for j, (lo, hi) in enumerate(blocks):
            if (y := z >> (j * m) & mask) or any(c[lo:hi]):
                for y_t, s in zip(chase(y, lo, hi - 1, c), range(lo, hi)):
                    x ^= y_t * spread[s]
        return _transpose_bits(x, m, n) if transposed else x

    # powers[t] holds A^t's rows, row r at bit r*m: row r of A^(t+1) sums A's rows at A^t's 1s (r, s)
    ones, powers = sum(1 << (r * m) for r in range(m)), [sum(1 << (r * m + r) for r in range(m))]
    for _ in range(max((hi - lo for lo, hi in blocks), default=0)):  # deg R_ii
        nxt = 0
        for s, row in enumerate(rows):
            nxt ^= (powers[-1] >> s & ones) * row
        powers.append(nxt)
    km, w, aug = len(R) * m, [chase(0, lo, hi, c) for lo, hi in blocks], []
    for i, relation in enumerate(R):
        values = [_xor_rows(powers, f) for f in relation[: i + 1]]  # the R_ij(A)
        e = functools.reduce(operator.xor, map(_xor_rows, w, relation[: i + 1]), 0)  # e_i
        for r in range(m):
            row = sum((v >> (r * m) & mask) << (j * m) for j, v in enumerate(values))
            aug.append(row | (e >> r & 1) << km)
    echelon, pivot_columns = _echelon(aug, km + 1, 2, reduced=False)
    taken = set(pivot_columns)
    nulls = [_null_bits(echelon, pivot_columns, f) for f in range(km + 1) if f not in taken]
    top: dict = {}  # highest bit -> L's null vector
    for v in (lift(z, [0] * n) for z in nulls if not z >> km):
        while (f := v.bit_length() - 1) in top:
            v ^= top[f]
        top[f] = v
    if km in taken:
        y = next((v for v in top.values() if (v & bits).bit_count() & 1), None)
        return None, len(top), None if y is None else _unpack_bits(y, m * n)
    x = lift(nulls[-1] ^ 1 << km, c)
    for f in sorted(top, reverse=True):
        if x >> f & 1:
            x ^= top[f]
    return _unpack_bits(x, m * n), len(top), None
