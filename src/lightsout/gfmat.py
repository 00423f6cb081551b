"""Exact dense linear algebra over prime fields GF(p).

Matrices over GF(2) are stored as bit-packed rows (one Python int per row)
and reduced by the pure-Python Four Russians kernel in lightsout._gf2kernel;
other primes use residue rows with schoolbook elimination.  Every
elimination goes through ``_echelon``.  The representation is
internal: construction, indexing and equality behave identically for every
modulus.

All operations are pure functions on value-semantic inputs; nothing mutates
its arguments, so matrices can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from lightsout import _gf2kernel
from lightsout.gfpoly import check_prime


def _pack_bits(values: Iterable[int]) -> int:
    bits = 0
    for j, v in enumerate(values):
        if v & 1:
            bits |= 1 << j
    return bits


def _unpack_bits(bits: int, n: int) -> tuple[int, ...]:
    # from a list: tuple() of a generator over-allocates and resizes, which
    # parks memory on the interpreter's tuple free lists every call
    return tuple([(bits >> j) & 1 for j in range(n)])


def _iter_bits(bits: int):
    """Yield the indices of set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class RankProfile:
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
        rows = len(mat)
        cols = len(mat[0]) if mat else 0
        for row in mat:
            if len(row) != cols:
                raise ValueError("all rows must have the same length")
        if p == 2:
            data = [_pack_bits(row) for row in mat]
        else:
            data = [[v % p for v in row] for row in mat]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeFieldMatrix is immutable")

    @classmethod
    def _packed(cls, rows: int, cols: int, p: int, data) -> "PrimeFieldMatrix":
        m = cls.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "p", p)
        object.__setattr__(m, "_data", data)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "PrimeFieldMatrix":
        check_prime(p)
        data = [0] * rows if p == 2 else [[0] * cols for _ in range(rows)]
        return cls._packed(rows, cols, p, data)

    @classmethod
    def identity(cls, n: int, p: int) -> "PrimeFieldMatrix":
        check_prime(p)
        if p == 2:
            data = [1 << i for i in range(n)]
        else:
            data = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return cls._packed(n, n, p, data)

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
        if self.p == 2:
            data = [a ^ b for a, b in zip(self._data, other._data)]
        else:
            p = self.p
            data = [
                [(a + b) % p for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        return PrimeFieldMatrix._packed(self.rows, self.cols, self.p, data)

    def __neg__(self) -> "PrimeFieldMatrix":
        if self.p == 2:
            return self
        data = [[(-v) % self.p for v in row] for row in self._data]
        return PrimeFieldMatrix._packed(self.rows, self.cols, self.p, data)

    def __sub__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        return self + (-other)

    def __matmul__(self, other: "PrimeFieldMatrix") -> "PrimeFieldMatrix":
        if self.p != other.p:
            raise ValueError(f"field mismatch: GF({self.p}) vs GF({other.p})")
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        if self.p == 2:
            data = []
            for bits in self._data:
                acc = 0
                for j in _iter_bits(bits):
                    acc ^= other._data[j]
                data.append(acc)
        else:
            p = self.p
            cols = other.cols
            data = []
            for row in self._data:
                acc = [0] * cols
                for j, v in enumerate(row):
                    if v:
                        orow = other._data[j]
                        for k in range(cols):
                            acc[k] += v * orow[k]
                data.append([v % p for v in acc])
        return PrimeFieldMatrix._packed(self.rows, other.cols, self.p, data)

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: vector of length {len(v)}")
        if self.p == 2:
            bits = _pack_bits(v)
            return tuple((row & bits).bit_count() & 1 for row in self._data)
        p = self.p
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self._data)

    def transpose(self) -> "PrimeFieldMatrix":
        if self.p == 2:
            data = [
                _pack_bits((self._data[i] >> j) & 1 for i in range(self.rows))
                for j in range(self.cols)
            ]
        else:
            data = [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return PrimeFieldMatrix._packed(self.cols, self.rows, self.p, data)


def _echelon_modp(rows, ncols, p, reduced):
    out = [list(r) for r in rows]
    m = len(out)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if out[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            out[r], out[pr] = out[pr], out[r]
        inv = pow(out[r][c], -1, p)
        if inv != 1:
            out[r] = [(v * inv) % p for v in out[r]]
        prow = out[r]
        start = 0 if reduced else r + 1
        for i in range(start, m):
            if i != r:
                f = out[i][c]
                if f:
                    out[i] = [(a - f * b) % p for a, b in zip(out[i], prow)]
        pivots.append(c)
        r += 1
    return out, pivots


def _echelon(rows, ncols: int, p: int, reduced: bool):
    """Row-reduce packed rows (p = 2) or residue rows; returns (rows, pivots)."""
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
    R = PrimeFieldMatrix._packed(M.rows, M.cols, M.p, data)
    return R, _profile(M, pivots)


def rank_nullity(M: PrimeFieldMatrix) -> RankProfile:
    """Rank profile only; skips back-substitution."""
    _, pivots = _echelon(M._data, M.cols, M.p, reduced=False)
    return _profile(M, pivots)


def solve(M: PrimeFieldMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One solution of Mx = b, or None when b is outside the column space.

    Free variables are 0, so the solution is the one read off the RREF of
    [M | b]; it is found by forward elimination and back-substitution.
    """
    if len(b) != M.rows:
        raise ValueError(f"dimension mismatch: {M.rows} rows vs {len(b)} entries")
    p = M.p
    n = M.cols
    if p == 2:
        aug = [row | ((v & 1) << n) for row, v in zip(M._data, b)]
    else:
        aug = [row + [v % p] for row, v in zip(M._data, b)]
    data, pivots = _echelon(aug, n + 1, p, reduced=False)
    if pivots and pivots[-1] == n:
        return None
    # Pivot rows have a 1 in their pivot column and 0 left of it; fill the
    # pivot variables right to left.  At p = 2, x is the bit set xbits.
    xbits = 0
    x = [0] * n
    for k in range(len(pivots) - 1, -1, -1):
        c, row = pivots[k], data[k]
        if p == 2:
            if ((row >> n) ^ (row & xbits).bit_count()) & 1:
                xbits |= 1 << c
        else:
            x[c] = (row[n] - sum(row[j] * x[j] for j in range(c + 1, n))) % p
    return _unpack_bits(xbits, n) if p == 2 else tuple(x)


def kernel_basis(M: PrimeFieldMatrix) -> list[tuple[int, ...]]:
    """Basis of the null space, one vector per free column of the RREF."""
    R, profile = rref(M)
    pivot_set = set(profile.pivot_columns)
    basis = []
    for f in range(M.cols):
        if f in pivot_set:
            continue
        v = [0] * M.cols
        v[f] = 1
        for k, c in enumerate(profile.pivot_columns):
            coeff = R[k, f]
            if coeff:
                v[c] = (-coeff) % M.p
        basis.append(tuple(v))
    return basis


def inverse(M: PrimeFieldMatrix) -> PrimeFieldMatrix | None:
    """Matrix inverse, or None when M is singular."""
    if not M.is_square:
        raise ValueError("only square matrices can be inverted")
    n = M.rows
    p = M.p
    if p == 2:
        aug = [M._data[i] | (1 << (n + i)) for i in range(n)]
    else:
        aug = [M._data[i] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    data, pivots = _echelon(aug, 2 * n, p, reduced=True)
    if len(pivots) < n or pivots[n - 1] != n - 1:
        return None
    out = [row >> n for row in data] if p == 2 else [row[n:] for row in data]
    return PrimeFieldMatrix._packed(n, n, p, out)


def kronecker(M: PrimeFieldMatrix, N: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Kronecker product: block (i, j) of the result is M[i, j] * N."""
    if M.p != N.p:
        raise ValueError(f"field mismatch: GF({M.p}) vs GF({N.p})")
    p = M.p
    if p == 2:
        data = []
        for mbits in M._data:
            for nbits in N._data:
                acc = 0
                for j in _iter_bits(mbits):
                    acc |= nbits << (j * N.cols)
                data.append(acc)
    else:
        data = []
        for mrow in M._data:
            for nrow in N._data:
                out = [0] * (M.cols * N.cols)
                for j, mv in enumerate(mrow):
                    if mv:
                        base = j * N.cols
                        for k, nv in enumerate(nrow):
                            out[base + k] = (mv * nv) % p
                data.append(out)
    return PrimeFieldMatrix._packed(M.rows * N.rows, M.cols * N.cols, p, data)


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
        spread = [
            sum(1 << (l * m) for l in range(n) if B._data[l] >> j & 1) for j in range(n)
        ]
        data = [
            (A._data[i] << (j * m)) ^ (spread[j] << i) for j in range(n) for i in range(m)
        ]
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
    return PrimeFieldMatrix._packed(m * n, m * n, p, data)
