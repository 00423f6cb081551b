"""Shared generators and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
solution sets come from exhaustive enumeration, determinants from cofactor
expansion, divisor lists from scanning every monic polynomial of bounded
degree.
"""

from __future__ import annotations

import random
from itertools import product

from lightsout import gfmat
from lightsout.gfmat import PrimeFieldMatrix
from lightsout.gfpoly import Poly


def random_symmetric01(n: int, rng: random.Random) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.getrandbits(1)
    return rows


def random_matrix01(rows: int, cols: int, rng: random.Random) -> list[list[int]]:
    return [[rng.getrandbits(1) for _ in range(cols)] for _ in range(rows)]


def random_modp_matrix(rows: int, cols: int, p: int, rng: random.Random):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def random_invertible(n: int, p: int, rng: random.Random) -> PrimeFieldMatrix:
    while True:
        M = PrimeFieldMatrix(random_modp_matrix(n, n, p, rng), p)
        if gfmat.inverse(M) is not None:
            return M


def all_vectors(n: int, p: int = 2):
    """Every vector in GF(p)^n."""
    return product(range(p), repeat=n)


def brute_force_solutions(M: PrimeFieldMatrix, b) -> list[tuple[int, ...]]:
    """All x with Mx = b, by enumerating GF(p)^cols.  Keep cols small."""
    target = tuple(v % M.p for v in b)
    return [x for x in all_vectors(M.cols, M.p) if M.mul_vec(x) == target]


def commuting_pairs_dimension(A: PrimeFieldMatrix, B: PrimeFieldMatrix) -> int:
    """log_p of the number of X with AX = XB, by enumerating all m x n matrices."""
    p = A.p
    m, n = A.rows, B.rows
    count = 0
    for entries in product(range(p), repeat=m * n):
        X = PrimeFieldMatrix([entries[i * n : (i + 1) * n] for i in range(m)], p)
        if A @ X == X @ B:
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count, "solution count must be a power of the field size"
    return dim


def all_monic_polys(p: int, degree: int):
    """Every monic polynomial of exactly `degree` over GF(p)."""
    for lower in product(range(p), repeat=degree):
        yield Poly(lower + (1,), p)


def poly_det_cofactor(entries: list[list[Poly]], p: int) -> Poly:
    """Determinant of a small polynomial matrix by cofactor expansion."""
    n = len(entries)
    if n == 0:
        return Poly.one(p)
    if n == 1:
        return entries[0][0]
    total = Poly.zero(p)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = entries[0][j] * poly_det_cofactor(minor, p)
        total = total - term if j % 2 else total + term
    return total


def echelon_bits_by_columns(rows, ncols, reduced=True):
    """Column-at-a-time GF(2) elimination: the reference for the pure kernel.

    Its output defines the ``echelon_bits`` contract, so the striped pure
    kernel must match it bit for bit in both modes.
    """
    out = list(rows)
    m = len(out)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        mask = 1 << c
        pr = -1
        for i in range(r, m):
            if out[i] & mask:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            out[r], out[pr] = out[pr], out[r]
        piv = out[r]
        start = 0 if reduced else r + 1
        for i in range(start, m):
            if i != r and out[i] & mask:
                out[i] ^= piv
        pivots.append(c)
        r += 1
    return out, pivots
