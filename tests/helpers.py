"""Shared generators and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
solution sets come from exhaustive enumeration, determinants from cofactor
expansion, divisor lists from scanning every monic polynomial of bounded
degree.
"""

from __future__ import annotations

import random
from itertools import product

from lightsout import formulas, gfmat
from lightsout.gfmat import PrimeFieldMatrix
from lightsout.gfpoly import Poly
from lightsout.snf import SnfResult


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


def spread_columns_by_entries(rows, cols, stride):
    """Column j of the packed rows as an int with entry (l, j) at bit l * stride,
    read one entry at a time: the reference for ``gfmat._spread_columns``."""
    return [
        sum(((row >> j) & 1) << (l * stride) for l, row in enumerate(rows)) for j in range(cols)
    ]


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


def echelon_modp_by_columns(rows, ncols, p, reduced=True):
    """Column-at-a-time elimination over GF(p), p odd: the twin of ``echelon_bits_by_columns``.

    The loop ``gfmat`` ran before it reduced one row at a time: the pivot is
    the first row at or below r with a nonzero entry in column c, scaled to
    1, and cleared from every row below it (or from every other row when
    ``reduced``).  Its pivots and RREF define the odd-p ``_echelon`` contract.
    """
    out = [list(r) for r in rows]
    m = len(out)
    pivots: list[int] = []
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


def product_solve_two_eliminations(A: PrimeFieldMatrix, B: PrimeFieldMatrix):
    """(solvable, presses, solution_exponent) of the all-on product game over GF(2).

    The route ``solve --g --h`` took before it read all three off one
    elimination: the nullity from the elimination oracle, and X from a
    second, column-at-a-time forward elimination of [L | vec C], as its null
    vector at the last column (free variables 0).  The cells are the CLI
    row's: presses are X's rows joined by "/", entry (i, j) at index j*m + i.
    """
    m, n = A.rows, B.rows
    nu = formulas.oracle_nullity(A, B)
    last = 1 << m * n
    L = gfmat.sylvester_operator(A, B)
    rows, pivots = echelon_bits_by_columns([row | last for row in L._data], m * n + 1, False)
    if pivots and pivots[-1] == m * n:
        return "no", "-", "-"
    xbits = last
    for c, row in reversed(list(zip(pivots, rows))):
        if (row & xbits).bit_count() & 1:
            xbits |= 1 << c
    presses = "/".join(
        "".join(str(xbits >> (j * m + i) & 1) for j in range(n)) for i in range(m)
    )
    return "yes", presses, nu


def euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by a Euclid loop over ``Poly.__mod__``.

    ``poly_gcd`` runs the same loop; this copy keeps the references below
    free of ``gfpoly``'s gcd, and so of the packed ``_gcd2`` the Smith form
    uses at p = 2.
    """
    while b:
        a, b = b, a % b
    return a.monic()


def smith_normal_form_on_polys(M) -> SnfResult:
    """Two-phase Smith form with Poly arithmetic throughout: the reference.

    ``snf.smith_normal_form`` packs GF(2) entries into ints and runs the same
    loop on int operations; its invariant factors must match these exactly.
    """
    a = [list(row) for row in M]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("Smith normal form is implemented for square matrices")
    for k in range(n):  # phase 1: diagonalize
        while True:
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    size = len(a[i][j].coeffs)
                    if size and (best is None or size < best[0]):
                        best = (size, i, j)
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
                    q, row[k] = divmod(row[k], pivot)
                    for j in range(k + 1, n):
                        if krow[j]:
                            row[j] = row[j] - q * krow[j]
            for j in range(k + 1, n):
                if krow[j]:
                    q, krow[j] = divmod(krow[j], pivot)
                    for row in a[k + 1 :]:
                        if row[k]:
                            row[j] = row[j] - q * row[k]
            if not any(krow[k + 1 :]) and not any(row[k] for row in a[k + 1 :]):
                break
    d = [a[k][k] for k in range(n)]
    for i in range(n):  # phase 2: a unit d[i] already divides the rest
        for j in range(i + 1, n):
            if d[i].degree == 0:
                break
            g = euclid_gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return SnfResult(tuple([f.monic() for f in d]))
