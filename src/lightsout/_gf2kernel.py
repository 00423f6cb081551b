"""Pure-Python GF(2) elimination on bit-packed rows.

Each row is one Python int; bit j is column j.  Python's big-int XOR already
works a machine word at a time, so the cost that matters is the number of
Python-level row operations.

Columns are taken in stripes by the Method of Four Russians (Arlazarov,
Dinic, Kronrod and Faradzev 1970; Bard, IACR ePrint 2006/251; Albrecht, Bard
and Hart, ACM TOMS 37(1), 2010).  The stripe's pivots are found exactly as
column-at-a-time elimination finds them: rows are scanned lazily, each
scanned row is reduced by the stripe's earlier pivots, and the first row
with the bit is swapped in.  Then a table of the XOR combinations of the
stripe's pivot rows fixes every row past the last one scanned (and, when
reduced, every row above the stripe) in one pass.  A row's index
``(row & smask) >> c0`` masks before it shifts, so it copies about c1 bits
of the row, not the ncols - c0 bits that ``row >> c0`` copies.

Every step stops at a tail bound ``hi``, the textbook banded-elimination
saving (Golub and Van Loan, *Matrix Computations*, section 4.3).  The
switching matrix of a grid and the Sylvester operator of a product of paths
and cycles are banded: row i has no bit left of column i - (block size).
The floor of row i is the least leading column of rows i.., taken once from
the bottom up.  Rows from ``hi`` on are still as given and have no bit left
of the floor at ``hi``.  Before a step that ends at column e, ``hi`` moves
down past the rows whose floor is below e.  The rows it leaves behind have
no bit in the step's columns, so column-at-a-time elimination would not
touch them either: a step scans, fixes and counts rows r..hi (0..hi when
reduced), not r..m.  On a dense operator ``hi`` reaches m within a few rows
of the bottom.

Every step is a stripe of ``STRIPE`` = 8 columns (the last may be narrower)
with one table of 2^8 entries.  Of the benchmark workloads, only
product-large calls it, on chase systems of 48 to 144 rows; verify-random
and sweep-families make no call.  ``counts`` and one-graph ``solve`` on a
switching matrix, ``gfmat.rref`` and ``gfmat.inverse`` call it too.

Both contracts are those of plain column-at-a-time elimination, bit for
bit: ``reduced=True`` gives the reduced row echelon form, and
``reduced=False`` gives the same pivot columns with the selected pivot rows
as they stood when selected.

``echelon_bits`` serves the callers that read echelon rows or pivot columns;
the nullity oracle reads a rank alone, from ``rank_bits``.  Family operators
clear in a few XORs per row that way (``star:63`` squared: about 1 ms,
against 1.1 s forward).  A dense second factor fills the basis in, so the oracle
puts the smaller factor second, in Hessenberg form; 2 x 2048 vertices take 1.4 times as long.

``gfmat`` looks both up on this module at call time, so a wrapper bound here
(as the benchmark tracer binds one) sees every call.
"""

from __future__ import annotations

from typing import Sequence

STRIPE = 8

# This is the only kernel; see available_backends for why the name stays.
BACKEND = "pure"


def echelon_bits(
    rows: Sequence[int], ncols: int, reduced: bool = True
) -> tuple[list[int], list[int]]:
    """Row-reduce bit-packed GF(2) rows.

    Pivoting is deterministic: columns are scanned left to right and the
    first row at or below the current pivot row with a 1 in the column is
    chosen.  With ``reduced=True`` the result is the reduced row echelon
    form; with ``reduced=False`` only rows below each pivot are cleared
    (enough for rank and pivot columns).

    Returns (rows, pivot_columns).
    """
    out = list(rows)
    m = len(out)
    pivots: list[int] = []
    # Rows from hi on are still as given and have no bit left of
    # floors[hi - base]: a step that ends there never reaches them.
    hi, floors = _tail_floors(out, ncols)
    base = hi
    r = 0
    for c in range(0, ncols, STRIPE):
        if r == m:
            break
        end = min(c + STRIPE, ncols)
        while floors[hi - base] < end:
            hi += 1
        r = _stripe(out, r, c, end, hi, reduced, pivots)
    return out, pivots


def rank_bits(rows: Sequence[int], ncols: int) -> int:
    """Rank of bit-packed GF(2) rows: each is cleared from its highest bit
    down against a basis slotted by bit length, and fills the first empty
    slot it reaches.  Slot 0 stays 0, so a row that clears stops there; each
    step is one ``bit_length``, one index and one XOR."""
    basis = [0] * (ncols + 1)
    for row in rows:
        while b := basis[t := row.bit_length()]:
            row ^= b
        basis[t] = row
    return ncols + 1 - basis.count(0)


def _tail_floors(rows: list[int], ncols: int) -> tuple[int, list[int]]:
    """(base, floors): floors[k] is the least leading column of rows base + k..

    A zero row leads at ncols, and floors[-1] = ncols belongs to the
    position past the last row.  Floors are taken from the bottom up while
    they stay past column 0: the first step reaches every row above base,
    so no later step needs their floors.
    """
    floor = ncols
    floors = [floor]
    base = len(rows)
    while base:
        row = rows[base - 1]
        if row:
            floor = min(floor, (row & -row).bit_length() - 1)
            if floor == 0:
                break
        floors.append(floor)
        base -= 1
    floors.reverse()
    return base, floors


def _stripe(
    out: list[int], r: int, c0: int, c1: int, hi: int, reduced: bool, pivots: list[int]
) -> int:
    """Eliminate columns c0..c1-1 with pivot rows r..hi-1; returns the next pivot row."""
    r0 = r
    masks: list[int] = []
    # Rows r..scanned-1 are reduced by every pivot of this stripe so far;
    # rows from `scanned` on still hold their state at the stripe's start.
    scanned = r
    for c in range(c0, c1):
        if r == hi:
            break
        mask = 1 << c
        pr = -1
        for i in range(r, scanned):
            if out[i] & mask:
                pr = i
                break
        while pr < 0 and scanned < hi:
            row = out[scanned]
            for k, pmask in enumerate(masks):
                if row & pmask:
                    row ^= out[r0 + k]
            out[scanned] = row
            if row & mask:
                pr = scanned
            scanned += 1
        if pr < 0:
            continue
        if pr != r:
            out[r], out[pr] = out[pr], out[r]
        piv = out[r]
        for i in range(r + 1, scanned):
            if out[i] & mask:
                out[i] ^= piv
        masks.append(mask)
        pivots.append(c)
        r += 1
    if r == r0:
        return r
    # Back-substitute among the stripe's pivot rows, so that each clears
    # exactly its own column; in forward mode these are table rows only.
    piv_rows = out[r0:r]
    for j in range(len(piv_rows) - 1, 0, -1):
        pj, mj = piv_rows[j], masks[j]
        for i in range(j):
            if piv_rows[i] & mj:
                piv_rows[i] ^= pj
    # table[idx] is the XOR of the pivot rows whose columns are set in idx;
    # bits of idx at the stripe's free columns select nothing.
    by_column = dict(zip(pivots[r0 - r :], piv_rows))
    table = [0]
    for c in range(c0, c1):
        e = by_column.get(c, 0)
        table += [t ^ e for t in table]
    smask = ((1 << (c1 - c0)) - 1) << c0

    def fix(rows: list[int]) -> list[int]:
        return [row ^ table[(row & smask) >> c0] for row in rows]

    out[scanned:hi] = fix(out[scanned:hi])
    if reduced:
        out[:r0] = fix(out[:r0])
        out[r0:r] = piv_rows
    return r


def available_backends() -> dict:
    """Map backend name -> echelon_bits: here only ``{"pure": echelon_bits}``.

    This and ``BACKEND`` stay only because the benchmark harness reads both:
    it records ``lightsout.BACKEND`` and times each entry of this map.
    """
    return {BACKEND: echelon_bits}
