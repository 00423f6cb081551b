"""Pure-Python GF(2) elimination on bit-packed rows.

Each row is one Python int; bit j is column j.  Python's big-int XOR already
works a machine word at a time, so the cost that matters is the number of
Python-level row operations.

While many rows remain, columns are taken in stripes of ``STRIPE`` = 8 by
the Method of Four Russians (Arlazarov, Dinic, Kronrod and Faradzev 1970;
Bard, IACR ePrint 2006/251; Albrecht, Bard and Hart, ACM TOMS 37(1), 2010).
The stripe's pivots are found exactly as column-at-a-time elimination finds
them: rows are scanned lazily, each scanned row is reduced by the stripe's
earlier pivots, and the first row with the bit is swapped in.  Then one
table of the 2^8 XOR combinations of the stripe's pivot rows fixes every
row past the last one scanned (and, when reduced, every row above the
stripe) with one lookup and one XOR.  Building the table costs about 2^8
XORs, so the kernel takes stripes only while a step would touch more than
``TABLE_MIN_ROWS`` = 64 rows (all rows when reduced, the rows below the
pivot row otherwise) and plain column steps after that.

Both contracts are those of plain column-at-a-time elimination, bit for
bit: ``reduced=True`` gives the reduced row echelon form, and
``reduced=False`` gives the same pivot columns with the selected pivot rows
as they stood when selected.

``gfmat`` looks ``echelon_bits`` up on this module at call time, so a wrapper
bound here (as the benchmark tracer binds one) sees every elimination.
"""

from __future__ import annotations

from typing import Sequence

STRIPE = 8
# Rows touched per step above which a stripe's table pays for itself.  With
# this cutover, tables sped up dense, random Sylvester and path/cycle
# Sylvester operators of 96 rows and more; with 32 they slowed 36-64 row ones.
TABLE_MIN_ROWS = 64

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
    r = 0
    c = 0
    # Rows touched per step only fall in forward mode, so once steps are
    # plain column steps they stay so.
    while c < ncols and r < m and (m if reduced else m - r) > TABLE_MIN_ROWS:
        end = min(c + STRIPE, ncols)
        r = _stripe(out, r, c, end, reduced, pivots)
        c = end
    for c in range(c, ncols):
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


def _stripe(
    out: list[int], r: int, c0: int, c1: int, reduced: bool, pivots: list[int]
) -> int:
    """Eliminate columns c0..c1-1 with pivot rows from r on; returns the next pivot row."""
    m = len(out)
    r0 = r
    masks: list[int] = []
    # Rows r..scanned-1 are reduced by every pivot of this stripe so far;
    # rows from `scanned` on still hold their state at the stripe's start.
    scanned = r
    for c in range(c0, c1):
        if r == m:
            break
        mask = 1 << c
        pr = -1
        for i in range(r, scanned):
            if out[i] & mask:
                pr = i
                break
        while pr < 0 and scanned < m:
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
    wmask = (1 << (c1 - c0)) - 1
    out[scanned:] = [row ^ table[row >> c0 & wmask] for row in out[scanned:]]
    if reduced:
        out[:r0] = [row ^ table[row >> c0 & wmask] for row in out[:r0]]
        out[r0:r] = piv_rows
    return r


def available_backends() -> dict:
    """Map backend name -> echelon_bits: here only ``{"pure": echelon_bits}``.

    This and ``BACKEND`` stay only because the benchmark harness reads both:
    it records ``lightsout.BACKEND`` and times each entry of this map.
    """
    return {BACKEND: echelon_bits}
