"""The GF(2) elimination kernel: parity with the column-at-a-time reference,
and the module binding through which gfmat reaches it."""

import itertools
import random

import pytest

from helpers import echelon_bits_by_columns, random_symmetric01
import lightsout
from lightsout import _gf2kernel, game, gfmat
from lightsout.gfmat import PrimeFieldMatrix


def assert_matches_reference(rows, ncols):
    snapshot = list(rows)
    for reduced in (True, False):
        got = _gf2kernel.echelon_bits(rows, ncols, reduced)
        assert rows == snapshot, "input rows were mutated"
        assert got == echelon_bits_by_columns(rows, ncols, reduced), (len(rows), ncols, reduced)


def rows_of_kind(kind, m, ncols, rng):
    if kind == "dense":
        return [rng.getrandbits(ncols) for _ in range(m)]
    if kind == "sparse":
        return [
            rng.getrandbits(ncols) & rng.getrandbits(ncols) & rng.getrandbits(ncols)
            for _ in range(m)
        ]
    # Combinations of a few basis rows, some repeated: low rank, so free
    # columns fall inside stripes and many rows reduce to zero.
    basis = [rng.getrandbits(ncols) for _ in range(rng.randint(1, 12))]
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.2:
            rows.append(rng.choice(rows))
            continue
        acc = 0
        for b in basis:
            if rng.getrandbits(1):
                acc ^= b
        rows.append(acc)
    return rows


class TestPureKernel:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "combined"])
    def test_matches_column_reference_across_cutover(self, kind):
        rng = random.Random(f"parity-{kind}")
        # The sizes straddle the retired 64-row cutover, below which steps
        # once cleared one column at a time instead of taking a stripe.
        cut = 64
        counts = [*range(0, 41), *range(cut - 3, cut + 4), *range(250, 301, 10), 600]
        for m in counts:
            # Wide, square-ish and tall shapes; column counts off the stripe width.
            for ncols in (m + rng.randint(1, 40), max(1, m - 3), m // 3 + 5):
                assert_matches_reference(rows_of_kind(kind, m, ncols, rng), ncols)

    def test_every_tiny_matrix(self):
        # Every 0/1 matrix of at least one row and column and at most 10
        # entries, zero rows and stripes narrower than 8 columns included.
        checked = 0
        for m in range(1, 11):
            for ncols in range(1, 10 // m + 1):
                for bits in itertools.product(range(1 << ncols), repeat=m):
                    assert_matches_reference(list(bits), ncols)
                    checked += 1
        assert checked == 7306

    def test_zero_and_duplicate_rows_leave_free_columns_in_stripes(self):
        rng = random.Random(31)
        base = [rng.getrandbits(150) << 7 for _ in range(20)]
        rows = [base[i % 20] for i in range(280)] + [0] * 20
        rng.shuffle(rows)
        assert_matches_reference(rows, 160)

    def test_matches_reference_on_sylvester_operator(self):
        rng = random.Random(24)
        A = PrimeFieldMatrix(random_symmetric01(24, rng), 2)
        B = PrimeFieldMatrix(random_symmetric01(24, rng), 2)
        op = gfmat.sylvester_operator(A, B)
        assert_matches_reference(list(op._data), op.cols)

    def test_known_reduction(self):
        rows, pivots = _gf2kernel.echelon_bits([0b11, 0b11], 2)
        assert rows == [0b11, 0] and pivots == [0]

    def test_reduced_clears_above(self):
        # rows: [1 1], [0 1] -> RREF [1 0], [0 1]
        rows, pivots = _gf2kernel.echelon_bits([0b11, 0b10], 2)
        assert rows == [0b01, 0b10] and pivots == [0, 1]

    def test_forward_only_keeps_upper_entries(self):
        rows, pivots = _gf2kernel.echelon_bits([0b11, 0b10], 2, reduced=False)
        assert rows == [0b11, 0b10] and pivots == [0, 1]

    def test_empty_inputs(self):
        assert _gf2kernel.echelon_bits([], 5) == ([], [])
        assert _gf2kernel.echelon_bits([0, 0], 0) == ([0, 0], [])


class TestFusedStripes:
    """Every step of every size is an 8-column stripe with one 2^8-entry
    table, and the output is that of column-at-a-time elimination.  The
    cases sit around 768 rows, three times a table's entries, where the
    24-column fused stripes the class is named after once took over."""

    CUT = 768

    @pytest.mark.parametrize("kind", ["dense", "sparse", "combined"])
    def test_row_counts_around_the_cutover(self, kind):
        # Tall: forward steps touch m - r rows with r <= ncols, so the first
        # stripe touches more than CUT rows exactly when m > CUT.  Reduced,
        # every stripe does; 61 columns leave a last stripe of 5, 50 one
        # of 2.
        rng = random.Random(f"fused-{kind}")
        for m in range(self.CUT - 3, self.CUT + 4):
            for ncols in (61, 50):
                assert_matches_reference(rows_of_kind(kind, m, ncols, rng), ncols)

    def test_stripes_at_high_column_offsets(self):
        # 20 rows span every column; the other 880 start at column 1000, so
        # columns 20-999 are free and the stripes from 1000 on touch up to 900
        # rows.
        rng = random.Random(41)
        rows = [rng.getrandbits(1100) for _ in range(20)]
        rows += [rng.getrandbits(100) << 1000 for _ in range(880)]
        rng.shuffle(rows)
        assert_matches_reference(rows, 1100)

    @pytest.mark.parametrize("width", range(1, 24, 4))
    def test_last_stripe_narrower_than_24(self, width):
        rng = random.Random(width)
        ncols = 48 + width
        assert_matches_reference([rng.getrandbits(ncols) for _ in range(self.CUT + 80)], ncols)

    def test_free_columns_inside_a_stripe(self):
        # Zero columns, and column 60 a copy of column 4, put free columns
        # inside eight of the 8-column stripes.
        rng = random.Random(43)
        free = sum(1 << c for c in (1, 9, 10, 23, 30, 47, 48, 60, 71))
        rows = []
        for _ in range(self.CUT + 30):
            row = rng.getrandbits(90) & ~free
            row |= (row >> 4 & 1) << 60
            rows.append(row)
        assert_matches_reference(rows, 90)

    def test_banded_grid_switching_matrix(self):
        M = game.switching_matrix(game.build_family("grid:32x32"), "closed")
        assert_matches_reference(list(M._data), M.cols)


def banded_rows(m, ncols, width, rng):
    """m rows whose leading columns climb from 0 to ncols - 1, each with up to
    `width` bits from its leading column on, none past ncols."""
    full = (1 << ncols) - 1
    return [((1 | rng.getrandbits(width)) << (i * ncols // m)) & full for i in range(m)]


def sylvester_rows(gspec, gmode, hspec):
    A = game.switching_matrix(game.build_family(gspec), gmode)
    B = game.switching_matrix(game.build_family(hspec), "open")
    op = gfmat.sylvester_operator(A, B)
    return list(op._data), op.cols


class TestBandedSteps:
    """Rows past a step's tail bound are neither scanned nor fixed: they are
    still as given and have no bit left of the step's end column.  Skipping
    them leaves the output that of column-at-a-time elimination."""

    @pytest.mark.parametrize(
        "gspec, gmode, hspec",
        [
            ("path:5", "open", "path:20"),
            ("path:9", "open", "path:9"),
            ("path:3", "open", "path:40"),
            ("path:16", "open", "path:16"),
            ("cycle:9", "closed", "cycle:9"),
            ("cycle:12", "closed", "cycle:14"),
            ("cycle:5", "closed", "cycle:30"),
            ("cycle:28", "closed", "cycle:30"),
        ],
    )
    def test_product_sylvester_operators(self, gspec, gmode, hspec):
        assert_matches_reference(*sylvester_rows(gspec, gmode, hspec))

    @pytest.mark.parametrize("spec", ["grid:9x9", "grid:12x12", "grid:20x30"])
    def test_grids_with_rows_out_of_band_order(self, spec):
        rng = random.Random(spec)
        for mode in ("open", "closed"):
            M = game.switching_matrix(game.build_family(spec), mode)
            rows = list(M._data)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert_matches_reference(shuffled, M.cols)
            # Row 0 is the only row with a bit in column 0 in open mode; at
            # the bottom it puts the floor of every row at 0, so the first
            # step already reaches the last row.
            column0 = next(i for i, row in enumerate(rows) if row & 1)
            moved = rows[:column0] + rows[column0 + 1 :] + [rows[column0]]
            assert_matches_reference(moved, M.cols)

    @pytest.mark.parametrize("m", [65, 66, 769, 770])
    def test_zero_rows_inside_and_under_the_band(self, m):
        rng = random.Random(m)
        for ncols in (m - 3, m + 5, m // 2 + 5):
            assert ncols % 8 and ncols % 24
            for width in (3, 30):
                rows = banded_rows(m, ncols, width, rng)
                for i in rng.sample(range(m), m // 10):
                    rows[i] = 0
                assert_matches_reference(rows + [0] * 7, ncols)

    def test_rows_no_step_changes_come_back_as_the_same_objects(self):
        # Block-diagonal: 100 dense rows on columns 0-99, then 100 upper
        # unitriangular rows on columns 100-199.  The stripes over the dense
        # block stop short of the second block's rows, and forward
        # elimination XORs nothing into them, so each must come back as the
        # very int object given, not a rebuilt copy of it.
        rng = random.Random(53)
        dense = [rng.getrandbits(100) for _ in range(100)]
        triangular = [(rng.getrandbits(100 - i) << 1 | 1) << (100 + i) for i in range(100)]
        triangular = [row & ((1 << 200) - 1) for row in triangular]
        rows = dense + triangular
        got, pivots = _gf2kernel.echelon_bits(rows, 200, reduced=False)
        assert (got, pivots) == echelon_bits_by_columns(rows, 200, reduced=False)
        returned = {id(row) for row in got}
        assert all(id(row) in returned for row in triangular)


class TestKernelBinding:
    """gfmat must call ``_gf2kernel.echelon_bits`` through the module: the
    benchmark tracer wraps that binding, and a copied reference would hide
    every elimination from it."""

    def test_every_gf2_elimination_reaches_the_module_binding(self, monkeypatch):
        calls = []
        original = _gf2kernel.echelon_bits

        def counted(rows, ncols, reduced=True):
            calls.append(ncols)
            return original(rows, ncols, reduced)

        monkeypatch.setattr(_gf2kernel, "echelon_bits", counted)
        for p, expected in ((2, 1), (3, 0)):
            M = PrimeFieldMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]], p)
            operations = {
                "rank_nullity": lambda: gfmat.rank_nullity(M),
                "rref": lambda: gfmat.rref(M),
                "solve": lambda: gfmat.solve(M, (1, 0, 1)),
                "inverse": lambda: gfmat.inverse(M),
                "kernel_basis": lambda: gfmat.kernel_basis(M),
            }
            for name, operation in operations.items():
                calls.clear()
                operation()
                assert len(calls) == expected, (name, p)

    def test_pure_kernel_is_the_only_backend(self):
        assert _gf2kernel.available_backends() == {"pure": _gf2kernel.echelon_bits}
        assert lightsout.BACKEND == "pure"


class TestCompleteGraphCounts:
    """Closed forms, with no reference elimination.  Over GF(2) the open
    switching matrix of complete:n is J + I; (J + I)^2 = nJ + I, so it is
    invertible for even n, and for odd n its null space is spanned by the
    all-ones vector, which leaves column n - 1 free.  The closed one is J,
    of rank 1.  Past 768 rows the first steps touch every row in both
    modes; most of those cases' time is building the graph's 295k edges and
    its switching matrix, not eliminating it."""

    @pytest.mark.parametrize("n", [*range(1, 41), 769, 770])
    def test_counts_and_rref_pivots(self, n):
        g = game.complete_graph(n)
        ones = (1 << n) - 1
        cases = [
            ("open", [ones ^ 1 << i for i in range(n)], n - n % 2),
            ("closed", [ones] * n, 1),
        ]
        for mode, rows, rank in cases:
            assert game.count_exponents(g, mode) == (rank, n - rank)
            _, profile = gfmat.rref(PrimeFieldMatrix.from_bits(rows, n, 2))
            assert profile.pivot_columns == tuple(range(rank))
