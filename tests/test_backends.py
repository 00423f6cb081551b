"""The GF(2) elimination kernel: parity with the column-at-a-time reference,
and the module binding through which gfmat reaches it."""

import random

import pytest

from helpers import echelon_bits_by_columns, random_symmetric01
import lightsout
from lightsout import _gf2kernel, gfmat
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
        cut = _gf2kernel.TABLE_MIN_ROWS
        counts = [*range(0, 41), *range(cut - 3, cut + 4), *range(250, 301, 10), 600]
        for m in counts:
            # Wide, square-ish and tall shapes; column counts off the stripe width.
            for ncols in (m + rng.randint(1, 40), max(1, m - 3), m // 3 + 5):
                assert_matches_reference(rows_of_kind(kind, m, ncols, rng), ncols)

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
