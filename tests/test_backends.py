"""Parity of the GF(2) kernels: the pure kernel against the column-at-a-time
reference, and the compiled kernel against the pure one."""

import random

import pytest

from helpers import echelon_bits_by_columns, random_symmetric01
from lightsout import _gf2kernel, _gf2pure, gfmat
from lightsout._gf2kernel import available_backends
from lightsout.gfmat import PrimeFieldMatrix


def random_case(rng):
    m = rng.randint(0, 24)
    n = rng.randint(1, 130)
    rows = [rng.getrandbits(n) for _ in range(m)]
    return rows, n


def assert_matches_reference(rows, ncols):
    snapshot = list(rows)
    for reduced in (True, False):
        got = _gf2pure.echelon_bits(rows, ncols, reduced)
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
        cut = _gf2pure.TABLE_MIN_ROWS
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
        rows, pivots = _gf2pure.echelon_bits([0b11, 0b11], 2)
        assert rows == [0b11, 0] and pivots == [0]

    def test_reduced_clears_above(self):
        # rows: [1 1], [0 1] -> RREF [1 0], [0 1]
        rows, pivots = _gf2pure.echelon_bits([0b11, 0b10], 2)
        assert rows == [0b01, 0b10] and pivots == [0, 1]

    def test_forward_only_keeps_upper_entries(self):
        rows, pivots = _gf2pure.echelon_bits([0b11, 0b10], 2, reduced=False)
        assert rows == [0b11, 0b10] and pivots == [0, 1]

    def test_empty_inputs(self):
        assert _gf2pure.echelon_bits([], 5) == ([], [])
        assert _gf2pure.echelon_bits([0, 0], 0) == ([0, 0], [])


@pytest.mark.skipif(
    _gf2kernel.BACKEND != "compiled", reason="compiled kernel not built"
)
class TestCompiledKernel:
    def test_matches_pure_on_random_cases(self):
        compiled = available_backends()["compiled"]
        rng = random.Random(2024)
        for _ in range(300):
            rows, n = random_case(rng)
            for reduced in (True, False):
                assert compiled(list(rows), n, reduced) == _gf2pure.echelon_bits(
                    list(rows), n, reduced
                )

    def test_matches_pure_on_wide_rows(self):
        compiled = available_backends()["compiled"]
        rng = random.Random(2025)
        for n in (63, 64, 65, 127, 128, 129, 512):
            rows = [rng.getrandbits(n) for _ in range(20)]
            assert compiled(list(rows), n, True) == _gf2pure.echelon_bits(
                list(rows), n, True
            )

    def test_edge_shapes(self):
        compiled = available_backends()["compiled"]
        assert compiled([], 5, True) == ([], [])
        assert compiled([0, 0], 0, True) == ([0, 0], [])
        assert compiled([1], 1, True) == ([1], [0])

    def test_input_rows_not_mutated(self):
        compiled = available_backends()["compiled"]
        rows = [0b101, 0b110, 0b011]
        snapshot = list(rows)
        compiled(rows, 3, True)
        assert rows == snapshot
