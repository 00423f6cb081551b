"""Dense exact linear algebra over GF(p): rank, solve, kernels, Kronecker."""

import ast
import random
from pathlib import Path

import pytest

from helpers import (
    brute_force_solutions,
    commuting_pairs_dimension,
    echelon_bits_by_columns,
    echelon_modp_by_columns,
    random_invertible,
    random_matrix01,
    random_modp_matrix,
    random_symmetric01,
    spread_columns_by_entries,
)
from lightsout import _gf2kernel, formulas, game, gfmat, snf
from lightsout.gfmat import PrimeFieldMatrix

P2 = PrimeFieldMatrix([[0, 1], [1, 0]], 2)
P3 = PrimeFieldMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]], 2)


class TestConstruction:
    def test_entries_reduced_mod_p(self):
        M = PrimeFieldMatrix([[3, 4], [5, 6]], 3)
        assert M.to_lists() == [[0, 1], [2, 0]]

    def test_bitpacking_is_invisible(self):
        rows = [[1, 0, 1], [0, 1, 1]]
        M = PrimeFieldMatrix(rows, 2)
        assert M.to_lists() == rows
        assert M[0, 2] == 1 and M[1, 0] == 0
        assert M.row(1) == (0, 1, 1)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            PrimeFieldMatrix([[1, 0], [1]], 2)

    def test_identity_and_zeros(self):
        assert PrimeFieldMatrix.identity(3, 2).to_lists() == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]
        assert PrimeFieldMatrix.zeros(2, 3, 5).to_lists() == [[0] * 3] * 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_from_bits_equals_list_constructor(self, p):
        rng = random.Random(151 + p)
        for rows, cols in ((1, 1), (3, 7), (7, 3), (9, 70)):
            lists = random_matrix01(rows, cols, rng)
            bits = [sum(v << j for j, v in enumerate(row)) for row in lists]
            assert PrimeFieldMatrix.from_bits(bits, cols, p) == PrimeFieldMatrix(lists, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_from_bits_rejects_bits_outside_the_columns(self, p):
        for bad in ([0b1000], [0b101, 1 << 40], [-1], [0, -4]):
            with pytest.raises(ValueError):
                PrimeFieldMatrix.from_bits(bad, 3, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_from_bits_with_no_rows_keeps_the_columns(self, p):
        M = PrimeFieldMatrix.from_bits([], 4, p)
        assert (M.rows, M.cols, M.to_lists()) == (0, 4, [])

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeFieldMatrix([[1]], 6)

    def test_equality(self):
        assert PrimeFieldMatrix([[1, 1]], 2) == PrimeFieldMatrix([[3, 1]], 2)
        assert PrimeFieldMatrix([[1]], 2) != PrimeFieldMatrix([[1]], 3)


class TestArithmetic:
    def test_add_sub_roundtrip(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            A = PrimeFieldMatrix(random_modp_matrix(4, 5, p, rng), p)
            B = PrimeFieldMatrix(random_modp_matrix(4, 5, p, rng), p)
            assert (A + B) - B == A

    def test_matmul_against_entry_sums(self):
        rng = random.Random(5)
        for p in (2, 3):
            A = PrimeFieldMatrix(random_modp_matrix(3, 4, p, rng), p)
            B = PrimeFieldMatrix(random_modp_matrix(4, 2, p, rng), p)
            C = A @ B
            for i in range(3):
                for j in range(2):
                    expect = sum(A[i, k] * B[k, j] for k in range(4)) % p
                    assert C[i, j] == expect

    def test_mul_vec_matches_matmul(self):
        rng = random.Random(7)
        A = PrimeFieldMatrix(random_matrix01(5, 6, rng), 2)
        v = [rng.getrandbits(1) for _ in range(6)]
        col = PrimeFieldMatrix([[x] for x in v], 2)
        assert list(A.mul_vec(v)) == [(A @ col)[i, 0] for i in range(5)]

    def test_transpose_involution(self):
        rng = random.Random(9)
        for p in (2, 5):
            A = PrimeFieldMatrix(random_modp_matrix(3, 7, p, rng), p)
            assert A.transpose().transpose() == A
            assert A.transpose()[2, 1] == A[1, 2]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_empty_shapes_keep_their_dimensions(self, p):
        rng = random.Random(61 + p)

        def shape(M):
            return (M.rows, M.cols)

        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            A = PrimeFieldMatrix.zeros(rows, cols, p)
            assert shape(A.transpose()) == (cols, rows)
            assert A.transpose().transpose() == A
            assert shape(A + A) == shape(A - A) == shape(-A) == (rows, cols)
        product = PrimeFieldMatrix.zeros(2, 0, p) @ PrimeFieldMatrix.zeros(0, 3, p)
        assert product == PrimeFieldMatrix.zeros(2, 3, p)
        assert shape(PrimeFieldMatrix.zeros(0, 2, p) @ PrimeFieldMatrix.zeros(2, 3, p)) == (0, 3)
        B = PrimeFieldMatrix(random_modp_matrix(2, 3, p, rng), p)
        for rows, cols in ((0, 3), (3, 0), (0, 0)):
            Z = PrimeFieldMatrix.zeros(rows, cols, p)
            assert shape(gfmat.kronecker(Z, B)) == (rows * 2, cols * 3)
            assert shape(gfmat.kronecker(B, Z)) == (2 * rows, 3 * cols)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_operators_match_entrywise_definitions(self, p):
        rng = random.Random(67 + p)
        for _ in range(10):
            m, k, n = (rng.randint(1, 5) for _ in range(3))
            A = PrimeFieldMatrix(random_modp_matrix(m, k, p, rng), p)
            A2 = PrimeFieldMatrix(random_modp_matrix(m, k, p, rng), p)
            B = PrimeFieldMatrix(random_modp_matrix(k, n, p, rng), p)
            for i in range(m):
                for j in range(k):
                    assert (A + A2)[i, j] == (A[i, j] + A2[i, j]) % p
                    assert (A - A2)[i, j] == (A[i, j] - A2[i, j]) % p
                    assert (-A)[i, j] == -A[i, j] % p
                    assert A.transpose()[j, i] == A[i, j]
                for j in range(n):
                    assert (A @ B)[i, j] == sum(A[i, l] * B[l, j] for l in range(k)) % p

    def test_shape_and_field_mismatches(self):
        with pytest.raises(ValueError):
            PrimeFieldMatrix([[1]], 2) + PrimeFieldMatrix([[1]], 3)
        with pytest.raises(ValueError):
            PrimeFieldMatrix([[1]], 2) + PrimeFieldMatrix([[1, 0]], 2)
        with pytest.raises(ValueError):
            PrimeFieldMatrix([[1, 0]], 2) @ PrimeFieldMatrix([[1, 0]], 2)


class TestRref:
    def test_equal_rows_gf2(self):
        _, profile = gfmat.rref(PrimeFieldMatrix([[1, 1], [1, 1]], 2))
        assert (profile.rank, profile.nullity) == (1, 1)

    def test_identity_full_rank(self):
        _, profile = gfmat.rref(PrimeFieldMatrix.identity(3, 2))
        assert (profile.rank, profile.nullity) == (3, 0)
        assert profile.pivot_columns == (0, 1, 2)

    def test_path3_adjacency(self):
        R, profile = gfmat.rref(P3)
        assert (profile.rank, profile.nullity) == (2, 1)
        # rows 1 and 3 of the input are equal, so the last RREF row vanishes
        assert R.row(2) == (0, 0, 0)

    def test_zero_matrix(self):
        profile = gfmat.rank_nullity(PrimeFieldMatrix.zeros(2, 2, 2))
        assert (profile.rank, profile.nullity) == (0, 2)
        assert profile.pivot_columns == ()

    def test_rref_idempotent(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            for _ in range(30):
                M = PrimeFieldMatrix(
                    random_modp_matrix(rng.randint(1, 6), rng.randint(1, 6), p, rng), p
                )
                R, _ = gfmat.rref(M)
                R2, _ = gfmat.rref(R)
                assert R2 == R

    def test_rank_plus_nullity_is_cols(self):
        rng = random.Random(13)
        for p in (2, 3, 5):
            for _ in range(50):
                rows, cols = rng.randint(1, 7), rng.randint(1, 7)
                M = PrimeFieldMatrix(random_modp_matrix(rows, cols, p, rng), p)
                profile = gfmat.rank_nullity(M)
                assert profile.rank + profile.nullity == cols
                assert list(profile.pivot_columns) == sorted(profile.pivot_columns)
                assert len(profile.pivot_columns) == profile.rank

    def test_empty_shapes(self):
        profile = gfmat.rank_nullity(PrimeFieldMatrix.zeros(0, 3, 2))
        assert (profile.rank, profile.nullity) == (0, 3)
        profile = gfmat.rank_nullity(PrimeFieldMatrix.zeros(3, 0, 2))
        assert (profile.rank, profile.nullity) == (0, 0)

    def test_pivoting_is_deterministic(self):
        M = PrimeFieldMatrix([[0, 1, 1], [0, 1, 1], [1, 0, 1]], 2)
        _, profile = gfmat.rref(M)
        assert profile.pivot_columns == (0, 1)


class TestNullity:
    """``gfmat.nullity``: the rank from the highest-bit basis at p = 2, checked
    against column-at-a-time elimination and against ``rank_nullity``."""

    @staticmethod
    def check(M):
        if M.p == 2:
            _, pivots = echelon_bits_by_columns(M._data, M.cols, reduced=False)
        else:
            _, pivots = echelon_modp_by_columns(M.to_lists(), M.cols, M.p, reduced=False)
        assert gfmat.nullity(M) == M.cols - len(pivots) == gfmat.rank_nullity(M).nullity
        return gfmat.nullity(M)

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_matrices_of_every_shape(self, p):
        rng = random.Random(3101 + p)
        shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 40), (40, 3), (70, 200), (200, 70)]
        shapes += [(rng.randint(1, 90), rng.randint(1, 90)) for _ in range(30)]
        for rows, cols in shapes:
            for density in (0.0, 0.03, 0.5):  # zero, sparse, dense
                entries = [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
                if rows > 2:  # a dependent row
                    entries[-1] = [(a + b) % p for a, b in zip(entries[0], entries[1])]
                self.check(PrimeFieldMatrix(entries, p))
        assert self.check(PrimeFieldMatrix.zeros(7, 9, p)) == 9

    def test_sylvester_operators_of_random_pairs_in_both_modes(self):
        rng = random.Random(3103)
        seen = set()
        for _ in range(200):
            g, h = (game.random_graph(rng.randint(1, 8), rng) for _ in range(2))
            for mode in game.MODES:
                A, B = game.switching_matrix(g, mode), game.switching_matrix(h, "open")
                seen.add(self.check(gfmat.sylvester_operator(A, B)))
        assert len(seen) > 5

    @pytest.mark.parametrize("family", ["star", "complete", "grid", "path", "cycle"])
    def test_self_products_of_families_up_to_1024_rows(self, family):
        sizes = {
            "star": ["3", "8", "32"],
            "complete": ["2", "5", "32"],
            "grid": ["2x2", "3x5", "4x8"],
            "path": ["1", "7", "32"],
            "cycle": ["3", "10", "32"],
        }[family]
        for size in sizes:
            g = game.build_family(f"{family}:{size}")
            for mode in game.MODES:
                A = game.switching_matrix(g, mode)
                self.check(gfmat.sylvester_operator(A, A))

    def test_gf2_goes_through_the_rank_bits_binding_only(self, monkeypatch):
        calls = []
        rank_bits = _gf2kernel.rank_bits

        def counted(rows, ncols):
            calls.append(ncols)
            return rank_bits(rows, ncols)

        def refused(*args, **kwargs):
            raise AssertionError("nullity eliminated to echelon rows at p = 2")

        monkeypatch.setattr(_gf2kernel, "rank_bits", counted)
        monkeypatch.setattr(_gf2kernel, "echelon_bits", refused)
        assert gfmat.nullity(P3) == 1 and calls == [3]
        calls.clear()  # odd p eliminates residue rows, through neither kernel function
        assert gfmat.nullity(PrimeFieldMatrix(P3.to_lists(), 3)) == 1 and calls == []

    def test_oracle_shares_nothing_with_the_krylov_pass_or_the_smith_form(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the oracle reached the formula's route")

        hessenberg, reduced = gfmat.hessenberg, []

        def watched(M):
            reduced.append(M.rows)
            return hessenberg(M)

        monkeypatch.setattr(gfmat, "_krylov", refused)
        monkeypatch.setattr(snf, "smith_normal_form", refused)
        monkeypatch.setattr(gfmat, "hessenberg", watched)
        pairs = (("path:4", "path:4", "open"), ("petersen", "grid:2x3", "closed"))
        pairs += (("complete:10", "complete:12", "closed"),)  # dense: complete:10 is reduced
        for g, h, mode in pairs:
            A = game.switching_matrix(game.build_family(g), mode)
            B = game.switching_matrix(game.build_family(h), "open")
            L = gfmat.sylvester_operator(A, B)
            _, pivots = echelon_bits_by_columns(L._data, L.cols, reduced=False)
            assert formulas.oracle_nullity(A, B) == L.cols - len(pivots)
        assert reduced == [10]


def test_weight_counts_nonzero_entries():
    for p in (2, 3, 5):
        rows = random_modp_matrix(7, 9, p, random.Random(3604 + p))
        rows[2] = [p - 1] * 9
        assert gfmat.weight(PrimeFieldMatrix(rows, p)) == sum(map(bool, sum(rows, [])))
    assert gfmat.weight(PrimeFieldMatrix.zeros(0, 0, 2)) == 0


class TestHessenberg:
    """``gfmat.hessenberg``: a similar upper Hessenberg matrix."""

    @staticmethod
    def check(M):
        H = gfmat.hessenberg(M)
        n = M.rows
        assert all(H[i, j] == 0 for i in range(n) for j in range(i - 1))
        # similar matrices: the same invariant factors of xI - M (Frobenius), and
        # the same characteristic polynomial by an expansion that shares no code
        assert snf.invariant_factors(H) == snf.invariant_factors(M)
        assert snf.charpoly_oracle(H, 2) == snf.charpoly_oracle(M, 2)
        return H

    def test_dense_non_symmetric_matrices_up_to_40(self):
        rng = random.Random(3601)
        for n in [9, 10, 17, 25, 33, 40] + [rng.randint(9, 40) for _ in range(10)]:
            for density in (0.5, 0.9):
                M = PrimeFieldMatrix(
                    [[int(rng.random() < density) for _ in range(n)] for _ in range(n)], 2
                )
                self.check(M)

    def test_small_zero_and_identity_matrices(self):
        rng = random.Random(3602)
        small = [PrimeFieldMatrix(random_matrix01(n, n, rng), 2) for n in (1, 2) for _ in range(4)]
        ones = [PrimeFieldMatrix([[1] * n for _ in range(n)], 2) for n in (1, 2, 5, 6)]
        cases = [PrimeFieldMatrix.zeros(0, 0, 2), PrimeFieldMatrix.zeros(6, 6, 2)]
        cases += [PrimeFieldMatrix.identity(n, 2) for n in (1, 2, 7)] + small + ones
        for M in cases:
            self.check(M)

    def test_sparse_family_matrices(self):
        for spec in ("path:40", "cycle:30", "star:25", "grid:5x6", "petersen"):
            for mode in ("open", "closed"):
                A = game.switching_matrix(game.build_family(spec), mode)
                H = self.check(A)
                if spec == "path:40":  # tridiagonal already: no transform applies
                    assert H == A

    def test_only_square_matrices_over_gf2(self):
        for M in (PrimeFieldMatrix.zeros(3, 4, 2), PrimeFieldMatrix.identity(3, 3)):
            with pytest.raises(ValueError):
                gfmat.hessenberg(M)


class TestOddPEchelon:
    @staticmethod
    def check_against_columns(rows, ncols, p):
        forward, pivots = gfmat._echelon(rows, ncols, p, reduced=False)
        rref_rows, rref_pivots = gfmat._echelon(rows, ncols, p, reduced=True)
        ref_rows, ref_pivots = echelon_modp_by_columns(rows, ncols, p, reduced=True)
        assert pivots == rref_pivots == ref_pivots
        assert rref_rows == ref_rows
        assert len(forward) == len(rows)
        for k, row in enumerate(forward):
            c = pivots[k] if k < len(pivots) else ncols
            assert row[:c] == [0] * c and row[c : c + 1] in ([1], [])
            assert all(0 <= v < p for v in row)

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 65521])
    def test_row_at_a_time_matches_column_at_a_time(self, p):
        rng = random.Random(p)
        shapes = [(0, 0), (0, 4), (4, 0), (1, 1)] + [
            (rng.randint(1, 9), rng.randint(1, 9)) for _ in range(40)
        ]
        for rows, cols in shapes:
            entries = random_modp_matrix(rows, cols, p, rng)
            if rows > 2 and rng.random() < 0.5:  # dependent rows
                entries[-1] = [(a + 2 * b) % p for a, b in zip(entries[0], entries[1])]
            self.check_against_columns(entries, cols, p)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("specs", [("path:5", "path:7"), ("grid:3x3", "grid:2x4")])
    def test_sylvester_operators_of_path_and_grid_pairs(self, specs, p):
        for mode in game.MODES:
            A, B = (game.switching_matrix(game.build_family(s), mode, p) for s in specs)
            L = gfmat.sylvester_operator(A, B)
            self.check_against_columns(L.to_lists(), L.cols, p)


class TestStorageBoundary:
    def test_only_gfmat_reads_the_stored_rows(self):
        # how a PrimeFieldMatrix stores its rows is gfmat's alone: no module
        # above it reads _data, the Krylov pass included
        src = Path(gfmat.__file__).parent
        for name in ("cli.py", "formulas.py", "game.py", "snf.py"):
            tree = ast.parse((src / name).read_text(encoding="utf-8"))
            reads = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "_data"
            ]
            assert reads == [], name


class TestSolve:
    def test_press_middle_vertex(self):
        assert gfmat.solve(P3, (1, 0, 1)) == (0, 1, 0)

    def test_inconsistent_system(self):
        assert gfmat.solve(P3, (1, 0, 0)) is None

    def test_zero_rhs_always_solvable(self):
        rng = random.Random(17)
        for p in (2, 3):
            M = PrimeFieldMatrix(random_modp_matrix(4, 5, p, rng), p)
            x = gfmat.solve(M, [0] * 4)
            assert x is not None and M.mul_vec(x) == (0,) * 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gfmat.solve(P3, (1, 0))

    def test_solution_verifies_and_absence_bumps_rank(self):
        rng = random.Random(19)
        for p in (2, 3, 5):
            for _ in range(60):
                rows, cols = rng.randint(1, 6), rng.randint(1, 6)
                M = PrimeFieldMatrix(random_modp_matrix(rows, cols, p, rng), p)
                b = [rng.randrange(p) for _ in range(rows)]
                x = gfmat.solve(M, b)
                if x is not None:
                    assert M.mul_vec(x) == tuple(v % p for v in b)
                else:
                    aug = PrimeFieldMatrix(
                        [list(M.row(i)) + [b[i]] for i in range(rows)], p
                    )
                    assert (
                        gfmat.rank_nullity(aug).rank == gfmat.rank_nullity(M).rank + 1
                    )

    def test_equals_solution_read_off_rref(self):
        # Free variables are 0, so solve must give exactly the RREF solution.
        rng = random.Random(29)
        for p in (2, 3, 5):
            for _ in range(80):
                rows, cols = rng.randint(1, 12), rng.randint(1, 12)
                rank = rng.randint(1, min(rows, cols))
                M = PrimeFieldMatrix(random_modp_matrix(rows, rank, p, rng), p) @ (
                    PrimeFieldMatrix(random_modp_matrix(rank, cols, p, rng), p)
                )
                if rng.getrandbits(1):
                    b = M.mul_vec([rng.randrange(p) for _ in range(cols)])
                else:
                    b = [rng.randrange(p) for _ in range(rows)]
                aug = PrimeFieldMatrix([list(M.row(i)) + [b[i]] for i in range(rows)], p)
                R, profile = gfmat.rref(aug)
                if profile.pivot_columns and profile.pivot_columns[-1] == cols:
                    want = None
                else:
                    x = [0] * cols
                    for k, c in enumerate(profile.pivot_columns):
                        x[c] = R[k, cols]
                    want = tuple(x)
                assert gfmat.solve(M, b) == want

    def test_system_nullity_and_certificate_of_symmetric_matrices(self):
        # A symmetric M's column space is the orthogonal complement of its
        # null space, so every unsolvable system has a certificate.
        rng = random.Random(31)
        for p in (2, 3):
            for _ in range(60):
                n = rng.randint(1, 7)
                S = PrimeFieldMatrix(random_modp_matrix(n, n, p, rng), p)
                M = S + S.transpose()
                b = [rng.randrange(p) for _ in range(n)]
                x, nullity, y = gfmat.solve_system(M, b)
                assert x == gfmat.solve(M, b)
                assert nullity == gfmat.rank_nullity(M).nullity
                if x is None:
                    assert M.mul_vec(y) == (0,) * n
                    assert sum(a * v for a, v in zip(y, b)) % p
                else:
                    assert y is None

    def test_matches_brute_force_on_small_systems(self):
        rng = random.Random(23)
        for p in (2, 3):
            for _ in range(40):
                M = PrimeFieldMatrix(random_modp_matrix(3, 3, p, rng), p)
                b = [rng.randrange(p) for _ in range(3)]
                everything = brute_force_solutions(M, b)
                x = gfmat.solve(M, b)
                if everything:
                    assert x in everything
                else:
                    assert x is None


class TestKernelBasis:
    def test_path3_kernel(self):
        assert gfmat.kernel_basis(P3) == [(1, 0, 1)]

    def test_identity_has_trivial_kernel(self):
        assert gfmat.kernel_basis(PrimeFieldMatrix.identity(4, 3)) == []

    def test_product_operator_kernel_matches_enumeration(self):
        # Independent oracle: enumerate all 16 candidate 2x2 matrices X
        # with AX = XB and compare dimensions.
        L = gfmat.sylvester_operator(P2, P2)
        basis = gfmat.kernel_basis(L)
        assert len(basis) == 2
        assert commuting_pairs_dimension(P2, P2) == 2

    def test_kernel_vectors_annihilate_and_are_independent(self):
        rng = random.Random(29)
        for p in (2, 3, 5):
            for _ in range(40):
                rows, cols = rng.randint(1, 6), rng.randint(1, 6)
                M = PrimeFieldMatrix(random_modp_matrix(rows, cols, p, rng), p)
                basis = gfmat.kernel_basis(M)
                profile = gfmat.rank_nullity(M)
                assert len(basis) == profile.nullity
                for v in basis:
                    assert M.mul_vec(v) == (0,) * rows
                if basis:
                    stacked = PrimeFieldMatrix(basis, p)
                    assert gfmat.rank_nullity(stacked).rank == len(basis)

    def test_equals_the_rref_reading(self):
        # The RREF basis vector at free column f is 1 at f, 0 at the other
        # free columns and -R[k, f] at the k-th pivot column.
        def rref_reading(M):
            R, profile = gfmat.rref(M)
            basis = []
            for f in range(M.cols):
                if f in profile.pivot_columns:
                    continue
                v = [0] * M.cols
                v[f] = 1
                for k, c in enumerate(profile.pivot_columns):
                    v[c] = -R[k, f] % M.p
                basis.append(tuple(v))
            return basis

        rng = random.Random(71)
        for p in (2, 3, 5):
            for _ in range(60):
                rows, cols = rng.randint(0, 8), rng.randint(0, 8)
                if rows and cols and rng.getrandbits(1):
                    rank = rng.randint(1, min(rows, cols))
                    M = PrimeFieldMatrix(random_modp_matrix(rows, rank, p, rng), p) @ (
                        PrimeFieldMatrix(random_modp_matrix(rank, cols, p, rng), p)
                    )
                elif rows:
                    M = PrimeFieldMatrix(random_modp_matrix(rows, cols, p, rng), p)
                else:
                    M = PrimeFieldMatrix.zeros(0, cols, p)
                assert gfmat.kernel_basis(M) == rref_reading(M), (p, rows, cols)
        # 144 rows take the GF(2) kernel's striped path
        for _ in range(3):
            A = PrimeFieldMatrix(random_symmetric01(12, rng), 2)
            L = gfmat.sylvester_operator(A, A)
            assert gfmat.kernel_basis(L) == rref_reading(L)


class TestInverse:
    def test_round_trip(self):
        rng = random.Random(31)
        for p in (2, 3, 5):
            for n in (1, 2, 4):
                M = random_invertible(n, p, rng)
                inv = gfmat.inverse(M)
                assert inv @ M == PrimeFieldMatrix.identity(n, p)
                assert M @ inv == PrimeFieldMatrix.identity(n, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_empty_matrix_is_its_own_inverse(self, p):
        assert gfmat.inverse(PrimeFieldMatrix.zeros(0, 0, p)) == PrimeFieldMatrix.zeros(0, 0, p)

    def test_singular_returns_none(self):
        assert gfmat.inverse(PrimeFieldMatrix.zeros(2, 2, 2)) is None
        assert gfmat.inverse(PrimeFieldMatrix([[1, 1], [1, 1]], 3)) is None


class TestKronecker:
    def test_identity_times_swap_is_block_diagonal(self):
        K = gfmat.kronecker(PrimeFieldMatrix.identity(2, 2), P2)
        assert K.to_lists() == [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ]

    def test_dimension_law(self):
        rng = random.Random(37)
        A = PrimeFieldMatrix(random_matrix01(2, 3, rng), 2)
        B = PrimeFieldMatrix(random_matrix01(4, 5, rng), 2)
        K = gfmat.kronecker(A, B)
        assert (K.rows, K.cols) == (8, 15)

    def test_scalar_case_mod_3(self):
        K = gfmat.kronecker(PrimeFieldMatrix([[2]], 3), PrimeFieldMatrix([[2]], 3))
        assert K.to_lists() == [[1]]

    def test_block_structure(self):
        rng = random.Random(41)
        for p in (2, 3):
            A = PrimeFieldMatrix(random_modp_matrix(2, 2, p, rng), p)
            B = PrimeFieldMatrix(random_modp_matrix(3, 3, p, rng), p)
            K = gfmat.kronecker(A, B)
            for i in range(2):
                for j in range(2):
                    for k in range(3):
                        for l in range(3):
                            assert K[i * 3 + k, j * 3 + l] == (A[i, j] * B[k, l]) % p

    def test_mixed_product_on_vectors(self):
        rng = random.Random(43)
        for p in (2, 3, 5):
            for _ in range(20):
                A = PrimeFieldMatrix(random_modp_matrix(2, 3, p, rng), p)
                B = PrimeFieldMatrix(random_modp_matrix(3, 2, p, rng), p)
                v = [rng.randrange(p) for _ in range(3)]
                w = [rng.randrange(p) for _ in range(2)]
                vw = [(a * b) % p for a in v for b in w]
                left = gfmat.kronecker(A, B).mul_vec(vw)
                Av, Bw = A.mul_vec(v), B.mul_vec(w)
                right = tuple((a * b) % p for a in Av for b in Bw)
                assert left == right


class TestSpreadColumns:
    @pytest.mark.parametrize("density", [0, 0.03, 0.5])
    def test_matches_entry_by_entry_spread(self, density):
        rng = random.Random(f"spread-{density}")
        for nrows, cols in [(0, 5), (1, 1), (7, 7), (5, 13), (13, 5), (40, 3), (3, 40)]:
            rows = [sum(1 << j for j in range(cols) if rng.random() < density) for _ in range(nrows)]
            if nrows > 1:
                rows[1] = 0
            for stride in {1, max(1, cols // 2), cols, cols + 3, 64}:
                want = spread_columns_by_entries(rows, cols, stride)
                assert gfmat._spread_columns(rows, cols, stride) == want, (nrows, cols, stride)


class TestSylvesterOperator:
    def test_matches_kronecker_formula(self):
        rng = random.Random(47)
        for p in (2, 3, 5):
            # Random B is not symmetric; shapes include m != n and empty factors.
            shapes = [(0, 0), (0, 3), (3, 0), (2, 5)]
            shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(15)]
            if p == 2:  # B's spread columns at strides up to 40, across many set bits
                shapes += [(rng.randint(7, 20), rng.randint(7, 20)) for _ in range(4)]
                shapes += [(20, 20), (1, 40), (40, 1), (3, 24)]
            for m, n in shapes:
                A = PrimeFieldMatrix(random_modp_matrix(m, m, p, rng), p)
                B = PrimeFieldMatrix(random_modp_matrix(n, n, p, rng), p)
                direct = gfmat.sylvester_operator(A, B)
                via_kron = gfmat.kronecker(
                    PrimeFieldMatrix.identity(n, p), A
                ) - gfmat.kronecker(B.transpose(), PrimeFieldMatrix.identity(m, p))
                assert direct == via_kron

    def test_vectorization_convention(self):
        # Column-stacked: acting on vec(X) must equal vec(AX - XB).
        rng = random.Random(53)
        for p in (2, 5):
            m, n = 3, 2
            A = PrimeFieldMatrix(random_modp_matrix(m, m, p, rng), p)
            B = PrimeFieldMatrix(random_modp_matrix(n, n, p, rng), p)
            X = PrimeFieldMatrix(random_modp_matrix(m, n, p, rng), p)
            vec = [X[i, j] for j in range(n) for i in range(m)]
            applied = gfmat.sylvester_operator(A, B).mul_vec(vec)
            want = A @ X - X @ B
            assert applied == tuple(want[i, j] for j in range(n) for i in range(m))

    def test_small_cases(self):
        L = gfmat.sylvester_operator(P2, P2)
        assert (L.rows, L.cols) == (4, 4)
        assert gfmat.rank_nullity(L).nullity == 2
        zero1 = PrimeFieldMatrix.zeros(1, 1, 2)
        assert gfmat.sylvester_operator(zero1, zero1).to_lists() == [[0]]
        one = PrimeFieldMatrix([[1]], 3)
        zero3 = PrimeFieldMatrix([[0]], 3)
        assert gfmat.sylvester_operator(one, zero3).to_lists() == [[1]]

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            gfmat.sylvester_operator(P2, PrimeFieldMatrix([[0]], 3))

    def test_nullity_invariant_under_similarity(self):
        rng = random.Random(59)
        for _ in range(50):
            p = rng.choice((2, 3))
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = PrimeFieldMatrix(random_modp_matrix(m, m, p, rng), p)
            B = PrimeFieldMatrix(random_modp_matrix(n, n, p, rng), p)
            S = random_invertible(m, p, rng)
            T = random_invertible(n, p, rng)
            A2 = gfmat.inverse(S) @ A @ S
            B2 = gfmat.inverse(T) @ B @ T
            before = gfmat.rank_nullity(gfmat.sylvester_operator(A, B)).nullity
            after = gfmat.rank_nullity(gfmat.sylvester_operator(A2, B2)).nullity
            assert before == after


class TestSolveSylvester:
    """The Krylov chase against the m*n-row elimination of L it replaces."""

    @staticmethod
    def check(A, B, b) -> bool:
        """Assert the chase's answer is the elimination's; True when unsolvable."""
        L = gfmat.sylvester_operator(A, B)
        x, nullity, y = gfmat.solve_sylvester(A, B, b)
        want_x, want_nullity, _ = gfmat.solve_system(L, b)
        assert (x, nullity) == (want_x, want_nullity)
        if x is not None:
            assert y is None
            return False
        assert not any(L.mul_vec(y)) and sum(a * v for a, v in zip(y, b)) % 2 == 1
        return True

    def test_random_pairs_in_both_modes(self):
        rng = random.Random(2901)
        unsolvable = 0
        for _ in range(500):
            m, n = rng.randint(2, 9), rng.randint(2, 9)
            g, h = game.random_graph(m, rng), game.random_graph(n, rng)
            for mode in game.MODES:
                A, B = game.switching_matrix(g, mode), game.switching_matrix(h, "open")
                for b in ((1,) * (m * n), [rng.getrandbits(1) for _ in range(m * n)]):
                    unsolvable += self.check(A, B, b)
        assert unsolvable > 100

    def test_factors_with_many_krylov_generators_along_either_factor(self, tmp_path, monkeypatch):
        def union(name, *specs):  # the disjoint union, through a file: spec
            n, edges = 0, []
            for g in map(game.build_family, specs):
                edges += [(u + n, v + n) for u, v in sorted(g.edges)]
                n += g.vertex_count
            path = tmp_path / name
            path.write_text(f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            return f"file:{path}"

        specs = [
            "star:5", "star:8", "complete:4", "complete:7", "petersen", "grid:3x3",
            "grid:2x4", "path:1", "cycle:6",
            union("paths.txt", "path:3", "path:3"),
            union("mixed.txt", "cycle:4", "star:3", "path:1"),
            union("edgeless.txt", "path:1", "path:1", "path:1"),
            union("empty.txt"),
        ]
        matrices = [
            game.switching_matrix(game.build_family(s), mode) for s in specs for mode in game.MODES
        ]
        sizes = []
        echelon = _gf2kernel.echelon_bits

        def counted(rows, *args, **kwargs):
            sizes.append(len(rows))
            return echelon(rows, *args, **kwargs)

        monkeypatch.setattr(_gf2kernel, "echelon_bits", counted)
        rng = random.Random(2903)
        routes = set()
        unsolvable = 0
        for A in matrices:
            for B in matrices:
                m, n = A.rows, B.rows
                for b in ((1,) * (m * n), [rng.getrandbits(1) for _ in range(m * n)]):
                    unsolvable += self.check(A, B, b)
                # one elimination, of k * (other order) rows along the factor that makes fewer
                ka, kb = (len(gfmat.krylov_relations(M)[1]) for M in (A, B))
                route = "A" if ka * n < kb * m else "B"
                routes.add(route)
                sizes.clear()
                gfmat.solve_sylvester(A, B, (1,) * (m * n))
                assert sizes == [ka * n if route == "A" else kb * m], (m, n)
        assert routes == {"A", "B"} and unsolvable

    def test_rejects_odd_p_asymmetric_factors_and_a_wrong_length(self):
        for p in (3, 5):
            swap = PrimeFieldMatrix([[0, 1], [1, 0]], p)
            for A, B in ((swap, swap), (P2, swap)):
                with pytest.raises(ValueError):
                    gfmat.solve_sylvester(A, B, (1,) * 4)
        asymmetric = PrimeFieldMatrix([[0, 1], [0, 0]], 2)
        with pytest.raises(ValueError):
            gfmat.solve_sylvester(asymmetric, P3, (1,) * 6)
        with pytest.raises(ValueError):
            gfmat.solve_sylvester(P2, P3, (1,) * 5)


class TestRankProfile:
    def test_fields_and_equality(self):
        profile = gfmat.rank_nullity(P3)
        assert (profile.rank, profile.nullity, profile.pivot_columns) == (2, 1, (0, 1))
        assert profile == gfmat.RankProfile(rank=2, nullity=1, pivot_columns=(0, 1))
        assert profile == gfmat.RankProfile(2, 1, (0, 1))
        assert profile != gfmat.RankProfile(2, 1, (0, 2))
        with pytest.raises(AttributeError):
            profile.rank = 3
