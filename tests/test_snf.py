"""Smith normal form, invariant factors, and the two charpoly routes."""

import random
from itertools import combinations

import pytest

from helpers import (
    euclid_gcd,
    poly_det_cofactor,
    random_matrix01,
    random_modp_matrix,
    random_symmetric01,
    smith_normal_form_on_polys,
)
from lightsout import gfmat, gfpoly, snf
from lightsout.game import (
    build_family,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
    star_graph,
    switching_matrix,
)
from lightsout.gfmat import PrimeFieldMatrix
from lightsout.gfpoly import Poly, _divmod2, _gcd2, _mul2, prod


def P(text, p=2):
    return Poly.parse(text, p)


def companion(f: Poly) -> PrimeFieldMatrix:
    """Companion matrix of a monic polynomial (charpoly equals f)."""
    n = f.degree
    p = f.p
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = (-f.coeffs[i]) % p
    return PrimeFieldMatrix(rows, p)


class TestCharMatrix:
    def test_zero_matrix(self):
        M = snf.char_matrix(PrimeFieldMatrix.zeros(2, 2, 2))
        assert M[0][0] == P("x") and M[1][1] == P("x")
        assert M[0][1].is_zero and M[1][0].is_zero

    def test_identity_1x1(self):
        M = snf.char_matrix(PrimeFieldMatrix.identity(1, 2))
        assert M[0][0] == P("x + 1")

    def test_path2_negation_wraps(self):
        M = snf.char_matrix(PrimeFieldMatrix([[0, 1], [1, 0]], 2))
        assert M[0][0] == P("x") and M[0][1] == P("1")
        M3 = snf.char_matrix(PrimeFieldMatrix([[0, 1], [1, 0]], 3))
        assert M3[0][1] == Poly((2,), 3)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            snf.char_matrix(PrimeFieldMatrix.zeros(2, 3, 2))

    def test_gf2_entries_are_x_delta_minus_a(self):
        rng = random.Random(79)
        x = P("x")
        for n in range(13):
            A = PrimeFieldMatrix(random_matrix01(n, n, rng), 2)
            for B in (A, A + PrimeFieldMatrix.identity(n, 2)):
                M = snf.char_matrix(B)
                assert len(M) == n and all(len(row) == n for row in M)
                for i in range(n):
                    for j in range(n):
                        delta = Poly((int(i == j),), 2)
                        assert M[i][j] == x * delta - Poly((B[i, j],), 2)


class TestSmithNormalForm:
    def test_companion_matrix_is_nonderogatory(self):
        f = P("x^3 + x + 1")
        s = snf.invariant_factors(companion(f))
        assert s.invariant_factors == (Poly.one(2), Poly.one(2), f)

    def test_zero_2x2(self):
        s = snf.invariant_factors(PrimeFieldMatrix.zeros(2, 2, 2))
        assert s.invariant_factors == (P("x"), P("x"))

    def test_petersen_pinned(self):
        s = snf.invariant_factors(switching_matrix(petersen_graph()))
        assert len(s) == 10
        assert s.invariant_factors[:5] == (Poly.one(2),) * 5
        assert s.nontrivial() == (
            P("x + 1"),
            P("x^2 + x"),
            P("x^2 + x"),
            P("x^2 + x"),
            P("x^3 + x"),
        )
        assert sum(f.degree for f in s.nontrivial()) == 10

    def test_star5_pinned(self):
        s = snf.invariant_factors(switching_matrix(star_graph(5)))
        assert s.invariant_factors == (
            Poly.one(2),
            Poly.one(2),
            P("x"),
            P("x"),
            P("x^3"),
        )

    def test_path2_by_hand(self):
        s = snf.invariant_factors(PrimeFieldMatrix([[0, 1], [1, 0]], 2))
        assert s.invariant_factors == (Poly.one(2), P("x^2 + 1"))

    def test_identity_2x2(self):
        s = snf.invariant_factors(PrimeFieldMatrix.identity(2, 2))
        assert s.invariant_factors == (P("x + 1"), P("x + 1"))

    def test_unimodular_1x1(self):
        s = snf.smith_normal_form([[Poly.one(2)]])
        assert s.invariant_factors == (Poly.one(2),)

    def test_diagonal_coprime_pair_becomes_chain(self):
        s = snf.smith_normal_form([[P("x"), P("0")], [P("0"), P("x + 1")]])
        assert s.invariant_factors == (Poly.one(2), P("x^2 + x"))

    def test_diagonal_out_of_order_becomes_chain(self):
        s = snf.smith_normal_form([[P("x^2"), P("0")], [P("0"), P("x")]])
        assert s.invariant_factors == (P("x"), P("x^2"))

    def test_non_monic_diagonal_comes_out_monic(self):
        s = snf.smith_normal_form(
            [[P("2*x", 3), P("0", 3)], [P("0", 3), P("x^2 + 1", 3)]]
        )
        assert s.invariant_factors == (Poly.one(3), P("x^3 + x", 3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            snf.smith_normal_form([[P("x"), P("1")]])

    def test_singular_matrix_rejected(self):
        x = P("x")
        with pytest.raises(ValueError, match="zero determinant"):
            snf.smith_normal_form([[x, x], [x, x]])

    def test_non_poly_entry_rejected(self):
        with pytest.raises(TypeError, match="int"):
            snf.smith_normal_form([[1]])
        with pytest.raises(TypeError):
            snf.smith_normal_form([[P("x"), P("0")], [0, P("x + 1")]])

    def test_mixed_fields_rejected(self):
        # packing a GF(3) coefficient 2 as bits would corrupt the result
        zero3 = Poly.zero(3)
        with pytest.raises(ValueError, match="field mismatch"):
            snf.smith_normal_form([[P("x"), zero3], [zero3, P("x + 1")]])
        with pytest.raises(ValueError, match="field mismatch"):
            snf.smith_normal_form([[P("x", 3), P("0")], [P("0"), P("x + 1")]])

    def test_divisibility_chain_and_degree_sum(self):
        rng = random.Random(61)
        for p in (2, 3, 5):
            for _ in range(25):
                n = rng.randint(1, 7)
                A = PrimeFieldMatrix(random_symmetric01(n, rng), p)
                s = snf.invariant_factors(A)
                assert len(s) == n
                assert sum(f.degree for f in s.invariant_factors) == n
                assert all(f.lead == 1 for f in s.invariant_factors)
                for a, b in zip(s.invariant_factors, s.invariant_factors[1:]):
                    assert (b % a).is_zero

    def test_determinantal_divisors(self):
        # s_1 ... s_k equals the monic gcd of all k x k minors, with minors
        # computed by plain cofactor expansion.  Inputs are xI - A and random
        # nonsingular matrices with entries of degree <= 2; the latter have
        # non-unit pivots with nonzero remainders below them, which xI - A
        # rarely has.
        def check(M, s, p):
            n = len(M)
            for k in range(1, n + 1):
                g = Poly.zero(p)
                for rows_sel in combinations(range(n), k):
                    for cols_sel in combinations(range(n), k):
                        sub = [[M[i][j] for j in cols_sel] for i in rows_sel]
                        g = euclid_gcd(g, poly_det_cofactor(sub, p))
                assert g == prod(s.invariant_factors[:k], p).monic()

        rng = random.Random(67)
        for p in (2, 3):
            for _ in range(8):
                n = rng.randint(1, 4)
                A = PrimeFieldMatrix(
                    [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p
                )
                check(snf.char_matrix(A), snf.invariant_factors(A), p)
        rng = random.Random(68)
        for p in (2, 3):
            for n in (2, 3):
                for _ in range(12):
                    M = [
                        [Poly([rng.randrange(p) for _ in range(3)], p) for _ in range(n)]
                        for _ in range(n)
                    ]
                    if poly_det_cofactor(M, p).is_zero:
                        continue
                    check(M, snf.smith_normal_form(M), p)

    def test_paths_are_nonderogatory(self):
        for m in range(1, 9):
            s = snf.invariant_factors(switching_matrix(path_graph(m)))
            assert len(s.nontrivial()) == 1

    def test_factor_count_divisible_by_x_equals_nullity(self):
        rng = random.Random(71)
        x = P("x")
        for _ in range(40):
            n = rng.randint(1, 7)
            A = PrimeFieldMatrix(random_symmetric01(n, rng), 2)
            s = snf.invariant_factors(A)
            divisible = sum(1 for f in s.invariant_factors if (f % x).is_zero)
            assert divisible == gfmat.rank_nullity(A).nullity
        # large graphs, where the Berkowitz cross-check would be slow: x counts
        # the kernel of A and x + 1 the kernel of A + I
        for n in (30, 40, 48):
            g = random_graph(n, rng)
            s = snf.invariant_factors(switching_matrix(g))
            for q, mode in ((x, "open"), (P("x + 1"), "closed")):
                divisible = sum(1 for f in s.invariant_factors if (f % q).is_zero)
                assert divisible == gfmat.rank_nullity(switching_matrix(g, mode)).nullity


def from_bits(v: int) -> Poly:
    return Poly([(v >> i) & 1 for i in range(v.bit_length())], 2)


class TestPackedGF2:
    """The op-table loop (packed ints at p = 2) against the Poly-only reference loop."""

    def assert_matches_reference(self, M):
        rows = [list(row) for row in M]
        assert str(snf.smith_normal_form(M)) == str(smith_normal_form_on_polys(M))
        assert M == rows

    def test_char_matrices_match_reference(self):
        rng = random.Random(83)
        for n in range(13):
            for _ in range(3):
                for rows in (random_symmetric01(n, rng), random_matrix01(n, n, rng)):
                    A = PrimeFieldMatrix(rows, 2)
                    for B in (A, A + PrimeFieldMatrix.identity(n, 2)):
                        self.assert_matches_reference(snf.char_matrix(B))

    def test_nonsingular_degree3_entries_match_reference(self):
        # entries of degree <= 3 give non-unit pivots with nonzero remainders,
        # which xI - A rarely has; a singular draw must fail the same way
        rng = random.Random(89)
        nonsingular = 0
        for n in range(1, 7):
            for _ in range(15):
                M = [[from_bits(rng.getrandbits(4)) for _ in range(n)] for _ in range(n)]
                try:
                    expected = str(smith_normal_form_on_polys(M))
                except ValueError:
                    with pytest.raises(ValueError, match="zero determinant"):
                        snf.smith_normal_form(M)
                    continue
                assert str(snf.smith_normal_form(M)) == expected
                nonsingular += 1
        assert nonsingular > 60

    def test_odd_p_char_matrices_match_reference(self):
        # off-diagonal entries -c of xI - A are units; c = p - 1 gives pivot 1
        rng = random.Random(103)
        for p in (3, 5):
            for n in range(11):
                for rows in (random_matrix01(n, n, rng), random_modp_matrix(n, n, p, rng)):
                    self.assert_matches_reference(snf.char_matrix(PrimeFieldMatrix(rows, p)))

    def test_odd_p_unit_entries_match_reference(self):
        # a third of the entries are 1 or another unit, the rest degree <= 2;
        # at p = 7 some units' inverses are neither 1 nor -1
        rng = random.Random(107)
        nonsingular = 0
        for p in (3, 5, 7):
            for n in range(1, 7):
                for _ in range(12):
                    M = [
                        [
                            Poly((rng.randrange(1, p),), p)
                            if rng.random() < 1 / 3
                            else Poly([rng.randrange(p) for _ in range(3)], p)
                            for _ in range(n)
                        ]
                        for _ in range(n)
                    ]
                    try:
                        expected = str(smith_normal_form_on_polys(M))
                    except ValueError:
                        with pytest.raises(ValueError, match="zero determinant"):
                            snf.smith_normal_form(M)
                        continue
                    assert str(snf.smith_normal_form(M)) == expected
                    nonsingular += 1
        assert nonsingular > 100

    @pytest.mark.parametrize("p", [3, 5])
    def test_odd_p_unit_pivots_take_the_step_without_division(self, p, monkeypatch):
        # path:8 is nonderogatory: R is 1 x 1, so its Smith form divides nothing
        calls = []
        divmod_ = Poly.__divmod__
        monkeypatch.setattr(Poly, "__divmod__", lambda f, g: calls.append(g) or divmod_(f, g))
        s = snf.invariant_factors(switching_matrix(path_graph(8), "open", p))
        assert calls == []
        assert [f.degree for f in s.invariant_factors] == [0] * 7 + [8]

    def test_krylov_relation_matrices_match_reference(self):
        # R of a random graph sometimes holds a nonzero constant below the
        # diagonal, which the Smith form takes as a unit pivot
        rng = random.Random(113)
        for p in (2, 3, 5, 7):
            unit_below = 0
            for _ in range(75):
                g = random_graph(rng.randint(1, 8), rng)
                for mode in ("open", "closed"):
                    _, R = snf.krylov_relations(switching_matrix(g, mode, p))
                    if p == 2:  # R's entries are packed ints
                        R = [[from_bits(f) for f in row] for row in R]
                    self.assert_matches_reference(R)
                    unit_below += any(f.degree == 0 for i, row in enumerate(R) for f in row[:i])
            assert unit_below >= 3, p

    def test_packed_entry_point_matches_reference(self):
        # random packed matrices with entries of degree <= 3, a third of them
        # made singular by a repeated row, and the relation matrices of random
        # graphs
        rng = random.Random(127)
        singular = nonsingular = 0
        for n in range(7):
            for t in range(21):
                M = [[rng.getrandbits(4) for _ in range(n)] for _ in range(n)]
                if n > 1 and t % 3 == 0:
                    M[-1] = list(M[0])
                rows = [list(row) for row in M]
                polys = [list(map(from_bits, row)) for row in M]
                try:
                    expected = str(smith_normal_form_on_polys(polys))
                except ValueError:
                    with pytest.raises(ValueError, match="zero determinant"):
                        snf.smith_normal_form(M, packed=True)
                    singular += 1
                    continue
                assert str(snf.smith_normal_form(M, packed=True)) == expected
                assert M == rows
                nonsingular += 1
        assert singular > 20 and nonsingular > 60
        for _ in range(40):
            g = random_graph(rng.randint(1, 8), rng)
            for mode in ("open", "closed"):
                _, R = snf.krylov_relations(switching_matrix(g, mode))
                assert all(type(f) is int for row in R for f in row)
                expected = smith_normal_form_on_polys([[from_bits(f) for f in row] for row in R])
                assert snf.smith_normal_form(R, packed=True) == expected

    def test_gf2_invariant_factors_build_one_poly_per_non_unit_factor(self, monkeypatch):
        # R's entries stay packed ints and the unit factors share one Poly; the
        # result builds each non-unit Poly on the first read of its factors
        rng = random.Random(131)
        graphs = [path_graph(8), petersen_graph(), build_family("grid:6x6")]
        graphs += [random_graph(rng.randint(1, 12), rng) for _ in range(20)]
        built = []
        init = Poly.__init__

        def counting_init(self, coeffs, p):
            built.append(p)
            init(self, coeffs, p)

        monkeypatch.setattr(Poly, "__init__", counting_init)
        for g in graphs:
            for mode in ("open", "closed"):
                built.clear()
                s = snf.invariant_factors(switching_matrix(g, mode))
                assert built == [], (g, mode)
                assert s.field == 2 and built == []
                assert len(s) == s.ones + len(s.factors) and built == []
                factors = s.invariant_factors
                assert built == [2] * len(s.factors), (g, mode)
                assert s.invariant_factors is factors and len(s.nontrivial()) == len(s.factors)
                assert built == [2] * len(s.factors)

    def test_48_vertex_graph_matches_reference(self):
        A = switching_matrix(random_graph(48, random.Random(97)))
        self.assert_matches_reference(snf.char_matrix(A))

    def test_int_helpers_match_poly_arithmetic(self):
        rng = random.Random(101)
        operands = [0, 1, 0b10, 0b11] + [
            rng.getrandbits(rng.randint(1, 101)) for _ in range(60)
        ]
        for a in operands:
            for b in rng.sample(operands, 12) + [0, 1]:
                fa, fb = from_bits(a), from_bits(b)
                assert from_bits(_mul2(a, b)) == fa * fb
                assert from_bits(_gcd2(a, b)) == euclid_gcd(fa, fb)
                if b:
                    q, r = _divmod2(a, b)
                    assert (from_bits(q), from_bits(r)) == divmod(fa, fb)
        assert max(operands).bit_length() > 64

    def test_int_division_by_zero_raises(self):
        for a in (0, 1, 0b1011):
            with pytest.raises(ZeroDivisionError):
                _divmod2(a, 0)
            with pytest.raises(ZeroDivisionError):
                divmod(from_bits(a), Poly.zero(2))


class TestPackedFactors:
    def test_a_result_built_from_polys_packs_its_nontrivial_factors(self):
        # the non-unit factors in the field's working form: packed ints at
        # p = 2, the Poly themselves at odd p
        s = snf.SnfResult((Poly.one(2), P("x"), P("x^3 + x + 1"), Poly.zero(2)))
        assert (s.field, s.ones, s.factors) == (2, 2, (0b10, 0b1011))
        empty = snf.SnfResult(())
        assert (empty.field, empty.ones, empty.factors, len(empty)) == (None, 0, (), 0)
        odd = snf.SnfResult((Poly.one(3), P("x + 2", 3)))
        assert (odd.field, odd.ones, odd.factors) == (3, 1, (P("x + 2", 3),))

    def test_smith_form_hands_over_the_packed_factors_unpacked_again(self, monkeypatch):
        rng = random.Random(61)
        packs = []
        pack_bits = gfpoly._pack_bits
        monkeypatch.setattr(gfpoly, "_pack_bits", lambda values: packs.append(values) or pack_bits(values))
        for _ in range(40):
            A = switching_matrix(random_graph(rng.randint(1, 12), rng))
            s = snf.invariant_factors(A)
            assert s.factors == snf.SnfResult(s.invariant_factors).factors
            packs.clear()
            assert snf.invariant_factors(A).factors == s.factors
            assert packs == []
            A3 = PrimeFieldMatrix(A.to_lists(), 3)  # at odd p the working form is the monic Poly
            reference = smith_normal_form_on_polys(snf.char_matrix(A3)).nontrivial()
            assert snf.invariant_factors(A3).factors == reference and packs == []


class TestKrylovRoute:
    """invariant_factors (Krylov relations) against the Smith form of xI - A."""

    def assert_matches_char_matrix(self, A):
        before = A.to_lists()
        ones, R = snf.krylov_relations(A)
        assert A.to_lists() == before
        if A.p == 2:
            R = [[from_bits(f) for f in row] for row in R]
        k = len(R)
        assert ones == A.rows - k and all(len(row) == k for row in R)
        assert all(R[i][j].is_zero for i in range(k) for j in range(i + 1, k))
        assert all(R[i][i].lead == 1 and R[i][i].degree >= 1 for i in range(k))
        assert sum(R[i][i].degree for i in range(k)) == A.rows
        for i in range(k):
            assert all(R[i][j].degree is None or R[i][j].degree < R[j][j].degree for j in range(i))
        expected = str(snf.smith_normal_form(snf.char_matrix(A)))
        assert str(snf.invariant_factors(A)) == expected
        assert A.to_lists() == before
        return k

    def test_random_matrices(self):
        rng = random.Random(109)
        for p in (2, 3, 5):
            for n in range(13):
                for rows in (
                    random_symmetric01(n, rng),
                    random_matrix01(n, n, rng),
                    random_modp_matrix(n, n, p, rng),
                ):
                    A = PrimeFieldMatrix(rows, p)
                    self.assert_matches_char_matrix(A)
                    self.assert_matches_char_matrix(A + PrimeFieldMatrix.identity(n, p))
        # at p = 2 a basis row's tag takes n + 1 bits below its vector, in 2n + 2 slots
        for n in (20, 33, 48):
            A = PrimeFieldMatrix(random_matrix01(n, n, rng), 2)
            self.assert_matches_char_matrix(A)
            self.assert_matches_char_matrix(A + PrimeFieldMatrix.identity(n, 2))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_graph_families(self, p):
        graphs = [build_family("grid:5x5"), petersen_graph()]
        for n in (1, 2, 5, 9):
            graphs += [path_graph(n), star_graph(n), complete_graph(n)]
        graphs += [cycle_graph(n) for n in (3, 4, 7, 12)]
        for g in graphs:
            for mode in ("open", "closed"):
                self.assert_matches_char_matrix(switching_matrix(g, mode, p))

    @pytest.mark.parametrize("p", [2, 3])
    def test_grid_12x12_has_a_block_per_row(self, p):
        A = switching_matrix(build_family("grid:12x12"), "open", p)
        assert self.assert_matches_char_matrix(A) == 12

    def test_zero_identity_and_empty_matrices_have_n_blocks(self):
        for p in (2, 3, 5):
            for n in (0, 1, 4, 7):
                assert self.assert_matches_char_matrix(PrimeFieldMatrix.zeros(n, n, p)) == n
                assert self.assert_matches_char_matrix(PrimeFieldMatrix.identity(n, p)) == n

    def test_non_square_rejected(self):
        for p in (2, 3):
            with pytest.raises(ValueError, match="square"):
                snf.invariant_factors(PrimeFieldMatrix.zeros(2, 3, p))


class TestCharpolyRoutes:
    def test_path2_over_integers(self):
        assert snf.charpoly_oracle([[0, 1], [1, 0]], 2) == P("x^2 + 1")
        assert snf.charpoly_oracle([[0, 1], [1, 0]], 5) == Poly((4, 0, 1), 5)

    def test_path3_hand_cofactor(self):
        # det(xI - A) = x^3 - 2x over the integers, so x^3 mod 2, x^3 + x mod 3.
        A = switching_matrix(path_graph(3))
        assert snf.charpoly_oracle(A, 2) == P("x^3")
        assert snf.charpoly_oracle(A, 3) == Poly((0, 1, 0, 1), 3)

    def test_petersen_matches_snf_product(self):
        A = switching_matrix(petersen_graph())
        s = snf.invariant_factors(A)
        assert snf.charpoly_from_snf(s) == snf.charpoly_oracle(A, 2)
        assert snf.charpoly_from_snf(s) == P("x^10 + x^8 + x^6 + x^4")

    def test_charpoly_from_snf_examples(self):
        assert snf.charpoly_from_snf(
            snf.SnfResult((Poly.one(2), P("x^2 + 1")))
        ) == P("x^2 + 1")
        assert snf.charpoly_from_snf(snf.SnfResult((P("x"), P("x")))) == P("x^2")
        # a 0x0 matrix has no invariant factors; its field comes from p
        empty = snf.invariant_factors(PrimeFieldMatrix([], 3))
        assert snf.charpoly_from_snf(empty, 3) == Poly.one(3)
        with pytest.raises(ValueError):
            snf.charpoly_from_snf(empty)

    def test_a_result_takes_its_factors_from_one_field(self):
        # the field was read off the first factor alone: (x over GF(2),
        # 2x^2 + 1 over GF(3)) gave factors (2, 1) and a charpoly of x
        with pytest.raises(ValueError, match=r"field mismatch: GF\(2\) vs GF\(3\)"):
            snf.SnfResult((P("x"), P("2*x^2 + 1", 3)))
        with pytest.raises(ValueError, match=r"field mismatch"):
            snf.SnfResult((Poly.one(3), P("x"), P("x^2")))
        with pytest.raises(TypeError, match="must be Poly, not int"):
            snf.SnfResult((P("x"), 1))

    def test_charpoly_from_snf_rejects_another_field(self):
        s = snf.SnfResult((P("x + 1"),))
        assert snf.charpoly_from_snf(s, 2) == P("x + 1")
        with pytest.raises(ValueError, match=r"field mismatch: GF\(2\) vs GF\(3\)"):
            snf.charpoly_from_snf(s, 3)

    def test_gf2_product_runs_on_the_packed_factors(self, monkeypatch):
        # packing the factors again in gfpoly.prod was half of a verify pass's packs
        rng = random.Random(67)
        results = [
            snf.invariant_factors(switching_matrix(random_graph(rng.randint(1, 10), rng)))
            for _ in range(30)
        ]
        packs = []
        pack_bits = gfpoly._pack_bits
        monkeypatch.setattr(gfpoly, "_pack_bits", lambda v: packs.append(v) or pack_bits(v))
        got = [snf.charpoly_from_snf(s) for s in results]
        got.append(snf.charpoly_from_snf(snf.SnfResult(()), 2))
        assert packs == []
        assert got == [prod(s.invariant_factors, 2) for s in results] + [Poly.one(2)]

    def test_known_closed_forms(self):
        # complete graph K_n: det(xI - A) = (x - (n-1)) (x + 1)^(n-1)
        for n in (2, 3, 4, 5):
            rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
            for p in (2, 3, 5):
                expect = Poly((-(n - 1), 1), p) * Poly((1, 1), p) ** (n - 1)
                assert snf.charpoly_oracle(rows, p) == expect

    def test_oracle_requires_square(self):
        with pytest.raises(ValueError):
            snf.charpoly_oracle([[0, 1]], 2)

    def test_routes_agree_on_randoms(self):
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(1, 8)
            rows = random_symmetric01(n, rng)
            for p in (2, 3, 5):
                A = PrimeFieldMatrix(rows, p)
                assert snf.charpoly_from_snf(
                    snf.invariant_factors(A)
                ) == snf.charpoly_oracle(rows, p)


class TestFactorData:
    def test_star5(self):
        s = snf.invariant_factors(switching_matrix(star_graph(5)))
        fd = snf.factor_data(s)
        assert fd.exponents == {P("x"): (1, 1, 3)}

    def test_path2(self):
        s = snf.invariant_factors(PrimeFieldMatrix([[0, 1], [1, 0]], 2))
        assert snf.factor_data(s).exponents == {P("x + 1"): (2,)}

    def test_all_units_empty_map(self):
        s = snf.smith_normal_form([[Poly.one(2)]])
        assert snf.factor_data(s).exponents == {}

    def test_exponents_nondecreasing_and_recompose(self):
        rng = random.Random(79)
        for p in (2, 3):
            for _ in range(20):
                n = rng.randint(1, 7)
                A = PrimeFieldMatrix(random_symmetric01(n, rng), p)
                s = snf.invariant_factors(A)
                fd = snf.factor_data(s)
                for exps in fd.exponents.values():
                    assert list(exps) == sorted(exps)
                recomposed = prod(
                    (q ** sum(es) for q, es in fd.exponents.items()), p
                )
                assert recomposed == snf.charpoly_from_snf(s)


class TestRecords:
    def test_snf_result_equality_and_hash_ignore_packed(self):
        # a Smith form result, built from the packed loop, against one built
        # from Poly: both compare and hash by their Poly factors
        factors = (Poly.one(2), P("x"), P("x^2 + x"))
        s = snf.SnfResult(factors)
        other = snf.smith_normal_form(
            [[P("x^2 + x"), P("0"), P("0")], [P("x"), P("x"), P("0")], [P("0"), P("0"), P("1")]]
        )
        assert other.factors == s.factors == (0b10, 0b110)
        assert s == other and hash(s) == hash(other)
        assert s != snf.SnfResult(factors[:2])
        assert len({s, other}) == 1

    def test_snf_result_repr_leaves_out_packed(self):
        s = snf.invariant_factors(switching_matrix(star_graph(3)))
        assert repr(s).startswith("SnfResult(invariant_factors=(")
        assert "packed" not in repr(s)
        assert len(s) == 3 and str(s) == "1, 1, x^3"

    def test_snf_result_is_immutable(self):
        s = snf.SnfResult((P("x"),))
        for name, value in (("invariant_factors", ()), ("factors", (0b11,)), ("ones", 1)):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        assert s.factors == (0b10,) and s.ones == 0

    def test_factor_data_fields_and_equality(self):
        fd = snf.factor_data(snf.invariant_factors(switching_matrix(star_graph(5))))
        assert fd.exponents == {P("x"): (1, 1, 3)}
        assert fd == snf.FactorData(exponents={P("x"): (1, 1, 3)})
        assert fd == snf.FactorData({P("x"): (1, 1, 3)})
        assert fd != snf.FactorData({P("x"): (1, 3)})
        assert str(fd) == "x: [1, 1, 3]"
