"""Nullity formulas against the elimination oracle, plus the bound lemma."""

import random
from itertools import combinations

import pytest

from helpers import echelon_bits_by_columns, euclid_gcd, random_matrix01
from lightsout import formulas, game, gfmat, snf
from lightsout.formulas import (
    gcd_lower_bound,
    nullity_from_factor_data,
    nullity_path_product,
    nullity_snf_product,
    nullity_snf_self,
    oracle_nullity,
    partition_min_sum,
)
from lightsout.gfmat import PrimeFieldMatrix
from lightsout.gfpoly import Poly, _pack_bits
from lightsout.snf import FactorData, SnfResult, invariant_factors


def P(text, p=2):
    return Poly.parse(text, p)


def adjacency(graph, p=2):
    return game.switching_matrix(graph, "open", p)


class TestPartitionMinSum:
    def test_equal_singletons(self):
        assert partition_min_sum((3,), (3,)) == 3

    def test_singleton_vs_split(self):
        assert partition_min_sum((2,), (1, 1)) == 2

    def test_strict_inequality(self):
        assert partition_min_sum((2, 1), (2, 1)) == 5

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            partition_min_sum((2, 0), (1,))

    def test_lower_bound_always_holds(self):
        rng = random.Random(83)
        for _ in range(2000):
            r, s = rng.randint(0, 12), rng.randint(0, 12)
            pi, tau = [], []
            rem = r
            while rem:
                part = rng.randint(1, rem)
                pi.append(part)
                rem -= part
            rem = s
            while rem:
                part = rng.randint(1, rem)
                tau.append(part)
                rem -= part
            assert partition_min_sum(pi, tau) >= min(r, s)

    def test_equality_condition_has_counterexamples(self):
        # Equality can hold without r == s: single-part vs anything smaller.
        assert partition_min_sum((1,), (2,)) == 1 == min(1, 2)
        assert partition_min_sum((5,), (1, 1)) == 2 == min(5, 2)


class TestFactorDataNullity:
    def test_nilpotent_star_pair(self):
        fd = FactorData({P("x"): (1, 1, 3)})
        assert nullity_from_factor_data(fd, fd) == 11  # (5-2)(5-2)+2

    def test_disjoint_supports(self):
        a = FactorData({P("x"): (2,)})
        b = FactorData({P("x + 1"): (2,)})
        assert nullity_from_factor_data(a, b) == 0

    def test_petersen_value(self):
        s = invariant_factors(adjacency(game.petersen_graph()))
        fd = snf.factor_data(s)
        assert nullity_from_factor_data(fd, fd) == 42


class TestSnfProductNullity:
    def test_petersen(self):
        s = invariant_factors(adjacency(game.petersen_graph()))
        assert nullity_snf_product(s, s) == 42

    def test_star5_pair(self):
        s = invariant_factors(adjacency(game.star_graph(5)))
        assert nullity_snf_product(s, s) == 11

    def test_path2_pair_matches_oracle(self):
        A = adjacency(game.path_graph(2))
        s = invariant_factors(A)
        assert nullity_snf_product(s, s) == 2
        assert oracle_nullity(A, A) == 2

    def test_field_mismatch(self):
        s2 = SnfResult((P("x"),))
        s3 = SnfResult((Poly.parse("x", 3),))
        with pytest.raises(ValueError):
            nullity_snf_product(s2, s3)

    def test_gf2_packed_gcd_degrees_match_euclid(self):
        # the gcds run on each field's working form (packed ints over GF(2),
        # Poly at odd p); the reference takes each one on Poly by a Euclid
        # loop.  Lists of arbitrary polynomials (units and zeros included,
        # which add nothing) as well as invariant factors
        rng = random.Random(137)

        def reference(sa, sb):
            return sum(
                euclid_gcd(si, tj).degree
                for si in sa.invariant_factors if si.degree
                for tj in sb.invariant_factors if tj.degree
            )

        def random_list(p):
            return SnfResult(tuple(
                Poly([rng.randrange(p) for _ in range(rng.randint(0, 13))], p)
                for _ in range(rng.randint(0, 6))
            ))

        for p in (2, 3, 5):
            for _ in range(60):
                sa, sb = random_list(p), random_list(p)
                assert nullity_snf_product(sa, sb) == reference(sa, sb)
                g = game.random_graph(rng.randint(1, 9), rng)
                h = game.random_graph(rng.randint(1, 9), rng)
                sa, sb = invariant_factors(adjacency(g, p)), invariant_factors(adjacency(h, p))
                assert nullity_snf_product(sa, sb) == reference(sa, sb)

    def test_agrees_with_factor_data_route(self):
        rng = random.Random(89)
        for p in (2, 3):
            for _ in range(25):
                n, m = rng.randint(1, 6), rng.randint(1, 6)
                A = PrimeFieldMatrix(random_matrix01(n, n, rng), p)
                B = PrimeFieldMatrix(random_matrix01(m, m, rng), p)
                sa, sb = invariant_factors(A), invariant_factors(B)
                assert nullity_snf_product(sa, sb) == nullity_from_factor_data(
                    snf.factor_data(sa), snf.factor_data(sb)
                )

    def test_nonsymmetric_pairs_match_oracle(self):
        rng = random.Random(89)
        for p in (2, 3):
            for _ in range(25):
                n, m = rng.randint(1, 6), rng.randint(1, 6)
                A = PrimeFieldMatrix(random_matrix01(n, n, rng), p)
                B = PrimeFieldMatrix(random_matrix01(m, m, rng), p)
                sa, sb = invariant_factors(A), invariant_factors(B)
                assert nullity_snf_product(sa, sb) == oracle_nullity(A, B)


class TestSnfSelfNullity:
    def test_petersen_weights(self):
        s = invariant_factors(adjacency(game.petersen_graph()))
        # weights 9, 7, 5, 3, 1 against degrees 1, 2, 2, 2, 3
        assert nullity_snf_self(s) == 9 * 1 + 7 * 2 + 5 * 2 + 3 * 2 + 1 * 3 == 42

    def test_zero_2x2(self):
        assert nullity_snf_self(SnfResult((P("x"), P("x")))) == 4

    def test_path2(self):
        s = SnfResult((Poly.one(2), P("x^2 + 1")))
        assert nullity_snf_self(s) == 2

    def test_equals_product_with_self(self):
        rng = random.Random(97)
        for p in (2, 3):
            for _ in range(30):
                n = rng.randint(1, 7)
                A = PrimeFieldMatrix(random_matrix01(n, n, rng), p)
                s = invariant_factors(A)
                assert nullity_snf_self(s) == nullity_snf_product(s, s)


class TestPathProductNullity:
    def test_path2_by_path2(self):
        s = invariant_factors(adjacency(game.path_graph(2)))
        assert nullity_path_product(2, s) == 2

    def test_path3_by_star5(self):
        s = invariant_factors(adjacency(game.star_graph(5)))
        # c(path3) = x^3 mod 2; gcds against (1, 1, x, x, x^3) contribute 1+1+3
        assert nullity_path_product(3, s) == 5
        A = adjacency(game.star_graph(5))
        B = adjacency(game.path_graph(3))
        assert oracle_nullity(A, B) == 5

    def test_coprime_contributes_nothing(self):
        s = invariant_factors(adjacency(game.path_graph(2)))  # (x+1)^2, no factor x
        for m in (1, 3, 9):
            c_path = snf.charpoly_oracle(formulas.path_adjacency(m), 2)
            if (c_path % P("x + 1")).is_zero:
                continue
            assert nullity_path_product(m, s) == 0

    def test_path_charpoly_recurrence_matches_the_oracle(self):
        # c_path is monic of degree m, so gcd(c_path, c) has degree m iff c_path = c.
        for p in (2, 3, 5, 7):
            for m in range(1, 16):
                c = snf.charpoly_oracle(formulas.path_adjacency(m), p)
                assert nullity_path_product(m, SnfResult((c,))) == m, (m, p)

    def test_runs_without_the_charpoly_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("charpoly_oracle called")

        for module in (snf, formulas):
            monkeypatch.setattr(module, "charpoly_oracle", refuse)
        s = invariant_factors(adjacency(game.star_graph(5)))
        assert nullity_path_product(3, s) == 5

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError):
            nullity_path_product(0, SnfResult((P("x"),)))

    def test_matches_explicit_product_formula(self):
        rng = random.Random(101)
        for _ in range(100):
            n = rng.randint(1, 7)
            g = game.random_graph(n, rng)
            sg = invariant_factors(adjacency(g))
            for m in range(1, 11):
                sp = invariant_factors(adjacency(game.path_graph(m)))
                assert nullity_path_product(m, sg) == nullity_snf_product(sp, sg)


class TestGcdLowerBound:
    def test_open_equal_charpolys(self):
        assert gcd_lower_bound(P("x^2 + 1"), P("x^2 + 1"), "open") == 2

    def test_closed_shifts_first_argument(self):
        assert gcd_lower_bound(P("x^2 + 1"), P("x^2 + 1"), "closed") == 0

    def test_coprime(self):
        assert gcd_lower_bound(P("x"), P("x + 1"), "open") == 0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            gcd_lower_bound(P("x"), P("x"), "diagonal")

    def test_gf2_packed_gcd_degree_matches_euclid(self):
        # zero operands included: gcd(0, 0) = 0 counts as degree 0; at odd p
        # the gcds run on Poly, the working form there
        rng = random.Random(139)
        for p in (2, 3, 5):
            polys = [Poly.zero(p), Poly.one(p)] + [
                Poly([rng.randrange(p) for _ in range(rng.randint(0, 16))], p) for _ in range(40)
            ]
            for ca in polys:
                for cb in rng.sample(polys, 8) + [Poly.zero(p)]:
                    assert gcd_lower_bound(ca, cb, "open") == (euclid_gcd(ca, cb).degree or 0)
                    shifted = ca.compose(Poly((-1, 1), p))
                    expected = euclid_gcd(shifted, cb).degree or 0
                    assert gcd_lower_bound(ca, cb, "closed") == expected

    def test_packed_operands_give_the_poly_bound(self):
        # a product row hands over its characteristic polynomials packed, bit i
        # the coefficient of x^i, and asks for the open-mode bound
        rng = random.Random(149)
        polys = [Poly.zero(2), Poly.one(2)] + [
            Poly([rng.getrandbits(1) for _ in range(rng.randint(0, 16))], 2) for _ in range(30)
        ]
        for ca in polys:
            for cb in rng.sample(polys, 8):
                packed = gcd_lower_bound(_pack_bits(ca.coeffs), _pack_bits(cb.coeffs))
                assert packed == gcd_lower_bound(ca, cb)


class TestOracle:
    def test_path2_pair(self):
        A = adjacency(game.path_graph(2))
        assert oracle_nullity(A, A) == 2

    def test_zero_1x1(self):
        Z = PrimeFieldMatrix([[0]], 2)
        assert oracle_nullity(Z, Z) == 1

    def test_size_cap(self):
        A = adjacency(game.path_graph(65))
        with pytest.raises(ValueError, match="cap"):
            oracle_nullity(A, A)
        assert oracle_nullity(A, A, max_dim=65 * 65) >= 0

    def test_symmetric_in_arguments_for_adjacency(self):
        rng = random.Random(103)
        for _ in range(25):
            g = game.random_graph(rng.randint(1, 6), rng)
            h = game.random_graph(rng.randint(1, 6), rng)
            A, B = adjacency(g), adjacency(h)
            assert oracle_nullity(A, B) == oracle_nullity(B, A)

    def test_equals_column_elimination_of_the_untransformed_operator(self, monkeypatch):
        # at p = 2 the smaller factor (B on a tie) takes B's place and, with over 4n
        # ones, is replaced by a similar upper Hessenberg H: the nullity is the same
        hessenberg, reduced = gfmat.hessenberg, []

        def watched(M):
            reduced.append(M)
            return hessenberg(M)

        def edges(k, density):
            return [e for e in combinations(range(k), 2) if rng.random() < density]

        monkeypatch.setattr(gfmat, "hessenberg", watched)
        rng = random.Random(131)
        shapes = [(12, 9), (16, 10), (11, 11), (14, 14), (9, 12), (10, 16), (1, 12), (12, 1)]
        shapes += [(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(12)]
        sides = set()
        for m, n in shapes:
            for density in (0.1, 0.6):  # either side of the 4n-ones rule, for n > 5
                g, h = (game.Graph.from_edges(k, edges(k, density)) for k in (m, n))
                for mode in game.MODES:
                    A = game.switching_matrix(g, mode)
                    B = adjacency(h)
                    L = gfmat.sylvester_operator(A, B)
                    _, pivots = echelon_bits_by_columns(L._data, L.cols, reduced=False)
                    reduced.clear()
                    assert oracle_nullity(A, B) == L.cols - len(pivots)
                    small = B if n <= m else A
                    dense = gfmat.weight(small) > 4 * small.rows
                    assert reduced == ([small] if dense else [])
                    sides.add(((n > m) - (n < m), dense))
        assert sides == {(side, dense) for side in (-1, 0, 1) for dense in (True, False)}
        reduced.clear()  # odd p eliminates B's own operator
        for m, n in ((9, 9), (10, 7), (7, 10)):
            A, B = (adjacency(game.complete_graph(k), 3) for k in (m, n))
            assert oracle_nullity(A, B) == gfmat.nullity(gfmat.sylvester_operator(A, B))
        assert reduced == []


class TestFormulaOracleAgreement:
    def test_gf2_graph_pairs_both_modes(self):
        rng = random.Random(107)
        for _ in range(80):
            g = game.random_graph(rng.randint(1, 8), rng)
            h = game.random_graph(rng.randint(1, 8), rng)
            A, B = adjacency(g), adjacency(h)
            I = PrimeFieldMatrix.identity(A.rows, 2)
            for first in (A, A + I):
                sa, sb = invariant_factors(first), invariant_factors(B)
                assert nullity_snf_product(sa, sb) == oracle_nullity(first, B)

    def test_gf3_matrix_pairs(self):
        rng = random.Random(109)
        for _ in range(30):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            A = PrimeFieldMatrix(random_matrix01(n, n, rng), 3)
            B = PrimeFieldMatrix(random_matrix01(m, m, rng), 3)
            assert nullity_snf_product(
                invariant_factors(A), invariant_factors(B)
            ) == oracle_nullity(A, B)

    def test_bounds_hold_on_random_pairs(self):
        # path:1 x complete:3 over GF(5): c_{A+I} = x - 1 is coprime to
        # c_B = (x - 2)(x + 1)^2, so the closed bound is 0; substituting
        # x + 1 instead of x - 1 would give 1, above the oracle's 0
        pairs = [(game.path_graph(1), game.complete_graph(3), 5)]
        rng = random.Random(113)
        for _ in range(60):
            g = game.random_graph(rng.randint(1, 7), rng)
            h = game.random_graph(rng.randint(1, 7), rng)
            pairs += [(g, h, p) for p in (2, 3, 5)]
        for g, h, p in pairs:
            A, B = adjacency(g, p), adjacency(h, p)
            ca = snf.charpoly_oracle(A, p)
            cb = snf.charpoly_oracle(B, p)
            assert gcd_lower_bound(ca, cb, "open") <= oracle_nullity(A, B)
            closed_first = A + PrimeFieldMatrix.identity(A.rows, p)
            assert gcd_lower_bound(ca, cb, "closed") <= oracle_nullity(closed_first, B)
