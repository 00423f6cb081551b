"""Polynomial arithmetic over GF(p): division, gcd, shifts, factorization."""

import ast
import random
from pathlib import Path

import pytest

from helpers import all_monic_polys
from lightsout import gfpoly
from lightsout.gfpoly import (
    MAX_FACTOR_DEGREE,
    Factorization,
    Poly,
    check_prime,
    factor,
    monic_irreducibles,
    poly_gcd,
    poly_ops,
    prod,
    shift_one,
)


def P(text, p=2):
    return Poly.parse(text, p)


class TestPolyBasics:
    def test_canonical_form_strips_trailing_zeros(self):
        assert Poly((1, 0, 1, 0, 0), 2).coeffs == (1, 0, 1)
        assert Poly((0, 0), 5).coeffs == ()

    def test_zero_degree_is_none(self):
        assert Poly.zero(2).degree is None
        assert Poly((4,), 5).degree == 0
        assert P("x", 3).degree == 1

    def test_coefficients_reduced_mod_p(self):
        assert Poly((5, 7, 9), 3).coeffs == (2, 1)
        assert Poly((-1, -2), 5).coeffs == (4, 3)

    def test_equality_requires_same_field(self):
        assert Poly((1, 1), 2) != Poly((1, 1), 3)
        assert Poly((1, 1), 2) == Poly((3, 5), 2)

    def test_evaluate(self):
        f = P("x^3 + x + 1")
        assert f(0) == 1 and f(1) == 1
        g = P("2*x^2 + 1", 3)
        assert g(2) == (2 * 4 + 1) % 3

    def test_immutability(self):
        f = Poly((1, 1), 2)
        with pytest.raises(AttributeError):
            f.coeffs = (0,)

    def test_check_prime_rejects_composites_and_huge(self):
        for bad in (1, 4, 9, 15, 1 << 17):
            with pytest.raises(ValueError):
                check_prime(bad)
        for good in (2, 3, 5, 7, 65521):
            assert check_prime(good) == good

    def test_int_operands_rejected(self):
        f = P("x + 1")
        for combine in (
            lambda: f + 1,
            lambda: 1 + f,
            lambda: 2 * f,
            lambda: f - 1,
        ):
            with pytest.raises(TypeError):
                combine()

    def test_field_mismatch_rejected(self):
        with pytest.raises(ValueError, match="field mismatch"):
            P("x + 1", 2) - P("x + 1", 3)


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,p",
        [
            ("x^3 + x + 1", 2),
            ("2*x^2 + 1", 3),
            ("x", 2),
            ("1", 2),
            ("0", 2),
            ("4*x^10 + 3*x^2 + 2*x + 1", 5),
            ("x^2 + x", 2),
        ],
    )
    def test_round_trip_exact(self, text, p):
        assert str(Poly.parse(text, p)) == text

    def test_parse_tolerates_spacing_and_bare_products(self):
        assert P("  x^2+1 ") == P("x^2 + 1")
        assert Poly.parse("2x^2 + 1", 3) == Poly.parse("2*x^2 + 1", 3)

    def test_parse_rejects_garbage(self):
        for bad in ("", "x^", "y + 1", "x**2", "1 + + x", "-x"):
            with pytest.raises(ValueError):
                Poly.parse(bad, 2)

    def test_random_round_trip(self):
        rng = random.Random(101)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            f = Poly([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
            assert Poly.parse(str(f), p) == f


class TestDivmod:
    def test_exact_division(self):
        q, r = divmod(P("x^3 + x"), P("x^2 + 1"))
        assert (q, r) == (P("x"), Poly.zero(2))

    def test_division_with_remainder(self):
        q, r = divmod(P("x^2 + 1"), P("x"))
        assert (q, r) == (P("x"), P("1"))

    def test_division_mod_3(self):
        q, r = divmod(Poly.parse("x^2", 3), Poly.parse("x + 2", 3))
        assert q == Poly.parse("x + 1", 3)
        assert r == Poly.parse("1", 3)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P("x"), Poly.zero(2))

    def test_divmod_identity_random(self):
        rng = random.Random(7)
        for _ in range(300):
            p = rng.choice((2, 3, 5))
            a = Poly([rng.randrange(p) for _ in range(rng.randint(0, 8))], p)
            b = Poly([rng.randrange(p) for _ in range(rng.randint(1, 5))], p)
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree
            assert (a - b) + b == a
            assert (a - a).is_zero


class TestGcd:
    def test_shared_factor(self):
        assert poly_gcd(P("x^3 + x"), P("x^2 + 1")) == P("x^2 + 1")
        # GF(2) operands wider than 64 bits: (x^70 + x + 1)(x^3 + x + 1) and
        # (x^70 + x + 1)(x^2 + x + 1) share exactly x^70 + x + 1
        wide = P("x^70 + x + 1")
        assert poly_gcd(wide * P("x^3 + x + 1"), wide * P("x^2 + x + 1")) == wide
        assert poly_gcd(wide * P("x^3 + x + 1"), P("x^2 + x + 1")) == Poly.one(2)

    def test_coprime(self):
        assert poly_gcd(P("x^2 + 1"), P("x")) == Poly.one(2)

    def test_zero_conventions(self):
        f = Poly.parse("2*x + 2", 3)
        assert poly_gcd(Poly.zero(3), f) == f.monic()
        assert poly_gcd(f, Poly.zero(3)) == f.monic()
        assert poly_gcd(Poly.zero(3), Poly.zero(3)) == Poly.zero(3)
        wide = P("x^90 + x^65 + 1")
        assert poly_gcd(Poly.zero(2), wide) == poly_gcd(wide, Poly.zero(2)) == wide
        assert poly_gcd(Poly.zero(2), Poly.zero(2)) == Poly.zero(2)
        with pytest.raises(ValueError, match=r"field mismatch: GF\(2\) vs GF\(3\)"):
            poly_gcd(wide, f)

    def test_gcd_is_monic_and_divides(self):
        rng = random.Random(13)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            a = Poly([rng.randrange(p) for _ in range(rng.randint(1, 8))], p)
            b = Poly([rng.randrange(p) for _ in range(rng.randint(1, 8))], p)
            g = poly_gcd(a, b)
            if g.is_zero:
                assert a.is_zero and b.is_zero
                continue
            assert g.lead == 1
            assert (a % g).is_zero and (b % g).is_zero

    def test_every_brute_force_common_divisor_divides_gcd(self):
        rng = random.Random(17)
        for _ in range(20):
            p = rng.choice((2, 3))
            a = Poly([rng.randrange(p) for _ in range(rng.randint(2, 9))], p)
            b = Poly([rng.randrange(p) for _ in range(rng.randint(2, 9))], p)
            if a.is_zero or b.is_zero:
                continue
            g = poly_gcd(a, b)
            for d in range(1, 5):
                for cand in all_monic_polys(p, d):
                    if (a % cand).is_zero and (b % cand).is_zero:
                        assert (g % cand).is_zero


def fold_product(factors, p):
    """Product by a left fold over ``Poly.__mul__``: the reference for prod."""
    acc = Poly.one(p)
    for f in factors:
        acc = acc * f
    return acc


class TestProd:
    def test_packed_matches_poly_fold(self):
        rng = random.Random(29)
        wide = [P("x^40 + x^3 + 1"), P("x^30 + x + 1")]  # product of degree 70
        cases = [[], [Poly.zero(2)], [P("x + 1"), Poly.zero(2), P("x^2")], wide]
        for _ in range(150):
            cases.append([
                Poly([rng.getrandbits(1) for _ in range(rng.randint(0, 14))], 2)
                for _ in range(rng.randint(0, 9))
            ])
        for factors in cases:
            assert prod(factors, 2) == fold_product(factors, 2)
            assert prod(iter(factors), 2) == fold_product(factors, 2)
        assert prod([], 2) == Poly.one(2)
        assert prod(cases[2], 2) == Poly.zero(2)
        assert prod(wide, 2).degree == 70

    def test_packed_rejects_other_fields_and_types(self):
        # packing reads only the low bit, so a GF(3) coefficient 2 would read 0
        with pytest.raises(ValueError, match=r"field mismatch: GF\(2\) vs GF\(3\)"):
            prod([P("x"), Poly.parse("2*x + 1", 3)], 2)
        with pytest.raises(TypeError):
            prod([P("x"), 1], 2)

    def test_packed_builds_one_poly_per_call(self, monkeypatch):
        cases = [[], [Poly.zero(2)], [P("x + 1"), P("x^3 + x + 1"), P("x^70 + x + 1")]]
        built = []
        init = Poly.__init__

        def counting_init(self, coeffs, p):
            built.append(p)
            init(self, coeffs, p)

        monkeypatch.setattr(Poly, "__init__", counting_init)
        for factors in cases:
            built.clear()
            prod(factors, 2)
            assert built == [2]


class TestWorkingForm:
    def test_ops_match_poly_arithmetic(self):
        rng = random.Random(151)
        for p in (2, 3, 5):
            ops = poly_ops(p)
            assert ops is poly_ops(p) and ops.to_poly(ops.one) == Poly.one(p)
            polys = [Poly.zero(p), Poly.one(p)] + [
                Poly([rng.randrange(p) for _ in range(rng.randint(1, 12))], p) for _ in range(30)
            ]
            for f in polys:
                w = ops.from_poly(f)
                assert ops.to_poly(w) == f and ops.size(w) == len(f.coeffs)
                if f:
                    assert ops.to_poly(ops.monic(w)) == f.monic()
                for g in rng.sample(polys, 6):
                    v = ops.from_poly(g)
                    assert ops.to_poly(ops.mul(w, v)) == f * g
                    assert ops.to_poly(ops.sub(w, v)) == f - g
                    assert ops.to_poly(ops.gcd(w, v)) == poly_gcd(f, g)
                    if g:
                        q, r = ops.divmod(w, v)
                        assert (ops.to_poly(q), ops.to_poly(r)) == divmod(f, g)
        assert type(poly_ops(2).one) is int and type(poly_ops(3).one) is Poly
        with pytest.raises(ValueError):
            poly_ops(4)

    def test_cli_formulas_and_snf_reach_no_private_name_of_another_module(self):
        # only gfpoly knows how a field's working form is stored: the modules
        # above it import no _-prefixed name and read no module's _-attribute
        src = Path(gfpoly.__file__).parent
        for name in ("cli.py", "formulas.py", "snf.py"):
            tree = ast.parse((src / name).read_text(encoding="utf-8"))
            modules, private = set(), []
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lightsout"):
                    private += [a.name for a in node.names if a.name.startswith("_")]
                    if node.module == "lightsout":
                        modules.update(a.asname or a.name for a in node.names)
                elif isinstance(node, ast.Import):
                    modules.update(a.asname for a in node.names if a.name.startswith("lightsout."))
            assert private == [], name
            reads = [
                f"{node.value.id}.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ]
            assert reads == [], name


class TestBitPacking:
    """``_pack_bits`` and ``_unpack_bits`` against the bit-at-a-time loops
    they replaced."""

    @staticmethod
    def pack_by_bits(values):
        bits = 0
        for j, v in enumerate(values):
            if v & 1:
                bits |= 1 << j
        return bits

    @staticmethod
    def unpack_by_bits(bits, n):
        return tuple([(bits >> j) & 1 for j in range(n)])

    def test_pack_matches_the_loop(self):
        rng = random.Random(3105)
        for n in range(301):
            values = [rng.randrange(-3, 4) for _ in range(n)]  # any integers: their parity counts
            assert gfpoly._pack_bits(values) == self.pack_by_bits(values), n
            assert gfpoly._pack_bits(tuple(values)) == gfpoly._pack_bits(iter(values))
            assert gfpoly._pack_bits([1] * n) == (1 << n) - 1

    def test_unpack_matches_the_loop_and_ignores_bits_past_n(self):
        rng = random.Random(3107)
        for n in range(301):
            for bits in (0, rng.getrandbits(n), rng.getrandbits(n + 40), (1 << n) - 1, -1):
                got = gfpoly._unpack_bits(bits, n)
                assert got == self.unpack_by_bits(bits, n), (n, bits)
                assert type(got) is tuple and all(type(v) is int for v in got)
            bits = rng.getrandbits(n)
            assert gfpoly._pack_bits(gfpoly._unpack_bits(bits, n)) == bits


class TestShiftOne:
    def test_square_plus_one(self):
        assert shift_one(P("x^2 + 1")) == P("x^2")

    def test_constant_fixed(self):
        assert shift_one(Poly((2,), 3)) == Poly((2,), 3)

    def test_involution_in_characteristic_two(self):
        rng = random.Random(19)
        for _ in range(100):
            f = Poly([rng.getrandbits(1) for _ in range(rng.randint(0, 10))], 2)
            assert shift_one(shift_one(f)) == f

    def test_ring_homomorphism_on_products(self):
        rng = random.Random(23)
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            f = Poly([rng.randrange(p) for _ in range(rng.randint(0, 6))], p)
            g = Poly([rng.randrange(p) for _ in range(rng.randint(0, 6))], p)
            assert shift_one(f * g) == shift_one(f) * shift_one(g)
            assert shift_one(f + g) == shift_one(f) + shift_one(g)


class TestIrreducibles:
    def test_degree_one_is_everything(self):
        assert monic_irreducibles(2, 1) == (P("x"), P("x + 1"))
        assert len(monic_irreducibles(5, 1)) == 5

    def test_counts_over_gf2(self):
        # Necklace counts: 2, 1, 2, 3, 6, 9 irreducibles of degrees 1..6.
        assert [len(monic_irreducibles(2, d)) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]

    def test_exhaustive_irreducibility(self):
        for p, max_d in ((2, 8), (3, 4), (5, 3)):
            for d in range(2, max_d + 1):
                for q in monic_irreducibles(p, d):
                    for dd in range(1, d // 2 + 1):
                        for cand in all_monic_polys(p, dd):
                            assert not (q % cand).is_zero, f"{q} divisible by {cand}"


class TestFactor:
    def test_square_of_x_plus_one(self):
        assert factor(P("x^2 + 1")).factors == ((P("x + 1"), 2),)

    def test_irreducible_quadratic(self):
        assert factor(P("x^2 + x + 1")).factors == ((P("x^2 + x + 1"), 1),)

    def test_petersen_charpoly_product_of_listed_factors(self):
        # Independent route: multiply out the known invariant factors first.
        listed = [P("x + 1"), P("x^2 + x"), P("x^2 + x"), P("x^2 + x"), P("x^3 + x")]
        c = prod(listed, 2)
        assert c == P("x^10 + x^8 + x^6 + x^4")
        decomposition = factor(c)
        assert dict(decomposition.factors) == {P("x"): 4, P("x + 1"): 6}

    def test_unit_preserved(self):
        f = Poly.parse("2*x^2 + 2", 3)
        d = factor(f)
        assert d.unit == 2
        assert d.expand() == f

    def test_round_trip_random(self):
        rng = random.Random(29)
        primes = (2, 3, 5)
        for i in range(500):
            p = primes[i % 3]
            f = Poly([rng.randrange(p) for _ in range(rng.randint(1, 11))], p)
            if f.is_zero:
                continue
            d = factor(f)
            assert d.expand() == f
            assert all(e >= 1 for _, e in d.factors)
            assert len({q for q, _ in d.factors}) == len(d.factors)

    def test_rejects_zero_and_over_cap(self):
        with pytest.raises(ValueError):
            factor(Poly.zero(2))
        with pytest.raises(ValueError):
            factor(Poly((0,) * (MAX_FACTOR_DEGREE + 1) + (1,), 2))

    def test_large_field_sieve_capped(self):
        # (x^2 - 17)^2 with 17 a non-residue mod 65521: the degree-2 sieve
        # would enumerate 65521^2 candidates
        f = Poly.parse("x^4 + 65487*x^2 + 289", 65521)
        with pytest.raises(ValueError, match=r"GF\(65521\).*degree-2"):
            factor(f)

    def test_large_field_linear_factors_by_evaluation(self):
        # (x - 3)^2 (x - 65000) (x^2 - 17) over GF(65521): the roots come from
        # evaluation, so no degree-1 sieve of 65521 polynomials is built
        p = 65521
        x_minus_3, x_minus_65000 = P("x + 65518", p), P("x + 521", p)
        quadratic = P("x^2 + 65504", p)
        f = x_minus_3 ** 2 * x_minus_65000 * quadratic
        monic_irreducibles.cache_clear()
        assert factor(f) == Factorization(
            1, ((x_minus_65000, 1), (x_minus_3, 2), (quadratic, 1)), p
        )
        assert monic_irreducibles.cache_info().currsize == 0

    def test_cap_boundary_accepted(self):
        d = factor(Poly((0,) * MAX_FACTOR_DEGREE + (1,), 2))
        assert d.factors == ((P("x"), MAX_FACTOR_DEGREE),)

    def test_reported_factors_have_no_small_divisors(self):
        # Exhaustive divisor sweep for every factor of degree <= 8.
        rng = random.Random(31)
        for i in range(40):
            p = (2, 3, 5)[i % 3]
            f = Poly([rng.randrange(p) for _ in range(rng.randint(2, 11))], p)
            if f.is_zero:
                continue
            for q, _ in factor(f).factors:
                if q.degree > 8:
                    continue
                for d in range(1, q.degree // 2 + 1):
                    for cand in all_monic_polys(p, d):
                        assert not (q % cand).is_zero


class TestFactorization:
    def test_fields_equality_and_immutability(self):
        d = factor(P("x^3 + x^2"))
        assert (d.unit, d.factors, d.p) == (1, ((P("x"), 2), (P("x + 1"), 1)), 2)
        assert d == Factorization(unit=1, factors=((P("x"), 2), (P("x + 1"), 1)), p=2)
        assert d == Factorization(1, ((P("x"), 2), (P("x + 1"), 1)), 2)
        assert d != Factorization(1, ((P("x"), 2),), 2)
        assert str(d) == "(x)^2 * (x + 1)"
        with pytest.raises(AttributeError):
            d.unit = 2
