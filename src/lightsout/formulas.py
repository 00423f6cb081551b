"""Nullity formulas and lower bounds for the product-game operator.

Everything here evaluates the nullity of kron(I, A) - kron(B^T, I) by some
route: the min-sum over matching irreducible factor data, the double sum of
gcd degrees over invariant factors, the weighted self-product form, the
path specialization, the gcd-degree lower bound, or plain Gaussian
elimination on the assembled operator (the oracle the others are checked
against).
"""

from __future__ import annotations

from typing import Sequence

from lightsout import gfmat
from lightsout.game import check_mode
from lightsout.gfmat import PrimeFieldMatrix
# poly_gcd and charpoly_oracle are unused here, but the benchmark tracer binds both
# here, and test_example2_never_calls_the_charpoly_oracle binds charpoly_oracle.
from lightsout.gfpoly import Poly, poly_gcd, poly_ops  # noqa: F401
from lightsout.snf import FactorData, SnfResult, charpoly_oracle  # noqa: F401

#: Largest operator size (rows = m*n) the elimination oracle accepts, and the CLI's
#: default cap; lower at odd p, where 1024 rows take about 3 s and 4096 over 150 s.
ORACLE_SIZE_CAP = 4096
ORACLE_SIZE_CAP_ODD_P = 1024


def partition_min_sum(pi: Sequence[int], tau: Sequence[int]) -> int:
    """Double sum of min(pi_i, tau_j); always >= min(sum(pi), sum(tau))."""
    for parts in (pi, tau):
        if any(part < 1 for part in parts):
            raise ValueError("partition parts must be positive integers")
    return sum(min(a, b) for a in pi for b in tau)


def nullity_from_factor_data(fa: FactorData, fb: FactorData) -> int:
    """Min-sum nullity over matching irreducibles.

    For each irreducible q appearing in both factor maps, add
    deg(q) * sum_{i,j} min(e_i, f_j) over the exponent lists.
    """
    total = 0
    for q, es in fa.exponents.items():
        fs = fb.exponents.get(q)
        if fs is None:
            continue
        total += (q.degree or 0) * sum(min(e, f) for e in es for f in fs)
    return total


def nullity_snf_product(sa: SnfResult, sb: SnfResult) -> int:
    """Double sum of deg gcd(s_i, t_j) over the two invariant factor lists.

    Only the factors of degree >= 1 contribute: the results' ``factors``,
    in the field's working form, where each gcd is taken; its degree is its
    size - 1, so no result's Poly and no gcd Poly is built.
    """
    p = sa.field or sb.field
    if sb.field not in (None, p):
        raise ValueError(f"field mismatch: GF({p}) vs GF({sb.field})")
    if p is None:  # two empty lists
        return 0
    ops = poly_ops(p)
    return sum(ops.size(ops.gcd(si, tj)) - 1 for si in sa.factors for tj in sb.factors)


def nullity_snf_self(sa: SnfResult) -> int:
    """Self-product nullity: sum of (2m - 2i + 1) * deg(s_i), i = 1..m.

    Equals nullity_snf_product(sa, sa); the divisibility chain collapses
    each gcd to the smaller-indexed factor.
    """
    m = len(sa.invariant_factors)
    return sum(
        (2 * m - 2 * i + 1) * (f.degree or 0)
        for i, f in enumerate(sa.invariant_factors, start=1)
    )


def path_adjacency(m: int) -> list[list[int]]:
    """0/1 adjacency matrix of the path on m vertices."""
    if m < 1:
        raise ValueError("paths have at least one vertex")
    return [[1 if abs(i - j) == 1 else 0 for j in range(m)] for i in range(m)]


def nullity_path_product(m: int, sg: SnfResult) -> int:
    """Nullity of the path-by-G product operator over GF(2).

    Paths are non-derogatory, so the path's invariant factors are 1, ..., 1,
    c_path and only c_path enters the double sum of nullity_snf_product.
    Expanding det(xI - A) along the last row gives c_0 = 1, c_1 = x and
    c_{k+1} = x c_k - c_{k-1}.
    """
    if m < 1:
        raise ValueError("paths have at least one vertex")
    p = sg.field
    if p is None:
        return 0
    x = Poly((0, 1), p)
    prev, c_path = Poly.one(p), x
    for _ in range(m - 1):
        prev, c_path = c_path, x * c_path - prev
    return nullity_snf_product(SnfResult((c_path,)), sg)


def gcd_lower_bound(ca: Poly | int, cb: Poly | int, mode: str = "open") -> int:
    """Degree of gcd(c_A, c_B) (open) or gcd(c_A(x-1), c_B) (closed).

    A lower bound for the nullity of the product operator built from A and
    B (open) or from A + I and B (closed), given c_A and c_B.  The closed
    form uses c_{A+I}(x) = c_A(x - 1), which holds over every GF(p).  In
    open mode both may also come in ``gfpoly.poly_ops``' working form, as a
    product row holds them.
    """
    check_mode(mode)
    ops = poly_ops(ca.p if isinstance(ca, Poly) else 2)  # GF(2)'s working form is an int
    if isinstance(ca, Poly) or mode != "open":
        if ca.p != cb.p:
            raise ValueError(f"field mismatch: GF({ca.p}) vs GF({cb.p})")
        if mode == "closed":
            ca = ca.compose(Poly((-1, 1), ca.p))
        ca, cb = ops.from_poly(ca), ops.from_poly(cb)
    return max(ops.size(ops.gcd(ca, cb)) - 1, 0)  # gcd(0, 0) = 0 has size 0


def oracle_nullity(
    A: PrimeFieldMatrix, B: PrimeFieldMatrix, max_dim: int = ORACLE_SIZE_CAP
) -> int:
    """Ground-truth nullity of the product operator by Gaussian elimination."""
    if not A.is_square or not B.is_square:
        raise ValueError("oracle requires square A and B")
    size = A.rows * B.rows
    if size > max_dim:
        raise ValueError(f"operator size {size} exceeds the oracle cap {max_dim}")
    op = gfmat.sylvester_operator(A, B)
    return gfmat.rank_nullity(op).nullity
