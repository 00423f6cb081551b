"""Exact GF(p) linear algebra and Lights Out! nullity formulas on graph products.

Layout:

- ``gfmat``: dense matrices over GF(p), rank/nullity/solve/kernel, Kronecker
  products, the product-game (Sylvester) operator and Krylov relations; GF(2)
  rows are bit-packed and reduced by the Four Russians kernel in ``_gf2kernel``.
- ``gfpoly``: polynomials over GF(p), gcd, variable shift, factorization,
  and the packed GF(2) operations that ``gfmat`` and ``snf`` share.
- ``snf``: Smith normal form, invariant factors of xI - A, characteristic
  polynomial by two independent routes, Jordan-style factor data.
- ``formulas``: nullity formulas, gcd-degree lower bounds, elimination oracle.
- ``game``: graphs, families, Cartesian products, Lights Out! semantics.
- ``cli``: the ``lightsout`` command-line front end.
"""

from lightsout._gf2kernel import BACKEND

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
