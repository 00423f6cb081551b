"""Univariate polynomial arithmetic over prime fields GF(p).

Polynomials are immutable: coefficients are stored as a tuple of residues in
ascending degree order with no trailing zeros, so the zero polynomial is the
empty tuple and its degree is reported as ``None`` (never a sentinel like -1).

The canonical text form writes terms in descending degree with ``^`` for
powers and explicit coefficients where they differ from 1, e.g. ``x^3 + x + 1``
or ``2*x^2 + 1``.  :meth:`Poly.parse` and ``str()`` round-trip exactly.

Each field has one working form for polynomials on the hot path, and
:func:`poly_ops` returns its operations.  Over GF(2) it is an int, bit i
holding the coefficient of x^i (the format of a ``gfmat`` row too), run on
shift-and-XOR; at odd p it is the Poly.  ``snf``'s Smith form, its results,
the charpoly product and the gcd degrees in ``formulas`` all run on the
working form through that record, and build a Poly only where one is read.

Arithmetic operands are ``Poly`` over the same field: any other type raises
TypeError and a different p raises ValueError.  :func:`factor` takes degree
<= MAX_FACTOR_DEGREE, finds linear factors by evaluation at every field
element, and sieves at most 2**12 candidates per degree >= 2, so at large p
it raises ValueError instead of running for hours.

:class:`Frozen` is the one guard of the package's immutable records (``Poly``
here, ``Graph``, ``LightsInstance``, ``PrimeFieldMatrix``, ``SnfResult`` and
``FactorData``): it refuses assignment and deletion, and compares, hashes and
prints a record by its slots.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import product
from math import isqrt
from typing import Iterable, NamedTuple

#: Largest degree accepted by :func:`factor`.  Trial division against the
#: irreducible sieve is quadratic-ish in the sieve size; inputs here are
#: characteristic polynomials of small graphs, so a hard cap keeps misuse loud.
MAX_FACTOR_DEGREE = 24

#: Largest irreducible sieve :func:`factor` enumerates (p**d candidates for a
#: degree d >= 2): the largest the degree cap allows at p = 2.
_MAX_SIEVE = 2 ** (MAX_FACTOR_DEGREE // 2)

_MAX_MODULUS = 1 << 16

_TERM_RE = re.compile(r"^(?:(\d+)\*?)?x(?:\^(\d+))?$|^(\d+)$")


def check_prime(p: int) -> int:
    """Validate a field modulus: prime and below 2**16. Returns p."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"field modulus must be an integer >= 2, got {p!r}")
    if p >= _MAX_MODULUS:
        raise ValueError(f"field modulus {p} out of supported range (< 2^16)")
    if p == 2:
        return p
    if not _is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    return p


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:
    """Trial division, once per p: ``Poly`` checks its modulus on every construction."""
    return p % 2 == 1 and all(p % d for d in range(3, isqrt(p) + 1, 2))


class Frozen:
    """Base of an immutable record: ``==``, ``hash`` and ``repr`` by its slots, in order.

    A record of another type compares unequal.  ``=`` and ``del`` on a field
    raise AttributeError; constructors set the slots with :meth:`_fill`.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class Poly(Frozen):
    """Univariate polynomial over GF(p)."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Iterable[int], p: int):
        check_prime(p)
        c = [v % p for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "p", p)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls((), p)

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls((1,), p)

    @classmethod
    def parse(cls, text: str, p: int) -> "Poly":
        """Parse the canonical text form (tolerates extra whitespace)."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        coeffs: dict[int, int] = {}
        for part in s.split("+"):
            term = part.replace(" ", "")
            if not term:
                raise ValueError(f"malformed polynomial {text!r}: empty term")
            m = _TERM_RE.match(term)
            if not m:
                raise ValueError(f"malformed polynomial term {part.strip()!r}")
            if m.group(3) is not None:
                deg, c = 0, int(m.group(3))
            else:
                deg = int(m.group(2)) if m.group(2) is not None else 1
                c = int(m.group(1)) if m.group(1) is not None else 1
            coeffs[deg] = coeffs.get(deg, 0) + c
        out = [0] * (max(coeffs) + 1)
        for deg, c in coeffs.items():
            out[deg] = c
        return cls(out, p)

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _is_operand(self, other) -> bool:
        if not isinstance(other, Poly):
            return False
        if other.p != self.p:
            raise ValueError(f"field mismatch: GF({self.p}) vs GF({other.p})")
        return True

    def _combine(self, other, sign: int) -> "Poly":
        """self + sign * other for sign = +1 or -1, built in one pass."""
        if not self._is_operand(other):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] += sign * v
        return Poly(out, self.p)

    def __add__(self, other) -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other) -> "Poly":
        return self._combine(other, -1)

    def __mul__(self, other) -> "Poly":
        if not self._is_operand(other):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.p)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out, self.p)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Poly.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        if not self._is_operand(other):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        p = self.p
        db = other.degree
        if self.degree is None or self.degree < db:
            return Poly.zero(p), self
        rem = list(self.coeffs)
        inv = pow(other.coeffs[-1], -1, p)
        q = [0] * (len(rem) - db)
        for shift in range(len(rem) - db - 1, -1, -1):
            c = (rem[shift + db] * inv) % p
            if c:
                q[shift] = c
                for k in range(db + 1):
                    rem[shift + k] = (rem[shift + k] - c * other.coeffs[k]) % p
        return Poly(q, p), Poly(rem[:db], p)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, a: int) -> int:
        """Evaluate at a field element by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.p
        return acc

    def monic(self) -> "Poly":
        """Scale to leading coefficient 1 (zero polynomial is returned as is)."""
        if self.is_zero or self.lead == 1:
            return self
        inv = pow(self.lead, -1, self.p)
        return Poly([v * inv for v in self.coeffs], self.p)

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute: returns self(inner(x))."""
        acc = Poly.zero(self.p)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly((c,), self.p)
        return acc

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                base = "x" if d == 1 else f"x^{d}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Poly({self}, p={self.p})"


def poly_key(f: Poly) -> tuple:
    """Sort key giving the canonical order: by degree, then coefficients."""
    return (len(f.coeffs), f.coeffs)


# Both go through one binary string, linear in n: OR-ing in or shifting out
# one bit at a time copies the whole int each time, quadratic in n.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _pack_bits(values: Iterable[int]) -> int:
    return int("".join(["01"[v & 1] for v in values])[::-1] or "0", 2)


def _unpack_bits(bits: int, n: int) -> tuple[int, ...]:
    # bit n is set so that the string has exactly n digits after it; tuple()
    # of bytes knows its length, so it parks nothing on the tuple free lists
    digits = format(1 << n | bits & ((1 << n) - 1), "b")[:0:-1]
    return tuple(digits.encode().translate(_DIGIT_BYTES))


def _divmod2(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of packed GF(2) polynomials."""
    if not b:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if b == 1:  # unit divisors return at once, so the Smith loop needs no unit step
        return a, 0
    db = b.bit_length()
    q = 0
    shift = a.bit_length() - db
    while shift >= 0:
        q |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - db
    return q, a


def _mul2(a: int, b: int) -> int:
    """Product of packed GF(2) polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _gcd2(a: int, b: int) -> int:
    """gcd of packed GF(2) polynomials (monic, as every nonzero one is)."""
    while b:
        a, b = b, _divmod2(a, b)[1]
    return a


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid over ``Poly``; gcd(0, f) = monic(f), gcd(0, 0) = 0."""
    if a.p != b.p:
        raise ValueError(f"field mismatch: GF({a.p}) vs GF({b.p})")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


#: A field's working form of polynomials and its operations.  size counts the
#: coefficients (degree + 1, 0 for zero); divmod, sub, mul, gcd (monic) and
#: monic act on the working form, whose 1 is one; to_poly builds the Poly of
#: a working-form value and from_poly takes a Poly of the field in.
PolyOps = namedtuple("PolyOps", "size divmod sub mul gcd monic one to_poly from_poly")

#: The GF(2) unit, shared by every GF(2) to_poly(1) (Poly is immutable).
_GF2_ONE = Poly((1,), 2)


def _to_poly2(f: int) -> Poly:
    return _GF2_ONE if f == 1 else Poly(_unpack_bits(f, f.bit_length()), 2)


def _identity(f):
    return f


#: Every nonzero GF(2) polynomial is monic already.
_GF2_OPS = PolyOps(
    int.bit_length, _divmod2, operator.xor, _mul2, _gcd2, _identity, 1, _to_poly2,
    lambda f: _pack_bits(f.coeffs),
)


@lru_cache(maxsize=None)
def poly_ops(p: int) -> PolyOps:
    """The working form of GF(p)[x]: packed ints at p = 2, Poly at odd p.

    Raises ValueError for a p that ``check_prime`` rejects.
    """
    if check_prime(p) == 2:
        return _GF2_OPS
    return PolyOps(
        lambda f: len(f.coeffs), divmod, operator.sub, operator.mul, poly_gcd, Poly.monic,
        Poly.one(p), _identity, _identity,
    )


def shift_one(f: Poly) -> Poly:
    """Return f(x + 1), the variable shift used for closed-neighborhood switching."""
    return f.compose(Poly((1, 1), f.p))


def prod(factors: Iterable[Poly], p: int) -> Poly:
    """Product of polynomials over GF(p) (empty product is 1), by ``Poly`` arithmetic.

    Raises TypeError for a factor that is not a Poly and ValueError for one
    over another field.
    """
    return reduce(operator.mul, factors, Poly.one(p))


class Factorization(NamedTuple):
    """Factorization into monic irreducibles: unit * prod(poly**exponent)."""

    unit: int
    factors: tuple[tuple[Poly, int], ...]
    p: int

    def expand(self) -> Poly:
        """Multiply the factorization back out."""
        acc = prod((q**e for q, e in self.factors), self.p)
        return Poly((self.unit,), self.p) * acc

    def __str__(self) -> str:
        if not self.factors:
            return str(self.unit)
        parts = [] if self.unit == 1 else [str(self.unit)]
        for q, e in self.factors:
            parts.append(f"({q})" + (f"^{e}" if e > 1 else ""))
        return " * ".join(parts)


@lru_cache(maxsize=None)
def monic_irreducibles(p: int, degree: int) -> tuple[Poly, ...]:
    """All monic irreducible polynomials of exactly `degree` over GF(p).

    Sieved by trial division against lower-degree irreducibles; cached per
    (p, degree), built lazily degree by degree.
    """
    check_prime(p)
    if degree < 1:
        raise ValueError("irreducible polynomials have degree >= 1")
    if degree == 1:
        return tuple(Poly((c, 1), p) for c in range(p))
    divisors = [q for d in range(1, degree // 2 + 1) for q in monic_irreducibles(p, d)]
    candidates = (Poly(lower + (1,), p) for lower in product(range(p), repeat=degree))
    return tuple(g for g in candidates if all(not (g % q).is_zero for q in divisors))


def factor(f: Poly) -> Factorization:
    """Factor into monic irreducibles.

    Linear factors x - a come from the roots a, found by evaluating at every
    a in GF(p); each higher degree d is trial division by the irreducibles
    of degree d.

    Raises ValueError for the zero polynomial, degree above
    MAX_FACTOR_DEGREE, or a sieve of degree d >= 2 with p**d above
    2**(MAX_FACTOR_DEGREE // 2) candidates.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > MAX_FACTOR_DEGREE:
        raise ValueError(
            f"degree {f.degree} exceeds the factorization cap {MAX_FACTOR_DEGREE}"
        )
    p = f.p
    unit = f.lead
    rem = f.monic()
    factors: list[tuple[Poly, int]] = []
    for a in range(p):
        if rem.degree < 2:
            break
        if rem(a):
            continue
        linear = Poly((-a, 1), p)
        e = 0
        while rem(a) == 0:
            rem //= linear
            e += 1
        factors.append((linear, e))
    d = 2
    while rem.degree > 0:
        if 2 * d > rem.degree:
            factors.append((rem, 1))
            break
        if p**d > _MAX_SIEVE:
            raise ValueError(
                f"GF({p}) degree-{d} sieve of {p}^{d} exceeds {_MAX_SIEVE} candidates"
            )
        for q in monic_irreducibles(p, d):
            if rem.degree < 2 * d:
                break
            e = 0
            while True:
                quo, r = divmod(rem, q)
                if not r.is_zero:
                    break
                rem = quo
                e += 1
            if e:
                factors.append((q, e))
        d += 1
    factors.sort(key=lambda qe: poly_key(qe[0]))
    return Factorization(unit=unit, factors=tuple(factors), p=p)
