"""Exact integer-coefficient polynomials in the variable m.

Coefficients are Python ints (arbitrary precision), index = degree, stored
normalized with no trailing zeros.  Division is exact division in Z[m] and
fails loudly on a remainder, which in this package signals a transcribed
formula bug rather than a data condition.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Literal

from .errors import InexactDivision

Ordering = Literal["less", "equal", "greater"]


class IntPoly:
    """Immutable polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        other = _lift(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        return _difference(self.coeffs, _lift(other).coeffs)

    def __rsub__(self, other: "IntPoly | int") -> "IntPoly":
        return _difference(_lift(other).coeffs, self.coeffs)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        other = _lift(other)
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = IntPoly([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, m: int) -> int:
        """Exact evaluation at an integer via Horner."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * m + c
        return value

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        """Quotient q with divisor * q == self, else InexactDivision."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return IntPoly()
        if len(self.coeffs) < len(divisor.coeffs):
            raise InexactDivision("degree of divisor exceeds degree of dividend")
        rem = list(self.coeffs)
        dlead = divisor.coeffs[-1]
        dlen = len(divisor.coeffs)
        qlen = len(rem) - dlen + 1
        quot = [0] * qlen
        for pos in range(qlen - 1, -1, -1):
            head = rem[pos + dlen - 1]
            c, r = divmod(head, dlead)
            if r:
                raise InexactDivision("leading coefficient not divisible")
            quot[pos] = c
            if c:
                for j, d in enumerate(divisor.coeffs):
                    rem[pos + j] -= c * d
        if any(rem):
            raise InexactDivision("nonzero remainder")
        return IntPoly(quot)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*m")
            else:
                parts.append(f"{c}*m^{i}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


def _lift(x: "IntPoly | int") -> IntPoly:
    return x if isinstance(x, IntPoly) else IntPoly([x])


def _difference(a: tuple[int, ...], b: tuple[int, ...]) -> IntPoly:
    """a - b in one pass over coefficients that are already ints."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    p = object.__new__(IntPoly)
    object.__setattr__(p, "coeffs", tuple(out))
    return p


#: The variable m itself.
M = IntPoly([0, 1])


def prod(polys: Iterable[IntPoly]) -> IntPoly:
    return reduce(lambda a, b: a * b, polys, IntPoly([1]))


def forest_polynomial(trees: int, edges: int) -> IntPoly:
    """m^trees (m-1)^edges, the chromatic polynomial of a forest.

    Built from the binomial expansion of (m-1)^edges, each coefficient from the last.
    """
    coeffs, c = [0] * trees, sign(edges)
    for j in range(edges + 1):
        coeffs.append(c)
        c = -c * (edges - j) // (j + 1)
    return IntPoly(coeffs)


def power_m1(e: int) -> IntPoly:
    """(m - 1)^e, as the binomial expansion of `forest_polynomial`."""
    return forest_polynomial(0, e)


def sign(e: int) -> int:
    """(-1)^e."""
    return -1 if e & 1 else 1


def crossover_bound(p: IntPoly) -> int:
    """An explicit point beyond which p keeps the sign of its leading term.

    Uses 1 + max |c_i|, a coarse Cauchy-style root bound (integer leading
    coefficients have absolute value >= 1).  Never smaller than 1.
    """
    if p.is_zero():
        return 1
    return 1 + max(abs(c) for c in p.coeffs)


def eventual_compare(p: IntPoly, q: IntPoly) -> tuple[Ordering, int]:
    """Ordering of p and q for all sufficiently large m, with a bound.

    Returns ("less"|"equal"|"greater", N) where the ordering holds for
    every m >= N.  The ordering is decided by the leading coefficient of
    p - q, the bound by `crossover_bound`.
    """
    diff = p - q
    if diff.is_zero():
        return "equal", 1
    relation: Ordering = "greater" if diff.coeffs[-1] > 0 else "less"
    return relation, crossover_bound(diff)


def poly_to_json(p: IntPoly) -> dict:
    """Coefficient-array form; coefficients as decimal strings."""
    return {"coefficients": [str(c) for c in p.coeffs], "text": str(p)}
