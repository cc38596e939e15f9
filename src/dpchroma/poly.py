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
    """Immutable polynomial over the integers.  Its text is built at the
    first `str` and kept in the second slot."""

    __slots__ = ("coeffs", "_str")

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
        return _normalized(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return _normalized([-c for c in self.coeffs])

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
        return _normalized(out)

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
        return _normalized(quot)

    def __reduce__(self):
        """Pickle the coefficients alone: restoring the slots would go
        through `__setattr__`, which refuses, and the text is rebuilt."""
        return IntPoly, (self.coeffs,)

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            object.__setattr__(self, "_str", _text(list(map(str, self.coeffs))))
            return self._str

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


def _lift(x: "IntPoly | int") -> IntPoly:
    return x if isinstance(x, IntPoly) else IntPoly([x])


def _difference(a: tuple[int, ...], b: tuple[int, ...]) -> IntPoly:
    """a - b in one pass over coefficients that are already ints."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _normalized(out)


def _normalized(coeffs: list[int]) -> IntPoly:
    """The IntPoly of a list of ints, its trailing zeros dropped, with no
    pass to convert them."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    p = object.__new__(IntPoly)
    object.__setattr__(p, "coeffs", tuple(coeffs))
    return p


def pack(p: IntPoly, width: int) -> int:
    """p(2^(8 * width)), for p with every coefficient in [-2^(8 * width - 1),
    2^(8 * width - 1)): moved up by half that range, the coefficients are
    the `width`-byte digits of one little-endian number."""
    half = 1 << (8 * width - 1)
    data = b"".join((c + half).to_bytes(width, "little") for c in p.coeffs)
    return int.from_bytes(data, "little") - _halves(len(p.coeffs), width)


def unpack(value: int, width: int) -> IntPoly:
    """The polynomial p with `pack(p, width) == value`: the signed digits
    of value in base 2^B, B = 8 * width, read as `pack` writes them, in
    time linear in its size.  A top digit at index d leaves |value| above
    2^(Bd) / 3, as the digits below it sum to less than two thirds of
    that, so d is at most value.bit_length() // B + 1."""
    count = abs(value).bit_length() // (8 * width) + 2
    data = (value + _halves(count, width)).to_bytes(count * width, "little")
    half = 1 << (8 * width - 1)
    return _normalized(
        [int.from_bytes(data[k : k + width], "little") - half for k in range(0, len(data), width)]
    )


def _halves(count: int, width: int) -> int:
    """2^(8 * width - 1) in each of `count` digits of `width` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


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


def positive_from(p: IntPoly, start: int = 1) -> int:
    """The least N >= start with p(m) > 0 at every integer m >= N, for a
    start >= 1; p must have a positive leading coefficient.  If the Taylor
    shift p(c + x) has no negative coefficient, p > 0 beyond c, and so
    beyond any c' > c, whose shift is that one's at (c' - c) + x.  Doubling
    from start finds such a c, and exact evaluation from c down to start
    finds N (Collins and Akritas, SYMSAC 1976)."""
    if not p.coeffs or p.coeffs[-1] <= 0:
        raise ValueError("the leading coefficient must be positive")
    c = start
    while not _shift_nonnegative(p.coeffs, c):
        c *= 2
    return next((m + 1 for m in range(c, start - 1, -1) if p(m) <= 0), start)


def _shift_nonnegative(coeffs: tuple[int, ...], c: int) -> bool:
    """Whether p(c + x) has no negative coefficient, by Horner's Taylor
    shift, whose pass i leaves the coefficient of x^i final."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
        if a[i] < 0:
            return False
    return True


def eventual_compare(p: IntPoly, q: IntPoly) -> tuple[Ordering, int]:
    """Ordering of p and q for all sufficiently large m, with its fold.

    Returns ("less"|"equal"|"greater", N) with N the least fold from which
    the ordering holds at every m >= N: the leading coefficient of p - q
    decides the ordering, `positive_from` the fold.
    """
    diff = p - q
    if diff.is_zero():
        return "equal", 1
    relation: Ordering = "greater" if diff.coeffs[-1] > 0 else "less"
    return relation, positive_from(diff if relation == "greater" else -diff)


def poly_to_json(p: IntPoly) -> dict:
    """Coefficient-array form; coefficients as decimal strings.  `text` is
    `str(p)`, built from the same strings: a long coefficient's decimal
    conversion, quadratic in its length, runs once."""
    digits = list(map(str, p.coeffs))
    return {"coefficients": digits, "text": _text(digits)}


def _text(digits: list[str]) -> str:
    """A polynomial's text form from its coefficients' decimal strings."""
    terms = []
    for i, d in enumerate(digits):
        terms.append(d if i == 0 else f"{d}*m" if i == 1 else f"{d}*m^{i}")
    return " + ".join(terms) or "0"
