"""SL(2,Z) monodromy algebra for torus bundles.

A bundle is encoded by a word (a_1, ..., a_n) with a global sign, standing
for ``sign * T^{-a_1} S ... T^{-a_n} S`` in the generators
``T = [[1,1],[0,1]]`` and ``S = [[0,1],[-1,0]]``.  The trace classifies the
bundle (elliptic / parabolic / hyperbolic) and drives all the torsion
formulas downstream.
"""

from __future__ import annotations

from enum import Enum

from .errors import DomainError, _format_list, _parse_list, _Value, is_perfect_square

__all__ = [
    "SL2Element",
    "MonodromyWord",
    "BundleType",
    "TraceSign",
    "word_to_matrix",
    "classify",
    "torsion_order",
    "square_trace_check",
    "rotation_equivalent",
    "lex_min_rotation",
    "parse_word",
    "format_word",
]


class SL2Element(_Value):
    """An element of SL(2,Z); the determinant is enforced at construction."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if a * d - b * c != 1:
            raise DomainError("not-unimodular", "ad - bc must equal 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "SL2Element":
        return cls(1, 0, 0, 1)

    def __matmul__(self, o: "SL2Element") -> "SL2Element":
        return SL2Element(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def __neg__(self) -> "SL2Element":
        return SL2Element(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "SL2Element":
        return SL2Element(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


class MonodromyWord(_Value):
    """Word (a_1, ..., a_n) plus gluing sign; empty word encodes sign * I."""

    coeffs: tuple[int, ...]
    sign: int

    def __init__(self, coeffs, sign: int = 1) -> None:
        if sign not in (1, -1):
            raise DomainError("bad-sign", "sign must be +1 or -1")
        object.__setattr__(self, "coeffs", tuple(map(int, coeffs)))
        object.__setattr__(self, "sign", sign)


def word_to_matrix(w: MonodromyWord) -> SL2Element:
    """Evaluate ``sign * T^{-a_1} S ... T^{-a_n} S`` exactly.

    The one ``T^k S`` product of the package: chains, cut conjugators and
    cycle graphs evaluate through it."""
    a, b, c, d = 1, 0, 0, 1
    for x in w.coeffs:
        # right factor T^{-x} S = [[x, 1], [-1, 0]]
        a, b, c, d = a * x - b, a, c * x - d, c
    m = SL2Element(a, b, c, d)
    return -m if w.sign < 0 else m


def _framed_word(framings, sign: int = 1) -> MonodromyWord:
    """The word of ``sign * T^{f_1} S ... T^{f_n} S``: chain framings and
    plumbing weights are the negated word coefficients (T^f S = T^{-a} S)."""
    return MonodromyWord(tuple(-f for f in framings), sign)


class BundleType(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class TraceSign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    ZERO = "zero-trace"


def classify(m: SL2Element) -> tuple[BundleType, TraceSign]:
    """Trace classification: |tr| < 2 elliptic, = 2 parabolic, > 2 hyperbolic;
    the second component records the sign of the trace."""
    t = m.trace
    if abs(t) < 2:
        kind = BundleType.ELLIPTIC
    elif abs(t) == 2:
        kind = BundleType.PARABOLIC
    else:
        kind = BundleType.HYPERBOLIC
    if t > 0:
        ts = TraceSign.POSITIVE
    elif t < 0:
        ts = TraceSign.NEGATIVE
    else:
        ts = TraceSign.ZERO
    return kind, ts


def torsion_order(m: SL2Element) -> int:
    """Order of the torsion of H_1 of the torus bundle with monodromy ``m``.

    Equals |tr(m) - 2| = |det(m - I)|; undefined (infinite torsion-free part)
    when tr(m) = 2.
    """
    t = m.trace
    if t == 2:
        raise DomainError(
            "parabolic-positive", "torsion formula degenerate for trace 2"
        )
    return abs(t - 2)


def square_trace_check(m: SL2Element) -> tuple[int, bool]:
    """For hyperbolic ``m``: the torsion order tr^2 - 4 of the squared bundle,
    and whether it is a perfect square (it never is for tr > 2)."""
    t = m.trace
    if abs(t) <= 2:
        raise DomainError("not-hyperbolic", "square-trace check needs |tr| > 2")
    value = t * t - 4
    return value, is_perfect_square(value)


def _least_rotation(s: tuple) -> int:
    """Start index of the lexicographically least rotation of ``s`` (0 if empty).

    Duval's Lyndon factorization (J. Algorithms 4(4), 1983) of ``s + s``, O(n)
    comparisons: the last run of equal factors that starts before ``len(s)``."""
    ss, n = s + s, len(s)
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and ss[k] <= ss[j]:
            k = i if ss[k] < ss[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def lex_min_rotation(seq) -> tuple:
    """The lexicographically smallest rotation; canonical form of a cyclic word."""
    s = tuple(seq)
    k = _least_rotation(s)
    return s[k:] + s[:k]


def rotation_equivalent(a, b) -> bool:
    """True iff ``b`` is a cyclic rotation of ``a`` (conjugate words)."""
    return lex_min_rotation(a) == lex_min_rotation(b)


def parse_word(text: str) -> MonodromyWord:
    """Parse the word syntax: ``3,2,2`` with optional leading ``-:`` for the
    negative gluing sign, e.g. ``-:2,2``.  An empty body encodes the identity."""
    text = text.strip()
    sign = 1
    if text.startswith("-:"):
        sign = -1
        text = text[2:]
    return MonodromyWord(_parse_list(text, "word-syntax") if text else (), sign)


def format_word(w: MonodromyWord) -> str:
    body = _format_list(w.coeffs)
    return f"-:{body}" if w.sign < 0 else body
