"""Dual-string calculus and the seeded family of hyperbolic words.

A string (b_1, ..., b_k) with every b_i >= 2 expands to a negative continued
fraction b_1 - 1/(b_2 - 1/(...)) = p/q.  Its dual string is the one whose
fraction is p/(p-q); combinatorially the dual swaps runs of 2's with the
excesses over 3 (the linear-plumbing orientation-reversal rule).  The family
generator produces the two-segment strings whose first segment, after
decrementing its two ends, is dual to the second segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, DomainError

__all__ = [
    "FamilyParams",
    "cf_value",
    "dual_string",
    "family_string",
    "split_relabel",
    "recognize_family",
    "parse_int_string",
    "format_int_string",
    "parse_family_params",
]


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (k; x_1, ..., x_{2k+1}) of a family string."""

    k: int
    xs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 0:
            raise DomainError("bad-family-params", "k must be nonnegative")
        if len(self.xs) != 2 * self.k + 1:
            raise DomainError(
                "bad-family-params",
                f"need 2k+1 = {2 * self.k + 1} values, got {len(self.xs)}",
            )
        if any(x < 0 for x in self.xs):
            raise DomainError("bad-family-params", "x_i must be nonnegative")


def _check_dual_input(b: tuple[int, ...]) -> None:
    if not b:
        raise DomainError("empty-string", "dual-string calculus needs a nonempty string")
    if any(x < 2 for x in b):
        raise DomainError("bad-string", "dual-string calculus needs entries >= 2")


def cf_value(b) -> Fraction:
    """Negative continued fraction b_1 - 1/(b_2 - 1/(...)) as a reduced
    fraction p/q with p > q >= 1.  Independent oracle for the dual rule."""
    b = tuple(b)
    _check_dual_input(b)
    val = Fraction(b[-1])
    for x in reversed(b[:-1]):
        val = x - 1 / val
    return val


def dual_string(b) -> tuple[int, ...]:
    """Dual of a string of integers >= 2.

    An all-2 string of length k dualizes to (k+1).  Otherwise write b as
    (2^[m_1], 3+n_1, 2^[m_2], 3+n_2, ..., 3+n_s, 2^[m_{s+1}]); the dual is
    (m_1+2, 2^[n_1], m_2+3, 2^[n_2], ..., m_s+3, 2^[n_s], m_{s+1}+2).
    The output is checked against the continued-fraction oracle:
    cf(b) = p/q implies cf(dual(b)) = p/(p-q).
    """
    b = tuple(b)
    _check_dual_input(b)
    if all(x == 2 for x in b):
        return (len(b) + 1,)

    runs: list[int] = []   # lengths of the 2-runs, s+1 of them
    bigs: list[int] = []   # excess over 3 of each entry >= 3
    current = 0
    for x in b:
        if x == 2:
            current += 1
        else:
            runs.append(current)
            bigs.append(x - 3)
            current = 0
    runs.append(current)

    s = len(bigs)
    out = [runs[0] + 2]
    for t in range(s):
        out.extend([2] * bigs[t])
        if t < s - 1:
            out.append(runs[t + 1] + 3)
    out.append(runs[s] + 2)
    result = tuple(out)

    pq = cf_value(b)
    dual_pq = cf_value(result)
    if dual_pq != Fraction(pq.numerator, pq.numerator - pq.denominator):
        raise ContractError("contract-dual-string", f"dual rule broke the cf contract on {b}")
    return result


def _cyclic_index(i: int, n: int) -> int:
    """Map a residue to the 1-based index range 1..n."""
    r = i % n
    return r if r else n


def family_string(p: FamilyParams) -> tuple[int, ...]:
    """The family string for parameters (k; x): blocks (3+x_i, 2^[x_{i+1}])
    visited in the order i = 1, 3, ..., 2k+1, 2, 4, ..., 2k with indices
    cyclic mod 2k+1."""
    n = 2 * p.k + 1
    xs = p.xs
    out: list[int] = []
    for j in range(n):
        i = _cyclic_index(1 + 2 * j, n)
        succ = _cyclic_index(i + 1, n)
        out.append(3 + xs[i - 1])
        out.extend([2] * xs[succ - 1])
    return tuple(out)


def recognize_family(a) -> FamilyParams | None:
    """Inverse of :func:`family_string` up to rotation.

    Returns the parameters whose family string is a rotation of ``a``, or
    ``None``.  A string can be parameterized from several of its rotations;
    the smallest rotation index producing a consistent parse wins, so the
    generator round-trips exactly: ``recognize_family(family_string(p)) == p``.
    (k is forced either way: the string has exactly 2k+1 entries >= 3.)
    """
    a = tuple(a)
    if not a or any(x < 2 for x in a):
        return None
    big_count = sum(1 for x in a if x >= 3)
    if big_count == 0 or big_count % 2 == 0:
        return None
    n = big_count
    k = (n - 1) // 2

    for r in range(len(a)):
        if a[r] < 3:
            continue
        rot = a[r:] + a[:r]
        # split into blocks: an entry >= 3 followed by its run of 2's
        blocks: list[tuple[int, int]] = []
        idx = 0
        while idx < len(rot):
            head = rot[idx] - 3
            idx += 1
            run = 0
            while idx < len(rot) and rot[idx] == 2:
                run += 1
                idx += 1
            blocks.append((head, run))
        # block j carries x at index (1+2j) and the run length of its successor
        heads: dict[int, int] = {}
        run_lengths: dict[int, int] = {}
        for j, (head, run) in enumerate(blocks):
            i = _cyclic_index(1 + 2 * j, n)
            heads[i] = head
            run_lengths[_cyclic_index(i + 1, n)] = run
        if all(heads[i] == run_lengths[i] for i in range(1, n + 1)):
            return FamilyParams(k, tuple(heads[i] for i in range(1, n + 1)))
    return None


def split_relabel(a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a family string into its two dual segments.

    The first segment (3+x_1, 2^[x_2], ..., 3+x_{2k+1}) becomes ``d`` by
    decrementing its first and last entries (a single entry absorbs both
    decrements); the rest of the string is ``e``.  Guarantees
    ``dual_string(d) == e``.  The string (3) is rejected: it has no second
    segment to split off.
    """
    a = tuple(a)
    params = recognize_family(a)
    if params is None:
        raise DomainError("not-in-family", f"{a} is not a family string")
    k, xs = params.k, params.xs
    if k == 0 and xs == (0,):
        raise DomainError("special-case", "the string (3) is handled separately")
    n = 2 * k + 1

    first: list[int] = []
    for j in range(k):
        i = _cyclic_index(1 + 2 * j, n)
        succ = _cyclic_index(i + 1, n)
        first.append(3 + xs[i - 1])
        first.extend([2] * xs[succ - 1])
    first.append(3 + xs[n - 1])

    second: list[int] = [2] * xs[0]
    for j in range(k + 1, n):
        i = _cyclic_index(1 + 2 * j, n)
        succ = _cyclic_index(i + 1, n)
        second.append(3 + xs[i - 1])
        second.extend([2] * xs[succ - 1])

    if len(first) == 1:
        d = (first[0] - 2,)
    else:
        d = (first[0] - 1, *first[1:-1], first[-1] - 1)
    e = tuple(second)
    if dual_string(d) != e:
        raise ContractError("contract-family-split", f"segments of {a} failed the duality contract")
    return d, e


def parse_int_string(text: str) -> tuple[int, ...]:
    """Parse ``3,2,2`` into a tuple of integers."""
    text = text.strip()
    if not text:
        raise DomainError("string-syntax", "empty string")
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise DomainError("string-syntax", f"bad entry: {exc}") from exc


def format_int_string(s) -> str:
    return ",".join(str(x) for x in s)


def parse_family_params(text: str) -> FamilyParams:
    """Parse ``k=1;x=0,0,0``."""
    parts = dict(
        chunk.split("=", 1) for chunk in text.strip().split(";") if "=" in chunk
    )
    if set(parts) != {"k", "x"}:
        raise DomainError("family-syntax", "expected k=<int>;x=<comma list>")
    try:
        k = int(parts["k"])
        xs = tuple(int(t) for t in parts["x"].split(",")) if parts["x"] else ()
    except ValueError as exc:
        raise DomainError("family-syntax", f"bad value: {exc}") from exc
    return FamilyParams(k, xs)
