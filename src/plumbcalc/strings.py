"""Dual-string calculus and the seeded family of hyperbolic words.

A string (b_1, ..., b_k) with every b_i >= 2 expands to a negative continued
fraction b_1 - 1/(b_2 - 1/(...)) = p/q.  Its dual string is the one whose
fraction is p/(p-q); combinatorially the dual swaps runs of 2's with the
excesses over 3 (the linear-plumbing orientation-reversal rule).  The family
generator produces the two-segment strings whose first segment, after
decrementing its two ends, is dual to the second segment.
"""

from __future__ import annotations

from .errors import ContractError, DomainError, _format_list, _ints, _parse_list, _Value
from .sl2 import MonodromyWord, word_to_matrix

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


class FamilyParams(_Value):
    """Parameters (k; x_1, ..., x_{2k+1}) of a family string."""

    k: int
    xs: tuple[int, ...]

    def __init__(self, k: int, xs: tuple[int, ...]) -> None:
        if k < 0:
            raise DomainError("bad-family-params", "k must be nonnegative")
        if len(xs) != 2 * k + 1:
            raise DomainError(
                "bad-family-params", f"need 2k+1 = {2 * k + 1} values, got {len(xs)}"
            )
        if any(x < 0 for x in xs):
            raise DomainError("bad-family-params", "x_i must be nonnegative")
        self.__dict__.update(k=k, xs=xs)


_MAX_ENTRIES = 10**6  # longest string that dual_string and family_string build


def _check_size(entries: int) -> None:
    if entries > _MAX_ENTRIES:
        raise DomainError("too-large", f"output of {entries} entries exceeds {_MAX_ENTRIES}")


def _check_dual_input(b: tuple[int, ...]) -> None:
    if not b:
        raise DomainError("empty-string", "dual-string calculus needs a nonempty string")
    if any(x < 2 for x in b):
        raise DomainError("bad-string", "dual-string calculus needs entries >= 2")


def cf_value(b):
    """Negative continued fraction b_1 - 1/(b_2 - 1/(...)) as a reduced
    ``Fraction`` p/q with p > q >= 1.  Independent oracle for the dual rule."""
    from fractions import Fraction

    b = tuple(b)
    _check_dual_input(b)
    val = Fraction(b[-1])
    for x in reversed(b[:-1]):
        val = x - 1 / val
    return val


def _dual_rule(b: tuple[int, ...]) -> tuple[int, ...]:
    """The combinatorial dual of a valid string with an entry >= 3 (see
    :func:`dual_string`)."""
    starts = [r for r, x in enumerate(b) if x >= 3]
    bigs = [b[r] - 3 for r in starts]  # excess over 3 of each entry >= 3
    bounds = [-1, *starts, len(b)]
    runs = [t - r - 1 for r, t in zip(bounds, bounds[1:])]  # the s+1 runs of 2's

    s = len(bigs)
    _check_size(s + 1 + sum(bigs))
    out = [runs[0] + 2]
    for t in range(s):
        out.extend([2] * bigs[t])
        if t < s - 1:
            out.append(runs[t + 1] + 3)
    out.append(runs[s] + 2)
    return tuple(out)


def dual_string(b) -> tuple[int, ...]:
    """Dual of a string of integers >= 2.

    An all-2 string of length k dualizes to (k+1).  Otherwise write b as
    (2^[m_1], 3+n_1, 2^[m_2], 3+n_2, ..., 3+n_s, 2^[m_{s+1}]); the dual is
    (m_1+2, 2^[n_1], m_2+3, 2^[n_2], ..., m_s+3, 2^[n_s], m_{s+1}+2).
    The second case is checked in integer arithmetic against the continued
    fraction: cf(b) = p/q implies cf(dual(b)) = p/(p-q), both reduced.
    """
    b = tuple(b)
    _check_dual_input(b)
    if all(x == 2 for x in b):
        return (len(b) + 1,)
    result = _dual_rule(b)
    # cf(s) = a/-c of word_to_matrix(s), coprime since ad - bc = 1
    m, dm = word_to_matrix(MonodromyWord(b)), word_to_matrix(MonodromyWord(result))
    if (dm.a, -dm.c) != (m.a, m.a + m.c):
        raise ContractError("contract-dual-string", f"dual rule broke the cf contract on {b}")
    return result


def family_string(p: FamilyParams) -> tuple[int, ...]:
    """The family string for parameters (k; x): blocks (3+x_i, 2^[x_{i+1}])
    visited in the order i = 1, 3, ..., 2k+1, 2, 4, ..., 2k with indices
    cyclic mod 2k+1."""
    n = 2 * p.k + 1
    xs = p.xs
    _check_size(n + sum(xs))
    out: list[int] = []
    for j in range(n):
        i = 2 * j % n  # 0-based index of x_{1+2j}
        out.append(3 + xs[i])
        out.extend([2] * xs[(i + 1) % n])
    return tuple(out)


def _family_parse(a: tuple[int, ...]) -> tuple[FamilyParams, int] | None:
    """Parameters of the family string that is a rotation of ``a``, with the
    offset r of that rotation (``family_string(p) == a[r:] + a[:r]``).

    Only the first rotation that starts at an entry >= 3 is parsed.  Cut it
    into blocks B_0, ..., B_{n-1}, each an entry >= 3 and the run of 2's
    after it.  Block j must carry x_{1+2j} as head(B_j) - 3 and x_{2+2j} as
    run(B_j), indices mod n = 2k+1.  Since 2(k+1) = 1 mod n, the index 1+2j
    is also 2+2(j-k-1), so the parse is consistent iff
    head(B_j) - 3 = run(B_{j-k-1}) for every j mod n.  That condition is
    invariant under shifting j, i.e. under starting at another entry >= 3:
    either every such rotation parses or none does, and the first one is
    the smallest rotation index that parses.
    """
    if any(x < 2 for x in a):
        return None
    starts = [r for r, x in enumerate(a) if x >= 3]
    n = len(starts)
    if n % 2 == 0:
        return None
    k = (n - 1) // 2
    heads = [a[r] - 3 for r in starts]
    runs = [t - r - 1 for r, t in zip(starts, starts[1:] + [starts[0] + len(a)])]
    if any(heads[j] != runs[(j - k - 1) % n] for j in range(n)):
        return None
    # x_{1+i} sits in block j with 2j = i mod n, i.e. j = (k+1)i mod n
    return FamilyParams(k, tuple(heads[(k + 1) * i % n] for i in range(n))), starts[0]


def recognize_family(a) -> FamilyParams | None:
    """Inverse of :func:`family_string` up to rotation.

    Returns the parameters whose family string is a rotation of ``a``, or
    ``None``.  A string can be parameterized from several of its rotations;
    the smallest rotation index producing a consistent parse wins, so the
    generator round-trips exactly: ``recognize_family(family_string(p)) == p``.
    (k is forced either way: the string has exactly 2k+1 entries >= 3.)
    """
    parsed = _family_parse(tuple(a))
    return parsed[0] if parsed else None


def _split_family(a: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The offset of the family rotation of ``a`` (see :func:`_family_parse`)
    and the two dual segments of :func:`split_relabel`."""
    parsed = _family_parse(a)
    if parsed is None:
        raise DomainError("not-in-family", f"{a} is not a family string")
    params, offset = parsed
    k, xs = params.k, params.xs
    if k == 0 and xs == (0,):
        raise DomainError("special-case", "the string (3) is handled separately")
    # the first segment ends at the head of block k, 3 + x_{2k+1}
    s = a[offset:] + a[:offset]
    cut = k + 1 + sum(xs[1:2 * k:2])
    d = list(s[:cut])
    d[0] -= 1
    d[-1] -= 1  # a single entry takes both decrements
    d, e = tuple(d), s[cut:]
    if dual_string(d) != e:
        raise ContractError("contract-family-split", f"segments of {a} failed the duality contract")
    return offset, d, e


def split_relabel(a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a family string into its two dual segments.

    The first segment (3+x_1, 2^[x_2], ..., 3+x_{2k+1}) becomes ``d`` by
    decrementing its first and last entries (a single entry absorbs both
    decrements); the rest of the string is ``e``.  Guarantees
    ``dual_string(d) == e``.  The string (3) is rejected: it has no second
    segment to split off.
    """
    _, d, e = _split_family(tuple(a))
    return d, e


def parse_int_string(text: str) -> tuple[int, ...]:
    """Parse ``3,2,2`` into a tuple of integers."""
    return _parse_list(text, "string-syntax")


def format_int_string(s) -> str:
    return _format_list(s)


def parse_family_params(text: str) -> FamilyParams:
    """Parse ``k=1;x=0,0,0``: one ``k=`` and one ``x=`` field, in either
    order, and nothing else."""
    fields = [chunk.partition("=") for chunk in text.strip().split(";")]
    parts = {key: value for key, eq, value in fields if eq}
    if len(fields) != 2 or set(parts) != {"k", "x"}:
        raise DomainError("family-syntax", "expected k=<int>;x=<comma list>")
    (k,) = _ints([parts["k"]], "family-syntax", "bad value")
    xs = _parse_list(parts["x"], "family-syntax") if parts["x"] else ()
    return FamilyParams(k, xs)
