"""Blowup/blowdown rewriting on cyclic framed chains.

A chain state is a cyclic list of framings with a global sign; its monodromy
is ``eps * T^{f_1} S ... T^{f_n} S``.  Blowups and blowdowns preserve that
matrix exactly, which is the certificate for every rewrite.

The stored list has a cut between the last and first entries.  Moves across
the cut would only preserve the monodromy up to conjugation, so they are
rejected; :func:`rotate` moves the cut instead and returns the exact
conjugator, letting longer procedures certify their result as
``C * monodromy(end) * C^-1 == monodromy(start)``.
"""

from __future__ import annotations

from collections import deque

from .errors import (ContractError, DomainError, _format_list, _ints, _keyword_lines,
                     _parse_list, _Value)
from .sl2 import SL2Element, _framed_word, rotation_equivalent, word_to_matrix
from .strings import _split_family

__all__ = [
    "ChainState",
    "DualizeResult",
    "chain_monodromy",
    "blow_down",
    "blow_up",
    "rotate",
    "chains_rotation_equal",
    "dualize_procedure",
    "parse_chain",
    "format_chain",
    "run_script",
]


class ChainState(_Value):
    """Cyclic framed chain (f_1, ..., f_n) with overall sign eps."""

    framings: tuple[int, ...]
    eps: int

    def __init__(self, framings, eps: int = 1) -> None:
        if len(framings) < 1:
            raise DomainError("empty-chain", "a chain needs at least one component")
        if eps not in (1, -1):
            raise DomainError("bad-sign", "eps must be +1 or -1")
        self.__dict__.update(framings=tuple(map(int, framings)), eps=eps)


def chain_monodromy(c: ChainState) -> SL2Element:
    """``eps * T^{f_1} S ... T^{f_n} S``, exact."""
    return word_to_matrix(_framed_word(c.framings, c.eps))


def _blow(fr: list[int] | deque[int], i: int, e: int, up: bool) -> None:
    """The blow move on a framing list or deque, in place: insert (``up``)
    or remove the framing-``e`` component at index ``i``; its two neighbours
    change by +e or -e.  Either way eps flips exactly when e = +1.  Callers
    validate."""
    if up:
        fr.insert(i, e)
    step = e if up else -e
    fr[i - 1] += step
    fr[i + 1] += step
    if not up:
        del fr[i]


def blow_down(c: ChainState, i: int) -> ChainState:
    """Remove a +-1-framed component at a cut-interior position.

    Both neighbors change by -f_i (so a -1 raises them by one, a +1 lowers
    them by one); eps flips exactly when f_i = +1.  This preserves
    :func:`chain_monodromy` on the nose, which is why the end positions are
    rejected: removing across the cut is a conjugation, not an equality
    (rotate first).
    """
    n = len(c.framings)
    if n < 3:
        raise DomainError("chain-too-short", "blowdown needs a chain of length >= 3")
    if not 1 <= i <= n - 2:
        raise DomainError(
            "cut-boundary",
            f"index {i} touches the cut; rotate the chain first",
        )
    f = c.framings[i]
    if f not in (1, -1):
        raise DomainError("framing-not-unit", f"component {i} has framing {f}, need +-1")
    fr = list(c.framings)
    _blow(fr, i, f, up=False)
    return ChainState(tuple(fr), -c.eps if f == 1 else c.eps)


def blow_up(c: ChainState, edge: int, e: int) -> ChainState:
    """Insert a framing-``e`` component between positions ``edge`` and
    ``edge+1``; both neighbors change by +e and eps flips when e = +1.
    Inverse of :func:`blow_down` at the inserted site.  The wrap edge between
    the last and first entries is the cut and is rejected."""
    if e not in (1, -1):
        raise DomainError("framing-not-unit", f"blowup framing must be +-1, got {e}")
    n = len(c.framings)
    if not 0 <= edge <= n - 2:
        raise DomainError(
            "cut-boundary",
            f"edge {edge} is the cut or out of range; rotate the chain first",
        )
    fr = list(c.framings)
    _blow(fr, edge + 1, e, up=True)
    return ChainState(tuple(fr), -c.eps if e == 1 else c.eps)


def _cut(fr: list[int], r: int) -> SL2Element:
    """Rotate a framing list in place to start at position ``r`` (0 <= r < n)
    and return the conjugator of :func:`rotate`, built from the shorter side:
    the prefix product P when 2r <= n, else the inverse of the suffix
    product Q.  Both conjugate eps*P*Q into eps*Q*P."""
    if 2 * r <= len(fr):
        conj = word_to_matrix(_framed_word(fr[:r]))
    else:
        conj = word_to_matrix(_framed_word(fr[r:])).inverse()
    fr[:] = fr[r:] + fr[:r]
    return conj


def rotate(c: ChainState, r: int) -> tuple[ChainState, SL2Element]:
    """Move the cut: the new list starts at position ``r``.

    Returns the rotated state and a conjugator ``C`` with
    ``chain_monodromy(new) == C^-1 @ chain_monodromy(old) @ C`` exactly:
    the product of the rotated-away prefix factors when ``2r <= n``, else
    the inverse product of the other factors, whichever is shorter.
    """
    fr = list(c.framings)
    conj = _cut(fr, r % len(fr))
    return ChainState(tuple(fr), c.eps), conj


def chains_rotation_equal(a: ChainState, b: ChainState) -> bool:
    """Rotation-insensitive comparison (same eps, framings up to rotation)."""
    return a.eps == b.eps and rotation_equivalent(a.framings, b.framings)


class DualizeResult(_Value):
    """Outcome of the dualization procedure with its exact certificate."""

    start: ChainState
    terminal: ChainState
    conjugator: SL2Element
    blow_ups: int
    blow_downs: int

    def __init__(self, start: ChainState, terminal: ChainState, conjugator: SL2Element,
                 blow_ups: int, blow_downs: int) -> None:
        self.__dict__.update(start=start, terminal=terminal, conjugator=conjugator,
                             blow_ups=blow_ups, blow_downs=blow_downs)

    def certified(self) -> bool:
        """Recheck the certificate from scratch:
        conjugator @ mono(terminal) @ conjugator^-1 == mono(start)."""
        lhs = self.conjugator @ chain_monodromy(self.terminal) @ self.conjugator.inverse()
        return lhs == chain_monodromy(self.start)


def dualize_procedure(a) -> DualizeResult:
    """Rewrite the chain of a family string into its two-block normal form.

    Starting from ((-a_1, ..., -a_n); +) for a family string ``a`` (with
    dual segments d, e from :func:`split_relabel`), repeatedly blow up with
    +1 at the interface following the tail of the e-block and blow down the
    -1-framed components this creates.  The run terminates with framings
    (-d_1, ..., -d_p, d_1, ..., d_p) up to rotation; every blow move
    preserves the monodromy exactly and the rotations are accumulated into a
    conjugator, so the terminal state carries an exact certificate.
    """
    a = tuple(a)
    offset, d, e = _split_family(a)  # raises not-in-family, special-case for (3)

    fr = [-x for x in a]
    eps = 1
    ups = downs = 0
    # align to canonical block order and park the e-block tail at index 0
    w = _cut(fr, (offset - 1) % len(fr))
    wa, wb, wc, wd = w.a, w.b, w.c, w.d  # the conjugator, as plain ints
    ring = deque(fr)  # O(1) rotation and edits at both ends

    remaining = len(e)
    while remaining:
        # +1 blowup between the e-tail (index 0) and the head it feeds
        _blow(ring, 1, 1, up=True)
        eps = -eps
        ups += 1
        while remaining and ring[0] == -1:
            # move the last entry f to the front, which conjugates by
            # (T^f S)^-1 = [[0, -1], [1, -f]], then blow down the -1 at index 1
            f = ring[-1]
            wa, wb, wc, wd = wb, -wa - f * wb, wd, -wc - f * wd
            ring.rotate(1)
            _blow(ring, 1, -1, up=False)
            downs += 1
            remaining -= 1

    start = ChainState(tuple(-x for x in a), 1)
    terminal = ChainState(tuple(ring), eps)
    result = DualizeResult(start, terminal, SL2Element(wa, wb, wc, wd), ups, downs)
    if not rotation_equivalent(terminal.framings, tuple(-x for x in d) + d):
        raise ContractError("contract-two-block", f"dualization of {a} missed the two-block form")
    if not result.certified():
        raise ContractError("contract-certificate", f"dualization of {a} failed its certificate")
    return result


def parse_chain(text: str) -> ChainState:
    """Parse ``-3,-1,-3`` or the long form ``chain -3,-1,-3 sign=+``."""
    text = text.strip()
    eps = 1
    if text.startswith("chain"):
        parts = text.split()
        if len(parts) not in (2, 3):
            raise DomainError("chain-syntax", "expected: chain <f1,f2,...> [sign=+|-]")
        if len(parts) == 3:
            if parts[2] not in ("sign=+", "sign=-"):
                raise DomainError("chain-syntax", f"bad sign field {parts[2]!r}")
            eps = 1 if parts[2] == "sign=+" else -1
        text = parts[1]
    return ChainState(_parse_list(text, "chain-syntax"), eps)


def format_chain(c: ChainState) -> str:
    return f"chain {_format_list(c.framings)} sign={'+' if c.eps > 0 else '-'}"


def run_script(c: ChainState, lines) -> tuple[ChainState, SL2Element]:
    """Apply a move script: ``up <edge> <+1|-1>``, ``down <index>``,
    ``rotate <r>``.  Returns the final state and the accumulated conjugator
    (identity if the script never rotated)."""
    state = c
    witness = SL2Element.identity()
    moves = {"up": 3, "down": 2, "rotate": 2}
    for lineno, (move, *args) in _keyword_lines(lines, "script-syntax", moves):
        args = _ints(args, "script-syntax", f"line {lineno}: bad integer")
        if move == "up":
            state = blow_up(state, *args)
        elif move == "down":
            state = blow_down(state, *args)
        else:
            state, conj = rotate(state, *args)
            witness = witness @ conj
    return state, witness
