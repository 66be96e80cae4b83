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

from dataclasses import dataclass

from .errors import ContractError, DomainError
from .sl2 import SL2Element
from .strings import family_string, recognize_family, split_relabel

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


@dataclass(frozen=True)
class ChainState:
    """Cyclic framed chain (f_1, ..., f_n) with overall sign eps."""

    framings: tuple[int, ...]
    eps: int = 1

    def __post_init__(self) -> None:
        if len(self.framings) < 1:
            raise DomainError("empty-chain", "a chain needs at least one component")
        if self.eps not in (1, -1):
            raise DomainError("bad-sign", "eps must be +1 or -1")
        object.__setattr__(self, "framings", tuple(int(f) for f in self.framings))


def _factor(f: int) -> SL2Element:
    # T^{f} S = [[-f, 1], [-1, 0]]
    return SL2Element(-f, 1, -1, 0)


def chain_monodromy(c: ChainState) -> SL2Element:
    """``eps * T^{f_1} S ... T^{f_n} S``, exact."""
    m = SL2Element.identity()
    for f in c.framings:
        m = m @ _factor(f)
    return -m if c.eps < 0 else m


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
    fr[i - 1] -= f
    fr[i + 1] -= f
    del fr[i]
    eps = -c.eps if f == 1 else c.eps
    return ChainState(tuple(fr), eps)


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
    fr[edge] += e
    fr[edge + 1] += e
    fr.insert(edge + 1, e)
    eps = -c.eps if e == 1 else c.eps
    return ChainState(tuple(fr), eps)


def rotate(c: ChainState, r: int) -> tuple[ChainState, SL2Element]:
    """Move the cut: the new list starts at position ``r``.

    Returns the rotated state and the conjugator ``C`` (the product of the
    rotated-away prefix factors) with
    ``chain_monodromy(new) == C^-1 @ chain_monodromy(old) @ C`` exactly.
    """
    n = len(c.framings)
    r %= n
    if r == 0:
        return c, SL2Element.identity()
    conj = SL2Element.identity()
    for f in c.framings[:r]:
        conj = conj @ _factor(f)
    return ChainState(c.framings[r:] + c.framings[:r], c.eps), conj


def chains_rotation_equal(a: ChainState, b: ChainState) -> bool:
    """Rotation-insensitive comparison (same eps, framings up to rotation)."""
    if a.eps != b.eps or len(a.framings) != len(b.framings):
        return False
    fa, fb = a.framings, b.framings
    return any(fa[r:] + fa[:r] == fb for r in range(len(fa)))


@dataclass(frozen=True)
class DualizeResult:
    """Outcome of the dualization procedure with its exact certificate."""

    start: ChainState
    terminal: ChainState
    conjugator: SL2Element
    blow_ups: int
    blow_downs: int

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
    params = recognize_family(a)
    if params is None:
        raise DomainError("not-in-family", f"{a} is not a family string")
    d, e = split_relabel(a)  # raises special-case for (3)

    canonical = family_string(params)
    offset = next(
        r for r in range(len(a)) if a[r:] + a[:r] == canonical
    )

    start = ChainState(tuple(-x for x in a), 1)
    state = start
    witness = SL2Element.identity()
    ups = downs = 0

    def rotate_tracked(st: ChainState, r: int) -> ChainState:
        nonlocal witness
        st, conj = rotate(st, r)
        witness = witness @ conj
        return st

    # align to canonical block order, then park the e-block tail at index 0
    state = rotate_tracked(state, offset)
    state = rotate_tracked(state, len(state.framings) - 1)

    remaining = len(e)
    while remaining:
        # +1 blowup between the e-tail (index 0) and the head it feeds
        state = blow_up(state, 0, 1)
        ups += 1
        while remaining and state.framings[0] == -1:
            state = rotate_tracked(state, len(state.framings) - 1)
            state = blow_down(state, 1)
            downs += 1
            remaining -= 1

    result = DualizeResult(start, state, witness, ups, downs)
    target = tuple(-x for x in d) + d
    fr = result.terminal.framings
    if not any(fr[r:] + fr[:r] == target for r in range(len(fr))):
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
    try:
        framings = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise DomainError("chain-syntax", f"bad framing: {exc}") from exc
    return ChainState(framings, eps)


def format_chain(c: ChainState) -> str:
    body = ",".join(str(f) for f in c.framings)
    return f"chain {body} sign={'+' if c.eps > 0 else '-'}"


def run_script(c: ChainState, lines) -> tuple[ChainState, SL2Element]:
    """Apply a move script: ``up <edge> <+1|-1>``, ``down <index>``,
    ``rotate <r>``.  Returns the final state and the accumulated conjugator
    (identity if the script never rotated)."""
    state = c
    witness = SL2Element.identity()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()

        def _int(token: str) -> int:
            try:
                return int(token)
            except ValueError as exc:
                raise DomainError(
                    "script-syntax", f"line {lineno}: bad integer {token!r}"
                ) from exc

        if parts[0] == "up" and len(parts) == 3:
            state = blow_up(state, _int(parts[1]), _int(parts[2]))
        elif parts[0] == "down" and len(parts) == 2:
            state = blow_down(state, _int(parts[1]))
        elif parts[0] == "rotate" and len(parts) == 2:
            state, conj = rotate(state, _int(parts[1]))
            witness = witness @ conj
        else:
            raise DomainError("script-syntax", f"line {lineno}: cannot parse {raw!r}")
    return state, witness
