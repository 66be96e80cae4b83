"""Domain error types, the value base and the square test that every layer
shares (``intmat`` exports :func:`is_perfect_square`), and the token readers
that every text format goes through: :func:`_ints` for integers,
:func:`_parse_list` for comma lists and :func:`_keyword_lines` for line formats."""

import re
from math import isqrt
from operator import attrgetter

__all__ = ["DomainError", "ContractError"]
_INT_LIST = r"[+-]?[0-9]+(?:,[+-]?[0-9]+)*"  # comma-joined integer tokens; re caches it


class DomainError(ValueError):
    """Raised when an operation is applied outside its mathematical domain.

    ``code`` is a short stable identifier (the CLI reports it verbatim as
    ``error=<code>``); the exception message carries the human-readable detail.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ContractError(DomainError):
    """A runtime contract failed (code ``contract-*``); explicit, so ``-O`` keeps it."""


class _Value:
    """A frozen dataclass without the ``dataclasses`` import: the fields are the
    class's annotations, and each ``__init__`` fills the instance ``__dict__``
    with them in one ``update``; ``==`` (one class only), hash and repr read
    them, and ``__setattr__`` and ``__delattr__`` raise."""

    def __init_subclass__(cls) -> None:
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)  # the field tuple in one C call; of one name, no tuple
        cls._key = staticmethod(get if len(fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def is_perfect_square(n: int) -> bool:
    """True iff ``n = s*s`` for some integer ``s`` (exact, no floats)."""
    if n < 0:
        return False
    s = isqrt(n)
    return s * s == n


def _ints(tokens: list[str], code: str, detail: str) -> list[int]:
    """The integers ``tokens`` spell, each ASCII ``[+-]?[0-9]+`` (one match over
    them all; ``int()`` also reads ``1_0``, non-ASCII digits and padding); a bad
    one, or one past CPython's digit limit, fails with ``code`` and ``<detail>: <reason>``."""
    if tokens and not re.fullmatch(_INT_LIST, ",".join(tokens)):
        bad = next(t for t in tokens if not re.fullmatch(_INT_LIST, t))
        raise DomainError(code, f"{detail}: not an integer: {bad!r}")
    try:
        return list(map(int, tokens))
    except ValueError as exc:
        raise DomainError(code, f"{detail}: {exc}") from exc


def _parse_list(text: str, code: str) -> tuple[int, ...]:
    """Parse the comma list ``3,2,2``; a bad entry fails with ``code``."""
    return tuple(_ints(text.split(","), code, "bad entry"))


def _format_list(xs) -> str:
    return ",".join(map(str, xs))


_SIGNS = {"+": 1, "-": -1}


def _keyword_lines(lines, code: str, grammar: dict[str, int], signed=()):
    """Read a line format: yield ``(line number, tokens)`` for each line that
    is not blank once its ``#`` comment is stripped.  ``grammar`` maps each
    keyword to its token count, keyword included, and the last token of a
    keyword in ``signed`` is a sign, a key of ``_SIGNS``.  Any other line
    fails with ``code``."""
    for lineno, raw in enumerate(lines, start=1):
        # the test spares the common comment-free line a second split
        parts = raw.split("#", 1)[0].split() if "#" in raw else raw.split()
        if not parts:
            continue
        if grammar.get(parts[0]) != len(parts) or parts[0] in signed and parts[-1] not in _SIGNS:
            raise DomainError(code, f"line {lineno}: cannot parse {raw!r}")
        yield lineno, parts
