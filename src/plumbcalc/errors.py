"""Domain error types shared by every module, and the token readers that
every text format goes through: :func:`_ints` for integers, :func:`_parse_list`
for comma lists and :func:`_keyword_lines` for the line formats."""

__all__ = ["DomainError", "ContractError"]


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


def _ints(tokens, code: str, detail: str) -> list[int]:
    """The integers ``tokens`` spell; a bad one (or one past CPython's
    digit limit) fails with ``code`` and the message ``<detail>: <reason>``."""
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
