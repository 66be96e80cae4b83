"""Domain error type shared by every module."""

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
