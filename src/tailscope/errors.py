"""Exception hierarchy shared by every tailscope module.

All errors raised on purpose derive from :class:`TailscopeError`; anything
else escaping the library is a bug. The CLI maps TailscopeError to exit
code 2 (bad input / bad usage) and everything else to exit code 1.
"""


class TailscopeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TailscopeError):
    """A byte stream (scene CSV, forecast JSONL) could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def decode_utf8(data: bytes, source: str) -> str:
    """``data`` decoded as UTF-8; invalid bytes raise a ParseError naming ``source``
    and the line of the first one, not a bare UnicodeDecodeError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{source}: not UTF-8 text (byte {exc.start})", line=line) from None


class ValidationError(TailscopeError):
    """Parsed data violates a domain invariant."""


class UsageError(TailscopeError):
    """An operation was called with arguments it cannot serve."""


class ConfigurationError(TailscopeError):
    """Model parameters are inconsistent (shapes, signs, missing keys)."""


class DegenerateInputWarning(UserWarning):
    """Input was usable only after a degeneracy guard kicked in."""
