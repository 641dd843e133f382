"""Exception hierarchy shared by every tailscope module, and the input and
output boundary.

All errors raised on purpose derive from :class:`TailscopeError`; anything
else escaping the library is a bug. The CLI maps TailscopeError to exit
code 2 (bad input / bad usage) and everything else to exit code 1. Every
input file is read and every output file written here, so each failure names
its file, line or key; :class:`JsonRecord` reads and writes every parameter
record from one table of its JSON keys.
"""

import json
import os
from itertools import repeat
from pathlib import Path

#: Input coordinates (m) and velocities (m/s) must stay within this magnitude,
#: so no square of a value or of a difference of two values overflows a float.
MAX_MAGNITUDE = 1e150


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
    and the line of the first one (lines end at ``\\n``, ``\\r\\n`` or ``\\r``)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        i = exc.start
        line = data.count(b"\n", 0, i) + data.count(b"\r", 0, i) - data.count(b"\r\n", 0, i) + 1
        raise ParseError(f"{source}: not UTF-8 text (byte {i})", line=line) from None


class ValidationError(TailscopeError):
    """Parsed data violates a domain invariant."""


class UsageError(TailscopeError):
    """An operation was called with arguments it cannot serve."""


class ConfigurationError(TailscopeError):
    """Model parameters or a config file are unreadable or inconsistent (shapes, signs, keys)."""


class DegenerateInputWarning(UserWarning):
    """Input was usable only after a degeneracy guard kicked in."""


def _read(path, what: str, error: type) -> bytes:
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte or lone surrogate in the path
        raise error(f"{what}: cannot read ({getattr(exc, 'strerror', None) or exc})") from None


def read_lines(source, what: str) -> list[str]:
    """The lines of a str, UTF-8 bytes, a path (``os.PathLike``) or a file.

    A line ends only at ``\\n``, ``\\r\\n`` or ``\\r`` and keeps its ending (csv
    rejoins quoted fields with it); form feeds, U+2028 and the other
    ``str.splitlines`` breaks stay inside their line. An unreadable path raises
    UsageError, bad UTF-8 a ParseError, naming the path or else ``what``.
    """
    if isinstance(source, os.PathLike):
        what = os.fspath(source)
        text = _read(source, what, UsageError)
    else:
        text = source if isinstance(source, (str, bytes)) else source.read()
    if isinstance(text, bytes):
        text = decode_utf8(text, what)
    pieces = text.splitlines(keepends=True)
    if all(map(str.endswith, pieces[:-1], repeat(("\n", "\r")))):
        return pieces  # no other break split a line
    lines = pieces[:1]
    for piece in pieces[1:]:
        if lines[-1].endswith(("\n", "\r")):
            lines.append(piece)
        else:
            lines[-1] += piece
    return lines


def read_json(path, what: str, convert):
    """``convert`` of the JSON document in the file at ``path``. A read, JSON or
    conversion failure raises ConfigurationError, bad UTF-8 a ParseError, each
    naming ``what`` and the file."""
    what = f"{what} {path}"
    try:
        data = json.loads(decode_utf8(_read(path, what, ConfigurationError), what))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what}: invalid JSON ({exc})") from None
    try:
        return convert(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def json_fields(data, convert: dict, what: str, optional=()) -> dict:
    """Each key of a JSON object through its converter, in ``convert``'s order (an
    absent ``optional`` key left out); a missing or bad key raises ConfigurationError."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {type(data).__name__}")
    fields = {}
    for key, fn in convert.items():
        try:
            if key in data or key not in optional:
                fields[key] = fn(data[key])
        except KeyError:
            raise ConfigurationError(f"{what} missing key '{key}'") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{what} key '{key}' is malformed: {exc}") from None
        except ConfigurationError as exc:  # from a nested object's converter
            raise ConfigurationError(f"{what} key '{key}': {exc}") from None
    return fields


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to the file at ``path``; a failure raises UsageError naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte or lone surrogate
        raise UsageError(f"cannot write {path}: {exc}") from None


def _jsonable(value, convert):
    if convert is float:  # an integer-valued float field is written as 10.0, not 10
        return float(value)
    if isinstance(value, JsonRecord):
        return value.to_jsonable()
    if isinstance(value, tuple):
        return [_jsonable(item, None) for item in value]
    return value.tolist() if hasattr(value, "tolist") else value  # a numpy array


class JsonRecord:
    """Base of a dataclass read and written as one JSON object.

    ``JSON`` maps each key, in field order, to the converter that reads it;
    ``OPTIONAL`` keys, listed last, may be absent; ``WHAT`` names the record in
    errors. ``to_jsonable``, ``from_jsonable``, ``save`` and ``load`` all
    derive from that one table.
    """

    JSON = {}
    OPTIONAL = ()
    WHAT = "record"

    def to_jsonable(self) -> dict:
        return {
            key: _jsonable(getattr(self, name), convert)
            for (key, convert), name in zip(self.JSON.items(), self.__dataclass_fields__)
        }

    @classmethod
    def from_jsonable(cls, data):
        return cls(*json_fields(data, cls.JSON, cls.WHAT, cls.OPTIONAL).values())

    def save(self, path) -> None:
        write_text(path, json.dumps(self.to_jsonable()))

    @classmethod
    def load(cls, path):
        return read_json(path, cls.WHAT, cls.from_jsonable)
