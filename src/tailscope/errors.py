"""Exception hierarchy shared by every tailscope module, and the input and
output boundary.

All errors raised on purpose derive from :class:`TailscopeError`; anything
else escaping the library is a bug. The CLI maps TailscopeError to exit
code 2 (bad input / bad usage) and everything else to exit code 1. Every
input file is read and every output file written here, so each failure names
its file, line or key; :class:`JsonRecord` reads and writes every parameter
record from one table of its JSON keys through ``json_fields``, which reads the
config file too; ``number``, ``numbers`` and ``_float_array`` decide what a
JSON number is, ``freeze`` gives every record read-only copies of its arrays,
``rebuilt`` sends its copies and pickles through its constructor, ``Grouped``
holds parsed scenes and forecasts alike, and ``write_report`` writes every report.
"""

import json
import math
import os
import sys
from collections.abc import Sequence
from itertools import repeat
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter
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


def read_source(source, what: str) -> tuple[str | bytes, str]:
    """The str or bytes content of a str, bytes, a path (``os.PathLike``) or a
    file, and the name its errors use: the path, or else ``what``. An
    unreadable path raises UsageError naming it."""
    if isinstance(source, os.PathLike):
        what = os.fspath(source)
        return _read(source, what, UsageError), what
    return (source if isinstance(source, (str, bytes)) else source.read()), what


def read_lines(source, what: str) -> list[str]:
    """The lines of a str, UTF-8 bytes, a path (``os.PathLike``) or a file.

    A line ends only at ``\\n``, ``\\r\\n`` or ``\\r`` and keeps its ending (csv
    rejoins quoted fields with it); form feeds, U+2028 and the other
    ``str.splitlines`` breaks stay inside their line. An unreadable path raises
    UsageError, bad UTF-8 a ParseError, naming the path or else ``what``.
    """
    text, what = read_source(source, what)
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


def decode_json(text: str, error, position: bool = True):
    """``json.loads(text)``; text it cannot decode raises ``error("invalid JSON (reason)")``:
    a syntax error (with its position unless ``position`` is False), a number
    with more digits than ``int`` reads, or nesting deeper than the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        reason = exc if position or not isinstance(exc, json.JSONDecodeError) else exc.msg
        raise error(f"invalid JSON ({reason})") from None


def read_json(path, what: str, convert):
    """``convert`` of the JSON document in the file at ``path``. A read, JSON or
    conversion failure raises ConfigurationError, bad UTF-8 a ParseError, each
    naming ``what`` and the file."""
    what = f"{what} {path}"
    text = decode_utf8(_read(path, what, ConfigurationError), what)
    data = decode_json(text, lambda message: ConfigurationError(f"{what}: {message}"))
    try:
        return convert(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def number(value) -> float:
    """A JSON number as a finite float; a boolean, string or other type raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def numbers(value, prefix: str = ""):
    """``value`` as a float array whose leaves are all JSON numbers, else a
    ValueError that starts with ``prefix``. numpy's type discovery folds
    booleans into numbers, so the leaves are checked one by one."""
    import numpy as np  # here, so importing the CLI loads no numpy

    values = np.asarray(value)
    other = set(map(type, np.asarray(value, dtype=object).ravel().tolist())) - {int, float}
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise ValueError(f"{prefix}expected arrays of numbers, found {names}")
    return values.astype(float, copy=False)


def _float_array(value):
    """``value`` as a float array of JSON numbers; a NaN or infinity raises ValueError."""
    import numpy as np

    return np.asarray_chkfinite(numbers(value))


def freeze(record, names) -> None:
    """Set each field ``names`` of the frozen dataclass ``record`` to a read-only float copy of its value."""
    import numpy as np

    for name in names:
        array = np.array(getattr(record, name), dtype=float)
        array.flags.writeable = False
        object.__setattr__(record, name, array)


def rebuilt(record) -> tuple:
    """``record``'s class and field values: as ``__reduce__``, it sends copies and pickles through the constructor."""
    return type(record), tuple(getattr(record, name) for name in record.__dataclass_fields__)


def json_fields(data, convert: dict, what: str, optional=()) -> dict:
    """Each key of a JSON object through its converter, in ``convert``'s order (an
    absent ``optional`` key left out); a missing, unknown or bad key raises
    ConfigurationError."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(convert))
    if unknown:
        raise ConfigurationError(f"{what} has unknown key {', '.join(map(repr, unknown))}")
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


def unchecked(cls, *values):
    """``cls(*values)`` for a dataclass, skipping ``__post_init__``: only for a row of a table checked as a whole."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


class Grouped(Sequence):
    """Items in input order, held as groups of one shape: ``ids`` holds the
    items' ids and each group's ``index`` its items' positions there. Item i,
    at row r of its group, is ``group.row(r, ids[i])``; a slice gives a list
    of items."""

    def __init__(self, ids: list[str], groups: list):
        self.ids, self.groups = ids, groups
        self._rows = [None] * len(ids)  # each item's group and row there
        for group in groups:
            for r, i in enumerate(group.index.tolist()):
                self._rows[i] = group, r

    @classmethod
    def of(cls, items, shape, stack, item_id):
        """``items`` unchanged if already of this class, else one group
        ``stack(members, index)`` per ``shape(item)``, in order of each one's first item."""
        if isinstance(items, cls):
            return items
        members = cls.positions(map(shape, items)).values()
        return cls(list(map(item_id, items)), [stack([items[i] for i in index], index) for index in members])

    @staticmethod
    def positions(shapes) -> dict:
        """The positions of each distinct shape in ``shapes``, in order of each one's first appearance."""
        members = {}
        for i, shape in enumerate(shapes):
            members.setdefault(shape, []).append(i)
        return members

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self.ids))[i]]
        group, r = self._rows[i]
        return group.row(r, self.ids[i])


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to the file at ``path``; a failure raises UsageError naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte or lone surrogate
        raise UsageError(f"cannot write {path}: {exc}") from None


class _NonFinite(Exception):
    """A report holds NaN or an infinity; ``write_report`` finds its path."""


def _items(values, pad: str):
    """The JSON of each item of the non-empty list ``values`` at indentation
    ``pad``. Floats, strings, and objects that share their keys go a column at a
    time through C loops: the objects' columns fill one row template. Any other
    list goes item by item."""
    first = values[0]
    try:
        if isinstance(first, float):
            text = list(map(float.__repr__, values))
            if not all(map(math.isfinite, values)):
                raise _NonFinite
            return text
        if isinstance(first, str):
            return list(map(_escape, values))
        if isinstance(first, dict) and first:
            keys = first.keys()
            if all(map(keys.__eq__, map(dict.keys, values))):
                inner, keys = pad + "  ", sorted(keys)
                columns = [_items(list(map(itemgetter(key), values)), inner) for key in keys]
                template = ",".join(inner + _escape(key).replace("%", "%%") + ": %s" for key in keys)
                return map(f"{{{template}{pad}}}".__mod__, zip(*columns))
    except TypeError:  # an item of another type than the first
        pass
    return [_encode(value, pad) for value in values]


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it at
    indentation ``pad`` (a newline and spaces), refusing NaN and infinities."""
    if isinstance(value, str):
        return _escape(value)
    if value is None or value is True or value is False:
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise _NonFinite
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        return "[" + inner + ("," + inner).join(_items(value, inner)) + pad + "]" if value else "[]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(value)
        items = _items([value[key] for key in keys], inner)
        return "{" + ",".join(map("{}{}: {}".format, repeat(inner), map(_escape, keys), items)) + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _non_finite_path(value, path: str = "") -> str | None:
    """The key path of the first non-finite number in ``value``, in written order."""
    if isinstance(value, float) and not math.isfinite(value):
        return path
    if isinstance(value, dict):
        children = ((f"{path}.{key}" if path else key, value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        children = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for child_path, item in children:
        found = _non_finite_path(item, child_path)
        if found is not None:
            return found
    return None


def report_text(report) -> str:
    """A report of dicts (string keys), lists, strings, numbers, booleans and
    None as ``json.dumps(report, indent=2, sort_keys=True)`` writes it, plus a
    newline. A NaN or an infinity raises UsageError naming its key path."""
    try:
        return _encode(report, "\n") + "\n"
    except _NonFinite:
        raise UsageError(f"report value at {_non_finite_path(report)!r} is not a finite number") from None


def write_report(path, report) -> None:
    """Write ``report_text(report)`` to the file at ``path`` or, when it is None
    or ``-``, to stdout."""
    text = report_text(report)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        write_text(path, text)


def _jsonable(value, convert):
    if convert is number:  # an integer-valued float field is written as 10.0, not 10
        return float(value)
    if isinstance(value, JsonRecord):
        return value.to_jsonable()
    if isinstance(value, tuple):
        return [_jsonable(item, None) for item in value]
    return value.tolist() if hasattr(value, "tolist") else value  # a numpy array


class JsonRecord:
    """Base of a dataclass read and written as one JSON object.

    ``JSON`` maps each key, in field order, to the converter that reads it;
    ``OPTIONAL`` keys may be absent (the field keeps its default); ``WHAT``
    names the record in errors. ``to_jsonable``, ``from_jsonable``, ``save``
    and ``load`` all derive from that one table; copies and pickles are ``rebuilt``.
    """

    JSON = {}
    OPTIONAL = ()
    WHAT = "record"
    __reduce__ = rebuilt

    def to_jsonable(self) -> dict:
        return {
            key: _jsonable(getattr(self, name), convert)
            for (key, convert), name in zip(self.JSON.items(), self.__dataclass_fields__)
        }

    @classmethod
    def from_jsonable(cls, data):
        fields = json_fields(data, cls.JSON, cls.WHAT, cls.OPTIONAL)
        return cls(**{name: fields[key] for key, name in zip(cls.JSON, cls.__dataclass_fields__) if key in fields})

    def save(self, path) -> None:
        write_text(path, json.dumps(self.to_jsonable()))

    @classmethod
    def load(cls, path):
        return read_json(path, cls.WHAT, cls.from_jsonable)
