"""The one report writer: ``write_report`` gives the bytes of
``json.dumps(indent=2, sort_keys=True)`` plus a newline, and refuses NaN and
infinities, naming the key path of the first one."""

import json
import math
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tailscope.errors import UsageError, write_report  # noqa: E402

#: Keys with non-ASCII characters, escapes (quotes, backslashes, control
#: characters), ``%`` (the row template's one special character) and digits.
KEYS = st.text(max_size=5) | st.sampled_from(["a", "b", "%s", "%%", '"', "\\", "\n", "é", "\U0001f600", "10", "9"])
LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
)


@st.composite
def tables(draw, values):
    """A list of objects that share their keys: the writer's column path."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.fixed_dictionaries({key: values for key in keys}), min_size=1, max_size=4))


def nested(inner):
    return (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=4) | tables(inner)
        | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4)
    )


VALUES = st.recursive(LEAVES, nested, max_leaves=24)
REPORTS = st.dictionaries(KEYS, VALUES, max_size=5)


def written(tmp_path, report) -> bytes:
    path = tmp_path / "report.json"
    write_report(path, report)
    return path.read_bytes()


@settings(max_examples=200)
@given(report=REPORTS)
def test_bytes_equal_json_dumps(tmp_path_factory, report):
    want = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    assert written(tmp_path_factory.mktemp("w"), report) == want


def test_stdout(capsys):
    report = {"b": [1.5, 2.0], "a": [{"x": 1.0, "y": "é"}, {"x": 0.1, "y": ""}]}
    for path in (None, "-"):
        write_report(path, report)
        assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def containers(value, path=""):
    """Every dict and list in ``value`` with its key path, as the writer names it."""
    if isinstance(value, dict):
        yield value, path
        for key in value:
            yield from containers(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield value, path
        for i, item in enumerate(value):
            yield from containers(item, f"{path}[{i}]")


@settings(max_examples=100)
@given(
    report=st.dictionaries(KEYS, st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(KEYS, inner, max_size=4) | tables(inner), max_leaves=24), max_size=5),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    data=st.data(),
)
def test_one_non_finite_leaf_is_refused_naming_its_path(tmp_path_factory, report, bad, data):
    container, path = data.draw(st.sampled_from(list(containers(report))))
    if isinstance(container, dict):
        key = data.draw(KEYS)
        container[key] = bad
        where = f"{path}.{key}" if path else key
    else:
        i = data.draw(st.integers(0, len(container)))
        container.insert(i, bad)
        where = f"{path}[{i}]"
    out = tmp_path_factory.mktemp("w") / "report.json"
    with pytest.raises(UsageError) as exc:
        write_report(out, report)
    assert str(exc.value) == f"report value at {where!r} is not a finite number"
    assert not out.exists()


@pytest.mark.parametrize(
    "report, where",
    [
        ({"per_sample": [{"min_ade": {"5": 1.0}}] * 12 + [{"min_ade": {"5": math.nan}}]}, "per_sample[12].min_ade.5"),
        ({"a": [1.0, math.inf, math.nan]}, "a[1]"),
        ({"b": math.nan, "a": {"z": -math.inf}}, "a.z"),  # the first in written order
    ],
    ids=["table-column", "float-list", "sorted-keys"],
)
def test_non_finite_paths(tmp_path, report, where):
    with pytest.raises(UsageError, match=f"^report value at '{re.escape(where)}' is not a finite number$"):
        write_report(tmp_path / "r.json", report)


def test_unserializable_value_is_a_type_error(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_report(tmp_path / "r.json", {"a": [{1, 2}]})
