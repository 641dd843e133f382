"""The input boundary: one line reader, one JSON file reader and one JSON field
converter serve every scene CSV, forecast JSONL, config and parameter file."""

import io

import pytest

from tailscope.errors import (
    ConfigurationError,
    ParseError,
    TailscopeError,
    UsageError,
    json_fields,
    read_json,
    read_lines,
)
from tailscope.evaluation import parse_forecast_jsonl
from tailscope.scene import parse_scene_csv

HEADER = "scene_id,agent_id,frame,t,x,y,vx,vy,heading,kind,target"
#: Every break of ``str.splitlines`` other than \n, \r\n and \r.
OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ENDINGS = pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])


def sources(text: str, tmp_path) -> dict:
    """The same content as a str, bytes, a path, a text file and a binary file."""
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    return {
        "str": lambda: text,
        "bytes": lambda: text.encode("utf-8"),
        "path": lambda: path,
        "text file": lambda: io.StringIO(text),
        "binary file": lambda: io.BytesIO(text.encode("utf-8")),
    }


def outcome(parse, source):
    """What ``parse`` makes of ``source``: a comparable summary, or the error it raised."""
    try:
        result = parse(source)
    except TailscopeError as exc:
        return type(exc), str(exc)
    if parse is parse_scene_csv:
        return [
            (s.scene_id, s.target_id, [(a, t.kind, t._stacked().tolist()) for a, t in sorted(s.agents.items())])
            for s in result
        ]
    return [(s.sample_id, s.modes.tolist(), s.probs.tolist(), s.gt.tolist()) for s in result]


def same_from_every_source(parse, text, tmp_path):
    """``parse``'s outcome, after checking that every kind of source gives it."""
    outcomes = {kind: outcome(parse, make()) for kind, make in sources(text, tmp_path).items()}
    assert len({repr(o) for o in outcomes.values()}) == 1, outcomes
    return outcomes["str"]


def scene_csv(end: str, agent_field: str = "a", t: str = "0.0") -> str:
    rows = [HEADER]
    for agent, target in ((agent_field, "1"), ("b", "0")):
        rows += [f"q,{agent},{f},{t if f == 0 else f / 10},{f},0.0,10.0,0.0,0.0,vehicle,{target}" for f in range(3)]
    return end.join(rows) + end


def forecast_jsonl(end: str, sample_id: str) -> str:
    """Two forecast lines, the first with ``sample_id`` written raw, unescaped."""
    fields = '"modes": [[[0.0, 0.0], [1.0, 0.0]]], "probs": [1.0], "gt": [[0.0, 0.0], [1.0, 0.0]]'
    return "".join(f'{{"sample_id": "{i}", {fields}}}{end}' for i in (sample_id, "other"))


class TestReadLines:
    def test_lines_end_only_at_lf_crlf_and_cr_and_keep_their_ending(self):
        text = f"a{OTHER_BREAKS}b\nc\r\nd\re"
        want = [f"a{OTHER_BREAKS}b\n", "c\r\n", "d\r", "e"]
        assert list(read_lines(text, "x")) == want
        assert list(read_lines(text.encode("utf-8"), "x")) == want

    @pytest.mark.parametrize("make", [lambda p: p / "missing.csv", lambda p: p], ids=["missing", "directory"])
    def test_unreadable_path_names_it(self, tmp_path, make):
        path = make(tmp_path)
        with pytest.raises(UsageError, match="cannot read") as exc:
            list(read_lines(path, "scene CSV"))
        assert str(path) in str(exc.value)

    def test_utf8_error_counts_lines_like_the_reader(self):
        data = b"{}\r{}\r\n\xff\n"
        with pytest.raises(ParseError, match="^line 3: forecast JSONL: not UTF-8"):
            parse_forecast_jsonl(data)


class TestSceneSources:
    @ENDINGS
    @pytest.mark.parametrize(
        "field, agent_id",
        [("a", "a"), ("a\x0cb", "a\x0cb"), (f"a{OTHER_BREAKS}b", f"a{OTHER_BREAKS}b"), ('"a\nb,c"', "a\nb,c")],
        ids=["plain", "form-feed", "other-breaks", "quoted-newline"],
    )
    def test_same_scenes_from_every_source(self, tmp_path, end, field, agent_id):
        (scene,) = same_from_every_source(parse_scene_csv, scene_csv(end, field), tmp_path)
        assert scene[1] == agent_id

    @ENDINGS
    def test_same_error_from_every_source(self, tmp_path, end):
        err = same_from_every_source(parse_scene_csv, scene_csv(end, t="x"), tmp_path)
        assert err == (ParseError, "line 2: column 't': not a number: 'x'")

    def test_errors_count_lines_not_records(self):
        # three records span two lines each, so the bad record is on line 11
        text = scene_csv("\n", '"a\nb"') + "q,c,0,x,0,0,1,0,0,vehicle,0\n"
        with pytest.raises(ParseError, match="^line 11: column 't'"):
            parse_scene_csv(text)
        with pytest.raises(ParseError, match="^line 11: scene CSV: not UTF-8"):
            parse_scene_csv(text.encode("utf-8").replace(b"q,c", b"q,\xff"))

    def test_oversized_field_is_a_parse_error(self):
        text = scene_csv("\n").replace("vehicle", "v" * 200_000, 1)
        with pytest.raises(ParseError, match="^line 2: bad CSV"):
            parse_scene_csv(text)


class TestForecastSources:
    @ENDINGS
    @pytest.mark.parametrize("sample_id", ["a\u2028b", "a\x85b\u2029c"], ids=["u2028", "u0085-u2029"])
    def test_same_samples_from_every_source(self, tmp_path, end, sample_id):
        samples = same_from_every_source(parse_forecast_jsonl, forecast_jsonl(end, sample_id), tmp_path)
        assert [s[0] for s in samples] == [sample_id, "other"]

    @ENDINGS
    def test_same_error_from_every_source(self, tmp_path, end):
        # JSON strings take no raw control character, so the form feed stays an error,
        # now on the line that holds it
        err = same_from_every_source(parse_forecast_jsonl, forecast_jsonl(end, "a\x0cb"), tmp_path)
        assert err[0] is ParseError and err[1].startswith("line 1: invalid JSON (Invalid control character")


class TestReadJson:
    @pytest.mark.parametrize(
        "content, error, fragment",
        [
            (None, ConfigurationError, "cannot read"),
            (b"\xff", ParseError, "not UTF-8"),
            (b"{nope", ConfigurationError, "invalid JSON"),
            (b"[]", ConfigurationError, "thing must be a JSON object"),
        ],
        ids=["missing", "not-utf8", "not-json", "not-object"],
    )
    def test_failures_name_the_file(self, tmp_path, content, error, fragment):
        path = tmp_path / "thing.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(error, match=fragment) as exc:
            read_json(path, "thing", lambda data: json_fields(data, {}, "thing"))
        assert str(path) in str(exc.value)

    def test_directory_cannot_be_read(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_json(tmp_path, "thing", dict)


class TestJsonFields:
    def test_converts_in_order_and_leaves_out_absent_optional_keys(self):
        fields = json_fields({"b": "2", "a": 1}, {"a": float, "b": int, "c": str}, "thing", optional=("c",))
        assert list(fields.items()) == [("a", 1.0), ("b", 2)]

    @pytest.mark.parametrize(
        "data, fragment",
        [({}, "thing missing key 'a'"), ({"a": "x"}, "thing key 'a' is malformed"), ({"a": 10**400}, "key 'a'")],
        ids=["missing", "malformed", "overflow"],
    )
    def test_bad_key_names_it(self, data, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            json_fields(data, {"a": float}, "thing")

    def test_bad_nested_key_names_the_path_to_it(self):
        inner = {"a": lambda data: json_fields(data, {"b": float}, "inner")}
        with pytest.raises(ConfigurationError, match="^outer key 'a': inner missing key 'b'$"):
            json_fields({"a": {}}, inner, "outer")
