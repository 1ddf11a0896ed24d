import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moocteams
from moocteams.errors import DataFormatError, ParameterError, ParsedEnum
from moocteams.ingest import (
    ForumMessage,
    ReplyPolicy,
    SynthParams,
    build_reply_graph,
    parse_forum_export,
    synth_corpus,
    write_jsonl,
)


def _line(**kw):
    rec = {"id": "m1", "thread_id": "t1", "timestamp": 100, "body": "hi"}
    rec.update(kw)
    return json.dumps(rec)


def test_parse_basic():
    stream = io.StringIO("\n".join([
        _line(id="m1", author="alice"),
        _line(id="m2", author=None, parent_id="m1"),
        "",
        _line(id="m3", author="bob", parent_id="m1"),
    ]) + "\n")
    result = parse_forum_export(stream)
    assert result.parsed == 3
    assert result.skipped == 0
    assert result.anonymous == 1
    assert result.messages[0] == ForumMessage(
        id="m1", thread_id="t1", timestamp=100, body="hi", author="alice")


def test_parse_skips_malformed_and_duplicates():
    stream = io.StringIO("\n".join([
        _line(id="m1", author="a"),
        "not json at all",
        _line(id="m1", author="b"),              # duplicate id
        _line(id="m2", author="c", timestamp=-5),  # bad timestamp
        _line(id="m3", author="d"),
        _line(id="m4", author="e"),
        _line(id="m5", author="f"),
    ]))
    result = parse_forum_export(stream)
    assert result.parsed == 4
    assert result.skipped == 3
    assert [m.id for m in result.messages] == ["m1", "m3", "m4", "m5"]


@pytest.mark.parametrize("field", ["parent_id", "author", "body"])
@pytest.mark.parametrize("value", [7, ["m0"], {"id": "m0"}])
def test_parse_skips_a_line_whose_text_field_is_not_a_string(field, value):
    result = parse_forum_export([_line(id="m0"), _line(**{field: value})])
    assert (result.parsed, result.skipped) == (1, 1)
    assert [m.id for m in result.messages] == ["m0"]


# three good lines, so that one malformed line more is not a wrong file
_GOOD = [_line(id=f"g{k}", author="a") for k in range(3)]


def _parsed_as_json_loads_would(line: str):
    """The parse of ``line`` after the good lines, deciding whether ``line``
    is JSON the way ``json.loads`` does on the stripped line, and then
    handing the record on re-encoded (malformed lines as ``{``)."""
    try:
        canonical = json.dumps(json.loads(line.strip()))
    except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
        canonical = "{"
    return parse_forum_export([*_GOOD, canonical])


_M = _line(id="m1", author="alice")
EDGE_LINES = {
    "trailing garbage": _M + " x",
    "trailing brace": _M + "}",
    "two objects": _M + _M,
    "BOM": "\ufeff" + _M,
    "bare string": '"m1"',
    "bare number": "42",
    "bare null": "null",
    "bare array": "[" + _M + "]",
    "NaN literal": _M[:-1] + ', "score": NaN}',
    "Infinity literal": _M[:-1] + ', "score": -Infinity}',
    "NaN timestamp": _line(id="m1", author="alice").replace("100", "NaN"),
    "duplicate keys": '{"id": "m0", "thread_id": "t1", "timestamp": 1, "id": "m1"}',
    "nbsp padding": "\u00a0" + _M + "\u00a0\t",
    "nbsp inside": _M.replace(", ", ",\u00a0", 1),
    "bad escape": _M.replace('"hi"', '"h\\qi"'),
    "lone surrogate escape": _M.replace('"hi"', '"\\ud800"'),
    "raw control character": _M.replace('"hi"', '"h\x01i"'),
    "huge integer": _M.replace("100", "1" * 5000),
    "deep nesting": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", EDGE_LINES)
def test_parse_decodes_edge_lines_as_json_loads_does(name):
    got = parse_forum_export([*_GOOD, EDGE_LINES[name]])
    want = _parsed_as_json_loads_would(EDGE_LINES[name])
    assert (got.messages, got.skipped) == (want.messages, want.skipped)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=' \t\u00a0\ufeff{}[]":,.-+0123456789eEnulltrfasNIiy\\x', max_size=30))
def test_parse_decodes_any_line_as_json_loads_does(line):
    got = parse_forum_export([*_GOOD, line])
    want = _parsed_as_json_loads_would(line)
    if not line.strip():  # a blank line is not counted at all
        assert (got.messages, got.skipped) == (want.messages[:3], 0)
    else:
        assert (got.messages, got.skipped) == (want.messages, want.skipped)


def test_parse_mostly_garbage_raises():
    stream = io.StringIO("junk\nmore junk\n" + _line() + "\n")
    with pytest.raises(DataFormatError):
        parse_forum_export(stream)


def test_parse_accepts_bytes_lines():
    stream = io.BytesIO((_line(author="a") + "\n").encode())
    assert parse_forum_export(stream).parsed == 1


def test_jsonl_round_trip():
    msgs = [
        ForumMessage(id="m1", thread_id="t1", timestamp=5, body="x", author="a"),
        ForumMessage(id="m2", thread_id="t1", timestamp=6, parent_id="m1"),
    ]
    buf = io.StringIO()
    write_jsonl(msgs, buf)
    buf.seek(0)
    assert parse_forum_export(buf).messages == msgs


def _thread(*, policy=ReplyPolicy.STARTER_FALLBACK):
    msgs = [
        ForumMessage(id="p1", thread_id="t1", timestamp=1, author="ann"),
        ForumMessage(id="p2", thread_id="t1", timestamp=2, author="bob"),
        ForumMessage(id="c1", thread_id="t1", timestamp=3, parent_id="p2", author="cid"),
        ForumMessage(id="c2", thread_id="t1", timestamp=4, parent_id="p2", author="cid"),
        ForumMessage(id="c3", thread_id="t1", timestamp=5, parent_id="c1", author="bob"),
    ]
    return build_reply_graph(msgs, policy=policy)


def test_reply_graph_starter_fallback():
    g, report = _thread()
    # p2 has no parent, so it replies to the thread starter's author
    assert g.weight("bob", "ann") == 1
    assert g.weight("cid", "bob") == 2
    assert g.weight("bob", "cid") == 1
    assert report.interactions == 4


def test_reply_graph_comments_only():
    g, report = _thread(policy=ReplyPolicy.COMMENTS_ONLY)
    assert g.weight("bob", "ann") == 0
    assert g.weight("cid", "bob") == 2
    assert report.interactions == 3


def test_every_parsed_enum_member_is_valued_by_its_name():
    # one spelling per member: ``parse`` reads names, so a value other than
    # the name would be a second spelling that nothing accepts
    enums = ParsedEnum.__subclasses__()
    assert {e.__module__ for e in enums} <= {m.__name__ for m in (
        moocteams.diffusion, moocteams.ingest)}
    assert {e.__name__ for e in enums} == {"Mechanism", "Trajectory", "ReplyPolicy"}
    for enum in enums:
        for member in enum:
            assert member.value == member.name
            assert enum.parse(member.value) is enum.parse(member.name.lower()) is member
    with pytest.raises(ParameterError):
        ReplyPolicy.parse("starter-fallback")


def test_reply_graph_drops_anonymous_and_self_replies():
    msgs = [
        ForumMessage(id="p1", thread_id="t1", timestamp=1, author="ann"),
        ForumMessage(id="c1", thread_id="t1", timestamp=2, parent_id="p1", author=None),
        ForumMessage(id="c2", thread_id="t1", timestamp=3, parent_id="p1", author="ann"),
        ForumMessage(id="c3", thread_id="t1", timestamp=4, parent_id="ghost", author="bob"),
    ]
    g, report = build_reply_graph(msgs)
    assert g.edge_count == 0
    assert report.dropped_anonymous == 1
    assert report.dropped_self_reply == 1
    assert report.dropped_missing_parent == 1
    # named authors stay in the graph even with no surviving interactions
    assert g.nodes == ("ann", "bob")


def test_reply_graph_is_order_independent():
    msgs = synth_corpus(SynthParams(students=12, threads=4, posts=20, comments=40, seed=9))
    g1, _ = build_reply_graph(msgs)
    shuffled = list(msgs)
    random.Random(0).shuffle(shuffled)
    g2, _ = build_reply_graph(shuffled)
    assert g1 == g2


def test_synth_corpus_deterministic_and_sized():
    params = SynthParams(students=30, threads=10, posts=50, comments=120, seed=4)
    msgs = synth_corpus(params)
    assert msgs == synth_corpus(params)
    assert sum(1 for m in msgs if m.parent_id is None) == 50
    assert sum(1 for m in msgs if m.parent_id is not None) == 120
    assert len({m.id for m in msgs}) == 170
    # parents always precede children
    seen = set()
    for m in msgs:
        assert m.parent_id is None or m.parent_id in seen
        seen.add(m.id)


def test_synth_corpus_covers_every_student():
    params = SynthParams(students=25, threads=8, posts=40, comments=60, seed=1,
                         anonymous_fraction=0.1)
    msgs = synth_corpus(params)
    named = {m.author for m in msgs if m.author is not None}
    assert named == {f"s{i:05d}" for i in range(25)}


def test_synth_corpus_validates():
    with pytest.raises(ParameterError):
        synth_corpus(SynthParams(students=5, threads=1, posts=0, comments=3, seed=0))
    with pytest.raises(ParameterError):
        synth_corpus(SynthParams(students=5, threads=1, posts=2, comments=3, seed=0,
                                 anonymous_fraction=1.5))


def test_parse_holds_one_object_per_distinct_name():
    buf = io.StringIO()
    write_jsonl(synth_corpus(SynthParams(students=12, threads=4, posts=30,
                                         comments=80, seed=5)), buf)
    # a comment that comes before the post it replies to
    buf.write(_line(id="early-reply", thread_id="thread-9", parent_id="late-post",
                    author="s00002") + "\n")
    buf.write(_line(id="late-post", thread_id="thread-9", author="s00001") + "\n")
    buf.seek(0)
    messages = parse_forum_export(buf).messages
    by_id = {m.id: m for m in messages}
    for field in ("author", "thread_id"):
        objects = {}
        for m in messages:
            value = getattr(m, field)
            if value is not None:
                assert objects.setdefault(value, value) is value, (field, value)
    replies = [m for m in messages if m.parent_id is not None]
    assert len(replies) > 50 and by_id["early-reply"] in replies
    for m in replies:
        assert m.parent_id is by_id[m.parent_id].id, m.id
