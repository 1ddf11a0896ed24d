"""The shared reader rules of every CSV and JSON artifact, and roster shape."""

import csv
import io
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moocteams.cli import main
from moocteams.diffusion import TRACE_HEADER, read_trace_csv
from moocteams.errors import DataFormatError
from moocteams.formats import json_field, refused_as, write_json
from moocteams.graph import CSV_HEADER, read_graph_csv
from moocteams.metrics import METRICS_HEADER, read_metrics_csv
from moocteams.skills import read_partition_json, read_skills_json
from moocteams.teams import read_roster_json, write_roster_json

# each CSV reader with its header and one valid row
CSV_READERS = {
    "graph": (read_graph_csv, CSV_HEADER, ["s1", "s2", "3"]),
    "metrics": (read_metrics_csv, METRICS_HEADER,
                ["s1", *["0.5"] * 8, *["0"] * (len(METRICS_HEADER) - 9)]),
    "trace": (read_trace_csv, TRACE_HEADER, ["s1", "2", "4"]),
}


def _csv(*lines):
    return io.StringIO("".join(",".join(line) + "\n" for line in lines))


@pytest.mark.parametrize("cause", [
    KeyError("seed"), TypeError("not a list"), ValueError("not a number"),
    OverflowError("too large"), RecursionError("too deep"), csv.Error("too long"),
    DataFormatError("out of range")])
def test_refused_as_names_what_it_was_reading_and_the_cause(cause):
    with pytest.raises(DataFormatError) as err:
        with refused_as("bad record on line 3"):
            raise cause
    assert str(err.value) == f"bad record on line 3: {cause}"
    assert err.value.__cause__ is cause


@pytest.mark.parametrize("kind, value, read", [
    (bool, True, True), (bool, False, False), (int, 7, 7), (int, -(10 ** 400), -(10 ** 400)),
    (float, 0.25, 0.25), (float, 3, 3.0), (dict, {"a": 1}, {"a": 1}), (str, "x", "x")])
def test_json_field_reads_a_field_of_its_writers_type(kind, value, read):
    got = json_field({"outer": {"inner": value}}, "outer.inner", kind)
    assert got == read and type(got) is kind


@pytest.mark.parametrize("kind, value", [
    (bool, "false"), (bool, 0), (bool, None), (int, 2.7), (int, 2.0), (int, True),
    (int, "1"), (float, True), (float, "0.5"), (float, None), (float, math.inf),
    (float, math.nan), (float, 10 ** 400), (float, [1]), (dict, [1]), (str, 1)])
def test_json_field_refuses_any_other_type_and_names_the_field(kind, value):
    with pytest.raises(DataFormatError, match=r"^outer\.inner: "):
        json_field({"outer": {"inner": value}}, "outer.inner", kind)


@pytest.mark.parametrize("payload", [{}, {"outer": 1}, {"outer": []}, {"outer": "inner"}])
def test_json_field_refuses_a_path_that_is_not_there(payload):
    with pytest.raises(DataFormatError, match=r"^outer\.inner: "):
        json_field(payload, "outer.inner", int)


@pytest.mark.parametrize("kind", CSV_READERS)
@pytest.mark.parametrize("case", ["wrong header", "wrong width", "blank line"])
def test_csv_readers_share_header_width_and_blank_rules(kind, case):
    reader, header, row = CSV_READERS[kind]
    expected = reader(_csv(header, row))
    if case == "blank line":
        assert reader(_csv(header, [], row, [])) == expected
        return
    lines = ([[*header[:-1], "other"], row] if case == "wrong header"
             else [header, row, [*row, "extra"]])
    with pytest.raises(DataFormatError):
        reader(_csv(*lines))


@pytest.mark.parametrize("reader", [read_skills_json, read_partition_json,
                                    read_roster_json])
def test_json_readers_reject_invalid_json(reader):
    with pytest.raises(DataFormatError):
        reader(io.StringIO('{"student": '))


@pytest.mark.parametrize("reader", [read_skills_json, read_partition_json,
                                    read_roster_json])
@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"seed": ' + "9" * 5000 + "}"],
                         ids=["deep nesting", "huge number"])
def test_json_readers_reject_what_json_cannot_decode(reader, text):
    with pytest.raises(DataFormatError):
        reader(io.StringIO(text))


@pytest.mark.parametrize("kind", CSV_READERS)
def test_csv_readers_reject_a_field_past_the_size_limit(kind):
    reader, header, _ = CSV_READERS[kind]
    with pytest.raises(DataFormatError):
        reader(_csv(header, ["x" * 200_000]))


# every scalar json writes, with the awkward floats, huge ints and strings
# (non-ASCII, control characters, lone surrogates) named
SCALARS = (st.none() | st.booleans()
           | st.integers() | st.sampled_from([10 ** 100, -(2 ** 200)])
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e16])
           | st.text(st.characters(blacklist_categories=()), max_size=8))
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(st.characters(blacklist_categories=()),
                                             max_size=6), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_write_json_matches_json_dumps(payload):
    stream = io.StringIO()
    write_json(payload, stream)
    assert stream.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_write_json_writes_as_it_lays_out():
    class Recorder(io.StringIO):
        def __init__(self):
            super().__init__()
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))
            return super().write(text)

    # one top-level item, as the roster's "teams" list is
    payload = {"teams": [[f"s{k:05d}", f"s{k + 1:05d}", 0.5] for k in range(500)]}
    stream = Recorder()
    write_json(payload, stream)
    assert stream.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert max(stream.sizes) < len(stream.getvalue()) / 10


@pytest.mark.parametrize("items", [[], [7], [{"a": [1, {"b": []}], "c": "x"}, [[], [2.5]], None],
                                   [{"k": []}] * 300])
def test_write_json_lays_out_an_iterator_as_a_list(items):
    expected = json.dumps(items, indent=2, sort_keys=True) + "\n"
    stream = io.StringIO()
    write_json(iter(items), stream)
    assert stream.getvalue() == expected
    # iterators nested in a payload, each laid out as the list it yields
    stream = io.StringIO()
    write_json({"outer": (iter(x) if isinstance(x, list) else x for x in items)}, stream)
    assert stream.getvalue() == json.dumps({"outer": items}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [{1: "x"}, {"a": [{None: 0}]}, [object()],
                                     {"a": {1, 2}}])
def test_write_json_refuses_what_it_cannot_lay_out(payload):
    with pytest.raises(TypeError):
        write_json(payload, io.StringIO())


ROSTER = {
    "seed": 0, "objective": 0.5,
    "breakdown": {"cost_term": 0.5, "hole_term": 0.5, "balance_term": 0.5},
    "params": {"s_min": 2, "s_max": 2, "allow_oversize": False,
               "weights": {"w_cost": 0.5, "w_hole": 0.25, "w_balance": 0.25}},
    "teams": [["s1", "s2"]],
}


@pytest.mark.parametrize("teams", [["s1s2"], [[1, 2]]],
                         ids=["string team", "integer ids"])
def test_roster_teams_must_be_lists_of_student_ids(tmp_path, capsys, teams):
    graph, roster = tmp_path / "graph.csv", tmp_path / "teams.json"
    graph.write_text("src,dst,weight\ns1,s2,1\n", encoding="utf-8")
    argv = ["report", "--graph", str(graph), "--teams", str(roster),
            "--dot-out", str(tmp_path / "graph.dot")]
    roster.write_text(json.dumps(ROSTER), encoding="utf-8")
    assert read_roster_json(io.StringIO(json.dumps(ROSTER))).teams == (("s1", "s2"),)
    assert main(argv) == 0

    roster.write_text(json.dumps({**ROSTER, "teams": teams}), encoding="utf-8")
    with pytest.raises(DataFormatError):
        read_roster_json(io.StringIO(roster.read_text(encoding="utf-8")))
    (tmp_path / "graph.dot").unlink()
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "graph.dot").exists()


def test_a_roster_that_teams_wrote_reads_back_equal(tmp_path, capsys):
    corpus, graph = tmp_path / "corpus.jsonl", tmp_path / "graph.csv"
    metrics, roster = tmp_path / "metrics.csv", tmp_path / "teams.json"
    assert main(["synth", "--students", "12", "--threads", "4", "--posts", "12",
                 "--comments", "40", "--seed", "2", "--output", str(corpus)]) == 0
    assert main(["ingest", "--input", str(corpus), "--output", str(graph)]) == 0
    assert main(["metrics", "--graph", str(graph), "--output", str(metrics)]) == 0
    for oversize in ("--allow-oversize", "--no-allow-oversize"):
        assert main(["teams", "--graph", str(graph), "--metrics", str(metrics),
                     "--output", str(roster), "--restarts", "2", oversize]) == 0
        text = roster.read_text(encoding="utf-8")
        rewritten = io.StringIO()
        write_roster_json(read_roster_json(io.StringIO(text)), rewritten)
        assert rewritten.getvalue() == text
    capsys.readouterr()


def _roster_with(path, value):
    """A copy of ``ROSTER`` with ``value`` at the dotted ``path``."""
    payload = json.loads(json.dumps(ROSTER))
    *parents, key = path.split(".")
    holder = payload
    for parent in parents:
        holder = holder[parent]
    holder[key] = value
    return payload


def _report_refuses(tmp_path, capsys, roster, flags, written):
    """``report`` on a two-student graph with ``roster`` and ``flags`` exits 2
    with one ``error:`` line, which it returns, and writes no ``written``."""
    graph, path = tmp_path / "graph.csv", tmp_path / "teams.json"
    graph.write_text("src,dst,weight\ns1,s2,1\n", encoding="utf-8")
    path.write_text(json.dumps(roster), encoding="utf-8")
    assert main(["report", "--graph", str(graph), "--teams", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not written.exists()
    return err


# each roster field set to a value of a type its writer never gives it
@pytest.mark.parametrize("path, value", [
    ("params.allow_oversize", "false"), ("params.allow_oversize", 1),
    ("params.s_min", 2.7), ("params.s_max", "2"), ("params.s_max", None),
    ("seed", True), ("seed", 1.0), ("seed", "x"),
    ("objective", True), ("objective", "x"), ("objective", None),
    ("objective", math.inf), ("breakdown.cost_term", "x"),
    ("breakdown.hole_term", None), ("breakdown.balance_term", True),
    ("params.weights.w_cost", "x"), ("params.weights.w_hole", None),
    ("params.weights.w_balance", [1]), ("breakdown", [0.5, 0.5, 0.5]),
    ("params.weights", None)])
def test_report_refuses_a_roster_field_of_another_type(tmp_path, capsys, path, value):
    dot = tmp_path / "graph.dot"
    err = _report_refuses(tmp_path, capsys, _roster_with(path, value),
                          ["--dot-out", str(dot)], dot)
    assert f"{path}: " in err


# the roster's types are right, but form_teams would refuse its values
@pytest.mark.parametrize("path, value", [
    ("params.weights.w_cost", 2.0), ("params.weights.w_hole", -1.0),
    ("params.weights.w_balance", 0.5), ("params.s_min", 1), ("params.s_min", 3),
    ("params.s_max", 1), ("teams", [["s1"], ["s2"]]), ("teams", [["s1", "s2"], []]),
    ("teams", [])])
def test_report_refuses_a_roster_out_of_the_writers_range(tmp_path, capsys, path, value):
    dot = tmp_path / "graph.dot"
    err = _report_refuses(tmp_path, capsys, _roster_with(path, value),
                          ["--dot-out", str(dot)], dot)
    assert "bad roster JSON structure: " in err


# a roster whose team sizes its own params refuse, on a graph holding every
# member; the one size-feasible roster draws
@pytest.mark.parametrize("sizes, oversize, refused", [
    ((2, 2, 6), False, True), ((3, 3, 4), False, True), ((3, 3, 4), True, False)])
def test_report_applies_a_rosters_own_size_rule(tmp_path, capsys, sizes, oversize, refused):
    students = [f"s{k}" for k in range(10)]
    graph, path, dot = tmp_path / "graph.csv", tmp_path / "teams.json", tmp_path / "graph.dot"
    graph.write_text("src,dst,weight\n" + "".join(
        f"{u},{v},1\n" for u, v in zip(students, students[1:])), encoding="utf-8")
    cuts = list(itertools.accumulate(sizes, initial=0))
    roster = {**ROSTER, "teams": [students[a:b] for a, b in itertools.pairwise(cuts)],
              "params": {**ROSTER["params"], "s_min": 3, "s_max": 3,
                         "allow_oversize": oversize}}
    path.write_text(json.dumps(roster), encoding="utf-8")
    argv = ["report", "--graph", str(graph), "--teams", str(path), "--dot-out", str(dot)]
    assert main(argv) == (2 if refused else 0)
    err = capsys.readouterr().err
    if refused:
        assert err == (f"error: bad roster JSON structure: team sizes {list(sizes)} "
                       "break the roster's own params\n")
    assert dot.exists() is not refused


def test_report_refuses_a_roster_with_every_range_wrong(tmp_path, capsys):
    # bounds crossed, weights out of [0, 1], a lone student and an empty team
    roster = {**ROSTER, "teams": [["s1"], [], ["s2"]],
              "params": {"s_min": 5, "s_max": 2, "allow_oversize": False,
                         "weights": {"w_cost": 2.0, "w_hole": -1.0, "w_balance": 0.0}}}
    dot = tmp_path / "graph.dot"
    _report_refuses(tmp_path, capsys, roster, ["--dot-out", str(dot)], dot)


# each a JSON reader and a file whose one object repeats a key, which
# json.load reads as the last value
@pytest.mark.parametrize("reader, text", [
    (read_partition_json, '{"a": "g1", "a": "g2"}'),
    (read_roster_json, json.dumps(ROSTER)[:-1] + ', "teams": [["s1", "s2"]]}'),
    (read_skills_json, '[{"student": "a", "student": "b", "terms": [], "k": 5, '
                       '"refined": false}]')],
    ids=["partition", "roster", "skills"])
def test_json_readers_refuse_an_object_that_repeats_a_key(reader, text):
    with pytest.raises(DataFormatError, match="is listed twice in a JSON object"):
        reader(io.StringIO(text))


def test_metrics_refuses_a_partition_that_repeats_a_student(tmp_path, capsys):
    graph, partition = tmp_path / "graph.csv", tmp_path / "partition.json"
    table = tmp_path / "metrics.csv"
    graph.write_text("src,dst,weight\ns1,s2,1\n", encoding="utf-8")
    argv = ["metrics", "--graph", str(graph), "--partition", str(partition),
            "--output", str(table)]
    partition.write_text('{"s1": "g1", "s2": "g1"}', encoding="utf-8")
    assert main(argv) == 0
    table.unlink()
    partition.write_text('{"s1": "g1", "s2": "g1", "s1": "g2"}', encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    assert "'s1' is listed twice" in capsys.readouterr().err
    assert not table.exists()


OPINION = {"entity": "course", "aspect": "pace", "holder": "s1", "time": 3,
           "sentiment": 0.5}


@pytest.mark.parametrize("key, value", [
    ("entity", None), ("aspect", []), ("holder", 1), ("time", 1.9), ("time", True),
    ("sentiment", "0.5"), ("sentiment", None)])
def test_report_refuses_an_opinion_field_of_another_type(tmp_path, capsys, key, value):
    opinions, summary = tmp_path / "opinions.jsonl", tmp_path / "summary.json"
    flags = ["--opinions", str(opinions), "--summary-out", str(summary)]
    opinions.write_text(json.dumps(OPINION) + "\n", encoding="utf-8")
    graph = tmp_path / "graph.csv"
    graph.write_text("src,dst,weight\ns1,s2,1\n", encoding="utf-8")
    (tmp_path / "teams.json").write_text(json.dumps(ROSTER), encoding="utf-8")
    assert main(["report", "--graph", str(graph), "--teams", str(tmp_path / "teams.json"),
                 *flags]) == 0
    summary.unlink()
    capsys.readouterr()
    opinions.write_text(json.dumps({**OPINION, key: value}) + "\n", encoding="utf-8")
    err = _report_refuses(tmp_path, capsys, ROSTER, flags, summary)
    assert f"line 1: {key}: " in err


SKILL = {"student": "a", "terms": [{"term": "x", "weight": 0.5}], "k": 5, "refined": False}


@pytest.mark.parametrize("path, value", [
    ("student", 1), ("student", None), ("terms", {"x": 0.5}), ("term", None),
    ("term", 3), ("weight", "0.5"), ("weight", True), ("k", 5.0), ("k", True),
    ("refined", "false"), ("refined", 0)])
def test_skills_reader_refuses_a_field_of_another_type(path, value):
    # no subcommand reads skills JSON, so the reader is called directly
    assert read_skills_json(io.StringIO(json.dumps([SKILL])))["a"].terms == (("x", 0.5),)
    entry = json.loads(json.dumps(SKILL))
    (entry["terms"][0] if path in ("term", "weight") else entry)[path] = value
    with pytest.raises(DataFormatError, match=f"{path}: "):
        read_skills_json(io.StringIO(json.dumps([entry])))


@pytest.mark.parametrize("change, message", [
    ({"k": 0}, "1 terms for k=0"),
    ({"k": -1, "terms": []}, "0 terms for k=-1"),
    ({"k": 1, "terms": [{"term": "x", "weight": 0.5}, {"term": "y", "weight": 0.25}]},
     "2 terms for k=1"),
    ({"terms": [{"term": "x", "weight": -0.5}]}, "negative or rise"),
    ({"terms": [{"term": "x", "weight": 0.5}, {"term": "y", "weight": -3.0}]}, "negative or rise"),
    ({"terms": [{"term": "x", "weight": 0.25}, {"term": "y", "weight": 0.5}]}, "negative or rise"),
    ({"terms": [{"term": "x", "weight": 0.5}, {"term": "y", "weight": 0.5},
                {"term": "z", "weight": 0.75}]}, "negative or rise")])
def test_skills_reader_refuses_a_profile_out_of_the_writers_range(change, message):
    with pytest.raises(DataFormatError, match=message):
        read_skills_json(io.StringIO(json.dumps([{**SKILL, **change}])))


def test_skills_reader_refuses_a_student_listed_twice():
    second = {**SKILL, "terms": [{"term": "y", "weight": 0.75}]}
    with pytest.raises(DataFormatError, match="a second profile of 'a'"):
        read_skills_json(io.StringIO(json.dumps([SKILL, second])))
    # a repeat with negative, rising weights and k -1, once read as one profile
    repeat = [{"student": "a", "terms": [{"term": "x", "weight": 0.5}], "k": 5, "refined": False},
             {"student": "a", "terms": [{"term": "y", "weight": -3.0},
                                        {"term": "z", "weight": 7.0}],
              "k": -1, "refined": False}]
    with pytest.raises(DataFormatError):
        read_skills_json(io.StringIO(json.dumps(repeat)))


def test_skills_reader_keeps_ties_and_zero_weights():
    terms = [{"term": "x", "weight": 0.5}, {"term": "y", "weight": 0.5},
             {"term": "z", "weight": 0.0}]
    profile = read_skills_json(io.StringIO(json.dumps([{**SKILL, "k": 3, "terms": terms}])))["a"]
    assert profile.terms == (("x", 0.5), ("y", 0.5), ("z", 0.0)) and profile.k == 3


# each a trace file write_trace_csv never writes
@pytest.mark.parametrize("rows", [
    [["a", "1", "2"], ["a", "-4", "-7"]], [["a", "-1", "2"]], [["a", "1", "-2"]],
    [["b", "NEVER", "3"]], [["a", "1", "0"]]],
    ids=["second row", "negative arrival", "negative receipts",
         "receipts never arrived", "arrival without receipts"])
def test_trace_reader_refuses_a_row_its_writer_never_writes(rows):
    assert read_trace_csv(_csv(TRACE_HEADER, ["a", "1", "2"], ["b", "NEVER", "0"])) == {
        "a": (1, 2), "b": (None, 0)}
    with pytest.raises(DataFormatError, match="bad trace row"):
        read_trace_csv(_csv(TRACE_HEADER, *rows))
