"""The shared reader rules of every CSV and JSON artifact, and roster shape."""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moocteams.cli import main
from moocteams.diffusion import TRACE_HEADER, read_trace_csv
from moocteams.errors import DataFormatError
from moocteams.formats import refused_as, write_json
from moocteams.graph import CSV_HEADER, read_graph_csv
from moocteams.metrics import METRICS_HEADER, read_metrics_csv
from moocteams.skills import read_partition_json, read_skills_json
from moocteams.teams import read_roster_json

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
