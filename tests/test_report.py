import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moocteams.errors import DataFormatError, ParameterError
from moocteams.graph import SocialGraph
from moocteams.metrics import compute_node_metrics
from moocteams.report import (
    OpinionRecord,
    aggregate_opinions,
    experiment_split,
    export_dot,
    read_opinions_jsonl,
    write_dot,
    write_opinions_jsonl,
)
from moocteams.teams import form_teams

from oracles import random_digraph


def _assignment(n=8, seed=1):
    g = random_digraph(n, 0.35, seed=seed)
    metrics = compute_node_metrics(g)
    return g, form_teams(g, metrics, s_min=3, s_max=5, restarts=4, seed=0)


def test_opinion_record_validation():
    OpinionRecord("course", "pace", 0.5, "s1", 10)
    with pytest.raises(DataFormatError):
        OpinionRecord("course", "pace", 1.5, "s1", 10)
    with pytest.raises(DataFormatError):
        OpinionRecord("course", "pace", 0.5, "", 10)


def test_opinions_jsonl_round_trip_and_errors():
    records = [
        OpinionRecord("course", "pace", 0.25, "s1", 3),
        OpinionRecord("forum", "tone", -1.0, "s2", 9),
    ]
    buf = io.StringIO()
    write_opinions_jsonl(records, buf)
    buf.seek(0)
    assert read_opinions_jsonl(buf) == records
    with pytest.raises(DataFormatError) as err:
        read_opinions_jsonl(io.StringIO('{"entity": "x"}\n'))
    assert "line 1" in str(err.value)


def test_aggregate_opinions_per_team():
    g, assignment = _assignment()
    team0 = assignment.teams[0]
    records = [
        OpinionRecord("course", "pace", 1.0, team0[0], 5),
        OpinionRecord("course", "pace", 0.0, team0[1], 2),
        OpinionRecord("course", "pace", -0.5, "outsider", 1),
    ]
    report = aggregate_opinions(records, assignment)
    assert report.matched == 2
    assert report.ignored == 1
    assert report.overall_mean == pytest.approx(0.5)
    first = report.teams[0]
    assert first.count == 2
    assert first.mean_sentiment == pytest.approx(0.5)
    assert (first.earliest, first.latest) == (2, 5)
    # teams with no opinions surface as None, not zero
    assert report.teams[1].mean_sentiment is None
    assert report.teams[1].count == 0


def test_aggregate_opinions_empty():
    _, assignment = _assignment()
    report = aggregate_opinions([], assignment)
    assert report.overall_mean is None
    assert report.matched == 0


def test_experiment_split_frozen_example():
    students = [f"s{i:05d}" for i in range(771)]
    exp, control = experiment_split(students, 0.3, seed=42)
    assert len(exp) == 231
    assert len(control) == 540


def test_experiment_split_properties():
    students = [f"s{i}" for i in range(50)]
    exp, control = experiment_split(students, 0.4, seed=7)
    assert sorted(exp + control) == sorted(students)
    assert not set(exp) & set(control)
    assert exp == tuple(sorted(exp))
    assert experiment_split(students, 0.4, seed=7) == (exp, control)
    assert experiment_split(students, 0.4, seed=8) != (exp, control)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=80),
       st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=0, max_value=1000))
def test_experiment_split_always_partitions(n, fraction, seed):
    students = [f"s{i}" for i in range(n)]
    try:
        exp, control = experiment_split(students, fraction, seed)
    except ParameterError:
        cut = round(fraction * n)
        assert cut in (0, n)
        return
    assert sorted(exp + control) == sorted(students)


def test_experiment_split_validation():
    with pytest.raises(ParameterError):
        experiment_split(["a"], 0.5, seed=0)
    with pytest.raises(ParameterError):
        experiment_split(["a", "b", "a"], 0.5, seed=0)
    with pytest.raises(ParameterError):
        experiment_split(["a", "b"], 1.0, seed=0)
    with pytest.raises(ParameterError):
        experiment_split(["a", "b", "c"], 0.01, seed=0)


def test_export_dot_layout():
    g = SocialGraph({("a", "b"): 2, ("b", "a"): 1}, nodes=["a", "b", "lone"])
    text = export_dot(g)
    assert text == (
        'digraph replies {\n'
        '  "lone";\n'
        '  "a" -> "b" [label="2", weight=2];\n'
        '  "b" -> "a" [label="1", weight=1];\n'
        '}\n'
    )


def test_export_dot_escapes_quotes_and_backslashes():
    g = SocialGraph({('a"x', "b\\"): 1}, nodes=["lone\"q"])
    assert export_dot(g) == (
        'digraph replies {\n'
        '  "lone\\"q";\n'
        '  "a\\"x" -> "b\\\\" [label="1", weight=1];\n'
        '}\n'
    )


def test_export_dot_with_teams_is_stable():
    g, assignment = _assignment()
    text = export_dot(g, assignment)
    assert text == export_dot(g, assignment)
    for idx, team in enumerate(assignment.teams):
        for s in team:
            assert f'"{s}" [team="t{idx:03d}"];' in text
    assert text.count("->") == g.edge_count


def test_write_dot_writes_export_dots_text_in_pieces():
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    g = random_digraph(120, 0.2, seed=3)
    metrics = compute_node_metrics(g)
    for assignment in (None, form_teams(g, metrics, s_min=3, s_max=5, restarts=1, seed=0)):
        writes.clear()
        stream = Recorder()
        write_dot(g, assignment, stream)
        assert stream.getvalue() == export_dot(g, assignment)
        assert len(writes) > 5 and all(text.endswith("\n") for text in writes)
