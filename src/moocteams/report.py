"""Reporting helpers: opinion aggregation, cohort splits, DOT export.

Opinion records arrive pre-scored from an external sentiment pipeline;
this module only aggregates them against a team assignment.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import DataFormatError, ParameterError
from .formats import json_field, refused_as
from .graph import SocialGraph, StudentId
from .teams import TeamAssignment


@dataclass(frozen=True)
class OpinionRecord:
    """One externally scored opinion: who said what about which aspect."""

    entity: str
    aspect: str
    sentiment: float
    holder: StudentId
    time: int

    def __post_init__(self):
        if not -1.0 <= self.sentiment <= 1.0:
            raise DataFormatError(
                f"sentiment must lie in [-1, 1], got {self.sentiment}")
        if not self.holder:
            raise DataFormatError("opinion holder must be non-empty")


def read_opinions_jsonl(stream) -> list[OpinionRecord]:
    """Parse one JSON opinion object per line; malformed input, nesting too
    deep to decode included, is a DataFormatError."""
    records = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        with refused_as("bad opinion record on line {}", lineno):
            obj = json.loads(line)
            records.append(OpinionRecord(
                entity=json_field(obj, "entity", str),
                aspect=json_field(obj, "aspect", str),
                sentiment=json_field(obj, "sentiment", float),
                holder=json_field(obj, "holder", str),
                time=json_field(obj, "time", int),
            ))
    return records


def write_opinions_jsonl(records: Iterable[OpinionRecord], stream) -> None:
    for r in records:
        stream.write(json.dumps({
            "entity": r.entity, "aspect": r.aspect, "sentiment": r.sentiment,
            "holder": r.holder, "time": r.time}, sort_keys=True))
        stream.write("\n")


@dataclass(frozen=True)
class TeamOpinionSummary:
    team: tuple[StudentId, ...]
    count: int
    mean_sentiment: float | None
    earliest: int | None
    latest: int | None


@dataclass(frozen=True)
class OpinionReport:
    teams: tuple[TeamOpinionSummary, ...]
    overall_mean: float | None
    matched: int
    ignored: int


def _mean(values: Sequence[float]) -> float | None:
    """Mean added left to right from 0.0 (``sum`` compensates on 3.12+);
    None when there are no values."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values) if values else None


def aggregate_opinions(records: Sequence[OpinionRecord],
                       assignment: TeamAssignment) -> OpinionReport:
    """Per-team sentiment summary; holders outside the roster are counted
    separately rather than dropped silently."""
    team_of = {s: idx for idx, team in enumerate(assignment.teams) for s in team}
    groups: list[list[OpinionRecord]] = [[] for _ in assignment.teams]
    matched = [r for r in records if r.holder in team_of]
    for r in matched:
        groups[team_of[r.holder]].append(r)
    summaries = tuple(
        TeamOpinionSummary(
            team=team,
            count=len(group),
            mean_sentiment=_mean([r.sentiment for r in group]),
            earliest=min((r.time for r in group), default=None),
            latest=max((r.time for r in group), default=None))
        for team, group in zip(assignment.teams, groups))
    return OpinionReport(summaries, _mean([r.sentiment for r in matched]),
                         len(matched), len(records) - len(matched))


SPLIT_SEED = 0  #: the default seed of :func:`experiment_split`


def experiment_split(students: Sequence[StudentId], fraction: float,
                     seed: int = SPLIT_SEED,
                     ) -> tuple[tuple[StudentId, ...], tuple[StudentId, ...]]:
    """Seeded shuffle, then cut at round(fraction * n).

    Returns (experimental, control), each sorted; together they cover
    the input exactly once.
    """
    pool = list(students)
    if len(pool) < 2:
        raise ParameterError("experiment split needs at least 2 students")
    if len(set(pool)) != len(pool):
        raise ParameterError("student list contains duplicates")
    if not 0.0 < fraction < 1.0:
        raise ParameterError(f"fraction must lie strictly in (0, 1), got {fraction}")
    cut = round(fraction * len(pool))
    if cut == 0 or cut == len(pool):
        raise ParameterError(
            f"fraction {fraction} leaves one side of the split empty")
    shuffled = sorted(pool)
    random.Random(seed).shuffle(shuffled)
    return tuple(sorted(shuffled[:cut])), tuple(sorted(shuffled[cut:]))


def _dot_id(s: StudentId) -> str:
    """Quoted DOT identifier; backslash and double quote are escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(g: SocialGraph, assignment: TeamAssignment | None, stream) -> None:
    """Graphviz text for the reply graph, byte-stable across calls, written
    128 lines at a time.

    Edge weights become labels.  With an assignment, each rostered node
    carries a ``team`` attribute; isolated nodes are always declared so
    the node set survives the export.
    """
    team_of = {s: idx for idx, team in enumerate(assignment.teams)
               for s in team} if assignment is not None else {}

    def lines() -> Iterator[str]:
        yield "digraph replies {\n"
        for v in g.nodes:
            idx = team_of.get(v)
            if idx is not None:
                yield f'  {_dot_id(v)} [team="t{idx:03d}"];\n'
            elif g.degree(v) == 0:
                yield f'  {_dot_id(v)};\n'
        for u, v, w in g.edges():
            yield f'  {_dot_id(u)} -> {_dot_id(v)} [label="{w}", weight={w}];\n'
        yield "}\n"

    pending = lines()
    while text := "".join(islice(pending, 128)):
        stream.write(text)


def export_dot(g: SocialGraph, assignment: TeamAssignment | None = None) -> str:
    """The text :func:`write_dot` writes."""
    buffer = io.StringIO()
    write_dot(g, assignment, buffer)
    return buffer.getvalue()
