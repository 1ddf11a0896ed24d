"""Reporting helpers: opinion aggregation, cohort splits, DOT export.

Opinion records arrive pre-scored from an external sentiment pipeline;
this module only aggregates them against a team assignment.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataFormatError, ParameterError
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
    """Parse one JSON opinion object per line; malformed input is an error."""
    records = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            records.append(OpinionRecord(
                entity=str(obj["entity"]),
                aspect=str(obj["aspect"]),
                sentiment=float(obj["sentiment"]),
                holder=str(obj["holder"]),
                time=int(obj["time"]),
            ))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"bad opinion record on line {lineno}: {exc}") from exc
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


def aggregate_opinions(records: Sequence[OpinionRecord],
                       assignment: TeamAssignment) -> OpinionReport:
    """Per-team sentiment summary; holders outside the roster are counted
    separately rather than dropped silently."""
    team_of: dict[StudentId, int] = {}
    for idx, team in enumerate(assignment.teams):
        for s in team:
            team_of[s] = idx
    sums = [0.0] * len(assignment.teams)
    counts = [0] * len(assignment.teams)
    earliest: list[int | None] = [None] * len(assignment.teams)
    latest: list[int | None] = [None] * len(assignment.teams)
    ignored = 0
    total_sum = 0.0
    total_count = 0
    for r in records:
        idx = team_of.get(r.holder)
        if idx is None:
            ignored += 1
            continue
        sums[idx] += r.sentiment
        counts[idx] += 1
        total_sum += r.sentiment
        total_count += 1
        if earliest[idx] is None or r.time < earliest[idx]:
            earliest[idx] = r.time
        if latest[idx] is None or r.time > latest[idx]:
            latest[idx] = r.time
    summaries = tuple(
        TeamOpinionSummary(
            team=assignment.teams[i],
            count=counts[i],
            mean_sentiment=sums[i] / counts[i] if counts[i] else None,
            earliest=earliest[i],
            latest=latest[i])
        for i in range(len(assignment.teams)))
    overall = total_sum / total_count if total_count else None
    return OpinionReport(summaries, overall, total_count, ignored)


def experiment_split(students: Sequence[StudentId], fraction: float,
                     seed: int) -> tuple[tuple[StudentId, ...], tuple[StudentId, ...]]:
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


def export_dot(g: SocialGraph, assignment: TeamAssignment | None = None) -> str:
    """Graphviz text for the reply graph, byte-stable across calls.

    Edge weights become labels.  With an assignment, each rostered node
    carries a ``team`` attribute; isolated nodes are always declared so
    the node set survives the export.
    """
    lines = ["digraph replies {"]
    team_label: dict[StudentId, str] = {}
    if assignment is not None:
        for idx, team in enumerate(assignment.teams):
            for s in team:
                team_label[s] = f"t{idx:03d}"
    for v in g.nodes:
        label = team_label.get(v)
        if label is not None:
            lines.append(f'  {_dot_id(v)} [team="{label}"];')
        elif g.degree(v) == 0:
            lines.append(f'  {_dot_id(v)};')
    for u, v, w in g.edges():
        lines.append(f'  {_dot_id(u)} -> {_dot_id(v)} [label="{w}", weight={w}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
