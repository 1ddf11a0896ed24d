"""End-to-end pipeline: corpus file in, analysis artifacts out.

Stage order is ingest, rank metrics, skills, partition, brokerage
table, teams, diffusion, export.  Rank metrics and raw skill profiling
depend only on the ingest output and could run concurrently; skill
refinement is what couples them.  Every stage's artifacts are hashed
into a manifest whose bytes are reproducible for a fixed corpus,
settings and seed, wherever the corpus and the output directory live;
wall-clock timings go to a separate file so they cannot break that
reproducibility.

Each stage is one ``with stage(name) as st:`` block, handing its results
on as plain locals; the block times the stage, records a ``SEEDED``
stage's seed, hashes its ``ARTIFACTS`` entry if ``st.write`` wrote it,
and on an exception writes the manifest marked failed.  The ingest,
skills, partition and teams blocks each call one ``*_stage`` function of
their inputs and a ``RunConfig``, which the stage commands call too.
The parsed messages are dropped once the skills stage has profiled them,
and the DOT and JSON artifacts are streamed to their files, never held whole.
A run, complete or failed, ends by deleting every artifact its manifest
does not record, so no earlier run's file is left behind.  Every file,
here and in the command line, is written through ``write_files`` (or its
one-file form ``write_file``), so none is ever left half written, and
read through ``read_file``; both open UTF-8 with no newline translation
(see :mod:`moocteams.formats`).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterator, Mapping, TextIO

from ._version import __version__
from .diffusion import FlowSpec, simulate, write_trace_csv
from .errors import MoocteamsError, ParameterError
from .formats import write_json
from .graph import SocialGraph, write_graph_csv
from .ingest import (REPLY_POLICY, BuildReport, ForumMessage, ParseResult,
                     ReplyPolicy, build_reply_graph, parse_forum_export)
from .metrics import (DAMPING, FARNESS_PENALTY, PAGERANK_MAX_ITER, PAGERANK_TOL,
                      RANK_MAX_ITER, RANK_TOL, NodeMetrics, brokerage_counts,
                      compute_metrics_without_brokerage, write_metrics_csv)
from .report import write_dot
from .skills import (MIN_LEN, SKILL_BETA, SKILL_K, USE_IDF, SkillProfile,
                     build_skill_profiles, refine_by_rank, skill_partition,
                     write_partition_json, write_skills_json)
from .teams import (ALLOW_OVERSIZE, ITERATIONS, RESTARTS, S_MAX, S_MIN, ObjectiveWeights,
                    TeamAssignment, form_teams, write_roster_json)

MANIFEST_NAME = "manifest.json"
TIMINGS_NAME = "timings.json"
#: The artifact each stage writes; the metrics stage writes none.
ARTIFACTS = {"ingest": "graph.csv", "skills": "skills.json",
             "partition": "partition.json", "tabulate": "metrics.csv",
             "teams": "teams.json", "diffusion": "trace.csv",
             "export": "graph.dot"}
#: The stages that draw random numbers, each from ``derive_seed(seed, name)``.
SEEDED = ("partition", "teams", "diffusion")


def derive_seed(master: int, stage: str) -> int:
    """Stable per-stage seed from the master seed and stage name."""
    digest = hashlib.sha256(f"{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class StageError(MoocteamsError):
    """A pipeline stage failed; carries the stage name for the exit path."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    """Everything a pipeline run, or a stage command, needs.

    The two paths come first.  Every field after them is a setting: a
    ``moocteams pipeline`` flag and a key of the manifest's config block
    (``seed`` is the master seed, from which each ``SEEDED`` stage derives
    its own).  The class constants at the end are fixed settings.  A setting
    that a library function takes defaults to the default that the library
    declares; a stage command sets only the settings it has flags for.
    """

    input_path: str
    output_dir: str
    seed: int = 0
    reply_policy: str = REPLY_POLICY.name.lower()
    damping: float = DAMPING
    skill_k: int = SKILL_K
    skill_beta: float = SKILL_BETA
    skill_idf: bool = USE_IDF
    n_groups: int = 5
    s_min: int = S_MIN
    s_max: int = S_MAX
    allow_oversize: bool = ALLOW_OVERSIZE
    w_cost: float = ObjectiveWeights.w_cost
    w_hole: float = ObjectiveWeights.w_hole
    w_balance: float = ObjectiveWeights.w_balance
    restarts: int = RESTARTS
    team_iterations: int = ITERATIONS
    run_diffusion: bool = True
    diffusion_mechanism: str = "TRANSFER"
    diffusion_trajectory: str = "WALK"
    diffusion_steps: int = FlowSpec.max_steps
    diffusion_replications: int = 50

    pagerank_tol: ClassVar[float] = PAGERANK_TOL
    pagerank_max_iter: ClassVar[int] = PAGERANK_MAX_ITER
    rank_tol: ClassVar[float] = RANK_TOL
    rank_max_iter: ClassVar[int] = RANK_MAX_ITER
    farness_penalty: ClassVar[float | None] = FARNESS_PENALTY
    skill_min_len: ClassVar[int] = MIN_LEN
    diffusion_uniform: ClassVar[bool] = FlowSpec.uniform

    def weights(self) -> ObjectiveWeights:
        return ObjectiveWeights(self.w_cost, self.w_hole, self.w_balance)

    def policy(self) -> ReplyPolicy:
        try:
            return ReplyPolicy[self.reply_policy.upper()]
        except KeyError:
            raise ParameterError(
                f"unknown reply policy {self.reply_policy!r}") from None

    def validate(self) -> None:
        """Reject invalid settings and respell the enum-valued ones in
        canonical form, so any accepted spelling gives the same manifest.
        Every comparison is written so that NaN fails it."""
        from .diffusion import Mechanism, Trajectory
        self.reply_policy = self.policy().name.lower()
        self.diffusion_mechanism = Mechanism.parse(self.diffusion_mechanism).value
        self.diffusion_trajectory = Trajectory.parse(
            self.diffusion_trajectory).value
        self.weights().validate()
        if not 0.0 < self.damping < 1.0:
            raise ParameterError("damping must lie strictly in (0, 1)")
        for name in ("skill_k", "n_groups", "restarts", "diffusion_steps",
                     "diffusion_replications"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be at least 1")
        if self.team_iterations < 0:
            raise ParameterError("team_iterations must be non-negative")
        if not 0.0 <= self.skill_beta < math.inf:
            raise ParameterError("skill_beta must be non-negative and finite")
        if self.s_min < 2 or self.s_max < self.s_min:
            raise ParameterError("team size bounds need 2 <= s_min <= s_max")


SETTINGS = fields(RunConfig)[2:]


@dataclass
class PipelineResult:
    manifest: dict[str, Any]
    manifest_path: Path
    graph: SocialGraph
    metrics: dict[str, NodeMetrics]


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Re-raise an OSError as one about ``path``, not a file beside it."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_files(*outputs: tuple[str | Path, Callable[[Any, TextIO], Any], Any]) -> None:
    """For each ``(path, writer, value)``: ``writer(value, fh)`` into a
    temporary UTF-8 file beside ``path``, lines untranslated.  Once every
    writer has returned, each is renamed over its path, any file there set
    aside until every rename has succeeded; on any error every path gets
    its old file back, or none, and no temporary remains."""
    staged: list[tuple[Path, Path]] = []
    moved: list[tuple[Path, Path]] = []  # (set-aside file, its path)
    placed: list[Path] = []
    try:
        for k, (path, writer, value) in enumerate(outputs):
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{k}.tmp")
            with _naming(path):
                fh = open(tmp, "w", encoding="utf-8", newline="")
            staged.append((tmp, path))
            with fh:
                writer(value, fh)
        for tmp, path in staged:
            with _naming(path):
                if path.is_file() or path.is_symlink():  # never a directory
                    os.replace(path, tmp.with_suffix(".old"))
                    moved.append((tmp.with_suffix(".old"), path))
                os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in placed:
            path.unlink()
        for old, path in moved:
            os.replace(old, path)
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for old, _ in moved:
        old.unlink()


def write_file(path: str | Path, writer: Callable[[Any, TextIO], Any],
               value: Any) -> None:
    """:func:`write_files` with one output."""
    write_files((path, writer, value))


def read_file(path: str | Path, reader: Callable[[TextIO], Any]) -> Any:
    """``reader(fh)`` on ``path``, opened as :func:`write_files` opens."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return reader(fh)


def ingest_stage(config: RunConfig) -> tuple[ParseResult, SocialGraph, BuildReport]:
    """The corpus at ``config.input_path`` parsed, and its reply graph."""
    parsed = read_file(config.input_path, parse_forum_export)
    return (parsed, *build_reply_graph(parsed.messages, policy=config.policy()))


def skills_stage(messages: list[ForumMessage], ranks: Mapping[str, float] | None,
                 config: RunConfig) -> dict[str, SkillProfile]:
    """Every named author's skill profile, refined by ``ranks`` unless None."""
    profiles = build_skill_profiles(messages, k=config.skill_k, use_idf=config.skill_idf,
                                    min_len=config.skill_min_len)
    return profiles if ranks is None else refine_by_rank(profiles, ranks, config.skill_beta)


def partition_stage(profiles: Mapping[str, SkillProfile], config: RunConfig) -> dict[str, str]:
    """The profiled students in at most ``n_groups`` skill groups."""
    return skill_partition(profiles.values(), min(config.n_groups, len(profiles)),
                           seed=derive_seed(config.seed, "partition")) if profiles else {}


def teams_stage(graph: SocialGraph, table: Mapping[str, NodeMetrics],
                config: RunConfig) -> TeamAssignment:
    """The searched team assignment of the graph's students."""
    return form_teams(graph, table, s_min=config.s_min, s_max=config.s_max,
                      weights=config.weights(), restarts=config.restarts,
                      iterations=config.team_iterations,
                      seed=derive_seed(config.seed, "teams"),
                      allow_oversize=config.allow_oversize)


class _Stage:
    """What a running stage records: the artifact it wrote, or why none."""

    def __init__(self, path: Path | None):
        self.path = path
        self.artifacts: dict[str, str] = {}
        self.skip_reason: str | None = None

    def write(self, writer: Callable[[Any, TextIO], Any], value: Any) -> None:
        """``write_file`` into the stage's artifact, then record its digest."""
        write_file(self.path, writer, value)
        self.artifacts = {self.path.name: _sha256_file(self.path)}


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute every stage and write the manifest.

    A failing stage's artifact is not recorded; the manifest is still
    written, marked failed with the stage named, and a StageError
    propagates so the CLI can exit nonzero.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    input_path = Path(config.input_path)
    if not input_path.is_file():
        raise ParameterError(f"input corpus not found: {input_path}")

    manifest: dict[str, Any] = {
        "version": __version__,
        "seed": config.seed,
        "config": {f.name: getattr(config, f.name) for f in SETTINGS},
        "input": {"sha256": _sha256_file(input_path),
                  "bytes": input_path.stat().st_size},
        "stages": [],
        "status": "complete",
        "failed_stage": None,
    }
    timings: dict[str, float] = {}

    def finish(status: str, failed_stage: str | None = None) -> Path:
        recorded = {name for s in manifest["stages"] for name in s["artifacts"]}
        for name in set(ARTIFACTS.values()) - recorded:
            (out_dir / name).unlink(missing_ok=True)
        manifest["status"] = status
        manifest["failed_stage"] = failed_stage
        manifest_path = out_dir / MANIFEST_NAME
        write_file(manifest_path, write_json, manifest)
        write_file(out_dir / TIMINGS_NAME, write_json,
                   {"stages": timings, "total": sum(timings.values())})
        return manifest_path

    @contextmanager
    def stage(name: str) -> Iterator[_Stage]:
        st = _Stage(out_dir / ARTIFACTS[name] if name in ARTIFACTS else None)
        start, failure = time.perf_counter(), None
        try:
            yield st
        except Exception as exc:
            failure = exc
        timings[name] = time.perf_counter() - start
        manifest["stages"].append({
            "name": name,
            "seed": derive_seed(config.seed, name) if name in SEEDED else None,
            "status": "failed" if failure else "skipped" if st.skip_reason else "ok",
            "reason": str(failure) if failure else st.skip_reason,
            "artifacts": {} if failure else st.artifacts})
        if failure:
            finish("failed", name)
            raise StageError(name, failure) from failure

    # ingest: corpus -> reply graph
    with stage("ingest") as st:
        parsed, g, report = ingest_stage(config)
        st.write(write_graph_csv, g)
        manifest["corpus"] = {"messages": parsed.parsed,
                              "skipped_lines": parsed.skipped,
                              "anonymous_messages": parsed.anonymous,
                              **asdict(report)}
        manifest["graph"] = {
            "nodes": g.node_count,
            "edges": g.edge_count,
            "total_weight": g.total_weight,
        }

    # rank metrics: everything except brokerage, which needs the partition
    with stage("metrics"):
        metrics = compute_metrics_without_brokerage(
            g, damping=config.damping, pagerank_tol=config.pagerank_tol,
            farness_penalty=config.farness_penalty)

    with stage("skills") as st:
        profiles = skills_stage(parsed.messages,
                                {s: m.pagerank for s, m in metrics.items()}, config)
        st.write(write_skills_json, profiles)
    del parsed  # nothing after skills reads the messages

    with stage("partition") as st:
        partition = partition_stage(profiles, config)
        st.write(write_partition_json, partition)

    # brokerage roles against the skill partition, which labels every named
    # author and so every graph node, then the full table
    with stage("tabulate") as st:
        roles = brokerage_counts(g, partition)
        for node, record in metrics.items():
            record.brokerage = roles[node]
        st.write(write_metrics_csv, metrics)

    with stage("teams") as st:
        assignment = None
        if g.node_count < config.s_min:
            st.skip_reason = (f"{g.node_count} students cannot fill a team "
                              f"of {config.s_min}")
        else:
            assignment = teams_stage(g, metrics, config)
            st.write(write_roster_json, assignment)

    with stage("diffusion") as st:
        if not config.run_diffusion:
            st.skip_reason = "disabled by config"
        elif g.edge_count == 0:
            st.skip_reason = "graph has no edges"
        else:
            source = min(metrics, key=lambda v: (-metrics[v].pagerank, v))
            spec = FlowSpec(
                mechanism=config.diffusion_mechanism,
                trajectory=config.diffusion_trajectory,
                sources=(source,),
                max_steps=config.diffusion_steps,
                replications=config.diffusion_replications,
                seed=derive_seed(config.seed, "diffusion"),
                uniform=config.diffusion_uniform)
            st.write(write_trace_csv, simulate(g, spec))

    with stage("export") as st:
        st.write(lambda roster, fh: write_dot(g, roster, fh), assignment)

    return PipelineResult(manifest=manifest, manifest_path=finish("complete"),
                          graph=g, metrics=metrics)
