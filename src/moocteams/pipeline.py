"""End-to-end pipeline: corpus file in, analysis artifacts out.

Stage order is ingest, rank metrics, skills, partition, brokerage
table, teams, diffusion, export.  Rank metrics and raw skill profiling
depend only on the ingest output and could run concurrently; skill
refinement is what couples them.  Every stage's artifacts are hashed
into a manifest whose bytes are reproducible for a fixed corpus,
settings and seed, wherever the corpus and the output directory live;
wall-clock timings go to a separate file so they cannot break that
reproducibility.

Each stage is one ``with stage(name, seed) as st:`` block, handing its
results on as plain locals; the block times the stage, hashes what
``st.write`` wrote, and on an exception deletes those files and writes
the manifest marked failed.  Every file, here and in the command line,
is written through ``write_files`` (or its one-file form ``write_file``),
so none is ever left half written, and read through ``read_file``; both
open UTF-8 with no newline translation (see :mod:`moocteams.formats`).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterator, TextIO

from ._version import __version__
from .diffusion import FlowSpec, simulate, write_trace_csv
from .errors import MoocteamsError, ParameterError
from .formats import write_json
from .graph import SocialGraph, write_graph_csv
from .ingest import ReplyPolicy, build_reply_graph, parse_forum_export
from .metrics import (DAMPING, PAGERANK_MAX_ITER, PAGERANK_TOL, RANK_MAX_ITER,
                      RANK_TOL, NodeMetrics, brokerage_counts,
                      compute_metrics_without_brokerage, write_metrics_csv)
from .report import export_dot
from .skills import (UNOBSERVED_GROUP, build_skill_profiles, refine_by_rank,
                     skill_partition, write_partition_json, write_skills_json)
from .teams import ObjectiveWeights, form_teams, write_roster_json

MANIFEST_NAME = "manifest.json"
TIMINGS_NAME = "timings.json"


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
    """Everything a pipeline run needs; round-trips through JSON.

    The two paths come first.  Every field after them is a setting: a
    ``moocteams pipeline`` flag and a key of the manifest's config block.
    The class constants at the end are fixed settings; the solver ones
    are the defaults declared in :mod:`moocteams.metrics`.
    """

    input_path: str
    output_dir: str
    seed: int = 0
    reply_policy: str = "starter_fallback"
    damping: float = DAMPING
    skill_k: int = 5
    skill_beta: float = 1.0
    skill_idf: bool = False
    n_groups: int = 5
    s_min: int = 3
    s_max: int = 5
    allow_oversize: bool = False
    w_cost: float = ObjectiveWeights.w_cost
    w_hole: float = ObjectiveWeights.w_hole
    w_balance: float = ObjectiveWeights.w_balance
    restarts: int = 8
    team_iterations: int = 300
    run_diffusion: bool = True
    diffusion_mechanism: str = "TRANSFER"
    diffusion_trajectory: str = "WALK"
    diffusion_steps: int = 20
    diffusion_replications: int = 50

    pagerank_tol: ClassVar[float] = PAGERANK_TOL
    pagerank_max_iter: ClassVar[int] = PAGERANK_MAX_ITER
    rank_tol: ClassVar[float] = RANK_TOL
    rank_max_iter: ClassVar[int] = RANK_MAX_ITER
    farness_penalty: ClassVar[float | None] = None
    skill_min_len: ClassVar[int] = 3
    diffusion_uniform: ClassVar[bool] = False

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

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


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


def write_files(*outputs: tuple[str | Path, Callable[[Any, TextIO], Any], Any]) -> None:
    """For each ``(path, writer, value)``: ``writer(value, fh)`` into a
    temporary UTF-8 file beside ``path``, lines untranslated.  Once every
    writer has returned, each is renamed over its path; on any error all
    are deleted."""
    staged: list[tuple[Path, Path]] = []
    try:
        for k, (path, writer, value) in enumerate(outputs):
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{k}.tmp")
            try:
                fh = open(tmp, "w", encoding="utf-8", newline="")
            except OSError as exc:  # name the file asked for, not the temporary one
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
            staged.append((tmp, path))
            with fh:
                writer(value, fh)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def write_file(path: str | Path, writer: Callable[[Any, TextIO], Any],
               value: Any) -> None:
    """:func:`write_files` with one output."""
    write_files((path, writer, value))


def read_file(path: str | Path, reader: Callable[[TextIO], Any]) -> Any:
    """``reader(fh)`` on ``path``, opened as :func:`write_files` opens."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return reader(fh)


class _Stage:
    """What a running stage records: the artifacts it wrote, or why not."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []
        self.skip_reason: str | None = None

    def write(self, filename: str, writer: Callable[[Any, TextIO], Any],
              value: Any) -> None:
        """``write_file`` into ``filename``, registered first so that a
        failing stage also deletes the copy an earlier run left there."""
        path = self.out_dir / filename
        self.paths.append(path)
        write_file(path, writer, value)


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute every stage and write the manifest.

    A failing stage has its partial artifacts deleted; the manifest is
    still written, marked failed with the stage named, and a StageError
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
    partition_seed, teams_seed, diffusion_seed = (
        derive_seed(config.seed, stage)
        for stage in ("partition", "teams", "diffusion"))

    def finish(status: str, failed_stage: str | None = None) -> Path:
        manifest["status"] = status
        manifest["failed_stage"] = failed_stage
        manifest_path = out_dir / MANIFEST_NAME
        write_file(manifest_path, write_json, manifest)
        write_file(out_dir / TIMINGS_NAME, write_json,
                   {"stages": timings, "total": sum(timings.values())})
        return manifest_path

    @contextmanager
    def stage(name: str, seed: int | None = None) -> Iterator[_Stage]:
        st = _Stage(out_dir)
        start = time.perf_counter()
        try:
            yield st
        except Exception as exc:
            timings[name] = time.perf_counter() - start
            for path in st.paths:
                path.unlink(missing_ok=True)
            manifest["stages"].append({
                "name": name, "seed": seed, "status": "failed",
                "reason": str(exc), "artifacts": {}})
            finish("failed", name)
            raise StageError(name, exc) from exc
        timings[name] = time.perf_counter() - start
        manifest["stages"].append({
            "name": name, "seed": seed,
            "status": "skipped" if st.skip_reason else "ok",
            "reason": st.skip_reason,
            "artifacts": {p.name: _sha256_file(p) for p in st.paths}})

    # ingest: corpus -> reply graph
    with stage("ingest") as st:
        parsed = read_file(input_path, parse_forum_export)
        g, report = build_reply_graph(parsed.messages, policy=config.policy())
        st.write("graph.csv", write_graph_csv, g)
        manifest["corpus"] = {
            "messages": parsed.parsed,
            "skipped_lines": parsed.skipped,
            "anonymous_messages": parsed.anonymous,
            "interactions": report.interactions,
            "dropped_missing_parent": report.dropped_missing_parent,
            "dropped_anonymous": report.dropped_anonymous,
            "dropped_self_reply": report.dropped_self_reply,
        }
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
        profiles = build_skill_profiles(
            parsed.messages, k=config.skill_k, min_len=config.skill_min_len,
            use_idf=config.skill_idf)
        if metrics:
            ranks = {s: m.pagerank for s, m in metrics.items()}
            profiles = refine_by_rank(profiles, ranks, beta=config.skill_beta)
        st.write("skills.json", write_skills_json, profiles)

    with stage("partition", partition_seed) as st:
        partition = (skill_partition(profiles.values(),
                                     min(config.n_groups, len(profiles)),
                                     seed=partition_seed) if profiles else {})
        st.write("partition.json", write_partition_json, partition)

    # brokerage roles against the skill partition, then the full table
    with stage("tabulate") as st:
        groups = dict(partition)
        for node in g.nodes:
            groups.setdefault(node, UNOBSERVED_GROUP)
        roles = brokerage_counts(g, groups)
        for node, record in metrics.items():
            record.brokerage = roles[node]
        st.write("metrics.csv", write_metrics_csv, metrics)

    with stage("teams", teams_seed) as st:
        assignment = None
        if g.node_count < config.s_min:
            st.skip_reason = (f"{g.node_count} students cannot fill a team "
                              f"of {config.s_min}")
        else:
            assignment = form_teams(
                g, metrics, s_min=config.s_min, s_max=config.s_max,
                weights=config.weights(), restarts=config.restarts,
                iterations=config.team_iterations, seed=teams_seed,
                allow_oversize=config.allow_oversize)
            st.write("teams.json", write_roster_json, assignment)

    with stage("diffusion", diffusion_seed) as st:
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
                seed=diffusion_seed,
                uniform=config.diffusion_uniform)
            st.write("trace.csv", write_trace_csv, simulate(g, spec))

    with stage("export") as st:
        st.write("graph.dot", lambda text, fh: fh.write(text),
                 export_dot(g, assignment))

    return PipelineResult(manifest=manifest, manifest_path=finish("complete"),
                          graph=g, metrics=metrics)
