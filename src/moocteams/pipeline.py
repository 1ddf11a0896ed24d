"""End-to-end pipeline: corpus file in, analysis artifacts out.

Stage order is ingest, rank metrics, skills, partition, brokerage
table, teams, diffusion, export.  Rank metrics and raw skill profiling
depend only on the ingest output and could run concurrently; skill
refinement is what couples them.  Every stage's artifacts are hashed
into a manifest whose bytes are reproducible for a fixed corpus,
settings and seed, wherever the corpus and the output directory live;
wall-clock timings go to a separate file so they cannot break that
reproducibility.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from ._version import __version__
from .diffusion import FlowSpec, simulate, write_trace_csv
from .errors import MoocteamsError, ParameterError
from .graph import SocialGraph, write_graph_csv
from .ingest import ReplyPolicy, build_reply_graph, parse_forum_export
from .metrics import (NodeMetrics, brokerage_counts,
                      compute_metrics_without_brokerage, write_metrics_csv)
from .report import export_dot
from .skills import (build_skill_profiles, refine_by_rank, skill_partition,
                     write_partition_json, write_skills_json)
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
    """

    input_path: str
    output_dir: str
    seed: int = 0
    reply_policy: str = "starter_fallback"
    damping: float = 0.85
    pagerank_tol: float = 1e-10
    pagerank_max_iter: int = 200
    rank_tol: float = 1e-12
    rank_max_iter: int = 1000
    farness_penalty: float | None = None
    skill_k: int = 5
    skill_beta: float = 1.0
    skill_min_len: int = 3
    skill_idf: bool = False
    n_groups: int = 5
    s_min: int = 3
    s_max: int = 5
    allow_oversize: bool = False
    w_cost: float = 1.0 / 3.0
    w_hole: float = 1.0 / 3.0
    w_balance: float = 1.0 / 3.0
    restarts: int = 8
    team_iterations: int = 300
    run_diffusion: bool = True
    diffusion_mechanism: str = "TRANSFER"
    diffusion_trajectory: str = "WALK"
    diffusion_steps: int = 20
    diffusion_replications: int = 50
    diffusion_uniform: bool = False

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
        for name in ("pagerank_tol", "rank_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be positive and finite")
        if not (self.farness_penalty is None
                or 0.0 <= self.farness_penalty < math.inf):
            raise ParameterError("farness_penalty must be non-negative and finite")
        for name in ("pagerank_max_iter", "rank_max_iter", "skill_k",
                     "skill_min_len", "n_groups", "restarts",
                     "diffusion_steps", "diffusion_replications"):
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
    output_dir: Path
    graph: SocialGraph | None = None
    metrics: dict[str, NodeMetrics] = field(default_factory=dict)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


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
    state: dict[str, Any] = {}
    partition_seed, teams_seed, diffusion_seed = (
        derive_seed(config.seed, stage)
        for stage in ("partition", "teams", "diffusion"))

    def finish(status: str, failed_stage: str | None = None) -> Path:
        manifest["status"] = status
        manifest["failed_stage"] = failed_stage
        manifest_path = out_dir / MANIFEST_NAME
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out_dir / TIMINGS_NAME, "w", encoding="utf-8") as fh:
            json.dump({"stages": timings, "total": sum(timings.values())},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest_path

    def run_stage(name: str, seed: int | None,
                  fn: Callable[[], tuple[list[Path], str | None]]) -> None:
        state["_partial"] = []
        start = time.perf_counter()
        try:
            written, skip_reason = fn()
        except Exception as exc:
            timings[name] = time.perf_counter() - start
            for path in state.get("_partial", []):
                Path(path).unlink(missing_ok=True)
            manifest["stages"].append({
                "name": name, "seed": seed, "status": "failed",
                "reason": str(exc), "artifacts": {}})
            finish("failed", name)
            raise StageError(name, exc) from exc
        timings[name] = time.perf_counter() - start
        entry: dict[str, Any] = {
            "name": name,
            "seed": seed,
            "status": "skipped" if skip_reason else "ok",
            "reason": skip_reason,
            "artifacts": {p.name: _sha256_file(p) for p in written},
        }
        manifest["stages"].append(entry)

    def writes(*paths: Path):
        state["_partial"] = list(paths)
        return paths

    # ingest: corpus -> reply graph
    def stage_ingest():
        with open(input_path, "r", encoding="utf-8") as fh:
            parsed = parse_forum_export(fh)
        graph, report = build_reply_graph(parsed.messages, policy=config.policy())
        state["graph"] = graph
        state["messages"] = parsed.messages
        path, = writes(out_dir / "graph.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_graph_csv(graph, fh)
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
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "total_weight": graph.total_weight,
        }
        return [path], None

    # rank metrics: everything except brokerage, which needs the partition
    def stage_metrics():
        g = state["graph"]
        state["metrics"] = compute_metrics_without_brokerage(
            g, damping=config.damping, pagerank_tol=config.pagerank_tol,
            pagerank_max_iter=config.pagerank_max_iter,
            tol=config.rank_tol, max_iter=config.rank_max_iter,
            farness_penalty=config.farness_penalty)
        return [], None

    def stage_skills():
        metrics = state["metrics"]
        profiles = build_skill_profiles(
            state["messages"], k=config.skill_k, min_len=config.skill_min_len,
            use_idf=config.skill_idf)
        if metrics and config.skill_beta > 0:
            ranks = {s: m.pagerank for s, m in metrics.items()}
            profiles = refine_by_rank(profiles, ranks, beta=config.skill_beta)
        state["profiles"] = profiles
        path, = writes(out_dir / "skills.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_skills_json(profiles, fh)
        return [path], None

    def stage_partition():
        profiles = state["profiles"]
        groups = min(config.n_groups, len(profiles)) if profiles else 0
        partition = (skill_partition(profiles.values(), groups,
                                     seed=partition_seed) if groups else {})
        state["partition"] = partition
        path, = writes(out_dir / "partition.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_partition_json(partition, fh)
        return [path], None

    # brokerage roles against the skill partition, then the full table
    def stage_tabulate():
        g = state["graph"]
        metrics = state["metrics"]
        partition = dict(state["partition"])
        for node in g.nodes:
            partition.setdefault(node, "unobserved")
        roles = brokerage_counts(g, partition)
        for node, record in metrics.items():
            record.brokerage = roles[node]
        path, = writes(out_dir / "metrics.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_metrics_csv(metrics, fh)
        return [path], None

    def stage_teams():
        g = state["graph"]
        if g.node_count < config.s_min:
            state["assignment"] = None
            return [], f"{g.node_count} students cannot fill a team of {config.s_min}"
        assignment = form_teams(
            g, state["metrics"], s_min=config.s_min, s_max=config.s_max,
            weights=config.weights(), restarts=config.restarts,
            iterations=config.team_iterations,
            seed=teams_seed,
            allow_oversize=config.allow_oversize)
        state["assignment"] = assignment
        path, = writes(out_dir / "teams.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_roster_json(assignment, fh)
        return [path], None

    def stage_diffusion():
        g = state["graph"]
        if not config.run_diffusion:
            return [], "disabled by config"
        if g.edge_count == 0:
            return [], "graph has no edges"
        metrics = state["metrics"]
        source = min(metrics, key=lambda v: (-metrics[v].pagerank, v))
        spec = FlowSpec(
            mechanism=config.diffusion_mechanism,
            trajectory=config.diffusion_trajectory,
            sources=(source,),
            max_steps=config.diffusion_steps,
            replications=config.diffusion_replications,
            seed=diffusion_seed,
            uniform=config.diffusion_uniform)
        trace = simulate(g, spec)
        path, = writes(out_dir / "trace.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_trace_csv(trace, fh)
        return [path], None

    def stage_export():
        g = state["graph"]
        path, = writes(out_dir / "graph.dot")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(export_dot(g, state.get("assignment")))
        return [path], None

    run_stage("ingest", None, stage_ingest)
    run_stage("metrics", None, stage_metrics)
    run_stage("skills", None, stage_skills)
    run_stage("partition", partition_seed, stage_partition)
    run_stage("tabulate", None, stage_tabulate)
    run_stage("teams", teams_seed, stage_teams)
    run_stage("diffusion", diffusion_seed, stage_diffusion)
    run_stage("export", None, stage_export)

    manifest_path = finish("complete")
    return PipelineResult(manifest=manifest, manifest_path=manifest_path,
                          output_dir=out_dir, graph=state.get("graph"),
                          metrics=state.get("metrics", {}))
