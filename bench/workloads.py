"""The benchmark's workloads, their correctness checks and traced runs.

Each workload drives the public ``moocteams`` API from outside.  Its
``setup`` makes the inputs from the workload seed and is never part of
``run_s``; ``execute`` is the measured operation plus the checks on its
output; ``traced`` repeats the measured work with a span around each
call into a layer and returns the per-layer metrics.  Why each workload
exists, and which end-to-end metric each layer metric should move, is in
README.md beside this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from moocteams import (FlowSpec, RunConfig, SynthParams,
                       brokerage_counts, build_reply_graph,
                       build_skill_profiles, burt_constraint,
                       clustering_coefficient, derive_seed, effective_size,
                       eigencentrality, export_dot, farness, form_teams,
                       full_typology_specs, graph_objective, hits, pagerank,
                       parse_forum_export, refine_skills, rewire_optimize,
                       run_pipeline, simulate, skill_partition, synth_corpus)
from moocteams.diffusion import write_trace_csv
from moocteams.errors import UndefinedMetricError
from moocteams.graph import write_graph_csv
from moocteams.ingest import write_jsonl
from moocteams.metrics import NodeMetrics, write_metrics_csv
from moocteams.pipeline import TIMINGS_NAME
from moocteams.skills import write_partition_json, write_skills_json
from moocteams.teams import read_roster_json, write_roster_json

from spans import Tracer

#: Counts of the acceptance-criterion-7 corpus (771 students, 7 282 edges
#: at its own seed); the 4x workload multiplies every count by four.
CORPUS_1X = {"students": 771, "threads": 665, "posts": 1800, "comments": 7000}

PIPELINE_STAGES = ("ingest", "metrics", "skills", "partition", "tabulate",
                   "teams", "diffusion", "export")


@dataclass
class Outcome:
    """One execution of a workload's measured operation."""

    seconds: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scaled(counts: dict[str, int], factor: float) -> dict[str, int]:
    return {k: max(1, round(v * factor)) for k, v in counts.items()}


#: Warm-up and self-test scale (31 students).
TOY_CORPUS = scaled(CORPUS_1X, 0.04)


def write_corpus(counts: dict[str, int], seed: int, work: Path) -> Path:
    """Empty ``work`` and write a synthetic corpus into it."""
    path = fresh_dir(work) / "corpus.jsonl"
    messages = synth_corpus(SynthParams(seed=seed, **counts))
    with open(path, "w", encoding="utf-8") as fh:
        write_jsonl(messages, fh)
    return path


def read_graph(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        parsed = parse_forum_export(fh)
    graph, _ = build_reply_graph(parsed.messages)
    return graph


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def degree_profile(g):
    return ({v: len(g.out_neighbors(v)) for v in g.nodes},
            {v: len(g.in_neighbors(v)) for v in g.nodes})


# -- pipeline-1x / pipeline-4x ----------------------------------------------

@dataclass
class PipelineState:
    config: RunConfig
    first: dict[str, str] | None = None   # artifact digests of execution 1


class PipelineWorkload:
    """One ``run_pipeline`` call with the default ``RunConfig``."""

    ops_per_execution = 1

    def __init__(self, name: str, counts: dict[str, int]):
        self.name = name
        self.counts = counts

    def toy(self) -> "PipelineWorkload":
        return PipelineWorkload(self.name, TOY_CORPUS)

    def setup(self, seed: int, work: Path) -> PipelineState:
        corpus = write_corpus(self.counts, seed, work)
        # fixed paths: the manifest embeds them, and it must repeat
        return PipelineState(RunConfig(str(corpus), str(work / "run"), seed=seed))

    def execute(self, state: PipelineState) -> Outcome:
        start = time.perf_counter()
        result = run_pipeline(state.config)
        out = Outcome(time.perf_counter() - start, self.ops_per_execution)
        out_dir = Path(state.config.output_dir)
        if result.manifest["status"] != "complete":
            out.problems.append(f"manifest status {result.manifest['status']!r}")
        out.digests = {p.name: sha256(p.read_bytes())
                       for p in sorted(out_dir.iterdir()) if p.name != TIMINGS_NAME}
        if state.first is None:
            state.first = out.digests
        elif out.digests != state.first:
            changed = sorted(k for k in set(out.digests) | set(state.first)
                             if out.digests.get(k) != state.first.get(k))
            out.problems.append(f"artifacts differ between executions: {changed}")
        with open(out_dir / "teams.json", "r", encoding="utf-8") as fh:
            roster = read_roster_json(fh)
        out.problems += roster_problems(roster, result.graph.nodes, state.config)
        out.values["teams_objective"] = roster.objective
        out.failed = min(len(out.problems), out.attempted)
        return out

    def traced(self, state: PipelineState, untraced: Outcome,
               tracer: Tracer) -> tuple[dict[str, float], list[str]]:
        """Mirror ``run_pipeline`` call by call, one span per library call.

        ``compute_node_metrics`` is replaced by its individual metric
        calls.  The mirror writes its own artifacts, which must equal the
        untraced execution's byte for byte.
        """
        config = state.config
        out_dir = fresh_dir(Path(config.output_dir).parent / "traced")
        artifacts: list[Path] = []

        def emit(name: str, text_writer, newline=None) -> None:
            path = out_dir / name
            with open(path, "w", encoding="utf-8", newline=newline) as fh:
                text_writer(fh)
            artifacts.append(path)

        with tracer.span("pipeline"):
            with tracer.span("stage.ingest"):
                with tracer.span("ingest.parse"):
                    with open(config.input_path, "r", encoding="utf-8") as fh:
                        parsed = parse_forum_export(fh)
                with tracer.span("ingest.build"):
                    g, _ = build_reply_graph(parsed.messages, policy=config.policy())
                emit("graph.csv", lambda fh: write_graph_csv(g, fh), newline="")
            with tracer.span("stage.metrics"):
                metrics, solvers = traced_node_metrics(g, config, tracer)
            with tracer.span("stage.skills"):
                with tracer.span("skills.profile"):
                    profiles = build_skill_profiles(
                        parsed.messages, k=config.skill_k,
                        min_len=config.skill_min_len, use_idf=config.skill_idf)
                with tracer.span("skills.refine"):
                    if metrics and config.skill_beta > 0:
                        max_pr = max(m.pagerank for m in metrics.values())
                        profiles = {
                            s: refine_skills(p, metrics[s].pagerank / max_pr
                                             if max_pr > 0 else 0.0,
                                             beta=config.skill_beta)
                            for s, p in profiles.items()}
                emit("skills.json", lambda fh: write_skills_json(profiles, fh))
            with tracer.span("stage.partition"):
                groups = min(config.n_groups, len(profiles)) if profiles else 0
                with tracer.span("skills.partition"):
                    partition = (skill_partition(
                        profiles.values(), groups,
                        seed=derive_seed(config.seed, "partition"))
                        if groups else {})
                emit("partition.json", lambda fh: write_partition_json(partition, fh))
            with tracer.span("stage.tabulate"):
                full = dict(partition)
                for node in g.nodes:
                    full.setdefault(node, "unobserved")
                with tracer.span("tabulate.brokerage"):
                    roles = brokerage_counts(g, full)
                for node, record in metrics.items():
                    record.brokerage = roles[node]
                emit("metrics.csv", lambda fh: write_metrics_csv(metrics, fh),
                     newline="")
            with tracer.span("stage.teams"):
                with tracer.span("teams.form"):
                    assignment = form_teams(
                        g, metrics, s_min=config.s_min, s_max=config.s_max,
                        weights=config.weights(), restarts=config.restarts,
                        iterations=config.team_iterations,
                        seed=derive_seed(config.seed, "teams"),
                        allow_oversize=config.allow_oversize)
                emit("teams.json", lambda fh: write_roster_json(assignment, fh))
            with tracer.span("stage.diffusion"):
                source = min(metrics, key=lambda v: (-metrics[v].pagerank, v))
                spec = FlowSpec(
                    mechanism=config.diffusion_mechanism,
                    trajectory=config.diffusion_trajectory,
                    sources=(source,), max_steps=config.diffusion_steps,
                    replications=config.diffusion_replications,
                    seed=derive_seed(config.seed, "diffusion"),
                    uniform=config.diffusion_uniform)
                cell = cell_name(spec)
                with tracer.span(cell):
                    trace = simulate(g, spec)
                emit("trace.csv", lambda fh: write_trace_csv(trace, fh), newline="")
            with tracer.span("stage.export"):
                with tracer.span("report.export_dot"):
                    dot = export_dot(g, assignment)
                emit("graph.dot", lambda fh: fh.write(dot))

        problems = [f"traced {p.name} differs from the untraced run"
                    for p in artifacts
                    if sha256(p.read_bytes()) != untraced.digests.get(p.name)]

        with open(Path(config.output_dir) / TIMINGS_NAME, encoding="utf-8") as fh:
            timings = json.load(fh)
        layers: dict[str, float] = {}
        for stage in PIPELINE_STAGES:
            layers[f"pipeline.{stage}_s"] = timings["stages"][stage]
        layers["ingest.messages"] = len(parsed.messages)
        layers["ingest.edges"] = g.edge_count
        for name in ("ingest.parse", "ingest.build", "skills.profile",
                     "skills.refine", "skills.partition", "tabulate.brokerage",
                     "teams.form", "report.export_dot"):
            layers[f"{name}_s"] = tracer.total(name)
        metric_spans = 0.0
        for name in METRIC_CALLS:
            layers[f"metrics.{name}_s"] = tracer.total(f"metrics.{name}")
            metric_spans += layers[f"metrics.{name}_s"]
        layers.update(solvers)
        layers.update(cell_layers(cell, tracer, trace))
        layers["teams.objective"] = assignment.objective
        layers["trace.overhead_s"] = tracer.total("pipeline") - timings["total"]
        layers["trace.metrics_gap"] = metric_spans / layers["pipeline.metrics_s"] - 1.0
        # same execution, so free of run-to-run speed changes: the share of
        # the traced metrics stage that no per-call span covers
        layers["trace.metrics_self_ratio"] = 1.0 - metric_spans / tracer.total("stage.metrics")
        return layers, problems


#: The calls ``compute_node_metrics`` makes, in the order it makes them.
METRIC_CALLS = ("pagerank", "hits", "eigen", "brokerage", "constraint",
                "effective_size", "farness", "clustering")


def traced_node_metrics(g, config: RunConfig, tracer: Tracer):
    """``compute_node_metrics(g, partition=None, ...)`` as separate spans."""
    with tracer.span("metrics.pagerank"):
        pr = pagerank(g, damping=config.damping, tol=config.pagerank_tol,
                      max_iter=config.pagerank_max_iter)
    with tracer.span("metrics.hits"):
        auth, hub = hits(g, tol=config.rank_tol, max_iter=config.rank_max_iter)
    with tracer.span("metrics.eigen"):
        eig = eigencentrality(g, tol=config.rank_tol, max_iter=config.rank_max_iter)
    with tracer.span("metrics.brokerage"):
        roles = brokerage_counts(g, {n: "all" for n in g.nodes})
    table = {}
    for node in g.nodes:
        try:
            with tracer.span("metrics.constraint"):
                constraint = burt_constraint(g, node)
            with tracer.span("metrics.effective_size"):
                eff = effective_size(g, node)
        except UndefinedMetricError:
            constraint = eff = math.nan
        with tracer.span("metrics.farness"):
            far = farness(g, node, penalty=config.farness_penalty)
        with tracer.span("metrics.clustering"):
            clustering = clustering_coefficient(g, node)
        table[node] = NodeMetrics(
            student=node, pagerank=pr[node], authority=auth[node], hub=hub[node],
            farness=far, clustering=clustering, eigencentrality=eig[node],
            constraint=constraint, effective_size=eff, brokerage=roles[node])
    solvers = {}
    for name, scores in (("pagerank", pr), ("hits", auth), ("eigen", eig)):
        solvers[f"metrics.{name}_iters"] = scores.iterations
        solvers[f"metrics.{name}_converged"] = int(scores.converged)
    return table, solvers


def roster_problems(roster, nodes, config: RunConfig) -> list[str]:
    """Every student in exactly one team, every team within the size bounds.

    As ``moocteams.teams`` documents, one remainder team smaller than
    ``s_min`` (but of at least 2 students) is allowed when the cohort
    does not split evenly.
    """
    problems = []
    members = Counter(s for team in roster.teams for s in team)
    if set(members) != set(nodes) or any(c != 1 for c in members.values()):
        problems.append("roster does not hold every student exactly once")
    outside = [len(t) for t in roster.teams
               if not config.s_min <= len(t) <= config.s_max]
    if outside and not (len(outside) == 1 and 2 <= outside[0] < config.s_min):
        problems.append(f"team sizes outside [{config.s_min}, {config.s_max}]: {outside}")
    return problems


# -- typology ---------------------------------------------------------------

def cell_name(spec: FlowSpec) -> str:
    return f"diffusion.{spec.mechanism.value}.{spec.trajectory.value}"


def cell_layers(cell: str, tracer: Tracer, trace) -> dict[str, float]:
    # receipts are summed over replications (PARALLEL_DUP runs once and is
    # scaled), so dividing by replications gives deliveries per replication
    return {f"{cell}_s": tracer.total(cell),
            f"{cell}.deliveries": sum(trace.receipts.values()) / trace.spec.replications,
            f"{cell}.truncated": int(trace.truncated)}


@dataclass
class TypologyState:
    graph: object
    specs: list[FlowSpec]
    first: dict[str, str] | None = None   # trace.csv digest per cell


class TypologyWorkload:
    """All 12 mechanism x trajectory cells from the top-PageRank student."""

    ops_per_execution = 12

    def __init__(self, name: str, counts: dict[str, int], replications: int):
        self.name = name
        self.counts = counts
        self.replications = replications

    def toy(self) -> "TypologyWorkload":
        return TypologyWorkload(self.name, TOY_CORPUS, 2)

    def setup(self, seed: int, work: Path) -> TypologyState:
        corpus = write_corpus(self.counts, seed, work)
        g = read_graph(corpus)
        pr = pagerank(g)
        source = min(pr, key=lambda v: (-pr[v], v))
        specs = full_typology_specs([source], replications=self.replications,
                                    seed=seed)
        return TypologyState(g, specs)

    def _cells(self, state: TypologyState, tracer: Tracer | None):
        seconds = 0.0
        traces = {}
        for spec in state.specs:
            cell = cell_name(spec)
            start = time.perf_counter()
            if tracer is None:
                traces[cell] = simulate(state.graph, spec)
            else:
                with tracer.span(cell):
                    traces[cell] = simulate(state.graph, spec)
            seconds += time.perf_counter() - start
        out = Outcome(seconds, self.ops_per_execution)
        for cell, trace in traces.items():
            buf = io.StringIO()
            write_trace_csv(trace, buf)
            out.digests[cell] = sha256(buf.getvalue().encode())
        if state.first is None:
            state.first = out.digests
        else:
            out.problems = [f"{cell} trace.csv differs between executions"
                            for cell in state.first
                            if out.digests.get(cell) != state.first[cell]]
        out.failed = len(out.problems)
        return out, traces

    def execute(self, state: TypologyState) -> Outcome:
        return self._cells(state, None)[0]

    def traced(self, state: TypologyState, untraced: Outcome,
               tracer: Tracer) -> tuple[dict[str, float], list[str]]:
        with tracer.span("typology"):
            out, traces = self._cells(state, tracer)
        layers: dict[str, float] = {}
        for cell, trace in traces.items():
            layers.update(cell_layers(cell, tracer, trace))
        layers["trace.overhead_s"] = tracer.total("typology") - untraced.seconds
        return layers, out.problems


# -- rewire -------------------------------------------------------------------

@dataclass
class RewireState:
    graph: object
    seed: int
    first: object = None   # RewireResult of execution 1


class RewireWorkload:
    """One ``rewire_optimize`` call on a synthetic reply graph."""

    ops_per_execution = 1

    def __init__(self, name: str, counts: dict[str, int], iterations: int):
        self.name = name
        self.counts = counts
        self.iterations = iterations

    def toy(self) -> "RewireWorkload":
        return RewireWorkload(self.name, TOY_CORPUS, 20)

    def setup(self, seed: int, work: Path) -> RewireState:
        corpus = write_corpus(self.counts, seed, work)
        return RewireState(read_graph(corpus), seed)

    def _optimize(self, state: RewireState):
        return rewire_optimize(state.graph, iterations=self.iterations,
                               seed=state.seed)

    def execute(self, state: RewireState) -> Outcome:
        start = time.perf_counter()
        result = self._optimize(state)
        out = Outcome(time.perf_counter() - start, self.ops_per_execution)
        g = state.graph
        if not result.final_score >= result.initial_score:
            out.problems.append("final score below the initial score")
        if degree_profile(result.graph) != degree_profile(g):
            out.problems.append("in/out-degree profile changed")
        if sorted(w for _, _, w in result.graph.edges()) != \
                sorted(w for _, _, w in g.edges()):
            out.problems.append("edge weight multiset changed")
        if state.first is None:
            state.first = result
        elif (result.graph != state.first.graph
              or result.final_score != state.first.final_score):
            out.problems.append("same seed gave a different rewired graph")
        out.values["rewire_ms_per_iter"] = 1000.0 * out.seconds / result.iterations
        out.values["rewire_improvement"] = result.improvement
        out.failed = min(len(out.problems), out.attempted)
        return out

    def traced(self, state: RewireState, untraced: Outcome,
               tracer: Tracer) -> tuple[dict[str, float], list[str]]:
        with tracer.span("rewire.objective"):
            graph_objective(state.graph)
        with tracer.span("rewire.optimize"):
            result = self._optimize(state)
        seconds = tracer.total("rewire.optimize")
        problems = []
        if result.graph != state.first.graph:
            problems.append("traced rewire result differs from the untraced one")
        return {
            "rewire.objective_s": tracer.total("rewire.objective"),
            "rewire.iterations": result.iterations,
            "rewire.accepted": result.accepted,
            "rewire.accept_ratio": result.accepted / result.iterations,
            "rewire.ms_per_iter": 1000.0 * seconds / result.iterations,
            "rewire.improvement": result.improvement,
            "trace.overhead_s": seconds - untraced.seconds,
        }, problems


WORKLOADS = {w.name: w for w in (
    PipelineWorkload("pipeline-1x", CORPUS_1X),
    PipelineWorkload("pipeline-4x", scaled(CORPUS_1X, 4)),
    TypologyWorkload("typology", CORPUS_1X, replications=20),
    RewireWorkload("rewire", scaled(CORPUS_1X, 200 / 771), iterations=100),
)}
