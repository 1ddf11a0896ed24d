"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 pipeline stage
failure.  A single --seed per command derives any stage-level seeds, so
one value reproduces a whole run.  The pipeline flags are generated from
the RunConfig settings, each named after its field.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .diffusion import (FlowSpec, Mechanism, Trajectory, full_typology_specs,
                        simulate, typology_report, write_trace_csv,
                        write_typology_csv)
from .errors import MoocteamsError, ParameterError
from .graph import read_graph_csv, write_graph_csv
from .ingest import (ReplyPolicy, SynthParams, build_reply_graph,
                     parse_forum_export, synth_corpus, write_jsonl)
from .metrics import (compute_node_metrics, pagerank, read_metrics_csv,
                      write_metrics_csv)
from .pipeline import (SETTINGS, RunConfig, StageError, derive_seed,
                       run_pipeline)
from .report import (aggregate_opinions, experiment_split, export_dot,
                     read_opinions_jsonl)
from .skills import (build_skill_profiles, read_partition_json, refine_by_rank,
                     skill_partition, write_partition_json, write_skills_json)
from .teams import (ObjectiveWeights, brute_force_teams, form_teams,
                    read_roster_json, write_roster_json)

USAGE_ERROR, DATA_ERROR, STAGE_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_graph_csv(fh)


def _weights(value: str) -> ObjectiveWeights:
    parts = value.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("weights must be cost,hole,balance")
    try:
        w = ObjectiveWeights(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return w


def _cmd_ingest(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        parsed = parse_forum_export(fh)
    policy = ReplyPolicy[args.policy.upper()]
    graph, report = build_reply_graph(parsed.messages, policy=policy)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        write_graph_csv(graph, fh)
    print(f"messages={parsed.parsed} skipped={parsed.skipped} "
          f"anonymous={parsed.anonymous} interactions={report.interactions} "
          f"nodes={graph.node_count} edges={graph.edge_count}")
    return 0


def _cmd_metrics(args) -> int:
    graph = _read_graph(args.graph)
    partition = None
    if args.partition:
        with open(args.partition, "r", encoding="utf-8") as fh:
            partition = read_partition_json(fh)
    table = compute_node_metrics(graph, partition=partition,
                                 damping=args.damping,
                                 pagerank_tol=args.pagerank_tol)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        write_metrics_csv(table, fh)
    print(f"students={len(table)}")
    return 0


def _cmd_skills(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        parsed = parse_forum_export(fh)
    profiles = build_skill_profiles(parsed.messages, k=args.k,
                                    min_len=args.min_len, use_idf=args.idf)
    if args.graph:
        graph = _read_graph(args.graph)
        ranks = pagerank(graph) if graph.node_count else {}
        profiles = refine_by_rank(profiles, ranks, beta=args.beta)
    with open(args.output, "w", encoding="utf-8") as fh:
        write_skills_json(profiles, fh)
    if args.partition_out:
        groups = min(args.groups, len(profiles))
        partition = skill_partition(profiles.values(), groups,
                                    seed=args.seed) if groups else {}
        with open(args.partition_out, "w", encoding="utf-8") as fh:
            write_partition_json(partition, fh)
    print(f"profiles={len(profiles)}")
    return 0


def _cmd_teams(args) -> int:
    graph = _read_graph(args.graph)
    with open(args.metrics, "r", encoding="utf-8", newline="") as fh:
        table = read_metrics_csv(fh)
    if args.brute_force:
        assignment = brute_force_teams(graph, table, args.s_min, args.s_max,
                                       weights=args.weights,
                                       allow_oversize=args.allow_oversize)
    else:
        assignment = form_teams(graph, table, s_min=args.s_min,
                                s_max=args.s_max, weights=args.weights,
                                restarts=args.restarts,
                                iterations=args.iterations, seed=args.seed,
                                allow_oversize=args.allow_oversize)
    with open(args.output, "w", encoding="utf-8") as fh:
        write_roster_json(assignment, fh)
    print(f"teams={len(assignment.teams)} objective={assignment.objective:.9g}")
    return 0


def _cmd_diffuse(args) -> int:
    graph = _read_graph(args.graph)
    sources = tuple(s for s in args.sources.split(",") if s)
    if args.typology:
        if not args.metrics:
            raise ParameterError("--typology needs --metrics")
        with open(args.metrics, "r", encoding="utf-8", newline="") as fh:
            table = read_metrics_csv(fh)
        specs = full_typology_specs(sources, max_steps=args.steps,
                                    replications=args.replications,
                                    seed=args.seed, copy_cap=args.copy_cap,
                                    uniform=args.uniform)
        matrix = typology_report(graph, specs, table)
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            write_typology_csv(matrix, fh)
        print(f"cells={len(matrix.rows)}")
        return 0
    spec = FlowSpec(mechanism=args.mechanism, trajectory=args.trajectory,
                    sources=sources, target=args.target,
                    max_steps=args.steps, replications=args.replications,
                    seed=args.seed, copy_cap=args.copy_cap,
                    uniform=args.uniform)
    trace = simulate(graph, spec)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(trace, fh)
    reached = sum(1 for v in trace.first_arrival.values() if v is not None)
    print(f"reached={reached} steps={trace.steps_run} "
          f"truncated={trace.truncated}")
    return 0


def _cmd_report(args) -> int:
    graph = _read_graph(args.graph)
    assignment = None
    if args.teams:
        with open(args.teams, "r", encoding="utf-8") as fh:
            assignment = read_roster_json(fh)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(export_dot(graph, assignment))
    if args.opinions:
        if assignment is None:
            raise ParameterError("--opinions needs --teams")
        with open(args.opinions, "r", encoding="utf-8") as fh:
            records = read_opinions_jsonl(fh)
        summary = aggregate_opinions(records, assignment)
        payload = {
            "overall_mean": summary.overall_mean,
            "matched": summary.matched,
            "ignored": summary.ignored,
            "teams": [
                {"team": list(t.team), "count": t.count,
                 "mean_sentiment": t.mean_sentiment,
                 "earliest": t.earliest, "latest": t.latest}
                for t in summary.teams
            ],
        }
        out = open(args.summary_out, "w", encoding="utf-8") if args.summary_out \
            else sys.stdout
        try:
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        finally:
            if out is not sys.stdout:
                out.close()
    if args.split is not None:
        experimental, control = experiment_split(list(graph.nodes),
                                                 args.split, args.seed)
        payload = {"experimental": list(experimental), "control": list(control)}
        if args.split_out:
            with open(args.split_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"experimental={len(experimental)} control={len(control)}")
    return 0


def _cmd_synth(args) -> int:
    params = SynthParams(students=args.students, threads=args.threads,
                         posts=args.posts, comments=args.comments,
                         seed=args.seed,
                         anonymous_fraction=args.anonymous_fraction)
    messages = synth_corpus(params)
    with open(args.output, "w", encoding="utf-8") as fh:
        write_jsonl(messages, fh)
    print(f"messages={len(messages)}")
    return 0


def _cmd_pipeline(args) -> int:
    config = RunConfig(args.input, args.output_dir,
                       **{f.name: getattr(args, f.name) for f in SETTINGS})
    result = run_pipeline(config)
    graph_info = result.manifest.get("graph", {})
    print(f"status={result.manifest['status']} "
          f"nodes={graph_info.get('nodes')} edges={graph_info.get('edges')} "
          f"manifest={result.manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moocteams",
                     description="Reply-graph analytics and team formation "
                                 "for discussion forums.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest", help="forum JSONL export to reply-graph CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--policy", default="starter_fallback",
                   choices=["starter_fallback", "comments_only"])
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("metrics", help="per-student metric table from a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--partition", help="group labels JSON for brokerage roles")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--pagerank-tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("skills", help="skill profiles and skill partition")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--idf", action="store_true")
    p.add_argument("--graph", help="reply graph CSV; enables rank refinement")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--partition-out")
    p.add_argument("--groups", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_skills)

    p = sub.add_parser("teams", help="search for a team assignment")
    p.add_argument("--graph", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--s-min", type=int, default=3)
    p.add_argument("--s-max", type=int, default=5)
    p.add_argument("--weights", type=_weights, default=ObjectiveWeights())
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-oversize", action="store_true")
    p.add_argument("--brute-force", action="store_true",
                   help="exhaustive search (max 10 students)")
    p.set_defaults(fn=_cmd_teams)

    p = sub.add_parser("diffuse", help="simulate information flow")
    p.add_argument("--graph", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sources", required=True,
                   help="comma-separated student ids")
    p.add_argument("--mechanism", default="TRANSFER",
                   type=lambda v: Mechanism.parse(v).value)
    p.add_argument("--trajectory", default="WALK",
                   type=lambda v: Trajectory.parse(v).value)
    p.add_argument("--target")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--copy-cap", type=int)
    p.add_argument("--uniform", action="store_true",
                   help="uniform instead of weight-proportional hops")
    p.add_argument("--typology", action="store_true",
                   help="run all mechanism x trajectory cells")
    p.add_argument("--metrics", help="metrics CSV (required for --typology)")
    p.set_defaults(fn=_cmd_diffuse)

    p = sub.add_parser("report", help="exports, opinion summaries, cohort split")
    p.add_argument("--graph", required=True)
    p.add_argument("--teams")
    p.add_argument("--dot-out")
    p.add_argument("--opinions")
    p.add_argument("--summary-out")
    p.add_argument("--split", type=float,
                   help="experimental fraction in (0,1)")
    p.add_argument("--split-out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic forum corpus")
    p.add_argument("--students", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--posts", type=int, required=True)
    p.add_argument("--comments", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--anonymous-fraction", type=float, default=0.05)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("pipeline", help="run every stage end to end; one "
                       "flag per RunConfig setting, named after it")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    for f in SETTINGS:
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, action=argparse.BooleanOptionalAction,
                           default=f.default)
        else:
            p.add_argument(flag, default=f.default,
                           type=float if f.default is None else type(f.default))
    p.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_ERROR
    except MoocteamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
