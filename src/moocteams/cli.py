"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 pipeline stage
failure.  Every flag for a RunConfig setting, in ``pipeline`` and in the
stage subcommands, is generated from its field: named after it, with the
field's default and type.  ``ingest``, ``skills`` and ``teams`` run the
pipeline's stage functions on a RunConfig of their flags, so their
``--seed`` is the master seed and one value reproduces a whole run.
``diffuse``'s flow flags (``--steps``, ``--replications``, ``--seed``,
``--copy-cap``, ``--uniform``) have no default: one left out keeps
FlowSpec's, or full_typology_specs' with ``--typology`` (the pipeline's
trace is ``--seed derive_seed(seed, "diffusion")``); its ``--mechanism``
and ``--trajectory`` default to the pipeline's; ``synth`` has one flag
per SynthParams field; no library default is repeated here.  Every flag
must be spelled in full, and an output flag without its input (``report
--summary-out`` without ``--opinions``) is a data error.  Every input
file is read through ``read_file``, and a command's outputs go through
one ``write_files`` call, so a failed command leaves no file behind and
every earlier file as it was.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from dataclasses import MISSING, asdict, fields

from ._version import __version__
from .diffusion import (FlowSpec, Mechanism, Trajectory, full_typology_specs,
                        simulate, typology_report, write_trace_csv,
                        write_typology_csv)
from .errors import MoocteamsError, ParameterError, require_known
from .formats import write_json
from .graph import read_graph_csv, write_graph_csv
from .ingest import SynthParams, parse_forum_export, synth_corpus, write_jsonl
from .metrics import (compute_node_metrics, pagerank, read_metrics_csv,
                      write_metrics_csv)
from .pipeline import (SETTINGS, RunConfig, StageError, ingest_stage,
                       partition_stage, read_file, run_pipeline, skills_stage,
                       teams_stage, write_file, write_files)
from .report import (SPLIT_SEED, aggregate_opinions, experiment_split,
                     read_opinions_jsonl, write_dot)
from .skills import read_partition_json, write_partition_json, write_skills_json
from .teams import brute_force_teams, read_roster_json, write_roster_json

USAGE_ERROR, DATA_ERROR, STAGE_ERROR = 1, 2, 3
_DEFAULTS = {f.name: f.default for f in SETTINGS}
_SYNTH_DEFAULTS = {f.name: f.default for f in fields(SynthParams)}
_FLOW_SETTINGS = ("max_steps", "replications", "seed", "copy_cap", "uniform")


class _Parser(argparse.ArgumentParser):
    """No abbreviated flags; bad usage exits 1 (argparse's own code is 2)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _config(args) -> RunConfig:
    """The validated RunConfig of a command's paths and setting flags; every
    setting the command has no flag for keeps its default."""
    given = vars(args)
    config = RunConfig(given.get("input"), given.get("output_dir"),
                       **{name: given[name] for name in _DEFAULTS.keys() & given.keys()})
    config.validate()
    return config


def _cmd_ingest(args) -> int:
    parsed, graph, report = ingest_stage(_config(args))
    write_file(args.output, write_graph_csv, graph)
    print(f"messages={parsed.parsed} skipped={parsed.skipped} "
          f"anonymous={parsed.anonymous} interactions={report.interactions} "
          f"nodes={graph.node_count} edges={graph.edge_count}")
    return 0


def _cmd_metrics(args) -> int:
    graph = read_file(args.graph, read_graph_csv)
    partition = (read_file(args.partition, read_partition_json)
                 if args.partition else None)
    table = compute_node_metrics(graph, partition=partition,
                                 damping=args.damping,
                                 pagerank_tol=args.pagerank_tol)
    write_file(args.output, write_metrics_csv, table)
    print(f"students={len(table)}")
    return 0


def _cmd_skills(args) -> int:
    config = _config(args)
    config.skill_min_len = args.min_len
    parsed = read_file(args.input, parse_forum_export)
    ranks = None  # without --graph, or at a beta of 0, no profile is refined
    if args.graph and config.skill_beta:
        graph = read_file(args.graph, read_graph_csv)
        ranks = pagerank(graph, config.damping, config.pagerank_tol) \
            if graph.node_count else {}
    profiles = skills_stage(parsed.messages, ranks, config)
    outputs = [(args.output, write_skills_json, profiles)]
    if args.partition_out:
        outputs.append((args.partition_out, write_partition_json,
                        partition_stage(profiles, config)))
    write_files(*outputs)
    print(f"profiles={len(profiles)}")
    return 0


def _cmd_teams(args) -> int:
    config = _config(args)
    graph = read_file(args.graph, read_graph_csv)
    table = read_file(args.metrics, read_metrics_csv)
    if args.brute_force:
        assignment = brute_force_teams(graph, table, config.s_min, config.s_max,
                                       weights=config.weights(),
                                       allow_oversize=config.allow_oversize)
    else:
        assignment = teams_stage(graph, table, config)
    write_file(args.output, write_roster_json, assignment)
    print(f"teams={len(assignment.teams)} objective={assignment.objective:.9g}")
    return 0


def _cmd_diffuse(args) -> int:
    graph = read_file(args.graph, read_graph_csv)
    sources = tuple(s for s in args.sources.split(",") if s)
    flow = {name: value for name, value in vars(args).items() if name in _FLOW_SETTINGS}
    if args.typology:
        if not args.metrics:
            raise ParameterError("--typology needs --metrics")
        table = read_file(args.metrics, read_metrics_csv)
        matrix = typology_report(graph, full_typology_specs(sources, **flow), table)
        write_file(args.output, write_typology_csv, matrix)
        print(f"cells={len(matrix.rows)}")
        return 0
    trace = simulate(graph, FlowSpec(args.mechanism, args.trajectory, sources,
                                     args.target, **flow))
    write_file(args.output, write_trace_csv, trace)
    reached = sum(1 for v in trace.first_arrival.values() if v is not None)
    print(f"reached={reached} steps={trace.steps_run} "
          f"truncated={trace.truncated} dropped={trace.spawns_dropped}")
    return 0


def _cmd_report(args) -> int:
    graph = read_file(args.graph, read_graph_csv)
    assignment = read_file(args.teams, read_roster_json) if args.teams else None
    if assignment:
        require_known((s for team in assignment.teams for s in team), graph)
    summary = split = None
    if args.summary_out and not args.opinions:
        raise ParameterError("--summary-out needs --opinions")
    if args.split_out and args.split is None:
        raise ParameterError("--split-out needs --split")
    if args.opinions:
        if assignment is None:
            raise ParameterError("--opinions needs --teams")
        records = read_file(args.opinions, read_opinions_jsonl)
        summary = asdict(aggregate_opinions(records, assignment))
    if args.split is not None:
        experimental, control = experiment_split(list(graph.nodes),
                                                 args.split, args.seed)
        split = {"experimental": list(experimental), "control": list(control)}
    outputs = []
    if args.dot_out:
        outputs.append((args.dot_out, lambda roster, fh: write_dot(graph, roster, fh),
                        assignment))
    if args.summary_out:
        outputs.append((args.summary_out, write_json, summary))
    if args.split_out:
        outputs.append((args.split_out, write_json, split))
    write_files(*outputs)
    if summary is not None and not args.summary_out:
        write_json(summary, sys.stdout)
    if split is not None:
        print(f"experimental={len(experimental)} control={len(control)}")
    return 0


def _cmd_synth(args) -> int:
    messages = synth_corpus(SynthParams(**{name: getattr(args, name)
                                           for name in _SYNTH_DEFAULTS}))
    write_file(args.output, write_jsonl, messages)
    print(f"messages={len(messages)}")
    return 0


def _cmd_pipeline(args) -> int:
    result = run_pipeline(_config(args))
    graph_info = result.manifest.get("graph", {})
    print(f"status={result.manifest['status']} "
          f"nodes={graph_info.get('nodes')} edges={graph_info.get('edges')} "
          f"manifest={result.manifest_path}")
    return 0


def _add_settings(p: argparse.ArgumentParser, names: Iterable[str],
                  defaults: dict = _DEFAULTS) -> None:
    """One flag per named field of ``defaults`` (RunConfig's settings unless
    given): the field's name with ``_`` written as ``-``, its default and its
    type; booleans take ``--name``/``--no-name``, and a field without a
    default is a required int."""
    for name in names:
        flag, default = "--" + name.replace("_", "-"), defaults[name]
        if isinstance(default, bool):
            p.add_argument(flag, action=argparse.BooleanOptionalAction,
                           default=default)
        elif default is MISSING:
            p.add_argument(flag, type=int, required=True)
        else:
            p.add_argument(flag, default=default, type=type(default))


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
    _add_settings(p, ["reply_policy"])
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("metrics", help="per-student metric table from a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--partition", help="group labels JSON for brokerage roles")
    _add_settings(p, ["damping"])
    p.add_argument("--pagerank-tol", type=float,
                   default=RunConfig.pagerank_tol)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("skills", help="skill profiles and skill partition")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-len", type=int, default=RunConfig.skill_min_len)
    p.add_argument("--graph", help="reply graph CSV; enables rank refinement")
    p.add_argument("--partition-out")
    _add_settings(p, ["skill_k", "skill_idf", "skill_beta", "n_groups",
                      "damping", "seed"])
    p.set_defaults(fn=_cmd_skills)

    p = sub.add_parser("teams", help="search for a team assignment")
    p.add_argument("--graph", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--output", required=True)
    _add_settings(p, ["s_min", "s_max", "w_cost", "w_hole", "w_balance",
                      "restarts", "team_iterations", "seed", "allow_oversize"])
    p.add_argument("--brute-force", action="store_true",
                   help="exhaustive search (max 10 students)")
    p.set_defaults(fn=_cmd_teams)

    p = sub.add_parser("diffuse", help="simulate information flow")
    p.add_argument("--graph", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sources", required=True,
                   help="comma-separated student ids")
    p.add_argument("--mechanism", default=_DEFAULTS["diffusion_mechanism"],
                   type=lambda v: Mechanism.parse(v).value)
    p.add_argument("--trajectory", default=_DEFAULTS["diffusion_trajectory"],
                   type=lambda v: Trajectory.parse(v).value)
    p.add_argument("--target")
    flow = p.add_argument_group("flow settings", "a flag left out keeps FlowSpec's "
                                "default, or full_typology_specs' with --typology")
    flow.add_argument("--steps", type=int, dest="max_steps", metavar="STEPS",
                      default=argparse.SUPPRESS)
    flow.add_argument("--replications", type=int, default=argparse.SUPPRESS)
    flow.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    flow.add_argument("--copy-cap", type=int, default=argparse.SUPPRESS)
    flow.add_argument("--uniform", action="store_true", default=argparse.SUPPRESS,
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
    p.add_argument("--seed", type=int, default=SPLIT_SEED)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic forum corpus")
    _add_settings(p, _SYNTH_DEFAULTS, _SYNTH_DEFAULTS)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("pipeline", help="run every stage end to end; one "
                       "flag per RunConfig setting, named after it")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    _add_settings(p, _DEFAULTS)
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
    except (MoocteamsError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return STAGE_ERROR if isinstance(exc, StageError) else DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
