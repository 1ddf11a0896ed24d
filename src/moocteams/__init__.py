"""Reply-graph analytics and team formation for discussion forums.

The package turns a forum export into a weighted directed reply graph,
computes per-student network metrics, mines skill profiles from post
text, searches for well-structured teams, and simulates how information
flows through the cohort.
"""

from ._version import __version__
from .diffusion import (NEVER, DiffusionTrace, FlowSpec, Mechanism,
                        Trajectory, flow_centrality_correlation,
                        full_typology_specs, rank_correlation, simulate,
                        typology_report)
from .errors import (DataFormatError, InsufficientDataError, MissingNodeError,
                     MoocteamsError, ParameterError, UndefinedMetricError)
from .graph import (SocialGraph, StudentId, geodesic_distances,
                    read_graph_csv, write_graph_csv)
from .ingest import (ForumMessage, ReplyPolicy, SynthParams,
                     build_reply_graph, parse_forum_export, synth_corpus)
from .metrics import (BrokerageCounts, NodeMetrics, burt_constraint,
                      brokerage_counts, clustering_coefficient,
                      compute_node_metrics, effective_size, eigencentrality,
                      farness, hits, pagerank)
from .pipeline import RunConfig, StageError, derive_seed, run_pipeline
from .report import (OpinionRecord, aggregate_opinions, experiment_split,
                     export_dot)
from .rewire import RewireResult, graph_objective, rewire_optimize
from .skills import (SkillProfile, build_skill_profiles, refine_skills,
                     skill_partition, term_distribution, top_k_skills)
from .teams import (ObjectiveWeights, TeamAssignment, brokerage_balance,
                    brute_force_teams, collaboration_cost, enumerate_partitions,
                    form_teams, objective, structural_hole_score, team_sizes)

__all__ = [
    "__version__",
    "BrokerageCounts", "DataFormatError", "DiffusionTrace", "FlowSpec",
    "ForumMessage", "InsufficientDataError", "Mechanism", "MissingNodeError",
    "MoocteamsError", "NEVER", "NodeMetrics", "ObjectiveWeights",
    "OpinionRecord", "ParameterError", "ReplyPolicy", "RewireResult",
    "RunConfig", "SkillProfile", "SocialGraph", "StageError", "StudentId",
    "SynthParams", "TeamAssignment", "Trajectory", "UndefinedMetricError",
    "aggregate_opinions", "brokerage_balance", "brokerage_counts",
    "brute_force_teams", "build_reply_graph", "build_skill_profiles",
    "burt_constraint", "clustering_coefficient", "collaboration_cost",
    "compute_node_metrics", "derive_seed", "effective_size",
    "eigencentrality", "enumerate_partitions", "experiment_split",
    "export_dot", "farness", "flow_centrality_correlation", "form_teams",
    "full_typology_specs", "geodesic_distances", "graph_objective", "hits",
    "objective", "pagerank", "parse_forum_export", "rank_correlation",
    "read_graph_csv", "refine_skills", "rewire_optimize", "run_pipeline",
    "simulate", "skill_partition", "structural_hole_score", "synth_corpus",
    "team_sizes", "term_distribution", "top_k_skills", "typology_report",
    "write_graph_csv",
]
