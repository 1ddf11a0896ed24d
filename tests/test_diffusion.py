import math

import pytest

from moocteams.diffusion import (
    NEVER,
    FlowSpec,
    Mechanism,
    Trajectory,
    full_typology_specs,
    read_trace_csv,
    replicate_once,
    simulate,
    typology_report,
    write_trace_csv,
)
from moocteams.errors import MissingNodeError, ParameterError
from moocteams.graph import SocialGraph
from moocteams.metrics import compute_node_metrics

from oracles import random_digraph


def directed_path(n):
    return SocialGraph({(f"v{i}", f"v{i + 1}"): 1 for i in range(n - 1)})


def bidirectional_path(n):
    edges = {}
    for i in range(n - 1):
        edges[(f"v{i}", f"v{i + 1}")] = 1
        edges[(f"v{i + 1}", f"v{i}")] = 1
    return SocialGraph(edges)


def test_spec_parsing_and_validation():
    spec = FlowSpec("transfer", "walk", ("b", "a", "a"))
    assert spec.mechanism is Mechanism.TRANSFER
    assert spec.trajectory is Trajectory.WALK
    assert spec.sources == ("a", "b")
    g = SocialGraph({("a", "b"): 1})
    with pytest.raises(ParameterError):
        FlowSpec("teleport", "walk", ("a",))
    with pytest.raises(ParameterError):
        FlowSpec("transfer", "orbit", ("a",))
    with pytest.raises(ParameterError):
        simulate(g, FlowSpec("transfer", "walk", ()))
    with pytest.raises(ParameterError):
        simulate(g, FlowSpec("transfer", "walk", ("a",), max_steps=0))
    with pytest.raises(MissingNodeError):
        simulate(g, FlowSpec("transfer", "walk", ("zz",)))
    with pytest.raises(MissingNodeError):
        simulate(g, FlowSpec("transfer", "walk", ("a",), target="zz"))
    with pytest.raises(ParameterError):
        simulate(g, FlowSpec("transfer", "walk", ("a", "b"), copy_cap=1))


def test_transfer_geodesic_on_directed_path():
    g = directed_path(6)
    trace = simulate(g, FlowSpec("TRANSFER", "GEODESIC", ("v0",), max_steps=10))
    for i in range(6):
        assert trace.first_arrival[f"v{i}"] == i
        assert trace.receipts[f"v{i}"] == 1
    assert not trace.truncated


def test_parallel_geodesic_on_directed_path():
    g = directed_path(5)
    trace = simulate(g, FlowSpec("PARALLEL_DUP", "GEODESIC", ("v0",),
                                 max_steps=10, replications=25))
    for i in range(5):
        assert trace.first_arrival[f"v{i}"] == i
        assert trace.mean_first_arrival(f"v{i}") == i
    # deterministic mechanism: receipts are an exact multiple of one run
    assert trace.receipts["v0"] == 25
    one = simulate(g, FlowSpec("PARALLEL_DUP", "GEODESIC", ("v0",), max_steps=10))
    assert trace.receipts == {v: 25 * c for v, c in one.receipts.items()}


def test_parallel_dup_ignores_seed():
    g = random_digraph(12, 0.3, seed=5)
    src = g.nodes[0]
    a = simulate(g, FlowSpec("PARALLEL_DUP", "WALK", (src,), max_steps=6, seed=1))
    b = simulate(g, FlowSpec("PARALLEL_DUP", "WALK", (src,), max_steps=6, seed=999))
    assert a.first_arrival == b.first_arrival
    assert a.receipts == b.receipts


def test_same_spec_gives_identical_traces():
    g = random_digraph(15, 0.2, seed=9)
    spec = FlowSpec("SERIAL_DUP", "TRAIL", (g.nodes[0],), max_steps=8,
                    replications=20, seed=3)
    assert simulate(g, spec) == simulate(g, spec)


def test_transfer_keeps_one_live_token():
    g = random_digraph(10, 0.4, seed=2)
    spec = FlowSpec("TRANSFER", "WALK", (g.nodes[0],), max_steps=15, seed=0)
    outcome = replicate_once(g, spec, 0, collect_histories=True)
    assert len(outcome.histories) == 1
    # a walk of k hops delivers exactly k times on top of the source receipt
    assert sum(outcome.receipts.values()) == outcome.steps + 1


def test_path_trajectory_never_revisits():
    # every delivery must land on a node new to the token's history
    for seed in range(60):
        g = random_digraph(9, 0.35, seed=seed)
        spec = FlowSpec("TRANSFER", "PATH", (g.nodes[seed % 9],),
                        max_steps=12, seed=seed)
        outcome = replicate_once(g, spec, 0, collect_histories=True)
        assert all(c == 1 for c in outcome.receipts.values())
        assert sum(outcome.receipts.values()) == len(outcome.histories[0].visited)


def test_trail_trajectory_never_reuses_edges():
    for seed in range(60):
        g = random_digraph(9, 0.35, seed=seed)
        spec = FlowSpec("TRANSFER", "TRAIL", (g.nodes[seed % 9],),
                        max_steps=12, seed=seed)
        outcome = replicate_once(g, spec, 0, collect_histories=True)
        hops = sum(outcome.receipts.values()) - 1
        assert len(outcome.histories[0].used_edges) == hops


def _route(g, spec, max_steps):
    """Reconstruct a single TRANSFER token's route from prefix runs."""
    route = list(spec.sources)
    for t in range(1, max_steps + 1):
        prefix = FlowSpec(spec.mechanism, spec.trajectory, spec.sources,
                          max_steps=t, seed=spec.seed)
        out = replicate_once(g, prefix, 0, collect_histories=True)
        holder = out.histories[0].holder
        if holder == route[-1]:
            break
        route.append(holder)
    return route


def test_reconstructed_path_routes_are_simple():
    g = bidirectional_path(6)
    for rep in range(30):
        spec = FlowSpec("TRANSFER", "PATH", ("v2",), max_steps=10, seed=rep)
        route = _route(g, spec, 10)
        assert len(route) == len(set(route))


def test_reconstructed_trail_routes_have_distinct_edges():
    g = bidirectional_path(5)
    for rep in range(30):
        spec = FlowSpec("TRANSFER", "TRAIL", ("v1",), max_steps=10, seed=rep)
        route = _route(g, spec, 10)
        edges = list(zip(route, route[1:]))
        assert len(edges) == len(set(edges))


def test_serial_path_star_is_without_replacement():
    g = SocialGraph({("hub", f"l{i}"): 1 for i in range(4)})
    spec = FlowSpec("SERIAL_DUP", "PATH", ("hub",), max_steps=10, seed=0)
    totals = {f"l{i}": 0 for i in range(4)}
    for rep in range(4000):
        outcome = replicate_once(g, spec, rep)
        for i in range(4):
            leaf = f"l{i}"
            assert outcome.receipts.get(leaf, 0) <= 1
            totals[leaf] += outcome.arrival[leaf]
    # arrival order is a uniform permutation of steps 1..4
    for leaf, total in totals.items():
        assert total / 4000 == pytest.approx(2.5, abs=0.1)


def test_serial_trail_two_cycle_exact():
    g = SocialGraph({("a", "b"): 1, ("b", "a"): 1})
    trace = simulate(g, FlowSpec("SERIAL_DUP", "TRAIL", ("a",), max_steps=10))
    assert trace.receipts == {"a": 2, "b": 1}
    assert trace.first_arrival == {"a": 0, "b": 1}
    assert not trace.truncated


def test_copy_cap_truncates_but_still_delivers():
    g = SocialGraph({(u, v): 1 for u in "abc" for v in "abc" if u != v})
    trace = simulate(g, FlowSpec("PARALLEL_DUP", "WALK", ("a",),
                                 max_steps=3, copy_cap=1))
    assert trace.truncated
    assert trace.first_arrival == {"a": 0, "b": 1, "c": 1}
    # the capped parent keeps broadcasting each step
    assert trace.receipts == {"a": 1, "b": 3, "c": 3}
    # and neither of its two copies a step is kept
    assert trace.spawns_dropped == 6
    # scaled by the replications, as receipts are
    scaled = simulate(g, FlowSpec("PARALLEL_DUP", "WALK", ("a",), max_steps=3,
                                  copy_cap=1, replications=4))
    assert (scaled.receipts["b"], scaled.spawns_dropped) == (12, 24)


def test_max_steps_with_live_tokens_flags_truncation():
    g = SocialGraph({("a", "b"): 1, ("b", "a"): 1})
    trace = simulate(g, FlowSpec("TRANSFER", "WALK", ("a",), max_steps=4))
    assert trace.truncated
    assert trace.steps_run == 4


def test_target_stops_lineage():
    g = directed_path(4)
    trace = simulate(g, FlowSpec("TRANSFER", "GEODESIC", ("v0",),
                                 target="v1", max_steps=10))
    assert trace.first_arrival["v1"] == 1
    assert trace.first_arrival["v2"] is None
    assert trace.steps_run == 1
    assert not trace.truncated


def test_target_at_source_means_no_flow():
    g = directed_path(3)
    trace = simulate(g, FlowSpec("TRANSFER", "WALK", ("v0",), target="v0"))
    assert trace.receipts == {"v0": 1, "v1": 0, "v2": 0}
    assert trace.steps_run == 0


def test_weighted_vs_uniform_hop_choice():
    g = SocialGraph({("s", "x"): 9, ("s", "y"): 1})
    weighted = simulate(g, FlowSpec("TRANSFER", "WALK", ("s",), max_steps=1,
                                    replications=300, seed=11))
    assert weighted.receipts["x"] + weighted.receipts["y"] == 300
    assert weighted.receipts["x"] >= 240
    uniform = simulate(g, FlowSpec("TRANSFER", "WALK", ("s",), max_steps=1,
                                   replications=300, seed=11, uniform=True))
    assert abs(uniform.receipts["x"] - 150) < 40


def test_multiple_sources_each_spawn_a_lineage():
    g = directed_path(5)
    trace = simulate(g, FlowSpec("TRANSFER", "GEODESIC", ("v0", "v3"), max_steps=10))
    assert trace.first_arrival["v0"] == 0
    assert trace.first_arrival["v3"] == 0
    assert trace.first_arrival["v4"] == 1   # from the v3 lineage
    assert trace.first_arrival["v1"] == 1


def test_mean_first_arrival_none_when_unreached():
    g = SocialGraph({("a", "b"): 1}, nodes=["a", "b", "c"])
    trace = simulate(g, FlowSpec("TRANSFER", "WALK", ("a",), max_steps=3))
    assert trace.mean_first_arrival("c") is None
    assert trace.first_arrival["c"] is None


def test_trace_csv_round_trip(tmp_path):
    g = SocialGraph({("a", "b"): 1}, nodes=["a", "b", "c"])
    trace = simulate(g, FlowSpec("TRANSFER", "WALK", ("a",), max_steps=3))
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(trace, fh)
    text = path.read_text()
    assert NEVER in text
    with open(path, encoding="utf-8", newline="") as fh:
        back = read_trace_csv(fh)
    assert back == {v: (trace.first_arrival[v], trace.receipts[v])
                    for v in trace.first_arrival}


def test_every_typology_cell_trace_reads_back(tmp_path):
    g = random_digraph(30, 0.1, seed=5)
    path = tmp_path / "trace.csv"
    for spec in full_typology_specs(("n000",), replications=3, seed=1):
        trace = simulate(g, spec)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_trace_csv(trace, fh)
        with open(path, encoding="utf-8", newline="") as fh:
            assert read_trace_csv(fh) == {v: (trace.first_arrival[v], trace.receipts[v])
                                          for v in trace.first_arrival}, spec


def test_full_typology_covers_all_cells():
    specs = full_typology_specs(("a",), replications=5, seed=100)
    assert len(specs) == 12
    assert len({s.seed for s in specs}) == 12
    pairs = {(s.mechanism, s.trajectory) for s in specs}
    assert len(pairs) == 12


def test_typology_report_shape_and_nan_cells():
    # two far components: flows from "a" reach only 2 nodes -> NaN cells
    g = SocialGraph({("a", "b"): 1, ("x", "y"): 1, ("y", "z"): 1, ("z", "x"): 1})
    metrics = compute_node_metrics(g)
    specs = full_typology_specs(("a",), max_steps=5, replications=4, seed=0)
    matrix = typology_report(g, specs, metrics)
    assert len(matrix.rows) == 12
    assert matrix.columns == ("closeness", "eigencentrality", "pagerank", "degree")
    assert all(len(row) == 4 for row in matrix.values)
    assert all(math.isnan(c) for row in matrix.values for c in row)
    with pytest.raises(ParameterError, match="at least one flow spec"):
        typology_report(g, [], metrics)

    connected = random_digraph(12, 0.5, seed=1)
    metrics = compute_node_metrics(connected)
    matrix = typology_report(
        connected, full_typology_specs((connected.nodes[0],), replications=6), metrics)
    finite = [c for row in matrix.values for c in row if not math.isnan(c)]
    assert finite and all(-1.0 <= c <= 1.0 for c in finite)
