import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moocteams.errors import MissingNodeError, ParameterError, UndefinedMetricError
from moocteams.graph import SocialGraph
from moocteams.metrics import (
    ROLE_NAMES,
    brokerage_counts,
    burt_constraint,
    clustering_coefficient,
    compute_metrics_without_brokerage,
    compute_node_metrics,
    effective_size,
    farness,
    read_metrics_csv,
    write_metrics_csv,
)

from oracles import (
    brute_brokerage,
    brute_clustering,
    brute_constraint,
    brute_effective_size,
    count_two_paths,
    floyd_warshall,
    random_digraph,
)


def _random_partition(nodes, groups, seed):
    rng = random.Random(seed)
    return {v: f"g{rng.randrange(groups)}" for v in nodes}


def test_clustering_matches_brute_force():
    for seed in range(10):
        g = random_digraph(20, 0.2, seed=seed)
        for v in g.nodes:
            assert clustering_coefficient(g, v) == brute_clustering(g, v)


def test_clustering_complete_triad_is_one():
    edges = {(u, v): 1 for u in "abc" for v in "abc" if u != v}
    g = SocialGraph(edges)
    assert all(clustering_coefficient(g, v) == 1.0 for v in g.nodes)


def test_clustering_small_neighborhood_is_zero():
    g = SocialGraph({("a", "b"): 1})
    assert clustering_coefficient(g, "a") == 0.0


def test_farness_sums_bfs_distances():
    for seed in range(8):
        g = random_digraph(15, 0.2, seed=seed)
        fw = floyd_warshall(g)
        n = g.node_count
        for v in g.nodes:
            finite = [d for d in fw[v].values() if d is not None]
            missing = n - len(finite)
            assert farness(g, v) == pytest.approx(sum(finite) + missing * n)


def test_farness_custom_penalty():
    g = SocialGraph({("a", "b"): 1}, nodes=["a", "b", "c"])
    assert farness(g, "a", penalty=100.0) == pytest.approx(1 + 100.0)
    assert farness(g, "c") == pytest.approx(2 * 3)


@pytest.mark.parametrize("penalty", [math.nan, math.inf, -1.0])
def test_farness_penalty_must_be_non_negative_and_finite(monkeypatch, penalty):
    g = SocialGraph({("a", "b"): 1}, nodes=["a", "b", "c"])
    message = f"farness penalty must be non-negative and finite, got {penalty!r}"
    with pytest.raises(ParameterError, match=message):
        farness(g, "a", penalty=penalty)

    def solver(*args, **kwargs):
        raise AssertionError("a solver ran before the penalty was checked")

    monkeypatch.setattr("moocteams.metrics.pagerank", solver)
    for compute in (compute_metrics_without_brokerage, compute_node_metrics):
        with pytest.raises(ParameterError, match=message):
            compute(g, farness_penalty=penalty)


def test_constraint_matches_literal_formula():
    for seed in range(10):
        g = random_digraph(14, 0.25, seed=seed)
        for v in g.nodes:
            if g.degree(v) == 0:
                continue
            assert burt_constraint(g, v) == pytest.approx(brute_constraint(g, v), abs=1e-12)


def test_constraint_spot_values():
    dyad = SocialGraph({("a", "b"): 3})
    assert burt_constraint(dyad, "a") == pytest.approx(1.0, abs=1e-12)
    triad = SocialGraph({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
    for v in triad.nodes:
        assert burt_constraint(triad, v) == pytest.approx(1.125, abs=1e-12)


def test_constraint_isolated_is_undefined():
    g = SocialGraph({("a", "b"): 1}, nodes=["a", "b", "lone"])
    with pytest.raises(UndefinedMetricError):
        burt_constraint(g, "lone")


def test_effective_size_matches_literal_formula():
    for seed in range(10):
        g = random_digraph(14, 0.25, seed=seed)
        for v in g.nodes:
            if g.degree(v) == 0:
                continue
            assert effective_size(g, v) == pytest.approx(brute_effective_size(g, v), abs=1e-12)


def test_effective_size_spot_values():
    dyad = SocialGraph({("a", "b"): 2})
    assert effective_size(dyad, "a") == pytest.approx(1.0, abs=1e-12)
    # ego tied to two alters who ignore each other: both ties non-redundant
    open_star = SocialGraph({("ego", "x"): 1, ("ego", "y"): 1})
    assert effective_size(open_star, "ego") == pytest.approx(2.0, abs=1e-12)
    closed = SocialGraph({("ego", "x"): 1, ("ego", "y"): 1, ("x", "y"): 1})
    assert effective_size(closed, "ego") == pytest.approx(1.0, abs=1e-12)


def test_brokerage_matches_brute_force():
    for seed in range(10):
        g = random_digraph(18, 0.2, seed=seed)
        partition = _random_partition(g.nodes, 3, seed)
        got = brokerage_counts(g, partition)
        want = brute_brokerage(g, partition)
        for v in g.nodes:
            assert {r: getattr(got[v], r) for r in ROLE_NAMES} == want[v]


def _reciprocal_digraph(n, p, seed):
    """A random digraph with about half of its edges also run backwards."""
    g = random_digraph(n, p, seed=seed)
    rng = random.Random(seed)
    edges = {(u, v): w for u, v, w in g.edges()}
    for u, v, _ in g.edges():
        if rng.random() < 0.5:
            edges.setdefault((v, u), rng.randint(1, 3))
    return SocialGraph(edges, nodes=g.nodes)


def test_brokerage_matches_brute_force_with_reciprocal_edges():
    for seed in range(8):
        g = _reciprocal_digraph(20, 0.2, seed)
        mutual = sum(1 for u, v, _ in g.edges() if g.weight(v, u))
        assert mutual > g.edge_count // 3
        for partition in (_random_partition(g.nodes, 3, seed),
                          {v: "all" for v in g.nodes}, {v: v for v in g.nodes}):
            got = brokerage_counts(g, partition)
            assert {v: {r: getattr(got[v], r) for r in ROLE_NAMES} for v in g.nodes} \
                == brute_brokerage(g, partition)


def test_brokerage_roles_conserve_two_paths():
    for seed in range(10):
        g = random_digraph(18, 0.25, seed=seed)
        partition = _random_partition(g.nodes, 4, seed + 50)
        got = brokerage_counts(g, partition)
        assert sum(c.total() for c in got.values()) == count_two_paths(g)


def test_brokerage_single_group_is_all_coordinator():
    g = random_digraph(12, 0.3, seed=2)
    got = brokerage_counts(g, {v: "all" for v in g.nodes})
    for v in g.nodes:
        assert got[v].total() == got[v].coordinator


def test_brokerage_partition_must_cover_nodes():
    g = SocialGraph({("a", "b"): 1, ("b", "c"): 1})
    with pytest.raises(MissingNodeError):
        brokerage_counts(g, {"a": "g0", "b": "g0"})
    with pytest.raises(MissingNodeError, match="zz"):
        brokerage_counts(g, {"a": "g0", "b": "g1", "c": "g0", "zz": "g1"})


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
def test_brokerage_conservation_property(seed, groups):
    g = random_digraph(10, 0.3, seed=seed)
    partition = _random_partition(g.nodes, groups, seed)
    got = brokerage_counts(g, partition)
    assert sum(c.total() for c in got.values()) == count_two_paths(g)


def test_node_metrics_table_is_consistent():
    g = random_digraph(16, 0.2, seed=21)
    partition = _random_partition(g.nodes, 3, 5)
    table = compute_node_metrics(g, partition)
    assert set(table) == set(g.nodes)
    for v in g.nodes:
        m = table[v]
        assert m.clustering == clustering_coefficient(g, v)
        assert m.farness == farness(g, v)
        if g.degree(v) > 0:
            assert m.constraint == burt_constraint(g, v)
        else:
            assert math.isnan(m.constraint)


@pytest.mark.parametrize("penalty", [0.1, 7.5])
def test_node_metrics_farness_custom_penalty_matches_farness(penalty):
    for seed in range(6):
        g = random_digraph(18, 0.08, seed=seed)
        # an isolated student keeps the graph disconnected
        g = SocialGraph({(u, v): w for u, v, w in g.edges()}, nodes=g.nodes + ("zz",))
        table = compute_node_metrics(g, farness_penalty=penalty)
        for v in g.nodes:
            assert table[v].farness == farness(g, v, penalty=penalty)


def test_node_metrics_edgeless_graph():
    table = compute_node_metrics(SocialGraph(nodes=["a", "b"]))
    assert table["a"].authority == 0.0
    assert table["a"].hub == 0.0
    assert table["a"].eigencentrality == 0.0
    assert math.isnan(table["a"].constraint)
    assert math.isnan(table["a"].effective_size)


def test_metrics_csv_round_trip(tmp_path):
    g = random_digraph(12, 0.25, seed=8)
    table = compute_node_metrics(g, _random_partition(g.nodes, 3, 1))
    path = tmp_path / "metrics.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_metrics_csv(table, fh)
    with open(path, encoding="utf-8", newline="") as fh:
        back = read_metrics_csv(fh)
    assert set(back) == set(table)
    for v, m in table.items():
        b = back[v]
        assert b.brokerage == m.brokerage
        for attr in ("pagerank", "authority", "hub", "farness", "clustering",
                     "eigencentrality", "constraint", "effective_size"):
            x, y = getattr(m, attr), getattr(b, attr)
            if math.isnan(x):
                assert math.isnan(y)
            else:
                assert y == pytest.approx(x, rel=1e-6)
