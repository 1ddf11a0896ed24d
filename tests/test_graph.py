import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moocteams.errors import DataFormatError, MissingNodeError, ParameterError
from moocteams.graph import (SocialGraph, distance_sums, finite_distance_total,
                             geodesic_distances, read_graph_csv, write_graph_csv)
from moocteams.metrics import (burt_constraint, effective_size, eigencentrality,
                               hits, pagerank)

from oracles import floyd_warshall, random_digraph


def test_nodes_are_sorted_and_include_isolates():
    g = SocialGraph({("b", "a"): 2}, nodes=["z", "b", "a"])
    assert g.nodes == ("a", "b", "z")
    assert g.degree("z") == 0


def test_edge_accessors():
    g = SocialGraph({("a", "b"): 3, ("b", "a"): 1, ("a", "c"): 2})
    assert g.weight("a", "b") == 3
    assert g.weight("b", "c") == 0
    assert g.mutual_weight("a", "b") == 4
    assert g.out_neighbors("a") == {"b": 3, "c": 2}
    assert g.in_neighbors("a") == {"b": 1}
    assert g.neighbors("a") == {"b", "c"}
    assert g.degree("a") == 3
    assert list(g.edges()) == [("a", "b", 3), ("a", "c", 2), ("b", "a", 1)]
    assert g.edge_count == 3
    assert g.total_weight == 6


def test_self_loops_rejected():
    with pytest.raises(ParameterError):
        SocialGraph({("a", "a"): 1})


def test_nonpositive_weight_rejected():
    with pytest.raises(ParameterError):
        SocialGraph({("a", "b"): 0})


def test_unknown_node_lookup_raises():
    g = SocialGraph({("a", "b"): 1})
    with pytest.raises(MissingNodeError):
        g.out_neighbors("q")


def test_geodesics_match_floyd_warshall():
    for seed in range(12):
        g = random_digraph(18, 0.15, seed=seed)
        want = floyd_warshall(g)
        for u in g.nodes:
            got = geodesic_distances(g, u)
            assert {v: got[v] for v in g.nodes} == want[u]


def test_geodesic_unreachable_is_none():
    g = SocialGraph({("a", "b"): 1}, nodes=["a", "b", "c"])
    d = geodesic_distances(g, "a")
    assert d["a"] == 0
    assert d["b"] == 1
    assert d["c"] is None
    assert {v: h for v, h in d.items() if h is not None} == {"a": 0, "b": 1}


def _floyd_warshall_total(g):
    finite = [d for u, row in floyd_warshall(g).items()
              for v, d in row.items() if u != v and d is not None]
    return sum(finite), len(finite)


def _sparse_digraph(seed):
    """Random digraph; every third one gains a few isolated nodes."""
    rng = random.Random(seed)
    g = random_digraph(rng.randint(2, 30), rng.choice([0.03, 0.08, 0.2]), seed=seed)
    if seed % 3 == 0:
        extra = [f"z{i}" for i in range(rng.randint(1, 4))]
        g = SocialGraph({(u, v): w for u, v, w in g.edges()},
                        nodes=g.nodes + tuple(extra))
    return g


def test_finite_distance_total_matches_floyd_warshall():
    for seed in range(20):
        g = _sparse_digraph(seed)
        assert finite_distance_total(g) == _floyd_warshall_total(g)


def test_distance_sums_match_floyd_warshall():
    for seed in range(20):
        g = _sparse_digraph(seed)
        want = {}
        for u, row in floyd_warshall(g).items():
            hops = [d for v, d in row.items() if v != u and d is not None]
            want[u] = (sum(hops), len(hops))
        assert distance_sums(g) == want


def test_distance_sums_without_paths_are_zero():
    assert distance_sums(SocialGraph(nodes=["a", "b", "c"])) == {
        "a": (0, 0), "b": (0, 0), "c": (0, 0)}
    assert distance_sums(SocialGraph(nodes=["a"])) == {"a": (0, 0)}


def test_finite_distance_total_without_paths_is_zero():
    assert finite_distance_total(SocialGraph(nodes=["a", "b", "c"])) == (0, 0)
    assert finite_distance_total(SocialGraph(nodes=["a"])) == (0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_node_relabeling_preserves_distances(seed):
    # distances only depend on structure, not on the label ordering
    g = random_digraph(10, 0.25, seed=seed)
    mapping = {u: f"z{9 - i}" for i, u in enumerate(g.nodes)}
    relabeled = SocialGraph(
        {(mapping[u], mapping[v]): w for u, v, w in g.edges()},
        nodes=[mapping[u] for u in g.nodes],
    )
    for u in g.nodes:
        orig = geodesic_distances(g, u)
        new = geodesic_distances(relabeled, mapping[u])
        assert all(orig[v] == new[mapping[v]] for v in g.nodes)


def _write(path, g):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_graph_csv(g, fh)


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return read_graph_csv(fh)


def test_csv_round_trip_keeps_isolates(tmp_path):
    g = SocialGraph({("a", "b"): 2, ("b", "c"): 1}, nodes=["a", "b", "c", "lone"])
    path = tmp_path / "graph.csv"
    _write(path, g)
    back = _read(path)
    assert back.nodes == g.nodes
    assert list(back.edges()) == list(g.edges())


def test_csv_round_trip_is_byte_stable(tmp_path):
    g = random_digraph(15, 0.2, seed=3)
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    _write(p1, g)
    _write(p2, _read(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("from,to,count\na,b,1\n")
    with pytest.raises(DataFormatError):
        _read(path)


def test_csv_rejects_bad_weight(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("src,dst,weight\na,b,zero\n")
    with pytest.raises(DataFormatError):
        _read(path)


def _insertion_orders(seed):
    """The same random edge set built from several insertion orders."""
    base = random_digraph(14, 0.3, seed=seed)
    items = [((u, v), w) for u, v, w in base.edges()]
    orders = [items, items[::-1]]
    for k in range(3):
        shuffled = list(items)
        random.Random(k).shuffle(shuffled)
        orders.append(shuffled)
    return dict(items), [SocialGraph(dict(order), nodes=base.nodes) for order in orders]


def test_neighbour_maps_are_canonical_whatever_the_insertion_order():
    for seed in range(4):
        edges, graphs = _insertion_orders(seed)
        ties = {}
        for (u, v), w in edges.items():
            ties.setdefault(u, {}).setdefault(v, 0)
            ties.setdefault(v, {}).setdefault(u, 0)
            ties[u][v] += w
            ties[v][u] += w
        for g in graphs:
            for u in g.nodes:
                assert list(g.out_neighbors(u)) == sorted(g.out_neighbors(u))
                assert list(g.in_neighbors(u)) == sorted(g.in_neighbors(u))
                assert list(g.ties(u)) == sorted(g.ties(u))
                assert g.ties(u) == ties.get(u, {})
                for v in g.nodes:
                    assert g.mutual_weight(u, v) == ties.get(u, {}).get(v, 0)


def test_metrics_are_identical_whatever_the_insertion_order():
    for seed in range(3):
        _, graphs = _insertion_orders(seed)
        results = []
        for g in graphs:
            results.append((
                dict(pagerank(g)),
                tuple(dict(m) for m in hits(g)),
                dict(eigencentrality(g)),
                {u: burt_constraint(g, u) for u in g.nodes if g.degree(u)},
                {u: effective_size(g, u) for u in g.nodes if g.degree(u)},
            ))
        assert all(r == results[0] for r in results[1:])


def test_unknown_node_ties_raise():
    g = SocialGraph({("a", "b"): 1})
    with pytest.raises(MissingNodeError):
        g.ties("q")


def test_index_rows_follow_the_neighbour_maps():
    graphs = [random_digraph(n, p, seed=seed)
              for seed, (n, p) in enumerate([(1, 0.5), (2, 0.9), (12, 0.2),
                                             (25, 0.1), (30, 0.3)])]
    graphs.append(SocialGraph({("a", "b"): 2, ("c", "b"): 1, ("b", "a"): 3},
                              nodes=["z"]))
    for g in graphs:
        index = g.index()
        assert list(index.position) == list(g.nodes)
        for rows, weights, of in ((index.out, index.out_weights, g.out_neighbors),
                                  (index.into, index.in_weights, g.in_neighbors),
                                  (index.ties, index.tie_weights, g.ties)):
            assert len(rows) == len(weights) == g.node_count
            for u, row, row_weights in zip(g.nodes, rows, weights):
                assert [g.nodes[v] for v in row] == list(of(u))
                assert list(row_weights) == list(of(u).values())
