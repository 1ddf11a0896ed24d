import hashlib
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moocteams import rewire
from moocteams.errors import ParameterError
from moocteams.graph import SocialGraph, reach_levels
from moocteams.rewire import graph_objective, rewire_optimize

from oracles import brute_clustering, brute_links, floyd_warshall, random_digraph


def _degree_profile(g):
    out_deg = {}
    in_deg = {}
    for u, v, _ in g.edges():
        out_deg[u] = out_deg.get(u, 0) + 1
        in_deg[v] = in_deg.get(v, 0) + 1
    return out_deg, in_deg


def _weight_bag(g):
    return sorted(w for _, _, w in g.edges())


def ring_lattice(n, k=2):
    edges = {}
    for i in range(n):
        for step in range(1, k + 1):
            edges[(f"v{i:02d}", f"v{(i + step) % n:02d}")] = 1
    return SocialGraph(edges)


def test_rewire_preserves_degree_sequences_and_weights():
    for seed in range(5):
        g = random_digraph(20, 0.15, seed=seed)
        result = rewire_optimize(g, iterations=400, seed=seed)
        assert _degree_profile(result.graph) == _degree_profile(g)
        assert _weight_bag(result.graph) == _weight_bag(g)
        assert result.graph.nodes == g.nodes


def test_rewire_never_worsens_objective():
    for seed in range(5):
        g = random_digraph(18, 0.2, seed=100 + seed)
        result = rewire_optimize(g, iterations=500, seed=seed)
        assert result.final_score >= result.initial_score
        assert result.initial_score == pytest.approx(graph_objective(g))
        assert result.final_score == pytest.approx(graph_objective(result.graph))
        assert result.improvement >= 0.0


def test_rewire_improves_a_ring_lattice():
    # ring lattices are clustered but far-flung; swaps should find shortcuts
    g = ring_lattice(24)
    result = rewire_optimize(g, alpha=1.0, beta=1.0, iterations=2000, seed=7)
    assert result.final_score > result.initial_score


def test_rewire_is_deterministic_per_seed():
    g = random_digraph(16, 0.2, seed=42)
    a = rewire_optimize(g, iterations=300, seed=5)
    b = rewire_optimize(g, iterations=300, seed=5)
    assert a.graph == b.graph
    assert a.final_score == b.final_score
    assert a.accepted == b.accepted


def test_rewire_different_seeds_explore_differently():
    g = random_digraph(16, 0.2, seed=42)
    outcomes = {rewire_optimize(g, iterations=300, seed=s).final_score for s in range(6)}
    assert len(outcomes) > 1


def test_rewire_rejects_degenerate_inputs():
    with pytest.raises(ParameterError):
        rewire_optimize(SocialGraph({("a", "b"): 1}), iterations=10, seed=0)
    g = random_digraph(10, 0.3, seed=1)
    with pytest.raises(ParameterError):
        rewire_optimize(g, iterations=-1, seed=0)
    with pytest.raises(ParameterError):
        rewire_optimize(g, iterations=10, seed=0, cooling=1.5)
    with pytest.raises(ParameterError):
        rewire_optimize(g, iterations=10, seed=0, initial_temperature=-2.0)


def test_rewire_scores_equal_the_objective_exactly():
    for seed in range(40):
        g = random_digraph(8 + seed % 17, 0.1 + 0.05 * (seed % 4), seed=700 + seed)
        result = rewire_optimize(g, iterations=150, seed=seed)
        assert result.initial_score == graph_objective(g)
        assert result.final_score == graph_objective(result.graph)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rewire_rejects_non_finite_settings(value):
    g = random_digraph(10, 0.3, seed=1)
    for setting in ("alpha", "beta", "initial_temperature"):
        with pytest.raises(ParameterError):
            rewire_optimize(g, iterations=10, seed=0, **{setting: value})
    for setting in ("alpha", "beta"):
        with pytest.raises(ParameterError):
            graph_objective(g, **{setting: value})


def test_objective_refuses_a_graph_with_no_students():
    with pytest.raises(ParameterError, match="empty graph"):
        graph_objective(SocialGraph({}))


def test_objective_prefers_clustered_short_graphs():
    # complete triad: clustering 1, all distances 1
    complete = SocialGraph({(u, v): 1 for u in "abc" for v in "abc" if u != v})
    chain = SocialGraph({("a", "b"): 1, ("b", "c"): 1})
    assert graph_objective(complete) > graph_objective(chain)


def _oracle_objective(g, alpha, beta):
    clustering = sum(brute_clustering(g, v) for v in g.nodes) / g.node_count
    finite = [d for u, row in floyd_warshall(g).items()
              for v, d in row.items() if u != v and d is not None]
    distance = sum(finite) / len(finite) if finite else 0.0
    return alpha * clustering - beta * distance


def test_objective_matches_clustering_and_distance_oracles():
    weights = [(1.0, 1.0), (2.5, 0.3), (0.0, 1.0), (1.0, 0.0)]
    for seed in range(20):
        # p = 0 gives edgeless graphs, and the sparse ones are disconnected
        n, p = 6 + seed, [0.0, 0.04, 0.1, 0.3][seed % 4]
        g = random_digraph(n, p, seed=300 + seed)
        alpha, beta = weights[(seed // 4) % len(weights)]
        assert graph_objective(g, alpha=alpha, beta=beta) == \
            pytest.approx(_oracle_objective(g, alpha, beta), abs=1e-12)


# Digests of rewire outcomes, recorded with every proposal scored as a whole
# SocialGraph: any changed accept/reject decision, RNG draw or last-bit
# rounding of a score changes one of them.
PINNED_SETTINGS = {
    "default": {},
    "alpha0.3-beta2": {"alpha": 0.3, "beta": 2.0},
    "greedy": {"initial_temperature": 0.0},
    "cold-fast": {"initial_temperature": 0.01, "cooling": 0.9},
}

PINNED_DIGESTS = {
    "default":
        "413cb6cd6899de02b9db7f085c18cdc366408d74020a1f36b14688a7f6202f26",
    "alpha0.3-beta2":
        "e738507e72fda5e770df5cb680e9eb21a849865be7b4cede1b999c9c663cdff9",
    "greedy":
        "283ca58e82314507b0d4a71f2dfa836a98343503e811c5d3cb57f4afbbd4b778",
    "cold-fast":
        "5add0cd388508d3fb9e46b83042d2c19f58471020f7a5df415f0489f1a71322e",
    "ring-lattice":
        "e1d5e488171ad964422bf9208b02732259108bb2b83b68cafbc827d6c2a5ac8e",
}


def _outcome_digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(repr((sorted(r.graph.edges()), repr(r.initial_score),
                       repr(r.final_score), r.accepted)).encode())
    return h.hexdigest()


def test_rewire_outcomes_match_pinned_digests():
    graphs = [random_digraph(10 + i, 0.12 + 0.01 * (i % 5), seed=500 + i)
              for i in range(24)]
    got = {name: _outcome_digest(rewire_optimize(g, iterations=200, seed=i, **kw)
                                 for i, g in enumerate(graphs))
           for name, kw in PINNED_SETTINGS.items()}
    got["ring-lattice"] = _outcome_digest(
        [rewire_optimize(ring_lattice(24), iterations=2000, seed=7)])
    assert got == PINNED_DIGESTS


def _two_rings_and_isolated_nodes():
    edges = {(f"{ring}{i}", f"{ring}{(i + step) % n}"): 1 + i % 3
             for ring, n in (("a", 8), ("b", 10)) for i in range(n) for step in (1, 2)}
    return SocialGraph(edges, nodes=["z0", "z1"])


def _rows_graph(out, nodes):
    return SocialGraph({(nodes[u], nodes[v]): 1 for u, row in enumerate(out) for v in row},
                       nodes=nodes)


def _oracle_distances(h):
    finite = [d for u, row in floyd_warshall(h).items()
              for v, d in row.items() if u != v and d is not None]
    return sum(finite), len(finite)


def _check_clustering(state, h):
    assert state.links == [brute_links(h, v) for v in h.nodes]
    assert state.coef == [brute_clustering(h, v) for v in h.nodes]


@pytest.mark.parametrize("temperature", [1.0, 0.0])
@pytest.mark.parametrize("g", [ring_lattice(20), ring_lattice(36),
                               _two_rings_and_isolated_nodes(),
                               random_digraph(24, 0.25, seed=0)],
                         ids=["ring20", "ring36", "two-components", "reciprocal"])
def test_repaired_levels_match_floyd_warshall_after_every_proposal(
        monkeypatch, g, temperature):
    # every swap and every undo of the annealer's own loop is checked
    depths = {"swap": [], "undo": []}
    # (sign, reverse edge present) of each edge change: the four tie cases
    tie_cases = set()

    class CheckedState(rewire._SwapState):
        def _check(self, event, depth):
            h = _rows_graph(self.out, g.nodes)
            assert self.distances() == _oracle_distances(h)
            assert self.levels == list(reach_levels(self.out))
            _check_clustering(self, h)
            depths[event].append((depth, len(self.levels)))

        def _edge(self, x, y, sign):
            tie_cases.add((sign, x in self.out[y]))
            return super()._edge(x, y, sign)

        def swap(self, *edges):
            depth = len(self.levels)
            saved = super().swap(*edges)
            self._check("swap", depth)
            return saved

        def undo(self, *edges_and_saved):
            depth = len(self.levels)
            super().undo(*edges_and_saved)
            self._check("undo", depth)

    monkeypatch.setattr(rewire, "_SwapState", CheckedState)
    result = rewire_optimize(g, iterations=150, seed=3, initial_temperature=temperature)
    assert depths["undo"] and result.accepted == len(depths["swap"]) - len(depths["undo"])
    # swaps both deepen and shorten the longest geodesic, so levels are
    # appended as well as dropped
    assert any(after > before for before, after in depths["swap"])
    assert any(after < before for before, after in depths["swap"])
    assert tie_cases == {(-1, True), (-1, False), (1, True), (1, False)}


@st.composite
def _graph_and_swap(draw):
    n = draw(st.integers(min_value=4, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = set(draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=3 * n)))
    # mirror some edges so reciprocal pairs, and ties that outlive an edge, occur
    edges |= {(v, u) for u, v in draw(st.lists(st.sampled_from(sorted(edges))))}
    swaps = [(a, b, c, d) for a, b in edges for c, d in edges
             if len({a, b, c, d}) == 4 and (a, d) not in edges and (c, b) not in edges]
    assume(swaps)
    nodes = [f"s{i}" for i in range(n)]
    g = SocialGraph({(nodes[u], nodes[v]): 1 for u, v in edges}, nodes=nodes)
    return g, draw(st.sampled_from(sorted(swaps)))


@settings(max_examples=200, deadline=None)
@given(_graph_and_swap())
def test_swap_updates_link_counts_and_undo_restores_them(case):
    g, (a, b, c, d) = case
    state = rewire._SwapState(g, 1.0, 1.0)
    links, coef = state.links[:], state.coef[:]
    saved = state.swap(a, b, c, d)
    _check_clustering(state, _rows_graph(state.out, g.nodes))
    state.undo(a, b, c, d, saved)
    assert state.links == links and state.coef == coef
