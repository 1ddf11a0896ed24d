import math

import pytest

from moocteams.errors import ParameterError, UndefinedMetricError
from moocteams.graph import SocialGraph
from moocteams.metrics import eigencentrality, hits, pagerank

from oracles import (dense_eigencentrality, dense_hits, dense_pagerank,
                     eigh_eigencentrality, random_digraph, svd_hits)


def _close(a, b, tol):
    assert set(a) == set(b)
    for k in a:
        assert a[k] == pytest.approx(b[k], abs=tol)


def test_pagerank_matches_dense_oracle():
    for seed in range(10):
        g = random_digraph(25, 0.2, seed=seed)
        _close(pagerank(g), dense_pagerank(g), 1e-9)


def test_pagerank_is_a_distribution():
    g = random_digraph(40, 0.1, seed=77)
    pr = pagerank(g)
    assert sum(pr.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v > 0 for v in pr.values())
    assert pr.converged


def test_pagerank_two_cycle_is_uniform():
    g = SocialGraph({("a", "b"): 1, ("b", "a"): 1})
    pr = pagerank(g)
    assert pr["a"] == pytest.approx(0.5, abs=1e-9)
    assert pr["b"] == pytest.approx(0.5, abs=1e-9)


def test_pagerank_weights_matter():
    # c receives 3x the share b does, so it must rank higher
    g = SocialGraph({("a", "b"): 1, ("a", "c"): 3, ("b", "a"): 1, ("c", "a"): 1})
    pr = pagerank(g)
    assert pr["c"] > pr["b"]


def test_pagerank_handles_dangling_nodes():
    # b has no outgoing edges; its mass spreads uniformly
    g = SocialGraph({("a", "b"): 2}, nodes=["a", "b", "c"])
    pr = pagerank(g)
    _close(pr, dense_pagerank(g), 1e-9)
    assert sum(pr.values()) == pytest.approx(1.0, abs=1e-12)


def test_pagerank_rejects_bad_damping():
    g = SocialGraph({("a", "b"): 1})
    with pytest.raises(ParameterError):
        pagerank(g, damping=1.0)
    with pytest.raises(ParameterError):
        pagerank(g, damping=-0.1)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_solvers_reject_non_finite_or_non_positive_tol(tol):
    g = SocialGraph({("a", "b"): 1, ("b", "c"): 2})
    for solver in (pagerank, hits, eigencentrality):
        with pytest.raises(ParameterError):
            solver(g, tol=tol)


def test_hits_matches_dense_oracle():
    for seed in range(10):
        g = random_digraph(25, 0.2, seed=seed)
        auth, hub = hits(g)
        want_auth, want_hub = dense_hits(g)
        _close(auth, want_auth, 1e-8)
        _close(hub, want_hub, 1e-8)


def test_hits_reversal_swaps_roles_exactly():
    # transposing the graph must swap authority and hub scores bitwise
    for seed in (3, 4, 5):
        g = random_digraph(20, 0.2, seed=seed)
        rev = SocialGraph({(v, u): w for u, v, w in g.edges()}, nodes=g.nodes)
        auth, hub = hits(g)
        rauth, rhub = hits(rev)
        assert all(auth[v] == rhub[v] for v in g.nodes)
        assert all(hub[v] == rauth[v] for v in g.nodes)


def test_hits_edgeless_is_undefined():
    g = SocialGraph(nodes=["a", "b"])
    with pytest.raises(UndefinedMetricError):
        hits(g)


def test_hits_star_concentrates_authority():
    g = SocialGraph({("a", "hub"): 1, ("b", "hub"): 1, ("c", "hub"): 1})
    auth, hub = hits(g)
    assert auth["hub"] == pytest.approx(1.0, abs=1e-10)
    assert hub["hub"] == pytest.approx(0.0, abs=1e-10)
    assert hub["a"] == pytest.approx(1 / math.sqrt(3), abs=1e-10)


def test_eigencentrality_matches_dense_oracle():
    for seed in range(10):
        g = random_digraph(25, 0.2, seed=seed)
        _close(eigencentrality(g), dense_eigencentrality(g), 1e-8)


def test_eigencentrality_is_unit_norm():
    g = random_digraph(30, 0.15, seed=11)
    eig = eigencentrality(g)
    assert math.fsum(v * v for v in eig.values()) == pytest.approx(1.0, abs=1e-12)


def test_eigencentrality_ignores_edge_direction():
    g = SocialGraph({("a", "b"): 2, ("c", "b"): 1})
    rev = SocialGraph({("b", "a"): 2, ("b", "c"): 1})
    forward = eigencentrality(g)
    backward = eigencentrality(rev)
    for v in g.nodes:
        assert forward[v] == pytest.approx(backward[v], abs=1e-12)


def test_eigencentrality_edgeless_is_undefined():
    with pytest.raises(UndefinedMetricError):
        eigencentrality(SocialGraph(nodes=["a"]))


def test_hits_matches_svd_oracle():
    for seed in range(10):
        g = random_digraph(25, 0.2, seed=seed)
        auth, hub = hits(g)
        want_auth, want_hub = svd_hits(g)
        _close(auth, want_auth, 1e-9)
        _close(hub, want_hub, 1e-9)


def test_eigencentrality_matches_eigh_oracle():
    for seed in range(10):
        g = random_digraph(25, 0.2, seed=seed)
        _close(eigencentrality(g), eigh_eigencentrality(g), 1e-9)
