"""The diffusion engine against fixed outputs, the linear-scan hop pick (with
and without excluded edges), a set-based reference replication, and the
same traces from a pool of worker processes.

The digests below are the sha256 of ``write_trace_csv`` for each spec of
``_pinned_specs``, recorded with the dict-keyed engine that preceded the
integer hop table, and for the 12 typology cells on the 771-student synth
corpus, recorded with the engine that kept a token as an object.  Any
change to candidate order or to RNG use moves them.
"""

import hashlib
import io
import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from itertools import accumulate, product

import pytest

from moocteams import diffusion
from moocteams.diffusion import (POOL_MIN_HOPS, FlowSpec, _pick, _pool_size,
                                 full_typology_specs, replicate_once, simulate,
                                 write_trace_csv)
from moocteams.graph import SocialGraph
from moocteams.ingest import SynthParams, build_reply_graph, synth_corpus
from moocteams.metrics import pagerank

from oracles import _weighted_choice, random_digraph, reference_replicate

PINNED = [
    ("TRANSFER", "GEODESIC", "755e9474a2f75418395c543549ad7ee38dd36c15e52cb4afb74b62be651c496d"),
    ("TRANSFER", "PATH", "b7afad8b4561be8e190775c46fca8b9d0189474cfcecaa5335450141ecc3bbc8"),
    ("TRANSFER", "TRAIL", "afa1343cda8e695ab25ef7adc71b7be10df74ac5947987818c477241f6cb8470"),
    ("TRANSFER", "WALK", "4b6b117c008393513cfd0e81b5be6b27fa92eb4eee530bb835b9f2f0a71f3034"),
    ("SERIAL_DUP", "GEODESIC", "f02e9194a9998bd838e47ab02740ac13aa45d262c3d72b0b4ef43a554e750f1b"),
    ("SERIAL_DUP", "PATH", "c2c6d3b6174b6145a41dcfb84bdc787567b6eed3eaca2f960e7239dac333e335"),
    ("SERIAL_DUP", "TRAIL", "db557313321bc5433f02db2d03691f8f184d613a5391f64c094b22bc6320dd46"),
    ("SERIAL_DUP", "WALK", "0c3062f6fc58aecb2574a30041d75573bcd52a8a8482d27e95f1eaf26ccb965d"),
    ("PARALLEL_DUP", "GEODESIC", "ee2804a76c62ef6b36ff88730876bbdcb008cd85e48e611ab7729648262ee205"),
    ("PARALLEL_DUP", "PATH", "9eec9bba027720204161389481785d8686243da118e976fa5277598fc8632c7c"),
    ("PARALLEL_DUP", "TRAIL", "3cd10cff47c55c1c3e7076fcdddcc56c505e3701d00635af7596f657caacf46d"),
    ("PARALLEL_DUP", "WALK", "046210a654fe2bdaab3509cdf613c67d2feddb2978c6d3a487326b8f5676df0f"),
    # with a target, with two sources, with uniform hops
    ("SERIAL_DUP", "PATH", "bfc520add14cefcd47123d03f4512d95fa8300af296bac83228bf7bd0f70989c"),
    ("SERIAL_DUP", "GEODESIC", "bc3fcc6d014ae16eb0b5845f0c3b405848a93a7703c6b927501f0e20369acc14"),
    ("SERIAL_DUP", "WALK", "7a40ef7712542f82d5981f8b52de5f9950b311933e3a76ec0d707279b51cbb30"),
]


#: the 12 typology cells, two replications each, from the top-PageRank student
#: of the 771-student synth corpus at seed 1, where the default cap holds
#: 7 710 tokens over more than 7 000 edge ids
PINNED_1X = {
    ("TRANSFER", "GEODESIC"): "34d396af273c8a1bd4674ae557a62c7c2fbc8a5d13d197311de85bd24acde660",
    ("TRANSFER", "PATH"): "5e4b8c54243393829e612e3025511757b48f4ea247b475aab46183c28908bfb1",
    ("TRANSFER", "TRAIL"): "c2624d4b599ca1c7a6eecdc750fe3bdd0c8519eca722f99afe979262404b117e",
    ("TRANSFER", "WALK"): "0d74d0f80bbdfe6ebef79933bf175d0bb2057d9cddbaf3475efe8ec06d8c13ca",
    ("SERIAL_DUP", "GEODESIC"): "93221f58212ab7aa87090822e62dd90f83181624385250cc6fe1d8f8d7ef4f42",
    ("SERIAL_DUP", "PATH"): "219da13cf27b3c437d322b072620b07b231f9d94c0ce91c7c0669ed4f5ec5a61",
    ("SERIAL_DUP", "TRAIL"): "9bee7e04444142db6e988eb52298681fb953dc8591bb1deaac1897fae476e4e5",
    ("SERIAL_DUP", "WALK"): "ed33b30590d29646d03e81ea965b85761498be61644c14060225f3e6b8637c56",
    ("PARALLEL_DUP", "GEODESIC"): "77dcf85b94daae363061fd573fb983d3fe822c3b5257dc46cd5c396aa9213c5c",
    ("PARALLEL_DUP", "PATH"): "c3eb804f7a68cda2274ff57016924c0415a8a35d3250782d2db5dfcf6ecce7f0",
    ("PARALLEL_DUP", "TRAIL"): "f22628f6810ad4a49dd14512187a9a8c1204dbde72a59067e370546dde7e559b",
    ("PARALLEL_DUP", "WALK"): "b056705444a1fc789fec288bf977520fcbbe15cf220cde872baa1fbd2345ece6",
}


def _trace_digest(g, spec):
    buf = io.StringIO()
    write_trace_csv(simulate(g, spec), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _pinned_specs(g):
    src = g.nodes[0]
    specs = full_typology_specs((src,), max_steps=8, replications=6, seed=21)
    return specs + [
        FlowSpec("SERIAL_DUP", "PATH", (src,), target=g.nodes[17],
                 max_steps=10, replications=6, seed=5),
        FlowSpec("SERIAL_DUP", "GEODESIC", (src, g.nodes[23]),
                 max_steps=12, replications=6, seed=9),
        FlowSpec("SERIAL_DUP", "WALK", (g.nodes[5],), max_steps=8,
                 replications=6, seed=13, uniform=True),
    ]


def test_traces_match_pinned_digests():
    g = random_digraph(40, 0.12, seed=4)
    specs = _pinned_specs(g)
    assert len(specs) == len(PINNED)
    for spec, (mechanism, trajectory, digest) in zip(specs, PINNED):
        assert (spec.mechanism.value, spec.trajectory.value) == (mechanism, trajectory)
        got = _trace_digest(g, spec)
        assert got == digest, (mechanism, trajectory, spec.target, spec.sources)


@pytest.fixture(scope="module")
def corpus_1x():
    """The 771-student synth corpus's graph at seed 1 and its top-PageRank
    student."""
    g, _ = build_reply_graph(synth_corpus(SynthParams(
        students=771, threads=665, posts=1800, comments=7000, seed=1)))
    assert g.node_count == 771 and g.edge_count > 7000
    scores = pagerank(g)
    return g, min(scores, key=lambda v: (-scores[v], v))


def test_typology_at_corpus_scale_matches_pinned_digests(corpus_1x):
    g, source = corpus_1x
    got = {(spec.mechanism.value, spec.trajectory.value): _trace_digest(g, spec)
           for spec in full_typology_specs((source,), replications=2, seed=1)}
    assert got == PINNED_1X


#: a TRANSFER TRAIL walk on ``corpus_1x`` that runs until its holder has no
#: unused out-edge (962, 1 150 and 736 steps), so its token comes back to many
#: holders: the trace's digest, and the digest of replication 0's used edges,
#: one ``tail,head`` line each in sorted order
LONG_TRAIL = ("2a76ef5afe8dc75ebab8f8e79d4c602615c32774a4648bf4ea7fe46dd9f12c8d",
              "3630701228db091b091091475e1bec86c3e82d4292b55e943115d4685d302653")


def test_a_long_transfer_trail_walk_keeps_its_bytes(corpus_1x):
    g, source = corpus_1x
    spec = FlowSpec("TRANSFER", "TRAIL", (source,), max_steps=5000, replications=3)
    (record,) = replicate_once(g, spec, 0, collect_histories=True).histories
    used = "".join(f"{u},{v}\n" for u, v in sorted(record.used_edges))
    assert len(record.used_edges) == 961
    assert (_trace_digest(g, spec), hashlib.sha256(used.encode()).hexdigest()) == LONG_TRAIL


@pytest.mark.parametrize("mechanism", ["SERIAL_DUP", "PARALLEL_DUP"])
def test_a_trail_replication_peaks_near_a_path_one(corpus_1x, mechanism):
    # a duplicating TRAIL copy shares its ancestors' marks; were it to hold
    # an int over every edge id (about 1 KB here), its cell's peak would be
    # several times the PATH cell's, whose routes are 771-bit ints
    g, source = corpus_1x
    peaks = {}
    for spec in full_typology_specs((source,), replications=1, seed=1):
        if spec.mechanism.value == mechanism and spec.trajectory.value in ("PATH", "TRAIL"):
            tracemalloc.start()
            try:
                replicate_once(g, spec, 0)
                peaks[spec.trajectory.value] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks["TRAIL"] <= 1.25 * peaks["PATH"], peaks


@pytest.mark.parametrize("uniform", [False, True])
def test_pick_matches_linear_scan(uniform):
    gen = random.Random(1 + uniform)
    checked = 0
    for _ in range(4000):
        k = gen.randint(1, 18)
        weights = [gen.randint(1, 50) for _ in range(k)]
        excluded = {i for i in range(k) if gen.random() < 0.3}
        kept = [i for i in range(k) if i not in excluded]
        if not kept:
            continue
        seed = gen.getrandbits(32)
        scan_rng, pick_rng = random.Random(seed), random.Random(seed)
        expected = _weighted_choice(
            scan_rng, {f"v{i:02d}": weights[i] for i in kept}, uniform)
        got = kept[_pick(pick_rng, list(accumulate(weights[i] for i in kept)),
                         uniform)]
        assert f"v{got:02d}" == expected
        assert pick_rng.getstate() == scan_rng.getstate()
        checked += 1
    assert checked > 3000


class _FixedDraw(random.Random):
    """A generator whose every draw is ``value``."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def random(self):
        return self.value


def test_pick_matches_linear_scan_on_boundary_draws():
    # a draw equal to a running total belongs to the next candidate, since
    # the scan compares strictly; a draw of the full total falls through
    # the scan to the last candidate, and the bisection is clamped there
    weights = {"a": 3, "b": 1, "c": 5, "d": 7}  # totals t / 16 are exact
    totals = list(accumulate(weights.values()))
    for value in [t / totals[-1] for t in [0, *totals]]:
        expected = _weighted_choice(_FixedDraw(value), weights, False)
        got = _pick(_FixedDraw(value), totals, False)
        assert "abcd"[got] == expected
    assert _pick(_FixedDraw(1.0), totals, False) == 3


def _exclusion_cases(gen, count):
    """(weights, gone) pairs: random weights, and a random ascending set of
    excluded indices that leaves at least one edge."""
    for _ in range(count):
        k = gen.randint(2, 18)
        weights = [gen.randint(1, 50) for _ in range(k)]
        share = gen.choice((0.2, 0.5, 0.8))
        gone = [i for i in range(k) if gen.random() < share]
        if gone and len(gone) < k:
            yield weights, gone


def _kept(weights, gone):
    return {f"v{i:02d}": w for i, w in enumerate(weights) if i not in gone}


@pytest.mark.parametrize("uniform", [False, True])
def test_pick_with_exclusions_matches_linear_scan_over_kept_edges(uniform):
    gen = random.Random(11 + uniform)
    checked = 0
    for weights, gone in _exclusion_cases(gen, 6000):
        seed = gen.getrandbits(32)
        scan_rng, pick_rng = random.Random(seed), random.Random(seed)
        expected = _weighted_choice(scan_rng, _kept(weights, gone), uniform)
        got = _pick(pick_rng, tuple(accumulate(weights)), uniform, gone)
        assert f"v{got:02d}" == expected, (weights, gone)
        assert pick_rng.getstate() == scan_rng.getstate()
        checked += 1
    assert checked > 3000


def test_pick_with_exclusions_on_boundary_draws():
    # draws at, just below and just above each running total of the kept
    # edges, and a draw of 1.0, which falls through the scan to the last
    # kept edge even when the last edge is excluded
    gen = random.Random(5)
    checked = 0
    last_excluded = False
    for weights, gone in _exclusion_cases(gen, 2000):
        kept = _kept(weights, gone)
        remaining = sum(kept.values())
        values = {1.0}
        for t in accumulate(kept.values(), initial=0):
            value = t / remaining
            values.update((value, math.nextafter(value, 0.0), math.nextafter(value, 2.0)))
        for value in sorted(values):
            expected = _weighted_choice(_FixedDraw(value), kept, False)
            got = _pick(_FixedDraw(value), tuple(accumulate(weights)), False, gone)
            assert f"v{got:02d}" == expected, (weights, gone, value)
            checked += 1
        got = _pick(_FixedDraw(1.0), tuple(accumulate(weights)), False, gone)
        assert f"v{got:02d}" == list(kept)[-1]
        last_excluded |= gone[-1] == len(weights) - 1 and len(kept) > 1
    assert checked > 10000 and last_excluded


def _reference_specs(g):
    src = g.nodes[3]
    specs = full_typology_specs((src,), max_steps=11, replications=2, seed=30)
    return specs + [
        FlowSpec("SERIAL_DUP", "TRAIL", (src,), target=g.nodes[40],
                 max_steps=11, seed=31),
        FlowSpec("PARALLEL_DUP", "PATH", (src, g.nodes[70]), target=g.nodes[55],
                 max_steps=6, seed=32),
        FlowSpec("TRANSFER", "TRAIL", (src,), target=g.nodes[12],
                 max_steps=40, seed=33),
        FlowSpec("SERIAL_DUP", "PATH", (src, g.nodes[88]), max_steps=11,
                 seed=34, copy_cap=7),
        FlowSpec("PARALLEL_DUP", "TRAIL", (src,), max_steps=5, copy_cap=7),
        FlowSpec("SERIAL_DUP", "GEODESIC", (src,), max_steps=11, seed=35,
                 copy_cap=7, uniform=True),
    ]


def _replicate_like_reference(g, spec, rep):
    """One replication with route histories, asserted equal to
    ``reference_replicate``'s."""
    got = replicate_once(g, spec, rep, collect_histories=True)
    want = reference_replicate(g, spec, rep)
    case = (spec.mechanism.value, spec.trajectory.value, spec.target, rep)
    assert got.arrival == want["arrival"], case
    assert got.receipts == want["receipts"], case
    assert (got.steps, got.truncated, got.dropped) == (
        want["steps"], want["truncated"], want["dropped"]), case
    # a whole-list assert would make pytest diff thousands of set-holding
    # records on a failure; name the first record that differs instead
    histories = [(r.origin, r.holder, r.visited, r.used_edges) for r in got.histories]
    assert len(histories) == len(want["histories"]), case
    first = next((t for t, (a, b) in enumerate(zip(histories, want["histories"]))
                  if a != b), None)
    assert first is None, (case, first, histories[first], want["histories"][first])
    return got


@pytest.mark.parametrize("graph_seed", [2, 8])
def test_replications_match_the_set_based_reference(graph_seed):
    # over 64 nodes and 1 000 edges, so node and edge routes span many
    # int digits; every dup cell reaches the 10 * n cap within 11 steps
    g = random_digraph(90, 0.14, seed=graph_seed)
    assert g.node_count > 64 and g.edge_count > 1000
    seen = set()
    for spec in _reference_specs(g):
        for rep in range(2):
            got = _replicate_like_reference(g, spec, rep)
            seen.add((spec.mechanism.value, spec.copy_cap is None, got.dropped > 0))
    # the default cap and the small one both refuse copies somewhere
    assert {("SERIAL_DUP", True, True), ("PARALLEL_DUP", True, True),
            ("SERIAL_DUP", False, True), ("PARALLEL_DUP", False, True)} <= seen


@pytest.mark.parametrize("graph_seed", [2, 8])
def test_uniform_route_cells_match_the_set_based_reference(graph_seed):
    # uniform hops over the route-constrained cells; with 7 live tokens at
    # most, a token that stays put spends its holder's edges and dies
    g = random_digraph(90, 0.14, seed=graph_seed)
    src = g.nodes[3]
    exhausted = set()
    for index, (mechanism, trajectory) in enumerate(product(
            ("SERIAL_DUP", "TRANSFER", "PARALLEL_DUP"), ("PATH", "TRAIL"))):
        spec = FlowSpec(mechanism, trajectory, (src, g.nodes[60]), max_steps=30,
                        seed=40 + index, copy_cap=7, uniform=True)
        for rep in range(2):
            for token in _replicate_like_reference(g, spec, rep).histories:
                out = g.out_neighbors(token.holder)
                if out and (token.visited >= set(out) if trajectory == "PATH" else
                            token.used_edges >= {(token.holder, v) for v in out}):
                    exhausted.add((mechanism, trajectory))
    assert {("SERIAL_DUP", "PATH"), ("SERIAL_DUP", "TRAIL"),
            ("PARALLEL_DUP", "PATH"), ("PARALLEL_DUP", "TRAIL")} <= exhausted


@pytest.mark.parametrize("trajectory", ["PATH", "TRAIL"])
def test_a_copy_made_after_a_refused_one_matches_the_reference(trajectory):
    # a hub whose spokes end at sinks, under a cap of 2: the hub's first copy
    # fills the cap, so its next send is refused; that copy dies at its sink,
    # and the hub's send after that makes a copy whose route holds the
    # refused send's mark, a spoke no token stands at
    g = SocialGraph({("hub", f"s{i}"): 1 + i % 3 for i in range(7)})
    seen = 0
    for seed in range(6):
        spec = FlowSpec("SERIAL_DUP", trajectory, ("hub",), max_steps=9,
                        seed=seed, copy_cap=2)
        for rep in range(2):
            got = _replicate_like_reference(g, spec, rep)
            held = {r.holder for r in got.histories}
            for r in got.histories[1:]:
                marks = r.visited if trajectory == "PATH" else {v for _, v in r.used_edges}
                seen += bool(marks - held - {"hub"})
    assert seen >= 12


# -- worker pools -------------------------------------------------------------

@pytest.fixture
def ran_here(monkeypatch):
    """The pids of the replications run in this process, not on a pool."""
    replicate, pids = diffusion._replicate, []

    def spy(*args):
        pids.append(os.getpid())
        return replicate(*args)

    monkeypatch.setattr(diffusion, "_replicate", spy)
    return pids


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.fixture
def pooled(monkeypatch, ran_here):
    """A pool of 2 for every spec of 2 replications or more, on any machine."""
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(diffusion, "POOL_MIN_HOPS", 0)
    return ran_here


#: a fork of this process with other threads running warns on CPython 3.12+
forks = pytest.mark.filterwarnings("error::DeprecationWarning")


@forks
def test_pinned_traces_have_the_same_bytes_on_a_pool(pooled, monkeypatch):
    g = random_digraph(40, 0.12, seed=4)
    for spec, (mechanism, trajectory, digest) in zip(_pinned_specs(g), PINNED):
        assert _trace_digest(g, spec) == digest, (mechanism, trajectory)
    # PARALLEL_DUP runs its one replication here, every other spec on the pool
    assert len(pooled) == sum(spec.mechanism.value == "PARALLEL_DUP"
                              for spec in _pinned_specs(g))
    # a target, two sources, uniform hops and a cap of 3 in one spec
    spec = FlowSpec("SERIAL_DUP", "TRAIL", (g.nodes[0], g.nodes[23]), target=g.nodes[17],
                    max_steps=10, replications=6, seed=7, copy_cap=3, uniform=True)
    on_pool = _trace_digest(g, spec)
    _cpus(monkeypatch, 1)
    assert _trace_digest(g, spec) == on_pool
    assert simulate(g, spec).spawns_dropped > 0


@forks
@pytest.mark.parametrize("cpus", [1, 2])
def test_typology_at_corpus_scale_has_the_pinned_bytes_on_one_or_two_cpus(
        corpus_1x, monkeypatch, ran_here, cpus):
    _cpus(monkeypatch, cpus)
    g, source = corpus_1x
    specs = full_typology_specs((source,), replications=2, seed=1)
    got = {(spec.mechanism.value, spec.trajectory.value): _trace_digest(g, spec)
           for spec in specs}
    assert got == PINNED_1X
    # 2 x 15 steps x a cap of 7 710 reaches POOL_MIN_HOPS: two CPUs pool the
    # SERIAL_DUP cells; TRANSFER (2 x 15) and PARALLEL_DUP (one run) stay here
    pooled_reps = 2 * 4 if cpus == 2 else 0
    assert len(ran_here) == sum(spec.replications for spec in specs) - 4 - pooled_reps


@forks
def test_no_worker_outlives_simulate(pooled):
    g = random_digraph(40, 0.12, seed=4)
    spec = FlowSpec("SERIAL_DUP", "PATH", (g.nodes[0],), max_steps=8, replications=4)
    simulate(g, spec)
    assert pooled == []
    assert multiprocessing.active_children() == []


@forks
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="lists threads on Linux")
def test_no_pool_thread_outlives_simulate(pooled):
    g = random_digraph(40, 0.12, seed=4)
    spec = FlowSpec("SERIAL_DUP", "PATH", (g.nodes[0],), max_steps=8, replications=4)
    for _ in range(3):
        before = len(os.listdir("/proc/self/task"))
        simulate(g, spec)
        assert len(os.listdir("/proc/self/task")) == before
    assert pooled == []


@forks
def test_no_worker_outlives_a_replication_that_raises(pooled, monkeypatch):
    def fail(hops, spec, rep_index):
        raise RuntimeError(f"replication {rep_index} failed in process {os.getpid()}")

    monkeypatch.setattr(diffusion, "_replicate", fail)
    g = random_digraph(40, 0.12, seed=4)
    spec = FlowSpec("SERIAL_DUP", "WALK", (g.nodes[0],), max_steps=8, replications=4)
    with pytest.raises(RuntimeError, match="failed in process") as raised:
        simulate(g, spec)
    # the error came from a worker, not from this process
    assert f"process {os.getpid()}" not in str(raised.value)
    assert multiprocessing.active_children() == []


@forks
def test_the_workers_start_no_thread_in_this_process(pooled, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"simulate started a thread: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    g = random_digraph(40, 0.12, seed=4)
    for spec, (mechanism, trajectory, digest) in zip(_pinned_specs(g), PINNED):
        assert _trace_digest(g, spec) == digest, (mechanism, trajectory)
    assert len(pooled) == 4   # the PARALLEL_DUP cells; every other spec ran on workers
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises_its_exit_code_instead_of_hanging():
    src = Path(diffusion.__file__).resolve().parents[1]
    code = """
import multiprocessing, os
from moocteams import diffusion
from moocteams.graph import SocialGraph
diffusion.POOL_MIN_HOPS = 0
os.sched_getaffinity = lambda pid: {0, 1}
diffusion._replicate = lambda hops, spec, rep_index: os._exit(3)  # in a worker only
g = SocialGraph({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
spec = diffusion.FlowSpec("SERIAL_DUP", "WALK", ("a",), max_steps=4, replications=4)
try:
    diffusion.simulate(g, spec)
except ChildProcessError as error:
    assert "code 3" in str(error), error
else:
    raise AssertionError("simulate returned")
assert multiprocessing.active_children() == []
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@forks
def test_a_process_with_other_threads_runs_its_replications_itself(pooled):
    g = random_digraph(40, 0.12, seed=4)
    spec = FlowSpec("SERIAL_DUP", "PATH", (g.nodes[0],), max_steps=8, replications=4)
    on_pool = _trace_digest(g, spec)
    assert pooled == []
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _trace_digest(g, spec) == on_pool
    finally:
        stop.set()
        other.join()
    assert pooled == [os.getpid()] * spec.replications
    assert multiprocessing.active_children() == []


def test_the_pool_size_is_capped_by_cpus_and_replications(monkeypatch):
    _cpus(monkeypatch, 3)
    assert _pool_size(20, POOL_MIN_HOPS) == 3
    assert _pool_size(2, POOL_MIN_HOPS) == 2     # one process a replication at most
    assert _pool_size(20, POOL_MIN_HOPS // 20 - 1) == 1
    # the pipeline's default diffusion (TRANSFER, 50 x 20 steps) and the bench
    # warm-up's 31-student typology (2 x 15 steps x a cap of 310) stay serial;
    # a 771-student SERIAL_DUP cell (20 x 15 steps x a cap of 7 710) does not
    assert _pool_size(50, 20) == 1
    assert _pool_size(2, 15 * 310) == 1
    assert _pool_size(20, 15 * 7710) == 3
    _cpus(monkeypatch, 1)
    assert _pool_size(20, 15 * 7710) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _pool_size(20, POOL_MIN_HOPS) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(20, POOL_MIN_HOPS) == 1


def test_neither_the_import_nor_a_default_pipeline_loads_multiprocessing(tmp_path):
    src = Path(diffusion.__file__).resolve().parents[1]
    code = f"""
import sys
import moocteams
assert "multiprocessing" not in sys.modules, "import moocteams"
from moocteams import RunConfig, SynthParams, run_pipeline, synth_corpus
from moocteams.ingest import write_jsonl
with open({str(tmp_path / "corpus.jsonl")!r}, "w", encoding="utf-8") as fh:
    write_jsonl(synth_corpus(SynthParams(students=40, threads=8, posts=60,
                                         comments=160, seed=3)), fh)
run_pipeline(RunConfig({str(tmp_path / "corpus.jsonl")!r}, {str(tmp_path / "out")!r}))
assert "multiprocessing" not in sys.modules, "run_pipeline"
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "trace.csv").is_file()
