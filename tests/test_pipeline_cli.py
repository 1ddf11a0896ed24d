import builtins
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import random
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moocteams
from moocteams.cli import build_parser, main
from moocteams.diffusion import (FlowSpec, full_typology_specs, simulate, typology_report,
                                 write_trace_csv, write_typology_csv)
from moocteams.graph import SocialGraph, read_graph_csv
from moocteams.metrics import (compute_metrics_without_brokerage,
                               compute_node_metrics, eigencentrality, farness,
                               hits, pagerank, read_metrics_csv)
from moocteams.ingest import (SynthParams, build_reply_graph, synth_corpus,
                              write_jsonl)
from moocteams.errors import ParameterError, require_real
from moocteams.pipeline import (SETTINGS, RunConfig, StageError, derive_seed,
                                read_file, run_pipeline, write_file, write_files)
from moocteams.report import (OpinionRecord, aggregate_opinions, experiment_split,
                              write_dot)
from moocteams.rewire import graph_objective, rewire_optimize
from moocteams.skills import (SkillProfile, build_skill_profiles, refine_by_rank,
                              refine_skills, skill_partition, term_distribution,
                              tokenize, top_k_skills, write_skills_json)
from moocteams.teams import (S_MIN, ObjectiveWeights, brute_force_teams, form_teams,
                             read_roster_json, team_sizes)

ARTIFACTS = ["graph.csv", "graph.dot", "manifest.json", "metrics.csv",
             "partition.json", "skills.json", "teams.json", "trace.csv"]


def _corpus(path, students=20, posts=40, comments=90, seed=3):
    params = SynthParams(students=students, threads=6, posts=posts,
                         comments=comments, seed=seed)
    with open(path, "w", encoding="utf-8") as fh:
        write_jsonl(synth_corpus(params), fh)


def test_derive_seed_is_stable_and_stage_specific():
    assert derive_seed(7, "ingest") == derive_seed(7, "ingest")
    assert derive_seed(7, "ingest") != derive_seed(7, "teams")
    assert derive_seed(7, "ingest") != derive_seed(8, "ingest")


def test_pipeline_produces_all_artifacts(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    result = run_pipeline(RunConfig(str(corpus), str(out), seed=11))
    manifest = result.manifest
    assert manifest["status"] == "complete"
    assert manifest["failed_stage"] is None
    assert [s["status"] for s in manifest["stages"]] == ["ok"] * 8
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    assert result.graph.node_count == manifest["graph"]["nodes"]
    assert set(result.metrics) == set(result.graph.nodes)


def test_pipeline_rerun_is_bit_identical(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    run_pipeline(RunConfig(str(corpus), str(out), seed=5))
    first = {name: (out / name).read_bytes() for name in ARTIFACTS}
    run_pipeline(RunConfig(str(corpus), str(out), seed=5))
    second = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert first == second


#: sha256 of each artifact of ``run_pipeline`` on the 1x synthetic corpus
#: (corpus seed 1), by pipeline seed; ``manifest.json`` and ``timings.json``
#: are left out.
PINNED_PIPELINE = {
    1: {"graph.csv": "bbeea0771f1ef2dfa9054ef5ba73a67a8f5f5f233a799852bf11b2f68823aeba",
        "graph.dot": "2d82aa1ad8b540abdd26798223ad1d1898cf6c36246eec3d9b02d757a4d70939",
        "metrics.csv": "6fd20e1c6e7aaaf729298d3482c7bc5fa57c5bf1c6d92893ac2c01518c51ec22",
        "partition.json": "a651885e41e0564dc67876bbf496ee7739f8d0c17ad7566a8d0938ebfc5da2b7",
        "skills.json": "c9bd5a931d80fac62dcfb1bd73e13aa8cd37486a275dc5eb4284a70c75258532",
        "teams.json": "1ee091fae56d0fc3ad1027e300b1d307abf08f13c003e946c6e7150e3e8dc71c",
        "trace.csv": "024670b9977fbbf4361a732bf7edd2b711a3fb598fb02692a8d3aaa00c26c62e"},
    7: {"graph.csv": "bbeea0771f1ef2dfa9054ef5ba73a67a8f5f5f233a799852bf11b2f68823aeba",
        "graph.dot": "3a68d7544d36665a90147f47822652261adb9fff9ede2ec04333b4e6e4ed6b2c",
        "metrics.csv": "6fd20e1c6e7aaaf729298d3482c7bc5fa57c5bf1c6d92893ac2c01518c51ec22",
        "partition.json": "a651885e41e0564dc67876bbf496ee7739f8d0c17ad7566a8d0938ebfc5da2b7",
        "skills.json": "c9bd5a931d80fac62dcfb1bd73e13aa8cd37486a275dc5eb4284a70c75258532",
        "teams.json": "ddd8ac57956c65b732385beb62658446b8b7bb7b7f4d3c5d6f1138211533ffd5",
        "trace.csv": "6d21f2bf987b4a6cb3aef563238d35aa064476b697958941021791db2c270b25"},
}


def test_corpus_pipeline_artifacts_match_pinned_digests(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_jsonl(synth_corpus(SynthParams(students=771, threads=665, posts=1800,
                                             comments=7000, seed=1)), fh)
    got = {}
    for seed in PINNED_PIPELINE:
        out = tmp_path / f"seed{seed}"
        run_pipeline(RunConfig(str(corpus), str(out), seed=seed))
        got[seed] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in PINNED_PIPELINE[seed]}
    assert got == PINNED_PIPELINE


#: sha256 of each artifact of ``run_pipeline`` at seed 1 on the 4x synthetic
#: corpus (every count of the 1x one times four, corpus seed 1);
#: ``manifest.json`` and ``timings.json`` are left out.
PINNED_PIPELINE_4X = {
    "graph.csv": "548ab3ae0feb6239ae6b8fe765840ef2243724a86b5e779f2d457dbc35bf3b75",
    "graph.dot": "2ff4f913c296a1c36399f5573e1502e276203118b5e2dfa2c628eedb8ae314c0",
    "metrics.csv": "915c38a82fa4f865790507ec7f9167a3d317da61c085323debef4a6837ac1531",
    "partition.json": "b87719f4ba46cd69aef85a1c662cf842d4537a6bca5f955e97948e782da0837e",
    "skills.json": "2e817394b46fbdaaea1950ade26cc4558d885756a8ade31655d797280456ab5d",
    "teams.json": "9db9bb2922b7da2cbca938b2c59e324bca6a76346bfe1c5e0b39c7eecfdbb0e5",
    "trace.csv": "c6f5897da591525bb10030024eaa95ed465169e94db4861052f50b1d34463433"}


def test_4x_corpus_pipeline_artifacts_match_pinned_digests(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_jsonl(synth_corpus(SynthParams(students=3084, threads=2660, posts=7200,
                                             comments=28000, seed=1)), fh)
    out = tmp_path / "run"
    run_pipeline(RunConfig(str(corpus), str(out), seed=1))
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PINNED_PIPELINE_4X} == PINNED_PIPELINE_4X


#: sha256 of ``skills.json`` and ``partition.json`` of ``run_pipeline`` with
#: ``skill_idf`` at seed 1 on the 1x synthetic corpus (corpus seed 1).  The IDF
#: weights and the partition's cosines are added left to right, so the bytes
#: are these on CPython 3.10 to 3.13; ``sum`` would give other skills bytes
#: from 3.12 on.
PINNED_IDF = {
    "skills.json": "40ad22ca70abea0d3bc2e608284e9ebab650d1a4b397dbf991b3b6f1e0950af3",
    "partition.json": "a651885e41e0564dc67876bbf496ee7739f8d0c17ad7566a8d0938ebfc5da2b7"}


def test_idf_pipeline_skills_match_pinned_digests(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_jsonl(synth_corpus(SynthParams(students=771, threads=665, posts=1800,
                                             comments=7000, seed=1)), fh)
    out = tmp_path / "run"
    run_pipeline(RunConfig(str(corpus), str(out), seed=1, skill_idf=True,
                           run_diffusion=False))
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PINNED_IDF} == PINNED_IDF


def test_no_builtin_sum_adds_a_float(tmp_path, monkeypatch):
    # from CPython 3.12 on sum() compensates floats, so every float sum goes
    # through metrics.left_sum: here a sum() in any package module refuses one
    def int_sum(values, start=0):
        values = list(values)
        if any(isinstance(v, float) for v in [start, *values]):
            code = sys._getframe(1).f_code
            raise AssertionError(f"sum() adds a float in {code.co_filename}, "
                                 f"{code.co_name}")
        return builtins.sum(values, start)

    monkeypatch.setattr(moocteams, "sum", int_sum, raising=False)
    for info in pkgutil.iter_modules(moocteams.__path__):
        module = importlib.import_module(f"moocteams.{info.name}")
        monkeypatch.setattr(module, "sum", int_sum, raising=False)
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus, students=40, posts=80, comments=200)
    for idf in (False, True):
        out = tmp_path / f"idf{idf}"
        result = run_pipeline(RunConfig(str(corpus), str(out), seed=2, skill_idf=idf))
    specs = full_typology_specs((result.graph.nodes[0],), replications=2)
    typology_report(result.graph, specs, result.metrics)
    rewire_optimize(result.graph, iterations=50)
    with open(out / "teams.json", encoding="utf-8") as fh:
        assignment = read_roster_json(fh)
    records = [OpinionRecord("course", "pace", 1 / (s + 3), student, s)
               for s, student in enumerate(assignment.teams[0])]
    assert aggregate_opinions(records, assignment).matched == len(records)


def test_dot_and_skills_writers_stream_at_corpus_scale():
    class Discard:
        def write(self, text):
            return len(text)

    messages = synth_corpus(SynthParams(students=771, threads=665, posts=1800,
                                        comments=7000, seed=1))
    g = build_reply_graph(messages)[0]
    profiles = build_skill_profiles(messages)
    del messages
    assignment = form_teams(g, compute_node_metrics(g), restarts=1, seed=0)
    for writer, value in ((lambda a, fh: write_dot(g, a, fh), assignment),
                          (write_skills_json, profiles)):
        text = io.StringIO()
        writer(value, text)
        size = len(text.getvalue())
        del text
        tracemalloc.start()
        try:
            writer(value, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # relative to the text, so the bound holds whatever a Python's object sizes
        assert size > 100_000 and peak < size / 4, (writer, size, peak)


def test_pipeline_seed_changes_propagate(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    run_pipeline(RunConfig(str(corpus), str(tmp_path / "a"), seed=1))
    run_pipeline(RunConfig(str(corpus), str(tmp_path / "b"), seed=2))
    a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert a["seed"] != b["seed"]
    assert [s["seed"] for s in a["stages"]] != [s["seed"] for s in b["stages"]]


def test_pipeline_labels_an_author_without_terms_unobserved(tmp_path):
    # an author whose only post is stopwords is a graph node with no skill
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"author": "quiet", "body": "the and of", "id": "pq",
                             "parent_id": None, "thread_id": "t0000",
                             "timestamp": 1600000000}) + "\n")
    out = tmp_path / "run"
    result = run_pipeline(RunConfig(str(corpus), str(out), seed=11))
    assert result.manifest["status"] == "complete"
    partition = json.loads((out / "partition.json").read_text())
    assert partition["quiet"] == "unobserved"
    assert sorted(partition) == list(result.graph.nodes)


def test_pipeline_small_corpus_skips_teams_and_diffusion(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus, students=2, posts=3, comments=2, seed=0)
    out = tmp_path / "run"
    result = run_pipeline(RunConfig(str(corpus), str(out), seed=0))
    stages = {s["name"]: s for s in result.manifest["stages"]}
    assert result.manifest["status"] == "complete"
    assert stages["teams"]["status"] == "skipped"
    assert not (out / "teams.json").exists()


# on the 20-student corpus: 19s leave one student over, and 21 fill no team
@pytest.mark.parametrize("s_min, s_max, reason", [
    (19, 19, "no feasible team sizes for n=20 within [19, 19]"),
    (21, 25, "20 students cannot fill a team of size 21")])
def test_pipeline_skips_teams_where_no_roster_fits(tmp_path, capsys, s_min, s_max, reason):
    corpus, out, roster = tmp_path / "corpus.jsonl", tmp_path / "run", tmp_path / "teams.json"
    _corpus(corpus)
    sizes = ["--s-min", str(s_min), "--s-max", str(s_max)]
    assert main(["pipeline", "--input", str(corpus), "--output-dir", str(out),
                 "--seed", "1", *sizes]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    teams = {s["name"]: s for s in manifest["stages"]}["teams"]
    assert manifest["status"] == "complete"
    assert (teams["status"], teams["reason"]) == ("skipped", reason)
    assert (out / "trace.csv").exists() and (out / "graph.dot").exists()
    assert not (out / "teams.json").exists()
    capsys.readouterr()
    # the teams command refuses the same cohort and writes nothing
    assert main(["teams", "--graph", str(out / "graph.csv"), "--metrics",
                 str(out / "metrics.csv"), "--output", str(roster), *sizes]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not roster.exists()


def test_pipeline_failure_removes_partial_artifacts(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("this is not json\nneither is this\n")
    out = tmp_path / "run"
    with pytest.raises(StageError) as err:
        run_pipeline(RunConfig(str(corpus), str(out), seed=0))
    assert err.value.stage == "ingest"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "ingest"
    assert not (out / "graph.csv").exists()


def test_pipeline_failure_deletes_the_half_written_artifact(tmp_path, monkeypatch):
    def half_write(assignment, fh):
        fh.write('{"teams": [')
        raise OSError("disk full")

    monkeypatch.setattr("moocteams.pipeline.write_roster_json", half_write)
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    with pytest.raises(StageError) as err:
        run_pipeline(RunConfig(str(corpus), str(out), seed=0))
    assert err.value.stage == "teams"
    assert not (out / "teams.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "teams"
    assert [s["status"] for s in manifest["stages"]] == ["ok"] * 5 + ["failed"]
    recorded = {name: digest for s in manifest["stages"]
                for name, digest in s["artifacts"].items()}
    assert sorted(recorded) == ["graph.csv", "metrics.csv", "partition.json",
                                "skills.json"]
    for name, digest in recorded.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([*recorded, "manifest.json", "timings.json"])
    timings = json.loads((out / "timings.json").read_text())
    assert "teams" in timings["stages"]


def test_write_file_replaces_the_target_only_when_the_writer_returns(tmp_path):
    def half_write(value, fh):
        fh.write("half")
        raise OSError("disk full")

    target = tmp_path / "out.txt"
    write_file(target, lambda text, fh: fh.write(text), "first\n")
    with pytest.raises(OSError):
        write_file(target, half_write, None)
    assert target.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_files_renames_nothing_until_every_writer_returns(tmp_path):
    def write(text, fh):
        fh.write(text)

    def half_write(value, fh):
        fh.write("half")
        raise OSError("disk full")

    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_files((first, write, "old\n"))
    with pytest.raises(OSError):
        write_files((first, write, "new\n"), (second, half_write, None))
    assert first.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_write_files_keeps_every_old_file_when_a_rename_fails(tmp_path):
    def write(text, fh):
        fh.write(text)

    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_files((first, write, "old\n"))
    second.mkdir()  # a directory cannot be replaced by a file
    with pytest.raises(IsADirectoryError) as err:
        write_files((first, write, "new\n"), (second, write, "x\n"))
    assert err.value.filename == str(second)
    assert first.read_text() == "old\n"
    assert second.is_dir() and not any(second.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]


def _holds_what_the_manifest_records(out):
    manifest = json.loads((out / "manifest.json").read_text())
    recorded = {name: digest for s in manifest["stages"]
                for name, digest in s["artifacts"].items()}
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([*recorded, "manifest.json", "timings.json"])
    for name, digest in recorded.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    return recorded


def test_pipeline_rerun_deletes_what_the_new_run_did_not_write(tmp_path,
                                                               monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"

    def rerun(**settings):
        run_pipeline(RunConfig(str(corpus), str(out), seed=2,
                               diffusion_replications=2, **settings))
        return _holds_what_the_manifest_records(out)

    assert sorted(rerun()) == sorted(set(ARTIFACTS) - {"manifest.json"})
    assert "teams.json" not in rerun(s_min=30, s_max=40)  # teams skipped
    rerun()
    assert "trace.csv" not in rerun(run_diffusion=False)
    rerun()

    def failing_roster(assignment, fh):
        raise OSError("disk full")

    monkeypatch.setattr("moocteams.pipeline.write_roster_json", failing_roster)
    with pytest.raises(StageError):
        rerun()
    assert sorted(_holds_what_the_manifest_records(out)) == [
        "graph.csv", "metrics.csv", "partition.json", "skills.json"]


def test_pipeline_missing_input_is_a_config_error(tmp_path):
    with pytest.raises(ParameterError):
        run_pipeline(RunConfig(str(tmp_path / "nope.jsonl"), str(tmp_path / "run")))


# -- count settings ------------------------------------------------------------

_RING = SocialGraph({("a", "b"): 1, ("b", "c"): 2, ("c", "d"): 1, ("d", "a"): 1})


def _teams(**counts):
    return form_teams(_RING, compute_node_metrics(_RING), **counts)


def _flow(sources=("a",), **counts):
    return simulate(_RING, FlowSpec("transfer", "walk", sources, **counts))


def _synth(**counts):
    return synth_corpus(SynthParams(**{"students": 4, "threads": 1, "posts": 2,
                                       "comments": 2, **counts}))


def _setting(name):
    return lambda value: RunConfig("corpus.jsonl", "run", **{name: value}).validate()


# (where, count, least, call with the count's value): every integer setting of
# the library and of RunConfig, each checked by errors.require_count
COUNTS = [
    ("top_k_skills", "k", 1, lambda v: top_k_skills({"x": 1.0}, v)),
    ("build_skill_profiles", "k", 1, lambda v: build_skill_profiles([], k=v)),
    ("build_skill_profiles", "min_len", 1, lambda v: build_skill_profiles([], min_len=v)),
    ("tokenize", "min_len", 1, lambda v: tokenize("hello world", set(), min_len=v)),
    ("term_distribution", "min_len", 1, lambda v: term_distribution([], set(), min_len=v)),
    ("skill_partition", "n_groups", 1,
     lambda v: skill_partition([SkillProfile("a", (("x", 1.0),), 1)], v)),
    *(("SynthParams", name, 0, lambda v, name=name: _synth(**{name: v}))
      for name in ("students", "threads", "posts", "comments")),
    ("form_teams", "restarts", 1, lambda v: _teams(restarts=v)),
    ("form_teams", "iterations", 0, lambda v: _teams(iterations=v)),
    ("form_teams", "s_min", 2, lambda v: _teams(s_min=v, s_max=4)),
    ("form_teams", "s_max", 3, lambda v: _teams(s_min=3, s_max=v)),
    ("FlowSpec", "max_steps", 1, lambda v: _flow(max_steps=v)),
    ("FlowSpec", "replications", 1, lambda v: _flow(replications=v)),
    ("FlowSpec", "copy_cap", 2, lambda v: _flow(sources=("a", "b"), copy_cap=v)),
    ("rewire_optimize", "iterations", 0, lambda v: rewire_optimize(_RING, iterations=v)),
    ("pagerank", "max_iter", 1, lambda v: pagerank(_RING, max_iter=v)),
    *(("RunConfig", name, least, _setting(name))
      for name, least in (("skill_k", 1), ("n_groups", 1), ("restarts", 1),
                          ("team_iterations", 0), ("diffusion_steps", 1),
                          ("diffusion_replications", 1), ("s_min", 2), ("s_max", S_MIN))),
]


@pytest.mark.parametrize("where, name, least, call", COUNTS,
                         ids=[f"{where}.{name}" for where, name, _, _ in COUNTS])
@pytest.mark.parametrize("bad", ["nan", "float", "bool", "below"])
def test_every_count_is_an_integer_at_least_its_bound(where, name, least, call, bad):
    value = {"nan": math.nan, "float": 2.5, "bool": True, "below": least - 1}[bad]
    with pytest.raises(ParameterError,
                       match=f"^{name} must be an integer >= {least}, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("counts", [{"skill_k": True}, {"s_min": 2.5, "s_max": 4}])
def test_pipeline_refuses_a_bad_count_before_it_writes(tmp_path, counts):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    with pytest.raises(ParameterError):
        run_pipeline(RunConfig(str(corpus), str(tmp_path / "run"), **counts))
    assert not (tmp_path / "run").exists()


def test_pipeline_numpy_count_writes_the_bytes_of_an_int(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    for name, k in (("int", 5), ("numpy", np.int64(5))):
        run_pipeline(RunConfig(str(corpus), str(tmp_path / name), skill_k=k))
    for artifact in ARTIFACTS:
        assert (tmp_path / "numpy" / artifact).read_bytes() == \
            (tmp_path / "int" / artifact).read_bytes(), artifact


# -- real-valued settings and seeds --------------------------------------------

_PROFILE = SkillProfile("a", (("x", 1.0),), 1)


def _weights(name):
    return lambda v: ObjectiveWeights(**{"w_cost": 0.0, "w_hole": 0.0, "w_balance": 0.0,
                                         name: v}).validate()


# (where, setting, call with the setting's value, values just outside its
# interval, its closed ends): every real-valued setting of the library and of
# RunConfig, each checked by errors.require_real
REALS = [
    *((solver.__name__, "tol", lambda v, f=solver: f(_RING, tol=v), [0.0, math.inf], [])
      for solver in (pagerank, hits, eigencentrality)),
    ("pagerank", "damping", lambda v: pagerank(_RING, damping=v), [0.0, 1.0], []),
    ("farness", "farness penalty", lambda v: farness(_RING, "a", penalty=v),
     [-0.5, math.inf], [0.0]),
    ("compute_node_metrics", "farness penalty",
     lambda v: compute_node_metrics(_RING, farness_penalty=v), [-0.5, math.inf], [0.0]),
    ("refine_skills", "beta", lambda v: refine_skills(_PROFILE, 0.5, beta=v),
     [-0.5, math.inf], [0.0]),
    ("refine_by_rank", "beta", lambda v: refine_by_rank({}, {}, beta=v),
     [-0.5, math.inf], [0.0]),
    ("refine_skills", "rank_score", lambda v: refine_skills(_PROFILE, v),
     [-0.5, 1.5], [0.0, 1.0]),
    *(("ObjectiveWeights", name, _weights(name), [-0.5, 1.5], [1.0])
      for name in ("w_cost", "w_hole", "w_balance")),
    *(("rewire_optimize", name, lambda v, name=name: rewire_optimize(
        _RING, iterations=1, **{name: v}), [-0.5, math.inf], [0.0])
      for name in ("alpha", "beta", "initial_temperature")),
    *(("graph_objective", name, lambda v, name=name: graph_objective(_RING, **{name: v}),
       [-0.5, math.inf], [0.0]) for name in ("alpha", "beta")),
    ("rewire_optimize", "cooling", lambda v: rewire_optimize(_RING, iterations=1, cooling=v),
     [0.0, 1.5], [1.0]),
    ("experiment_split", "fraction", lambda v: experiment_split(list("abcd"), v),
     [0.0, 1.0], []),
    ("SynthParams", "anonymous_fraction", lambda v: _synth(anonymous_fraction=v),
     [-0.5, 1.5], [0.0, 1.0]),
    ("RunConfig", "damping", _setting("damping"), [0.0, 1.0], []),
    ("RunConfig", "skill_beta", _setting("skill_beta"), [-0.5, math.inf], [0.0]),
    *(("RunConfig", name, _setting(name), [-0.5, 1.5], [])
      for name in ("w_cost", "w_hole", "w_balance")),
]


@pytest.mark.parametrize("where, name, call, outside, ends", REALS,
                         ids=[f"{where}.{name}" for where, name, *_ in REALS])
def test_every_real_setting_is_a_real_number_in_its_interval(where, name, call,
                                                             outside, ends):
    for value in (math.nan, True, "x", *outside):
        with pytest.raises(ParameterError, match=f"^{name} must (lie in|be) "):
            call(value)
    for value in ends:
        call(value)


# (where, call with the seed): every seed of the library and of RunConfig, each
# checked by errors.require_count with a least value of 0
SEEDS = [
    ("RunConfig", _setting("seed")),
    ("FlowSpec", lambda v: _flow(seed=v)),
    ("SynthParams", lambda v: _synth(seed=v)),
    ("form_teams", lambda v: _teams(seed=v)),
    ("rewire_optimize", lambda v: rewire_optimize(_RING, iterations=1, seed=v)),
    ("skill_partition", lambda v: skill_partition([_PROFILE], 1, seed=v)),
    ("experiment_split", lambda v: experiment_split(list("abcd"), 0.5, seed=v)),
]


@pytest.mark.parametrize("where, call", SEEDS, ids=[where for where, _ in SEEDS])
def test_every_seed_is_an_integer_at_least_0(where, call):
    for value in (math.nan, True, "x", 2.0, -1):
        with pytest.raises(ParameterError,
                           match=f"^seed must be an integer >= 0, got {value!r}$"):
            call(value)
    call(0)


def test_require_real_states_the_interval_in_its_message():
    assert require_real(np.float32(0.5), "w", 0.0, 1.0) == 0.5
    assert type(require_real(np.int64(2), "w", 0.0)) is float
    for interval, shape in [((0.0,), "be non-negative and finite"),
                            ((0.0, math.inf, True), "be positive and finite"),
                            ((0.0, 1.0, True, True), "lie in (0, 1)"),
                            ((0.0, 1.0, False, True), "lie in [0, 1)"),
                            ((-1.0, 1.0), "lie in [-1, 1]")]:
        with pytest.raises(ParameterError) as info:
            require_real(10 ** 400, "w", *interval)
        assert str(info.value) == f"w must {shape}, got {10 ** 400!r}"


@pytest.mark.parametrize("settings", [{"skill_beta": True}, {"seed": True}, {"seed": -1},
                                      {"run_diffusion": "false"}, {"allow_oversize": "no"},
                                      {"skill_idf": 1}])
def test_pipeline_refuses_a_bad_real_or_seed_before_it_writes(tmp_path, settings):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    with pytest.raises(ParameterError):
        run_pipeline(RunConfig(str(corpus), str(tmp_path / "run"), **settings))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", [f.name for f in SETTINGS if isinstance(f.default, bool)])
@pytest.mark.parametrize("value", ["false", 0, 1, None, np.bool_(True)], ids=repr)
def test_every_bool_setting_is_a_bool(name, value):
    with pytest.raises(ParameterError, match=f"^{name} must be a bool, got "):
        _setting(name)(value)
    _setting(name)(False)


def test_pipeline_numpy_real_writes_the_bytes_of_a_float(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    for name, damping in (("float", 0.85), ("numpy", np.float64(0.85))):
        run_pipeline(RunConfig(str(corpus), str(tmp_path / name), damping=damping))
    for artifact in ARTIFACTS:
        assert (tmp_path / "numpy" / artifact).read_bytes() == \
            (tmp_path / "float" / artifact).read_bytes(), artifact
    result = run_pipeline(RunConfig(str(corpus), str(tmp_path / "float32"),
                                    damping=np.float32(0.85), skill_beta=np.float32(0.5)))
    assert result.manifest["status"] == "complete"
    assert result.manifest["config"]["damping"] == float(np.float32(0.85))


# -- command line ------------------------------------------------------------

def test_cli_synth_ingest_metrics(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    code = main(["synth", "--students", "15", "--threads", "5", "--posts", "30",
                 "--comments", "60", "--seed", "2", "--output", str(corpus)])
    assert code == 0
    graph = tmp_path / "graph.csv"
    assert main(["ingest", "--input", str(corpus), "--output", str(graph)]) == 0
    metrics = tmp_path / "metrics.csv"
    assert main(["metrics", "--graph", str(graph), "--output", str(metrics)]) == 0
    capsys.readouterr()
    assert metrics.read_text().startswith("student,pagerank,")


def test_cli_pipeline_and_exit_codes(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    assert main(["pipeline", "--input", str(corpus), "--output-dir", str(out),
                 "--seed", "4"]) == 0
    captured = capsys.readouterr()
    assert "status=complete" in captured.out

    # usage error: unknown subcommand
    assert main(["no-such-command"]) == 1
    # data error: input file missing
    assert main(["ingest", "--input", str(tmp_path / "missing.jsonl"),
                 "--output", str(tmp_path / "g.csv")]) == 2
    # data error: the output directory is missing
    missing = tmp_path / "no-such-dir" / "g.csv"
    capsys.readouterr()
    assert main(["ingest", "--input", str(corpus), "--output",
                 str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    # data error: a reply policy RunConfig.policy() does not know
    assert main(["ingest", "--input", str(corpus), "--output",
                 str(tmp_path / "g.csv"), "--reply-policy", "everyone"]) == 2
    assert not (tmp_path / "g.csv").exists()
    # stage failure inside the pipeline
    bad = tmp_path / "bad.jsonl"
    bad.write_text("garbage\nmore garbage\n")
    assert main(["pipeline", "--input", str(bad),
                 "--output-dir", str(tmp_path / "run2")]) == 3
    capsys.readouterr()


def test_cli_diffuse_and_report(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    graph = tmp_path / "graph.csv"
    assert main(["ingest", "--input", str(corpus), "--output", str(graph)]) == 0
    trace = tmp_path / "trace.csv"
    assert main(["diffuse", "--graph", str(graph), "--mechanism", "transfer",
                 "--trajectory", "walk", "--sources", "s00000",
                 "--steps", "8", "--replications", "20", "--seed", "3",
                 "--output", str(trace)]) == 0
    assert trace.read_text().startswith("student,first_arrival,receipts")
    # a transfer never copies, so the copy cap drops nothing
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        " truncated=True dropped=0")
    dot = tmp_path / "graph.dot"
    assert main(["report", "--graph", str(graph), "--dot-out", str(dot)]) == 0
    assert dot.read_text().startswith("digraph replies {")
    capsys.readouterr()


def _skills(path):
    with open(path, encoding="utf-8") as fh:
        return {e["student"]: e for e in json.load(fh)}


def test_cli_skills_graph_refines_by_pagerank(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    graph = tmp_path / "graph.csv"
    assert main(["ingest", "--input", str(corpus), "--output", str(graph)]) == 0
    plain, refined = tmp_path / "plain.json", tmp_path / "refined.json"
    assert main(["skills", "--input", str(corpus), "--output", str(plain)]) == 0
    assert main(["skills", "--input", str(corpus), "--output", str(refined),
                 "--graph", str(graph), "--skill-beta", "0.5"]) == 0
    with open(graph, encoding="utf-8", newline="") as fh:
        pr = pagerank(read_graph_csv(fh))
    top = max(pr.values())
    base, boosted = _skills(plain), _skills(refined)
    assert set(base) == set(boosted)
    for student, entry in base.items():
        factor = 1.0 + 0.5 * pr.get(student, 0.0) / top
        assert boosted[student]["refined"] is True
        assert [t["term"] for t in boosted[student]["terms"]] == \
            [t["term"] for t in entry["terms"]]
        assert [t["weight"] for t in boosted[student]["terms"]] == \
            [t["weight"] * factor for t in entry["terms"]]

    # a graph with a header and no rows gives every student rank score 0
    empty = tmp_path / "empty.csv"
    empty.write_text("src,dst,weight\n")
    out = tmp_path / "empty.json"
    assert main(["skills", "--input", str(corpus), "--output", str(out),
                 "--graph", str(empty)]) == 0
    assert {s: e["terms"] for s, e in _skills(out).items()} == \
        {s: e["terms"] for s, e in base.items()}
    capsys.readouterr()


def test_cli_skills_beta_zero_reads_no_ranks(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    graph = tmp_path / "graph.csv"
    assert main(["ingest", "--input", str(corpus), "--output", str(graph)]) == 0
    plain, unboosted = tmp_path / "plain.json", tmp_path / "beta0.json"
    assert main(["skills", "--input", str(corpus), "--output", str(plain)]) == 0

    def no_pagerank(*args, **kwargs):
        raise AssertionError("pagerank ran although --skill-beta is 0")

    monkeypatch.setattr("moocteams.cli.pagerank", no_pagerank)
    assert main(["skills", "--input", str(corpus), "--output", str(unboosted),
                 "--graph", str(graph), "--skill-beta", "0"]) == 0
    assert unboosted.read_bytes() == plain.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--skill-beta", "nan"),
                                         ("--skill-beta", "inf"),
                                         ("--n-groups", "0")])
def test_cli_skills_rejects_invalid_settings(tmp_path, capsys, flag, value):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    graph, partition = tmp_path / "graph.csv", tmp_path / "partition.json"
    assert main(["ingest", "--input", str(corpus), "--output", str(graph)]) == 0
    capsys.readouterr()
    assert main(["skills", "--input", str(corpus),
                 "--output", str(tmp_path / "skills.json"), "--graph", str(graph),
                 "--partition-out", str(partition), flag, value]) == 2
    assert "must be" in capsys.readouterr().err
    assert not partition.exists()
    assert not (tmp_path / "skills.json").exists()


def _graph_and_metrics(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus, students=15)
    graph, metrics = tmp_path / "graph.csv", tmp_path / "metrics.csv"
    assert main(["ingest", "--input", str(corpus), "--output", str(graph)]) == 0
    assert main(["metrics", "--graph", str(graph), "--output", str(metrics)]) == 0
    return graph, metrics


def test_cli_teams_rejects_non_numeric_metrics_cell(tmp_path, capsys):
    graph, metrics = _graph_and_metrics(tmp_path)
    header, first, *rest = metrics.read_text().splitlines()
    cells = first.split(",")
    cells[1] = "high"
    metrics.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert main(["teams", "--graph", str(graph), "--metrics", str(metrics),
                 "--output", str(tmp_path / "teams.json")]) == 2
    assert "metrics row" in capsys.readouterr().err


@pytest.mark.parametrize("edit, command", [
    ("constraint=-1", "teams"), ("consultant=-1", "teams"),
    ("drop", "diffuse"), ("extra", "teams"), ("extra", "diffuse")])
def test_cli_rejects_a_metrics_table_it_cannot_use(tmp_path, capsys, edit,
                                                   command):
    # unchecked, these reach a ZeroDivisionError, a math domain error, a
    # KeyError, and a roster scaled by the farness of a student outside the graph
    graph, metrics = _graph_and_metrics(tmp_path)
    with open(metrics, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    if edit == "drop":
        rows.pop()
    elif edit == "extra":
        extra = rows[-1][:]
        extra[0], extra[header.index("farness")] = "zz_other", "900"
        rows.append(extra)
    else:
        column, value = edit.split("=")
        rows[0][header.index(column)] = value
    with open(metrics, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    out = tmp_path / "out"
    argv = {"teams": ["teams", "--restarts", "1"],
            "diffuse": ["diffuse", "--typology", "--sources", rows[0][0]]}[command]
    capsys.readouterr()
    assert main([*argv, "--graph", str(graph), "--metrics", str(metrics),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["teams", "diffuse"])
@pytest.mark.parametrize("edit", [
    "repeat", "farness=-1", "clustering=-1", "pagerank=-1", "authority=-1", "hub=-1",
    "eigencentrality=-1", "effective_size=-1"])
def test_cli_rejects_a_repeated_row_or_a_negative_metric(tmp_path, capsys, edit,
                                                         command):
    # unchecked, the last of two rows wins and a negative value feeds the search
    graph, metrics = _graph_and_metrics(tmp_path)
    with open(metrics, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    if edit == "repeat":
        rows.insert(1, rows[0][:])
    else:
        column, value = edit.split("=")
        rows[0][header.index(column)] = value
    with open(metrics, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    out = tmp_path / "out"
    argv = {"teams": ["teams", "--restarts", "1"],
            "diffuse": ["diffuse", "--typology", "--sources", rows[0][0]]}[command]
    capsys.readouterr()
    assert main([*argv, "--graph", str(graph), "--metrics", str(metrics),
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(rows[0][0]) in err
    assert not out.exists()


def test_cli_report_rejects_non_numeric_roster_objective(tmp_path, capsys):
    graph, metrics = _graph_and_metrics(tmp_path)
    roster = tmp_path / "teams.json"
    assert main(["teams", "--graph", str(graph), "--metrics", str(metrics),
                 "--output", str(roster), "--restarts", "1"]) == 0
    payload = json.loads(roster.read_text())
    payload["objective"] = "best"
    roster.write_text(json.dumps(payload))
    assert main(["report", "--graph", str(graph), "--teams", str(roster),
                 "--dot-out", str(tmp_path / "graph.dot")]) == 2
    assert "roster" in capsys.readouterr().err


def test_cli_report_rejects_a_roster_from_another_cohort(tmp_path, capsys):
    graph, metrics = _graph_and_metrics(tmp_path)
    roster = tmp_path / "teams.json"
    assert main(["teams", "--graph", str(graph), "--metrics", str(metrics),
                 "--output", str(roster), "--restarts", "1"]) == 0
    payload = json.loads(roster.read_text())
    payload["teams"] = [["zz1", "zz2"]]
    roster.write_text(json.dumps(payload))
    other = tmp_path / "other.csv"
    other.write_text("src,dst,weight\na,b,1\n")
    dot = tmp_path / "graph.dot"
    capsys.readouterr()
    assert main(["report", "--graph", str(other), "--teams", str(roster),
                 "--dot-out", str(dot)]) == 2
    assert "zz1" in capsys.readouterr().err
    assert not dot.exists()


def test_cli_report_rejects_a_student_in_two_teams(tmp_path, capsys):
    # unchecked, the student counts for, and is drawn in, the later team only
    graph, metrics = _graph_and_metrics(tmp_path)
    roster = tmp_path / "teams.json"
    assert main(["teams", "--graph", str(graph), "--metrics", str(metrics),
                 "--output", str(roster), "--restarts", "1"]) == 0
    payload = json.loads(roster.read_text())
    first, second = payload["teams"][:2]
    second.append(first[0])
    roster.write_text(json.dumps(payload))
    dot = tmp_path / "graph.dot"
    capsys.readouterr()
    assert main(["report", "--graph", str(graph), "--teams", str(roster),
                 "--dot-out", str(dot)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(first[0]) in err
    assert not dot.exists()


@pytest.mark.parametrize("teams", [True, False],
                         ids=["malformed-opinions", "opinions-without-teams"])
def test_cli_report_failure_writes_no_dot_file(tmp_path, capsys, teams):
    graph, metrics = _graph_and_metrics(tmp_path)
    roster, opinions = tmp_path / "teams.json", tmp_path / "opinions.jsonl"
    assert main(["teams", "--graph", str(graph), "--metrics", str(metrics),
                 "--output", str(roster), "--restarts", "1"]) == 0
    opinions.write_text("not an opinion\n")
    dot = tmp_path / "graph.dot"
    assert main(["report", "--graph", str(graph),
                 *(["--teams", str(roster)] if teams else []),
                 "--opinions", str(opinions), "--dot-out", str(dot)]) == 2
    capsys.readouterr()
    assert not dot.exists()


def test_cli_report_prints_what_it_writes_no_file_for(valid_inputs, capsys):
    capsys.readouterr()
    assert main(["report", "--graph", str(valid_inputs / "graph.csv"),
                 "--teams", str(valid_inputs / "teams.json"),
                 "--opinions", str(valid_inputs / "opinions.jsonl")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["matched"], summary["ignored"]) == (4, 1)
    assert main(["report", "--graph", str(valid_inputs / "graph.csv"),
                 "--split", "0.5"]) == 0
    with open(valid_inputs / "graph.csv", encoding="utf-8") as fh:
        n = read_graph_csv(fh).node_count
    cut = round(n / 2)
    assert capsys.readouterr().out == f"experimental={cut} control={n - cut}\n"


def test_cli_diffuse_typology_needs_metrics(tmp_path, capsys):
    graph, _ = _graph_and_metrics(tmp_path)
    typology = tmp_path / "typology.csv"
    capsys.readouterr()
    assert main(["diffuse", "--graph", str(graph), "--sources", "s00000",
                 "--typology", "--output", str(typology)]) == 2
    assert "--typology needs --metrics" in capsys.readouterr().err
    assert not typology.exists()


def _diffuse(tmp_path, *flags):
    """The bytes ``diffuse`` writes from s00000 on the 15-student graph, the
    graph and its metrics table."""
    graph, metrics = _graph_and_metrics(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["diffuse", "--graph", str(graph), "--metrics", str(metrics),
                 "--sources", "s00000", *flags, "--output", str(out)]) == 0
    return (out.read_bytes(), read_file(graph, read_graph_csv),
            read_file(metrics, read_metrics_csv))


def _written(write, data) -> bytes:
    buf = io.StringIO(newline="")
    write(data, buf)
    return buf.getvalue().encode("utf-8")


def test_cli_typology_defaults_to_full_typology_specs(tmp_path, capsys):
    got, g, table = _diffuse(tmp_path, "--typology", "--seed", "4")
    capsys.readouterr()
    assert got == _written(write_typology_csv, typology_report(
        g, full_typology_specs(["s00000"], seed=4), table))


def test_cli_typology_of_20_steps_and_1_replication_keeps_its_bytes(tmp_path, capsys):
    # sha256 of what `diffuse --typology --seed 4` wrote when its flags took
    # FlowSpec's 20 steps and 1 replication as their defaults
    got, _, _ = _diffuse(tmp_path, "--typology", "--seed", "4", "--steps", "20",
                         "--replications", "1")
    capsys.readouterr()
    assert hashlib.sha256(got).hexdigest() == \
        "1c48984324892afa0c6d5bd31f9f788b87f3f8ba9a1cfbb9e137b3c7edb6efa5"


def test_cli_diffuse_defaults_to_flowspec(tmp_path, capsys):
    got, g, _ = _diffuse(tmp_path)
    capsys.readouterr()
    assert got == _written(write_trace_csv, simulate(g, FlowSpec(
        RunConfig.diffusion_mechanism, RunConfig.diffusion_trajectory, ["s00000"])))


@pytest.mark.parametrize("flags, message", [
    (["--summary-out", "summary.json"], "--summary-out needs --opinions"),
    (["--split-out", "split.json"], "--split-out needs --split")],
    ids=["summary-out", "split-out"])
def test_cli_report_output_flag_needs_its_input(tmp_path, monkeypatch, capsys,
                                                flags, message):
    _graph_and_metrics(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["report", "--graph", "graph.csv", "--dot-out", "graph.dot",
                 *flags]) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["skills", "--input", "corpus.jsonl", "--output", "ok.json",
     "--partition-out", "nodir/p.json"],
    ["report", "--graph", "graph.csv", "--dot-out", "ok.dot", "--split", "0.5",
     "--split-out", "nodir/s.json"]], ids=["skills", "report"])
def test_cli_failed_second_output_leaves_no_file(tmp_path, monkeypatch, capsys, argv):
    _graph_and_metrics(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    assert "nodir" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, abbreviated, flag", [
    (["teams", "--graph", "graph.csv", "--metrics", "metrics.csv",
      "--output", "out"], "--team", "--team-iterations"),
    (["pipeline", "--input", "corpus.jsonl", "--output-dir", "out"],
     "--diffusion-rep", "--diffusion-replications")], ids=["teams", "pipeline"])
def test_cli_rejects_abbreviated_flags(tmp_path, monkeypatch, capsys, argv,
                                       abbreviated, flag):
    _graph_and_metrics(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, abbreviated, "2"]) == 1
    assert not (tmp_path / "out").exists()
    assert main([*argv, flag, "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, wrong", [
    (["synth", "--students", "5", "--threads", "2", "--posts", "3",
      "--comments", "4", "--output", "ok.jsonl", "--outpt", "x.jsonl"],
     "--outpt x.jsonl"),
    (["teams", "--graph", "graph.csv", "--metrics", "metrics.csv",
      "--output", "out", "--team", "5"], "--team 5")], ids=["synth", "teams"])
def test_cli_usage_error_says_what_was_wrong(tmp_path, monkeypatch, capsys,
                                             argv, wrong):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: moocteams")
    assert err.endswith(f"moocteams: error: unrecognized arguments: {wrong}\n")
    assert not any(tmp_path.iterdir())


def test_cli_rejects_repeated_graph_edge(tmp_path, capsys):
    graph = tmp_path / "graph.csv"
    graph.write_text("src,dst,weight\na,b,1\nb,a,2\na,b,5\n")
    assert main(["metrics", "--graph", str(graph),
                 "--output", str(tmp_path / "metrics.csv")]) == 2
    assert "repeated edge" in capsys.readouterr().err


def test_package_exports_resolve():
    for name in moocteams.__all__:
        assert hasattr(moocteams, name), name
    namespace = {}
    exec("from moocteams import *", namespace)
    assert set(moocteams.__all__) <= set(namespace)


def test_package_imports_without_numpy():
    src = str(Path(moocteams.__file__).resolve().parents[1])
    code = "import sys, moocteams; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"


def test_manifest_does_not_depend_on_where_the_run_lives(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    manifests = []
    for where, name in (("a", "corpus.jsonl"), ("b/deeper", "copy.jsonl")):
        copy = tmp_path / where / name
        copy.parent.mkdir(parents=True)
        copy.write_bytes(corpus.read_bytes())
        out = tmp_path / where / "run"
        run_pipeline(RunConfig(str(copy), str(out), seed=6))
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    assert set(manifest["input"]) == {"sha256", "bytes"}
    assert set(manifest["config"]) == {f.name for f in SETTINGS}


def test_manifest_records_each_stage_seed(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    result = run_pipeline(RunConfig(str(corpus), str(tmp_path / "run"), seed=8))
    for stage in result.manifest["stages"]:
        seeded = stage["name"] in ("partition", "teams", "diffusion")
        expected = derive_seed(8, stage["name"]) if seeded else None
        assert stage["seed"] == expected, stage["name"]


# a valid value other than the default for every setting after the two paths
NON_DEFAULT = {
    "seed": 9, "reply_policy": "comments_only", "damping": 0.8, "skill_k": 4,
    "skill_beta": 0.5, "skill_idf": True, "n_groups": 3,
    "s_min": 2, "s_max": 4, "allow_oversize": True, "w_cost": 0.5,
    "w_hole": 0.25, "w_balance": 0.25, "restarts": 2, "team_iterations": 50,
    "run_diffusion": False, "diffusion_mechanism": "SERIAL_DUP",
    "diffusion_trajectory": "PATH", "diffusion_steps": 5,
    "diffusion_replications": 3,
}

# fixed settings: class constants of RunConfig, with no flag and no manifest key
CONSTANTS = {
    "pagerank_tol": 1e-09, "pagerank_max_iter": 300, "rank_tol": 1e-11,
    "rank_max_iter": 900, "farness_penalty": 50.0, "skill_min_len": 4,
    "diffusion_uniform": True,
}


def _flags(values):
    argv = []
    for name, value in values.items():
        flag = name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(f"--{flag}" if value else f"--no-{flag}")
        else:
            argv += [f"--{flag}", str(value)]
    return argv


def test_cli_pipeline_has_one_flag_per_setting(tmp_path, capsys):
    assert set(NON_DEFAULT) == {f.name for f in SETTINGS}
    for f in SETTINGS:
        assert NON_DEFAULT[f.name] != f.default, f.name
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    assert main(["pipeline", "--input", str(corpus), "--output-dir", str(out),
                 *_flags(NON_DEFAULT)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == NON_DEFAULT

    base = ["pipeline", "--input", str(corpus), "--output-dir", str(out)]
    # argparse converts the type (usage error); validate() checks the value
    assert main([*base, "--skill-k", "five"]) == 1
    assert main([*base, "--reply-policy", "everyone"]) == 2
    assert main([*base, "--diffusion-mechanism", "teleport"]) == 2
    capsys.readouterr()


def test_cli_pipeline_enum_spelling_does_not_reach_the_manifest(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    manifests = []
    for name, spelling in (("canonical", []),
                           ("respelled", ["--reply-policy", "STARTER_FALLBACK",
                                          "--diffusion-mechanism", "transfer",
                                          "--diffusion-trajectory", "Walk"])):
        out = tmp_path / name
        assert main(["pipeline", "--input", str(corpus), "--output-dir",
                     str(out), "--diffusion-replications", "2",
                     *spelling]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    capsys.readouterr()
    assert manifests[0] == manifests[1]


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


# every RunConfig setting or constant that feeds a library parameter, with
# each function that takes it; the settings left out have no library default
LIBRARY_DEFAULTS = {
    "damping": [(pagerank, "damping"), (compute_node_metrics, "damping"),
                (compute_metrics_without_brokerage, "damping")],
    "pagerank_tol": [(pagerank, "tol"), (compute_node_metrics, "pagerank_tol"),
                     (compute_metrics_without_brokerage, "pagerank_tol")],
    "pagerank_max_iter": [(pagerank, "max_iter")],
    "rank_tol": [(hits, "tol"), (eigencentrality, "tol")],
    "rank_max_iter": [(hits, "max_iter"), (eigencentrality, "max_iter")],
    "farness_penalty": [(farness, "penalty"),
                        (compute_node_metrics, "farness_penalty"),
                        (compute_metrics_without_brokerage, "farness_penalty")],
    "skill_k": [(build_skill_profiles, "k")],
    "skill_min_len": [(build_skill_profiles, "min_len"), (tokenize, "min_len"),
                      (term_distribution, "min_len")],
    "skill_beta": [(refine_by_rank, "beta"), (refine_skills, "beta")],
    "skill_idf": [(build_skill_profiles, "use_idf")],
    "s_min": [(form_teams, "s_min")],
    "s_max": [(form_teams, "s_max")],
    "allow_oversize": [(form_teams, "allow_oversize"), (team_sizes, "allow_oversize"),
                       (brute_force_teams, "allow_oversize")],
    "restarts": [(form_teams, "restarts")],
    "team_iterations": [(form_teams, "iterations")],
    "diffusion_steps": [(FlowSpec, "max_steps")],
    "diffusion_uniform": [(FlowSpec, "uniform"), (full_typology_specs, "uniform")],
}
NO_LIBRARY_DEFAULT = {"seed", "n_groups", "run_diffusion", "diffusion_mechanism",
                      "diffusion_trajectory", "diffusion_replications"}


def _cli_default(argv, name):
    return getattr(build_parser().parse_args(argv), name)


def test_pipeline_fixed_settings_are_the_library_defaults():
    settings = {f.name for f in SETTINGS}
    weights = {"w_cost", "w_hole", "w_balance"}
    assert settings == (set(LIBRARY_DEFAULTS) - set(CONSTANTS)) | weights \
        | {"reply_policy"} | NO_LIBRARY_DEFAULT
    for name, params in LIBRARY_DEFAULTS.items():
        for fn, param in params:
            assert getattr(RunConfig, name) == _default(fn, param), (name, fn)
    assert RunConfig.reply_policy == \
        _default(build_reply_graph, "policy").name.lower()
    for fn in (form_teams, brute_force_teams):
        assert ObjectiveWeights(RunConfig.w_cost, RunConfig.w_hole,
                                RunConfig.w_balance) == _default(fn, "weights")


def test_every_other_default_is_the_library_default():
    for param in ("seed", "copy_cap"):
        assert _default(full_typology_specs, param) == _default(FlowSpec, param)
    for param in ("alpha", "beta"):
        assert _default(graph_objective, param) == _default(rewire_optimize, param)
    assert _cli_default(["report", "--graph", "g.csv"], "seed") == \
        _default(experiment_split, "seed")
    assert _cli_default(["synth", "--students", "1", "--threads", "1",
                         "--posts", "1", "--comments", "1", "--output", "c"],
                        "seed") == _default(SynthParams, "seed")
    assert _cli_default(["skills", "--input", "c", "--output", "s"], "min_len") \
        == _default(build_skill_profiles, "min_len")
    assert _cli_default(["metrics", "--graph", "g", "--output", "m"],
                        "pagerank_tol") == _default(pagerank, "tol")


def test_cli_pipeline_fixed_settings_have_no_flag(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    base = ["pipeline", "--input", str(corpus), "--output-dir", str(out)]
    for name, value in CONSTANTS.items():
        assert main([*base, *_flags({name: value})]) == 1, name
    assert not out.exists()
    assert main([*base, "--diffusion-replications", "2"]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["config"]) == 20
    assert not set(CONSTANTS) & set(manifest["config"])


@pytest.mark.parametrize("flag, value", [("--skill-beta", "nan")])
def test_cli_pipeline_rejects_non_finite_settings(tmp_path, capsys, flag, value):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    assert main(["pipeline", "--input", str(corpus), "--output-dir", str(out),
                 flag, value]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--damping", "1"], ["--team-iterations", "-1"], ["--s-min", "1"],
    ["--s-min", "4", "--s-max", "3"]], ids=lambda flags: " ".join(flags))
def test_cli_pipeline_rejects_settings_out_of_range(tmp_path, capsys, flags):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    assert main(["pipeline", "--input", str(corpus), "--output-dir", str(out),
                 *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_pipeline_no_run_diffusion_skips_the_stage(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    out = tmp_path / "run"
    assert main(["pipeline", "--input", str(corpus), "--output-dir", str(out),
                 "--no-run-diffusion"]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["run_diffusion"] is False
    diffusion, = (s for s in manifest["stages"] if s["name"] == "diffusion")
    assert diffusion["status"] == "skipped"
    assert diffusion["reason"] == "disabled by config"
    assert not (out / "trace.csv").exists()


def test_cli_pipeline_on_a_graph_with_no_edges_skips_diffusion(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--students", "10", "--threads", "10", "--posts", "10",
                 "--comments", "0", "--seed", "1", "--output", str(corpus)]) == 0
    out = tmp_path / "run"
    argv = ["pipeline", "--input", str(corpus), "--output-dir", str(out), "--seed", "1"]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append({p.name: p.read_bytes() for p in out.iterdir()
                     if p.name != "timings.json"})
    capsys.readouterr()
    manifest = json.loads(runs[0]["manifest.json"])
    assert manifest["status"] == "complete"
    assert (manifest["graph"]["nodes"], manifest["graph"]["edges"]) == (9, 0)
    diffusion, = (s for s in manifest["stages"] if s["name"] == "diffusion")
    assert diffusion["status"] == "skipped"
    assert diffusion["reason"] == "graph has no edges"
    assert "trace.csv" not in runs[0]
    assert runs[1] == runs[0]


# the settings each stage subcommand shares with the pipeline, besides --seed
STAGE_SETTINGS = {
    "ingest": ["reply_policy"],
    "skills": ["skill_k", "skill_beta", "skill_idf", "n_groups", "damping"],
    "metrics": ["damping"],
    "teams": ["s_min", "s_max", "allow_oversize", "w_cost", "w_hole",
              "w_balance", "restarts", "team_iterations"],
}


def test_cli_stages_reproduce_the_pipeline(tmp_path, capsys):
    # a zero skill_beta leaves every profile unrefined in both
    for seed in (1, 7):
        for skill_beta in (NON_DEFAULT["skill_beta"], 0.0):
            _stages_reproduce_the_pipeline(tmp_path / f"seed{seed}-beta{skill_beta}",
                                           capsys, seed, skill_beta)


def _stages_reproduce_the_pipeline(tmp_path, capsys, seed, skill_beta):
    # trace.csv needs diffusion on
    values = {**NON_DEFAULT, "seed": seed, "run_diffusion": True,
              "skill_beta": skill_beta}
    tmp_path.mkdir()
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    run, out = tmp_path / "run", tmp_path / "stages"
    result = run_pipeline(RunConfig(str(corpus), str(run), **values))
    out.mkdir()

    def stage(command, *argv, seeded=False):
        # a seeded command takes the pipeline's master seed
        settings = {n: values[n] for n in STAGE_SETTINGS.get(command, [])}
        if seeded:
            settings["seed"] = values["seed"]
        assert main([command, *map(str, argv), *_flags(settings)]) == 0

    # the pipeline starts diffusion from the top-PageRank student
    source = min(result.metrics, key=lambda v: (-result.metrics[v].pagerank, v))
    stage("ingest", "--input", corpus, "--output", out / "graph.csv")
    stage("skills", "--input", corpus, "--output", out / "skills.json",
          "--graph", out / "graph.csv",
          "--partition-out", out / "partition.json", seeded=True)
    stage("metrics", "--graph", out / "graph.csv",
          "--partition", out / "partition.json",
          "--output", out / "metrics.csv")
    stage("teams", "--graph", out / "graph.csv",
          "--metrics", out / "metrics.csv", "--output", out / "teams.json",
          seeded=True)
    stage("report", "--graph", out / "graph.csv",
          "--teams", out / "teams.json", "--dot-out", out / "graph.dot")
    stage("diffuse", "--graph", out / "graph.csv", "--sources", source,
          "--mechanism", values["diffusion_mechanism"],
          "--trajectory", values["diffusion_trajectory"],
          "--steps", values["diffusion_steps"],
          "--replications", values["diffusion_replications"],
          "--seed", derive_seed(values["seed"], "diffusion"),
          "--output", out / "trace.csv")
    capsys.readouterr()

    for name in ("graph.csv", "skills.json", "partition.json", "metrics.csv",
                 "graph.dot", "trace.csv"):
        assert (out / name).read_bytes() == (run / name).read_bytes(), name
    staged, piped = (json.loads((d / "teams.json").read_text())
                     for d in (out, run))
    for key in ("teams", "params", "seed"):
        assert staged[key] == piped[key], key
    # teams reads metrics.csv, which keeps 9 significant digits
    assert staged["objective"] == pytest.approx(piped["objective"], abs=1e-9)


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [words[1:] for words in commands if words[:1] == ["moocteams"]]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: moocteams "
                        f"{shlex.join(argv)}")


def _columns(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [row[name] for row in rows] for name in rows[0]}


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_metrics_rejects_non_finite_pagerank_tol(tmp_path, capsys, value):
    graph, _ = _graph_and_metrics(tmp_path)
    assert main(["metrics", "--graph", str(graph), "--output",
                 str(tmp_path / "bad.csv"), "--pagerank-tol", value]) == 2
    assert "finite" in capsys.readouterr().err


def test_an_empty_graph_still_has_its_metric_settings_checked(tmp_path, capsys):
    for settings in ({"damping": "x"}, {"damping": 2}, {"pagerank_tol": -1}):
        with pytest.raises(ParameterError, match="^(damping|pagerank_tol) must "):
            compute_node_metrics(SocialGraph(), **settings)
    assert compute_node_metrics(SocialGraph()) == {}
    graph, out = tmp_path / "empty.csv", tmp_path / "metrics.csv"
    graph.write_text("src,dst,weight\n")
    assert main(["metrics", "--graph", str(graph), "--output", str(out),
                 "--damping", "2"]) == 2
    assert not out.exists()
    assert "damping must lie in (0, 1)" in capsys.readouterr().err


def test_cli_metrics_pagerank_tol_reaches_only_pagerank(tmp_path, capsys):
    graph, default = _graph_and_metrics(tmp_path)
    loose = tmp_path / "loose.csv"
    assert main(["metrics", "--graph", str(graph), "--output", str(loose),
                 "--pagerank-tol", "0.5"]) == 0
    capsys.readouterr()
    before, after = _columns(default), _columns(loose)
    assert after["pagerank"] != before["pagerank"]
    for name in ("authority", "hub", "eigencentrality"):
        assert after[name] == before[name], name


# -- malformed input through the command line ---------------------------------

@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file per reader, made through the command line."""
    work = tmp_path_factory.mktemp("valid")
    paths = {name: work / name for name in (
        "corpus.jsonl", "graph.csv", "metrics.csv", "partition.json",
        "teams.json", "opinions.jsonl")}
    _corpus(paths["corpus.jsonl"], students=10, posts=15, comments=30)
    graph = str(paths["graph.csv"])
    for argv in (
            ["ingest", "--input", str(paths["corpus.jsonl"]), "--output", graph],
            ["skills", "--input", str(paths["corpus.jsonl"]),
             "--output", str(work / "skills.json"),
             "--partition-out", str(paths["partition.json"]), "--n-groups", "2"],
            ["metrics", "--graph", graph, "--output", str(paths["metrics.csv"])],
            ["teams", "--graph", graph, "--metrics", str(paths["metrics.csv"]),
             "--output", str(paths["teams.json"]), "--restarts", "1"]):
        assert main(argv) == 0, argv
    roster = json.loads(paths["teams.json"].read_text())
    holders = [s for team in roster["teams"] for s in team][:4] + ["outsider"]
    paths["opinions.jsonl"].write_text("".join(
        json.dumps({"entity": "course", "aspect": "pace", "holder": h,
                    "sentiment": 0.25 * i - 0.5, "time": 10 * i}) + "\n"
        for i, h in enumerate(holders)))
    return work


# each reader: the valid file it mutates and the command that reads it,
# whose last argument is the one file it writes
READERS = {
    "corpus": ("corpus.jsonl", ["ingest", "--input", "{bad}",
                                "--output", "{out}/graph.csv"]),
    "graph": ("graph.csv", ["metrics", "--graph", "{bad}",
                            "--output", "{out}/metrics.csv"]),
    "metrics": ("metrics.csv", ["teams", "--graph", "{valid}/graph.csv",
                                "--metrics", "{bad}", "--restarts", "1",
                                "--output", "{out}/teams.json"]),
    "brute-force": ("metrics.csv", ["teams", "--graph", "{valid}/graph.csv",
                                    "--metrics", "{bad}", "--brute-force",
                                    "--s-min", "5", "--s-max", "5",
                                    "--output", "{out}/teams.json"]),
    "typology": ("metrics.csv", ["diffuse", "--graph", "{valid}/graph.csv",
                                 "--sources", "s00000", "--typology",
                                 "--metrics", "{bad}", "--steps", "3",
                                 "--output", "{out}/typology.csv"]),
    "partition": ("partition.json", ["metrics", "--graph", "{valid}/graph.csv",
                                     "--partition", "{bad}",
                                     "--output", "{out}/metrics.csv"]),
    "roster": ("teams.json", ["report", "--graph", "{valid}/graph.csv",
                              "--teams", "{bad}", "--dot-out", "{out}/graph.dot"]),
    "opinions": ("opinions.jsonl", ["report", "--graph", "{valid}/graph.csv",
                                    "--teams", "{valid}/teams.json",
                                    "--opinions", "{bad}",
                                    "--summary-out", "{out}/summary.json"]),
}

# (position, byte, operation) edits; positions wrap round the file length
EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255),
                           st.sampled_from(["replace", "insert", "delete"])),
                 min_size=1, max_size=6)


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for pos, byte, op in edits:
        at = pos % (len(buf) + 1)
        if op == "insert":
            buf.insert(at, byte)
        elif at < len(buf):
            if op == "replace":
                buf[at] = byte
            else:
                del buf[at]
    return bytes(buf)


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=60, deadline=None)
@given(edits=EDITS)
def test_cli_mutated_input_exits_with_a_documented_code(reader, edits,
                                                        valid_inputs):
    name, template = READERS[reader]
    out = valid_inputs / f"out-{reader}"
    out.mkdir(exist_ok=True)
    bad = out / name
    bad.write_bytes(_mutate((valid_inputs / name).read_bytes(), edits))
    argv = [arg.format(bad=bad, out=out, valid=valid_inputs) for arg in template]
    target = Path(argv[-1])
    target.unlink(missing_ok=True)
    code = main(argv)
    assert code in (0, 2)
    assert set(out.iterdir()) == ({bad, target} if code == 0 else {bad})


#: a JSON document nested past every decoder's depth limit
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("reader", sorted(READERS))
def test_cli_deeply_nested_input_exits_0_or_2(reader, valid_inputs, capsys):
    """A JSON-Lines input keeps its first two lines before the deep one;
    any other input is the deep document alone."""
    name, template = READERS[reader]
    out = valid_inputs / f"out-deep-{reader}"
    out.mkdir(exist_ok=True)
    bad = out / name
    lines = (valid_inputs / name).read_text(encoding="utf-8").splitlines(True)
    bad.write_text("".join(lines[:2] if name.endswith(".jsonl") else []) + DEEP + "\n",
                   encoding="utf-8")
    argv = [arg.format(bad=bad, out=out, valid=valid_inputs) for arg in template]
    target = Path(argv[-1])
    target.unlink(missing_ok=True)
    code = main(argv)
    printed = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in printed.err
    assert set(out.iterdir()) == ({bad, target} if code == 0 else {bad})
    if reader == "corpus":
        assert code == 0
        assert printed.out.startswith("messages=2 skipped=1 ")


@pytest.mark.parametrize("value", ["", "nan", "-1", "1e309", "x", "-0"])
def test_cli_metrics_cell_edits_exit_0_or_2(value, valid_inputs, capsys):
    """``value`` in each column of ``metrics.csv``, one cell at a time, at a
    seeded row, read by ``teams``, by ``teams --brute-force`` and by
    ``diffuse --typology``."""
    with open(valid_inputs / "metrics.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    rng = random.Random(f"cells-{value}")
    out = valid_inputs / "out-cells"
    out.mkdir(exist_ok=True)
    bad = out / "metrics.csv"
    for column in range(len(header)):
        edited = [row[:] for row in rows]
        edited[rng.randrange(len(rows))][column] = value
        with open(bad, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *edited])
        for reader in ("metrics", "brute-force", "typology"):
            argv = [arg.format(bad=bad, out=out, valid=valid_inputs)
                    for arg in READERS[reader][1]]
            target = Path(argv[-1])
            code = main(argv)
            assert code in (0, 2), (header[column], reader, capsys.readouterr())
            assert "Traceback" not in capsys.readouterr().err
            assert set(out.iterdir()) == ({bad, target} if code == 0 else {bad})
            target.unlink(missing_ok=True)


def _scalar_paths(payload, path=()):
    """The key path of each scalar in a JSON object, nested objects included."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _scalar_paths(value, (*path, key))
        elif not isinstance(value, list):
            yield (*path, key)


#: where the edited value goes, before its JSON text replaces the quoted marker
MARKER = "@value@"


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e999", "9" * 400,
                                   "-1", "1.5", '"x"', "null", "[]", "{}", "true"])
def test_cli_json_field_edits_exit_0_or_2(value, valid_inputs, capsys):
    """``value``, as JSON text, in each scalar field of ``teams.json`` (read by
    ``report --dot-out``) and in each field of the first ``opinions.jsonl``
    line (read by ``report --summary-out``), one field at a time."""
    roster = json.loads((valid_inputs / "teams.json").read_text(encoding="utf-8"))
    first, *rest = (valid_inputs / "opinions.jsonl").read_text(
        encoding="utf-8").splitlines(True)
    opinion = json.loads(first)
    out = valid_inputs / "out-fields"
    out.mkdir(exist_ok=True)
    edits = [("roster", roster, path) for path in _scalar_paths(roster)]
    edits += [("opinions", opinion, (key,)) for key in sorted(opinion)]
    for reader, payload, path in edits:
        edited = json.loads(json.dumps(payload))
        *parents, key = path
        holder = edited
        for parent in parents:
            holder = holder[parent]
        holder[key] = MARKER
        text = json.dumps(edited).replace(json.dumps(MARKER), value)
        name, template = READERS[reader]
        bad = out / name
        bad.write_text(text + "\n" if reader == "roster" else "".join([text + "\n", *rest]),
                       encoding="utf-8")
        argv = [arg.format(bad=bad, out=out, valid=valid_inputs) for arg in template]
        target = Path(argv[-1])
        code = main(argv)
        printed = capsys.readouterr()
        assert code in (0, 2), (reader, path, printed)
        assert "Traceback" not in printed.err
        if code == 2:
            assert printed.err.startswith("error: ") and printed.err.count("\n") == 1
        assert set(out.iterdir()) == ({bad, target} if code == 0 else {bad}), (reader, path)
        target.unlink(missing_ok=True)
        bad.unlink()
