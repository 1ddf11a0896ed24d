import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moocteams
from moocteams.cli import main
from moocteams.graph import read_graph_csv
from moocteams.metrics import pagerank
from moocteams.ingest import SynthParams, synth_corpus, write_jsonl
from moocteams.errors import ParameterError
from moocteams.pipeline import RunConfig, StageError, derive_seed, run_pipeline

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


def test_pipeline_seed_changes_propagate(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus)
    run_pipeline(RunConfig(str(corpus), str(tmp_path / "a"), seed=1))
    run_pipeline(RunConfig(str(corpus), str(tmp_path / "b"), seed=2))
    a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert a["seed"] != b["seed"]
    assert [s["seed"] for s in a["stages"]] != [s["seed"] for s in b["stages"]]


def test_pipeline_small_corpus_skips_teams_and_diffusion(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    _corpus(corpus, students=2, posts=3, comments=2, seed=0)
    out = tmp_path / "run"
    result = run_pipeline(RunConfig(str(corpus), str(out), seed=0))
    stages = {s["name"]: s for s in result.manifest["stages"]}
    assert result.manifest["status"] == "complete"
    assert stages["teams"]["status"] == "skipped"
    assert not (out / "teams.json").exists()


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


def test_pipeline_missing_input_is_a_config_error(tmp_path):
    with pytest.raises(ParameterError):
        run_pipeline(RunConfig(str(tmp_path / "nope.jsonl"), str(tmp_path / "run")))


def test_config_round_trip_rejects_unknown_keys(tmp_path):
    config = RunConfig("in.jsonl", "out", seed=3, s_min=3, s_max=4)
    again = RunConfig.from_dict(config.to_dict())
    assert again == config
    bad = config.to_dict()
    bad["mystery_knob"] = 1
    with pytest.raises(Exception):
        RunConfig.from_dict(bad)


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
                 "--graph", str(graph), "--beta", "0.5"]) == 0
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


def test_cli_rejects_repeated_graph_edge(tmp_path, capsys):
    graph = tmp_path / "graph.csv"
    graph.write_text("src,dst,weight\na,b,1\nb,a,2\na,b,5\n")
    assert main(["metrics", "--graph", str(graph),
                 "--output", str(tmp_path / "metrics.csv")]) == 2
    assert "repeated edge" in capsys.readouterr().err


def test_package_imports_without_numpy():
    src = str(Path(moocteams.__file__).resolve().parents[1])
    code = "import sys, moocteams; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "False"
