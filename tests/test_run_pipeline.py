import importlib.util
from pathlib import Path

import pytest

from perioparse.corpus import write_corpus
from perioparse.demo import demo_seed_notes

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"
_spec = importlib.util.spec_from_file_location("run_pipeline", _SCRIPT)
run_pipeline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_pipeline)


def test_extract_on_missing_corpus_stops_the_pipeline(tmp_path):
    with pytest.raises(SystemExit, match="step extract failed with exit code 1"):
        run_pipeline.run(["extract", tmp_path / "missing.jsonl", tmp_path / "pred.jsonl"])


def test_extract_on_malformed_corpus_stops_the_pipeline(tmp_path):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("{not json\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="step extract failed with exit code 1"):
        run_pipeline.run(["extract", corpus, tmp_path / "pred.jsonl"])


def test_synth_qa_findings_do_not_stop_the_pipeline(tmp_path):
    templates = tmp_path / "templates.jsonl"
    write_corpus(demo_seed_notes(15), templates)
    cfg = tmp_path / "perturb.cfg"
    cfg.write_text("typo_rate = 0.15\ninformal_format_rate = 0.15\n", encoding="utf-8")
    argv = ["synth", "--offline", "--templates", templates, "--config", cfg,
            "--seed", 7, "--variants", 10, "--out", tmp_path / "perturbed.jsonl"]
    assert run_pipeline.cli([str(a) for a in argv]) == 1
    run_pipeline.run(argv)


def test_main_writes_every_artifact(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr("sys.argv", ["run_pipeline.py", "--out-dir", str(out)])
    assert run_pipeline.main() == 0
    assert len([p for p in out.rglob("*") if p.is_file()]) == 15
