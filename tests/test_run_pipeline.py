import hashlib
import importlib.util
from pathlib import Path

import pytest

from perioparse.corpus import write_corpus
from perioparse.demo import demo_seed_notes

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"
_spec = importlib.util.spec_from_file_location("run_pipeline", _SCRIPT)
run_pipeline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_pipeline)

# sha256 of every file main() writes at its defaults (seed 7). A change that
# means to alter the outputs updates these digests and says why.
_ARTIFACT_SHA256 = {
    "clean.jsonl":
        "1da4a315e2f92ce08a13e0d33bc4a8ead492e749af7b2d7df082ba0d855d09fb",
    "eval_clean/bar_chart.json":
        "6a117569a0a2ef447f4f33bffb907e37685def2bc1b3dab9570404d024dfd5fe",
    "eval_clean/confusion.json":
        "0bf04fcc90dd3175dd3ec27e3638c4908a0d6cc8394885f3f05ff0ee266da2f9",
    "eval_clean/learning_curve.json":
        "baaf0f67caf793bb6115b13328d02c3d3cf125c297f2b4c62aaafdeb9512386c",
    "eval_clean/report.txt":
        "4a10ef23763c0d5c6b9ef000122c41570868d55ea14b30cda160ffcce819698c",
    "eval_perturbed/bar_chart.json":
        "21d39dcad43e71928e8e6adba6830f366be45ff504bc91a753f09ca792dd7f65",
    "eval_perturbed/confusion.json":
        "dfc6d7b4d63a46db6c5a261fbf15693dd88d890a82984b928d49ad00d71a486b",
    "eval_perturbed/learning_curve.json":
        "e5055046aec32f11ab87e34fadf1d8f1dcd34cf2614305cd21b64cf406d42736",
    "eval_perturbed/report.txt":
        "1817798dd92a23e1f58002e75a0eb1d1318cfe35a7f6cd3bc43f9263ac923bbf",
    "manifest.json":
        "101614c7e378cafa504b579f477b931d2403ebd0d2950e8480e27a0a73558ad8",
    "perturb.cfg":
        "b35a93f6844f8fbc0599db82146375131f877b6b0d1c55bf4e9228e454b3f116",
    "perturbed.jsonl":
        "3ca13864edd49661f1f53e24bef397ab9d0add1320946d4d8511115edf4a574a",
    "pred_clean.jsonl":
        "b4c6aa849c3c098a63377b04f70bfcde0f0af86ea89e9e96a9f4d7fdf43d7a05",
    "pred_perturbed.jsonl":
        "af13ee60bc3a800e61843bb88f8af36a187d46a01fb01f333cd7195d11b93c2d",
    "templates.jsonl":
        "5a86eb9ec2d1dfa5be5d97a35761b6b12332df221b10caf1e0839f4dc35689c0",
}


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


def test_malformed_templates_stop_the_pipeline(tmp_path):
    templates = tmp_path / "templates.jsonl"
    templates.write_text("{bad\n", encoding="utf-8")
    out = tmp_path / "clean.jsonl"
    out.write_text("stale corpus from an earlier run\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="step synth failed with exit code 1"):
        run_pipeline.run(["synth", "--offline", "--templates", templates,
                          "--seed", 7, "--out", out])
    assert not out.exists()


def test_main_writes_every_artifact(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr("sys.argv", ["run_pipeline.py", "--out-dir", str(out)])
    assert run_pipeline.main() == 0
    written = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }
    assert written == _ARTIFACT_SHA256
