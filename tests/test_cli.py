import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest

from perioparse.cli import _CONFIG_TYPES, main, read_config
from perioparse.corpus import (
    AnnotatedNote,
    Note,
    PatientMeta,
    read_corpus,
    read_manifest,
    write_corpus,
)
from perioparse.demo import demo_seed_notes, demo_seed_templates
from perioparse.evaluation import learning_curve, notes_by_site
from perioparse.extraction import MODES, extract_entities
from perioparse.model import (
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
)
from perioparse.normalization import GuidelineVersion
from perioparse.reporting import json_text, learning_curve_to_obj
from perioparse.synthesis import PERTURBATION_RATES, generate_offline


@pytest.fixture
def template_file(tmp_path):
    path = tmp_path / "templates.jsonl"
    write_corpus(demo_seed_notes(per_category=15), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


# --------------------------------------------------------------------------
# cohort

def test_cohort_counts(tmp_path, capsys):
    corpus = tmp_path / "in.jsonl"
    notes = [AnnotatedNote(note=Note(f"n-{i}", "site1", "text")) for i in range(10)]
    write_corpus(notes, corpus)
    meta = tmp_path / "meta.jsonl"
    rows = []
    for i in range(10):
        eligible = i < 7
        rows.append(
            {
                "note_id": f"n-{i}",
                "age": 40 if eligible else 12,
                "natural_teeth_count": 28,
                "has_full_mouth_radiographs": True,
                "has_periodontal_charting": True,
            }
        )
    meta.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("cohort", corpus, meta, out) == 0
    assert "7/10 eligible" in capsys.readouterr().out
    assert len(read_corpus(out)) == 7


def test_cohort_empty_input(tmp_path, capsys):
    corpus = tmp_path / "in.jsonl"
    write_corpus([], corpus)
    meta = tmp_path / "meta.jsonl"
    meta.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("cohort", corpus, meta, out) == 0
    assert "0/0 eligible" in capsys.readouterr().out


def test_cohort_missing_meta_file(tmp_path, capsys):
    corpus = tmp_path / "in.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "x"))], corpus)
    missing = tmp_path / "nope.jsonl"
    assert run("cohort", corpus, missing, tmp_path / "out.jsonl") == 1
    assert str(missing) in capsys.readouterr().err


def test_cohort_uses_inline_meta_as_fallback(tmp_path, capsys):
    corpus = tmp_path / "in.jsonl"
    notes = [
        AnnotatedNote(
            note=Note("n-1", "site1", "x"), meta=PatientMeta(50, 20, True, True)
        ),
        AnnotatedNote(note=Note("n-2", "site1", "x")),  # no meta anywhere
    ]
    write_corpus(notes, corpus)
    meta = tmp_path / "meta.jsonl"
    meta.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("cohort", corpus, meta, out) == 0
    assert "1/2 eligible" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, value",
    [
        ("has_full_mouth_radiographs", "false"),
        ("has_periodontal_charting", 0),
        ("natural_teeth_count", 27.9),
        ("age", True),
        ("age", "40"),
    ],
)
def test_cohort_rejects_mistyped_meta(tmp_path, capsys, field, value):
    corpus = tmp_path / "in.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "x"))], corpus)
    row = {"note_id": "n-1", "age": 40, "natural_teeth_count": 28,
           "has_full_mouth_radiographs": True, "has_periodontal_charting": True}
    meta = tmp_path / "meta.jsonl"
    meta.write_text(json.dumps({**row, field: value}) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("cohort", corpus, meta, out) == 1
    err = capsys.readouterr().err
    assert f"{meta}:1: malformed meta record" in err and field in err
    assert not out.exists()


def test_cohort_rejects_repeated_meta_id(tmp_path, capsys):
    # A second line for an id must not silently override the first (age 10 is ineligible).
    corpus = tmp_path / "in.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "x"))], corpus)
    row = {"note_id": "n-1", "age": 40, "natural_teeth_count": 28,
           "has_full_mouth_radiographs": True, "has_periodontal_charting": True}
    meta = tmp_path / "meta.jsonl"
    meta.write_text(json.dumps(row) + "\n" + json.dumps({**row, "age": 10}) + "\n",
                    encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("cohort", corpus, meta, out) == 1
    assert f"{meta}:2: duplicate note_id 'n-1'" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# synth

def test_synth_offline_counts_and_qa(tmp_path, template_file, capsys):
    out = tmp_path / "synth.jsonl"
    code = run(
        "synth", "--offline", "--templates", template_file, "--seed", 7,
        "--variants", 10, "--out", out,
    )
    assert code == 0
    notes = read_corpus(out)
    assert len(notes) == 450
    assert all(n.qa is not None and n.qa["consistent"] for n in notes)


def test_synth_offline_deterministic(tmp_path, template_file):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert run(
            "synth", "--offline", "--templates", template_file, "--seed", 7,
            "--variants", 3, "--out", out,
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_selection_path(tmp_path, capsys):
    corpus = tmp_path / "seeds.jsonl"
    write_corpus(demo_seed_notes(per_category=20), corpus)
    out = tmp_path / "synth.jsonl"
    code = run(
        "synth", "--offline", "--corpus", corpus, "--per-category", 15,
        "--seed", 3, "--variants", 2, "--out", out,
    )
    assert code == 0
    assert len(read_corpus(out)) == 90


@pytest.mark.parametrize(
    "config_text, flags, expected",
    [
        ("variants_per_template = 3\n", [], 135),
        ("variants_per_template = 3\n", ["--variants", 2], 90),
        ("", [], 450),
    ],
    ids=["config", "flag-overrides-config", "default"],
)
def test_variants_flag_overrides_config(tmp_path, template_file, config_text, flags, expected):
    config = tmp_path / "gen.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "synth.jsonl"
    assert run(
        "synth", "--offline", "--templates", template_file, "--seed", 7, "--config", config,
        *flags, "--out", out,
    ) == 0
    assert len(read_corpus(out)) == expected


def test_synth_requires_seed_for_offline(tmp_path, template_file):
    assert run(
        "synth", "--offline", "--templates", template_file, "--out", tmp_path / "x.jsonl"
    ) == 2


@pytest.mark.parametrize(
    "source, engine",
    [("--templates", "--offline"), ("--corpus", "--offline"), ("--corpus", "--online")],
)
def test_synth_checks_seed_before_reading_any_file(tmp_path, capsys, source, engine):
    missing = tmp_path / "missing.jsonl"
    out = tmp_path / "x.jsonl"
    assert run("synth", engine, source, missing, "--config", missing, "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: --seed is required with --corpus and with --offline"
    ]
    assert not out.exists()


def test_config_that_is_not_utf8_is_usage_error(tmp_path, template_file, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"# caf\xe9\ntypo_rate = 0.1\n")
    out = tmp_path / "x.jsonl"
    code = run("synth", "--offline", "--templates", template_file, "--config", config,
               "--seed", 7, "--out", out)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: cannot read config file {config}")
    assert not out.exists()


def test_synth_online_requires_endpoint_config(tmp_path, template_file):
    config = tmp_path / "gen.cfg"
    config.write_text("model_name = gpt-test\n", encoding="utf-8")
    assert run(
        "synth", "--online", "--templates", template_file, "--config", config,
        "--out", tmp_path / "x.jsonl",
    ) == 2


def test_synth_online_without_api_key(tmp_path, template_file, monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    config = tmp_path / "gen.cfg"
    config.write_text(
        "model_name = gpt-test\nendpoint_url = http://127.0.0.1:1/v1/chat/completions\n",
        encoding="utf-8",
    )
    assert run(
        "synth", "--online", "--templates", template_file, "--config", config,
        "--out", tmp_path / "x.jsonl",
    ) == 2


@pytest.mark.parametrize("url", ["notaurl", "", "localhost:8080/v1/chat"])
def test_synth_online_rejects_an_endpoint_that_is_no_http_url(
    tmp_path, template_file, monkeypatch, capsys, url
):
    monkeypatch.setenv("OPENAI_API_KEY", "key")
    config = tmp_path / "gen.cfg"
    config.write_text(f"model_name = gpt-test\nendpoint_url = {url}\n", encoding="utf-8")
    assert run(
        "synth", "--online", "--templates", template_file, "--config", config,
        "--out", tmp_path / "x.jsonl",
    ) == 2
    err = capsys.readouterr().err
    assert "configuration error: endpoint_url must be an http or https URL" in err


def test_synth_online_against_mock_endpoint(tmp_path, monkeypatch):
    from test_llm import MockEndpoint

    monkeypatch.setenv("PERIOPARSE_TEST_KEY", "key")
    small_templates = tmp_path / "templates.jsonl"
    write_corpus(demo_seed_notes(per_category=2), small_templates)  # 6 templates
    endpoint = MockEndpoint(trailer_mode="diagnosis")
    try:
        config = tmp_path / "gen.cfg"
        config.write_text(
            f"model_name = gpt-test\nendpoint_url = {endpoint.url}\n"
            "api_key_env = PERIOPARSE_TEST_KEY\nretry_limit = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "online.jsonl"
        code = run(
            "synth", "--online", "--templates", small_templates, "--config", config,
            "--variants", 3, "--out", out,
        )
        assert code == 0
        notes = read_corpus(out)
        assert len(notes) == 18
        assert len(endpoint.bodies) == 18
        assert all(b["temperature"] == 1.0 and b["top_p"] == 1.0 for b in endpoint.bodies)
        assert all(n.qa["consistent"] for n in notes)
    finally:
        endpoint.close()


def test_synth_online_completion_without_text_is_one_error_line(
    tmp_path, template_file, monkeypatch, capsys
):
    from test_llm import MockEndpoint

    monkeypatch.setenv("OPENAI_API_KEY", "key")
    endpoint = MockEndpoint(trailer_mode="null")
    try:
        config = tmp_path / "gen.cfg"
        config.write_text(
            f"model_name = gpt-test\nendpoint_url = {endpoint.url}\n", encoding="utf-8"
        )
        out = tmp_path / "online.jsonl"
        assert run(
            "synth", "--online", "--templates", template_file, "--config", config,
            "--variants", 1, "--out", out,
        ) == 1
    finally:
        endpoint.close()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: template ")
    assert "malformed completion payload: content must be a string, got None" in err[0]
    assert not out.exists()


def test_synth_online_completion_nested_too_deeply_is_one_error_line(
    tmp_path, template_file, monkeypatch, capsys
):
    from test_llm import MockEndpoint

    monkeypatch.setenv("OPENAI_API_KEY", "key")
    endpoint = MockEndpoint(trailer_mode="deep")
    try:
        config = tmp_path / "gen.cfg"
        config.write_text(
            f"model_name = gpt-test\nendpoint_url = {endpoint.url}\n", encoding="utf-8"
        )
        out = tmp_path / "online.jsonl"
        assert run(
            "synth", "--online", "--templates", template_file, "--config", config,
            "--variants", 1, "--out", out,
        ) == 1
    finally:
        endpoint.close()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: template ")
    assert "malformed completion payload: " in err[0]
    assert not out.exists()


def test_synth_perturbation_config_and_fix_labels(tmp_path, template_file, capsys):
    config = tmp_path / "perturb.cfg"
    config.write_text(
        "# robustness run\ninformal_format_rate = 1.0\n", encoding="utf-8"
    )
    out = tmp_path / "perturbed.jsonl"
    code = run(
        "synth", "--offline", "--templates", template_file, "--config", config,
        "--seed", 11, "--variants", 2, "--out", out,
    )
    assert code == 1  # informal extent drops cause QA discrepancies
    assert any(not n.qa["consistent"] for n in read_corpus(out))

    fixed_out = tmp_path / "fixed.jsonl"
    code = run(
        "synth", "--offline", "--templates", template_file, "--config", config,
        "--seed", 11, "--variants", 2, "--out", fixed_out, "--fix-labels",
    )
    assert code == 0
    fixed = [n for n in read_corpus(fixed_out) if n.qa.get("auto_fixed")]
    assert fixed
    for n in fixed:
        # the written record is the QA proposal on every discrepant dimension
        for d in n.qa["discrepancies"]:
            value = n.record.value_for(Dimension(d["dimension"])) if n.record else None
            assert (value.value if value is not None else "blank") == d["proposal"]


@pytest.mark.parametrize(
    "config_text, argv, named",
    [
        ("variants_per_template = ten\n", ["synth"], "variants_per_template"),
        ("typo_rate = x\n", ["synth"], "typo_rate"),
        ("", ["synth", "--variants", 0], "variants_per_template"),
        ("", ["evaluate", "--curve", "--step", 0], "--step"),
        ("", ["evaluate", "--curve", "--window", 0], "--window"),
        ("", ["evaluate", "--curve", "--epsilon", 0], "--epsilon"),
        ("", ["evaluate", "--curve", "--epsilon", -1], "--epsilon"),
        ("", ["evaluate", "--curve", "--epsilon", "nan"], "--epsilon"),
        ("", ["evaluate", "--curve", "--epsilon", "inf"], "--epsilon"),
        ("", ["evaluate", "--step", 30], "--step works only with --curve"),
        ("", ["evaluate", "--epsilon", 0.01], "--epsilon works only with --curve"),
        ("", ["evaluate", "--window", 2], "--window works only with --curve"),
        ("", ["evaluate", "--curve-seed", 3], "--curve-seed works only with --curve"),
        ("", ["evaluate", "--dimension", "Stage"], "--dimension works only with --curve"),
        ("typo_rate = 0.5\ntypo_rat = 0.9\n", ["synth"], "'typo_rat'"),
        ("temperature = x\n", ["synth"], "temperature"),
        ("max_concurrent_requests = 2.5\n", ["synth"], "max_concurrent_requests"),
        (
            "typo_rate = 0.9\ntypo_rate = 0.0\n", ["synth"],
            ":2: config key 'typo_rate' already set on line 1",
        ),
    ],
    ids=[
        "variants-not-a-number", "rate-not-a-number", "zero-variants", "zero-curve-step",
        "zero-curve-window", "zero-epsilon", "negative-epsilon", "nan-epsilon",
        "infinite-epsilon", "step-without-curve", "epsilon-without-curve",
        "window-without-curve", "curve-seed-without-curve", "dimension-without-curve",
        "misspelled-key", "temperature-not-a-number",
        "fractional-concurrency", "duplicate-key",
    ],
)
def test_bad_values_are_usage_errors(tmp_path, template_file, capsys, config_text, argv, named):
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    eval_dir = tmp_path / "eval"
    if argv[0] == "synth":
        argv = [*argv, "--offline", "--templates", template_file, "--config", config,
                "--seed", 1, "--out", out]
    else:
        argv = [argv[0], template_file, template_file, eval_dir, *argv[1:]]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists() and not eval_dir.exists()


_SECTIONS = b"[rules]\nr\n[components]\nc\n[labeling]\nl\n"


@pytest.mark.parametrize(
    "content, named",
    [
        (b"[rules]\nr\n[components]\nc\n", "missing sections: ['labeling']"),
        (_SECTIONS + b"[Rules]\nagain\n", ":7: prompt section [rules] repeated"),
        (b"[notes]\nn\n" + _SECTIONS, ":1: unknown prompt section [notes]"),
        (_SECTIONS + b"caf\xe9\n", "not UTF-8"),
        (None, "cannot read prompt file"),
    ],
    ids=["missing-section", "repeated-header", "unknown-header", "not-utf8", "missing-file"],
)
def test_bad_prompt_file_is_usage_error(tmp_path, template_file, capsys, content, named):
    prompt = tmp_path / "prompt.txt"
    if content is not None:
        prompt.write_bytes(content)
    config = tmp_path / "run.cfg"
    config.write_text(f"prompt_file = {prompt}\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = run("synth", "--offline", "--templates", template_file, "--config", config,
               "--seed", 1, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {prompt}") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("per_category", [0, -1])
def test_synth_per_category_below_one_is_usage_error(tmp_path, capsys, per_category):
    corpus = tmp_path / "seeds.jsonl"
    write_corpus(demo_seed_notes(per_category=2), corpus)
    out = tmp_path / "synth.jsonl"
    code = run(
        "synth", "--offline", "--corpus", corpus, "--per-category", per_category,
        "--seed", 3, "--out", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "--per-category" in err
    assert not out.exists()


_ONLINE = "model_name = m\nendpoint_url = http://localhost:9/v1\n"


@pytest.mark.parametrize(
    "argv, config_text, named",
    [
        (["synth", "--offline", "--corpus", "IN", "--seed", 1, "--variants", 0], "",
         "variants_per_template must be at least 1"),
        (["synth", "--offline", "--templates", "IN", "--seed", 1], "typo_rate = 2\n",
         "typo_rate must be within [0, 1]"),
        (["synth", "--online", "--templates", "IN"], _ONLINE + "temperature = 5\n",
         "temperature must be within (0, 2]"),
        (["synth", "--online", "--templates", "IN"], "model_name = m\n", "'endpoint_url'"),
        (["synth", "--offline", "--templates", "IN", "--seed", 1], "temperature = 5\n",
         "temperature must be within (0, 2]"),
        (["synth", "--online", "--templates", "IN"], _ONLINE + "typo_rate = 5\n",
         "typo_rate must be within [0, 1]"),
        (["synth", "--online", "--templates", "IN", "--seed", 1], _ONLINE,
         "--seed does nothing with --online --templates"),
        (["synth", "--offline", "--templates", "IN", "--seed", 1, "--per-category", 3], "",
         "--per-category works only with --corpus"),
        (["synth", "--offline", "--corpus", "IN", "--seed", 1, "--per-category", 0], "",
         "--per-category must be at least 1"),
        (["split", "IN", "OUT", "--ratios", "1:2", "--seed", 1], "", "--ratios"),
        (["extract", "IN", "OUT", "--extractor", "predictions="], "",
         "--extractor must be 'builtin' or 'predictions=<path>', got 'predictions='"),
    ],
    ids=[
        "corpus-zero-variants", "rate-out-of-range", "temperature-out-of-range",
        "online-without-endpoint", "offline-checks-temperature", "online-checks-rates",
        "seed-with-online-templates", "per-category-with-templates",
        "per-category-below-one", "two-ratios", "empty-predictions-path",
    ],
)
def test_refused_values_exit_2_before_any_input_is_read(tmp_path, capsys, argv, config_text, named):
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    paths = {"IN": tmp_path / "missing.jsonl", "OUT": tmp_path / "out"}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] == "synth":
        argv += ["--config", config, "--out", paths["OUT"]]
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ") and named in err[0]
    assert list(tmp_path.iterdir()) == [config]


def test_readme_lists_exactly_the_accepted_config_keys(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config file", 1)[1].split("```", 2)[1]
    config = tmp_path / "readme.cfg"
    config.write_text(block, encoding="utf-8")
    assert set(read_config(config)) == set(_CONFIG_TYPES)


def test_offline_synth_accepts_every_config_key(tmp_path, template_file):
    config = tmp_path / "all.cfg"
    config.write_text(
        "model_name = m\nendpoint_url = http://localhost:9/v1\napi_key_env = KEY\n"
        "temperature = 0.5\ntop_p = 0.9\nmax_concurrent_requests = 2\nretry_limit = 1\n"
        "variants_per_template = 1\nprompt_file = \n"
        "typo_rate = 0\ninformal_format_rate = 0\nanchor_variation_rate = 0\n"
        "multi_diagnosis_rate = 0\ndistractor_extent_rate = 0\n",
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    assert run("synth", "--offline", "--templates", template_file, "--config", config,
               "--seed", 1, "--out", out) == 0
    assert len(read_corpus(out)) == 45


# --------------------------------------------------------------------------
# split

def test_split_450(tmp_path, template_file, capsys):
    synth_out = tmp_path / "synth.jsonl"
    run("synth", "--offline", "--templates", template_file, "--seed", 7,
        "--variants", 10, "--out", synth_out)
    manifest_path = tmp_path / "manifest.json"
    assert run("split", synth_out, manifest_path, "--seed", 13) == 0
    assert "360/45/45" in capsys.readouterr().out
    manifest = read_manifest(manifest_path)
    assert manifest.sizes() == (360, 45, 45)


def test_split_too_few_notes_is_a_data_failure(tmp_path, capsys):
    corpus = tmp_path / "two.jsonl"
    write_corpus([AnnotatedNote(note=Note(f"n-{i}", "site1", "text")) for i in range(2)], corpus)
    manifest = tmp_path / "m.json"
    assert run("split", corpus, manifest, "--seed", 1) == 1
    assert capsys.readouterr().err == "error: cannot split 2 notes into 3 partitions\n"
    assert not manifest.exists()


@pytest.mark.parametrize("command", ["split", "evaluate"])
def test_a_corpus_line_nested_too_deeply_is_a_data_failure(tmp_path, capsys, command):
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {"split": [deep, out, "--seed", 1], "evaluate": [deep, deep, out]}[command]
    assert run(command, *argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {deep}:1: malformed record: ")
    assert not out.exists()


def test_split_zero_ratio_is_usage_error(tmp_path, template_file):
    synth_out = tmp_path / "synth.jsonl"
    run("synth", "--offline", "--templates", template_file, "--seed", 7,
        "--variants", 1, "--out", synth_out)
    code = run("split", synth_out, tmp_path / "m.json", "--ratios", "9:1:0", "--seed", 1)
    assert code == 2


@pytest.mark.parametrize("ratios", ["nan:1:1", "inf:1:1"])
def test_split_non_finite_ratio_is_usage_error(tmp_path, template_file, capsys, ratios):
    synth_out = tmp_path / "synth.jsonl"
    run("synth", "--offline", "--templates", template_file, "--seed", 7,
        "--variants", 1, "--out", synth_out)
    capsys.readouterr()
    manifest = tmp_path / "m.json"
    assert run("split", synth_out, manifest, "--ratios", ratios, "--seed", 1) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--ratios" in err
    assert not manifest.exists()


def test_split_overflowing_ratio_sum_is_usage_error(tmp_path, template_file, capsys):
    # Each part is finite, but their sum is not.
    synth_out = tmp_path / "synth.jsonl"
    run("synth", "--offline", "--templates", template_file, "--seed", 7,
        "--variants", 1, "--out", synth_out)
    capsys.readouterr()
    manifest = tmp_path / "m.json"
    assert run("split", synth_out, manifest, "--ratios", "1e308:1e308:1", "--seed", 1) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--ratios" in err
    assert not manifest.exists()


def test_split_byte_identical_reruns(tmp_path, template_file):
    synth_out = tmp_path / "synth.jsonl"
    run("synth", "--offline", "--templates", template_file, "--seed", 7,
        "--variants", 2, "--out", synth_out)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    run("split", synth_out, m1, "--seed", 5)
    run("split", synth_out, m2, "--seed", 5)
    assert m1.read_bytes() == m2.read_bytes()


# --------------------------------------------------------------------------
# extract + evaluate

def make_clean_corpus(tmp_path, template_file, variants=3):
    synth_out = tmp_path / "clean.jsonl"
    run("synth", "--offline", "--templates", template_file, "--seed", 7,
        "--variants", variants, "--out", synth_out)
    return synth_out


def test_extract_builtin_reproduces_embedded(tmp_path, template_file):
    corpus = make_clean_corpus(tmp_path, template_file)
    out = tmp_path / "pred.jsonl"
    assert run("extract", corpus, out, "--mode", "strict") == 0
    gold = read_corpus(corpus)
    pred = read_corpus(out)
    assert [n.record for n in pred] == [n.record for n in gold]
    assert all(n.annotation_source.value == "Predicted" for n in pred)
    perio = [n for n in pred if n.record and n.record.status is PeriodontalStatus.PERIODONTITIS]
    assert all(n.guideline_version is GuidelineVersion.CURRENT_2018 for n in perio)


def test_extract_checks_the_extractor_before_reading_the_corpus(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert run("extract", tmp_path / "missing.jsonl", out, "--extractor", "bogus") == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: --extractor must be 'builtin' or 'predictions=<path>', got 'bogus'"
    ]
    assert not out.exists()


def test_extract_informal_vs_strict_on_informal_fixture(tmp_path):
    corpus = tmp_path / "informal.jsonl"
    write_corpus(
        [AnnotatedNote(note=Note("n-1", "site1", "Generalized III B"))], corpus
    )
    strict_out = tmp_path / "strict.jsonl"
    informal_out = tmp_path / "informal_out.jsonl"
    run("extract", corpus, strict_out, "--mode", "strict")
    run("extract", corpus, informal_out, "--mode", "informal")
    assert read_corpus(strict_out)[0].record is None
    assert read_corpus(informal_out)[0].record is not None


def make_perturbed_corpus(tmp_path, template_file, variants):
    config = tmp_path / "perturb.cfg"
    config.write_text("".join(f"{key} = 0.15\n" for key in PERTURBATION_RATES), encoding="utf-8")
    out = tmp_path / "perturbed.jsonl"
    run("synth", "--offline", "--templates", template_file, "--config", config, "--seed", 7,
        "--variants", variants, "--out", out)
    return out


def write_predictions(path, spans_by_id):
    """A prediction file: one line of `note_id` + `spans` per (id, spans) pair."""
    rows = [
        {
            "note_id": note_id,
            "spans": [
                {"dimension": s.dimension.value, "value": s.value.value, "start": s.start,
                 "end": s.end}
                for s in spans
            ],
        }
        for note_id, spans in spans_by_id
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_extract_external_predictions(tmp_path, template_file):
    # The grammar's own spans, read back as predictions, give the grammar's
    # records: on the clean corpus, and on a perturbed one whose notes may
    # render several diagnoses in one sentence.
    corpora = [
        make_clean_corpus(tmp_path, template_file, variants=1),
        make_perturbed_corpus(tmp_path, template_file, variants=10),
    ]
    for corpus in corpora:
        for mode in MODES:
            builtin_out = tmp_path / "builtin.jsonl"
            run("extract", corpus, builtin_out, "--mode", mode)
            preds_file = tmp_path / "model.jsonl"
            spans_by_id = [(n.note.note_id, n.spans) for n in read_corpus(builtin_out)]
            write_predictions(preds_file, spans_by_id)
            out = tmp_path / "external.jsonl"
            assert run("extract", corpus, out, "--extractor", f"predictions={preds_file}") == 0
            external = read_corpus(out)
            builtin = read_corpus(builtin_out)
            assert [n.record for n in external] == [n.record for n in builtin], (corpus, mode)


def test_a_note_without_a_prediction_line_gets_no_spans_and_no_record(tmp_path):
    text = "D: Generalized Periodontitis Stage II Grade B."
    corpus = tmp_path / "notes.jsonl"
    write_corpus([AnnotatedNote(note=Note(nid, "site1", text)) for nid in ("n-1", "n-2")], corpus)
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, [("n-1", extract_entities(text, "strict"))])
    builtin_out, out = tmp_path / "builtin.jsonl", tmp_path / "out.jsonl"
    assert run("extract", corpus, builtin_out) == 0
    assert run("extract", corpus, out, "--extractor", f"predictions={preds}") == 0
    covered, missing = out.read_text().splitlines()
    assert covered == builtin_out.read_text().splitlines()[0]
    assert '"note_id": "n-2"' in missing and '"spans": [], "record": null' in missing
    assert read_corpus(out)[1].record is None


P, G = PeriodontalStatus.PERIODONTITIS, PeriodontalStatus.GINGIVITIS


@pytest.mark.parametrize(
    "text, extra_extent, record",
    [
        (
            "D- Localized Periodontitis Stage I Grade A and Generalized Gingivitis",
            None,
            DiagnosisRecord(P, Stage.I, Grade.A, Extent.LOCALIZED),
        ),
        (
            "Dx: Gingivitis. Localized recession noted. D: Stage III",
            None,
            DiagnosisRecord(P, Stage.III),
        ),
        ("D: Gingivitis with Generalized Recession.", "Generalized", DiagnosisRecord(G)),
    ],
    ids=["extent-of-the-other-diagnosis", "stage-in-a-later-sentence", "extent-without-head"],
)
def test_predicted_spans_are_grouped_like_the_grammars(
    tmp_path, capsys, text, extra_extent, record
):
    corpus = tmp_path / "notes.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", text))], corpus)
    spans = extract_entities(text, "strict")
    if extra_extent:  # an extent the grammar drops, as a tagger might predict it
        start = text.index(extra_extent)
        end = start + len(extra_extent)
        spans.append(EntitySpan(Dimension.EXTENT, Extent(extra_extent), start, end, extra_extent))
    preds = tmp_path / "preds.jsonl"
    write_predictions(preds, [("n-1", spans)])
    builtin_out, out = tmp_path / "builtin.jsonl", tmp_path / "out.jsonl"
    assert run("extract", corpus, builtin_out) == 0
    assert run("extract", corpus, out, "--extractor", f"predictions={preds}") == 0
    (builtin,), (external,) = read_corpus(builtin_out), read_corpus(out)
    assert builtin.record == external.record == record
    assert list(external.spans) == spans  # every predicted span is written, grouped or not
    # `--mode` applies to the grammar only, so the predictions line names the span source
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        "extracted 1 notes (strict mode)",
        f"extracted 1 notes (predictions={preds})",
    ]


def test_evaluate_self_is_perfect(tmp_path, template_file, capsys):
    corpus = make_clean_corpus(tmp_path, template_file)
    out_dir = tmp_path / "eval"
    assert run("evaluate", corpus, corpus, out_dir) == 0
    stdout = capsys.readouterr().out
    assert "weighted F1 1.00" in stdout
    report = (out_dir / "report.txt").read_text()
    assert "1.00" in report
    assert (out_dir / "confusion.json").exists()
    assert (out_dir / "bar_chart.json").exists()


def test_evaluate_curve_says_which_site_gets_none(tmp_path, template_file, capsys):
    corpus = make_clean_corpus(tmp_path, template_file, variants=1)  # 45 notes
    out_dir = tmp_path / "eval"
    assert run("evaluate", corpus, corpus, out_dir, "--curve", "--step", 100) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert "site1: 45 notes, fewer than --step 100; no curve" in stdout
    assert json.loads((out_dir / "learning_curve.json").read_text()) == {}


def test_evaluate_mismatched_ids(tmp_path, template_file, capsys):
    corpus = make_clean_corpus(tmp_path, template_file, variants=1)
    notes = read_corpus(corpus)
    short = tmp_path / "short.jsonl"
    write_corpus(notes[:-1], short)
    assert run("evaluate", corpus, short, tmp_path / "eval") == 1
    assert "missing from predictions" in capsys.readouterr().err


def test_evaluate_curve_30_step_points(tmp_path, template_file):
    corpus = make_clean_corpus(tmp_path, template_file, variants=10)  # 450 notes
    pred = tmp_path / "pred.jsonl"
    run("extract", corpus, pred, "--mode", "informal")
    out_dir = tmp_path / "eval"
    assert run("evaluate", corpus, pred, out_dir, "--curve", "--report", "json") == 0
    curves = json.loads((out_dir / "learning_curve.json").read_text())
    curve = curves["site1"]
    assert [p["size"] for p in curve["points"]] == list(range(30, 451, 30))
    assert (out_dir / "report.json").exists()


def test_evaluate_curve_dimension_and_seed(tmp_path, template_file):
    # Strict mode misreads some perturbed notes' stages, so the Stage curve
    # depends on the shuffle seed.
    corpus = make_perturbed_corpus(tmp_path, template_file, variants=4)  # 180 notes
    pred = tmp_path / "pred.jsonl"
    assert run("extract", corpus, pred, "--mode", "strict") == 0
    out_dir = tmp_path / "eval"
    assert run("evaluate", corpus, pred, out_dir, "--curve", "--dimension", "Stage",
               "--curve-seed", 3) == 0
    preds = {n.note.note_id: n.record for n in read_corpus(pred)}
    expected = {
        site: learning_curve_to_obj(
            learning_curve(site_notes, preds, step=30, seed=3, dimension=Dimension.STAGE)
        )
        for site, site_notes in notes_by_site(read_corpus(corpus)).items()
    }
    curves = json.loads((out_dir / "learning_curve.json").read_text())
    assert curves == json.loads(json_text(expected))
    assert curves["site1"]["dimension"] == "Stage"


def test_full_pipeline_evaluate_report_csv(tmp_path, template_file):
    corpus = make_clean_corpus(tmp_path, template_file)
    pred = tmp_path / "pred.jsonl"
    run("extract", corpus, pred)
    out_dir = tmp_path / "eval"
    assert run("evaluate", corpus, pred, out_dir, "--report", "csv") == 0
    assert (out_dir / "report.csv").read_text().startswith("site,dimension,average")


# Note text "D: Stage II periodontitis": "Stage" spans [3,8) and "II" spans [9,11).
_STAGE_II = {"dimension": "Stage", "value": "II", "start": 9, "end": 11}


@pytest.mark.parametrize(
    "lines, bad_line",
    [
        (['{"note_id": "n-1", "spans": []}', "[1, 2]"], 2),
        (['{"note_id": "n-1", "spans": 5}'], 1),
        (['{"note_id": "n-1", "spans": []}', '{"note_id": "n-2", "spans": []}',
          '{"note_id": "n-1", "spans": []}'], 3),
        ([json.dumps({"note_id": "n-1", "spans": [
            _STAGE_II, {"dimension": "Stage", "value": "II", "start": 6, "end": 11}]})], 1),
        (['{"note_id": "n-1", "spans": []}', json.dumps({"note_id": "n-2", "spnas": [_STAGE_II]})],
         2),
    ],
    ids=[
        "non-object-line", "spans-not-a-list", "repeated-note-id", "overlapping-spans",
        "misspelled-spans-key",
    ],
)
def test_extract_rejects_bad_prediction_lines(tmp_path, capsys, lines, bad_line):
    corpus = tmp_path / "in.jsonl"
    write_corpus([AnnotatedNote(note=Note(f"n-{i}", "site1", "D: Stage II periodontitis"))
                  for i in (1, 2)], corpus)
    preds = tmp_path / "preds.jsonl"
    preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("extract", corpus, out, "--extractor", f"predictions={preds}") == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert f"{preds}:{bad_line}:" in err_lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value", [("note_id", 5), ("site_id", 3), ("site_id", None), ("text", 5)]
)
def test_corpus_string_fields_must_be_json_strings(tmp_path, capsys, field, value):
    good = tmp_path / "good.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "D: Stage II periodontitis"))], good)
    corpus = tmp_path / "in.jsonl"
    obj = {**json.loads(good.read_text(encoding="utf-8")), field: value}
    corpus.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("extract", corpus, out) == 1
    assert run("evaluate", good, corpus, tmp_path / "eval") == 1
    message = f"error: {corpus}:1: malformed record: {field} must be str, got {value!r}"
    assert capsys.readouterr().err.splitlines() == [message] * 2
    assert not out.exists()


def test_extract_from_or_to_a_directory_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "in.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "D: Stage II periodontitis"))], corpus)
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run("extract", folder, tmp_path / "out.jsonl") == 1
    assert run("extract", corpus, folder) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: ") and str(folder) in line for line in err)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["folder", "in.jsonl"]


def test_a_missing_input_creates_no_output_directory(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert run("extract", missing, tmp_path / "new" / "dir" / "out.jsonl") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno 2] No such file or directory: '{missing}'"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["extract", "evaluate"])
def test_a_malformed_last_line_leaves_every_output_as_it_was(
    tmp_path, template_file, capsys, command
):
    # The lines before it are streamed into the temp file before the bad one is read.
    corpus = make_clean_corpus(tmp_path, template_file, variants=1)  # 45 notes
    text = corpus.read_text(encoding="utf-8")
    last = {**json.loads(text.splitlines()[0]), "note_id": "n-x", "text": 5}
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text + json.dumps(last) + "\n", encoding="utf-8")
    earlier = tmp_path / "earlier"
    earlier.mkdir()
    (earlier / "out.jsonl").write_text("earlier\n", encoding="utf-8")
    (earlier / "report.txt").write_text("earlier\n", encoding="utf-8")
    if command == "extract":
        outputs = [earlier / "out.jsonl", tmp_path / "new" / "out.jsonl"]
        codes = [run("extract", bad, out) for out in outputs]
    else:
        outputs = [earlier, tmp_path / "new"]
        codes = [run("evaluate", corpus, bad, out) for out in outputs]
    assert codes == [1, 1]
    message = f"error: {bad}:46: malformed record: text must be str, got 5"
    assert capsys.readouterr().err.splitlines() == [message] * 2
    assert sorted(p.name for p in earlier.iterdir()) == ["out.jsonl", "report.txt"]
    assert {p.read_text(encoding="utf-8") for p in earlier.iterdir()} == {"earlier\n"}
    assert not list(tmp_path.rglob("*.tmp"))
    assert not list(tmp_path.glob("new/*"))


def test_extract_and_evaluate_memory_does_not_grow_with_the_corpus(tmp_path):
    # Each note is read, worked on and written before the next: ten times the
    # notes may add only the ids kept to refuse a repeat, and the id-keyed
    # records evaluate scores. Holding the notes adds ~2-3 MiB at 900 notes.
    templates = demo_seed_templates(15)
    runs = {}
    for variants in (20, 2):  # 900 and 90 notes; the 90 are among the 900
        corpus, pred = tmp_path / f"c{variants}.jsonl", tmp_path / f"p{variants}.jsonl"
        write_corpus(generate_offline(templates, variants), corpus)
        runs[variants] = {
            "extract": (corpus, tmp_path / "out.jsonl", "--mode", "informal"),
            "evaluate": (corpus, pred, tmp_path / "eval"),
        }
        # Reading the 900 notes first fills the sentence and label memos.
        assert run("extract", corpus, pred, "--mode", "informal") == 0
        assert run("evaluate", *runs[variants]["evaluate"]) == 0

    def peak(command, args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(command, *args) == 0
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        growth = {
            command: peak(command, runs[20][command]) - peak(command, runs[2][command])
            for command in ("extract", "evaluate")
        }
    finally:
        tracemalloc.stop()
    assert max(growth.values()) < 512 * 1024, growth


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("guideline_version", 0, "guideline_version must be str, got 0"),
        ("guideline_version", "", "'' is not a valid GuidelineVersion"),
        ("guideline_version", False, "guideline_version must be str, got False"),
        ("guideline_version", "2018", "'2018' is not a valid GuidelineVersion"),
        ("qa", 5, "qa must be dict, got 5"),
        ("qa", [1], "qa must be dict, got [1]"),
        ("spans", {}, "spans must be list, got {}"),
        ("spans", "", "spans must be list, got ''"),
        ("spans", None, "spans must be list, got None"),
        ("spans", [5], "spans[0] must be dict, got 5"),
        ("record", 5, "record must be dict, got 5"),
        ("record", [], "record must be dict, got []"),
        ("record", {"status": "Health", "subtpye": "Intact Periodontium"},
         "unknown record field 'subtpye'"),
        ("meta", "x", "meta must be dict, got 'x'"),
        ("meta", [], "meta must be dict, got []"),
    ],
    ids=["version-zero", "version-empty", "version-false", "version-unknown", "qa-int", "qa-list",
         "spans-object", "spans-string", "spans-null", "spans-int-item", "record-int",
         "record-list", "record-unknown-field", "meta-string", "meta-list"],
)
def test_corpus_optional_fields_are_checked(tmp_path, capsys, field, value, reason):
    good = tmp_path / "good.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "D: Stage II periodontitis"))], good)
    corpus = tmp_path / "in.jsonl"
    obj = {**json.loads(good.read_text(encoding="utf-8")), field: value}
    corpus.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("extract", corpus, out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {corpus}:1: malformed record: {reason}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value", [("start", 9.7), ("start", "9"), ("start", True), ("end", 11.0)]
)
def test_span_offsets_must_be_json_integers(tmp_path, capsys, field, value):
    good = tmp_path / "good.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "D: Stage II periodontitis"))], good)
    span = {"dimension": "Stage", "value": "II", "start": 9, "end": 11, field: value}
    corpus = tmp_path / "in.jsonl"
    corpus.write_text(
        json.dumps({**json.loads(good.read_text(encoding="utf-8")), "spans": [span]}) + "\n",
        encoding="utf-8",
    )
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"note_id": "n-1", "spans": [span]}) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("extract", corpus, out) == 1
    assert run("extract", good, out, "--extractor", f"predictions={preds}") == 1
    reason = f"{field} must be int, got {value!r}"
    assert capsys.readouterr().err.splitlines() == [
        f"error: {corpus}:1: malformed record: {reason}",
        f"error: {preds}:1: malformed prediction record: note 'n-1': {reason}",
    ]
    assert not out.exists()


# Note text "D: Stage II periodontitis" has 25 characters; "II" spans [9,11).
@pytest.mark.parametrize(
    "spans, reason",
    [
        ([{**_STAGE_II, "start": -1}], "bad span offsets [-1,11)"),
        ([{**_STAGE_II, "start": 11}], "bad span offsets [11,11)"),
        ([{**_STAGE_II, "end": 30}], "span [9,30) out of bounds for note of length 25"),
        ([{**_STAGE_II, "raw_text": "IX"}],
         "span [9,11) raw_text 'IX' does not match note text 'II'"),
        ([_STAGE_II, {**_STAGE_II, "start": 6}], "span [9,11) overlaps [6,11)"),
        ({}, "spans must be list, got {}"),
        ("", "spans must be list, got ''"),
        ([_STAGE_II, 5], "spans[1] must be dict, got 5"),
    ],
    ids=["negative-start", "empty", "end-past-text", "raw-text-mismatch", "overlap",
         "spans-object", "spans-string", "spans-int-item"],
)
def test_each_span_rule_has_one_message(tmp_path, capsys, spans, reason):
    good = tmp_path / "good.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "D: Stage II periodontitis"))], good)
    corpus = tmp_path / "in.jsonl"
    corpus.write_text(
        json.dumps({**json.loads(good.read_text(encoding="utf-8")), "spans": spans}) + "\n",
        encoding="utf-8",
    )
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"note_id": "n-1", "spans": spans}) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("extract", corpus, out) == 1
    assert run("extract", good, out, "--extractor", f"predictions={preds}") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {corpus}:1: malformed record: {reason}",
        f"error: {preds}:1: malformed prediction record: note 'n-1': {reason}",
    ]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["corpus", "meta", "predictions"])
@pytest.mark.parametrize(
    "bad_id, reason",
    [
        (b'"n-\\ud800"', "'utf-8' codec can't encode character '\\ud800' in position"),
        (b'"n-\xff"', "'utf-8' codec can't decode byte 0xff in position"),
    ],
    ids=["lone-surrogate", "invalid-utf8"],
)
def test_lines_must_be_utf8_without_lone_surrogates(tmp_path, capsys, kind, bad_id, reason):
    corpus = tmp_path / "in.jsonl"
    write_corpus([AnnotatedNote(note=Note("n-1", "site1", "D: Stage II periodontitis"))], corpus)
    first = {
        "corpus": corpus.read_bytes().strip(),
        "meta": json.dumps({"note_id": "n-1", "age": 40, "natural_teeth_count": 28,
                            "has_full_mouth_radiographs": True,
                            "has_periodontal_charting": True}).encode(),
        "predictions": b'{"note_id": "n-1", "spans": []}',
    }[kind]
    path = tmp_path / f"bad-{kind}.jsonl"
    path.write_bytes(first + b"\n" + first.replace(b'"n-1"', bad_id) + b"\n")
    out = tmp_path / "out.jsonl"
    argv, what = {
        "corpus": (["extract", path, out], "record"),
        "meta": (["cohort", corpus, path, out], "meta record"),
        "predictions": (["extract", corpus, out, "--extractor", f"predictions={path}"],
                        "prediction record"),
    }[kind]
    assert run(*argv) == 1
    [message] = capsys.readouterr().err.splitlines()
    assert message.startswith(f"error: {path}:2: malformed {what}: {reason}")
    assert not out.exists()


def test_meta_and_prediction_note_ids_must_be_json_strings(tmp_path, capsys):
    corpus = tmp_path / "in.jsonl"
    write_corpus([AnnotatedNote(note=Note("5", "site1", "D: Stage II periodontitis"))], corpus)
    meta = tmp_path / "meta.jsonl"
    meta.write_text(json.dumps({"note_id": 5, "age": 40, "natural_teeth_count": 28,
                                "has_full_mouth_radiographs": True,
                                "has_periodontal_charting": True}) + "\n", encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"note_id": 5, "spans": []}\n', encoding="utf-8")
    assert run("cohort", corpus, meta, tmp_path / "cohort.jsonl") == 1
    assert run("extract", corpus, tmp_path / "out.jsonl", "--extractor", f"predictions={preds}") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {meta}:1: malformed meta record: note_id must be str, got 5",
        f"error: {preds}:1: malformed prediction record: note_id must be str, got 5",
    ]
