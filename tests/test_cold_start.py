"""A CLI step loads only what it runs.

Offline steps must not load the HTTP/TLS stack; only `synth --online` uses it.
Importing the package or the CLI loads no library module beyond `model`, and
each subcommand loads exactly the modules it calls. `from perioparse import X`
resolves X on first use.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import perioparse
from perioparse.corpus import write_corpus
from perioparse.demo import demo_seed_notes

NETWORK_MODULES = ("http.client", "ssl", "email.parser", "urllib.request", "concurrent.futures")

PACKAGE_ROOT = str(Path(perioparse.__file__).resolve().parents[1])

# A fresh interpreter: this one has already imported whatever other tests needed.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
network = json.loads(sys.argv[2])
loaded = {}
for name in ("perioparse", "perioparse.cli"):
    __import__(name)
    loaded[name] = [m for m in network if m in sys.modules]
print(json.dumps(loaded))
"""


def test_importing_the_cli_loads_no_network_stack():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, PACKAGE_ROOT, json.dumps(NETWORK_MODULES)],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == {"perioparse": [], "perioparse.cli": []}


# A fresh interpreter runs `code`, then prints the package's submodules it loaded.
_FOOTPRINT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
exec(sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("perioparse."))))
"""


def _loaded(code: str) -> set[str]:
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, PACKAGE_ROOT, code],
        capture_output=True, text=True, check=True,
    )
    return {m.removeprefix("perioparse.") for m in json.loads(result.stdout.splitlines()[-1])}


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import perioparse") == set()


def test_importing_the_cli_loads_at_most_the_model():
    assert _loaded("import perioparse.cli") <= {"cli", "model"}


@pytest.fixture(scope="module")
def three_notes(tmp_path_factory):
    """A directory holding a 3-note corpus whose notes all carry records and an empty meta file."""
    work = tmp_path_factory.mktemp("footprint")
    write_corpus(demo_seed_notes(per_category=1), work / "notes.jsonl")
    (work / "meta.jsonl").write_text("", encoding="utf-8")
    return work


# Each subcommand run, and the modules it loads besides `cli`.
_BASE = {"corpus", "model"}
_SCORE = _BASE | {"evaluation", "reporting"}
FOOTPRINTS = {
    "cohort": (["cohort", "CORPUS", "META", "OUT"], _BASE),
    "split": (["split", "CORPUS", "OUT", "--seed", "1"], _BASE),
    "extract": (
        ["extract", "CORPUS", "OUT", "--mode", "informal"], _BASE | {"extraction", "normalization"}
    ),
    "evaluate": (["evaluate", "CORPUS", "CORPUS", "OUT"], _SCORE),
    "evaluate-curve": (["evaluate", "CORPUS", "CORPUS", "OUT", "--curve", "--step", "1"], _SCORE),
    "synth-offline": (
        ["synth", "--offline", "--templates", "CORPUS", "--seed", "1", "--variants", "1",
         "--out", "OUT"],
        _BASE | {"extraction", "normalization", "synthesis"},
    ),
}


@pytest.mark.parametrize("name", FOOTPRINTS)
def test_each_subcommand_loads_only_the_modules_it_runs(three_notes, name):
    argv, expected = FOOTPRINTS[name]
    paths = {"CORPUS": "notes.jsonl", "META": "meta.jsonl", "OUT": name}
    argv = [str(three_notes / paths[arg]) if arg in paths else arg for arg in argv]
    code = f"from perioparse.cli import main\nif main({argv!r}):\n    sys.exit('failed')"
    assert _loaded(code) - {"cli"} == expected


# The public names, under the modules that define them.
PUBLIC_NAMES = {
    "corpus": [
        "AnnotatedNote", "AnnotationSource", "CorpusFormatError", "Note", "PatientMeta",
        "PredictionFileError", "Provenance", "SplitManifest", "cohort_filter",
        "load_external_predictions", "read_corpus", "split_corpus", "write_corpus",
    ],
    "evaluation": [
        "NA", "ClassMetrics", "ConfusionMatrix", "LearningCurve", "MetricsTable", "averages",
        "build_confusion", "class_metrics", "detect_stabilization", "evaluate_corpus",
        "evaluate_records", "learning_curve",
    ],
    "extraction": [
        "Token", "diagnose", "extract_entities", "extract_statements", "group_statements",
        "normalize_value", "tokenize",
    ],
    "llm": ["ConfigurationError", "GenerationError", "generate_llm"],
    "model": [
        "DiagnosisRecord", "Dimension", "EntitySpan", "Extent", "Grade", "GuidelineVersion",
        "PeriodontalStatus", "Stage", "Statement", "Subtype", "join", "validate_record",
    ],
    "normalization": ["adjudicate", "classify_guideline_version", "infer_status_context"],
    "synthesis": [
        "CLEAN", "GenerationConfig", "PerturbationSpec", "PromptSections", "QAVerdict",
        "SeedTemplate", "TemplateSelectionError", "build_prompt", "generate_offline",
        "select_seed_templates", "validate_labels",
    ],
}
DEFINED = {
    name: getattr(importlib.import_module(f"perioparse.{module}"), name)
    for module, names in PUBLIC_NAMES.items() for name in names
}


def test_the_package_exports_each_public_name_from_its_module():
    assert len(DEFINED) == 61
    assert sorted(perioparse.__all__) == sorted(DEFINED)
    assert len(set(perioparse.__all__)) == len(perioparse.__all__)
    for name, obj in DEFINED.items():
        assert getattr(perioparse, name) is obj, name
    # Each name is filed under the module that defines it, not one that imports it
    # (`llm` imports `GenerationConfig`); `NA` is a plain value and names no module.
    for module, names in PUBLIC_NAMES.items():
        for name in names:
            owner = getattr(DEFINED[name], "__module__", f"perioparse.{module}")
            assert owner == f"perioparse.{module}" and name in perioparse._EXPORTS[module], name


def test_dir_lists_every_public_name_before_any_is_loaded():
    # In a fresh interpreter, so that no earlier access has put a name in the package's namespace.
    code = (
        "import perioparse\n"
        f"missing = set({sorted(DEFINED)!r}) - set(dir(perioparse))\n"
        "if missing:\n    sys.exit(f'dir misses {sorted(missing)}')"
    )
    assert _loaded(code) == set()


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from perioparse import *", namespace)
    assert {name: namespace[name] for name in DEFINED} == DEFINED
    assert set(namespace) - {"__builtins__"} == set(DEFINED)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        perioparse.no_such_name


def test_a_submodule_imports_by_name_from_the_package():
    code = (
        "from perioparse import corpus\n"
        "if corpus is not sys.modules['perioparse.corpus']:\n    sys.exit('not the submodule')"
    )
    assert _loaded(code) == _BASE
