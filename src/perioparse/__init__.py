"""Periodontal diagnosis extraction from dental clinical notes.

Pipeline pieces: synthetic-corpus generation (offline deterministic engine or
an OpenAI-compatible endpoint), a rule-grammar entity extractor, 2018 AAP/EFP
normalization and adjudication, and a gold-standard evaluation harness.

Importing the package loads none of its modules: `from perioparse import X`
loads X's module on first use (PEP 562), so a CLI step pays only for the
modules it runs.
"""

import importlib

# Each public name, under the module that defines it.
_EXPORTS = {
    "corpus": (
        "AnnotatedNote", "AnnotationSource", "CorpusFormatError", "Note", "PatientMeta",
        "PredictionFileError", "Provenance", "SplitManifest", "cohort_filter",
        "load_external_predictions", "read_corpus", "split_corpus", "write_corpus",
    ),
    "evaluation": (
        "NA", "ClassMetrics", "ConfusionMatrix", "LearningCurve", "MetricsTable", "averages",
        "build_confusion", "class_metrics", "detect_stabilization", "evaluate_corpus",
        "evaluate_records", "learning_curve",
    ),
    "extraction": (
        "Token", "diagnose", "extract_entities", "extract_statements", "group_statements",
        "normalize_value", "tokenize",
    ),
    "llm": ("ConfigurationError", "GenerationError", "generate_llm"),
    "model": (
        "DiagnosisRecord", "Dimension", "EntitySpan", "Extent", "Grade", "GuidelineVersion",
        "PeriodontalStatus", "Stage", "Statement", "Subtype", "join", "validate_record",
    ),
    "normalization": ("adjudicate", "classify_guideline_version", "infer_status_context"),
    "synthesis": (
        "CLEAN", "GenerationConfig", "PerturbationSpec", "PromptSections", "QAVerdict",
        "SeedTemplate", "TemplateSelectionError", "build_prompt", "generate_offline",
        "select_seed_templates", "validate_labels",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
