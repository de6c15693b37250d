"""Periodontal diagnosis extraction from dental clinical notes.

Pipeline pieces: synthetic-corpus generation (offline deterministic engine or
an OpenAI-compatible endpoint), a rule-grammar entity extractor, 2018 AAP/EFP
normalization and adjudication, and a gold-standard evaluation harness.
"""

from .corpus import (
    AnnotatedNote,
    AnnotationSource,
    CorpusFormatError,
    Note,
    PatientMeta,
    PredictionFileError,
    Provenance,
    SplitManifest,
    cohort_filter,
    load_external_predictions,
    read_corpus,
    split_corpus,
    write_corpus,
)
from .evaluation import (
    NA,
    ClassMetrics,
    ConfusionMatrix,
    LearningCurve,
    MetricsTable,
    averages,
    build_confusion,
    class_metrics,
    compare_note,
    detect_stabilization,
    evaluate_corpus,
    evaluate_records,
    learning_curve,
)
from .extraction import (
    Token,
    diagnose,
    extract_entities,
    extract_statements,
    group_statements,
    normalize_value,
    tokenize,
)
from .llm import ConfigurationError, GenerationConfig, GenerationError, generate_llm
from .model import (
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
    Statement,
    Subtype,
    join,
    validate_record,
)
from .normalization import (
    GuidelineVersion,
    adjudicate,
    classify_guideline_version,
    infer_status_context,
)
from .synthesis import (
    CLEAN,
    PerturbationSpec,
    PromptSections,
    QAVerdict,
    SeedTemplate,
    TemplateSelectionError,
    build_prompt,
    generate_offline,
    select_seed_templates,
    validate_labels,
)

__version__ = "0.1.0"
