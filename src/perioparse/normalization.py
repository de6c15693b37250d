"""Canonicalization and adjudication of raw diagnosis values.

Raw surface strings (numerals, case variants, one-character typos) are mapped
onto the closed vocabularies of the five dimensions, and multiple detected
diagnoses are collapsed into the single most severe per-patient record.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable, Sequence

from .model import (
    DIMENSIONS,
    LEGAL_DIMENSIONS,
    DiagnosisRecord,
    Dimension,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
    Statement,
    Subtype,
    is_valid_record,
    join,
)


class GuidelineVersion(enum.Enum):
    """Which diagnostic guideline generation a record's documentation reflects."""

    CURRENT_2018 = "Current2018"
    LEGACY = "Legacy"
    NOT_APPLICABLE = "NotApplicable"


def within_one_edit(a: str, b: str) -> bool:
    """True iff Levenshtein distance between a and b is at most 1."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # a is the shorter (or equal-length) string
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    if la == lb:
        # one substitution allowed
        return a[i + 1 :] == b[i + 1 :]
    # one insertion into a allowed
    return a[i:] == b[i + 1 :]


STATUS_VOCAB: dict[str, PeriodontalStatus] = {
    "periodontitis": PeriodontalStatus.PERIODONTITIS,
    "gingivitis": PeriodontalStatus.GINGIVITIS,
    "health": PeriodontalStatus.HEALTH,
    "healthy": PeriodontalStatus.HEALTH,
}

EXTENT_VOCAB: dict[str, Extent] = {
    "localized": Extent.LOCALIZED,
    "generalized": Extent.GENERALIZED,
}

ROMAN_STAGES: dict[str, Stage] = {"i": Stage.I, "ii": Stage.II, "iii": Stage.III, "iv": Stage.IV}
ARABIC_STAGES: dict[str, Stage] = {"1": Stage.I, "2": Stage.II, "3": Stage.III, "4": Stage.IV}
GRADE_LETTERS: dict[str, Grade] = {"a": Grade.A, "b": Grade.B, "c": Grade.C}

SUBTYPE_VOCAB: dict[str, Subtype] = {
    "intact periodontium": Subtype.INTACT_PERIODONTIUM,
    "reduced periodontium stable periodontitis": Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS,
    "reduced periodontium past periodontitis": Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS,
    "reduced periodontium past stable periodontitis": Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS,
    "reduced periodontium non periodontitis": Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS,
}

_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def _canonical_phrase(raw: str) -> str:
    return _NON_ALNUM.sub(" ", raw.lower()).strip()


def _fuzzy_lookup(vocab: dict[str, object], raw: str):
    """Exact, else distance-1 match against a vocabulary; ambiguity yields None.

    Ambiguous means two vocabulary entries with different target values both
    sit within one edit of the input.
    """
    if raw in vocab:
        return vocab[raw]
    hits = {vocab[w] for w in vocab if within_one_edit(raw, w)}
    if len(hits) == 1:
        return hits.pop()
    return None


def normalize_value(dimension: Dimension, raw_text: str):
    """Map a raw surface string to its canonical enum value, or None.

    Stages accept roman I-IV and arabic 1-4; grades fold case; status,
    extent, and subtype words tolerate a single-character typo. Unmatched
    or ambiguous input normalizes to absent rather than guessing.
    """
    raw = raw_text.strip().lower()
    if not raw:
        return None
    if dimension is Dimension.STAGE:
        return ROMAN_STAGES.get(raw) or ARABIC_STAGES.get(raw)
    if dimension is Dimension.GRADE:
        return GRADE_LETTERS.get(raw)
    if dimension is Dimension.STATUS:
        return _fuzzy_lookup(STATUS_VOCAB, raw)
    if dimension is Dimension.EXTENT:
        return _fuzzy_lookup(EXTENT_VOCAB, raw)
    if dimension is Dimension.SUBTYPE:
        return _fuzzy_lookup(SUBTYPE_VOCAB, _canonical_phrase(raw))
    raise ValueError(f"unknown dimension {dimension!r}")


# Per status, whether it may carry a stage, grade, extent and subtype.
_OPTIONAL_LEGAL = {
    status: tuple(dim in legal for dim in DIMENSIONS[1:])
    for status, legal in LEGAL_DIMENSIONS.items()
}


def _legalized(
    status: PeriodontalStatus,
    stage: Stage | None,
    grade: Grade | None,
    extent: Extent | None,
    subtype: Subtype | None,
) -> DiagnosisRecord:
    """Build a record, dropping fields the status cannot carry."""
    stage_ok, grade_ok, extent_ok, subtype_ok = _OPTIONAL_LEGAL[status]
    return DiagnosisRecord(
        status,
        stage if stage_ok else None,
        grade if grade_ok else None,
        extent if extent_ok else None,
        subtype if subtype_ok else None,
    )


def statement_candidate(statement: Statement) -> DiagnosisRecord | None:
    """Derive one diagnosis candidate from a single statement's spans.

    A stage or grade with no status word implies a periodontitis context.
    Statements carrying only an extent or subtype are too weak to ground a
    diagnosis and yield no candidate.
    """
    status: PeriodontalStatus | None = None
    stage: Stage | None = None
    grade: Grade | None = None
    extent: Extent | None = None
    subtypes: set[Subtype] = set()
    for span in statement.spans:
        if span.dimension is Dimension.STATUS:
            status = join(status, span.value)
        elif span.dimension is Dimension.STAGE:
            stage = join(stage, span.value)
        elif span.dimension is Dimension.GRADE:
            grade = join(grade, span.value)
        elif span.dimension is Dimension.EXTENT:
            extent = join(extent, span.value)
        elif span.dimension is Dimension.SUBTYPE:
            subtypes.add(span.value)
    if status is None:
        if stage is None and grade is None:
            return None
        status = PeriodontalStatus.PERIODONTITIS
    subtype = subtypes.pop() if len(subtypes) == 1 else None
    return _legalized(status, stage, grade, extent, subtype)


def infer_status_context(statements: Iterable[Statement]) -> list[DiagnosisRecord]:
    """One candidate record per statement, skipping statements too weak to ground one."""
    candidates = []
    for statement in statements:
        candidate = statement_candidate(statement)
        if candidate is not None:
            candidates.append(candidate)
    return candidates


def adjudicate(candidates: Sequence[DiagnosisRecord]) -> DiagnosisRecord | None:
    """Collapse candidate diagnoses into the single most severe record.

    The winner is the most severe status; stage, grade, and extent are joined
    (highest value wins, Generalized dominates) across candidates sharing the
    winning status. Subtype is kept only for gingivitis/health winners and
    blanked when the winning candidates disagree. Order-invariant and
    idempotent; empty input yields None.
    """
    if not candidates:
        return None
    status = None
    for c in candidates:
        status = join(status, c.status)
    stage = grade = extent = None
    subtypes: set[Subtype] = set()
    for c in candidates:
        if c.status is not status:
            continue
        stage = join(stage, c.stage)
        grade = join(grade, c.grade)
        extent = join(extent, c.extent)
        if c.subtype is not None:
            subtypes.add(c.subtype)
    subtype = subtypes.pop() if len(subtypes) == 1 else None
    record = _legalized(status, stage, grade, extent, subtype)
    assert is_valid_record(record)
    return record


def classify_guideline_version(record: DiagnosisRecord) -> GuidelineVersion:
    """Flag whether a periodontitis record carries the 2018-era stage and grade.

    Periodontitis documented without both stage and grade predates the 2018
    staging system; gingivitis and health diagnoses are out of the rule's domain.
    """
    if record.status is not PeriodontalStatus.PERIODONTITIS:
        return GuidelineVersion.NOT_APPLICABLE
    if record.stage is not None and record.grade is not None:
        return GuidelineVersion.CURRENT_2018
    return GuidelineVersion.LEGACY
