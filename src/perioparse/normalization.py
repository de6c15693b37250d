"""From extracted spans to one diagnosis record per note.

Each statement's spans give at most one candidate record, the candidates
of a note are collapsed into the single most severe record, and a
periodontitis record is flagged by the guideline generation it reflects.
Spans arrive already canonical: what a surface string means is decided in
`extraction.py` alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .model import (
    DiagnosisRecord,
    Dimension,
    Extent,
    Grade,
    GuidelineVersion,
    PeriodontalStatus,
    Stage,
    Statement,
    Subtype,
    join,
    legalized,
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
        dimension = span.dimension
        if dimension is Dimension.STATUS:
            status = join(status, span.value)
        elif dimension is Dimension.STAGE:
            stage = join(stage, span.value)
        elif dimension is Dimension.GRADE:
            grade = join(grade, span.value)
        elif dimension is Dimension.EXTENT:
            extent = join(extent, span.value)
        elif dimension is Dimension.SUBTYPE:
            subtypes.add(span.value)
    if status is None:
        if stage is None and grade is None:
            return None
        status = PeriodontalStatus.PERIODONTITIS
    subtype = subtypes.pop() if len(subtypes) == 1 else None
    return legalized(status, stage, grade, extent, subtype)


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
    return legalized(status, stage, grade, extent, subtype)


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
