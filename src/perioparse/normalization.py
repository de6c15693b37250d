"""From extracted spans to one diagnosis record per note.

Each statement's spans give at most one candidate record, the candidates
of a note are collapsed into the single most severe record, and a
periodontitis record is flagged by the guideline generation it reflects.
A statement's candidate is decided once per distinct set of span values
(at most 2**15 sets) and looked up after that.
Spans arrive already canonical: what a surface string means is decided in
`extraction.py` alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from operator import attrgetter

from .model import (
    VALUE_CLASSES,
    DiagnosisRecord,
    GuidelineVersion,
    PeriodontalStatus,
    Statement,
    Subtype,
    join,
    legalized,
)


def _candidate_of(values: frozenset) -> DiagnosisRecord | None:
    """The candidate of a statement whose spans hold these values, each of its dimension's class."""
    status, stage, grade, extent, subtypes = (
        [value for value in values if type(value) is cls] for cls in VALUE_CLASSES.values()
    )
    if not status:
        if not stage and not grade:
            return None
        status = [PeriodontalStatus.PERIODONTITIS]
    top = (reduce(join, found, None) for found in (status, stage, grade, extent))
    return legalized(*top, subtypes[0] if len(subtypes) == 1 else None)


# Each statement's candidate, None included, keyed by its spans' set of values:
# `join` is idempotent and commutative, so neither repeats nor order matter.
# 15 values allow at most 2**15 keys, so nothing is evicted, and a write stores
# the one value that key can have, so threads may share the dict.
_CANDIDATES: dict[frozenset, DiagnosisRecord | None] = {}
_span_value = attrgetter("value")


def statement_candidate(statement: Statement) -> DiagnosisRecord | None:
    """Derive one diagnosis candidate from a single statement's spans.

    A stage or grade with no status word implies a periodontitis context.
    Statements carrying only an extent or subtype are too weak to ground a
    diagnosis and yield no candidate.
    """
    values = frozenset(map(_span_value, statement.spans))
    try:
        return _CANDIDATES[values]
    except KeyError:
        candidate = _CANDIDATES[values] = _candidate_of(values)
        return candidate


def infer_status_context(statements: Iterable[Statement]) -> list[DiagnosisRecord]:
    """One candidate record per statement, skipping statements too weak to ground one."""
    return [c for c in map(statement_candidate, statements) if c is not None]


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
