"""Core value types for periodontal diagnoses.

The five diagnosis dimensions (status, stage, grade, extent, subtype) follow
the 2018 AAP/EFP classification. Every type here is an immutable value and
safe to share across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class _OrderedEnum(enum.Enum):
    """Enum whose members are totally ordered by definition order (ascending)."""

    def __init__(self, *args):
        # Members are created in definition order, each before it joins
        # __members__, so the count so far is this member's index.
        self.rank = len(type(self).__members__)

    def __lt__(self, other):
        if type(self) is type(other):
            return self.rank < other.rank
        return NotImplemented

    def __le__(self, other):
        if type(self) is type(other):
            return self.rank <= other.rank
        return NotImplemented

    def __gt__(self, other):
        if type(self) is type(other):
            return self.rank > other.rank
        return NotImplemented

    def __ge__(self, other):
        if type(self) is type(other):
            return self.rank >= other.rank
        return NotImplemented


class PeriodontalStatus(_OrderedEnum):
    """Overall periodontal condition, ascending severity."""

    HEALTH = "Health"
    GINGIVITIS = "Gingivitis"
    PERIODONTITIS = "Periodontitis"


class Stage(_OrderedEnum):
    """Periodontitis stage, ascending severity."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


class Grade(_OrderedEnum):
    """Periodontitis progression-risk grade, ascending."""

    A = "A"
    B = "B"
    C = "C"


class Extent(_OrderedEnum):
    """Spread of the condition; Generalized dominates in adjudication."""

    LOCALIZED = "Localized"
    GENERALIZED = "Generalized"


class Subtype(enum.Enum):
    """Periodontium state attached to gingivitis or health diagnoses."""

    INTACT_PERIODONTIUM = "Intact Periodontium"
    REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS = "Reduced Periodontium, Stable Periodontitis"
    REDUCED_PERIODONTIUM_NON_PERIODONTITIS = "Reduced Periodontium, Non-Periodontitis"


class Dimension(enum.Enum):
    """The five annotated diagnosis dimensions."""

    STATUS = "Status"
    STAGE = "Stage"
    GRADE = "Grade"
    EXTENT = "Extent"
    SUBTYPE = "Subtype"


DIMENSIONS = (
    Dimension.STATUS,
    Dimension.STAGE,
    Dimension.GRADE,
    Dimension.EXTENT,
    Dimension.SUBTYPE,
)

#: Value enum of each dimension.
VALUE_CLASSES = {
    Dimension.STATUS: PeriodontalStatus,
    Dimension.STAGE: Stage,
    Dimension.GRADE: Grade,
    Dimension.EXTENT: Extent,
    Dimension.SUBTYPE: Subtype,
}

#: Value enum members of each dimension, in canonical class order
#: (statuses from most to least severe).
DIMENSION_VALUES = {
    dim: tuple(reversed(cls)) if dim is Dimension.STATUS else tuple(cls)
    for dim, cls in VALUE_CLASSES.items()
}

#: Record field holding each dimension's value, in dimension order.
FIELD_NAMES = {dim: dim.value.lower() for dim in DIMENSIONS}

#: Dimensions a record of each status may fill, in dimension order. Under the
#: 2018 AAP/EFP scheme stage and grade go only with periodontitis, and subtype
#: only with gingivitis or health.
LEGAL_DIMENSIONS: dict[PeriodontalStatus, tuple[Dimension, ...]] = {
    PeriodontalStatus.PERIODONTITIS: (
        Dimension.STATUS, Dimension.STAGE, Dimension.GRADE, Dimension.EXTENT,
    ),
    PeriodontalStatus.GINGIVITIS: (Dimension.STATUS, Dimension.EXTENT, Dimension.SUBTYPE),
    PeriodontalStatus.HEALTH: (Dimension.STATUS, Dimension.SUBTYPE),
}

# (field name, violation message) of each dimension a status may not fill.
_FORBIDDEN_FIELDS = {
    status: tuple(
        (FIELD_NAMES[dim], f"{FIELD_NAMES[dim]} not permitted for {status.value.lower()}")
        for dim in DIMENSIONS
        if dim not in legal
    )
    for status, legal in LEGAL_DIMENSIONS.items()
}


def join(a, b):
    """Join of two optional values of one ordered enum; absent is the bottom element.

    The more severe status, the higher stage or grade, Generalized over Localized.
    """
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


@dataclass(frozen=True)
class DiagnosisRecord:
    """Normalized per-patient diagnosis over the five dimensions.

    Absent optional fields mean "left blank", not "unknown sentinel".
    Field legality depends on status; see :data:`LEGAL_DIMENSIONS`.
    """

    status: PeriodontalStatus
    stage: Stage | None = None
    grade: Grade | None = None
    extent: Extent | None = None
    subtype: Subtype | None = None

    def value_for(self, dimension: Dimension):
        return getattr(self, FIELD_NAMES[dimension])


def validate_record(record: DiagnosisRecord) -> list[str]:
    """Return every field-legality violation; an empty list means the record is valid.

    Violations are data, not faults: callers decide whether to raise.
    """
    violations: list[str] = []
    for name, message in _FORBIDDEN_FIELDS[record.status]:
        if getattr(record, name) is not None:
            violations.append(message)
    return violations


def is_valid_record(record: DiagnosisRecord) -> bool:
    return not validate_record(record)


@dataclass(frozen=True)
class EntitySpan:
    """A labeled character-offset span over note text, half-open [start, end).

    ``value`` holds the normalized enum value for the span's dimension;
    ``raw_text`` is the exact surface slice, typos and all.
    """

    dimension: Dimension
    value: object
    start: int
    end: int
    raw_text: str

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad span offsets [{self.start}, {self.end})")


def span_violations(text: str, spans: list[EntitySpan]) -> list[str]:
    """Check spans against their note text: bounds, surface match, non-overlap."""
    problems: list[str] = []
    for s in spans:
        if s.end > len(text):
            problems.append(f"span [{s.start},{s.end}) exceeds text length {len(text)}")
            continue
        if text[s.start : s.end] != s.raw_text:
            problems.append(
                f"span [{s.start},{s.end}) raw_text {s.raw_text!r} does not match text"
            )
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start < prev.end:
            problems.append(
                f"span [{cur.start},{cur.end}) overlaps [{prev.start},{prev.end})"
            )
    return problems


@dataclass(frozen=True)
class Statement:
    """One diagnosis statement: the spans it produced and its hedge flag."""

    spans: tuple[EntitySpan, ...]
    hedged: bool = False
    start: int = 0
    end: int = 0
