"""Core value types for periodontal diagnoses.

The five diagnosis dimensions (status, stage, grade, extent, subtype) follow
the 2018 AAP/EFP classification. Every type here is an immutable value and
safe to share across threads. `validate_record` reads the one legality table,
`LEGAL_DIMENSIONS`; `legalized` (and so `normalization.adjudicate`) returns one
of the shared instances in `LEGAL_RECORDS`, never a new record. The corpus
codec and the scorer spell a record's fields through `field_values` alone.
`STATUSES_BY_SEVERITY` is the one severity order (most severe first).
`MODES` and `REPORT_FORMATS` are spelled here, beside `Dimension`, because
the CLI's parser offers them and every subcommand loads this module.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, fields


class _Value(enum.Enum):
    """Enum whose members hash by identity, in C.

    Members are singletons that compare by identity, so this agrees with
    ``==``. `Enum.__hash__` is a Python-level call, paid on every dict or set
    lookup keyed by a member, such as `legalized`'s table.
    """

    __hash__ = object.__hash__


@functools.total_ordering
class _OrderedEnum(_Value):
    """Enum whose members are totally ordered by definition order (ascending)."""

    def __init__(self, *args):
        # Members are created in definition order, each before it joins
        # __members__, so the count so far is this member's index.
        self.rank = len(type(self).__members__)

    def __lt__(self, other):
        if type(self) is type(other):
            return self.rank < other.rank
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


class Subtype(_Value):
    """Periodontium state attached to gingivitis or health diagnoses."""

    INTACT_PERIODONTIUM = "Intact Periodontium"
    REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS = "Reduced Periodontium, Stable Periodontitis"
    REDUCED_PERIODONTIUM_NON_PERIODONTITIS = "Reduced Periodontium, Non-Periodontitis"


class Dimension(_Value):
    """The five annotated diagnosis dimensions."""

    STATUS = "Status"
    STAGE = "Stage"
    GRADE = "Grade"
    EXTENT = "Extent"
    SUBTYPE = "Subtype"


class GuidelineVersion(enum.Enum):
    """Which diagnostic guideline generation a record's documentation reflects."""

    CURRENT_2018 = "Current2018"
    LEGACY = "Legacy"
    NOT_APPLICABLE = "NotApplicable"


#: The dimensions in record field order, which is their definition order.
DIMENSIONS = tuple(Dimension)

#: Value enum of each dimension.
VALUE_CLASSES = {
    Dimension.STATUS: PeriodontalStatus,
    Dimension.STAGE: Stage,
    Dimension.GRADE: Grade,
    Dimension.EXTENT: Extent,
    Dimension.SUBTYPE: Subtype,
}

#: The statuses, most severe first: the order of reports, template sampling and the demo corpus.
STATUSES_BY_SEVERITY = tuple(reversed(PeriodontalStatus))

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


def join(a, b):
    """Join of two optional values of one ordered enum; absent is the bottom element.

    The more severe status, the higher stage or grade, Generalized over Localized.
    """
    if a is None:
        return b
    if b is None:
        return a
    return b if a < b else a


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
    legal = LEGAL_DIMENSIONS[record.status]
    return [
        f"{FIELD_NAMES[dim]} not permitted for {record.status.value.lower()}"
        for dim in DIMENSIONS if dim not in legal and record.value_for(dim) is not None
    ]


def is_valid_record(record: DiagnosisRecord) -> bool:
    return not validate_record(record)


@functools.cache
def field_values(record: DiagnosisRecord) -> tuple[str | None, ...]:
    """A record's field values as strings in `DIMENSIONS` order, None where a field is blank.

    At most 720 records exist, so the cache stays small.
    """
    values = (record.value_for(dim) for dim in DIMENSIONS)
    return tuple(None if value is None else value.value for value in values)


#: The 76 records LEGAL_DIMENSIONS allows: each field a status may fill, absent or set.
LEGAL_RECORDS = tuple(
    DiagnosisRecord(status, *optional)
    for status, legal in LEGAL_DIMENSIONS.items()
    for optional in itertools.product(
        *((None, *VALUE_CLASSES[dim]) if dim in legal else (None,) for dim in DIMENSIONS[1:])
    )
)

# Each of the 720 (status, stage, grade, extent, subtype) inputs -> the legal
# record that keeps only the fields its status may fill.
_LEGALIZED = {
    (record.status, *inputs): record
    for record in LEGAL_RECORDS
    for inputs in itertools.product(*(
        (record.value_for(dim),) if dim in LEGAL_DIMENSIONS[record.status]
        else (None, *VALUE_CLASSES[dim])
        for dim in DIMENSIONS[1:]
    ))
}


def legalized(
    status: PeriodontalStatus, stage: Stage | None, grade: Grade | None,
    extent: Extent | None, subtype: Subtype | None,
) -> DiagnosisRecord:
    """The shared member of `LEGAL_RECORDS` with these fields, less those the status cannot fill."""
    return _LEGALIZED[status, stage, grade, extent, subtype]


def _slot_setters(cls) -> tuple:
    """Each field slot's `__set__`, in field order; it stores past a frozen `__setattr__`."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


# Spans and statements are built once per note and sentence, so their
# constructors store through the slots and skip the frozen `__setattr__`.
@dataclass(frozen=True, slots=True, init=False)
class EntitySpan:
    """A labeled character-offset span over note text, half-open [start, end).

    ``value`` holds the normalized enum value for the span's dimension, a member
    of its `VALUE_CLASSES` class;
    ``raw_text`` is the exact surface slice, typos and all.
    """

    dimension: Dimension
    value: object
    start: int
    end: int
    raw_text: str

    def __init__(self, dimension: Dimension, value: object, start: int, end: int, raw_text: str):
        if start < 0 or end <= start:
            raise ValueError(f"bad span offsets [{start},{end})")
        if type(value) is not VALUE_CLASSES[dimension]:
            raise ValueError(f"{dimension.value} span value {value!r} is not a {dimension.value}")
        set_dimension, set_value, set_start, set_end, set_raw_text = _SPAN_SLOTS
        set_dimension(self, dimension)
        set_value(self, value)
        set_start(self, start)
        set_end(self, end)
        set_raw_text(self, raw_text)


_SPAN_SLOTS = _slot_setters(EntitySpan)


def span_violations(text: str, spans: list[EntitySpan]) -> list[str]:
    """The one check of spans against their note: end within it, surface equal, no overlap."""
    problems: list[str] = []
    for s in spans:
        if s.end > len(text):
            problems.append(
                f"span [{s.start},{s.end}) out of bounds for note of length {len(text)}"
            )
        elif text[s.start : s.end] != s.raw_text:
            problems.append(
                f"span [{s.start},{s.end}) raw_text {s.raw_text!r}"
                f" does not match note text {text[s.start : s.end]!r}"
            )
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start < prev.end:
            problems.append(
                f"span [{cur.start},{cur.end}) overlaps [{prev.start},{prev.end})"
            )
    return problems


@dataclass(frozen=True, slots=True, init=False)
class Statement:
    """One diagnosis statement: the spans it produced and its hedge flag."""

    spans: tuple[EntitySpan, ...]
    hedged: bool = False
    start: int = 0
    end: int = 0

    def __init__(
        self, spans: tuple[EntitySpan, ...], hedged: bool = False, start: int = 0, end: int = 0
    ):
        set_spans, set_hedged, set_start, set_end = _STATEMENT_SLOTS
        set_spans(self, spans)
        set_hedged(self, hedged)
        set_start(self, start)
        set_end(self, end)


_STATEMENT_SLOTS = _slot_setters(Statement)


#: Extraction modes, the `--mode` choices of `extract`.
MODES = ("strict", "informal")

#: Report format name -> file extension, in `--report` choice order.
REPORT_FORMATS = {"text-table": "txt", "csv": "csv", "json": "json"}
