"""Corpus files, cohort eligibility, and the deterministic train/val/test split.

Corpora are UTF-8 line-delimited JSON, one note per line, so they stream and
diff cleanly. Note text survives read/write round trips byte-exactly.
"""

from __future__ import annotations

import enum
import json
import math
import os
import random
import typing
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from operator import attrgetter, itemgetter
from pathlib import Path

from .model import (
    DIMENSIONS,
    FIELD_NAMES,
    LEGAL_RECORDS,
    VALUE_CLASSES,
    _SPAN_SLOTS,
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    GuidelineVersion,
    PeriodontalStatus,
    _slot_setters,
    field_values,
    span_violations,
    validate_record,
)

PARTITIONS = ("train", "validation", "test")


class CorpusFormatError(ValueError):
    """A corpus or manifest file violated the expected format."""


class PredictionFileError(CorpusFormatError):
    """A prediction file failed validation against its corpus."""


class Provenance(enum.Enum):
    REAL = "Real"
    LLM_GENERATED = "LLMGenerated"
    OFFLINE_GENERATED = "OfflineGenerated"


class AnnotationSource(enum.Enum):
    GOLD = "Gold"
    PREDICTED = "Predicted"
    EMBEDDED = "Embedded"


# Notes are built once per corpus line, so, like spans, their constructors
# store through the slots and skip the frozen `__setattr__`.
@dataclass(frozen=True, slots=True, init=False)
class Note:
    note_id: str
    site_id: str
    text: str
    provenance: Provenance = Provenance.REAL

    def __init__(
        self, note_id: str, site_id: str, text: str, provenance: Provenance = Provenance.REAL
    ):
        if not note_id:
            raise ValueError("note_id must be non-empty")
        set_note_id, set_site_id, set_text, set_provenance = _NOTE_SLOTS
        set_note_id(self, note_id)
        set_site_id(self, site_id)
        set_text(self, text)
        set_provenance(self, provenance)


_NOTE_SLOTS = _slot_setters(Note)


@dataclass(frozen=True)
class PatientMeta:
    """Cohort-eligibility inputs recorded alongside a note."""

    age: int
    natural_teeth_count: int
    has_full_mouth_radiographs: bool
    has_periodontal_charting: bool

    def __post_init__(self):
        if self.age < 0:
            raise ValueError("age must be non-negative")
        if not 0 <= self.natural_teeth_count <= 32:
            raise ValueError("natural_teeth_count must be within [0, 32]")


#: Each meta field and the one JSON-decoded type it accepts (a bool is no int here).
_META_TYPES = typing.get_type_hints(PatientMeta)


@dataclass(frozen=True, slots=True, init=False)
class AnnotatedNote:
    """A note plus its standoff spans and (optionally) a normalized record."""

    note: Note
    spans: tuple[EntitySpan, ...] = ()
    record: DiagnosisRecord | None = None
    annotation_source: AnnotationSource = AnnotationSource.GOLD
    meta: PatientMeta | None = None
    guideline_version: GuidelineVersion | None = None
    qa: dict | None = None

    def __init__(
        self,
        note: Note,
        spans: tuple[EntitySpan, ...] = (),
        record: DiagnosisRecord | None = None,
        annotation_source: AnnotationSource = AnnotationSource.GOLD,
        meta: PatientMeta | None = None,
        guideline_version: GuidelineVersion | None = None,
        qa: dict | None = None,
    ):
        set_note, set_spans, set_record, set_source, set_meta, set_gv, set_qa = _ANNOTATED_SLOTS
        set_note(self, note)
        set_spans(self, spans)
        set_record(self, record)
        set_source(self, annotation_source)
        set_meta(self, meta)
        set_gv(self, guideline_version)
        set_qa(self, qa)

    def with_(self, **changes) -> "AnnotatedNote":
        """A copy with `changes` applied; a name that is not a field raises TypeError."""
        return AnnotatedNote(**dict(zip(_ANNOTATED_FIELDS, _annotated_values(self)), **changes))


_ANNOTATED_SLOTS = _slot_setters(AnnotatedNote)
_ANNOTATED_FIELDS = tuple(f.name for f in fields(AnnotatedNote))
_annotated_values = attrgetter(*_ANNOTATED_FIELDS)


def cohort_filter(meta: PatientMeta) -> bool:
    """Eligibility: 16 or older, 10 or more natural teeth, full radiographs, full charting."""
    return (
        meta.age >= 16
        and meta.natural_teeth_count >= 10
        and meta.has_full_mouth_radiographs
        and meta.has_periodontal_charting
    )


# --------------------------------------------------------------------------
# serialization

#: Every (dimension, value) string pair a span may carry -> its (Dimension, value member).
_SPAN_LABELS = {(dim.value, v.value): (dim, v) for dim, cls in VALUE_CLASSES.items() for v in cls}

#: Each (Dimension, value member) pair -> its (dimension, value) strings.
_SPAN_STRINGS = {members: strings for strings, members in _SPAN_LABELS.items()}


def span_to_obj(span: EntitySpan) -> dict:
    dimension, value = _SPAN_STRINGS[span.dimension, span.value]
    return {"dimension": dimension, "value": value, "start": span.start, "end": span.end}


def _spans_from_objs(obj: dict, text: str) -> tuple[EntitySpan, ...]:
    """Decode a line's `spans`, a list of span objects (none if the key is absent).

    A span's type, label and offsets are checked as it is read. Unless the
    spans are in order, within `text` and equal to any declared ``raw_text``,
    `span_violations` then names each out-of-bounds, mismatched or overlapping one.
    """
    raw_spans = obj.get("spans", [])
    if type(raw_spans) is not list:
        _field(obj, "spans", list)
    new_span = EntitySpan.__new__  # a span with empty slots, filled once they are checked
    set_dimension, set_value, set_start, set_end, set_raw_text = _SPAN_SLOTS
    spans = []
    ordered = True
    checked = 0  # the end of the last span while every span so far is ordered
    length = len(text)
    for span in raw_spans:
        try:
            dimension, value = _SPAN_LABELS[span["dimension"], span["value"]]
        except (KeyError, TypeError):  # not an object with a known label: find the exact error
            if type(span) is not dict:
                raise ValueError(f"spans[{len(spans)}] must be dict, got {span!r}") from None
            dimension = Dimension(span["dimension"])
            value = VALUE_CLASSES[dimension](span["value"])
        start = span["start"]
        if type(start) is not int:
            _field(span, "start", int)
        end = span["end"]
        if type(end) is not int:
            _field(span, "end", int)
        surface = text[start:end]
        if checked <= start < end <= length and (
            "raw_text" not in span or span["raw_text"] in (None, surface)
        ):
            decoded = new_span(EntitySpan)
            set_dimension(decoded, dimension)
            set_value(decoded, value)
            set_start(decoded, start)
            set_end(decoded, end)
            set_raw_text(decoded, surface)
            checked = end
        else:  # the constructor checks the offsets; span_violations checks the rest
            raw = span.get("raw_text")
            decoded = EntitySpan(dimension, value, start, end, surface if raw is None else raw)
            ordered = False
        spans.append(decoded)
    if not ordered and (problems := span_violations(text, spans)):
        raise ValueError("; ".join(problems))
    return tuple(spans)


def record_to_obj(record: DiagnosisRecord | None) -> dict | None:
    if record is None:
        return None
    return dict(zip(FIELD_NAMES.values(), field_values(record)))


#: Each of the 76 legal records, keyed by its serialized field values in field order.
_LEGAL_RECORDS = {field_values(record): record for record in LEGAL_RECORDS}

#: The keys a record object may hold, in field order.
_RECORD_FIELDS = tuple(FIELD_NAMES.values())
_RECORD_KEYS = frozenset(_RECORD_FIELDS)


def record_from_obj(obj: dict | None) -> DiagnosisRecord | None:
    """Decode a record object field by field; a key other than the five names is malformed."""
    if obj is None:
        return None
    status = PeriodontalStatus(obj["status"])
    _check_keys(obj, _RECORD_KEYS, "record field")
    record = DiagnosisRecord(status, *(
        None if (raw := obj.get(FIELD_NAMES[dim])) is None else VALUE_CLASSES[dim](raw)
        for dim in DIMENSIONS[1:]
    ))
    problems = validate_record(record)
    if problems:
        raise ValueError("; ".join(problems))
    return record


def _check_keys(obj: dict, keys, what: str) -> None:
    """Raise at the first key of `obj` not in `keys`: a misspelled key is malformed, not dropped."""
    if unknown := [key for key in obj if key not in keys]:
        raise ValueError(f"unknown {what} {unknown[0]!r}")


def _field(obj: dict, name: str, kind: type):
    """obj[name], which must be a JSON value of exactly `kind` (no bool for int)."""
    value = obj[name]
    if type(value) is not kind:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _meta_from_obj(obj: dict) -> PatientMeta:
    """Decode meta fields, which must be JSON integers and booleans as declared.

    Its caller checks the keys, after every other check of the line.
    """
    return PatientMeta(**{name: _field(obj, name, kind) for name, kind in _META_TYPES.items()})


#: The keys a meta-file line may hold.
_META_LINE_KEYS = frozenset({"note_id", *_META_TYPES})


def _meta_line_from_obj(obj: dict) -> PatientMeta:
    """Decode a meta-file line: `note_id` and the four meta fields, no other key."""
    meta = _meta_from_obj(obj)
    _check_keys(obj, _META_LINE_KEYS, "meta field")
    return meta


def note_to_obj(annotated: AnnotatedNote) -> dict:
    obj = {
        "note_id": annotated.note.note_id,
        "site_id": annotated.note.site_id,
        "text": annotated.note.text,
        "provenance": annotated.note.provenance.value,
        "annotation_source": annotated.annotation_source.value,
        "spans": [span_to_obj(s) for s in annotated.spans],
        "record": record_to_obj(annotated.record),
    }
    if annotated.meta is not None:
        obj["meta"] = asdict(annotated.meta)
    if annotated.guideline_version is not None:
        obj["guideline_version"] = annotated.guideline_version.value
    if annotated.qa is not None:
        obj["qa"] = annotated.qa
    return obj


#: The keys a corpus line may hold.
_NOTE_KEYS = frozenset({
    "note_id", "site_id", "text", "provenance", "annotation_source",
    "spans", "record", "meta", "guideline_version", "qa",
})

#: Each enum's serialized values -> its members; a miss is decoded by the enum for its error.
_PROVENANCES = {p.value: p for p in Provenance}
_SOURCES = {s.value: s for s in AnnotationSource}
_GUIDELINES = {g.value: g for g in GuidelineVersion}


def note_from_obj(obj: dict) -> AnnotatedNote:
    """Decode one corpus line; the first rule it breaks raises the message of that rule's writer.

    Rule order: `text`, `note_id`, `site_id`, `provenance`, a non-empty id;
    the `guideline_version` type, `spans`, `record`, `annotation_source`;
    `meta`, the `guideline_version` value, `qa`; last the line and meta keys.
    """
    text = obj["text"]
    if type(text) is not str:
        _field(obj, "text", str)
    note_id = obj["note_id"]
    site_id = obj["site_id"]
    if type(site_id) is not str:
        _field(obj, "site_id", str)
    try:
        provenance = _PROVENANCES[obj["provenance"]]
    except (KeyError, TypeError):
        provenance = Provenance(obj["provenance"])
    note = Note(note_id, site_id, text, provenance)
    gv = obj.get("guideline_version")
    if gv is not None and type(gv) is not str:
        _field(obj, "guideline_version", str)
    spans = _spans_from_objs(obj, text)
    record = obj.get("record")
    if record is not None:
        if type(record) is not dict:
            _field(obj, "record", dict)
        values = _RECORD_KEYS.issuperset(record) and tuple(map(record.get, _RECORD_FIELDS))
        try:
            record = _LEGAL_RECORDS[values]
        except (KeyError, TypeError):  # not a legal record of known fields
            record = record_from_obj(record)
    try:
        source = _SOURCES[obj["annotation_source"]]
    except (KeyError, TypeError):
        source = AnnotationSource(obj["annotation_source"])
    meta = obj.get("meta")
    if meta is not None:
        if type(meta) is not dict:
            _field(obj, "meta", dict)
        meta = _meta_from_obj(meta)
    if gv is not None:
        try:
            gv = _GUIDELINES[gv]
        except KeyError:
            gv = GuidelineVersion(gv)
    qa = obj.get("qa")
    if qa is not None and type(qa) is not dict:
        _field(obj, "qa", dict)
    if not _NOTE_KEYS.issuperset(obj):
        _check_keys(obj, _NOTE_KEYS, "field")
    if meta is not None:
        _check_keys(obj["meta"], _META_TYPES, "meta field")
    return AnnotatedNote(note, spans, record, source, meta, gv, qa)


def atomic_write_text(path, text) -> None:
    """Write `text`, a string or an iterable of strings, to `path` through a temp sibling.

    The temp file is renamed over `path` only after the last string, so readers
    never see partial output, and `path` may also be the file the strings are
    read from. The first string is made before the directory or the temp file
    is created, so a source that cannot even start leaves nothing behind.
    """
    chunks = iter((text,) if isinstance(text, str) else text)
    first = next(chunks, "")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # Mode "x" makes a new file, with the mode open() gives: 0o666 less the umask.
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(first)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def unique_notes(notes, what: str = "corpus", error=ValueError):
    """Yield each annotated note, raising `error` at the first whose note id repeats."""
    seen = set()
    for n in notes:
        note_id = n.note.note_id
        if note_id in seen:
            raise error(f"duplicate note_id {note_id!r} in {what}")
        seen.add(note_id)
        yield n


#: The one encoder of corpus lines; `json.dumps` with an option builds a new one per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_corpus(notes, path) -> None:
    """Write annotated notes one JSON line each, streamed; a repeated note id leaves `path` as it was."""
    encode = _ENCODER.encode
    atomic_write_text(
        path,
        (encode(note_to_obj(n)) + "\n" for n in unique_notes(notes, error=CorpusFormatError)),
    )


#: The C scanner under `json.loads`: the JSON value at an index, and the index after it.
_scan_json = json.JSONDecoder().scan_once


def _loads_line(line: str):
    """`json.loads(line)`, run only when the scanner does not read one value up to the newline.

    `json.loads` then raises the exact error, or decodes what the scanner
    would not, such as a value after leading whitespace.
    """
    try:
        obj, end = _scan_json(line, 0)
        if line[end:] == "\n":
            return obj
    except StopIteration:
        pass
    return json.loads(line)


def _read_lines(path, decode, what: str, error=CorpusFormatError) -> Iterator[tuple]:
    """Yield (note_id, decode(obj)) per JSON line; a bad line or a non-string or repeated id raises.

    A line must be UTF-8 and hold one JSON object, and its strings must be
    writable as UTF-8 again: a lone surrogate escape such as "\\ud800" makes
    the line malformed. The file is opened when the first pair is asked for,
    and closed after the last.
    """
    seen = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line or line.isspace():
                    continue
                obj = _loads_line(line)
                if type(obj) is not dict:
                    raise ValueError(f"line must be dict, got {obj!r}")
                # Only a \u escape decodes to a lone surrogate; one character
                # is the fast test, most lines hold no backslash at all.
                if "\\" in line and "\\u" in line:
                    _ENCODER.encode(obj).encode("utf-8")
                note_id = _field(obj, "note_id", str)
                value = decode(obj)
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise error(f"{path}:{lineno}: malformed {what}: {exc}") from exc
            if note_id in seen:
                raise error(f"{path}:{lineno}: duplicate note_id {note_id!r}")
            seen.add(note_id)
            yield note_id, value


def iter_corpus(path) -> Iterator[AnnotatedNote]:
    """Yield a corpus file's notes one at a time, checked as `read_corpus` checks them."""
    return map(itemgetter(1), _read_lines(path, note_from_obj, "record"))


def read_corpus(path) -> list[AnnotatedNote]:
    """Parse a corpus file; malformed lines and duplicate ids raise with context."""
    return list(iter_corpus(path))


def read_patient_meta(path) -> dict[str, PatientMeta]:
    """Read a line-delimited meta file mapping note_id to PatientMeta fields."""
    return dict(_read_lines(path, _meta_line_from_obj, "meta record"))


def load_external_predictions(path, corpus) -> dict[str, tuple[EntitySpan, ...]]:
    """Predicted spans by note id, checked like corpus spans; an unknown line key is malformed."""
    texts = {n.note.note_id: n.note.text for n in corpus}

    def decode(obj):
        note_id = obj["note_id"]
        if note_id not in texts:
            raise ValueError(f"unknown note_id {note_id!r}")
        try:
            spans = _spans_from_objs(obj, texts[note_id])
            if not _NOTE_KEYS.issuperset(obj):
                _check_keys(obj, _NOTE_KEYS, "field")
            return spans
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"note {note_id!r}: {exc}") from exc

    return dict(_read_lines(path, decode, "prediction record", PredictionFileError))


# --------------------------------------------------------------------------
# splitting

@dataclass(frozen=True)
class SplitManifest:
    seed: int
    ratios: tuple[float, float, float]
    membership: dict[str, str]

    def sizes(self) -> tuple[int, int, int]:
        """Note counts per partition, in `PARTITIONS` order."""
        counts = Counter(self.membership.values())
        return tuple(counts[p] for p in PARTITIONS)


def _check_ratios(ratios) -> None:
    """Three positive partition ratios that sum to 1, or ValueError."""
    if len(ratios) != len(PARTITIONS):
        raise ValueError(f"expected {len(PARTITIONS)} ratios, got {len(ratios)}")
    if any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must all be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")


def split_corpus(notes, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> SplitManifest:
    """Deterministic seeded split into train/validation/test.

    Partition sizes are floor(ratio * N), where a product within 1e-9 (the
    ratio sum's tolerance) below a whole number counts as that number, so
    0.29 * 100 == 28.999999999999996 gives 29. Leftover rows go to train so
    the evaluation partitions stay at exactly their nominal fraction.
    """
    _check_ratios(ratios)
    ids = [n.note.note_id for n in unique_notes(notes)]
    if len(ids) < len(PARTITIONS):
        raise ValueError(
            f"cannot split {len(ids)} notes into {len(PARTITIONS)} partitions"
        )

    held_out = [math.floor(r * len(ids) + 1e-9) for r in ratios[1:]]
    sizes = (len(ids) - sum(held_out), *held_out)
    random.Random(seed).shuffle(ids)
    labels = (part for part, size in zip(PARTITIONS, sizes) for _ in range(size))
    return SplitManifest(seed=seed, ratios=tuple(ratios), membership=dict(zip(ids, labels)))


def write_manifest(manifest: SplitManifest, path) -> None:
    payload = {
        "seed": manifest.seed,
        "ratios": list(manifest.ratios),
        "membership": manifest.membership,
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> SplitManifest:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            if type(obj) is not dict:
                raise ValueError(f"manifest must be dict, got {obj!r}")
            membership = _field(obj, "membership", dict)
            bad = {repr(p): p for p in membership.values() if p not in PARTITIONS}.values()
            if bad:
                bad = sorted(bad, key=lambda p: (0, p) if type(p) is str else (1, repr(p)))
                raise ValueError(f"unknown partitions {bad}")
            ratios = _field(obj, "ratios", list)
            if len(ratios) != len(PARTITIONS) or {type(r) for r in ratios} - {int, float}:
                raise ValueError(f"ratios must be {len(PARTITIONS)} numbers, got {ratios!r}")
            _check_ratios(ratios)
            return SplitManifest(
                seed=_field(obj, "seed", int),
                ratios=tuple(map(float, ratios)),
                membership=membership,
            )
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CorpusFormatError(f"{path}: malformed manifest: {exc}") from exc
