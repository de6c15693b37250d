"""Independent brute-force oracles the production code is checked against.

These deliberately avoid the library's join helpers and metric classes:
orderings are spelled out as literal lists and everything is recomputed with
plain loops, so a bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import cProfile
import pstats
import random

from perioparse.corpus import AnnotatedNote, AnnotationSource, Note, PatientMeta, Provenance
from perioparse.model import (
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    Extent,
    Grade,
    GuidelineVersion,
    PeriodontalStatus,
    Stage,
    Subtype,
    join,
    legalized,
    span_violations,
    validate_record,
)

_SEVERITY = ["Health", "Gingivitis", "Periodontitis"]
_STAGE_ORDER = ["I", "II", "III", "IV"]
_GRADE_ORDER = ["A", "B", "C"]
_EXTENT_ORDER = ["Localized", "Generalized"]


def legal_records() -> list[DiagnosisRecord]:
    """Every DiagnosisRecord that passes the field-legality rules."""
    records = []
    for stage in (None, *Stage):
        for grade in (None, *Grade):
            for extent in (None, *Extent):
                records.append(
                    DiagnosisRecord(
                        PeriodontalStatus.PERIODONTITIS, stage=stage, grade=grade, extent=extent
                    )
                )
    for extent in (None, *Extent):
        for subtype in (None, *Subtype):
            records.append(
                DiagnosisRecord(PeriodontalStatus.GINGIVITIS, extent=extent, subtype=subtype)
            )
    for subtype in (None, *Subtype):
        records.append(DiagnosisRecord(PeriodontalStatus.HEALTH, subtype=subtype))
    return records


def _pick_highest(values, order):
    best = None
    for v in values:
        if v is None:
            continue
        if best is None or order.index(v.value) > order.index(best.value):
            best = v
    return best


def oracle_adjudicate(candidates) -> DiagnosisRecord | None:
    """Explicit lattice max over candidate records, written long-hand."""
    if not candidates:
        return None
    winner_status = candidates[0].status
    for c in candidates[1:]:
        if _SEVERITY.index(c.status.value) > _SEVERITY.index(winner_status.value):
            winner_status = c.status
    winners = [c for c in candidates if c.status is winner_status]

    stage = _pick_highest([c.stage for c in winners], _STAGE_ORDER)
    grade = _pick_highest([c.grade for c in winners], _GRADE_ORDER)
    extent = _pick_highest([c.extent for c in winners], _EXTENT_ORDER)

    subtype = None
    if winner_status.value in ("Gingivitis", "Health"):
        seen = {c.subtype for c in winners if c.subtype is not None}
        if len(seen) == 1:
            subtype = seen.pop()

    if winner_status.value == "Periodontitis":
        return DiagnosisRecord(winner_status, stage=stage, grade=grade, extent=extent)
    if winner_status.value == "Gingivitis":
        return DiagnosisRecord(winner_status, extent=extent, subtype=subtype)
    return DiagnosisRecord(winner_status, subtype=subtype)


def oracle_statement_candidate(statement) -> DiagnosisRecord | None:
    """A statement's candidate folded span by span, in order, each time it is asked for.

    It shares `join` and `legalized` with the library, which `test_model` checks
    on their own: this oracle checks the memo and its keying by value set.
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


def calls_per(fn, *args, per: int) -> float:
    """Python-level calls (cProfile's count, which no host speed moves) of `fn(*args)` per item."""
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return pstats.Stats(profile).total_calls / per


def oracle_metrics_from_pairs(pairs, classes):
    """Per-class TP/FP/FN/P/R/F1 plus (macro, weighted), straight from pair lists."""
    per_class = {}
    for c in classes:
        if c == "N/A":
            continue
        tp = fp = fn = support = 0
        for gold, pred in pairs:
            if gold == c and pred == c:
                tp += 1
            if gold != c and pred == c:
                fp += 1
            if gold == c and pred != c:
                fn += 1
            if gold == c:
                support += 1
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[c] = {
            "tp": tp,
            "fp": fp,
            "fn": fn,
            "support": support,
            "precision": precision,
            "recall": recall,
            "f1": f1,
        }

    scored = [c for c in per_class if per_class[c]["support"] > 0]
    if not scored:
        return per_class, None, None
    macro = tuple(
        sum(per_class[c][k] for c in scored) / len(scored)
        for k in ("precision", "recall", "f1")
    )
    total = sum(per_class[c]["support"] for c in scored)
    weighted = tuple(
        sum(per_class[c][k] * per_class[c]["support"] for c in scored) / total
        for k in ("precision", "recall", "f1")
    )
    return per_class, macro, weighted


# Classes of each record field, in the library's report order, N/A last.
_CURVE_CLASSES = {
    "status": ["Periodontitis", "Gingivitis", "Health", "N/A"],
    "stage": _STAGE_ORDER + ["N/A"],
    "grade": _GRADE_ORDER + ["N/A"],
    "extent": _EXTENT_ORDER + ["N/A"],
    "subtype": [
        "Intact Periodontium",
        "Reduced Periodontium, Stable Periodontitis",
        "Reduced Periodontium, Non-Periodontitis",
        "N/A",
    ],
}


def _field_label(record, field):
    if record is None or getattr(record, field) is None:
        return "N/A"
    return getattr(record, field).value


def oracle_learning_curve(gold_notes, pred_records, step, epsilon, window, seed, field):
    """Each seeded-shuffle prefix re-scored from scratch with plain loops.

    Returns ([(size, {field: weighted F1 or None})], stabilization size of `field`'s
    curve or None), with the tracked curve reading an absent F1 as 0.0.
    """
    pool = list(gold_notes)
    random.Random(seed).shuffle(pool)
    points = []
    for size in range(step, len(pool) + 1, step):
        f1s = {}
        for name, classes in _CURVE_CLASSES.items():
            pairs = []
            for note in pool[:size]:
                pred = pred_records[note.note.note_id]
                pairs.append((_field_label(note.record, name), _field_label(pred, name)))
            _, _, weighted = oracle_metrics_from_pairs(pairs, classes)
            f1s[name] = None if weighted is None else weighted[2]
        points.append((size, f1s))
    values = [0.0 if f1s[field] is None else f1s[field] for _, f1s in points]
    for k in range(len(values) - window):
        if all(abs(values[i + 1] - values[i]) < epsilon for i in range(k, k + window)):
            return points, points[k][0]
    return points, None


def expand_cells_to_pairs(classes, cells):
    """Materialize a cell-count mapping {(gold, pred): n} into an explicit pair list."""
    pairs = []
    for (gold, pred), n in cells.items():
        pairs.extend([(gold, pred)] * n)
    return pairs


# The keys each object of a corpus line may hold, and the meta fields' JSON types.
_LINE_KEYS = [
    "note_id", "site_id", "text", "provenance", "annotation_source",
    "spans", "record", "meta", "guideline_version", "qa",
]
_RECORD_KEYS = ["status", "stage", "grade", "extent", "subtype"]
_META_FIELDS = [
    ("age", int), ("natural_teeth_count", int),
    ("has_full_mouth_radiographs", bool), ("has_periodontal_charting", bool),
]
_SPAN_VALUES = {
    Dimension.STATUS: PeriodontalStatus, Dimension.STAGE: Stage, Dimension.GRADE: Grade,
    Dimension.EXTENT: Extent, Dimension.SUBTYPE: Subtype,
}


def _typed(obj, name, kind):
    value = obj[name]
    if type(value) is not kind:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _optional(obj, name, kind):
    return None if obj.get(name) is None else _typed(obj, name, kind)


def _known_keys(obj, keys, what):
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown {what} {key!r}")


def _optional_member(obj, name, cls):
    return None if obj.get(name) is None else cls(obj[name])


def oracle_record_from_obj(obj):
    """A record object decoded through the enums and `validate_record`, no lookup table."""
    status = PeriodontalStatus(obj["status"])
    _known_keys(obj, _RECORD_KEYS, "record field")
    record = DiagnosisRecord(
        status,
        stage=_optional_member(obj, "stage", Stage),
        grade=_optional_member(obj, "grade", Grade),
        extent=_optional_member(obj, "extent", Extent),
        subtype=_optional_member(obj, "subtype", Subtype),
    )
    problems = validate_record(record)
    if problems:
        raise ValueError("; ".join(problems))
    return record


def oracle_spans_from_obj(obj, text):
    """A line's spans, each built by the `EntitySpan` constructor, then `span_violations`."""
    spans = []
    for i, span in enumerate(_typed(obj, "spans", list) if "spans" in obj else []):
        if type(span) is not dict:
            raise ValueError(f"spans[{i}] must be dict, got {span!r}")
        dimension = Dimension(span["dimension"])
        value = _SPAN_VALUES[dimension](span["value"])
        start, end = _typed(span, "start", int), _typed(span, "end", int)
        raw = span.get("raw_text")
        raw = text[start:end] if raw is None else raw
        spans.append(EntitySpan(dimension, value, start, end, raw))
    problems = span_violations(text, spans)
    if problems:
        raise ValueError("; ".join(problems))
    return tuple(spans)


def oracle_note_from_obj(obj):
    """A corpus line decoded field by field in `note_from_obj`'s rule order.

    The first rule the line breaks raises, with the message the library writes.
    """
    text = _typed(obj, "text", str)
    note = Note(obj["note_id"], _typed(obj, "site_id", str), text, Provenance(obj["provenance"]))
    gv = _optional(obj, "guideline_version", str)
    spans = oracle_spans_from_obj(obj, text)
    record = _optional(obj, "record", dict)
    if record is not None:
        record = oracle_record_from_obj(record)
    source = AnnotationSource(obj["annotation_source"])
    meta = _optional(obj, "meta", dict)
    if meta is not None:
        meta = PatientMeta(**{name: _typed(meta, name, kind) for name, kind in _META_FIELDS})
    if gv is not None:
        gv = GuidelineVersion(gv)
    qa = _optional(obj, "qa", dict)
    _known_keys(obj, _LINE_KEYS, "field")
    if meta is not None:
        _known_keys(obj["meta"], [name for name, _ in _META_FIELDS], "meta field")
    return AnnotatedNote(note, spans, record, source, meta, gv, qa)
