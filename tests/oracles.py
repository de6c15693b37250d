"""Independent brute-force oracles the production code is checked against.

These deliberately avoid the library's join helpers and metric classes:
orderings are spelled out as literal lists and everything is recomputed with
plain loops, so a bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import random

from perioparse.model import (
    DiagnosisRecord,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
    Subtype,
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
