"""Gold-versus-predicted scoring: confusion matrices, P/R/F1, learning curves.

Scoring is value-level per dimension: each evaluated note contributes one
(gold, predicted) pair per dimension, with absence on either side recorded
as the explicit N/A class. N/A participates in the confusion matrix but is
never an averaged class.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .corpus import unique_notes
from .model import (
    DIMENSIONS, STATUSES_BY_SEVERITY, VALUE_CLASSES, DiagnosisRecord, Dimension, field_values,
)

NA = "N/A"


@functools.cache
def _labels(record: DiagnosisRecord | None) -> tuple[str, ...]:
    """A record's class labels: its `field_values`, N/A for absences; five N/As for no record."""
    values = (None,) * len(DIMENSIONS) if record is None else field_values(record)
    return tuple(NA if value is None else value for value in values)


def compare_note(
    gold: DiagnosisRecord | None, pred: DiagnosisRecord | None
) -> dict[Dimension, tuple[str, str]]:
    """Per-dimension (gold, predicted) label pairs for one note."""
    return dict(zip(DIMENSIONS, zip(_labels(gold), _labels(pred))))


def dimension_classes(dimension: Dimension) -> tuple[str, ...]:
    values = STATUSES_BY_SEVERITY if dimension is Dimension.STATUS else VALUE_CLASSES[dimension]
    return tuple(v.value for v in values) + (NA,)


@dataclass
class ConfusionMatrix:
    """Counts of (gold class, predicted class) pairs for one dimension."""

    dimension: Dimension
    classes: tuple[str, ...]
    counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def cell(self, gold: str, pred: str) -> int:
        return self.counts.get((gold, pred), 0)

    def add(self, gold: str, pred: str, n: int = 1) -> None:
        if gold not in self.classes or pred not in self.classes:
            raise ValueError(f"unknown class in pair ({gold!r}, {pred!r})")
        if n < 0:
            raise ValueError("counts must be non-negative")
        self.counts[(gold, pred)] = self.counts.get((gold, pred), 0) + n

    def gold_support(self, gold: str) -> int:
        return sum(self.cell(gold, p) for p in self.classes)

    def total(self) -> int:
        return sum(self.counts.values())

    def grid(self) -> list[list[int]]:
        return [[self.cell(g, p) for p in self.classes] for g in self.classes]


def build_confusion(pairs: Iterable[tuple[str, str]], dimension: Dimension) -> ConfusionMatrix:
    """Tally (gold, predicted) pairs into a matrix with an explicit N/A class."""
    matrix = ConfusionMatrix(dimension, dimension_classes(dimension))
    for gold, pred in pairs:
        matrix.add(gold, pred)
    return matrix


@dataclass(frozen=True)
class ClassMetrics:
    value: str
    tp: int
    fp: int
    fn: int
    support: int
    precision: float
    recall: float
    f1: float


def class_metrics(matrix: ConfusionMatrix, value: str) -> ClassMetrics:
    """P/R/F1 for one non-N/A class; zero denominators score 0."""
    if value == NA or value not in matrix.classes:
        raise ValueError(f"{value!r} is not a scoreable class of this matrix")
    tp = matrix.cell(value, value)
    fp = sum(matrix.cell(g, value) for g in matrix.classes if g != value)
    fn = sum(matrix.cell(value, p) for p in matrix.classes if p != value)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassMetrics(value, tp, fp, fn, tp + fn, precision, recall, f1)


def all_class_metrics(matrix: ConfusionMatrix) -> list[ClassMetrics]:
    return [class_metrics(matrix, c) for c in matrix.classes if c != NA]


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def _weighted_mean(metrics: Sequence[ClassMetrics], weights: Sequence[int]) -> PRF:
    total = sum(weights)
    return PRF(
        sum(m.precision * w for m, w in zip(metrics, weights)) / total,
        sum(m.recall * w for m, w in zip(metrics, weights)) / total,
        sum(m.f1 * w for m, w in zip(metrics, weights)) / total,
    )


def averages(metrics: Sequence[ClassMetrics]) -> tuple[PRF | None, PRF | None]:
    """(macro, weighted) over classes with support; absent when none have any.

    The macro average is the weighted mean with unit weights; the weighted one weights by support.
    """
    supported = [m for m in metrics if m.support > 0]
    if not supported:
        return None, None
    supports = [m.support for m in supported]
    return _weighted_mean(supported, [1] * len(supported)), _weighted_mean(supported, supports)


@dataclass(frozen=True)
class DimensionMetrics:
    dimension: Dimension
    classes: tuple[ClassMetrics, ...]
    macro: PRF | None
    weighted: PRF | None


@dataclass(frozen=True)
class MetricsTable:
    site: str
    dimensions: tuple[DimensionMetrics, ...]


def _require_same_ids(gold_ids, pred_ids) -> None:
    """Raise unless gold and predictions cover the same note ids."""
    gold_ids, pred_ids = set(gold_ids), set(pred_ids)
    if gold_ids != pred_ids:
        missing_pred = sorted(gold_ids - pred_ids)
        missing_gold = sorted(pred_ids - gold_ids)
        raise ValueError(
            f"note_id sets differ: missing from predictions {missing_pred[:5]}, "
            f"missing from gold {missing_gold[:5]}"
        )


def _score(matrices: dict[Dimension, ConfusionMatrix], record_pairs, site: str) -> MetricsTable:
    """Add each note's (gold, predicted) records to the matrices, then score them."""
    columns = [matrices[dim] for dim in DIMENSIONS]
    for gold, pred in record_pairs:
        for matrix, gold_label, pred_label in zip(columns, _labels(gold), _labels(pred)):
            matrix.add(gold_label, pred_label)
    dims = []
    for dim in DIMENSIONS:
        metrics = all_class_metrics(matrices[dim])
        dims.append(DimensionMetrics(dim, tuple(metrics), *averages(metrics)))
    return MetricsTable(site, tuple(dims))


def evaluate_records(
    gold: dict[str, DiagnosisRecord | None],
    pred: dict[str, DiagnosisRecord | None],
    site: str = "site1",
) -> tuple[dict[Dimension, ConfusionMatrix], MetricsTable]:
    """Score aligned gold/predicted records, keyed by note id."""
    _require_same_ids(gold, pred)
    matrices = {dim: build_confusion((), dim) for dim in DIMENSIONS}
    return matrices, _score(matrices, ((gold[nid], pred[nid]) for nid in gold), site)


def notes_by_site(notes) -> dict[str, list]:
    """Annotated notes grouped by site id, sites sorted, notes in input order."""
    sites: dict[str, list] = {}
    for n in notes:
        sites.setdefault(n.note.site_id, []).append(n)
    return dict(sorted(sites.items()))


def evaluate_corpus(gold_notes, pred_notes) -> dict[str, tuple[dict, MetricsTable]]:
    """Per-site evaluation of two aligned corpora of annotated notes.

    Each is read once, gold first, and only its note ids, sites and records are kept.
    """
    gold: dict[str, dict[str, DiagnosisRecord | None]] = {}
    for n in unique_notes(gold_notes, "gold"):
        gold.setdefault(n.note.site_id, {})[n.note.note_id] = n.record
    pred = {n.note.note_id: n.record for n in unique_notes(pred_notes, "predictions")}
    _require_same_ids((nid for site in gold.values() for nid in site), pred)
    return {
        site: evaluate_records(g, {nid: pred[nid] for nid in g}, site=site)
        for site, g in sorted(gold.items())
    }


# --------------------------------------------------------------------------
# learning curve

@dataclass(frozen=True)
class LearningCurve:
    step: int
    dimension: Dimension
    points: tuple[tuple[int, dict[Dimension, float | None]], ...]
    stabilization_size: int | None


def _check_stabilization_args(epsilon: float, window: int) -> None:
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and above 0, got {epsilon}")


def detect_stabilization(
    sizes: Sequence[int], values: Sequence[float], epsilon: float = 0.01, window: int = 2
) -> int | None:
    """Smallest size after which `window` consecutive deltas stay below epsilon.

    Returns None when the curve never exhibits a full window of small deltas.
    A window below 1, or an epsilon that is not finite and above 0, raises ValueError.
    """
    if len(sizes) != len(values):
        raise ValueError("sizes and values must align")
    _check_stabilization_args(epsilon, window)
    deltas = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    for k in range(len(deltas) - window + 1):
        if all(d < epsilon for d in deltas[k : k + window]):
            return sizes[k]
    return None


def learning_curve(
    gold_notes,
    pred_records: dict[str, DiagnosisRecord | None],
    step: int = 30,
    epsilon: float = 0.01,
    window: int = 2,
    seed: int = 0,
    dimension: Dimension = Dimension.STATUS,
) -> LearningCurve:
    """Weighted F1 on seeded-shuffle prefixes of the gold pool, in fixed steps, in one pass."""
    if step < 1:
        raise ValueError("step must be positive")
    _check_stabilization_args(epsilon, window)
    if len(gold_notes) < step:
        raise ValueError(f"pool of {len(gold_notes)} notes is smaller than step {step}")
    pool = list(unique_notes(gold_notes, "gold pool"))
    random.Random(seed).shuffle(pool)
    sizes = list(range(step, len(pool) + 1, step))
    for n in pool[: sizes[-1]]:
        if n.note.note_id not in pred_records:
            raise ValueError(f"no prediction for note {n.note.note_id!r}")
    matrices = {dim: build_confusion((), dim) for dim in DIMENSIONS}
    points = []
    for size in sizes:
        added = ((n.record, pred_records[n.note.note_id]) for n in pool[size - step : size])
        table = _score(matrices, added, "pool")
        f1s = {dm.dimension: dm.weighted.f1 if dm.weighted else None for dm in table.dimensions}
        points.append((size, f1s))
    tracked = [0.0 if f1s[dimension] is None else f1s[dimension] for _, f1s in points]
    stabilization = detect_stabilization(sizes, tracked, epsilon, window)
    return LearningCurve(step, dimension, tuple(points), stabilization)
