"""Self-contained demo corpora for experiments and tests.

Real seed notes cannot ship with the package, so these helpers fabricate
plausible stand-ins: clean rendered notes whose records sweep the value
space of every dimension.
"""

from __future__ import annotations

import random

from .corpus import AnnotatedNote, AnnotationSource, Provenance
from .model import (
    FIELD_NAMES,
    LEGAL_DIMENSIONS,
    STATUSES_BY_SEVERITY,
    VALUE_CLASSES,
    DiagnosisRecord,
    Dimension,
    PeriodontalStatus,
)
from .synthesis import CLEAN, SeedTemplate, compose_note, templates_from_corpus


def _demo_record(status: PeriodontalStatus, i: int) -> DiagnosisRecord:
    """The i-th demo record of a status: each field it may carry cycles through its values."""
    fields = {}
    for dim in LEGAL_DIMENSIONS[status][1:]:
        values = tuple(VALUE_CLASSES[dim])
        # Gingivitis extents run one step ahead of periodontitis extents.
        shift = dim is Dimension.EXTENT and status is PeriodontalStatus.GINGIVITIS
        fields[FIELD_NAMES[dim]] = values[(i + shift) % len(values)]
    return DiagnosisRecord(status, **fields)


def demo_seed_notes(per_category: int = 15, site_id: str = "site1") -> list[AnnotatedNote]:
    """A gold-annotated corpus of clean notes, per_category per status."""
    notes = []
    for status, code in zip(STATUSES_BY_SEVERITY, "pgh"):
        for i in range(per_category):
            record = _demo_record(status, i)
            note_id = f"seed-{code}-{i:02d}"
            rng = random.Random(f"demo:{note_id}")
            rendered = compose_note(
                record,
                rng,
                CLEAN,
                note_id=note_id,
                site_id=site_id,
                provenance=Provenance.REAL,
            )
            notes.append(rendered.with_(annotation_source=AnnotationSource.GOLD))
    return notes


def demo_seed_templates(per_category: int = 15, site_id: str = "site1") -> list[SeedTemplate]:
    """Ready-made seed templates covering all stages, grades, extents, subtypes."""
    return templates_from_corpus(demo_seed_notes(per_category, site_id))
