"""Synthetic-corpus machinery: seed templates, prompts, the offline engine, and
both engines' settings (`PerturbationSpec` offline, `GenerationConfig` for `llm`).

The offline generator is a deterministic stand-in for a hosted LLM: it
renders notes whose diagnosis sentences it fully controls, so every note
carries exact ground-truth spans and a record. Perturbation rates inject the
documented real-world failure classes (typos, informal diagnosis formats,
anchor variants, secondary diagnoses, distractor extent adjectives) for
robustness experiments.
"""

from __future__ import annotations

import json
import random
import re
from collections.abc import Iterable
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import (
    AnnotatedNote,
    AnnotationSource,
    Note,
    Provenance,
    record_from_obj,
    record_to_obj,
)
from .extraction import GRAMMAR_WORDS, diagnose, within_one_edit
from .model import (
    DIMENSIONS,
    FIELD_NAMES,
    LEGAL_DIMENSIONS,
    STATUSES_BY_SEVERITY,
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    Extent,
    PeriodontalStatus,
    Subtype,
    is_valid_record,
)


class TemplateSelectionError(ValueError):
    """A status category cannot supply enough seed notes."""


@dataclass(frozen=True)
class SeedTemplate:
    """A seed note, its detected status bucket, and the diagnosis it embeds."""

    note: Note
    status_category: PeriodontalStatus
    embedded_record: DiagnosisRecord

    def __post_init__(self):
        if self.status_category is not self.embedded_record.status:
            raise ValueError("status_category must match embedded_record.status")


@dataclass(frozen=True)
class PerturbationSpec:
    """Rates for the error classes injected into offline notes."""

    typo_rate: float = 0.0
    informal_format_rate: float = 0.0
    anchor_variation_rate: float = 0.0
    multi_diagnosis_rate: float = 0.0
    distractor_extent_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in PERTURBATION_RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")


#: Names of the rate fields of :class:`PerturbationSpec`, in field order.
PERTURBATION_RATES = tuple(f.name for f in fields(PerturbationSpec) if f.name.endswith("_rate"))

CLEAN = PerturbationSpec()

#: Notes rendered per seed template unless a caller asks for another count.
VARIANTS_PER_TEMPLATE = 10


def check_variants(variants_per_template: int) -> None:
    """Reject a variants-per-template count below one."""
    if variants_per_template < 1:
        raise ValueError("variants_per_template must be at least 1")


@dataclass(frozen=True)
class GenerationConfig:
    model_name: str
    endpoint_url: str
    variants_per_template: int = VARIANTS_PER_TEMPLATE
    temperature: float = 1.0
    top_p: float = 1.0
    max_concurrent_requests: int = 4
    retry_limit: int = 3
    api_key_env: str = "OPENAI_API_KEY"

    def __post_init__(self):
        check_variants(self.variants_per_template)
        for name in ("temperature", "top_p"):
            value = getattr(self, name)
            if not 0.0 < value <= 2.0:
                raise ValueError(f"{name} must be within (0, 2], got {value}")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be at least 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be non-negative")


def select_seed_templates(
    corpus: Iterable[AnnotatedNote], per_category: int = 15, seed: int = 0
) -> list[SeedTemplate]:
    """Sample seed templates per status category, bucketed by the grammar's record.

    Each note is read once with `diagnose(text, "informal")`; a note the
    grammar finds no diagnosis in is not a candidate. A template embeds the
    note's own record when that has the grammar's status, else the grammar's
    record. Sampling is uniform without replacement within each category and
    deterministic under the seed.
    """
    if per_category < 1:
        raise ValueError(f"per_category must be at least 1, got {per_category}")
    pools: dict[PeriodontalStatus, list[SeedTemplate]] = {s: [] for s in PeriodontalStatus}
    for annotated in corpus:
        _, derived = diagnose(annotated.note.text, "informal")
        if derived is not None:
            own = annotated.record
            record = own if own is not None and own.status is derived.status else derived
            pools[derived.status].append(SeedTemplate(annotated.note, derived.status, record))

    rng = random.Random(seed)
    templates: list[SeedTemplate] = []
    for status in STATUSES_BY_SEVERITY:
        pool = pools[status]
        if len(pool) < per_category:
            raise TemplateSelectionError(
                f"category {status.value}: need {per_category} notes, found {len(pool)} "
                f"(short by {per_category - len(pool)})"
            )
        templates.extend(rng.sample(pool, per_category))
    return templates


def templates_from_corpus(corpus: list[AnnotatedNote]) -> list[SeedTemplate]:
    """Treat every note of a corpus as a template; each must carry a record."""
    templates = []
    for annotated in corpus:
        if annotated.record is None:
            raise TemplateSelectionError(
                f"note {annotated.note.note_id!r} has no record; cannot use as template"
            )
        templates.append(
            SeedTemplate(annotated.note, annotated.record.status, annotated.record)
        )
    return templates


# --------------------------------------------------------------------------
# prompts

@dataclass(frozen=True)
class PromptSections:
    rules: str
    components: str
    labeling: str


DEFAULT_PROMPT_SECTIONS = PromptSections(
    rules=(
        "Rewrite the template note into a new, fictional clinical note. Vary the "
        "narrative, phrasing, and incidental findings while keeping the style of "
        "a periodontal progress note. Do not copy template sentences verbatim and "
        "do not invent identifying details."
    ),
    components=(
        "The rewritten note must contain: a visit reason, clinical findings, a "
        "single diagnosis sentence anchored by \"D:\", and a plan or follow-up "
        "sentence."
    ),
    labeling=(
        "Keep the template's periodontal diagnosis exactly as written; do not "
        "alter any of its values."
    ),
)

TRAILER_PREFIX = "LABELS:"


def trailer_for_record(record: DiagnosisRecord) -> str:
    """The machine-readable label line a generated note must end with."""
    values = record_to_obj(record)
    names = [FIELD_NAMES[dim] for dim in LEGAL_DIMENSIONS[record.status]]
    payload = {name: values[name] for name in names}
    return f"{TRAILER_PREFIX} {json.dumps(payload)}"


def build_prompt(template: SeedTemplate, sections: PromptSections = DEFAULT_PROMPT_SECTIONS) -> str:
    """Assemble the generation prompt: rules, components, labeling, template text."""
    titles = ", ".join(dim.value for dim in LEGAL_DIMENSIONS[template.embedded_record.status])
    labeling = (
        f"{sections.labeling}\n"
        f"Annotated dimensions for this note: {titles}.\n"
        f"End the note with one final line exactly of this form:\n"
        f"{trailer_for_record(template.embedded_record)}"
    )
    return (
        "You are generating a synthetic dental clinical note from a template.\n\n"
        "=== Rewriting rules ===\n"
        f"{sections.rules}\n\n"
        "=== Required note components ===\n"
        f"{sections.components}\n\n"
        "=== Labeling instructions ===\n"
        f"{labeling}\n\n"
        "=== Template note ===\n"
        f"{template.note.text}\n"
    )


def parse_label_trailer(text: str) -> tuple[str, DiagnosisRecord | None]:
    """Split a generated note into (body, embedded record from its trailer).

    A missing or unparseable trailer yields record None; the caller flags the
    note for QA instead of dropping it.
    """
    lines = text.rstrip().splitlines()
    for idx in range(len(lines) - 1, -1, -1):
        if lines[idx].strip().startswith(TRAILER_PREFIX):
            body = "\n".join(lines[:idx]).rstrip()
            payload = lines[idx].strip()[len(TRAILER_PREFIX) :].strip()
            try:
                record = record_from_obj(json.loads(payload))
            except (ValueError, KeyError, TypeError, RecursionError):
                record = None
            return body, record
    return text, None


def read_prompt_sections(path) -> PromptSections:
    """Read a plain-text prompt file with [rules] / [components] / [labeling] headers.

    A file that cannot be read or is not UTF-8, an unknown or repeated header,
    or a missing section raises ValueError naming the path (and the header's line).
    """
    names = [f.name for f in fields(PromptSections)]
    sections: dict[str, list[str]] = {}
    current: str | None = None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read prompt file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: prompt file is not UTF-8: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            current = header.group(1).lower()
            if current not in names:
                raise ValueError(
                    f"{path}:{lineno}: unknown prompt section [{current}]; expected one of {names}"
                )
            if current in sections:
                raise ValueError(f"{path}:{lineno}: prompt section [{current}] repeated")
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    missing = set(names) - sections.keys()
    if missing:
        raise ValueError(f"{path}: prompt file missing sections: {sorted(missing)}")
    return PromptSections(**{name: "\n".join(lines).strip() for name, lines in sections.items()})


# --------------------------------------------------------------------------
# offline engine

_INTRO_POOL = (
    "Patient presents for comprehensive periodontal evaluation.",
    "Medical and dental histories were reviewed and updated.",
    "Oral hygiene instructions were reviewed with the patient.",
    "Full mouth probing depths were recorded at six sites per tooth.",
    "Patient reports brushing twice daily and flossing occasionally.",
    "Radiographic review completed prior to the exam.",
    "Bleeding on probing noted in scattered posterior areas.",
    "Supragingival calculus present on the lower anterior teeth.",
)

_OUTRO_POOL = (
    "Scaling and root planing completed for the upper right quadrant.",
    "Patient tolerated the procedure well.",
    "Recall interval set to three months.",
    "Treatment options were discussed and the patient elected conservative therapy.",
    "Next visit scheduled for reevaluation of tissue response.",
    "Oral cancer screening performed with no suspicious findings.",
)

_ANCHOR_VARIANTS = ("D-", "Diagnosis:", "Dx:", None)

_SUBTYPE_PHRASES = {
    Subtype.INTACT_PERIODONTIUM: ("intact periodontium",),
    Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS: (
        "reduced periodontium with stable periodontitis",
        "reduced periodontium, stable periodontitis",
    ),
    Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS: (
        "reduced periodontium, non-periodontitis",
        "reduced periodontium with non-periodontitis",
    ),
}

_TYPO_WORD_RE = re.compile(r"[A-Za-z]{5,}")


@dataclass
class _Atom:
    """A word or sentence of a rendered note, and the gold span label it carries, if any."""

    text: str
    dimension: Dimension | None = None
    value: object = None
    typo_ok: bool = False


def _diagnosis_atoms(
    record: DiagnosisRecord,
    anchor: str | None,
    informal_style: str | None,
    distractor: bool,
    rng: random.Random,
) -> list[_Atom]:
    """Render one diagnosis sentence as word atoms carrying span metadata."""
    atoms = [] if anchor is None else [_Atom(anchor)]
    if informal_style == "extent_roman":
        atoms.append(_Atom(record.extent.value, Dimension.EXTENT, record.extent, typo_ok=True))
        atoms.append(_Atom(record.stage.value, Dimension.STAGE, record.stage))
        atoms.append(_Atom(record.grade.value, Dimension.GRADE, record.grade))
    elif informal_style == "stage_arabic":
        atoms.append(_Atom("Stage", typo_ok=True))
        atoms.append(_Atom(str(record.stage.rank + 1), Dimension.STAGE, record.stage))
        atoms.append(_Atom(record.grade.value, Dimension.GRADE, record.grade))
    else:
        if record.extent is not None:
            atoms.append(_Atom(record.extent.value, Dimension.EXTENT, record.extent, typo_ok=True))
        if record.status is PeriodontalStatus.HEALTH:
            atoms.append(_Atom("Gingival"))
            atoms.append(_Atom("health", Dimension.STATUS, record.status, typo_ok=True))
        else:
            atoms.append(_Atom(record.status.value, Dimension.STATUS, record.status, typo_ok=True))
        if record.stage is not None:
            atoms.append(_Atom("Stage", typo_ok=True))
            atoms.append(_Atom(record.stage.value, Dimension.STAGE, record.stage))
        if record.grade is not None:
            atoms.append(_Atom("Grade", typo_ok=True))
            atoms.append(_Atom(record.grade.value, Dimension.GRADE, record.grade))
        if record.subtype is not None:
            phrase = rng.choice(_SUBTYPE_PHRASES[record.subtype])
            atoms.append(_Atom(rng.choice(("on", "with"))))
            atoms.append(_Atom("an" if phrase[0] in "aeiou" else "a"))
            atoms.append(_Atom(phrase, Dimension.SUBTYPE, record.subtype, typo_ok=True))
    if distractor:
        atoms.append(_Atom("with"))
        atoms.append(_Atom(rng.choice(("Generalized", "Localized"))))
        atoms.append(_Atom("Recession"))
    atoms.append(_Atom("."))
    return atoms


def _render(atoms: list[_Atom]) -> tuple[str, tuple[EntitySpan, ...]]:
    """Join atoms with single spaces, none before ".", and span each labelled atom."""
    text = ""
    spans = []
    for atom in atoms:
        if text and atom.text != ".":
            text += " "
        if atom.dimension is not None:
            end = len(text) + len(atom.text)
            spans.append(EntitySpan(atom.dimension, atom.value, len(text), end, atom.text))
        text += atom.text
    return text, tuple(spans)


def _safe_typo(word: str, rng: random.Random) -> str:
    """One random edit that still resolves uniquely back to the source word."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    low = word.lower()
    for _ in range(12):
        op = rng.choice(("sub", "ins", "del"))
        pos = rng.randrange(1, len(word))
        if op == "sub":
            mutated = word[:pos] + rng.choice(letters) + word[pos + 1 :]
        elif op == "ins":
            mutated = word[:pos] + rng.choice(letters) + word[pos:]
        else:
            mutated = word[:pos] + word[pos + 1 :]
        if mutated.lower() == low:
            continue
        if any(w != low and within_one_edit(mutated.lower(), w) for w in GRAMMAR_WORDS):
            continue
        return mutated
    return word[:2] + word[1:]  # duplicate second character


def _inject_typo(atoms: list[_Atom], rng: random.Random) -> None:
    """Corrupt one eligible entity word in place."""
    candidates = []
    for idx, atom in enumerate(atoms):
        if not atom.typo_ok:
            continue
        for m in _TYPO_WORD_RE.finditer(atom.text):
            candidates.append((idx, m.start(), m.end()))
    if not candidates:
        return
    idx, start, end = rng.choice(candidates)
    atom = atoms[idx]
    mutated = _safe_typo(atom.text[start:end], rng)
    atom.text = atom.text[:start] + mutated + atom.text[end:]


def _secondary_record(primary: DiagnosisRecord, rng: random.Random) -> DiagnosisRecord:
    """A strictly weaker (or duplicate, for health) co-occurring diagnosis: adjudication
    of the pair gives the primary back, so the primary stays the note's gold."""
    if primary.status is PeriodontalStatus.PERIODONTITIS:
        return DiagnosisRecord(
            PeriodontalStatus.GINGIVITIS,
            extent=rng.choice((Extent.LOCALIZED, Extent.GENERALIZED)),
        )
    if primary.status is PeriodontalStatus.GINGIVITIS:
        return DiagnosisRecord(
            PeriodontalStatus.HEALTH, subtype=Subtype.INTACT_PERIODONTIUM
        )
    return primary


def compose_note(
    record: DiagnosisRecord,
    rng: random.Random,
    perturb: PerturbationSpec = CLEAN,
    note_id: str = "synthetic",
    site_id: str = "site1",
    provenance: Provenance = Provenance.OFFLINE_GENERATED,
) -> AnnotatedNote:
    """Render one synthetic note with ground-truth spans; the given record is its gold."""
    assert is_valid_record(record), "compose_note requires a valid record"
    intro = rng.sample(_INTRO_POOL, rng.randint(1, 2))
    outro = rng.sample(_OUTRO_POOL, rng.randint(0, 2))

    anchor: str | None = "D:"
    if rng.random() < perturb.anchor_variation_rate:
        anchor = rng.choice(_ANCHOR_VARIANTS)

    informal_style = None
    if (
        record.status is PeriodontalStatus.PERIODONTITIS
        and record.stage is not None
        and record.grade is not None
        and rng.random() < perturb.informal_format_rate
    ):
        informal_style = rng.choice(("extent_roman", "stage_arabic"))
        if informal_style == "extent_roman" and record.extent is None:
            informal_style = "stage_arabic"

    distractor = (
        record.status is not PeriodontalStatus.HEALTH
        and rng.random() < perturb.distractor_extent_rate
    )

    atoms = _diagnosis_atoms(record, anchor, informal_style, distractor, rng)
    if rng.random() < perturb.typo_rate:
        _inject_typo(atoms, rng)

    if rng.random() < perturb.multi_diagnosis_rate:
        atoms += _diagnosis_atoms(_secondary_record(record, rng), "Dx:", None, False, rng)

    text, spans = _render([*map(_Atom, intro), *atoms, *map(_Atom, outro)])
    note = Note(note_id=note_id, site_id=site_id, text=text, provenance=provenance)
    return AnnotatedNote(
        note=note,
        spans=spans,
        record=record,
        annotation_source=AnnotationSource.EMBEDDED,
    )


def generate_offline(
    templates: list[SeedTemplate],
    variants_per_template: int = VARIANTS_PER_TEMPLATE,
    perturb: PerturbationSpec = CLEAN,
) -> list[AnnotatedNote]:
    """Deterministically render synthetic notes from templates.

    A pure function of (templates, perturbation spec): identical seeds yield
    byte-identical corpora. Per-template seeds derive from the template id,
    so templates can be rendered independently.
    """
    check_variants(variants_per_template)
    return list(iter_offline(templates, variants_per_template, perturb))


def iter_offline(templates, variants_per_template: int, perturb: PerturbationSpec):
    """Yield `generate_offline`'s notes one at a time; the variant count is not checked here."""
    for template in templates:
        for variant in range(variants_per_template):
            rng = random.Random(f"{perturb.rng_seed}:{template.note.note_id}:{variant}")
            yield compose_note(
                template.embedded_record,
                rng,
                perturb,
                note_id=f"{template.note.note_id}-off{variant:02d}",
                site_id=template.note.site_id,
            )


# --------------------------------------------------------------------------
# label QA

@dataclass(frozen=True)
class Discrepancy:
    dimension: Dimension
    embedded: object
    extracted: object  # also the proposed correction; None proposes "blank"


@dataclass(frozen=True)
class QAVerdict:
    consistent: bool
    discrepancies: tuple[Discrepancy, ...] = ()
    extracted: DiagnosisRecord | None = None  # the extractor's record: the fix to apply


def validate_labels(annotated: AnnotatedNote) -> QAVerdict:
    """Cross-check a note's embedded record against the informal-mode grammar extractor.

    Dimensions the text does not support are proposed as blank; dimensions
    the text contradicts are proposed with the extractor's reading.
    """
    if annotated.annotation_source is not AnnotationSource.EMBEDDED:
        raise ValueError("validate_labels applies to embedded-annotation notes")
    _, extracted = diagnose(annotated.note.text, "informal")
    discrepancies = []
    for dim in DIMENSIONS:
        embedded_value = annotated.record.value_for(dim) if annotated.record else None
        extracted_value = extracted.value_for(dim) if extracted else None
        if embedded_value != extracted_value:
            discrepancies.append(Discrepancy(dim, embedded_value, extracted_value))
    return QAVerdict(not discrepancies, tuple(discrepancies), extracted)


def verdict_to_obj(verdict: QAVerdict) -> dict:
    return {
        "consistent": verdict.consistent,
        "discrepancies": [
            {
                "dimension": d.dimension.value,
                "embedded": d.embedded.value if d.embedded is not None else None,
                "proposal": d.extracted.value if d.extracted is not None else "blank",
            }
            for d in verdict.discrepancies
        ],
    }
