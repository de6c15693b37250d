import itertools
import json
import random
import re

import pytest

from perioparse.corpus import AnnotatedNote, AnnotationSource, Note, Provenance, note_to_obj
from perioparse.demo import demo_seed_notes, demo_seed_templates
from perioparse.extraction import diagnose, extract_statements
from perioparse.model import (
    LEGAL_RECORDS,
    DiagnosisRecord,
    Dimension,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
    Subtype,
    span_violations,
)
from perioparse.normalization import adjudicate, infer_status_context
from perioparse.synthesis import (
    CLEAN,
    PerturbationSpec,
    SeedTemplate,
    TemplateSelectionError,
    _diagnosis_atoms,
    _render,
    _secondary_record,
    build_prompt,
    compose_note,
    generate_offline,
    parse_label_trailer,
    read_prompt_sections,
    select_seed_templates,
    templates_from_corpus,
    trailer_for_record,
    validate_labels,
)

P, G, H = (
    PeriodontalStatus.PERIODONTITIS,
    PeriodontalStatus.GINGIVITIS,
    PeriodontalStatus.HEALTH,
)


# --------------------------------------------------------------------------
# seed selection

def test_select_returns_per_category_times_three():
    corpus = demo_seed_notes(per_category=20)
    templates = select_seed_templates(corpus, per_category=15, seed=1)
    assert len(templates) == 45
    for status in (P, G, H):
        assert sum(t.status_category is status for t in templates) == 15


def test_select_insufficient_category_names_shortfall():
    corpus = [n for n in demo_seed_notes(per_category=20) if n.record.status is not H]
    with pytest.raises(TemplateSelectionError, match="Health.*15.*0"):
        select_seed_templates(corpus, per_category=15, seed=1)


@pytest.mark.parametrize("per_category", [0, -1])
def test_select_rejects_per_category_below_one(per_category):
    corpus = demo_seed_notes(per_category=2)
    with pytest.raises(ValueError, match=f"per_category must be at least 1, got {per_category}"):
        select_seed_templates(corpus, per_category=per_category, seed=1)


def test_select_deterministic_under_seed():
    corpus = demo_seed_notes(per_category=25)
    a = select_seed_templates(corpus, per_category=10, seed=7)
    b = select_seed_templates(corpus, per_category=10, seed=7)
    c = select_seed_templates(corpus, per_category=10, seed=8)
    assert [t.note.note_id for t in a] == [t.note.note_id for t in b]
    assert [t.note.note_id for t in a] != [t.note.note_id for t in c]


def test_select_from_demo_notes_matches_gold_status_buckets():
    corpus = demo_seed_notes(per_category=20)
    rng = random.Random(3)
    by_gold = [
        n for s in (P, G, H) for n in rng.sample([n for n in corpus if n.record.status is s], 15)
    ]
    templates = select_seed_templates(corpus, per_category=15, seed=3)
    assert [(t.note, t.status_category, t.embedded_record) for t in templates] == [
        (n.note, n.record.status, n.record) for n in by_gold
    ]
    records = {n.note.note_id: n.record for n in corpus}
    for t in templates:
        own = records[t.note.note_id]
        assert t.embedded_record in (own, diagnose(t.note.text, "informal")[1])


def _select_with_fillers(note: AnnotatedNote, fill: tuple) -> list:
    """Select one template per category from `note` plus one demo note of each status in `fill`."""
    fillers = [n for n in demo_seed_notes(1) if n.record.status in fill]
    return select_seed_templates([note, *fillers], per_category=1, seed=0)


@pytest.mark.parametrize(
    "text, expected",
    [
        # No status word: a stage and grade make it Periodontitis.
        ("D: Localized I A.", DiagnosisRecord(P, Stage.I, Grade.A, Extent.LOCALIZED)),
        # Two statements: the most severe wins.
        ("D: Stage 1 A. Dx: Localized Gingivitis.", DiagnosisRecord(P, Stage.I, Grade.A)),
        # A typo'd subtype qualifier, not a Periodontitis status.
        (
            "D: Gingival health on a reduced periodontium with stabe periodontitis.",
            DiagnosisRecord(H, subtype=Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS),
        ),
    ],
)
def test_select_buckets_a_record_less_note_by_the_grammar(text, expected):
    note = AnnotatedNote(Note("hand", "site1", text))
    templates = _select_with_fillers(note, tuple(s for s in (P, G, H) if s is not expected.status))
    (template,) = [t for t in templates if t.note.note_id == "hand"]
    assert template.status_category is expected.status
    assert template.embedded_record == expected


@pytest.mark.parametrize(
    "text",
    [
        "Patient in good general health.",
        # No anchor, and the sentence does not open with a diagnosis phrase.
        "Patient reports a history of periodontitis in 2015 with good home care.",
    ],
)
def test_select_skips_a_note_without_a_diagnosis(text):
    note = AnnotatedNote(Note("hand", "site1", text))
    for status in (P, G, H):
        others = tuple(s for s in (P, G, H) if s is not status)
        with pytest.raises(TemplateSelectionError, match=f"{status.value}: need 1 notes, found 0"):
            _select_with_fillers(note, others)


def test_select_keeps_the_notes_own_record_only_when_its_status_agrees():
    text = "D: Stage 1 A. Dx: Localized Gingivitis."
    own = DiagnosisRecord(P, Stage.I, Grade.A, Extent.GENERALIZED)
    agreeing = AnnotatedNote(Note("hand", "site1", text), record=own)
    assert _select_with_fillers(agreeing, (G, H))[0].embedded_record == own
    disagreeing = agreeing.with_(record=DiagnosisRecord(G, extent=Extent.LOCALIZED))
    assert _select_with_fillers(disagreeing, (G, H))[0].embedded_record == DiagnosisRecord(
        P, Stage.I, Grade.A
    )


def test_seed_template_invariant():
    note = demo_seed_notes(1)[0]
    with pytest.raises(ValueError):
        SeedTemplate(note.note, G, DiagnosisRecord(P))


def test_templates_from_corpus_requires_records():
    notes = demo_seed_notes(2)
    stripped = [notes[0].with_(record=None)] + notes[1:]
    with pytest.raises(TemplateSelectionError, match="seed-p-00"):
        templates_from_corpus(stripped)


# --------------------------------------------------------------------------
# prompts

def _template_for(status):
    return next(t for t in demo_seed_templates(2) if t.status_category is status)


def test_prompt_has_three_sections_and_verbatim_template():
    template = _template_for(P)
    prompt = build_prompt(template)
    assert "=== Rewriting rules ===" in prompt
    assert "=== Required note components ===" in prompt
    assert "=== Labeling instructions ===" in prompt
    assert template.note.text in prompt


@pytest.mark.parametrize(
    "status, titles, keys",
    [
        (P, "Status, Stage, Grade, Extent", ["status", "stage", "grade", "extent"]),
        (G, "Status, Extent, Subtype", ["status", "extent", "subtype"]),
        (H, "Status, Subtype", ["status", "subtype"]),
    ],
    ids=["periodontitis", "gingivitis", "health"],
)
def test_labeling_names_exactly_the_dimensions_of_the_status(status, titles, keys):
    template = _template_for(status)
    labeling = build_prompt(template).split("=== Labeling instructions ===")[1]
    labeling = labeling.split("=== Template")[0]
    assert f"\nAnnotated dimensions for this note: {titles}.\n" in labeling
    trailer = trailer_for_record(template.embedded_record)
    assert trailer in labeling
    assert list(json.loads(trailer.removeprefix("LABELS:"))) == keys
    for dim in Dimension:
        if dim.value not in titles:
            assert dim.value not in labeling and dim.value.lower() not in labeling


def test_prompt_is_pure():
    template = _template_for(G)
    assert build_prompt(template) == build_prompt(template)


def test_trailer_round_trip():
    record = DiagnosisRecord(P, Stage.IV, Grade.C, Extent.LOCALIZED)
    text = "Some note body.\n" + trailer_for_record(record)
    body, parsed = parse_label_trailer(text)
    assert parsed == record
    assert "LABELS" not in body


def test_trailer_missing_or_garbled_yields_none():
    assert parse_label_trailer("no trailer here")[1] is None
    assert parse_label_trailer("body\nLABELS: {not json")[1] is None


def test_trailer_with_a_misspelled_field_yields_none():
    # Read as a record without that field, the trailer would lose its grade unseen.
    text = 'body\nLABELS: {"status": "Periodontitis", "stage": "II", "grde": "B"}'
    assert parse_label_trailer(text) == ("body", None)


def test_trailer_nested_too_deeply_yields_none():
    # The JSON decoder gives up on this depth with RecursionError, not ValueError.
    assert parse_label_trailer("body\nLABELS: " + "[" * 100_000) == ("body", None)


def test_read_prompt_sections(tmp_path):
    path = tmp_path / "prompt.txt"
    path.write_text(
        "[rules]\nFirst rule.\nSecond rule.\n[components]\nParts.\n[labeling]\nLabel away.\n",
        encoding="utf-8",
    )
    sections = read_prompt_sections(path)
    assert sections.rules == "First rule.\nSecond rule."
    assert sections.components == "Parts."
    assert sections.labeling == "Label away."
    (tmp_path / "missing.txt").write_text("[rules]\nonly\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing sections"):
        read_prompt_sections(tmp_path / "missing.txt")


def test_read_prompt_sections_names_a_file_it_cannot_read(tmp_path):
    path = tmp_path / "absent.txt"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: cannot read prompt file: "):
        read_prompt_sections(path)


# --------------------------------------------------------------------------
# offline engine

def test_offline_counts_and_provenance():
    templates = demo_seed_templates(3)  # 9 templates
    notes = generate_offline(templates, variants_per_template=4)
    assert len(notes) == 36
    assert all(n.note.provenance is Provenance.OFFLINE_GENERATED for n in notes)
    assert all(n.annotation_source is AnnotationSource.EMBEDDED for n in notes)
    assert len({n.note.note_id for n in notes}) == 36


def test_offline_byte_identical_under_seed():
    templates = demo_seed_templates(2)
    spec = PerturbationSpec(0.3, 0.3, 0.3, 0.3, 0.3, rng_seed=5)
    a = generate_offline(templates, 3, spec)
    b = generate_offline(templates, 3, spec)
    assert [note_to_obj(n) for n in a] == [note_to_obj(n) for n in b]
    c = generate_offline(templates, 3, PerturbationSpec(0.3, 0.3, 0.3, 0.3, 0.3, rng_seed=6))
    assert [note_to_obj(n) for n in a] != [note_to_obj(n) for n in c]


def test_offline_spans_are_valid():
    templates = demo_seed_templates(5)
    spec = PerturbationSpec(0.5, 0.5, 0.5, 0.5, 0.5, rng_seed=2)
    for note in generate_offline(templates, 3, spec):
        assert span_violations(note.note.text, list(note.spans)) == []


def test_clean_mode_generator_extractor_contract():
    templates = demo_seed_templates(6)
    for note in generate_offline(templates, 3, CLEAN):
        extracted = adjudicate(
            infer_status_context(extract_statements(note.note.text, "strict"))
        )
        assert extracted == note.record, note.note.text


def test_typo_rate_one_guarantees_a_typo():
    templates = demo_seed_templates(4)
    spec = PerturbationSpec(typo_rate=1.0, rng_seed=3)
    clean = {n.note.note_id: n for n in generate_offline(templates, 2, CLEAN)}
    for note in generate_offline(templates, 2, spec):
        # the same note rendered without perturbation differs in its diagnosis sentence
        assert note.note.text != clean[note.note.note_id].note.text


def test_typo_notes_still_extract():
    templates = demo_seed_templates(5)
    spec = PerturbationSpec(typo_rate=1.0, rng_seed=11)
    for note in generate_offline(templates, 2, spec):
        extracted = adjudicate(
            infer_status_context(extract_statements(note.note.text, "informal"))
        )
        assert extracted == note.record, note.note.text


def test_multi_diagnosis_rate_one_gives_two_candidates():
    templates = demo_seed_templates(4)
    spec = PerturbationSpec(multi_diagnosis_rate=1.0, rng_seed=13)
    for note in generate_offline(templates, 2, spec):
        statements = extract_statements(note.note.text, "informal")
        candidates = infer_status_context(statements)
        assert len(candidates) == 2, note.note.text


def test_a_secondary_diagnosis_leaves_the_gold_record_alone():
    # compose_note keeps the record it renders as gold even when it adds a
    # secondary "Dx:" sentence, because adjudication always picks the primary.
    for record in LEGAL_RECORDS:
        for seed in range(50):
            assert adjudicate([record, _secondary_record(record, random.Random(seed))]) == record
    templates = demo_seed_templates(5)
    spec = PerturbationSpec(multi_diagnosis_rate=1.0, rng_seed=29)
    notes = generate_offline(templates, 3, spec)
    assert all("Dx:" in n.note.text for n in notes)
    assert [n.record for n in notes] == [t.embedded_record for t in templates for _ in range(3)]


def test_distractor_rate_one_adds_unattached_extent():
    templates = [t for t in demo_seed_templates(4) if t.status_category is P]
    spec = PerturbationSpec(distractor_extent_rate=1.0, rng_seed=17)
    for note in generate_offline(templates, 2, spec):
        assert "Recession" in note.note.text
        extracted = adjudicate(
            infer_status_context(extract_statements(note.note.text, "informal"))
        )
        assert extracted.extent == note.record.extent


def test_anchor_variants_still_extract():
    templates = demo_seed_templates(4)
    spec = PerturbationSpec(anchor_variation_rate=1.0, rng_seed=19)
    for note in generate_offline(templates, 3, spec):
        extracted = adjudicate(
            infer_status_context(extract_statements(note.note.text, "informal"))
        )
        assert extracted == note.record, note.note.text


def test_informal_format_on_periodontitis_needs_informal_mode():
    templates = [t for t in demo_seed_templates(6) if t.status_category is P]
    spec = PerturbationSpec(informal_format_rate=1.0, rng_seed=23)
    strict_misses = 0
    for note in generate_offline(templates, 2, spec):
        informal = adjudicate(
            infer_status_context(extract_statements(note.note.text, "informal"))
        )
        assert informal.status is P
        assert informal.stage == note.record.stage
        assert informal.grade == note.record.grade
        strict = adjudicate(
            infer_status_context(extract_statements(note.note.text, "strict"))
        )
        if strict != note.record:
            strict_misses += 1
    assert strict_misses > 0  # informal phrasing defeats strict mode at least sometimes


def test_informal_periodontitis_without_an_extent_renders_stage_arabic():
    # `extent_roman` needs an extent; a record without one falls back to `stage_arabic`.
    record = DiagnosisRecord(P, Stage.II, Grade.B)
    spec = PerturbationSpec(informal_format_rate=1.0)
    for seed in range(200):
        text = compose_note(record, random.Random(seed), spec).note.text
        assert "D: Stage 2 B." in text, text


_ANCHORS = ("D:", "D-", "Diagnosis:", "Dx:", None)


def _informal_styles(record):
    """The informal styles `compose_note` may render a record in; None is the formal sentence."""
    if record.status is not P or record.stage is None or record.grade is None:
        return (None,)
    return (None, "extent_roman", "stage_arabic") if record.extent else (None, "stage_arabic")


def test_every_rendering_of_every_legal_record_reads_back():
    reads = extent_dropped = 0
    for record, anchor, secondary, seed in itertools.product(
        LEGAL_RECORDS, _ANCHORS, (False, True), range(4)
    ):
        for style, distractor in itertools.product(
            _informal_styles(record), (False,) if record.status is H else (False, True)
        ):
            rng = random.Random(seed)
            atoms = _diagnosis_atoms(record, anchor, style, distractor, rng)
            if secondary:
                atoms += _diagnosis_atoms(_secondary_record(record, rng), "Dx:", None, False, rng)
            text, spans = _render(atoms)
            got_spans, got = diagnose(text, "informal")
            reads += 1
            assert got_spans == spans, text
            if style == "stage_arabic" and record.extent is not None:
                # A known defect of the offline gold: this style renders no extent
                # word, yet the note's gold record keeps the template's extent.
                extent_dropped += 1
                assert got == DiagnosisRecord(P, record.stage, record.grade), text
            else:
                assert got == record, text
    assert (reads, extent_dropped) == (10_720, 1_920)


def test_rates_validated():
    with pytest.raises(ValueError):
        PerturbationSpec(typo_rate=1.5)


# --------------------------------------------------------------------------
# label QA

def test_clean_notes_pass_qa():
    templates = demo_seed_templates(3)
    for note in generate_offline(templates, 2, CLEAN):
        verdict = validate_labels(note)
        assert verdict.consistent, note.note.text


def test_qa_flags_stage_mismatch():
    templates = [t for t in demo_seed_templates(1) if t.status_category is P]
    note = generate_offline(templates, 1, CLEAN)[0]
    doctored = note.with_(
        record=DiagnosisRecord(P, Stage.II, note.record.grade, note.record.extent)
    )
    assert note.record.stage is Stage.I
    verdict = validate_labels(doctored)
    assert not verdict.consistent
    dims = {d.dimension for d in verdict.discrepancies}
    assert dims == {Dimension.STAGE}
    (d,) = verdict.discrepancies
    assert d.embedded is Stage.II and d.extracted is Stage.I


def test_qa_proposes_blank_for_unextractable_claim():
    templates = [t for t in demo_seed_templates(1) if t.status_category is H]
    note = generate_offline(templates, 1, CLEAN)[0]
    doctored = note.with_(
        record=DiagnosisRecord(
            H, subtype=Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS
        )
    )
    assert note.record.subtype is Subtype.INTACT_PERIODONTIUM
    verdict = validate_labels(doctored)
    assert not verdict.consistent
    (d,) = verdict.discrepancies
    assert d.dimension is Dimension.SUBTYPE
    assert d.extracted is Subtype.INTACT_PERIODONTIUM


def test_qa_requires_embedded_source():
    note = demo_seed_notes(1)[0]  # Gold source
    with pytest.raises(ValueError):
        validate_labels(note)
