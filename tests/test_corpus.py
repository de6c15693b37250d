import dataclasses
import itertools
import json
import os
import random
import stat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import calls_per, legal_records, oracle_note_from_obj
from perioparse import corpus, evaluation
from perioparse.corpus import (
    PARTITIONS,
    AnnotatedNote,
    AnnotationSource,
    CorpusFormatError,
    Note,
    PatientMeta,
    PredictionFileError,
    Provenance,
    cohort_filter,
    load_external_predictions,
    read_corpus,
    read_manifest,
    read_patient_meta,
    record_to_obj,
    split_corpus,
    write_corpus,
    write_manifest,
)
from perioparse.demo import demo_seed_templates
from perioparse.model import (
    LEGAL_RECORDS,
    VALUE_CLASSES,
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    Extent,
    Grade,
    GuidelineVersion,
    PeriodontalStatus,
    Stage,
    field_values,
)
from perioparse.synthesis import PERTURBATION_RATES, PerturbationSpec, generate_offline


def make_note(note_id, text="Routine visit.", site="site1"):
    return AnnotatedNote(note=Note(note_id, site, text))


# --------------------------------------------------------------------------
# cohort

def test_cohort_boundaries():
    assert cohort_filter(PatientMeta(16, 10, True, True)) is True
    assert cohort_filter(PatientMeta(15, 28, True, True)) is False
    assert cohort_filter(PatientMeta(40, 9, True, True)) is False
    assert cohort_filter(PatientMeta(40, 28, False, True)) is False
    assert cohort_filter(PatientMeta(40, 28, True, False)) is False


def test_cohort_is_monotone():
    # Improving any one criterion never flips eligible to ineligible.
    for age in (15, 16, 17, 80):
        for teeth in (9, 10, 11, 32):
            for rads in (False, True):
                for chart in (False, True):
                    here = cohort_filter(PatientMeta(age, teeth, rads, chart))
                    better = cohort_filter(PatientMeta(age + 1, min(teeth + 1, 32), True, True))
                    if here:
                        assert better


def test_patient_meta_invariants():
    with pytest.raises(ValueError):
        PatientMeta(-1, 20, True, True)
    with pytest.raises(ValueError):
        PatientMeta(30, 33, True, True)


# --------------------------------------------------------------------------
# corpus round trips

def test_round_trip_three_notes(tmp_path):
    record = DiagnosisRecord(PeriodontalStatus.PERIODONTITIS, stage=Stage.II)
    notes = [
        make_note("n-1", "D: Periodontitis Stage II."),
        AnnotatedNote(
            note=Note("n-2", "site2", "D: Periodontitis Stage II.", Provenance.OFFLINE_GENERATED),
            spans=(EntitySpan(Dimension.STAGE, Stage.II, 23, 25, "II"),),
            record=record,
            annotation_source=AnnotationSource.EMBEDDED,
            meta=PatientMeta(44, 28, True, True),
        ),
        make_note("n-3", "No diagnosis today."),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(notes, path)
    assert read_corpus(path) == notes


@settings(max_examples=200)
@given(text=st.text(min_size=0, max_size=200))
def test_round_trip_preserves_text_byte_exactly(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("corpus") / "one.jsonl"
    write_corpus([make_note("n-1", text)], path)
    assert read_corpus(path)[0].note.text == text


def test_write_corpus_reads_its_notes_once(tmp_path):
    notes = [make_note("n-1"), make_note("n-2", "D: Stage II.")]
    path = tmp_path / "once.jsonl"
    write_corpus(iter(notes), path)
    assert read_corpus(path) == notes


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(
        {
            "note_id": "a",
            "site_id": "s",
            "text": "x",
            "provenance": "Real",
            "annotation_source": "Gold",
            "spans": [],
            "record": None,
        }
    )
    path.write_text(good + "\n" + '{"note_id": "b", "truncated...\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=":2"):
        read_corpus(path)


_GOOD = json.dumps({
    "note_id": "a", "site_id": "s", "text": "x", "provenance": "Real", "annotation_source": "Gold",
})


@pytest.mark.parametrize(
    "line",
    [_GOOD + "\n", _GOOD, _GOOD + " \r\n", " " + _GOOD + "\n", _GOOD + "x\n", _GOOD + "x",
     _GOOD + "\x0b\n", "\ufeff" + _GOOD + "\n", _GOOD + "{}\n"],
    ids=["newline", "last-line", "crlf", "leading-space", "extra-data", "extra-data-last-line",
         "vertical-tab", "byte-order-mark", "two-objects"],
)
def test_a_line_is_json_as_json_loads_reads_it(tmp_path, line):
    path = tmp_path / "c.jsonl"
    path.write_bytes(line.encode("utf-8"))
    try:
        obj = json.loads(line)
    except ValueError as exc:
        with pytest.raises(CorpusFormatError) as info:
            read_corpus(path)
        assert str(info.value) == f"{path}:1: malformed record: {exc}"
    else:
        assert read_corpus(path) == [corpus.note_from_obj(obj)]


_NOT_OBJECTS = [
    pytest.param("5", "5", id="int"),
    pytest.param("[1]", "[1]", id="list"),
    pytest.param('"x"', "'x'", id="str"),
    pytest.param("null", "None", id="null"),
]


@pytest.mark.parametrize("line, shown", _NOT_OBJECTS)
@pytest.mark.parametrize(
    "read, what",
    [
        (read_corpus, "record"),
        (read_patient_meta, "meta record"),
        (lambda path: load_external_predictions(path, []), "prediction record"),
    ],
    ids=["corpus", "meta", "prediction"],
)
def test_a_line_that_is_not_a_json_object_is_malformed(tmp_path, read, what, line, shown):
    path = tmp_path / "in.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        read(path)
    assert str(info.value) == f"{path}:1: malformed {what}: line must be dict, got {shown}"


@pytest.mark.parametrize("text, shown", _NOT_OBJECTS)
def test_a_manifest_that_is_not_a_json_object_is_malformed(tmp_path, text, shown):
    path = tmp_path / "m.json"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        read_manifest(path)
    assert str(info.value) == f"{path}: malformed manifest: manifest must be dict, got {shown}"


# Nested deeper than the JSON decoder recurses. The text after the location
# prefix is CPython's wording, which differs between versions.
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "read, what",
    [
        (read_corpus, "record"),
        (read_patient_meta, "meta record"),
        (lambda path: load_external_predictions(path, []), "prediction record"),
    ],
    ids=["corpus", "meta", "prediction"],
)
def test_a_line_nested_too_deeply_is_malformed(tmp_path, read, what):
    path = tmp_path / "deep.jsonl"
    path.write_text(_DEEP + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}:1: malformed {what}: ")


def test_a_manifest_nested_too_deeply_is_malformed(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(f'{{"seed": 1, "ratios": {_DEEP}, "membership": {{}}}}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        read_manifest(path)
    assert str(info.value).startswith(f"{path}: malformed manifest: ")


def test_duplicate_note_id_is_named(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_corpus([make_note("n-7"), make_note("n-8")], path)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[0] + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="n-7"):
        read_corpus(path)


def test_write_and_read_name_the_same_repeated_id(tmp_path):
    # n-8 repeats first (third line), though n-7 occurs first.
    notes = [make_note("n-7"), make_note("n-8"), make_note("n-8"), make_note("n-7")]
    with pytest.raises(CorpusFormatError, match="duplicate note_id 'n-8' in corpus"):
        write_corpus(notes, tmp_path / "never.jsonl")
    assert not (tmp_path / "never.jsonl").exists()
    path = tmp_path / "dup.jsonl"
    write_corpus(notes[:2], path)
    a, b = path.read_text().splitlines()
    path.write_text("\n".join([a, b, b, a]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"{path}:3: duplicate note_id 'n-8'"):
        read_corpus(path)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_get_the_mode_the_umask_allows(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_corpus([make_note("n-1")], tmp_path / "c.jsonl")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "c.jsonl").stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


def test_out_of_bounds_span_rejected_on_read(tmp_path):
    path = tmp_path / "span.jsonl"
    obj = {
        "note_id": "a",
        "site_id": "s",
        "text": "short",
        "provenance": "Real",
        "annotation_source": "Gold",
        "spans": [{"dimension": "Stage", "value": "II", "start": 2, "end": 99}],
        "record": None,
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=":1"):
        read_corpus(path)


def test_invalid_record_rejected_on_read(tmp_path):
    path = tmp_path / "rec.jsonl"
    obj = {
        "note_id": "a",
        "site_id": "s",
        "text": "x",
        "provenance": "Real",
        "annotation_source": "Gold",
        "spans": [],
        "record": {"status": "Gingivitis", "stage": "II"},
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="stage not permitted"):
        read_corpus(path)


def _decode_all():
    line = {
        "note_id": "a", "site_id": "s", "text": "x",
        "provenance": "Real", "annotation_source": "Gold",
    }
    records = [
        corpus.note_from_obj({**line, "record": record_to_obj(r)}).record for r in legal_records()
    ]
    spans = [
        {"dimension": dim.value, "value": v.value, "start": i, "end": i + 1}
        for dim, cls in VALUE_CLASSES.items()
        for i, v in enumerate(cls)
    ]
    return records, [corpus._spans_from_objs({"spans": [span]}, "xxxx")[0] for span in spans]


def test_lookup_tables_decode_like_the_field_by_field_path(monkeypatch):
    records, spans = _decode_all()
    assert len(set(records)) == 76 and set(corpus._LEGAL_RECORDS.values()) == set(records)
    assert all(r is corpus._LEGAL_RECORDS[tuple(record_to_obj(r).values())] for r in records)
    assert len(spans) == len(corpus._SPAN_LABELS)
    monkeypatch.setattr(corpus, "_LEGAL_RECORDS", {})
    monkeypatch.setattr(corpus, "_SPAN_LABELS", {})
    assert _decode_all() == (records, spans)


_META = {
    "age": 44, "natural_teeth_count": 28,
    "has_full_mouth_radiographs": True, "has_periodontal_charting": True,
}


@pytest.mark.parametrize(
    "record, span, extra, expected",
    [
        ({"status": "Health", "stage": "III"}, None, {}, "stage not permitted for health"),
        ({"status": "Periodontitis", "stage": "V"}, None, {}, "'V' is not a valid Stage"),
        ({"grade": "B"}, None, {}, "'status'"),
        ({"status": "Health", "subtype": ["x"]}, None, {}, "['x'] is not a valid Subtype"),
        (None, {"dimension": "Stage", "value": "V"}, {}, "'V' is not a valid Stage"),
        (None, {"dimension": ["Stage"], "value": "I"}, {}, "['Stage'] is not a valid Dimension"),
        # Read as records without that field, these would lose it unseen.
        ({"status": "Periodontitis", "stag": "III", "grade": "B"}, None, {},
         "unknown record field 'stag'"),
        ({"status": "Health", "Subtype": "Intact Periodontium"}, None, {},
         "unknown record field 'Subtype'"),
        # So would these lines: `recrod` would read as a note with no record.
        (None, None, {"recrod": {"status": "Health"}}, "unknown field 'recrod'"),
        (None, None, {"meta": {**_META, "agee": 3}}, "unknown meta field 'agee'"),
        # The key rules come after every other rule of the line.
        (None, {"dimension": "Stage", "value": "V"}, {"recrod": None}, "'V' is not a valid Stage"),
        (None, None, {"meta": {**_META, "agee": 3}, "guideline_version": "2018"},
         "'2018' is not a valid GuidelineVersion"),
    ],
    ids=[
        "health-with-stage", "unknown-stage", "missing-status", "unhashable-subtype",
        "unknown-span-value", "unhashable-span-dimension", "misspelled-stage",
        "capitalized-subtype", "misspelled-record", "misspelled-meta-age",
        "span-before-key", "guideline-before-meta-key",
    ],
)
def test_decode_error_text_is_pinned(tmp_path, record, span, extra, expected):
    path = tmp_path / "bad.jsonl"
    obj = {
        "note_id": "a",
        "site_id": "s",
        "text": "x",
        "provenance": "Real",
        "annotation_source": "Gold",
        "spans": [] if span is None else [{**span, "start": 0, "end": 1}],
        "record": record,
        **extra,
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        read_corpus(path)
    assert str(info.value) == f"{path}:1: malformed record: {expected}"


def test_codec_and_scorer_spell_a_record_through_field_values():
    illegal = DiagnosisRecord(PeriodontalStatus.GINGIVITIS, stage=Stage.I)
    for r in (*LEGAL_RECORDS, illegal):
        values = tuple(record_to_obj(r).values())
        assert values == field_values(r)
        assert evaluation._labels(r) == tuple(evaluation.NA if v is None else v for v in values)
        if r is not illegal:
            assert corpus._LEGAL_RECORDS[field_values(r)] is r
    assert evaluation._labels(None) == (evaluation.NA,) * 5
    assert field_values(
        DiagnosisRecord(PeriodontalStatus.PERIODONTITIS, Stage.III, Grade.B, Extent.GENERALIZED)
    ) == ("Periodontitis", "III", "B", "Generalized", None)
    assert field_values(illegal) == ("Gingivitis", "I", None, None, None)


# --------------------------------------------------------------------------
# splitting

def test_split_450_notes_gives_360_45_45():
    notes = [make_note(f"n-{i}") for i in range(450)]
    manifest = split_corpus(notes, seed=7)
    assert manifest.sizes() == (360, 45, 45)


def test_split_10_notes_gives_8_1_1():
    notes = [make_note(f"n-{i}") for i in range(10)]
    assert split_corpus(notes, seed=0).sizes() == (8, 1, 1)


def test_split_deterministic_and_seed_sensitive():
    notes = [make_note(f"n-{i}") for i in range(100)]
    a = split_corpus(notes, seed=3)
    b = split_corpus(notes, seed=3)
    c = split_corpus(notes, seed=4)
    assert a == b
    assert a.membership != c.membership


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=3, max_value=1000), seed=st.integers(0, 2**31))
def test_split_disjoint_and_covering(n, seed):
    notes = [make_note(f"n-{i}") for i in range(n)]
    manifest = split_corpus(notes, seed=seed)
    assert set(manifest.membership) == {f"n-{i}" for i in range(n)}
    train, val, test = manifest.sizes()
    assert train + val + test == n
    assert val == n // 10 and test == n // 10


@settings(max_examples=100, deadline=None)
@given(weights=st.tuples(*[st.integers(1, 40)] * 3), n=st.integers(min_value=3, max_value=1000))
@example(weights=(70, 1, 29), n=100)  # 0.29 * 100 == 28.999999999999996
def test_split_sizes_of_whole_number_weights(weights, n):
    a, b, c = weights
    ratios = tuple(w / (a + b + c) for w in weights)  # as `split --ratios a:b:c` makes them
    manifest = split_corpus([make_note(f"n-{i}") for i in range(n)], ratios=ratios, seed=0)
    assert manifest.sizes()[1:] == (n * b // (a + b + c), n * c // (a + b + c))


@settings(max_examples=100, deadline=None)
@given(
    weights=st.tuples(*[st.integers(1, 40)] * 3),
    n=st.integers(min_value=3, max_value=1000),
    seed=st.integers(0, 2**31),
)
def test_split_membership_against_reference(weights, n, seed):
    total = sum(weights)
    ratios = tuple(w / total for w in weights)
    ids = [f"n-{i}" for i in range(n)]
    manifest = split_corpus([make_note(nid) for nid in ids], ratios=ratios, seed=seed)
    # Reference: shuffle the ids, then train, validation and test take consecutive runs.
    random.Random(seed).shuffle(ids)
    n_val, n_test = n * weights[1] // total, n * weights[2] // total
    n_train = n - n_val - n_test
    expected = (
        [(nid, "train") for nid in ids[:n_train]]
        + [(nid, "validation") for nid in ids[n_train : n_train + n_val]]
        + [(nid, "test") for nid in ids[n_train + n_val :]]
    )
    assert list(manifest.membership.items()) == expected
    parts = list(manifest.membership.values())
    assert manifest.sizes() == tuple(parts.count(p) for p in PARTITIONS)


def test_split_errors():
    with pytest.raises(ValueError):
        split_corpus([make_note("a"), make_note("b")], seed=0)
    notes = [make_note(f"n-{i}") for i in range(10)]
    with pytest.raises(ValueError):
        split_corpus(notes, ratios=(0.9, 0.1, 0.0), seed=0)
    with pytest.raises(ValueError):
        split_corpus(notes, ratios=(0.5, 0.3, 0.3), seed=0)


def test_split_names_the_repeated_id():
    notes = [make_note(f"n-{i}") for i in range(10)] + [make_note("n-4")]
    with pytest.raises(ValueError, match="duplicate note_id 'n-4' in corpus"):
        split_corpus(notes, seed=0)


def test_manifest_round_trip_and_byte_identical(tmp_path):
    notes = [make_note(f"n-{i}") for i in range(25)]
    manifest = split_corpus(notes, seed=11)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_manifest(manifest, p1)
    write_manifest(split_corpus(notes, seed=11), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert read_manifest(p1) == manifest


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("seed", 7.9, "seed must be int, got 7.9"),
        ("seed", "7", "seed must be int, got '7'"),
        ("seed", True, "seed must be int, got True"),
        ("ratios", ["0.5", True], "ratios must be 3 numbers, got ['0.5', True]"),
        ("ratios", [0.8, 0.2], "ratios must be 3 numbers, got [0.8, 0.2]"),
        ("ratios", [0.8, 0.1, "0.1"], "ratios must be 3 numbers, got [0.8, 0.1, '0.1']"),
        ("ratios", [0.8, 0.1, False], "ratios must be 3 numbers, got [0.8, 0.1, False]"),
        ("ratios", "0.8", "ratios must be list, got '0.8'"),
        ("ratios", [0.5, 0.5, 0.5], "ratios must sum to 1, got [0.5, 0.5, 0.5]"),
        ("ratios", [1.2, -0.1, -0.1], "ratios must all be positive, got [1.2, -0.1, -0.1]"),
        ("membership", [["n-0", "train"]], "membership must be dict, got [['n-0', 'train']]"),
        ("membership", {"n-0": ["train"]}, "unknown partitions [['train']]"),
        ("membership", {"n-0": 5, "n-1": "x"}, "unknown partitions ['x', 5]"),
    ],
)
def test_manifest_numbers_are_checked(tmp_path, field, value, reason):
    path = tmp_path / "m.json"
    write_manifest(split_corpus([make_note(f"n-{i}") for i in range(5)], seed=3), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    with pytest.raises(CorpusFormatError) as info:
        read_manifest(path)
    assert str(info.value) == f"{path}: malformed manifest: {reason}"


def test_escaped_surrogate_pair_is_read(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus([make_note("n-1", "Smile \U0001f600.")], path)
    text = path.read_text(encoding="utf-8").replace("\U0001f600", "\\ud83d\\ude00")
    path.write_text(text, encoding="utf-8")
    assert read_corpus(path)[0].note.text == "Smile \U0001f600."


def test_meta_lines_hold_note_id_and_the_four_fields(tmp_path):
    path = tmp_path / "meta.jsonl"
    path.write_text(json.dumps({"note_id": "n-1", **_META}) + "\n", encoding="utf-8")
    assert read_patient_meta(path) == {"n-1": PatientMeta(44, 28, True, True)}
    path.write_text(json.dumps({"note_id": "n-1", **_META, "agee": 3}) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        read_patient_meta(path)
    assert str(info.value) == f"{path}:1: malformed meta record: unknown meta field 'agee'"


@pytest.mark.parametrize(
    "read, what, good",
    [
        (read_corpus, "record", _GOOD),
        (read_patient_meta, "meta record", json.dumps({"note_id": "a", **_META})),
        (lambda path: load_external_predictions(path, [make_note("a", "x")]),
         "prediction record", '{"note_id": "a", "spans": []}'),
    ],
    ids=["corpus", "meta", "prediction"],
)
def test_blank_lines_are_skipped_and_still_counted(tmp_path, read, what, good):
    path = tmp_path / "in.jsonl"
    path.write_text(f"\n \t\n{good}\n\r\n", encoding="utf-8")
    assert len(read(path)) == 1
    path.write_text(f"{good}\n\n   \n{{bad\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}:4: malformed {what}: ")


def test_a_prediction_line_may_hold_any_corpus_line_key(tmp_path):
    corpus_notes = [make_note("n-1", "D: Stage II.")]
    path = tmp_path / "pred.jsonl"
    span = {"dimension": "Stage", "value": "II", "start": 9, "end": 11}
    line = {"note_id": "n-1", "spans": [span], "record": None, "meta": {"agee": 3}}
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    assert load_external_predictions(path, corpus_notes) == {
        "n-1": (EntitySpan(Dimension.STAGE, Stage.II, 9, 11, "II"),)
    }
    # Any other key is malformed: a misspelled `spans` is not a note with no predictions.
    for key in ("recrod", "spnas"):
        path.write_text(json.dumps({"note_id": "n-1", key: [span]}) + "\n", encoding="utf-8")
        with pytest.raises(PredictionFileError) as info:
            load_external_predictions(path, corpus_notes)
        assert str(info.value) == (
            f"{path}:1: malformed prediction record: note 'n-1': unknown field {key!r}"
        )


def test_slotted_notes_keep_their_dataclass_contracts():
    note = Note("n-1", "site1", "D: Stage II.", Provenance.OFFLINE_GENERATED)
    twin = Note("n-1", "site1", "D: Stage II.", Provenance.OFFLINE_GENERATED)
    other = dataclasses.replace(note, site_id="site2")
    assert note == twin and hash(note) == hash(twin) and len({note, twin, other}) == 2
    assert other == Note("n-1", "site2", "D: Stage II.", Provenance.OFFLINE_GENERATED)
    assert Note("n-1", "s", "x") == Note(
        note_id="n-1", site_id="s", text="x", provenance=Provenance.REAL
    )
    with pytest.raises(ValueError, match="note_id must be non-empty"):
        dataclasses.replace(note, note_id="")
    assert [f.name for f in dataclasses.fields(Note)] == [
        "note_id", "site_id", "text", "provenance",
    ]
    assert [f.name for f in dataclasses.fields(AnnotatedNote)] == [
        "note", "spans", "record", "annotation_source", "meta", "guideline_version", "qa",
    ]

    record = DiagnosisRecord(PeriodontalStatus.PERIODONTITIS, stage=Stage.II)
    annotated = AnnotatedNote(note, record=record, qa={"passed": True})
    assert annotated.with_() == annotated
    assert annotated.with_(record=None) == dataclasses.replace(annotated, record=None)
    assert annotated.with_(record=None) == AnnotatedNote(note, qa={"passed": True})
    assert annotated.with_(annotation_source=AnnotationSource.PREDICTED).record is record
    with pytest.raises(TypeError):
        annotated.with_(recrod=None)
    with pytest.raises(TypeError):
        dataclasses.replace(annotated, recrod=None)

    for obj, name in ((note, "text"), (annotated, "record")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        # A name that is not a field has no slot; which error says so varies by version.
        with pytest.raises((TypeError, AttributeError)):
            setattr(obj, "extra", None)
        assert not hasattr(obj, "__dict__")


def test_codec_calls_per_line_are_bounded(tmp_path):
    # 450 offline notes under corpus-short's perturbation rates. Measured at
    # 24.4 calls per line to read and 22.4 to write (70.8 and 37.2 when each
    # line was decoded field by field into plain dataclasses).
    rates = dict.fromkeys(PERTURBATION_RATES, 0.15)
    notes = generate_offline(demo_seed_templates(15), 10, PerturbationSpec(rng_seed=1, **rates))
    path = tmp_path / "corpus.jsonl"
    assert calls_per(write_corpus, notes, path, per=len(notes)) <= 28
    assert calls_per(read_corpus, path, per=len(notes)) <= 30
    assert read_corpus(path) == notes


_LABELS = sorted(corpus._SPAN_LABELS)
_RECORD_OBJS = [record_to_obj(r) for r in LEGAL_RECORDS]


@st.composite
def _corpus_lines(draw):
    """A valid corpus line: spans in order, and each optional key absent, null or set."""
    text = draw(st.text(alphabet="ab IIé\U0001f600", max_size=30))
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=8)))
    spans = []
    for start, end in zip(cuts[::2], cuts[1::2]):
        dimension, value = draw(st.sampled_from(_LABELS))
        span = {"dimension": dimension, "value": value, "start": start, "end": end}
        if draw(st.booleans()):
            span["raw_text"] = text[start:end]
        spans.append(span)
    obj = {
        "note_id": draw(st.sampled_from(["n-1", "x"])),
        "site_id": draw(st.sampled_from(["site1", ""])),
        "text": text,
        "provenance": draw(st.sampled_from([p.value for p in Provenance])),
        "annotation_source": draw(st.sampled_from([s.value for s in AnnotationSource])),
    }
    optional = {
        "spans": st.just(spans),
        "record": st.none() | st.sampled_from(_RECORD_OBJS),
        "meta": st.none() | st.just(dict(_META)),
        "guideline_version": st.none() | st.sampled_from([g.value for g in GuidelineVersion]),
        "qa": st.none() | st.just({"passed": False}),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            obj[key] = draw(values)
    return obj


_MISSING = object()


def _change(update):
    """A mutation that sets the line's keys to `update`'s values; _MISSING drops the key."""
    return lambda line: {k: v for k, v in {**line, **update}.items() if v is not _MISSING}


def _span_change(i, update):
    """A mutation that applies `update` as `_change` does to the i-th span, if the line has one."""
    def mutate(line):
        spans = line.get("spans")
        if type(spans) is not list or len(spans) <= i or type(spans[i]) is not dict:
            return line
        return {**line, "spans": [*spans[:i], _change(update)(spans[i]), *spans[i + 1:]]}
    return mutate


def _spans_change(edit):
    """A mutation that replaces the line's span list, if it has one, with `edit` of it."""
    def mutate(line):
        spans = line.get("spans", [])
        return {**line, "spans": edit(spans)} if type(spans) is list else line
    return mutate


def _mutations(obj):
    """Mutations of a valid line: each either breaks a rule or keeps the line valid.

    Each is a function of a line, so that two can be applied one after the other.
    """
    yield "wrong-type-text", _change({"text": 5})
    yield "wrong-type-site", _change({"site_id": None})
    yield "wrong-type-spans", _change({"spans": {}})
    yield "wrong-type-record", _change({"record": []})
    yield "wrong-type-meta", _change({"meta": "x"})
    yield "wrong-type-qa", _change({"qa": [1]})
    yield "wrong-type-guideline", _change({"guideline_version": 2018})
    yield "empty-note-id", _change({"note_id": ""})
    yield "unknown-provenance", _change({"provenance": "real"})
    yield "unhashable-provenance", _change({"provenance": ["Real"]})
    yield "unhashable-source", _change({"annotation_source": {"Gold": 1}})
    yield "unknown-guideline", _change({"guideline_version": "2018"})
    yield "unhashable-guideline", _change({"guideline_version": ["Legacy"]})
    yield "unknown-record-value", _change({"record": {"status": "Periodontitis", "stage": "V"}})
    yield "illegal-record", _change({"record": {"status": "Health", "stage": "I"}})
    yield "unhashable-record-value", _change({"record": {"status": ["Health"]}})
    yield "unknown-record-key", _change({"record": {"status": "Health", "stag": "I"}})
    yield "unknown-key", _change({"recrod": None})
    yield "unknown-meta-key", _change({"meta": {**_META, "agee": 3}})
    yield "meta-bool-age", _change({"meta": {**_META, "age": True}})
    yield "spans-reversed", _spans_change(lambda spans: spans[::-1])
    yield "span-not-object", _spans_change(lambda spans: [*spans, ["Stage"]])
    for key in ("note_id", "site_id", "text", "provenance", "annotation_source"):
        yield f"missing-{key}", _change({key: _MISSING})
    text_len = len(obj["text"])
    for i, span in enumerate(obj.get("spans", [])):
        for name, update in (
            ("bool-start", {"start": bool(span["start"])}),
            ("bool-end", {"end": True}),
            ("float-end", {"end": float(span["end"])}),
            ("negative-start", {"start": -1}),
            ("empty-span", {"end": span["start"]}),
            ("out-of-bounds", {"end": text_len + 1}),
            ("raw-text-mismatch", {"raw_text": span.get("raw_text", "") + "x"}),
            ("raw-text-not-str", {"raw_text": 5}),
            ("unknown-dimension", {"dimension": "stage"}),
            ("unknown-value", {"value": "V"}),
            ("unhashable-dimension", {"dimension": ["Stage"]}),
            ("unhashable-value", {"value": {"v": 1}}),
            *(
                (f"span-missing-{key}", {key: _MISSING})
                for key in ("start", "end", "dimension", "value")
            ),
        ):
            yield f"{name}-{i}", _span_change(i, update)
        overlap = {**span, "end": text_len}
        yield f"overlap-{i}", _spans_change(lambda spans, overlap=overlap: [*spans, overlap])


def _outcome(decode, obj):
    try:
        return decode(obj)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(obj=_corpus_lines())
def test_corpus_line_decode_equals_the_field_by_field_oracle(obj):
    """The first rule broken wins: single and paired faults raise what the oracle raises."""
    assert corpus.note_from_obj(json.loads(json.dumps(obj))) == oracle_note_from_obj(obj)
    mutations = list(_mutations(obj))
    for name, mutate in mutations:
        mutated = mutate(obj)
        assert _outcome(corpus.note_from_obj, mutated) == _outcome(
            oracle_note_from_obj, mutated
        ), name
    for (first, mutate_first), (second, mutate_second) in itertools.permutations(mutations, 2):
        mutated = mutate_second(mutate_first(obj))
        assert _outcome(corpus.note_from_obj, mutated) == _outcome(
            oracle_note_from_obj, mutated
        ), (first, second)
