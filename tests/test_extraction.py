import dataclasses
import json
import random
import string
import time
import tracemalloc
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import calls_per
from perioparse import extraction
from perioparse.corpus import AnnotatedNote, Note, PredictionFileError, load_external_predictions
from perioparse.demo import demo_seed_templates
from perioparse.extraction import (
    EXTENT_VOCAB,
    GRAMMAR_WORDS,
    MODES,
    STATUS_VOCAB,
    diagnose,
    extract_entities,
    extract_statements,
    group_statements,
    reconstruct,
    tokenize,
    within_one_edit,
)
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
    span_violations,
)
from perioparse.synthesis import PERTURBATION_RATES, PerturbationSpec, generate_offline

P, G = PeriodontalStatus.PERIODONTITIS, PeriodontalStatus.GINGIVITIS


def spans_of(text, mode="strict"):
    return [(s.dimension, s.value, s.raw_text) for s in extract_entities(text, mode)]


# --------------------------------------------------------------------------
# tokenizer

def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_offsets():
    tokens = tokenize("Stage I Grade A")
    assert [(t.text, t.start, t.end) for t in tokens] == [
        ("Stage", 0, 5),
        ("I", 6, 7),
        ("Grade", 8, 13),
        ("A", 14, 15),
    ]


def test_tokenize_punctuation_and_round_trip():
    text = "D: Localized"
    tokens = tokenize(text)
    assert [(t.text, t.start, t.end) for t in tokens] == [
        ("D", 0, 1),
        (":", 1, 2),
        ("Localized", 3, 12),
    ]
    assert reconstruct(text, tokens) == text


@settings(max_examples=500, deadline=None)
@given(text=st.text(max_size=120))
def test_tokenizer_round_trip_property(text):
    tokens = tokenize(text)
    assert reconstruct(text, tokens) == text
    for tok in tokens:
        assert text[tok.start : tok.end] == tok.text


def test_no_character_in_two_tokens():
    tokens = tokenize("a,b  c..d e")
    covered = []
    for t in tokens:
        covered.extend(range(t.start, t.end))
    assert len(covered) == len(set(covered))


# --------------------------------------------------------------------------
# grammar fixtures

def test_recession_distractor_absorbs_extent():
    text = "D: Localized Periodontitis Stage I Grade A with Generalized Recession"
    assert spans_of(text) == [
        (Dimension.EXTENT, Extent.LOCALIZED, "Localized"),
        (Dimension.STATUS, P, "Periodontitis"),
        (Dimension.STAGE, Stage.I, "I"),
        (Dimension.GRADE, Grade.A, "A"),
    ]


_E, _ST, _SG, _GR, _SUB = (
    Dimension.EXTENT, Dimension.STATUS, Dimension.STAGE, Dimension.GRADE, Dimension.SUBTYPE
)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "text, statements",
    [
        (
            "D: Generalized chronic periodontitis Stage II",
            [[(_E, "Generalized"), (_ST, "periodontitis"), (_SG, "II")]],
        ),
        ("D: Localized Generalized Periodontitis", [[(_E, "Generalized"), (_ST, "Periodontitis")]]),
        ("D: Generalized intact periodontium", [[(_SUB, "intact periodontium")]]),
        (
            "D: Periodontitis Stage II Generalized Stage III Grade B",
            [
                [(_ST, "Periodontitis"), (_SG, "II")],
                [(_E, "Generalized"), (_SG, "III"), (_GR, "B")],
            ],
        ),
        ("Dx: Generalized Dx: Periodontitis", [[(_ST, "Periodontitis")]]),
        ("D: Generalized, Periodontitis", [[(_E, "Generalized"), (_ST, "Periodontitis")]]),
        ("D: Generalized Recession", []),
        ("D: Periodontitis B", [[(_ST, "Periodontitis")]]),
        ("D: Generalized mild Grade B", [[(_E, "Generalized"), (_GR, "B")]]),
        ("D: Generalized Grade Periodontitis", [[(_ST, "Periodontitis")]]),
        ("D: Generalized Stage Grade B", [[(_GR, "B")]]),
        # A later anchor in the sentence: read through, split by grouping.
        ("D: Periodontitis Stage Dx: III Grade B", [[(_ST, "Periodontitis")], [(_GR, "B")]]),
        ("D: Generalized Dx: Periodontitis", [[(_ST, "Periodontitis")]]),
        ("D: reduced periodontium Dx: stable periodontitis", []),
        ("D: Periodontitis III Diagnosys: B", [[(_ST, "Periodontitis")]]),
        ("D: Generalized III Dx: B", []),
        ("Dx: Stage II D- Grade C", [[(_SG, "II")], [(_GR, "C")]]),
        ("Periodontitis Stage III D: Grade B", [[(_GR, "B")]]),
    ],
    ids=[
        "skips-adjective", "next-word-only", "subtype-is-no-head", "joins-second-statement",
        "region-ends-extent", "skips-punctuation", "unrelated-noun", "bare-letter-needs-stage",
        "skips-own-marker", "other-marker-is-no-gap", "one-marker-only",
        "anchor-after-marker", "anchor-ends-extent", "anchor-ends-subtype",
        "typo-anchor-after-numeral", "anchor-after-bare-numeral", "dash-anchor",
        "text-before-first-anchor",
    ],
)
def test_statement_grouping_and_extent_heads(text, statements, mode):
    got = [[(s.dimension, s.raw_text) for s in st.spans] for st in extract_statements(text, mode)]
    assert got == statements


def test_sentence_initial_diagnosis():
    text = "Generalized Stage 3 Grade B"
    assert spans_of(text) == [
        (Dimension.EXTENT, Extent.GENERALIZED, "Generalized"),
        (Dimension.STAGE, Stage.III, "3"),
        (Dimension.GRADE, Grade.B, "B"),
    ]


def test_informal_bare_roman_and_letter():
    text = "Generalized III B"
    assert spans_of(text, "strict") == []
    assert spans_of(text, "informal") == [
        (Dimension.EXTENT, Extent.GENERALIZED, "Generalized"),
        (Dimension.STAGE, Stage.III, "III"),
        (Dimension.GRADE, Grade.B, "B"),
    ]


def test_informal_stage_arabic_bare_grade():
    assert spans_of("D: Stage 3 B", "informal") == [
        (Dimension.STAGE, Stage.III, "3"),
        (Dimension.GRADE, Grade.B, "B"),
    ]
    assert spans_of("D: Stage 3 B", "strict") == [(Dimension.STAGE, Stage.III, "3")]


def test_hedged_statement_still_yields_spans():
    statements = extract_statements(
        "Diagnosis: Stage III Grade B but to be confirmed with radiographs"
    )
    assert len(statements) == 1
    assert statements[0].hedged is True
    assert [(s.dimension, s.value) for s in statements[0].spans] == [
        (Dimension.STAGE, Stage.III),
        (Dimension.GRADE, Grade.B),
    ]


def test_unhedged_statement_not_flagged():
    statements = extract_statements("D: Periodontitis Stage II Grade A.")
    assert statements[0].hedged is False


@pytest.mark.parametrize(
    "cue, hedged",
    [
        ("unlikely", False),
        ("improbable", False),
        ("likely", True),
        ("probable", True),
        ("R/O", True),
    ],
)
def test_hedge_cues_match_whole_words(cue, hedged):
    statements = extract_statements(f"D: Periodontitis {cue}, Stage II Grade A.")
    assert [s.hedged for s in statements] == [hedged]


def test_empty_and_unparseable_text():
    assert extract_entities("") == []
    assert extract_entities("Patient brushing well, no findings today.") == []


def test_multi_diagnosis_two_statements():
    text = "D: Localized Periodontitis Stage I Grade A and Generalized Periodontitis Stage II Grade B"
    statements = extract_statements(text)
    assert len(statements) == 2
    first, second = statements
    assert {(s.dimension, s.value) for s in first.spans} == {
        (Dimension.STATUS, P),
        (Dimension.STAGE, Stage.I),
        (Dimension.GRADE, Grade.A),
        (Dimension.EXTENT, Extent.LOCALIZED),
    }
    assert {(s.dimension, s.value) for s in second.spans} == {
        (Dimension.STATUS, P),
        (Dimension.STAGE, Stage.II),
        (Dimension.GRADE, Grade.B),
        (Dimension.EXTENT, Extent.GENERALIZED),
    }


def test_subtype_phrases():
    assert (Dimension.SUBTYPE, Subtype.INTACT_PERIODONTIUM, "intact periodontium") in spans_of(
        "D: Gingival health on an intact periodontium."
    )
    spans = spans_of("D: Gingivitis on a reduced periodontium with stable periodontitis.")
    assert (Dimension.STATUS, G, "Gingivitis") in spans
    assert any(
        d is Dimension.SUBTYPE and v is Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS
        for d, v, _ in spans
    )
    # the "periodontitis" inside the subtype phrase is not a status
    assert all(v is not P for d, v, _ in spans if d is Dimension.STATUS)


def test_typo_tolerance_in_entity_words():
    spans = spans_of("D: Generalzed Periodontits Stge III Grade B.")
    assert (Dimension.EXTENT, Extent.GENERALIZED, "Generalzed") in spans
    assert (Dimension.STATUS, P, "Periodontits") in spans
    assert (Dimension.STAGE, Stage.III, "III") in spans


def test_anchor_variants():
    for anchor in ("D:", "D-", "Dx:", "Diagnosis:"):
        spans = spans_of(f"{anchor} Periodontitis Stage II Grade A.")
        assert (Dimension.STATUS, P, "Periodontitis") in spans, anchor


def test_spans_satisfy_invariants_and_do_not_overlap():
    text = (
        "Exam completed. D: Localized Periodontitis Stage IV Grade C with Generalized "
        "Recession. Dx: Generalized Gingivitis on a reduced periodontium, non-periodontitis."
    )
    spans = extract_entities(text, "informal")
    assert spans
    assert span_violations(text, spans) == []


def test_appending_unrelated_text_is_harmless():
    base = "D: Localized Periodontitis Stage I Grade A."
    extended = base + " Patient was advised to continue current home care."
    assert spans_of(base, "informal") == spans_of(extended, "informal")


def test_strict_is_subset_of_informal():
    texts = [
        "D: Localized Periodontitis Stage I Grade A with Generalized Recession",
        "Generalized III B",
        "D: Stage 3 B",
        "Generalized Stage 3 Grade B",
        "D: Gingival health on an intact periodontium.",
    ]
    for text in texts:
        strict = {(s.dimension, s.start, s.end, s.value) for s in extract_entities(text)}
        informal = {
            (s.dimension, s.start, s.end, s.value) for s in extract_entities(text, "informal")
        }
        assert strict <= informal, text


_OFFLINE_TEXTS = [
    n.note.text
    for spec in (
        PerturbationSpec(),
        PerturbationSpec(0.3, 0.3, 0.3, 0.3, 0.3, rng_seed=7),
    )
    for n in generate_offline(demo_seed_templates(), 2, spec)
]


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.sampled_from(_OFFLINE_TEXTS), min_size=1, max_size=6),
    mode=st.sampled_from(MODES),
)
def test_joined_notes_yield_each_notes_spans_shifted(parts, mode):
    expected = []
    offset = 0
    for part in parts:
        spans, _ = diagnose(part, mode)
        expected.extend(
            dataclasses.replace(s, start=s.start + offset, end=s.end + offset) for s in spans
        )
        offset += len(part) + 1
    spans, _ = diagnose("\n".join(parts), mode)
    assert list(spans) == expected


def test_hostile_long_inputs_stay_linear():
    # Each input took 10-18 s on a 2-core VM while these paths were quadratic.
    cases = [
        (lambda: extract_statements("Stage III B " * 12000, "informal"), 12000),
        (lambda: extract_statements("Stage III B. " * 8000, "strict"), 8000),
        # Seed-template selection reads each note so; every "periodontitis" here is negated.
        (lambda: diagnose("non periodontitis " * 4000, "informal")[1], None),
    ]
    # An anchor search retried from every letter of a long word is quadratic.
    for text in ("D: " + "a" * 20000 + " x", "a" * 20000 + ":", "D: " * 10000):
        cases += [(lambda t=text, m=mode: extract_statements(t, m), 0) for mode in MODES]
    # Grouping alone, on the spans of one long sentence and of one sentence with many anchors.
    for text, mode, expected in [
        ("Stage III B " * 12000, "informal", 12000),
        ("D: " * 10000, "strict", 0),
        ("D: Periodontitis " * 10000, "strict", 10000),
    ]:
        spans = extract_entities(text, mode)[::-1]
        cases.append((lambda t=text, s=spans: group_statements(t, s), expected))
    for run, expected in cases:
        start = time.monotonic()
        result = run()
        assert time.monotonic() - start < 2.0
        assert (result if expected is None else len(result)) == expected


def _one_edit_typos(word):
    """Every string one deletion, or one a-z substitution or insertion, away from word."""
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    return {
        *(a + b[1:] for a, b in splits if b),
        *(a + c + b[1:] for a, b in splits if b for c in string.ascii_lowercase),
        *(a + c + b for a, b in splits for c in string.ascii_lowercase),
    } - {word}


def test_grammar_words_are_the_words_matched_with_one_edit():
    # The offline typo injector relies on GRAMMAR_WORDS naming every word the
    # grammar matches fuzzily (words under four letters match exactly). A word
    # the grammar knows is matched with one edit when some typo of it, itself
    # no known word, reads exactly as the word does.
    known = {word for table in extraction._LEXICON.values() for word in table}
    lex = extraction._lex.__wrapped__  # the uncached reading, whatever ran before
    matched = {
        word
        for word in known
        if any(lex(typo) == lex(word) for typo in _one_edit_typos(word) - known)
    }
    assert matched == set(GRAMMAR_WORDS)
    assert len(set(GRAMMAR_WORDS)) == len(GRAMMAR_WORDS)


_STAGE_NUMERALS = {
    "i": Stage.I, "ii": Stage.II, "iii": Stage.III, "iv": Stage.IV,
    "1": Stage.I, "2": Stage.II, "3": Stage.III, "4": Stage.IV,
}
_GRADE_LETTERS = {"a": Grade.A, "b": Grade.B, "c": Grade.C}
_QUERIED_WORDS = sorted(
    {*STATUS_VOCAB, *EXTENT_VOCAB, *_STAGE_NUMERALS, *_GRADE_LETTERS, "stage", "grade",
     "intact", "reduced", "periodontium", "stable", "past", "non", "d", "dx", "diagnosis"}
)


def uncached_lex(token):
    """What the grammar reads in a lowercase token, asked one word at a time."""

    def match(word):
        return token == word or (
            len(token) >= 4 and len(word) >= 4 and within_one_edit(token, word)
        )

    status = next((value for word, value in STATUS_VOCAB.items() if match(word)), None)
    extent = next((value for word, value in EXTENT_VOCAB.items() if match(word)), None)
    if match("stable") or match("past"):
        qualifier = Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS
    else:
        qualifier = Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS if token == "non" else None
    return {
        "status": status,
        "extent": extent,
        "stage": _STAGE_NUMERALS.get(token),
        "grade": _GRADE_LETTERS.get(token),
        "qualifier": qualifier,
        "stage_marker": match("stage"),
        "grade_marker": match("grade"),
        "intact": match("intact"),
        "reduced": match("reduced"),
        "periodontium": match("periodontium"),
        "anchor": token in ("d", "dx") or match("diagnosis"),
        "opens": extent is not None or status in (P, G)
        or match("stage") or match("intact") or match("reduced"),
    }


@settings(max_examples=500, deadline=None)
@given(
    token=st.one_of(
        st.text(string.ascii_lowercase + "1234", max_size=14),
        st.sampled_from(_QUERIED_WORDS),
        st.sampled_from(_QUERIED_WORDS).flatmap(
            lambda word: st.sampled_from(sorted(_one_edit_typos(word)))
        ),
    ),
)
def test_memoized_lex_equals_uncached_definition(token):
    assert extraction._lex(token)._asdict() == uncached_lex(token), token
    assert extraction._lex(token.upper()) == extraction._lex(token)  # keyed as written


_TEXT_PIECES = [
    *GRAMMAR_WORDS,
    "stabe", "periodontitus", "genralized", "stale", "Helthy", "REDUCED",
    "D", "Dx", "Diagnosis", "dx", "D-", "Dx -", "D:", "III", "IV", "i", "2", "A", "B", "c",
    "non", "with", "chronic", "unlikely", "r/o",
    ":", "-", ".", "\n", "_", "_D", "é", "Gingivitisé", "ß", "٣", "Ⅲ",
]


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(st.sampled_from(_TEXT_PIECES), st.sampled_from(["", " ", "  ", ", "])),
        max_size=30,
    ),
)
def test_grammar_words_are_the_tokenizers_word_tokens(pieces):
    text = "".join(piece + sep for piece, sep in pieces)
    word_tokens = [t.text for t in tokenize(text) if t.text[0].isalnum()]
    assert [m.group() for m in extraction._WORD_RE.finditer(text)] == word_tokens


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(
            st.sampled_from([*_TEXT_PIECES, "mild", "severe", "Recession"]),
            st.sampled_from(["", " ", ", "]),
        ),
        max_size=30,
    ),
    mode=st.sampled_from(MODES),
)
def test_statement_order_is_text_order(pieces, mode):
    text = "".join(piece + sep for piece, sep in pieces)
    spans = extract_entities(text, mode)
    assert spans == list(diagnose(text, mode)[0])
    assert [s.start for s in spans] == sorted(s.start for s in spans)


_GROUPING_PIECES = [
    *GRAMMAR_WORDS, *sorted(extraction._HEAD_SKIP_WORDS), "Stage", "Grade", "Stge", "Recession",
    "I", "II", "III", "IV", "1", "3", "A", "B", "C", "D:", "Dx:", "D-", "Dx -", "Diagnosis:",
    "Diagnosys:", "possible",
]


def _sentence_reads(text, mode):
    """Every span `_read_sentence` reads in the note's sentences, at note offsets, uncached."""
    return [
        span
        for passage in extraction._PASSAGE_RE.finditer(text)
        for span in extraction._read_sentence(
            text, mode == "informal", passage, extraction._anchors(text, passage)
        )
    ]


@settings(max_examples=500, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(st.sampled_from(_GROUPING_PIECES), st.sampled_from([" ", ". ", ", ", "\n"])),
        max_size=30,
    ),
    mode=st.sampled_from(MODES),
    rnd=st.randoms(use_true_random=False),
)
def test_grouping_the_grammars_spans_gives_its_statements(pieces, mode, rnd):
    # What `predictions=` relies on: the spans the grammar writes out, in any
    # order, group into the grammar's statements. So do all the spans it reads,
    # extents it drops included.
    text = "".join(piece + sep for piece, sep in pieces)
    statements = extract_statements(text, mode)
    for spans in (extract_entities(text, mode), _sentence_reads(text, mode)):
        rnd.shuffle(spans)
        assert group_statements(text, spans) == statements


@pytest.mark.parametrize(
    "text, raws, statements",
    [
        # A tagger may mark words before a sentence's first anchor; that anchor still splits.
        ("Hx periodontitis D: gingivitis.", [(_ST, "periodontitis"), (_ST, "gingivitis")],
         [["periodontitis"], ["gingivitis"]]),
        ("Hx periodontitis D: Stage II.", [(_ST, "periodontitis"), (_SG, "II")],
         [["periodontitis"], ["II"]]),
        ("Generalized Hx D: Stage II.", [(_E, "Generalized"), (_SG, "II")], [["II"]]),
        # A span that starts at an anchor's word falls after the split.
        ("Periodontitis Dx: Stage II", [(_ST, "Periodontitis"), (_GR, "Dx"), (_SG, "II")],
         [["Periodontitis"], ["Dx", "II"]]),
        ("Dx: Stage II", [(_ST, "Dx"), (_SG, "II")], [["Dx", "II"]]),
        # Every anchor of the sentence splits, the first one included.
        ("Hx: periodontitis D: Stage II Dx- Grade B D- gingivitis.",
         [(_ST, "periodontitis"), (_SG, "II"), (_GR, "B"), (_ST, "gingivitis")],
         [["periodontitis"], ["II"], ["B"], ["gingivitis"]]),
        ("D: Generalized Dx: Stage II Grade B", [(_E, "Generalized"), (_SG, "II"), (_GR, "B")],
         [["II", "B"]]),
        # No anchor and no opening word: the grammar reads nothing here, a tagger's spans group.
        ("Patient notes: mild Stage II, Grade B.", [(_SG, "II"), (_GR, "B")], [["II", "B"]]),
        ("Patient has generalized Stage II. Grade B",
         [(_E, "generalized"), (_SG, "II"), (_GR, "B")], [["generalized", "II"], ["B"]]),
    ],
    ids=[
        "before-first-anchor", "split-before-first-anchor", "extent-before-first-anchor",
        "span-at-anchor", "first-span-at-first-anchor", "many-anchors", "anchor-ends-extent",
        "no-anchor-no-trigger", "no-anchor-two-sentences",
    ],
)
def test_grouping_predicted_spans_around_anchors(text, raws, statements):
    # A tagger's values; an anchor word ("Dx") reads as no value, so its span takes one
    # a tagger might give it.
    values = {
        (_ST, "periodontitis"): P, (_ST, "gingivitis"): G, (_ST, "dx"): P, (_SG, "ii"): Stage.II,
        (_GR, "b"): Grade.B, (_GR, "dx"): Grade.A, (_E, "generalized"): Extent.GENERALIZED,
    }
    spans, cursor = [], 0
    for dimension, raw in raws:
        start = text.index(raw, cursor)
        cursor = start + len(raw)
        value = values[dimension, raw.lower()]
        spans.append(EntitySpan(dimension, value, start, cursor, raw))
    got = group_statements(text, spans[::-1])
    assert [[s.raw_text for s in st.spans] for st in got] == statements


@pytest.mark.parametrize("mode", MODES)
def test_diagnose_finds_each_sentences_anchors_once(monkeypatch, mode):
    notes = [
        "D: Periodontitis Stage II. Generalized gingivitis. Patient well.\nDx: Stage III Grade B",
        "Hx: possible periodontitis D: Stage II Dx- Grade B! Recall in 6 months?\n\nD- Gingivitis",
        "Localized Stage 3 B. Stage II Grade A, likely. No bleeding-on-probing: none.",
    ]
    calls = []
    anchors = extraction._anchors
    monkeypatch.setattr(extraction, "_anchors", lambda *args: calls.append(args) or anchors(*args))
    extraction._read_passage.cache_clear()
    for text in notes:
        calls.clear()
        spans, record = diagnose(text, mode)
        assert spans
        assert len(calls) == len(list(extraction._PASSAGE_RE.finditer(text)))
        calls.clear()
        assert diagnose(text, mode) == (spans, record)
        assert not calls  # a sentence read before is not read again


def test_grouping_predicted_spans_finds_anchors_only_where_a_span_is(monkeypatch):
    text = (
        "Patient seen today. Probing recorded. D: Generalized Periodontitis Stage II Grade B."
        " Recall in 3 months."
    )
    spans = extract_entities(text, "strict")
    calls = []
    anchors = extraction._anchors
    monkeypatch.setattr(extraction, "_anchors", lambda *args: calls.append(args) or anchors(*args))
    statements = group_statements(text, spans)
    assert [passage.group() for _, passage in calls] == [
        " D: Generalized Periodontitis Stage II Grade B."
    ]
    assert statements == extract_statements(text)


def test_word_memo_stays_bounded_on_many_distinct_words():
    rng = random.Random(11)
    words = {}
    while len(words) < 50_000:
        words["".join(rng.choices(string.ascii_lowercase, k=rng.randint(5, 10)))] = None
    words = list(words)
    text = ". ".join("D: " + " ".join(words[i : i + 10]) for i in range(0, len(words), 10))
    start = time.monotonic()
    extract_statements(text, "informal")
    assert time.monotonic() - start < 2.0
    info = extraction._lex.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.mark.parametrize(
    "notes, template, length",
    [(40, "D: {} x.", 100_000), (20, "{}: Stage II.", 50_000)],
    ids=["value-word", "anchor-word"],
)
def test_word_memo_pins_no_long_word(notes, template, length):
    # Each note holds one distinct long word, read as a value and as a possible
    # anchor. A memo keyed by whole words kept them all: 4.0 and 1.0 MB traced.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for letter in string.ascii_letters[:notes]:
            extract_statements(template.format(letter * length), "informal")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 200_000


def _cold_read(text, mode):
    """`extract_statements` without the sentence memo: the whole note read, then grouped."""
    return group_statements(text, _sentence_reads(text, mode))


_LONG_SENTENCE = (
    "D: Periodontitis " + "mild " * (extraction._MEMO_SENTENCE_CHARS // 5) + "Stage II Grade B.\n"
)
_MODE_SENTENCE = "D: Periodontitis III B.\n"  # "III B" is a stage and grade in informal mode only


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(
        st.tuples(
            st.sampled_from([*_GROUPING_PIECES, *_TEXT_PIECES]),
            st.sampled_from([" ", ". ", ", ", "\n"]),
        ),
        max_size=30,
    ),
    mode=st.sampled_from(MODES),
    rnd=st.randoms(use_true_random=False),
)
def test_memoized_reading_equals_a_cold_read(pieces, mode, rnd):
    text = "".join(piece + sep for piece, sep in pieces)
    sentences = [p.group() for p in extraction._PASSAGE_RE.finditer(text)] + [_MODE_SENTENCE]
    for warm_mode in (*MODES, mode):  # warm the memo, in both modes, on notes sharing sentences
        rnd.shuffle(sentences)
        extract_statements("".join(sentences), warm_mode)
    # Repeated sentences at offset 0 and later, and a sentence over the cap.
    notes = [
        text, text + "\n" + text, _LONG_SENTENCE + text,
        text + "\n" + _MODE_SENTENCE + _LONG_SENTENCE + text,
    ]
    warm = [extract_statements(note, mode) for note in notes]
    extraction._read_passage.cache_clear()
    assert warm == [extract_statements(note, mode) for note in notes]
    assert warm == [_cold_read(note, mode) for note in notes]


def test_sentence_memo_stays_bounded_on_many_distinct_sentences():
    extraction._read_passage.cache_clear()
    statements = extract_statements(_LONG_SENTENCE, "strict")
    assert extraction._read_passage.cache_info().currsize == 0  # read, but not kept
    assert statements == _cold_read(_LONG_SENTENCE, "strict")
    assert [[s.raw_text for s in st.spans] for st in statements] == [["Periodontitis", "II", "B"]]
    text = "".join(f"Recall visit {i}. " for i in range(50_000))
    start = time.monotonic()
    extract_statements(text, "informal")
    assert time.monotonic() - start < 2.0
    info = extraction._read_passage.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@cache
def _seeded_offline_texts():
    """450 offline notes under corpus-short's rates, and all of them joined into one."""
    rates = dict.fromkeys(PERTURBATION_RATES, 0.15)
    notes = generate_offline(demo_seed_templates(15), 10, PerturbationSpec(rng_seed=1, **rates))
    texts = [note.note.text for note in notes]
    return texts, "\n".join(texts)


def _assert_moved_spans_are_checked(text, mode):
    statements = extract_statements(text, mode)
    spans = [span for statement in statements for span in statement.spans]
    assert spans == [EntitySpan(s.dimension, s.value, s.start, s.end, s.raw_text) for s in spans]
    assert span_violations(text, spans) == []
    assert [(s.start, s.end) for s in statements] == [
        (s.spans[0].start, s.spans[-1].end) for s in statements
    ]
    assert statements == _cold_read(text, mode)


@pytest.mark.parametrize("mode", MODES)
def test_moved_spans_are_checked_spans_on_seeded_notes(mode):
    # A memoized statement is moved to its note's offsets without `EntitySpan`'s
    # checks: each copy must still be a span those checks accept, at the right place.
    texts, joined = _seeded_offline_texts()
    for text in [*texts, joined]:
        _assert_moved_spans_are_checked(text, mode)


_FREE_CHARS = (
    string.ascii_letters + string.digits + ".!?\n\r\t :-\u00a0\uff1a\u2013\U0001d400\U0001f9b7"
)


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(
        st.one_of(
            st.sampled_from([*_GROUPING_PIECES, _LONG_SENTENCE]),
            st.text(_FREE_CHARS, max_size=8),
        ),
        max_size=30,
    ),
    mode=st.sampled_from(MODES),
)
def test_moved_spans_are_checked_spans_on_free_text(pieces, mode):
    # Letters, digits, grammar words, sentence ends, NBSP, a fullwidth colon, an
    # en dash, astral characters and a sentence over the memo's cap, in any mix.
    _assert_moved_spans_are_checked(" ".join(pieces), mode)


def test_sentence_walk_holds_one_sentence_at_a_time():
    # The note is walked lazily: a walk that held all its 200,000 sentences at
    # once peaked at ~12 MB, against ~0 MB for the lazy one.
    text = "a." * 200_000
    extract_statements(text, "strict")  # the memo now holds "a."
    tracemalloc.start()
    try:
        assert extract_statements(text, "strict") == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("mode", MODES)
def test_extract_statements_calls_per_note_are_bounded(mode):
    # The 450 seeded notes alone and joined, read warm. Measured per note at
    # 19.9-20.2 calls alone and 17.9-18.2 joined (26.1-26.5 and 25.1-25.5 when
    # each moved span went through `EntitySpan`'s checks again, which fails both).
    texts, joined = _seeded_offline_texts()

    def each():
        for text in texts:
            extract_statements(text, mode)

    each()
    extract_statements(joined, mode)
    assert calls_per(each, per=len(texts)) <= 23
    assert calls_per(extract_statements, joined, mode, per=len(texts)) <= 21


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        extract_entities("x", mode="fuzzy")


def test_the_readme_library_example_reads_as_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["record"] == DiagnosisRecord(P, Stage.I, Grade.A, Extent.LOCALIZED)
    assert namespace["version"] is GuidelineVersion.CURRENT_2018


# --------------------------------------------------------------------------
# external predictions

@pytest.fixture
def small_corpus():
    return [
        AnnotatedNote(note=Note("n-1", "site1", "D: Periodontitis Stage II Grade A.")),
        AnnotatedNote(note=Note("n-2", "site1", "D: Generalized Gingivitis.")),
        AnnotatedNote(note=Note("n-3", "site1", "No diagnosis.")),
    ]


def write_predictions(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_load_predictions_happy_path(tmp_path, small_corpus):
    path = tmp_path / "preds.jsonl"
    write_predictions(
        path,
        [
            {"note_id": "n-1", "spans": [{"dimension": "Stage", "value": "II", "start": 23, "end": 25}]},
            {"note_id": "n-2", "spans": [{"dimension": "Extent", "value": "Generalized", "start": 3, "end": 14}]},
            {"note_id": "n-3", "spans": []},
        ],
    )
    loaded = load_external_predictions(path, small_corpus)
    assert set(loaded) == {"n-1", "n-2", "n-3"}
    assert loaded["n-1"][0].raw_text == "II"


def test_load_predictions_unknown_note_id(tmp_path, small_corpus):
    path = tmp_path / "preds.jsonl"
    write_predictions(path, [{"note_id": "ghost", "spans": []}])
    with pytest.raises(PredictionFileError, match="ghost"):
        load_external_predictions(path, small_corpus)


def test_load_predictions_out_of_bounds(tmp_path, small_corpus):
    path = tmp_path / "preds.jsonl"
    write_predictions(
        path,
        [{"note_id": "n-1", "spans": [{"dimension": "Stage", "value": "II", "start": 23, "end": 999}]}],
    )
    with pytest.raises(PredictionFileError, match="n-1"):
        load_external_predictions(path, small_corpus)


def test_load_predictions_raw_text_mismatch(tmp_path, small_corpus):
    path = tmp_path / "preds.jsonl"
    write_predictions(
        path,
        [
            {
                "note_id": "n-1",
                "spans": [
                    {"dimension": "Stage", "value": "II", "start": 23, "end": 25, "raw_text": "IX"}
                ],
            }
        ],
    )
    with pytest.raises(PredictionFileError, match="raw_text"):
        load_external_predictions(path, small_corpus)
