import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import calls_per, legal_records, oracle_adjudicate, oracle_statement_candidate
from perioparse import normalization
from perioparse.demo import demo_seed_templates
from perioparse.extraction import (
    EXTENT_VOCAB,
    MODES,
    STATUS_VOCAB,
    diagnose,
    extract_entities,
    within_one_edit,
)
from perioparse.model import (
    DIMENSIONS,
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
    Statement,
    Subtype,
    validate_record,
)
from perioparse.normalization import (
    adjudicate,
    classify_guideline_version,
    infer_status_context,
    statement_candidate,
)
from perioparse.synthesis import (
    _SUBTYPE_PHRASES,
    PERTURBATION_RATES,
    PerturbationSpec,
    generate_offline,
)

P, G, H = (
    PeriodontalStatus.PERIODONTITIS,
    PeriodontalStatus.GINGIVITIS,
    PeriodontalStatus.HEALTH,
)


# --------------------------------------------------------------------------
# edit distance

def naive_levenshtein(a, b):
    rows = range(len(a) + 1)
    prev = list(range(len(b) + 1))
    for i in rows[1:]:
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
        prev = cur
    return prev[-1]


def test_within_one_edit_matches_naive_levenshtein():
    rng = random.Random(5)
    alphabet = "abcde"
    words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7))) for _ in range(300)]
    for a, b in itertools.combinations(words, 2):
        assert within_one_edit(a, b) == (naive_levenshtein(a, b) <= 1), (a, b)


# --------------------------------------------------------------------------
# what the grammar reads a value phrase as

# Where a value phrase sits in a "D:" sentence: a stage or grade after its
# marker, a status beside the periodontal context a health word needs, an
# extent before the status it heads, a subtype phrase alone.
_PHRASES = {
    Dimension.STAGE: "Stage {}",
    Dimension.GRADE: "Grade {}",
    Dimension.STATUS: "{} gingiva",
    Dimension.EXTENT: "{} periodontitis",
    Dimension.SUBTYPE: "{}",
}


def _reads(dimension, raw):
    """The `dimension` value the grammar reads for `raw` in a "D:" sentence, or None.

    Both modes read it alike.
    """
    text = "D: " + _PHRASES[dimension].format(raw)
    reads = [
        [span.value for span in extract_entities(text, mode) if span.dimension is dimension]
        for mode in MODES
    ]
    assert reads[0] == reads[1] and len(reads[0]) <= 1, (text, reads)
    return reads[0][0] if reads[0] else None


@pytest.mark.parametrize(
    "dimension,raw,expected",
    [
        (Dimension.STAGE, "3", Stage.III),
        (Dimension.STAGE, "iii", Stage.III),
        (Dimension.STAGE, "IV", Stage.IV),
        (Dimension.STAGE, "5", None),
        (Dimension.STAGE, "V", None),
        (Dimension.GRADE, "b", Grade.B),
        (Dimension.GRADE, "D", None),
        (Dimension.STATUS, "Periodontitiss", P),
        (Dimension.STATUS, "GINGIVITIS", G),
        (Dimension.STATUS, "helathy", None),  # two edits away
        (Dimension.STATUS, "halthy", H),
        (Dimension.EXTENT, "generalised", Extent.GENERALIZED),
        (Dimension.EXTENT, "local", None),
        (Dimension.SUBTYPE, "Intact Periodontium", Subtype.INTACT_PERIODONTIUM),
        (
            Dimension.SUBTYPE,
            "reduced periodontium; past/stable periodontitis",
            Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS,
        ),
        (
            Dimension.SUBTYPE,
            "Reduced Periodontium, Non-Periodontitis",
            Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS,
        ),
        (Dimension.SUBTYPE, "periodontium", None),
    ],
)
def test_normalize_value(dimension, raw, expected):
    assert _reads(dimension, raw) == expected


def test_normalize_status_edit_distance_against_dictionary_oracle():
    vocab = {
        "periodontitis": P,
        "gingivitis": G,
        "health": H,
        "healthy": H,
    }
    rng = random.Random(9)
    letters = "abcdefghijklmnopqrstuvwxyz"
    for word in vocab:
        for _ in range(40):
            pos = rng.randrange(len(word))
            mutated = word[:pos] + rng.choice(letters) + word[pos + 1 :]
            expected = {v for w, v in vocab.items() if naive_levenshtein(mutated, w) <= 1}
            got = _reads(Dimension.STATUS, mutated)
            if len(expected) == 1:
                assert got == expected.pop()
            else:
                assert got is None


def test_normalize_value_idempotent_on_canonical_forms():
    for dim, values in (
        (Dimension.STATUS, PeriodontalStatus),
        (Dimension.STAGE, Stage),
        (Dimension.GRADE, Grade),
        (Dimension.EXTENT, Extent),
        (Dimension.SUBTYPE, Subtype),
    ):
        for value in values:
            assert _reads(dim, value.value) == value


@pytest.mark.parametrize("vocab", [STATUS_VOCAB, EXTENT_VOCAB], ids=["status", "extent"])
def test_vocabulary_words_of_different_value_are_three_edits_apart(vocab):
    # So no token is within one edit of two values, and the first match is the only one.
    for (a, va), (b, vb) in itertools.combinations(vocab.items(), 2):
        if va is not vb:
            assert naive_levenshtein(a, b) >= 3, (a, b)


def test_every_subtype_phrase_normalizes_to_its_subtype():
    for subtype, phrases in _SUBTYPE_PHRASES.items():
        for phrase in (*phrases, subtype.value):
            assert _reads(Dimension.SUBTYPE, phrase) is subtype, phrase


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Reduced periodontium with stable periodontitis",
         Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS),
        ("reduced periodontium on a non-periodontitis",
         Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS),
        ("reducd periodontiun, stabe periodontitis",  # one typo per word
         Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS),
        ("reduced periodontium, nom-periodontitis", None),  # "non" is matched exactly
        ("intactperiodontium", None),  # an edit across a word boundary
        ("reduced periodontium", None),  # no qualifier, no value
    ],
)
def test_normalize_subtype_follows_the_grammar(raw, expected):
    assert _reads(Dimension.SUBTYPE, raw) == expected


# --------------------------------------------------------------------------
# adjudication

def test_adjudicate_spec_examples():
    a = DiagnosisRecord(P, Stage.I, Grade.A, Extent.LOCALIZED)
    b = DiagnosisRecord(P, Stage.II, Grade.B, Extent.GENERALIZED)
    assert adjudicate([a, b]) == DiagnosisRecord(P, Stage.II, Grade.B, Extent.GENERALIZED)

    ging = DiagnosisRecord(G, extent=Extent.GENERALIZED)
    assert adjudicate([a, ging]) == a

    assert adjudicate([ging]) == ging
    assert adjudicate([]) is None


def test_adjudicate_matches_oracle_on_random_multisets():
    records = legal_records()
    rng = random.Random(17)
    for _ in range(3000):
        candidates = [rng.choice(records) for _ in range(rng.randint(1, 3))]
        assert adjudicate(candidates) == oracle_adjudicate(candidates)


def test_adjudicate_idempotent():
    records = legal_records()
    rng = random.Random(23)
    for _ in range(500):
        candidates = [rng.choice(records) for _ in range(rng.randint(1, 3))]
        once = adjudicate(candidates)
        assert adjudicate([once]) == once


def test_adjudicate_subtype_conflict_blanks():
    a = DiagnosisRecord(G, subtype=Subtype.INTACT_PERIODONTIUM)
    b = DiagnosisRecord(G, subtype=Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS)
    assert adjudicate([a, b]).subtype is None
    assert adjudicate([a, a]).subtype is Subtype.INTACT_PERIODONTIUM


def test_adjudicate_result_always_valid():
    records = legal_records()
    rng = random.Random(31)
    for _ in range(1000):
        candidates = [rng.choice(records) for _ in range(rng.randint(1, 3))]
        assert not validate_record(adjudicate(candidates))


# --------------------------------------------------------------------------
# status-context inference

def _statement(*dim_values):
    spans = []
    pos = 0
    for dim, value in dim_values:
        text = value.value
        spans.append(EntitySpan(dim, value, pos, pos + len(text), text))
        pos += len(text) + 1
    return Statement(tuple(spans))


def test_stage_grade_without_status_implies_periodontitis():
    st = _statement(
        (Dimension.EXTENT, Extent.GENERALIZED),
        (Dimension.STAGE, Stage.III),
        (Dimension.GRADE, Grade.B),
    )
    assert statement_candidate(st) == DiagnosisRecord(
        P, Stage.III, Grade.B, Extent.GENERALIZED
    )


def test_health_subtype_statement():
    st = _statement(
        (Dimension.STATUS, H), (Dimension.SUBTYPE, Subtype.INTACT_PERIODONTIUM)
    )
    assert statement_candidate(st) == DiagnosisRecord(
        H, subtype=Subtype.INTACT_PERIODONTIUM
    )


def test_extent_only_statement_yields_no_candidate():
    st = _statement((Dimension.EXTENT, Extent.GENERALIZED))
    assert statement_candidate(st) is None


def test_two_statements_two_candidates():
    statements = [
        _statement((Dimension.STATUS, P), (Dimension.STAGE, Stage.I)),
        _statement((Dimension.STATUS, G)),
    ]
    candidates = infer_status_context(statements)
    assert len(candidates) == 2


def test_illegal_combinations_are_dropped_not_emitted():
    st = _statement((Dimension.STATUS, G), (Dimension.STAGE, Stage.II))
    candidate = statement_candidate(st)
    assert candidate.status is G
    assert candidate.stage is None
    assert not validate_record(candidate)


_LABELS = [(dim, value) for dim, cls in VALUE_CLASSES.items() for value in cls]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LABELS), max_size=8))
def test_statement_candidate_matches_the_span_by_span_fold(labels):
    statement = _statement(*labels)
    candidate = statement_candidate(statement)
    assert candidate == oracle_statement_candidate(statement)
    assert candidate is None or any(candidate is record for record in LEGAL_RECORDS)
    assert statement_candidate(statement) is candidate
    assert statement_candidate(_statement(*labels[::-1])) is candidate
    assert len(normalization._CANDIDATES) <= 2**15


def test_threads_share_the_candidate_memo():
    # The memo's lookup and store take no lock: threads that miss on one set of
    # values each store the one shared record that set can have.
    rng = random.Random(3)
    statements = [_statement(*rng.sample(_LABELS, rng.randint(1, 6))) for _ in range(300)]
    want = [oracle_statement_candidate(statement) for statement in statements]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for _ in range(20):
                normalization._CANDIDATES.clear()
                got = pool.map(lambda _: list(map(statement_candidate, statements)), range(8))
                assert list(got) == [want] * 8
    finally:
        sys.setswitchinterval(interval)
    for statement, candidate in zip(statements, want):
        assert statement_candidate(statement) is candidate


def _record_statement(record):
    return _statement(
        *((dim, value) for dim in DIMENSIONS if (value := record.value_for(dim)) is not None)
    )


def test_chain_calls_per_statement_are_bounded():
    # Seeded lists of 1-4 legal records, as the adjudicate sweep draws them, read
    # warm. Measured at 7.8 calls per statement (13.6 when each statement's spans
    # were folded on every call).
    rng = random.Random(1)
    lists = [
        [_record_statement(rng.choice(LEGAL_RECORDS)) for _ in range(rng.randint(1, 4))]
        for _ in range(2000)
    ]

    def chain():
        for statements in lists:
            adjudicate(infer_status_context(statements))

    chain()
    assert calls_per(chain, per=sum(map(len, lists))) <= 9


@pytest.mark.parametrize("mode", MODES)
def test_diagnose_calls_per_note_are_bounded(mode):
    # 450 offline notes under corpus-short's rates, each alone and all joined into
    # one 95k-char note, read warm. Measured per note at 43.0-43.6 calls alone and
    # 33.3-34.0 joined (49.1-49.9 and 40.5-41.4 when each statement's spans were
    # folded on every call, which fails both). A read that grows faster than the
    # note fails the second.
    rates = dict.fromkeys(PERTURBATION_RATES, 0.15)
    notes = generate_offline(demo_seed_templates(15), 10, PerturbationSpec(rng_seed=1, **rates))
    texts = [note.note.text for note in notes]
    joined = "\n".join(texts)

    def each():
        for text in texts:
            diagnose(text, mode)

    each()
    diagnose(joined, mode)
    assert calls_per(each, per=len(texts)) <= 47
    assert calls_per(diagnose, joined, mode, per=len(texts)) <= 38


# --------------------------------------------------------------------------
# guideline classifier

def test_guideline_examples():
    assert (
        classify_guideline_version(
            DiagnosisRecord(P, Stage.III, Grade.B, Extent.GENERALIZED)
        )
        is GuidelineVersion.CURRENT_2018
    )
    assert (
        classify_guideline_version(DiagnosisRecord(P, extent=Extent.LOCALIZED))
        is GuidelineVersion.LEGACY
    )
    assert (
        classify_guideline_version(
            DiagnosisRecord(H, subtype=Subtype.INTACT_PERIODONTIUM)
        )
        is GuidelineVersion.NOT_APPLICABLE
    )


def test_guideline_exhaustive_over_legal_records():
    for record in legal_records():
        got = classify_guideline_version(record)
        if record.status is not P:
            assert got is GuidelineVersion.NOT_APPLICABLE
        elif record.stage is not None and record.grade is not None:
            assert got is GuidelineVersion.CURRENT_2018
        else:
            assert got is GuidelineVersion.LEGACY
