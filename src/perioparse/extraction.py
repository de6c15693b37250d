"""Rule-grammar extraction of diagnosis entities from note text.

This module alone decides what a surface string means: it holds the
dimension vocabularies and the grammar that reads them in a note.

The public tokenizer is reversible: tokens plus the whitespace between them
reconstruct the input byte for byte, so character offsets stay valid no
matter what consumes them downstream.

The grammar reads word tokens only (alphanumeric runs); punctuation stays in
the gaps between them and counts in two places: the ":" or "-" after an
anchor word, and the connectors allowed between "reduced periodontium" and
its qualifier. It recognizes diagnosis statements (anchored by "D:", "Dx:",
"Diagnosis:", "D-", or opening a sentence) and, inside them, status words,
stage and grade markers, extent adjectives, and periodontium subtype
phrases. Entity words of four or more letters tolerate a single-character
typo. What a word means is read from one lexicon record per distinct
token (`_lex`), built once from the `_LEXICON` tables; a token is looked up
by at most its first `_LEX_CHARS` characters.

A note is read sentence by sentence: the sentence's anchors are found once,
the grammar reads its spans (from the first anchor on, or whole), and
`_group_sentence`, the only code that splits at anchors, groups them. An
extent survives grouping only if the next span, past skip adjectives
("chronic", "mild", ...) and its own "Stage"/"Grade" marker, is a status,
stage or grade ("Generalized Recession" and the "Localized" of "Localized
Generalized Periodontitis" do not). Templated notes repeat sentences, so
`_read_passage` reads and groups each sentence alone, in a bounded memo keyed
by its text and the mode like `_lex`; one over `_MEMO_SENTENCE_CHARS`
characters is read uncached. The statements read are moved to the note's
offsets without a second check. A tagger's spans are grouped by the same
function; only a sentence that holds one of them is searched for anchors.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from typing import NamedTuple

from .model import (
    MODES,
    _SPAN_SLOTS,
    _STATEMENT_SLOTS,
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
    Statement,
    Subtype,
)
from .normalization import adjudicate, infer_status_context

STATUS_VOCAB: dict[str, PeriodontalStatus] = {
    "periodontitis": PeriodontalStatus.PERIODONTITIS,
    "gingivitis": PeriodontalStatus.GINGIVITIS,
    "health": PeriodontalStatus.HEALTH,
    "healthy": PeriodontalStatus.HEALTH,
}

EXTENT_VOCAB: dict[str, Extent] = {
    "localized": Extent.LOCALIZED,
    "generalized": Extent.GENERALIZED,
}

_STABLE = Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS

# Words that name the subtype after "reduced periodontium"; before
# "periodontitis" they make it part of that phrase or a negation, not a status.
_QUALIFIERS = {
    "stable": _STABLE,
    "past": _STABLE,
    "non": Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS,
}

#: Every word the grammar knows, under the `Lex` field it sets: a value, or
#: True for a keyword. Words of four or more letters match with one edit.
_LEXICON: dict[str, dict] = {
    "status": STATUS_VOCAB,
    "extent": EXTENT_VOCAB,
    "stage": {**dict(zip(("i", "ii", "iii", "iv"), Stage)), **dict(zip("1234", Stage))},
    "grade": dict(zip("abc", Grade)),
    "qualifier": _QUALIFIERS,
    "stage_marker": {"stage": True},
    "grade_marker": {"grade": True},
    "intact": {"intact": True},
    "reduced": {"reduced": True},
    "periodontium": {"periodontium": True},
    "anchor": dict.fromkeys(("d", "dx", "diagnosis"), True),  # when ":" or "-" follows
}

#: Every word the grammar matches with one edit allowed (see `_lex`).
#: The offline typo injector rejects a typo within one edit of any of them
#: but its source word, so a typo always resolves back to that word.
GRAMMAR_WORDS = tuple(w for words in _LEXICON.values() for w in words if len(w) >= 4)
# A token over one character longer than the longest grammar word matches none
# (`str.lower` never shortens a string), and nor does its prefix of this length:
# `_lex` is passed no more, so its memo pins no long token.
_LEX_CHARS = max(map(len, GRAMMAR_WORDS)) + 2

# Hedge cues, matched as whole words: "unlikely" is not "likely".
_HEDGE_RE = re.compile(
    r"\b(?:to be confirmed|to confirm|possible|possibly|probable|likely|suspected"
    r"|rule out|r/o|pending)\b"
)

# Adjectives an extent word may look past when searching for its head.
_HEAD_SKIP_WORDS = {"chronic", "mild", "moderate", "severe", "advanced", "early", "slight"}

# Connectors allowed between "reduced periodontium" and its qualifier: these
# words, whitespace, and the punctuation marks in `_CONNECTORS_RE`.
_QUALIFIER_SKIP = {"with", "due", "to", "on", "a", "an", "of", "from"}
_CONNECTORS_RE = re.compile(r"(?:[^\W_]|[\s,;/-])*")

_PERIO_CONTEXT = re.compile(r"periodont|gingiv", re.IGNORECASE)

_WORD_RE = re.compile(r"[^\W_]+")  # exactly the word tokens of `tokenize`
_TOKEN_RE = re.compile(r"[^\W_]+|\S", re.UNICODE)
# A word, optional whitespace, then ":" or "-": an anchor if the word is one.
# The lookbehind tries each word only from its start, which keeps the search
# linear in the length of a word.
_ANCHOR_RE = re.compile(r"(?<![^\W_])([^\W_]+)\s*[:-]")
# A sentence and its end marks; the passages cover every offset and none is empty.
_PASSAGE_RE = re.compile(r"(?!\Z)[^.!?\n]*[.!?\n]*")
_START = attrgetter("start")  # spans sort and bisect by where they start
# A longer sentence is read uncached, so the memo pins at most 4,096 x 1,000 characters of
# sentence text: ~4 MB if ASCII, ~16 MB if astral (4 bytes each), plus their statements.
_MEMO_SENTENCE_CHARS = 1_000


class Token(NamedTuple):
    """A tokenizer unit anchored at character offsets [start, end)."""

    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """The public reversible tokenizer: alphanumeric runs and single punctuation marks.

    Whitespace is never part of a token; it survives as the gaps between
    offsets, which is what makes the tokenization reversible. The grammar
    itself reads only the word tokens (`_WORD_RE`).
    """
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def reconstruct(text: str, tokens: list[Token]) -> str:
    """Rebuild the input from tokens plus the original inter-token gaps."""
    pieces = []
    cursor = 0
    for tok in tokens:
        pieces.append(text[cursor : tok.start])
        pieces.append(tok.text)
        cursor = tok.end
    pieces.append(text[cursor:])
    return "".join(pieces)


def within_one_edit(a: str, b: str) -> bool:
    """True iff Levenshtein distance between a and b is at most 1."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # a is the shorter (or equal-length) string
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    if la == lb:
        # one substitution allowed
        return a[i + 1 :] == b[i + 1 :]
    # one insertion into a allowed
    return a[i:] == b[i + 1 :]


class Lex(NamedTuple):
    """What the grammar reads in one token: a field per `_LEXICON` table, and `opens`."""

    status: PeriodontalStatus | None = None  # a health word also needs context: `_status`
    extent: Extent | None = None
    stage: Stage | None = None
    grade: Grade | None = None
    qualifier: Subtype | None = None
    stage_marker: bool = False
    grade_marker: bool = False
    intact: bool = False
    reduced: bool = False
    periodontium: bool = False
    anchor: bool = False
    opens: bool = False  # opens a diagnosis sentence, whatever else the sentence holds


@lru_cache(maxsize=4096)
def _lex(token: str) -> Lex:
    """The record of a token, read in lower case: what each `_LEXICON` word it matches means.

    The memo is keyed by the token as written, so a token seen before is not
    lowercased again. A word matches itself and, if both have four or more
    letters, a token one edit away. Words of different value are three or more
    edits apart, so each field takes at most one value.
    """
    low = token.lower()
    words = [w for w in GRAMMAR_WORDS if within_one_edit(low, w)] if len(low) >= 4 else [low]
    lex = Lex(**{f: table[w] for f, table in _LEXICON.items() for w in words if w in table})
    opens = lex.extent is not None or lex.stage_marker or lex.intact or lex.reduced
    return lex._replace(opens=opens or lex.status not in (None, PeriodontalStatus.HEALTH))


def _status(lex: Lex, sentence_text: str) -> PeriodontalStatus | None:
    """The token's status; a health word counts only with periodontal context in its sentence."""
    if lex.status is PeriodontalStatus.HEALTH and not _PERIO_CONTEXT.search(sentence_text):
        return None
    return lex.status


def _match_subtype(text: str, words: list[re.Match], lexes: list[Lex], i: int):
    """Try a periodontium subtype phrase starting at word i; `lexes` are the words' records.

    Returns (value_or_None, last_word_index) when the opener matched, else None.
    A bare "reduced periodontium" without a qualifier consumes its words but
    carries no determinable value.
    """
    lex = lexes[i]
    if not (lex.intact or lex.reduced):
        return None
    j = i + 1
    if j == len(words) or not lexes[j].periodontium:
        return None
    if lex.intact:
        return Subtype.INTACT_PERIODONTIUM, j
    # qualifier scan: past connector words; between them, connector punctuation only
    k = j + 1
    while k < len(words) and words[k][0].lower() in _QUALIFIER_SKIP:
        k += 1
    if k < len(words) and _CONNECTORS_RE.fullmatch(text, words[j].end(), words[k].start()):
        qualifier = lexes[k].qualifier
        m = k + 1
        if qualifier is _STABLE and m < len(words) and words[m][0].lower() in ("stable", "past"):
            m += 1
        status = lexes[m].status if m < len(words) else None
        if qualifier is not None and status is PeriodontalStatus.PERIODONTITIS:
            return qualifier, m
    return None, j  # bare "reduced periodontium": consume, no value


def _token_span(dimension: Dimension, value, word: re.Match) -> EntitySpan:
    return EntitySpan(dimension, value, word.start(), word.end(), word.group())


def _read_word(
    text: str, words: list[re.Match], lexes: list[Lex], i: int, informal: bool,
    sentence_text: str, after_stage: bool,
) -> tuple[EntitySpan | None, int]:
    """The element or extent word i starts, or None, and the last word it consumed.

    `after_stage` says whether the word before it ended a stage element.
    """
    tok = words[i]
    lex = lexes[i]
    sub = _match_subtype(text, words, lexes, i)
    if sub is not None:
        value, last = sub
        if value is None:
            return None, last
        start, end = tok.start(), words[last].end()
        return EntitySpan(Dimension.SUBTYPE, value, start, end, text[start:end]), last

    status = lex.status and _status(lex, sentence_text)
    if status is PeriodontalStatus.PERIODONTITIS and i and lexes[i - 1].qualifier is not None:
        status = None
    if status is not None:
        return _token_span(Dimension.STATUS, status, tok), i

    nxt = words[i + 1] if i + 1 < len(words) else None
    if (lex.stage_marker or lex.grade_marker) and nxt is not None:
        value = lexes[i + 1]
        if lex.stage_marker and value.stage is not None:
            return _token_span(Dimension.STAGE, value.stage, nxt), i + 1
        if lex.grade_marker and value.grade is not None:
            return _token_span(Dimension.GRADE, value.grade, nxt), i + 1

    if informal:
        # Bare roman numeral (digits are never upper case) followed by a bare grade letter.
        if lex.stage is not None and tok[0].isupper() and nxt and nxt[0] in ("A", "B", "C"):
            return _token_span(Dimension.STAGE, lex.stage, tok), i
        # Bare grade letter trailing a stage value token.
        if after_stage and tok[0] in ("A", "B", "C"):
            return _token_span(Dimension.GRADE, lex.grade, tok), i

    if lex.extent is not None:
        return _token_span(Dimension.EXTENT, lex.extent, tok), i
    return None, i


def _initial_trigger(sentence_text: str) -> bool:
    """Does the sentence open with a diagnosis phrase? Reads only its first two words."""
    for m in islice(_WORD_RE.finditer(sentence_text), 2):
        lex = _lex(m.group()[:_LEX_CHARS])
        if lex.opens or _status(lex, sentence_text) is not None:
            return True
    return False


def _anchors(text: str, passage: re.Match) -> list[re.Match]:
    """The "D:"-style anchors whose word starts in the sentence `passage`."""
    pos, end = passage.span()
    # An anchor ends at a ":" or "-", so the search stops after the last one;
    # most sentences hold neither and cost no regex search at all.
    stop = max(text.rfind(":", pos, end), text.rfind("-", pos, end)) + 1
    if not stop:
        return []
    return [m for m in _ANCHOR_RE.finditer(text, pos, stop) if _lex(m.group(1)[:_LEX_CHARS]).anchor]


def _read_sentence(text: str, informal: bool, passage: re.Match, anchors: list) -> list[EntitySpan]:
    """Every element and extent span the grammar reads in one sentence, in text order.

    It reads from the end of the sentence's first anchor, else the whole
    sentence if it opens with a diagnosis, looking each word up once. A later
    anchor's word yields no span and no lookahead reads it as a value or
    connector; only the grouping splits there.
    """
    sentence_text = passage.group()
    start, end = passage.span()
    if anchors:
        start = anchors[0].end()
    elif not _initial_trigger(sentence_text):
        return []
    words = list(_WORD_RE.finditer(text, start, end))
    lexes = [_lex(word.group()[:_LEX_CHARS]) for word in words]
    spans, span, i = [], None, 0
    while i < len(words):
        after_stage = span is not None and span.dimension is Dimension.STAGE
        span, last = _read_word(text, words, lexes, i, informal, sentence_text, after_stage)
        if span is not None:
            spans.append(span)
        i = last + 1
    return spans


def _heads(text: str, extent: EntitySpan, head: EntitySpan) -> bool:
    """Does the extent head this span: only skip adjectives, then its own marker, in between?"""
    gap = _WORD_RE.findall(text, extent.end, head.start)
    marker = {Dimension.STAGE: "stage_marker", Dimension.GRADE: "grade_marker"}.get(head.dimension)
    if gap and marker and getattr(_lex(gap[-1][:_LEX_CHARS]), marker):
        gap.pop()
    return head.dimension is not Dimension.SUBTYPE and {w.lower() for w in gap} <= _HEAD_SKIP_WORDS


def _group_sentence(text: str, passage: re.Match, anchors: list, spans: list):
    """The statements, as `group_statements` groups them, of one sentence's spans in text order.

    The sentence is `passage` of `text`; each of its `anchors` splits the spans.
    """
    hedged = _HEDGE_RE.search(passage.group().lower()) is not None
    i = 0
    for bound in [*(m.start() for m in anchors), passage.end()]:
        j = bisect_left(spans, bound, i, key=_START)
        groups, extent = [], None
        for span in spans[i:j]:
            if span.dimension is Dimension.EXTENT:
                extent = span
                continue
            if not groups or any(s.dimension is span.dimension for s in groups[-1]):
                groups.append([])
            if extent is not None and _heads(text, extent, span):
                groups[-1].append(extent)
            groups[-1].append(span)
            extent = None
        for g in groups:
            yield Statement(tuple(g), hedged=hedged, start=g[0].start, end=g[-1].end)
        i = j


def group_statements(text: str, spans: Iterable[EntitySpan]) -> list[Statement]:
    """Group a note's spans, from the grammar or any tagger, into statements.

    The regions are the sentences (with the punctuation after them) split at
    their anchors, the text before a first anchor included. Inside one, in
    text order, a status, stage, grade or subtype whose dimension the current
    statement holds opens the next. An extent joins the status, stage or
    grade span after it if only `_HEAD_SKIP_WORDS`, then that span's own
    marker, lie between; else it is dropped. A statement is hedged if its
    sentence holds a hedge cue.
    """
    spans = sorted(spans, key=_START)
    statements: list[Statement] = []
    for passage in _PASSAGE_RE.finditer(text):
        i = bisect_left(spans, passage.start(), key=_START)
        j = bisect_left(spans, passage.end(), i, key=_START)
        if i < j:  # only a sentence that holds a span is searched for anchors
            statements += _group_sentence(text, passage, _anchors(text, passage), spans[i:j])
    return statements


@lru_cache(maxsize=4096)
def _read_passage(sentence: str, informal: bool) -> tuple[Statement, ...]:
    """One sentence's statements, read alone, at offsets from its start.

    The grammar reads only inside the sentence, and the character before it in
    a note is a terminator, never a word character.
    """
    passage = _PASSAGE_RE.match(sentence)
    anchors = _anchors(sentence, passage)
    spans = _read_sentence(sentence, informal, passage, anchors)
    return tuple(_group_sentence(sentence, passage, anchors, spans)) if spans else ()


def _shifted(statement: Statement, offset: int) -> Statement:
    """The memoized statement moved `offset` characters on, built past `EntitySpan`'s checks."""
    # `_read_sentence` checked its spans, and a non-negative offset keeps them true.
    new_span = EntitySpan.__new__
    set_dimension, set_value, set_start, set_end, set_raw_text = _SPAN_SLOTS
    spans = []
    for s in statement.spans:
        span = new_span(EntitySpan)
        set_dimension(span, s.dimension)
        set_value(span, s.value)
        set_start(span, s.start + offset)
        set_end(span, s.end + offset)
        set_raw_text(span, s.raw_text)
        spans.append(span)
    moved = Statement.__new__(Statement)
    set_spans, set_hedged, set_start, set_end = _STATEMENT_SLOTS
    set_spans(moved, tuple(spans))
    set_hedged(moved, statement.hedged)
    set_start(moved, statement.start + offset)
    set_end(moved, statement.end + offset)
    return moved


def extract_statements(text: str, mode: str = "strict") -> list[Statement]:
    """Extract diagnosis statements with their spans and hedge flags."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    informal = mode == "informal"
    statements: list[Statement] = []
    for passage in _PASSAGE_RE.finditer(text):  # lazy: a note's sentences are never all held
        sentence = passage.group()
        read = _read_passage if len(sentence) <= _MEMO_SENTENCE_CHARS else _read_passage.__wrapped__
        found = read(sentence, informal)
        if found:  # most sentences yield nothing, and need no offset
            offset = passage.start()
            statements += [_shifted(s, offset) for s in found] if offset else found
    return statements


def extract_entities(text: str, mode: str = "strict") -> list[EntitySpan]:
    """All entity spans in the note, in text order."""
    return [span for statement in extract_statements(text, mode) for span in statement.spans]


def diagnose(
    text: str, mode: str = "strict"
) -> tuple[tuple[EntitySpan, ...], DiagnosisRecord | None]:
    """Note text to its spans, in statement order, and its one adjudicated record."""
    statements = extract_statements(text, mode)
    spans = tuple(span for statement in statements for span in statement.spans)
    return spans, adjudicate(infer_status_context(statements))
