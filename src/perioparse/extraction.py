"""Rule-grammar extraction of diagnosis entities from note text.

This module alone decides what a surface string means: it holds the
dimension vocabularies, and `normalize_value` reads one span string by the
rules the grammar applies to a note.

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
lowercase token (`_lex`), built once from the `_LEXICON` tables.

Each region is read in one left-to-right pass. An element whose dimension
the current statement already holds opens the next statement. An extent
adjective joins a statement only if the next word outside the skip
adjectives (`_HEAD_SKIP_WORDS`: "chronic", "mild", ...) starts a status,
stage or grade element, and joins that element's statement; otherwise it
yields no span ("Generalized Recession", or "Localized" in "Localized
Generalized Periodontitis").
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .model import (
    FIELD_NAMES,
    DiagnosisRecord,
    Dimension,
    EntitySpan,
    Extent,
    Grade,
    PeriodontalStatus,
    Stage,
    Statement,
    Subtype,
    join,
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

MODES = ("strict", "informal")

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
_SENTENCE_RE = re.compile(r"[^.!?\n]+")


class Token(NamedTuple):
    """A tokenizer unit anchored at character offsets [start, end)."""

    text: str
    start: int
    end: int


def tokenize(text: str, pos: int = 0, endpos: int = sys.maxsize) -> list[Token]:
    """The public reversible tokenizer: alphanumeric runs and single punctuation marks.

    Whitespace is never part of a token; it survives as the gaps between
    offsets, which is what makes the tokenization reversible. As in
    `re.Pattern.finditer`, `pos`/`endpos` bound the scan to `text[pos:endpos]`
    while offsets stay absolute.
    """
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text, pos, endpos)]


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
    """What the grammar reads in one lowercase token: a field per `_LEXICON` table, and `opens`."""

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
def _lex(low: str) -> Lex:
    """The record of a lowercase token: what each `_LEXICON` word it matches means.

    A word matches itself and, if both have four or more letters, a token one
    edit away. Words of different value are three or more edits apart, so each
    field takes at most one value.
    """
    words = [w for w in GRAMMAR_WORDS if within_one_edit(low, w)] if len(low) >= 4 else [low]
    lex = Lex(**{f: table[w] for f, table in _LEXICON.items() for w in words if w in table})
    opens = lex.extent is not None or lex.stage_marker or lex.intact or lex.reduced
    return lex._replace(opens=opens or lex.status not in (None, PeriodontalStatus.HEALTH))


def _status(lex: Lex, sentence_text: str) -> PeriodontalStatus | None:
    """The token's status; a health word counts only with periodontal context in its sentence."""
    if lex.status is PeriodontalStatus.HEALTH and not _PERIO_CONTEXT.search(sentence_text):
        return None
    return lex.status


def _word_before(low: str, end: int) -> str:
    """The run of a-z letters before `end`, past any spaces and hyphens.

    Scanning back from `end`, not the whole prefix, keeps a line linear: the
    gaps skipped before successive matches are disjoint, and only a guard
    word (a short run) lets the caller go on to the next match.
    """
    j = end
    while j > 0 and low[j - 1] in " -":
        j -= 1
    k = j
    while k > 0 and "a" <= low[k - 1] <= "z":
        k -= 1
    return low[k:j]


def detect_status_rulebased(text: str) -> PeriodontalStatus | None:
    """Keyword-based status detection used for seed-note bucketing.

    Returns the most severe status whose keyword family appears. Health
    words only count on lines with periodontal context, and "periodontitis"
    preceded by stable/past/non is a subtype or negation, not a status.
    """
    found: PeriodontalStatus | None = None
    for line in text.splitlines():
        low = line.lower()
        for m in re.finditer(r"periodontitis", low):
            if _word_before(low, m.start()) in _QUALIFIERS:
                continue
            found = join(found, PeriodontalStatus.PERIODONTITIS)
            break
        if "gingivitis" in low:
            found = join(found, PeriodontalStatus.GINGIVITIS)
        if re.search(r"\bhealthy?\b", low) and _PERIO_CONTEXT.search(low):
            found = join(found, PeriodontalStatus.HEALTH)
    return found


def _words(text: str, pos: int, endpos: int) -> list[Token]:
    """The word tokens of `text[pos:endpos]`, with absolute offsets: all the grammar reads."""
    return [Token(m.group(), m.start(), m.end()) for m in _WORD_RE.finditer(text, pos, endpos)]


def _match_subtype(text: str, words: list[Token], i: int):
    """Try a periodontium subtype phrase starting at word i.

    Returns (value_or_None, last_word_index) when the opener matched, else None.
    A bare "reduced periodontium" without a qualifier consumes its words but
    carries no determinable value.
    """
    lex = _lex(words[i].text.lower())
    if not (lex.intact or lex.reduced):
        return None
    j = i + 1
    if j == len(words) or not _lex(words[j].text.lower()).periodontium:
        return None
    if lex.intact:
        return Subtype.INTACT_PERIODONTIUM, j
    # qualifier scan: past connector words; between them, connector punctuation only
    k = j + 1
    while k < len(words) and words[k].text.lower() in _QUALIFIER_SKIP:
        k += 1
    if k < len(words) and _CONNECTORS_RE.fullmatch(text, words[j].end, words[k].start):
        qualifier = _lex(words[k].text.lower()).qualifier
        m = k + 1
        if qualifier is _STABLE and m < len(words) and words[m].text.lower() in ("stable", "past"):
            m += 1
        status = _lex(words[m].text.lower()).status if m < len(words) else None
        if qualifier is not None and status is PeriodontalStatus.PERIODONTITIS:
            return qualifier, m
    return None, j  # bare "reduced periodontium": consume, no value


def normalize_value(dimension: Dimension, raw_text: str):
    """The value one span string denotes under the grammar's rules, or None.

    Stages are roman I-IV or arabic 1-4, grades a letter, in any case. Words
    match as in a note, one edit allowed in a word of four or more letters;
    a subtype phrase may use the connectors the grammar skips ("with", "on
    a", ",", ...) and must cover the string from its first to its last character.
    """
    if not isinstance(dimension, Dimension):
        raise ValueError(f"unknown dimension {dimension!r}")
    raw = raw_text.strip().lower()
    if not raw:
        return None
    if dimension is Dimension.SUBTYPE:
        words = _words(raw, 0, len(raw))
        sub = _match_subtype(raw, words, 0) if words and words[0].start == 0 else None
        return sub[0] if sub and words[sub[1]].end == len(raw) else None
    return getattr(_lex(raw), FIELD_NAMES[dimension])


def _token_span(dimension: Dimension, value, tok: Token) -> EntitySpan:
    return EntitySpan(dimension, value, tok.start, tok.end, tok.text)


def _read_word(
    text: str, words: list[Token], i: int, informal: bool, sentence_text: str, after_stage: bool
) -> tuple[EntitySpan | None, int]:
    """The element or extent word i starts, or None, and the last word it consumed.

    `after_stage` says whether the word before it ended a stage element.
    """
    tok = words[i]
    lex = _lex(tok.text.lower())
    sub = _match_subtype(text, words, i)
    if sub is not None:
        value, last = sub
        end = words[last].end
        if value is None:
            return None, last
        return EntitySpan(Dimension.SUBTYPE, value, tok.start, end, text[tok.start : end]), last

    status = _status(lex, sentence_text)
    if status is PeriodontalStatus.PERIODONTITIS and i:
        if _lex(words[i - 1].text.lower()).qualifier is not None:
            status = None
    if status is not None:
        return _token_span(Dimension.STATUS, status, tok), i

    nxt = words[i + 1] if i + 1 < len(words) else None
    if (lex.stage_marker or lex.grade_marker) and nxt is not None:
        value = _lex(nxt.text.lower())
        if lex.stage_marker and value.stage is not None:
            return _token_span(Dimension.STAGE, value.stage, nxt), i + 1
        if lex.grade_marker and value.grade is not None:
            return _token_span(Dimension.GRADE, value.grade, nxt), i + 1

    if informal:
        # Bare roman numeral (digits are never upper case) followed by a bare grade letter.
        if lex.stage is not None and tok.text.isupper() and nxt and nxt.text in ("A", "B", "C"):
            return _token_span(Dimension.STAGE, lex.stage, tok), i
        # Bare grade letter trailing a stage value token.
        if tok.text in ("A", "B", "C") and after_stage:
            return _token_span(Dimension.GRADE, lex.grade, tok), i

    if lex.extent is not None:
        return _token_span(Dimension.EXTENT, lex.extent, tok), i
    return None, i


def _build_statements(
    text: str, words: list[Token], informal: bool, hedged: bool, sentence_text: str
) -> list[Statement]:
    """Group a region's elements into statements in one left-to-right pass.

    A statement holds at most one element per dimension; a repeated dimension
    opens the next one. An extent waits for the next word outside
    `_HEAD_SKIP_WORDS`: it joins the statement of the status, stage or grade
    element that starts there, and is dropped if none does.
    """
    groups: list[list[EntitySpan]] = []
    extent = span = None
    i = 0
    while i < len(words):
        after_stage = span is not None and span.dimension is Dimension.STAGE
        span, last = _read_word(text, words, i, informal, sentence_text, after_stage)
        if span is not None and span.dimension is not Dimension.EXTENT:
            if not groups or any(s.dimension is span.dimension for s in groups[-1]):
                groups.append([])
            if extent is not None and span.dimension is not Dimension.SUBTYPE:
                groups[-1].append(extent)
            groups[-1].append(span)
        if words[i].text.lower() not in _HEAD_SKIP_WORDS:
            extent = span if span is not None and span.dimension is Dimension.EXTENT else None
        i = last + 1
    return [
        Statement(tuple(spans), hedged=hedged, start=spans[0].start, end=spans[-1].end)
        for spans in groups
    ]


def _initial_trigger(sentence_text: str) -> bool:
    """Does the sentence open with a diagnosis phrase? Reads only its first two words."""
    for m in islice(_WORD_RE.finditer(sentence_text), 2):
        lex = _lex(m.group().lower())
        if lex.opens or _status(lex, sentence_text) is not None:
            return True
    return False


def _may_hold_anchor(sentence_text: str) -> bool:
    """An anchor needs a ":" or "-" after its word; only a sentence holding one is searched."""
    return ":" in sentence_text or "-" in sentence_text


def extract_statements(text: str, mode: str = "strict") -> list[Statement]:
    """Extract diagnosis statements with their spans and hedge flags."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    informal = mode == "informal"
    statements: list[Statement] = []
    for sent in _SENTENCE_RE.finditer(text):
        sentence_text = sent.group()
        start, end = sent.span()
        # An anchor ends at a ":" or "-", so the search stops after the last one.
        stop = start + max(sentence_text.rfind(":"), sentence_text.rfind("-")) + 1
        found = _ANCHOR_RE.finditer(text, start, stop) if _may_hold_anchor(sentence_text) else ()
        anchors = [m for m in found if _lex(m.group(1).lower()).anchor]
        if anchors:  # a region: the words after one anchor, up to the next anchor word
            ends = [m.start() for m in anchors[1:]] + [end]
            regions = [_words(text, m.end(), e) for m, e in zip(anchors, ends)]
        elif _initial_trigger(sentence_text):
            regions = [_words(text, start, end)]
        else:
            continue
        hedged = _HEDGE_RE.search(sentence_text.lower()) is not None
        for region in regions:
            statements.extend(
                _build_statements(text, region, informal, hedged, sentence_text)
            )
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
