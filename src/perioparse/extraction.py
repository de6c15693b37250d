"""Rule-grammar extraction of diagnosis entities from note text.

This module alone decides what a surface string means: it holds the
dimension vocabularies, and `normalize_value` reads one span string by the
rules the grammar applies to a note.

The tokenizer is non-destructive: tokens plus the whitespace between them
reconstruct the input byte for byte, so character offsets stay valid no
matter what consumes them downstream.

The grammar recognizes diagnosis statements (anchored by "D:", "Dx:",
"Diagnosis:", "D-", or opening a sentence) and, inside them, status words,
stage and grade markers, extent adjectives, and periodontium subtype
phrases. Entity words of four or more letters tolerate a single-character
typo; each distinct token is matched against the vocabulary once. Extent
adjectives attach to the nearest status-like head on their right;
adjectives whose head is an unrelated noun (e.g. "Generalized Recession")
yield no span.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .model import (
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

# Words that, followed by ":" or "-", open a diagnosis region.
_ANCHORS = ("d", "dx", "diagnosis")

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

ROMAN_STAGES: dict[str, Stage] = {"i": Stage.I, "ii": Stage.II, "iii": Stage.III, "iv": Stage.IV}
ARABIC_STAGES: dict[str, Stage] = {"1": Stage.I, "2": Stage.II, "3": Stage.III, "4": Stage.IV}
GRADE_LETTERS: dict[str, Grade] = {"a": Grade.A, "b": Grade.B, "c": Grade.C}

#: Every word the grammar matches with one edit allowed (see `_match_word`).
#: The offline typo injector rejects a typo within one edit of any of them
#: but its source word, so a typo always resolves back to that word.
GRAMMAR_WORDS = (
    *STATUS_VOCAB,
    *EXTENT_VOCAB,
    "stage",
    "grade",
    "intact",
    "reduced",
    "periodontium",
    "stable",
    "past",
    "diagnosis",
)

MODES = ("strict", "informal")

# Hedge cues, matched as whole words: "unlikely" is not "likely".
_HEDGE_RE = re.compile(
    r"\b(?:to be confirmed|to confirm|possible|possibly|probable|likely|suspected"
    r"|rule out|r/o|pending)\b"
)

# Adjectives an extent word may look past when searching for its head.
_HEAD_SKIP_WORDS = {"chronic", "mild", "moderate", "severe", "advanced", "early", "slight"}

# Connectors allowed between "reduced periodontium" and its qualifier.
_QUALIFIER_SKIP = {",", ";", "-", "/", "with", "due", "to", "on", "a", "an", "of", "from"}

# Words that mark a preceding-context "periodontitis" as part of a subtype
# phrase or a negation, not a status mention.
_STATUS_GUARDS = ("stable", "past", "non")

_PERIO_CONTEXT = re.compile(r"periodont|gingiv", re.IGNORECASE)

_WORD_RE = re.compile(r"[^\W_]+")  # exactly the tokens `_is_word` accepts
_TOKEN_RE = re.compile(r"[^\W_]+|\S", re.UNICODE)
_SENTENCE_RE = re.compile(r"[^.!?\n]+")


class Token(NamedTuple):
    """A tokenizer unit anchored at character offsets [start, end)."""

    text: str
    start: int
    end: int


def tokenize(text: str, pos: int = 0, endpos: int = sys.maxsize) -> list[Token]:
    """Split text into maximal alphanumeric runs and single punctuation marks.

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


@lru_cache(maxsize=4096)
def _words(token_lower: str) -> frozenset[str]:
    """The token and, if it has four or more letters, each grammar word one edit from it."""
    if len(token_lower) < 4:
        return frozenset((token_lower,))
    return frozenset([token_lower, *(w for w in GRAMMAR_WORDS if within_one_edit(token_lower, w))])


def _match_word(token_lower: str, word: str) -> bool:
    """Vocabulary match tolerating one edit in a `GRAMMAR_WORDS` entry."""
    return word in _words(token_lower)


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
            if _word_before(low, m.start()) in _STATUS_GUARDS:
                continue
            found = join(found, PeriodontalStatus.PERIODONTITIS)
            break
        if "gingivitis" in low:
            found = join(found, PeriodontalStatus.GINGIVITIS)
        if re.search(r"\bhealthy?\b", low) and _PERIO_CONTEXT.search(low):
            found = join(found, PeriodontalStatus.HEALTH)
    return found


def _is_word(tok: Token) -> bool:
    return tok.text[0].isalnum()


def _next_content(tokens: list[Token], i: int) -> int | None:
    for j in range(i + 1, len(tokens)):
        if _is_word(tokens[j]):
            return j
    return None


def _prev_content(tokens: list[Token], i: int) -> int | None:
    for j in range(i - 1, -1, -1):
        if _is_word(tokens[j]):
            return j
    return None


def _match_subtype(tokens: list[Token], i: int):
    """Try a periodontium subtype phrase starting at token i.

    Returns (value_or_None, last_token_index) when the opener matched, else None.
    A bare "reduced periodontium" without a qualifier consumes its tokens but
    carries no determinable value.
    """
    low = tokens[i].text.lower()
    if _match_word(low, "intact"):
        j = _next_content(tokens, i)
        if j is not None and _match_word(tokens[j].text.lower(), "periodontium"):
            return Subtype.INTACT_PERIODONTIUM, j
        return None
    if not _match_word(low, "reduced"):
        return None
    j = _next_content(tokens, i)
    if j is None or not _match_word(tokens[j].text.lower(), "periodontium"):
        return None
    # qualifier scan
    k = j + 1
    while k < len(tokens) and tokens[k].text.lower() in _QUALIFIER_SKIP:
        k += 1
    if k < len(tokens):
        klow = tokens[k].text.lower()
        if _match_word(klow, "stable") or _match_word(klow, "past"):
            m = _next_content(tokens, k)
            if m is not None and tokens[m].text.lower() in ("stable", "past"):
                m = _next_content(tokens, m)
            if m is not None and _match_word(tokens[m].text.lower(), "periodontitis"):
                return Subtype.REDUCED_PERIODONTIUM_STABLE_PERIODONTITIS, m
        elif klow == "non":
            m = _next_content(tokens, k)
            if m is not None and _match_word(tokens[m].text.lower(), "periodontitis"):
                return Subtype.REDUCED_PERIODONTIUM_NON_PERIODONTITIS, m
    return None, j  # bare "reduced periodontium": consume, no value


def _vocab_value(low: str, vocab: dict, sentence_text: str | None = None):
    """The value of the `vocab` word `low` matches, or None.

    Words of different value are three or more edits apart, so at most one
    value matches. Health words need periodontal context in `sentence_text`, if given.
    """
    for word, value in vocab.items():
        if _match_word(low, word):
            if value is PeriodontalStatus.HEALTH and sentence_text is not None:
                return value if _PERIO_CONTEXT.search(sentence_text) else None
            return value
    return None


def normalize_value(dimension: Dimension, raw_text: str):
    """The value one span string denotes under the grammar's rules, or None.

    Stages are roman I-IV or arabic 1-4, grades a letter, in any case. Words
    match as in a note, one edit allowed in a word of four or more letters;
    a subtype phrase may use the connectors the grammar skips ("with", "on
    a", ",", ...) and must end on its last token.
    """
    raw = raw_text.strip().lower()
    if not raw:
        return None
    if dimension is Dimension.STAGE:
        return ROMAN_STAGES.get(raw) or ARABIC_STAGES.get(raw)
    if dimension is Dimension.GRADE:
        return GRADE_LETTERS.get(raw)
    if dimension is Dimension.STATUS:
        return _vocab_value(raw, STATUS_VOCAB)
    if dimension is Dimension.EXTENT:
        return _vocab_value(raw, EXTENT_VOCAB)
    if dimension is Dimension.SUBTYPE:
        tokens = tokenize(raw)
        value, last = _match_subtype(tokens, 0) or (None, -1)
        return value if last == len(tokens) - 1 else None
    raise ValueError(f"unknown dimension {dimension!r}")


def _token_span(dimension: Dimension, value, tok: Token) -> EntitySpan:
    return EntitySpan(dimension, value, tok.start, tok.end, tok.text)


def _scan_elements(text: str, tokens: list[Token], informal: bool, sentence_text: str):
    """Pass A: classify region tokens into elements and extent candidates.

    Elements are (span, first token, last token) in token order; extent
    candidates are (span, token index).
    """
    elements: list[tuple[EntitySpan, int, int]] = []
    extents: list[tuple[EntitySpan, int]] = []
    stage_value_tokens: set[int] = set()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not _is_word(tok):
            i += 1
            continue
        low = tok.text.lower()

        sub = _match_subtype(tokens, i)
        if sub is not None:
            value, last = sub
            if value is not None:
                end = tokens[last].end
                span = EntitySpan(Dimension.SUBTYPE, value, tok.start, end, text[tok.start : end])
                elements.append((span, i, last))
            i = last + 1
            continue

        status = _vocab_value(low, STATUS_VOCAB, sentence_text)
        if status is PeriodontalStatus.PERIODONTITIS:
            prev = _prev_content(tokens, i)
            if prev is not None and any(
                _match_word(tokens[prev].text.lower(), g) for g in _STATUS_GUARDS
            ):
                status = None
        if status is not None:
            elements.append((_token_span(Dimension.STATUS, status, tok), i, i))
            i += 1
            continue

        if _match_word(low, "stage"):
            j = _next_content(tokens, i)
            if j is not None:
                jlow = tokens[j].text.lower()
                stage = ROMAN_STAGES.get(jlow) or ARABIC_STAGES.get(jlow)
                if stage is not None:
                    elements.append((_token_span(Dimension.STAGE, stage, tokens[j]), i, j))
                    stage_value_tokens.add(j)
                    i = j + 1
                    continue

        if _match_word(low, "grade"):
            j = _next_content(tokens, i)
            if j is not None and len(tokens[j].text) == 1:
                grade = GRADE_LETTERS.get(tokens[j].text.lower())
                if grade is not None:
                    elements.append((_token_span(Dimension.GRADE, grade, tokens[j]), i, j))
                    i = j + 1
                    continue

        if informal:
            # Bare roman numeral directly followed by a bare grade letter.
            if low in ROMAN_STAGES and tok.text.isupper():
                j = _next_content(tokens, i)
                if j is not None and tokens[j].text in ("A", "B", "C"):
                    elements.append((_token_span(Dimension.STAGE, ROMAN_STAGES[low], tok), i, i))
                    stage_value_tokens.add(i)
                    i += 1
                    continue
            # Bare grade letter trailing a stage value token.
            if tok.text in ("A", "B", "C") and _prev_content(tokens, i) in stage_value_tokens:
                elements.append((_token_span(Dimension.GRADE, GRADE_LETTERS[low], tok), i, i))
                i += 1
                continue

        extent = _vocab_value(low, EXTENT_VOCAB, sentence_text)
        if extent is not None:
            extents.append((_token_span(Dimension.EXTENT, extent, tok), i))
        i += 1
    return elements, extents


def _build_statements(
    text: str, tokens: list[Token], informal: bool, hedged: bool, sentence_text: str
) -> list[Statement]:
    """Pass B and C: group elements into statements and attach extents."""
    elements, extents = _scan_elements(text, tokens, informal, sentence_text)
    if not elements:
        return []

    # A statement holds at most one element per dimension; a repeated
    # dimension opens the next one.
    groups: list[dict[Dimension, EntitySpan]] = []
    head_group: dict[int, int] = {}  # token of a status/stage/grade element -> its group
    for span, first, last in elements:
        if not groups or span.dimension in groups[-1]:
            groups.append({})
        groups[-1][span.dimension] = span
        if span.dimension is not Dimension.SUBTYPE:
            head_group.update(dict.fromkeys(range(first, last + 1), len(groups) - 1))

    statement_spans = [list(group.values()) for group in groups]
    for span, idx in extents:
        for j in range(idx + 1, len(tokens)):
            if _is_word(tokens[j]) and tokens[j].text.lower() not in _HEAD_SKIP_WORDS:
                if j in head_group:
                    statement_spans[head_group[j]].append(span)
                break

    statements = []
    for spans in statement_spans:
        spans.sort(key=lambda s: s.start)
        statements.append(
            Statement(tuple(spans), hedged=hedged, start=spans[0].start, end=spans[-1].end)
        )
    return statements


def _find_anchor_regions(tokens: list[Token]) -> list[int]:
    """Indices just past each anchor ("D" ":") within a sentence's tokens."""
    return [
        i + 2
        for i in range(len(tokens) - 1)
        if tokens[i + 1].text in (":", "-")
        and any(_match_word(tokens[i].text.lower(), a) for a in _ANCHORS)
    ]


def _initial_trigger(sentence_text: str) -> bool:
    """Does the sentence open with a diagnosis phrase? Reads only its first two words."""
    for m in islice(_WORD_RE.finditer(sentence_text), 2):
        low = m.group().lower()
        if (
            _vocab_value(low, EXTENT_VOCAB, sentence_text) is not None
            or _vocab_value(low, STATUS_VOCAB, sentence_text) is not None
            or any(_match_word(low, word) for word in ("stage", "intact", "reduced"))
        ):
            return True
    return False


def _may_hold_anchor(sentence_text: str) -> bool:
    """An anchor needs a ":" or "-" token; only such sentences are tokenized to look for one."""
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
        # No token crosses a sentence boundary: the sentence terminators are
        # neither word characters nor part of a multi-character token.
        tokens = tokenize(text, start, end) if _may_hold_anchor(sentence_text) else None
        anchor_starts = _find_anchor_regions(tokens) if tokens else []
        if anchor_starts:
            bounds = anchor_starts + [len(tokens) + 2]
            regions = [tokens[a : max(a, b - 2)] for a, b in zip(bounds, bounds[1:])]
        elif _initial_trigger(sentence_text):
            regions = [tokens or tokenize(text, start, end)]
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
    spans = [
        span
        for statement in extract_statements(text, mode)
        for span in statement.spans
    ]
    spans.sort(key=lambda s: s.start)
    return spans


def diagnose(
    text: str, mode: str = "strict"
) -> tuple[tuple[EntitySpan, ...], DiagnosisRecord | None]:
    """Note text to its spans, in statement order, and its one adjudicated record."""
    statements = extract_statements(text, mode)
    spans = tuple(span for statement in statements for span in statement.spans)
    return spans, adjudicate(infer_status_context(statements))
