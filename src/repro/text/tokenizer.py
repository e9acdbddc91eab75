"""Tokenization with character offsets, sentence and paragraph boundaries.

The Contextual Shortcuts pre-processing stage (paper Section II) performs
"HTML parsing, tokenization, sentence, and paragraph boundary detection".
This module supplies the tokenization and boundary-detection pieces.

There is one word pass.  :func:`tokenize_lower` returns a text's
lower-cased word tokens and :func:`word_spans` adds their character
offsets, so detected entities can later be annotated in place (the
paper's "output annotation" step) and documents partitioned into
character windows (Section V-A.1) without losing token alignment.  ASCII
text is split on a byte mask; other text runs `_TOKEN_RE`, whose word
branch defines a word token (``tests/reference.py`` keeps the seed's
regex ``tokenize`` that both are held equal to).
"""

from __future__ import annotations

import itertools
import re
import threading
from typing import Iterator, List, Union

import numpy as np

_TOKEN_RE = re.compile(
    r"""
    [A-Za-z]+(?:'[A-Za-z]+)?   # words, with internal apostrophe (don't, O'Brien)
    | \d+(?:[.,]\d+)*          # numbers, incl. 1,234.5
    | \S                       # any other single non-space char (punctuation)
    """,
    re.VERBOSE,
)

# The word mask: each ASCII letter byte maps to its lower-case letter,
# every other byte to a space.  For ASCII text, the letter runs of the
# masked bytes, joined by the apostrophes `_word_mask` puts back, are
# exactly the word tokens of `_TOKEN_RE`: its number and \S branches
# never consume a letter, and its word branch is maximal.  Non-ASCII
# text breaks the equivalence (a single non-ASCII letter tokenizes via
# \S yet passes isalpha), so it keeps the regex.
_WORD_MASK = bytes(
    byte + 32 if 65 <= byte <= 90 else byte if 97 <= byte <= 122 else 32
    for byte in range(256)
)
_SPACE = 32
_APOSTROPHE = 39

# Sentence terminators followed by whitespace and an upper-case/digit start.
_SENTENCE_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9\"'(])")

_PARAGRAPH_BOUNDARY_RE = re.compile(r"\n\s*\n")

# Invocation counter for the hot-path benchmarks: the single-pass
# refactor is judged by how many word passes (`word_spans` or
# `tokenize_lower` calls) run per document, so the count must be
# observable from outside the module.  The counter itself is an
# `itertools.count` — a single atomic `next()` on the hot path, so a
# word pass never takes a lock and concurrent callers cannot lose
# increments.  Readers subtract the draws the accessor functions
# themselves consume (each read/reset burns one tick) plus the baseline
# recorded at the last reset; that bookkeeping is mutated under
# `_COUNTER_LOCK` since reads are not performance-critical.
_counter = itertools.count()
_COUNTER_LOCK = threading.Lock()
_counter_overhead = 0  # ticks consumed by read/reset calls, not word passes
_counter_base = 0  # word-pass ticks already counted at the last reset


def tokenize_call_count() -> int:
    """Number of word passes since the last reset."""
    global _counter_overhead
    with _COUNTER_LOCK:
        drawn = next(_counter)
        calls = drawn - _counter_overhead - _counter_base
        _counter_overhead += 1
        return calls


def reset_tokenize_call_count() -> None:
    """Zero the invocation counter (benchmark/test instrumentation)."""
    global _counter_overhead, _counter_base
    with _COUNTER_LOCK:
        drawn = next(_counter)
        _counter_base = drawn - _counter_overhead
        _counter_overhead += 1


_ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "sen", "rep", "gov", "gen",
        "col", "sgt", "lt", "st", "jr", "sr", "inc", "corp", "co",
        "vs", "etc", "e.g", "i.e", "u.s", "u.k", "no", "dept",
    }
)


def _word_mask(text: str) -> Union[bytes, bytearray]:
    """ASCII *text* as bytes, one space added at each end, with every
    byte outside a word token a space and every letter lower-cased.

    The word branch of `_TOKEN_RE` keeps an apostrophe only between two
    letters, and in a chain of letter runs joined by single apostrophes
    it keeps every other one, starting with the first: ``a'b'c'd`` is
    ``a'b``, ``c'd``.  The mask turns every apostrophe into a space; the
    loop puts back the kept ones.  It walks the apostrophes, not the
    words, because text has few (about 31 in a 4.2 KB news story).  An
    apostrophe is the second of a pair exactly when the non-letter
    before its letter run is the last one kept.  The padding keeps every
    apostrophe's neighbours, and every word's end, inside the buffer.
    """
    raw = (" " + text + " ").encode("ascii")
    masked = raw.translate(_WORD_MASK)
    position = raw.find(b"'")
    if position < 0:
        return masked
    buffer = bytearray(masked)
    kept = -1
    find = raw.find
    rfind = masked.rfind
    while position >= 0:
        if (
            masked[position - 1] != _SPACE
            and masked[position + 1] != _SPACE
            and rfind(b" ", 0, position) != kept
        ):
            buffer[position] = _APOSTROPHE
            kept = position
        position = find(b"'", position + 1)
    return buffer


def word_spans(text: str):
    """``(words, starts, ends)``: :func:`tokenize_lower` plus each word's
    character span.

    This is the serving path's word pass: it feeds the shared
    ``TokenizedDocument`` views and the compiled detection kernels.
    *starts* and *ends* are ``int64`` arrays: a document's offsets are
    read only at its matched spans, so they never become lists.  Counts
    as one word pass.
    """
    next(_counter)
    if not text.isascii():
        words: List[str] = []
        starts: List[int] = []
        ends: List[int] = []
        for match in _TOKEN_RE.finditer(text):
            token = match.group()
            if token[:1].isalpha():
                words.append(token.lower())
                starts.append(match.start())
                ends.append(match.end())
        return (
            words,
            np.array(starts, dtype=np.int64),
            np.array(ends, dtype=np.int64),
        )
    # The words are the masked text's space-separated runs.  A word's
    # bounds are the edges of the mask, whose padding byte shifts each
    # edge's index onto the word's character offset.
    masked = _word_mask(text)
    in_word = np.frombuffer(masked, dtype=np.uint8) != _SPACE
    edges = np.flatnonzero(in_word[1:] != in_word[:-1])
    return masked.decode("ascii").split(), edges[0::2], edges[1::2]


def tokenize_lower(text: str) -> List[str]:
    """Lower-cased word tokens only (punctuation and numbers dropped).

    This is the normalization used throughout feature extraction and
    the offline build: the paper lower-cases all terms and strips
    surrounding punctuation.  ASCII text is split on the word mask, as
    in :func:`word_spans`.  For other text, `_TOKEN_RE` has only
    non-capturing groups, so ``findall`` yields its full-match tokens,
    and a word token is one that starts with a letter.  Counts as one
    word pass.
    """
    next(_counter)
    if text.isascii():
        return _word_mask(text).decode("ascii").split()
    return [match.lower() for match in _TOKEN_RE.findall(text) if match[:1].isalpha()]


def _is_abbreviation_boundary(text: str, boundary_start: int) -> bool:
    """True if the sentence split at *boundary_start* follows an abbreviation."""
    prefix = text[:boundary_start].rstrip()
    if not prefix.endswith("."):
        return False
    word_match = re.search(r"([A-Za-z][A-Za-z.]*)\.$", prefix)
    if word_match is None:
        return False
    return word_match.group(1).lower() in _ABBREVIATIONS


def sentences(text: str) -> List[str]:
    """Split *text* into sentences using punctuation heuristics.

    Common abbreviations ("Sen.", "Dr.", "U.S.") do not end sentences.
    """
    pieces: List[str] = []
    last = 0
    for match in _SENTENCE_BOUNDARY_RE.finditer(text):
        if _is_abbreviation_boundary(text, match.start()):
            continue
        pieces.append(text[last : match.start()].strip())
        last = match.end()
    tail = text[last:].strip()
    if tail:
        pieces.append(tail)
    return [piece for piece in pieces if piece]


def paragraphs(text: str) -> List[str]:
    """Split *text* into paragraphs on blank lines."""
    return [part.strip() for part in _PARAGRAPH_BOUNDARY_RE.split(text) if part.strip()]


def iter_ngrams(words: List[str], max_len: int) -> Iterator[tuple]:
    """Yield all contiguous word n-grams up to *max_len* as tuples.

    Used by the dictionary and concept detectors to enumerate candidate
    phrases in a document.
    """
    count = len(words)
    for size in range(1, max_len + 1):
        for start in range(count - size + 1):
            yield tuple(words[start : start + size])
