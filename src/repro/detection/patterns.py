"""Pattern-based entity detectors (emails, URLs, phone numbers).

"Pattern based entities are primarily detected by regular expressions.
To provide a level of consistent behavior to the end user, pattern
based entities are not subject to any relevance calculations [and] are
always annotated and shown to the user" (Section II-A).  The ranking
experiments therefore exclude them; the pipeline still detects and
annotates them for completeness.
"""

from __future__ import annotations

import re
from typing import Callable, List, Tuple

from repro.detection.base import KIND_PATTERN, Detection

# (start, end, pattern type) of one pattern entity in a text
PatternMatch = Tuple[int, int, str]

# Emails are what `\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b`
# finds (``tests/reference.py`` keeps that expression), found in time
# linear in the text: the regex itself restarts at every word boundary
# of a dotted run and rescans to the run's end, quadratic on text like
# ``"a." * n + "@" + "a." * n``.  The scan anchors at each "@" instead:
_LOCAL_AT_RE = re.compile(r"(?<![A-Za-z0-9._%+-])[A-Za-z0-9._%+-]*@")
_DOMAIN_RUN_RE = re.compile(r"[A-Za-z0-9.-]*")
_LAST_TLD_RE = re.compile(r".*\.[A-Za-z]{2,}\b", re.DOTALL)
_BOUNDARY_RE = re.compile(r"\b")


def _email_spans(text: str) -> List[Tuple[int, int]]:
    """``(start, end)`` of every email, as the regex's ``finditer``.

    A match's "@" is the first character after its start that is not a
    local-part character, so every "@" has one candidate local part:
    the run of those characters before it (`_LOCAL_AT_RE` yields each
    "@" with its run, starting only where a run starts).  The match
    starts at the run's first word boundary at or after the previous
    match's end.  Its domain lies in the run of domain characters after
    the "@": the regex's greedy domain takes the last ``.`` there that
    is followed by two or more letters and a word boundary, which
    `_LAST_TLD_RE` finds by the same backtracking, over that run alone.
    The runs before and after different "@"s are disjoint, so the scan
    reads each character a bounded number of times.
    """
    spans: List[Tuple[int, int]] = []
    resume = 0  # finditer resumes after the previous match
    for local in _LOCAL_AT_RE.finditer(text):
        at = local.end() - 1
        begin = max(local.start(), resume)
        if begin >= at:
            continue
        domain_end = _DOMAIN_RUN_RE.match(text, at + 1).end()
        # one character past the run, for the final word boundary; the
        # domain needs one character before its last dot
        tail = _LAST_TLD_RE.match(text[at + 1 : domain_end + 1], 1)
        if tail is None:
            continue
        boundary = _BOUNDARY_RE.search(text, begin, at)
        if boundary is None or boundary.start() >= at:
            continue
        resume = at + 1 + tail.end()
        spans.append((boundary.start(), resume))
    return spans


def _regex_spans(regex: "re.Pattern[str]") -> Callable[[str], List[Tuple[int, int]]]:
    return lambda text: [match.span() for match in regex.finditer(text)]


_URL_RE = re.compile(
    r"\b(?:https?://|www\.)[A-Za-z0-9.-]+\.[A-Za-z]{2,}(?:/[^\s<>\"')\]]*)?",
)
_PHONE_RE = re.compile(
    r"""
    (?<![\w.])
    (?:\+?1[-.\s])?          # optional country code
    (?:\(\d{3}\)\s?|\d{3}[-.\s])  # area code
    \d{3}[-.\s]\d{4}
    (?![\w-])
    """,
    re.VERBOSE,
)

# `_PHONE_RE`'s \d matches every Unicode decimal digit, so the digit
# gate must too.  ASCII text can hold only the ten ASCII digits, and ten
# substring probes find one far faster than a regex search.
_DIGIT_RE = re.compile(r"\d")
_ASCII_DIGITS = "0123456789"


def _has_email_marker(text: str) -> bool:
    return "@" in text


def _has_url_marker(text: str) -> bool:
    return "://" in text or "www." in text


def _has_digit(text: str) -> bool:
    if text.isascii():
        return any(digit in text for digit in _ASCII_DIGITS)
    return _DIGIT_RE.search(text) is not None


# (pattern type, span finder, gate).  Each gate is a necessary condition
# of its pattern (every email match contains "@", every URL match "://"
# or "www.", every phone match a digit), so skipping a scan when the
# gate fails cannot drop a match — it just spares prose documents three
# full passes.
_PATTERNS = (
    ("email", _email_spans, _has_email_marker),
    ("url", _regex_spans(_URL_RE), _has_url_marker),
    ("phone", _regex_spans(_PHONE_RE), _has_digit),
)


class PatternDetector:
    """Pattern detector for emails, URLs, and phone numbers."""

    def matches(self, text: str) -> List[PatternMatch]:
        """``(start, end, pattern type)`` of every pattern entity in
        *text*, ordered by start, longer first."""
        found: List[PatternMatch] = []
        for pattern_type, spans, gate in _PATTERNS:
            if gate(text):
                found.extend((start, end, pattern_type) for start, end in spans(text))
        found.sort(key=lambda match: (match[0], match[0] - match[1]))
        return found

    def detect(self, text: str) -> List[Detection]:
        """All pattern entities in *text*, in document order."""
        return [
            Detection.make(
                text[start:end],
                start,
                end,
                KIND_PATTERN,
                pattern_type,
                tuple(text[start:end].lower().split()),
            )
            for start, end, pattern_type in self.matches(text)
        ]
