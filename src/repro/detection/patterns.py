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
from typing import List

from repro.detection.base import KIND_PATTERN, Detection

_EMAIL_RE = re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b")
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


# Each gate is a necessary condition of its regex (every email match
# contains "@", every URL match "://" or "www.", every phone match a
# digit), so skipping a scan when the gate fails cannot drop a match —
# it just spares prose documents three full regex passes.
_PATTERNS = (
    ("email", _EMAIL_RE, _has_email_marker),
    ("url", _URL_RE, _has_url_marker),
    ("phone", _PHONE_RE, _has_digit),
)


class PatternDetector:
    """Regex detector for emails, URLs, and phone numbers."""

    def detect(self, text: str) -> List[Detection]:
        """All pattern entities in *text*, in document order."""
        detections: List[Detection] = []
        for pattern_type, regex, gate in _PATTERNS:
            if not gate(text):
                continue
            for match in regex.finditer(text):
                detections.append(
                    Detection(
                        text=match.group(),
                        start=match.start(),
                        end=match.end(),
                        kind=KIND_PATTERN,
                        entity_type=pattern_type,
                        terms=tuple(match.group().lower().split()),
                    )
                )
        detections.sort(key=lambda d: (d.start, -d.length))
        return detections
