"""The Contextual Shortcuts detection pipeline.

Glues together the pre-processing and the three detectors, then applies
the paper's post-processing: "collision detection between overlapping
entities, disambiguation, filtering, and output annotation"
(Section II).  The pipeline output — candidate entities with concept-
vector scores — is exactly what the ranking layer consumes, and
ranking by the concept-vector score alone *is* the paper's baseline
production system.  The runtime ranker replaces every one of those
scores, so it asks for the candidates unscored
(``process_document(..., score=False)``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.detection.base import (
    KIND_CONCEPT,
    KIND_NAMED,
    KIND_PATTERN,
    KIND_PRIORITY,
    Detection,
)
from repro.detection.concepts import ConceptDetector
from repro.detection.conceptvector import ConceptVectorScorer
from repro.detection.kernel import DetectionKernel, Phrase
from repro.detection.named import NamedEntityDetector, NamedRecord, entity_types
from repro.detection.patterns import PatternDetector
from repro.text.html import strip_html
from repro.text.tokenized import DocumentLike, TokenizedDocument

PATTERN = KIND_PRIORITY[KIND_PATTERN]
_NAMED = KIND_PRIORITY[KIND_NAMED]
_CONCEPT = KIND_PRIORITY[KIND_CONCEPT]
_KIND_OF = {code: kind for kind, code in KIND_PRIORITY.items()}

# One candidate of a document: (start, end, kind, terminal, entity type,
# key).  *kind* is the kind's collision priority (`KIND_PRIORITY`),
# *terminal* the detector scan's terminal state of a phrase match (-1 for
# a pattern match), and *key* the lower-cased surface text
# ``text[start:end].lower()``, the phrase key dedup and the stores use.
CandidateRow = Tuple[int, int, int, int, Optional[str], str]


class TerminalColumns:
    """Per-terminal columns of one kernel's detector scan, built when
    the kernel is attached: ``phrases[terminal]`` is the matched
    phrase's words, ``keys[terminal]`` the canonical phrase (the words
    joined by single spaces) and ``records[terminal]`` its named-entity
    record (None where no dictionary phrase ends).  The kernel rides
    along, so one attribute publishes all of them."""

    __slots__ = ("kernel", "phrases", "keys", "records")

    def __init__(
        self, kernel: DetectionKernel, named: Optional[NamedEntityDetector]
    ):
        self.kernel = kernel
        self.phrases: List[Optional[Phrase]] = kernel.phrases
        self.keys: List[Optional[str]] = [
            " ".join(phrase) if phrase is not None else None
            for phrase in self.phrases
        ]
        self.records: List[Optional[NamedRecord]] = [
            named.record(key) if named is not None and key is not None else None
            for key in self.keys
        ]


class Candidates(Sequence[Detection]):
    """A document's collision-resolved, deduplicated candidates.

    ``rows`` hold them as :data:`CandidateRow` columns, in document
    order.  As a sequence they are :class:`Detection` objects with 0.0
    scores, built on first access; ``len`` builds none, and
    :meth:`detection` builds one for a caller that needs only a few.
    """

    __slots__ = ("text", "rows", "columns", "_detections")

    def __init__(self, text: str, rows: List[CandidateRow], columns: TerminalColumns):
        self.text = text
        self.rows = rows
        self.columns = columns
        self._detections: Optional[List[Detection]] = None

    def detection(self, row: CandidateRow, score: float = 0.0) -> Detection:
        """The :class:`Detection` of one of the rows, scored *score*."""
        start, end, kind, terminal, entity_type, key = row
        return Detection.make(
            self.text[start:end],
            start,
            end,
            _KIND_OF[kind],
            entity_type,
            self.columns.phrases[terminal] if terminal >= 0 else tuple(key.split()),
            score,
        )

    def _built(self) -> List[Detection]:
        if self._detections is None:
            self._detections = [self.detection(row) for row in self.rows]
        return self._detections

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self._built()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence):
            return self._built() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(self._built())


@dataclass
class AnnotatedDocument:
    """Pipeline output: plain text plus scored, collision-free detections.

    *tokens* is the shared token stream the pipeline analysed, carried
    along so downstream consumers (the ranker's relevance context) can
    reuse it instead of re-tokenizing; it never affects equality.
    """

    text: str
    detections: Sequence[Detection] = field(default_factory=list)
    tokens: Optional[TokenizedDocument] = field(
        default=None, repr=False, compare=False
    )

    def rankable(self) -> List[Detection]:
        """Detections subject to ranking (pattern entities are always shown)."""
        return [d for d in self.detections if d.kind != KIND_PATTERN]

    def by_concept_vector_score(self) -> List[Detection]:
        """Rankable detections ordered by the baseline score, descending."""
        return sorted(self.rankable(), key=lambda d: (-d.score, d.start))

    def annotate(self, marker: str = "[[{}]]") -> str:
        """The text with every detection wrapped (the "intelligent
        hyperlink" annotation step, rendered as plain markers)."""
        pieces: List[str] = []
        cursor = 0
        for detection in sorted(self.detections, key=lambda d: d.start):
            pieces.append(self.text[cursor : detection.start])
            pieces.append(marker.format(self.text[detection.start : detection.end]))
            cursor = detection.end
        pieces.append(self.text[cursor:])
        return "".join(pieces)


def resolve_candidates(
    text: str,
    patterns: Sequence[Tuple[int, int, str]],
    named: Sequence[Tuple[int, int, int]],
    named_types: Sequence[str],
    concepts: Sequence[Tuple[int, int, int]],
) -> List[CandidateRow]:
    """Collision resolution, then first-occurrence dedup, over id columns.

    *patterns* are ``(start, end, type)`` pattern matches, *named* and
    *concepts* the detector scan's ``(start, end, terminal)`` matches,
    *named_types* the named matches' entity types.  Overlapping spans
    keep the higher priority: the longer span, then pattern > named >
    concept, then the earlier start.  The spans are taken in priority
    order, and a span is kept unless a kept one overlaps it: the kept
    spans' offsets, start and end alternately, form one sorted list,
    so one bisect decides.  Of the survivors, the first occurrence of
    each surface key stays: an entity is annotated once per page, and
    views/clicks are counted per entity, not per occurrence (Section
    III).
    """
    # (-length, -kind priority, start, index within kind, end, terminal,
    # type): sorted, the tuples come in priority order, ties in input order
    ranked = sorted(
        [(s - e, -PATTERN, s, i, e, -1, t) for i, (s, e, t) in enumerate(patterns)]
        + [
            (s - e, -_NAMED, s, i, e, terminal, entity_type)
            for i, ((s, e, terminal), entity_type) in enumerate(zip(named, named_types))
        ]
        + [
            (s - e, -_CONCEPT, s, i, e, terminal, None)
            for i, (s, e, terminal) in enumerate(concepts)
        ]
    )
    bounds: List[int] = []  # start, end of each kept span, in order
    kept = []
    for __, kind, start, __, end, terminal, entity_type in ranked:
        at = bisect_right(bounds, start)
        if at & 1 or (at < len(bounds) and bounds[at] < end):
            continue
        bounds[at:at] = (start, end)
        kept.append((start, end, -kind, terminal, entity_type))
    kept.sort()
    seen = set()
    rows: List[CandidateRow] = []
    for start, end, kind, terminal, entity_type in kept:
        key = text[start:end].lower()
        if key not in seen:
            seen.add(key)
            rows.append((start, end, kind, terminal, entity_type, key))
    return rows


class ShortcutsPipeline:
    """End-to-end detection: HTML -> candidates with baseline scores.

    Every document runs through one compiled
    :class:`~repro.detection.kernel.DetectionKernel`: it interns the
    document for the stemmer pass, its one detector scan feeds both
    phrase detectors, and its id-space passes build the concept vector.
    *kernel* attaches a prebuilt kernel (typically loaded from a data
    pack), which must have been compiled for the detectors'
    inventories; with None the pipeline compiles one from its live
    inventories the first time it processes a document.
    """

    def __init__(
        self,
        concept_detector: ConceptDetector,
        scorer: ConceptVectorScorer,
        named_detector: Optional[NamedEntityDetector] = None,
        pattern_detector: Optional[PatternDetector] = None,
        kernel: Optional[DetectionKernel] = None,
    ):
        self._concepts = concept_detector
        self._scorer = scorer
        self._named = named_detector
        self._patterns = pattern_detector or PatternDetector()
        self._columns: Optional[TerminalColumns] = None
        if kernel is not None:
            self.attach_kernel(kernel)

    # -- compiled kernel -------------------------------------------------

    @property
    def kernel(self) -> Optional[DetectionKernel]:
        """The attached kernel (None until the first document compiles one)."""
        return self._columns.kernel if self._columns is not None else None

    def compile_kernel(self, vocab_terms=(), stem_of=None) -> DetectionKernel:
        """Compile a kernel from the live inventories and attach it.

        *vocab_terms*/*stem_of* seed the vocabulary and stem table
        (typically a corpus vocabulary with its precomputed stems);
        phrase and unit tokens the vocabulary is missing are folded in
        by the builder.  Returns the attached kernel.
        """
        if not vocab_terms:
            vocab_terms = self._scorer.doc_frequency.terms()
        kernel = DetectionKernel.build(
            concept_phrases=self._concepts.inventory(),
            named_phrases=(
                self._named.inventory() if self._named is not None else None
            ),
            lexicon=self._scorer.lexicon,
            vocab_terms=vocab_terms,
            stem_of=stem_of,
        )
        self.attach_kernel(kernel)
        return kernel

    def attach_kernel(self, kernel: DetectionKernel) -> None:
        """Attach a compiled detection kernel.

        Raises ``ValueError`` naming the inventory (``concepts`` or
        ``named``) when *kernel* was compiled for other phrases than
        the detectors hold, or has an automaton for a detector this
        pipeline lacks (or lacks one it has); nothing is attached then.
        """
        kernel.check_inventories(
            self._concepts.inventory(),
            self._named.inventory() if self._named is not None else None,
        )
        self._scorer.attach_kernel(kernel)
        self._columns = TerminalColumns(kernel, self._named)

    def _ensure_columns(self) -> TerminalColumns:
        if self._columns is None:
            self.compile_kernel()
        return self._columns

    def stem_document(self, document: TokenizedDocument) -> TokenizedDocument:
        """The stemmer pass for *document*, off the kernel's stem table.

        This is the runtime service's stemmer stage: it interns the
        document and stamps the kernel on it, so the relevance context
        maps its ids to TIDs through the precomputed vocab->stem table
        (Porter only for OOV words).
        """
        return self._ensure_columns().kernel.stem_document(document)

    def process(self, document: DocumentLike, is_html: bool = False) -> AnnotatedDocument:
        """Run the full pipeline on *document* (a string or shared tokens)."""
        if is_html:
            document = strip_html(
                document.text
                if isinstance(document, TokenizedDocument)
                else document
            )
        return self.process_document(TokenizedDocument.of(document))

    def process_document(
        self, document: TokenizedDocument, score: bool = True
    ) -> AnnotatedDocument:
        """The single-pass pipeline: every stage reads *document*'s
        shared token stream; the document is tokenized at most once.

        The detections are the :class:`Candidates` of one detector scan
        plus the pattern matches.  ``score=False`` leaves them as
        columns (0.0 scores, no :class:`Detection` built until read) and
        builds no concept vector: a caller that rescores every detection
        (the runtime ranker) skips the baseline's term weights, unit
        segmentation and merge.
        """
        columns = self._ensure_columns()
        text = document.text
        # one scan serves both phrase detectors
        concepts, named = columns.kernel.scan(document)
        records = columns.records
        candidates = Candidates(
            text,
            resolve_candidates(
                text,
                self._patterns.matches(text),
                named,
                entity_types([records[terminal] for __, __, terminal in named]),
                concepts,
            ),
            columns,
        )
        if not score:
            return AnnotatedDocument(text=text, detections=candidates, tokens=document)
        vector = self._scorer.concept_vector(document)
        score_phrase = self._scorer.score_phrase
        detections = [
            candidates.detection(
                row, 0.0 if row[2] == PATTERN else score_phrase(vector, row[5])
            )
            for row in candidates.rows
        ]
        return AnnotatedDocument(text=text, detections=detections, tokens=document)
