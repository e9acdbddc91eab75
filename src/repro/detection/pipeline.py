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

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.detection.base import KIND_PATTERN, Detection
from repro.detection.concepts import ConceptDetector
from repro.detection.conceptvector import ConceptVectorScorer
from repro.detection.kernel import DetectionKernel
from repro.detection.named import NamedEntityDetector
from repro.detection.patterns import PatternDetector
from repro.text.html import strip_html
from repro.text.tokenized import DocumentLike, TokenizedDocument


@dataclass
class AnnotatedDocument:
    """Pipeline output: plain text plus scored, collision-free detections.

    *tokens* is the shared token stream the pipeline analysed, carried
    along so downstream consumers (the ranker's relevance context) can
    reuse it instead of re-tokenizing; it never affects equality.
    """

    text: str
    detections: List[Detection] = field(default_factory=list)
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


def resolve_collisions(detections: List[Detection]) -> List[Detection]:
    """Drop overlapping detections, keeping the higher-priority span.

    Priority: longer span first, then pattern > named > concept.

    The kept spans are pairwise non-overlapping, so ordered by
    ``(start, end)`` their end offsets are non-decreasing; a candidate
    then collides iff the last kept span starting before its end runs
    past its start.  That one bisect replaces the seed's O(n^2)
    all-pairs overlap scan.
    """
    ordered = sorted(
        detections, key=lambda d: (-d.priority()[0], -d.priority()[1], d.start)
    )
    kept: List[Detection] = []
    spans: List[tuple] = []  # kept (start, end), kept sorted
    for candidate in ordered:
        # spans with start < candidate.end are the only overlap risks
        before = bisect_left(spans, (candidate.end,))
        if before and spans[before - 1][1] > candidate.start:
            continue
        insort(spans, (candidate.start, candidate.end))
        kept.append(candidate)
    kept.sort(key=lambda d: d.start)
    return kept


def deduplicate(detections: List[Detection]) -> List[Detection]:
    """Keep only the first occurrence of each phrase.

    An entity is annotated once per page; views/clicks are counted per
    entity, not per occurrence (Section III).
    """
    seen: Dict[str, Detection] = {}
    for detection in detections:
        if detection.phrase not in seen:
            seen[detection.phrase] = detection
    return sorted(seen.values(), key=lambda d: d.start)


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
        self._kernel: Optional[DetectionKernel] = None
        if kernel is not None:
            self.attach_kernel(kernel)

    # -- compiled kernel -------------------------------------------------

    @property
    def kernel(self) -> Optional[DetectionKernel]:
        """The attached kernel (None until the first document compiles one)."""
        return self._kernel

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
        self._kernel = kernel

    def _ensure_kernel(self) -> DetectionKernel:
        if self._kernel is None:
            self.compile_kernel()
        return self._kernel

    def stem_document(self, document: TokenizedDocument) -> TokenizedDocument:
        """The stemmer pass for *document*, off the kernel's stem table.

        This is the runtime service's stemmer stage: it interns the
        document and stamps the kernel on it, so the relevance context
        maps its ids to TIDs through the precomputed vocab->stem table
        (Porter only for OOV words).
        """
        return self._ensure_kernel().stem_document(document)

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

        ``score=False`` returns the same collision-resolved, deduplicated
        detections with their 0.0 scores and builds no concept vector:
        a caller that rescores every detection (the runtime ranker)
        skips the baseline's term weights, unit segmentation and merge.
        """
        kernel = self._ensure_kernel()
        text = document.text

        candidates: List[Detection] = []
        candidates.extend(self._patterns.detect(text))
        # one scan serves both phrase detectors
        concepts, named = kernel.scan(document)
        if self._named is not None:
            candidates.extend(self._named.detect_document(document, named))
        candidates.extend(self._concepts.detect_document(document, concepts))

        resolved = deduplicate(resolve_collisions(candidates))
        if score:
            vector = self._scorer.concept_vector(document)
            resolved = [
                d
                if d.kind == KIND_PATTERN
                else d.with_score(self._scorer.score_phrase(vector, d.phrase))
                for d in resolved
            ]
        return AnnotatedDocument(text=text, detections=resolved, tokens=document)
