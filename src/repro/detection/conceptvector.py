"""Concept-vector generation: the production baseline ranker.

Faithful implementation of paper Section II-B:

1. a **term vector** with tf*idf scores against the term-document
   frequency dictionary; stop-words removed; weights normalized into
   [0, 1]; sub-threshold weights punished; low weights pruned;
2. a **unit vector** of all query-log units found in the document, with
   normalized unit scores, punished and pruned likewise;
3. a **merge**: term-only entries are added with punished term weight,
   unit-only entries with their unit weight, entries in both with the
   sum; then every *multi-term* concept additionally absorbs the term-
   and unit-vector scores of each individual term it contains, so "more
   specific concepts eventually bubble up in the overall rank" (max
   possible weight = 2 x number of terms).

The resulting phrase -> score mapping is the baseline ranking the
paper's learned model is evaluated against (the "Concept Vector Score"
rows of Tables III-V).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.detection.kernel import DetectionKernel
from repro.querylog.units import UnitLexicon
from repro.text.tokenized import DocumentLike, TokenizedDocument
from repro.text.vectorize import DocumentFrequencyTable, TermVector


class ConceptVectorScorer:
    """Builds concept vectors for documents (the baseline scorer)."""

    def __init__(
        self,
        doc_frequency: DocumentFrequencyTable,
        lexicon: UnitLexicon,
        punish_threshold: float = 0.25,
        prune_threshold: float = 0.02,
        punish_factor: float = 0.5,
        multi_term_bonus: bool = True,
    ):
        self._doc_frequency = doc_frequency
        self._lexicon = lexicon
        self.punish_threshold = punish_threshold
        self.prune_threshold = prune_threshold
        self.punish_factor = punish_factor
        self.multi_term_bonus = multi_term_bonus
        self._kernel: Optional[DetectionKernel] = None

    @property
    def doc_frequency(self) -> DocumentFrequencyTable:
        """The table the term vector's tf*idf weights come from."""
        return self._doc_frequency

    @property
    def lexicon(self) -> UnitLexicon:
        """The unit lexicon the unit vector segments with."""
        return self._lexicon

    def attach_kernel(self, kernel: DetectionKernel) -> None:
        """Count terms and segment units through *kernel* (the
        pipeline's).  A scorer used on its own compiles a lexicon-only
        kernel the first time it scores a document."""
        self._kernel = kernel

    def _ensure_kernel(self) -> DetectionKernel:
        if self._kernel is None:
            # no detector automata; the tf*idf table's vocabulary keeps
            # term counting in id space for every word it knows
            self._kernel = DetectionKernel.build(
                lexicon=self._lexicon, vocab_terms=self._doc_frequency.terms()
            )
        return self._kernel

    def _shape_unit_weights(self, weights: Dict[str, float]) -> TermVector:
        """Punish/prune the raw unit weights.

        Unit scores arrive already normalized into [0, 1] *globally* by
        the miner ("unit scores are also normalized to be between 0 and
        1") — they are deliberately NOT re-normalized per document, so
        a document full of weak units keeps weak unit weights.
        """
        return TermVector._adopt(weights).shaped(
            self.punish_threshold,
            self.punish_factor,
            self.prune_threshold,
            normalize=False,
        )

    # -- merge ---------------------------------------------------------------

    def concept_vector(self, text: DocumentLike) -> TermVector:
        """The merged concept vector for *text* (phrase -> score).

        Accepts a raw string or a shared :class:`TokenizedDocument`; the
        latter avoids re-tokenizing inside the single-pass pipeline.
        Counting runs over the document's interned id array and
        segmentation through the kernel's unit automaton.
        """
        document = TokenizedDocument.of(text)
        kernel = self._ensure_kernel()
        # the kernel fuses counting, tf*idf, and shaping (normalize,
        # punish, prune) into id-space array passes
        terms = TermVector._adopt(
            kernel.term_weights(
                document,
                self._doc_frequency,
                self.punish_threshold,
                self.punish_factor,
                self.prune_threshold,
            )
        )
        units = self._shape_unit_weights(kernel.unit_weights(document))

        merged: Dict[str, float] = {}
        terms_weights = terms.weights
        units_weights = units.weights
        punish_factor = self.punish_factor
        for phrase, weight in terms_weights.items():
            unit_weight = units_weights.get(phrase)
            if unit_weight is not None:
                merged[phrase] = weight + unit_weight
            else:
                # term did not appear as a popular query: punish
                merged[phrase] = weight * punish_factor
        for phrase, weight in units_weights.items():
            if phrase not in merged:
                merged[phrase] = weight

        if self.multi_term_bonus:
            terms_get = terms_weights.get
            units_get = units_weights.get
            # keys are single tokens or " "-joined token phrases, so the
            # substring probe is exactly the multi-term test; updating
            # values in place never resizes the dict, so no key snapshot
            for phrase in merged:
                if " " not in phrase:
                    continue
                bonus = sum(
                    terms_get(part, 0.0) + units_get(part, 0.0)
                    for part in phrase.split()
                )
                merged[phrase] += bonus
        return TermVector._adopt(merged)

    def top_concepts(self, text: str, count: int = 5) -> List[Tuple[str, float]]:
        """Highest-scoring concepts of *text* (the Section II-B example)."""
        return self.concept_vector(text).top(count)

    def score_phrase(self, vector: TermVector, phrase: str) -> float:
        """Concept-vector score of *phrase* (0 when absent)."""
        return vector.get(phrase.lower(), 0.0)
