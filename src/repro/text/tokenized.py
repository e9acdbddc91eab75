"""A document tokenized exactly once, shared by every pipeline stage.

The production hot path (paper Section VI) runs a document through the
stemmer, three detectors, the concept-vector scorer, and the relevance
context lookup.  Each of those consumes some view of the same token
stream — raw tokens with offsets, lower-cased words, or stemmed
stopword-free terms.  ``TokenizedDocument`` computes each view lazily,
at most once, and caches it, so the whole service pays for one
tokenization pass and one stemming pass per document instead of one per
stage.

The word views (``words``/``word_starts``/``word_ends``) come from the
tokenizer's :func:`~repro.text.tokenizer.word_spans` fast path, which
never materializes :class:`~repro.text.tokenizer.Token` objects; the
full ``tokens`` view is built only if a consumer actually asks for it.
The compiled detection kernels additionally share one interned
token-id view per document (:meth:`token_ids` / :meth:`token_id_array`),
cached against the kernel's interner so the stemmer table, both
automata, and the concept-vector scorer intern each document once.

Every string-based entry point in the pipeline remains available as a
thin wrapper that builds a private ``TokenizedDocument``, so callers
holding only a ``str`` see unchanged behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Set, Union

from repro.text.stemmer import stem
from repro.text.stopwords import is_stopword
from repro.text.tokenizer import Token, tokenize, word_spans


class TokenizedDocument:
    """Lazily materialized, cached views of one document's tokens.

    The views mirror the seed's per-stage computations exactly:

    * ``tokens``        -- ``tokenize(text)``
    * ``word_tokens``   -- word tokens only (offsets kept for spans)
    * ``words``         -- ``tokenize_lower(text)``
    * ``word_starts``/``word_ends`` -- the word tokens' char spans
    * ``stemmed_terms`` -- ``features.relevance.stemmed_terms(text)``
    * ``stem_set``      -- the relevance scorer's context set
    * ``token_ids``     -- interned ids against a kernel's interner

    Cached lists are shared with callers; treat them as read-only.
    """

    __slots__ = (
        "text",
        "_tokens",
        "_word_tokens",
        "_words",
        "_word_starts",
        "_word_ends",
        "_stemmed_terms",
        "_stem_set",
        "_interner",
        "_token_ids",
        "_token_id_array",
        "_kernel",
        "_kernel_scan",
    )

    def __init__(self, text: str):
        self.text = text
        self._tokens: Optional[List[Token]] = None
        self._word_tokens: Optional[List[Token]] = None
        self._words: Optional[List[str]] = None
        self._word_starts: Optional[List[int]] = None
        self._word_ends: Optional[List[int]] = None
        self._stemmed_terms: Optional[List[str]] = None
        self._stem_set: Optional[Set[str]] = None
        self._interner = None
        self._token_ids: Optional[List[int]] = None
        self._token_id_array = None
        # Stamped by DetectionKernel.stem_document: downstream stages
        # (stemmed view, relevance TID context) then run table-driven.
        self._kernel = None
        # (kernel, result) of the kernel's combined automaton scan —
        # the three detector consumers share one pass per document.
        self._kernel_scan = None

    @classmethod
    def of(cls, source: Union[str, "TokenizedDocument"]) -> "TokenizedDocument":
        """Coerce a raw string or an existing document to a document."""
        if isinstance(source, cls):
            return source
        return cls(source)

    @property
    def tokens(self) -> List[Token]:
        """All tokens with character offsets (one tokenizer pass, ever)."""
        if self._tokens is None:
            self._tokens = tokenize(self.text)
        return self._tokens

    @property
    def word_tokens(self) -> List[Token]:
        """Word tokens only, offsets preserved (the Token-object view)."""
        if self._word_tokens is None:
            self._word_tokens = [t for t in self.tokens if t.is_word()]
        return self._word_tokens

    def _ensure_words(self) -> None:
        if self._words is not None:
            return
        if self._tokens is not None:
            # the Token view already exists: derive, don't re-tokenize
            word_tokens = self.word_tokens
            self._words = [t.lower for t in word_tokens]
            self._word_starts = [t.start for t in word_tokens]
            self._word_ends = [t.end for t in word_tokens]
            return
        self._words, self._word_starts, self._word_ends = word_spans(self.text)

    @property
    def words(self) -> List[str]:
        """Lower-cased word tokens (``tokenize_lower`` equivalent)."""
        self._ensure_words()
        return self._words

    @property
    def word_starts(self) -> List[int]:
        """Character start offset of each word token."""
        self._ensure_words()
        return self._word_starts

    @property
    def word_ends(self) -> List[int]:
        """Character end offset of each word token."""
        self._ensure_words()
        return self._word_ends

    @property
    def stemmed_terms(self) -> List[str]:
        """Stemmed, stopword-free content terms (the Stemmer pass).

        With a detection kernel stamped on the document the view comes
        from the kernel's precomputed stem table (string-for-string
        identical, Porter only for OOV words); otherwise it is the
        per-word Porter pass.
        """
        if self._stemmed_terms is None:
            kernel = self._kernel
            if kernel is not None:
                self._stemmed_terms = kernel.stemmed_document_terms(self)
            else:
                self._stemmed_terms = [
                    stem(word) for word in self.words if not is_stopword(word)
                ]
        return self._stemmed_terms

    @property
    def stem_set(self) -> Set[str]:
        """The stemmed context set consumed by the relevance scorers."""
        if self._stem_set is None:
            self._stem_set = set(self.stemmed_terms)
        return self._stem_set

    # -- interned token-id views (compiled detection kernels) -----------

    def token_ids(self, interner) -> List[int]:
        """Interned id per word token (one interning pass per document).

        *interner* is a :class:`~repro.detection.kernel.TokenInterner`;
        out-of-vocabulary words map to its OOV sentinel id.  The id list
        is cached against the interner's identity, so every kernel
        consumer (stem table, both automata, the scorer) shares one
        interning pass.  A different interner recomputes and replaces
        the cache (the pipeline only ever attaches one kernel).
        """
        if self._token_ids is None or self._interner is not interner:
            self._interner = interner
            self._token_ids = interner.ids(self.words)
            self._token_id_array = None
        return self._token_ids

    def token_id_array(self, interner):
        """The :meth:`token_ids` list as a cached ``int32`` numpy array."""
        ids = self.token_ids(interner)
        if self._token_id_array is None:
            import numpy as np

            self._token_id_array = np.asarray(ids, dtype=np.int32)
        return self._token_id_array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenizedDocument({self.text[:40]!r}, {len(self.text)} chars)"


DocumentLike = Union[str, TokenizedDocument]
