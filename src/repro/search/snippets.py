"""Search-result snippet generation.

"These short text strings are constructed from the result pages by the
engine, and they usually provide a good summary of the target page"
(Section IV-B).  We produce query-biased snippets: a token window
centred on the first phrase occurrence, which is how production engines
build them and is what gives the relevance miner topically focused text.

A window is a slice of the result document's id array in the engine's
:class:`~repro.text.corpus.TokenizedCorpus`; the relevance miner counts
its ids directly, and :meth:`SnippetService.snippets_for_phrase` maps
them back to text for the LSA sense miner.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.search.engine import SearchEngine
from repro.text.corpus import TokenizedCorpus


class SnippetService:
    """Phrase-search + snippet extraction, as the Yahoo! BOSS-style API.

    ``snippets_for_phrase`` mirrors the paper's usage: "We submit the
    concept to this API and use the snippets retrieved for the first
    hundred results."
    """

    def __init__(self, engine: SearchEngine, window: int = 48):
        self._engine = engine
        self._window = window

    @property
    def corpus(self) -> TokenizedCorpus:
        """The corpus the snippet windows index into."""
        return self._engine.corpus

    def windows(self, phrase: str, limit: int = 100) -> List[np.ndarray]:
        """Token-id windows of the top *limit* phrase-query results.

        Every result holds the exact phrase, so each window is
        ``window`` tokens (fewer in a shorter document) around the
        phrase's first occurrence, shifted to stay inside the document.
        """
        rows, __, firsts = self._engine.phrase_hits(phrase, limit)
        id_arrays = self._engine.corpus.id_arrays
        window = self._window
        half = window // 2
        windows = []
        for row, first in zip(rows.tolist(), firsts.tolist()):
            ids = id_arrays[row]
            start = max(0, first - half)
            end = min(len(ids), start + window)
            start = max(0, end - window)
            windows.append(ids[start:end])
        return windows

    def snippets_for_phrase(self, phrase: str, limit: int = 100) -> List[str]:
        """Snippets of the top *limit* phrase-query results, as text."""
        terms = self._engine.corpus.terms
        return [
            " ".join([terms[vid] for vid in ids.tolist()])
            for ids in self.windows(phrase, limit)
        ]
