"""Text-processing substrate.

Everything the Contextual Shortcuts pipeline needs before entity
detection can run: HTML stripping, tokenization with sentence and
paragraph boundaries, Porter stemming, stopword filtering, tf*idf
vectorization, and the tokenized corpus the offline build indexes and
mines.  All implemented from scratch; no external NLP dependencies.
"""

from repro.text.html import strip_html
from repro.text.stemmer import PorterStemmer, stem
from repro.text.stopwords import STOPWORDS, is_stopword
from repro.text.corpus import TokenizedCorpus
from repro.text.tokenized import TokenizedDocument
from repro.text.tokenizer import (
    paragraphs,
    reset_tokenize_call_count,
    sentences,
    tokenize_call_count,
    tokenize_lower,
)
from repro.text.vectorize import (
    DocumentFrequencyTable,
    TermVector,
    term_frequencies,
)

__all__ = [
    "strip_html",
    "PorterStemmer",
    "stem",
    "STOPWORDS",
    "is_stopword",
    "TokenizedCorpus",
    "TokenizedDocument",
    "tokenize_call_count",
    "reset_tokenize_call_count",
    "tokenize_lower",
    "sentences",
    "paragraphs",
    "term_frequencies",
    "TermVector",
    "DocumentFrequencyTable",
]
