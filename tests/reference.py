"""Seed-era reference implementations the compiled paths are checked against.

The runtime has one implementation of each component: the compiled
detection kernel matches phrases, stems, counts terms and segments
units.  These small, obviously-correct versions of the seed behaviour
exist only so the tests can cross-check the kernel against them:

* :func:`seed_matcher_find` — the seed phrase matcher (first-term
  candidate lists, longest-first, resume past each match);
* :func:`term_vector` / :func:`unit_weights` / :func:`unit_vector` —
  the concept-vector baseline's two component vectors computed per
  term, as the seed scorer did.
"""

from typing import Dict, Sequence

from repro.text import tokenize
from repro.text.stopwords import is_stopword
from repro.text.vectorize import TermVector


def seed_matcher_find(phrases, text):
    """The seed PhraseMatcher.find: first-term lists, longest-first."""
    by_first = {}
    for phrase in phrases:
        phrase = tuple(term.lower() for term in phrase)
        if phrase:
            by_first.setdefault(phrase[0], []).append(phrase)
    for candidates in by_first.values():
        candidates.sort(key=len, reverse=True)
    word_tokens = [token for token in tokenize(text) if token.is_word()]
    words = [token.lower for token in word_tokens]
    matches = []
    index = 0
    count = len(words)
    while index < count:
        matched = None
        for phrase in by_first.get(words[index], ()):
            size = len(phrase)
            if index + size <= count and tuple(words[index : index + size]) == phrase:
                matched = phrase
                break
        if matched is None:
            index += 1
            continue
        start = word_tokens[index].start
        end = word_tokens[index + len(matched) - 1].end
        matches.append((matched, start, end))
        index += len(matched)
    return matches


def term_vector(scorer, tokens: Sequence[str]) -> TermVector:
    """*scorer*'s normalized, punished, pruned tf*idf vector, per term."""
    counts: Dict[str, int] = {}
    for token in tokens:
        if is_stopword(token):
            continue
        counts[token] = counts.get(token, 0) + 1
    return TermVector(scorer.doc_frequency.tf_idf(counts)).shaped(
        scorer.punish_threshold, scorer.punish_factor, scorer.prune_threshold
    )


def unit_weights(lexicon, tokens: Sequence[str]) -> Dict[str, float]:
    """Raw unit weights of *tokens*: the lexicon's greedy segmentation,
    each scored segment once, document order."""
    weights: Dict[str, float] = {}
    for segment in lexicon.segment(list(tokens)):
        score = lexicon.score(segment)
        if score <= 0.0:
            continue
        phrase = " ".join(segment)
        weights[phrase] = max(weights.get(phrase, 0.0), score)
    return weights


def unit_vector(scorer, tokens: Sequence[str]) -> TermVector:
    """*scorer*'s punished, pruned unit vector (not re-normalized)."""
    return TermVector(unit_weights(scorer.lexicon, tokens)).shaped(
        scorer.punish_threshold,
        scorer.punish_factor,
        scorer.prune_threshold,
        normalize=False,
    )

