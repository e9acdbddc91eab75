"""Seed-era reference implementations the production paths are checked against.

The program has one implementation of each component: the compiled
detection kernel matches phrases, stems, counts terms and segments
units; the search engine, the keyword miners and the stemmed df run on
a tokenized corpus's id arrays.  These small, obviously-correct versions
of the seed behaviour exist only so the tests can cross-check the
production paths against them:

* :func:`tokenize` / :func:`tokenize_lower` — the seed's regex
  tokenizer, with :class:`Token` offsets;
* :class:`ReferenceEngine` — phrase counts, BM25 and result counts by
  scanning token lists, with the seed's Prisma loop, snippet windows
  (:func:`make_snippet`) and string tf*idf keyword mining;
* :func:`stemmed_df` — the per-document stemmed df table;

* :func:`seed_matcher_find` — the seed phrase matcher (first-term
  candidate lists, longest-first, resume past each match);
* :func:`scan_matches` — a kernel's detector scan in that matcher's
  terms;
* :func:`longest_match_ends` — the full match set before that greedy
  reduction: the end of the longest phrase starting at each word;
* :func:`term_vector` / :func:`unit_weights` / :func:`unit_vector` —
  the concept-vector baseline's two component vectors computed per
  term, as the seed scorer did;
* :func:`automaton_columns` — an Aho–Corasick automaton's flat columns
  resolved one state and one symbol at a time in pure Python, as
  ``FlatAutomaton.compile`` did before it resolved rows in numpy;
* :func:`phrase_states` / :func:`terminal_of` — an automaton's
  inventory recovered by a queue BFS over its delta column, one state
  and one symbol at a time, and the state a phrase walks to;

* :data:`EMAIL_RE` — the email regular expression the pattern
  detector's linear scan reproduces;
* the string path from the scan to the sort, as the pipeline and the
  service ran it before both carried terminal ids:
  :func:`string_candidates` (each detector's :class:`Detection` list,
  :func:`resolve_collisions`, :func:`deduplicate`),
  :func:`string_baseline` (their concept-vector scores) and
  :func:`string_ranking` (``d.phrase in store``, then features looked
  up by phrase, one candidate at a time).
"""

import math
import re
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.detection.base import KIND_PATTERN, KIND_PRIORITY
from repro.detection.kernel import phrase_inventory
from repro.ranking.baselines import tie_break_by_relevance
from repro.text.stemmer import stem
from repro.text.stopwords import is_stopword
from repro.text.vectorize import DocumentFrequencyTable, TermVector

_TOKEN_RE = re.compile(
    r"""
    [A-Za-z]+(?:'[A-Za-z]+)?   # words, with internal apostrophe (don't, O'Brien)
    | \d+(?:[.,]\d+)*          # numbers, incl. 1,234.5
    | \S                       # any other single non-space char (punctuation)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A token with its character span in the source text."""

    text: str
    start: int
    end: int

    @property
    def lower(self) -> str:
        return self.text.lower()

    def is_word(self) -> bool:
        """True if the token starts with a letter (not punctuation/number)."""
        return self.text[:1].isalpha()


def tokenize(text: str) -> List[Token]:
    """The seed tokenizer: every `_TOKEN_RE` match, with offsets."""
    return [
        Token(match.group(), match.start(), match.end())
        for match in _TOKEN_RE.finditer(text)
    ]


def tokenize_lower(text: str) -> List[str]:
    """Lower-cased word tokens of the seed tokenizer."""
    return [token.lower for token in tokenize(text) if token.is_word()]


def stemmed_terms(text: str) -> List[str]:
    return [stem(word) for word in tokenize_lower(text) if not is_stopword(word)]


def stemmed_df(texts) -> DocumentFrequencyTable:
    """The seed's stemmed df: one ``add_document`` per text."""
    table = DocumentFrequencyTable()
    for text in texts:
        table.add_document(stemmed_terms(text))
    return table


def make_snippet(tokens: Sequence[str], query_terms: Sequence[str], window: int = 48) -> str:
    """The seed snippet: ~*window* tokens centred on the first exact
    match of *query_terms*, else on the first query term, else at 0."""
    size = len(query_terms)
    anchor = None
    if size:
        for start in range(len(tokens) - size + 1):
            if list(tokens[start : start + size]) == list(query_terms):
                anchor = start
                break
        if anchor is None:
            term_set = set(query_terms)
            anchor = next(
                (at for at, token in enumerate(tokens) if token in term_set), None
            )
    if anchor is None:
        anchor = 0
    half = window // 2
    start = max(0, anchor - half)
    end = min(len(tokens), start + window)
    start = max(0, end - window)
    return " ".join(tokens[start:end])


def top_terms(scores: Dict[str, float], keyword_count: int):
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(ranked[:keyword_count])


def tf_idf_keywords(phrase: str, document: str, df, keyword_count: int = 100):
    """The seed miner's tf*idf over one bag-of-words *document*."""
    concept = set(stemmed_terms(phrase))
    counts: Dict[str, int] = {}
    for term in stemmed_terms(document):
        if term not in concept:
            counts[term] = counts.get(term, 0) + 1
    return top_terms(
        {term: count * df.raw_idf(term) for term, count in counts.items()},
        keyword_count,
    )


def suggestion_keywords(phrase: str, suggestions, df, keyword_count: int = 100):
    """The seed miner's sum_k ln(freq_k) * idf over query suggestions."""
    concept = set(stemmed_terms(phrase))
    scores: Dict[str, float] = {}
    for suggestion, frequency in suggestions.suggest(phrase):
        log_freq = math.log(max(2, frequency))
        for term in set(stemmed_terms(suggestion)):
            if term not in concept:
                scores[term] = scores.get(term, 0.0) + log_freq
    return top_terms(
        {term: value * df.raw_idf(term) for term, value in scores.items()},
        keyword_count,
    )


class ReferenceEngine:
    """The seed search engine and miners, scanning token lists.

    *documents* are ``(doc_id, text)`` pairs, tokenized by the seed
    tokenizer.  Results are ``(doc_id, score)`` pairs in
    ``(-score, doc_id)`` order.
    """

    def __init__(self, documents, k1: float = 1.2, b: float = 0.75):
        self.tokens = {doc_id: tokenize_lower(text) for doc_id, text in documents}
        self.k1 = k1
        self.b = b
        count = len(self.tokens)
        total = sum(len(tokens) for tokens in self.tokens.values())
        self.average_length = total / count if count else 0.0

    def idf(self, term: str) -> float:
        n = len(self.tokens)
        df = sum(1 for tokens in self.tokens.values() if term in tokens)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def phrase_counts(self, terms: Sequence[str]) -> Dict[int, int]:
        """doc_id -> exact, possibly overlapping, occurrences of *terms*."""
        terms = list(terms)
        size = len(terms)
        counts = {}
        for doc_id, tokens in self.tokens.items():
            count = sum(
                1
                for start in range(len(tokens) - size + 1)
                if tokens[start : start + size] == terms
            )
            if size and count:
                counts[doc_id] = count
        return counts

    @staticmethod
    def _ranked(scored, limit):
        return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:limit]

    def search(self, query: str, limit: int = 10):
        terms = dict.fromkeys(tokenize_lower(query))
        idf = {term: self.idf(term) for term in terms}
        avg_len = self.average_length or 1.0
        scored = []
        for doc_id, tokens in self.tokens.items():
            if not terms.keys() & set(tokens):
                continue
            length_norm = 1 - self.b + self.b * len(tokens) / avg_len
            score = 0.0
            for term in terms:
                tf = tokens.count(term)
                if tf:
                    score += (
                        idf[term] * tf * (self.k1 + 1) / (tf + self.k1 * length_norm)
                    )
            scored.append((doc_id, score))
        return self._ranked(scored, limit)

    def phrase_search(self, phrase: str, limit: int = 10):
        terms = tokenize_lower(phrase)
        idf = sum(self.idf(term) for term in terms)
        return self._ranked(
            [(doc_id, count * idf) for doc_id, count in self.phrase_counts(terms).items()],
            limit,
        )

    def phrase_result_count(self, phrase: str) -> int:
        return len(self.phrase_counts(tokenize_lower(phrase)))

    def result_count(self, query: str) -> int:
        terms = set(tokenize_lower(query))
        return sum(1 for tokens in self.tokens.values() if terms & set(tokens))

    def feedback(self, query: str, documents: int = 50, terms: int = 20):
        """The seed Prisma loop over the top *documents* results."""
        query_terms = set(tokenize_lower(query))
        scores: Dict[str, float] = {}
        for rank, (doc_id, __) in enumerate(self.search(query, limit=documents)):
            rank_weight = 1.0 / (1.0 + rank)
            tokens = self.tokens[doc_id]
            length = max(1, len(tokens))
            for position, token in enumerate(tokens):
                if token in query_terms or is_stopword(token):
                    continue
                position_bonus = 1.0 + (1.0 - position / length) * 0.5
                scores[token] = scores.get(token, 0.0) + rank_weight * position_bonus
        return list(top_terms(scores, terms))

    def snippets(self, phrase: str, window: int = 48, limit: int = 100):
        terms = tokenize_lower(phrase)
        return [
            make_snippet(self.tokens[doc_id], terms, window)
            for doc_id, __ in self.phrase_search(phrase, limit)
        ]

    def mine(self, phrase, resource, df, suggestions, window=48, keyword_count=100):
        """``RelevantKeywordMiner.mine`` as the seed computed it."""
        if resource == "snippets":
            document = " ".join(self.snippets(phrase, window))
        elif resource == "prisma":
            document = " ".join(term for term, __ in self.feedback(phrase))
        else:
            return suggestion_keywords(phrase, suggestions, df, keyword_count)
        return tf_idf_keywords(phrase, document, df, keyword_count)


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


def scan_matches(kernel, document):
    """``kernel.scan(document)``'s terminal spans as the seed matcher's
    ``(phrase, start, end)`` triples: (concept matches, named matches)."""
    phrases = kernel.phrases
    return tuple(
        [(phrases[terminal], start, end) for start, end, terminal in spans]
        for spans in kernel.scan(document)
    )


def longest_match_ends(phrases, words: Sequence[str]) -> Dict[int, int]:
    """start -> end of the longest phrase of *phrases* that starts at
    word *start* of *words*, for every start where one does."""
    inventory = set(phrase_inventory(phrases))
    longest = max((len(phrase) for phrase in inventory), default=0)
    ends: Dict[int, int] = {}
    for start in range(len(words)):
        for size in range(min(longest, len(words) - start), 0, -1):
            if tuple(words[start : start + size]) in inventory:
                ends[start] = start + size
                break
    return ends


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



def automaton_columns(phrases, interner, scores=None) -> Dict[str, list]:
    """``FlatAutomaton.compile(phrases, interner, scores).columns()`` as
    lists, from the per-state, per-symbol dense-row loop."""
    inventory = phrase_inventory(phrases)

    sym = [0] * (len(interner) + 1)
    alphabet_size = 1
    for phrase in inventory:
        for term in phrase:
            vid = interner.id_of(term)
            if sym[vid] == 0:
                sym[vid] = alphabet_size
                alphabet_size += 1

    goto: List[Dict[int, int]] = [{}]
    out_len = [0]
    for phrase in inventory:
        state = 0
        for term in phrase:
            symbol = sym[interner.id_of(term)]
            nxt = goto[state].get(symbol)
            if nxt is None:
                nxt = len(goto)
                goto[state][symbol] = nxt
                goto.append({})
                out_len.append(0)
            state = nxt
        out_len[state] = len(phrase)

    # BFS fail links + dense delta rows (fail pre-resolved)
    state_count = len(goto)
    fail = [0] * state_count
    delta = [0] * (state_count * alphabet_size)
    queue = deque()
    for symbol, nxt in goto[0].items():
        delta[symbol] = nxt
        queue.append(nxt)
    while queue:
        state = queue.popleft()
        base = state * alphabet_size
        fail_base = fail[state] * alphabet_size
        for symbol in range(1, alphabet_size):
            nxt = goto[state].get(symbol)
            if nxt is None:
                delta[base + symbol] = delta[fail_base + symbol]
            else:
                fail[nxt] = delta[fail_base + symbol]
                delta[base + symbol] = nxt
                queue.append(nxt)

    # output links: nearest terminal in the fail chain
    emits = [0] * state_count
    out_next = [0] * state_count
    order = deque(goto[0].values())
    while order:  # BFS again so fail[state] is already resolved
        state = order.popleft()
        emits[state] = state if out_len[state] else emits[fail[state]]
        out_next[state] = emits[fail[state]]
        for nxt in goto[state].values():
            order.append(nxt)

    columns = {
        "delta": delta,
        "fail": fail,
        "out_len": out_len,
        "emits": emits,
        "out_next": out_next,
        "sym": sym,
    }
    if scores is not None:
        out_score = [0.0] * state_count
        for phrase in inventory:
            state = 0
            for term in phrase:
                state = delta[state * alphabet_size + sym[interner.id_of(term)]]
            out_score[state] = float(scores.get(phrase, 0.0))
        columns["out_score"] = out_score
    return columns


def phrase_states(automaton) -> List[tuple]:
    """``automaton.phrase_states()`` from a queue BFS, one state and one
    symbol at a time: a transition that reaches an unvisited state is a
    trie edge."""
    columns = automaton.columns()
    delta = columns["delta"].tolist()
    out_len = columns["out_len"].tolist()
    terms = automaton.interner.terms
    token_of = {
        symbol: terms[vid]
        for vid, symbol in enumerate(columns["sym"].tolist()[: len(terms)])
        if symbol
    }
    alphabet = automaton.alphabet_size
    visited = [True] + [False] * (automaton.state_count - 1)
    pairs = []
    queue = deque([(0, ())])
    while queue:
        state, path = queue.popleft()
        for symbol in range(1, alphabet):
            nxt = delta[state * alphabet + symbol]
            if not visited[nxt]:
                visited[nxt] = True
                extended = path + (token_of[symbol],)
                if out_len[nxt]:
                    pairs.append((extended, nxt))
                queue.append((nxt, extended))
    return pairs


def terminal_of(automaton, phrase) -> int:
    """The state *automaton* reaches by walking *phrase* from the root
    (0 when a term is out of its vocabulary)."""
    columns = automaton.columns()
    delta = columns["delta"].tolist()
    sym = columns["sym"].tolist()
    state = 0
    for term in phrase:
        vid = automaton.interner.id_of(term)
        if vid is None:
            return 0
        state = delta[state * automaton.alphabet_size + sym[vid]]
    return state


EMAIL_RE = re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b")


def priority(detection):
    """Collision priority: longer spans win, then kind priority."""
    return (detection.end - detection.start, KIND_PRIORITY.get(detection.kind, 0))


def overlaps(first, second):
    return first.start < second.end and second.start < first.end


def resolve_collisions(detections):
    """Drop overlapping detections, keeping the higher-priority span
    (longer first, then pattern > named > concept, then start), with a
    bisect over the kept spans."""
    ordered = sorted(
        detections, key=lambda d: (-priority(d)[0], -priority(d)[1], d.start)
    )
    kept = []
    spans = []  # kept (start, end), kept sorted
    for candidate in ordered:
        before = bisect_left(spans, (candidate.end,))
        if before and spans[before - 1][1] > candidate.start:
            continue
        insort(spans, (candidate.start, candidate.end))
        kept.append(candidate)
    kept.sort(key=lambda d: d.start)
    return kept


def deduplicate(detections):
    """Keep only the first occurrence of each phrase key."""
    seen = {}
    for detection in detections:
        if detection.phrase not in seen:
            seen[detection.phrase] = detection
    return sorted(seen.values(), key=lambda d: d.start)


def string_candidates(pipeline, text):
    """*pipeline*'s unscored candidates of *text* on the string path:
    every detector's own ``detect``, then collisions, then dedup."""
    candidates = list(pipeline._patterns.detect(text))
    if pipeline._named is not None:
        candidates.extend(pipeline._named.detect(text))
    candidates.extend(pipeline._concepts.detect(text))
    return deduplicate(resolve_collisions(candidates))


def string_baseline(pipeline, text):
    """``pipeline.process(text).detections`` on the string path."""
    scorer = pipeline._scorer
    vector = scorer.concept_vector(text)
    return [
        d
        if d.kind == KIND_PATTERN
        else d.with_score(scorer.score_phrase(vector, d.phrase))
        for d in string_candidates(pipeline, text)
    ]


def string_ranking(service, text):
    """Every ranked detection of ``service.process(text)``, best first,
    on the string path: the candidates whose phrase the
    interestingness store holds, each feature row extracted and each
    relevance scored by phrase, then the decision, the relevance
    tie-break and a stable sort."""
    store = service._store
    assembler = service._assembler
    relevance = assembler.relevance_scorer
    known = [
        d
        for d in string_candidates(service._pipeline, text)
        if d.kind != KIND_PATTERN and d.phrase in store
    ]
    if not known:
        return []
    rows = [store.extract(d.phrase).numeric(assembler.exclude_groups) for d in known]
    scores = np.zeros(len(known))
    if relevance is not None:
        context = relevance.context_stems(text)
        scores = np.array([relevance.score(d.phrase, context) for d in known])
        rows = [np.append(row, np.log1p(score)) for row, score in zip(rows, scores)]
    decision = service._model.decision_function(np.vstack(rows))
    ranked = tie_break_by_relevance(decision, scores)
    order = np.argsort(-ranked, kind="stable")
    return [known[i].with_score(float(ranked[i])) for i in order]
