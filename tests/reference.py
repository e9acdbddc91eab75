"""Seed-era reference implementations the compiled paths are checked against.

The runtime has one implementation of each component: the compiled
detection kernel matches phrases, stems, counts terms and segments
units.  These small, obviously-correct versions of the seed behaviour
exist only so the tests can cross-check the kernel against them:

* :func:`seed_matcher_find` — the seed phrase matcher (first-term
  candidate lists, longest-first, resume past each match);
* :func:`term_vector` / :func:`unit_weights` / :func:`unit_vector` —
  the concept-vector baseline's two component vectors computed per
  term, as the seed scorer did;
* :func:`automaton_columns` — an Aho–Corasick automaton's flat columns
  resolved one state and one symbol at a time in pure Python, as
  ``FlatAutomaton.compile`` did before it resolved rows in numpy;
* :func:`phrase_states` / :func:`terminal_of` — an automaton's
  inventory recovered by a queue BFS over its delta column, one state
  and one symbol at a time, and the state a phrase walks to.
"""

from collections import deque
from typing import Dict, List, Sequence

from repro.detection.kernel import phrase_inventory
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
