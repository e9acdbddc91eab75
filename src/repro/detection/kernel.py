"""Compiled detection kernels: flat Aho–Corasick automata + stem table.

The runtime detectors used to walk a Python token trie per document
position and re-stem every word through the Porter code path.  This
module compiles the whole per-document "analysis" half of the hot path
into flat tables built once (offline by the pack builder, or lazily the
first time a pipeline processes a document):

* :class:`TokenInterner` — the shared token vocabulary.  Every word of
  a document is interned to an ``int32`` id exactly once (the id stream
  is cached on the :class:`~repro.text.tokenized.TokenizedDocument`),
  and every downstream kernel consumes ids instead of strings.
* :class:`StemTable` — vocab id -> (stopword flag, stem string).  The
  runtime stemmer pass becomes two list indexes per token; the Porter
  fallback runs only for out-of-vocabulary words.
* :class:`FlatAutomaton` — an Aho–Corasick automaton over token ids
  with dense ``int32`` goto columns (fail transitions pre-resolved into
  the goto table), ``int32`` fail/output-length/output-link columns,
  and an optional ``float64`` score column per terminal state.  One
  O(tokens) scan replaces the trie's per-position walk, and the match
  set is reduced to the trie's leftmost-longest greedy selection, so
  the emitted spans are identical to the Python path.
* :class:`DetectionKernel` — the bundle the pipeline attaches: one
  interner + stem table shared by the concept and named-entity
  automata (fused into one tagged scan) and the unit-segmentation
  automaton that only the concept-vector baseline scorer reads.

Equivalence is structural, not statistical: the automata are compiled
from the very phrase inventories the tries hold, the stem table from
the same ``stem``/``is_stopword`` functions, and every consumer keeps
its pure-Python path selectable (``benchmarks/bench_hotpath.py`` and
``tests/test_detection_kernel.py`` cross-check byte-identical output).
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.text.stemmer import stem
from repro.text.stopwords import is_stopword
from repro.text.tokenized import TokenizedDocument

Phrase = Tuple[str, ...]

# Interning-pass counter, mirroring `tokenize_call_count`: the kernel is
# judged by how many times a document's words are interned (the design
# goal is exactly once per document), so the count must be observable
# from outside.  Same lock-free itertools.count scheme as the tokenizer.
_intern_counter = itertools.count()
_INTERN_LOCK = threading.Lock()
_intern_overhead = 0
_intern_base = 0


def intern_call_count() -> int:
    """Number of interning passes (`TokenInterner.ids`) since last reset."""
    global _intern_overhead
    with _INTERN_LOCK:
        drawn = next(_intern_counter)
        calls = drawn - _intern_overhead - _intern_base
        _intern_overhead += 1
        return calls


def reset_intern_call_count() -> None:
    """Zero the interning counter (benchmark/test instrumentation)."""
    global _intern_overhead, _intern_base
    with _INTERN_LOCK:
        drawn = next(_intern_counter)
        _intern_base = drawn - _intern_overhead
        _intern_overhead += 1


class TokenInterner:
    """Token string -> dense ``int32`` id; OOV maps to the sentinel id.

    The sentinel is ``len(terms)`` (not -1) so interned ids are always
    valid indexes into the kernel's ``V+1``-sized lookup columns —
    no branch per token on the scan paths.
    """

    __slots__ = ("terms", "oov", "_index")

    def __init__(self, terms: Sequence[str]):
        self.terms: List[str] = list(terms)
        self._index: Dict[str, int] = {
            term: vid for vid, term in enumerate(self.terms)
        }
        if len(self._index) != len(self.terms):
            raise ValueError("interner vocabulary contains duplicate terms")
        self.oov = len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def id_of(self, term: str) -> Optional[int]:
        """The id of *term*, or None when out of vocabulary."""
        return self._index.get(term)

    def ids(self, words: Sequence[str]) -> List[int]:
        """Interned id per word (one counted interning pass)."""
        next(_intern_counter)
        # map() drives dict.get entirely in C — no per-word bytecode
        return list(map(self._index.get, words, repeat(self.oov, len(words))))


class StemTable:
    """Vocab id -> stopword flag + precomputed stem string.

    ``flags[vid]`` is 0 for content terms, 1 for stopwords, 2 for the
    OOV sentinel slot; ``stems[vid]`` is ``stem(term)`` for content
    terms.  Built from the same ``stem``/``is_stopword`` the Python
    stemmer pass uses (or adopted pre-stemmed from a
    :class:`~repro.offline.corpus.TokenizedCorpus`), so the table-driven
    pass is string-for-string identical.
    """

    FLAG_CONTENT = 0
    FLAG_STOPWORD = 1
    FLAG_OOV = 2

    __slots__ = ("flags", "stems")

    def __init__(self, flags: Sequence[int], stems: Sequence[Optional[str]]):
        self.flags = bytearray(flags)
        self.stems: List[Optional[str]] = list(stems)
        if len(self.flags) != len(self.stems):
            raise ValueError("stem table columns disagree in length")

    @classmethod
    def build(
        cls, terms: Sequence[str], stem_of: Optional[Dict[str, str]] = None
    ) -> "StemTable":
        """Compile the table for *terms* (+ one trailing OOV slot).

        *stem_of* optionally supplies precomputed stems (the offline
        corpus already stemmed its vocabulary once); missing terms fall
        back to the module stemmer, which is what built those stems in
        the first place.
        """
        lookup = stem_of.get if stem_of is not None else (lambda term: None)
        flags = bytearray(len(terms) + 1)
        stems: List[Optional[str]] = [None] * (len(terms) + 1)
        for vid, term in enumerate(terms):
            if is_stopword(term):
                flags[vid] = cls.FLAG_STOPWORD
            else:
                known = lookup(term)
                stems[vid] = known if known is not None else stem(term)
        flags[len(terms)] = cls.FLAG_OOV
        return cls(flags, stems)

    def stemmed_terms(self, words: Sequence[str], ids: Sequence[int]) -> List[str]:
        """``[stem(w) for w in words if not is_stopword(w)]``, table-driven."""
        flags = self.flags
        stems = self.stems
        out: List[str] = []
        append = out.append
        for position, vid in enumerate(ids):
            flag = flags[vid]
            if flag == 0:
                append(stems[vid])
            elif flag == 2:
                word = words[position]
                if not is_stopword(word):
                    append(stem(word))
        return out


def _as_list(column) -> list:
    """*column* as a plain list: an ndarray converts in one C pass."""
    if isinstance(column, list):
        return column
    return np.asarray(column).tolist()


class FlatAutomaton:
    """Aho–Corasick over interned token ids, as flat ``int32`` columns.

    Columns (``S`` states, alphabet of ``A`` symbols, vocab of ``V``
    terms):

    * ``delta``    -- ``int32[S * A]``: the goto table with fail
      transitions pre-resolved (a true DFA row per state).  Symbol 0 is
      the not-in-alphabet sentinel and always returns to the root.
    * ``fail``     -- ``int32[S]``: classic BFS fail links.
    * ``out_len``  -- ``int32[S]``: phrase token-length at terminal
      states, 0 elsewhere.
    * ``emits``    -- ``int32[S]``: the nearest terminal state in the
      fail chain *including the state itself* (0 = none): the scan's
      single per-token output probe.
    * ``out_next`` -- ``int32[S]``: the nearest terminal *proper*
      suffix (the output-link chain beyond ``emits``).
    * ``sym``      -- ``int32[V + 1]``: interner id -> alphabet symbol
      (0 when the token occurs in no phrase; the OOV slot is 0).
    * ``out_score``-- optional ``float64[S]``: per-terminal score (the
      unit lexicon's normalized scores ride here so segmentation needs
      no lexicon at runtime).

    The columns are the serialized form (``np.ndarray`` views straight
    off a data-pack); the constructor materializes plain Python lists
    for the scan loop, where list indexing is ~3x faster than numpy
    scalar indexing.  Lists from :meth:`compile` are adopted as they
    are.
    """

    __slots__ = (
        "interner",
        "alphabet_size",
        "state_count",
        "phrase_count",
        "_delta",
        "_fail",
        "_out_len",
        "_emits",
        "_out_next",
        "_sym",
        "_out_score",
    )

    def __init__(
        self,
        interner: TokenInterner,
        delta,
        fail,
        out_len,
        emits,
        out_next,
        sym,
        phrase_count: int,
        out_score=None,
    ):
        self.interner = interner
        self._delta = _as_list(delta)
        self._fail = _as_list(fail)
        self._out_len = _as_list(out_len)
        self._emits = _as_list(emits)
        self._out_next = _as_list(out_next)
        self._sym = _as_list(sym)
        self._out_score = None if out_score is None else _as_list(out_score)
        self.state_count = len(self._fail)
        self.phrase_count = int(phrase_count)
        if self.state_count:
            self.alphabet_size = len(self._delta) // self.state_count
        else:
            self.alphabet_size = 0
        if len(self._sym) != len(interner) + 1:
            raise ValueError("symbol column does not cover the vocabulary")

    # -- compilation -----------------------------------------------------

    @classmethod
    def compile(
        cls,
        phrases: Iterable[Phrase],
        interner: TokenInterner,
        scores: Optional[Dict[Phrase, float]] = None,
    ) -> "FlatAutomaton":
        """Compile a (deduplicated) phrase inventory against *interner*.

        Every phrase token must be in the interner's vocabulary — the
        kernel builder guarantees that by folding phrase tokens into the
        vocab before compiling.
        """
        inventory: List[Phrase] = []
        seen = set()
        for phrase in phrases:
            phrase = tuple(term.lower() for term in phrase)
            if phrase and phrase not in seen:
                seen.add(phrase)
                inventory.append(phrase)

        # alphabet: symbols 1..A-1 for tokens used by any phrase
        sym = [0] * (len(interner) + 1)
        alphabet_size = 1
        for phrase in inventory:
            for term in phrase:
                vid = interner.id_of(term)
                if vid is None:
                    raise ValueError(
                        f"phrase token {term!r} missing from the kernel vocabulary"
                    )
                if sym[vid] == 0:
                    sym[vid] = alphabet_size
                    alphabet_size += 1

        # trie over symbols
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

        out_score = None
        if scores is not None:
            out_score = [0.0] * state_count
            for phrase in inventory:
                state = 0
                for term in phrase:
                    state = delta[
                        state * alphabet_size + sym[interner.id_of(term)]
                    ]
                out_score[state] = float(scores.get(phrase, 0.0))

        return cls(
            interner,
            delta,
            fail,
            out_len,
            emits,
            out_next,
            sym,
            phrase_count=len(inventory),
            out_score=out_score,
        )

    # -- serialization ---------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """The flat ``int32``/``float64`` columns (data-pack payloads)."""
        columns = {
            "delta": np.asarray(self._delta, dtype=np.int32),
            "fail": np.asarray(self._fail, dtype=np.int32),
            "out_len": np.asarray(self._out_len, dtype=np.int32),
            "emits": np.asarray(self._emits, dtype=np.int32),
            "out_next": np.asarray(self._out_next, dtype=np.int32),
            "sym": np.asarray(self._sym, dtype=np.int32),
        }
        if self._out_score is not None:
            columns["out_score"] = np.asarray(self._out_score, dtype=np.float64)
        return columns

    # -- inventory reconstruction ----------------------------------------

    def phrase_states(self) -> List[Tuple[Phrase, int]]:
        """Reconstruct ``(phrase, terminal state)`` pairs from the columns.

        The dense delta rows mix real trie edges with pre-resolved fail
        shortcuts, but a BFS from the root tells them apart: a shortcut
        from a depth-``d`` state lands at depth ``<= d`` (it goes through
        a fail ancestor), so the only transitions reaching an *unvisited*
        state are the trie edges.  This lets a kernel loaded from flat
        pack columns recover the exact phrase inventories — no extra
        serialized payload — e.g. to compile the combined scan automaton.
        """
        terms = self.interner.terms
        token_of: Dict[int, str] = {}
        for vid, symbol in enumerate(self._sym):
            if symbol and vid < len(terms):
                token_of[symbol] = terms[vid]

        delta = self._delta
        out_len = self._out_len
        alphabet = self.alphabet_size
        visited = [False] * self.state_count
        visited[0] = True
        pairs: List[Tuple[Phrase, int]] = []
        queue = deque([(0, ())])
        while queue:
            state, path = queue.popleft()
            base = state * alphabet
            for symbol in range(1, alphabet):
                nxt = delta[base + symbol]
                if nxt and not visited[nxt]:
                    visited[nxt] = True
                    extended = path + (token_of[symbol],)
                    if out_len[nxt]:
                        pairs.append((extended, nxt))
                    queue.append((nxt, extended))
        return pairs

    def terminal_of(self, phrase: Phrase) -> int:
        """The state reached by walking *phrase* from the root."""
        state = 0
        alphabet = self.alphabet_size
        for term in phrase:
            vid = self.interner.id_of(term)
            if vid is None:
                return 0
            state = self._delta[state * alphabet + self._sym[vid]]
        return state

    # -- matching --------------------------------------------------------

    def _scored_starts(self, ids: Sequence[int]) -> Dict[int, tuple]:
        """start token index -> (longest end, that match's score).

        Ends only grow as the scan advances (every match at position
        ``p`` ends at ``p + 1``, and one position's output chain has
        distinct lengths, hence distinct starts), so the last match
        written for a start is its longest.
        """
        delta = self._delta
        sym = self._sym
        emits = self._emits
        out_len = self._out_len
        out_next = self._out_next
        scores = self._out_score
        alphabet = self.alphabet_size
        best: Dict[int, tuple] = {}
        state = 0
        for position, vid in enumerate(ids):
            state = delta[state * alphabet + sym[vid]]
            terminal = emits[state]
            while terminal:
                end = position + 1
                best[end - out_len[terminal]] = (
                    end,
                    scores[terminal] if scores is not None else 0.0,
                )
                terminal = out_next[terminal]
        return best

    def find_token_spans(self, ids: Sequence[int]) -> List[Tuple[int, int]]:
        """Leftmost-longest non-overlapping token spans (trie semantics).

        Reduces the automaton's full match set with the trie walk's
        greedy rule — take the longest match at the scan position, then
        resume past it — so the spans are exactly what
        ``PhraseMatcher.find_document_trie`` emits.
        """
        return [(s, e) for s, e, __ in self.find_scored_spans(ids)]

    def find_scored_spans(
        self, ids: Sequence[int]
    ) -> List[Tuple[int, int, float]]:
        """`find_token_spans` plus each span's terminal score column."""
        best = self._scored_starts(ids)
        if not best:
            return []
        spans: List[Tuple[int, int, float]] = []
        cursor = 0
        for start in sorted(best):
            if start >= cursor:
                end, score = best[start]
                spans.append((start, end, score))
                cursor = end
        return spans

    def find_phrases(
        self, document: TokenizedDocument
    ) -> List[Tuple[Phrase, int, int]]:
        """(phrase, char_start, char_end) matches — the matcher protocol."""
        ids = document.token_ids(self.interner)
        spans = self.find_token_spans(ids)
        if not spans:
            return []
        words = document.words
        starts = document.word_starts
        ends = document.word_ends
        return [
            (tuple(words[s:e]), starts[s], ends[e - 1]) for s, e in spans
        ]


TAG_CONCEPTS = 1
TAG_NAMED = 2


class CombinedAutomaton:
    """The concept and named-entity inventories fused into one tagged scan.

    Per-detector scans each pay a full pass over the document's id
    stream; fusing them into a single automaton over the *union*
    inventory makes the per-token work one delta step and one output
    probe total.  Each terminal state carries a tag bitmask saying which
    detectors own that phrase, so one pass yields both per-detector
    ``{start: longest end}`` maps — per tag these hold exactly the ends
    the individual automatons' ``_scored_starts`` would compute (same
    match sets), so downstream greedy reductions are unchanged.

    The unit lexicon is deliberately left out: only the concept-vector
    baseline segments units, and it scans the unit automaton on its
    own, so serving neither compiles nor walks the far larger
    three-inventory table.

    Built in :class:`DetectionKernel.__init__` from the per-detector
    automatons' reconstructed inventories (:meth:`FlatAutomaton.
    phrase_states`); it is derived state, never serialized, so data-pack
    bytes are untouched.
    """

    __slots__ = ("base", "tags", "_delta_pm", "_emits_pm", "_sym_array")

    def __init__(self, base: FlatAutomaton, tags: Sequence[int]):
        self.base = base
        self.tags = [int(v) for v in tags]
        # Scan-loop precomputation: delta entries pre-multiplied by the
        # alphabet size (a state is represented by its row base, saving
        # the per-token multiply) with the output probe re-indexed to
        # match, and the symbol column as an array so a document's
        # symbol stream is one vectorized gather.
        alphabet = base.alphabet_size
        self._delta_pm = [v * alphabet for v in base._delta]
        emits_pm = [0] * (base.state_count * alphabet)
        if alphabet:
            emits_pm[::alphabet] = base._emits
        self._emits_pm = emits_pm
        self._sym_array = np.asarray(base._sym, dtype=np.int32)

    @classmethod
    def compile(
        cls, interner: TokenInterner, tagged: Sequence[Tuple[FlatAutomaton, int]]
    ) -> "CombinedAutomaton":
        """Fuse *(automaton, tag)* pairs into one tagged automaton."""
        tag_of: Dict[Phrase, int] = {}
        for automaton, tag in tagged:
            for phrase, __ in automaton.phrase_states():
                tag_of[phrase] = tag_of.get(phrase, 0) | tag
        base = FlatAutomaton.compile(tag_of, interner)
        tags = [0] * base.state_count
        for phrase, tag in tag_of.items():
            tags[base.terminal_of(phrase)] = tag
        return cls(base, tags)

    def scan(
        self, ids: Sequence[int]
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """One pass over *ids* -> (concepts, named) ``{start: end}`` maps.

        Symbol 0 (not in any phrase) always transitions to the root and
        the root emits nothing, so only the tokens with a nonzero symbol
        need walking: the state resets to the root wherever the nonzero
        positions are not contiguous.  Ends only grow as the scan
        advances, so the last end written for a start is its longest.
        """
        base = self.base
        delta = self._delta_pm
        emits = self._emits_pm
        out_len = base._out_len
        out_next = base._out_next
        tags = self.tags
        if not isinstance(ids, np.ndarray):
            ids = np.asarray(ids, dtype=np.int32)
        symbols = self._sym_array[ids]
        positions = symbols.nonzero()[0]
        best_concepts: Dict[int, int] = {}
        best_named: Dict[int, int] = {}
        state = 0  # pre-multiplied row base
        previous = -2
        for position, symbol in zip(
            positions.tolist(), symbols[positions].tolist()
        ):
            if position != previous + 1:
                state = 0
            previous = position
            state = delta[state + symbol]
            terminal = emits[state]
            while terminal:
                end = position + 1
                start = end - out_len[terminal]
                tag = tags[terminal]
                if tag & TAG_CONCEPTS:
                    best_concepts[start] = end
                if tag & TAG_NAMED:
                    best_named[start] = end
                terminal = out_next[terminal]
        return best_concepts, best_named


class TaggedPhraseView:
    """Matcher-protocol adapter over the kernel's shared combined scan.

    Exposes the one method :class:`~repro.detection.matcher.
    PhraseMatcher` calls on an attached automaton (``find_phrases``)
    plus the attributes it validates against, but resolves matches from
    the kernel's cached per-document combined scan, so the concept and
    named detectors together trigger a single pass.  Falls back to the
    wrapped per-detector automaton when the kernel has no combined
    automaton (only one of the two inventories).
    """

    __slots__ = ("_kernel", "_slot", "automaton")

    def __init__(self, kernel: "DetectionKernel", slot: int, automaton):
        self._kernel = kernel
        self._slot = slot
        self.automaton = automaton

    @property
    def phrase_count(self) -> int:
        return self.automaton.phrase_count

    @property
    def interner(self) -> TokenInterner:
        return self.automaton.interner

    def find_token_spans(self, ids: Sequence[int]) -> List[Tuple[int, int]]:
        return self.automaton.find_token_spans(ids)

    def find_phrases(
        self, document: TokenizedDocument
    ) -> List[Tuple[Phrase, int, int]]:
        kernel = self._kernel
        if kernel._combined is None:
            return self.automaton.find_phrases(document)
        best = kernel.scan(document)[self._slot]
        if not best:
            return []
        words = document.words
        starts = document.word_starts
        ends = document.word_ends
        out: List[Tuple[Phrase, int, int]] = []
        cursor = 0
        for start in sorted(best):
            if start >= cursor:
                end = best[start]
                out.append(
                    (tuple(words[start:end]), starts[start], ends[end - 1])
                )
                cursor = end
        return out


class DetectionKernel:
    """The compiled per-document analysis bundle the pipeline attaches.

    One interner + stem table, shared by up to three automata:

    * ``concepts`` -- the concept detector's phrase inventory;
    * ``named``    -- the editorial dictionary's phrase inventory;
    * ``units``    -- the unit lexicon's *multi-term* units, with the
      normalized unit scores in the score column; single-term unit
      scores live in ``unit_single_scores`` (``float64[V + 1]``,
      OOV slot 0.0 — unit tokens are folded into the vocab, so an OOV
      word can never be a unit).

    ``concepts`` and ``named`` are fused into one
    :class:`CombinedAutomaton` scan (detection); ``units`` is scanned
    on its own, and only by the concept-vector baseline
    (:meth:`unit_weights`).
    """

    def __init__(
        self,
        interner: TokenInterner,
        stem_table: StemTable,
        concepts: Optional[FlatAutomaton] = None,
        named: Optional[FlatAutomaton] = None,
        units: Optional[FlatAutomaton] = None,
        unit_single_scores: Optional[Sequence[float]] = None,
    ):
        self.interner = interner
        self.stem_table = stem_table
        self.concepts = concepts
        self.named = named
        self.units = units
        if unit_single_scores is None:
            unit_single_scores = [0.0] * (len(interner) + 1)
        self.unit_single_scores = [float(v) for v in unit_single_scores]
        if len(self.unit_single_scores) != len(interner) + 1:
            raise ValueError("unit score column does not cover the vocabulary")
        # vectorized companion of the scores column: one fancy-index +
        # flatnonzero finds a document's singleton-unit positions
        self._unit_single_array = np.asarray(
            self.unit_single_scores, dtype=np.float64
        )
        # vectorized companion of the stem-table flags: True at content
        # vids (False at stopwords and the OOV slot), for term counting
        self._content_mask = (
            np.frombuffer(bytes(stem_table.flags), dtype=np.uint8) == 0
        )
        self._tid_cache = None  # (table identity+size, vid->TID column)
        self._idf_cache = None  # (table identity+version, vid->idf column)
        # Fuse the two detector inventories into one tagged scan (with
        # a single automaton there is nothing to share).
        self._combined = (
            CombinedAutomaton.compile(
                interner, [(concepts, TAG_CONCEPTS), (named, TAG_NAMED)]
            )
            if concepts is not None and named is not None
            else None
        )
        self.concepts_view = (
            TaggedPhraseView(self, 0, concepts) if concepts is not None else None
        )
        self.named_view = (
            TaggedPhraseView(self, 1, named) if named is not None else None
        )

    @classmethod
    def build(
        cls,
        concept_phrases: Optional[Iterable[Phrase]] = None,
        named_phrases: Optional[Iterable[Phrase]] = None,
        lexicon=None,
        vocab_terms: Iterable[str] = (),
        stem_of: Optional[Dict[str, str]] = None,
    ) -> "DetectionKernel":
        """Compile a kernel from the pipeline's live inventories.

        The vocabulary is *vocab_terms* in iteration order (typically a
        corpus vocabulary) extended — sorted, for deterministic pack
        bytes — with any phrase/unit tokens it is missing.
        """
        concept_inventory = (
            [tuple(t.lower() for t in p) for p in concept_phrases if p]
            if concept_phrases is not None
            else None
        )
        named_inventory = (
            [tuple(t.lower() for t in p) for p in named_phrases if p]
            if named_phrases is not None
            else None
        )
        units = lexicon.units() if lexicon is not None else []

        vocab: Dict[str, None] = dict.fromkeys(vocab_terms)
        extra = set()
        for inventory in (concept_inventory or (), named_inventory or ()):
            for phrase in inventory:
                for term in phrase:
                    if term not in vocab:
                        extra.add(term)
        for unit in units:
            for term in unit.terms:
                if term not in vocab:
                    extra.add(term)
        terms = list(vocab) + sorted(extra)

        interner = TokenInterner(terms)
        stem_table = StemTable.build(terms, stem_of=stem_of)
        concepts = (
            FlatAutomaton.compile(concept_inventory, interner)
            if concept_inventory is not None
            else None
        )
        named = (
            FlatAutomaton.compile(named_inventory, interner)
            if named_inventory is not None
            else None
        )

        units_automaton = None
        unit_single_scores = None
        if lexicon is not None:
            multi = {
                tuple(u.terms): float(u.score)
                for u in units
                if len(u.terms) > 1
            }
            # sorted: the lexicon's dict order depends on mining
            # internals (seed vs vectorized miner), but the automaton
            # layout — and the pack bytes — must not
            units_automaton = FlatAutomaton.compile(
                sorted(multi), interner, scores=multi
            )
            unit_single_scores = [0.0] * (len(interner) + 1)
            for unit in units:
                if len(unit.terms) == 1:
                    vid = interner.id_of(unit.terms[0])
                    unit_single_scores[vid] = float(unit.score)

        return cls(
            interner,
            stem_table,
            concepts=concepts,
            named=named,
            units=units_automaton,
            unit_single_scores=unit_single_scores,
        )

    # -- per-document kernels --------------------------------------------

    def scan(self, document: TokenizedDocument) -> Tuple[dict, dict]:
        """The document's combined-scan result, computed at most once.

        Cached on the document, so the concept detector and the named
        detector share one pass over the id stream.  Only valid when a
        combined automaton exists.
        """
        cached = document._kernel_scan
        if cached is not None and cached[0] is self:
            return cached[1]
        result = self._combined.scan(document.token_id_array(self.interner))
        document._kernel_scan = (self, result)
        return result

    def stem_document(self, document: TokenizedDocument) -> TokenizedDocument:
        """The stemmer pass: stamp the kernel and intern the document.

        The interned id view is computed here (the stage's real work);
        the stem *strings* stay lazy — with the kernel stamped,
        ``document.stemmed_terms`` materializes through the stem table
        if a consumer asks, and the relevance context usually bypasses
        stem strings entirely via :meth:`tid_context`.
        """
        document._kernel = self
        document.token_ids(self.interner)
        return document

    def stemmed_document_terms(self, document: TokenizedDocument) -> List[str]:
        """Table-driven ``stemmed_terms`` for *document* (uncached)."""
        return self.stem_table.stemmed_terms(
            document.words, document.token_ids(self.interner)
        )

    def tid_context(self, document: TokenizedDocument, tid_table) -> np.ndarray:
        """Sorted unique TID array of the document's stemmed content terms.

        Stem-free for in-vocabulary text: a cached vid->TID column turns
        the ranking context into array ops over the interned id stream;
        only OOV words fall back to Porter + a table lookup.  Value-
        identical to ``tid_table.tid_context(stemmed_terms(document))``.
        """
        ids = document.token_id_array(self.interner)
        mapping = self._tid_mapping(tid_table)
        # one bincount replaces np.unique: shifting the sentinel values
        # (-2: the OOV slot, -1: stopword/untracked) into slots 0/1
        # makes nonzero counts[2:] exactly the sorted unique TIDs, and
        # slot 0 tells us OOV presence without another pass
        counts = np.bincount(mapping[ids] + 2, minlength=2)
        has_oov = bool(counts[0])
        unique = counts[2:].nonzero()[0]
        oov = self.interner.oov
        if has_oov:
            extra = set()
            words = document.words
            lookup = tid_table.lookup
            for position, vid in enumerate(document.token_ids(self.interner)):
                if vid == oov:
                    word = words[position]
                    if not is_stopword(word):
                        tid = lookup(stem(word))
                        if tid is not None:
                            extra.add(tid)
            if extra:
                unique = np.unique(
                    np.concatenate(
                        [unique, np.fromiter(extra, dtype=mapping.dtype)]
                    )
                )
        return unique.astype(np.uint32)

    def _tid_mapping(self, tid_table) -> np.ndarray:
        """vid -> TID column (-1: stopword/untracked, -2: the OOV slot).

        Cached against the table's identity and size; TID tables only
        ever grow, so a size change is exactly a content change.
        """
        key = (id(tid_table), len(tid_table))
        cached = self._tid_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        flags = self.stem_table.flags
        stems = self.stem_table.stems
        lookup = tid_table.lookup
        mapping = np.full(len(self.interner) + 1, -1, dtype=np.int64)
        mapping[len(self.interner)] = -2  # OOV sentinel slot
        for vid in range(len(self.interner)):
            if flags[vid] == 0:
                tid = lookup(stems[vid])
                if tid is not None:
                    mapping[vid] = tid
        self._tid_cache = (key, mapping)
        return mapping

    def term_counts(self, document: TokenizedDocument) -> Dict[str, int]:
        """Stopword-free term counts (the term-vector counting pass).

        In-vocabulary counting is one ``np.bincount`` over the cached id
        array; only OOV words fall back to the per-token Python loop.
        Counts are integer-identical to the seed loop (dict order may
        differ; every downstream weight is computed per-entry).
        """
        ids = document.token_id_array(self.interner)
        oov = self.interner.oov
        counts_by_id = np.bincount(ids, minlength=oov + 1)
        present = (counts_by_id.astype(bool) & self._content_mask).nonzero()[0]
        terms = self.interner.terms
        counts: Dict[str, int] = {
            terms[vid]: count
            for vid, count in zip(
                present.tolist(), counts_by_id[present].tolist()
            )
        }
        if counts_by_id[oov]:
            words = document.words
            for position, vid in enumerate(document.token_ids(self.interner)):
                if vid == oov:
                    word = words[position]
                    if not is_stopword(word):
                        counts[word] = counts.get(word, 0) + 1
        return counts

    def _idf_column(self, doc_frequency) -> np.ndarray:
        """vid -> idf column for *doc_frequency*, cached per version.

        Every mutation of the table goes through ``add_document``,
        which bumps ``total_documents`` — so (identity, total) is a
        version key.  Values come from the table's own ``idf``, so each
        entry is the exact double the per-term path would compute.
        """
        key = (id(doc_frequency), doc_frequency.total_documents)
        cached = self._idf_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        idf = doc_frequency.idf
        terms = self.interner.terms
        column = np.empty(len(terms) + 1, dtype=np.float64)
        column[-1] = 0.0  # the OOV slot; never read (content mask is False)
        for vid, term in enumerate(terms):
            column[vid] = idf(term)
        self._idf_cache = (key, column)
        return column

    def term_weights(
        self,
        document: TokenizedDocument,
        doc_frequency,
        punish_threshold: float,
        punish_factor: float,
        prune_threshold: float,
    ) -> Dict[str, float]:
        """Shaped tf*idf term weights, computed in id space.

        Fuses the term-vector chain (count -> tf*idf -> normalize ->
        punish -> prune) into array passes over the present vids: one
        ``bincount``, one idf-column multiply, one vectorized
        normalize/punish/prune.  Each per-entry float operation
        (``count * idf``, ``/ peak``, ``* punish_factor``, threshold
        compares) is the same IEEE double arithmetic the TermVector
        path applies per term, so surviving weights are
        float-identical; only OOV words run the per-token fallback.
        """
        ids = document.token_id_array(self.interner)
        oov = self.interner.oov
        counts_by_id = np.bincount(ids, minlength=oov + 1)
        present = (counts_by_id.astype(bool) & self._content_mask).nonzero()[0]
        weights = (
            counts_by_id[present].astype(np.float64)
            * self._idf_column(doc_frequency)[present]
        )

        oov_weights: Dict[str, float] = {}
        if counts_by_id[oov]:
            words = document.words
            counts: Dict[str, int] = {}
            for position, vid in enumerate(document.token_ids(self.interner)):
                if vid == oov:
                    word = words[position]
                    if not is_stopword(word):
                        counts[word] = counts.get(word, 0) + 1
            idf = doc_frequency.idf
            oov_weights = {
                word: count * idf(word) for word, count in counts.items()
            }

        peak = weights.max() if weights.size else 0.0
        if oov_weights:
            peak = max(peak, max(oov_weights.values()))
        terms = self.interner.terms
        if not weights.size and not oov_weights:
            return {}
        if peak <= 0.0:
            # degenerate table: normalized() pins every weight to 0.0
            value = 0.0 * punish_factor if 0.0 < punish_threshold else 0.0
            if value < prune_threshold:
                return {}
            out = {terms[vid]: value for vid in present.tolist()}
            for word in oov_weights:
                out[word] = value
            return out
        normalized = weights / peak
        shaped = np.where(
            normalized < punish_threshold,
            normalized * punish_factor,
            normalized,
        )
        keep = shaped >= prune_threshold
        out = {
            terms[vid]: value
            for vid, value in zip(
                present[keep].tolist(), shaped[keep].tolist()
            )
        }
        for word, weight in oov_weights.items():
            value = weight / peak
            if value < punish_threshold:
                value *= punish_factor
            if value >= prune_threshold:
                out[word] = value
        return out

    def unit_weights(self, document: TokenizedDocument) -> Dict[str, float]:
        """Greedy unit-segmentation weights (the unit-vector pass).

        Reproduces ``UnitLexicon.segment`` + scoring: multi-term units
        come from the unit automaton's leftmost-longest spans (score in
        the automaton's score column), every uncovered word is a
        singleton segment scored by the single-unit column.  Weight
        insertion order is document order, like the seed loop.  Only
        the concept-vector baseline calls this; detection never scans
        the unit automaton.
        """
        ids = document.token_ids(self.interner)
        spans = (
            self.units.find_scored_spans(ids) if self.units is not None else []
        )
        words = document.words
        singles = self.unit_single_scores
        weights: Dict[str, float] = {}

        # A given word always carries the same single-unit score and a
        # given multi-term phrase the same automaton score, so "keep the
        # max" degenerates to "insert once".  Positions with a nonzero
        # singleton score are found in one vectorized pass; the walk
        # below visits only those, in document order, skipping the ones
        # a multi-term span covers — exactly the seed segmentation.
        candidates = (
            self._unit_single_array[document.token_id_array(self.interner)]
            > 0.0
        ).nonzero()[0].tolist()
        count = len(candidates)
        index = 0
        for start, end, score in spans:
            while index < count:
                position = candidates[index]
                if position >= start:
                    break
                index += 1
                word = words[position]
                if word not in weights:
                    weights[word] = singles[ids[position]]
            if score > 0.0:
                phrase = " ".join(words[start:end])
                if phrase not in weights:
                    weights[phrase] = score
            while index < count and candidates[index] < end:
                index += 1
        for position in candidates[index:]:
            word = words[position]
            if word not in weights:
                weights[word] = singles[ids[position]]
        return weights
