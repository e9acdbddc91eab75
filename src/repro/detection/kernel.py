"""Compiled detection kernels: flat Aho–Corasick automata + stem table.

This is the one execution path for the per-document "analysis" half of
the hot path: phrase matching, the stemmer pass, and the concept-vector
baseline's counting and unit segmentation all run over flat tables
built once (offline by the pack builder, or on first use):

* :class:`TokenInterner` — the shared token vocabulary.  Every word of
  a document is interned to an ``int32`` id exactly once (the id stream
  is cached on the :class:`~repro.text.tokenized.TokenizedDocument`),
  and every downstream kernel consumes ids instead of strings.
* :class:`StemTable` — vocab id -> (stopword flag, stem string): the
  relevance context maps interned ids to TIDs through it, so the
  Porter stemmer runs only for out-of-vocabulary words.
* :class:`FlatAutomaton` — an Aho–Corasick automaton over token ids
  with dense ``int32`` goto columns (fail transitions pre-resolved into
  the goto table), ``int32`` fail/output-length/output-link columns,
  and an optional ``float64`` score column per terminal state: what a
  data-pack stores.
* :class:`CombinedAutomaton` — the one walk over a flat automaton whose
  terminals carry tag bits.  One O(tokens) scan finds every match; the
  match set is reduced to the leftmost-longest greedy selection
  (longest match at a position, then resume past it).
* :class:`DetectionKernel` — the bundle the pipeline attaches: one
  interner + stem table shared by the concept and named-entity
  automata (fused into one tagged scan) and the unit-segmentation
  automaton that only the concept-vector baseline scorer scans.

The seed-era reference implementations (the per-position phrase walk
and the per-term vector passes) live in ``tests/reference.py``; the
tests cross-check every compiled structure against them.
"""

from __future__ import annotations

import itertools
import threading
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.text.stemmer import stem
from repro.text.stopwords import is_stopword
from repro.text.tokenized import TokenizedDocument

Phrase = Tuple[str, ...]
# A detector's match: the matched lower-cased words and their
# (char_start, char_end) surface span in the text.
PhraseMatch = Tuple[Phrase, int, int]
# A scan's match as ids: its (char_start, char_end) surface span and the
# terminal state of its phrase (``CombinedAutomaton.phrases[terminal]``).
TerminalSpan = Tuple[int, int, int]

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
    :class:`~repro.text.corpus.TokenizedCorpus`), so the TID context
    read through it equals the one of the stemmed terms.
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


def phrase_inventory(phrases: Iterable[Phrase]) -> List[Phrase]:
    """*phrases* lower-cased and deduplicated, empty phrases dropped,
    first-seen order kept: the inventory an automaton is compiled for."""
    inventory: Dict[Phrase, None] = {}
    for phrase in phrases:
        phrase = tuple(term.lower() for term in phrase)
        if phrase:
            inventory[phrase] = None
    return list(inventory)


def _describe(inventory: Optional[set]) -> str:
    """*inventory*'s size for an error message ("none" when absent)."""
    return "none" if inventory is None else f"{len(inventory)} phrases"


def _state_ints(count: int) -> np.ndarray:
    """An object array of the ints ``0 .. count - 1``.

    Indexing it with a state-valued column and calling ``tolist()``
    gives a list of these *count* int objects, shared; the column's own
    ``tolist()`` would create a new int for every entry above 256.
    """
    return np.arange(count).astype(object)


class FlatAutomaton:
    """Aho–Corasick over interned token ids, as flat ``int32`` columns.

    Columns (``S`` states, alphabet of ``A`` symbols, vocab of ``V``
    terms):

    * ``delta``    -- ``int32[S * A]``: the goto table with fail
      transitions pre-resolved (a true DFA row per state).  Symbol 0 is
      the not-in-alphabet sentinel and always returns to the root, so
      its column is all 0 (the scan reuses that slot for the emit).
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

    The automaton holds its columns as numpy arrays — the ones
    :meth:`compile` builds, or range-checked ``np.frombuffer`` views
    straight off a data-pack — and :meth:`columns` returns them as
    they are.  It has no walk of its own: a :class:`CombinedAutomaton`
    scans it, so one that is loaded but never scanned costs only its
    arrays.
    """

    __slots__ = (
        "interner",
        "alphabet_size",
        "state_count",
        "phrase_count",
        "_columns",
    )

    def __init__(
        self,
        interner: TokenInterner,
        delta: np.ndarray,
        fail: np.ndarray,
        out_len: np.ndarray,
        emits: np.ndarray,
        out_next: np.ndarray,
        sym: np.ndarray,
        phrase_count: int,
        out_score: Optional[np.ndarray] = None,
    ):
        self.interner = interner
        self._columns: Dict[str, np.ndarray] = {
            "delta": delta,
            "fail": fail,
            "out_len": out_len,
            "emits": emits,
            "out_next": out_next,
            "sym": sym,
        }
        if out_score is not None:
            self._columns["out_score"] = out_score
        self.state_count = len(fail)
        self.phrase_count = int(phrase_count)
        if self.state_count:
            self.alphabet_size = len(delta) // self.state_count
        else:
            self.alphabet_size = 0
        if len(sym) != len(interner) + 1:
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
        inventory = phrase_inventory(phrases)

        # alphabet: symbols 1..A-1 for tokens used by any phrase, in
        # first-use order
        symbol_of: Dict[int, int] = {}
        for phrase in inventory:
            for term in phrase:
                vid = interner.id_of(term)
                if vid is None:
                    raise ValueError(
                        f"phrase token {term!r} missing from the kernel vocabulary"
                    )
                if vid not in symbol_of:
                    symbol_of[vid] = len(symbol_of) + 1
        alphabet_size = len(symbol_of) + 1
        sym = np.zeros(len(interner) + 1, dtype=np.int32)
        sym[list(symbol_of)] = list(symbol_of.values())

        # trie over symbols
        goto: List[Dict[int, int]] = [{}]
        terminals: List[int] = []
        for phrase in inventory:
            state = 0
            for term in phrase:
                symbol = symbol_of[interner.id_of(term)]
                nxt = goto[state].get(symbol)
                if nxt is None:
                    nxt = len(goto)
                    goto[state][symbol] = nxt
                    goto.append({})
                state = nxt
            terminals.append(state)
        state_count = len(goto)
        out_len = np.zeros(state_count, dtype=np.int32)
        out_len[terminals] = [len(phrase) for phrase in inventory]

        # Dense DFA rows (fail pre-resolved) and output links, one BFS
        # level at a time.  A state's row starts as a copy of its fail
        # state's row, already complete because that state is
        # shallower; each trie edge then reads its child's fail state
        # from that row before overwriting the entry with the child.
        delta = np.zeros((state_count, alphabet_size), dtype=np.int32)
        fail = np.zeros(state_count, dtype=np.int32)
        emits = np.zeros(state_count, dtype=np.int32)
        out_next = np.zeros(state_count, dtype=np.int32)
        level = [0]  # the root, its own fail state
        while level:
            links = fail[level]
            delta[level] = delta[links]
            # nearest terminal in the fail chain, the state included
            emits[level] = np.where(out_len[level] > 0, level, emits[links])
            out_next[level] = emits[links]
            edges = [
                (state, symbol, nxt)
                for state in level
                for symbol, nxt in goto[state].items()
            ]
            if not edges:
                break
            parents, symbols, children = zip(*edges)
            fail[list(children)] = delta[parents, symbols]
            delta[parents, symbols] = children
            level = list(children)

        out_score = None
        if scores is not None:
            out_score = np.zeros(state_count, dtype=np.float64)
            out_score[terminals] = [
                float(scores.get(phrase, 0.0)) for phrase in inventory
            ]

        return cls(
            interner,
            delta.reshape(-1),
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
        return dict(self._columns)

    # -- inventory reconstruction ----------------------------------------

    def phrase_states(self) -> List[Tuple[Phrase, int]]:
        """Reconstruct ``(phrase, terminal state)`` pairs from the columns.

        The dense delta rows mix real trie edges with pre-resolved fail
        shortcuts, but a BFS from the root tells them apart: a shortcut
        from a depth-``d`` state lands at depth ``<= d`` (it goes through
        a fail ancestor), so the only transitions reaching an *unvisited*
        state are the trie edges.  This lets a kernel loaded from flat
        pack columns recover the exact phrase inventories — no extra
        serialized payload — e.g. to compile the detector scan.

        The BFS runs over the ``delta`` array one level at a time, so it
        builds no Python lists of the rows.  A level's states are found
        in parent order, then symbol order: the order of a queue BFS.
        """
        terms = self.interner.terms
        sym = self._columns["sym"]
        vids = np.flatnonzero(sym[: len(terms)]).tolist()
        token_of: Dict[int, str] = dict(
            zip(sym[vids].tolist(), (terms[vid] for vid in vids))
        )

        delta = self._columns["delta"].reshape(self.state_count, -1)
        out_len = self._columns["out_len"]
        visited = np.zeros(self.state_count, dtype=bool)
        visited[0] = True
        paths: Dict[int, Phrase] = {0: ()}
        pairs: List[Tuple[Phrase, int]] = []
        level = np.zeros(1, dtype=np.intp)
        while level.size:
            rows = delta[level, 1:]  # symbol 0 always returns to the root
            parents, symbols = np.nonzero(~visited[rows])
            children = rows[parents, symbols]
            symbols += 1
            # A damaged pack's rows could reach one state twice in a
            # level; as in a queue BFS, the first discovery wins.
            first = np.sort(np.unique(children, return_index=True)[1])
            parents, symbols, children = (
                level[parents[first]], symbols[first], children[first]
            )
            visited[children] = True
            for parent, symbol, child, length in zip(
                parents.tolist(),
                symbols.tolist(),
                children.tolist(),
                out_len[children].tolist(),
            ):
                path = paths[child] = paths[parent] + (token_of[symbol],)
                if length:
                    pairs.append((path, child))
            level = children
        return pairs


# A terminal's tag bits say which of a scan's two match maps its phrase
# goes to: bit 1 the first, bit 2 the second.  The detector scan tags
# concept phrases 1 and named phrases 2 (a phrase in both inventories
# carries both); the units scan tags every unit 1.
TAG_CONCEPTS = 1
TAG_NAMED = 2
TAG_UNITS = 1


class CombinedAutomaton:
    """The one Aho–Corasick walk: a flat automaton with tagged terminals.

    Every scan of a :class:`DetectionKernel` is one of these.  The
    detector scan fuses the concept and named-entity inventories into
    one automaton over their union, so the two detectors together cost
    one delta step and one output probe per token; each terminal's tag
    bitmask says which detectors own its phrase.  The units scan walks
    the unit automaton as it is (:meth:`of`).  The units stay out of
    the fusion: only the concept-vector baseline segments units, so
    serving neither compiles nor walks the far larger three-inventory
    table.

    :meth:`scan` records, per tag and start token, the terminal of the
    longest match there: its end is ``start + out_len[terminal]`` and,
    for a scored automaton, its score ``out_score[terminal]``.
    :meth:`spans` reduces that to the leftmost-longest selection and
    :meth:`char_spans` gives the selection's character offsets.  A
    compiled scan also knows each terminal's phrase (``phrases``), so
    its matches travel as terminal ids and become words only where a
    caller asks.

    Derived state, never serialized: the kernel compiles its detector
    scan from the inventories its automata's columns hold
    (:meth:`FlatAutomaton.phrase_states`), so data-pack bytes are
    untouched.  The token loop indexes Python lists built from the
    base's columns, because list indexing beats numpy scalar indexing
    there.
    """

    __slots__ = (
        "base",
        "tags",
        "phrases",
        "out_score",
        "_delta_pm",
        "_out_len",
        "_out_next",
        "_sym_array",
    )

    def __init__(
        self,
        base: FlatAutomaton,
        tags: Sequence[int],
        phrases: Optional[List[Optional[Phrase]]] = None,
    ):
        self.base = base
        self.tags = [int(v) for v in tags]
        # terminal state -> its phrase (None elsewhere); only a compiled
        # scan has them, the units scan needs none
        self.phrases = phrases
        # Scan-loop precomputation: delta entries pre-multiplied by the
        # alphabet size (a state is represented by its row base, saving
        # the per-token multiply; one shared int object per row base),
        # and the symbol column kept as an array so a document's symbol
        # stream is one vectorized gather.  The scan never steps on
        # symbol 0 (it walks only nonzero symbols), so each row's
        # symbol-0 slot is free: it holds the state's output probe,
        # ``delta[row base]`` = the first terminal the state emits.
        alphabet = base.alphabet_size
        columns = base.columns()
        states = _state_ints(base.state_count)
        delta_pm = (states * alphabet)[columns["delta"]].tolist()
        if alphabet:
            delta_pm[::alphabet] = states[columns["emits"]].tolist()
        self._delta_pm = delta_pm
        self._out_len = columns["out_len"].tolist()
        self._out_next = states[columns["out_next"]].tolist()
        self._sym_array = columns["sym"]
        scores = columns.get("out_score")
        self.out_score = None if scores is None else scores.tolist()

    @classmethod
    def compile(
        cls, interner: TokenInterner, tagged: Sequence[Tuple[Sequence[Phrase], int]]
    ) -> "CombinedAutomaton":
        """Fuse *(inventory, tag)* pairs into one tagged automaton."""
        tag_of: Dict[Phrase, int] = {}
        for inventory, tag in tagged:
            for phrase in inventory:
                tag_of[phrase] = tag_of.get(phrase, 0) | tag
        base = FlatAutomaton.compile(tag_of, interner)
        tags = [0] * base.state_count
        phrases: List[Optional[Phrase]] = [None] * base.state_count
        for phrase, terminal in base.phrase_states():
            tags[terminal] = tag_of[phrase]
            phrases[terminal] = phrase
        return cls(base, tags, phrases)

    @classmethod
    def of(cls, automaton: FlatAutomaton, tag: int) -> "CombinedAutomaton":
        """The scan of *automaton* alone, every terminal tagged *tag*."""
        return cls(automaton, (automaton.columns()["out_len"] > 0) * tag)

    def scan(
        self, ids: Sequence[int]
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """One pass over *ids* -> ``{start: terminal}`` per tag bit (1, 2).

        Symbol 0 (not in any phrase) always transitions to the root and
        the root emits nothing, so only the tokens with a nonzero symbol
        need walking: the state resets to the root wherever the nonzero
        positions are not contiguous.  Ends only grow as the scan
        advances, so the last terminal written for a start is its
        longest match.
        """
        delta = self._delta_pm
        out_len = self._out_len
        out_next = self._out_next
        tags = self.tags
        if not isinstance(ids, np.ndarray):
            ids = np.asarray(ids, dtype=np.int32)
        symbols = self._sym_array[ids]
        positions = symbols.nonzero()[0]
        first: Dict[int, int] = {}
        second: Dict[int, int] = {}
        state = 0  # pre-multiplied row base
        end = -1  # one past the previous walked position
        for position, symbol in zip(
            positions.tolist(), symbols[positions].tolist()
        ):
            if position != end:
                state = 0
            end = position + 1
            state = delta[state + symbol]
            terminal = delta[state]  # the symbol-0 slot: the state's emit
            while terminal:
                start = end - out_len[terminal]
                tag = tags[terminal]
                if tag & 1:
                    first[start] = terminal
                if tag & 2:
                    second[start] = terminal
                terminal = out_next[terminal]
        return first, second

    def spans(self, best: Dict[int, int]) -> List[Tuple[int, int, int]]:
        """One :meth:`scan` map reduced to ``(start, end, terminal)`` spans.

        The production segmentation's greedy rule: take the longest
        match at the scan position, then resume past it, so the spans
        are leftmost-longest and never overlap.
        """
        out_len = self._out_len
        spans: List[Tuple[int, int, int]] = []
        cursor = 0
        for start in sorted(best):
            if start >= cursor:
                terminal = best[start]
                cursor = start + out_len[terminal]
                spans.append((start, cursor, terminal))
        return spans

    def char_spans(
        self, best: Dict[int, int], document: TokenizedDocument
    ) -> List[TerminalSpan]:
        """:meth:`spans` with character offsets: ``(char_start,
        char_end, terminal)`` spans of *document*, in document order.

        Only the matched words' offsets are read, one ``item`` each,
        so the document's offset arrays never become lists.
        """
        start_of = document.word_starts.item
        end_of = document.word_ends.item
        return [
            (start_of(start), end_of(end - 1), terminal)
            for start, end, terminal in self.spans(best)
        ]


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
    :class:`CombinedAutomaton`, the detector scan (:meth:`scan`),
    compiled at construction; a missing inventory scans as empty.
    ``units`` is scanned on its own, and only by the concept-vector
    baseline (:meth:`unit_weights`), so its scan is built on the
    baseline's first document.  A kernel with neither detector automaton
    (``DetectionKernel.build(lexicon=...)``) is what a concept-vector
    scorer used outside a pipeline compiles for itself.
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
        # The phrase inventories the detector automata were compiled
        # for, recovered from their columns (None: no such automaton).
        # `check_inventories` compares them with a pipeline's detectors.
        self.inventories: Dict[str, Optional[List[Phrase]]] = {
            name: (
                [phrase for phrase, __ in automaton.phrase_states()]
                if automaton is not None
                else None
            )
            for name, automaton in (("concepts", concepts), ("named", named))
        }
        # Fuse the two detector inventories into one tagged scan.
        self._detector_scan = CombinedAutomaton.compile(
            interner,
            [
                (self.inventories["concepts"] or (), TAG_CONCEPTS),
                (self.inventories["named"] or (), TAG_NAMED),
            ],
        )
        self._units_scan: Optional[CombinedAutomaton] = None

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
            # sorted: the lexicon's dict order is an artifact of the
            # mining order, but the automaton layout — and the pack
            # bytes — must not depend on it
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

    def check_inventories(
        self,
        concepts: Optional[Iterable[Phrase]],
        named: Optional[Iterable[Phrase]],
    ) -> None:
        """Raise ``ValueError`` unless the kernel matches these inventories.

        *concepts* and *named* are a pipeline's detector inventories
        (None for a detector it does not have).  They are compared with
        the compiled ones as sets; an inventory present on only one
        side is a mismatch too.  The error names the inventory.
        """
        for name, expected in (("concepts", concepts), ("named", named)):
            compiled = self.inventories[name]
            compiled_set = set(compiled) if compiled is not None else None
            expected_set = set(expected) if expected is not None else None
            if compiled_set != expected_set:
                raise ValueError(
                    f"detection kernel was compiled for a different {name} "
                    f"inventory (kernel: {_describe(compiled_set)}, "
                    f"detector: {_describe(expected_set)})"
                )

    # -- per-document kernels --------------------------------------------

    @property
    def phrases(self) -> List[Optional[Phrase]]:
        """The detector scan's terminal state -> phrase column (None at
        states that end no phrase): what :meth:`scan`'s terminals name."""
        return self._detector_scan.phrases

    def scan(
        self, document: TokenizedDocument
    ) -> Tuple[List[TerminalSpan], List[TerminalSpan]]:
        """The detector scan: (concept matches, named matches).

        One pass over the document's id stream serves both detectors.
        Each list is ``(char_start, char_end, terminal)`` matches in
        document order, leftmost-longest, never overlapping; the
        matched phrase is ``phrases[terminal]``.
        """
        automaton = self._detector_scan
        concepts, named = automaton.scan(document.token_id_array(self.interner))
        return (
            automaton.char_spans(concepts, document),
            automaton.char_spans(named, document),
        )

    def stem_document(self, document: TokenizedDocument) -> TokenizedDocument:
        """The stemmer pass: stamp the kernel and intern the document.

        The interned id view is computed here (the stage's real work).
        No stem strings are made: with the kernel stamped, the relevance
        context maps the ids to TIDs through the stem table
        (:meth:`tid_context`).
        """
        document._kernel = self
        document.token_ids(self.interner)
        return document

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

        # a plain float, so OOV weights divided by it stay plain floats
        # like the in-vocabulary ones (`tolist` below)
        peak = float(weights.max()) if weights.size else 0.0
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
        come from the units scan's leftmost-longest spans (score in the
        automaton's score column), every uncovered word is a singleton
        segment scored by the single-unit column.  Weight insertion
        order is document order, like the seed loop.  Only the
        concept-vector baseline calls this, so the units scan is built
        on the first call; detection never scans the unit automaton.
        """
        ids = document.token_ids(self.interner)
        spans: List[Tuple[int, int, int]] = []
        if self.units is not None:
            automaton = self._units_scan
            if automaton is None:
                # published with one assignment: two threads making the
                # first call at once can at worst both build it
                automaton = self._units_scan = CombinedAutomaton.of(
                    self.units, TAG_UNITS
                )
            spans = automaton.spans(
                automaton.scan(document.token_id_array(self.interner))[0]
            )
            scores = automaton.out_score
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
        for start, end, terminal in spans:
            while index < count:
                position = candidates[index]
                if position >= start:
                    break
                index += 1
                word = words[position]
                if word not in weights:
                    weights[word] = singles[ids[position]]
            score = scores[terminal]
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
