"""Tests for tokenization, sentence and paragraph boundaries.

`TestTokenize` pins the seed's regex tokenizer, kept in
``tests/reference.py``; `TestWordPaths` holds the word pass
(`tokenize_lower`, `word_spans`) equal to its word tokens.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text import paragraphs, sentences, tokenize_lower
from repro.text.tokenizer import iter_ngrams, word_spans
from tests.reference import Token, tokenize
from tests.reference import tokenize_lower as seed_tokenize_lower


class TestTokenize:
    def test_simple_words(self):
        tokens = tokenize("hello world")
        assert [t.text for t in tokens] == ["hello", "world"]

    def test_offsets_recover_source(self):
        text = "President Bush's position was similar."
        for token in tokenize(text):
            assert text[token.start : token.end] == token.text

    def test_apostrophes_kept_inside_words(self):
        tokens = tokenize("don't stop O'Brien")
        assert [t.text for t in tokens] == ["don't", "stop", "O'Brien"]

    def test_numbers_with_separators(self):
        tokens = tokenize("1,234.5 units")
        assert tokens[0].text == "1,234.5"

    def test_punctuation_is_separate_tokens(self):
        tokens = tokenize("Wait, what?!")
        assert [t.text for t in tokens] == ["Wait", ",", "what", "?", "!"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_is_word(self):
        tokens = tokenize("abc , 42")
        assert tokens[0].is_word()
        assert not tokens[1].is_word()
        assert not tokens[2].is_word()

    def test_token_lower(self):
        assert Token("Texas", 0, 5).lower == "texas"


class TestTokenizeLower:
    def test_drops_punctuation_and_lowercases(self):
        assert tokenize_lower("Hello, World!") == ["hello", "world"]

    def test_snippet_from_paper(self):
        words = tokenize_lower("argued at a debate with Obama last week in Texas")
        assert "obama" in words
        assert "texas" in words

    @given(st.text(max_size=200))
    def test_never_raises_and_all_lowercase(self, text):
        words = tokenize_lower(text)
        assert all(word == word.lower() for word in words)

    @given(st.text(max_size=200))
    def test_word_tokens_start_alpha(self, text):
        for word in tokenize_lower(text):
            assert word[0].isalpha()


def reference_spans(text):
    """The word tokens of `tokenize` as (lower-cased word, start, end)."""
    return [(t.lower, t.start, t.end) for t in tokenize(text) if t.is_word()]


def assert_word_paths_match(text):
    words, starts, ends = word_spans(text)
    assert starts.dtype == ends.dtype == np.int64
    assert list(zip(words, starts.tolist(), ends.tolist())) == reference_spans(text)
    assert tokenize_lower(text) == words


# Both letter cases, apostrophes (often, so chains and runs are common),
# digits glued to letters, the separators the number branch joins, and
# whitespace and NUL: every byte class the ASCII word mask treats apart.
_ascii_texts = st.text(
    alphabet=st.sampled_from(list("abzABZ'''09.,- \n\t\x00")), max_size=80
)


class TestWordPaths:
    """`word_spans` and `tokenize_lower` equal the word tokens of the
    seed `tokenize`: the byte mask for ASCII text, the regex otherwise."""

    @given(_ascii_texts)
    @example("")
    @example("a'b'c'd'e")
    @example("a''b")
    @example("''")
    @example("'abc'")
    @example("don't stop O'Brien's rock'n'roll")
    @example("4ab9'c d3'3 x'9")
    @example("a" * 1_000_000).via("one 1 MB word")
    @example("a'" * 500_000).via("a 1 MB apostrophe chain")
    @settings(deadline=None)
    def test_ascii_matches_tokenize(self, text):
        assert_word_paths_match(text)

    @given(st.text(max_size=80))
    @example("cafe\u0301 nai\u0308ve don't")  # combining marks
    @example("שלום world مرحبا")
    @example("\x00a'b\x00é'c")
    @example("ＡＢ abc")
    def test_non_ascii_matches_tokenize(self, text):
        assert_word_paths_match(text)

    def test_story_offsets_recover_words(self, env_stories, env_world):
        texts = [story.text for story in env_stories]
        texts += [page.text for page in env_world.web_corpus]
        for text in texts:
            words, starts, ends = word_spans(text)
            assert words == tokenize_lower(text) == seed_tokenize_lower(text)
            for word, start, end in zip(words, starts, ends):
                assert text[start:end].lower() == word


class TestSentences:
    def test_basic_split(self):
        parts = sentences("This is one. This is two.")
        assert len(parts) == 2

    def test_abbreviation_not_split(self):
        parts = sentences("Sen. Clinton argued. Obama replied.")
        assert len(parts) == 2
        assert parts[0].startswith("Sen. Clinton")

    def test_question_and_exclamation(self):
        parts = sentences("Really? Yes! Fine.")
        assert len(parts) == 3

    def test_no_terminator(self):
        assert sentences("no terminator here") == ["no terminator here"]

    def test_empty(self):
        assert sentences("") == []


class TestParagraphs:
    def test_blank_line_split(self):
        parts = paragraphs("para one\n\npara two\n\n\npara three")
        assert parts == ["para one", "para two", "para three"]

    def test_single_newline_not_split(self):
        assert paragraphs("line one\nline two") == ["line one\nline two"]

    def test_empty(self):
        assert paragraphs("   \n\n  ") == []


class TestIterNgrams:
    def test_all_ngrams_up_to_len(self):
        grams = list(iter_ngrams(["a", "b", "c"], 2))
        assert ("a",) in grams
        assert ("a", "b") in grams
        assert ("b", "c") in grams
        assert ("a", "b", "c") not in grams

    def test_counts(self):
        grams = list(iter_ngrams(["a", "b", "c", "d"], 3))
        # 4 unigrams + 3 bigrams + 2 trigrams
        assert len(grams) == 9

    @given(st.lists(st.text(min_size=1, max_size=4), max_size=8), st.integers(1, 4))
    def test_every_ngram_is_contiguous_subsequence(self, words, max_len):
        for gram in iter_ngrams(words, max_len):
            assert len(gram) <= max_len
            joined = list(gram)
            # must appear contiguously in words
            found = any(
                words[i : i + len(joined)] == joined
                for i in range(len(words) - len(joined) + 1)
            )
            assert found
