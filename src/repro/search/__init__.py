"""Search-engine substrate: index, engine, snippets, Prisma, suggestions."""

from repro.search.engine import SearchEngine, SearchResult
from repro.search.frozen import FrozenInvertedIndex
from repro.search.prisma import PrismaTool
from repro.search.snippets import SnippetService
from repro.search.suggestions import SuggestionService

__all__ = [
    "SearchEngine",
    "SearchResult",
    "FrozenInvertedIndex",
    "PrismaTool",
    "SnippetService",
    "SuggestionService",
]
