"""Quantized interestingness store (Section VI).

"For each concept we have in the system, we first compute the values
for these features in the offline process, and employ a normalization
that would fit each field to two bytes (this causes a minor decrease in
granularity).  So the interestingness vectors for 1 million concepts
would cost 18MB in memory."

The store is immutable: ONE contiguous ``uint16`` matrix of 9 fields
per concept (a fixed-stride columnar arena), a phrase -> row table, and
the dequantized model-ready matrix derived from them once, at
construction.  ``extract(phrase)`` makes it a drop-in for the live
:class:`~repro.features.interestingness.InterestingnessExtractor`;
``rows_of`` looks phrases up once and ``numeric_rows`` serves the
ranker's feature matrix as one gather of those rows.
Data-pack loads adopt the ``uint16`` matrix as a zero-copy view over
the mapped pack.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.corpus.concepts import TAXONOMY_TYPES
from repro.features.interestingness import (
    InterestingnessExtractor,
    InterestingnessVector,
    numeric_columns,
    numeric_matrix,
)
from repro.features.quantize import dequantize, quantize
from repro.obs import get_registry

FIELD_BITS = 16
_LEVELS = (1 << FIELD_BITS) - 1
_NUMERIC_FIELDS = (
    "freq_exact",
    "freq_phrase_contained",
    "unit_score",
    "searchengine_phrase",
    "concept_size",
    "number_of_chars",
    "subconcepts",
    "wiki_word_count",
)
_TYPE_FIELD = len(_NUMERIC_FIELDS)  # taxonomy type stored as an index
FIELD_COUNT = len(_NUMERIC_FIELDS) + 1


def _dequantized(matrix: np.ndarray, field_max: Sequence[float]) -> np.ndarray:
    """Row *i* is ``numeric(())`` of the vector ``extract`` reads off row *i*.

    Same arithmetic as :func:`~repro.features.quantize.dequantize`
    (code / levels * max) and ``extract``'s rounding of the integer
    fields (``np.rint`` rounds half to even, as ``round`` does).
    """
    values = matrix[:, :_TYPE_FIELD].astype(np.float64) / _LEVELS
    values *= np.asarray(field_max, dtype=np.float64)
    columns = {
        name: values[:, index] if name == "unit_score" else np.rint(values[:, index])
        for index, name in enumerate(_NUMERIC_FIELDS)
    }
    columns["high_level_type"] = matrix[:, _TYPE_FIELD]
    return numeric_matrix(columns)


class QuantizedInterestingnessStore:
    """Phrase -> row in one (concepts x 9) uint16 matrix.

    *phrases* name the rows of *matrix* in order; *backing* is held for
    the store's lifetime so a mapped data-pack outlives the matrix view.
    """

    def __init__(
        self,
        field_max: Sequence[float],
        phrases: Sequence[str],
        matrix: np.ndarray,
        backing=None,
    ):
        if len(field_max) != len(_NUMERIC_FIELDS):
            raise ValueError("one max per numeric field required")
        if matrix.shape != (len(phrases), FIELD_COUNT):
            raise ValueError("matrix shape does not match the phrase index")
        self._field_max = [max(float(m), 1e-12) for m in field_max]
        self._index: Dict[str, int] = {
            phrase: row for row, phrase in enumerate(phrases)
        }
        self._matrix = matrix
        self._backing = backing
        numeric = _dequantized(matrix, self._field_max)
        numeric.flags.writeable = False
        self._numeric = numeric
        self._m_lookups = get_registry().counter(
            "interestingness_lookups_total",
            help="quantized interestingness vector lookups",
        )

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, phrase: str) -> bool:
        return phrase.lower() in self._index

    def extract(self, phrase: str) -> InterestingnessVector:
        """Dequantized feature vector (the live-extractor protocol)."""
        self._m_lookups.inc()
        key = phrase.lower()
        index = self._index.get(key)
        if index is None:
            raise KeyError(f"unknown concept: {phrase!r}")
        row = self._matrix[index]
        values = {
            name: dequantize(int(row[index]), self._field_max[index], FIELD_BITS)
            for index, name in enumerate(_NUMERIC_FIELDS)
        }
        type_index = int(row[_TYPE_FIELD])
        return InterestingnessVector(
            phrase=key,
            freq_exact=int(round(values["freq_exact"])),
            freq_phrase_contained=int(round(values["freq_phrase_contained"])),
            unit_score=values["unit_score"],
            searchengine_phrase=int(round(values["searchengine_phrase"])),
            concept_size=int(round(values["concept_size"])),
            number_of_chars=int(round(values["number_of_chars"])),
            subconcepts=int(round(values["subconcepts"])),
            high_level_type=(
                None if type_index == 0 else TAXONOMY_TYPES[type_index - 1]
            ),
            wiki_word_count=int(round(values["wiki_word_count"])),
        )

    @property
    def dequantized(self) -> np.ndarray:
        """The read-only (concepts x numeric width) float matrix: row *i*
        is ``extract(phrases()[i]).numeric(())``."""
        return self._numeric

    def rows_of(self, phrases: Sequence[str]) -> np.ndarray:
        """The ``int64`` row of each phrase (case-insensitive), -1 where
        the store has none."""
        index = self._index
        return np.fromiter(
            (index.get(phrase.lower(), -1) for phrase in phrases),
            dtype=np.int64,
            count=len(phrases),
        )

    def numeric_rows(
        self, rows: Sequence[int], exclude_groups: Sequence[str] = ()
    ) -> np.ndarray:
        """``extract(p).numeric(exclude_groups)`` for the phrase of each
        row (:meth:`rows_of`), as one gather of :attr:`dequantized` rows
        (the kept columns only).  A row of -1 raises ``KeyError``."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and rows.min() < 0:
            raise KeyError("unknown concept")
        self._m_lookups.inc(len(rows))
        if exclude_groups:
            return self._numeric[np.ix_(rows, numeric_columns(exclude_groups))]
        return self._numeric[rows]

    def phrases(self) -> List[str]:
        return list(self._index)

    def columns(self) -> Tuple[List[str], np.ndarray]:
        """(phrases in row order, uint16 matrix) for persistence."""
        return list(self._index), self._matrix

    def field_max(self) -> List[float]:
        """The per-field normalization maxima (persistence metadata)."""
        return list(self._field_max)

    def memory_bytes(self) -> int:
        """2 bytes per field per concept (the paper's 18 MB / 1M figure)."""
        return len(self) * FIELD_COUNT * 2

    @classmethod
    def from_vectors(
        cls, vectors: Sequence[InterestingnessVector]
    ) -> "QuantizedInterestingnessStore":
        """Quantize already-extracted vectors (the offline-builder path)
        straight into the row matrix.  A repeated phrase keeps its
        first row and its last vector."""
        field_max = [
            max(
                max((float(v.value(name)) for v in vectors), default=1.0) or 1.0,
                1e-12,
            )
            for name in _NUMERIC_FIELDS
        ]
        last = {vector.phrase: index for index, vector in enumerate(vectors)}
        matrix = np.zeros((len(last), FIELD_COUNT), dtype=np.uint16)
        for row, index in enumerate(last.values()):
            vector = vectors[index]
            matrix[row, :_TYPE_FIELD] = [
                quantize(float(vector.value(name)), scale, FIELD_BITS)
                for name, scale in zip(_NUMERIC_FIELDS, field_max)
            ]
            if vector.high_level_type is not None:
                kind = TAXONOMY_TYPES.index(vector.high_level_type)
                matrix[row, _TYPE_FIELD] = 1 + kind
        return cls(field_max, list(last), matrix)

    @classmethod
    def build(
        cls,
        extractor: InterestingnessExtractor,
        phrases: Sequence[str],
    ) -> "QuantizedInterestingnessStore":
        """Offline precompute + quantization for an inventory of phrases."""
        return cls.from_vectors([extractor.extract(phrase) for phrase in phrases])
