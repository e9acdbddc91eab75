"""Model-quality observability: CTR, rank churn, and feature drift.

PR 4's runtime layer answers "is the service healthy?"; this module
answers "is the *model* healthy?" — the paper's own yardstick is live
click behavior (Section VII trains and evaluates on CTR), so serving
needs quality signals, not just latency histograms:

* :class:`QualityMonitor` folds click-tracking reports
  (:class:`~repro.clicks.tracking.StoryClickRecord`, duck-typed) and
  served rankings into the metrics registry: sliding-window CTR per
  rank position (``ctr_by_position{position}``), rank churn between
  consecutive rankings (normalized Kendall distance over the shared
  top concepts), and the served score distribution.  Hand it an
  :class:`~repro.clicks.online.OnlineCtrTracker` to keep the
  decayed-CTR view in the same place.
* :class:`DriftBaseline` captures per-feature first/second moments of
  the model feature columns at :class:`~repro.offline.builder.
  OfflineBuilder` time; the builder bakes them into the datapack
  manifest (``feature_baselines`` section — optional, old packs load
  unchanged).
* :class:`DriftDetector` taps the serving-time feature matrices
  (``ConceptRanker.feature_observer``), keeps traffic-decayed running
  moments, and compares them against the baseline: the gauge
  ``feature_drift_zscore{feature}`` tracks how many baseline standard
  deviations the serving mean has moved, and crossing the threshold
  increments ``feature_drift_alerts_total{feature}`` exactly once per
  excursion (state-change semantics, not once per observation).

Everything here is observation-only: no result path reads these
objects, and a document costs one deque append / a few numpy adds.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import MetricsRegistry

__all__ = [
    "SCORE_BUCKETS",
    "CHURN_BUCKETS",
    "QualityMonitor",
    "DriftBaseline",
    "DriftDetector",
    "baseline_from_manifest",
    "load_baseline",
]

# RankSVM margins live on a small symmetric scale; churn is a [0, 1]
# fraction of discordant pairs.
SCORE_BUCKETS = (
    -10.0, -5.0, -2.5, -1.0, -0.5, -0.25, -0.1,
    0.0, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
CHURN_BUCKETS = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)

MANIFEST_BASELINE_KEY = "feature_baselines"


def _registry_or_default(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    if registry is not None:
        return registry
    from repro.obs import get_registry

    return get_registry()


class QualityMonitor:
    """Sliding-window ranking-quality gauges over the registry.

    *tracker* is an optional :class:`~repro.clicks.online.OnlineCtrTracker`
    that every report is folded into (so serving keeps one live decayed
    CTR view); *positions* bounds the per-rank CTR gauges; *window* is
    the number of recent reports each position's CTR is computed over;
    *churn_depth* caps the pairwise churn comparison (top-K).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracker=None,
        positions: int = 10,
        window: int = 256,
        churn_depth: int = 20,
    ):
        if positions <= 0 or window <= 0 or churn_depth <= 1:
            raise ValueError("positions/window must be >= 1, churn_depth >= 2")
        registry = _registry_or_default(registry)
        self._registry = registry
        self.tracker = tracker
        self.positions = positions
        self.churn_depth = churn_depth
        self._windows: List[Deque[Tuple[float, float]]] = [
            deque(maxlen=window) for __ in range(positions)
        ]
        self._m_reports = registry.counter(
            "quality_reports_total", help="click-tracking reports observed"
        )
        self._m_views = registry.counter(
            "quality_views_total", help="entity views across reports"
        )
        self._m_clicks = registry.counter(
            "quality_clicks_total", help="entity clicks across reports"
        )
        self._m_ctr_position = [
            registry.gauge(
                "ctr_by_position",
                help="sliding-window CTR by rank position",
                position=index,
            )
            for index in range(positions)
        ]
        self._m_global_ctr = registry.gauge(
            "quality_ctr", help="sliding-window CTR over all positions"
        )
        self._m_rankings = registry.counter(
            "quality_rankings_total", help="served rankings observed"
        )
        self._m_scores = registry.histogram(
            "rank_score",
            help="served RankSVM score distribution",
            buckets=SCORE_BUCKETS,
        )
        self._m_churn = registry.histogram(
            "rank_churn",
            help="pairwise-order churn vs the previous served ranking",
            buckets=CHURN_BUCKETS,
        )
        self._m_churn_last = registry.gauge(
            "rank_churn_last", help="churn of the most recent ranking"
        )
        self._last_order: Dict[str, int] = {}

    # -- click reports -----------------------------------------------------

    def observe_report(self, record) -> None:
        """Fold one click-tracking report (entities by rank position).

        *record* is duck-typed against
        :class:`~repro.clicks.tracking.StoryClickRecord`: it needs
        ``entities`` whose items expose ``phrase`` / ``baseline_score``
        / ``views`` / ``clicks``.  Rank position is by decreasing
        production score, matching what users actually saw.
        """
        if self.tracker is not None:
            self.tracker.observe_report(record)
        entities = sorted(
            record.entities, key=lambda e: -float(e.baseline_score)
        )
        self._m_reports.inc()
        for position, entity in enumerate(entities[: self.positions]):
            window = self._windows[position]
            window.append((float(entity.views), float(entity.clicks)))
            views = sum(v for v, __ in window)
            clicks = sum(c for __, c in window)
            self._m_ctr_position[position].set(
                clicks / views if views > 0 else 0.0
            )
        for entity in entities:
            self._m_views.inc(entity.views)
            self._m_clicks.inc(entity.clicks)
        total_views = sum(v for window in self._windows for v, __ in window)
        total_clicks = sum(c for window in self._windows for __, c in window)
        self._m_global_ctr.set(
            total_clicks / total_views if total_views > 0 else 0.0
        )

    def ctr_at(self, position: int) -> float:
        """The current sliding-window CTR of one rank position."""
        return self._m_ctr_position[position].value

    # -- served rankings ---------------------------------------------------

    def observe_ranking(
        self, phrases: Sequence[str], scores: Sequence[float]
    ) -> None:
        """One served ranking: score distribution + churn vs the last.

        Churn is the fraction of discordant pairs among the phrases the
        two consecutive rankings share (a normalized Kendall distance
        over the top ``churn_depth``): 0.0 means the shared concepts
        kept their relative order, 1.0 means it fully reversed.
        """
        self._m_rankings.inc()
        for score in scores:
            self._m_scores.observe(float(score))
        current = {
            phrase: index
            for index, phrase in enumerate(phrases[: self.churn_depth])
        }
        churn = self._churn(self._last_order, current)
        if churn is not None:
            self._m_churn.observe(churn)
            self._m_churn_last.set(churn)
        self._last_order = current

    @staticmethod
    def _churn(
        previous: Dict[str, int], current: Dict[str, int]
    ) -> Optional[float]:
        shared = [phrase for phrase in current if phrase in previous]
        if len(shared) < 2:
            return None  # nothing comparable yet
        discordant = total = 0
        for a_pos, a in enumerate(shared):
            for b in shared[a_pos + 1 :]:
                total += 1
                if (previous[a] - previous[b]) * (current[a] - current[b]) < 0:
                    discordant += 1
        return discordant / total


@dataclass(frozen=True)
class DriftBaseline:
    """Per-feature moments of the model columns at pack-build time."""

    names: Tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    count: int

    @classmethod
    def from_matrix(
        cls, names: Sequence[str], matrix: np.ndarray
    ) -> "DriftBaseline":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(names):
            raise ValueError("matrix must be (rows, len(names))")
        return cls(
            names=tuple(names),
            mean=matrix.mean(axis=0),
            std=matrix.std(axis=0),
            count=int(matrix.shape[0]),
        )

    @classmethod
    def from_store(cls, store, names: Optional[Sequence[str]] = None):
        """Moments over a quantized interestingness store's vectors.

        Uses the store's *dequantized* matrix, the rows the serving
        feature matrix gathers, so the baseline measures exactly what
        serving will see.
        """
        from repro.features.interestingness import numeric_feature_names

        if names is None:
            names = numeric_feature_names(())
        if not len(store):
            raise ValueError("cannot baseline an empty store")
        return cls.from_matrix(names, store.dequantized)

    def as_dict(self) -> Dict[str, object]:
        return {
            "names": list(self.names),
            "mean": [round(float(v), 12) for v in self.mean],
            "std": [round(float(v), 12) for v in self.std],
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: Optional[Dict]) -> Optional["DriftBaseline"]:
        if not payload:
            return None
        return cls(
            names=tuple(payload["names"]),
            mean=np.asarray(payload["mean"], dtype=float),
            std=np.asarray(payload["std"], dtype=float),
            count=int(payload.get("count", 0)),
        )


def baseline_from_manifest(manifest: Optional[Dict]) -> Optional[DriftBaseline]:
    """The drift baseline of a build manifest (None for pre-PR-5 packs)."""
    if not manifest:
        return None
    return DriftBaseline.from_dict(manifest.get(MANIFEST_BASELINE_KEY))


def load_baseline(pack_dir) -> Optional[DriftBaseline]:
    """Read ``manifest.json`` in *pack_dir*; None if absent/sectionless."""
    path = Path(pack_dir) / "manifest.json"
    if not path.exists():
        return None
    return baseline_from_manifest(json.loads(path.read_text()))


class DriftDetector:
    """Serving-vs-baseline feature-distribution comparison.

    Call :meth:`bind` with the serving feature column names (the
    service does this when handed a detector); columns without a
    baseline (the context-dependent relevance feature, or features a
    newer model added) are skipped and listed in ``unmonitored``.

    :meth:`observe` accumulates traffic-decayed per-column sums (decay
    is row-driven like :class:`~repro.clicks.online.OnlineCtrTracker`,
    so quiet periods don't erase evidence); every *check_every* rows
    the running means are z-scored against the baseline
    (``|running_mean - baseline_mean| / baseline_std``).  A feature
    whose score crosses *z_threshold* with at least *min_observations*
    rows of evidence enters the alert state and increments
    ``feature_drift_alerts_total{feature}`` once; it must fall back
    below the threshold before it can alert again.
    """

    def __init__(
        self,
        baseline: DriftBaseline,
        feature_names: Optional[Sequence[str]] = None,
        registry: Optional[MetricsRegistry] = None,
        z_threshold: float = 3.0,
        min_observations: int = 64,
        half_life_rows: float = 4096.0,
        check_every: int = 256,
    ):
        if z_threshold <= 0 or half_life_rows <= 0 or check_every <= 0:
            raise ValueError("thresholds must be positive")
        self.baseline = baseline
        self.z_threshold = float(z_threshold)
        self.min_observations = int(min_observations)
        self.half_life_rows = float(half_life_rows)
        self.check_every = int(check_every)
        self._registry = _registry_or_default(registry)
        self._m_rows = self._registry.counter(
            "feature_drift_rows_total", help="feature rows observed for drift"
        )
        self._m_checks = self._registry.counter(
            "feature_drift_checks_total", help="drift comparisons performed"
        )
        self._columns: List[Tuple[int, int]] = []  # (serving col, baseline col)
        self.unmonitored: Tuple[str, ...] = ()
        self._names: Tuple[str, ...] = ()
        self._sum = np.zeros(0)
        self._count = 0.0
        self._serving_cols = np.zeros(0, dtype=int)
        self._base_mean = np.zeros(0)
        self._base_scale = np.ones(0)
        self._monitored_names: List[str] = []
        self._since_check = 0
        self._in_alert: Dict[str, bool] = {}
        self._zscores: Dict[str, float] = {}
        self._m_z: Dict[str, object] = {}
        self._m_alerts: Dict[str, object] = {}
        if feature_names is not None:
            self.bind(feature_names)

    def bind(self, feature_names: Sequence[str]) -> "DriftDetector":
        """Map serving feature columns onto baseline columns by name."""
        base_index = {name: i for i, name in enumerate(self.baseline.names)}
        columns: List[Tuple[int, int]] = []
        skipped: List[str] = []
        for column, name in enumerate(feature_names):
            if name in base_index:
                columns.append((column, base_index[name]))
            else:
                skipped.append(name)
        self._columns = columns
        self.unmonitored = tuple(skipped)
        self._names = tuple(feature_names)
        self._sum = np.zeros(len(feature_names))
        self._count = 0.0
        # vectorized views for check(): z for every monitored column in
        # one numpy expression instead of a python loop
        self._serving_cols = np.asarray(
            [col for col, __ in columns], dtype=int
        )
        self._base_mean = np.asarray(
            [self.baseline.mean[base] for __, base in columns], dtype=float
        )
        self._base_scale = np.maximum(
            np.asarray(
                [self.baseline.std[base] for __, base in columns],
                dtype=float,
            ),
            1e-9,
        )
        self._monitored_names = [
            self.baseline.names[base] for __, base in columns
        ]
        for __, base_col in columns:
            name = self.baseline.names[base_col]
            self._in_alert.setdefault(name, False)
            self._m_z[name] = self._registry.gauge(
                "feature_drift_zscore",
                help="serving mean shift in baseline standard deviations",
                feature=name,
            )
            self._m_alerts[name] = self._registry.counter(
                "feature_drift_alerts_total",
                help="threshold crossings by feature",
                feature=name,
            )
        return self

    def observe(self, matrix: np.ndarray) -> None:
        """Fold one serving feature matrix (rows are concepts)."""
        if not self._columns:
            return
        matrix = np.asarray(matrix, dtype=float)
        rows = matrix.shape[0]
        if rows == 0:
            return
        decay = 0.5 ** (rows / self.half_life_rows)
        self._sum = self._sum * decay + matrix.sum(axis=0)
        self._count = self._count * decay + rows
        self._m_rows.inc(rows)
        self._since_check += rows
        if self._since_check >= self.check_every:
            self._since_check = 0
            self.check()

    def check(self) -> Dict[str, float]:
        """Compare running means to the baseline; update gauges/alerts."""
        if not self._columns or self._count <= 0:
            return {}
        self._m_checks.inc()
        means = self._sum[self._serving_cols] / self._count
        zscores = (means - self._base_mean) / self._base_scale
        ready = self._count >= self.min_observations
        for name, z in zip(self._monitored_names, zscores.tolist()):
            self._zscores[name] = z
            self._m_z[name].set(z)
            drifted = abs(z) > self.z_threshold
            if drifted and ready and not self._in_alert[name]:
                self._in_alert[name] = True
                self._m_alerts[name].inc()
            elif not drifted and self._in_alert[name]:
                self._in_alert[name] = False
        return dict(self._zscores)

    def drifted_features(self) -> List[str]:
        """Features currently in the alert state, sorted."""
        return sorted(name for name, hot in self._in_alert.items() if hot)

    def status(self) -> Dict[str, object]:
        """JSON-ready drift state for ``/readyz``."""
        return {
            "baseline_count": self.baseline.count,
            "rows_observed": round(self._count, 3),
            "monitored": [
                self.baseline.names[base] for __, base in self._columns
            ],
            "unmonitored": list(self.unmonitored),
            "zscores": {
                name: round(z, 6) for name, z in sorted(self._zscores.items())
            },
            "drifted": self.drifted_features(),
        }
