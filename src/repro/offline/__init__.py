"""Offline build pipeline: corpus -> index -> units -> features -> pack.

One-command, vectorized, optionally parallel construction of the v2
datapacks the serving path loads (paper Section VI: the offline half of
the production framework).
"""

from repro.offline.builder import BuildConfig, BuildReport, OfflineBuilder, StageStats

__all__ = [
    "BuildConfig",
    "BuildReport",
    "OfflineBuilder",
    "StageStats",
]
