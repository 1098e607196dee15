"""Content-addressed artifact store for the staged pipeline.

Every stage of the DarkVec pipeline (``ingest -> service-map ->
corpus -> vocab -> train``, plus the lazily built ``ann-index`` and
``knn-index`` siblings of ``train``) consumes and produces persistable
artifacts.  This package provides:

* :mod:`repro.store.fingerprint` — stable content hashes over plain
  values and numpy arrays, and the stage-fingerprint recipe
  (stage code version + relevant config fields + upstream artifact
  hashes), so an unchanged configuration is a pure cache hit and a
  changed knob re-runs only the stages downstream of it.
* :mod:`repro.store.cache` — :class:`~repro.store.cache.ArtifactStore`,
  the on-disk object store keyed by those fingerprints, with
  integrity-checked loads (a corrupted artifact is discarded and
  recomputed, never trusted).
* :mod:`repro.store.state` — persistence of a fitted
  :class:`~repro.core.pipeline.DarkVec` so ``repro update`` can append
  a day of traffic to yesterday's state.
"""

from repro.store.cache import ArtifactStore
from repro.store.fingerprint import stable_hash, stage_fingerprint

__all__ = ["ArtifactStore", "stable_hash", "stage_fingerprint"]
