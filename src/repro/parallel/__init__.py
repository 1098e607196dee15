"""Parallel execution engine for the DarkVec pipeline.

This subsystem provides the machinery behind every ``workers`` knob in
the library:

* :mod:`repro.parallel.pool` — a :class:`~repro.parallel.pool.WorkerPool`
  thread-pool wrapper (numpy kernels release the GIL, so threads give
  real concurrency on the BLAS-heavy hot paths).
* :mod:`repro.parallel.sgd` — vectorized SGNS kernels (sigmoid lookup
  table, sparse-matmul scatter-add, per-batch pair deduplication) used
  by the sharded trainer, with per-worker reusable buffers
  (:class:`~repro.parallel.sgd.SgdScratch`).
* :mod:`repro.parallel.trainer` — the Hogwild-style
  :class:`~repro.parallel.trainer.ShardedTrainer`, the only skip-gram
  trainer: :class:`~repro.w2v.model.Word2Vec` runs every skip-gram fit
  through it.

``workers=1`` everywhere means "one inline thread": the same code as
any other value, bit-reproducible for a fixed seed.  ``workers=0``
means "use all available cores".
"""

from repro.parallel.pool import (
    POOL_BACKENDS,
    WorkerPool,
    default_backend,
    fork_available,
    pool_backend,
    resolve_workers,
)
from repro.parallel.sgd import (
    SgdScratch,
    dedup_pairs,
    scaled_scatter_add,
    sigmoid_table,
)
from repro.parallel.shm import SharedArray
from repro.parallel.trainer import ShardedTrainer

__all__ = [
    "POOL_BACKENDS",
    "SgdScratch",
    "SharedArray",
    "ShardedTrainer",
    "WorkerPool",
    "dedup_pairs",
    "default_backend",
    "fork_available",
    "pool_backend",
    "resolve_workers",
    "scaled_scatter_add",
    "sigmoid_table",
]
