"""Sharded skip-gram trainer: the one SGNS training engine.

Every skip-gram fit runs here — :meth:`~repro.w2v.model.Word2Vec.fit`
and :meth:`~repro.w2v.model.Word2Vec.fit_pairs` at every ``workers``
value.  Each epoch the permutation of sentences (or, for an explicit
pair stream, of pairs) is cut into shards: one per lane —
``workers × shards_per_worker`` lanes when ``workers > 1``, a single
inline lane at ``workers=1`` — and more when needed so that no shard
expects more than :data:`PAIR_BUDGET` raw pairs, which bounds the pairs
held in memory however large the corpus grows.

Per shard, a *generation* task gathers the shard's sentences from the
flattened corpus, applies subsampling and emits skip-gram pairs in
sentence order (:func:`~repro.w2v.skipgram.skipgram_pairs_flat`).  It
shuffles that raw stream within windows of two batches, cuts it into
SGD batches of ``batch_pairs`` pairs, deduplicates each batch and
shuffles the batch's unique pairs; an *SGD* task then replays the
batches through :func:`~repro.parallel.sgd.sgd_step_fast`.  Both kinds
of task keep their large arrays in the worker thread's own
:class:`~repro.parallel.sgd.SgdScratch`, so a warm fit does not fault
fresh memory in for every shard and batch.  Generation
for shard ``i+1`` is prefetched while SGD runs on shard ``i``, and with
several threads the SGD tasks of different shards run concurrently,
updating the shared ``syn0``/``syn1`` matrices lock-free (Hogwild);
only the learning-rate bookkeeping takes a lock.

Determinism: the shard layout depends only on the corpus and the
requested ``workers`` (never on the machine's core count), and each
shard draws its randomness from ``(seed, epoch, shard)``.  Counters are
therefore deterministic at any worker count and identical across pool
backends.  Vectors are bit-identical for a fixed seed whenever the
pool runs inline (``workers=1``, or a single core); real threads race
lock-free, so their vectors differ run to run while staying
statistically equivalent.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.obs import recorder as obs_recorder
from repro.parallel.pool import (
    WorkerPool,
    default_backend,
    fork_available,
    resolve_workers,
)
from repro.parallel.sgd import (
    SgdScratch,
    dedup_pairs,
    sgd_step_fast,
    sparse_kernels,
)
from repro.parallel.shm import SharedArray
from repro.w2v.mathutils import cap_row_norms
from repro.w2v.negative import NegativeSampler
from repro.w2v.skipgram import sentence_pair_counts, skipgram_pairs_flat

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.w2v.model import Word2Vec

#: Raw (center, context) pairs one shard may expect per epoch.  Large
#: corpora are cut into enough shards to stay within it, which bounds
#: the pairs in memory at once; small corpora keep one shard per lane.
PAIR_BUDGET = 1 << 18

#: Raw pairs are shuffled within windows of this many SGD batches.
#: Batches cut straight from sentence order each cover a handful of
#: sentences, and concurrent (Hogwild) steps on such concentrated
#: batches lose accuracy.  Wider windows cost the other way: a
#: shard-wide shuffle blurs the 2-D PCA class separation the tests
#: check, and four-batch windows already split small coordinated groups
#: (Table 5's ADB worm) across clusters.  Two batches keep all three.
SHUFFLE_BATCHES = 2

#: Fork-published trainer for the in-flight process-backend fit, plus
#: the lock serialising process fits (the global is per-fork state).
_PROC_TRAINER: "ShardedTrainer | None" = None
_PROC_LOCK = threading.Lock()


def _proc_shard_entry(task: tuple) -> tuple:
    """Generate + SGD-train one shard; runs inside a worker process.

    Returns ``(loss_sum, loss_pairs, metrics_snapshot)``.  The worker's
    weight writes land directly in the fork-inherited shared-memory
    syn0/syn1 (Hogwild across processes); everything else — loss terms
    and the task-local metrics shard — must travel home by value, since
    ordinary memory is copy-on-write after fork.
    """
    epoch, shard, sel = task
    trainer = _PROC_TRAINER
    assert trainer is not None
    rec = obs_recorder.current()

    def run() -> tuple[float, int]:
        payload = trainer._generate(epoch, shard, sel)
        return (0.0, 0) if payload is None else trainer._train_shard(payload)

    if not rec.enabled:
        return (*run(), None)
    with rec.task_scope() as shard_registry:
        result = run()
        snapshot = shard_registry.snapshot()
    return (*result, snapshot)


class ShardedTrainer:
    """Skip-gram trainer bound to one :class:`~repro.w2v.model.Word2Vec`.

    The trainer owns no hyper-parameters of its own beyond the shard
    layout; everything else (window, negatives, learning-rate schedule,
    norm capping) is read from the model.

    Attributes:
        shards_per_worker: shards per logical worker and epoch when
            ``workers > 1``; more than one keeps stragglers from idling
            the pool.
        lanes: the minimum shard count per epoch (one inline lane at
            ``workers=1``).
    """

    shards_per_worker: int = 2
    prefetch_margin: int = 1

    def __init__(self, model: "Word2Vec") -> None:
        self.model = model
        self.workers = resolve_workers(model.workers)
        self.lanes = (
            self.workers * self.shards_per_worker if self.workers > 1 else 1
        )
        self._lock = threading.Lock()
        self._processed = 0
        self._loss_sum = 0.0
        self._loss_pairs = 0
        self._shared_processed = None

    @property
    def processed_pairs(self) -> int:
        """Raw (pre-dedup) skip-gram pairs trained so far."""
        return self._processed

    def _backend(self) -> str:
        """The pool backend this fit uses (model knob or scoped default)."""
        backend = self.model.pool_backend or default_backend()
        if backend == "process" and (self.workers == 1 or not fork_available()):
            backend = "thread"
        return backend

    # ------------------------------------------------------------------
    # Entry points (called by Word2Vec.fit / fit_pairs)
    # ------------------------------------------------------------------

    def train_corpus(
        self,
        encoded: list[np.ndarray],
        lengths: np.ndarray,
        syn0: np.ndarray,
        syn1: np.ndarray,
        sampler: NegativeSampler | None,
        keep_probs: np.ndarray | None,
        total_pairs: int,
        batch_pairs: int,
        rng: np.random.Generator,
    ) -> None:
        """Train ``syn0``/``syn1`` in place on an encoded corpus.

        ``rng`` drives only the cross-epoch sentence permutation; all
        per-shard randomness derives from ``(seed, epoch, shard)`` so
        the work decomposition, not the thread schedule, defines the
        random streams.
        """
        self._begin(syn0, syn1, sampler, total_pairs, batch_pairs)
        flat = (
            np.concatenate(encoded) if encoded else np.empty(0, dtype=np.int64)
        )
        starts = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        weights = sentence_pair_counts(
            lengths, self.model.context, dynamic=self.model.dynamic_window
        )

        def generate(epoch: int, shard: int, sel: np.ndarray):
            return self._generate_corpus_shard(
                flat, starts, lengths, keep_probs, epoch, shard, sel
            )

        self._train_epochs(len(encoded), generate, rng, weights)

    def train_pair_stream(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        syn0: np.ndarray,
        syn1: np.ndarray,
        sampler: NegativeSampler | None,
        total_pairs: int,
        batch_pairs: int,
        rng: np.random.Generator,
    ) -> None:
        """Train on an explicit pair stream (the ``fit_pairs`` path).

        Each epoch's permutation of the pairs is the stream that shards
        and batches cut; highly repetitive streams (IP2VEC emits five
        pairs per packet) compress well under per-batch dedup.
        """
        self._begin(syn0, syn1, sampler, total_pairs, batch_pairs)

        def generate(epoch: int, shard: int, sel: np.ndarray):
            if len(sel) == 0:
                return None
            rng = self._shard_rng(epoch, shard)
            return self._batches(centers[sel], contexts[sel], rng), rng

        self._train_epochs(len(centers), generate, rng)

    # ------------------------------------------------------------------
    # Epoch / shard machinery
    # ------------------------------------------------------------------

    def _begin(
        self,
        syn0: np.ndarray,
        syn1: np.ndarray,
        sampler: NegativeSampler | None,
        total_pairs: int,
        batch_pairs: int,
    ) -> None:
        self._syn0 = syn0
        self._syn1 = syn1
        self._sampler = sampler
        self._total_pairs = total_pairs
        self._batch_pairs = batch_pairs
        self._n_vocab = len(syn0)
        self._processed = 0
        self._loss_sum = 0.0
        self._loss_pairs = 0
        self._shared_processed = None
        self._track_loss = self.model.progress is not None
        # Import scipy's kernels now, in the parent: a process pool's
        # forked workers then inherit them instead of each importing
        # scipy when its first batch scatters.
        sparse_kernels()
        # Buffers, one set per worker thread (Hogwild threads must not
        # share them), reused across that thread's shards and batches.
        self._scratch = threading.local()

    def _train_epochs(
        self,
        n_items: int,
        generate: Callable[[int, int, np.ndarray], tuple | None],
        rng: np.random.Generator,
        weights: np.ndarray | None = None,
    ) -> None:
        """Run every epoch; ``weights`` are expected pairs per item.

        ``weights=None`` means one raw pair per item (a pair stream).
        """
        if n_items == 0:
            return
        pairs = n_items if weights is None else float(weights.sum())
        n_shards = min(n_items, max(self.lanes, math.ceil(pairs / PAIR_BUDGET)))
        if self._backend() == "process":
            executor = self._process_epochs(generate)
        else:
            executor = self._thread_epochs(generate)
        model = self.model
        t_start = time.perf_counter()
        with executor as run_epoch:
            for epoch in range(model.epochs):
                loss_sum0, loss_pairs0 = self._loss_sum, self._loss_pairs
                t_epoch = time.perf_counter()
                with obs.span("train.epoch", epoch=epoch):
                    order = rng.permutation(n_items)
                    run_epoch(epoch, _split(order, n_shards, weights))
                obs.observe("train.epoch_seconds", time.perf_counter() - t_epoch)
                epoch_pairs = self._loss_pairs - loss_pairs0
                model._emit_progress(
                    epoch,
                    self._processed,
                    self._total_pairs,
                    t_start,
                    loss=(self._loss_sum - loss_sum0) / epoch_pairs
                    if epoch_pairs
                    else None,
                )

    @contextmanager
    def _thread_epochs(self, generate: Callable):
        """Epoch runner over a thread pool (inline at one thread)."""
        with WorkerPool(self.model.workers, backend="thread") as pool:
            yield lambda epoch, shards: self._run_epoch(
                pool, epoch, shards, generate
            )

    @contextmanager
    def _process_epochs(self, generate: Callable):
        """Epoch runner over fork-based worker processes.

        syn0/syn1 move into shared memory for the duration of the fit
        (so Hogwild writes from every process land in one buffer) and
        are copied back into the caller's arrays at the end.  The
        epoch/shard decomposition and all per-shard RNG streams are
        identical to the thread path — only the executor differs — so
        deterministic metric totals (pair counts, batch sizes) match
        across backends exactly.
        """
        global _PROC_TRAINER
        ctx = multiprocessing.get_context("fork")
        rec = obs_recorder.current()
        shared0 = SharedArray.copy_of(self._syn0)
        shared1 = SharedArray.copy_of(self._syn1)
        original0, original1 = self._syn0, self._syn1
        self._syn0, self._syn1 = shared0.array, shared1.array
        self._shared_processed = ctx.Value("q", 0)
        self._generate = generate
        stream = None
        initializer, initargs = None, ()
        if rec.enabled and getattr(rec, "worker_stream_interval", None):
            # A live sink is attached: workers heartbeat in-flight
            # snapshots + RSS through a queue (see repro.obs.live).
            from repro.obs.live import WorkerStream

            stream = WorkerStream.maybe(rec, ctx)
        if stream is not None:
            initializer, initargs = stream.initargs
            stream.start()
        try:
            with _PROC_LOCK:
                _PROC_TRAINER = self
                try:
                    # One fork per fit: workers inherit the trainer (and
                    # the shared mappings) once; tasks are small tuples.
                    with ctx.Pool(
                        processes=self.workers,
                        initializer=initializer,
                        initargs=initargs,
                    ) as procs:

                        def run_epoch(epoch: int, shards: list) -> None:
                            tasks = [(epoch, i, sel) for i, sel in enumerate(shards)]
                            for loss_sum, loss_pairs, snapshot in procs.imap(
                                _proc_shard_entry, tasks
                            ):
                                self._loss_sum += loss_sum
                                self._loss_pairs += loss_pairs
                                if snapshot is not None and rec.enabled:
                                    rec.merge_snapshot(snapshot)
                            self._processed = int(self._shared_processed.value)

                        yield run_epoch
                finally:
                    _PROC_TRAINER = None
                    if stream is not None:
                        stream.stop()
            original0[...] = shared0.array
            original1[...] = shared1.array
        finally:
            self._syn0, self._syn1 = original0, original1
            self._shared_processed = None
            shared0.release()
            shared1.release()

    def _run_epoch(
        self,
        pool: WorkerPool,
        epoch: int,
        shards: list[np.ndarray],
        generate: Callable[[int, int, np.ndarray], tuple | None],
    ) -> None:
        """Pipelined pass over one epoch's shards.

        A bounded window of generation tasks runs ahead of the SGD
        tasks, so pair construction for shard ``i+1`` overlaps SGD on
        shard ``i`` while at most ``threads + prefetch_margin`` shards
        of pairs exist at once.
        """
        prefetch = pool.threads + self.prefetch_margin
        pending: deque = deque()
        sgd_futures = []
        next_shard = 0

        def submit_generation() -> None:
            nonlocal next_shard
            shard = next_shard
            pending.append(pool.submit(generate, epoch, shard, shards[shard]))
            next_shard += 1

        while next_shard < len(shards) and len(pending) < prefetch:
            submit_generation()
        while pending:
            payload = pending.popleft().result()
            if payload is not None:
                sgd_futures.append(pool.submit(self._train_shard, payload))
            if next_shard < len(shards):
                submit_generation()
        for future in sgd_futures:
            loss_sum, loss_pairs = future.result()
            with self._lock:
                self._loss_sum += loss_sum
                self._loss_pairs += loss_pairs

    def _shard_rng(self, epoch: int, shard: int) -> np.random.Generator:
        return np.random.default_rng([self.model.seed, epoch, shard])

    def _generate_corpus_shard(
        self,
        flat: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        keep_probs: np.ndarray | None,
        epoch: int,
        shard: int,
        sel: np.ndarray,
    ) -> tuple | None:
        model = self.model
        shard_lengths = lengths[sel]
        n_tokens = int(shard_lengths.sum())
        if n_tokens == 0:
            return None
        rng = self._shard_rng(epoch, shard)
        # Gather the shard's sentences from the flat corpus in one shot.
        segment = np.concatenate([[0], np.cumsum(shard_lengths)[:-1]])
        token_idx = np.repeat(starts[:-1][sel], shard_lengths) + (
            np.arange(n_tokens) - np.repeat(segment, shard_lengths)
        )
        tokens = flat[token_idx]
        if keep_probs is not None:
            keep = rng.random(n_tokens) < keep_probs[tokens]
            sentence_id = np.repeat(np.arange(len(sel)), shard_lengths)
            shard_lengths = np.bincount(sentence_id[keep], minlength=len(sel))
            tokens = tokens[keep]
        shard_starts = np.concatenate([[0], np.cumsum(shard_lengths)]).astype(
            np.int64
        )
        centers, contexts = skipgram_pairs_flat(
            tokens,
            shard_starts,
            model.context,
            rng,
            dynamic=model.dynamic_window,
            scratch=self._thread_scratch(),
        )
        if len(centers) == 0:
            return None
        return self._batches(centers, contexts, rng), rng

    def _batches(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        rng: np.random.Generator,
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
        """Cut a raw pair stream into deduplicated SGD batches.

        The stream is shuffled within windows of :data:`SHUFFLE_BATCHES`
        batches, then cut into batches of ``batch_pairs`` raw pairs,
        returned as ``(centers, contexts, multiplicity, raw_pairs)``.
        Dedup stays inside the batch (see :mod:`repro.parallel.sgd` for
        why that is exact), and the uniques are shuffled because
        ``dedup_pairs`` returns same-center pairs adjacent, and adjacent
        pairs share a negative draw.
        """
        batches = []
        window = SHUFFLE_BATCHES * self._batch_pairs
        for start in range(0, len(centers), window):
            order = start + rng.permutation(min(window, len(centers) - start))
            for lo in range(0, len(order), self._batch_pairs):
                raw = order[lo : lo + self._batch_pairs]
                uniq_c, uniq_x, multiplicity = dedup_pairs(
                    centers[raw], contexts[raw], self._n_vocab
                )
                perm = rng.permutation(len(uniq_c))
                batches.append(
                    (uniq_c[perm], uniq_x[perm], multiplicity[perm], len(raw))
                )
        return batches

    def _thread_scratch(self) -> SgdScratch:
        """The calling worker thread's buffers for pair generation and SGD.

        A thread runs one task at a time and a generation task copies
        its pairs into batches before returning, so the two kinds of
        task can share one set.
        """
        scratch = getattr(self._scratch, "buffers", None)
        if scratch is None:
            scratch = self._scratch.buffers = SgdScratch()
        return scratch

    def _claim(self, represented: int) -> float:
        """Advance the processed-pairs counter; returns the batch's lr.

        The counter lives behind the trainer lock on the thread path
        and behind a ``multiprocessing.Value`` on the process path, so
        the linear learning-rate decay tracks global progress under
        either executor.
        """
        shared = self._shared_processed
        if shared is not None:
            with shared.get_lock():
                done = shared.value
                shared.value += represented
        else:
            with self._lock:
                done = self._processed
                self._processed += represented
        return self.model._learning_rate(done, self._total_pairs)

    def _train_shard(self, payload: tuple) -> tuple[float, int]:
        """SGD over one shard's batches; returns (loss sum, pairs).

        Loss terms are returned rather than accumulated in place so the
        same code serves thread workers (parent absorbs under its lock)
        and forked processes (values travel home with the result).
        """
        model = self.model
        batches, rng = payload
        scratch = self._thread_scratch()
        loss_sum = 0.0
        loss_pairs = 0
        for centers, contexts, multiplicity, raw in batches:
            lr = self._claim(raw)
            loss = sgd_step_fast(
                self._syn0,
                self._syn1,
                centers,
                contexts,
                multiplicity,
                self._sampler,
                model.negative,
                lr,
                rng,
                track_loss=self._track_loss,
                scratch=scratch,
            )
            obs.add("train.pairs", raw)
            obs.add("train.batches", 1)
            obs.observe("train.batch_pairs", raw)
            if loss is not None:
                loss_sum += loss
                loss_pairs += raw
            if model.max_norm is not None:
                cap_row_norms(self._syn0, model.max_norm)
                cap_row_norms(self._syn1, model.max_norm)
        return loss_sum, loss_pairs


def _split(
    order: np.ndarray, n_shards: int, weights: np.ndarray | None
) -> list[np.ndarray]:
    """Cut one epoch's item permutation into ``n_shards`` shards.

    With ``weights`` (expected pairs per sentence) the cuts balance the
    expected pairs rather than the sentence counts, since darknet
    sentence lengths are heavy-tailed; a shard then exceeds its share
    by at most one sentence.
    """
    if n_shards == 1:
        return [order]
    if weights is None:
        return np.array_split(order, n_shards)
    load = np.cumsum(weights[order])
    cuts = np.searchsorted(load, load[-1] * np.arange(1, n_shards) / n_shards)
    return np.split(order, cuts)
