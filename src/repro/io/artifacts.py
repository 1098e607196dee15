"""Artifact serialisation for the staged pipeline.

Every stage artifact — trace, corpus, vocabulary, embedding, k'-NN
graph, service-map spec — maps to a flat payload (a dict of numpy
arrays for ``.npz`` codecs, a JSON document for ``.json`` codecs).
The payload doubles as the artifact's canonical content: its
:func:`~repro.store.fingerprint.stable_hash` is the content hash used
to key downstream stage fingerprints, so two artifacts with equal
payloads are interchangeable regardless of when or where they were
serialised.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import numpy as np

from repro.corpus.document import Corpus, Sentence
from repro.graph.knn_graph import KnnGraph
from repro.io.rawio import read_raw, write_raw
from repro.store.fingerprint import stable_hash
from repro.trace.packet import Trace
from repro.w2v.keyedvectors import KeyedVectors
from repro.w2v.vocab import Vocabulary


class NpzCodec:
    """Codec for artifacts representable as a dict of numpy arrays."""

    suffix = ".npz"

    def __init__(
        self,
        to_payload: Callable[[object], dict],
        from_payload: Callable[[dict], object],
    ) -> None:
        self._to_payload = to_payload
        self._from_payload = from_payload

    def save(self, obj, path: str | Path) -> None:
        """Serialise ``obj`` to ``path`` (which must carry ``.npz``)."""
        np.savez_compressed(Path(path), **self._to_payload(obj))

    def load(self, path: str | Path):
        """Deserialise the artifact written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            payload = {name: data[name] for name in data.files}
        return self._from_payload(payload)

    def content_hash(self, obj) -> str:
        """Canonical content hash of ``obj`` (payload-level, not bytes)."""
        return stable_hash(self._to_payload(obj))


class RawCodec:
    """Codec storing the same payloads as :class:`NpzCodec` in the raw
    mmap-able container from :mod:`repro.io.rawio`.

    ``content_hash`` hashes the payload, exactly like the ``.npz``
    codecs, so switching containers never changes an artifact's
    canonical content hash or any downstream stage fingerprint.  With
    ``mmap=True`` (the default) loads return read-only memmap views,
    so opening a multi-GB embedding costs pages, not RSS.
    """

    suffix = ".raw"

    def __init__(
        self,
        to_payload: Callable[[object], dict],
        from_payload: Callable[[dict], object],
        mmap: bool = True,
    ) -> None:
        self._to_payload = to_payload
        self._from_payload = from_payload
        self.mmap = mmap

    def save(self, obj, path: str | Path) -> None:
        """Serialise ``obj`` to ``path`` (which must carry ``.raw``)."""
        write_raw(Path(path), self._to_payload(obj))

    def load(self, path: str | Path):
        """Deserialise the artifact written by :meth:`save`."""
        return self._from_payload(read_raw(Path(path), mmap=self.mmap))

    def content_hash(self, obj) -> str:
        """Canonical content hash of ``obj`` (payload-level, not bytes)."""
        return stable_hash(self._to_payload(obj))


class JsonCodec:
    """Codec for small structured artifacts (service-map specs)."""

    suffix = ".json"

    def save(self, obj, path: str | Path) -> None:
        """Write ``obj`` (a JSON-able document) to ``path``."""
        Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1))

    def load(self, path: str | Path):
        """Read the JSON document written by :meth:`save`."""
        return json.loads(Path(path).read_text())

    def content_hash(self, obj) -> str:
        """Canonical content hash of the JSON document."""
        return stable_hash(obj)


# ----------------------------------------------------------------------
# Payload converters
# ----------------------------------------------------------------------


def _trace_to_payload(trace: Trace) -> dict:
    return {
        "times": trace.times,
        "senders": trace.senders,
        "ports": trace.ports,
        "protos": trace.protos,
        "receivers": trace.receivers,
        "mirai": trace.mirai,
        "sender_ips": trace.sender_ips,
    }


def _trace_from_payload(payload: dict) -> Trace:
    return Trace(
        times=payload["times"],
        senders=payload["senders"],
        ports=payload["ports"],
        protos=payload["protos"],
        receivers=payload["receivers"],
        mirai=payload["mirai"],
        sender_ips=payload["sender_ips"],
    )


def _corpus_to_payload(corpus: Corpus) -> dict:
    lengths = np.array([len(s) for s in corpus.sentences], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    tokens = (
        np.concatenate([s.tokens for s in corpus.sentences])
        if corpus.sentences
        else np.empty(0, dtype=np.int64)
    )
    return {
        "tokens": tokens.astype(np.int64),
        "offsets": offsets.astype(np.int64),
        "service_ids": np.array(
            [s.service_id for s in corpus.sentences], dtype=np.int64
        ),
        "windows": np.array([s.window for s in corpus.sentences], dtype=np.int64),
        "service_names": np.array(list(corpus.service_names), dtype=np.str_),
    }


def _corpus_from_payload(payload: dict) -> Corpus:
    offsets = payload["offsets"]
    tokens = payload["tokens"]
    sentences = [
        Sentence(
            tokens=tokens[lo:hi],
            service_id=int(service_id),
            window=int(window),
        )
        for lo, hi, service_id, window in zip(
            offsets[:-1], offsets[1:], payload["service_ids"], payload["windows"]
        )
    ]
    return Corpus(
        sentences=sentences,
        service_names=tuple(str(name) for name in payload["service_names"]),
    )


def _vocab_to_payload(artifact: tuple[Vocabulary, np.ndarray]) -> dict:
    vocab, active = artifact
    return {
        "tokens": vocab.tokens,
        "counts": vocab.counts,
        "active": np.asarray(active, dtype=np.int64),
    }


def _vocab_from_payload(payload: dict) -> tuple[Vocabulary, np.ndarray]:
    vocab = Vocabulary(tokens=payload["tokens"], counts=payload["counts"])
    return vocab, payload["active"]


def _keyedvectors_to_payload(keyed: KeyedVectors) -> dict:
    payload = {"tokens": keyed.tokens, "vectors": keyed.vectors}
    if keyed.context_vectors is not None:
        payload["context"] = keyed.context_vectors
    return payload


def _keyedvectors_from_payload(payload: dict) -> KeyedVectors:
    return KeyedVectors(
        tokens=payload["tokens"],
        vectors=payload["vectors"],
        context_vectors=payload.get("context"),
    )


def _ivf_to_payload(index) -> dict:
    spec = index.spec
    return {
        "units": index.units,
        "centroids": index.centroids,
        "assign": index.assign,
        "params": np.array(
            [spec.nlist, spec.nprobe, spec.recall_sample, spec.seed],
            dtype=np.int64,
        ),
    }


def _ivf_from_payload(payload: dict):
    from repro.ann.base import AnnSpec
    from repro.ann.ivf import IVFIndex

    nlist, nprobe, recall_sample, seed = (int(v) for v in payload["params"])
    spec = AnnSpec(
        backend="ivf",
        nlist=nlist,
        nprobe=nprobe,
        recall_sample=recall_sample,
        seed=seed,
    )
    return IVFIndex(
        units=payload["units"],
        spec=spec,
        centroids=payload["centroids"],
        assign=payload["assign"],
    )


def _ivfpq_to_payload(index) -> dict:
    spec = index.spec
    return {
        "units": index.units,
        "centroids": index.centroids,
        "assign": index.assign,
        "codes": index.codes,
        "codebooks": index.codebooks,
        "params": np.array(
            [
                spec.nlist,
                spec.nprobe,
                spec.recall_sample,
                spec.seed,
                spec.pq_m,
                spec.pq_bits,
            ],
            dtype=np.int64,
        ),
    }


def _ivfpq_from_payload(payload: dict):
    from repro.ann.base import AnnSpec
    from repro.ann.ivfpq import IVFPQIndex

    nlist, nprobe, recall_sample, seed, pq_m, pq_bits = (
        int(v) for v in payload["params"]
    )
    spec = AnnSpec(
        backend="ivfpq",
        nlist=nlist,
        nprobe=nprobe,
        recall_sample=recall_sample,
        seed=seed,
        pq_m=pq_m,
        pq_bits=pq_bits,
    )
    return IVFPQIndex(
        units=payload["units"],
        spec=spec,
        centroids=payload["centroids"],
        assign=payload["assign"],
        codes=payload["codes"],
        codebooks=payload["codebooks"],
    )


def _hnsw_to_payload(index) -> dict:
    spec = index.spec
    payload = {
        "units": index.units,
        "node_row": index.node_row,
        "levels": index.levels,
        "links0": index.links0,
        "params": np.array(
            [
                spec.hnsw_m,
                spec.hnsw_ef_build,
                spec.hnsw_ef_search,
                spec.recall_sample,
                spec.seed,
                index.entry,
                len(index.upper_nodes),
            ],
            dtype=np.int64,
        ),
    }
    # Zero-size arrays break the raw container's mmap path, so empty
    # optional sections are simply absent from the payload.
    if index.upper_nodes:
        payload["upper_counts"] = np.array(
            [len(nodes) for nodes in index.upper_nodes], dtype=np.int64
        )
        payload["upper_nodes"] = np.concatenate(index.upper_nodes)
        payload["upper_links"] = np.concatenate(index.upper_links, axis=0)
    ghosts = index.ghost_vecs
    if len(ghosts):
        payload["ghost_vecs"] = ghosts
    return payload


def _hnsw_from_payload(payload: dict):
    from repro.ann.base import AnnSpec
    from repro.ann.hnsw import HNSWIndex

    m, ef_build, ef_search, recall_sample, seed, entry, n_upper = (
        int(v) for v in payload["params"]
    )
    spec = AnnSpec(
        backend="hnsw",
        hnsw_m=m,
        hnsw_ef_build=ef_build,
        hnsw_ef_search=ef_search,
        recall_sample=recall_sample,
        seed=seed,
    )
    upper_nodes: list[np.ndarray] = []
    upper_links: list[np.ndarray] = []
    if n_upper:
        counts = payload["upper_counts"]
        starts = np.concatenate(([0], np.cumsum(counts)))
        nodes = payload["upper_nodes"]
        links = payload["upper_links"]
        for level in range(n_upper):
            lo, hi = int(starts[level]), int(starts[level + 1])
            upper_nodes.append(nodes[lo:hi])
            upper_links.append(links[lo:hi])
    return HNSWIndex(
        units=payload["units"],
        spec=spec,
        node_row=payload["node_row"],
        levels=payload["levels"],
        links0=payload["links0"],
        upper_nodes=upper_nodes,
        upper_links=upper_links,
        entry=entry,
        ghost_vecs=payload.get("ghost_vecs"),
    )


def _graph_to_payload(graph: KnnGraph) -> dict:
    return {
        "n_nodes": np.array([graph.n_nodes], dtype=np.int64),
        "sources": graph.sources,
        "targets": graph.targets,
        "weights": graph.weights,
    }


def _graph_from_payload(payload: dict) -> KnnGraph:
    return KnnGraph(
        n_nodes=int(payload["n_nodes"][0]),
        sources=payload["sources"],
        targets=payload["targets"],
        weights=payload["weights"],
    )


#: Codec for :class:`~repro.trace.packet.Trace` artifacts.
TRACE_CODEC = NpzCodec(_trace_to_payload, _trace_from_payload)

#: Codec for :class:`~repro.corpus.document.Corpus` artifacts.
CORPUS_CODEC = NpzCodec(_corpus_to_payload, _corpus_from_payload)

#: Codec for ``(Vocabulary, active_senders)`` artifacts.
VOCAB_CODEC = NpzCodec(_vocab_to_payload, _vocab_from_payload)

#: Codec for :class:`~repro.w2v.keyedvectors.KeyedVectors` artifacts
#: (same ``tokens``/``vectors`` keys as ``KeyedVectors.save``).
KEYEDVECTORS_CODEC = NpzCodec(_keyedvectors_to_payload, _keyedvectors_from_payload)

#: Codec for :class:`~repro.graph.knn_graph.KnnGraph` artifacts.
KNN_GRAPH_CODEC = NpzCodec(_graph_to_payload, _graph_from_payload)

#: Codec for :class:`~repro.ann.ivf.IVFIndex` artifacts (the trained
#: quantizer + list assignments; inverted lists rebuild on load).
IVF_INDEX_CODEC = NpzCodec(_ivf_to_payload, _ivf_from_payload)

#: Codec for :class:`~repro.ann.hnsw.HNSWIndex` artifacts (layered
#: graph, internal-id maps, tombstone vectors and spec knobs — the f32
#: navigation matrix is reconstructed on load, so round-trips are
#: bit-identical).
HNSW_INDEX_CODEC = NpzCodec(_hnsw_to_payload, _hnsw_from_payload)

#: Codec for :class:`~repro.ann.ivfpq.IVFPQIndex` artifacts (coarse
#: quantizer, PQ codebooks, and the compressed codes).
IVFPQ_INDEX_CODEC = NpzCodec(_ivfpq_to_payload, _ivfpq_from_payload)

#: Raw (mmap-able) siblings of the large-matrix codecs.  They store
#: the same payload dicts, so content hashes — and therefore stage
#: fingerprints — are container-independent.
TRACE_RAW_CODEC = RawCodec(_trace_to_payload, _trace_from_payload)
CORPUS_RAW_CODEC = RawCodec(_corpus_to_payload, _corpus_from_payload)
KEYEDVECTORS_RAW_CODEC = RawCodec(
    _keyedvectors_to_payload, _keyedvectors_from_payload
)
IVF_INDEX_RAW_CODEC = RawCodec(_ivf_to_payload, _ivf_from_payload)
IVFPQ_INDEX_RAW_CODEC = RawCodec(_ivfpq_to_payload, _ivfpq_from_payload)
HNSW_INDEX_RAW_CODEC = RawCodec(_hnsw_to_payload, _hnsw_from_payload)

#: ``(npz, raw)`` codec pair of every persisted ANN index, keyed by its
#: name in :data:`repro.ann.base.BACKENDS`.  ``"exact"`` has none: its
#: index is the embedding itself.
INDEX_CODECS = {
    "ivf": (IVF_INDEX_CODEC, IVF_INDEX_RAW_CODEC),
    "ivfpq": (IVFPQ_INDEX_CODEC, IVFPQ_INDEX_RAW_CODEC),
    "hnsw": (HNSW_INDEX_CODEC, HNSW_INDEX_RAW_CODEC),
}

#: Codec for service-map spec documents.
SERVICE_MAP_CODEC = JsonCodec()


def trace_content_hash(trace: Trace) -> str:
    """Canonical content hash of a trace (keys the ingest stage)."""
    return TRACE_CODEC.content_hash(trace)
