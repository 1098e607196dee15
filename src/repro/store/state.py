"""Persisting a fitted :class:`~repro.core.pipeline.DarkVec`.

The daily-retrain loop (``repro update``) needs yesterday's
:class:`~repro.core.stages.FittedModel` — trace, unfiltered corpus,
embedding, window-grid origin, service map — to apply a warm
incremental update without re-reading old days.  This module writes
that model as a small directory::

    <state>/
      config.json      # DarkVecConfig + resolved service-map spec
      meta.json        # format version, dT-grid origin
      trace.npz        # rolling-window trace
      corpus.npz       # unfiltered corpus (every observed sender)
      embedding.npz    # trained KeyedVectors

All arrays go through the artifact codecs of
:mod:`repro.io.artifacts`, so the files are plain ``.npz``/JSON with no
pickled objects.  :func:`load_state` recomputes the activity filter
from the trace and builds the model through the one ``FittedModel``
constructor, which derives the filtered corpus and the embedding hash.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

from repro.core.config import DarkVecConfig
from repro.io.artifacts import CORPUS_CODEC, KEYEDVECTORS_CODEC, TRACE_CODEC
from repro.services import service_map_from_spec
from repro.services.base import ServiceMap

#: Bump when the state layout changes incompatibly.
STATE_FORMAT = 1


def _write_json(path: Path, document: dict) -> None:
    """Write JSON crash-safely (temp file + ``os.replace``).

    ``repro update`` overwrites yesterday's state in place; an
    interrupted write must never leave a truncated ``config.json`` /
    ``meta.json`` that would make the state unloadable.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(json.dumps(document, sort_keys=True, indent=1))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_state(darkvec, path: str | Path) -> None:
    """Write the fitted state of ``darkvec`` under directory ``path``.

    Raises ``NotFittedError`` when ``darkvec`` has not been fitted and
    ``ValueError`` when its service map is a custom instance without a
    serialisable spec (``to_spec() is None``).
    """
    fitted = darkvec._require_fit()
    service_spec = fitted.service_map.to_spec()
    if service_spec is None:
        raise ValueError(
            "cannot persist state: the service map "
            f"{type(fitted.service_map).__qualname__} has no serialisable "
            "spec (to_spec() returned None)"
        )
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    config = dataclasses.asdict(darkvec.config)
    if isinstance(darkvec.config.service, ServiceMap):
        # asdict() cannot round-trip a ServiceMap; the resolved spec can.
        config["service"] = service_spec
    if config["cache_dir"] is not None:
        config["cache_dir"] = str(config["cache_dir"])

    _write_json(path / "config.json", config)
    _write_json(
        path / "meta.json",
        {
            "format": STATE_FORMAT,
            "t_origin": fitted.t_origin,
            "service_spec": service_spec,
        },
    )
    TRACE_CODEC.save(fitted.trace, path / "trace.npz")
    CORPUS_CODEC.save(fitted.raw_corpus, path / "corpus.npz")
    KEYEDVECTORS_CODEC.save(fitted.embedding, path / "embedding.npz")


def load_state(path: str | Path):
    """Restore a fitted :class:`~repro.core.pipeline.DarkVec`.

    Inverse of :func:`save_state`.  Raises ``FileNotFoundError`` when
    the directory lacks the state files and ``ValueError`` on a state
    format this code does not understand.
    """
    from repro.core.pipeline import DarkVec
    from repro.core.stages import FittedModel

    path = Path(path)
    meta = json.loads((path / "meta.json").read_text())
    if meta.get("format") != STATE_FORMAT:
        raise ValueError(
            f"unsupported state format {meta.get('format')!r} at {path}; "
            f"this build reads format {STATE_FORMAT}"
        )
    config_doc = json.loads((path / "config.json").read_text())
    if isinstance(config_doc["service"], dict):
        config_doc["service"] = service_map_from_spec(config_doc["service"])
    config = DarkVecConfig(**config_doc)

    trace = TRACE_CODEC.load(path / "trace.npz")
    darkvec = DarkVec(config)
    darkvec.fitted = FittedModel(
        trace=trace,
        raw_corpus=CORPUS_CODEC.load(path / "corpus.npz"),
        active=trace.active_senders(config.min_packets),
        embedding=KEYEDVECTORS_CODEC.load(path / "embedding.npz"),
        t_origin=float(meta["t_origin"]),
        service_map=service_map_from_spec(meta["service_spec"]),
    )
    return darkvec
