"""Which heavy modules load where.

The serving path (``import repro.cli``, ``DarkVec.load_state``, a
clustered :class:`~repro.serve.snapshot.ModelSnapshot` and a classify)
imports neither scipy nor networkx: they cost the daemon's cold start
about 0.16 s and 30 MB and it never calls them.  A fit does use
scipy's sparse kernels, and a process-backend fit must import them in
the parent before its pool forks, so that no worker imports scipy on
its own.  Both checks run in a fresh interpreter, since the test
process has long imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.parallel.pool import fork_available

SRC = str(Path(repro.__file__).parents[1])


def _run(script: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_read_path_imports_no_scipy_or_networkx(fitted_darkvec, tmp_path):
    fitted_darkvec.save_state(tmp_path / "state")
    result = _run(
        f"""
        import json, sys
        import repro.cli
        from repro.core import DarkVec
        from repro.serve import ModelSnapshot

        darkvec = DarkVec.load_state({str(tmp_path / "state")!r})
        snapshot = ModelSnapshot.of(darkvec, with_clusters=True)
        answer = snapshot.classify(int(snapshot.sender_ips[0]))
        loaded = sorted(
            name for name in sys.modules
            if name.split(".")[0] in ("scipy", "networkx")
        )
        print(json.dumps({{
            "clusters": len(set(snapshot.communities.tolist())),
            "label": answer["label"],
            "loaded": loaded,
        }}))
        """
    )
    assert result["clusters"] >= 1 and result["label"]
    assert result["loaded"] == []


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_process_fit_imports_kernels_before_fork(tmp_path):
    log = tmp_path / "workers.log"
    result = _run(
        f"""
        import json, sys
        import numpy as np
        from repro.parallel import trainer
        from repro.w2v.model import Word2Vec

        KERNELS = "scipy.sparse._sparsetools"
        before_fit = KERNELS in sys.modules
        entry = trainer._proc_shard_entry

        def recording_entry(task):
            # Runs in the forked worker, before the task's first batch.
            with open({str(log)!r}, "a") as log:
                log.write(f"{{int(KERNELS in sys.modules)}}\\n")
            return entry(task)

        trainer._proc_shard_entry = recording_entry
        rng = np.random.default_rng(0)
        sentences = [rng.integers(0, 40, size=30) for _ in range(200)]
        Word2Vec(
            vector_size=8, context=3, epochs=1, seed=5, workers=2,
            pool_backend="process",
        ).fit(sentences)
        print(json.dumps({{"before_fit": before_fit}}))
        """
    )
    assert result["before_fit"] is False
    in_workers = log.read_text().split()
    assert in_workers and set(in_workers) == {"1"}
