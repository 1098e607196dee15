"""Ablation: clustering method comparison (Section 7.1's claim).

The paper states that k-Means, DBSCAN and hierarchical agglomerative
clustering applied directly in the embedded space "produce poor
results due to the curse of dimensionality and difficult parameter
tuning", motivating the k'-NN graph + Louvain design.  It also cites
the bipartite sender-port community detection of Soro et al. [39] as a
timing-free alternative.

This bench scores every method against the simulator's hidden actor
partition (ARI): Louvain on the k'-NN graph should lead.
"""

import numpy as np

from benchmarks.conftest import emit, run_once
from repro.baselines.bipartite import bipartite_communities
from repro.graph.classic import (
    cosine_agglomerative,
    cosine_dbscan,
    cosine_kmeans,
)
from repro.graph.knn_graph import build_knn_graph
from repro.graph.louvain import louvain_communities
from repro.transfer.evaluate import adjusted_rand_index
from repro.utils.tables import format_table


def test_ablation_clustering_methods(benchmark, bench_bundle, darkvec_domain):
    embedding = darkvec_domain.embedding
    vectors = embedding.vectors
    truth_partition = bench_bundle.actor_names_for(embedding.tokens)
    n_actors = len(set(truth_partition.tolist()))

    def compute():
        results = {}

        graph = build_knn_graph(vectors, k_prime=3)
        louvain = louvain_communities(graph.symmetric_csr(), seed=0)
        results["Louvain on k'-NN graph"] = louvain

        # Oracle variants get the true number of hidden actors — an
        # advantage no real analyst has; blind variants use a plausible
        # but wrong guess.  The gap between the two is the "difficult
        # parameter tuning" the paper complains about.
        results[f"k-Means (oracle k={n_actors})"] = cosine_kmeans(
            vectors, n_actors, seed=0
        )
        results["k-Means (blind k=10)"] = cosine_kmeans(vectors, 10, seed=0)
        results["DBSCAN (eps=0.1)"] = cosine_dbscan(
            vectors, eps=0.1, min_samples=5
        )
        results["DBSCAN (eps=0.3)"] = cosine_dbscan(
            vectors, eps=0.3, min_samples=5
        )
        results[f"Agglomerative (oracle k={n_actors})"] = cosine_agglomerative(
            vectors, n_actors
        )

        bipartite = bipartite_communities(
            bench_bundle.trace, senders=embedding.tokens
        )
        results["Bipartite sender-port [39]"] = bipartite.communities
        return results

    results = run_once(benchmark, compute)

    scores = {
        name: adjusted_rand_index(truth_partition, labels)
        for name, labels in results.items()
    }
    emit("")
    rows = [
        [name, len(set(labels.tolist())), f"{scores[name]:.3f}"]
        for name, labels in results.items()
    ]
    emit(
        format_table(
            ["Method", "Clusters", "ARI vs hidden actors"],
            rows,
            title="Ablation - clustering methods (Section 7.1)",
        )
    )

    louvain_score = scores["Louvain on k'-NN graph"]
    # Louvain needs no cluster-count oracle yet beats every
    # *embedding-space* method that also lacks one (the paper's §7.1
    # claim).  The bipartite baseline consumes different data (the raw
    # sender-port graph) and is reported for context, not dominance.
    for name, score in scores.items():
        if (
            "oracle" not in name
            and "Bipartite" not in name
            and name != "Louvain on k'-NN graph"
        ):
            assert louvain_score > score - 0.02, (name, score, louvain_score)
    # Louvain stays competitive with the oracle-parameterised variants.
    oracle_best = max(
        score for name, score in scores.items() if "oracle" in name
    )
    assert louvain_score > oracle_best - 0.2
    assert louvain_score > 0.3
