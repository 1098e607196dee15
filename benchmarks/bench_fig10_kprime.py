"""Figure 10: impact of k' on cluster detection.

Paper shape: k' = 1 yields thousands of tiny disconnected clusters;
the cluster count collapses sharply by k' = 3 (the elbow) and larger
k' only slightly reduces modularity, which stays high (> 0.8).
"""

from benchmarks.conftest import emit, run_once
from repro.graph.knn_graph import build_knn_graph
from repro.graph.louvain import louvain_communities
from repro.graph.modularity import modularity
from repro.utils.ascii_plot import line_chart
from repro.utils.tables import format_table

K_PRIME_VALUES = tuple(range(1, 15))


def test_fig10_kprime_sweep(benchmark, darkvec_domain):
    vectors = darkvec_domain.embedding.vectors

    def compute():
        n_clusters, scores = [], []
        for k_prime in K_PRIME_VALUES:
            graph = build_knn_graph(vectors, k_prime=k_prime)
            csr = graph.symmetric_csr()
            communities = louvain_communities(csr, seed=0)
            n_clusters.append(len(set(communities.tolist())))
            scores.append(modularity(csr, communities))
        return n_clusters, scores

    n_clusters, scores = run_once(benchmark, compute)

    emit("")
    emit(
        format_table(
            ["k'", "Clusters", "Modularity"],
            [
                [k, n, f"{q:.3f}"]
                for k, n, q in zip(K_PRIME_VALUES, n_clusters, scores)
            ],
            title="Figure 10 - impact of k' in cluster detection",
        )
    )
    emit(
        line_chart(
            K_PRIME_VALUES,
            n_clusters,
            title="Figure 10 - number of clusters vs k'",
            x_label="k'",
            y_label="clusters",
        )
    )

    # Sharp elbow: k'=1 produces many more clusters than k'=3.
    assert n_clusters[0] > n_clusters[2] * 3
    # Beyond the elbow the count changes slowly.
    assert n_clusters[2] < n_clusters[0] * 0.4
    assert abs(n_clusters[6] - n_clusters[13]) < n_clusters[2]
    # Modularity stays high throughout.
    assert min(scores[1:]) > 0.6
