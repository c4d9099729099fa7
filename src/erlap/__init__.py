"""erlap: Monte Carlo laboratory for Laplacian spectra of sparse
Erdos-Renyi random graphs.

Samples the G(N, p/N) ensemble reproducibly, decomposes realizations into
connected clusters, computes cluster-resolved Laplacian spectra and the
empirical integrated density of states, and checks the results against the
closed-form cluster statistics and spectral-edge bounds of the subcritical
regime.
"""

from .analytics import (
    TruncationBudgetError,
    decay_F,
    decay_f,
    linear_prob_finite,
    lower_bound_L,
    M_of_E,
    poisson_moment,
    replica_g,
    tau_n,
    tau_normalization,
    tau_tail_bound,
    tree_prob_finite,
    upper_bound_U,
)
from .clusters import (
    CensusAccumulator,
    CensusReport,
    Cluster,
    ClusterDecomposition,
    decompose,
)
from .ensemble import (
    Graph,
    GraphSpec,
    degree_sequence,
    read_edge_list,
    sample_graph,
    write_edge_list,
)
from .harness import (
    BUILD_TAG,
    ExperimentConfig,
    run_census,
    run_ids,
    run_lifshitz,
    run_moments,
    run_verify,
)
from .spectral import (
    EigensolverError,
    IdsEstimate,
    MomentInequalityReport,
    MomentSamples,
    cluster_min_gaps,
    eigenvalues_cluster,
    empirical_ids,
    graph_spectrum,
    moment_samples,
    path_emin_reference,
    quadratic_form,
)

__version__ = "0.1.0"
