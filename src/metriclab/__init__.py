"""metriclab: log-ratio analysis of finite metric spaces, compatible
ultrametrics with bi-Holder certificates, and box-norm embeddings."""

__version__ = "0.1.0"

from .embedding import (
    DimensionEstimate,
    EmbeddingResult,
    embed_chain,
    estimate_metric_dimension,
    min_embedding_dimension,
    select_embeddable_subchain,
    separated_count,
    verify_embedding_distortion,
)
from .logratio import (
    LogRatioProfile,
    brute_force_min_R,
    gap_bounds,
    nondiscreteness_check,
    profile,
    set_partitions,
    threshold_min_R,
)
from .partitions import (
    ChainClassReport,
    Partition,
    PartitionChain,
    PartitionStats,
    associated_endpoints,
    ball_chain,
    classify_chain,
    dendrogram_chain,
    induced_chain,
    induced_partition,
    largest_gap,
    partition_stats,
    threshold_partition,
    with_singleton_terminal,
)
from .spaces import (
    FiniteMetricSpace,
    from_csv,
    from_json,
    hausdorff_hyperspace,
    is_ultrametric,
    snowflake,
    subspace,
    sup_product,
    to_csv,
    to_json,
    validate,
    violations,
)
from .ultrametrize import (
    HolderFit,
    UltrametricCertificate,
    certificate,
    fit_holder_exponents,
    pushforward_chain,
    subdominant_ultrametric,
    ultrametric_from_chain,
    ultrametric_space_from_chain,
)
from .zoo import (
    KINDS,
    AnalyticFamily,
    comparison_ultrametric,
    family_for_ratio,
    formula_table,
    make_family,
    product_factors,
    sample,
)
