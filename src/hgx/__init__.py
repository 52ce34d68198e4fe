"""Hypergraph trees, cross-cuts, embeddings, and an exact Turan oracle."""

from .core import (
    Hypergraph,
    KKCheck,
    common_link,
    complement,
    degree,
    kernel_degree,
    kernel_graph,
    kk_check,
    link,
    min_shadow_degree,
    product,
    real_binomial,
    remove,
    shadow,
    trace,
)
from .covers import Cover, CrossCut, enumerate_min_crosscuts, is_cover, is_crosscut, sigma, tau
from .embedding import (
    BudgetExceeded,
    EmbedResult,
    contains_anchored,
    embed,
    expansion_embed,
    find_sunflower,
    greedy_tree_embed,
    is_free,
)
from .extremal import (
    Classification,
    HomogeneityReport,
    MissingVsNonM,
    OracleResult,
    TreeShadowBound,
    bound_sigma_lower,
    bound_tau_lower,
    centralized_check,
    certify_construction_free,
    classify,
    critical_formula,
    gen_C,
    gen_S,
    gen_standard,
    homogeneous_check,
    homogeneous_extract,
    missing_vs_nonm_check,
    phi_star_matching,
    tree_shadow_bound_check,
    turan_oracle,
)
from .trees import (
    ExpansionMap,
    LimbDetachment,
    TreeCertificate,
    compress,
    delete_crosscut,
    detach_limb,
    expand,
    find_tree_ordering,
    host_tree,
    is_k_reducible,
    k_reduce,
    r_partition,
    remove_certified,
    subtree_at,
    tighten,
    trace_certified,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
