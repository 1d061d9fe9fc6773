#![deny(missing_docs)]
//! # ektelo-plans
//!
//! The EKTELO plan library: every plan signature of the paper's Fig. 2,
//! the CDF estimator of Algorithm 1, and the case studies of §9.
//!
//! A *plan* is ordinary client-space code that drives the protected kernel
//! through operator calls. Each plan here takes a kernel, a vector source
//! and a privacy budget, performs its transformations / selections /
//! measurements, and returns an estimate of the data vector — privacy is
//! enforced entirely by the kernel (paper Theorem 4.1), so none of this
//! code is trusted.
//!
//! Every plan whose input is a vector source builds a typed `PlanSpec`
//! with the operator-graph API ([`ektelo_core::ops::graph`]): its Fig. 2
//! signature below is *rendered from the graph* (`PlanSpec::signature`,
//! pinned by tests), and its worst-case ε is statically pre-accounted and
//! reserved before any kernel call, so an over-budget call fails having
//! spent nothing. The table-source plans (PrivBayesLS, the CDF estimator
//! and Naive Bayes) still drive the kernel directly (signature from the
//! paper shown for reference).
//!
//! | Fig. 2 ID | Plan | Function | Signature |
//! |-----------|------|----------|-----------|
//! | 1  | Identity | [`baseline::plan_identity`] | `SI LM LS` |
//! | 2  | Privelet | [`baseline::plan_privelet`] | `SP LM LS` |
//! | 3  | H2 | [`baseline::plan_h2`] | `SH2 LM LS` |
//! | 4  | HB | [`baseline::plan_hb`] | `SHB LM LS` |
//! | 5  | Greedy-H | [`baseline::plan_greedy_h`] | `SG LM LS` |
//! | 6  | Uniform | [`baseline::plan_uniform`] | `ST LM LS` |
//! | 7  | MWEM | [`mwem::plan_mwem`] | `I:( SW LM MW )` |
//! | 8  | AHP | [`data_aware::plan_ahp`] | `PA TR SI LM LS` |
//! | 9  | DAWA | [`data_aware::plan_dawa`] | `PD TR SG LM LS` |
//! | 10 | QuadTree | [`grids::plan_quad_tree`] | `SQ LM LS` |
//! | 11 | UniformGrid | [`grids::plan_uniform_grid`] | `SU LM LS` |
//! | 12 | AdaptiveGrid | [`grids::plan_adaptive_grid`] | `SU LM SA LM LS` |
//! | 13 | HDMM | [`baseline::plan_hdmm`] | `SHD LM LS` |
//! | 14 | DAWA-Striped | [`striped::plan_dawa_striped`] | `PS TP[ PD TR SG LM ] LS` |
//! | 15 | HB-Striped | [`striped::plan_hb_striped`] | `PS TP[ SHB LM ] LS` |
//! | 16 | HB-Striped_kron | [`striped::plan_hb_striped_kron`] | `SS LM LS` |
//! | 17 | PrivBayesLS | [`privbayes::plan_privbayes_ls`] | `SPB LM LS` (direct) |
//! | 18 | MWEM variant b | [`mwem::plan_mwem_variant_b`] | `I:( SW SH2 LM MW )` |
//! | 19 | MWEM variant c | [`mwem::plan_mwem_variant_c`] | `I:( SW LM NLS )` |
//! | 20 | MWEM variant d | [`mwem::plan_mwem_variant_d`] | `I:( SW SH2 LM NLS )` |
//!
//! Case studies: [`cdf::cdf_estimator`] (Algorithm 1),
//! [`privbayes::plan_privbayes`] (the baseline of Table 5),
//! [`naive_bayes`] (§9.3, Fig. 3), [`select_ls`] (Algorithm 8).

pub mod baseline;
pub mod cdf;
pub mod data_aware;
pub mod grids;
pub mod mwem;
pub mod naive_bayes;
pub mod privbayes;
pub mod select_ls;
pub mod striped;
pub mod util;
