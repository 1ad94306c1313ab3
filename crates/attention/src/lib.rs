//! # fa-attention
//!
//! Reference attention kernels for the Flash-ABFT reproduction: every
//! algorithm the paper builds on, in directly-testable Rust.
//!
//! * [`naive`] — textbook attention `softmax(Q·Kᵀ)·V` (paper Eq. 1), the
//!   golden model every other kernel is validated against;
//! * [`lazy`] — Alg. 1: attention with *lazy softmax division* (two inner
//!   passes: max+scores first, then exponentials and output);
//! * [`flash2`] — Alg. 2: FlashAttention-2 with delayed softmax division —
//!   the single-pass online kernel the accelerator implements;
//! * [`tiled`] — FlashAttention-2 processed in key/value blocks, the
//!   memory-tiling form used on GPUs and by the block-parallel accelerator;
//! * [`gqa`] — packed multi-head attention over a [`HeadTopology`]:
//!   each query head runs FlashAttention-2 against its group's K/V
//!   (plain multi-head attention is the `kv_heads == query_heads` point);
//! * [`batch`] — the serving path: a paged, block-allocated KV cache and
//!   a batched multi-sequence decode engine with the fused per-token
//!   checksum;
//! * [`serve`] — the SLO-aware serving frontend: tenant-fair admission
//!   under a per-step token budget, load shedding, graceful degradation
//!   under arena pressure (demote → evict-and-requeue), scrub-driven
//!   corruption absorption, and a deterministic bursty load generator;
//! * [`AttentionConfig`] — scaling (1/√d) and causal masking options shared
//!   by all kernels.
//!
//! All kernels are generic over the [`Scalar`](fa_tensor::Scalar) element
//! format, so the same code serves as the f64 golden model and the BF16
//! datapath model.
//!
//! # Example
//!
//! ```
//! use fa_tensor::{Matrix, random::ElementDist};
//! use fa_attention::{naive, flash2, AttentionConfig};
//!
//! let n = 16;
//! let d = 8;
//! let q = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 1);
//! let k = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 2);
//! let v = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 3);
//! let cfg = AttentionConfig::new(d);
//!
//! let reference = naive::attention(&q, &k, &v, &cfg);
//! let flash = flash2::attention(&q, &k, &v, &cfg);
//! assert!(reference.max_abs_diff(&flash) < 1e-12);
//! ```

pub mod batch;
pub mod decode;
pub mod encoder;
pub mod flash2;
pub mod gqa;
pub mod lazy;
pub mod naive;
pub mod serve;
pub mod tiled;
pub mod topology;

mod config;

pub use config::AttentionConfig;
pub use topology::HeadTopology;

/// Shared parallelization policy: one threshold for the whole workspace,
/// owned by [`fa_tensor::par`].
pub(crate) mod par {
    pub use fa_tensor::par::{worth_parallelizing, worth_parallelizing_units};
}
