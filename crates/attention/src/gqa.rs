//! Packed multi-head attention over a [`HeadTopology`].
//!
//! Llama-3.1, Phi-3 and Gemma2 — three of the four models the paper
//! evaluates — use grouped-query attention (GQA): several query heads
//! share one key/value head, shrinking the KV cache. Per *query head* the
//! computation is ordinary attention against its group's K/V, so the
//! Flash-ABFT checksum carries over unchanged: one fused check per query
//! head, with `sumrow(V)` shared across the heads of a group (an
//! additional hardware saving the paper's architecture would inherit for
//! free). Plain multi-head attention is the `kv_heads == query_heads`
//! point ([`HeadTopology::mha`]) of the same kernel — e.g. BERT's
//! 12 heads × d=64.

use crate::topology::HeadTopology;
use crate::{flash2, AttentionConfig};
use fa_tensor::{Matrix, Scalar};
use rayon::prelude::*;

/// Computes attention on packed matrices: `q` is
/// `N × (query_heads·d)`, `k`/`v` are `N × (kv_heads·d)`. Each query
/// head runs FlashAttention-2 against its group's K/V; returns the
/// packed `N × (query_heads·d)` output.
///
/// # Panics
///
/// Panics on shape mismatch.
///
/// ```
/// use fa_tensor::{Matrix, random::ElementDist};
/// use fa_attention::{gqa, AttentionConfig, HeadTopology};
/// let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(8));
/// let q = Matrix::<f64>::random_seeded(6, 32, ElementDist::default(), 1);
/// let k = Matrix::<f64>::random_seeded(6, 16, ElementDist::default(), 2);
/// let v = Matrix::<f64>::random_seeded(6, 16, ElementDist::default(), 3);
/// let out = gqa::attention(&q, &k, &v, &topo);
/// assert_eq!((out.rows(), out.cols()), (6, 32));
/// ```
pub fn attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    topo: &HeadTopology,
) -> Matrix<T> {
    assert_eq!(q.cols(), topo.q_dim(), "packed Q width mismatch");
    assert_eq!(k.cols(), topo.kv_dim(), "packed K width mismatch");
    assert_eq!(v.cols(), topo.kv_dim(), "packed V width mismatch");
    let d = topo.head.head_dim();

    // Slice each kv group's K/V **once**; every query head of the group
    // borrows the same slices — the same shared-per-group machinery the
    // serving prefill path uses (one kv stream feeding `group_size` query
    // states), rather than each member re-materializing its group's K/V.
    let groups: Vec<(Matrix<T>, Matrix<T>)> = (0..topo.kv_heads)
        .map(|g| {
            let cols = topo.kv_head_cols(g);
            (k.column_block(cols.clone()), v.column_block(cols))
        })
        .collect();

    // Heads are independent attentions: when the head count can fill the
    // pool, fan them out in a single fork, each running the *serial* row
    // kernel (bit-identical by the property tests) so nested parallelism
    // never depends on the pool implementation. With fewer heads than
    // workers, keep the row-parallel kernel per head instead — otherwise
    // a single-head layer would serialize entirely. Tiny simulator-sized
    // calls stay on this thread entirely.
    type Kernel<T> = fn(&Matrix<T>, &Matrix<T>, &Matrix<T>, &AttentionConfig) -> Matrix<T>;
    let head = |h: usize, kernel: Kernel<T>| {
        let (kg, vg) = &groups[topo.group_of(h)];
        kernel(&q.column_block(topo.q_head_cols(h)), kg, vg, &topo.head)
    };
    let fork_heads = topo.query_heads >= rayon::current_num_threads()
        && crate::par::worth_parallelizing(topo.query_heads * q.rows(), k.rows(), d);
    let heads: Vec<Matrix<T>> = if fork_heads {
        (0..topo.query_heads)
            .into_par_iter()
            .map(|h| head(h, flash2::attention_serial))
            .collect()
    } else {
        (0..topo.query_heads)
            .map(|h| head(h, flash2::attention))
            .collect()
    };

    Matrix::from_fn(q.rows(), topo.q_dim(), |r, c| heads[c / d][(r, c % d)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use fa_tensor::random::ElementDist;

    #[test]
    fn heads_are_independent() {
        // Computing each head separately with the naive kernel must match
        // the packed multi-head result.
        let topo = HeadTopology::mha(3, AttentionConfig::new(4));
        let n = 8;
        let q = Matrix::<f64>::random_seeded(n, topo.q_dim(), ElementDist::default(), 1);
        let k = Matrix::<f64>::random_seeded(n, topo.kv_dim(), ElementDist::default(), 2);
        let v = Matrix::<f64>::random_seeded(n, topo.kv_dim(), ElementDist::default(), 3);
        let packed = attention(&q, &k, &v, &topo);
        for h in 0..3 {
            let cols = topo.q_head_cols(h);
            let expected = naive::attention(
                &q.column_block(cols.clone()),
                &k.column_block(cols.clone()),
                &v.column_block(cols.clone()),
                &topo.head,
            );
            let got = packed.column_block(cols);
            assert!(got.max_abs_diff(&expected) < 1e-12, "head {h}");
        }
    }

    #[test]
    fn single_head_degenerates_to_flash2() {
        let topo = HeadTopology::mha(1, AttentionConfig::new(8));
        let q = Matrix::<f64>::random_seeded(6, 8, ElementDist::default(), 4);
        let k = Matrix::<f64>::random_seeded(6, 8, ElementDist::default(), 5);
        let v = Matrix::<f64>::random_seeded(6, 8, ElementDist::default(), 6);
        let a = attention(&q, &k, &v, &topo);
        let b = crate::flash2::attention(&q, &k, &v, &topo.head);
        assert_eq!(a, b);
    }

    #[test]
    fn model_dim_and_slice() {
        let topo = HeadTopology::mha(4, AttentionConfig::new(16));
        assert_eq!(topo.q_dim(), 64);
        let m = Matrix::<f64>::from_fn(2, 64, |_, c| c as f64);
        let h2 = m.column_block(topo.q_head_cols(2));
        assert_eq!((h2.rows(), h2.cols()), (2, 16));
        assert_eq!(h2[(0, 0)], 32.0);
        assert_eq!(h2[(1, 15)], 47.0);
    }

    #[test]
    fn head_parallel_bit_identical_to_serial() {
        // Shapes above the fork threshold; the single-fork scheduler must
        // not change a bit relative to a one-thread pool.
        let topo = HeadTopology::mha(4, AttentionConfig::new(8));
        let q = Matrix::<f64>::random_seeded(32, 32, ElementDist::default(), 50);
        let k = Matrix::<f64>::random_seeded(32, 32, ElementDist::default(), 51);
        let v = Matrix::<f64>::random_seeded(32, 32, ElementDist::default(), 52);
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| attention(&q, &k, &v, &topo));
        for threads in [2, 3, 8] {
            let parallel = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| attention(&q, &k, &v, &topo));
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "head counts must be positive")]
    fn zero_heads_panics() {
        let _ = HeadTopology::mha(0, AttentionConfig::new(4));
    }

    #[test]
    #[should_panic(expected = "query head 2 out of 2")]
    fn slice_out_of_range_panics() {
        let topo = HeadTopology::mha(2, AttentionConfig::new(2));
        let m = Matrix::<f64>::zeros(1, 4);
        let _ = m.column_block(topo.q_head_cols(2));
    }

    #[test]
    #[should_panic(expected = "packed K width mismatch")]
    fn kv_width_is_checked() {
        let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(4));
        let q = Matrix::<f64>::zeros(3, 16);
        let kv = Matrix::<f64>::zeros(3, 16);
        let _ = attention(&q, &kv, &kv, &topo);
    }

    #[test]
    fn grouped_heads_share_kv() {
        // Two query heads in the same group attending to identical K/V
        // must match per-head naive attention against that group's K/V.
        let head = AttentionConfig::new(4);
        let topo = HeadTopology::gqa(4, 2, head);
        let q = Matrix::<f64>::random_seeded(6, 16, ElementDist::default(), 10);
        let k = Matrix::<f64>::random_seeded(6, 8, ElementDist::default(), 11);
        let v = Matrix::<f64>::random_seeded(6, 8, ElementDist::default(), 12);
        let out = attention(&q, &k, &v, &topo);

        for h in 0..4 {
            let g = topo.group_of(h);
            let expected = naive::attention(
                &q.column_block(topo.q_head_cols(h)),
                &k.column_block(topo.kv_head_cols(g)),
                &v.column_block(topo.kv_head_cols(g)),
                &head,
            );
            let got = out.column_block(topo.q_head_cols(h));
            assert!(got.max_abs_diff(&expected) < 1e-12, "head {h}");
        }
    }

    #[test]
    fn llama31_like_geometry() {
        // Llama-3.1 8B: 32 query heads, 8 KV heads, d=128 — scaled down
        // here (4 q-heads, 1 kv-head) to keep the test fast.
        let topo = HeadTopology::gqa(4, 1, AttentionConfig::new(8));
        let q = Matrix::<f64>::random_seeded(10, 32, ElementDist::default(), 20);
        let k = Matrix::<f64>::random_seeded(10, 8, ElementDist::default(), 21);
        let v = Matrix::<f64>::random_seeded(10, 8, ElementDist::default(), 22);
        let out = attention(&q, &k, &v, &topo);
        assert_eq!((out.rows(), out.cols()), (10, 32));
        assert!(out.all_finite());
    }
}
